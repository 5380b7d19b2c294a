//! Continuous profiling: rolling per-signature stage-timing statistics.
//!
//! A [`SignatureProfiler`] folds every pipeline execution's per-stage
//! device timings into per-**signature** rolling statistics, where a
//! signature is the `(plan kind, scene-density bucket, backend)` triple the
//! ROADMAP `AutoTuner` keys its decisions on. Each stage keeps an
//! observation count, an exponentially-decayed mean (so the profile drifts
//! with the workload instead of averaging over its whole history) and an
//! exact [`Histogram`] for p50/p99 — the same log-bucketed type the rest of
//! the telemetry layer snapshots.
//!
//! Producers record through [`Telemetry::profile`](crate::Telemetry::profile)
//! (a no-op unless a profiler is attached *and* the sink's level records
//! metrics), so profiling rides behind the existing `RTNN_TELEMETRY` knob
//! and inherits the workspace invariant that observing never changes query
//! results. The global sink attaches a profiler when the validated
//! `RTNN_PROFILE` knob is on; private sinks attach one explicitly via
//! [`Telemetry::enable_profiler`](crate::Telemetry::enable_profiler).
//!
//! Memory behavior: the map grows with *distinct signatures* (a handful per
//! deployment), and each stage's histogram keeps exact samples like every
//! other telemetry histogram — bounded by the run, not by the signature
//! count.

use std::collections::BTreeMap;

use crate::metrics::Histogram;

/// Default exponential-decay factor for the rolling mean: each new
/// observation moves the mean `alpha` of the way toward itself.
pub const DEFAULT_DECAY_ALPHA: f64 = 0.2;

/// The density bucket a scene of `points` points profiles under:
/// `floor(log2(points))`, so scenes within a power of two of each other
/// share a profile (0 for empty or single-point scenes).
pub fn density_bucket(points: usize) -> u32 {
    if points <= 1 {
        0
    } else {
        usize::BITS - 1 - points.leading_zeros()
    }
}

/// A profile key: the `(plan kind, scene-density bucket, backend)` triple
/// under which stage timings are aggregated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Signature {
    /// Plan kind label (`"knn"` / `"range"` / `"batch"`).
    pub plan_kind: String,
    /// [`density_bucket`] of the scene's point count.
    pub density_bucket: u32,
    /// Backend name (`Backend::name()`: `"gpusim"`, `"bruteforce-oracle"`, ...).
    pub backend: String,
}

impl Signature {
    /// The signature a sample with these coordinates profiles under.
    pub fn new(plan_kind: &str, points: usize, backend: &str) -> Self {
        Signature {
            plan_kind: plan_kind.to_string(),
            density_bucket: density_bucket(points),
            backend: backend.to_string(),
        }
    }

    /// Human-readable key, e.g. `knn/2^13/gpusim`.
    pub fn label(&self) -> String {
        format!(
            "{}/2^{}/{}",
            self.plan_kind, self.density_bucket, self.backend
        )
    }
}

/// One pipeline execution, as the profiler sees it: the signature
/// coordinates plus the per-stage simulated device milliseconds from the
/// execution's `PipelineTrace`.
#[derive(Debug, Clone, Copy)]
pub struct ProfileSample<'a> {
    /// Plan kind label (`"knn"` / `"range"` / `"batch"`).
    pub plan_kind: &'a str,
    /// Number of indexed points in the scene (bucketed by
    /// [`density_bucket`]).
    pub points: usize,
    /// Backend name.
    pub backend: &'a str,
    /// Queries answered by this execution.
    pub queries: u64,
    /// Per-stage `(label, device_ms)` pairs, in pipeline order.
    pub stages: &'a [(&'static str, f64)],
}

/// Rolling statistics of one stage (or of the whole pipeline) under one
/// signature.
#[derive(Debug, Clone, Default)]
struct StageStats {
    count: u64,
    decayed_mean: f64,
    hist: Histogram,
}

impl StageStats {
    fn observe(&mut self, ms: f64, alpha: f64) {
        if self.count == 0 {
            self.decayed_mean = ms;
        } else {
            self.decayed_mean += alpha * (ms - self.decayed_mean);
        }
        self.count += 1;
        self.hist.record(ms);
    }

    fn freeze(&self, stage: &str) -> StageProfile {
        StageProfile {
            stage: stage.to_string(),
            count: self.count,
            mean_ms: self.decayed_mean,
            p50_ms: self.hist.percentile(0.5),
            p99_ms: self.hist.percentile(0.99),
            max_ms: self.hist.max(),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SignatureStats {
    executions: u64,
    queries: u64,
    total: StageStats,
    stages: BTreeMap<&'static str, StageStats>,
}

/// Folds [`ProfileSample`]s into rolling per-[`Signature`] stage statistics.
#[derive(Debug)]
pub struct SignatureProfiler {
    alpha: f64,
    profiles: BTreeMap<Signature, SignatureStats>,
}

impl Default for SignatureProfiler {
    fn default() -> Self {
        Self::new(DEFAULT_DECAY_ALPHA)
    }
}

impl SignatureProfiler {
    /// A profiler whose decayed means move `alpha` (clamped to `(0, 1]`)
    /// of the way toward each new observation.
    pub fn new(alpha: f64) -> Self {
        SignatureProfiler {
            alpha: if alpha > 0.0 {
                alpha.min(1.0)
            } else {
                DEFAULT_DECAY_ALPHA
            },
            profiles: BTreeMap::new(),
        }
    }

    /// Read the validated `RTNN_PROFILE` knob: `Some(profiler)` when on.
    /// Unset / empty / `off` is off; `on` is on; anything else is a
    /// configuration error (the process exits with a clear message, the
    /// `RTNN_TELEMETRY` discipline).
    pub fn from_env() -> Option<Self> {
        match Self::from_vars(|name| std::env::var(name).ok()) {
            Ok(on) => on.then(Self::default),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`Self::from_env`] with an injectable variable source (testable).
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<bool, String> {
        let Some(raw) = get("RTNN_PROFILE") else {
            return Ok(false);
        };
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Ok(false);
        }
        match trimmed.to_ascii_lowercase().as_str() {
            "off" | "0" => Ok(false),
            "on" | "1" => Ok(true),
            _ => Err(format!(
                "RTNN_PROFILE={raw:?} is not a profiler switch: expected \"on\" or \
                 \"off\" (unset it to use the default, off)"
            )),
        }
    }

    /// Fold one execution into its signature's rolling statistics.
    pub fn record(&mut self, sample: &ProfileSample<'_>) {
        let sig = Signature::new(sample.plan_kind, sample.points, sample.backend);
        let stats = self.profiles.entry(sig).or_default();
        stats.executions += 1;
        stats.queries += sample.queries;
        let mut total_ms = 0.0;
        for (label, ms) in sample.stages {
            stats
                .stages
                .entry(label)
                .or_default()
                .observe(*ms, self.alpha);
            total_ms += ms;
        }
        stats.total.observe(total_ms, self.alpha);
    }

    /// Signatures profiled so far.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Freeze the current state, signatures in key order.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            signatures: self
                .profiles
                .iter()
                .map(|(sig, stats)| SignatureProfile {
                    signature: sig.clone(),
                    executions: stats.executions,
                    queries: stats.queries,
                    total: stats.total.freeze("total"),
                    stages: stats
                        .stages
                        .iter()
                        .map(|(label, s)| s.freeze(label))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Frozen rolling statistics of one stage under one signature.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage label (`"Partition"`, `"Schedule"`, `"Launch"`, `"Gather"`)
    /// or `"total"` for the whole pipeline.
    pub stage: String,
    /// Observations folded in.
    pub count: u64,
    /// Exponentially-decayed mean device milliseconds.
    pub mean_ms: f64,
    /// Exact nearest-rank median device milliseconds.
    pub p50_ms: f64,
    /// Exact nearest-rank p99 device milliseconds.
    pub p99_ms: f64,
    /// Largest observation.
    pub max_ms: f64,
}

/// Frozen profile of one signature: execution/query counts plus per-stage
/// and whole-pipeline [`StageProfile`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureProfile {
    /// The signature these statistics aggregate under.
    pub signature: Signature,
    /// Pipeline executions folded in.
    pub executions: u64,
    /// Queries answered across those executions.
    pub queries: u64,
    /// Whole-pipeline (sum over stages) statistics.
    pub total: StageProfile,
    /// Per-stage statistics, stage labels in lexicographic order.
    pub stages: Vec<StageProfile>,
}

impl SignatureProfile {
    /// The profile of one stage, by label.
    pub fn stage(&self, label: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.stage == label)
    }
}

/// Frozen view of a [`SignatureProfiler`] — the feed the ROADMAP
/// `AutoTuner` consumes: look up the signature an incoming query would
/// profile under and read off its measured stage timings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSnapshot {
    /// Per-signature profiles, in signature key order.
    pub signatures: Vec<SignatureProfile>,
}

impl ProfileSnapshot {
    /// Signatures profiled.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The profile an execution with these coordinates would fold into.
    ///
    /// On an exact-signature miss the lookup falls back to an *adjacent*
    /// density bucket (±1, same plan kind and backend): a scene drifting
    /// across a power-of-two boundary keeps serving its neighbour's
    /// statistics instead of forgetting everything — the warm-start
    /// behaviour the `AutoTuner` relies on. When both neighbours exist the
    /// better-populated one wins (ties go to the lower bucket). Buckets
    /// further than one step away — and any plan-kind or backend mismatch —
    /// still return `None`.
    pub fn lookup(
        &self,
        plan_kind: &str,
        points: usize,
        backend: &str,
    ) -> Option<&SignatureProfile> {
        let sig = Signature::new(plan_kind, points, backend);
        if let Some(exact) = self.signatures.iter().find(|p| p.signature == sig) {
            return Some(exact);
        }
        self.signatures
            .iter()
            .filter(|p| {
                p.signature.plan_kind == sig.plan_kind
                    && p.signature.backend == sig.backend
                    && p.signature.density_bucket.abs_diff(sig.density_bucket) == 1
            })
            .max_by(|a, b| {
                a.executions.cmp(&b.executions).then(
                    // Reversed: the *lower* bucket wins an executions tie.
                    b.signature.density_bucket.cmp(&a.signature.density_bucket),
                )
            })
    }

    /// Serialize as JSON Lines: one record per signature, with nested
    /// per-stage statistics. Parses back with
    /// [`parse_jsonl`](crate::parse_jsonl).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.signatures {
            let mut stages = String::from("[");
            for (i, s) in std::iter::once(&p.total).chain(p.stages.iter()).enumerate() {
                if i > 0 {
                    stages.push(',');
                }
                let _ = write!(
                    stages,
                    "{{\"stage\":\"{}\",\"count\":{},\"mean_ms\":{},\"p50_ms\":{},\"p99_ms\":{},\"max_ms\":{}}}",
                    crate::export::json_escape(&s.stage),
                    s.count,
                    crate::export::json_f64(s.mean_ms),
                    crate::export::json_f64(s.p50_ms),
                    crate::export::json_f64(s.p99_ms),
                    crate::export::json_f64(s.max_ms),
                );
            }
            stages.push(']');
            let _ = writeln!(
                out,
                "{{\"type\":\"profile\",\"plan_kind\":\"{}\",\"density_bucket\":{},\"backend\":\"{}\",\"executions\":{},\"queries\":{},\"stages\":{}}}",
                crate::export::json_escape(&p.signature.plan_kind),
                p.signature.density_bucket,
                crate::export::json_escape(&p.signature.backend),
                p.executions,
                p.queries,
                stages,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(
        kind: &'a str,
        points: usize,
        stages: &'a [(&'static str, f64)],
    ) -> ProfileSample<'a> {
        ProfileSample {
            plan_kind: kind,
            points,
            backend: "gpusim",
            queries: 10,
            stages,
        }
    }

    #[test]
    fn density_buckets_are_log2_floors() {
        assert_eq!(density_bucket(0), 0);
        assert_eq!(density_bucket(1), 0);
        assert_eq!(density_bucket(2), 1);
        assert_eq!(density_bucket(3), 1);
        assert_eq!(density_bucket(4), 2);
        assert_eq!(density_bucket(8191), 12);
        assert_eq!(density_bucket(8192), 13);
    }

    #[test]
    fn samples_fold_into_their_signature() {
        let mut prof = SignatureProfiler::default();
        let stages = [("Launch", 4.0), ("Gather", 0.0)];
        prof.record(&sample("knn", 5000, &stages));
        prof.record(&sample("knn", 7000, &stages)); // same bucket (2^12)
        prof.record(&sample("range", 5000, &stages));
        prof.record(&sample("knn", 50_000, &stages)); // different bucket
        assert_eq!(prof.len(), 3);
        let snap = prof.snapshot();
        let p = snap.lookup("knn", 6000, "gpusim").expect("bucket 2^12");
        assert_eq!(p.executions, 2);
        assert_eq!(p.queries, 20);
        assert_eq!(p.stage("Launch").unwrap().count, 2);
        assert_eq!(p.stage("Launch").unwrap().p50_ms, 4.0);
        assert_eq!(p.total.count, 2);
        assert_eq!(p.total.p99_ms, 4.0, "total sums the stage devices");
        assert!(snap.lookup("knn", 6000, "bruteforce-oracle").is_none());
    }

    #[test]
    fn lookup_prefers_the_exact_bucket_over_a_neighbor() {
        let mut prof = SignatureProfiler::default();
        prof.record(&sample("knn", 5000, &[("Launch", 1.0)])); // bucket 12
        prof.record(&sample("knn", 9000, &[("Launch", 9.0)])); // bucket 13
        let snap = prof.snapshot();
        let p = snap
            .lookup("knn", 6000, "gpusim")
            .expect("exact bucket hit");
        assert_eq!(p.signature.density_bucket, 12);
        assert_eq!(p.stage("Launch").unwrap().mean_ms, 1.0);
    }

    #[test]
    fn lookup_falls_back_to_an_adjacent_bucket() {
        let mut prof = SignatureProfiler::default();
        prof.record(&sample("knn", 5000, &[("Launch", 4.0)])); // bucket 12
        let snap = prof.snapshot();
        // 9000 points is bucket 13 — one step above the recorded bucket.
        let p = snap
            .lookup("knn", 9000, "gpusim")
            .expect("adjacent bucket serves the miss");
        assert_eq!(p.signature.density_bucket, 12);
        // 2500 points is bucket 11 — one step below also reaches it.
        let p = snap.lookup("knn", 2500, "gpusim").expect("lower neighbor");
        assert_eq!(p.signature.density_bucket, 12);
        // Two steps away stays a miss.
        assert!(snap.lookup("knn", 1200, "gpusim").is_none(), "bucket 10");
        assert!(snap.lookup("knn", 20_000, "gpusim").is_none(), "bucket 14");
    }

    #[test]
    fn adjacent_fallback_never_crosses_kind_or_backend() {
        let mut prof = SignatureProfiler::default();
        prof.record(&sample("knn", 5000, &[("Launch", 4.0)]));
        let snap = prof.snapshot();
        assert!(snap.lookup("range", 9000, "gpusim").is_none());
        assert!(snap.lookup("knn", 9000, "bruteforce-oracle").is_none());
    }

    #[test]
    fn adjacent_fallback_picks_the_better_populated_neighbor() {
        let mut prof = SignatureProfiler::default();
        prof.record(&sample("knn", 2500, &[("Launch", 1.0)])); // bucket 11, 1 exec
        prof.record(&sample("knn", 9000, &[("Launch", 9.0)])); // bucket 13, 2 execs
        prof.record(&sample("knn", 9000, &[("Launch", 9.0)]));
        let snap = prof.snapshot();
        // Bucket 12 is empty; both neighbors qualify, 13 has more executions.
        let p = snap.lookup("knn", 6000, "gpusim").unwrap();
        assert_eq!(p.signature.density_bucket, 13);
        // On an executions tie the lower bucket wins.
        prof.record(&sample("knn", 2500, &[("Launch", 1.0)]));
        let snap = prof.snapshot();
        let p = snap.lookup("knn", 6000, "gpusim").unwrap();
        assert_eq!(p.signature.density_bucket, 11);
    }

    #[test]
    fn decayed_mean_tracks_drift_faster_than_the_average() {
        let mut prof = SignatureProfiler::new(0.5);
        for _ in 0..20 {
            prof.record(&sample("knn", 100, &[("Launch", 1.0)]));
        }
        for _ in 0..4 {
            prof.record(&sample("knn", 100, &[("Launch", 9.0)]));
        }
        let snap = prof.snapshot();
        let launch = &snap.lookup("knn", 100, "gpusim").unwrap().stages;
        let s = launch.iter().find(|s| s.stage == "Launch").unwrap();
        // Plain average would be (20*1 + 4*9)/24 = 2.33; the decayed mean
        // has moved most of the way to the new regime.
        assert!(s.mean_ms > 7.0, "mean_ms = {}", s.mean_ms);
        // The exact histogram still remembers the old regime.
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p99_ms, 9.0);
    }

    #[test]
    fn first_sample_initializes_the_mean_exactly() {
        let mut prof = SignatureProfiler::new(0.01);
        prof.record(&sample("knn", 100, &[("Launch", 42.0)]));
        let snap = prof.snapshot();
        let p = snap.lookup("knn", 100, "gpusim").unwrap();
        assert_eq!(p.stage("Launch").unwrap().mean_ms, 42.0);
    }

    #[test]
    fn env_knob_parses_and_rejects_garbage() {
        assert!(!SignatureProfiler::from_vars(|_| None).unwrap());
        assert!(!SignatureProfiler::from_vars(|_| Some(" ".into())).unwrap());
        assert!(!SignatureProfiler::from_vars(|_| Some("off".into())).unwrap());
        assert!(SignatureProfiler::from_vars(|_| Some("on".into())).unwrap());
        assert!(SignatureProfiler::from_vars(|_| Some("1".into())).unwrap());
        let err = SignatureProfiler::from_vars(|_| Some("yes".into())).unwrap_err();
        assert!(err.contains("RTNN_PROFILE"), "{err}");
    }

    #[test]
    fn snapshot_jsonl_parses_back() {
        let mut prof = SignatureProfiler::default();
        prof.record(&sample("knn", 5000, &[("Launch", 4.0), ("Gather", 0.5)]));
        let snap = prof.snapshot();
        let jsonl = snap.to_jsonl();
        let parsed = crate::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].get("plan_kind").unwrap().as_str(), Some("knn"));
        assert_eq!(
            parsed[0].get("density_bucket").unwrap().as_f64(),
            Some(12.0)
        );
        let stages = parsed[0].get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 3, "total + 2 stages");
        assert_eq!(stages[0].get("stage").unwrap().as_str(), Some("total"));
    }
}
