//! Online, per-signature stage selection: the `AutoTuner`.
//!
//! The RTNN ablation (fig13 / fig_stages) shows that the full optimisation
//! pipeline is *not* universally good — `nbody_9m range` runs ~20% slower
//! under `OptLevel::Full` than with everything off, while the same pipeline
//! is a large win on the LiDAR clouds. Which stages pay off depends on the
//! (plan kind, scene density, backend) regime, which is exactly the
//! [`Signature`](rtnn_telemetry::Signature) the continuous
//! [`SignatureProfiler`](rtnn_telemetry::SignatureProfiler) keys its
//! measurements by. This module closes that loop:
//!
//! ```text
//!                       ┌──────────────────────────────────────────────┐
//!                       │                 AutoTuner                    │
//!   query (plan kind,   │  signature seen before?                      │
//!   points, backend) ──▶│   no  ─▶ cost-model first shot (calibrated   │
//!                       │          k1/k2/k3 coefficients)              │
//!                       │   yes ─▶ unmeasured arm left? round-robin it │
//!                       │          else ε-greedy: mostly exploit the   │
//!                       │          cheapest measured arm (EWMA + p50), │
//!                       │          occasionally re-explore (seeded)    │
//!                       └──────────────┬───────────────────────────────┘
//!                                      │ TunerDecision (an OptLevel arm)
//!                                      ▼
//!                     StageOverrides::for_level(level) ─▶ pipeline
//!                                      │
//!                  per-stage device timings (net of structure builds)
//!                                      │
//!                                      ▼
//!                          AutoTuner::observe (EWMA fold)
//! ```
//!
//! The caller owns the tuner and runs this loop through one call,
//! [`AutoTuner::run`], around any entry point that takes per-call
//! [`StageOverrides`]: [`Index::query_with`](crate::Index::query_with),
//! `ShardedIndex::query_with`, `DynamicIndex::search_with` (one tuner
//! carried across frames), and a `QueryService` tick with an attached
//! tuner (one decision per fused batch). A tuner built as
//! `AutoTuner::new(seed).with_cost_model(CostCoefficients::calibrate(device))`
//! gets the device-aware cold start; [`AutoTuner::absorb_profile`]
//! warm-starts it from a recorded profile.
//!
//! The four arms are the [`OptLevel`] ladder expressed as fully pinned
//! [`StageOverrides`] sets, so a decision changes *which stages run*, never
//! the answer: every arm is already pinned bit-equal across the ladder and
//! across backends by the repo's reproducibility tests. Decisions are a
//! deterministic function of `(seed, decision history, observations)` — the
//! ε-greedy draw uses a counted SplitMix64 stream, never wall-clock or OS
//! randomness — so a replayed profile yields an identical decision
//! sequence.
//!
//! Observations are folded *net of structure-build cost*: the width-keyed
//! `Accel` cache amortises builds to zero in steady state, so charging an
//! arm for the one-time builds its first visit happens to trigger would
//! bias the policy against partitioning forever. The cost model already
//! prices builds explicitly for the cold start.

use crate::cost_model::CostCoefficients;
use crate::engine::{OptLevel, SearchError};
use crate::pipeline::StageOverrides;
use crate::result::SearchResults;
use rtnn_telemetry::{density_bucket, ProfileSnapshot};
use std::collections::BTreeMap;

/// Default policy seed (any fixed value works; tests pin this one).
pub const DEFAULT_SEED: u64 = 0x52_54_4E_4E; // "RTNN"

/// Default ε: fraction of steady-state decisions spent re-exploring a
/// non-best arm so a drifting scene can escape a stale choice.
pub const DEFAULT_EPSILON: f64 = 0.05;

/// EWMA decay for measured arm timings (matches the profiler's
/// `DEFAULT_DECAY_ALPHA`).
const DECAY_ALPHA: f64 = 0.2;

/// Observations kept per arm for the exact p50 (small and bounded: the
/// tuner is consulted on every query).
const P50_WINDOW: usize = 9;

/// Why a decision picked its arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// First decision for the signature: the calibrated cost model's
    /// estimate (no measurements exist yet).
    CostModel,
    /// Bootstrap or ε re-exploration: the arm was chosen to gather a
    /// measurement, not because it currently looks best.
    Explore,
    /// Steady state: the cheapest arm by measured EWMA mean + p50.
    Measured,
}

/// One tuner decision: the [`OptLevel`] arm to run and why it was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerDecision {
    /// The chosen arm.
    pub level: OptLevel,
    /// How the arm was chosen.
    pub source: DecisionSource,
}

impl TunerDecision {
    /// The fully pinned override set this decision runs — bit-equal to a
    /// static engine configured at [`Self::level`].
    pub fn overrides(&self) -> StageOverrides<'static> {
        StageOverrides::for_level(self.level)
    }

    /// True when the arm was picked to gather data rather than to win.
    pub fn explored(&self) -> bool {
        self.source == DecisionSource::Explore
    }
}

/// Rolling measurements of one arm under one signature.
#[derive(Debug, Clone, Default)]
struct ArmStats {
    /// Observations folded in (0 = never measured).
    count: u64,
    /// Exponentially-decayed mean per stage slot, in
    /// [`PipelineTrace::stage_device_ms`](crate::PipelineTrace) order.
    stage_mean_ms: [f64; 4],
    /// Recent whole-pipeline observations, for the exact p50 (bounded ring).
    recent: Vec<f64>,
}

impl ArmStats {
    /// Fold one execution's per-stage device timings, net of `structure_ms`
    /// of one-time build cost (billed inside the Launch slot by the
    /// pipeline driver).
    fn observe(&mut self, stages: &[(&'static str, f64)], structure_ms: f64) {
        let mut total = 0.0;
        for (slot, (label, ms)) in stages.iter().enumerate().take(4) {
            let ms = if *label == "Launch" {
                (ms - structure_ms).max(0.0)
            } else {
                *ms
            };
            total += ms;
            if self.count == 0 {
                self.stage_mean_ms[slot] = ms;
            } else {
                self.stage_mean_ms[slot] += DECAY_ALPHA * (ms - self.stage_mean_ms[slot]);
            }
        }
        self.count += 1;
        if self.recent.len() == P50_WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(total);
    }

    /// Seed the arm from already-aggregated statistics (profile replay).
    fn seed_from(&mut self, count: u64, stage_mean_ms: [f64; 4], p50_total_ms: f64) {
        self.count = count.max(1);
        self.stage_mean_ms = stage_mean_ms;
        self.recent = vec![p50_total_ms];
    }

    /// Decayed whole-pipeline mean.
    fn mean_ms(&self) -> f64 {
        self.stage_mean_ms.iter().sum()
    }

    /// Exact nearest-rank median of the recent window.
    fn p50_ms(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let mut sorted = self.recent.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        sorted[(sorted.len() - 1) / 2]
    }

    /// The score decisions minimise: a blend of the EWMA mean (tracks
    /// drift) and the p50 (robust to a one-off spike).
    fn score_ms(&self) -> f64 {
        0.5 * (self.mean_ms() + self.p50_ms())
    }
}

/// Per-signature decision state: one [`ArmStats`] per [`OptLevel`] arm.
#[derive(Debug, Clone, Default)]
struct SignatureState {
    decisions: u64,
    arms: [ArmStats; 4],
}

impl SignatureState {
    /// The cheapest measured arm (ties go to the lower level — fewer
    /// stages). `None` until something was measured.
    fn best_measured(&self) -> Option<OptLevel> {
        OptLevel::all()
            .into_iter()
            .filter(|l| self.arms[*l as usize].count > 0)
            .min_by(|a, b| {
                self.arms[*a as usize]
                    .score_ms()
                    .partial_cmp(&self.arms[*b as usize].score_ms())
                    .expect("finite scores")
            })
    }
}

/// One signature's current tuner state, for inspection and demo printing.
#[derive(Debug, Clone)]
pub struct TunerReport {
    /// Plan kind of the signature (`"knn"` / `"range"` / `"batch"`).
    pub plan_kind: String,
    /// `floor(log2(points))` density bucket.
    pub density_bucket: u32,
    /// Backend name.
    pub backend: String,
    /// Decisions made for this signature.
    pub decisions: u64,
    /// Arms with at least one measurement.
    pub measured_arms: usize,
    /// The arm a steady-state (non-exploring) decision would pick now.
    pub choice: Option<OptLevel>,
    /// Measured score per arm in [`OptLevel::all`] order (0 = unmeasured).
    pub arm_score_ms: [f64; 4],
}

impl TunerReport {
    /// `"knn/2^13/gpusim"` — the profiler's signature label format.
    pub fn label(&self) -> String {
        format!(
            "{}/2^{}/{}",
            self.plan_kind, self.density_bucket, self.backend
        )
    }
}

/// The online stage-selection policy (see module docs). One instance per
/// tuning domain, owned by the caller: it runs an index's calls, rides
/// across a `DynamicIndex`'s frames, or is attached to a `QueryService`
/// for one decision per coalesced tick.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    seed: u64,
    epsilon: f64,
    cost: Option<CostCoefficients>,
    /// ε-draws consumed so far (the deterministic stream position).
    draws: u64,
    signatures: BTreeMap<(String, u32, String), SignatureState>,
}

impl AutoTuner {
    /// A fresh tuner under `seed`. Attach a calibrated cost model with
    /// [`Self::with_cost_model`] for a device-aware first shot; without one
    /// the cold start falls back to the engine default (`OptLevel::Full`).
    pub fn new(seed: u64) -> Self {
        AutoTuner {
            seed,
            epsilon: DEFAULT_EPSILON,
            cost: None,
            draws: 0,
            signatures: BTreeMap::new(),
        }
    }

    /// Set the exploration rate (clamped to `[0, 1]`).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.clamp(0.0, 1.0);
        self
    }

    /// Attach the calibrated cost coefficients used for cold-start
    /// estimates.
    pub fn with_cost_model(mut self, cost: CostCoefficients) -> Self {
        self.cost = Some(cost);
        self
    }

    /// [`Self::with_cost_model`] by mutation (the serving layer attaches
    /// the executor's calibration lazily).
    pub fn set_cost_model(&mut self, cost: CostCoefficients) {
        self.cost = Some(cost);
    }

    /// True once a cost model is attached.
    pub fn has_cost_model(&self) -> bool {
        self.cost.is_some()
    }

    /// Total decisions made across all signatures.
    pub fn decisions(&self) -> u64 {
        self.signatures.values().map(|s| s.decisions).sum()
    }

    /// Pick the arm for one execution with these signature coordinates.
    ///
    /// The first decision for a signature uses the cost model; while any
    /// arm is still unmeasured the tuner round-robins through them
    /// (bootstrap); afterwards it exploits the cheapest measured arm,
    /// except for a seeded ε fraction of re-exploration.
    pub fn decide(
        &mut self,
        plan_kind: &str,
        points: usize,
        backend: &str,
        queries: usize,
    ) -> TunerDecision {
        let cold = self.cold_start(plan_kind, points, queries);
        let epsilon = self.epsilon;
        let key = (
            plan_kind.to_string(),
            density_bucket(points),
            backend.to_string(),
        );
        let state = self.signatures.entry(key).or_default();
        state.decisions += 1;

        if state.arms.iter().all(|a| a.count == 0) {
            return TunerDecision {
                level: cold,
                source: DecisionSource::CostModel,
            };
        }
        if let Some(level) = OptLevel::all()
            .into_iter()
            .find(|l| state.arms[*l as usize].count == 0)
        {
            return TunerDecision {
                level,
                source: DecisionSource::Explore,
            };
        }
        let best = state.best_measured().expect("all arms measured");
        self.draws += 1;
        let r = splitmix64(self.seed ^ self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if unit_f64(r) < epsilon {
            return TunerDecision {
                level: OptLevel::all()[(r >> 32) as usize % 4],
                source: DecisionSource::Explore,
            };
        }
        TunerDecision {
            level: best,
            source: DecisionSource::Measured,
        }
    }

    /// One decide → execute → observe round-trip, the way every tuned
    /// entry point runs: [`decide`](Self::decide) the arm for these
    /// signature coordinates, run `execute` under the decision's
    /// [`overrides`](TunerDecision::overrides), and on success
    /// [`observe`](Self::observe) the execution's per-stage trace net of
    /// its `breakdown.bvh_ms` structure cost. `execute` may return anything
    /// that carries [`SearchResults`] (a `DynamicIndex` frame, say). A
    /// failed execution folds nothing. Returns the decision with the
    /// execution's result.
    pub fn run<T: AsRef<SearchResults>>(
        &mut self,
        plan_kind: &str,
        points: usize,
        backend: &str,
        queries: usize,
        execute: impl FnOnce(StageOverrides<'static>) -> Result<T, SearchError>,
    ) -> (TunerDecision, Result<T, SearchError>) {
        let decision = self.decide(plan_kind, points, backend, queries);
        let result = execute(decision.overrides());
        if let Ok(results) = &result {
            let results = results.as_ref();
            self.observe(
                plan_kind,
                points,
                backend,
                decision.level,
                &results.trace.stage_device_ms(),
                results.breakdown.bvh_ms,
            );
        }
        (decision, result)
    }

    /// Fold one execution's measured per-stage device timings into the arm
    /// that produced them. `structure_ms` is the one-time structure-build
    /// cost included in the trace's Launch slot (`breakdown.bvh_ms`); it is
    /// subtracted so arms compete on steady-state cost (see module docs).
    pub fn observe(
        &mut self,
        plan_kind: &str,
        points: usize,
        backend: &str,
        level: OptLevel,
        stage_device_ms: &[(&'static str, f64)],
        structure_ms: f64,
    ) {
        let key = (
            plan_kind.to_string(),
            density_bucket(points),
            backend.to_string(),
        );
        self.signatures.entry(key).or_default().arms[level as usize]
            .observe(stage_device_ms, structure_ms);
    }

    /// Replay a recorded [`ProfileSnapshot`] into the tuner: every
    /// signature's per-stage EWMA means and total p50 seed the arm that
    /// `recorded_under` names (the static level the profile was collected
    /// at). Arms that already hold live measurements are left alone —
    /// replay is a warm start, not an override. Deterministic: the same
    /// snapshot always produces the same state.
    pub fn absorb_profile(&mut self, snapshot: &ProfileSnapshot, recorded_under: OptLevel) {
        for profile in &snapshot.signatures {
            let key = (
                profile.signature.plan_kind.clone(),
                profile.signature.density_bucket,
                profile.signature.backend.clone(),
            );
            let arm = &mut self.signatures.entry(key).or_default().arms[recorded_under as usize];
            if arm.count > 0 {
                continue;
            }
            let mut stage_mean_ms = [0.0; 4];
            for (slot, kind) in crate::pipeline::StageKind::ALL.iter().enumerate() {
                if let Some(stage) = profile.stage(kind.label()) {
                    stage_mean_ms[slot] = stage.mean_ms;
                }
            }
            arm.seed_from(profile.executions, stage_mean_ms, profile.total.p50_ms);
        }
    }

    /// Current state of every signature, in key order.
    pub fn report(&self) -> Vec<TunerReport> {
        self.signatures
            .iter()
            .map(|((plan_kind, bucket, backend), state)| TunerReport {
                plan_kind: plan_kind.clone(),
                density_bucket: *bucket,
                backend: backend.clone(),
                decisions: state.decisions,
                measured_arms: state.arms.iter().filter(|a| a.count > 0).count(),
                choice: state.best_measured(),
                arm_score_ms: std::array::from_fn(|i| {
                    if state.arms[i].count > 0 {
                        state.arms[i].score_ms()
                    } else {
                        0.0
                    }
                }),
            })
            .collect()
    }

    /// The cost model's first shot for an unmeasured signature (Section
    /// 5.2's coefficients, the same calibration the bundling break-even
    /// uses): reordering is host-side and near-free, so it is always on;
    /// partitioning pays when the per-query IS work it saves outweighs the
    /// extra per-partition structure builds, which the model prices as one
    /// full build over the scene.
    fn cold_start(&self, plan_kind: &str, points: usize, queries: usize) -> OptLevel {
        let Some(cost) = &self.cost else {
            return OptLevel::default();
        };
        // Expected candidate IS calls per query grow with the scene's
        // linear density (∛N for a near-uniform cloud) — the N·ρ·S³ shape
        // of Equation 3 with the radius folded into the calibration.
        let search_ms = queries as f64 * cost.is_ms_for_kind(plan_kind) * (points as f64).cbrt();
        if search_ms > cost.build_ms(points) {
            OptLevel::Full
        } else {
            OptLevel::Sched
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer — a tiny, seedable,
/// allocation-free stream that keeps decisions bit-reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a draw to `[0, 1)` using the top 53 bits.
fn unit_f64(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_gpusim::Device;

    fn stages(schedule: f64, partition: f64, launch: f64, gather: f64) -> [(&'static str, f64); 4] {
        [
            ("Schedule", schedule),
            ("Partition", partition),
            ("Launch", launch),
            ("Gather", gather),
        ]
    }

    fn calibrated() -> CostCoefficients {
        CostCoefficients::calibrate(&Device::rtx_2080())
    }

    /// Drive one tuner through `rounds` decide/observe rounds where each
    /// arm has a fixed synthetic steady-state cost; returns the decision
    /// sequence.
    fn drive(tuner: &mut AutoTuner, arm_ms: [f64; 4], rounds: usize) -> Vec<TunerDecision> {
        (0..rounds)
            .map(|_| {
                let d = tuner.decide("knn", 9_000, "gpusim", 500);
                tuner.observe(
                    "knn",
                    9_000,
                    "gpusim",
                    d.level,
                    &stages(0.1, 0.1, arm_ms[d.level as usize], 0.05),
                    0.0,
                );
                d
            })
            .collect()
    }

    #[test]
    fn first_decision_comes_from_the_cost_model() {
        let mut t = AutoTuner::new(7).with_cost_model(calibrated());
        let d = t.decide("knn", 100_000, "gpusim", 10_000);
        assert_eq!(d.source, DecisionSource::CostModel);
        // Plenty of IS work per build: the model picks the full pipeline.
        assert_eq!(d.level, OptLevel::Full);
        // A signature the tuner has never seen always cold-starts, even
        // after other signatures were measured.
        t.observe(
            "knn",
            100_000,
            "gpusim",
            d.level,
            &stages(1.0, 1.0, 1.0, 1.0),
            0.0,
        );
        let other = t.decide("range", 100_000, "gpusim", 10_000);
        assert_eq!(other.source, DecisionSource::CostModel);
    }

    #[test]
    fn bootstrap_measures_every_arm_then_exploits_the_best() {
        let mut t = AutoTuner::new(42).with_cost_model(calibrated());
        // Arm costs make Sched the clear winner.
        let arm_ms = [4.0, 1.0, 3.0, 6.0];
        let decisions = drive(&mut t, arm_ms, 16);
        assert_eq!(decisions[0].source, DecisionSource::CostModel);
        // By the end of the bootstrap every arm has been measured once.
        let mut seen = [false; 4];
        for d in &decisions[..5] {
            seen[d.level as usize] = true;
        }
        assert_eq!(seen, [true; 4], "bootstrap visits all arms: {decisions:?}");
        // Steady state exploits the cheapest arm.
        let exploit: Vec<_> = decisions
            .iter()
            .filter(|d| d.source == DecisionSource::Measured)
            .collect();
        assert!(!exploit.is_empty());
        assert!(exploit.iter().all(|d| d.level == OptLevel::Sched));
    }

    #[test]
    fn same_seed_same_history_means_identical_decisions() {
        let arm_ms = [2.0, 5.0, 0.5, 3.0];
        let mut a = AutoTuner::new(9).with_cost_model(calibrated());
        let mut b = AutoTuner::new(9).with_cost_model(calibrated());
        assert_eq!(drive(&mut a, arm_ms, 64), drive(&mut b, arm_ms, 64));
    }

    #[test]
    fn epsilon_explores_and_zero_epsilon_never_does() {
        let arm_ms = [2.0, 5.0, 0.5, 3.0];
        let mut greedy = AutoTuner::new(3)
            .with_cost_model(calibrated())
            .with_epsilon(0.0);
        let decisions = drive(&mut greedy, arm_ms, 64);
        assert!(decisions[5..]
            .iter()
            .all(|d| d.source == DecisionSource::Measured));

        let mut curious = AutoTuner::new(3)
            .with_cost_model(calibrated())
            .with_epsilon(0.5);
        let decisions = drive(&mut curious, arm_ms, 64);
        assert!(
            decisions[5..]
                .iter()
                .any(|d| d.source == DecisionSource::Explore),
            "ε=0.5 over 59 steady-state draws must explore at least once"
        );
    }

    #[test]
    fn exploration_escapes_a_stale_choice_when_the_scene_drifts() {
        let mut t = AutoTuner::new(11)
            .with_cost_model(calibrated())
            .with_epsilon(0.3);
        drive(&mut t, [5.0, 4.0, 0.5, 6.0], 12);
        assert_eq!(
            t.report()[0].choice,
            Some(OptLevel::SchedPartition),
            "initially the partitioned arm wins"
        );
        // The scene drifts: partitioning becomes the worst arm. Repeated
        // ε-exploration plus EWMA decay must flip the choice.
        drive(&mut t, [0.5, 0.6, 9.0, 9.0], 200);
        assert_eq!(t.report()[0].choice, Some(OptLevel::NoOpt));
    }

    #[test]
    fn structure_builds_are_excluded_from_arm_scores() {
        let mut t = AutoTuner::new(5).with_cost_model(calibrated());
        // A huge one-time build on the first visit must not poison the arm.
        t.observe(
            "knn",
            9_000,
            "gpusim",
            OptLevel::Full,
            &stages(0.1, 0.1, 100.0, 0.05),
            99.0,
        );
        let r = &t.report()[0];
        assert!(
            r.arm_score_ms[OptLevel::Full as usize] < 2.0,
            "score {:?} must be net of the 99ms build",
            r.arm_score_ms
        );
    }

    #[test]
    fn absorbed_profiles_seed_decisions_without_live_measurements() {
        use rtnn_telemetry::{ProfileSample, SignatureProfiler};
        let mut profiler = SignatureProfiler::new(0.2);
        profiler.record(&ProfileSample {
            plan_kind: "knn",
            points: 9_000,
            backend: "gpusim",
            queries: 500,
            stages: &stages(0.1, 0.1, 2.0, 0.05),
        });
        let snapshot = profiler.snapshot();

        let mut a = AutoTuner::new(21).with_cost_model(calibrated());
        let mut b = AutoTuner::new(21).with_cost_model(calibrated());
        a.absorb_profile(&snapshot, OptLevel::Full);
        b.absorb_profile(&snapshot, OptLevel::Full);
        // The replayed profile counts as a measurement: the next decision
        // bootstraps the remaining arms instead of cold-starting...
        let da = a.decide("knn", 9_000, "gpusim", 500);
        assert_eq!(da.source, DecisionSource::Explore);
        // ...and two tuners replaying the same profile under the same seed
        // decide identically.
        assert_eq!(da, b.decide("knn", 9_000, "gpusim", 500));
        assert_eq!(a.report()[0].measured_arms, 1);
    }

    #[test]
    fn report_labels_match_the_profiler_signature_format() {
        let mut t = AutoTuner::new(1).with_cost_model(calibrated());
        t.decide("range", 9_000, "optix-shim", 100);
        let r = t.report();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].label(), "range/2^13/optix-shim");
        assert_eq!(r[0].decisions, 1);
        assert_eq!(r[0].choice, None, "nothing measured yet");
        assert_eq!(t.decisions(), 1);
    }

    #[test]
    fn run_decides_executes_and_folds_only_successful_executions() {
        use crate::pipeline::StageKind;
        use crate::plan::PlanError;
        let mut results = SearchResults::default();
        results.trace.charge(StageKind::Schedule, 0.1, 0.0);
        results.trace.charge(StageKind::Partition, 0.2, 0.0);
        results.trace.charge(StageKind::Launch, 7.5, 0.0);
        results.breakdown.bvh_ms = 5.0;

        // The decision is the one `decide` makes, and the execution runs
        // under its overrides.
        let mut tuner = AutoTuner::new(13).with_cost_model(calibrated());
        let expected = tuner.clone().decide("knn", 9_000, "gpusim", 500);
        let (decision, result) = tuner.run("knn", 9_000, "gpusim", 500, |overrides| {
            // Pinned to the decided level, whatever the engine's level.
            let decided = StageOverrides::default().resolve(expected.level);
            for engine_level in OptLevel::all() {
                assert_eq!(overrides.resolve(engine_level), decided);
            }
            Ok(results.clone())
        });
        assert_eq!(decision, expected);
        assert!(result.is_ok());

        // On success the arm holds exactly the by-hand observation, net of
        // the structure cost.
        let mut by_hand = AutoTuner::new(13).with_cost_model(calibrated());
        by_hand.decide("knn", 9_000, "gpusim", 500);
        by_hand.observe(
            "knn",
            9_000,
            "gpusim",
            expected.level,
            &results.trace.stage_device_ms(),
            results.breakdown.bvh_ms,
        );
        let score = tuner.report()[0].arm_score_ms;
        assert_eq!(score, by_hand.report()[0].arm_score_ms);
        assert!((score[expected.level as usize] - 2.8).abs() < 1e-12);

        // A failed execution folds nothing: the signature still cold-starts.
        let mut failing = AutoTuner::new(13).with_cost_model(calibrated());
        let (first, result) = failing.run("range", 9_000, "gpusim", 500, |_| {
            Err::<SearchResults, _>(SearchError::InvalidPlan(PlanError::EmptyBatch))
        });
        assert_eq!(first.source, DecisionSource::CostModel);
        assert!(result.is_err());
        assert_eq!(failing.report()[0].measured_arms, 0);
        let next = failing.decide("range", 9_000, "gpusim", 500);
        assert_eq!(next.source, DecisionSource::CostModel);
    }
}
