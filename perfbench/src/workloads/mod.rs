//! The four workloads and the closed-loop driver they share.

pub mod batch;
pub mod dbscan;
pub mod serve;
pub mod stream;

use crate::adapters::{self, Vec3};
use crate::layers::Layers;
use crate::stats::{median, peak_rss_mb, Meter, Usage};

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one checked answer, to prove the oracle gate fails the run.
    pub inject_error: bool,
}

impl Args {
    /// Whether to run another set-up: a traced run (which reports no
    /// `setup_s`) runs one; an untraced run at least `MIN_SETUPS`, and more
    /// for cheap set-ups until `SETUP_BUDGET_S` is spent (up to
    /// `MAX_SETUPS`), so the reported median rests on enough samples.
    fn more_setups(&self, times: &[f64]) -> bool {
        const MIN_SETUPS: usize = 5;
        const MAX_SETUPS: usize = 25;
        const SETUP_BUDGET_S: f64 = 2.0;
        if self.trace {
            return times.is_empty();
        }
        times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    }

    /// Measured seconds per phase: a traced run splits its time between an
    /// untraced and a traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Oracle bookkeeping: ops attempted and ops that returned an error or
/// disagreed with the oracle.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    inject_pending: bool,
}

impl Checks {
    pub fn new(inject_error: bool) -> Self {
        Checks {
            inject_pending: inject_error,
            ..Checks::default()
        }
    }

    /// Count one op and its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// True exactly once when an injected error was requested: the caller
    /// then corrupts the answer it is about to check.
    pub fn inject_now(&mut self) -> bool {
        std::mem::take(&mut self.inject_pending)
    }
}

/// The traced phase of a run.
pub struct Traced {
    pub meter: Meter,
    pub layers: Layers,
    /// Bare-traversal floor, ms per query.
    pub floor_ms_per_query: f64,
}

/// Everything one run measured.
pub struct Outcome {
    /// Run facts for the report header (point and query counts, ...).
    pub info: Vec<(&'static str, String)>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// The untraced measurement.
    pub plain: Meter,
    /// Simulated device ms per 1000 queries over a fixed op prefix.
    pub sim_ms_per_kquery: f64,
    pub checks: Checks,
    pub traced: Option<Traced>,
}

/// A workload's timed set-up: run once before the measurement, whose state
/// the measurement uses, and — in an untraced run — repeated after it so
/// `setup_s` is a median. The peak resident set is read right after the
/// first set-up, which holds the index, its structures and one op of every
/// plan kind: later peaks add the harness's own oracles and answer buffers,
/// and vary by up to a fifth between runs of one seed with how the
/// allocator reuses memory freed by the worker threads.
pub struct Setup<F> {
    run: F,
    times: Vec<f64>,
    rss_mb: f64,
}

impl<F> Setup<F> {
    /// Run the set-up once, timed (net of steal, like every reported time).
    pub fn first<S>(mut run: F) -> Result<(S, Self), String>
    where
        F: FnMut() -> Result<S, String>,
    {
        let (state, usage) = Usage::measure(&mut run);
        let setup = Setup {
            run,
            times: vec![usage.net_wall_s()],
            rss_mb: peak_rss_mb(),
        };
        Ok((state?, setup))
    }

    /// Repeat the set-up (see [`Args::more_setups`]). Returns the set-up
    /// times and the peak resident set (MiB).
    pub fn finish<S>(mut self, args: &Args) -> Result<(Vec<f64>, f64), String>
    where
        F: FnMut() -> Result<S, String>,
    {
        let rss = self.rss_mb;
        while args.more_setups(&self.times) {
            let (state, usage) = Usage::measure(&mut self.run);
            drop(state?);
            self.times.push(usage.net_wall_s());
        }
        Ok((self.times, rss))
    }
}

/// Closed loop: run `op` back to back in windows of `window_ops` ops until
/// the measured op time reaches the phase length (and at least `min_ops`
/// ops ran), first untraced, then — in a traced run — again with a
/// [`Layers`] recorder.
pub fn drive(
    args: &Args,
    window_ops: usize,
    min_ops: usize,
    mut op: impl FnMut(&mut Meter, Option<&mut Layers>),
) -> (Meter, Option<(Meter, Layers)>) {
    let phase = args.phase_seconds();
    let mut run = |mut layers: Option<&mut Layers>| {
        let mut meter = Meter::default();
        while meter.wall_s < phase || meter.latencies_ms.len() < min_ops {
            for _ in 0..window_ops {
                op(&mut meter, layers.as_deref_mut());
            }
            meter.close_window();
        }
        meter
    };
    let plain = run(None);
    let traced = args.trace.then(|| {
        let mut layers = Layers::default();
        (run(Some(&mut layers)), layers)
    });
    (plain, traced)
}

/// The layer probes every traced run adds: one timed `Backend::build`, the
/// spawn cost of one pool call, and the bare-traversal floor (ms per query,
/// over at most 4096 of `queries`). Each is the median of repeated tries.
pub fn probe_layers(
    layers: &mut Layers,
    backend: &dyn rtnn::Backend,
    points: &[Vec3],
    queries: &[Vec3],
    r: f32,
) -> Result<f64, String> {
    let mut builds = Vec::new();
    for _ in 0..3 {
        builds.push(adapters::time_backend_build(backend, points, r)?);
    }
    layers.add("bvh.build_ms", median(&builds));
    let calls: Vec<f64> = (0..200).map(|_| adapters::time_par_call_us()).collect();
    layers.add("parallel.call_overhead_us", median(&calls));
    let sample = &queries[..queries.len().min(4096)];
    let floors: Vec<f64> = (0..3)
        .map(|_| adapters::time_traverse_floor(points, sample, r))
        .collect();
    Ok(median(&floors))
}

/// A small seeded generator (SplitMix64) for query picks, so the workloads
/// need no RNG crate.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Check `got[i]` for the sampled query ids against brute force, returning
/// the first disagreement. `inject` corrupts the first sampled answer
/// (see [`Checks::inject_now`]).
pub fn check_sample(
    points: &[Vec3],
    queries: &[Vec3],
    plan: &adapters::QueryPlan,
    got: &[Vec<u32>],
    sample: impl Iterator<Item = usize>,
    inject: bool,
) -> Result<(), String> {
    for (n, qi) in sample.enumerate() {
        let mut answer = std::borrow::Cow::Borrowed(&got[qi][..]);
        if inject && n == 0 {
            answer.to_mut().push(u32::MAX);
        }
        adapters::check(points, queries[qi], plan, &answer)
            .map_err(|e| format!("query {qi} ({plan:?}): {e}"))?;
    }
    Ok(())
}

/// `count` ids spread over `0..n`, offset by `round` so successive ops
/// check different queries.
pub fn rotating_sample(n: usize, count: usize, round: usize) -> impl Iterator<Item = usize> {
    let stride = (n / count.max(1)).max(1);
    let offset = round % stride;
    (0..count.min(n)).map(move |i| (offset + i * stride) % n)
}
