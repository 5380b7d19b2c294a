//! `fig_obs`: the observability subsystem's two contracts, measured.
//!
//! `rtnn-telemetry` is only admissible as an always-on substrate if (a)
//! recording never changes results and (b) the disabled path costs nothing
//! worth arguing about. This experiment pins both:
//!
//! * **Bit-equality** — the same plans (KNN, range, heterogeneous batch)
//!   run against a fresh `Index` and a fresh `ShardedIndex` under a scoped
//!   telemetry sink at every level (`off`/`basic`/`full`), and every
//!   neighbor list is compared against an unobserved baseline run; the
//!   virtual-time load harness is replayed plain and observed and its
//!   statistics compared.
//! * **Overhead** — the same warm-index query workload is timed (host wall
//!   time, every variant once per round, in an order that rotates each
//!   round) with no ambient sink and with a scoped sink per level; each
//!   overhead is the median over rounds of the variant's time relative to
//!   the same round's baseline. Every timed run repeats the plan set a
//!   count fixed beforehand so a baseline run takes at least 50 ms.
//!   `obs_overhead_pct_off` is the headline the smoke gate bounds. Only the
//!   *disabled* overhead is asserted — basic/full are reported for trend
//!   tracking, never gated (they buy data).
//!
//! The exporters are exercised on the run's own snapshot: the JSONL dump is
//! parsed back and reconciled, and the Prometheus text is sanity-checked.

use crate::report::{fmt_ms, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn::telemetry::{
    verify_jsonl_roundtrip, FlightRecorder, SignatureProfiler, SloConfig, Telemetry, TelemetryLevel,
};
use rtnn::{EngineConfig, GpusimBackend, Index, PlanSlice, QueryPlan};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{
    poisson_arrivals, run_virtual, run_virtual_observed, run_virtual_recorded, Request,
    ServeConfig, ShardedIndex,
};
use std::sync::Arc;
use std::time::Instant;

/// The shortest host wall time, in ms, a timed baseline run of the overhead
/// rounds may take. Shorter runs let a sibling process's time slice swing a
/// round's ratio.
const MIN_TIMED_RUN_MS: f64 = 50.0;

/// The plan mix every check runs: one of each kind, sharing the index.
fn plan_mix(num_queries: usize, base_r: f32) -> Vec<QueryPlan> {
    let half = num_queries as u32 / 2;
    vec![
        QueryPlan::knn(base_r, 8),
        QueryPlan::range(base_r * 0.8, 32),
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(base_r * 0.9, 4), (0..half).collect()),
            PlanSlice::new(
                QueryPlan::range(base_r * 0.7, 16),
                (half..num_queries as u32).collect(),
            ),
        ]),
    ]
}

/// Run every plan against a fresh index, returning the neighbor lists per
/// plan.
fn run_plans(
    backend: &GpusimBackend,
    points: &[Vec3],
    queries: &[Vec3],
    plans: &[QueryPlan],
) -> Vec<Vec<Vec<u32>>> {
    let mut index = Index::build(backend, points, EngineConfig::default());
    plans
        .iter()
        .map(|p| index.query(queries, p).expect("plan").neighbors)
        .collect()
}

/// Median of a sample set (for the interleaved timing rounds).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Overhead in percent of `times` over `base`, paired by round: the median
/// of the per-round ratios. Pairing cancels drift that spans a round (a
/// sibling test starting, a frequency change), which medians of the two
/// unpaired sample sets do not.
fn paired_overhead_pct(times: &[f64], base: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = times
        .iter()
        .zip(base)
        .map(|(t, b)| t / b.max(1e-9))
        .collect();
    (median(&mut ratios) - 1.0) * 100.0
}

/// Run the observability experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure O (extension): telemetry bit-equality and measured overhead per level",
    );
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);

    let num_points = (1_000_000 / scale.dataset_divisor).max(5_000);
    let cloud = uniform::generate(&UniformParams {
        num_points,
        seed: 0x4F42_5356, // "OBSV"
        ..Default::default()
    });
    let points = cloud.points;
    let side = rtnn_math::Aabb::from_points(&points).longest_extent();
    let base_r = side * (8.0 / num_points as f32).cbrt();
    let stride = scale.query_stride(points.len());
    let queries: Vec<Vec3> = points.iter().step_by(stride).copied().collect();
    let plans = plan_mix(queries.len(), base_r);

    let levels = [
        ("off", TelemetryLevel::Off),
        ("basic", TelemetryLevel::Basic),
        ("full", TelemetryLevel::Full),
    ];

    // ---- (a) bit-equality across levels -----------------------------------
    let baseline = run_plans(&backend, &points, &queries, &plans);
    let mut sharded_ref = ShardedIndex::build(&backend, &points, EngineConfig::default(), 3);
    let sharded_baseline: Vec<Vec<Vec<u32>>> = plans
        .iter()
        .map(|p| sharded_ref.query(&queries, p).expect("plan").neighbors)
        .collect();

    let mut equivalence = Table::new(
        format!(
            "bit-equality of {} queries x {} plans against the unobserved baseline \
             ({} points; sharded runs use 3 Morton-range shards)",
            queries.len(),
            plans.len(),
            points.len()
        ),
        &["level", "index plans", "sharded plans", "spans recorded"],
    );
    let mut checks = 0usize;
    for (name, level) in levels {
        let sink = Telemetry::new(level);
        let observed = Telemetry::scoped(&sink, || {
            let direct = run_plans(&backend, &points, &queries, &plans);
            let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 3);
            let shard_results: Vec<Vec<Vec<u32>>> = plans
                .iter()
                .map(|p| sharded.query(&queries, p).expect("plan").neighbors)
                .collect();
            (direct, shard_results)
        });
        assert_eq!(
            observed.0, baseline,
            "telemetry level {name} changed direct Index results"
        );
        assert_eq!(
            observed.1, sharded_baseline,
            "telemetry level {name} changed sharded results"
        );
        checks += plans.len() * 2;
        let snapshot = sink.snapshot();
        equivalence.push_row(vec![
            name.to_string(),
            format!("{} ✓", plans.len()),
            format!("{} ✓", plans.len()),
            format!("{}", snapshot.spans.len() as u64 + snapshot.dropped_spans),
        ]);
        // The exporters must hold for whatever this level recorded.
        verify_jsonl_roundtrip(&snapshot).expect("JSONL round trip");
        let prom = snapshot.to_prometheus();
        if level.metrics_enabled() {
            assert!(
                prom.contains("rtnn_index_queries"),
                "prometheus export misses index.queries"
            );
        }
    }
    // Profiler attachment must be as invisible to results as the sink
    // levels themselves.
    let sink = Telemetry::new(TelemetryLevel::Full);
    sink.enable_profiler(SignatureProfiler::new(0.2));
    let profiled = Telemetry::scoped(&sink, || run_plans(&backend, &points, &queries, &plans));
    assert_eq!(
        profiled, baseline,
        "the continuous profiler changed results"
    );
    checks += plans.len();
    let profile = sink.profile_snapshot().expect("profiler attached");
    assert!(!profile.is_empty(), "profiler saw no executions");
    let profiler_signatures = profile.len();

    report.tables.push(equivalence);

    // Virtual-time harness: observation must not perturb the replay, and
    // the observed snapshot must be bit-deterministic.
    let requests: Vec<Request> = (0..60)
        .map(|i| {
            let qs: Vec<Vec3> = (0..4 + i % 5)
                .map(|j| points[(i * 131 + j * 17) % points.len()])
                .collect();
            Request::new(qs, QueryPlan::knn(base_r * 0.5, 4))
        })
        .collect();
    let arrivals = poisson_arrivals(requests.len(), 2_000.0, 0x0B5);
    let cfg = ServeConfig::default()
        .with_window_us(500)
        .with_max_batch(16);
    let mut plain_index = Index::build(&backend, &points[..], EngineConfig::default());
    let plain = run_virtual(&mut plain_index, &requests, &arrivals, &cfg);
    let mut obs_index = Index::build(&backend, &points[..], EngineConfig::default());
    let (observed, snap_a) = run_virtual_observed(
        &mut obs_index,
        &requests,
        &arrivals,
        &cfg,
        TelemetryLevel::Full,
    );
    let mut obs_index2 = Index::build(&backend, &points[..], EngineConfig::default());
    let (_, snap_b) = run_virtual_observed(
        &mut obs_index2,
        &requests,
        &arrivals,
        &cfg,
        TelemetryLevel::Full,
    );
    assert_eq!(
        observed.stats, plain.stats,
        "observed virtual replay diverged from the plain one"
    );
    assert_eq!(snap_a, snap_b, "virtual-time snapshot is not deterministic");
    snap_a.check_nesting(1e-9).expect("span nesting");
    verify_jsonl_roundtrip(&snap_a).expect("loadgen JSONL round trip");
    checks += 2;

    // Flight recorder on the same replay: recording must not perturb the
    // statistics, and two identical runs must emit identical SLO events and
    // pin identical exemplars (a 0 ms target breaches deterministically the
    // moment the window is judged).
    let slo = SloConfig {
        quantile: 0.5,
        target_ms: 0.0,
        window: 32,
        min_samples: 8,
    };
    let flight_run = || {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let mut recorder = FlightRecorder::with_slo(128, slo);
        let (run, _) = run_virtual_recorded(
            &mut index,
            &requests,
            &arrivals,
            &cfg,
            TelemetryLevel::Full,
            &mut recorder,
        );
        (run, recorder)
    };
    let (flight_a, recorder_a) = flight_run();
    let (_, recorder_b) = flight_run();
    assert_eq!(
        flight_a.stats, plain.stats,
        "flight recording perturbed the virtual replay"
    );
    assert!(
        !recorder_a.pinned().is_empty(),
        "the 0 ms SLO must breach and pin an exemplar"
    );
    assert_eq!(
        recorder_a.to_jsonl(),
        recorder_b.to_jsonl(),
        "flight recorder runs are not bit-reproducible"
    );
    checks += 2;

    // ---- (b) overhead per level ------------------------------------------
    // Interleaved rounds: each round times every variant once on its own
    // warm index, starting from a different variant each round so none is
    // always first; overheads are paired with the same round's baseline.
    // Each timed run repeats the plan set `reps` times.
    let rounds = 15;
    let variants: Vec<(&str, Option<Arc<Telemetry>>)> = vec![
        ("baseline", None),
        ("off", Some(Telemetry::new(TelemetryLevel::Off))),
        ("basic", Some(Telemetry::new(TelemetryLevel::Basic))),
        ("full", Some(Telemetry::new(TelemetryLevel::Full))),
        ("full_profile", {
            let sink = Telemetry::new(TelemetryLevel::Full);
            sink.enable_profiler(SignatureProfiler::new(0.2));
            Some(sink)
        }),
    ];
    let mut indexes: Vec<Index> = Vec::new();
    let mut sinks: Vec<Option<Arc<Telemetry>>> = Vec::new();
    for (_, sink) in &variants {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        for p in &plans {
            index.query(&queries, p).expect("warm"); // structures + widths cached
        }
        indexes.push(index);
        sinks.push(sink.clone());
    }
    let run_plan_set = |index: &mut Index, reps: usize| {
        for _ in 0..reps {
            for p in &plans {
                index.query(&queries, p).expect("timed");
            }
        }
    };
    // An untimed baseline run fixes the repetition count for every round.
    let start = Instant::now();
    run_plan_set(&mut indexes[0], 1);
    let once_ms = start.elapsed().as_secs_f64() * 1e3;
    let reps = (MIN_TIMED_RUN_MS / once_ms.max(1e-3)).ceil().max(1.0) as usize;
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for round in 0..rounds {
        for k in 0..variants.len() {
            let vi = (round + k) % variants.len();
            let index = &mut indexes[vi];
            let start = Instant::now();
            match &sinks[vi] {
                None => run_plan_set(index, reps),
                Some(sink) => Telemetry::scoped(sink, || run_plan_set(index, reps)),
            }
            times[vi].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let medians: Vec<f64> = times.iter().map(|t| median(&mut t.clone())).collect();

    let mut overhead = Table::new(
        format!(
            "host wall time of the warm query path ({} queries x {} plans, repeated {} \
             times per run, {} rotated rounds; overhead is the median per-round ratio \
             to the baseline)",
            queries.len(),
            plans.len(),
            reps,
            rounds
        ),
        &["variant", "median", "overhead"],
    );
    for (vi, (name, _)) in variants.iter().enumerate() {
        let pct = paired_overhead_pct(&times[vi], &times[0]);
        overhead.push_row(vec![
            name.to_string(),
            fmt_ms(medians[vi]),
            if vi == 0 {
                "—".to_string()
            } else {
                format!("{pct:+.1}%")
            },
        ]);
        if vi > 0 {
            report.headline_metric(format!("obs_overhead_pct_{name}"), pct);
        }
    }

    // Flight-recorder overhead: host wall time of the virtual replay with
    // and without a recording ring + SLO monitor, paired rounds again.
    // Reported for trend tracking only — the recorder sits on the serving
    // path, not the query path, so it has its own baseline row.
    let mut replay_times: Vec<Vec<f64>> = vec![Vec::new(); 2];
    for _ in 0..rounds {
        let start = Instant::now();
        run_virtual(&mut plain_index, &requests, &arrivals, &cfg);
        replay_times[0].push(start.elapsed().as_secs_f64() * 1e3);
        let mut recorder = FlightRecorder::with_slo(128, slo);
        let start = Instant::now();
        run_virtual_recorded(
            &mut plain_index,
            &requests,
            &arrivals,
            &cfg,
            TelemetryLevel::Off,
            &mut recorder,
        );
        replay_times[1].push(start.elapsed().as_secs_f64() * 1e3);
    }
    let flight_pct = paired_overhead_pct(&replay_times[1], &replay_times[0]);
    let replay_ms = median(&mut replay_times[0]);
    let flight_ms = median(&mut replay_times[1]);
    overhead.push_row(vec![
        "replay (no recorder)".to_string(),
        fmt_ms(replay_ms),
        "—".to_string(),
    ]);
    overhead.push_row(vec![
        "replay + flight recorder".to_string(),
        fmt_ms(flight_ms),
        format!("{flight_pct:+.1}%"),
    ]);
    report.headline_metric("obs_flight_overhead_pct", flight_pct);
    report.tables.push(overhead);

    report.headline_metric("obs_bit_equal_checks", checks as f64);
    report.headline_metric("obs_loadgen_spans_full", snap_a.spans.len() as f64);
    report.headline_metric("obs_profiler_signatures", profiler_signatures as f64);
    report.headline_metric(
        "obs_flight_pinned_exemplars",
        recorder_a.pinned().len() as f64,
    );
    report.notes.push(format!(
        "results are bit-equal to the unobserved baseline at every telemetry level \
         ({checks} comparisons: direct + sharded plan runs, plus the virtual-time \
         replay statistics and snapshot determinism)"
    ));
    report.notes.push(
        "only the disabled (`off`) overhead is gated in CI; basic/full are reported \
         for trend tracking — they buy metrics and spans respectively"
            .into(),
    );
    report.notes.push(
        "every level's snapshot survived the JSONL parse-back round trip and the \
         Prometheus text sanity checks"
            .into(),
    );
    report.notes.push(
        "the continuous profiler and the SLO flight recorder are bit-invisible too: \
         profiled plan runs match the baseline, recorded replays match the plain \
         replay statistics, and two recorded runs pin identical breach exemplars"
            .into(),
    );
    report
}
