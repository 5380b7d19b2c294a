//! Telemetry equivalence suite: recording must never change what the
//! library computes, and what it records must be internally consistent.
//!
//! Five contracts are pinned here:
//!
//! 1. **Bit-equality** — for every backend × plan kind, the neighbor lists
//!    under a scoped telemetry sink at every `RTNN_TELEMETRY` level
//!    (`off`/`basic`/`full`) are identical to an unobserved run.
//! 2. **Span-tree well-formedness** — one observed query yields a single
//!    rooted tree whose child intervals nest inside their parents, and
//!    whose `stage.*` + `accel.ensure` spans account for exactly the
//!    device total the `PipelineTrace` reports (`accel.build`/`refit`
//!    spans are nested detail of `ensure`, not additional time).
//! 3. **Deterministic snapshots** — the virtual-time load harness
//!    (`run_virtual_observed`) produces bit-identical snapshots and JSONL
//!    exports across runs, and the same `LoadReport` as the unobserved
//!    replay.
//! 4. **Invisible profiling and flight recording** — with the continuous
//!    profiler attached and the SLO flight recorder riding the replay,
//!    results stay bit-equal per backend, and a breached SLO pins the
//!    same exemplar trace on every run of the same schedule.
//! 5. **Structure telemetry** — one build and one refit through
//!    `GpusimBackend` record one `accel.build` and one `accel.refit` span
//!    with their attributes, the structure counters and the device-time
//!    histograms.

use rtnn::telemetry::{
    verify_jsonl_roundtrip, FlightRecorder, SignatureProfiler, SloConfig, SloEvent, Telemetry,
    TelemetryLevel,
};
use rtnn::{Backend, EngineConfig, GpusimBackend, Index, PlanSlice, QueryPlan};
use rtnn_baselines::BruteForceBackend;
use rtnn_bvh::BuildParams;
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{
    poisson_arrivals, run_virtual, run_virtual_observed, run_virtual_recorded, Request, ServeConfig,
};

fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

const LEVELS: [TelemetryLevel; 3] = [
    TelemetryLevel::Off,
    TelemetryLevel::Basic,
    TelemetryLevel::Full,
];

#[test]
fn results_are_bit_equal_at_every_level_for_every_backend_and_plan_kind() {
    let device = Device::rtx_2080();
    let points = seeded_cloud(2500, 0x7E1E);
    let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
    let n = queries.len() as u32;
    let plans = [
        QueryPlan::knn(5.0, 8),
        QueryPlan::range(4.0, 64),
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(4.5, 5), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(6.0, 32), (n / 2..n).collect()),
        ]),
    ];
    let backends: Vec<(&str, Box<dyn Backend + '_>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];

    for (name, backend) in &backends {
        // Unobserved baseline: whatever the global sink is (off in tests).
        let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
        let baseline: Vec<_> = plans
            .iter()
            .map(|p| index.query(&queries, p).expect("plan").neighbors)
            .collect();
        for level in LEVELS {
            let sink = Telemetry::new(level);
            let observed = Telemetry::scoped(&sink, || {
                let mut index =
                    Index::build(backend.as_ref(), &points[..], EngineConfig::default());
                plans
                    .iter()
                    .map(|p| index.query(&queries, p).expect("plan").neighbors)
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                observed, baseline,
                "{name} at telemetry level {level}: results must be bit-equal"
            );
            // What each level records is part of the contract too.
            let snapshot = sink.snapshot();
            assert_eq!(
                !snapshot.metrics.counters.is_empty(),
                level.metrics_enabled(),
                "{name} at {level}: metrics iff the level enables them"
            );
            assert_eq!(
                !snapshot.spans.is_empty(),
                level.spans_enabled(),
                "{name} at {level}: spans iff the level enables them"
            );
        }
    }
}

#[test]
fn profiler_and_flight_recorder_are_bit_invisible_for_every_backend() {
    let device = Device::rtx_2080();
    let points = seeded_cloud(2500, 0x7E1E);
    let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
    let n = queries.len() as u32;
    let plans = [
        QueryPlan::knn(5.0, 8),
        QueryPlan::range(4.0, 64),
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(4.5, 5), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(6.0, 32), (n / 2..n).collect()),
        ]),
    ];
    let backends: Vec<(&str, Box<dyn Backend + '_>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];

    for (name, backend) in &backends {
        // Baseline under an explicit `off` sink — the strongest form of
        // "recording everything equals recording nothing".
        let off = Telemetry::new(TelemetryLevel::Off);
        let baseline = Telemetry::scoped(&off, || {
            let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
            plans
                .iter()
                .map(|p| index.query(&queries, p).expect("plan").neighbors)
                .collect::<Vec<_>>()
        });

        // Full telemetry + continuous profiler attached.
        let sink = Telemetry::new(TelemetryLevel::Full);
        sink.enable_profiler(SignatureProfiler::new(0.2));
        let profiled = Telemetry::scoped(&sink, || {
            let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
            plans
                .iter()
                .map(|p| index.query(&queries, p).expect("plan").neighbors)
                .collect::<Vec<_>>()
        });
        assert_eq!(
            profiled, baseline,
            "{name}: profiler-on results must be bit-equal to telemetry-off"
        );

        // The profiler actually folded the executions it watched, keyed on
        // the live signature.
        let profile = sink.profile_snapshot().expect("profiler attached");
        let sig = profile
            .lookup("knn", points.len(), backend.name())
            .unwrap_or_else(|| panic!("{name}: knn signature missing from {profile:?}"));
        assert_eq!(sig.executions, 1, "{name}: one knn plan ran");
        assert!(sig.total.mean_ms >= 0.0);
    }
}

#[test]
fn one_observed_query_yields_a_nested_tree_that_accounts_device_time() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(4000, 0x51A9);
    let queries: Vec<Vec3> = points.iter().step_by(11).copied().collect();

    let sink = Telemetry::new(TelemetryLevel::Full);
    let results = Telemetry::scoped(&sink, || {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        index
            .query(&queries, &QueryPlan::knn(5.0, 8))
            .expect("observed knn")
    });
    let snapshot = sink.snapshot();

    // A single rooted tree: the query span is the root, everything else is
    // in its subtree, and every child interval nests inside its parent.
    snapshot.check_nesting(1e-6).expect("span nesting");
    let roots = snapshot.roots();
    assert_eq!(roots.len(), 1, "one query call, one root span");
    let root = roots[0];
    assert_eq!(root.name, "index.query.knn");
    assert_eq!(
        snapshot.subtree(root.id).len(),
        snapshot.spans.len(),
        "every span recorded during the call hangs off the query root"
    );

    // Device-time accounting: the stage spans plus the structure-ensure
    // spans must sum to exactly what the PipelineTrace reports (the
    // accel.build/accel.refit spans underneath ensure are *detail* of the
    // ensure interval, not additional device time).
    let accounted: f64 = snapshot
        .spans
        .iter()
        .filter(|s| s.name.starts_with("stage.") || s.name == "accel.ensure")
        .map(|s| s.attr("device_ms").expect("stage spans carry device_ms"))
        .sum();
    let expected = results.trace.device_total_ms();
    assert!(
        (accounted - expected).abs() <= 1e-6 * expected.max(1.0),
        "span device_ms attrs sum to {accounted} ms but the trace reports {expected} ms"
    );
    assert_eq!(
        root.attr("device_ms"),
        Some(expected),
        "the query root carries the trace's device total"
    );

    // The same snapshot must survive both exporters.
    verify_jsonl_roundtrip(&snapshot).expect("JSONL round trip");
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("rtnn_index_queries 1"));
}

#[test]
fn a_structure_build_and_refit_record_their_spans_counters_and_device_times() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let mut points = seeded_cloud(3000, 0xACCE);
    let n = points.len();

    let sink = Telemetry::new(TelemetryLevel::Full);
    let (build_ms, refit_ms) = Telemetry::scoped(&sink, || {
        let mut accel = backend
            .build(&points, 1.5, BuildParams::default())
            .expect("fits the device");
        for p in points.iter_mut() {
            p.x += 0.25;
        }
        let refit = backend.refit(&mut accel, &points).expect("same count");
        (accel.build_time_ms(), refit.refit_ms)
    });
    assert_eq!(build_ms, device.accel_build_time_ms(n));
    assert_eq!(refit_ms, device.accel_refit_time_ms(n));
    let snapshot = sink.snapshot();

    let attr_names = |name: &str| -> Vec<String> {
        let spans: Vec<_> = snapshot.spans_named(name).collect();
        assert_eq!(spans.len(), 1, "one {name} span");
        spans[0].attrs.iter().map(|(k, _)| k.to_string()).collect()
    };
    let attr = |name: &str, key: &str| {
        let span = snapshot.spans_named(name).next().expect("span recorded");
        span.attr(key)
            .unwrap_or_else(|| panic!("{name} carries {key}"))
    };
    assert_eq!(
        attr_names("accel.build"),
        ["device_ms", "primitives", "memory_bytes", "host_wall_ms"]
    );
    assert_eq!(
        attr_names("accel.refit"),
        ["device_ms", "primitives", "nodes_updated", "host_wall_ms"]
    );
    assert_eq!(attr("accel.build", "device_ms"), build_ms);
    assert_eq!(attr("accel.build", "primitives"), n as f64);
    assert_eq!(attr("accel.refit", "device_ms"), refit_ms);
    assert_eq!(attr("accel.refit", "primitives"), n as f64);
    // A refit updates every node, and the structure's footprint is 32
    // bytes a node plus 32 bytes a primitive record.
    let nodes = attr("accel.refit", "nodes_updated");
    assert!(nodes >= 1.0 && nodes < 2.0 * n as f64);
    assert_eq!(
        attr("accel.build", "memory_bytes"),
        32.0 * (nodes + n as f64)
    );

    let metrics = &snapshot.metrics;
    for (counter, want) in [
        ("accel.builds", 1),
        ("accel.refits", 1),
        ("bvh.builds", 1),
        ("bvh.build_prims", n as u64),
        ("bvh.refits", 1),
    ] {
        assert_eq!(metrics.counter(counter), Some(want), "{counter}");
    }
    for (histogram, want) in [
        ("accel.build.device_ms", build_ms),
        ("accel.refit.device_ms", refit_ms),
    ] {
        let h = metrics.histogram(histogram).expect(histogram);
        assert_eq!((h.count, h.sum), (1, want), "{histogram}");
    }
}

#[test]
fn breached_slo_pins_the_same_exemplar_on_every_replay() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(3000, 0x0DE7);
    let requests: Vec<Request> = (0..50)
        .map(|i| {
            let queries: Vec<Vec3> = (0..3 + i % 4)
                .map(|j| points[(i * 173 + j * 19) % points.len()])
                .collect();
            Request::new(queries, QueryPlan::knn(3.0, 6))
        })
        .collect();
    let arrivals = poisson_arrivals(requests.len(), 1_500.0, 0xA11);
    let config = ServeConfig::default().with_window_us(400).with_max_batch(8);
    // A p50 target of 0 ms breaches deterministically once the window has
    // its minimum samples: every virtual latency is positive.
    let slo = SloConfig {
        quantile: 0.5,
        target_ms: 0.0,
        window: 16,
        min_samples: 4,
    };

    let mut plain_index = Index::build(&backend, &points[..], EngineConfig::default());
    let plain = run_virtual(&mut plain_index, &requests, &arrivals, &config);

    let run = || {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let mut recorder = FlightRecorder::with_slo(64, slo);
        let (report, _) = run_virtual_recorded(
            &mut index,
            &requests,
            &arrivals,
            &config,
            TelemetryLevel::Full,
            &mut recorder,
        );
        (report, recorder)
    };
    let (report_a, flight_a) = run();
    let (_, flight_b) = run();

    assert_eq!(
        report_a.stats, plain.stats,
        "flight recording must not perturb the replay"
    );
    assert!(
        flight_a
            .events()
            .iter()
            .any(|e| matches!(e, SloEvent::Breach { .. })),
        "the 0 ms target must breach: {:?}",
        flight_a.events()
    );
    // Reproducibility is the whole point of the flight recorder: identical
    // replays emit identical events and pin the identical exemplar trace.
    assert_eq!(flight_a.events(), flight_b.events());
    assert_eq!(flight_a.pinned(), flight_b.pinned());
    assert_eq!(flight_a.to_jsonl(), flight_b.to_jsonl());

    // The exemplar is attributable: a real request trace with a per-stage
    // breakdown whose dominant stage is identified.
    let exemplar = &flight_a.pinned()[0].trace;
    assert_eq!(exemplar.name, "serve.request.knn");
    assert!(exemplar.latency_ms > 0.0);
    assert!(
        exemplar.dominant_stage().is_some(),
        "exemplar carries its stage breakdown: {exemplar:?}"
    );
}

#[test]
fn virtual_time_replays_are_unperturbed_and_snapshot_deterministically() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(3000, 0x0DE7);
    let requests: Vec<Request> = (0..40)
        .map(|i| {
            let queries: Vec<Vec3> = (0..3 + i % 4)
                .map(|j| points[(i * 173 + j * 19) % points.len()])
                .collect();
            let plan = if i % 2 == 0 {
                QueryPlan::knn(3.0, 6)
            } else {
                QueryPlan::range(2.5, 32)
            };
            Request::new(queries, plan)
        })
        .collect();
    let arrivals = poisson_arrivals(requests.len(), 1_500.0, 0xA11);
    let config = ServeConfig::default().with_window_us(400).with_max_batch(8);

    let mut plain_index = Index::build(&backend, &points[..], EngineConfig::default());
    let plain = run_virtual(&mut plain_index, &requests, &arrivals, &config);

    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let (report, snapshot) = run_virtual_observed(
            &mut index,
            &requests,
            &arrivals,
            &config,
            TelemetryLevel::Full,
        );
        assert_eq!(
            report.stats, plain.stats,
            "observation must not perturb the virtual replay"
        );
        snapshots.push(snapshot);
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "observed replays must snapshot bit-identically"
    );
    assert_eq!(
        snapshots[0].to_jsonl(),
        snapshots[1].to_jsonl(),
        "and export bit-identical JSONL"
    );
    let snapshot = &snapshots[0];
    snapshot.check_nesting(1e-9).expect("span nesting");

    // Every request has a root span; every tick nests under the request
    // that opened it.
    let request_spans: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name.starts_with("serve.request."))
        .collect();
    assert_eq!(request_spans.len(), requests.len());
    assert!(request_spans.iter().all(|s| s.parent.is_none()));
    let tick_spans: Vec<_> = snapshot.spans_named("serve.tick").collect();
    assert!(!tick_spans.is_empty());
    for tick in &tick_spans {
        let parent = tick.parent.expect("ticks are parented under a request");
        assert!(
            snapshot
                .span(parent)
                .is_some_and(|p| p.name.starts_with("serve.request.")),
            "tick's parent must be the request that opened it"
        );
    }
    // Latency histograms cover every request, with the p999 tail exposed.
    let knn = snapshot
        .metrics
        .histogram("serve.latency.knn")
        .expect("knn latency histogram");
    let range = snapshot
        .metrics
        .histogram("serve.latency.range")
        .expect("range latency histogram");
    assert_eq!(knn.count + range.count, requests.len() as u64);
    assert!(knn.p999 >= knn.p50);
}
