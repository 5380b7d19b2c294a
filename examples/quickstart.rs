//! Quickstart for the two-level Index/QueryPlan API: build one `Index` over
//! a point cloud, answer heterogeneous typed plans against it (KNN, range,
//! and a mixed batch), and verify everything against a brute-force scan.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use rtnn::verify::{brute_force_knn, check_all};
use rtnn::{
    AutoTuner, Backend, CostCoefficients, EngineConfig, GpusimBackend, Index, PlanSlice, QueryPlan,
    SearchParams, StageOverrides,
};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;

fn main() {
    // 1. A uniformly distributed cloud of 50k points; the queries are the
    //    points themselves (the common case in physics simulation).
    let cloud = uniform::generate(&UniformParams {
        num_points: 50_000,
        seed: 7,
        ..Default::default()
    });
    let points = cloud.points.clone();
    let queries: Vec<_> = points.iter().step_by(10).copied().collect();
    println!("points: {}, queries: {}", points.len(), queries.len());

    // 2. Pick an execution backend (the simulated RTX 2080 by default;
    //    `BruteForceBackend` in rtnn-baselines is the exhaustive oracle)
    //    and build the index ONCE.
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let mut index = Index::build(&backend, &points[..], EngineConfig::default());

    // 3. Fixed-radius plan: up to 32 neighbors within r = 2.5.
    let range_plan = QueryPlan::range(2.5, 32);
    let range = index.query(&queries, &range_plan).expect("range search");
    println!(
        "range search: {} neighbor links, {} partitions -> {} bundles, simulated {:.2} ms",
        range.total_neighbors(),
        range.num_partitions,
        range.num_bundles,
        range.total_time_ms()
    );
    for (label, ms) in range.breakdown.components() {
        println!("  {label:<6} {ms:>8.3} ms");
    }
    check_all(
        &points,
        &queries,
        &SearchParams::range(2.5, 32),
        &range.neighbors,
    )
    .expect("range results match the brute-force oracle");

    // 4. KNN plan against the SAME index: the grid and every structure the
    //    range plan built are still warm — no engine reconstruction.
    let knn_plan = QueryPlan::knn(2.5, 8);
    let knn = index.query(&queries, &knn_plan).expect("knn search");
    println!(
        "knn search:   {} neighbor links, simulated {:.2} ms ({} IS calls, {:.3} ms rebuilt structures)",
        knn.total_neighbors(),
        knn.total_time_ms(),
        knn.search_metrics.is_calls,
        knn.breakdown.bvh_ms
    );
    check_all(
        &points,
        &queries,
        &SearchParams::knn(2.5, 8),
        &knn.neighbors,
    )
    .expect("knn results match the brute-force oracle");

    // 5. A heterogeneous batch: different radii AND different query kinds
    //    answered in one call, sharing a single scheduling pass.
    let half = queries.len() as u32 / 2;
    let batch = QueryPlan::Batch(vec![
        PlanSlice::new(QueryPlan::knn(2.5, 8), (0..half).collect()),
        PlanSlice::new(
            QueryPlan::range(1.5, 64),
            (half..queries.len() as u32).collect(),
        ),
    ]);
    let mixed = index.query(&queries, &batch).expect("mixed batch");
    println!(
        "mixed batch:  {} neighbor links across 2 plans, simulated {:.2} ms, {} cached structures",
        mixed.total_neighbors(),
        mixed.total_time_ms(),
        index.cached_structures()
    );
    // The KNN half of the batch is bit-identical to the single-plan call.
    for qi in 0..half as usize {
        assert_eq!(mixed.neighbors[qi], knn.neighbors[qi]);
    }

    // 6. Spot-check one query against the oracle explicitly.
    let q = 3;
    let expected = brute_force_knn(&points, queries[q], 2.5, 8);
    assert_eq!(knn.neighbors[q], expected);
    println!("query {q}: nearest neighbors {:?}", &knn.neighbors[q]);

    // 7. Peek inside the execution pipeline: every result carries a
    //    per-stage meter, and `StageOverrides` can pick one stage for a
    //    single call — here the coherence reordering is turned off while
    //    partitioning, launching and gathering stay untouched.
    println!("per-stage breakdown of the knn call:");
    for stage in knn.trace.stages() {
        println!(
            "  {:<9} {:>9.3} ms simulated  ({} invocation(s))",
            stage.kind.label(),
            stage.device_ms,
            stage.invocations
        );
    }
    let unordered = index
        .query_with(&queries, &knn_plan, StageOverrides::without_reordering())
        .expect("knn search without reordering");
    assert_eq!(
        unordered.neighbors, knn.neighbors,
        "stage toggles change performance, never results"
    );
    println!(
        "reordering off: schedule stage {:.3} ms (was {:.3} ms), search {:.2} ms (was {:.2} ms)",
        unordered.trace.stage(rtnn::StageKind::Schedule).device_ms,
        knn.trace.stage(rtnn::StageKind::Schedule).device_ms,
        unordered.breakdown.search_ms,
        knn.breakdown.search_ms,
    );
    // 8. The same call through the telemetry layer: scope a `full`-level
    //    sink over one query and print the frozen snapshot (metrics +
    //    span tree). `RTNN_TELEMETRY=off|basic|full` gates the global sink
    //    the same way; recording never changes results.
    use rtnn::telemetry::{SignatureProfiler, Telemetry, TelemetryLevel};
    let sink = Telemetry::new(TelemetryLevel::Full);
    sink.enable_profiler(SignatureProfiler::new(0.2));
    let observed = Telemetry::scoped(&sink, || {
        index.query(&queries, &knn_plan).expect("observed knn")
    });
    assert_eq!(
        observed.neighbors, knn.neighbors,
        "telemetry never changes results"
    );
    let snapshot = sink.snapshot();
    println!("telemetry snapshot of that call:");
    for (name, value) in &snapshot.metrics.counters {
        println!("  counter   {name} = {value}");
    }
    for (name, hist) in &snapshot.metrics.histograms {
        println!(
            "  histogram {name}: n={} p50={:.3} p99={:.3}",
            hist.count, hist.p50, hist.p99
        );
    }
    for span in &snapshot.spans {
        println!(
            "  span      {} [{:.3} ms]{}",
            span.name,
            span.duration_ms(),
            if span.parent.is_some() {
                " (nested)"
            } else {
                ""
            }
        );
    }

    // 9. The continuous profiler folded that same call into per-signature
    //    stage statistics — (plan kind, density bucket, backend) keyed,
    //    the feed an auto-tuner or regression monitor reads. Setting
    //    `RTNN_PROFILE=on` arms the same profiler on the global sink.
    let profile = sink
        .profile_snapshot()
        .expect("the profiler was enabled above");
    println!("continuous profile ({} signature(s)):", profile.len());
    for sig in &profile.signatures {
        println!(
            "  {}: {} execution(s), {} queries, total p50 {:.3} ms",
            sig.signature.label(),
            sig.executions,
            sig.queries,
            sig.total.p50_ms
        );
        for stage in &sig.stages {
            println!(
                "    {:<9} mean {:>8.3} ms  p99 {:>8.3} ms",
                stage.stage, stage.mean_ms, stage.p99_ms
            );
        }
    }
    assert!(
        profile
            .lookup("knn", points.len(), backend.name())
            .is_some(),
        "the observed knn call must be profiled under its signature"
    );
    // 10. Adaptive stage tuning: a caller-owned `AutoTuner` picks the
    //     `StageOverrides` rung per (plan kind, density bucket, backend)
    //     signature — cost model first, then measured arm scores — and
    //     `AutoTuner::run` feeds each call's stage timings back. The same
    //     round trip tunes `ShardedIndex::query_with` and
    //     `DynamicIndex::search_with`. Tuning changes which stages run,
    //     never the answer.
    let mut auto = Index::build(&backend, &points[..], EngineConfig::default());
    let mut tuner = AutoTuner::new(rtnn::autotune::DEFAULT_SEED)
        .with_cost_model(CostCoefficients::calibrate(&device));
    for round in 0..6 {
        let plan = if round % 2 == 0 {
            QueryPlan::knn(2.5, 8)
        } else {
            QueryPlan::range(2.5, 32)
        };
        let (d, tuned) = tuner.run(
            plan.kind_label(),
            points.len(),
            backend.name(),
            queries.len(),
            |overrides| auto.query_with(&queries, &plan, overrides),
        );
        let tuned = tuned.expect("auto-tuned search");
        println!(
            "auto round {round}: {:?} via {:?}, simulated {:.2} ms",
            d.level,
            d.source,
            tuned.total_time_ms()
        );
        if round % 2 == 0 {
            assert_eq!(
                tuned.neighbors, knn.neighbors,
                "tuning never changes answers"
            );
        }
    }
    println!("tuner report (chosen overrides per signature):");
    for sig in tuner.report() {
        println!(
            "  {}: {} decision(s), {}/4 arms measured, steady choice {:?}",
            sig.label(),
            sig.decisions,
            sig.measured_arms,
            sig.choice
        );
    }
    println!("all results verified against the brute-force oracle ✓");
}
