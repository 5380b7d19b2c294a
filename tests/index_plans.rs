//! Acceptance tests for the Index/QueryPlan API:
//!
//! * repeated plans on one index amortise every structure build away and
//!   return identical results, for all plan kinds × optimisation levels;
//! * plan validation happens at query time with typed errors naming the
//!   offending field;
//! * a heterogeneous batch answers several plans in one call and matches
//!   the corresponding single-plan results.

use rtnn::verify::check_all;
use rtnn::{
    EngineConfig, GpusimBackend, Index, OptLevel, PlanError, PlanSlice, QueryPlan, SearchError,
    StageKind, StageOverrides,
};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

#[test]
fn repeated_plans_rebuild_nothing_for_all_plans_and_opt_levels() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2500, 0xA11CE);
    let mut queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
    queries.push(Vec3::new(-50.0, -50.0, -50.0)); // outside the cloud
    for plan in [
        QueryPlan::knn(5.0, 8),
        QueryPlan::range(4.0, 64),
        QueryPlan::range(2.0, 5), // cap-truncating: order must match too
    ] {
        for opt in OptLevel::all() {
            let mut index =
                Index::build(&backend, &points[..], EngineConfig::default().with_opt(opt));
            let first = index.query(&queries, &plan).unwrap();
            assert!(first.breakdown.bvh_ms > 0.0, "{plan:?} {opt:?}");
            // A repeat pays no build and returns identical results.
            let again = index.query(&queries, &plan).unwrap();
            assert_eq!(again.neighbors, first.neighbors, "{plan:?} {opt:?}");
            assert_eq!(again.num_partitions, first.num_partitions);
            assert_eq!(again.num_bundles, first.num_bundles);
            assert_eq!(
                again.breakdown.bvh_ms, 0.0,
                "{plan:?} {opt:?}: warm index must not rebuild structures"
            );
        }
    }
}

#[test]
fn one_index_serves_heterogeneous_plans_cheaper_than_new_engines() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(4000, 0x5EED);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    let plans = [
        QueryPlan::knn(4.0, 8),
        QueryPlan::knn(6.0, 16),
        QueryPlan::range(3.0, 32),
        QueryPlan::range(4.0, 64),
    ];

    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let mut index_total = 0.0;
    for plan in &plans {
        index_total += index.query(&queries, plan).unwrap().total_time_ms();
    }

    // One fresh index per plan: every plan pays its own builds.
    let mut engines_total = 0.0;
    for plan in &plans {
        engines_total += Index::build(&backend, &points[..], EngineConfig::default())
            .query(&queries, plan)
            .unwrap()
            .total_time_ms();
    }
    assert!(
        index_total < engines_total,
        "one index ({index_total:.3} ms) must beat per-plan engines ({engines_total:.3} ms)"
    );
}

#[test]
fn batch_results_match_single_plan_results_on_the_same_index() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2000, 0xBA7C4);
    let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
    let n = queries.len() as u32;
    let thirds = [
        (0..n / 3).collect::<Vec<u32>>(),
        (n / 3..2 * n / 3).collect(),
        (2 * n / 3..n).collect(),
    ];
    let plans = [
        QueryPlan::knn(3.0, 4),
        QueryPlan::knn(5.5, 12),
        QueryPlan::range(4.5, 100_000),
    ];
    let batch = QueryPlan::Batch(
        plans
            .iter()
            .cloned()
            .zip(thirds.iter().cloned())
            .map(|(plan, ids)| PlanSlice::new(plan, ids))
            .collect(),
    );

    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let combined = index.query(&queries, &batch).unwrap();
    for (plan, ids) in plans.iter().zip(&thirds) {
        let single = index.query(&queries, plan).unwrap();
        for &qid in ids {
            let (mut a, mut b) = (
                combined.neighbors[qid as usize].clone(),
                single.neighbors[qid as usize].clone(),
            );
            if matches!(plan, QueryPlan::Range { .. }) {
                a.sort_unstable();
                b.sort_unstable();
            }
            assert_eq!(a, b, "slice {plan:?}, query {qid}");
        }
    }
    // The batch shares one scheduling pass over all covered queries.
    assert_eq!(combined.fs_metrics.active_rays, n as u64);
}

/// The `StageOverrides` ladder must be bit-equal to the `OptLevel` ladder:
/// pinning a level's stages per call on a fully-optimised engine, or
/// disabling one stage, produces exactly the results (and counters, and
/// simulated breakdown) of the engine level that never had the stage — the
/// overrides subsume the `OptLevel` plumbing.
#[test]
fn stage_overrides_are_bit_equal_to_the_opt_level_ladder() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2500, 0x57A6E5);
    let queries: Vec<Vec3> = points.iter().step_by(6).copied().collect();

    let ladder = OptLevel::all()
        .map(|opt| (opt, StageOverrides::for_level(opt)))
        .into_iter()
        .chain([
            (OptLevel::Sched, StageOverrides::without_partitioning()),
            (OptLevel::Full, StageOverrides::default()),
        ]);
    for plan in [QueryPlan::knn(5.0, 8), QueryPlan::range(4.0, 64)] {
        for (opt, overrides) in ladder.clone() {
            let mut levelled =
                Index::build(&backend, &points[..], EngineConfig::default().with_opt(opt));
            let expected = levelled.query(&queries, &plan).unwrap();

            let mut full = Index::build(&backend, &points[..], EngineConfig::default());
            let got = full.query_with(&queries, &plan, overrides).unwrap();

            assert_eq!(
                got.neighbors, expected.neighbors,
                "{plan:?} {opt:?}: override ladder must be bit-equal"
            );
            assert_eq!(
                got.num_partitions, expected.num_partitions,
                "{plan:?} {opt:?}"
            );
            assert_eq!(got.num_bundles, expected.num_bundles, "{plan:?} {opt:?}");
            assert_eq!(
                got.breakdown, expected.breakdown,
                "{plan:?} {opt:?}: simulated breakdown must match exactly"
            );
        }
    }

    // And no overrides at all is literally `query`.
    let plan = QueryPlan::knn(5.0, 8);
    let mut a = Index::build(&backend, &points[..], EngineConfig::default());
    let mut b = Index::build(&backend, &points[..], EngineConfig::default());
    let via_query = a.query(&queries, &plan).unwrap();
    let via_with = b
        .query_with(&queries, &plan, StageOverrides::default())
        .unwrap();
    assert_eq!(via_query.neighbors, via_with.neighbors);
    assert_eq!(via_query.breakdown, via_with.breakdown);
}

/// Satellite contract of the per-stage metering: the sum of the
/// `StageTiming` entries equals the simulated non-transfer total of the
/// existing breakdown — every millisecond lands in exactly one stage, and
/// the sort kernel (charged inside the shared batch schedule) is never
/// double-billed.
#[test]
fn stage_timings_sum_to_the_launch_metrics_totals() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(3000, 0x7141465);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    let n = queries.len() as u32;
    let plans = [
        QueryPlan::knn(5.0, 8),
        QueryPlan::range(4.0, 64),
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(4.0, 6), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(5.5, 64), (n / 2..n).collect()),
        ]),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);

    for opt in OptLevel::all() {
        for plan in &plans {
            let mut index =
                Index::build(&backend, &points[..], EngineConfig::default().with_opt(opt));
            let results = index.query(&queries, plan).unwrap();
            let b = &results.breakdown;
            let trace = &results.trace;

            // Every simulated ms outside the Data slot is in exactly one
            // stage.
            assert!(
                close(trace.device_total_ms(), b.total_ms() - b.data_ms),
                "{opt:?} {plan:?}: stages account {} ms, breakdown has {} ms",
                trace.device_total_ms(),
                b.total_ms() - b.data_ms
            );
            // Schedule + Partition together are the Opt + FS components —
            // the sort kernel is billed once (to Schedule), the megacell
            // kernel once (to Partition).
            let sched = trace.stage(StageKind::Schedule).device_ms;
            let part = trace.stage(StageKind::Partition).device_ms;
            assert!(
                close(sched + part, b.opt_ms + b.fs_ms),
                "{opt:?} {plan:?}: schedule {sched} + partition {part} vs opt {} + fs {}",
                b.opt_ms,
                b.fs_ms
            );
            // Launch owns structures + search traversals.
            assert!(
                close(
                    trace.stage(StageKind::Launch).device_ms,
                    b.bvh_ms + b.search_ms
                ),
                "{opt:?} {plan:?}: launch slot must equal BVH + Search"
            );
            // Gather is host-side only.
            assert_eq!(trace.stage(StageKind::Gather).device_ms, 0.0);
            if !queries.is_empty() {
                assert!(
                    trace.stage(StageKind::Gather).invocations > 0,
                    "{opt:?} {plan:?}: gather must have run"
                );
            }
        }
    }
}

#[test]
fn radii_far_past_the_cloud_answer_exactly_and_never_charge_less() {
    // A 12³ unit grid under the default 2^21-cell grid budget. No query
    // finds k points, so its megacell jumps to a step cap far past the
    // grid, charged the whole grid per step. Radii this large used to
    // overflow the megacell arithmetic: a panic in a debug build, a wrapped
    // and smaller charge in release.
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points: Vec<Vec3> = (0..12 * 12 * 12)
        .map(|i| Vec3::new((i % 12) as f32, (i / 12 % 12) as f32, (i / 144) as f32))
        .collect();
    let queries: Vec<Vec3> = (0..8).map(|i| Vec3::splat(1.5 + i as f32)).collect();
    for opt in OptLevel::all() {
        let mut index = Index::build(&backend, &points[..], EngineConfig::default().with_opt(opt));
        let mut charge = [0.0; 2];
        for r in [1e2, 1e3, 1e5, 1e9, 1e30, f32::MAX] {
            for (plan, last) in [QueryPlan::range(r, 4000), QueryPlan::knn(r, 4000)]
                .into_iter()
                .zip(&mut charge)
            {
                let results = index.query(&queries, &plan).unwrap();
                let params = plan.params().unwrap();
                if let Err((q, e)) = check_all(&points, &queries, &params, &results.neighbors) {
                    panic!("{opt:?} {plan:?}: query {q}: {e}");
                }
                let partition = results.trace.stage(StageKind::Partition).device_ms;
                assert!(
                    partition >= *last,
                    "{opt:?} {plan:?}: {partition} < {last} ms"
                );
                *last = partition;
            }
        }
    }
}

#[test]
fn plan_validation_is_typed_and_names_the_field() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(100, 3);
    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let queries = vec![Vec3::ZERO];

    let cases: Vec<(QueryPlan, PlanError)> = vec![
        (
            QueryPlan::knn(0.0, 4),
            PlanError::InvalidRadius {
                field: "Knn.r",
                value: 0.0,
            },
        ),
        (
            QueryPlan::knn(1.0, 0),
            PlanError::ZeroNeighborCount { field: "Knn.k" },
        ),
        (
            QueryPlan::range(-3.0, 8),
            PlanError::InvalidRadius {
                field: "Range.r",
                value: -3.0,
            },
        ),
        (
            QueryPlan::range(1.0, 0),
            PlanError::ZeroNeighborCount { field: "Range.cap" },
        ),
        (QueryPlan::Batch(Vec::new()), PlanError::EmptyBatch),
        (
            QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.0, 2), vec![7])]),
            PlanError::QueryIdOutOfRange {
                slice: 0,
                query_id: 7,
                num_queries: 1,
            },
        ),
    ];
    for (plan, expected) in cases {
        let err = index.query(&queries, &plan).unwrap_err();
        assert_eq!(err, SearchError::InvalidPlan(expected.clone()));
        // Every error message names the offending field or structure.
        let msg = err.to_string();
        assert!(
            msg.starts_with("invalid plan: "),
            "missing error prefix: {msg}"
        );
    }
}
