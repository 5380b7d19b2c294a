//! Cross-backend equivalence suite: for every plan kind × optimisation
//! level, the ray-tracing backend (`GpusimBackend`, default and OptiX-shim
//! builds) must agree with the exhaustive `BruteForceBackend` oracle on
//! seeded clouds —
//! bit-equal for KNN (whose distance-sorted output erases traversal-order
//! differences) and set-equal for range search (whose within-radius *order*
//! is traversal-defined, so an uncapped comparison is order-normalised).
//!
//! Also proves the `Backend` trait stays object-safe: every backend in the
//! suite is driven through a `Box<dyn Backend>`, and that every backend
//! rejects inputs outside the API's domain (non-finite queries) the same
//! way at every entry point.

use rtnn::{
    Backend, EngineConfig, GpusimBackend, Index, OptLevel, PlanError, PlanSlice, QueryPlan,
    SearchError, StageOverrides,
};
use rtnn_baselines::BruteForceBackend;
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{execute_tick, Request, ShardedIndex};

/// A seeded random cloud (no grid degeneracies, so float distance ties —
/// the one thing that could legitimately differ between candidate visit
/// orders — do not occur).
fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

fn queries_for(points: &[Vec3]) -> Vec<Vec3> {
    let mut queries: Vec<Vec3> = points.iter().step_by(9).copied().collect();
    // A few queries outside the cloud exercise the out-of-grid paths.
    queries.push(Vec3::new(-100.0, -100.0, -100.0));
    queries.push(Vec3::new(500.0, 0.0, 12.0));
    queries
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Run one plan on one backend through a trait object (object safety is
/// part of what this suite proves).
fn run_plan(
    backend: &dyn Backend,
    points: &[Vec3],
    queries: &[Vec3],
    opt: OptLevel,
    plan: &QueryPlan,
) -> Vec<Vec<u32>> {
    let mut index = Index::build(backend, points, EngineConfig::default().with_opt(opt));
    index
        .query(queries, plan)
        .expect("equivalence workload fits the device")
        .neighbors
}

#[test]
fn all_backends_agree_for_every_plan_kind_and_opt_level() {
    let device = Device::rtx_2080();
    let points = seeded_cloud(3000, 0xBEEF);
    let queries = queries_for(&points);
    let n = queries.len() as u32;

    let knn = QueryPlan::knn(6.0, 8);
    // Cap far above any in-radius count, so the range sets are complete.
    let range = QueryPlan::range(5.0, 100_000);
    let batch = QueryPlan::Batch(vec![
        PlanSlice::new(QueryPlan::knn(4.0, 5), (0..n / 2).collect()),
        PlanSlice::new(QueryPlan::range(7.0, 100_000), (n / 2..n).collect()),
    ]);

    let rt_backends: Vec<(&str, Box<dyn Backend + '_>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("optix-shim", Box::new(GpusimBackend::optix_shim(&device))),
    ];
    let oracle: Box<dyn Backend + '_> = Box::new(BruteForceBackend::new(&device));

    for opt in OptLevel::all() {
        // KNN: bit-equal (same sets, same distance-sorted order).
        let oracle_knn = run_plan(oracle.as_ref(), &points, &queries, opt, &knn);
        for (name, backend) in &rt_backends {
            let got = run_plan(backend.as_ref(), &points, &queries, opt, &knn);
            assert_eq!(
                got, oracle_knn,
                "{name} vs oracle, {opt:?}: KNN results must be bit-equal"
            );
        }

        // Range: set-equal against the oracle (order is traversal-defined);
        // the two RT backends must agree bit-for-bit with each other.
        let oracle_range = run_plan(oracle.as_ref(), &points, &queries, opt, &range);
        let rt_range: Vec<Vec<Vec<u32>>> = rt_backends
            .iter()
            .map(|(_, b)| run_plan(b.as_ref(), &points, &queries, opt, &range))
            .collect();
        assert_eq!(
            rt_range[0], rt_range[1],
            "{opt:?}: the two RT backends must agree bit-for-bit on range search"
        );
        for (qi, oracle_ids) in oracle_range.iter().enumerate() {
            assert_eq!(
                sorted(rt_range[0][qi].clone()),
                sorted(oracle_ids.clone()),
                "{opt:?} query {qi}: range sets must match the oracle"
            );
        }

        // Heterogeneous batch: per-slice, same contracts as above.
        let oracle_batch = run_plan(oracle.as_ref(), &points, &queries, opt, &batch);
        for (name, backend) in &rt_backends {
            let got = run_plan(backend.as_ref(), &points, &queries, opt, &batch);
            for qi in 0..(n / 2) as usize {
                assert_eq!(
                    got[qi], oracle_batch[qi],
                    "{name} vs oracle, {opt:?}: batch KNN slice, query {qi}"
                );
            }
            for qi in (n / 2) as usize..n as usize {
                assert_eq!(
                    sorted(got[qi].clone()),
                    sorted(oracle_batch[qi].clone()),
                    "{name} vs oracle, {opt:?}: batch range slice, query {qi}"
                );
            }
        }
    }
}

#[test]
fn boxed_backends_are_interchangeable_at_runtime() {
    // The constructor takes `&dyn Backend`: the same call site serves any
    // implementation picked at runtime.
    let device = Device::rtx_2080();
    let points = seeded_cloud(800, 0x0B57AC1E);
    let queries: Vec<Vec3> = points.iter().step_by(13).copied().collect();
    let backends: Vec<Box<dyn Backend + '_>> = vec![
        Box::new(GpusimBackend::new(&device)),
        Box::new(GpusimBackend::optix_shim(&device)),
        Box::new(BruteForceBackend::new(&device)),
    ];
    let mut all = Vec::new();
    for backend in &backends {
        assert!(!backend.name().is_empty());
        let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
        all.push(
            index
                .query(&queries, &QueryPlan::knn(5.0, 4))
                .unwrap()
                .neighbors,
        );
    }
    assert_eq!(all[0], all[1]);
    assert_eq!(all[0], all[2]);
}

#[test]
fn stage_overrides_preserve_backend_equivalence() {
    // Disabling a pipeline stage per call must not change *what* any
    // backend computes — the staged execution only moves work around. Every
    // backend (driven through a `Box<dyn Backend>`, including the oracle,
    // which executes the same pipeline with exhaustive launches) must agree
    // bit-for-bit on KNN under every single-stage toggle, and the toggles
    // must match the untoggled results.
    let device = Device::rtx_2080();
    let points = seeded_cloud(1500, 0x0DDBA11);
    let queries = queries_for(&points);
    let plan = QueryPlan::knn(6.0, 8);
    let backends: Vec<(&str, Box<dyn Backend + '_>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("optix-shim", Box::new(GpusimBackend::optix_shim(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];
    let toggles = [
        ("none", StageOverrides::default()),
        ("no-reorder", StageOverrides::without_reordering()),
        ("no-partition", StageOverrides::without_partitioning()),
    ];

    let mut reference: Option<Vec<Vec<u32>>> = None;
    for (backend_name, backend) in &backends {
        for (toggle_name, overrides) in toggles {
            let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
            let got = index
                .query_with(&queries, &plan, overrides)
                .expect("override workload fits the device")
                .neighbors;
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(
                    &got, expected,
                    "{backend_name}/{toggle_name}: stage toggles must not change KNN results"
                ),
            }
        }
    }
}

#[test]
fn oracle_matches_the_reference_brute_force_scan() {
    // The oracle backend and the verification module's scan must agree —
    // they are independent implementations of the same ground truth.
    let device = Device::rtx_2080();
    let points = seeded_cloud(1200, 0x0C0FFEE);
    let queries: Vec<Vec3> = points.iter().step_by(31).copied().collect();
    let oracle: Box<dyn Backend + '_> = Box::new(BruteForceBackend::new(&device));
    let got = run_plan(
        oracle.as_ref(),
        &points,
        &queries,
        OptLevel::Full,
        &QueryPlan::knn(8.0, 6),
    );
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(got[qi], rtnn::verify::brute_force_knn(&points, *q, 8.0, 6));
    }
}

/// A query with a NaN or infinite coordinate is outside the API's domain.
/// Every backend rejects it through `Index` and `ShardedIndex` (1 and 4
/// shards) with a typed error naming the query, and a serving tick that
/// fuses it with a valid request fails only the offending request — by its
/// own query id — while answering the valid one.
#[test]
fn non_finite_queries_are_rejected_on_every_backend_and_entry_point() {
    let device = Device::rtx_2080();
    let points: Vec<Vec3> = (0..1000)
        .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
        .collect();
    let plan = QueryPlan::knn(1.5, 4);
    let rejected = SearchError::InvalidPlan(PlanError::NonFiniteQuery { query_id: 1 });
    let backends: [(&str, Box<dyn Backend>); 3] = [
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("optix-shim", Box::new(GpusimBackend::optix_shim(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];
    for (name, backend) in &backends {
        for bad in [
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(0.0, f32::INFINITY, 0.0),
        ] {
            let queries = [Vec3::ZERO, bad];
            for opt in [OptLevel::NoOpt, OptLevel::Full] {
                let config = EngineConfig::default().with_opt(opt);
                let mut index = Index::build(backend.as_ref(), &points[..], config);
                assert_eq!(
                    index.query(&queries, &plan).unwrap_err(),
                    rejected,
                    "{name} {opt:?} {bad:?}: Index"
                );
                for shards in [1, 4] {
                    let mut sharded =
                        ShardedIndex::build(backend.as_ref(), &points, config, shards);
                    assert_eq!(
                        sharded.query(&queries, &plan).unwrap_err(),
                        rejected,
                        "{name} {opt:?} {bad:?}: {shards}-shard ShardedIndex"
                    );
                }
            }
        }

        let good = Request::new(vec![Vec3::new(4.0, 4.0, 4.0)], plan.clone());
        let nan = Request::new(
            vec![Vec3::ZERO, Vec3::new(f32::NAN, 0.0, 0.0)],
            plan.clone(),
        );
        let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
        let (outcomes, tick) = execute_tick(&mut index, &[&good, &nan]);
        assert_eq!(tick.requests, 1, "{name}: only the valid request runs");
        assert_eq!(outcomes[1].as_ref().unwrap_err(), &rejected, "{name}");
        let expected = run_plan(
            backend.as_ref(),
            &points,
            &good.queries,
            OptLevel::Full,
            &plan,
        );
        assert_eq!(outcomes[0].as_ref().unwrap(), &expected, "{name}");
    }
}
