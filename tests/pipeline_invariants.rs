//! End-to-end invariants of the simulated pipeline that span several crates:
//! time accounting, optimisation effects at realistic density, approximate
//! modes, and simulator sanity properties from DESIGN.md.

use rtnn::{
    ApproxMode, EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan, SearchMode, SearchParams,
    SearchResults,
};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};

/// One search on a fresh index.
fn search(
    device: &Device,
    engine: EngineConfig,
    params: SearchParams,
    points: &[Vec3],
    queries: &[Vec3],
) -> SearchResults {
    Index::build(&GpusimBackend::new(device), points, engine)
        .query(queries, &QueryPlan::from_params(params))
        .unwrap()
}

fn dense_cloud(n: usize) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        bounds: Aabb::new(Vec3::ZERO, Vec3::splat(10.0)),
        seed: 99,
    })
    .points
}

#[test]
fn breakdown_components_sum_to_total_and_are_nonnegative() {
    let device = Device::rtx_2080();
    let points = dense_cloud(20_000);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    for mode in [SearchMode::Range, SearchMode::Knn] {
        let params = SearchParams {
            radius: 1.0,
            k: 16,
            mode,
        };
        let results = search(&device, EngineConfig::default(), params, &points, &queries);
        let b = results.breakdown;
        let sum = b.data_ms + b.opt_ms + b.bvh_ms + b.fs_ms + b.search_ms;
        assert!((sum - b.total_ms()).abs() < 1e-9);
        for (label, v) in b.components() {
            assert!(v >= 0.0, "{label} negative");
        }
        assert!(b.search_ms > 0.0);
        assert!(b.bvh_ms > 0.0);
    }
}

#[test]
fn full_optimisations_beat_noopt_on_a_dense_knn_workload() {
    // The headline effect at a scale where search work dominates overheads.
    let device = Device::rtx_2080();
    let points = dense_cloud(30_000);
    let queries = points.clone();
    let params = SearchParams::knn(1.5, 16);
    let time_at = |opt: OptLevel| {
        let engine = EngineConfig::default().with_opt(opt);
        search(&device, engine, params, &points, &queries).total_time_ms()
    };
    let noopt = time_at(OptLevel::NoOpt);
    let full = time_at(OptLevel::Full);
    assert!(
        full < noopt,
        "expected the optimised pipeline to win at this density: full {full} ms vs noopt {noopt} ms"
    );
}

#[test]
fn partitioned_search_does_less_shader_work_than_global_search() {
    let device = Device::rtx_2080();
    let points = dense_cloud(25_000);
    let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
    let params = SearchParams::knn(2.0, 8);
    let run = |opt: OptLevel| {
        let engine = EngineConfig::default().with_opt(opt);
        search(&device, engine, params, &points, &queries)
    };
    let sched = run(OptLevel::Sched);
    let part = run(OptLevel::SchedPartition);
    assert!(part.search_metrics.is_calls < sched.search_metrics.is_calls);
    assert!(
        part.num_partitions > 1,
        "a dense cloud should produce several megacell sizes"
    );
    assert_eq!(
        part.neighbors, sched.neighbors,
        "optimisations must not change the answer"
    );
}

#[test]
fn bundling_never_increases_total_time() {
    let device = Device::rtx_2080();
    // The clustered N-body distribution creates many partitions, which is
    // where bundling matters (Figure 13b).
    let cloud = Dataset::scaled(DatasetName::NBody9M, 400).generate();
    let queries: Vec<Vec3> = cloud.points.iter().step_by(3).copied().collect();
    let params = SearchParams::range(8.0, 32);
    let run = |opt: OptLevel| {
        let engine = EngineConfig::default().with_opt(opt);
        search(&device, engine, params, &cloud.points, &queries)
    };
    let unbundled = run(OptLevel::SchedPartition);
    let bundled = run(OptLevel::Full);
    assert!(bundled.num_bundles <= unbundled.num_partitions);
    assert!(
        bundled.total_time_ms() <= unbundled.total_time_ms() * 1.02,
        "bundled {} ms vs unbundled {} ms",
        bundled.total_time_ms(),
        unbundled.total_time_ms()
    );
    // Range search with a K cap may return a *different* valid subset of the
    // in-radius neighbors depending on traversal order, so compare counts
    // (both runs are contract-checked elsewhere), not identities.
    let counts = |r: &rtnn::SearchResults| r.neighbors.iter().map(Vec::len).collect::<Vec<_>>();
    assert_eq!(counts(&bundled), counts(&unbundled));
}

#[test]
fn shrunken_aabb_approximation_is_faster_and_never_reports_false_neighbors() {
    let device = Device::rtx_2080();
    let points = dense_cloud(20_000);
    let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
    // K chosen far above the realistic neighbor count (≈ 280 at this density)
    // so the search is effectively unbounded, but small enough that the
    // simulated result buffers still fit in device memory.
    let params = SearchParams::range(1.5, 2_000);
    let sched = EngineConfig::default().with_opt(OptLevel::Sched);
    let exact = search(&device, sched, params, &points, &queries);
    let shrunk = sched.with_approx(ApproxMode::ShrunkenAabb { factor: 0.5 });
    let approx = search(&device, shrunk, params, &points, &queries);
    assert!(approx.search_metrics.is_calls < exact.search_metrics.is_calls);
    assert!(approx.breakdown.search_ms < exact.breakdown.search_ms);
    let r2 = params.radius * params.radius;
    for (qi, q) in queries.iter().enumerate() {
        for &id in &approx.neighbors[qi] {
            assert!(q.distance_squared(points[id as usize]) < r2);
        }
        assert!(approx.neighbors[qi].len() <= exact.neighbors[qi].len());
    }
}

#[test]
fn simulated_time_grows_with_query_count() {
    let device = Device::rtx_2080();
    let points = dense_cloud(15_000);
    let params = SearchParams::knn(1.0, 8);
    let small: Vec<Vec3> = points.iter().step_by(20).copied().collect();
    let large: Vec<Vec3> = points.iter().step_by(2).copied().collect();
    let search_ms = |queries: &[Vec3]| {
        search(&device, EngineConfig::default(), params, &points, queries)
            .breakdown
            .search_ms
    };
    let t_small = search_ms(&small);
    let t_large = search_ms(&large);
    assert!(t_large > t_small);
}

#[test]
fn knn_results_are_sorted_by_distance() {
    let device = Device::rtx_2080();
    let points = dense_cloud(5_000);
    let queries: Vec<Vec3> = points.iter().step_by(11).copied().collect();
    let params = SearchParams::knn(2.0, 10);
    let results = search(&device, EngineConfig::default(), params, &points, &queries);
    for (qi, q) in queries.iter().enumerate() {
        let dists: Vec<f32> = results.neighbors[qi]
            .iter()
            .map(|&i| q.distance_squared(points[i as usize]))
            .collect();
        for pair in dists.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "query {qi}: distances not sorted: {dists:?}"
            );
        }
    }
}
