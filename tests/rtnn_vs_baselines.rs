//! Cross-crate integration tests: the RTNN engine, every baseline and every
//! dataset family must agree with the brute-force oracle, on both search
//! modes and at every optimisation level.

use rtnn::verify::check_all;
use rtnn::{
    EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan, SearchMode, SearchParams,
    SearchResults,
};
use rtnn_baselines::bruteforce::BruteForce;
use rtnn_baselines::grid_knn::GridKnn;
use rtnn_baselines::kdtree::KdTreeSearch;
use rtnn_baselines::octree::OctreeSearch;
use rtnn_baselines::uniform_grid::UniformGridSearch;
use rtnn_baselines::{Baseline, SearchRequest};
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// One small instance of each dataset family plus a radius that yields a
/// healthy number of neighbors at this scale.
fn families() -> Vec<(String, Vec<Vec3>, f32)> {
    let configs = [
        (DatasetName::Kitti1M, 2.5f32),
        (DatasetName::Buddha4_6M, 0.08),
        (DatasetName::NBody9M, 12.0),
    ];
    configs
        .iter()
        .map(|&(name, radius)| {
            let cloud = Dataset::scaled(name, name.paper_points() / 2500).generate();
            (cloud.name.clone(), cloud.points, radius)
        })
        .collect()
}

fn queries_of(points: &[Vec3]) -> Vec<Vec3> {
    points.iter().step_by(7).copied().collect()
}

/// One search on a fresh index.
fn rtnn_search(
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

#[test]
fn rtnn_matches_oracle_on_every_dataset_family_and_opt_level() {
    let device = Device::rtx_2080();
    for (name, points, radius) in families() {
        let queries = queries_of(&points);
        for mode in [SearchMode::Range, SearchMode::Knn] {
            let params = SearchParams {
                radius,
                k: 12,
                mode,
            };
            for opt in OptLevel::all() {
                let engine = EngineConfig::default().with_opt(opt);
                let results = rtnn_search(&device, engine, params, &points, &queries);
                check_all(&points, &queries, &params, &results.neighbors)
                    .unwrap_or_else(|(q, e)| panic!("{name}, {mode:?}, {opt:?}, query {q}: {e}"));
            }
        }
    }
}

#[test]
fn every_baseline_matches_oracle_on_every_dataset_family() {
    let device = Device::rtx_2080();
    let range_baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(BruteForce),
        Box::new(UniformGridSearch),
        Box::new(OctreeSearch),
        Box::new(KdTreeSearch),
    ];
    let knn_baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(BruteForce),
        Box::new(GridKnn),
        Box::new(KdTreeSearch),
    ];
    for (name, points, radius) in families() {
        let queries = queries_of(&points);
        let request = SearchRequest::new(radius, 12);
        for baseline in &range_baselines {
            let run = baseline
                .range_search(&device, &points, &queries, request)
                .unwrap();
            check_all(
                &points,
                &queries,
                &SearchParams::range(radius, 12),
                &run.neighbors,
            )
            .unwrap_or_else(|(q, e)| panic!("{name}, {}, query {q}: {e}", baseline.name()));
        }
        for baseline in &knn_baselines {
            let run = baseline
                .knn_search(&device, &points, &queries, request)
                .unwrap();
            check_all(
                &points,
                &queries,
                &SearchParams::knn(radius, 12),
                &run.neighbors,
            )
            .unwrap_or_else(|(q, e)| panic!("{name}, {}, query {q}: {e}", baseline.name()));
        }
    }
}

#[test]
fn rtnn_and_kdtree_report_identical_knn_distance_profiles() {
    // Beyond the per-query contract: aggregate distance sums must agree,
    // which catches systematic off-by-one-neighbor errors.
    let device = Device::rtx_2080();
    let cloud = Dataset::scaled(DatasetName::Dragon3_6M, 2000).generate();
    let queries = queries_of(&cloud.points);
    let params = SearchParams::knn(0.05, 8);
    let rtnn = rtnn_search(
        &device,
        EngineConfig::default(),
        params,
        &cloud.points,
        &queries,
    );
    let kd = KdTreeSearch
        .knn_search(
            &device,
            &cloud.points,
            &queries,
            SearchRequest::new(0.05, 8),
        )
        .unwrap();
    let sum_of = |results: &Vec<Vec<u32>>| -> f64 {
        results
            .iter()
            .zip(&queries)
            .map(|(ids, q)| {
                ids.iter()
                    .map(|&i| q.distance(cloud.points[i as usize]) as f64)
                    .sum::<f64>()
            })
            .sum()
    };
    let a = sum_of(&rtnn.neighbors);
    let b = sum_of(&kd.neighbors);
    assert!(
        (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
        "distance sums diverge: {a} vs {b}"
    );
}

#[test]
fn results_are_deterministic_across_runs() {
    // Pin the worker-thread count: the comparison below includes simulated
    // timings, which must not depend on host scheduling. (Results are
    // thread-count independent by design; see tests/determinism.rs.)
    rtnn_parallel::set_num_threads(4);
    let device = Device::rtx_2080();
    let cloud = Dataset::scaled(DatasetName::Kitti6M, 4000).generate();
    let queries = queries_of(&cloud.points);
    let params = SearchParams::knn(2.0, 6);
    let run = || {
        rtnn_search(
            &device,
            EngineConfig::default(),
            params,
            &cloud.points,
            &queries,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.search_metrics, b.search_metrics);
}

#[test]
fn both_device_presets_agree_on_results_but_not_on_time() {
    // Same pin (and the same value) as `results_are_deterministic_across_runs`
    // so the two timing-sensitive tests cannot race each other on the global.
    rtnn_parallel::set_num_threads(4);
    let cloud = Dataset::scaled(DatasetName::Bunny360K, 300).generate();
    let queries = queries_of(&cloud.points);
    let params = SearchParams::range(0.03, 16);
    let on = |device: &Device| {
        rtnn_search(
            device,
            EngineConfig::default(),
            params,
            &cloud.points,
            &queries,
        )
    };
    let slow = on(&Device::rtx_2080());
    let fast = on(&Device::rtx_2080_ti());
    assert_eq!(
        slow.neighbors, fast.neighbors,
        "results must be device-independent"
    );
    assert!(
        fast.total_time_ms() < slow.total_time_ms(),
        "the 68-SM 2080 Ti must be simulated as faster than the 46-SM 2080"
    );
}
