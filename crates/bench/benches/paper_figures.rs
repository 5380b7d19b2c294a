//! Criterion benchmarks of the host-side hot paths.
//!
//! The per-figure experiment binaries report *simulated* GPU time; these
//! benches measure the *wall-clock* cost of the main code paths (BVH
//! construction, the RTNN pipeline at each optimisation level, and every
//! baseline) on a fixed small workload, so regressions in the
//! implementation itself are caught by `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtnn::partition::partition_queries;
use rtnn::pipeline::{Schedule, ScheduleCx};
use rtnn::{
    Backend, EngineConfig, GpusimBackend, GridRefresh, Index, MegacellGrid, OptLevel, QueryPlan,
    SearchMode, SearchParams,
};
use rtnn_baselines::fastrnn::FastRnn;
use rtnn_baselines::grid_knn::GridKnn;
use rtnn_baselines::kdtree::KdTreeSearch;
use rtnn_baselines::octree::OctreeSearch;
use rtnn_baselines::uniform_grid::UniformGridSearch;
use rtnn_baselines::{Baseline, SearchRequest};
use rtnn_bvh::{build_point_bvh, BuildParams, BvhBuilder};
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use std::time::Duration;

struct Fixture {
    points: Vec<Vec3>,
    queries: Vec<Vec3>,
    radius: f32,
    k: usize,
}

fn fixture() -> Fixture {
    let cloud = Dataset::scaled(DatasetName::Kitti1M, 100).generate(); // 10k points
    let queries = cloud.queries_subsampled(4); // 2.5k queries
    Fixture {
        points: cloud.points,
        queries,
        radius: DatasetName::Kitti1M.default_radius(),
        k: 16,
    }
}

/// Keep every Criterion group short: the interesting comparisons are the
/// relative costs, not tight confidence intervals.
fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
}

fn bench_bvh_builders(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("bvh_build");
    configure(&mut group);
    for builder in [BvhBuilder::Lbvh, BvhBuilder::LbvhSerial] {
        group.bench_with_input(
            BenchmarkId::new("builder", format!("{builder:?}")),
            &builder,
            |b, &builder| {
                b.iter(|| {
                    build_point_bvh(
                        &f.points,
                        f.radius,
                        BuildParams {
                            builder,
                            max_leaf_size: 4,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_rtnn_opt_levels(c: &mut Criterion) {
    let f = fixture();
    let device = Device::rtx_2080();
    let mut group = c.benchmark_group("rtnn_search");
    configure(&mut group);
    for mode in [SearchMode::Range, SearchMode::Knn] {
        for opt in OptLevel::all() {
            let params = SearchParams {
                radius: f.radius,
                k: f.k,
                mode,
            };
            let backend = GpusimBackend::new(&device);
            let cfg = EngineConfig::default().with_opt(opt);
            let plan = QueryPlan::from_params(params);
            let id = BenchmarkId::new(format!("{mode:?}"), opt.label());
            group.bench_function(id, |b| {
                // Fresh index per iteration: the full cold-start pipeline,
                // matching what the legacy one-shot engine measured.
                b.iter(|| {
                    Index::build(&backend, &f.points[..], cfg)
                        .query(&f.queries, &plan)
                        .unwrap()
                });
            });
        }
    }
    group.finish();
}

fn bench_rtnn_warm_index(c: &mut Criterion) {
    // The amortized path the new API opens: one persistent index, plans
    // answered against warm structure caches.
    let f = fixture();
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let mut group = c.benchmark_group("rtnn_warm_index");
    configure(&mut group);
    for mode in [SearchMode::Range, SearchMode::Knn] {
        let params = SearchParams {
            radius: f.radius,
            k: f.k,
            mode,
        };
        let plan = QueryPlan::from_params(params);
        let mut index = Index::build(&backend, &f.points[..], EngineConfig::default());
        index.query(&f.queries, &plan).unwrap(); // warm the caches
        let id = BenchmarkId::new(format!("{mode:?}"), "warm");
        group.bench_function(id, |b| {
            b.iter(|| index.query(&f.queries, &plan).unwrap());
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let f = fixture();
    let device = Device::rtx_2080();
    let request = SearchRequest::new(f.radius, f.k);
    let mut group = c.benchmark_group("baselines");
    configure(&mut group);
    let range_baselines: Vec<(&str, Box<dyn Baseline>)> = vec![
        ("cuNSearch", Box::new(UniformGridSearch)),
        ("PCLOctree", Box::new(OctreeSearch)),
        ("KdTree", Box::new(KdTreeSearch)),
    ];
    for (name, baseline) in &range_baselines {
        group.bench_function(BenchmarkId::new("range", *name), |b| {
            b.iter(|| {
                baseline
                    .range_search(&device, &f.points, &f.queries, request)
                    .unwrap()
            });
        });
    }
    let knn_baselines: Vec<(&str, Box<dyn Baseline>)> = vec![
        ("FRNN", Box::new(GridKnn)),
        ("FastRNN", Box::new(FastRnn)),
        ("KdTree", Box::new(KdTreeSearch)),
    ];
    for (name, baseline) in &knn_baselines {
        group.bench_function(BenchmarkId::new("knn", *name), |b| {
            b.iter(|| {
                baseline
                    .knn_search(&device, &f.points, &f.queries, request)
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// The two optimisation passes as an `Index` runs them: the
/// `Schedule::Coherence` stage over a backend structure at width `2·radius`,
/// and the megacell kernel over the scheduled order on a grid built once.
fn bench_scheduling_and_partitioning(c: &mut Criterion) {
    let f = fixture();
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let config = EngineConfig::default();
    let mut group = c.benchmark_group("optimisation_passes");
    configure(&mut group);
    let accel = backend
        .build(
            &f.points,
            config.aabb_width(f.radius),
            BuildParams::default(),
        )
        .unwrap();
    let ids: Vec<u32> = (0..f.queries.len() as u32).collect();
    let schedule = || {
        Schedule::Coherence.run(&ScheduleCx {
            backend: &backend,
            accel: Some(accel.as_ref()),
            points: &f.points,
            queries: &f.queries,
            query_ids: &ids,
        })
    };
    group.bench_function("query_scheduling", |b| b.iter(schedule));
    let order = schedule().order;
    let params = SearchParams::knn(f.radius, f.k);
    let grid = MegacellGrid::build(&f.points, config.grid_max_cells).unwrap();
    group.bench_function("query_partitioning", |b| {
        b.iter(|| {
            partition_queries(
                &device,
                &grid,
                &f.queries,
                &order,
                &params,
                config.knn_rule,
                None,
            )
        });
    });
    // The grid every partitioned `Index` and shard builds on its first
    // query, and the refresh a `DynamicIndex` frame pays when a point
    // changes cell: two frames that swap the positions of every 16th point
    // alternate, so each refresh moves points across cells.
    group.bench_function("megacell_grid_build", |b| {
        b.iter(|| MegacellGrid::build(&f.points, config.grid_max_cells))
    });
    let moved: Vec<u32> = (0..f.points.len() as u32).step_by(16).collect();
    let mut swapped = f.points.clone();
    for (i, &id) in moved.iter().enumerate() {
        swapped[id as usize] = f.points[moved[(i + 1) % moved.len()] as usize];
    }
    let frames = [&f.points, &swapped];
    let mut refreshed = grid;
    let mut frame = 0;
    group.bench_function("megacell_grid_refresh", |b| {
        b.iter(|| {
            frame ^= 1;
            match refreshed.refresh(frames[frame], &moved) {
                GridRefresh::Incremental { cells_changed, .. } => assert!(cells_changed > 0),
                GridRefresh::NeedsRebuild => unreachable!("swapped positions stay in bounds"),
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bvh_builders,
    bench_rtnn_opt_levels,
    bench_rtnn_warm_index,
    bench_baselines,
    bench_scheduling_and_partitioning
);
criterion_main!(benches);
