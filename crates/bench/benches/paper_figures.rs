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
use rtnn::shaders::{KnnProgram, QueryIndexing, RangeProgram};
use rtnn::{
    Backend, EngineConfig, GpusimBackend, Index, MegacellGrid, OptLevel, QueryPlan, RtnnConfig,
    SearchMode, SearchParams,
};
use rtnn_baselines::fastrnn::FastRnn;
use rtnn_baselines::grid_knn::GridKnn;
use rtnn_baselines::octree::OctreeSearch;
use rtnn_baselines::uniform_grid::UniformGridSearch;
use rtnn_baselines::{Baseline, SearchRequest};
use rtnn_bench::workloads::compensated_radius;
use rtnn_bvh::{build_point_bvh, BuildParams, BvhBuilder};
use rtnn_data::{Dataset, DatasetName, DriftModel, DriftScene};
use rtnn_dynamic::{DynamicIndex, RebuildPolicy};
use rtnn_gpusim::{Device, IsShaderKind};
use rtnn_math::morton::MortonEncoder;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::Pipeline;
use rtnn_parallel::with_thread_count;
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
    let knn_baselines: Vec<(&str, Box<dyn Baseline>)> =
        vec![("FRNN", Box::new(GridKnn)), ("FastRNN", Box::new(FastRnn))];
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
            accel: Some(&accel),
            points: &f.points,
            point_bounds: Aabb::from_points(&f.points),
            queries: &f.queries,
            query_ids: &ids,
        })
    };
    group.bench_function("query_scheduling", |b| b.iter(schedule));
    let order = schedule().order;
    let params = SearchParams::knn(f.radius, f.k);
    let grid = MegacellGrid::build(&f.points, config.grid_max_cells.get()).unwrap();
    group.bench_function("query_partitioning", |b| {
        b.iter(|| partition_queries(&device, &grid, &f.queries, &order, &params, config.knn_rule));
    });
    // The grid every partitioned `Index` and shard builds on its first
    // query, and the refresh a `DynamicIndex` frame pays when a point
    // changes cell: two frames that swap the positions of every 16th point
    // alternate, so each refresh moves points across cells.
    group.bench_function("megacell_grid_build", |b| {
        b.iter(|| MegacellGrid::build(&f.points, config.grid_max_cells.get()))
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
            assert!(
                refreshed.refresh(frames[frame], &moved),
                "swapped positions stay in bounds"
            );
        })
    });
    group.finish();
}

/// What a `stream_nbody` frame costs the host before its search: a
/// `DynamicIndex` over `NBody9M / 400` (22.5k points) at the workload's
/// knn(r, 16) and never-rebuild policy, each sample moving every point
/// one orbit step with `move_point` and bringing the structures up to date
/// (`as_index`: refit, grid refresh or rebuild, no query). Two orbit
/// frames alternate, so every sample moves every point.
fn bench_dynamic_frame_upkeep(c: &mut Criterion) {
    let cloud = Dataset::scaled(DatasetName::NBody9M, 400).generate();
    let radius = compensated_radius(DatasetName::NBody9M, 400);
    let mut orbit = DriftScene::new(&cloud, DriftModel::NBodyOrbit { angular_step: 0.01 }, 1);
    orbit.step();
    let frames = [cloud.points.clone(), orbit.live_points()];
    let device = Device::rtx_2080();
    let config = RtnnConfig::new(SearchParams::knn(radius, 16));
    let mut index = DynamicIndex::with_policy(&device, config, RebuildPolicy::never_rebuild());
    for &p in &cloud.points {
        index.insert(p);
    }
    let queries: Vec<Vec3> = cloud.points.iter().step_by(32).copied().collect();
    index
        .search(&queries)
        .expect("the first frame builds every structure");
    let mut group = c.benchmark_group("dynamic_frame_upkeep");
    configure(&mut group);
    let mut frame = 0;
    group.bench_function("nbody_orbit_frame", |b| {
        b.iter(|| {
            frame ^= 1;
            for (h, &p) in frames[frame].iter().enumerate() {
                index.move_point(h as u32, p);
            }
            drop(index.as_index().expect("finite positions"));
        })
    });
    group.finish();
}

/// The launch's per-ray loop (traversal, shaders and warp metering) on one
/// thread, over the cloud and radius `batch_kitti` queries: `Kitti12M / 100`
/// (about 120k points) at its density-compensated radius, every 12th point
/// a query, launched in Morton order of the queries, range(r, 32) and
/// knn(r, 32) on one full-width structure.
fn bench_launch_warp_loop(c: &mut Criterion) {
    let points = Dataset::scaled(DatasetName::Kitti12M, 100)
        .generate()
        .points;
    let radius = compensated_radius(DatasetName::Kitti12M, 100);
    let k = 32;
    let queries: Vec<Vec3> = points.iter().step_by(12).copied().collect();
    let encoder = MortonEncoder::new(&Aabb::from_points(&queries));
    let mut order: Vec<u32> = (0..queries.len() as u32).collect();
    order.sort_by_key(|&q| (encoder.encode(queries[q as usize]), q));
    let device = Device::rtx_2080();
    let bvh = build_point_bvh(&points, radius, BuildParams::default());
    let pipeline = Pipeline::new(&device);
    let indexing = QueryIndexing::Mapped(&order);
    let range = RangeProgram {
        queries: &queries,
        indexing,
        radius,
        k,
        sphere_test: true,
    };
    let knn = KnnProgram {
        queries: &queries,
        indexing,
        radius,
        k,
    };
    let mut group = c.benchmark_group("launch_warp_loop");
    configure(&mut group);
    group.bench_function("range", |b| {
        b.iter(|| {
            with_thread_count(1, || {
                pipeline.launch(&bvh, order.len(), &range, IsShaderKind::RangeSphereTest)
            })
        })
    });
    group.bench_function("knn", |b| {
        b.iter(|| {
            with_thread_count(1, || {
                pipeline.launch(&bvh, order.len(), &knn, IsShaderKind::Knn)
            })
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
    bench_scheduling_and_partitioning,
    bench_dynamic_frame_upkeep,
    bench_launch_warp_loop
);
criterion_main!(benches);
