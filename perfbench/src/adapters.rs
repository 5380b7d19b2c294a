//! Every call the benchmark makes into the library, one small adapter per
//! workload. The workload drivers never name a library type beyond the
//! plain data re-exported here, so an API change (say, the engine config
//! or driver path collapsing) edits one function in this file, not the
//! workloads.

use rtnn::verify::check_result;
use rtnn::{Backend, EngineConfig, GpusimBackend, Index, SearchParams, SearchResults};
use rtnn_data::{Dataset, DatasetName, DriftModel, DriftScene, PointCloud, UniformParams};
use rtnn_gpusim::Device;
use rtnn_serve::{execute_tick, QueryService, Request, ServeConfig, ServiceClient, ShardedIndex};

pub use rtnn::{PlanSlice, QueryPlan, SearchResults as Results};
pub use rtnn_math::Vec3;
pub use rtnn_serve::{ShardTiming, TickExecutor};

/// A library error, flattened for reporting.
pub type OpResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// Pin the worker-pool width for the whole process.
pub fn set_threads(n: usize) {
    rtnn_parallel::set_num_threads(n);
}

/// The simulated device every workload runs on.
pub fn device() -> Device {
    Device::rtx_2080()
}

/// The RT backend over `device`.
pub fn backend(device: &Device) -> GpusimBackend<'_> {
    GpusimBackend::new(device)
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The paper radius of `name` grown so a cloud scaled down by `divisor`
/// keeps the full-scale neighbors per query (planar KITTI: `√divisor`,
/// volumetric N-body: `∛divisor`) — the figure suite's density rule.
fn compensated_radius(name: DatasetName, divisor: usize) -> f32 {
    let exponent = match name {
        DatasetName::Kitti12M => 0.5,
        _ => 1.0 / 3.0,
    };
    name.default_radius() * (divisor as f32).powf(exponent)
}

fn scaled(name: DatasetName, divisor: usize, seed: u64) -> (Vec<Vec3>, f32) {
    let cloud = Dataset {
        name,
        scale_divisor: divisor,
        seed,
    }
    .generate();
    (cloud.points, compensated_radius(name, divisor))
}

/// KITTI-like LiDAR cloud (`Kitti12M / divisor`) and its search radius.
pub fn kitti(divisor: usize, seed: u64) -> (Vec<Vec3>, f32) {
    scaled(DatasetName::Kitti12M, divisor, seed)
}

/// NBody-like cloud (`NBody9M / divisor`) and its search radius.
pub fn nbody(divisor: usize, seed: u64) -> (Vec<Vec3>, f32) {
    scaled(DatasetName::NBody9M, divisor, seed)
}

/// Uniform cloud of `n` points in the default 100³ box.
pub fn uniform(n: usize, seed: u64) -> Vec<Vec3> {
    rtnn_data::uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

/// A seeded scene orbiting like an N-body disc.
pub struct Drift(DriftScene);

impl Drift {
    /// Wrap `points`; `seed` drives any randomness of the drift model.
    pub fn orbit(points: &[Vec3], angular_step: f32, seed: u64) -> Self {
        let cloud = PointCloud::new("perfbench", points.to_vec());
        Drift(DriftScene::new(
            &cloud,
            DriftModel::NBodyOrbit { angular_step },
            seed,
        ))
    }

    /// Advance one frame; returns the slots that moved (the orbit model
    /// neither removes nor inserts).
    pub fn step(&mut self) -> Vec<u32> {
        self.0.step().moved
    }

    /// Position of a live slot.
    pub fn position(&self, slot: u32) -> Vec3 {
        self.0.position(slot).expect("orbit slots stay live")
    }

    /// Live points in slot order.
    pub fn live_points(&self) -> Vec<Vec3> {
        self.0.live_points()
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Check one neighbor list against brute force (`rtnn::verify`).
pub fn check(points: &[Vec3], query: Vec3, plan: &QueryPlan, got: &[u32]) -> OpResult<()> {
    let params = match *plan {
        QueryPlan::Knn { k, r } => SearchParams::knn(r, k),
        QueryPlan::Range { r, cap } => SearchParams::range(r, cap),
        QueryPlan::Batch(_) => return Err("batch plans are checked per slice".into()),
    };
    check_result(points, query, &params, got)
}

/// Exhaustive DBSCAN labels.
pub fn dbscan_oracle(points: &[Vec3], eps: f32, min_pts: usize) -> Vec<Option<u32>> {
    rtnn_baselines::analytics_oracle::dbscan_oracle(points, eps, min_pts)
}

// ---------------------------------------------------------------------------
// batch_kitti / dbscan_nbody: a plain `Index`
// ---------------------------------------------------------------------------

/// A warm single index with the default engine config.
pub struct Batch<'a>(Index<'a>);

impl<'a> Batch<'a> {
    /// Build over `points` and pre-build every structure `plans` demand.
    pub fn build(
        backend: &'a dyn Backend,
        points: &'a [Vec3],
        plans: &[QueryPlan],
    ) -> OpResult<Self> {
        let mut index = Index::build(backend, points, EngineConfig::default());
        for plan in plans {
            index.warm(plan).map_err(err)?;
        }
        Ok(Batch(index))
    }

    /// One `Index::query` call.
    pub fn query(&mut self, queries: &[Vec3], plan: &QueryPlan) -> OpResult<SearchResults> {
        self.0.query(queries, plan).map_err(err)
    }

    /// The index as a tick executor (what DBSCAN drives).
    pub fn executor(&mut self) -> &mut Index<'a> {
        &mut self.0
    }

    /// Hand the index over as an owned tick executor.
    pub fn into_executor(self) -> Index<'a> {
        self.0
    }
}

/// Structures `index` currently caches.
pub fn cached_structures(index: &Index<'_>) -> usize {
    index.cached_structures()
}

/// DBSCAN labels of `points` through `exec`.
pub fn dbscan<E: TickExecutor>(
    points: &[Vec3],
    eps: f32,
    min_pts: usize,
    exec: &mut E,
) -> OpResult<Vec<Option<u32>>> {
    rtnn_analytics::Dbscan::new(eps, min_pts)
        .run(points, exec)
        .map(|c| c.labels)
        .map_err(err)
}

// ---------------------------------------------------------------------------
// serve_small: `QueryService` over a `ShardedIndex`
// ---------------------------------------------------------------------------

/// A warm sharded index.
pub fn sharded<'a>(
    backend: &'a dyn Backend,
    points: &[Vec3],
    shards: usize,
    plans: &[QueryPlan],
) -> OpResult<ShardedIndex<'a>> {
    let mut index = ShardedIndex::build(backend, points, EngineConfig::default(), shards);
    for plan in plans {
        index.warm(plan).map_err(err)?;
    }
    Ok(index)
}

/// The shard timing of the index's last call.
pub fn shard_timing(index: &ShardedIndex<'_>) -> ShardTiming {
    index.last_timing().clone()
}

/// A request's answer as the client sees it.
pub struct Answer {
    /// Neighbor lists, or the request's error.
    pub outcome: OpResult<Vec<Vec<u32>>>,
    /// Submit → respond wall latency measured by the service, ms.
    pub latency_ms: f64,
    /// Requests fused into the tick that served it.
    pub tick_requests: usize,
}

/// A client handle on a running service.
pub struct Client(ServiceClient);

/// A submitted request.
pub struct Pending(rtnn_serve::PendingResponse);

impl Client {
    /// Enqueue a request.
    pub fn submit(&self, queries: Vec<Vec3>, plan: QueryPlan) -> Pending {
        Pending(self.0.submit(Request::new(queries, plan)))
    }
}

impl Pending {
    /// Block for the answer.
    pub fn wait(self) -> Answer {
        let r = self.0.wait();
        Answer {
            outcome: r.outcome.map_err(err),
            latency_ms: r.stats.latency_us / 1e3,
            tick_requests: r.stats.tick_requests,
        }
    }
}

/// Serve `exec` with the default service config (200 µs window) on this
/// thread while `client` runs on another; returns once the client is done
/// and the queue drained.
pub fn serve<E: TickExecutor, R: Send>(exec: &mut E, client: impl FnOnce(Client) -> R + Send) -> R {
    let (service, handle) = QueryService::new(ServeConfig::default());
    std::thread::scope(|s| {
        let worker = s.spawn(move || client(Client(handle)));
        service.run(exec);
        worker.join().expect("client thread panicked")
    })
}

/// One fused tick over `requests` (the service's coalescing step, run
/// synchronously): per-request outcomes and the tick's simulated ms.
pub fn fused_tick<E: TickExecutor>(
    exec: &mut E,
    requests: &[(Vec<Vec3>, QueryPlan)],
) -> (Vec<OpResult<Vec<Vec<u32>>>>, f64) {
    let requests: Vec<Request> = requests
        .iter()
        .map(|(q, p)| Request::new(q.clone(), p.clone()))
        .collect();
    let refs: Vec<&Request> = requests.iter().collect();
    let (outcomes, tick) = execute_tick(exec, &refs);
    (
        outcomes.into_iter().map(|o| o.map_err(err)).collect(),
        tick.sim_ms,
    )
}

// ---------------------------------------------------------------------------
// stream_nbody: `DynamicIndex`
// ---------------------------------------------------------------------------

/// What one dynamic frame reports.
pub struct Frame {
    /// Search results; neighbor ids are stable handles.
    pub results: SearchResults,
    /// Whether the frame rebuilt (else refitted or reused) the structure.
    pub rebuilt: bool,
    /// Whether the frame refitted the structure in place.
    pub refit: bool,
    /// Simulated structure maintenance, ms.
    pub structure_sim_ms: f64,
    /// Host structure maintenance, ms.
    pub structure_host_ms: f64,
}

/// A dynamic index searching with one fixed KNN plan.
pub struct Stream<'d>(rtnn_dynamic::DynamicIndex<'d>);

impl<'d> Stream<'d> {
    /// Seed with `points` (handles `0..points.len()`), `knn(r, k)` per
    /// frame. The policy refits on motion and rebuilds only when points
    /// are removed or inserted: the default adaptive policy weighs a
    /// wall-clock build profile, so its refit/rebuild choice — and with it
    /// the simulated clock — could differ between runs of one seed.
    /// `DynamicIndex` still takes the legacy one-plan `RtnnConfig`; this is
    /// the only place the benchmark names it.
    pub fn new(device: &'d Device, points: &[Vec3], r: f32, k: usize) -> Self {
        let config = rtnn::RtnnConfig::new(SearchParams::knn(r, k));
        let policy = rtnn_dynamic::RebuildPolicy::never_rebuild();
        let mut index = rtnn_dynamic::DynamicIndex::with_policy(device, config, policy);
        for &p in points {
            index.insert(p);
        }
        Stream(index)
    }

    /// Insert a point; returns its handle.
    pub fn insert(&mut self, p: Vec3) -> u32 {
        self.0.insert(p)
    }

    /// Remove a point by handle.
    pub fn remove(&mut self, handle: u32) -> bool {
        self.0.remove(handle)
    }

    /// Move a point by handle.
    pub fn move_point(&mut self, handle: u32, p: Vec3) -> bool {
        self.0.move_point(handle, p)
    }

    /// One frame: maintain the structures, then search.
    pub fn search(&mut self, queries: &[Vec3]) -> OpResult<Frame> {
        let f = self.0.search(queries).map_err(err)?;
        Ok(Frame {
            rebuilt: f.action == rtnn_dynamic::StructureAction::Rebuilt,
            refit: f.action == rtnn_dynamic::StructureAction::Refit,
            structure_sim_ms: f.structure_ms,
            structure_host_ms: f.host_structure_ms,
            results: f.results,
        })
    }
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only)
// ---------------------------------------------------------------------------

/// Wall ms of one `Backend::build` over width-`2r` cubes.
pub fn time_backend_build(backend: &dyn Backend, points: &[Vec3], r: f32) -> OpResult<f64> {
    let t0 = std::time::Instant::now();
    let accel = backend
        .build(points, 2.0 * r, rtnn_bvh::BuildParams::default())
        .map_err(err)?;
    let ms = crate::stats::ms_since(t0);
    std::hint::black_box(accel);
    Ok(ms)
}

/// Wall ms per query of bare single-thread `Bvh::traverse` with the sphere
/// test (no cap, no simulator) over `queries` — the host floor under any
/// launch. The BVH is built here, outside the timing.
pub fn time_traverse_floor(points: &[Vec3], queries: &[Vec3], r: f32) -> f64 {
    use rtnn_bvh::TraversalControl;
    let bvh = rtnn_bvh::build_point_bvh(points, r, rtnn_bvh::BuildParams::default());
    let r2 = r * r;
    let t0 = std::time::Instant::now();
    let mut hits = 0u64;
    for &q in queries {
        bvh.traverse(&rtnn_math::Ray::point_probe(q), |id| {
            if q.distance_squared(points[id as usize]) < r2 {
                hits += 1;
            }
            TraversalControl::Continue
        });
    }
    std::hint::black_box(hits);
    crate::stats::ms_since(t0) / queries.len().max(1) as f64
}

/// Wall µs of one `par_for_chunks` over 32 trivial items.
pub fn time_par_call_us() -> f64 {
    let t0 = std::time::Instant::now();
    rtnn_parallel::par_for_chunks(32, 1, |range| {
        std::hint::black_box(range);
    });
    crate::stats::ms_since(t0) * 1e3
}
