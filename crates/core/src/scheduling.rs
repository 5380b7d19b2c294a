//! Spatially-ordered query scheduling (Section 4 of the paper).
//!
//! A direct query-to-ray mapping launches queries in input order, which can
//! be arbitrary; spatially distant queries end up in the same warp and
//! diverge. The scheduler:
//!
//! 1. runs a truncated launch (`K = 1`) that returns, for every query, the
//!    first leaf AABB that encloses it — itself a ray-tracing pass that
//!    terminates at the first IS call, so it is cheap (the `FS` component of
//!    Figure 12 is barely visible);
//! 2. sorts queries by the Morton (Z-order) code of that AABB's centre
//!    (which is the corresponding search point), falling back to the
//!    query's own position for queries no AABB encloses;
//! 3. produces a permutation that the subsequent search launches use as
//!    their launch-index → query mapping, so every warp of 32 consecutive
//!    rays holds spatially close queries.
//!
//! The Morton sort runs as a device kernel in the paper (a CUDA sort over
//! first-hit data already resident in device memory); here it is charged to
//! the simulated device as an SM kernel with `O(log n)` work per thread.

use crate::backend::Backend;
use crate::pipeline::{CoherenceSchedule, ScheduleCx, ScheduleStage};
use crate::plan::PlanError;
use crate::shaders::{FirstHitProgram, QueryIndexing, NO_HIT};
use rtnn_gpusim::kernel::{point_address, run_sm_kernel, SmKernelConfig, ThreadWork};
use rtnn_gpusim::{Device, IsShaderKind, KernelMetrics};
use rtnn_math::morton::MortonEncoder;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::{AccelRef, Gas, LaunchMetrics, Pipeline};
use rtnn_parallel::par_sort_by_key;

/// The outcome of the scheduling pass.
#[derive(Debug, Clone)]
pub struct QuerySchedule {
    /// `order[i]` is the query id launched at index `i`. A permutation of
    /// `0..num_queries`.
    pub order: Vec<u32>,
    /// Metrics of the first-hit launch (the `FS` component).
    pub fs_metrics: LaunchMetrics,
    /// Metrics of the sort kernel (part of the `Opt` component).
    pub sort_metrics: KernelMetrics,
}

impl QuerySchedule {
    /// The identity schedule (used when scheduling is disabled).
    pub fn identity(num_queries: usize) -> Self {
        QuerySchedule {
            order: (0..num_queries as u32).collect(),
            fs_metrics: LaunchMetrics::default(),
            sort_metrics: KernelMetrics::default(),
        }
    }

    /// Number of scheduled queries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Compute the spatially-ordered schedule for `queries` against the global
/// GAS built over `points` (Listing 2 of the paper), on the default
/// simulated-pipeline backend. Prefer [`schedule_queries_on`] when a
/// [`Backend`] and a full structure handle are already in hand — this
/// convenience wrapper only has the raw GAS, so it drives the pipeline
/// directly rather than fabricating an [`AccelRef`] with a made-up AABB
/// width.
pub fn schedule_queries(
    device: &Device,
    gas: &Gas,
    points: &[Vec3],
    queries: &[Vec3],
) -> QuerySchedule {
    if queries.is_empty() {
        return QuerySchedule::identity(0);
    }
    let pipeline = Pipeline::new(device);
    let program = FirstHitProgram {
        queries,
        indexing: QueryIndexing::Identity,
    };
    let launch = pipeline.launch(
        gas,
        queries.len(),
        &program,
        IsShaderKind::RangeNoSphereTest,
    );
    let ids: Vec<u32> = (0..queries.len() as u32).collect();
    let hits: Vec<Vec<u32>> = launch
        .payloads
        .iter()
        .map(|&hit| if hit == NO_HIT { Vec::new() } else { vec![hit] })
        .collect();
    let keys = anchor_keys(points, queries, &ids, &hits);
    let sort_metrics = charge_sort_kernel(device, queries.len());
    let mut order = ids;
    par_sort_by_key(&mut order, |&q| (keys[q as usize], q));
    QuerySchedule {
        order,
        fs_metrics: launch.metrics,
        sort_metrics,
    }
}

/// [`schedule_queries`] against an arbitrary backend and structure handle —
/// a thin wrapper over the pipeline's [`CoherenceSchedule`] stage, which
/// is what the [`crate::Index`] driver runs by default.
pub fn schedule_queries_on(
    backend: &dyn Backend,
    accel: AccelRef<'_>,
    points: &[Vec3],
    queries: &[Vec3],
) -> QuerySchedule {
    let ids: Vec<u32> = (0..queries.len() as u32).collect();
    CoherenceSchedule.schedule(&ScheduleCx {
        backend,
        accel: Some(accel),
        points,
        queries,
        query_ids: &ids,
    })
}

/// Morton key of every covered query's first-hit anchor: the first-hit
/// point when one exists, the query's own position otherwise. `hits[i]` is
/// the first-hit payload of query `ids[i]`.
pub(crate) fn anchor_keys(
    points: &[Vec3],
    queries: &[Vec3],
    ids: &[u32],
    hits: &[Vec<u32>],
) -> Vec<u64> {
    let scene_bounds = scene_bounds_for(points, queries);
    let encoder = MortonEncoder::new(&scene_bounds);
    ids.iter()
        .zip(hits)
        .map(|(&qid, hit)| {
            let anchor = match hit.first() {
                Some(&h) => points[h as usize],
                None => queries[qid as usize],
            };
            encoder.encode(anchor)
        })
        .collect()
}

/// Charge the query sort over `n` keys to the device as an SM kernel
/// (`O(log n)` comparisons + one key read per thread).
pub(crate) fn charge_sort_kernel(device: &Device, n: usize) -> KernelMetrics {
    let log_n = (n as f64).log2().ceil().max(1.0) as u64;
    let (_, sort_metrics) = run_sm_kernel(device, n, SmKernelConfig::default(), |i| {
        ((), ThreadWork::new(log_n, vec![point_address(i as u32)]))
    });
    sort_metrics
}

/// Scene bounds covering both points and queries (queries may lie outside
/// the point cloud).
fn scene_bounds_for(points: &[Vec3], queries: &[Vec3]) -> Aabb {
    let mut b = Aabb::from_points(points);
    for &q in queries {
        b.grow_point(q);
    }
    b
}

/// Generate a raster-scan ordering of queries over a uniform grid — the
/// "ordered" configuration of the Figure 5 / Figure 6 experiment. Returns a
/// permutation of query ids such that consecutive ids fall in consecutive
/// grid cells.
///
/// `cells_per_axis == 0` is rejected with a typed
/// [`PlanError::ZeroCellsPerAxis`] (it used to degenerate silently: an
/// infinite cell size that collapsed the raster to input order), matching
/// the [`PlanError::ZeroGridBudget`]-style validation of the grid budget.
pub fn raster_order(queries: &[Vec3], cells_per_axis: u32) -> Result<Vec<u32>, PlanError> {
    if cells_per_axis == 0 {
        return Err(PlanError::ZeroCellsPerAxis {
            field: "raster_order.cells_per_axis",
        });
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let bounds = Aabb::from_points(queries);
    if bounds.is_empty() || bounds.longest_extent() <= 0.0 {
        return Ok((0..queries.len() as u32).collect());
    }
    let grid = rtnn_math::UniformGrid::new(bounds, bounds.longest_extent() / cells_per_axis as f32);
    let mut order: Vec<u32> = (0..queries.len() as u32).collect();
    par_sort_by_key(&mut order, |&q| {
        (grid.cell_index(grid.cell_of(queries[q as usize])), q)
    });
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::BuildParams;

    fn grid_points(n_per_axis: usize) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    fn is_permutation(order: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &i in order {
            if (i as usize) >= n || seen[i as usize] {
                return false;
            }
            seen[i as usize] = true;
        }
        order.len() == n
    }

    #[test]
    fn identity_schedule() {
        let s = QuerySchedule::identity(5);
        assert_eq!(s.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert!(QuerySchedule::identity(0).is_empty());
    }

    #[test]
    fn schedule_is_a_permutation_and_groups_neighbors() {
        let device = Device::rtx_2080();
        let points = grid_points(8);
        let radius = 0.9;
        let gas = Gas::build_from_points(&device, &points, radius, BuildParams::default()).unwrap();

        // Queries deliberately scrambled: interleave far-apart corners.
        let mut queries = Vec::new();
        for i in 0..256 {
            let corner = if i % 2 == 0 { 0.5 } else { 6.5 };
            queries.push(Vec3::new(corner + (i % 3) as f32 * 0.1, corner, corner));
        }
        let schedule = schedule_queries(&device, &gas, &points, &queries);
        assert!(is_permutation(&schedule.order, queries.len()));
        assert!(schedule.fs_metrics.active_rays == queries.len() as u64);
        // Every ray in the FS pass terminates after one IS call.
        assert_eq!(schedule.fs_metrics.is_calls, queries.len() as u64);
        assert!(schedule.sort_metrics.time_ms > 0.0);

        // After scheduling, consecutive queries are spatially close: measure
        // the average distance between neighbors in launch order.
        let avg_step = |order: &[u32]| {
            order
                .windows(2)
                .map(|w| queries[w[0] as usize].distance(queries[w[1] as usize]) as f64)
                .sum::<f64>()
                / (order.len() - 1) as f64
        };
        let direct: Vec<u32> = (0..queries.len() as u32).collect();
        assert!(avg_step(&schedule.order) < avg_step(&direct) * 0.5);
    }

    #[test]
    fn queries_outside_the_cloud_are_still_scheduled() {
        let device = Device::rtx_2080();
        let points = grid_points(4);
        let gas = Gas::build_from_points(&device, &points, 0.4, BuildParams::default()).unwrap();
        let queries = vec![
            Vec3::new(100.0, 100.0, 100.0), // no enclosing AABB
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(101.0, 100.0, 100.0),
        ];
        let schedule = schedule_queries(&device, &gas, &points, &queries);
        assert!(is_permutation(&schedule.order, 3));
        // The two far-away queries should be adjacent in the schedule.
        let pos = |q: u32| schedule.order.iter().position(|&x| x == q).unwrap();
        assert_eq!((pos(0) as i64 - pos(2) as i64).abs(), 1);
    }

    #[test]
    fn empty_query_set() {
        let device = Device::rtx_2080();
        let points = grid_points(3);
        let gas = Gas::build_from_points(&device, &points, 0.4, BuildParams::default()).unwrap();
        let schedule = schedule_queries(&device, &gas, &points, &[]);
        assert!(schedule.is_empty());
    }

    #[test]
    fn raster_order_is_a_permutation_sorted_by_cell() {
        let queries: Vec<Vec3> = (0..500)
            .map(|i| {
                Vec3::new(
                    (i * 7 % 50) as f32,
                    (i * 13 % 50) as f32,
                    (i * 29 % 50) as f32,
                )
            })
            .collect();
        let order = raster_order(&queries, 10).unwrap();
        assert!(is_permutation(&order, queries.len()));
        // Degenerate cases.
        assert!(raster_order(&[], 8).unwrap().is_empty());
        assert_eq!(raster_order(&[Vec3::ZERO; 4], 8).unwrap().len(), 4);
    }

    #[test]
    fn raster_order_rejects_a_zero_cell_grid_with_a_typed_error() {
        let queries = vec![Vec3::ZERO, Vec3::ONE];
        let err = raster_order(&queries, 0).unwrap_err();
        assert_eq!(
            err,
            PlanError::ZeroCellsPerAxis {
                field: "raster_order.cells_per_axis"
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("raster_order.cells_per_axis") && msg.contains("0"),
            "error must name the field and the value: {msg}"
        );
        // An empty query set is still a configuration error at zero cells:
        // validation precedes the fast path.
        assert!(raster_order(&[], 0).is_err());
    }
}
