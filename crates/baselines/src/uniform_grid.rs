//! cuNSearch-like uniform-grid fixed-radius search.
//!
//! cuNSearch (Hoetzlein's "fast fixed-radius nearest neighbors", used by
//! SPlisHSPlasH) bins points into a uniform grid with cell size equal to the
//! search radius and, for each query, scans the 3×3×3 block of cells around
//! the query's cell. The GPU implementation is two-pass — first count the
//! neighbors of every query, then allocate and fill the neighbor lists —
//! and that is how the simulated cost is charged here. Range search only,
//! like the original.

use crate::common::{transfer_ms, Baseline, BaselineRun, SearchRequest};
use rtnn_gpusim::kernel::{cell_offset_address, point_address, run_sm_kernel, ThreadWork};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, GridCoord, PointBins, UniformGrid, Vec3};

/// The cuNSearch-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformGridSearch;

/// SM ops charged per candidate distance test.
const OPS_PER_CANDIDATE: u64 = 12;
/// SM ops charged per point during grid construction (hash + scatter).
const OPS_PER_BUILD_POINT: u64 = 6;

/// Build the grid (cell size = radius) and bin the points, charging the
/// construction kernel to the device. Returns `None` for an empty cloud.
fn build_bins(device: &Device, points: &[Vec3], radius: f32) -> Option<(PointBins, f64)> {
    if points.is_empty() {
        return None;
    }
    let mut bounds = Aabb::from_points(points);
    if bounds.longest_extent() <= 0.0 {
        bounds = bounds.expanded(radius.max(1e-3));
    }
    let grid = UniformGrid::new(bounds, radius);
    let bins = PointBins::build(grid, points);
    // Construction kernel: one thread per point (hash, histogram, scatter).
    let (_, metrics) = run_sm_kernel(device, points.len(), |pi, work| {
        work.ops(OPS_PER_BUILD_POINT);
        work.read(point_address(pi as u32));
    });
    Some((bins, metrics.time_ms))
}

/// Scan the 27-cell neighbourhood of `q` as one kernel thread, returning
/// up to `k` in-radius neighbor ids and charging the work to `work`.
fn scan_neighborhood(
    bins: &PointBins,
    points: &[Vec3],
    q: Vec3,
    radius: f32,
    k: usize,
    work: &mut ThreadWork<'_>,
) -> Vec<u32> {
    let grid = bins.grid();
    let dims = grid.dims();
    let c = grid.cell_of(q);
    let r2 = radius * radius;
    let mut out = Vec::new();
    let mut candidates = 0u64;
    let lo = GridCoord::new(
        c.x.saturating_sub(1),
        c.y.saturating_sub(1),
        c.z.saturating_sub(1),
    );
    let hi = GridCoord::new(
        (c.x + 1).min(dims[0] - 1),
        (c.y + 1).min(dims[1] - 1),
        (c.z + 1).min(dims[2] - 1),
    );
    for cell in grid.iter_range(lo, hi) {
        work.read(cell_offset_address(grid.cell_index(cell)));
        for &pid in bins.cell_points(cell) {
            candidates += 1;
            work.read(point_address(pid));
            if out.len() < k && q.distance_squared(points[pid as usize]) < r2 {
                out.push(pid);
            }
        }
    }
    work.ops(candidates * OPS_PER_CANDIDATE);
    out
}

impl Baseline for UniformGridSearch {
    fn name(&self) -> &'static str {
        "cuNSearch"
    }

    fn range_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        let Some((bins, build_ms)) = build_bins(device, points, request.radius) else {
            return Some(BaselineRun {
                neighbors: vec![Vec::new(); queries.len()],
                build_ms: 0.0,
                search_ms: 0.0,
                data_ms,
            });
        };
        // Two passes over the neighbourhood: count then fill — the scan work
        // is charged twice, the results are produced in the second pass.
        let mut search_ms = 0.0;
        let (_, count_metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            scan_neighborhood(&bins, points, queries[qi], request.radius, usize::MAX, work);
        });
        search_ms += count_metrics.time_ms;
        let (neighbors, fill_metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            scan_neighborhood(&bins, points, queries[qi], request.radius, request.k, work)
        });
        search_ms += fill_metrics.time_ms;
        Some(BaselineRun {
            neighbors,
            build_ms,
            search_ms,
            data_ms,
        })
    }

    fn knn_search(
        &self,
        _device: &Device,
        _points: &[Vec3],
        _queries: &[Vec3],
        _request: SearchRequest,
    ) -> Option<BaselineRun> {
        // cuNSearch has only a range-search implementation (Section 6.1).
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::check_all;
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..800)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.337) % 10.0, (f * 0.571) % 10.0, (f * 0.173) % 10.0)
            })
            .collect()
    }

    #[test]
    fn range_results_satisfy_the_contract() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(13).copied().collect();
        let request = SearchRequest::new(0.8, 128);
        let run = UniformGridSearch
            .range_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::range(0.8, 128),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
        assert!(run.build_ms > 0.0);
        assert!(run.search_ms > 0.0);
    }

    #[test]
    fn knn_is_unsupported_like_the_original() {
        let device = Device::rtx_2080();
        assert!(UniformGridSearch
            .knn_search(&device, &cloud(), &[Vec3::ZERO], SearchRequest::new(1.0, 4))
            .is_none());
    }

    #[test]
    fn empty_points_return_empty_neighbor_lists() {
        let device = Device::rtx_2080();
        let queries = vec![Vec3::ZERO, Vec3::ONE];
        let run = UniformGridSearch
            .range_search(&device, &[], &queries, SearchRequest::new(1.0, 8))
            .unwrap();
        assert_eq!(run.neighbors.len(), 2);
        assert!(run.neighbors.iter().all(Vec::is_empty));
    }

    #[test]
    fn queries_outside_the_cloud_find_nothing_but_do_not_panic() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries = vec![Vec3::new(500.0, 500.0, 500.0)];
        let run = UniformGridSearch
            .range_search(&device, &points, &queries, SearchRequest::new(0.5, 8))
            .unwrap();
        assert!(run.neighbors[0].is_empty());
    }

    #[test]
    fn degenerate_single_point_cloud() {
        let device = Device::rtx_2080();
        let points = vec![Vec3::ONE];
        let queries = vec![Vec3::ONE, Vec3::new(5.0, 5.0, 5.0)];
        let run = UniformGridSearch
            .range_search(&device, &points, &queries, SearchRequest::new(1.0, 8))
            .unwrap();
        assert_eq!(run.neighbors[0], vec![0]);
        assert!(run.neighbors[1].is_empty());
    }
}
