//! FRNN-like grid-based KNN search.
//!
//! FRNN ("fixed radius nearest neighbors", the drop-in replacement for
//! PyTorch3D's `knn_points` the paper compares against) also bins points
//! into a uniform grid with cell size `r`, but answers K-nearest-neighbor
//! queries: each query scans its 27-cell neighbourhood once while
//! maintaining a bounded priority queue of the `K` closest candidates.

use crate::common::{transfer_ms, Baseline, BaselineRun, SearchRequest};
use rtnn_gpusim::kernel::{cell_offset_address, point_address, run_sm_kernel};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, GridCoord, PointBins, UniformGrid, Vec3};

/// The FRNN-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridKnn;

/// SM ops charged per candidate (distance test + queue bookkeeping).
const OPS_PER_CANDIDATE: u64 = 18;
/// SM ops charged per point during grid construction.
const OPS_PER_BUILD_POINT: u64 = 6;

impl Baseline for GridKnn {
    fn name(&self) -> &'static str {
        "FRNN"
    }

    fn range_search(
        &self,
        _device: &Device,
        _points: &[Vec3],
        _queries: &[Vec3],
        _request: SearchRequest,
    ) -> Option<BaselineRun> {
        // FRNN is a KNN library (Section 6.1).
        None
    }

    fn knn_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        if points.is_empty() {
            return Some(BaselineRun {
                neighbors: vec![Vec::new(); queries.len()],
                build_ms: 0.0,
                search_ms: 0.0,
                data_ms,
            });
        }
        let mut bounds = Aabb::from_points(points);
        if bounds.longest_extent() <= 0.0 {
            bounds = bounds.expanded(request.radius.max(1e-3));
        }
        let grid = UniformGrid::new(bounds, request.radius);
        let bins = PointBins::build(grid, points);
        let (_, build_metrics) = run_sm_kernel(device, points.len(), |pi, work| {
            work.ops(OPS_PER_BUILD_POINT);
            work.read(point_address(pi as u32));
        });

        let r2 = request.radius * request.radius;
        let (neighbors, search_metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            let q = queries[qi];
            let grid = bins.grid();
            let dims = grid.dims();
            let c = grid.cell_of(q);
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
            let mut best: Vec<(f32, u32)> = Vec::with_capacity(request.k + 1);
            let mut candidates = 0u64;
            for cell in grid.iter_range(lo, hi) {
                work.read(cell_offset_address(grid.cell_index(cell)));
                for &pid in bins.cell_points(cell) {
                    candidates += 1;
                    work.read(point_address(pid));
                    let d2 = q.distance_squared(points[pid as usize]);
                    if d2 < r2 {
                        // Insert keeping `best` sorted ascending; drop the worst
                        // beyond K — a simple insertion queue like FRNN's.
                        let pos = best.partition_point(|&(d, id)| (d, id) < (d2, pid));
                        best.insert(pos, (d2, pid));
                        if best.len() > request.k {
                            best.pop();
                        }
                    }
                }
            }
            work.ops(candidates * OPS_PER_CANDIDATE);
            best.into_iter().map(|(_, id)| id).collect::<Vec<u32>>()
        });
        Some(BaselineRun {
            neighbors,
            build_ms: build_metrics.time_ms,
            search_ms: search_metrics.time_ms,
            data_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::{brute_force_knn, check_all};
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..900)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.437) % 9.0, (f * 0.711) % 9.0, (f * 0.253) % 9.0)
            })
            .collect()
    }

    #[test]
    fn knn_matches_the_oracle() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(23).copied().collect();
        let request = SearchRequest::new(0.9, 6);
        let run = GridKnn
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::knn(0.9, 6),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
        // Spot-check exact id agreement (no ties in this cloud).
        for (qi, q) in queries.iter().enumerate().take(5) {
            assert_eq!(
                run.neighbors[qi],
                brute_force_knn(&points, *q, 0.9, 6),
                "query {qi}"
            );
        }
    }

    #[test]
    fn range_is_unsupported_like_the_original() {
        let device = Device::rtx_2080();
        assert!(GridKnn
            .range_search(&device, &cloud(), &[Vec3::ZERO], SearchRequest::new(1.0, 4))
            .is_none());
    }

    #[test]
    fn radius_bound_is_respected() {
        // All neighbors beyond the radius are rejected even if K is not met.
        let device = Device::rtx_2080();
        let points = vec![
            Vec3::ZERO,
            Vec3::new(0.4, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
        ];
        let queries = vec![Vec3::ZERO];
        let run = GridKnn
            .knn_search(&device, &points, &queries, SearchRequest::new(1.0, 10))
            .unwrap();
        assert_eq!(run.neighbors[0], vec![0, 1]);
    }

    #[test]
    fn empty_points_and_far_queries() {
        let device = Device::rtx_2080();
        let run = GridKnn
            .knn_search(&device, &[], &[Vec3::ZERO], SearchRequest::new(1.0, 4))
            .unwrap();
        assert!(run.neighbors[0].is_empty());
        let run2 = GridKnn
            .knn_search(
                &device,
                &cloud(),
                &[Vec3::new(999.0, 999.0, 999.0)],
                SearchRequest::new(1.0, 4),
            )
            .unwrap();
        assert!(run2.neighbors[0].is_empty());
    }
}
