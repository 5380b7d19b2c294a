//! Exhaustive-scan neighbor search.
//!
//! Ground truth for every other searcher, and a "GPU brute force" baseline
//! in its own right: each query thread streams every point, which is
//! perfectly regular (no divergence) but maximally work-inefficient — the
//! opposite corner of the work-efficiency / hardware-efficiency trade-off
//! the paper's introduction describes.

use crate::common::{transfer_ms, Baseline, BaselineRun, SearchRequest};
use rtnn_gpusim::kernel::{point_address, run_sm_kernel};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// The brute-force baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForce;

/// Cost (in generic SM ops) of one distance test.
const OPS_PER_DISTANCE_TEST: u64 = 4;

impl BruteForce {
    fn run(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
        knn: bool,
    ) -> BaselineRun {
        let r2 = request.radius * request.radius;
        let (neighbors, metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            let q = queries[qi];
            let mut found: Vec<(f32, u32)> = Vec::new();
            for (pi, &p) in points.iter().enumerate() {
                let d2 = q.distance_squared(p);
                if d2 < r2 {
                    found.push((d2, pi as u32));
                }
            }
            found.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            found.truncate(request.k);
            let ids: Vec<u32> = found.into_iter().map(|(_, id)| id).collect();
            // Every thread reads every point once; sample the reads (one
            // point per 32) to keep the trace bounded while the op count
            // carries the full cost.
            for pi in (0..points.len() as u32).step_by(32) {
                work.read(point_address(pi));
            }
            let extra_sort_ops = if knn {
                (ids.len() as u64).max(1) * 4
            } else {
                0
            };
            work.ops(points.len() as u64 * OPS_PER_DISTANCE_TEST + extra_sort_ops);
            ids
        });
        BaselineRun {
            neighbors,
            build_ms: 0.0,
            search_ms: metrics.time_ms,
            data_ms: transfer_ms(device, points.len(), queries.len(), request.k),
        }
    }
}

impl Baseline for BruteForce {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn range_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        Some(self.run(device, points, queries, request, false))
    }

    fn knn_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        Some(self.run(device, points, queries, request, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::{brute_force_knn, check_all};
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..500)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.37) % 8.0, (f * 0.61) % 8.0, (f * 0.13) % 8.0)
            })
            .collect()
    }

    #[test]
    fn range_results_satisfy_the_contract() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(17).copied().collect();
        let request = SearchRequest::new(1.0, 64);
        let run = BruteForce
            .range_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::range(1.0, 64),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
        assert!(run.search_ms > 0.0);
        assert_eq!(run.build_ms, 0.0);
    }

    #[test]
    fn knn_results_are_the_true_nearest() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(31).copied().collect();
        let request = SearchRequest::new(2.0, 5);
        let run = BruteForce
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(run.neighbors[qi], brute_force_knn(&points, *q, 2.0, 5));
        }
    }

    #[test]
    fn cost_scales_with_both_points_and_queries() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let request = SearchRequest::new(1.0, 8);
        let small = BruteForce
            .range_search(&device, &points[..100], &queries[..20], request)
            .unwrap();
        let large = BruteForce
            .range_search(&device, &points, &queries, request)
            .unwrap();
        assert!(large.search_ms > small.search_ms);
    }
}
