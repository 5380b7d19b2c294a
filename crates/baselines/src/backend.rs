//! [`BruteForceBackend`]: the structure-less `rtnn::Backend` that doubles
//! as the oracle.
//!
//! Where the ray-tracing backend builds a BVH and traverses it, this backend
//! keeps nothing and answers every traversal by exhaustive scan over the
//! basic-mapping semantics (`rtnn::exhaustive_traverse`): a point is a
//! candidate exactly when its width-`w` AABB contains the query, and the
//! per-candidate shader semantics (sphere test, cap termination, KNN
//! top-k in `(distance², id)` order) are identical to the ray-tracing
//! programs. KNN results are therefore bit-equal to the RT backends, ties
//! at the `k`-th distance included (candidate *sets* are identical; only
//! the visit order differs, which the top-k's order erases), and range
//! results are set-equal — which is what the cross-backend equivalence
//! suite checks the RT backends against.
//!
//! The scan is charged to the same simulated device as every other
//! backend, so its end-to-end numbers double as the "GPU brute force"
//! comparison point of the paper's introduction.

use rtnn::{exhaustive_traverse, Accel, Backend, RefitOutcome, Traversal, TraversalJob};
use rtnn_bvh::BuildParams;
use rtnn_gpusim::device::OutOfDeviceMemory;
use rtnn_gpusim::{Device, StructureTiming};
use rtnn_math::Vec3;

/// The exhaustive-scan backend (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct BruteForceBackend<'d> {
    device: &'d Device,
}

impl<'d> BruteForceBackend<'d> {
    /// A backend on `device`.
    pub fn new(device: &'d Device) -> Self {
        BruteForceBackend { device }
    }
}

impl<'d> Backend for BruteForceBackend<'d> {
    fn name(&self) -> &'static str {
        "bruteforce-oracle"
    }

    fn device(&self) -> &Device {
        self.device
    }

    fn build(
        &self,
        points: &[Vec3],
        aabb_width: f32,
        _build: BuildParams,
    ) -> Result<Accel, OutOfDeviceMemory> {
        // No structure beyond the resident points (12 bytes each).
        self.device.check_allocation(points.len() as u64 * 12)?;
        Ok(Accel::flat(points.len(), aabb_width))
    }

    fn refit(&self, accel: &mut Accel, points: &[Vec3]) -> Option<RefitOutcome> {
        accel.refit_in_place(self.device, points)
    }

    fn traverse(&self, accel: &Accel, job: &TraversalJob<'_>) -> Traversal {
        exhaustive_traverse(self.device, accel, job)
    }

    fn timing(&self, _num_prims: usize) -> StructureTiming {
        // Nothing to build, nothing to refit.
        StructureTiming::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::{brute_force_knn, check_all};
    use rtnn::{EngineConfig, Index, OptLevel, QueryPlan, SearchParams};

    fn cloud() -> Vec<Vec3> {
        (0..700)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.437) % 7.0, (f * 0.671) % 7.0, (f * 0.193) % 7.0)
            })
            .collect()
    }

    #[test]
    fn oracle_backend_drives_the_full_index_pipeline() {
        let device = Device::rtx_2080();
        let backend = BruteForceBackend::new(&device);
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(11).copied().collect();
        for opt in OptLevel::all() {
            let mut index =
                Index::build(&backend, &points[..], EngineConfig::default().with_opt(opt));
            let knn = index.query(&queries, &QueryPlan::knn(1.3, 6)).unwrap();
            check_all(
                &points,
                &queries,
                &SearchParams::knn(1.3, 6),
                &knn.neighbors,
            )
            .unwrap_or_else(|(q, e)| panic!("{opt:?} query {q}: {e}"));
            for (qi, q) in queries.iter().enumerate() {
                assert_eq!(knn.neighbors[qi], brute_force_knn(&points, *q, 1.3, 6));
            }
        }
    }

    #[test]
    fn oracle_backend_charges_the_device() {
        let device = Device::rtx_2080();
        let backend = BruteForceBackend::new(&device);
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let r = index.query(&queries, &QueryPlan::range(1.0, 64)).unwrap();
        assert!(r.breakdown.search_ms > 0.0);
        assert!(r.breakdown.data_ms > 0.0);
        assert_eq!(r.breakdown.bvh_ms, 0.0, "no structure, no build cost");
    }

    #[test]
    fn timing_is_free_and_refit_tracks_counts() {
        let device = Device::rtx_2080();
        let backend = BruteForceBackend::new(&device);
        let t = backend.timing(1_000_000);
        assert_eq!(t.build_ms, 0.0);
        assert_eq!(t.refit_ms, 0.0);
        let points = cloud();
        let mut accel = backend.build(&points, 1.0, BuildParams::default()).unwrap();
        assert!(backend.refit(&mut accel, &points).is_some());
        assert!(backend.refit(&mut accel, &points[..10]).is_none());
    }
}
