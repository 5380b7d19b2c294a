//! Geometry acceleration structures (the OptiX "GAS").
//!
//! In OptiX, `optixAccelBuild` runs on the SMs, is non-programmable, and its
//! cost is what the bundling optimisation of Section 5.2 trades against
//! search time (`T_build = k1 · M`, Equation 3). A [`Gas`] therefore records
//! the simulated build time reported by the device's build-rate model along
//! with the structure itself.

use rtnn_bvh::{build_bvh, refit_bvh, BuildParams, Bvh, RefitError, RefitStats};
use rtnn_gpusim::device::OutOfDeviceMemory;
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};
use rtnn_parallel::par_map;
use rtnn_telemetry::Telemetry;

/// Simulated device-side size of one BVH node in bytes.
pub const NODE_BYTES: u64 = 32;
/// Simulated device-side size of one primitive record (AABB + id) in bytes.
pub const PRIM_BYTES: u64 = 32;

/// Outcome of an in-place GAS refit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GasRefit {
    /// Simulated milliseconds the refit took on the device.
    pub refit_time_ms: f64,
    /// BVH-level statistics (nodes updated, SAH cost before/after).
    pub stats: RefitStats,
}

/// An acceleration structure over custom AABB primitives.
#[derive(Debug, Clone)]
pub struct Gas {
    bvh: Bvh,
    build_time_ms: f64,
    memory_bytes: u64,
}

impl Gas {
    /// Build a GAS over explicit primitive AABBs on `device`.
    ///
    /// Fails with [`OutOfDeviceMemory`] if the structure does not fit in the
    /// device's memory (the `OOM` outcomes of Figure 11).
    pub fn build(
        device: &Device,
        prim_aabbs: &[Aabb],
        params: BuildParams,
    ) -> Result<Gas, OutOfDeviceMemory> {
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| t.span("accel.build"));
        let wall = std::time::Instant::now();
        let bvh = build_bvh(prim_aabbs, params);
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let memory_bytes =
            bvh.num_nodes() as u64 * NODE_BYTES + bvh.num_primitives() as u64 * PRIM_BYTES;
        device.check_allocation(memory_bytes)?;
        let build_time_ms = device.accel_build_time_ms(prim_aabbs.len());
        if let Some(t) = &tel {
            t.counter_add("accel.builds", 1);
            t.observe("accel.build.device_ms", build_time_ms);
        }
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", build_time_ms)
                .attr("primitives", prim_aabbs.len() as f64)
                .attr("memory_bytes", memory_bytes as f64)
                .attr_wall("host_wall_ms", host_wall_ms);
        }
        drop(span);
        Ok(Gas {
            bvh,
            build_time_ms,
            memory_bytes,
        })
    }

    /// Build a GAS whose primitives are width-`2·radius` cubes centred at
    /// `points` — `buildBVH(points, radius)` from Listing 1.
    pub fn build_from_points(
        device: &Device,
        points: &[Vec3],
        radius: f32,
        params: BuildParams,
    ) -> Result<Gas, OutOfDeviceMemory> {
        let aabbs = par_map(points.len(), |i| Aabb::cube(points[i], 2.0 * radius));
        Gas::build(device, &aabbs, params)
    }

    /// Refit the structure in place over moved primitives (the OptiX
    /// `BUILD_OPERATION_UPDATE` path): AABBs are recomputed bottom-up while
    /// the tree topology — and therefore the device-memory footprint — stays
    /// fixed. Returns the simulated refit time in milliseconds along with
    /// the refit statistics; fails if the primitive count changed (a refit
    /// cannot re-topologize — rebuild instead).
    pub fn refit(&mut self, device: &Device, prim_aabbs: &[Aabb]) -> Result<GasRefit, RefitError> {
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| t.span("accel.refit"));
        let wall = std::time::Instant::now();
        let stats = refit_bvh(&mut self.bvh, prim_aabbs)?;
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let refit_time_ms = device.accel_refit_time_ms(prim_aabbs.len());
        if let Some(t) = &tel {
            t.counter_add("accel.refits", 1);
            t.observe("accel.refit.device_ms", refit_time_ms);
        }
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", refit_time_ms)
                .attr("primitives", prim_aabbs.len() as f64)
                .attr("nodes_updated", stats.nodes_updated as f64)
                .attr_wall("host_wall_ms", host_wall_ms);
        }
        drop(span);
        Ok(GasRefit {
            refit_time_ms,
            stats,
        })
    }

    /// Refit over width-`2·radius` cubes centred at `points`, the moving
    /// counterpart of [`Gas::build_from_points`].
    pub fn refit_from_points(
        &mut self,
        device: &Device,
        points: &[Vec3],
        radius: f32,
    ) -> Result<GasRefit, RefitError> {
        let aabbs = par_map(points.len(), |i| Aabb::cube(points[i], 2.0 * radius));
        self.refit(device, &aabbs)
    }

    /// The underlying BVH.
    #[inline]
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Simulated milliseconds spent building the structure.
    #[inline]
    pub fn build_time_ms(&self) -> f64 {
        self.build_time_ms
    }

    /// Simulated device-memory footprint in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Number of primitives in the structure.
    #[inline]
    pub fn num_primitives(&self) -> usize {
        self.bvh.num_primitives()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::validate_bvh;

    fn grid_points(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
            .collect()
    }

    #[test]
    fn build_produces_valid_structure_with_costs() {
        let device = Device::rtx_2080();
        let gas = Gas::build_from_points(&device, &grid_points(500), 0.5, BuildParams::default())
            .unwrap();
        assert_eq!(gas.num_primitives(), 500);
        assert!(gas.build_time_ms() > 0.0);
        assert!(gas.memory_bytes() > 0);
        validate_bvh(gas.bvh()).unwrap();
    }

    #[test]
    fn refit_updates_structure_cheaply_and_keeps_memory() {
        let device = Device::rtx_2080();
        let mut pts = grid_points(600);
        let mut gas = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        let memory_before = gas.memory_bytes();
        let build_ms = gas.build_time_ms();
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += 0.2 * ((i % 5) as f32);
        }
        let refit = gas.refit_from_points(&device, &pts, 0.5).unwrap();
        assert!(refit.refit_time_ms > 0.0);
        assert!(refit.refit_time_ms < build_ms);
        assert_eq!(refit.stats.nodes_updated, gas.bvh().num_nodes());
        assert_eq!(gas.memory_bytes(), memory_before);
        validate_bvh(gas.bvh()).unwrap();
        // The refit tracked the motion: root bounds cover the moved points.
        for &p in &pts {
            assert!(gas.bvh().root_bounds().contains_point(p));
        }
    }

    #[test]
    fn refit_with_wrong_count_is_rejected() {
        let device = Device::rtx_2080();
        let pts = grid_points(100);
        let mut gas = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        assert!(gas.refit_from_points(&device, &pts[..50], 0.5).is_err());
    }

    #[test]
    fn build_time_scales_linearly_with_primitives() {
        let device = Device::rtx_2080();
        let t = |n: usize| {
            Gas::build_from_points(&device, &grid_points(n), 0.5, BuildParams::default())
                .unwrap()
                .build_time_ms()
        };
        let t1 = t(200);
        let t2 = t(400);
        let t4 = t(800);
        assert!(((t4 - t2) - 2.0 * (t2 - t1)).abs() < 1e-9);
    }

    #[test]
    fn empty_build_is_cheap_and_valid() {
        let device = Device::rtx_2080();
        let gas = Gas::build(&device, &[], BuildParams::default()).unwrap();
        assert_eq!(gas.num_primitives(), 0);
        assert_eq!(gas.build_time_ms(), 0.0);
    }

    #[test]
    fn oversized_build_reports_oom() {
        // The tiny test device has 256 MB; ask for more primitives than fit.
        let device = Device::tiny_test_device();
        let too_many = (device.config().memory_bytes / PRIM_BYTES + 1) as usize;
        // Constructing that many real AABBs would blow host memory, so check
        // the allocation path directly with the device API instead.
        assert!(device
            .check_allocation(too_many as u64 * PRIM_BYTES)
            .is_err());
        // And a small build on the same device succeeds.
        assert!(
            Gas::build_from_points(&device, &grid_points(100), 0.3, BuildParams::default()).is_ok()
        );
    }
}
