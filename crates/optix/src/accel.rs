//! The acceleration structure a search backend builds (the OptiX "GAS").
//!
//! In OptiX, `optixAccelBuild` runs on the SMs, is non-programmable, and its
//! cost is what the bundling optimisation of Section 5.2 trades against
//! search time (`T_build = k1 · M`, Equation 3). An [`Accel`] therefore
//! records the simulated build time reported by the device's build-rate
//! model along with the structure itself: a BVH over width-`aabb_width`
//! cubes centred at the points (Listing 1's `buildBVH(points, radius)`).
//! The brute-force oracle keeps no structure and scans the flat point
//! array at traversal time; its [`Accel::flat`] handle records only the
//! point count.

use rtnn_bvh::{build_point_bvh, refit_point_bvh, BuildParams, Bvh};
use rtnn_gpusim::device::OutOfDeviceMemory;
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_telemetry::Telemetry;
use std::time::Instant;

/// Simulated device-side size of one BVH node in bytes.
pub const NODE_BYTES: u64 = 32;
/// Simulated device-side size of one primitive record (AABB + id) in bytes.
pub const PRIM_BYTES: u64 = 32;

/// Outcome of an in-place [`Accel`] refit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitOutcome {
    /// Simulated milliseconds the refit cost.
    pub refit_ms: f64,
    /// SAH cost of the tree after the refit (`None` for flat handles).
    pub sah_after: Option<f64>,
}

/// An acceleration structure over per-point cubes (see module docs).
#[derive(Debug, Clone)]
pub struct Accel {
    /// The BVH, or `None` for a flat handle.
    bvh: Option<Bvh>,
    num_primitives: usize,
    aabb_width: f32,
    build_ms: f64,
}

impl Accel {
    /// Build a BVH over width-`aabb_width` cubes centred at `points` on
    /// `device`.
    ///
    /// Fails with [`OutOfDeviceMemory`] if the structure does not fit in the
    /// device's memory (the `OOM` outcomes of Figure 11).
    pub fn build(
        device: &Device,
        points: &[Vec3],
        aabb_width: f32,
        params: BuildParams,
    ) -> Result<Accel, OutOfDeviceMemory> {
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| t.span("accel.build"));
        let wall = Instant::now();
        // `build_point_bvh` takes the cube's half width. Halving a width,
        // doubling it back and halving it again gives the bits of one
        // halving, so every cube is bit-equal to `Aabb::cube(p, aabb_width)`.
        let bvh = build_point_bvh(points, 0.5 * aabb_width, params);
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let memory_bytes =
            bvh.num_nodes() as u64 * NODE_BYTES + bvh.num_primitives() as u64 * PRIM_BYTES;
        device.check_allocation(memory_bytes)?;
        let build_ms = device.accel_build_time_ms(points.len());
        if let Some(t) = &tel {
            t.counter_add("accel.builds", 1);
            t.observe("accel.build.device_ms", build_ms);
        }
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", build_ms)
                .attr("primitives", points.len() as f64)
                .attr("memory_bytes", memory_bytes as f64)
                .attr_wall("host_wall_ms", host_wall_ms);
        }
        Ok(Accel {
            bvh: Some(bvh),
            num_primitives: points.len(),
            aabb_width,
            build_ms,
        })
    }

    /// A structure-less handle over `num_points` points with a nominal
    /// per-point AABB width (the brute-force oracle's "structure").
    pub fn flat(num_points: usize, aabb_width: f32) -> Self {
        Accel {
            bvh: None,
            num_primitives: num_points,
            aabb_width,
            build_ms: 0.0,
        }
    }

    /// The BVH (`None` for flat handles).
    pub fn bvh(&self) -> Option<&Bvh> {
        self.bvh.as_ref()
    }

    /// Per-point AABB width the structure was built for.
    pub fn aabb_width(&self) -> f32 {
        self.aabb_width
    }

    /// Simulated milliseconds the build cost (0 for flat handles).
    pub fn build_time_ms(&self) -> f64 {
        self.build_ms
    }

    /// Number of point primitives covered.
    pub fn num_primitives(&self) -> usize {
        self.num_primitives
    }

    /// Refit the structure in place over moved `points` (the OptiX
    /// `BUILD_OPERATION_UPDATE` path): the cubes keep their width, the tree
    /// keeps its topology and with it its device-memory footprint, and the
    /// boxes are recomputed bottom-up. Returns `None` when the primitive
    /// count changed (a refit cannot re-topologize): the caller should
    /// rebuild. A flat handle reads positions from the caller's array at
    /// traversal time, so its same-count refit is free.
    pub fn refit_in_place(&mut self, device: &Device, points: &[Vec3]) -> Option<RefitOutcome> {
        if points.len() != self.num_primitives {
            return None;
        }
        let Some(bvh) = self.bvh.as_mut() else {
            return Some(RefitOutcome {
                refit_ms: 0.0,
                sah_after: None,
            });
        };
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| t.span("accel.refit"));
        let wall = Instant::now();
        let stats = refit_point_bvh(bvh, points).expect("the primitive count was checked above");
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let refit_ms = device.accel_refit_time_ms(points.len());
        if let Some(t) = &tel {
            t.counter_add("accel.refits", 1);
            t.observe("accel.refit.device_ms", refit_ms);
        }
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", refit_ms)
                .attr("primitives", points.len() as f64)
                .attr("nodes_updated", stats.nodes_updated as f64)
                .attr_wall("host_wall_ms", host_wall_ms);
        }
        Some(RefitOutcome {
            refit_ms,
            sah_after: Some(stats.sah_after),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::validate_bvh;

    fn cloud(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
            .collect()
    }

    fn build(device: &Device, points: &[Vec3]) -> Accel {
        Accel::build(device, points, 1.0, BuildParams::default()).unwrap()
    }

    #[test]
    fn build_produces_valid_structure_with_costs() {
        let device = Device::rtx_2080();
        let accel = build(&device, &cloud(500));
        assert_eq!(accel.num_primitives(), 500);
        assert_eq!(accel.aabb_width(), 1.0);
        assert!(accel.build_time_ms() > 0.0);
        let bvh = accel.bvh().expect("a built structure owns its BVH");
        validate_bvh(bvh).unwrap();
        assert_eq!(
            bvh.records[0].cube(bvh.half_width).extent(),
            Vec3::splat(1.0)
        );
    }

    #[test]
    fn refit_updates_structure_cheaply_and_keeps_its_topology() {
        let device = Device::rtx_2080();
        let mut pts = cloud(600);
        let mut accel = build(&device, &pts);
        let built = accel.bvh().unwrap().clone();
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += 0.2 * ((i % 5) as f32);
        }
        let refit = accel.refit_in_place(&device, &pts).unwrap();
        assert!(refit.refit_ms > 0.0);
        assert!(refit.refit_ms < accel.build_time_ms());
        let bvh = accel.bvh().unwrap();
        assert_eq!(refit.sah_after, Some(bvh.sah_cost()));
        assert_eq!(bvh.num_nodes(), built.num_nodes());
        let ids = |bvh: &Bvh| bvh.records.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(bvh), ids(&built));
        validate_bvh(bvh).unwrap();
        // The refit tracked the motion: root bounds cover the moved points.
        for &p in &pts {
            assert!(bvh.root_bounds().contains_point(p));
        }
    }

    #[test]
    fn refit_rejects_count_changes() {
        let device = Device::rtx_2080();
        let pts = cloud(100);
        let mut accel = build(&device, &pts);
        assert!(accel.refit_in_place(&device, &pts[..50]).is_none());
        let mut flat = Accel::flat(100, 1.0);
        assert!(flat.refit_in_place(&device, &pts).is_some());
        assert!(flat.refit_in_place(&device, &pts[..50]).is_none());
    }

    #[test]
    fn flat_handle_has_no_structure_cost() {
        let device = Device::rtx_2080();
        let mut accel = Accel::flat(42, 2.0);
        assert_eq!(accel.num_primitives(), 42);
        assert_eq!(accel.aabb_width(), 2.0);
        assert_eq!(accel.build_time_ms(), 0.0);
        assert!(accel.bvh().is_none());
        let refit = accel.refit_in_place(&device, &cloud(42)).unwrap();
        assert_eq!(refit.refit_ms, 0.0);
        assert_eq!(refit.sah_after, None);
    }

    #[test]
    fn build_time_scales_linearly_with_primitives() {
        let device = Device::rtx_2080();
        let t = |n: usize| build(&device, &cloud(n)).build_time_ms();
        let (t1, t2, t4) = (t(200), t(400), t(800));
        assert!(((t4 - t2) - 2.0 * (t2 - t1)).abs() < 1e-9);
    }

    #[test]
    fn empty_build_is_cheap_and_valid() {
        let device = Device::rtx_2080();
        let accel = build(&device, &[]);
        assert_eq!(accel.num_primitives(), 0);
        assert_eq!(accel.build_time_ms(), 0.0);
    }

    #[test]
    fn oversized_build_reports_oom() {
        // The tiny test device has 256 MB; ask for more primitives than fit.
        let device = Device::tiny_test_device();
        let too_many = (device.config().memory_bytes / PRIM_BYTES + 1) as usize;
        // Constructing that many real points would blow host memory, so
        // check the allocation path directly with the device API instead.
        assert!(device
            .check_allocation(too_many as u64 * PRIM_BYTES)
            .is_err());
        // And a small build on the same device succeeds.
        assert!(Accel::build(&device, &cloud(100), 0.6, BuildParams::default()).is_ok());
    }
}
