//! Device configurations and the cycle cost model.
//!
//! Two presets mirror the paper's evaluation hardware (Section 6.1):
//!
//! * [`DeviceConfig::rtx_2080`] — 46 SMs / 46 RT cores / 2944 CUDA cores /
//!   8 GB GDDR6 / 4 MB L2;
//! * [`DeviceConfig::rtx_2080_ti`] — 68 SMs / 68 RT cores / 4352 CUDA cores /
//!   11 GB GDDR6 / 5.5 MB L2.
//!
//! The [`CostModel`] constants are not measured from real silicon (NVIDIA
//! publishes none); they are chosen so the *ratios* the paper reports hold:
//! the IS shader is an order of magnitude more expensive than a node test
//! (Section 3.1), the KNN IS shader is 3–6× the range IS shader
//! (Section 6.3), and skipping the sphere test makes the range IS shader
//! roughly 10× cheaper (Appendix A's 20:1 vs 2:1 ratios).

use crate::cache::CacheConfig;

/// Which flavour of intersection shader a launch runs; selects the per-call
/// SM cost from the [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsShaderKind {
    /// Range search with the point-in-sphere test (Listing 1).
    RangeSphereTest,
    /// Range search where the sphere test is elided because the partition's
    /// AABB is inscribed in the search sphere (Section 5.1).
    RangeNoSphereTest,
    /// KNN search: sphere test plus bounded priority-queue maintenance.
    Knn,
}

/// Cycle costs for the work items the simulator charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// RT-core cycles per BVH node test (traversal step).
    pub node_test_cycles: f64,
    /// RT-core cycles per primitive-AABB test inside a leaf.
    pub prim_test_cycles: f64,
    /// SM cycles per range-search IS call (with sphere test).
    pub is_range_cycles: f64,
    /// SM cycles per range-search IS call when the sphere test is elided.
    pub is_range_no_sphere_cycles: f64,
    /// SM cycles per KNN IS call (sphere test + priority queue).
    pub is_knn_cycles: f64,
    /// SM cycles per generic arithmetic "operation" reported by plain
    /// compute kernels (baselines).
    pub sm_op_cycles: f64,
    /// Average number of lanes whose IS invocations execute concurrently.
    /// IS shaders interrupt hardware traversal at lane-specific points, so
    /// they are neither fully serialised (1) nor fully SIMT-parallel (32);
    /// Turing-class hardware repacks them into partially filled warps.
    pub is_simt_width: f64,
    /// Extra latency cycles charged per L1 hit (pipelined, cheap).
    pub l1_hit_cycles: f64,
    /// Extra latency cycles charged per L1 miss that hits in L2.
    pub l2_hit_cycles: f64,
    /// Extra latency cycles charged per access that misses both caches.
    pub dram_cycles: f64,
    /// Fraction of memory latency hidden by warp-level parallelism
    /// (0 = nothing hidden, 1 = everything hidden).
    pub latency_hiding: f64,
    /// Acceleration-structure build throughput, primitives per millisecond,
    /// for the *reference* 68-SM device; scaled by SM count.
    pub accel_build_prims_per_ms_ref: f64,
    /// Fixed overhead per acceleration-structure build (launch + allocation),
    /// in milliseconds.
    pub accel_build_fixed_ms: f64,
    /// How much faster an in-place acceleration-structure *refit* (AABB
    /// update without re-topologizing, OptiX's `BUILD_OPERATION_UPDATE`) is
    /// than a full build, as a throughput multiplier on
    /// [`Self::accel_build_prims_per_ms_ref`]. A refit skips the Morton sort
    /// and hierarchy emission and only streams the AABBs bottom-up; NVIDIA
    /// quotes roughly an order of magnitude, we default to a conservative 6x.
    pub accel_refit_speedup: f64,
    /// Fixed overhead per refit launch in milliseconds (no allocation, so
    /// cheaper than a build's fixed cost).
    pub accel_refit_fixed_ms: f64,
    /// Host→device PCIe bandwidth in GB/s (device→host copies are almost
    /// completely hidden per the paper's footnote 4, so they are charged at
    /// a fraction of this).
    pub pcie_gbps: f64,
    /// Fraction of a device→host copy that is *not* hidden by overlap.
    pub d2h_visible_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            node_test_cycles: 2.0,
            prim_test_cycles: 2.0,
            is_range_cycles: 40.0,
            is_range_no_sphere_cycles: 4.0,
            is_knn_cycles: 160.0,
            sm_op_cycles: 2.0,
            is_simt_width: 8.0,
            l1_hit_cycles: 2.0,
            l2_hit_cycles: 40.0,
            dram_cycles: 220.0,
            latency_hiding: 0.6,
            accel_build_prims_per_ms_ref: 240_000.0,
            accel_build_fixed_ms: 0.15,
            accel_refit_speedup: 6.0,
            accel_refit_fixed_ms: 0.05,
            pcie_gbps: 12.0,
            d2h_visible_fraction: 0.05,
        }
    }
}

impl CostModel {
    /// The SM cycles of one IS call of the given kind.
    #[inline]
    pub fn is_call_cycles(&self, kind: IsShaderKind) -> f64 {
        match kind {
            IsShaderKind::RangeSphereTest => self.is_range_cycles,
            IsShaderKind::RangeNoSphereTest => self.is_range_no_sphere_cycles,
            IsShaderKind::Knn => self.is_knn_cycles,
        }
    }
}

/// Static description of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable name used in experiment reports.
    pub name: String,
    /// Number of streaming multiprocessors. The presets give each SM one RT
    /// core, matching Turing.
    pub num_sms: usize,
    /// CUDA cores per SM (informational; the cost model works per-warp).
    pub cuda_cores_per_sm: usize,
    /// Warp width.
    pub warp_size: usize,
    /// Core clock in GHz; converts cycles to milliseconds.
    pub clock_ghz: f64,
    /// Per-SM L1 data cache configuration.
    pub l1: CacheConfig,
    /// Device-wide L2 configuration (capacity is split evenly across SM
    /// shards for deterministic parallel simulation).
    pub l2: CacheConfig,
    /// Device memory capacity in bytes; inputs that exceed it make the
    /// simulated allocation fail the same way the paper's OOM baselines do.
    pub memory_bytes: u64,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl DeviceConfig {
    /// The RTX 2080 preset (46 SMs, 8 GB).
    pub fn rtx_2080() -> Self {
        DeviceConfig {
            name: "RTX 2080".to_string(),
            num_sms: 46,
            cuda_cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.71,
            l1: CacheConfig {
                capacity_bytes: 64 * 1024,
                line_bytes: 128,
                ways: 4,
            },
            l2: CacheConfig {
                capacity_bytes: 4 * 1024 * 1024,
                line_bytes: 128,
                ways: 16,
            },
            memory_bytes: 8 * 1024 * 1024 * 1024,
            cost: CostModel::default(),
        }
    }

    /// The RTX 2080 Ti preset (68 SMs, 11 GB).
    pub fn rtx_2080_ti() -> Self {
        DeviceConfig {
            name: "RTX 2080 Ti".to_string(),
            num_sms: 68,
            cuda_cores_per_sm: 64,
            warp_size: 32,
            clock_ghz: 1.635,
            l1: CacheConfig {
                capacity_bytes: 64 * 1024,
                line_bytes: 128,
                ways: 4,
            },
            l2: CacheConfig {
                capacity_bytes: 5632 * 1024,
                line_bytes: 128,
                ways: 16,
            },
            memory_bytes: 11 * 1024 * 1024 * 1024,
            cost: CostModel::default(),
        }
    }

    /// A tiny configuration for fast unit tests (2 SMs, small caches). Not a
    /// real GPU; exists so cache-pressure behaviour can be exercised with a
    /// few kilobytes of traffic.
    pub fn tiny_test_device() -> Self {
        DeviceConfig {
            name: "tiny-test".to_string(),
            num_sms: 2,
            cuda_cores_per_sm: 8,
            warp_size: 32,
            clock_ghz: 1.0,
            l1: CacheConfig {
                capacity_bytes: 2 * 1024,
                line_bytes: 64,
                ways: 2,
            },
            l2: CacheConfig {
                capacity_bytes: 16 * 1024,
                line_bytes: 64,
                ways: 4,
            },
            memory_bytes: 256 * 1024 * 1024,
            cost: CostModel::default(),
        }
    }

    /// Cycles → milliseconds at this device's clock.
    #[inline]
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper_hardware() {
        let a = DeviceConfig::rtx_2080();
        let b = DeviceConfig::rtx_2080_ti();
        assert_eq!(a.num_sms, 46);
        assert_eq!(b.num_sms, 68);
        assert!(b.l2.capacity_bytes > a.l2.capacity_bytes);
        assert!(b.memory_bytes > a.memory_bytes);
        assert_eq!(a.warp_size, 32);
    }

    #[test]
    fn cost_ratios_follow_the_paper() {
        let c = CostModel::default();
        // IS (step 2) is an order of magnitude more expensive than a node
        // test (step 1) — Section 3.1.
        assert!(c.is_range_cycles >= 10.0 * c.node_test_cycles);
        // KNN IS is 3-6x the range IS — Section 6.3.
        let ratio = c.is_knn_cycles / c.is_range_cycles;
        assert!((3.0..=6.0).contains(&ratio), "knn/range IS ratio {ratio}");
        // Eliding the sphere test makes the range IS ~10x cheaper — Appendix A.
        assert!(c.is_range_cycles / c.is_range_no_sphere_cycles >= 5.0);
    }

    #[test]
    fn is_call_cycles_dispatch() {
        let c = CostModel::default();
        assert_eq!(c.is_call_cycles(IsShaderKind::Knn), c.is_knn_cycles);
        assert_eq!(
            c.is_call_cycles(IsShaderKind::RangeSphereTest),
            c.is_range_cycles
        );
        assert_eq!(
            c.is_call_cycles(IsShaderKind::RangeNoSphereTest),
            c.is_range_no_sphere_cycles
        );
    }

    #[test]
    fn cycles_to_ms_uses_the_clock() {
        let d = DeviceConfig::tiny_test_device(); // 1 GHz
        assert!((d.cycles_to_ms(1e6) - 1.0).abs() < 1e-9);
        let faster = DeviceConfig::rtx_2080();
        assert!(faster.cycles_to_ms(1e6) < 1.0);
    }
}
