//! The analytical cost model of Section 5.2 (Equations 2–4) and Appendix A.
//!
//! `T = Σ_i (T_build^i + T_search^i)` where
//!
//! * `T_build = k1 · M` — BVH construction is linear in the number of AABBs
//!   (every partition's BVH contains *all* points, so `M` is the point
//!   count);
//! * KNN: `T_search = k2 · N · ρ · S³` — per-query IS work is the number of
//!   leaf AABBs the query resides in, i.e. AABB volume × local density;
//! * range: `T_search = k3 · N · K` — the search stops at `K` IS calls, with
//!   `k3` an order of magnitude cheaper when the partition's AABB is
//!   inscribed in the search sphere (sphere test elided).
//!
//! The paper obtains the `k1 : k2` ratio by offline profiling on the real
//! GPU; here the coefficients are derived from the simulator's own cost
//! model ([`CostCoefficients::calibrate`]), which plays the same role — the
//! bundling decision only needs the ratios to be faithful to the device the
//! search will actually run on.

use rtnn_gpusim::{Device, IsShaderKind};

/// Calibrated device-level cost coefficients, all in milliseconds per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCoefficients {
    /// Milliseconds per AABB of acceleration-structure build (`k1`).
    pub k_build_ms_per_aabb: f64,
    /// Fixed overhead per build launch, milliseconds.
    pub k_build_fixed_ms: f64,
    /// Milliseconds per AABB of in-place acceleration-structure *refit*
    /// (the dynamic-scene update path; much smaller than `k1`).
    pub k_refit_ms_per_aabb: f64,
    /// Fixed overhead per refit launch, milliseconds.
    pub k_refit_fixed_ms: f64,
    /// Milliseconds per KNN IS call (`k2`), amortised across the device.
    pub k_is_knn_ms: f64,
    /// Milliseconds per range IS call with the sphere test (`k3`, touching
    /// case of Appendix A).
    pub k_is_range_sphere_ms: f64,
    /// Milliseconds per range IS call without the sphere test (`k3`,
    /// non-touching case).
    pub k_is_range_no_sphere_ms: f64,
}

impl CostCoefficients {
    /// Derive the coefficients from a device configuration — the stand-in
    /// for the paper's offline profiling pass.
    pub fn calibrate(device: &Device) -> Self {
        let cfg = device.config();
        // Device-level amortised cost of one IS call: its SM cycles divided
        // by the clock, spread over the SMs that execute warps concurrently.
        let per_call = |kind: IsShaderKind| {
            cfg.cost.is_call_cycles(kind) / (cfg.clock_ghz * 1e6) / cfg.num_sms as f64
        };
        // Build cost per AABB straight from the build-rate model.
        let build_two = device.accel_build_time_ms(2_000_000);
        let build_one = device.accel_build_time_ms(1_000_000);
        let k_build = (build_two - build_one) / 1_000_000.0;
        let fixed = (2.0 * build_one - build_two).max(0.0);
        let refit_two = device.accel_refit_time_ms(2_000_000);
        let refit_one = device.accel_refit_time_ms(1_000_000);
        let k_refit = (refit_two - refit_one) / 1_000_000.0;
        let refit_fixed = (2.0 * refit_one - refit_two).max(0.0);
        CostCoefficients {
            k_build_ms_per_aabb: k_build,
            k_build_fixed_ms: fixed,
            k_refit_ms_per_aabb: k_refit,
            k_refit_fixed_ms: refit_fixed,
            k_is_knn_ms: per_call(IsShaderKind::Knn),
            k_is_range_sphere_ms: per_call(IsShaderKind::RangeSphereTest),
            k_is_range_no_sphere_ms: per_call(IsShaderKind::RangeNoSphereTest),
        }
    }

    /// Estimated milliseconds to build one BVH over `num_aabbs` primitives.
    pub fn build_ms(&self, num_aabbs: usize) -> f64 {
        if num_aabbs == 0 {
            0.0
        } else {
            self.k_build_fixed_ms + self.k_build_ms_per_aabb * num_aabbs as f64
        }
    }

    /// Estimated milliseconds to refit one existing BVH over `num_aabbs`
    /// primitives in place.
    pub fn refit_ms(&self, num_aabbs: usize) -> f64 {
        if num_aabbs == 0 {
            0.0
        } else {
            self.k_refit_fixed_ms + self.k_refit_ms_per_aabb * num_aabbs as f64
        }
    }

    /// The `k1 : k2` ratio the paper quotes (build-per-AABB to KNN-IS-call).
    pub fn build_to_knn_is_ratio(&self) -> f64 {
        self.k_build_ms_per_aabb / self.k_is_knn_ms
    }

    /// The per-IS-call coefficient the auto-tuner's cold start charges for
    /// a plan kind (a [`Signature`](rtnn_telemetry::Signature) coordinate):
    /// `k2` for KNN, the sphere-test `k3` for range, and KNN pricing for
    /// heterogeneous batches (their dominant slice in the paper's mixes).
    pub fn is_ms_for_kind(&self, plan_kind: &str) -> f64 {
        match plan_kind {
            "range" => self.k_is_range_sphere_ms,
            _ => self.k_is_knn_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_coefficients() {
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        assert!(c.k_build_ms_per_aabb > 0.0);
        assert!(c.k_is_knn_ms > 0.0);
        assert!(c.k_is_range_sphere_ms > 0.0);
        assert!(c.k_is_range_no_sphere_ms > 0.0);
        assert!(c.k_build_fixed_ms >= 0.0);
    }

    #[test]
    fn refit_coefficients_undercut_build_coefficients() {
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        assert!(c.k_refit_ms_per_aabb > 0.0);
        assert!(c.k_refit_ms_per_aabb < c.k_build_ms_per_aabb);
        assert!(c.k_refit_fixed_ms <= c.k_build_fixed_ms);
        for n in [10_000usize, 1_000_000] {
            assert!(c.refit_ms(n) < c.build_ms(n));
        }
        assert_eq!(c.refit_ms(0), 0.0);
    }

    #[test]
    fn coefficient_ordering_matches_the_paper() {
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        // KNN IS calls are the most expensive, sphere-test range next, and
        // the elided-sphere-test range IS is the cheapest (Appendix A).
        assert!(c.k_is_knn_ms > c.k_is_range_sphere_ms);
        assert!(c.k_is_range_sphere_ms > c.k_is_range_no_sphere_ms);
    }

    #[test]
    fn build_cost_is_linear() {
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        let b1 = c.build_ms(1_000_000);
        let b2 = c.build_ms(2_000_000);
        let b3 = c.build_ms(3_000_000);
        assert!(((b3 - b2) - (b2 - b1)).abs() < 1e-9);
        assert_eq!(c.build_ms(0), 0.0);
    }

    #[test]
    fn faster_device_has_cheaper_coefficients() {
        let a = CostCoefficients::calibrate(&Device::rtx_2080());
        let b = CostCoefficients::calibrate(&Device::rtx_2080_ti());
        assert!(b.k_build_ms_per_aabb < a.k_build_ms_per_aabb);
        assert!(b.k_is_knn_ms < a.k_is_knn_ms);
    }

    #[test]
    fn per_kind_is_cost_follows_the_shader_coefficients() {
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        assert_eq!(c.is_ms_for_kind("knn"), c.k_is_knn_ms);
        assert_eq!(c.is_ms_for_kind("range"), c.k_is_range_sphere_ms);
        assert_eq!(c.is_ms_for_kind("batch"), c.k_is_knn_ms);
    }

    #[test]
    fn ratio_is_finite_and_small() {
        // Build-per-AABB is much cheaper than one (device-amortised) IS call
        // would be expensive — the ratio is simply reported for EXPERIMENTS.md.
        let c = CostCoefficients::calibrate(&Device::rtx_2080());
        let r = c.build_to_knn_is_ratio();
        assert!(r.is_finite() && r > 0.0);
    }
}
