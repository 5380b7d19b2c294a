//! Approximate neighbor search (Section 8 of the paper).
//!
//! Two relaxations, both trading recall or a bounded distance error for
//! speed:
//!
//! * **Shrunken AABBs**: build the BVH with per-point AABBs smaller than the
//!   `2r` correctness requires. Neighbors near the corners of the search
//!   sphere may be missed, but every returned neighbor is still within `r`,
//!   and the search touches fewer AABBs (Observation 2 makes this a direct
//!   performance knob).
//! * **Elided sphere test**: treat any query inside a point's AABB as inside
//!   its sphere. Returned "neighbors" are then guaranteed to lie within
//!   `√3·r` of the query (the AABB half-diagonal), and the expensive step-2
//!   work disappears entirely.

use crate::plan::PlanError;

/// The approximation mode of a search.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ApproxMode {
    /// Exact search (the default).
    #[default]
    Exact,
    /// Build per-point AABBs of width `2r · factor` with `factor ∈ (0, 1]`.
    /// Every reported neighbor is within `r`; neighbors farther than
    /// `r · factor` along some axis may be missed.
    ShrunkenAabb {
        /// Width multiplier in `(0, 1]`.
        factor: f32,
    },
    /// Skip the point-in-sphere test (range search only): reported neighbors
    /// are within `√3 · r`.
    SkipSphereTest,
}

impl ApproxMode {
    /// Multiplier applied to the `2r` AABB width when building acceleration
    /// structures.
    pub fn aabb_width_factor(&self) -> f32 {
        match self {
            ApproxMode::ShrunkenAabb { factor } => *factor,
            _ => 1.0,
        }
    }

    /// True if the range-search IS shader should skip the sphere test.
    pub fn skip_sphere_test(&self) -> bool {
        matches!(self, ApproxMode::SkipSphereTest)
    }

    /// Upper bound on the distance of any reported neighbor from the query,
    /// for a search radius `radius`.
    pub fn distance_bound(&self, radius: f32) -> f32 {
        match self {
            ApproxMode::Exact | ApproxMode::ShrunkenAabb { .. } => radius,
            ApproxMode::SkipSphereTest => radius * 3.0_f32.sqrt(),
        }
    }

    /// True when the mode guarantees that *all* neighbors within `r` are
    /// reported (up to the `K` cap).
    pub fn is_exact(&self) -> bool {
        matches!(self, ApproxMode::Exact)
    }

    /// Validate the mode's parameters; violations are typed
    /// [`PlanError`]s naming the offending field.
    pub fn validate(&self) -> Result<(), PlanError> {
        if let ApproxMode::ShrunkenAabb { factor } = self {
            if !(*factor > 0.0 && *factor <= 1.0) {
                return Err(PlanError::InvalidShrinkFactor { factor: *factor });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_the_default_and_exact() {
        let m = ApproxMode::default();
        assert!(m.is_exact());
        assert_eq!(m.aabb_width_factor(), 1.0);
        assert!(!m.skip_sphere_test());
        assert_eq!(m.distance_bound(2.0), 2.0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn shrunken_aabb_parameters() {
        let m = ApproxMode::ShrunkenAabb { factor: 0.5 };
        assert!(!m.is_exact());
        assert_eq!(m.aabb_width_factor(), 0.5);
        assert_eq!(m.distance_bound(1.0), 1.0); // never returns anything beyond r
        assert!(m.validate().is_ok());
        assert!(ApproxMode::ShrunkenAabb { factor: 0.0 }.validate().is_err());
        assert!(ApproxMode::ShrunkenAabb { factor: 1.5 }.validate().is_err());
    }

    #[test]
    fn skip_sphere_test_bound_is_sqrt3_r() {
        let m = ApproxMode::SkipSphereTest;
        assert!(m.skip_sphere_test());
        assert!((m.distance_bound(1.0) - 3.0_f32.sqrt()).abs() < 1e-6);
        assert!(!m.is_exact());
    }
}
