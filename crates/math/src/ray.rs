//! Rays with the `[t_min, t_max]` segment semantics used by OptiX.
//!
//! RTNN casts *very short* rays: `t_min = 0`, `t_max = 1e-16`, direction
//! `[1, 0, 0]` (Section 3.1). With such rays, ray–AABB intersection almost
//! always succeeds through "Condition 2" of the paper (ray origin inside the
//! AABB), which is exactly what makes the mapping equivalent to a point-in-
//! AABB test.

use crate::Vec3;

/// The `t_max` RTNN uses for its degenerate "point probe" rays.
pub const SHORT_RAY_TMAX: f32 = 1e-16;

/// A ray `P(t) = origin + t * direction`, restricted to `t ∈ [t_min, t_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin `O`.
    pub origin: Vec3,
    /// Ray direction `d`. Not required to be normalised.
    pub direction: Vec3,
    /// Lower bound of the valid segment.
    pub t_min: f32,
    /// Upper bound of the valid segment.
    pub t_max: f32,
}

impl Ray {
    /// A general-purpose ray over `[t_min, t_max]`.
    #[inline]
    pub fn new(origin: Vec3, direction: Vec3, t_min: f32, t_max: f32) -> Self {
        Ray {
            origin,
            direction,
            t_min,
            t_max,
        }
    }

    /// An unbounded ray (`t ∈ [0, +inf)`).
    #[inline]
    pub fn unbounded(origin: Vec3, direction: Vec3) -> Self {
        Ray {
            origin,
            direction,
            t_min: 0.0,
            t_max: f32::INFINITY,
        }
    }

    /// The degenerate short ray RTNN casts from a query point (Listing 1,
    /// line 18): origin at the query, direction `[1,0,0]`, `t_max = 1e-16`.
    #[inline]
    pub fn point_probe(query: Vec3) -> Self {
        Ray {
            origin: query,
            direction: Vec3::UNIT_X,
            t_min: 0.0,
            t_max: SHORT_RAY_TMAX,
        }
    }

    /// Evaluate the ray at parameter `t`.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.direction * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_along_ray() {
        let r = Ray::new(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.0, 1.0, 0.0),
            0.0,
            10.0,
        );
        assert_eq!(r.at(0.0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(r.at(2.5), Vec3::new(1.0, 4.5, 3.0));
    }

    #[test]
    fn point_probe_matches_paper_parameters() {
        let q = Vec3::new(0.5, -0.5, 2.0);
        let r = Ray::point_probe(q);
        assert_eq!(r.origin, q);
        assert_eq!(r.direction, Vec3::UNIT_X);
        assert_eq!(r.t_min, 0.0);
        assert_eq!(r.t_max, SHORT_RAY_TMAX);
        // The probe segment is (numerically) a point: its extent is far below
        // any realistic AABB size, so Condition 1 hits are impossible in
        // practice and Condition 2 (origin inside the box) dominates.
        assert!(r.at(r.t_max).distance(q) < 1e-12);
    }
}
