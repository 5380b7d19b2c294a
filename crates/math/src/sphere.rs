//! Spheres — the primitive RTNN attaches to every search point.
//!
//! Step 2 of the search (Section 3.1) is a point-in-sphere test executed in
//! the IS shader: `distance²(query, center) < radius²`.

use crate::{Aabb, Vec3};

/// A sphere with `center` and `radius`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    pub center: Vec3,
    pub radius: f32,
}

impl Sphere {
    /// Construct a sphere.
    #[inline]
    pub const fn new(center: Vec3, radius: f32) -> Self {
        Sphere { center, radius }
    }

    /// The tightest AABB enclosing the sphere (width `2r`).
    #[inline]
    pub fn bounding_box(&self) -> Aabb {
        Aabb::around_sphere(self.center, self.radius)
    }

    /// Point-in-sphere test using squared distances (no sqrt), exactly as the
    /// paper's IS shader does (Listing 1, line 28).
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.center.distance_squared(p) < self.radius * self.radius
    }

    /// Inclusive variant (`<=`), used by correctness oracles so boundary
    /// points are classified consistently.
    #[inline]
    pub fn contains_point_inclusive(&self, p: Vec3) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }

    /// Volume `4/3 π r³`.
    #[inline]
    pub fn volume(&self) -> f32 {
        4.0 / 3.0 * std::f32::consts::PI * self.radius.powi(3)
    }

    /// The sphere circumscribing a cube of width `a` centred at `center`
    /// (radius `a·√3/2`). Used by the KNN megacell-to-AABB conversion
    /// (Figure 10c).
    #[inline]
    pub fn circumscribing_cube(center: Vec3, cube_width: f32) -> Self {
        Sphere {
            center,
            radius: cube_width * 0.5 * 3.0_f32.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_uses_strict_inequality() {
        let s = Sphere::new(Vec3::ZERO, 1.0);
        assert!(s.contains_point(Vec3::new(0.5, 0.5, 0.5)));
        assert!(!s.contains_point(Vec3::new(1.0, 0.0, 0.0))); // boundary excluded
        assert!(s.contains_point_inclusive(Vec3::new(1.0, 0.0, 0.0)));
        assert!(!s.contains_point(Vec3::new(0.8, 0.8, 0.8)));
    }

    #[test]
    fn bounding_box_circumscribes() {
        let s = Sphere::new(Vec3::new(1.0, 2.0, 3.0), 0.5);
        let b = s.bounding_box();
        assert_eq!(b, Aabb::cube(s.center, 1.0));
        // Every point of the sphere is inside the box: check axis extremes.
        for axis in 0..3 {
            let mut offset = Vec3::ZERO;
            match axis {
                0 => offset.x = s.radius,
                1 => offset.y = s.radius,
                _ => offset.z = s.radius,
            }
            assert!(b.contains_point(s.center + offset));
            assert!(b.contains_point(s.center - offset));
        }
    }

    #[test]
    fn sphere_is_inside_its_aabb_but_not_vice_versa() {
        // The corner of the AABB is outside the sphere — the source of the
        // step-1 false positives the paper discusses.
        let s = Sphere::new(Vec3::ZERO, 1.0);
        let corner = Vec3::splat(1.0 - 1e-4);
        assert!(s.bounding_box().contains_point(corner));
        assert!(!s.contains_point(corner));
    }

    #[test]
    fn volume_formula() {
        let s = Sphere::new(Vec3::ZERO, 2.0);
        let expected = 4.0 / 3.0 * std::f32::consts::PI * 8.0;
        assert!((s.volume() - expected).abs() < 1e-4);
    }

    #[test]
    fn circumsphere_of_cube_contains_corners() {
        let a = 2.0;
        let s = Sphere::circumscribing_cube(Vec3::ZERO, a);
        let corner = Vec3::splat(a / 2.0);
        assert!(s.contains_point_inclusive(corner));
        // ...and is tight: scaling the radius down slightly excludes it.
        let smaller = Sphere::new(Vec3::ZERO, s.radius * 0.999);
        assert!(!smaller.contains_point_inclusive(corner));
    }
}
