//! Axis-aligned bounding boxes with OptiX ray-intersection semantics.
//!
//! The paper (Section 2.2, "Intersection Conditions") defines two conditions
//! under which a ray hits an AABB:
//!
//! 1. the slab-test hit parameter `t` falls inside `[t_min, t_max]`, or
//! 2. the ray *origin* lies inside the AABB, even if the slab intersection
//!    parameters fall outside the segment.
//!
//! RTNN's short rays rely on Condition 2 almost exclusively; the traversal
//! code in `rtnn-bvh` calls [`Aabb::intersects_ray`], which implements both.

use crate::{Ray, Vec3};

/// An axis-aligned box `[min, max]` (inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Default for Aabb {
    /// The default box is [`Aabb::EMPTY`].
    fn default() -> Self {
        Aabb::EMPTY
    }
}

impl Aabb {
    /// The canonical "empty" box: min = +inf, max = -inf. Growing it with any
    /// point produces a box containing exactly that point.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3 {
            x: f32::INFINITY,
            y: f32::INFINITY,
            z: f32::INFINITY,
        },
        max: Vec3 {
            x: f32::NEG_INFINITY,
            y: f32::NEG_INFINITY,
            z: f32::NEG_INFINITY,
        },
    };

    /// Construct from explicit bounds. `min` must be component-wise ≤ `max`
    /// for a non-empty box; this is not checked here (the BVH validator
    /// checks it for constructed hierarchies).
    #[inline]
    pub const fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// The cube of width `width` centred at `center`. This is how RTNN turns
    /// a search point into a primitive: `center = point, width = 2 * radius`
    /// (Listing 1, line 5).
    #[inline]
    pub fn cube(center: Vec3, width: f32) -> Self {
        let half = Vec3::splat(width * 0.5);
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// The bounding box of a set of points. Returns [`Aabb::EMPTY`] for an
    /// empty slice.
    pub fn from_points(points: &[Vec3]) -> Self {
        let mut b = Aabb::EMPTY;
        for &p in points {
            b.grow_point(p);
        }
        b
    }

    /// True if the box contains no volume (never grown).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Box centre.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Surface area; used by the SAH BVH builder.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Longest edge length.
    #[inline]
    pub fn longest_extent(&self) -> f32 {
        self.extent().max_component()
    }

    /// Grow to include a point.
    #[inline]
    pub fn grow_point(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grow to include another box.
    #[inline]
    pub fn grow_aabb(&mut self, other: &Aabb) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Union of two boxes.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Expand symmetrically by `margin` on every face.
    #[inline]
    pub fn expanded(&self, margin: f32) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }

    /// Point-in-box test (inclusive bounds). This is the geometric meaning of
    /// the paper's Condition 2, and the predicate Step 1 of the RTNN search
    /// reduces to for short rays.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True if the other box is fully inside this one (inclusive).
    #[inline]
    pub fn contains_aabb(&self, other: &Aabb) -> bool {
        self.contains_point(other.min) && self.contains_point(other.max)
    }

    /// Squared distance from a point to the box (zero if inside).
    #[inline]
    pub fn distance_squared_to_point(&self, p: Vec3) -> f32 {
        let clamped = p.max(self.min).min(self.max);
        clamped.distance_squared(p)
    }

    /// The slab test: returns `Some((t_enter, t_exit))` for the parametric
    /// interval over which the *infinite* line enters and exits the box, or
    /// `None` if the line misses it entirely. Zero direction components are
    /// handled by the usual IEEE infinity trick.
    #[inline]
    pub fn slab_intersection(&self, ray: &Ray) -> Option<(f32, f32)> {
        let inv = Vec3::new(
            1.0 / ray.direction.x,
            1.0 / ray.direction.y,
            1.0 / ray.direction.z,
        );
        let t0 = (self.min - ray.origin) * inv;
        let t1 = (self.max - ray.origin) * inv;
        let t_near = t0.min(t1);
        let t_far = t0.max(t1);
        let t_enter = t_near.max_component();
        let t_exit = t_far.min_component();
        if t_enter <= t_exit {
            Some((t_enter, t_exit))
        } else {
            None
        }
    }

    /// OptiX-style ray–AABB intersection implementing both conditions of
    /// Section 2.2:
    ///
    /// * Condition 1: the slab hit interval intersects `[t_min, t_max]`;
    /// * Condition 2: the ray origin is inside the box (reported as a hit
    ///   even when the slab parameters fall outside the segment).
    #[inline]
    pub fn intersects_ray(&self, ray: &Ray) -> bool {
        if self.contains_point(ray.origin) {
            return true; // Condition 2
        }
        match self.slab_intersection(ray) {
            Some((t_enter, t_exit)) => t_enter <= ray.t_max && t_exit >= ray.t_min,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_construction() {
        let b = Aabb::cube(Vec3::new(1.0, 2.0, 3.0), 2.0);
        assert_eq!(b.min, Vec3::new(0.0, 1.0, 2.0));
        assert_eq!(b.max, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::splat(2.0));
        assert_eq!(b.surface_area(), 24.0);
        // Listing 1 semantics: AABB circumscribing the r-sphere has width 2r.
        assert_eq!(
            Aabb::cube(Vec3::ZERO, 2.0 * 0.5),
            Aabb::new(Vec3::splat(-0.5), Vec3::splat(0.5))
        );
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.surface_area(), 0.0);
        assert!(!e.contains_point(Vec3::ZERO));
        let mut g = e;
        g.grow_point(Vec3::new(1.0, 1.0, 1.0));
        assert!(!g.is_empty());
        assert_eq!(g.min, g.max);
    }

    #[test]
    fn from_points_bounds_everything() {
        let pts = [
            Vec3::new(-1.0, 0.0, 2.0),
            Vec3::new(3.0, -4.0, 1.0),
            Vec3::new(0.5, 2.0, -3.0),
        ];
        let b = Aabb::from_points(&pts);
        for p in pts {
            assert!(b.contains_point(p));
        }
        assert_eq!(b.min, Vec3::new(-1.0, -4.0, -3.0));
        assert_eq!(b.max, Vec3::new(3.0, 2.0, 2.0));
        assert!(Aabb::from_points(&[]).is_empty());
    }

    #[test]
    fn containment_and_union() {
        let big = Aabb::cube(Vec3::ZERO, 4.0);
        let small = Aabb::cube(Vec3::new(0.5, 0.5, 0.5), 1.0);
        let apart = Aabb::cube(Vec3::new(10.0, 0.0, 0.0), 1.0);
        assert!(big.contains_aabb(&small));
        assert!(!small.contains_aabb(&big));
        assert_eq!(big.union(&apart).max.x, 10.5);
    }

    #[test]
    fn distance_to_point() {
        let b = Aabb::cube(Vec3::ZERO, 2.0); // [-1,1]^3
        assert_eq!(b.distance_squared_to_point(Vec3::ZERO), 0.0);
        assert_eq!(b.distance_squared_to_point(Vec3::new(2.0, 0.0, 0.0)), 1.0);
        assert_eq!(b.distance_squared_to_point(Vec3::new(2.0, 2.0, 0.0)), 2.0);
    }

    #[test]
    fn condition1_long_ray_hits_box_ahead() {
        let b = Aabb::cube(Vec3::new(5.0, 0.0, 0.0), 2.0);
        let hit = Ray::new(Vec3::ZERO, Vec3::UNIT_X, 0.0, 100.0);
        let too_short = Ray::new(Vec3::ZERO, Vec3::UNIT_X, 0.0, 1.0);
        let behind = Ray::new(Vec3::ZERO, -Vec3::UNIT_X, 0.0, 100.0);
        assert!(b.intersects_ray(&hit));
        assert!(!b.intersects_ray(&too_short));
        assert!(!b.intersects_ray(&behind));
    }

    #[test]
    fn condition2_origin_inside_overrides_segment() {
        // The origin is inside the box but the short segment never reaches
        // the box faces: the paper still counts this as an intersection.
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let probe = Ray::point_probe(Vec3::new(0.25, -0.25, 0.1));
        assert!(b.intersects_ray(&probe));
        // And the same probe outside the box misses.
        let outside = Ray::point_probe(Vec3::new(5.0, 0.0, 0.0));
        assert!(!b.intersects_ray(&outside));
    }

    #[test]
    fn short_ray_equivalence_with_point_membership() {
        // For point-probe rays, intersects_ray must agree exactly with
        // contains_point — this equivalence is what makes the RTNN mapping
        // a neighbor search rather than a rendering pass.
        let b = Aabb::new(Vec3::new(-0.3, 0.1, -2.0), Vec3::new(1.7, 2.2, -0.5));
        let samples = [
            Vec3::new(0.0, 1.0, -1.0),
            Vec3::new(-0.31, 1.0, -1.0),
            Vec3::new(1.7, 2.2, -0.5),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.5, 0.2, -1.9),
        ];
        for q in samples {
            assert_eq!(
                b.intersects_ray(&Ray::point_probe(q)),
                b.contains_point(q),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn slab_interval_is_ordered() {
        let b = Aabb::cube(Vec3::new(3.0, 0.0, 0.0), 2.0);
        let r = Ray::unbounded(Vec3::ZERO, Vec3::UNIT_X);
        let (t0, t1) = b.slab_intersection(&r).unwrap();
        assert!(t0 <= t1);
        assert!((t0 - 2.0).abs() < 1e-6);
        assert!((t1 - 4.0).abs() < 1e-6);
        // Ray parallel to a slab and outside it misses.
        let miss = Ray::unbounded(Vec3::new(0.0, 10.0, 0.0), Vec3::UNIT_X);
        assert!(b.slab_intersection(&miss).is_none());
    }

    #[test]
    fn false_positive_scenario_from_figure_4c() {
        // A long ray from a far-away query still intersects the AABB even
        // though the query is not inside the sphere — the motivation for
        // short rays in Section 3.1.
        let point = Vec3::new(0.0, 0.0, 0.0);
        let r = 1.0;
        let aabb = Aabb::cube(point, 2.0 * r);
        let far_query = Vec3::new(-5.0, 0.9, 0.9); // outside the sphere
        let long_ray = Ray::new(far_query, Vec3::UNIT_X, 0.0, 100.0);
        let short_ray = Ray::point_probe(far_query);
        assert!(aabb.intersects_ray(&long_ray)); // false positive for step 1
        assert!(!aabb.intersects_ray(&short_ray)); // short ray avoids it
        assert!(far_query.distance_squared(point) > r * r);
    }
}
