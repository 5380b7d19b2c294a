//! The programmable shader interface (the OptiX shader binding table).
//!
//! A [`RayProgram`] supplies the stages of Figure 3 of the paper:
//!
//! * `ray_gen` — the RG shader: turns a launch index into a ray and its
//!   initial per-ray payload (RTNN's payload is the neighbor list / priority
//!   queue plus a hit counter). Returning `None` masks the lane out, which
//!   is how partial warps and inactive queries are expressed.
//! * `intersection` — the IS shader: called for every primitive whose AABB
//!   the ray intersects, with the ray's origin and the primitive's leaf
//!   record (its point and id), so a distance test reads nothing more.
//!   Its verdict distinguishes "not actually a neighbor"
//!   (sphere test failed), "neighbor recorded, keep going", and "neighbor
//!   recorded and the K-th one found, terminate the ray" — the latter is the
//!   AH-shader termination of Listing 1.
//! * `closest_hit` / `miss` — called once per ray after traversal, depending
//!   on whether any intersection was accepted.

use rtnn_bvh::LeafRecord;
use rtnn_math::{Ray, Vec3};

/// Verdict returned by the intersection shader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsVerdict {
    /// The primitive is not actually a hit (e.g. the sphere test failed);
    /// traversal continues. The IS call is still charged — this is exactly
    /// the "false positive" cost of long rays discussed in Section 3.1.
    Ignore,
    /// The primitive is a hit; record it and continue traversal.
    Accept,
    /// The primitive is a hit and the ray should stop (RTNN's AH shader
    /// terminating the ray once `K` neighbors are found).
    AcceptAndTerminate,
}

/// A shader binding: the user-programmable stages of one pipeline launch.
///
/// `Payload` is the per-ray mutable state threaded through the shaders and
/// returned from the launch (one per launch index).
pub trait RayProgram: Sync {
    /// Per-ray state.
    type Payload: Send + Default + Clone;

    /// RG shader: produce the ray and initial payload for `launch_index`, or
    /// `None` to leave the lane idle.
    fn ray_gen(&self, launch_index: u32) -> Option<(Ray, Self::Payload)>;

    /// IS shader: `prim` is the leaf record (point and id) of the primitive
    /// whose AABB the ray from `origin` intersected.
    fn intersection(
        &self,
        origin: Vec3,
        prim: &LeafRecord,
        payload: &mut Self::Payload,
    ) -> IsVerdict;

    /// CH shader: called after traversal if at least one intersection was
    /// accepted. Default: no-op.
    fn closest_hit(&self, _launch_index: u32, _payload: &mut Self::Payload) {}

    /// Miss shader: called after traversal if no intersection was accepted.
    /// Default: no-op.
    fn miss(&self, _launch_index: u32, _payload: &mut Self::Payload) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal program used to exercise the default shader bodies.
    struct CountingProgram;

    impl RayProgram for CountingProgram {
        type Payload = u32;
        fn ray_gen(&self, launch_index: u32) -> Option<(Ray, u32)> {
            if launch_index.is_multiple_of(2) {
                Some((Ray::point_probe(Vec3::ZERO), 0))
            } else {
                None
            }
        }
        fn intersection(&self, _: Vec3, _: &LeafRecord, payload: &mut u32) -> IsVerdict {
            *payload += 1;
            if *payload >= 3 {
                IsVerdict::AcceptAndTerminate
            } else {
                IsVerdict::Accept
            }
        }
    }

    #[test]
    fn ray_gen_can_mask_lanes() {
        let p = CountingProgram;
        assert!(p.ray_gen(0).is_some());
        assert!(p.ray_gen(1).is_none());
    }

    #[test]
    fn default_ch_and_miss_are_noops() {
        let p = CountingProgram;
        let mut payload = 7u32;
        p.closest_hit(0, &mut payload);
        p.miss(0, &mut payload);
        assert_eq!(payload, 7);
    }

    #[test]
    fn intersection_verdicts() {
        let p = CountingProgram;
        let mut payload = 0u32;
        let prim = |id| LeafRecord {
            point: Vec3::ZERO,
            id,
        };
        assert_eq!(
            p.intersection(Vec3::ZERO, &prim(0), &mut payload),
            IsVerdict::Accept
        );
        assert_eq!(
            p.intersection(Vec3::ZERO, &prim(1), &mut payload),
            IsVerdict::Accept
        );
        assert_eq!(
            p.intersection(Vec3::ZERO, &prim(2), &mut payload),
            IsVerdict::AcceptAndTerminate
        );
        assert_eq!(payload, 3);
    }
}
