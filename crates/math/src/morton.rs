//! Morton (Z-order) codes.
//!
//! Used in two places, matching the paper:
//!
//! * the LBVH builder in `rtnn-bvh` sorts primitive centroids by Morton code
//!   before emitting the hierarchy, and
//! * query scheduling (Section 4) sorts queries by the Morton code of their
//!   first-hit AABB centre so that adjacent rays are spatially close.
//!
//! Codes interleave 21 bits per axis (63-bit [`morton3d_u64`]), so
//! multi-million-point clouds do not alias.

use crate::{Aabb, Vec3};

/// The key type produced by [`MortonEncoder::encode`].
pub type MortonKey = u64;

/// Expand a 21-bit integer so its bits occupy every third position of a u64.
#[inline]
fn expand_bits_21(v: u64) -> u64 {
    let mut v = v & 0x1f_ffff;
    v = (v | (v << 32)) & 0x1f00000000ffff;
    v = (v | (v << 16)) & 0x1f0000ff0000ff;
    v = (v | (v << 8)) & 0x100f00f00f00f00f;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

/// 63-bit Morton code from normalised coordinates in `[0, 1]`.
///
/// Coordinates outside the unit cube are clamped.
#[inline]
pub fn morton3d_u64(x: f32, y: f32, z: f32) -> u64 {
    let scale = 2097152.0; // 2^21
    let xi = (x as f64 * scale).clamp(0.0, 2097151.0) as u64;
    let yi = (y as f64 * scale).clamp(0.0, 2097151.0) as u64;
    let zi = (z as f64 * scale).clamp(0.0, 2097151.0) as u64;
    (expand_bits_21(xi) << 2) | (expand_bits_21(yi) << 1) | expand_bits_21(zi)
}

/// Helper that normalises points into a scene bounding box before encoding.
#[derive(Debug, Clone, Copy)]
pub struct MortonEncoder {
    origin: Vec3,
    inv_extent: Vec3,
}

impl MortonEncoder {
    /// Build an encoder for points inside `bounds`. Degenerate (zero-extent)
    /// axes map to coordinate 0.
    pub fn new(bounds: &Aabb) -> Self {
        let e = bounds.extent();
        let inv = Vec3::new(
            if e.x > 0.0 { 1.0 / e.x } else { 0.0 },
            if e.y > 0.0 { 1.0 / e.y } else { 0.0 },
            if e.z > 0.0 { 1.0 / e.z } else { 0.0 },
        );
        MortonEncoder {
            origin: bounds.min,
            inv_extent: inv,
        }
    }

    /// Encode a point as a 63-bit Morton key.
    #[inline]
    pub fn encode(&self, p: Vec3) -> MortonKey {
        let n = (p - self.origin) * self.inv_extent;
        morton3d_u64(n.x, n.y, n.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_patterns() {
        assert_eq!(expand_bits_21(0b1), 0b1);
        assert_eq!(expand_bits_21(0b11), 0b1001);
        assert_eq!(expand_bits_21(0x1f_ffff).count_ones(), 21);
    }

    #[test]
    fn interleaving_is_injective_on_grid() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    let code = morton3d_u64(x as f32 / 8.0, y as f32 / 8.0, z as f32 / 8.0);
                    assert!(seen.insert(code), "collision at ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn z_order_groups_nearby_points() {
        // Points in the same octant share the top interleaved bits, so their
        // codes are closer to each other than to a point in a far octant.
        let a = morton3d_u64(0.1, 0.1, 0.1);
        let b = morton3d_u64(0.12, 0.11, 0.09);
        let c = morton3d_u64(0.9, 0.9, 0.9);
        assert!(a.abs_diff(b) < a.abs_diff(c));
        assert!((a ^ b).leading_zeros() > (a ^ c).leading_zeros());
    }

    #[test]
    fn clamping_out_of_range_inputs() {
        assert_eq!(morton3d_u64(-1.0, -5.0, -0.1), morton3d_u64(0.0, 0.0, 0.0));
        assert_eq!(morton3d_u64(2.0, 1.5, 7.0), morton3d_u64(1.0, 1.0, 1.0));
    }

    #[test]
    fn encoder_normalises_into_bounds() {
        let bounds = Aabb::new(Vec3::new(-10.0, 0.0, 5.0), Vec3::new(10.0, 20.0, 25.0));
        let enc = MortonEncoder::new(&bounds);
        let lo = enc.encode(bounds.min);
        let hi = enc.encode(bounds.max);
        let mid = enc.encode(bounds.center());
        assert_eq!(lo, 0);
        assert!(hi > mid && mid > lo);
    }

    #[test]
    fn encoder_handles_degenerate_axes() {
        // A planar cloud (all z equal) — common for the LiDAR-like dataset —
        // must not produce NaNs or panics.
        let bounds = Aabb::new(Vec3::new(0.0, 0.0, 1.0), Vec3::new(4.0, 4.0, 1.0));
        let enc = MortonEncoder::new(&bounds);
        let k = enc.encode(Vec3::new(2.0, 2.0, 1.0));
        assert!(k > 0);
    }
}
