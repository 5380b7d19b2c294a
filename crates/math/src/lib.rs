//! # rtnn-math
//!
//! Geometry substrate shared by every crate in the RTNN reproduction.
//!
//! The paper formulates neighbor search in low-dimensional (≤3D) Euclidean
//! space; everything here is specialised for that: a small `f32` 3-vector,
//! axis-aligned bounding boxes with the OptiX ray–AABB intersection
//! semantics (Section 2.2 of the paper, "Intersection Conditions"), spheres,
//! rays parameterised by `[t_min, t_max]`, 30-bit-per-axis Morton codes used
//! both by the LBVH builder and by the query-scheduling optimisation
//! (Section 4), and a uniform grid used by the megacell computation
//! (Section 5.1) and by the grid-based baselines.
//!
//! The crate is dependency-free and deterministic: no global state, no
//! platform intrinsics.

pub mod aabb;
pub mod grid;
pub mod morton;
pub mod ray;
pub mod sphere;
pub mod vec3;

pub use aabb::Aabb;
pub use grid::{GridCoord, PointBins, UniformGrid};
pub use morton::{morton3d, morton3d_u64, MortonKey};
pub use ray::Ray;
pub use sphere::Sphere;
pub use vec3::Vec3;

/// Convenience alias used across the workspace for point/primitive indices.
///
/// `u32` keeps hot arrays (BVH leaves, neighbor lists, permutations) compact;
/// the paper's largest input (KITTI-25M) fits comfortably.
pub type PointId = u32;
