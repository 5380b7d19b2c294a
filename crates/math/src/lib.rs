//! # rtnn-math
//!
//! Geometry substrate shared by every crate in the RTNN reproduction.
//!
//! The paper formulates neighbor search in low-dimensional (≤3D) Euclidean
//! space; everything here is specialised for that: a small `f32` 3-vector,
//! axis-aligned bounding boxes with the OptiX ray–AABB intersection
//! semantics (Section 2.2 of the paper, "Intersection Conditions"), rays
//! parameterised by `[t_min, t_max]`, 63-bit Morton codes (21 bits per
//! axis) used both by the LBVH builder and by the query-scheduling
//! optimisation (Section 4), and a uniform grid used by the megacell
//! computation (Section 5.1) and by the grid-based baselines.
//!
//! The crate is dependency-free and deterministic: no global state, no
//! platform intrinsics.

pub mod aabb;
pub mod grid;
pub mod morton;
pub mod ray;
pub mod vec3;

pub use aabb::Aabb;
pub use grid::{GridCoord, PointBins, UniformGrid};
pub use morton::{morton3d_u64, MortonKey};
pub use ray::Ray;
pub use vec3::Vec3;
