//! # rtnn-optix
//!
//! An OptiX-like ray-casting programming model on top of the simulated GPU
//! (`rtnn-gpusim`) and the BVH substrate (`rtnn-bvh`).
//!
//! The real RTNN is written against OptiX 7.1: it builds a geometry
//! acceleration structure (GAS) over per-point AABB primitives, then
//! launches a pipeline whose programmable stages — Ray Generation (RG),
//! Intersection (IS), Any-Hit (AH), Closest-Hit (CH) and Miss shaders — are
//! compiled into one CUDA kernel, one ray per thread, with BVH traversal
//! accelerated by the RT cores (the paper's Figure 3).
//!
//! This crate reproduces that model:
//!
//! * [`Accel`] is the acceleration structure, from build to traversal: it
//!   owns a BVH over width-`w` cubes centred at the points and carries the
//!   simulated build time (linear in the primitive count); it refits in
//!   place when the points move. The brute-force oracle's flat handle
//!   records only the point count.
//! * [`RayProgram`] is the shader binding table: user code implements
//!   `ray_gen` / `intersection` / `closest_hit` / `miss`, and terminates
//!   rays from the IS shader exactly the way RTNN's AH shader does.
//! * [`Pipeline::launch`] maps launch indices to rays, groups 32 consecutive
//!   rays into a warp (the property the query-scheduling optimisation of
//!   Section 4 exploits), traverses the BVH for each ray, and charges the
//!   traversal, shader and memory work to the simulated device, sized by
//!   the distinct BVH slots the warp's rays read (see [`pipeline`]).

pub mod accel;
pub mod pipeline;
pub mod shader;

pub use accel::{Accel, RefitOutcome};
pub use pipeline::{LaunchMetrics, LaunchResult, Pipeline};
pub use shader::{IsVerdict, RayProgram};
