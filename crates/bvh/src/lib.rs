//! # rtnn-bvh
//!
//! Bounding Volume Hierarchy construction and traversal — the data structure
//! at the heart of the RTNN formulation (the paper's Section 2.2) and the
//! structure the simulated RT cores traverse.
//!
//! The real system delegates BVH construction to the (non-programmable)
//! OptiX runtime; here one builder stands in for it, with two paths:
//!
//! * [`builder::BvhBuilder::Lbvh`] — Morton-sort + top-down split at the
//!   highest differing Morton bit, built by a staged *parallel* pipeline on
//!   the `rtnn-parallel` pool. Linear-ish in the number of primitives,
//!   which is the property Appendix B of the paper measures (Figure 15).
//!   This is the default and the path every structure in the workspace is
//!   built with.
//! * [`builder::BvhBuilder::LbvhSerial`] — the fully serial LBVH, kept as
//!   the oracle: the parallel pipeline is pinned bit-identical to it at
//!   every thread count.
//!
//! Every tree is a point BVH over `{point, id}` leaf records ([`node`]).
//!
//! The refit ([`refit::refit_point_bvh`]) has the same pair: an in-place
//! path that writes each leaf record's new point straight into the tree,
//! and the serial oracle it matches bit for bit. The builders lay nodes
//! out in preorder, so each subtree below a cut depth is one contiguous
//! run of the node array, which a pool worker refits in place by sweeping
//! it from its last node to its first; a small tree or a one-thread pool
//! sweeps the whole array as one run.
//! Neither reports host timings to its callers; what a build or refit
//! costs on the simulated device is the `rtnn-gpusim` model's business.
//!
//! Traversal implements the OptiX ray–AABB semantics (Conditions 1 and 2 of
//! the paper), hands the IS shader the hit record's point and id, and
//! reports the per-ray statistics (nodes visited, primitive cubes tested)
//! that the GPU simulator converts into cycles, cache traffic and
//! occupancy.

pub mod builder;
pub mod node;
pub mod refit;
pub mod stats;
pub mod traverse;
pub mod validate;

pub use builder::{build_point_bvh, BuildParams, BvhBuilder};
pub use node::{Bvh, BvhNode, LeafRecord, NodeKind};
pub use refit::{refit_bvh_serial, refit_bvh_with_cut, refit_point_bvh, RefitError, RefitStats};
pub use traverse::{AscendingSlots, SlotSet, TraversalControl, TraversalStats, VisitMarks};
pub use validate::{validate_bvh, BvhValidationError};
