//! # rtnn-bvh
//!
//! Bounding Volume Hierarchy construction and traversal — the data structure
//! at the heart of the RTNN formulation (the paper's Section 2.2) and the
//! structure the simulated RT cores traverse.
//!
//! The real system delegates BVH construction to the (non-programmable)
//! OptiX runtime; here we provide four builders:
//!
//! * [`builder::BvhBuilder::Lbvh`] — Morton-sort + top-down split at the
//!   highest differing Morton bit, built by a staged *parallel* pipeline on
//!   the `rtnn-parallel` pool. Linear-ish in the number of primitives,
//!   which is the property Appendix B of the paper measures (Figure 15).
//!   This is the default builder and the one the `rtnn-optix` acceleration
//!   structure uses.
//! * [`builder::BvhBuilder::LbvhSerial`] — the fully serial LBVH reference
//!   path; the parallel pipeline is pinned bit-identical to it at every
//!   thread count.
//! * [`builder::BvhBuilder::MedianSplit`] — classic object-median split on
//!   the longest axis; slower to build, slightly better trees. Used by the
//!   PCLOctree-like baseline comparisons and by ablation benches.
//! * [`builder::BvhBuilder::BinnedSah`] — binned surface-area-heuristic
//!   builder; the highest quality trees, the slowest builds.
//!
//! Traversal implements the OptiX ray–AABB semantics (Conditions 1 and 2 of
//! the paper) and reports the per-ray statistics (nodes visited, primitive
//! AABBs tested) that the GPU simulator converts into cycles, cache traffic
//! and occupancy.

pub mod builder;
pub mod node;
pub mod refit;
pub mod stats;
pub mod threads;
pub mod traverse;
pub mod validate;

pub use builder::{
    build_bvh, build_bvh_profiled, build_point_bvh, build_point_bvh_profiled, BuildParams,
    BuildProfile, BvhBuilder,
};
pub use node::{Bvh, BvhNode, NodeKind};
pub use refit::{
    refit_bvh, refit_bvh_profiled, refit_bvh_serial, refit_bvh_with_cut, refit_point_bvh,
    RefitError, RefitStats, SahMonitor,
};
pub use stats::BvhStats;
pub use threads::BuildThreads;
pub use traverse::{AscendingSlots, TraversalControl, TraversalStats, VisitMarks};
pub use validate::{validate_bvh, BvhValidationError};
