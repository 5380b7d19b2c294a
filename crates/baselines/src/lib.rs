//! # rtnn-baselines
//!
//! The comparison systems of the paper's evaluation (Section 6.1), rebuilt
//! from scratch and charged to the *same* simulated GPU as RTNN so that the
//! speedup ratios of Figure 11 / 13 / 14 are internally consistent:
//!
//! * [`uniform_grid`] — cuNSearch-like fixed-radius search: points are
//!   counting-sorted into a uniform grid with cell size `r`; every query
//!   scans its 27 neighbouring cells in the two-pass (count, then fill)
//!   style of the CUDA library. Range search only, like the original.
//! * [`grid_knn`] — FRNN-like grid-based KNN: same grid, one pass, a bounded
//!   priority queue per query.
//! * [`octree`] — PCLOctree-like search: an octree over the points is
//!   traversed on the SMs (no RT cores). Range search with arbitrary `K`;
//!   KNN restricted to `K = 1` exactly like the PCL GPU octree.
//! * [`fastrnn`] — FastRNN: the RT-core mapping *without* RTNN's
//!   optimisations (query scheduling / partitioning / bundling), i.e. the
//!   `OptLevel::NoOpt` configuration of the `rtnn` crate, KNN only like the
//!   original.
//!
//! Every baseline returns a [`BaselineRun`] with the neighbor lists and the
//! simulated time split into build / search / transfer components, and every
//! baseline's results are validated in its tests against the ground truth,
//! the exhaustive scans of `rtnn::verify`.
//!
//! The crate also provides [`backend::BruteForceBackend`], an exhaustive
//! `rtnn::Backend` implementation that plugs the brute-force scan into the
//! engine's backend seam and doubles as the oracle of the cross-backend
//! equivalence suite, plus the O(n²) [`analytics_oracle`]s (exhaustive
//! DBSCAN and reverse k-NN) that `rtnn-analytics` is validated against.

pub mod analytics_oracle;
pub mod backend;
pub mod common;
pub mod fastrnn;
pub mod grid_knn;
pub mod octree;
pub mod uniform_grid;

pub use analytics_oracle::{dbscan_oracle, rknn_oracle};
pub use backend::BruteForceBackend;
pub use common::{Baseline, BaselineRun, SearchRequest};
