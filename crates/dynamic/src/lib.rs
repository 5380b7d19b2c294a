//! # rtnn-dynamic
//!
//! The streaming-scene subsystem: neighbor search over point clouds that
//! *change between query rounds* — SPH particles settling, N-body galaxies
//! orbiting, LiDAR sweeps advancing — without paying the full batch-engine
//! setup cost (BVH build, megacell grid, partitioning) every frame.
//!
//! The paper builds its acceleration structures once per query batch and
//! leaves dynamic scenes as future work; follow-ups (*RT-kNNS Unbound*,
//! *Advancing RT Core-Accelerated Fixed-Radius Nearest Neighbor Search*)
//! show that amortizing structure construction across query rounds is where
//! real deployments win. This crate provides:
//!
//! * [`DynamicIndex`] — a persistent index over a point cloud with stable
//!   point handles: points can be inserted, removed and moved between
//!   query rounds, and every round returns results **bit-equal** (as
//!   neighbor sets) to rebuilding everything from scratch.
//! * An in-place **refit** path: when points merely move, the global BVH's
//!   AABBs are recomputed bottom-up (`rtnn_bvh::refit`) instead of
//!   re-topologized — roughly `accel_refit_speedup`× cheaper on the
//!   simulated device — and the megacell grid absorbs the motion in place,
//!   refilling its count table only when a point changes cell. Megacells
//!   are grown afresh at every search, as in the paper's static pipeline.
//! * A **refit-vs-rebuild policy** ([`RebuildPolicy`]) driven by the
//!   execution backend's structure timing (`rtnn::Backend::timing`):
//!   refitting degrades tree quality (the refitted tree's SAH cost over the
//!   built one's measures by how much), so each frame the policy compares
//!   the predicted traversal
//!   penalty of keeping the refitted tree against the backend-reported
//!   rebuild premium and picks whichever is faster. Structural changes
//!   (insert/remove) always rebuild — a refit cannot re-topologize.
//! * A per-frame **[`Index`](rtnn::Index) view** ([`DynamicIndex::as_index`]):
//!   heterogeneous `rtnn::QueryPlan`s (other radii, Ks, batches) run
//!   against the maintained structures without rebuilding anything, with
//!   neighbor ids translated back to stable handles.
//!
//! ## Host cost per frame
//!
//! A mutation is O(1) and allocation-free once the index has reached its
//! size: [`DynamicIndex::move_point`] sets the handle's bit in an
//! [`rtnn_bvh::SlotSet`] (listing the bitset word on its first mark) and
//! [`DynamicIndex::remove`] clears a liveness flag. The next frame visits
//! the moved handles in ascending order, so its upkeep grows with the
//! moved points (finiteness check, compact copy, grid rebinning) and with
//! the tree's nodes (the refit writes every leaf slot's cube and
//! recomputes every node box, on the worker pool for trees of 4,096 nodes
//! or more), plus a grid refill when points
//! change cell or a grid rebuild when one leaves the grid. An insert or a
//! removal makes the next frame rebuild from every live point.
//!
//! ## Quick start
//!
//! ```
//! use rtnn::{RtnnConfig, SearchParams};
//! use rtnn_dynamic::DynamicIndex;
//! use rtnn_gpusim::Device;
//! use rtnn_math::Vec3;
//!
//! let device = Device::rtx_2080();
//! let points: Vec<Vec3> = (0..500)
//!     .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
//!     .collect();
//! let config = RtnnConfig::new(SearchParams::knn(1.5, 8));
//! let mut index = DynamicIndex::with_points(&device, config, &points);
//!
//! for _frame in 0..3 {
//!     // Drift every point a little, then query the moved cloud.
//!     for handle in 0..points.len() as u32 {
//!         let p = index.position(handle).unwrap();
//!         index.move_point(handle, p + Vec3::new(0.01, 0.0, 0.0));
//!     }
//!     let queries: Vec<Vec3> = (0..points.len() as u32)
//!         .filter_map(|h| index.position(h))
//!         .collect();
//!     let frame = index.search(&queries).unwrap();
//!     assert_eq!(frame.results.neighbors.len(), queries.len());
//! }
//! // Pure motion never needs more rebuilds than frames — the whole point.
//! assert!(index.frame_metrics().rebuilds < index.frame_metrics().frames);
//! ```

pub mod index;
pub mod policy;

pub use index::{DynamicIndex, FrameIndex, FrameResult, StructureAction};
pub use policy::{PolicyMode, RebuildPolicy};
