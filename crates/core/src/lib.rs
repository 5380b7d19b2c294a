//! # rtnn
//!
//! RTNN: neighbor search (fixed-radius and K-nearest-neighbor) formulated as
//! hardware-accelerated ray casting, reproducing Zhu, *"RTNN: Accelerating
//! Neighbor Search Using Hardware Ray Tracing"*, PPoPP 2022.
//!
//! The library runs on the simulated Turing-class GPU provided by
//! `rtnn-gpusim` through the OptiX-like pipeline of `rtnn-optix`; on that
//! substrate it implements the paper's three layers:
//!
//! 1. **The basic mapping** (Section 3.1): every search point becomes an
//!    AABB of width `2r` circumscribing its `r`-sphere, a BVH is built over
//!    those AABBs, and every query casts a degenerate short ray from its
//!    position. Traversal prunes points whose AABB does not contain the
//!    query (step 1, RT cores); the IS shader performs the sphere test and
//!    records neighbors (step 2, SMs), terminating the ray once `K`
//!    neighbors are found for range search or maintaining a bounded
//!    priority queue for KNN.
//! 2. **Query scheduling** (Section 4): a truncated first-hit launch
//!    associates each query with one enclosing leaf AABB; sorting queries by
//!    the Morton code of that AABB's centre makes adjacent rays spatially
//!    close, taming warp divergence and cache misses.
//! 3. **Query partitioning and bundling** (Section 5): a uniform grid over
//!    the points lets each query grow a *megacell* until it provably
//!    contains enough neighbors; queries with similar megacell sizes share a
//!    partition whose BVH uses the smallest safe AABB width, and an
//!    analytical cost model bundles partitions so that BVH-construction
//!    overhead never outweighs the traversal savings.
//!
//! ## The two-level API
//!
//! Scene-side state and per-query parameters are decoupled: build an
//! [`Index`] once over the points, then answer typed [`QueryPlan`]s
//! against it — different radii, Ks and variants, even a heterogeneous
//! [`QueryPlan::Batch`] in one call — on a pluggable [`Backend`]
//! ([`GpusimBackend`] by default, [`OptixBackend`] as the real-hardware
//! shim, `BruteForceBackend` in `rtnn-baselines` as the oracle).
//!
//! ```
//! use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
//! use rtnn_gpusim::Device;
//! use rtnn_math::Vec3;
//!
//! let device = Device::rtx_2080();
//! let backend = GpusimBackend::new(&device);
//! let points: Vec<Vec3> = (0..1000)
//!     .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
//!     .collect();
//! let queries = points.clone();
//!
//! // One index, many plans: the structures the first plan builds are
//! // cached and reused by every later plan.
//! let mut index = Index::build(&backend, &points[..], EngineConfig::default());
//! let knn = index.query(&queries, &QueryPlan::knn(1.5, 8)).unwrap();
//! let rng = index.query(&queries, &QueryPlan::range(0.8, 32)).unwrap();
//! assert_eq!(knn.neighbors.len(), queries.len());
//! assert!(knn.breakdown.total_ms() > 0.0);
//! assert_eq!(rng.neighbors.len(), queries.len());
//! ```
//!
//! A single plan is a one-slice batch: every call, whatever its plan,
//! runs through the same driver and staged [`pipeline`].

pub mod approx;
pub mod autotune;
pub mod backend;
pub mod bundling;
pub mod cost_model;
pub mod engine;
pub mod index;
pub mod megacell;
pub mod partition;
pub mod pipeline;
pub mod plan;
pub mod result;
pub mod scheduling;
pub mod shaders;
pub mod verify;

pub use approx::ApproxMode;
pub use autotune::{AutoTuner, DecisionSource, TunerDecision, TunerReport, Tuning};
pub use backend::{
    exhaustive_traverse, Accel, AccelRef, Backend, GpusimBackend, OptixBackend, RefitOutcome,
    Traversal, TraversalJob, TraversalKind,
};
pub use bundling::{apply_bundles, plan_bundles, BundlePlan};
pub use cost_model::CostCoefficients;
pub use engine::{OptLevel, RtnnConfig, SearchError};
pub use index::{AdoptedScene, EngineConfig, Index};
pub use megacell::{GridRefresh, MegacellGrid, MegacellResult};
pub use partition::{KnnAabbRule, MegacellCache, Partition, PartitionSet};
pub use pipeline::{PipelineTrace, StageKind, StageOverrides, StageTiming};
pub use plan::{PlanError, PlanSlice, QueryPlan};
pub use result::{SearchMode, SearchParams, SearchResults, ShardMerge, TimeBreakdown};
pub use rtnn_gpusim::StructureTiming;
pub use rtnn_optix::LaunchMetrics;
pub use rtnn_telemetry as telemetry;
pub use scheduling::{raster_order, schedule_queries, schedule_queries_on, QuerySchedule};
