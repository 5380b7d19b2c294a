//! The swappable pipeline stages: a small trait per stage, the default
//! implementations the optimisation levels map onto, and the contexts the
//! driver hands them.
//!
//! Every default implementation reproduces the corresponding block of the
//! pre-pipeline monolithic `Index::query` *exactly* — same kernels charged
//! in the same order over the same query orderings — which is what keeps
//! the staged execution bit-equal to the historical results.

use crate::backend::{Backend, Traversal, TraversalJob, TraversalKind};
use crate::bundling::{apply_bundles, plan_bundles};
use crate::cost_model::CostCoefficients;
use crate::engine::SearchError;
use crate::index::{AccelStore, EngineConfig};
use crate::megacell::MegacellGrid;
use crate::partition::{
    partition_queries, partition_queries_cached, partition_queries_on_grid, MegacellCache,
    Partition,
};
use crate::pipeline::ir::{GatheredHits, LaunchRecord, LaunchSet, PartitionedQueries};
use crate::result::{SearchMode, SearchParams, TimeBreakdown};
use crate::scheduling::{anchor_keys, charge_sort_kernel, QuerySchedule};
use rtnn_gpusim::KernelMetrics;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::{AccelRef, LaunchMetrics};
use rtnn_parallel::par_sort_by_key;

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

/// What the `Schedule` stage sees: the launched query ids (in pre-schedule
/// order) and the structure a coherence pass may traverse.
pub struct ScheduleCx<'r> {
    /// The execution backend.
    pub backend: &'r dyn Backend,
    /// The structure the first-hit pass traverses (the widest one the call
    /// uses). The driver supplies it exactly when the stage's
    /// [`needs_structure`](ScheduleStage::needs_structure) is true, so no
    /// structure is built for a stage that never traverses one.
    pub accel: Option<AccelRef<'r>>,
    /// Search points.
    pub points: &'r [Vec3],
    /// All query positions (indexed by query id).
    pub queries: &'r [Vec3],
    /// The query ids this execution launches, in pre-schedule order (all of
    /// `0..queries.len()` for a single plan; the covered ids of a batch).
    pub query_ids: &'r [u32],
}

/// The `Schedule` stage: decide the launch order of the queries.
///
/// Implementations must return a [`QuerySchedule`] whose `order` is a
/// permutation of `cx.query_ids` — every launched query exactly once.
pub trait ScheduleStage: Sync {
    /// Produce the launch order (plus the metrics of whatever passes were
    /// run to derive it).
    fn schedule(&self, cx: &ScheduleCx<'_>) -> QuerySchedule;

    /// Whether this stage traverses an acceleration structure
    /// ([`ScheduleCx::accel`]). Stages that only permute ids return
    /// `false` so the driver does not build (and bill) a coherence
    /// structure no one will traverse.
    fn needs_structure(&self) -> bool {
        true
    }
}

/// The paper's coherence schedule (Section 4): a truncated first-hit launch
/// anchors every query to an enclosing leaf AABB, and the queries are
/// sorted by the Morton code of that anchor. The default when the
/// optimisation level enables scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoherenceSchedule;

impl ScheduleStage for CoherenceSchedule {
    fn schedule(&self, cx: &ScheduleCx<'_>) -> QuerySchedule {
        if cx.query_ids.is_empty() {
            return QuerySchedule::identity(0);
        }
        let accel = cx
            .accel
            .expect("driver supplies a structure when needs_structure() is true");
        // 1. First-hit launch: K = 1, terminate at the first IS call.
        let fs = cx.backend.traverse(
            accel,
            &TraversalJob {
                points: cx.points,
                queries: cx.queries,
                query_ids: cx.query_ids,
                kind: TraversalKind::FirstHit,
            },
        );

        // 2. Morton keys of the first-hit anchors, spread back over query
        //    ids (queries with no hit use their own position).
        let keys = anchor_keys(cx.points, cx.queries, cx.query_ids, &fs.payloads);
        let mut key_of: Vec<u64> = vec![0; cx.queries.len()];
        for (i, &qid) in cx.query_ids.iter().enumerate() {
            key_of[qid as usize] = keys[i];
        }

        // 3. Sort the launched ids by key, charged to the device as one
        //    sort kernel over the launched count.
        let sort_metrics = charge_sort_kernel(cx.backend.device(), cx.query_ids.len());
        let mut order = cx.query_ids.to_vec();
        par_sort_by_key(&mut order, |&q| (key_of[q as usize], q));

        QuerySchedule {
            order,
            fs_metrics: fs.metrics,
            sort_metrics,
        }
    }
}

/// The identity schedule: launch queries in input order, free of charge.
/// The default when scheduling is disabled, and the
/// [`StageOverrides::without_reordering`](crate::pipeline::StageOverrides::without_reordering)
/// override.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentitySchedule;

impl ScheduleStage for IdentitySchedule {
    fn schedule(&self, cx: &ScheduleCx<'_>) -> QuerySchedule {
        QuerySchedule {
            order: cx.query_ids.to_vec(),
            fs_metrics: LaunchMetrics::default(),
            sort_metrics: KernelMetrics::default(),
        }
    }

    fn needs_structure(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// What the `Partition` stage sees: the scheduled order plus the megacell
/// state the persistent index maintains.
pub struct PartitionCx<'r> {
    /// The execution backend (partition kernels are charged to its device).
    pub backend: &'r dyn Backend,
    /// Engine-wide tuning (KNN rule, approximation mode, grid budget).
    pub config: &'r EngineConfig,
    /// The search parameters of the plan (slice) being partitioned.
    pub params: SearchParams,
    /// Search points.
    pub points: &'r [Vec3],
    /// All query positions (indexed by query id).
    pub queries: &'r [Vec3],
    /// The launched query ids in scheduled order.
    pub order: &'r [u32],
    /// Prebuilt megacell grid over the points, if the caller maintains one.
    pub grid: Option<&'r MegacellGrid>,
    /// Bounds of grid cells whose population changed since the cache
    /// entries were written.
    pub dirty_region: &'r Aabb,
    /// Per-query megacell cache, updated in place across frames.
    pub cache: Option<&'r mut MegacellCache>,
}

/// The `Partition` stage: split the scheduled queries into partitions, each
/// with the smallest safe AABB width (Section 5).
pub trait PartitionStage: Sync {
    /// Produce the partitions the `Launch` stage will traverse.
    fn partition(&self, cx: PartitionCx<'_>) -> PartitionedQueries;

    /// Whether this stage reads the persistent megacell grid
    /// ([`PartitionCx::grid`]). The driver provisions (and lazily builds)
    /// the index's cached grid exactly when the *resolved* stage wants it,
    /// so disabling partitioning per call skips the grid build and
    /// enabling it per call on a no-partitioning engine still hits the
    /// persistent cache.
    fn wants_grid(&self) -> bool {
        true
    }
}

/// The paper's megacell partitioning (Section 5.1), optionally followed by
/// cost-model bundling (Section 5.2). The default when the optimisation
/// level enables partitioning.
#[derive(Debug, Clone, Copy)]
pub struct MegacellPartition {
    /// Whether to bundle partitions with the analytical cost model.
    pub bundle: bool,
}

impl PartitionStage for MegacellPartition {
    fn partition(&self, cx: PartitionCx<'_>) -> PartitionedQueries {
        let device = cx.backend.device();
        let set = match (cx.grid, cx.cache) {
            (Some(g), Some(c)) => partition_queries_cached(
                device,
                cx.queries,
                cx.order,
                &cx.params,
                cx.config.knn_rule,
                g,
                cx.dirty_region,
                c,
            ),
            (Some(g), None) => partition_queries_on_grid(
                device,
                g,
                cx.queries,
                cx.order,
                &cx.params,
                cx.config.knn_rule,
            ),
            (None, _) => partition_queries(
                device,
                cx.points,
                cx.queries,
                cx.order,
                &cx.params,
                cx.config.knn_rule,
                cx.config.grid_max_cells,
            ),
        };
        let num_partitions = set.partitions.len();
        let partitions = if self.bundle {
            let coeffs = CostCoefficients::calibrate(device);
            let plan = plan_bundles(&set.partitions, cx.points.len(), &cx.params, &coeffs);
            apply_bundles(&set.partitions, &plan, &cx.params)
        } else {
            set.partitions
        };
        PartitionedQueries {
            num_partitions,
            num_bundles: partitions.len(),
            partitions,
            opt_metrics: set.opt_metrics,
        }
    }
}

/// No partitioning: every query in one partition at the full `2r` AABB
/// width. The default when partitioning is disabled, and the
/// [`StageOverrides::without_partitioning`](crate::pipeline::StageOverrides::without_partitioning)
/// override.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinglePartition;

impl PartitionStage for SinglePartition {
    fn partition(&self, cx: PartitionCx<'_>) -> PartitionedQueries {
        let full_width = cx.config.aabb_width(cx.params.radius);
        PartitionedQueries {
            partitions: vec![Partition {
                aabb_width: full_width,
                query_ids: cx.order.to_vec(),
                megacell_width: full_width,
                sphere_test: !cx.config.approx.skip_sphere_test(),
                density: 0.0,
            }],
            num_partitions: 1,
            num_bundles: 1,
            opt_metrics: KernelMetrics::default(),
        }
    }

    fn wants_grid(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Launch
// ---------------------------------------------------------------------------

/// What the `Launch` stage sees. The width-keyed structure store and the
/// metric accumulators stay encapsulated: a stage traverses partitions
/// through [`LaunchCx::traverse_partition`], which picks (and builds, on a
/// miss) the right structure and charges the breakdown.
pub struct LaunchCx<'r, 's> {
    pub(crate) backend: &'r dyn Backend,
    pub(crate) config: &'r EngineConfig,
    pub(crate) params: SearchParams,
    pub(crate) points: &'r [Vec3],
    pub(crate) queries: &'r [Vec3],
    pub(crate) store: &'r mut AccelStore<'s>,
    /// Store id of the global (full-width) structure.
    pub(crate) global: usize,
    pub(crate) breakdown: &'r mut TimeBreakdown,
    pub(crate) search_metrics: &'r mut LaunchMetrics,
}

impl LaunchCx<'_, '_> {
    /// The execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend
    }

    /// Engine-wide tuning.
    pub fn config(&self) -> &EngineConfig {
        self.config
    }

    /// The search parameters of the plan (slice) being launched.
    pub fn params(&self) -> SearchParams {
        self.params
    }

    /// Traverse one partition with its own acceleration structure (cached
    /// by width in the store, falling back to the global structure for
    /// full-width partitions), charging the structure build and search time
    /// to the breakdown and merging the launch metrics.
    pub fn traverse_partition(&mut self, part: &Partition) -> Result<Traversal, SearchError> {
        let full_width = self.config.aabb_width(self.params.radius);
        let reuse_global = (part.aabb_width - full_width).abs() <= f32::EPSILON * full_width;
        let aid = if reuse_global {
            self.global
        } else {
            let eff_width = part.aabb_width * self.config.approx.aabb_width_factor().min(1.0);
            let (aid, built_ms) =
                self.store
                    .ensure(self.backend, self.points, eff_width, self.config.build)?;
            self.breakdown.bvh_ms += built_ms;
            aid
        };

        let sphere_test = part.sphere_test && !self.config.approx.skip_sphere_test();
        let kind = match self.params.mode {
            SearchMode::Range => TraversalKind::Range {
                radius: self.params.radius,
                cap: self.params.k,
                sphere_test,
            },
            SearchMode::Knn => TraversalKind::Knn {
                radius: self.params.radius,
                k: self.params.k,
            },
        };
        let traversal = self.backend.traverse(
            self.store.accel_ref(aid),
            &TraversalJob {
                points: self.points,
                queries: self.queries,
                query_ids: &part.query_ids,
                kind,
            },
        );
        self.breakdown.search_ms += traversal.metrics.time_ms();
        self.search_metrics.merge_sequential(&traversal.metrics);
        Ok(traversal)
    }
}

/// The `Launch` stage: run the search traversals over the partitions.
pub trait LaunchStage: Sync {
    /// Traverse every (non-empty) partition, producing one launch record
    /// per traversal.
    fn launch(
        &self,
        cx: &mut LaunchCx<'_, '_>,
        parts: &PartitionedQueries,
    ) -> Result<LaunchSet, SearchError>;
}

/// The default launch: one traversal per non-empty partition, in partition
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchLaunch;

impl LaunchStage for SearchLaunch {
    fn launch(
        &self,
        cx: &mut LaunchCx<'_, '_>,
        parts: &PartitionedQueries,
    ) -> Result<LaunchSet, SearchError> {
        let mut launches = Vec::new();
        for (pi, part) in parts.partitions.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let traversal = cx.traverse_partition(part)?;
            launches.push(LaunchRecord {
                partition: pi,
                payloads: traversal.payloads,
                metrics: traversal.metrics,
            });
        }
        Ok(LaunchSet { launches })
    }
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

/// The `Gather` stage: scatter per-launch payloads back into per-query
/// neighbor lists (in original query-id order).
pub trait GatherStage: Sync {
    /// Fill `out.neighbors` from the launch payloads. Queries no launch
    /// covered keep their current (empty) list.
    fn gather(&self, parts: &PartitionedQueries, launches: LaunchSet, out: &mut GatheredHits);
}

/// The default gather: `payloads[i]` of a launch answers the partition's
/// `query_ids[i]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScatterGather;

impl GatherStage for ScatterGather {
    fn gather(&self, parts: &PartitionedQueries, launches: LaunchSet, out: &mut GatheredHits) {
        for launch in launches.launches {
            let ids = &parts.partitions[launch.partition].query_ids;
            for (launch_idx, payload) in launch.payloads.into_iter().enumerate() {
                out.neighbors[ids[launch_idx] as usize] = payload;
            }
        }
    }
}
