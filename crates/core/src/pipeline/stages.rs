//! The two passes RTNN runs before the search, as closed choices:
//! [`Schedule`] (query reordering, Section 4) and [`Partitioning`]
//! (megacell partitioning with optional bundling, Section 5), the contexts
//! the driver hands them, and the partitioned-query IR the `Launch` step
//! consumes. (`Launch` and `Gather` are fixed steps of the driver in
//! [`crate::index`].)

use crate::backend::{Backend, TraversalJob, TraversalKind};
use crate::bundling::{apply_bundles, plan_bundles};
use crate::cost_model::CostCoefficients;
use crate::index::EngineConfig;
use crate::megacell::MegacellGrid;
use crate::partition::{partition_queries, MegacellCache, Partition};
use crate::result::SearchParams;
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
    /// uses). The driver supplies it exactly when the schedule's
    /// [`needs_structure`](Schedule::needs_structure) is true, so no
    /// structure is built for a schedule that never traverses one.
    pub accel: Option<AccelRef<'r>>,
    /// Search points.
    pub points: &'r [Vec3],
    /// The bounds of `points` ([`Aabb::from_points`]); the driver keeps
    /// them from its one scan of the points, so no call folds them again.
    pub point_bounds: Aabb,
    /// All query positions (indexed by query id).
    pub queries: &'r [Vec3],
    /// The query ids this execution launches, in pre-schedule order (all of
    /// `0..queries.len()` for a single plan; the covered ids of a batch).
    pub query_ids: &'r [u32],
}

/// The `Schedule` stage: decide the launch order of the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Launch queries in input order, free of charge. What the optimisation
    /// level picks when scheduling is disabled, and the
    /// [`StageOverrides::without_reordering`](crate::pipeline::StageOverrides::without_reordering)
    /// override.
    Identity,
    /// The paper's coherence schedule (Section 4): a truncated first-hit
    /// launch anchors every query to an enclosing leaf AABB, and the
    /// queries are sorted by the Morton code of that anchor. What the
    /// optimisation level picks when scheduling is enabled.
    Coherence,
}

impl Schedule {
    /// Produce the launch order, a permutation of `cx.query_ids` (every
    /// launched query exactly once), plus the metrics of whatever passes
    /// were run to derive it.
    pub fn run(self, cx: &ScheduleCx<'_>) -> QuerySchedule {
        match self {
            Schedule::Identity => QuerySchedule {
                order: cx.query_ids.to_vec(),
                fs_metrics: LaunchMetrics::default(),
                sort_metrics: KernelMetrics::default(),
            },
            Schedule::Coherence => {
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

                // 2. Morton keys of the first-hit anchors, spread back over
                //    query ids (queries with no hit use their own position).
                let keys = anchor_keys(cx, &fs.payloads);
                let mut key_of: Vec<u64> = vec![0; cx.queries.len()];
                for (i, &qid) in cx.query_ids.iter().enumerate() {
                    key_of[qid as usize] = keys[i];
                }

                // 3. Sort the launched ids by key, charged to the device as
                //    one sort kernel over the launched count.
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
    }

    /// Whether this schedule traverses an acceleration structure
    /// ([`ScheduleCx::accel`]). The identity schedule only permutes ids, so
    /// the driver builds (and bills) no coherence structure for it.
    pub fn needs_structure(self) -> bool {
        matches!(self, Schedule::Coherence)
    }
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// The outcome of the `Partition` stage: the query set split into
/// partitions (already bundled when bundling is enabled), plus the
/// pre-bundling partition count and the simulated cost of the megacell
/// kernel that derived them.
#[derive(Debug, Clone)]
pub(crate) struct PartitionedQueries {
    /// The partitions `Launch` traverses, in ascending AABB-width order
    /// (one full-width partition when partitioning is disabled).
    pub partitions: Vec<Partition>,
    /// Partition count *before* bundling (what `SearchResults::num_partitions`
    /// reports).
    pub num_partitions: usize,
    /// Partition count after bundling (`partitions.len()`).
    pub num_bundles: usize,
    /// Simulated cost of the megacell kernel (part of the `Opt` breakdown
    /// component; zero when partitioning is disabled).
    pub opt_metrics: KernelMetrics,
}

/// What the `Partition` stage sees: the scheduled order plus the megacell
/// state the persistent index maintains.
pub(crate) struct PartitionCx<'r> {
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
    /// The megacell grid over the points. The driver supplies it exactly
    /// when the partitioning's [`wants_grid`](Partitioning::wants_grid) is
    /// true (a stage runs only over a scene with points, so the grid
    /// exists).
    pub grid: Option<&'r MegacellGrid>,
    /// Bounds of grid cells whose population changed since the cache
    /// entries were written.
    pub dirty_region: &'r Aabb,
    /// Per-query megacell cache, updated in place across frames.
    pub cache: Option<&'r mut MegacellCache>,
}

/// The `Partition` stage: split the scheduled queries into partitions, each
/// with the smallest safe AABB width (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// No partitioning: every query in one partition at the full `2r` AABB
    /// width. What the optimisation level picks when partitioning is
    /// disabled, and the
    /// [`StageOverrides::without_partitioning`](crate::pipeline::StageOverrides::without_partitioning)
    /// override.
    Single,
    /// The paper's megacell partitioning (Section 5.1), optionally followed
    /// by cost-model bundling (Section 5.2). What the optimisation level
    /// picks when partitioning is enabled.
    Megacell {
        /// Whether to bundle partitions with the analytical cost model.
        bundle: bool,
    },
}

impl Partitioning {
    /// Produce the partitions `Launch` will traverse.
    pub(crate) fn run(self, cx: PartitionCx<'_>) -> PartitionedQueries {
        match self {
            Partitioning::Single => {
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
            Partitioning::Megacell { bundle } => {
                let device = cx.backend.device();
                let grid = cx
                    .grid
                    .expect("driver supplies a grid when wants_grid() is true");
                let set = partition_queries(
                    device,
                    grid,
                    cx.queries,
                    cx.order,
                    &cx.params,
                    cx.config.knn_rule,
                    cx.cache.map(|cache| (cache, cx.dirty_region)),
                );
                let num_partitions = set.partitions.len();
                let partitions = if bundle {
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
    }

    /// Whether this partitioning reads the persistent megacell grid. The
    /// driver provisions (and lazily builds) the index's cached grid
    /// exactly when the *resolved* partitioning wants it, so disabling
    /// partitioning per call skips the grid build and enabling it per call
    /// on a no-partitioning engine still hits the persistent cache.
    pub fn wants_grid(self) -> bool {
        matches!(self, Partitioning::Megacell { .. })
    }
}
