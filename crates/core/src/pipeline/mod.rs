//! The staged execution pipeline: `Schedule` → `Partition` → `Launch` →
//! `Gather`, each metered, the first two swappable per call.
//!
//! The stages are the techniques the paper composes — coherence-driven
//! query reordering (Section 4), megacell partitioning (Section 5.1) and
//! cost-model bundling (Section 5.2) — followed by the per-partition search
//! launch and the scatter of its payloads:
//!
//! ```text
//!            ┌───────────┐   ┌───────────┐   ┌──────────┐   ┌──────────┐
//!  queries ─▶│ Schedule  │──▶│ Partition │──▶│  Launch  │──▶│  Gather  │─▶ results
//!            │ (FS pass +│   │ (megacell │   │ (per-    │   │ (scatter │
//!            │  Morton   │   │  kernel + │   │ partition│   │  payloads│
//!            │  sort)    │   │  bundling)│   │  BVH +   │   │  by query│
//!            └───────────┘   └───────────┘   │ traverse)│   │  id)     │
//!                                            └──────────┘   └──────────┘
//!       IR: QuerySchedule  PartitionedQueries
//! ```
//!
//! The coherence schedule runs before the partition kernel, exactly as in
//! the paper's implementation: the megacell kernel is launched over the
//! *scheduled* query order, which fixes its warp-level simulated cost and
//! the within-partition launch order.
//!
//! Every entry point executes through the one driver behind
//! [`Index::query`](crate::Index::query): a single plan runs as a one-slice
//! batch over every query, and a [`QueryPlan::Batch`](crate::QueryPlan::Batch)
//! runs one shared `Schedule` pass and then `Partition` → `Launch` →
//! `Gather` per slice. `rtnn-dynamic`'s `DynamicIndex` frames reach it
//! through `Index::adopt`, and `rtnn-serve`'s `ShardedIndex` runs it per
//! shard before the shared [`ShardMerge`](crate::ShardMerge) gather.
//!
//! ## Swapping stages
//!
//! `Schedule` and `Partition` sit behind small traits ([`ScheduleStage`],
//! [`PartitionStage`]); a [`StageOverrides`] passed to
//! [`Index::query_with`](crate::Index::query_with) replaces either for one
//! call. `Launch` (one traversal per non-empty partition) and `Gather`
//! (scatter payloads by query id) are fixed driver steps, still metered as
//! stages. The [`OptLevel`]s are preset stage selections:
//!
//! | `OptLevel` | Schedule | Partition |
//! |---|---|---|
//! | `NoOpt` | [`IdentitySchedule`] | [`SinglePartition`] |
//! | `Sched` | [`CoherenceSchedule`] | [`SinglePartition`] |
//! | `SchedPartition` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: false}` |
//! | `Full` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: true}` |
//!
//! so an ablation can toggle exactly one stage
//! ([`StageOverrides::without_reordering`],
//! [`StageOverrides::without_partitioning`]) without touching the other.
//!
//! ## Metering
//!
//! The driver meters every stage invocation into a [`StageTiming`]; the
//! roll-up ([`PipelineTrace`], carried on every
//! [`SearchResults`](crate::SearchResults) as its `trace` field) accounts
//! every simulated millisecond outside host↔device transfers to exactly one
//! stage — see [`timing`] for the invariant the tests pin. Structure
//! builds (and caller-side maintenance) are billed to `Launch` once per
//! execution, before the first stage runs.

pub mod stages;
pub mod timing;

pub use crate::scheduling::QuerySchedule;
pub use stages::{
    CoherenceSchedule, IdentitySchedule, MegacellPartition, PartitionCx, PartitionStage,
    PartitionedQueries, ScheduleCx, ScheduleStage, SinglePartition,
};
pub(crate) use timing::StageMeter;
pub use timing::{PipelineTrace, StageKind, StageTiming};

use crate::engine::OptLevel;

static COHERENCE_SCHEDULE: CoherenceSchedule = CoherenceSchedule;
static IDENTITY_SCHEDULE: IdentitySchedule = IdentitySchedule;
static MEGACELL_BUNDLED: MegacellPartition = MegacellPartition { bundle: true };
static MEGACELL_UNBUNDLED: MegacellPartition = MegacellPartition { bundle: false };
static SINGLE_PARTITION: SinglePartition = SinglePartition;

/// Per-call stage replacements for one pipeline execution (see the module
/// docs). `None` slots fall back to the defaults the engine's
/// [`OptLevel`] selects.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageOverrides<'o> {
    /// Replace the `Schedule` stage.
    pub schedule: Option<&'o dyn ScheduleStage>,
    /// Replace the `Partition` stage.
    pub partition: Option<&'o dyn PartitionStage>,
}

impl std::fmt::Debug for dyn ScheduleStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScheduleStage")
    }
}
impl std::fmt::Debug for dyn PartitionStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PartitionStage")
    }
}

impl StageOverrides<'static> {
    /// Disable coherence reordering for this call (an [`IdentitySchedule`]
    /// regardless of the optimisation level), leaving `Partition` at its
    /// default.
    pub fn without_reordering() -> Self {
        StageOverrides {
            schedule: Some(&IDENTITY_SCHEDULE),
            ..StageOverrides::default()
        }
    }

    /// Disable megacell partitioning (and with it bundling) for this call
    /// (a [`SinglePartition`] regardless of the optimisation level),
    /// leaving `Schedule` at its default.
    pub fn without_partitioning() -> Self {
        StageOverrides {
            partition: Some(&SINGLE_PARTITION),
            ..StageOverrides::default()
        }
    }

    /// The fully pinned override set equivalent to a static [`OptLevel`]:
    /// both slots filled with exactly the stages that level resolves to, so
    /// the call's behaviour no longer depends on the engine's configured
    /// level. This is the [`AutoTuner`](crate::AutoTuner)'s arm
    /// ladder — results are bit-equal to running an engine configured at
    /// `level`, because the same stage objects execute.
    pub fn for_level(level: OptLevel) -> Self {
        StageOverrides {
            schedule: Some(if level.scheduling() {
                &COHERENCE_SCHEDULE
            } else {
                &IDENTITY_SCHEDULE
            }),
            partition: Some(if level.partitioning() {
                if level.bundling() {
                    &MEGACELL_BUNDLED
                } else {
                    &MEGACELL_UNBUNDLED
                }
            } else {
                &SINGLE_PARTITION
            }),
        }
    }
}

/// The stages one execution runs, resolved once: the call's
/// [`StageOverrides`] laid over [`StageOverrides::for_level`] of the
/// engine's optimisation level.
pub(crate) struct ExecutionPipeline<'r> {
    pub(crate) schedule: &'r dyn ScheduleStage,
    pub(crate) partition: &'r dyn PartitionStage,
    /// The caller supplied the `Schedule` stage, so the driver checks its
    /// output contract ([`assert_schedule_covers`]).
    pub(crate) custom_schedule: bool,
}

impl<'r> ExecutionPipeline<'r> {
    pub(crate) fn new(level: OptLevel, overrides: StageOverrides<'r>) -> Self {
        const FILLED: &str = "StageOverrides::for_level fills every slot";
        let base = StageOverrides::for_level(level);
        ExecutionPipeline {
            schedule: overrides.schedule.or(base.schedule).expect(FILLED),
            partition: overrides.partition.or(base.partition).expect(FILLED),
            custom_schedule: overrides.schedule.is_some(),
        }
    }
}

/// Enforce the [`ScheduleStage`] output contract for *overriding* stages:
/// the returned order must be a permutation of the launched ids. The
/// provided stages satisfy this by construction; a custom stage that drops,
/// duplicates or invents ids gets a contract-naming panic here instead of
/// an opaque index error (or silently empty results) downstream.
pub(crate) fn assert_schedule_covers(order: &[u32], launched: &[u32], num_queries: usize) {
    assert_eq!(
        order.len(),
        launched.len(),
        "ScheduleStage contract violation: the schedule must order exactly the launched \
         queries (returned {}, launched {})",
        order.len(),
        launched.len()
    );
    let mut expected = vec![false; num_queries];
    for &q in launched {
        expected[q as usize] = true;
    }
    let mut seen = vec![false; num_queries];
    for &q in order {
        assert!(
            (q as usize) < num_queries && expected[q as usize],
            "ScheduleStage contract violation: the schedule order contains query id {q}, \
             which is not in the launched set"
        );
        assert!(
            !seen[q as usize],
            "ScheduleStage contract violation: query id {q} appears twice in the schedule order"
        );
        seen[q as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::assert_schedule_covers;

    #[test]
    fn permutations_of_the_launched_set_pass() {
        assert_schedule_covers(&[2, 0, 1], &[0, 1, 2], 3);
        assert_schedule_covers(&[5, 1], &[1, 5], 8);
        assert_schedule_covers(&[], &[], 0);
    }

    #[test]
    #[should_panic(expected = "ScheduleStage contract violation")]
    fn dropped_ids_are_rejected() {
        assert_schedule_covers(&[0, 1], &[0, 1, 2], 3);
    }

    #[test]
    #[should_panic(expected = "not in the launched set")]
    fn invented_ids_are_rejected() {
        assert_schedule_covers(&[0, 7, 2], &[0, 1, 2], 3);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicated_ids_are_rejected() {
        assert_schedule_covers(&[0, 1, 1], &[0, 1, 2], 3);
    }
}
