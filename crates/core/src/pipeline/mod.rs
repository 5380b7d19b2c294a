//! The staged execution pipeline: `Schedule` → `Partition` → `Launch` →
//! `Gather`, each metered, the first two picked per call.
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
//! ## Picking stages
//!
//! `Schedule` and `Partition` are closed choices: a [`Schedule`] and a
//! [`Partitioning`]. The engine's [`OptLevel`] picks one of each, and a
//! [`StageOverrides`] passed to
//! [`Index::query_with`](crate::Index::query_with) picks either for one
//! call; [`StageOverrides::resolve`] lays the call's picks over the
//! level's. `Launch` (one traversal per non-empty partition) and `Gather`
//! (scatter payloads by query id) are fixed driver steps, still metered as
//! stages. The levels pick:
//!
//! | `OptLevel` | `Schedule` | `Partitioning` |
//! |---|---|---|
//! | `NoOpt` | `Identity` | `Single` |
//! | `Sched` | `Coherence` | `Single` |
//! | `SchedPartition` | `Coherence` | `Megacell { bundle: false }` |
//! | `Full` | `Coherence` | `Megacell { bundle: true }` |
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
pub(crate) use stages::PartitionCx;
pub use stages::{Partitioning, Schedule, ScheduleCx};
pub(crate) use timing::StageMeter;
pub use timing::{PipelineTrace, StageKind, StageTiming};

use crate::engine::OptLevel;
use std::marker::PhantomData;

/// Per-call stage picks for one pipeline execution (see the module docs):
/// built by the four constructors below, read by
/// [`resolve`](Self::resolve). A stage left unpicked falls back to the one
/// the engine's [`OptLevel`] picks.
///
/// The lifetime parameter borrows nothing. It stays only because the
/// benchmark adapter (`perfbench/src/layers.rs`) names
/// `StageOverrides<'_>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageOverrides<'o> {
    schedule: Option<Schedule>,
    partition: Option<Partitioning>,
    _lifetime: PhantomData<&'o ()>,
}

impl StageOverrides<'_> {
    /// Disable coherence reordering for this call ([`Schedule::Identity`]
    /// regardless of the optimisation level), leaving `Partition` at its
    /// default.
    pub fn without_reordering() -> Self {
        StageOverrides {
            schedule: Some(Schedule::Identity),
            ..StageOverrides::default()
        }
    }

    /// Disable megacell partitioning (and with it bundling) for this call
    /// ([`Partitioning::Single`] regardless of the optimisation level),
    /// leaving `Schedule` at its default.
    pub fn without_partitioning() -> Self {
        StageOverrides {
            partition: Some(Partitioning::Single),
            ..StageOverrides::default()
        }
    }

    /// The fully pinned override set equivalent to a static [`OptLevel`]:
    /// both slots filled with exactly the stages that level picks, so the
    /// call's behaviour no longer depends on the engine's configured level.
    /// This is the [`AutoTuner`](crate::AutoTuner)'s arm ladder — results
    /// are bit-equal to running an engine configured at `level`, because
    /// the same stages execute.
    pub fn for_level(level: OptLevel) -> Self {
        let (schedule, partition) = StageOverrides::default().resolve(level);
        StageOverrides {
            schedule: Some(schedule),
            partition: Some(partition),
            _lifetime: PhantomData,
        }
    }

    /// The stages one execution runs: these picks laid over the stages
    /// `level` picks.
    pub fn resolve(self, level: OptLevel) -> (Schedule, Partitioning) {
        let schedule = if level.scheduling() {
            Schedule::Coherence
        } else {
            Schedule::Identity
        };
        let partition = if level.partitioning() {
            Partitioning::Megacell {
                bundle: level.bundling(),
            }
        } else {
            Partitioning::Single
        };
        (
            self.schedule.unwrap_or(schedule),
            self.partition.unwrap_or(partition),
        )
    }
}
