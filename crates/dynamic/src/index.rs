//! The persistent [`DynamicIndex`]: a point cloud that survives across
//! query rounds, with stable point handles, in-place structure refits, and
//! policy-driven rebuilds — executing on any `rtnn::Backend`.

use crate::policy::RebuildPolicy;
use rtnn::{
    Accel, AdoptedScene, AutoTuner, Backend, CostCoefficients, GpusimBackend, Index, MegacellCache,
    MegacellGrid, QueryPlan, RtnnConfig, SearchError, SearchResults, StageOverrides, TunerDecision,
    Tuning,
};
use rtnn_bvh::SahMonitor;
use rtnn_gpusim::{Device, FrameAccumulator};
use rtnn_math::{Aabb, Vec3};
use std::collections::BTreeSet;

/// What a frame did to the acceleration structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureAction {
    /// Nothing moved since the last frame: every structure was reused as-is.
    Reused,
    /// Points moved; the structure was refitted in place and the megacell
    /// grid absorbed the motion incrementally.
    Refit,
    /// The structure was rebuilt from scratch (first frame, a structural
    /// insert/remove, a policy decision, or motion that escaped the grid).
    Rebuilt,
}

/// The outcome of one [`DynamicIndex::search`] round.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// The search results. Neighbor ids are *stable point handles* (the
    /// values returned by [`DynamicIndex::insert`]), not positions in some
    /// internal array, so they remain meaningful across frames.
    pub results: SearchResults,
    /// What happened to the acceleration structure this frame.
    pub action: StructureAction,
    /// SAH quality ratio of the (refitted) tree against its last rebuild
    /// (1.0 right after a rebuild; grows as the topology goes stale; stays
    /// 1.0 on backends that expose no tree quality).
    pub quality_ratio: f64,
    /// Simulated milliseconds spent on structure maintenance this frame
    /// (refit and/or rebuild time; also included in the results' breakdown).
    pub structure_ms: f64,
    /// *Host* wall-clock milliseconds this frame spent maintaining the
    /// persistent structures (AABB regeneration, refit or rebuild, grid
    /// refresh) — the part of the frame the streaming subsystem actually
    /// changes, measured directly so per-frame comparisons are not drowned
    /// by traversal wall-clock noise.
    pub host_structure_ms: f64,
}

/// A per-frame [`Index`] view over a [`DynamicIndex`]'s live points —
/// returned by [`DynamicIndex::as_index`] so heterogeneous
/// [`QueryPlan`]s (different radii, Ks, batches) can be answered against
/// the maintained structures without rebuilding anything.
pub struct FrameIndex<'a> {
    /// The adopted index. Querying it directly returns *compact* ids
    /// (positions into [`Index::points`]); use [`FrameIndex::query`] to get
    /// stable handles.
    pub index: Index<'a>,
    /// Compact id → stable handle translation for this frame.
    pub handles: &'a [u32],
}

impl FrameIndex<'_> {
    /// Answer `plan` against the frame's live points, translating neighbor
    /// ids into stable point handles.
    pub fn query(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        self.query_with(queries, plan, StageOverrides::default())
    }

    /// [`query`](Self::query) with per-call
    /// [`StageOverrides`]: the frame executes through
    /// the same staged pipeline as every other entry point, so individual
    /// stages (reordering, partitioning) can be replaced or disabled per
    /// call even on a streaming scene.
    pub fn query_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        let mut results = self.index.query_with(queries, plan, overrides)?;
        for neighbors in results.neighbors.iter_mut() {
            for id in neighbors.iter_mut() {
                *id = self.handles[*id as usize];
            }
        }
        Ok(results)
    }
}

/// The execution backend a [`DynamicIndex`] runs on: the default
/// device-owned gpusim backend, or any caller-supplied `dyn Backend`.
enum BackendHolder<'d> {
    Owned(GpusimBackend<'d>),
    Borrowed(&'d dyn Backend),
}

impl<'d> BackendHolder<'d> {
    fn as_dyn(&self) -> &dyn Backend {
        match self {
            BackendHolder::Owned(b) => b,
            BackendHolder::Borrowed(b) => *b,
        }
    }
}

/// Outcome of one frame's structure maintenance. The maintenance *cost*
/// is not carried here — it accumulates in the pending accounting fields
/// and is drained by the next reporting search.
struct SyncInfo {
    action: StructureAction,
    quality_ratio: f64,
    dirty_region: Aabb,
}

/// A persistent neighbor-search index over a mutable point cloud.
///
/// Mutations ([`insert`](Self::insert), [`remove`](Self::remove),
/// [`move_point`](Self::move_point)) are cheap bookkeeping; the expensive
/// state — global acceleration structure, megacell grid, per-query megacell
/// cache — is maintained lazily at the next [`search`](Self::search):
///
/// * pure motion refits the structure in place (through the backend) and
///   refreshes the grid incrementally, then lets the [`RebuildPolicy`]
///   decide from the backend's structure timing whether the accumulated
///   quality loss justifies a rebuild;
/// * structural changes always rebuild (a refit cannot re-topologize);
/// * an untouched cloud reuses everything and pays zero structure cost.
///
/// Results are exact: every frame returns the same neighbor sets a freshly
/// constructed batch engine would (the refit path only ever changes *how
/// fast* the correct answer is found, never which answer).
pub struct DynamicIndex<'d> {
    backend: BackendHolder<'d>,
    config: RtnnConfig,
    policy: RebuildPolicy,
    /// Slot-stable storage: `positions[h]` is point handle `h`.
    positions: Vec<Vec3>,
    live: Vec<bool>,
    num_live: usize,
    /// Compacted live positions, the engine-facing view.
    compact: Vec<Vec3>,
    compact_to_slot: Vec<u32>,
    slot_to_compact: Vec<u32>,
    membership_dirty: bool,
    moved_slots: BTreeSet<u32>,
    /// Structure state (None until the first search).
    accel: Option<Accel>,
    monitor: Option<SahMonitor>,
    grid: Option<MegacellGrid>,
    cache: MegacellCache,
    /// Union of every grid dirty region not yet durably absorbed into the
    /// megacell cache: refits accumulate it, and it is only cleared when a
    /// search actually ran the cached partitioning pass (or a rebuild
    /// dropped the cache wholesale). A [`FrameIndex`] that is dropped
    /// unused, or queried only with batches, therefore never loses an
    /// invalidation.
    pending_dirty: Aabb,
    /// Structure-maintenance cost (simulated / host wall-clock) incurred
    /// but not yet reported through a [`FrameResult`]: maintenance done for
    /// a dropped-or-unqueried view accumulates here and the next search
    /// drains it, so no work ever vanishes from the accounting.
    pending_structure_ms: f64,
    pending_host_structure_ms: f64,
    last_traversal_ms: Option<f64>,
    metrics: FrameAccumulator,
    /// Online stage tuner, carried *across* frames (the per-frame adopted
    /// [`Index`] views are transient, so the learning state lives here):
    /// installed by [`enable_auto`](Self::enable_auto), it picks the
    /// optimization level each [`search`](Self::search) frame runs at and
    /// folds the frame's measured stage timings back in afterwards.
    tuner: Option<AutoTuner>,
    last_decision: Option<TunerDecision>,
}

impl<'d> DynamicIndex<'d> {
    /// An empty index on the default (gpusim) backend with the default
    /// (adaptive) rebuild policy.
    pub fn new(device: &'d Device, config: RtnnConfig) -> Self {
        Self::with_policy(device, config, RebuildPolicy::default())
    }

    /// An empty index on the default backend with an explicit policy.
    pub fn with_policy(device: &'d Device, config: RtnnConfig, policy: RebuildPolicy) -> Self {
        Self::from_holder(
            BackendHolder::Owned(GpusimBackend::new(device)),
            config,
            policy,
        )
    }

    /// An empty index on an explicit execution backend.
    pub fn with_backend(
        backend: &'d dyn Backend,
        config: RtnnConfig,
        policy: RebuildPolicy,
    ) -> Self {
        Self::from_holder(BackendHolder::Borrowed(backend), config, policy)
    }

    fn from_holder(backend: BackendHolder<'d>, config: RtnnConfig, policy: RebuildPolicy) -> Self {
        DynamicIndex {
            backend,
            config,
            policy,
            positions: Vec::new(),
            live: Vec::new(),
            num_live: 0,
            compact: Vec::new(),
            compact_to_slot: Vec::new(),
            slot_to_compact: Vec::new(),
            membership_dirty: false,
            moved_slots: BTreeSet::new(),
            accel: None,
            monitor: None,
            grid: None,
            cache: MegacellCache::default(),
            last_traversal_ms: None,
            metrics: FrameAccumulator::default(),
            pending_dirty: Aabb::EMPTY,
            pending_structure_ms: 0.0,
            pending_host_structure_ms: 0.0,
            tuner: None,
            last_decision: None,
        }
    }

    /// An index seeded with `points` (handles `0..points.len()`).
    pub fn with_points(device: &'d Device, config: RtnnConfig, points: &[Vec3]) -> Self {
        let mut index = Self::new(device, config);
        for &p in points {
            index.insert(p);
        }
        index
    }

    /// Insert a point; returns its stable handle.
    pub fn insert(&mut self, p: Vec3) -> u32 {
        let handle = self.positions.len() as u32;
        self.positions.push(p);
        self.live.push(true);
        self.num_live += 1;
        self.membership_dirty = true;
        handle
    }

    /// Remove a point by handle. Returns false if the handle is unknown or
    /// already removed. The handle is never reused.
    pub fn remove(&mut self, handle: u32) -> bool {
        match self.live.get_mut(handle as usize) {
            Some(alive) if *alive => {
                *alive = false;
                self.num_live -= 1;
                self.membership_dirty = true;
                self.moved_slots.remove(&handle);
                true
            }
            _ => false,
        }
    }

    /// Move a live point to a new position. Returns false for unknown or
    /// removed handles.
    pub fn move_point(&mut self, handle: u32, p: Vec3) -> bool {
        match self.live.get(handle as usize) {
            Some(true) => {
                self.positions[handle as usize] = p;
                self.moved_slots.insert(handle);
                true
            }
            _ => false,
        }
    }

    /// Current position of a live point.
    pub fn position(&self, handle: u32) -> Option<Vec3> {
        match self.live.get(handle as usize) {
            Some(true) => Some(self.positions[handle as usize]),
            _ => None,
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.num_live
    }

    /// True if the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.num_live == 0
    }

    /// The engine configuration the index searches with.
    pub fn config(&self) -> &RtnnConfig {
        &self.config
    }

    /// The rebuild policy.
    pub fn policy(&self) -> &RebuildPolicy {
        &self.policy
    }

    /// The execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_dyn()
    }

    /// Accumulated per-frame metrics (frames, rebuild/refit counts,
    /// amortized simulated cost).
    pub fn frame_metrics(&self) -> &FrameAccumulator {
        &self.metrics
    }

    /// Switch [`search`](Self::search) frames to adaptive stage tuning:
    /// every frame, an [`AutoTuner`] (seeded with `seed`, cost model
    /// calibrated for the backend's device) picks the optimization level
    /// the frame executes at and absorbs the frame's measured stage
    /// timings afterwards. The tuner state persists across frames — and
    /// across refits and rebuilds — so a long-running scene converges on
    /// its measured best ladder rung instead of re-deriving it.
    ///
    /// Tuning changes *which* stages run, never the answer: every frame
    /// still returns exactly the neighbor sets a fresh engine would.
    pub fn enable_auto(&mut self, seed: u64) {
        self.tuner = Some(
            AutoTuner::new(seed)
                .with_cost_model(CostCoefficients::calibrate(self.backend.as_dyn().device())),
        );
    }

    /// The tuner's most recent per-frame decision (`None` until an
    /// auto-tuned [`search`](Self::search) frame ran).
    pub fn last_decision(&self) -> Option<TunerDecision> {
        self.last_decision
    }

    /// The carried tuner state, when [`enable_auto`](Self::enable_auto)
    /// installed one.
    pub fn tuner(&self) -> Option<&AutoTuner> {
        self.tuner.as_ref()
    }

    /// Run one query round against the current point positions.
    ///
    /// Maintains the persistent structures first (refit / incremental grid
    /// refresh / rebuild, as the state and policy demand), then searches
    /// through a per-frame [`Index`] view adopting them. Neighbor ids in
    /// the returned results are stable point handles.
    ///
    /// Because the frame searches through an adopted [`Index`] view, every
    /// frame query also feeds the ambient sink's continuous profiler (when
    /// one is attached): the signature keys on the frame's *live* density
    /// and the dynamic index's backend, so drifting scenes profile under
    /// the buckets they currently occupy.
    pub fn search(&mut self, queries: &[Vec3]) -> Result<FrameResult, SearchError> {
        let tel = rtnn_telemetry::Telemetry::current();
        let mut frame_span = tel.as_ref().map(|t| t.span("dynamic.frame"));
        if let Some(t) = &tel {
            t.counter_add("dynamic.frames", 1);
        }
        let sync = self.sync_structures()?;
        // Drain *all* maintenance cost not yet reported — this frame's plus
        // anything charged by views that were dropped without a query — so
        // no simulated work ever vanishes from the accounting.
        let structure_ms = std::mem::take(&mut self.pending_structure_ms);
        let host_structure_ms = std::mem::take(&mut self.pending_host_structure_ms);

        let plan = self.config.plan();
        // Adaptive tuning: decide the frame's ladder rung *before* the view
        // borrows the structures. The decision keys on the frame's live
        // density, so a drifting scene migrates between signatures exactly
        // as the continuous profiler files it.
        let decision = match self.tuner.as_mut() {
            Some(tuner) => {
                let n = self.compact.len();
                let backend = self.backend.as_dyn().name();
                Some(tuner.decide(plan.kind_label(), n, backend, queries.len()))
            }
            None => None,
        };
        let mut view = self.frame_view(sync.dirty_region, structure_ms);
        let results = match decision {
            Some(d) => view.query_with(queries, &plan, d.overrides())?,
            None => view.query(queries, &plan)?,
        };
        drop(view);

        // The cached partitioning pass ran exactly when partitioning is on,
        // a grid exists and the search was non-trivial — the pending dirty
        // region has then been absorbed into the cache and can be retired.
        // Under auto tuning "partitioning is on" is the *decision's* level,
        // not the config's: a frame the tuner ran at a lower rung never
        // touched the cache, so its invalidations must stay pending.
        let effective_opt = decision.map_or(self.config.engine.opt, |d| d.level);
        if effective_opt >= rtnn::OptLevel::SchedPartition
            && self.grid.is_some()
            && !queries.is_empty()
            && !self.compact.is_empty()
        {
            self.pending_dirty = Aabb::EMPTY;
        }
        if let Some(d) = decision {
            if let Some(tuner) = self.tuner.as_mut() {
                tuner.observe(
                    plan.kind_label(),
                    self.compact.len(),
                    self.backend.as_dyn().name(),
                    d.level,
                    &results.trace.stage_device_ms(),
                    // `bvh_ms` carries the frame's structure maintenance
                    // (billed to the Launch slot): exclude it so arms
                    // compete on steady-state traversal cost.
                    results.breakdown.bvh_ms,
                );
            }
            self.last_decision = Some(d);
        }

        self.last_traversal_ms = Some(results.breakdown.fs_ms + results.breakdown.search_ms);
        self.metrics.record_frame(
            &results.search_metrics.kernel,
            structure_ms,
            results.total_time_ms(),
        );
        match sync.action {
            StructureAction::Rebuilt => self.metrics.rebuilds += 1,
            StructureAction::Refit => self.metrics.refits += 1,
            StructureAction::Reused => {}
        }
        if let Some(t) = &tel {
            let action = match sync.action {
                StructureAction::Rebuilt => "dynamic.rebuilds",
                StructureAction::Refit => "dynamic.refits",
                StructureAction::Reused => "dynamic.reuses",
            };
            t.counter_add(action, 1);
            t.observe("dynamic.structure_ms", structure_ms);
        }
        if let Some(span) = frame_span.as_mut() {
            span.attr("queries", queries.len() as f64)
                .attr("structure_ms", structure_ms)
                .attr("device_ms", results.trace.device_total_ms())
                .attr_wall("host_structure_ms", host_structure_ms);
        }
        drop(frame_span);

        Ok(FrameResult {
            results,
            action: sync.action,
            quality_ratio: sync.quality_ratio,
            structure_ms,
            host_structure_ms,
        })
    }

    /// Maintain the structures for the current positions and return a
    /// per-frame [`Index`] view adopting them — the escape hatch for
    /// heterogeneous plans: any [`QueryPlan`] (other radii, Ks, a
    /// [`QueryPlan::Batch`]) can be answered against the live scene
    /// without rebuilding anything.
    ///
    /// Structure-maintenance cost triggered by this call is *not* charged
    /// to the view's queries: it stays pending and is reported (simulated
    /// and host) by the next [`search`](Self::search) frame, so a view that
    /// is dropped without a query loses no accounting. View queries are not
    /// recorded in [`frame_metrics`](Self::frame_metrics).
    pub fn as_index(&mut self) -> Result<FrameIndex<'_>, SearchError> {
        let sync = self.sync_structures()?;
        Ok(self.frame_view(sync.dirty_region, 0.0))
    }

    /// Build the per-frame adopted view both query paths share. The
    /// adopted megacell cache is tagged with the config's params, so view
    /// plans with other radii/K bypass it instead of wiping it. The view
    /// never auto-tunes by itself: its tuner would not outlive the frame,
    /// and [`search`](Self::search) must know which level ran to retire
    /// pending cache invalidations (frames tune through
    /// [`enable_auto`](Self::enable_auto) instead).
    fn frame_view(&mut self, dirty_region: Aabb, structure_ms: f64) -> FrameIndex<'_> {
        let accel = self
            .accel
            .as_ref()
            .expect("structure exists after maintenance");
        let mut index = Index::adopt(
            self.backend.as_dyn(),
            &self.compact,
            self.config.engine.with_tuning(Tuning::Static),
            AdoptedScene {
                accel,
                grid: self.grid.as_ref(),
                dirty_region,
                cache: Some(&mut self.cache),
                cache_params: Some(self.config.params),
            },
        );
        index.charge_structure_ms(structure_ms);
        FrameIndex {
            index,
            handles: &self.compact_to_slot,
        }
    }

    /// Fold pending mutations into the compacted view and bring the
    /// structures up to date (refit / rebuild / reuse, per state and
    /// policy).
    fn sync_structures(&mut self) -> Result<SyncInfo, SearchError> {
        // Validate early so invalid configs fail before touching state.
        self.config.params.validate().map_err(SearchError::from)?;
        let width = self.config.engine.aabb_width(self.config.params.radius);

        let membership_was_dirty = self.membership_dirty;
        if membership_was_dirty {
            self.refresh_compact();
            self.membership_dirty = false;
        } else {
            for &slot in &self.moved_slots {
                let c = self.slot_to_compact[slot as usize];
                if c != u32::MAX {
                    self.compact[c as usize] = self.positions[slot as usize];
                }
            }
        }
        let n = self.compact.len();

        let host_structure_start = std::time::Instant::now();
        let mut structure_ms = 0.0;
        let mut quality_ratio = 1.0;
        let mut dirty_region = Aabb::EMPTY;
        let structural = membership_was_dirty
            || self.accel.is_none()
            || self.accel.as_ref().map(Accel::num_primitives) != Some(n);
        let action = if structural
            || (!self.moved_slots.is_empty() && self.policy.always_rebuilds())
        {
            // Structural changes cannot be refitted; a rebuild-every-frame
            // policy goes straight to the build so the baseline pays exactly
            // one build per motion frame (no exploratory refit).
            structure_ms += self.rebuild_structures(width)?;
            StructureAction::Rebuilt
        } else if !self.moved_slots.is_empty() {
            // Refit first (cheap), measure the quality, then let the policy
            // decide from the backend's timing whether a rebuild pays for
            // itself.
            let outcome = {
                let backend = self.backend.as_dyn();
                let accel = self.accel.as_mut().expect("checked above");
                backend.refit(accel, &self.compact)
            };
            match outcome {
                Some(refit) => {
                    structure_ms += refit.refit_ms;
                    quality_ratio = match (refit.sah_after, self.monitor.as_ref()) {
                        (Some(sah), Some(m)) if m.built_sah() > 0.0 => {
                            (sah / m.built_sah()).max(1.0)
                        }
                        _ => 1.0,
                    };
                    // Attach the measured host-side construction profile so
                    // the policy's `(q − 1)·S > B − R` coefficients reflect
                    // *parallel* build/refit costs: the build profile of the
                    // structure we would be replacing, combined with the
                    // refit we just ran.
                    let host = {
                        let accel = self.accel.as_ref().expect("checked above");
                        match accel.host_build_profile() {
                            Some(build) => build.combine(&refit.host),
                            None => refit.host,
                        }
                    };
                    let timing = self
                        .backend
                        .as_dyn()
                        .timing(n)
                        .with_host_profile(host.host_wall_ms, host.work_ms);
                    if self
                        .policy
                        .should_rebuild(quality_ratio, &timing, self.last_traversal_ms)
                    {
                        structure_ms += self.rebuild_structures(width)?;
                        StructureAction::Rebuilt
                    } else {
                        dirty_region = self.refresh_grid();
                        StructureAction::Refit
                    }
                }
                None => {
                    // The backend cannot refit this structure — rebuild.
                    structure_ms += self.rebuild_structures(width)?;
                    StructureAction::Rebuilt
                }
            }
        } else {
            StructureAction::Reused
        };
        let host_structure_ms = host_structure_start.elapsed().as_secs_f64() * 1e3;
        self.pending_structure_ms += structure_ms;
        self.pending_host_structure_ms += host_structure_ms;
        self.moved_slots.clear();

        // Fold this frame's invalidation into the not-yet-absorbed union;
        // a rebuild dropped the cache wholesale, so nothing is pending.
        self.pending_dirty = match action {
            StructureAction::Rebuilt => Aabb::EMPTY,
            _ => self.pending_dirty.union(&dirty_region),
        };

        Ok(SyncInfo {
            action,
            quality_ratio,
            dirty_region: self.pending_dirty,
        })
    }

    /// Rebuild the compacted live-point view after membership changes.
    fn refresh_compact(&mut self) {
        self.compact.clear();
        self.compact_to_slot.clear();
        self.slot_to_compact.clear();
        self.slot_to_compact.resize(self.positions.len(), u32::MAX);
        for (slot, &p) in self.positions.iter().enumerate() {
            if self.live[slot] {
                self.slot_to_compact[slot] = self.compact.len() as u32;
                self.compact_to_slot.push(slot as u32);
                self.compact.push(p);
            }
        }
    }

    /// Grid-resolution budget for this cloud: the configured cap, bounded to
    /// a small multiple of the point count. The paper's "smallest cell size
    /// the memory allows" guidance targets clouds with many more points than
    /// cells; a streaming index that re-bins every refresh must not pay for
    /// millions of cells around a few thousand points.
    fn grid_budget(&self) -> usize {
        self.config
            .engine
            .grid_max_cells
            .min((16 * self.compact.len().max(1)).next_power_of_two())
    }

    /// Rebuild the global structure, SAH baseline, megacell grid and cache
    /// from the current compact positions through the backend; returns the
    /// simulated build time.
    fn rebuild_structures(&mut self, width: f32) -> Result<f64, SearchError> {
        let budget = self.grid_budget();
        let accel = {
            let backend = self.backend.as_dyn();
            backend
                .build(&self.compact, width, self.config.engine.build)
                .map_err(SearchError::OutOfDeviceMemory)?
        };
        let build_ms = accel.build_time_ms();
        // Backends that expose tree quality seed the SAH baseline; opaque
        // backends leave the monitor empty (quality stays 1.0).
        self.monitor = accel.gas().map(|g| SahMonitor::baseline(g.bvh()));
        self.accel = Some(accel);
        self.grid = MegacellGrid::build(&self.compact, budget);
        self.cache.invalidate_all(0);
        Ok(build_ms)
    }

    /// Absorb this frame's motion into the megacell grid; returns the dirty
    /// region for the per-query cache (empty when nothing changed cells).
    /// Falls back to a wholesale grid rebuild when the motion escaped the
    /// grid bounds.
    fn refresh_grid(&mut self) -> Aabb {
        let budget = self.grid_budget();
        let Some(grid) = self.grid.as_mut() else {
            self.grid = MegacellGrid::build(&self.compact, budget);
            self.cache.invalidate_all(0);
            return Aabb::EMPTY;
        };
        let moved_compact: Vec<u32> = self
            .moved_slots
            .iter()
            .map(|&slot| self.slot_to_compact[slot as usize])
            .filter(|&c| c != u32::MAX)
            .collect();
        match grid.refresh(&self.compact, &moved_compact) {
            rtnn::GridRefresh::Incremental { dirty_region, .. } => dirty_region,
            rtnn::GridRefresh::NeedsRebuild => {
                self.grid = MegacellGrid::build(&self.compact, budget);
                self.cache.invalidate_all(0);
                Aabb::EMPTY
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{EngineConfig, OptLevel, OptixBackend, PlanSlice, SearchParams};

    fn jittered_block(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    let j = 0.05 * spacing * ((x * 7 + y * 13 + z * 29) % 10) as f32 / 10.0;
                    pts.push(Vec3::new(
                        x as f32 * spacing + j,
                        y as f32 * spacing - j,
                        z as f32 * spacing + j,
                    ));
                }
            }
        }
        pts
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn first_frame_rebuilds_then_pure_motion_refits() {
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let f0 = index.search(&queries).unwrap();
        assert_eq!(f0.action, StructureAction::Rebuilt);
        // Small drift: the policy keeps the refitted tree.
        for h in 0..points.len() as u32 {
            let p = index.position(h).unwrap();
            index.move_point(h, p + Vec3::new(0.002, -0.001, 0.001));
        }
        let f1 = index.search(&queries).unwrap();
        assert_eq!(f1.action, StructureAction::Refit);
        assert!(f1.quality_ratio >= 1.0);
        assert!(f1.structure_ms < f0.structure_ms);
        // No motion at all: everything is reused, zero structure cost.
        let f2 = index.search(&queries).unwrap();
        assert_eq!(f2.action, StructureAction::Reused);
        assert_eq!(f2.structure_ms, 0.0);
        assert_eq!(index.frame_metrics().frames, 3);
        assert_eq!(index.frame_metrics().rebuilds, 1);
        assert_eq!(index.frame_metrics().refits, 1);
    }

    #[test]
    fn results_match_a_fresh_index_every_frame() {
        let device = Device::rtx_2080();
        let gpusim = GpusimBackend::new(&device);
        let mut points = jittered_block(6, 0.5);
        let params = SearchParams::range(1.1, 1000);
        let config = RtnnConfig::new(params);
        let mut index = DynamicIndex::with_points(&device, config, &points);
        for frame in 0..5 {
            for (h, p) in points.iter_mut().enumerate() {
                p.z *= 0.97;
                p.x += 0.01 * ((h % 5) as f32 - 2.0);
                index.move_point(h as u32, *p);
            }
            let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
            let dynamic = index.search(&queries).unwrap();
            let fresh = Index::build(&gpusim, &points[..], config.engine)
                .query(&queries, &config.plan())
                .unwrap();
            for (qi, (d, f)) in dynamic
                .results
                .neighbors
                .iter()
                .zip(&fresh.neighbors)
                .enumerate()
            {
                assert_eq!(
                    sorted(d.clone()),
                    sorted(f.clone()),
                    "frame {frame} query {qi}: dynamic vs fresh mismatch"
                );
            }
        }
    }

    #[test]
    fn insert_and_remove_force_a_rebuild_and_keep_handles_stable() {
        let device = Device::rtx_2080();
        let points = jittered_block(4, 1.0);
        let config = RtnnConfig {
            params: SearchParams::range(1.5, 64),
            engine: EngineConfig::default().with_opt(OptLevel::Sched),
        };
        let mut index = DynamicIndex::with_points(&device, config, &points);
        index.search(&[Vec3::ZERO]).unwrap();

        // Remove a point and add one far away; handles shift for nobody.
        assert!(index.remove(3));
        assert!(!index.remove(3), "double remove must fail");
        let far = index.insert(Vec3::new(50.0, 50.0, 50.0));
        assert_eq!(index.len(), points.len());
        let frame = index.search(&[Vec3::new(50.0, 50.0, 50.0)]).unwrap();
        assert_eq!(frame.action, StructureAction::Rebuilt);
        // The query at the inserted point must see it, by its handle.
        assert!(frame.results.neighbors[0].contains(&far));
        // And the removed point never appears again.
        let all = index.search(&points).unwrap();
        for neighbors in &all.results.neighbors {
            assert!(!neighbors.contains(&3), "removed handle reported");
        }
        assert!(index.position(3).is_none());
        assert!(!index.move_point(3, Vec3::ZERO));
    }

    #[test]
    fn empty_and_growing_index_work() {
        let device = Device::rtx_2080();
        let config = RtnnConfig::new(SearchParams::knn(1.0, 4));
        let mut index = DynamicIndex::new(&device, config);
        assert!(index.is_empty());
        let empty = index.search(&[Vec3::ZERO]).unwrap();
        assert!(empty.results.neighbors[0].is_empty());
        let h = index.insert(Vec3::new(0.1, 0.0, 0.0));
        let one = index.search(&[Vec3::ZERO]).unwrap();
        assert_eq!(one.results.neighbors[0], vec![h]);
    }

    #[test]
    fn heavy_scrambling_eventually_triggers_a_policy_rebuild() {
        let device = Device::rtx_2080();
        let points = jittered_block(8, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
        index.search(&queries).unwrap();
        // Scramble: teleport every point to a hash-derived position so the
        // frozen topology degrades fast. The adaptive policy must fire a
        // rebuild within a few frames (the safety cap guarantees it at the
        // latest).
        let mut saw_rebuild = false;
        for frame in 0..6u32 {
            for h in 0..points.len() as u32 {
                let mix = |salt: u32| {
                    let x = h
                        .wrapping_mul(2654435761)
                        .wrapping_add(frame.wrapping_mul(40503))
                        .wrapping_add(salt.wrapping_mul(97));
                    (x % 4000) as f32 / 1000.0
                };
                index.move_point(h, Vec3::new(mix(1), mix(2), mix(3)));
            }
            let f = index.search(&queries).unwrap();
            if f.action == StructureAction::Rebuilt {
                saw_rebuild = true;
                assert!(index.frame_metrics().rebuilds >= 2);
                break;
            }
        }
        assert!(saw_rebuild, "policy never rebuilt under heavy scrambling");
    }

    #[test]
    fn frame_index_view_answers_heterogeneous_plans_with_stable_handles() {
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.6);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
        index.search(&queries).unwrap();

        // A frame view answers plans the fused config never mentioned.
        let mut view = index.as_index().unwrap();
        let knn = view.query(&queries, &QueryPlan::knn(1.8, 4)).unwrap();
        let batch = view
            .query(
                &queries,
                &QueryPlan::Batch(vec![
                    PlanSlice::new(QueryPlan::knn(0.9, 3), vec![0, 1]),
                    PlanSlice::new(QueryPlan::range(1.5, 32), vec![2]),
                ]),
            )
            .unwrap();
        drop(view);
        // Handles are stable ids: every reported neighbor is a live handle
        // at the position the searcher saw.
        for (qi, q) in queries.iter().enumerate() {
            for &h in &knn.neighbors[qi] {
                let p = index.position(h).expect("live handle");
                assert!(q.distance(p) < 1.8);
            }
        }
        for &h in &batch.neighbors[2] {
            let p = index.position(h).expect("live handle");
            assert!(queries[2].distance(p) < 1.5);
        }
        // The view shares the maintained structures; frame metrics are not
        // advanced by view queries.
        assert_eq!(index.frame_metrics().frames, 1);
    }

    #[test]
    fn dropped_or_batch_only_views_never_lose_cache_invalidations() {
        // A FrameIndex that is dropped unused (or queried only with batch
        // plans, which bypass the megacell cache) must not swallow the
        // frame's grid dirty region: the next search still has to treat the
        // cache entries whose reach the earlier motion touched as stale.
        //
        // The scene is built to make a lost invalidation observable: a
        // dense clump right at the query (its cached megacell is tiny), a
        // mid-distance shell that becomes the true nearest set once the
        // clump scatters, and a lone far sentinel whose later motion
        // produces a dirty region that does NOT overlap the query's reach.
        let device = Device::rtx_2080();
        let mut points: Vec<Vec3> = Vec::new();
        let centre = Vec3::new(10.0, 10.0, 10.0);
        let clump = 30usize;
        for i in 0..clump {
            // Dense clump within ~0.1 of the query position: its cached
            // megacell is a single fine grid cell.
            let f = i as f32;
            points.push(
                centre
                    + Vec3::new(
                        (f * 0.731).sin() * 0.1,
                        (f * 1.137).cos() * 0.1,
                        (f * 0.389).sin() * 0.1,
                    ),
            );
        }
        for i in 0..600 {
            // Mid-distance shell inside the radius, every point at a
            // *distinct* distance (2.5 + i/1000) so there are no ties.
            let a = i as f32 * 0.41;
            let b = i as f32 * 0.17;
            let rho = 2.5 + i as f32 * 0.001;
            points.push(centre + Vec3::new(a.sin() * b.cos(), a.cos() * b.cos(), b.sin()) * rho);
        }
        // Filler far outside the query's reach: raises the point count so
        // the megacell grid gets a fine cell size (the staleness window
        // only exists when the cached box is much smaller than the radius).
        let filler_base = points.len();
        for i in 0..3400 {
            let f = i as f32;
            points.push(Vec3::new(
                30.0 + (f * 0.617) % 10.0,
                30.0 + (f * 0.389) % 10.0,
                30.0 + (f * 0.829) % 10.0,
            ));
        }
        let sentinel = filler_base as u32;

        let k = 8;
        let params = SearchParams::knn(6.0, k);
        let config = RtnnConfig::new(params);
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries = vec![centre];
        index.search(&queries).unwrap(); // cache: tiny megacell (clump)

        // Frame 2: the clump scatters out of the search radius entirely;
        // structures are synced through a view that is immediately dropped.
        for h in 0..clump as u32 {
            let p = points[h as usize] + Vec3::new(0.0, 0.0, 8.0);
            points[h as usize] = p;
            index.move_point(h, p);
        }
        drop(index.as_index().unwrap());

        // Frame 3: only the far sentinel twitches — its dirty region does
        // not overlap the query's reach, so a per-frame dirty region would
        // let the stale tiny megacell pass the overlap check and miss the
        // shell entirely.
        let moved = points[sentinel as usize] + Vec3::new(0.5, 0.0, 0.0);
        points[sentinel as usize] = moved;
        index.move_point(sentinel, moved);

        let frame = index.search(&queries).unwrap();
        assert_eq!(
            frame.action,
            StructureAction::Refit,
            "scenario precondition"
        );
        let expected = rtnn::verify::brute_force_knn(&points, centre, 6.0, k);
        assert_eq!(
            sorted(frame.results.neighbors[0].clone()),
            sorted(expected),
            "stale megacell cache leaked through a dropped view"
        );
    }

    #[test]
    fn dropped_views_never_lose_structure_cost_accounting() {
        // Maintenance triggered by as_index() is not charged to the view;
        // it stays pending and the next search frame reports it, so a
        // dropped view loses no simulated cost from the accounting.
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
        index.search(&queries).unwrap();

        // Motion, then a view that is dropped without being queried: the
        // refit ran during as_index() and must not vanish.
        for h in 0..points.len() as u32 {
            let p = index.position(h).unwrap();
            index.move_point(h, p + Vec3::new(0.003, 0.0, -0.002));
        }
        drop(index.as_index().unwrap());
        let structure_before = index.frame_metrics().structure_ms;

        // No further motion: the frame reuses everything, but reports the
        // carried refit cost.
        let frame = index.search(&queries).unwrap();
        assert_eq!(frame.action, StructureAction::Reused);
        assert!(
            frame.structure_ms > 0.0,
            "the dropped view's refit cost must be carried to this frame"
        );
        assert!(index.frame_metrics().structure_ms > structure_before);
    }

    #[test]
    fn view_plans_with_other_params_stay_exact() {
        // The persistent megacell cache is populated under the config's
        // params; a view plan with a *larger* K (or radius) must not trust
        // those undersized megacells.
        let device = Device::rtx_2080();
        let points = jittered_block(7, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.0, 2));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        index.search(&queries).unwrap(); // cache grown for k = 2

        let mut view = index.as_index().unwrap();
        let wide = view.query(&queries, &QueryPlan::knn(1.6, 24)).unwrap();
        drop(view);
        // Compare distance sequences (the jittered block has equidistant
        // ties at the k-boundary, where ids are traversal-order-defined; a
        // stale undersized megacell would *miss* a closer point and shift
        // the distances).
        for (qi, q) in queries.iter().enumerate() {
            let dists = |ids: &[u32]| -> Vec<f32> {
                ids.iter()
                    .map(|&id| q.distance(points[id as usize]))
                    .collect()
            };
            assert_eq!(
                dists(&wide.neighbors[qi]),
                dists(&rtnn::verify::brute_force_knn(&points, *q, 1.6, 24)),
                "query {qi}: k=2 megacells must not serve a k=24 plan"
            );
        }
    }

    #[test]
    fn frame_searches_feed_the_continuous_profiler() {
        use rtnn_telemetry::{SignatureProfiler, Telemetry, TelemetryLevel};
        let device = Device::rtx_2080();
        let points = jittered_block(5, 0.6);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 6));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
        let plain = index.search(&queries).unwrap();
        let tel = Telemetry::new(TelemetryLevel::Basic);
        tel.enable_profiler(SignatureProfiler::default());
        let observed = Telemetry::scoped(&tel, || index.search(&queries)).unwrap();
        assert_eq!(
            plain.results.neighbors, observed.results.neighbors,
            "profiling a frame never changes its results"
        );
        let snap = tel.profile_snapshot().unwrap();
        let profile = snap
            .lookup("knn", index.len(), index.backend().name())
            .expect("the frame query profiled under its live density");
        assert_eq!(profile.executions, 1);
        assert_eq!(profile.stage("Launch").unwrap().count, 1);
        assert!(
            profile.total.mean_ms > 0.0,
            "a non-trivial frame charges device time"
        );
    }

    #[test]
    fn auto_tuned_frames_stay_exact_and_carry_state_across_frames() {
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();

        let drive = |seed: Option<u64>| -> (Vec<Vec<Vec<u32>>>, Vec<Option<rtnn::OptLevel>>) {
            let mut index = DynamicIndex::with_points(&device, config, &points);
            if let Some(seed) = seed {
                index.enable_auto(seed);
            }
            let mut neighbors = Vec::new();
            let mut levels = Vec::new();
            for frame in 0..8u32 {
                for h in 0..points.len() as u32 {
                    let p = index.position(h).unwrap();
                    index.move_point(h, p + Vec3::new(0.001 * frame as f32, -0.001, 0.0005));
                }
                let f = index.search(&queries).unwrap();
                neighbors.push(f.results.neighbors.clone());
                levels.push(index.last_decision().map(|d| d.level));
            }
            (neighbors, levels)
        };

        let (static_neighbors, static_levels) = drive(None);
        let (auto_neighbors, auto_levels) = drive(Some(7));
        let (auto_again, auto_levels_again) = drive(Some(7));

        assert!(static_levels.iter().all(Option::is_none));
        assert!(
            auto_levels.iter().all(Option::is_some),
            "every frame decides"
        );
        assert_eq!(
            auto_levels, auto_levels_again,
            "same seed, same motion: identical decision sequence"
        );
        assert_eq!(auto_neighbors, auto_again, "bit-equal replay");
        // Tuning changes *which* stages run, never the answer: ids must
        // match the untuned frames bit-for-bit on every frame, including
        // the early frames the tuner spends exploring low ladder rungs.
        assert_eq!(auto_neighbors, static_neighbors);
        // The state survived across frames: by frame 8 all four arms have
        // been bootstrapped, so later frames exploit measurements.
        let mut index = DynamicIndex::with_points(&device, config, &points);
        index.enable_auto(7);
        for _ in 0..8 {
            index.search(&queries).unwrap();
        }
        let report = index.tuner().unwrap().report();
        assert_eq!(report.len(), 1, "one signature: knn at this density");
        assert_eq!(report[0].measured_arms, 4, "all arms bootstrapped");
        assert_eq!(report[0].decisions, 8);
    }

    #[test]
    fn an_auto_engine_config_leaves_frames_static() {
        // Frames tune only through `enable_auto`, whose tuner outlives the
        // frame; an auto engine config runs every frame at its static level.
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let params = SearchParams::knn(1.2, 8);
        let auto = RtnnConfig {
            params,
            engine: EngineConfig::auto(),
        };
        let mut tuned = DynamicIndex::with_points(&device, auto, &points);
        let mut fixed = DynamicIndex::with_points(&device, RtnnConfig::new(params), &points);
        for frame in 0..4u32 {
            for h in 0..points.len() as u32 {
                let p = tuned.position(h).unwrap() + Vec3::new(0.001 * frame as f32, 0.0, 0.0);
                tuned.move_point(h, p);
                fixed.move_point(h, p);
            }
            let a = tuned.search(&queries).unwrap().results;
            let b = fixed.search(&queries).unwrap().results;
            assert_eq!(a.neighbors, b.neighbors, "frame {frame}");
            assert_eq!(a.breakdown, b.breakdown, "frame {frame}");
        }
    }

    #[test]
    fn explicit_backends_drive_the_dynamic_index() {
        // The opaque OptiX shim exposes no SAH, so quality stays 1.0 and
        // the adaptive policy relies on its cap — results stay exact.
        let device = Device::rtx_2080();
        let backend = OptixBackend::new(&device);
        let points = jittered_block(5, 0.7);
        let config = RtnnConfig::new(SearchParams::knn(1.4, 6));
        let mut index = DynamicIndex::with_backend(&backend, config, RebuildPolicy::adaptive());
        for &p in &points {
            index.insert(p);
        }
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let f0 = index.search(&queries).unwrap();
        assert_eq!(f0.action, StructureAction::Rebuilt);
        for h in 0..points.len() as u32 {
            let p = index.position(h).unwrap();
            index.move_point(h, p + Vec3::new(0.01, 0.0, -0.01));
        }
        let f1 = index.search(&queries).unwrap();
        assert_eq!(f1.action, StructureAction::Refit);
        assert_eq!(f1.quality_ratio, 1.0, "opaque backend exposes no SAH");
        // Exactness against the default backend's fresh engine.
        let moved: Vec<Vec3> = (0..points.len() as u32)
            .filter_map(|h| index.position(h))
            .collect();
        let gpusim = GpusimBackend::new(&device);
        let mut fresh = Index::build(&gpusim, &moved[..], config.engine);
        let reference = fresh.query(&queries, &config.plan()).unwrap();
        assert_eq!(f1.results.neighbors, reference.neighbors);
    }
}
