//! The persistent [`DynamicIndex`]: a point cloud that survives across
//! query rounds, with stable point handles, in-place structure refits, and
//! policy-driven rebuilds — executing on any `rtnn::Backend`.

use crate::policy::RebuildPolicy;
use rtnn::{
    Accel, AdoptedScene, Backend, GpusimBackend, Index, MegacellGrid, PlanError, QueryPlan,
    RtnnConfig, SearchError, SearchResults, StageOverrides,
};
use rtnn_bvh::{BuildParams, Bvh, SlotSet};
use rtnn_gpusim::{Device, FrameAccumulator};
use rtnn_math::Vec3;

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
    /// 1.0 on backends that build no tree).
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

/// Lets [`AutoTuner::run`](rtnn::AutoTuner::run) tune a frame.
impl AsRef<SearchResults> for FrameResult {
    fn as_ref(&self) -> &SearchResults {
        &self.results
    }
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

    /// [`query`](Self::query) with per-call [`StageOverrides`]: the frame
    /// executes through the same staged pipeline as every other entry
    /// point, so individual stages (reordering, partitioning) can be picked
    /// per call even on a streaming scene.
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
}

/// A persistent neighbor-search index over a mutable point cloud.
///
/// Mutations ([`insert`](Self::insert), [`remove`](Self::remove),
/// [`move_point`](Self::move_point)) are O(1) bookkeeping; the expensive
/// state — global acceleration structure and megacell grid — is maintained
/// lazily at the next [`search`](Self::search), at a cost that grows with
/// the moved points and the tree's nodes (see the crate docs):
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
    /// An insert or removal since the last frame that succeeded.
    membership_dirty: bool,
    /// Handles moved since the last frame that succeeded; all live unless
    /// `membership_dirty` is set.
    moved: SlotSet,
    /// Structure state (None until the first search).
    accel: Option<Accel>,
    /// SAH cost of the tree at its last rebuild (`None` for a backend that
    /// builds no tree): the baseline of every refit's quality ratio.
    built_sah: Option<f64>,
    grid: Option<MegacellGrid>,
    /// Structure-maintenance cost (simulated / host wall-clock) incurred
    /// but not yet reported through a [`FrameResult`]: maintenance done for
    /// a dropped-or-unqueried view accumulates here and the next search
    /// drains it, so no work ever vanishes from the accounting.
    pending_structure_ms: f64,
    pending_host_structure_ms: f64,
    last_traversal_ms: Option<f64>,
    metrics: FrameAccumulator,
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
            moved: SlotSet::default(),
            accel: None,
            built_sah: None,
            grid: None,
            last_traversal_ms: None,
            metrics: FrameAccumulator::default(),
            pending_structure_ms: 0.0,
            pending_host_structure_ms: 0.0,
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

    /// Insert a point; returns its stable handle. A NaN or infinite `p` is
    /// accepted here; the next frame ([`search`](Self::search) or
    /// [`as_index`](Self::as_index)) fails with
    /// [`PlanError::NonFinitePoint`] naming the handle.
    pub fn insert(&mut self, p: Vec3) -> u32 {
        let handle = self.positions.len() as u32;
        self.positions.push(p);
        self.live.push(true);
        self.moved.fit(self.positions.len());
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
                // A removal makes the next frame rebuild from the live
                // points, which never reads the moved handles, so a moved
                // mark the handle may carry needs no unmarking.
                self.membership_dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Move a live point to a new position. Returns false for unknown or
    /// removed handles. As with [`insert`](Self::insert), a NaN or
    /// infinite `p` is reported by the next frame.
    pub fn move_point(&mut self, handle: u32, p: Vec3) -> bool {
        match self.live.get(handle as usize) {
            Some(true) => {
                self.positions[handle as usize] = p;
                self.moved.mark(handle);
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
        self.search_with(queries, StageOverrides::default())
    }

    /// [`search`](Self::search) with per-call [`StageOverrides`] for the
    /// frame's query: the call an [`AutoTuner::run`](rtnn::AutoTuner::run)
    /// round trip tunes. One caller-owned tuner carried across frames (and
    /// across refits and rebuilds) converges on the scene's measured best
    /// ladder rung. Overrides change *which* stages run, never the answer.
    pub fn search_with(
        &mut self,
        queries: &[Vec3],
        overrides: StageOverrides<'_>,
    ) -> Result<FrameResult, SearchError> {
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
        let results = self
            .frame_view(structure_ms)
            .query_with(queries, &plan, overrides)?;

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
        self.sync_structures()?;
        Ok(self.frame_view(0.0))
    }

    /// Build the per-frame adopted view both query paths share.
    fn frame_view(&self, structure_ms: f64) -> FrameIndex<'_> {
        let accel = self
            .accel
            .as_ref()
            .expect("structure exists after maintenance");
        let mut index = Index::adopt(
            self.backend.as_dyn(),
            &self.compact,
            self.config.engine,
            AdoptedScene {
                accel,
                grid: self.grid.as_ref(),
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
        // Validate early so invalid params fail before touching state.
        self.config.params.validate().map_err(SearchError::from)?;
        // So do non-finite positions: a frame that reports one leaves every
        // mutation pending, so the frame after the point is repaired runs
        // as if this one never had. Every folded position is finite, so
        // only pending ones need a look.
        let non_finite = |h: u32| !self.positions[h as usize].is_finite();
        let first_bad = if self.membership_dirty {
            (0..self.positions.len() as u32).find(|&h| self.live[h as usize] && non_finite(h))
        } else {
            self.moved.ascending().find(|&h| non_finite(h))
        };
        if let Some(handle) = first_bad {
            return Err(PlanError::NonFinitePoint { point_id: handle }.into());
        }
        let width = self.config.engine.aabb_width(self.config.params.radius);

        let membership_was_dirty = self.membership_dirty;
        if membership_was_dirty {
            self.refresh_compact();
        } else {
            for slot in self.moved.ascending() {
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
        let structural = membership_was_dirty
            || self.accel.is_none()
            || self.accel.as_ref().map(Accel::num_primitives) != Some(n);
        let action = if structural || (!self.moved.is_empty() && self.policy.always_rebuilds()) {
            // Structural changes cannot be refitted; a rebuild-every-frame
            // policy goes straight to the build so the baseline pays exactly
            // one build per motion frame (no exploratory refit).
            structure_ms += self.rebuild_structures(width)?;
            StructureAction::Rebuilt
        } else if !self.moved.is_empty() {
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
                    // Never below 1.0: a refit can coincidentally tighten
                    // boxes, and the policy only weighs degradation.
                    quality_ratio = match (refit.sah_after, self.built_sah) {
                        (Some(sah), Some(built)) if built > 0.0 => (sah / built).max(1.0),
                        _ => 1.0,
                    };
                    let timing = self.backend.as_dyn().timing(n);
                    if self
                        .policy
                        .should_rebuild(quality_ratio, &timing, self.last_traversal_ms)
                    {
                        structure_ms += self.rebuild_structures(width)?;
                        StructureAction::Rebuilt
                    } else {
                        self.refresh_grid();
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
        // Only a frame that succeeded folds its mutations: one whose
        // rebuild ran out of device memory leaves them pending, like one
        // that met a non-finite point.
        self.membership_dirty = false;
        self.moved.clear();
        Ok(SyncInfo {
            action,
            quality_ratio,
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
            .get()
            .min((16 * self.compact.len().max(1)).next_power_of_two())
    }

    /// Rebuild the global structure, SAH baseline and megacell grid from
    /// the current compact positions through the backend; returns the
    /// simulated build time.
    fn rebuild_structures(&mut self, width: f32) -> Result<f64, SearchError> {
        let budget = self.grid_budget();
        let accel = self
            .backend
            .as_dyn()
            .build(&self.compact, width, BuildParams::default())
            .map_err(SearchError::OutOfDeviceMemory)?;
        let build_ms = accel.build_time_ms();
        // A built tree seeds the SAH baseline; without one, quality stays 1.0.
        self.built_sah = accel.bvh().map(Bvh::sah_cost);
        self.accel = Some(accel);
        self.grid = MegacellGrid::build(&self.compact, budget);
        Ok(build_ms)
    }

    /// Absorb this frame's motion into the megacell grid, falling back to
    /// a wholesale grid rebuild when the motion escaped the grid bounds.
    fn refresh_grid(&mut self) {
        if let Some(grid) = self.grid.as_mut() {
            let moved_compact: Vec<u32> = self
                .moved
                .ascending()
                .map(|slot| self.slot_to_compact[slot as usize])
                .filter(|&c| c != u32::MAX)
                .collect();
            if grid.refresh(&self.compact, &moved_compact) {
                return;
            }
        }
        self.grid = MegacellGrid::build(&self.compact, self.grid_budget());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{
        exhaustive_traverse, EngineConfig, OptLevel, PlanSlice, RefitOutcome, SearchParams,
        StructureTiming, Traversal, TraversalJob,
    };
    use rtnn_gpusim::device::OutOfDeviceMemory;
    use std::num::NonZeroUsize;
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

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
    fn moved_handle_bookkeeping_matches_a_fresh_index_every_frame() {
        enum Op {
            Insert(Vec3),
            Remove(u32),
            Move(u32, Vec3),
        }
        use Op::{Insert, Move, Remove};
        let device = Device::rtx_2080();
        let gpusim = GpusimBackend::new(&device);
        let points = jittered_block(6, 0.5);
        let n = points.len() as u32;
        let nan = Vec3::new(f32::NAN, 0.0, 0.0);
        // Contractions towards the block's centre (expansions for a
        // negative step) of up to about a point spacing: a position the
        // index missed changes answers, and a contraction stays inside the
        // megacell grid, so a refit frame refreshes it in place.
        let centre = Vec3::splat(1.25);
        let drift =
            |h: u32, step: f32| centre + (points[h as usize] - centre) * (1.0 - 0.08 * step);
        // The grid budget of a dynamic frame over 129–256 live points is
        // 4,096 cells; a fresh index on the same budget bins its points
        // into the same grid.
        let config = RtnnConfig {
            params: SearchParams::range(1.1, 1000),
            engine: EngineConfig::default().with_grid_max_cells(NonZeroUsize::new(4096).unwrap()),
        };
        // Each frame's mutations, and the handle its frame must report as
        // non-finite (`None`: the frame succeeds).
        let frames: Vec<(Vec<Op>, Option<u32>)> = vec![
            (Vec::new(), None),
            (
                // Every third handle; handle 1, the lowest, twice and into
                // another grid cell; handle 20 away and back to where it
                // was.
                (1..n)
                    .step_by(3)
                    .map(|h| Move(h, drift(h, 1.0)))
                    .chain([
                        Move(1, drift(1, 2.0)),
                        Move(1, drift(1, 4.0)),
                        Move(20, drift(20, 4.0)),
                        Move(20, points[20]),
                    ])
                    .collect(),
                None,
            ),
            (
                // A move then a removal of the same handle, among others.
                vec![
                    Move(7, drift(7, 2.0)),
                    Remove(7),
                    Insert(Vec3::new(1.3, 1.2, 0.4)),
                    Remove(5),
                    Move(40, drift(40, -1.0)),
                    Insert(Vec3::new(0.2, 2.2, 1.9)),
                ],
                None,
            ),
            (
                // Two bad moves, the higher handle (in a higher bitset
                // word) first.
                vec![Move(150, nan), Move(9, drift(9, 1.0)), Move(30, nan)],
                Some(30),
            ),
            (vec![Move(30, drift(30, 1.0)), Move(150, points[150])], None),
            (
                // A bad insert (the highest handle) and a bad move.
                vec![Insert(nan), Move(12, Vec3::splat(f32::INFINITY))],
                Some(12),
            ),
            (vec![Remove(n + 2), Move(12, drift(12, -2.0))], None),
            (
                (0..n)
                    .filter(|h| ![5, 7].contains(h))
                    .map(|h| Move(h, drift(h, 0.5)))
                    .collect(),
                None,
            ),
        ];

        // The frames that succeed (0, 1, 2, 4, 6, 7) rebuild on a
        // membership change and otherwise refit, unless the policy
        // rebuilds on every motion.
        use StructureAction::{Rebuilt, Refit};
        for (policy, want_actions) in [
            (RebuildPolicy::always_rebuild(), [Rebuilt; 6]),
            (
                RebuildPolicy::never_rebuild(),
                [Rebuilt, Refit, Rebuilt, Refit, Rebuilt, Refit],
            ),
        ] {
            let context = format!("{:?}", policy.mode);
            let mut actions = Vec::new();
            let mut index = DynamicIndex::with_policy(&device, config, policy);
            // A second index marks every live handle every frame, so its
            // moved handles are complete by construction.
            let mut marks_all = DynamicIndex::with_policy(&device, config, policy);
            let mut model: Vec<Option<Vec3>> = Vec::new();
            for &p in &points {
                model.push(Some(p));
                index.insert(p);
                marks_all.insert(p);
            }
            for (frame, (ops, bad)) in frames.iter().enumerate() {
                let context = format!("{context}, frame {frame}");
                for op in ops {
                    match *op {
                        Insert(p) => {
                            let h = index.insert(p);
                            assert_eq!(marks_all.insert(p), h);
                            assert_eq!(h as usize, model.len());
                            model.push(Some(p));
                        }
                        Remove(h) => {
                            assert!(index.remove(h) && marks_all.remove(h), "{context}");
                            model[h as usize] = None;
                        }
                        Move(h, p) => {
                            assert!(index.move_point(h, p), "{context}");
                            model[h as usize] = Some(p);
                        }
                    }
                }
                for (h, p) in model.iter().enumerate() {
                    if let Some(p) = *p {
                        marks_all.move_point(h as u32, p);
                    }
                }
                let handles: Vec<u32> = (0..model.len() as u32)
                    .filter(|&h| model[h as usize].is_some())
                    .collect();
                let live: Vec<Vec3> = handles
                    .iter()
                    .map(|&h| model[h as usize].unwrap())
                    .collect();
                let queries: Vec<Vec3> = live.iter().step_by(5).copied().collect();
                let (got, reference) = (index.search(&queries), marks_all.search(&queries));
                if let Some(bad) = *bad {
                    let rejected = |r: &Result<FrameResult, SearchError>| {
                        matches!(
                            r,
                            Err(SearchError::InvalidPlan(PlanError::NonFinitePoint { point_id }))
                                if *point_id == bad
                        )
                    };
                    assert!(rejected(&got) && rejected(&reference), "{context}");
                    continue;
                }
                let (got, reference) = (got.unwrap(), reference.unwrap());
                for index in [&mut index, &mut marks_all] {
                    let view = index.as_index().unwrap();
                    assert_eq!(view.index.points(), &live[..], "{context}");
                    assert_eq!(view.handles, &handles[..], "{context}");
                }
                actions.push(got.action);
                assert_eq!(got.action, reference.action, "{context}");
                assert_eq!(got.structure_ms, reference.structure_ms, "{context}");
                assert_eq!(
                    got.results.total_time_ms().to_bits(),
                    reference.results.total_time_ms().to_bits(),
                    "{context}"
                );
                let (a, b) = (&got.results, &reference.results);
                assert_eq!(a.neighbors, b.neighbors, "{context}");
                assert_eq!(a.search_metrics, b.search_metrics, "{context}");
                assert_eq!(a.fs_metrics, b.fs_metrics, "{context}");
                let mut fresh = Index::build(&gpusim, &live[..], config.engine)
                    .query(&queries, &config.plan())
                    .unwrap();
                for ids in fresh.neighbors.iter_mut() {
                    for id in ids.iter_mut() {
                        *id = handles[*id as usize];
                    }
                }
                if got.action == StructureAction::Rebuilt {
                    // Rebuilt from the live points, the frame's structures
                    // are a fresh index's.
                    assert_eq!(got.results.neighbors, fresh.neighbors, "{context}");
                    assert_eq!(
                        got.results.search_metrics, fresh.search_metrics,
                        "{context}"
                    );
                    assert_eq!(got.results.fs_metrics, fresh.fs_metrics, "{context}");
                } else {
                    for (qi, (d, f)) in got
                        .results
                        .neighbors
                        .iter()
                        .zip(&fresh.neighbors)
                        .enumerate()
                    {
                        assert_eq!(
                            sorted(d.clone()),
                            sorted(f.clone()),
                            "{context}, query {qi}"
                        );
                    }
                }
            }
            assert_eq!(actions, want_actions, "{context}");
        }
    }

    /// The gpusim backend, except that its builds fail while
    /// `out_of_memory` is set.
    struct StarvedBackend<'d> {
        inner: GpusimBackend<'d>,
        out_of_memory: AtomicBool,
    }

    impl Backend for StarvedBackend<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn device(&self) -> &Device {
            self.inner.device()
        }

        fn build(
            &self,
            points: &[Vec3],
            aabb_width: f32,
            build: BuildParams,
        ) -> Result<Accel, OutOfDeviceMemory> {
            if self.out_of_memory.load(Relaxed) {
                return Err(OutOfDeviceMemory {
                    requested_bytes: 1,
                    capacity_bytes: 0,
                });
            }
            self.inner.build(points, aabb_width, build)
        }

        fn refit(&self, accel: &mut Accel, points: &[Vec3]) -> Option<RefitOutcome> {
            self.inner.refit(accel, points)
        }

        fn traverse(&self, accel: &Accel, job: &TraversalJob<'_>) -> Traversal {
            self.inner.traverse(accel, job)
        }

        fn timing(&self, num_prims: usize) -> StructureTiming {
            self.inner.timing(num_prims)
        }
    }

    #[test]
    fn a_frame_that_runs_out_of_memory_leaves_its_mutations_pending() {
        let device = Device::rtx_2080();
        let backend = StarvedBackend {
            inner: GpusimBackend::new(&device),
            out_of_memory: false.into(),
        };
        let config = RtnnConfig {
            params: SearchParams::range(1.1, 1000),
            engine: EngineConfig::default(),
        };
        let points = jittered_block(6, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
        let mut index =
            DynamicIndex::with_backend(&backend, config, RebuildPolicy::never_rebuild());
        for &p in &points {
            index.insert(p);
        }
        index.search(&queries).unwrap();

        // A handle moved to NaN and then removed, a moved handle, and an
        // insert that restores the live count, so a stale structure would
        // have the current one's size.
        let mut live = points.clone();
        index.move_point(5, Vec3::splat(f32::NAN));
        assert!(index.remove(5));
        live.remove(5);
        let moved = points[40] + Vec3::new(0.3, -0.2, 0.1);
        index.move_point(40, moved);
        live[39] = moved;
        let extra = Vec3::new(1.3, 1.2, 0.4);
        index.insert(extra);
        live.push(extra);
        let handles: Vec<u32> = (0..=points.len() as u32).filter(|&h| h != 5).collect();

        backend.out_of_memory.store(true, Relaxed);
        for _ in 0..2 {
            assert!(matches!(
                index.search(&queries),
                Err(SearchError::OutOfDeviceMemory(_))
            ));
        }
        backend.out_of_memory.store(false, Relaxed);
        // The first frame with memory folds every pending mutation.
        let frame = index.search(&queries).unwrap();
        assert_eq!(frame.action, StructureAction::Rebuilt);
        let view = index.as_index().unwrap();
        assert_eq!(view.index.points(), &live[..]);
        assert_eq!(view.handles, &handles[..]);
        let mut fresh = Index::build(&backend.inner, &live[..], config.engine)
            .query(&queries, &config.plan())
            .unwrap();
        for ids in fresh.neighbors.iter_mut() {
            for id in ids.iter_mut() {
                *id = handles[*id as usize];
            }
        }
        assert_eq!(frame.results.neighbors, fresh.neighbors);
        assert_eq!(frame.results.search_metrics, fresh.search_metrics);
        // And the next frame, with nothing pending, reuses it.
        let again = index.search(&queries).unwrap();
        assert_eq!(again.action, StructureAction::Reused);
        assert_eq!(again.results.neighbors, fresh.neighbors);
    }

    #[test]
    fn a_frame_with_invalid_search_params_fails_before_structure_work() {
        let device = Device::rtx_2080();
        let config = RtnnConfig::new(SearchParams::knn(-1.2, 8));
        let points = jittered_block(8, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
        let rejected = |r: Result<(), SearchError>| {
            matches!(
                r,
                Err(SearchError::InvalidPlan(PlanError::InvalidRadius {
                    field: "SearchParams.radius",
                    value,
                })) if value == -1.2
            )
        };
        let mut index = DynamicIndex::with_points(&device, config, &points);
        assert!(rejected(index.as_index().map(drop)));
        assert!(rejected(index.search(&queries).map(drop)));
        // A backend that fails every build: the params error comes first.
        let backend = StarvedBackend {
            inner: GpusimBackend::new(&device),
            out_of_memory: true.into(),
        };
        let mut starved = DynamicIndex::with_backend(&backend, config, RebuildPolicy::default());
        for &p in &points {
            starved.insert(p);
        }
        assert!(rejected(starved.search(&queries).map(drop)));
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
    fn motion_synced_without_a_partitioned_search_stays_exact() {
        // Motion folded in by a FrameIndex that is dropped unused, or by a
        // frame searched without partitioning, must show in the next
        // partitioned search, even one whose own frame moves only a point
        // far from the query.
        //
        // The scene makes a stale megacell observable: a dense clump right
        // at the query (its megacell is tiny), a mid-distance shell that
        // becomes the true nearest set once the clump scatters, and a lone
        // far sentinel whose later motion is nowhere near the query.
        let device = Device::rtx_2080();
        let mut points: Vec<Vec3> = Vec::new();
        let centre = Vec3::new(10.0, 10.0, 10.0);
        let clump = 30usize;
        for i in 0..clump {
            // Dense clump within ~0.1 of the query position: its megacell
            // is a single fine grid cell.
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
        // the megacell grid gets a fine cell size (a stale megacell only
        // misses the shell when its box is much smaller than the radius).
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
        let queries = vec![centre];
        // Frame 2 syncs the scattered clump in one of two ways, neither of
        // which runs the partitioning pass: a view dropped unused, or a
        // frame searched without partitioning.
        for how in ["dropped view", "unpartitioned frame"] {
            let mut points = points.clone();
            let mut index = DynamicIndex::with_points(&device, config, &points);
            index.search(&queries).unwrap(); // a tiny megacell (clump)

            // Frame 2: the clump scatters out of the search radius entirely.
            for h in 0..clump as u32 {
                let p = points[h as usize] + Vec3::new(0.0, 0.0, 8.0);
                points[h as usize] = p;
                index.move_point(h, p);
            }
            if how == "dropped view" {
                drop(index.as_index().unwrap());
            } else {
                index
                    .search_with(&queries, StageOverrides::without_partitioning())
                    .unwrap();
            }

            // Frame 3: only the far sentinel twitches, far from the query's
            // reach; a megacell still sized for the clump would miss the
            // shell entirely.
            let moved = points[sentinel as usize] + Vec3::new(0.5, 0.0, 0.0);
            points[sentinel as usize] = moved;
            index.move_point(sentinel, moved);

            let frame = index.search(&queries).unwrap();
            assert_eq!(
                frame.action,
                StructureAction::Refit,
                "{how}: scenario precondition"
            );
            let expected = rtnn::verify::brute_force_knn(&points, centre, 6.0, k);
            assert_eq!(
                sorted(frame.results.neighbors[0].clone()),
                sorted(expected),
                "{how}: frame 3 missed frame 2's motion"
            );
        }
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
        // A view plan with a *larger* K and radius than the config's must
        // answer exactly: megacells sized for the config's k = 2 would be
        // too small for it.
        let device = Device::rtx_2080();
        let points = jittered_block(7, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.0, 2));
        let mut index = DynamicIndex::with_points(&device, config, &points);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        index.search(&queries).unwrap(); // a frame at k = 2

        let mut view = index.as_index().unwrap();
        let wide = view.query(&queries, &QueryPlan::knn(1.6, 24)).unwrap();
        drop(view);
        // Compare distance sequences (the jittered block has equidistant
        // ties at the k-boundary, where ids are traversal-order-defined; an
        // undersized megacell would *miss* a closer point and shift the
        // distances).
        for (qi, q) in queries.iter().enumerate() {
            let dists = |ids: &[u32]| -> Vec<f32> {
                ids.iter()
                    .map(|&id| q.distance(points[id as usize]))
                    .collect()
            };
            assert_eq!(
                dists(&wide.neighbors[qi]),
                dists(&rtnn::verify::brute_force_knn(&points, *q, 1.6, 24)),
                "query {qi}: the k=24 view plan must match the oracle"
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
        use rtnn::{AutoTuner, CostCoefficients};
        let device = Device::rtx_2080();
        let points = jittered_block(6, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();

        // Eight frames of motion, each searched through `tuner` when one is
        // given (one caller-owned tuner carried across every frame).
        type Frames = (Vec<Vec<Vec<u32>>>, Vec<Option<OptLevel>>);
        let drive = |mut tuner: Option<&mut AutoTuner>| -> Frames {
            let mut index = DynamicIndex::with_points(&device, config, &points);
            let mut neighbors = Vec::new();
            let mut levels = Vec::new();
            for frame in 0..8u32 {
                for h in 0..points.len() as u32 {
                    let p = index.position(h).unwrap();
                    index.move_point(h, p + Vec3::new(0.001 * frame as f32, -0.001, 0.0005));
                }
                let (level, f) = match tuner.as_deref_mut() {
                    Some(tuner) => {
                        let (d, f) = tuner.run(
                            config.plan().kind_label(),
                            index.len(),
                            index.backend().name(),
                            queries.len(),
                            |decided| index.search_with(&queries, decided),
                        );
                        (Some(d.level), f)
                    }
                    None => (None, index.search(&queries)),
                };
                neighbors.push(f.unwrap().results.neighbors);
                levels.push(level);
            }
            (neighbors, levels)
        };
        let tuner = || AutoTuner::new(7).with_cost_model(CostCoefficients::calibrate(&device));

        let (static_neighbors, _) = drive(None);
        let mut carried = tuner();
        let (auto_neighbors, auto_levels) = drive(Some(&mut carried));
        let (auto_again, auto_levels_again) = drive(Some(&mut tuner()));

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
        let report = carried.report();
        assert_eq!(report.len(), 1, "one signature: knn at this density");
        assert_eq!(report[0].measured_arms, 4, "all arms bootstrapped");
        assert_eq!(report[0].decisions, 8);
    }

    /// A backend that builds no tree: flat handles, answered by exhaustive
    /// scan on the device.
    struct FlatBackend<'d> {
        device: &'d Device,
    }

    impl Backend for FlatBackend<'_> {
        fn name(&self) -> &'static str {
            "flat"
        }

        fn device(&self) -> &Device {
            self.device
        }

        fn build(
            &self,
            points: &[Vec3],
            aabb_width: f32,
            _build: BuildParams,
        ) -> Result<Accel, OutOfDeviceMemory> {
            Ok(Accel::flat(points.len(), aabb_width))
        }

        fn refit(&self, accel: &mut Accel, points: &[Vec3]) -> Option<RefitOutcome> {
            accel.refit_in_place(self.device, points)
        }

        fn traverse(&self, accel: &Accel, job: &TraversalJob<'_>) -> Traversal {
            exhaustive_traverse(self.device, accel, job)
        }

        fn timing(&self, _num_prims: usize) -> StructureTiming {
            StructureTiming::default()
        }
    }

    #[test]
    fn explicit_backends_drive_the_dynamic_index() {
        // A backend without a tree has no SAH, so quality stays 1.0 and the
        // adaptive policy relies on its cap — results stay exact.
        let device = Device::rtx_2080();
        let backend = FlatBackend { device: &device };
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
        assert_eq!(f1.quality_ratio, 1.0, "a backend without a tree has no SAH");
        // Exactness against the default backend's fresh engine.
        let moved: Vec<Vec3> = (0..points.len() as u32)
            .filter_map(|h| index.position(h))
            .collect();
        let gpusim = GpusimBackend::new(&device);
        let mut fresh = Index::build(&gpusim, &moved[..], config.engine);
        let reference = fresh.query(&queries, &config.plan()).unwrap();
        assert_eq!(f1.results.neighbors, reference.neighbors);
    }

    #[test]
    fn a_refit_frame_reports_the_refitted_over_the_built_sah() {
        let device = Device::rtx_2080();
        let mut points = jittered_block(7, 0.5);
        let config = RtnnConfig::new(SearchParams::knn(1.2, 8));
        let mut index = DynamicIndex::with_policy(&device, config, RebuildPolicy::never_rebuild());
        for &p in &points {
            index.insert(p);
        }
        let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
        assert_eq!(
            index.search(&queries).unwrap().action,
            StructureAction::Rebuilt
        );
        // Scatter every point to another's place (37 is coprime with the
        // 7³ points): the frozen topology now groups far-apart points, so
        // the refitted tree is clearly worse.
        let built_points = points.clone();
        for (h, p) in points.iter_mut().enumerate() {
            *p = built_points[h * 37 % built_points.len()] + Vec3::new(0.1, -0.05, 0.02);
            index.move_point(h as u32, *p);
        }
        let frame = index.search(&queries).unwrap();
        assert_eq!(frame.action, StructureAction::Refit);

        // The same ratio, straight from rtnn-bvh over the same cubes.
        let width = config.engine.aabb_width(config.params.radius);
        let built = rtnn_bvh::build_point_bvh(&built_points, 0.5 * width, BuildParams::default());
        let mut refitted = built.clone();
        rtnn_bvh::refit_bvh_serial(&mut refitted, &points).unwrap();
        let want = (refitted.sah_cost() / built.sah_cost()).max(1.0);
        assert!(want > 1.2, "the swap must degrade the tree, got {want}");
        assert_eq!(frame.quality_ratio, want);
    }
}
