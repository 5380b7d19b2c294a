//! The persistent [`Index`]: build the scene-side state once, answer many
//! typed [`QueryPlan`]s against it.
//!
//! The API has two levels:
//!
//! * [`Index`] — built once from points (or adopted from a streaming
//!   `DynamicIndex`), owning the acceleration structures (one per AABB
//!   width, built lazily and cached) and the megacell grid;
//! * [`QueryPlan`] — passed per call to [`Index::query`], validated at
//!   query time with typed [`PlanError`]s.
//!
//! Engine-wide tuning that is *not* per-query (optimisation level, KNN
//! AABB rule, grid budget) lives in [`EngineConfig`].
//!
//! Every call runs through one driver: a single plan is a one-slice batch
//! over every query, so single plans and heterogeneous batches share the
//! same structure ensure, scheduling pass and per-slice stages.
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
//!
//! let mut index = Index::build(&backend, &points[..], EngineConfig::default());
//! let knn = index.query(&points, &QueryPlan::knn(1.5, 8)).unwrap();
//! let rng = index.query(&points, &QueryPlan::range(0.9, 32)).unwrap();
//! assert_eq!(knn.neighbors.len(), points.len());
//! assert_eq!(rng.neighbors.len(), points.len());
//! // The second query reused the index's cached grid; only structures for
//! // new AABB widths were built.
//! assert!(index.cached_structures() >= 1);
//! ```

use crate::backend::{Accel, Backend, Traversal, TraversalJob, TraversalKind};
use crate::engine::{OptLevel, SearchError};
use crate::megacell::MegacellGrid;
use crate::partition::{KnnAabbRule, Partition};
use crate::pipeline::{PartitionCx, ScheduleCx, StageKind, StageMeter, StageOverrides};
use crate::plan::{plan_slices, validate_points, PlanError, QueryPlan};
use crate::result::{SearchMode, SearchParams, SearchResults, TimeBreakdown};
use rtnn_bvh::BuildParams;
use rtnn_gpusim::kernel::point_cloud_bytes;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::LaunchMetrics;
use rtnn_parallel::par_map_collect;
use rtnn_telemetry::{ProfileSample, Telemetry};
use std::borrow::Cow;
use std::num::NonZeroUsize;

/// Engine-wide tuning, shared by every plan an [`Index`] serves. Per-query
/// parameters (radius, K, variant) live in the [`QueryPlan`] instead.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Which of the paper's optimisations are enabled.
    pub opt: OptLevel,
    /// How KNN partition AABB widths are derived (default: guaranteed-exact).
    pub knn_rule: KnnAabbRule,
    /// Grid-resolution budget for the megacell pass (stands in for the GPU
    /// memory cap the paper mentions). [`MegacellGrid::build`] raises any
    /// budget below 8 cells to 8.
    pub grid_max_cells: NonZeroUsize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            opt: OptLevel::Full,
            knn_rule: KnnAabbRule::default(),
            grid_max_cells: NonZeroUsize::new(1 << 21).expect("2^21 is nonzero"),
        }
    }
}

impl EngineConfig {
    /// Set the optimisation level.
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Set the KNN AABB rule.
    pub fn with_knn_rule(mut self, rule: KnnAabbRule) -> Self {
        self.knn_rule = rule;
        self
    }

    /// Set the megacell grid budget.
    pub fn with_grid_max_cells(mut self, cells: NonZeroUsize) -> Self {
        self.grid_max_cells = cells;
        self
    }

    /// The full AABB width of a radius-`radius` search, `2r`: the cube
    /// that encloses the search sphere. Every plan with this radius
    /// traverses the structure built at this width.
    pub fn aabb_width(&self, radius: f32) -> f32 {
        2.0 * radius
    }
}

// ---------------------------------------------------------------------------
// Structure cache
// ---------------------------------------------------------------------------

/// A width-keyed cache of acceleration structures: the index's global
/// structure per plan radius plus the per-partition structures, owned or
/// adopted (borrowed from a streaming index).
pub(crate) struct AccelStore<'a> {
    entries: Vec<Cow<'a, Accel>>,
}

impl<'a> AccelStore<'a> {
    pub(crate) fn new() -> Self {
        AccelStore {
            entries: Vec::new(),
        }
    }

    /// Adopt a caller-owned structure (hit by width like any other entry).
    pub(crate) fn adopt(&mut self, accel: &'a Accel) {
        self.entries.push(Cow::Borrowed(accel));
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn accel(&self, id: usize) -> &Accel {
        &self.entries[id]
    }

    /// The entry id of the structure cached at `aabb_width`, if any.
    pub(crate) fn find(&self, aabb_width: f32) -> Option<usize> {
        let key = aabb_width.to_bits();
        self.entries
            .iter()
            .position(|e| e.aabb_width().to_bits() == key)
    }

    /// Get the structure for `aabb_width`, building (and charging) it on a
    /// miss. Returns the entry id and the simulated build cost incurred by
    /// *this* call (0 on a hit — that is the amortisation the index
    /// provides).
    pub(crate) fn ensure(
        &mut self,
        backend: &dyn Backend,
        points: &[Vec3],
        aabb_width: f32,
    ) -> Result<(usize, f64), SearchError> {
        if let Some(id) = self.find(aabb_width) {
            return Ok((id, 0.0));
        }
        let accel = backend
            .build(points, aabb_width, BuildParams::default())
            .map_err(SearchError::OutOfDeviceMemory)?;
        let build_ms = accel.build_time_ms();
        self.entries.push(Cow::Owned(accel));
        Ok((self.entries.len() - 1, build_ms))
    }

    /// Build every missing width in `aabb_widths` *concurrently* on the
    /// worker pool (a `Backend` is `Sync`, so independent widths build in
    /// parallel) and cache the results. Returns the total simulated build
    /// cost incurred — 0 when every width was already cached. Duplicate
    /// widths are deduplicated by bit pattern; entry order matches the
    /// first occurrence of each missing width, so cache ids stay
    /// deterministic regardless of thread count.
    pub(crate) fn ensure_many(
        &mut self,
        backend: &dyn Backend,
        points: &[Vec3],
        aabb_widths: &[f32],
    ) -> Result<f64, SearchError> {
        let mut missing: Vec<f32> = Vec::new();
        for &w in aabb_widths {
            if self.find(w).is_none() && !missing.iter().any(|m| m.to_bits() == w.to_bits()) {
                missing.push(w);
            }
        }
        if missing.is_empty() {
            return Ok(0.0);
        }
        let built = par_map_collect(missing.len(), |i| {
            backend.build(points, missing[i], BuildParams::default())
        });
        let mut total_ms = 0.0;
        for accel in built {
            let accel = accel.map_err(SearchError::OutOfDeviceMemory)?;
            total_ms += accel.build_time_ms();
            self.entries.push(Cow::Owned(accel));
        }
        Ok(total_ms)
    }
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

enum GridSlot<'a> {
    Unbuilt,
    Owned(Option<MegacellGrid>),
    Shared(&'a MegacellGrid),
}

fn grid_for<'s, 'a>(
    slot: &'s mut GridSlot<'a>,
    points: &[Vec3],
    budget: NonZeroUsize,
) -> Option<&'s MegacellGrid> {
    if let GridSlot::Unbuilt = slot {
        *slot = GridSlot::Owned(MegacellGrid::build(points, budget.get()));
    }
    match slot {
        GridSlot::Shared(g) => Some(g),
        GridSlot::Owned(opt) => opt.as_ref(),
        GridSlot::Unbuilt => unreachable!("built above"),
    }
}

/// Scene state adopted by [`Index::adopt`] from a caller that maintains it
/// across frames (the streaming `DynamicIndex`).
pub struct AdoptedScene<'a> {
    /// The global structure over the current point positions.
    pub accel: &'a Accel,
    /// Megacell grid over the current positions (`None` falls back to a
    /// lazily built grid).
    pub grid: Option<&'a MegacellGrid>,
}

/// A persistent neighbor-search index: scene-side state built once, typed
/// [`QueryPlan`]s answered per call (see module docs).
pub struct Index<'a> {
    backend: &'a dyn Backend,
    config: EngineConfig,
    points: Cow<'a, [Vec3]>,
    store: AccelStore<'a>,
    grid: GridSlot<'a>,
    pending_structure_ms: f64,
    /// The outcome of the one finiteness scan of `points`, run at the
    /// first query (`None` until then): their bounds, which the coherence
    /// schedule reuses, or the first non-finite point.
    point_check: Option<Result<Aabb, PlanError>>,
}

impl<'a> Index<'a> {
    /// Build an index over `points` on `backend`. Structures are built
    /// lazily — each AABB width the plans demand is built on first use and
    /// cached — so construction is cheap; validation happens at
    /// [`query`](Self::query) time, the points' included: every query
    /// fails with [`PlanError::NonFinitePoint`] if one of them is NaN or
    /// infinite.
    pub fn build(
        backend: &'a dyn Backend,
        points: impl Into<Cow<'a, [Vec3]>>,
        config: EngineConfig,
    ) -> Self {
        Index {
            backend,
            config,
            points: points.into(),
            store: AccelStore::new(),
            grid: GridSlot::Unbuilt,
            pending_structure_ms: 0.0,
            point_check: None,
        }
    }

    /// Adopt scene state maintained by a caller across query rounds (the
    /// streaming contract): the caller guarantees `scene.accel` covers
    /// `points` at their current positions and that a supplied grid was
    /// built/refreshed over them.
    pub fn adopt(
        backend: &'a dyn Backend,
        points: &'a [Vec3],
        config: EngineConfig,
        scene: AdoptedScene<'a>,
    ) -> Self {
        let mut store = AccelStore::new();
        store.adopt(scene.accel);
        Index {
            backend,
            config,
            points: Cow::Borrowed(points),
            store,
            grid: match scene.grid {
                Some(g) => GridSlot::Shared(g),
                None => GridSlot::Unbuilt,
            },
            pending_structure_ms: 0.0,
            point_check: None,
        }
    }

    /// The points the index was built over.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The engine-wide configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend
    }

    /// Number of acceleration structures currently cached (owned +
    /// adopted) — grows with the distinct AABB widths the plans demand.
    pub fn cached_structures(&self) -> usize {
        self.store.len()
    }

    /// Charge `ms` of caller-side structure maintenance (refit / rebuild
    /// time) to the next query's `BVH` breakdown slot — the streaming
    /// contract a `DynamicIndex` frame uses.
    pub fn charge_structure_ms(&mut self, ms: f64) {
        self.pending_structure_ms += ms;
    }

    /// Pre-build every structure (and the megacell grid) that `plan` would
    /// demand, without running any queries — the cold-start path a serving
    /// layer runs before the first request lands. Distinct AABB widths
    /// build *concurrently* on the worker pool.
    ///
    /// Returns the simulated build cost incurred by this call (0 when
    /// everything was already cached). The cost is also carried forward
    /// into the next query's `BVH` breakdown slot — warming is part of the
    /// scene's structure cost, not free work.
    pub fn warm(&mut self, plan: &QueryPlan) -> Result<f64, SearchError> {
        let cfg = self.config;
        let plan = plan.normalized();
        let parts: Vec<&QueryPlan> = match plan.as_ref() {
            QueryPlan::Batch(slices) if slices.is_empty() => {
                return Err(PlanError::EmptyBatch.into());
            }
            QueryPlan::Batch(slices) => slices.iter().map(|s| &s.plan).collect(),
            single => vec![single],
        };
        // Id-coverage checks wait for query time (warm has no query array).
        for part in &parts {
            part.validate(0)?;
        }
        let (schedule, partitioning) = StageOverrides::default().resolve(cfg.opt);
        let widths: Vec<f32> = schedule
            .needs_structure()
            .then(|| plan.max_radius())
            .into_iter()
            .chain(parts.iter().map(|p| p.max_radius()))
            .map(|r| cfg.aabb_width(r))
            .collect();
        if self.points.is_empty() {
            return Ok(0.0);
        }
        let built_ms = self
            .store
            .ensure_many(self.backend, &self.points, &widths)?;
        if partitioning.wants_grid() {
            grid_for(&mut self.grid, &self.points, cfg.grid_max_cells);
        }
        self.pending_structure_ms += built_ms;
        Ok(built_ms)
    }

    /// Answer `plan` for `queries` against the indexed points.
    ///
    /// The plan is normalized ([`QueryPlan::normalized`]: nested batches
    /// flattened, same-parameter slices merged) and then validated
    /// ([`PlanError`] names the offending field). A single plan runs as a
    /// one-slice batch over every query; [`QueryPlan::Batch`] answers
    /// heterogeneous plans in one call, sharing a single scheduling pass
    /// and every cached structure.
    pub fn query(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        self.query_with(queries, plan, StageOverrides::default())
    }

    /// [`query`](Self::query) with per-call [`StageOverrides`]: pick
    /// individual pipeline stages for this one call (e.g.
    /// [`StageOverrides::without_reordering`] runs the plan without the
    /// coherence schedule while every other stage keeps its default). See
    /// the [`pipeline`](crate::pipeline) module docs. This is the call an
    /// [`AutoTuner::run`](crate::AutoTuner::run) round trip tunes.
    pub fn query_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        // Unbounded-range sentinels resolve to this scene's point count (the
        // largest result a range query can produce) before any result-buffer
        // sizing; plans without the sentinel pass through untouched.
        let plan = plan.resolve_caps(self.points.len());
        let plan = plan.normalized();
        plan.validate_for(queries)?;
        let point_bounds = self
            .point_check
            .get_or_insert_with(|| validate_points(&self.points))
            .clone()?;
        let tel = Telemetry::current();
        let mut query_span = tel.as_ref().map(|t| {
            t.span(match plan.as_ref().kind_label() {
                "knn" => "index.query.knn",
                "range" => "index.query.range",
                _ => "index.query.batch",
            })
        });
        if let Some(t) = &tel {
            t.counter_add("index.queries", 1);
            t.counter_add("index.query_points", queries.len() as u64);
        }
        let slices = plan_slices(&plan, queries.len());
        let result = self.execute(queries, point_bounds, &slices, overrides);
        if let (Some(span), Ok(results)) = (query_span.as_mut(), result.as_ref()) {
            span.attr("queries", queries.len() as f64)
                .attr("points", self.points.len() as f64)
                .attr("device_ms", results.trace.device_total_ms())
                .attr("partitions", results.num_partitions as f64);
        }
        if let (Some(t), Ok(results)) = (tel.as_ref(), result.as_ref()) {
            if t.profiler_enabled() {
                t.profile(&ProfileSample {
                    plan_kind: plan.as_ref().kind_label(),
                    points: self.points.len(),
                    backend: self.backend.name(),
                    queries: queries.len() as u64,
                    stages: &results.trace.stage_device_ms(),
                });
            }
        }
        result
    }

    /// The one query driver. Setup (device footprint, transfers), then one
    /// structure ensure — every width the call traverses, missing ones
    /// built concurrently, billed to `Launch` once together with pending
    /// caller-side maintenance — then one shared `Schedule` over every
    /// covered query, then `Partition` → `Launch` → `Gather` per slice, in
    /// the slice's share of the shared order. `Launch` traverses every
    /// non-empty partition ([`traverse_partition`]) and `Gather` scatters
    /// each traversal's payloads back by query id.
    fn execute(
        &mut self,
        queries: &[Vec3],
        point_bounds: Aabb,
        slices: &[(SearchParams, Cow<'_, [u32]>)],
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        let backend = self.backend;
        let cfg = self.config;
        let device = backend.device();
        let points: &[Vec3] = &self.points;
        let (schedule_stage, partitioning) = overrides.resolve(cfg.opt);

        // Setup (not a stage): points + queries in, result ids out.
        let max_k = slices.iter().map(|(p, _)| p.k).max().unwrap_or(1);
        device.check_allocation(point_cloud_bytes(points.len(), queries.len(), max_k))?;
        let result_bytes: u64 = slices
            .iter()
            .map(|(p, ids)| ids.len() as u64 * p.k as u64 * 4)
            .sum();
        let mut breakdown = TimeBreakdown {
            data_ms: device.transfer_h2d_ms((points.len() + queries.len()) as u64 * 12)
                + device.transfer_d2h_ms(result_bytes),
            ..TimeBreakdown::default()
        };
        let mut meter = StageMeter::new();
        let covered: Vec<u32> = slices
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        let launched = !covered.is_empty() && !points.is_empty();

        // Structures: the widest slice's width for a schedule that
        // traverses one (an identity schedule bills nothing), then each
        // populated slice's own.
        let widest = slices.iter().map(|(p, _)| p.radius).fold(0.0f32, f32::max);
        let schedule_width = schedule_stage
            .needs_structure()
            .then(|| cfg.aabb_width(widest));
        let mut widths: Vec<f32> = Vec::new();
        if launched {
            widths.extend(schedule_width);
            widths.extend(
                slices
                    .iter()
                    .filter(|(_, ids)| !ids.is_empty())
                    .map(|(p, _)| cfg.aabb_width(p.radius)),
            );
        }
        let pending_ms = std::mem::take(&mut self.pending_structure_ms);
        let store = &mut self.store;
        meter.structures(|| {
            let structure_ms = pending_ms + store.ensure_many(backend, points, &widths)?;
            breakdown.bvh_ms += structure_ms;
            Ok(structure_ms)
        })?;
        if !launched {
            return Ok(SearchResults {
                neighbors: vec![Vec::new(); queries.len()],
                breakdown,
                trace: meter.trace,
                ..SearchResults::default()
            });
        }

        // `Schedule` (Section 4), once for every covered query.
        let schedule = meter.stage(StageKind::Schedule, || {
            let schedule = schedule_stage.run(&ScheduleCx {
                backend,
                accel: schedule_width.map(|w| store.accel(store.find(w).expect("ensured above"))),
                points,
                point_bounds,
                queries,
                query_ids: &covered,
            });
            breakdown.fs_ms += schedule.fs_metrics.time_ms();
            breakdown.opt_ms += schedule.sort_metrics.time_ms;
            let device_ms = schedule.fs_metrics.time_ms() + schedule.sort_metrics.time_ms;
            Ok((schedule, device_ms))
        })?;
        // Each slice's order is the shared order filtered to its ids
        // (identical to sorting the slice by the shared keys).
        let mut slice_of: Vec<usize> = vec![usize::MAX; queries.len()];
        for (si, (_, ids)) in slices.iter().enumerate() {
            for &qid in ids.iter() {
                slice_of[qid as usize] = si;
            }
        }
        let mut orders: Vec<Vec<u32>> = slices
            .iter()
            .map(|(_, ids)| Vec::with_capacity(ids.len()))
            .collect();
        for &qid in &schedule.order {
            orders[slice_of[qid as usize]].push(qid);
        }

        // `Partition` → `Launch` → `Gather` per slice, over the shared
        // store and grid.
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        let mut search_metrics = LaunchMetrics::default();
        let (mut num_partitions, mut num_bundles) = (0, 0);
        for (&(params, _), order) in slices.iter().zip(&orders) {
            if order.is_empty() {
                continue;
            }
            let grid = if partitioning.wants_grid() {
                grid_for(&mut self.grid, points, cfg.grid_max_cells)
            } else {
                None
            };
            let parts = meter.stage(StageKind::Partition, || {
                let parts = partitioning.run(PartitionCx {
                    backend,
                    config: &cfg,
                    params,
                    points,
                    queries,
                    order,
                    grid,
                });
                breakdown.opt_ms += parts.opt_metrics.time_ms;
                let device_ms = parts.opt_metrics.time_ms;
                Ok((parts, device_ms))
            })?;
            let launches = meter.stage(StageKind::Launch, || {
                let before = (breakdown.bvh_ms, breakdown.search_ms);
                let mut launches = Vec::new();
                for part in parts.partitions.iter().filter(|p| !p.is_empty()) {
                    let (traversal, built_ms) =
                        traverse_partition(backend, &cfg, params, points, queries, store, part)?;
                    breakdown.bvh_ms += built_ms;
                    breakdown.search_ms += traversal.metrics.time_ms();
                    search_metrics.merge_sequential(&traversal.metrics);
                    launches.push((&part.query_ids, traversal.payloads));
                }
                let device_ms = (breakdown.bvh_ms - before.0) + (breakdown.search_ms - before.1);
                Ok((launches, device_ms))
            })?;
            meter.stage(StageKind::Gather, || {
                for (ids, payloads) in launches {
                    for (&qid, payload) in ids.iter().zip(payloads) {
                        neighbors[qid as usize] = payload;
                    }
                }
                Ok(((), 0.0))
            })?;
            num_partitions += parts.num_partitions;
            num_bundles += parts.num_bundles;
        }

        Ok(SearchResults {
            neighbors,
            breakdown,
            search_metrics,
            fs_metrics: schedule.fs_metrics,
            num_partitions,
            num_bundles,
            trace: meter.trace,
        })
    }
}

/// Traverse one partition with its own acceleration structure: the slice's
/// full-width structure for a full-width partition, otherwise the store's
/// structure at the partition's width, built on a miss. Returns the
/// traversal and the simulated build cost this call incurred (0 unless it
/// built a structure).
fn traverse_partition(
    backend: &dyn Backend,
    cfg: &EngineConfig,
    params: SearchParams,
    points: &[Vec3],
    queries: &[Vec3],
    store: &mut AccelStore<'_>,
    part: &Partition,
) -> Result<(Traversal, f64), SearchError> {
    let full_width = cfg.aabb_width(params.radius);
    let (aid, built_ms) = if (part.aabb_width - full_width).abs() <= f32::EPSILON * full_width {
        (store.find(full_width).expect("ensured by the driver"), 0.0)
    } else {
        store.ensure(backend, points, part.aabb_width)?
    };
    let kind = match params.mode {
        SearchMode::Range => TraversalKind::Range {
            radius: params.radius,
            cap: params.k,
            sphere_test: part.sphere_test,
        },
        SearchMode::Knn => TraversalKind::Knn {
            radius: params.radius,
            k: params.k,
        },
    };
    let traversal = backend.traverse(
        store.accel(aid),
        &TraversalJob {
            points,
            queries,
            query_ids: &part.query_ids,
            kind,
        },
    );
    Ok((traversal, built_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpusimBackend;
    use crate::plan::PlanSlice;
    use crate::verify::check_all;
    use rtnn_gpusim::Device;

    fn jittered(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
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

    #[test]
    fn repeated_queries_amortise_structure_builds() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(7, 0.6);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let plan = QueryPlan::knn(1.2, 6);
        let first = index.query(&queries, &plan).unwrap();
        assert!(first.breakdown.bvh_ms > 0.0, "first call builds structures");
        let second = index.query(&queries, &plan).unwrap();
        assert_eq!(second.neighbors, first.neighbors, "results are stable");
        assert_eq!(
            second.breakdown.bvh_ms, 0.0,
            "second call hits the width cache for every structure"
        );
        assert!(index.cached_structures() >= 1);
        // A different radius builds (and caches) additional widths.
        let other = index.query(&queries, &QueryPlan::range(0.9, 32)).unwrap();
        assert!(other.breakdown.bvh_ms > 0.0);
        check_all(
            &points,
            &queries,
            &SearchParams::range(0.9, 32),
            &other.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn batch_matches_per_slice_single_plans() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(7, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
        let n = queries.len() as u32;
        let knn_ids: Vec<u32> = (0..n).filter(|i| i % 2 == 0).collect();
        let rng_ids: Vec<u32> = (0..n).filter(|i| i % 2 == 1).collect();
        let knn_plan = QueryPlan::knn(1.1, 5);
        let rng_plan = QueryPlan::range(0.8, 1000);
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(knn_plan.clone(), knn_ids.clone()),
            PlanSlice::new(rng_plan.clone(), rng_ids.clone()),
        ]);

        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let combined = index.query(&queries, &batch).unwrap();
        let knn_single = index.query(&queries, &knn_plan).unwrap();
        let rng_single = index.query(&queries, &rng_plan).unwrap();

        for &qid in &knn_ids {
            assert_eq!(
                combined.neighbors[qid as usize], knn_single.neighbors[qid as usize],
                "KNN slice query {qid}"
            );
        }
        for &qid in &rng_ids {
            // Range order is traversal-defined; with a non-truncating cap
            // the sets must agree.
            let mut a = combined.neighbors[qid as usize].clone();
            let mut b = rng_single.neighbors[qid as usize].clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "range slice query {qid}");
        }
        // One shared scheduling pass covers all launched queries.
        assert_eq!(combined.fs_metrics.active_rays, n as u64);
    }

    #[test]
    fn warm_prebuilds_every_width_and_charges_the_next_query() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(6, 0.6);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let n = queries.len() as u32;
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.2, 6), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(0.8, 64), (n / 2..n).collect()),
        ]);

        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let built = index.warm(&batch).unwrap();
        assert!(built > 0.0, "cold warm-up builds structures");
        assert!(
            index.cached_structures() >= 2,
            "both slice widths (and the shared scheduling width) are cached"
        );
        // Warming the same plan again is free.
        assert_eq!(index.warm(&batch).unwrap(), 0.0);

        // The warm-up cost is carried into the next query's BVH slot; the
        // plan-level structures themselves are all cache hits there.
        let first = index.query(&queries, &batch).unwrap();
        assert!(first.breakdown.bvh_ms >= built);
        let second = index.query(&queries, &batch).unwrap();
        assert_eq!(
            second.breakdown.bvh_ms, 0.0,
            "a warmed index amortises every structure build"
        );
        assert_eq!(second.neighbors, first.neighbors);

        // Invalid plans are rejected with the same typed errors as query.
        assert_eq!(
            index.warm(&QueryPlan::knn(-1.0, 4)).unwrap_err(),
            SearchError::InvalidPlan(PlanError::InvalidRadius {
                field: "Knn.r",
                value: -1.0
            })
        );
    }

    #[test]
    fn batch_leaves_uncovered_queries_empty() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(5, 1.0);
        let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let batch = QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.5, 4), vec![0, 2])]);
        let results = index.query(&queries, &batch).unwrap();
        assert!(!results.neighbors[0].is_empty());
        assert!(
            results.neighbors[1].is_empty(),
            "uncovered query stays empty"
        );
    }

    #[test]
    fn typed_errors_surface_at_query_time() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = [Vec3::ZERO];
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let err = index
            .query(&[Vec3::ZERO], &QueryPlan::knn(-1.0, 4))
            .unwrap_err();
        assert_eq!(
            err,
            SearchError::InvalidPlan(PlanError::InvalidRadius {
                field: "Knn.r",
                value: -1.0
            })
        );

        // Normalization must not swallow conflicting double claims: an id
        // listed under two different parameter sets still errors.
        let conflicted = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![0]),
        ]);
        assert_eq!(
            index.query(&[Vec3::ZERO], &conflicted).unwrap_err(),
            SearchError::InvalidPlan(PlanError::DuplicateQueryId {
                slice: 1,
                query_id: 0
            })
        );
    }

    #[test]
    fn empty_inputs_are_handled() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = [Vec3::ZERO];
        // Every level, so every Schedule and Partition stage meets an
        // empty scene (which has no megacell grid) and an empty query set.
        for opt in OptLevel::all() {
            let config = EngineConfig::default().with_opt(opt);
            let mut index = Index::build(&backend, &points[..], config);
            let no_queries = index.query(&[], &QueryPlan::range(1.0, 4)).unwrap();
            assert!(no_queries.neighbors.is_empty(), "{opt:?}");
            let mut empty = Index::build(&backend, Vec::new(), config);
            assert!(empty.is_empty());
            let plan = QueryPlan::knn(1.0, 4);
            empty.warm(&plan).unwrap();
            let no_points = empty.query(&[Vec3::ZERO, Vec3::ONE], &plan).unwrap();
            assert_eq!(no_points.neighbors.len(), 2, "{opt:?}");
            assert!(no_points.neighbors.iter().all(Vec::is_empty), "{opt:?}");
        }
    }

    #[test]
    fn empty_calls_charge_pending_structure_cost() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(6, 0.6);
        let plan = QueryPlan::knn(1.2, 6);

        // A warm-up's builds are reported by the next call, even one with
        // no queries — and only once.
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let built = index.warm(&plan).unwrap();
        assert!(built > 0.0);
        let empty = index.query(&[], &plan).unwrap();
        assert_eq!(empty.breakdown.bvh_ms, built);
        assert_eq!(empty.trace.stage(StageKind::Launch).device_ms, built);
        assert_eq!(index.query(&[], &plan).unwrap().breakdown.bvh_ms, 0.0);

        // Caller-side maintenance charged to an empty index is reported too.
        let mut empty_index = Index::build(&backend, Vec::new(), EngineConfig::default());
        empty_index.charge_structure_ms(2.0);
        let no_points = empty_index.query(&[Vec3::ZERO], &plan).unwrap();
        assert_eq!(no_points.breakdown.bvh_ms, 2.0);
    }

    fn grid_points(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32) * spacing);
                }
            }
        }
        pts
    }

    /// One plan on a fresh index.
    fn run(
        device: &Device,
        config: EngineConfig,
        plan: &QueryPlan,
        points: &[Vec3],
        queries: &[Vec3],
    ) -> Result<SearchResults, SearchError> {
        Index::build(&GpusimBackend::new(device), points, config).query(queries, plan)
    }

    #[test]
    fn range_search_respects_the_cap() {
        let points = grid_points(6, 0.3);
        let queries = vec![Vec3::new(0.9, 0.9, 0.9)];
        let plan = QueryPlan::range(1.0, 5);
        let results = run(
            &Device::rtx_2080(),
            EngineConfig::default(),
            &plan,
            &points,
            &queries,
        )
        .unwrap();
        assert_eq!(results.neighbors[0].len(), 5);
        check_all(
            &points,
            &queries,
            &plan.params().unwrap(),
            &results.neighbors,
        )
        .unwrap();
    }

    #[test]
    fn oom_is_reported_for_clouds_that_do_not_fit() {
        // 100k queries x 1M results would need terabytes; the footprint
        // check fires before any allocation happens host-side.
        let result = run(
            &Device::tiny_test_device(),
            EngineConfig::default(),
            &QueryPlan::knn(1.0, 1_000_000),
            &[Vec3::ZERO; 8],
            &vec![Vec3::ZERO; 100_000],
        );
        assert!(matches!(result, Err(SearchError::OutOfDeviceMemory(_))));
    }

    #[test]
    fn breakdown_components_reflect_the_opt_level() {
        let device = Device::rtx_2080();
        let points = grid_points(8, 1.0);
        let plan = QueryPlan::knn(2.0, 8);
        let at = |opt| {
            let config = EngineConfig::default().with_opt(opt);
            run(&device, config, &plan, &points, &points).unwrap()
        };
        let noopt = at(OptLevel::NoOpt);
        assert_eq!(noopt.breakdown.fs_ms, 0.0);
        assert_eq!(noopt.breakdown.opt_ms, 0.0);
        assert_eq!(noopt.num_partitions, 1);
        let sched = at(OptLevel::Sched);
        assert!(sched.breakdown.fs_ms > 0.0);
        assert!(sched.breakdown.opt_ms > 0.0);
        let full = at(OptLevel::Full);
        assert!(full.num_partitions >= 1);
        assert!(full.num_bundles <= full.num_partitions);
        assert!(full.breakdown.data_ms > 0.0);
    }

    #[test]
    fn partitioning_reduces_is_calls_on_dense_clouds() {
        // Observation 2 turned into the Section 5 optimisation: per-partition
        // AABBs are smaller than 2r, so the search does fewer IS calls.
        let device = Device::rtx_2080();
        let points = grid_points(10, 0.25);
        let plan = QueryPlan::knn(2.0, 8);
        let at = |opt| {
            let config = EngineConfig::default().with_opt(opt);
            run(&device, config, &plan, &points, &points).unwrap()
        };
        let sched = at(OptLevel::Sched);
        let part = at(OptLevel::SchedPartition);
        assert!(
            part.search_metrics.is_calls < sched.search_metrics.is_calls,
            "partitioned {} vs global {}",
            part.search_metrics.is_calls,
            sched.search_metrics.is_calls
        );
        check_all(&points, &points, &plan.params().unwrap(), &part.neighbors)
            .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn equi_volume_knn_rule_still_produces_bounded_results() {
        // The paper's equi-volume heuristic is not guaranteed exact, but all
        // returned neighbors must respect the radius bound and count cap.
        let points = grid_points(8, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let (radius, k) = (1.5, 6);
        let config = EngineConfig::default().with_knn_rule(KnnAabbRule::EquiVolume);
        let results = run(
            &Device::rtx_2080(),
            config,
            &QueryPlan::knn(radius, k),
            &points,
            &queries,
        )
        .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            assert!(results.neighbors[qi].len() <= k);
            for &id in &results.neighbors[qi] {
                assert!(q.distance(points[id as usize]) < radius);
            }
        }
    }
}
