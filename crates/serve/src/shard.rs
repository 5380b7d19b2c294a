//! Spatial sharding: one logical index served by N sub-indexes over a
//! Morton-range split of the points, with a deterministic merge that
//! reassembles the exact single-index results.
//!
//! ## Why the merge is exact
//!
//! The engine's traversal visits primitives in a canonical order — the
//! LBVH's `(Morton code over the point bounds, id)` sort — for every AABB
//! width, so [`rtnn::ShardMerge`] can sort the union of per-shard range
//! hits back into single-index hit order, and KNN output is already
//! canonical (sorted by `(distance², id)`), so merging per-shard top-`k`
//! lists by the same key reproduces it. See [`rtnn::ShardMerge`] for the
//! precise conditions (non-truncating range caps; no exact distance ties
//! at the `k`-th neighbor).
//!
//! ## Routing
//!
//! Shards are contiguous chunks of the canonical traversal order, so each
//! is a compact run of the Morton curve. A query is fanned out only to
//! shards that can report a neighbor: the traversal reports a point only
//! when the query lies in the point's AABB, so the query must lie in the
//! shard's point bounds widened by half the AABB width, and those bounds
//! must intersect its search sphere (`distance²(bounds, q) < r²`), since
//! every reported neighbor lies inside it. Shards that provably cannot
//! contribute a neighbor are skipped, which is where the throughput scaling
//! comes from.
//! Overlapping shards execute concurrently on the `rtnn-parallel` worker
//! pool, each worker owning one shard's `Index` exclusively.

use crate::coalesce::TickExecutor;
use rtnn::plan::{plan_slices, validate_points};
use rtnn::SearchError;
use rtnn::{
    Backend, CostCoefficients, EngineConfig, Index, LaunchMetrics, PipelineTrace, PlanError,
    PlanSlice, QueryPlan, SearchParams, SearchResults, ShardMerge, StageKind, StageOverrides,
    TimeBreakdown,
};
use rtnn_math::{Aabb, Vec3};
use rtnn_parallel::{par_map_collect, par_map_collect_mut};
use rtnn_telemetry::{SpanRecord, Telemetry};

/// One shard: a full `Index` over a contiguous Morton range of the points.
struct Shard<'a> {
    index: Index<'a>,
    /// Local point id → global point id.
    global_ids: Vec<u32>,
    /// Bounds of the shard's points (routing pruner).
    bounds: Aabb,
}

impl Shard<'_> {
    /// Whether a query at `q` under `params` can get a neighbor from this
    /// shard (see the module docs on routing).
    fn may_report(&self, q: Vec3, params: &SearchParams) -> bool {
        let half_width = self.index.config().aabb_width(params.radius) * 0.5;
        !self.global_ids.is_empty()
            && self.bounds.expanded(half_width).contains_point(q)
            && self.bounds.distance_squared_to_point(q) < params.radius * params.radius
    }
}

/// Per-tick shard timing, for scaling analysis.
#[derive(Debug, Clone, Default)]
pub struct ShardTiming {
    /// Simulated milliseconds each shard spent on the last query call
    /// (zero for shards the routing skipped).
    pub per_shard_ms: Vec<f64>,
    /// Each shard's full per-stage pipeline trace for the last query call
    /// (a default/zero trace for shards the routing skipped). The summed
    /// trace on the returned `SearchResults` loses this breakdown; keeping
    /// it here — and on the emitted `serve.shard` telemetry spans — makes
    /// shard skew visible without re-running.
    pub per_shard_traces: Vec<PipelineTrace>,
}

impl ShardTiming {
    /// The parallel-execution critical path: the slowest shard.
    pub fn critical_path_ms(&self) -> f64 {
        self.per_shard_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Total simulated work across all shards.
    pub fn total_ms(&self) -> f64 {
        self.per_shard_ms.iter().sum()
    }

    /// Shards that actually executed work.
    pub fn active_shards(&self) -> usize {
        self.per_shard_ms.iter().filter(|&&ms| ms > 0.0).count()
    }

    /// Load skew of the last call: critical path over mean active-shard
    /// time (1.0 = perfectly balanced; 0 when nothing ran).
    pub fn skew(&self) -> f64 {
        let active = self.active_shards();
        if active == 0 {
            return 0.0;
        }
        self.critical_path_ms() / (self.total_ms() / active as f64)
    }
}

/// The work routed to one shard for one query call.
struct ShardJob {
    /// Query positions, in shard launch order.
    queries: Vec<Vec3>,
    /// Per plan slice: the *global* query ids routed to this shard, in the
    /// order they were appended to `queries` (slice-major, so the local
    /// index of `routed_ids[sl][i]` is the prefix count).
    routed_ids: Vec<Vec<u32>>,
}

/// A spatially sharded index: behaves like one big [`Index`] — same
/// [`query`](Self::query) contract, bit-equal results — but executes each
/// plan as a fan-out over N sub-indexes plus a deterministic merge: every
/// overlapped shard runs the full execution pipeline
/// ([`rtnn::pipeline`]) over its sub-index, and the per-shard launches are
/// reassembled by the shared [`ShardMerge`] gather
/// ([`ShardMerge::gather_query`]). Per-stage pipeline traces are summed
/// across shards into the result's `trace`.
pub struct ShardedIndex<'a> {
    shards: Vec<Shard<'a>>,
    merge: ShardMerge,
    /// The full cloud, in original id order (the merge recomputes exact
    /// shader distances against it).
    points: Vec<Vec3>,
    last_timing: ShardTiming,
    /// The outcome of the one finiteness scan of `points`, run at the
    /// first query (`None` until then).
    point_check: Option<Result<Aabb, PlanError>>,
}

impl<'a> ShardedIndex<'a> {
    /// Split `points` into `num_shards` contiguous Morton ranges and build
    /// one sub-index per shard on `backend`. `num_shards` is clamped to
    /// `[1, points.len()]` (an empty cloud gets a single empty shard).
    pub fn build(
        backend: &'a dyn Backend,
        points: &[Vec3],
        config: EngineConfig,
        num_shards: usize,
    ) -> Self {
        let merge = ShardMerge::new(points);
        let order = merge.traversal_order();
        let shards_wanted = num_shards.clamp(1, points.len().max(1));
        let chunk = order.len().div_ceil(shards_wanted).max(1);
        // Assemble the shards concurrently on the worker pool: each chunk
        // of the Morton order gathers its points, takes its bounds and
        // builds its sub-index independently of every other chunk, and
        // `par_map_collect` keeps the deterministic (Morton-range) shard
        // order regardless of which worker finishes first.
        let chunks: Vec<&[u32]> = if order.is_empty() {
            vec![&[]]
        } else {
            order.chunks(chunk).collect()
        };
        let shards = par_map_collect(chunks.len(), |ci| {
            // Suppressed: worker-thread telemetry would land in the global
            // sink in scheduling order (see `query` for the rationale).
            Telemetry::suppressed(|| {
                let global_ids = chunks[ci].to_vec();
                let shard_points: Vec<Vec3> =
                    global_ids.iter().map(|&id| points[id as usize]).collect();
                let bounds = Aabb::from_points(&shard_points);
                Shard {
                    index: Index::build(backend, shard_points, config),
                    global_ids,
                    bounds,
                }
            })
        });
        ShardedIndex {
            shards,
            merge,
            points: points.to_vec(),
            last_timing: ShardTiming::default(),
            point_check: None,
        }
    }

    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Points per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.global_ids.len()).collect()
    }

    /// Total number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Per-shard timing of the most recent [`query`](Self::query) call.
    pub fn last_timing(&self) -> &ShardTiming {
        &self.last_timing
    }

    /// Pre-build every structure `plan` demands on *all* shards
    /// concurrently ([`Index::warm`] fanned over the worker pool) — the
    /// cold-start path a serving layer runs before the first tick lands.
    /// Returns the total simulated build cost incurred across shards (0
    /// when everything was already cached); as with [`Index::warm`], each
    /// shard carries its share forward into its next query's breakdown.
    pub fn warm(&mut self, plan: &QueryPlan) -> Result<f64, SearchError> {
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| t.span("shard.warm"));
        let outcomes = par_map_collect_mut(&mut self.shards, |_, shard| {
            Telemetry::suppressed(|| shard.index.warm(plan))
        });
        let result = outcomes
            .into_iter()
            .try_fold(0.0, |acc, r| r.map(|ms| acc + ms));
        if let (Ok(ms), Some(span)) = (&result, span.as_mut()) {
            span.attr("device_ms", *ms)
                .attr("shards", self.shards.len() as f64);
        }
        result
    }

    /// Answer `plan` for `queries` — the [`Index::query`] contract, with
    /// the execution fanned out over the shards and the per-shard results
    /// merged deterministically back into single-index form.
    pub fn query(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        self.query_with(queries, plan, StageOverrides::default())
    }

    /// [`query`](Self::query) with per-call pipeline [`StageOverrides`]:
    /// the same overrides (plain `Copy` values) are threaded into **every**
    /// overlapped shard's pipeline execution, so one tuning decision (a
    /// tick's, or one [`rtnn::AutoTuner::run`] round trip's) governs the
    /// whole fan-out. The merge is override-agnostic — results stay
    /// bit-equal to the unsharded index under the same overrides.
    pub fn query_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        let plan = plan.normalized();
        plan.validate_for(queries)
            .map_err(SearchError::InvalidPlan)?;
        // Scanned here, in global ids, so the error names the caller's id
        // and a shard no query reaches cannot hide a bad point.
        self.point_check
            .get_or_insert_with(|| validate_points(&self.points))
            .clone()?;

        // One query span over the whole fan-out + merge; the per-shard
        // spans synthesized below nest under it. Worker threads run
        // suppressed (their ambient stacks are empty, so they would
        // otherwise record straight into the *global* sink in
        // pool-scheduling order — nondeterministic and double-counted).
        let tel = Telemetry::current();
        let mut query_span = tel.as_ref().map(|t| {
            t.counter_add("shard.queries", 1);
            t.span(match plan.as_ref().kind_label() {
                "knn" => "shard.query.knn",
                "range" => "shard.query.range",
                _ => "shard.query.batch",
            })
        });

        let slices = plan_slices(&plan, queries.len());

        // Route every covered query to the shards that can report one of
        // its neighbors.
        let mut jobs: Vec<ShardJob> = (0..self.shards.len())
            .map(|_| ShardJob {
                queries: Vec::new(),
                routed_ids: vec![Vec::new(); slices.len()],
            })
            .collect();
        for (sl, (params, ids)) in slices.iter().enumerate() {
            for &qid in ids.iter() {
                let q = queries[qid as usize];
                for (si, shard) in self.shards.iter().enumerate() {
                    if !shard.may_report(q, params) {
                        continue;
                    }
                    jobs[si].queries.push(q);
                    jobs[si].routed_ids[sl].push(qid);
                }
            }
        }

        // Fan out: every overlapped shard executes its sub-plan in
        // parallel on the worker pool; `par_map_collect_mut` returns the
        // per-shard outcomes in shard order (its deterministic-ordering
        // guarantee), so the merge below never depends on worker timing.
        let slice_params: Vec<SearchParams> = slices.iter().map(|(p, _)| *p).collect();
        let mut pairs: Vec<(&mut Shard<'a>, ShardJob)> = self.shards.iter_mut().zip(jobs).collect();
        let fan_start_ms = tel.as_ref().map_or(0.0, |t| t.now_ms());
        let outcomes = par_map_collect_mut(&mut pairs, |_, (shard, job)| {
            Telemetry::suppressed(|| {
                if job.queries.is_empty() {
                    return None;
                }
                // Rebuild the shard-local plan: slice sl covers the local
                // launch indices of its routed queries (slice-major order).
                let mut local_slices: Vec<PlanSlice> = Vec::new();
                let mut next = 0u32;
                for (sl, routed) in job.routed_ids.iter().enumerate() {
                    if routed.is_empty() {
                        continue;
                    }
                    let ids: Vec<u32> = (next..next + routed.len() as u32).collect();
                    next += routed.len() as u32;
                    local_slices.push(PlanSlice::new(
                        QueryPlan::from_params(slice_params[sl]),
                        ids,
                    ));
                }
                let local_plan = if local_slices.len() == 1 {
                    let only = local_slices.pop().expect("one slice");
                    only.plan
                } else {
                    QueryPlan::Batch(local_slices)
                };
                Some(shard.index.query_with(&job.queries, &local_plan, overrides))
            })
        });
        let fan_end_ms = tel.as_ref().map_or(0.0, |t| t.now_ms());

        // Collect per-shard results (propagating the first error), the
        // timing, and a (query id → local launch index) map per shard.
        let mut shard_results: Vec<Option<(SearchResults, ShardJob)>> =
            Vec::with_capacity(pairs.len());
        let mut timing = ShardTiming {
            per_shard_ms: vec![0.0; pairs.len()],
            per_shard_traces: vec![PipelineTrace::default(); pairs.len()],
        };
        for (si, ((_, job), outcome)) in pairs.into_iter().zip(outcomes).enumerate() {
            match outcome {
                Some(Ok(results)) => {
                    timing.per_shard_ms[si] = results.total_time_ms();
                    timing.per_shard_traces[si] = results.trace.clone();
                    shard_results.push(Some((results, job)));
                }
                Some(Err(e)) => return Err(e),
                None => shard_results.push(None),
            }
        }
        let lookup: Vec<std::collections::HashMap<u32, u32>> = shard_results
            .iter()
            .map(|entry| {
                let mut map = std::collections::HashMap::new();
                if let Some((_, job)) = entry {
                    let mut next = 0u32;
                    for routed in &job.routed_ids {
                        for &qid in routed {
                            map.insert(qid, next);
                            next += 1;
                        }
                    }
                }
                map
            })
            .collect();

        // The shared `Gather`: per covered query, reassemble the
        // single-index result from the per-shard pipeline launches (mapped
        // to global point ids) through the canonical [`ShardMerge`]. Its
        // host time is billed to the trace's Gather slot below.
        let merge_start = std::time::Instant::now();
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        for (params, ids) in &slices {
            for &qid in ids.iter() {
                let q = queries[qid as usize];
                let mut lists: Vec<Vec<u32>> = Vec::new();
                for (si, entry) in shard_results.iter().enumerate() {
                    let Some((results, _)) = entry else { continue };
                    let Some(&local) = lookup[si].get(&qid) else {
                        continue;
                    };
                    lists.push(
                        results.neighbors[local as usize]
                            .iter()
                            .map(|&l| self.shards[si].global_ids[l as usize])
                            .collect(),
                    );
                }
                neighbors[qid as usize] = self.merge.gather_query(params, q, &self.points, &lists);
            }
        }
        let merge_host_ms = merge_start.elapsed().as_secs_f64() * 1e3;

        // Aggregate the bookkeeping: work (including the per-stage pipeline
        // trace) is summed across shards; the timing view exposes the
        // parallel critical path separately.
        let mut breakdown = TimeBreakdown::default();
        let mut search_metrics = LaunchMetrics::default();
        let mut fs_metrics = LaunchMetrics::default();
        let mut trace = PipelineTrace::default();
        let mut num_partitions = 0;
        let mut num_bundles = 0;
        for (results, _) in shard_results.iter().flatten() {
            let b = &results.breakdown;
            breakdown.data_ms += b.data_ms;
            breakdown.opt_ms += b.opt_ms;
            breakdown.bvh_ms += b.bvh_ms;
            breakdown.fs_ms += b.fs_ms;
            breakdown.search_ms += b.search_ms;
            search_metrics.merge_sequential(&results.search_metrics);
            fs_metrics.merge_sequential(&results.fs_metrics);
            trace.merge(&results.trace);
            num_partitions += results.num_partitions;
            num_bundles += results.num_bundles;
        }
        trace.charge_host_only(StageKind::Gather, merge_host_ms);

        // Synthesize the per-shard spans on this thread, in shard order
        // (deterministic regardless of worker scheduling), carrying each
        // shard's full per-stage breakdown — the skew signal the summed
        // `trace` above no longer has.
        if let Some(t) = &tel {
            t.counter_add("shard.fanout", timing.active_shards() as u64);
            // The load-balance signal, exported: critical path over ideal
            // parallel time for this fan-out (1.0 = perfectly balanced;
            // see [`ShardTiming::skew`]). A gauge, so a scrape sees the
            // most recent tick's balance.
            t.gauge_set("serve.shard.skew", timing.skew());
            if t.profiler_enabled() {
                t.profile(&rtnn_telemetry::ProfileSample {
                    plan_kind: plan.as_ref().kind_label(),
                    points: self.points.len(),
                    backend: self
                        .shards
                        .first()
                        .map_or("none", |s| s.index.backend().name()),
                    queries: queries.len() as u64,
                    stages: &trace.stage_device_ms(),
                });
            }
            for (si, results) in shard_results
                .iter()
                .enumerate()
                .filter_map(|(si, e)| e.as_ref().map(|(r, _)| (si, r)))
            {
                t.observe("shard.device_ms", results.trace.device_total_ms());
                if !t.spans_enabled() {
                    continue;
                }
                let mut attrs: Vec<(std::borrow::Cow<'static, str>, f64)> = vec![
                    ("shard".into(), si as f64),
                    ("points".into(), self.shards[si].global_ids.len() as f64),
                    ("device_ms".into(), results.trace.device_total_ms()),
                    ("total_ms".into(), results.total_time_ms()),
                ];
                for stage in results.trace.stages() {
                    let key = match stage.kind {
                        StageKind::Partition => "partition_device_ms",
                        StageKind::Schedule => "schedule_device_ms",
                        StageKind::Launch => "launch_device_ms",
                        StageKind::Gather => "gather_device_ms",
                    };
                    attrs.push((key.into(), stage.device_ms));
                }
                t.record_span(SpanRecord {
                    name: "serve.shard".into(),
                    parent: query_span.as_ref().and_then(|s| s.id()),
                    start_ms: fan_start_ms,
                    end_ms: fan_end_ms,
                    attrs,
                });
            }
            if let Some(span) = query_span.as_mut() {
                span.attr("queries", queries.len() as f64)
                    .attr("shards_active", timing.active_shards() as f64)
                    .attr("device_ms", trace.device_total_ms())
                    .attr("critical_path_ms", timing.critical_path_ms())
                    .attr_wall("merge_host_ms", merge_host_ms);
            }
        }
        drop(query_span);
        self.last_timing = timing;

        Ok(SearchResults {
            neighbors,
            breakdown,
            search_metrics,
            fs_metrics,
            num_partitions,
            num_bundles,
            trace,
        })
    }
}

impl TickExecutor for ShardedIndex<'_> {
    fn execute(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        self.query(queries, plan)
    }

    fn execute_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        self.query_with(queries, plan, overrides)
    }

    fn tuner_signature(&self) -> Option<(usize, &'static str)> {
        // The logical index's coordinates — total points, the (shared)
        // backend — so a sharded deployment tunes under the same signature
        // the equivalent unsharded index would.
        let backend = self.shards.first()?.index.backend().name();
        Some((self.points.len(), backend))
    }

    fn calibrated_cost(&self) -> Option<CostCoefficients> {
        let shard = self.shards.first()?;
        Some(CostCoefficients::calibrate(shard.index.backend().device()))
    }

    fn last_shard_skew(&self) -> f64 {
        self.last_timing.skew()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{GpusimBackend, OptLevel};
    use rtnn_gpusim::Device;

    /// A hashed pseudo-random cloud: full-mantissa coordinates, so exact
    /// distance ties (the one case the KNN merge contract excludes) do
    /// not occur — unlike a modulo-lattice cloud, which has equidistant
    /// pairs.
    fn cloud(n: usize) -> Vec<Vec3> {
        let coord = |i: u64, axis: u64| {
            let mut h = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(axis.wrapping_mul(0xD1B5_4A32_D192_ED03));
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            (h >> 40) as f32 / (1u64 << 24) as f32 * 9.0
        };
        (0..n as u64)
            .map(|i| Vec3::new(coord(i, 1), coord(i, 2), coord(i, 3)))
            .collect()
    }

    #[test]
    fn shards_partition_the_cloud() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(500);
        let sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.len(), 500);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 500);
        // Morton-range shards are balanced to within one chunk.
        let sizes = sharded.shard_sizes();
        assert!(sizes.iter().all(|&s| s == 125), "sizes: {sizes:?}");
    }

    #[test]
    fn sharded_results_match_the_unsharded_index() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(600);
        let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
        let plans = vec![
            QueryPlan::knn(1.4, 6),
            QueryPlan::range(1.1, 100_000),
            QueryPlan::Batch(vec![
                PlanSlice::new(
                    QueryPlan::knn(1.0, 4),
                    (0..queries.len() as u32 / 2).collect(),
                ),
                PlanSlice::new(
                    QueryPlan::range(1.6, 100_000),
                    (queries.len() as u32 / 2..queries.len() as u32).collect(),
                ),
            ]),
        ];
        // A unit lattice with off-lattice queries puts search spheres
        // across shard borders, so routing must fan a query out to every
        // shard its sphere reaches. Range plans only: KNN on a lattice has
        // exact distance ties.
        let lattice: Vec<Vec3> = (0..12 * 12 * 12)
            .map(|i| Vec3::new((i % 12) as f32, (i / 12 % 12) as f32, (i / 144) as f32))
            .collect();
        let lattice_queries: Vec<Vec3> = lattice
            .iter()
            .step_by(5)
            .map(|&p| p + Vec3::new(0.3, 0.2, 0.1))
            .collect();
        let scenes = [
            (&points, &queries, plans, [1, 2, 5]),
            (
                &lattice,
                &lattice_queries,
                vec![QueryPlan::range(1.5, 1000)],
                [2, 5, 8],
            ),
        ];
        for opt in [OptLevel::NoOpt, OptLevel::Full] {
            let config = EngineConfig::default().with_opt(opt);
            for (points, queries, plans, shard_counts) in &scenes {
                let mut reference = Index::build(&backend, &points[..], config);
                for shards in shard_counts {
                    let mut sharded = ShardedIndex::build(&backend, points, config, *shards);
                    for plan in plans {
                        let expected = reference.query(queries, plan).unwrap();
                        let got = sharded.query(queries, plan).unwrap();
                        assert_eq!(
                            got.neighbors, expected.neighbors,
                            "{opt:?}, {shards} shards, plan {plan:?}"
                        );
                    }
                    let timing = sharded.last_timing();
                    assert_eq!(timing.per_shard_ms.len(), sharded.num_shards());
                    assert!(timing.critical_path_ms() > 0.0);
                    assert!(timing.total_ms() >= timing.critical_path_ms());
                }
            }
        }
    }

    #[test]
    fn warm_prebuilds_every_shard_before_the_first_tick() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(600);
        let queries: Vec<Vec3> = points.iter().step_by(11).copied().collect();
        let plan = QueryPlan::knn(1.4, 6);

        let mut cold = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
        let mut warmed = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
        let built = warmed.warm(&plan).unwrap();
        assert!(built > 0.0, "cold-start warm-up builds on every shard");
        assert_eq!(warmed.warm(&plan).unwrap(), 0.0, "second warm is free");

        // Warming changes when structures are built, never what queries
        // return.
        let expected = cold.query(&queries, &plan).unwrap();
        let got = warmed.query(&queries, &plan).unwrap();
        assert_eq!(got.neighbors, expected.neighbors);
        // The next round on the warmed index amortises every build.
        let next = warmed.query(&queries, &plan).unwrap();
        assert_eq!(next.breakdown.bvh_ms, 0.0);
    }

    #[test]
    fn routing_skips_shards_outside_the_search_sphere() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(600);
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 6);
        // A tight query in one corner of the cloud cannot touch every
        // Morton-range shard.
        let queries = vec![points[0]];
        sharded.query(&queries, &QueryPlan::knn(0.5, 4)).unwrap();
        let timing = sharded.last_timing();
        assert!(
            timing.active_shards() < sharded.num_shards(),
            "a local query must not fan out to all shards: {:?}",
            timing.per_shard_ms
        );
    }

    #[test]
    fn per_shard_spans_carry_stage_timings() {
        use rtnn_telemetry::TelemetryLevel;
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(600);
        let queries: Vec<Vec3> = points.iter().step_by(9).copied().collect();
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
        let sink = Telemetry::new(TelemetryLevel::Full);
        Telemetry::scoped(&sink, || {
            sharded.query(&queries, &QueryPlan::knn(1.4, 6)).unwrap();
        });
        let snap = sink.snapshot();
        snap.check_nesting(1e-6).unwrap();

        let timing = sharded.last_timing();
        assert_eq!(timing.per_shard_traces.len(), sharded.num_shards());
        assert!(timing.skew() >= 1.0 - 1e-9);

        // One query root; one serve.shard child per active shard, each
        // carrying the per-stage device breakdown the summed trace drops.
        let root = snap.spans_named("shard.query.knn").next().unwrap();
        let shard_spans: Vec<_> = snap.spans_named("serve.shard").collect();
        assert_eq!(shard_spans.len(), timing.active_shards());
        for s in &shard_spans {
            assert_eq!(s.parent, Some(root.id));
            let si = s.attr("shard").unwrap() as usize;
            assert_eq!(
                s.attr("device_ms"),
                Some(timing.per_shard_traces[si].device_total_ms())
            );
            assert!(s.attr("launch_device_ms").is_some());
            assert!(s.attr("schedule_device_ms").is_some());
        }
        assert_eq!(
            snap.metrics.counter("shard.queries"),
            Some(1),
            "workers are suppressed: exactly one query recorded"
        );
        assert_eq!(
            snap.metrics.histogram("shard.device_ms").unwrap().count,
            timing.active_shards() as u64
        );
    }

    #[test]
    fn invalid_plans_and_empty_inputs() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(100);
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 3);
        assert!(matches!(
            sharded.query(&[Vec3::ZERO], &QueryPlan::knn(-1.0, 4)),
            Err(SearchError::InvalidPlan(_))
        ));
        let empty = sharded.query(&[], &QueryPlan::knn(1.0, 4)).unwrap();
        assert!(empty.neighbors.is_empty());

        let mut none = ShardedIndex::build(&backend, &[], EngineConfig::default(), 3);
        assert!(none.is_empty());
        assert_eq!(none.num_shards(), 1);
        let results = none
            .query(&[Vec3::ZERO], &QueryPlan::range(1.0, 8))
            .unwrap();
        assert_eq!(results.neighbors, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn shard_count_is_clamped() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(3);
        let sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 64);
        assert_eq!(sharded.num_shards(), 3);
        let zero = ShardedIndex::build(&backend, &points, EngineConfig::default(), 0);
        assert_eq!(zero.num_shards(), 1);
    }
}
