//! Request coalescing: fuse whatever is in flight into one heterogeneous
//! `QueryPlan::Batch`, execute it once, and scatter the per-request
//! responses back out.
//!
//! RTNN's central lesson is that throughput comes from aggregating queries
//! *before* touching the accelerator: a fused tick pays one data transfer,
//! one shared first-hit scheduling pass and one megacell partitioning per
//! merged parameter set, where per-request execution pays all of them per
//! request. The fusion is pure bookkeeping — concatenate the request query
//! arrays, offset each request's plan slices into the concatenated id
//! space, and [`QueryPlan::normalized`] merges slices that share identical
//! parameters across requests — so the per-request results are bit-equal
//! to direct `Index::query` calls (see `tests/serve_determinism.rs`).

use crate::request::Request;
use rtnn::SearchError;
use rtnn::{
    AutoTuner, CostCoefficients, PlanSlice, QueryPlan, SearchResults, StageOverrides, TunerDecision,
};
use rtnn_math::Vec3;

/// Anything that can execute one tick's fused plan: an `rtnn::Index`, a
/// [`ShardedIndex`](crate::ShardedIndex), or a test double.
pub trait TickExecutor {
    /// Answer `plan` for `queries` (the `Index::query` contract).
    fn execute(&mut self, queries: &[Vec3], plan: &QueryPlan)
        -> Result<SearchResults, SearchError>;

    /// [`execute`](Self::execute) with per-call pipeline
    /// [`StageOverrides`] — the hook adaptive tuning drives. The default
    /// ignores the overrides and executes plainly, so test doubles and
    /// executors without a staged pipeline stay correct (overrides only
    /// ever change *how* a tick runs, never its results).
    fn execute_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        let _ = overrides;
        self.execute(queries, plan)
    }

    /// The `(points, backend)` coordinates an [`AutoTuner`] keys its
    /// per-signature state on, or `None` for executors that cannot be
    /// tuned (the default — [`execute_tick_tuned`] then runs the plain
    /// path).
    fn tuner_signature(&self) -> Option<(usize, &'static str)> {
        None
    }

    /// Cost coefficients calibrated for this executor's device, used to
    /// seed a tuner that arrives without a cost model (the default `None`
    /// leaves the tuner's cold start on the built-in fallback).
    fn calibrated_cost(&self) -> Option<CostCoefficients> {
        None
    }

    /// The shard skew of the most recent execution — critical path over
    /// ideal parallel time, the [`ShardTiming::skew`](crate::ShardTiming::skew)
    /// signal — or 0.0 for unsharded executors (the default). The SLO
    /// flight recorder stamps this onto every request trace so a pinned
    /// tail-latency exemplar says whether a hot shard was involved.
    fn last_shard_skew(&self) -> f64 {
        0.0
    }
}

impl TickExecutor for rtnn::Index<'_> {
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
        Some((self.points().len(), self.backend().name()))
    }

    fn calibrated_cost(&self) -> Option<CostCoefficients> {
        Some(CostCoefficients::calibrate(self.backend().device()))
    }
}

/// What one fused tick did (reported into the service stats and the load
/// harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct TickOutcome {
    /// Requests fused into the tick.
    pub requests: usize,
    /// Total queries launched.
    pub queries: usize,
    /// Simulated milliseconds of the tick's execution.
    pub sim_ms: f64,
    /// Per-stage `(label, device_ms)` breakdown of the tick's pipeline
    /// execution, in pipeline order (empty labels when nothing launched) —
    /// what the flight recorder attributes a slow request to.
    pub stage_device_ms: [(&'static str, f64); 4],
    /// The auto-tuner's decision for this tick (`None` when the tick ran
    /// untuned): one decision per fused batch, taken *before* the launch
    /// and recorded here so the serving layer can report which ladder rung
    /// each tick actually executed at.
    pub tuned: Option<TunerDecision>,
}

/// The outcome of one request within a tick: its per-query neighbor lists
/// or the error that failed it.
pub type RequestOutcome = Result<Vec<Vec<u32>>, SearchError>;

/// Execute one tick over `requests`: validate each request individually
/// (an invalid plan fails only its own request), fuse the valid ones into
/// one batch, execute it, and scatter per-request neighbor lists.
///
/// Returns one outcome per request, index-aligned with `requests`, plus
/// the tick summary.
pub fn execute_tick<E: TickExecutor>(
    executor: &mut E,
    requests: &[&Request],
) -> (Vec<RequestOutcome>, TickOutcome) {
    execute_tick_tuned(executor, requests, None)
}

/// One tick's decide → execute → observe round-trip: ask the tuner for
/// the tick's ladder rung (lazily handing it the executor's calibrated
/// cost model), run the fused plan under the decided overrides, and fold
/// the measured stage timings back in on success.
fn tuned_execute<E: TickExecutor>(
    executor: &mut E,
    tuner: &mut Option<&mut AutoTuner>,
    queries: &[Vec3],
    plan: &QueryPlan,
) -> (Option<TunerDecision>, Result<SearchResults, SearchError>) {
    let decision = tuner.as_deref_mut().and_then(|t| {
        let (points, backend) = executor.tuner_signature()?;
        if !t.has_cost_model() {
            if let Some(cost) = executor.calibrated_cost() {
                t.set_cost_model(cost);
            }
        }
        let d = t.decide(plan.kind_label(), points, backend, queries.len());
        Some((d, points, backend))
    });
    match decision {
        Some((d, points, backend)) => {
            let result = executor.execute_with(queries, plan, d.overrides());
            if let (Ok(results), Some(t)) = (&result, tuner.as_deref_mut()) {
                t.observe(
                    plan.kind_label(),
                    points,
                    backend,
                    d.level,
                    &results.trace.stage_device_ms(),
                    // Structure builds are one-time costs billed to the
                    // Launch slot; exclude them so arms compete on the
                    // steady-state tick cost.
                    results.breakdown.bvh_ms,
                );
            }
            (Some(d), result)
        }
        None => (None, executor.execute(queries, plan)),
    }
}

/// [`execute_tick`] with an optional [`AutoTuner`] steering the tick's
/// pipeline stages: **one decision per fused batch** — the tuner is
/// consulted once, right before the tick's single launch, with the
/// actually-executed plan's kind and query count — and the decision is
/// recorded on the returned [`TickOutcome::tuned`]. Ticks that never
/// launch (all requests invalid or empty), and executors that expose no
/// [`tuner_signature`](TickExecutor::tuner_signature), leave the tuner
/// untouched.
pub fn execute_tick_tuned<E: TickExecutor>(
    executor: &mut E,
    requests: &[&Request],
    mut tuner: Option<&mut AutoTuner>,
) -> (Vec<RequestOutcome>, TickOutcome) {
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];

    // Per-request validation: a malformed plan must not poison the tick.
    // Each plan is normalized exactly once here; the fusion loop below
    // reuses the (usually borrowed) result.
    let mut valid: Vec<usize> = Vec::with_capacity(requests.len());
    let mut normalized: Vec<Option<std::borrow::Cow<'_, QueryPlan>>> =
        Vec::with_capacity(requests.len());
    for (ri, req) in requests.iter().enumerate() {
        let plan = req.plan.normalized();
        match plan.validate(req.queries.len()) {
            Ok(()) => {
                valid.push(ri);
                normalized.push(Some(plan));
            }
            Err(e) => {
                outcomes[ri] = Some(Err(SearchError::InvalidPlan(e)));
                normalized.push(None);
            }
        }
    }

    let mut tick = TickOutcome {
        requests: valid.len(),
        ..TickOutcome::default()
    };

    // Single-request ticks pass through untouched — the one-request-per-
    // call baseline, and trivially bit-equal to a direct query.
    if valid.len() == 1 {
        let ri = valid[0];
        let req = requests[ri];
        tick.queries = req.queries.len();
        let (tuned, result) = tuned_execute(executor, &mut tuner, &req.queries, &req.plan);
        tick.tuned = tuned;
        match result {
            Ok(results) => {
                tick.sim_ms = results.total_time_ms();
                tick.stage_device_ms = results.trace.stage_device_ms();
                outcomes[ri] = Some(Ok(results.neighbors));
            }
            Err(e) => outcomes[ri] = Some(Err(e)),
        }
        return (finish(outcomes), tick);
    }

    if !valid.is_empty() {
        // Fuse: concatenate query arrays, offset every slice into the
        // concatenated id space.
        let mut queries: Vec<Vec3> = Vec::new();
        let mut slices: Vec<PlanSlice> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(valid.len());
        for &ri in &valid {
            let req = requests[ri];
            let offset = queries.len() as u32;
            queries.extend_from_slice(&req.queries);
            spans.push((offset as usize, req.queries.len()));
            match normalized[ri]
                .as_deref()
                .expect("valid requests kept their plan")
            {
                QueryPlan::Batch(request_slices) => {
                    for s in request_slices {
                        slices.push(PlanSlice::new(
                            s.plan.clone(),
                            s.query_ids.iter().map(|&q| q + offset).collect(),
                        ));
                    }
                }
                single => {
                    let n = req.queries.len() as u32;
                    slices.push(PlanSlice::new(
                        single.clone(),
                        (offset..offset + n).collect(),
                    ));
                }
            }
        }
        tick.queries = queries.len();

        if slices.is_empty() || queries.is_empty() {
            // Nothing to launch (all fused requests were empty): every
            // request gets its (empty) per-query lists back.
            for (vi, &ri) in valid.iter().enumerate() {
                outcomes[ri] = Some(Ok(vec![Vec::new(); spans[vi].1]));
            }
            return (finish(outcomes), tick);
        }

        // One fused plan for the tick; `normalized` merges slices with
        // identical parameters across requests.
        let plan = QueryPlan::Batch(slices).normalized().into_owned();
        let (tuned, result) = tuned_execute(executor, &mut tuner, &queries, &plan);
        tick.tuned = tuned;
        match result {
            Ok(results) => {
                tick.sim_ms = results.total_time_ms();
                tick.stage_device_ms = results.trace.stage_device_ms();
                for (vi, &ri) in valid.iter().enumerate() {
                    let (offset, len) = spans[vi];
                    outcomes[ri] = Some(Ok(results.neighbors[offset..offset + len].to_vec()));
                }
            }
            Err(e) => {
                // An execution-level failure (device OOM) fails the whole
                // tick: every fused request learns about it.
                for &ri in &valid {
                    outcomes[ri] = Some(Err(e.clone()));
                }
            }
        }
    }

    (finish(outcomes), tick)
}

fn finish(outcomes: Vec<Option<RequestOutcome>>) -> Vec<RequestOutcome> {
    outcomes
        .into_iter()
        .map(|o| o.expect("every request received an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{PlanError, QueryPlan};

    /// A scripted executor that records the calls it receives and answers
    /// every query with a single-id list equal to its position.
    struct Recorder {
        calls: Vec<(usize, QueryPlan)>,
    }

    impl TickExecutor for Recorder {
        fn execute(
            &mut self,
            queries: &[Vec3],
            plan: &QueryPlan,
        ) -> Result<SearchResults, SearchError> {
            self.calls.push((queries.len(), plan.clone()));
            Ok(SearchResults {
                neighbors: (0..queries.len() as u32).map(|i| vec![i]).collect(),
                breakdown: Default::default(),
                search_metrics: Default::default(),
                fs_metrics: Default::default(),
                num_partitions: 1,
                num_bundles: 1,
                trace: Default::default(),
            })
        }
    }

    fn q(n: usize) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::splat(i as f32)).collect()
    }

    #[test]
    fn single_request_passes_through() {
        let mut exec = Recorder { calls: Vec::new() };
        let req = Request::new(q(3), QueryPlan::knn(1.0, 4));
        let (outcomes, tick) = execute_tick(&mut exec, &[&req]);
        assert_eq!(tick.requests, 1);
        assert_eq!(tick.queries, 3);
        assert_eq!(outcomes[0].as_ref().unwrap().len(), 3);
        assert_eq!(exec.calls.len(), 1);
        assert_eq!(exec.calls[0].1, QueryPlan::knn(1.0, 4), "no batch wrapper");
    }

    #[test]
    fn fused_tick_merges_identical_params_and_scatters_by_span() {
        let mut exec = Recorder { calls: Vec::new() };
        let a = Request::new(q(2), QueryPlan::knn(1.0, 4));
        let b = Request::new(q(3), QueryPlan::range(2.0, 8));
        let c = Request::new(q(1), QueryPlan::knn(1.0, 4));
        let (outcomes, tick) = execute_tick(&mut exec, &[&a, &b, &c]);
        assert_eq!(tick.requests, 3);
        assert_eq!(tick.queries, 6);
        // One fused call with two merged slices (a and c share params).
        assert_eq!(exec.calls.len(), 1);
        let QueryPlan::Batch(slices) = &exec.calls[0].1 else {
            panic!("fused tick executes a batch");
        };
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].query_ids, vec![0, 1, 5], "a's ids then c's id");
        assert_eq!(slices[1].query_ids, vec![2, 3, 4]);
        // Scatter: each request sees exactly its own span.
        assert_eq!(outcomes[0].as_ref().unwrap(), &vec![vec![0], vec![1]]);
        assert_eq!(
            outcomes[1].as_ref().unwrap(),
            &vec![vec![2], vec![3], vec![4]]
        );
        assert_eq!(outcomes[2].as_ref().unwrap(), &vec![vec![5]]);
    }

    #[test]
    fn request_batches_are_flattened_into_the_tick() {
        let mut exec = Recorder { calls: Vec::new() };
        let a = Request::new(
            q(2),
            QueryPlan::Batch(vec![
                PlanSlice::new(QueryPlan::knn(1.0, 2), vec![0]),
                PlanSlice::new(QueryPlan::range(3.0, 4), vec![1]),
            ]),
        );
        let b = Request::new(q(1), QueryPlan::range(3.0, 4));
        let (outcomes, _) = execute_tick(&mut exec, &[&a, &b]);
        let QueryPlan::Batch(slices) = &exec.calls[0].1 else {
            panic!("batch expected");
        };
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[1].query_ids, vec![1, 2], "range ids of a then b");
        assert!(outcomes.iter().all(|o| o.is_ok()));
    }

    #[test]
    fn invalid_requests_fail_alone() {
        let mut exec = Recorder { calls: Vec::new() };
        let good = Request::new(q(2), QueryPlan::knn(1.0, 4));
        let bad = Request::new(q(2), QueryPlan::knn(-1.0, 4));
        let (outcomes, tick) = execute_tick(&mut exec, &[&good, &bad]);
        assert_eq!(tick.requests, 1, "only the valid request executes");
        assert!(outcomes[0].is_ok());
        assert_eq!(
            outcomes[1].as_ref().unwrap_err(),
            &SearchError::InvalidPlan(PlanError::InvalidRadius {
                field: "Knn.r",
                value: -1.0
            })
        );
    }

    #[test]
    fn untunable_executors_leave_the_tuner_untouched() {
        // The Recorder exposes no tuner signature, so a tuned tick runs
        // the plain path: no decision is taken, none is recorded.
        let mut exec = Recorder { calls: Vec::new() };
        let mut tuner = AutoTuner::new(7);
        let a = Request::new(q(2), QueryPlan::knn(1.0, 4));
        let b = Request::new(q(3), QueryPlan::range(2.0, 8));
        let (outcomes, tick) = execute_tick_tuned(&mut exec, &[&a, &b], Some(&mut tuner));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert!(tick.tuned.is_none());
        assert_eq!(tuner.decisions(), 0, "the tuner was never consulted");
        assert_eq!(exec.calls.len(), 1, "the tick still executed");
    }

    #[test]
    fn empty_requests_get_empty_responses_without_a_launch() {
        let mut exec = Recorder { calls: Vec::new() };
        let a = Request::new(Vec::new(), QueryPlan::knn(1.0, 4));
        let b = Request::new(Vec::new(), QueryPlan::range(1.0, 4));
        let (outcomes, _) = execute_tick(&mut exec, &[&a, &b]);
        assert!(exec.calls.is_empty(), "nothing to launch");
        assert!(outcomes.iter().all(|o| o.as_ref().unwrap().is_empty()));
    }
}
