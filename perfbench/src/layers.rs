//! Per-layer metrics of the traced run, measured from outside the library:
//! from data its calls already return (`SearchResults.trace`,
//! `search_metrics`, `ShardTiming`) and from a timing `TickExecutor` that
//! forwards every trait method.

use crate::adapters::{Results, ShardTiming, TickExecutor, Vec3};
use crate::stats::{mean, median};
use rtnn::{CostCoefficients, QueryPlan, SearchError, StageKind, StageOverrides};
use std::collections::BTreeMap;
use std::time::Instant;

/// One per-layer metric: name, unit, the layer it belongs to, and the
/// end-to-end metric and workload it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        layer,
        moves,
    }
}

const SERVE: &str = "op_p50_ms, queries_per_s on serve_small";
const SHARD: &str = "queries_per_s on serve_small";
const STAGE_HOST: &str = "queries_per_s on batch_kitti, dbscan_nbody";
const STAGE_DEVICE: &str = "sim_ms_per_kquery on every workload";
const LAUNCH: &str = "sim_ms_per_kquery on batch_kitti";
const PARALLEL: &str = "op_p50_ms, cpu_ms_per_kquery on serve_small";
const DYNAMIC: &str = "op_p50_ms on stream_nbody";
const DBSCAN: &str = "op_p50_ms on dbscan_nbody";

/// Every per-layer metric, in report order. `BENCHMARK.json` lists the same
/// names (pinned by a self-test). Times are per library call (`stage.*`,
/// `launch.*`, `gpusim.*`, `index.*`, `shard.*`, `serve.tick_ms`), per
/// request (`serve.queue_wait_ms`), per frame (`dynamic.*`) or per
/// clustering run (`dbscan.*`).
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("serve.tick_ms", "ms", "serve", SERVE),
    m("serve.queue_wait_ms", "ms", "serve", SERVE),
    m("serve.requests_per_tick", "count", "serve", SERVE),
    m("serve.queries_per_tick", "count", "serve", SERVE),
    m("shard.skew", "ratio", "shard", SHARD),
    m("shard.active_per_query", "count", "shard", SHARD),
    m("shard.host_critical_ms", "ms", "shard", SHARD),
    m("shard.host_sum_ms", "ms", "shard", SHARD),
    m("shard.merge_host_ms", "ms", "shard", SHARD),
    m("index.driver_ms", "ms", "index", "op_p50_ms on batch_kitti"),
    m(
        "index.cached_structures",
        "count",
        "index",
        "peak_rss_mb on every workload",
    ),
    m("stage.schedule.host_ms", "ms", "pipeline", STAGE_HOST),
    m("stage.schedule.device_ms", "ms", "pipeline", STAGE_DEVICE),
    m(
        "stage.schedule.invocations",
        "count",
        "pipeline",
        STAGE_HOST,
    ),
    m("stage.partition.host_ms", "ms", "pipeline", STAGE_HOST),
    m("stage.partition.device_ms", "ms", "pipeline", STAGE_DEVICE),
    m(
        "stage.partition.invocations",
        "count",
        "pipeline",
        STAGE_HOST,
    ),
    m("stage.launch.host_ms", "ms", "pipeline", STAGE_HOST),
    m("stage.launch.device_ms", "ms", "pipeline", STAGE_DEVICE),
    m("stage.launch.invocations", "count", "pipeline", STAGE_HOST),
    m("stage.gather.host_ms", "ms", "pipeline", STAGE_HOST),
    m("stage.gather.device_ms", "ms", "pipeline", STAGE_DEVICE),
    m("stage.gather.invocations", "count", "pipeline", STAGE_HOST),
    m("launch.rays", "count", "optix", LAUNCH),
    m("launch.node_visits", "count", "optix", LAUNCH),
    m("launch.prim_tests", "count", "optix", LAUNCH),
    m("launch.is_calls", "count", "optix", LAUNCH),
    m("launch.useful_is_ratio", "ratio", "optix", LAUNCH),
    m("gpusim.simt_efficiency", "ratio", "gpusim", LAUNCH),
    m("gpusim.l1_hit_rate", "ratio", "gpusim", LAUNCH),
    m("gpusim.l2_hit_rate", "ratio", "gpusim", LAUNCH),
    m("gpusim.dram_accesses", "count", "gpusim", LAUNCH),
    m(
        "bvh.traverse_floor_ms",
        "ms",
        "bvh",
        "queries_per_s on batch_kitti",
    ),
    m(
        "launch.host_over_floor",
        "ratio",
        "bvh",
        "queries_per_s on batch_kitti",
    ),
    m("bvh.build_ms", "ms", "bvh", "setup_s on every workload"),
    m("parallel.call_overhead_us", "us", "parallel", PARALLEL),
    m("process.cpu_per_wall", "ratio", "parallel", PARALLEL),
    m("dynamic.write_ms", "ms", "dynamic", DYNAMIC),
    m("dynamic.structure_host_ms", "ms", "dynamic", DYNAMIC),
    m("dynamic.search_ms", "ms", "dynamic", DYNAMIC),
    m("dynamic.structure_sim_ms", "ms", "dynamic", DYNAMIC),
    m("dynamic.rebuilds", "1/frame", "dynamic", DYNAMIC),
    m("dynamic.refits", "1/frame", "dynamic", DYNAMIC),
    m("dbscan.neighborhood_ms", "ms", "analytics", DBSCAN),
    m("dbscan.reduce_ms", "ms", "analytics", DBSCAN),
    m("dbscan.edges", "count", "analytics", DBSCAN),
    m("dbscan.batches", "count", "analytics", DBSCAN),
    m(
        "trace.overhead_pct",
        "%",
        "trace",
        "traced op_p50_ms against the untraced run",
    ),
];

/// Per-layer samples of one traced run. Times reduce to their median,
/// counts and ratios to their mean; metrics a workload never exercises
/// are reported as 0 and named in the run's notes.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Σ `stage.launch.host_ms` and Σ queries over recorded calls.
    launch_host_ms: f64,
    call_queries: Vec<f64>,
}

impl Layers {
    /// Add one sample.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of a metric's samples so far (0 when it has none).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Record one `Index` call that answered `queries` points in `wall_ms`.
    pub fn record_call(&mut self, res: &Results, wall_ms: f64, queries: usize) {
        self.add("index.driver_ms", wall_ms - res.trace.host_total_ms());
        self.record_pipeline(res, queries);
    }

    /// Record the stage and launch meters of one call. (A sharded call's
    /// trace sums the shards' host time, which overlaps in wall time, so
    /// it has no `index.driver_ms`.)
    fn record_pipeline(&mut self, res: &Results, queries: usize) {
        for kind in StageKind::ALL {
            let s = res.trace.stage(kind);
            let [host, device, invocations] = match kind {
                StageKind::Schedule => [
                    "stage.schedule.host_ms",
                    "stage.schedule.device_ms",
                    "stage.schedule.invocations",
                ],
                StageKind::Partition => [
                    "stage.partition.host_ms",
                    "stage.partition.device_ms",
                    "stage.partition.invocations",
                ],
                StageKind::Launch => [
                    "stage.launch.host_ms",
                    "stage.launch.device_ms",
                    "stage.launch.invocations",
                ],
                StageKind::Gather => [
                    "stage.gather.host_ms",
                    "stage.gather.device_ms",
                    "stage.gather.invocations",
                ],
            };
            self.add(host, s.host_ms);
            self.add(device, s.device_ms);
            self.add(invocations, s.invocations as f64);
        }
        self.launch_host_ms += res.trace.stage(StageKind::Launch).host_ms;
        self.call_queries.push(queries as f64);
        let l = &res.search_metrics;
        self.add("launch.rays", l.active_rays as f64);
        self.add("launch.node_visits", l.node_visits as f64);
        self.add("launch.prim_tests", l.prim_tests as f64);
        self.add("launch.is_calls", l.is_calls as f64);
        if l.is_calls > 0 {
            self.add(
                "launch.useful_is_ratio",
                res.total_neighbors() as f64 / l.is_calls as f64,
            );
        }
        self.add("gpusim.simt_efficiency", l.kernel.simt_efficiency);
        self.add("gpusim.l1_hit_rate", l.kernel.memory.l1_hit_rate());
        self.add("gpusim.l2_hit_rate", l.kernel.memory.l2_hit_rate());
        self.add("gpusim.dram_accesses", l.kernel.memory.dram_accesses as f64);
    }

    /// Record one sharded call and its fan-out.
    pub fn record_sharded_call(&mut self, t: &ShardTiming, res: &Results, queries: usize) {
        self.record_pipeline(res, queries);
        let hosts: Vec<f64> = t
            .per_shard_traces
            .iter()
            .map(|s| s.host_total_ms())
            .collect();
        self.add("shard.skew", t.skew());
        if queries > 0 {
            self.add(
                "shard.active_per_query",
                res.search_metrics.active_rays as f64 / queries as f64,
            );
        }
        self.add(
            "shard.host_critical_ms",
            hosts.iter().copied().fold(0.0, f64::max),
        );
        self.add("shard.host_sum_ms", hosts.iter().sum());
        self.add(
            "shard.merge_host_ms",
            res.trace.stage(StageKind::Gather).host_ms,
        );
    }

    /// Reduce to one value per metric in [`LAYER_METRICS`] order, given the
    /// bare-traversal floor (ms per query). Returns the values and the
    /// names of metrics this run never sampled.
    pub fn finish(mut self, floor_ms_per_query: f64) -> (Vec<f64>, Vec<&'static str>) {
        if floor_ms_per_query > 0.0 && !self.call_queries.is_empty() {
            let floor_per_call = floor_ms_per_query * median(&self.call_queries);
            let floor_total = floor_ms_per_query * self.call_queries.iter().sum::<f64>();
            self.add("bvh.traverse_floor_ms", floor_per_call);
            self.add("launch.host_over_floor", self.launch_host_ms / floor_total);
        }
        let mut missing = Vec::new();
        let values = LAYER_METRICS
            .iter()
            .map(|metric| match self.samples.get(metric.name) {
                Some(v) if metric.unit == "ms" || metric.unit == "us" => median(v),
                Some(v) => mean(v),
                None => {
                    missing.push(metric.name);
                    0.0
                }
            })
            .collect();
        (values, missing)
    }
}

/// The shard view of an executor (only `ShardedIndex` has one).
pub trait Sharding {
    fn shard_timing(&self) -> Option<ShardTiming> {
        None
    }
}

impl Sharding for rtnn::Index<'_> {}

impl Sharding for rtnn_serve::ShardedIndex<'_> {
    fn shard_timing(&self) -> Option<ShardTiming> {
        Some(crate::adapters::shard_timing(self))
    }
}

/// A delegating [`TickExecutor`] that times every execute call. Simulated
/// time, call count and returned neighbors are always summed (they are the
/// benchmark's own outputs); `layers`, when set, also records the call's
/// per-layer samples.
pub struct Timed<E> {
    pub inner: E,
    pub layers: Option<Layers>,
    pub sim_ms: f64,
    pub wall_ms: f64,
    pub calls: u64,
    pub neighbors: u64,
}

impl<E: TickExecutor + Sharding> Timed<E> {
    pub fn new(inner: E) -> Self {
        Timed {
            inner,
            layers: None,
            sim_ms: 0.0,
            wall_ms: 0.0,
            calls: 0,
            neighbors: 0,
        }
    }

    /// Zero the sums (keeps `layers` as is).
    pub fn reset(&mut self) {
        self.sim_ms = 0.0;
        self.wall_ms = 0.0;
        self.calls = 0;
        self.neighbors = 0;
    }

    fn observe(
        &mut self,
        queries: usize,
        call: impl FnOnce(&mut E) -> Result<Results, SearchError>,
    ) -> Result<Results, SearchError> {
        let t0 = Instant::now();
        let out = call(&mut self.inner);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        self.wall_ms += wall;
        self.calls += 1;
        if let Ok(res) = &out {
            self.sim_ms += res.total_time_ms();
            self.neighbors += res.total_neighbors() as u64;
            if let Some(layers) = self.layers.as_mut() {
                match self.inner.shard_timing() {
                    // Only the service drives the sharded index, one call
                    // per serving tick.
                    Some(t) => {
                        layers.add("serve.tick_ms", wall);
                        layers.add("serve.queries_per_tick", queries as f64);
                        layers.record_sharded_call(&t, res, queries);
                    }
                    None => layers.record_call(res, wall, queries),
                }
            }
        }
        out
    }
}

impl<E: TickExecutor + Sharding> TickExecutor for Timed<E> {
    fn execute(&mut self, queries: &[Vec3], plan: &QueryPlan) -> Result<Results, SearchError> {
        self.observe(queries.len(), |e| e.execute(queries, plan))
    }

    fn execute_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<Results, SearchError> {
        self.observe(queries.len(), |e| e.execute_with(queries, plan, overrides))
    }

    fn tuner_signature(&self) -> Option<(usize, &'static str)> {
        self.inner.tuner_signature()
    }

    fn calibrated_cost(&self) -> Option<CostCoefficients> {
        self.inner.calibrated_cost()
    }

    fn last_shard_skew(&self) -> f64 {
        self.inner.last_shard_skew()
    }
}
