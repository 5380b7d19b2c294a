//! Per-stage metering: every pipeline execution reports how much simulated
//! device time (and host wall-clock) each stage consumed, rolled up next to
//! the existing [`TimeBreakdown`](crate::TimeBreakdown) /
//! [`LaunchMetrics`](crate::LaunchMetrics) views.
//!
//! The invariant the metering keeps (and the test suite pins): every
//! simulated millisecond the pipeline charges to the device lands in
//! exactly one stage slot, so
//!
//! ```text
//! trace.device_total_ms() == breakdown.total_ms() - breakdown.data_ms
//! ```
//!
//! (host↔device transfers are driver setup, not a stage). In particular the
//! query-sort kernel is billed once, to [`StageKind::Schedule`] — never
//! double-billed into the partition slot it used to sit next to in the
//! monolithic `Index::query`.

use crate::engine::SearchError;
use rtnn_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// The four stages of the execution pipeline, in the order the paper
/// presents them (the driver runs the coherence schedule before the
/// partition kernel — see the [`pipeline`](crate::pipeline) module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Megacell growth, partition grouping and bundling (Section 5).
    Partition,
    /// The first-hit coherence pass and the Morton query sort (Section 4).
    Schedule,
    /// Structure availability (builds, refit maintenance) plus the actual
    /// search traversals.
    Launch,
    /// Scattering per-launch payloads back into per-query results (and, in
    /// a sharded execution, the deterministic shard merge).
    Gather,
}

impl StageKind {
    /// All stages, in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Partition,
        StageKind::Schedule,
        StageKind::Launch,
        StageKind::Gather,
    ];

    /// Label used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Partition => "Partition",
            StageKind::Schedule => "Schedule",
            StageKind::Launch => "Launch",
            StageKind::Gather => "Gather",
        }
    }

    /// Telemetry span name for one execution of this stage (the workspace
    /// dotted schema — see the README's Observability section).
    pub fn span_name(&self) -> &'static str {
        match self {
            StageKind::Partition => "stage.partition",
            StageKind::Schedule => "stage.schedule",
            StageKind::Launch => "stage.launch",
            StageKind::Gather => "stage.gather",
        }
    }

    /// Telemetry histogram name for this stage's simulated device
    /// milliseconds per invocation (recorded at level `basic` and up).
    pub fn device_histogram(&self) -> &'static str {
        match self {
            StageKind::Partition => "stage.partition.device_ms",
            StageKind::Schedule => "stage.schedule.device_ms",
            StageKind::Launch => "stage.launch.device_ms",
            StageKind::Gather => "stage.gather.device_ms",
        }
    }

    fn slot(self) -> usize {
        match self {
            StageKind::Partition => 0,
            StageKind::Schedule => 1,
            StageKind::Launch => 2,
            StageKind::Gather => 3,
        }
    }
}

/// Metering of one pipeline stage across an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Which stage this meters.
    pub kind: StageKind,
    /// Simulated device milliseconds the stage charged (kernels, launches,
    /// structure builds). Zero for host-only stages (`Gather`).
    pub device_ms: f64,
    /// Host wall-clock milliseconds spent inside the stage.
    pub host_ms: f64,
    /// How many times the stage ran (a batch plan runs the per-slice stages
    /// once per slice; a sharded execution once per overlapped shard).
    /// `Launch` also counts each execution's one structure ensure.
    pub invocations: u64,
}

impl StageTiming {
    fn zero(kind: StageKind) -> Self {
        StageTiming {
            kind,
            device_ms: 0.0,
            host_ms: 0.0,
            invocations: 0,
        }
    }
}

/// The per-stage roll-up of one pipeline execution, carried on every
/// [`SearchResults`](crate::SearchResults).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    stages: [StageTiming; 4],
}

impl Default for PipelineTrace {
    fn default() -> Self {
        PipelineTrace {
            stages: [
                StageTiming::zero(StageKind::Partition),
                StageTiming::zero(StageKind::Schedule),
                StageTiming::zero(StageKind::Launch),
                StageTiming::zero(StageKind::Gather),
            ],
        }
    }
}

impl PipelineTrace {
    /// The four stage meters, in pipeline order.
    pub fn stages(&self) -> &[StageTiming; 4] {
        &self.stages
    }

    /// The meter of one stage.
    pub fn stage(&self, kind: StageKind) -> &StageTiming {
        &self.stages[kind.slot()]
    }

    /// Charge `device_ms` of simulated time and `host_ms` of wall-clock to
    /// a stage, counting one invocation.
    pub(crate) fn charge(&mut self, kind: StageKind, device_ms: f64, host_ms: f64) {
        let slot = &mut self.stages[kind.slot()];
        slot.device_ms += device_ms;
        slot.host_ms += host_ms;
        slot.invocations += 1;
    }

    /// Charge host-only work to a stage from outside the core driver — how
    /// a sharded execution bills its shared `ShardMerge` loop to the
    /// `Gather` slot (the merge runs on the host; it charges no simulated
    /// device time, so the device-accounting invariant is untouched).
    pub fn charge_host_only(&mut self, kind: StageKind, host_ms: f64) {
        self.charge(kind, 0.0, host_ms);
    }

    /// Total simulated device time across all stages. Equals the result's
    /// `breakdown.total_ms() - breakdown.data_ms` (transfers are driver
    /// setup, not a stage).
    pub fn device_total_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.device_ms).sum()
    }

    /// Total host wall-clock across all stages.
    pub fn host_total_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.host_ms).sum()
    }

    /// Per-stage `(label, device_ms)` pairs in pipeline order — the shape
    /// the telemetry layer's continuous profiler and flight recorder
    /// ingest.
    pub fn stage_device_ms(&self) -> [(&'static str, f64); 4] {
        let mut out = [("", 0.0); 4];
        for (slot, stage) in self.stages.iter().enumerate() {
            out[slot] = (stage.kind.label(), stage.device_ms);
        }
        out
    }

    /// Each stage's simulated time as a fraction of the stage total (zeros
    /// when nothing was charged).
    pub fn device_fractions(&self) -> [(&'static str, f64); 4] {
        let total = self.device_total_ms();
        let mut out = [("", 0.0); 4];
        for (slot, stage) in self.stages.iter().enumerate() {
            out[slot] = (
                stage.kind.label(),
                if total > 0.0 {
                    stage.device_ms / total
                } else {
                    0.0
                },
            );
        }
        out
    }

    /// Fold another execution's trace into this one (slot-wise sums) — how
    /// a sharded index aggregates its per-shard pipeline runs.
    pub fn merge(&mut self, other: &PipelineTrace) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.device_ms += theirs.device_ms;
            mine.host_ms += theirs.host_ms;
            mine.invocations += theirs.invocations;
        }
    }
}

/// Meters the stage invocations of one execution: each runs under a span,
/// and its host wall-clock plus the simulated ms it reports land in the
/// [`PipelineTrace`].
pub(crate) struct StageMeter {
    tel: Option<Arc<Telemetry>>,
    pub(crate) trace: PipelineTrace,
}

impl StageMeter {
    pub(crate) fn new() -> Self {
        StageMeter {
            tel: Telemetry::current(),
            trace: PipelineTrace::default(),
        }
    }

    /// Run `body` as one invocation of `kind`; `body` returns its output
    /// and the simulated ms it charged, which is also recorded in the
    /// stage's device histogram.
    pub(crate) fn stage<T>(
        &mut self,
        kind: StageKind,
        body: impl FnOnce() -> Result<(T, f64), SearchError>,
    ) -> Result<T, SearchError> {
        let (out, device_ms) = self.run(kind, kind.span_name(), body)?;
        if let Some(t) = &self.tel {
            t.observe(kind.device_histogram(), device_ms);
        }
        Ok(out)
    }

    /// Run the structure ensure, which returns the simulated ms it
    /// charged: billed to `Launch` under an `accel.ensure` span, outside
    /// the stage histograms.
    pub(crate) fn structures(
        &mut self,
        body: impl FnOnce() -> Result<f64, SearchError>,
    ) -> Result<(), SearchError> {
        self.run(StageKind::Launch, "accel.ensure", || Ok(((), body()?)))
            .map(|_| ())
    }

    fn run<T>(
        &mut self,
        kind: StageKind,
        span_name: &'static str,
        body: impl FnOnce() -> Result<(T, f64), SearchError>,
    ) -> Result<(T, f64), SearchError> {
        let host = Instant::now();
        let mut span = self.tel.as_ref().map(|t| t.span(span_name));
        let (out, device_ms) = body()?;
        let host_ms = host.elapsed().as_secs_f64() * 1e3;
        self.trace.charge(kind, device_ms, host_ms);
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", device_ms)
                .attr("invocations", 1.0)
                .attr_wall("host_ms", host_ms);
        }
        Ok((out, device_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_slot() {
        let mut trace = PipelineTrace::default();
        trace.charge(StageKind::Schedule, 2.0, 0.1);
        trace.charge(StageKind::Schedule, 3.0, 0.2);
        trace.charge(StageKind::Launch, 5.0, 0.5);
        let sched = trace.stage(StageKind::Schedule);
        assert_eq!(sched.device_ms, 5.0);
        assert_eq!(sched.invocations, 2);
        assert_eq!(trace.device_total_ms(), 10.0);
        assert!((trace.host_total_ms() - 0.8).abs() < 1e-12);
        assert_eq!(trace.stage(StageKind::Gather).invocations, 0);
    }

    #[test]
    fn merge_is_slotwise() {
        let mut a = PipelineTrace::default();
        a.charge(StageKind::Partition, 1.0, 0.0);
        let mut b = PipelineTrace::default();
        b.charge(StageKind::Partition, 2.0, 0.0);
        b.charge(StageKind::Gather, 0.0, 0.25);
        a.merge(&b);
        assert_eq!(a.stage(StageKind::Partition).device_ms, 3.0);
        assert_eq!(a.stage(StageKind::Partition).invocations, 2);
        assert_eq!(a.stage(StageKind::Gather).host_ms, 0.25);
    }

    #[test]
    fn fractions_sum_to_one_when_charged() {
        let mut trace = PipelineTrace::default();
        trace.charge(StageKind::Schedule, 1.0, 0.0);
        trace.charge(StageKind::Launch, 3.0, 0.0);
        let fracs = trace.device_fractions();
        let sum: f64 = fracs.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(PipelineTrace::default().device_fractions()[0].1, 0.0);
        // Labels follow pipeline order.
        assert_eq!(fracs[0].0, "Partition");
        assert_eq!(fracs[3].0, "Gather");
    }
}
