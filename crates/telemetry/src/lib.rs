//! `rtnn-telemetry`: the unified metrics + tracing substrate behind every
//! RTNN layer.
//!
//! One [`Telemetry`] sink owns a lock-light [`MetricsRegistry`] (counters,
//! gauges, log-bucketed histograms with exact p50/p99/p999), a bounded
//! ring buffer of completed [`FinishedSpan`]s, a bounded event log, and an
//! injectable [`Clock`]. Producers — the execution pipeline, accel
//! builders, the sharded index, the query service — record through it
//! instead of growing private timing surfaces; consumers freeze it into a
//! [`TelemetrySnapshot`] and export JSONL or Prometheus text.
//!
//! Recording is gated by [`TelemetryLevel`] (the validated `RTNN_TELEMETRY`
//! env knob): `off` reduces every hook to a level check, `basic` records
//! metrics, `full` adds spans and events. Two invariants the rest of the
//! workspace leans on:
//!
//! * **Results are never affected.** The sink only observes; `fig_obs` and
//!   `tests/telemetry_equivalence.rs` pin bit-equal `SearchResults` across
//!   all levels.
//! * **Virtual-time snapshots are bit-deterministic.** A sink on a
//!   [`VirtualClock`] stamps spans from the replayed schedule and drops
//!   wall-measured attributes ([`SpanGuard::attr_wall`]), so the serve
//!   load harness reproduces identical snapshots on any machine.
//!
//! # Ambient context
//!
//! Spans parent implicitly: a [`SpanGuard`] pushes its id onto a
//! thread-local stack, and the next span created on the same sink in that
//! thread nests under it. [`Telemetry::current`] resolves the active sink
//! for code that is not handed one explicitly — the nearest
//! [`Telemetry::scoped`] frame, falling back to the process-wide
//! [`Telemetry::global`] (initialized from `RTNN_TELEMETRY`). Every run of
//! a parallel call — on a pool worker, or the calling thread's own share,
//! which runs [`Telemetry::detached`] — starts from an empty stack and
//! therefore does *not* inherit the caller's ambient sink; parallel layers
//! (e.g. the sharded index)
//! instead synthesize per-worker spans retrospectively on the caller
//! thread via [`Telemetry::record_span`], which keeps span order
//! deterministic. [`Telemetry::suppressed`] blocks the global fallback for
//! closures whose telemetry the caller re-emits itself.

#![deny(missing_docs)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod level;
pub mod metrics;
pub mod profile;
pub mod span;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use export::{
    parse_json, parse_jsonl, to_jsonl, to_prometheus, verify_jsonl_roundtrip, JsonValue,
};
pub use flight::{FlightRecorder, PinnedExemplar, RequestTrace, SloConfig, SloEvent, SloMonitor};
pub use level::TelemetryLevel;
pub use metrics::{
    percentile, Counter, Gauge, Histogram, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{
    density_bucket, ProfileSample, ProfileSnapshot, Signature, SignatureProfile, SignatureProfiler,
    StageProfile,
};
pub use span::{Event, FinishedSpan, RingBuffer, SpanId};

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default capacity of the completed-span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;
/// Default capacity of the event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A telemetry sink: level gate, clock, metrics registry, span ring and
/// event log. Shared as an `Arc` between producers and the snapshotting
/// consumer.
pub struct Telemetry {
    level: TelemetryLevel,
    clock: Arc<dyn Clock>,
    metrics: MetricsRegistry,
    spans: Mutex<RingBuffer<FinishedSpan>>,
    events: Mutex<RingBuffer<Event>>,
    next_span_id: AtomicU64,
    profiler: Mutex<Option<SignatureProfiler>>,
    profiler_on: AtomicBool,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.level)
            .field("deterministic", &self.is_deterministic())
            .finish_non_exhaustive()
    }
}

/// A retrospectively recorded span: explicit interval and parent, for
/// emission sites where the tree is assembled after the fact (e.g. per-shard
/// stages synthesized on the caller thread once the workers are done).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (workspace dotted schema).
    pub name: Cow<'static, str>,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Interval start, in the sink clock's milliseconds.
    pub start_ms: f64,
    /// Interval end, in the sink clock's milliseconds.
    pub end_ms: f64,
    /// Numeric attributes.
    pub attrs: Vec<(Cow<'static, str>, f64)>,
}

enum Frame {
    /// A `scoped` region: this sink answers `current()` here.
    Scope(Arc<Telemetry>),
    /// A `suppressed` region: `current()` resolves to nothing.
    Suppressed,
    /// A live `SpanGuard`: ambient parent for same-sink child spans.
    Span(Arc<Telemetry>, SpanId),
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn global_sink() -> &'static Arc<Telemetry> {
    static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let sink = Telemetry::new(TelemetryLevel::from_env());
        if let Some(profiler) = SignatureProfiler::from_env() {
            sink.enable_profiler(profiler);
        }
        sink
    })
}

/// Pops its frame on drop, so `scoped`/`suppressed` unwind correctly even
/// when the closure panics.
struct FrameGuard;

impl Drop for FrameGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

impl Telemetry {
    /// A sink at `level` on a fresh [`MonotonicClock`], with default ring
    /// capacities.
    pub fn new(level: TelemetryLevel) -> Arc<Self> {
        Self::with_clock(level, Arc::new(MonotonicClock::new()))
    }

    /// A sink at `level` on the given clock. Hand a shared
    /// [`VirtualClock`] here to make every recorded timestamp a
    /// deterministic function of the replayed schedule.
    pub fn with_clock(level: TelemetryLevel, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::with_capacities(level, clock, DEFAULT_SPAN_CAPACITY, DEFAULT_EVENT_CAPACITY)
    }

    /// A sink with explicit ring-buffer capacities.
    pub fn with_capacities(
        level: TelemetryLevel,
        clock: Arc<dyn Clock>,
        span_capacity: usize,
        event_capacity: usize,
    ) -> Arc<Self> {
        Arc::new(Telemetry {
            level,
            clock,
            metrics: MetricsRegistry::new(),
            spans: Mutex::new(RingBuffer::new(span_capacity)),
            events: Mutex::new(RingBuffer::new(event_capacity)),
            next_span_id: AtomicU64::new(1),
            profiler: Mutex::new(None),
            profiler_on: AtomicBool::new(false),
        })
    }

    /// The process-wide sink, initialized on first use from the
    /// `RTNN_TELEMETRY` environment variable (and exiting with a clear
    /// message if that variable is set to garbage).
    pub fn global() -> &'static Arc<Telemetry> {
        global_sink()
    }

    /// The sink ambient code should record to, or `None` when recording is
    /// off here: inside a [`Telemetry::suppressed`] region, or when the
    /// resolved sink's level is [`TelemetryLevel::Off`]. Resolution order:
    /// nearest thread-local [`Telemetry::scoped`] / span frame, then the
    /// process-wide [`Telemetry::global`].
    pub fn current() -> Option<Arc<Telemetry>> {
        let ambient = STACK.with(|stack| {
            stack.borrow().last().map(|frame| match frame {
                Frame::Scope(sink) | Frame::Span(sink, _) => Some(sink.clone()),
                Frame::Suppressed => None,
            })
        });
        let sink = match ambient {
            Some(Some(sink)) => sink,
            Some(None) => return None,
            None => global_sink().clone(),
        };
        (sink.level != TelemetryLevel::Off).then_some(sink)
    }

    /// Run `f` with `sink` as the thread's ambient sink (what
    /// [`Telemetry::current`] resolves to).
    pub fn scoped<R>(sink: &Arc<Telemetry>, f: impl FnOnce() -> R) -> R {
        STACK.with(|stack| stack.borrow_mut().push(Frame::Scope(sink.clone())));
        let _guard = FrameGuard;
        f()
    }

    /// Run `f` with ambient telemetry disabled: [`Telemetry::current`]
    /// resolves to `None` inside, including the global fallback. Used
    /// around worker closures whose telemetry the caller synthesizes
    /// itself, so nothing is double-counted.
    pub fn suppressed<R>(f: impl FnOnce() -> R) -> R {
        STACK.with(|stack| stack.borrow_mut().push(Frame::Suppressed));
        let _guard = FrameGuard;
        f()
    }

    /// Run `f` as a newly spawned thread would: with this thread's ambient
    /// context set aside, so [`Telemetry::current`] resolves to the global
    /// sink and spans get no ambient parent. The context is restored
    /// afterwards, also when `f` panics. `rtnn-parallel` runs the calling
    /// thread's share of a parallel call this way, so what a run records
    /// never depends on which thread claimed it.
    pub fn detached<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(Vec<Frame>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let saved = std::mem::take(&mut self.0);
                STACK.with(|stack| *stack.borrow_mut() = saved);
            }
        }
        let _restore = Restore(STACK.with(|stack| std::mem::take(&mut *stack.borrow_mut())));
        f()
    }

    /// The sink's recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// True when counters/gauges/histograms are recorded.
    pub fn metrics_enabled(&self) -> bool {
        self.level.metrics_enabled()
    }

    /// True when spans and events are recorded.
    pub fn spans_enabled(&self) -> bool {
        self.level.spans_enabled()
    }

    /// True when the sink's clock is hand-advanced ([`Clock::is_virtual`]):
    /// wall-measured attributes are dropped so snapshots stay
    /// bit-reproducible.
    pub fn is_deterministic(&self) -> bool {
        self.clock.is_virtual()
    }

    /// Current time on the sink's clock, in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    // ---- metrics ----------------------------------------------------------

    /// The counter handle for `name` (cacheable; recording through it never
    /// takes the registry lock). The handle is live even at level `off` —
    /// gate hot paths on [`Telemetry::metrics_enabled`].
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// The gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.metrics.gauge(name)
    }

    /// The histogram handle for `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.metrics.histogram(name)
    }

    /// Add `n` to the counter `name`, if metrics are enabled.
    pub fn counter_add(&self, name: &str, n: u64) {
        if self.metrics_enabled() {
            self.metrics.counter(name).add(n);
        }
    }

    /// Set the gauge `name`, if metrics are enabled.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if self.metrics_enabled() {
            self.metrics.gauge(name).set(v);
        }
    }

    /// Record one observation into the histogram `name`, if metrics are
    /// enabled.
    pub fn observe(&self, name: &str, v: f64) {
        if self.metrics_enabled() {
            self.metrics.histogram(name).record(v);
        }
    }

    /// Record a *wall-measured* observation (host milliseconds, anything
    /// machine-dependent). Dropped on deterministic (virtual-clock) sinks,
    /// the histogram counterpart of [`SpanGuard::attr_wall`].
    pub fn observe_wall(&self, name: &str, v: f64) {
        if self.metrics_enabled() && !self.is_deterministic() {
            self.metrics.histogram(name).record(v);
        }
    }

    // ---- continuous profiling ---------------------------------------------

    /// Attach a [`SignatureProfiler`]: from now on,
    /// [`profile`](Self::profile) folds samples into it (when the sink's
    /// level records metrics at all). The global sink attaches one
    /// automatically when the validated `RTNN_PROFILE` knob is on.
    pub fn enable_profiler(&self, profiler: SignatureProfiler) {
        *self.profiler.lock().expect("profiler lock") = Some(profiler);
        self.profiler_on.store(true, Ordering::Release);
    }

    /// True when a profiler is attached and the level records metrics —
    /// the cheap gate hot paths check (one relaxed atomic load when off).
    pub fn profiler_enabled(&self) -> bool {
        self.metrics_enabled() && self.profiler_on.load(Ordering::Acquire)
    }

    /// Fold one execution into the attached profiler; no-op when none is
    /// attached or the level is `off`.
    pub fn profile(&self, sample: &ProfileSample<'_>) {
        if !self.profiler_enabled() {
            return;
        }
        if let Some(profiler) = self.profiler.lock().expect("profiler lock").as_mut() {
            profiler.record(sample);
        }
    }

    /// Freeze the attached profiler's rolling statistics, or `None` when
    /// no profiler is attached.
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.profiler
            .lock()
            .expect("profiler lock")
            .as_ref()
            .map(SignatureProfiler::snapshot)
    }

    // ---- spans ------------------------------------------------------------

    /// Start a span named `name`, parented under the thread's innermost
    /// live span on this sink (ambient nesting). Returns a no-op guard
    /// when spans are disabled.
    pub fn span(self: &Arc<Self>, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        let parent = self.ambient_parent();
        self.span_with_parent(name, parent)
    }

    /// Start a span with an explicit parent (or an explicit root when
    /// `parent` is `None`), bypassing ambient lookup.
    pub fn span_with_parent(
        self: &Arc<Self>,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
    ) -> SpanGuard {
        if !self.spans_enabled() {
            return SpanGuard {
                inner: None,
                _not_send: PhantomData,
            };
        }
        let id = self.reserve_span_id();
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame::Span(self.clone(), id));
        });
        SpanGuard {
            inner: Some(SpanInner {
                sink: self.clone(),
                id,
                parent,
                name: name.into(),
                start_ms: self.clock.now_ms(),
                attrs: Vec::new(),
            }),
            _not_send: PhantomData,
        }
    }

    /// The thread's innermost live span id *on this sink*, if any.
    pub fn ambient_parent(self: &Arc<Self>) -> Option<SpanId> {
        STACK.with(|stack| {
            stack.borrow().iter().rev().find_map(|frame| match frame {
                Frame::Span(sink, id) if Arc::ptr_eq(sink, self) => Some(*id),
                _ => None,
            })
        })
    }

    /// Allocate a span id without recording anything — for
    /// reserve-then-fill emission where children must reference a parent
    /// that is recorded later.
    pub fn reserve_span_id(&self) -> SpanId {
        SpanId(self.next_span_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a completed span retrospectively with a fresh id. Returns
    /// the id, or `None` when spans are disabled.
    pub fn record_span(&self, record: SpanRecord) -> Option<SpanId> {
        if !self.spans_enabled() {
            return None;
        }
        let id = self.reserve_span_id();
        self.record_span_with_id(id, record);
        Some(id)
    }

    /// Record a completed span under a previously
    /// [reserved](Self::reserve_span_id) id. No-op when spans are disabled.
    pub fn record_span_with_id(&self, id: SpanId, record: SpanRecord) {
        if !self.spans_enabled() {
            return;
        }
        self.push_span(FinishedSpan {
            id,
            parent: record.parent,
            name: record.name,
            start_ms: record.start_ms,
            end_ms: record.end_ms,
            attrs: record.attrs,
        });
    }

    fn push_span(&self, span: FinishedSpan) {
        self.spans.lock().expect("span ring lock").push(span);
    }

    /// Append a point-in-time event to the bounded log (recorded at level
    /// `full`, like spans).
    pub fn event(&self, name: impl Into<Cow<'static, str>>, attrs: &[(&'static str, f64)]) {
        if !self.spans_enabled() {
            return;
        }
        let event = Event {
            at_ms: self.clock.now_ms(),
            name: name.into(),
            attrs: attrs.iter().map(|(k, v)| (Cow::Borrowed(*k), *v)).collect(),
        };
        self.events.lock().expect("event ring lock").push(event);
    }

    // ---- snapshot ---------------------------------------------------------

    /// Freeze everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let spans = self.spans.lock().expect("span ring lock");
        let events = self.events.lock().expect("event ring lock");
        TelemetrySnapshot {
            level: self.level,
            deterministic: self.is_deterministic(),
            metrics: self.metrics.snapshot(),
            spans: spans.to_vec(),
            dropped_spans: spans.dropped(),
            events: events.to_vec(),
            dropped_events: events.dropped(),
        }
    }
}

struct SpanInner {
    sink: Arc<Telemetry>,
    id: SpanId,
    parent: Option<SpanId>,
    name: Cow<'static, str>,
    start_ms: f64,
    attrs: Vec<(Cow<'static, str>, f64)>,
}

/// A live span. Completing it (dropping the guard) stamps the end time and
/// pushes the [`FinishedSpan`] into the sink's ring buffer. Not `Send`:
/// a span belongs to the thread that opened it (the ambient stack is
/// thread-local); cross-thread structure goes through
/// [`Telemetry::record_span`] instead.
pub struct SpanGuard {
    inner: Option<SpanInner>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// This span's id, or `None` for a disabled no-op guard.
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|inner| inner.id)
    }

    /// Attach a numeric attribute. Safe for deterministic values (device
    /// milliseconds, counts, sizes).
    pub fn attr(&mut self, key: impl Into<Cow<'static, str>>, value: f64) -> &mut Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.attrs.push((key.into(), value));
        }
        self
    }

    /// Attach a *wall-measured* attribute (host milliseconds, anything
    /// machine-dependent). Dropped on deterministic (virtual-clock) sinks
    /// so replay snapshots stay bit-reproducible.
    pub fn attr_wall(&mut self, key: impl Into<Cow<'static, str>>, value: f64) -> &mut Self {
        if let Some(inner) = self.inner.as_mut() {
            if !inner.sink.is_deterministic() {
                inner.attrs.push((key.into(), value));
            }
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|f| matches!(f, Frame::Span(_, id) if *id == inner.id))
            {
                stack.remove(pos);
            }
        });
        let end_ms = inner.sink.clock.now_ms();
        inner.sink.push_span(FinishedSpan {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            start_ms: inner.start_ms,
            end_ms,
            attrs: inner.attrs,
        });
    }
}

/// Frozen view of a [`Telemetry`] sink: level, determinism flag, metric
/// values, completed spans (oldest first) and events.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The sink's recording level.
    pub level: TelemetryLevel,
    /// True when the sink ran on a virtual clock (see
    /// [`Telemetry::is_deterministic`]).
    pub deterministic: bool,
    /// All counters, gauges and histograms, name-sorted per kind.
    pub metrics: MetricsSnapshot,
    /// Completed spans, in completion order (oldest first).
    pub spans: Vec<FinishedSpan>,
    /// Spans evicted by ring-buffer overflow.
    pub dropped_spans: u64,
    /// Logged events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted by ring-buffer overflow.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// The span with this id, if retained.
    pub fn span(&self, id: SpanId) -> Option<&FinishedSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// All spans with this exact name, in completion order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FinishedSpan> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `id`, in completion order.
    pub fn children_of(&self, id: SpanId) -> Vec<&FinishedSpan> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Spans with no retained parent (roots, plus orphans whose parent was
    /// evicted from the ring).
    pub fn roots(&self) -> Vec<&FinishedSpan> {
        self.spans
            .iter()
            .filter(|s| match s.parent {
                None => true,
                Some(p) => self.span(p).is_none(),
            })
            .collect()
    }

    /// Every span in the subtree rooted at `id` (including the root), in
    /// completion order.
    pub fn subtree(&self, id: SpanId) -> Vec<&FinishedSpan> {
        let mut member: Vec<SpanId> = vec![id];
        // Spans are stored in completion order, so children may precede
        // parents; iterate to a fixed point over this bounded set instead.
        loop {
            let before = member.len();
            for s in &self.spans {
                if let Some(p) = s.parent {
                    if member.contains(&p) && !member.contains(&s.id) {
                        member.push(s.id);
                    }
                }
            }
            if member.len() == before {
                break;
            }
        }
        self.spans
            .iter()
            .filter(|s| member.contains(&s.id))
            .collect()
    }

    /// Check span-tree well-formedness: every retained child's interval
    /// nests inside its retained parent's (within `tol_ms`), and no span
    /// is its own ancestor. Orphans (parent evicted) are skipped.
    pub fn check_nesting(&self, tol_ms: f64) -> Result<(), String> {
        for child in &self.spans {
            let Some(parent) = child.parent.and_then(|p| self.span(p)) else {
                continue;
            };
            if child.id == parent.id {
                return Err(format!("span {} is its own parent", child.id));
            }
            if child.start_ms < parent.start_ms - tol_ms || child.end_ms > parent.end_ms + tol_ms {
                return Err(format!(
                    "span {} [{}, {}] ({}) escapes parent {} [{}, {}] ({})",
                    child.id,
                    child.start_ms,
                    child.end_ms,
                    child.name,
                    parent.id,
                    parent.start_ms,
                    parent.end_ms,
                    parent.name,
                ));
            }
        }
        // Cycle check: walk each parent chain with a step bound.
        for s in &self.spans {
            let mut cursor = s.parent;
            let mut steps = 0usize;
            while let Some(p) = cursor {
                if p == s.id {
                    return Err(format!("span {} is in a parent cycle", s.id));
                }
                steps += 1;
                if steps > self.spans.len() {
                    return Err(format!("parent chain of span {} does not terminate", s.id));
                }
                cursor = self.span(p).and_then(|ps| ps.parent);
            }
        }
        Ok(())
    }

    /// Serialize as JSON Lines (see [`export::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }

    /// Serialize the metrics as Prometheus text (see
    /// [`export::to_prometheus`]).
    pub fn to_prometheus(&self) -> String {
        export::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing() {
        let t = Telemetry::new(TelemetryLevel::Off);
        t.counter_add("a", 1);
        t.gauge_set("b", 2.0);
        t.observe("c", 3.0);
        t.event("e", &[]);
        {
            let mut s = t.span("root");
            assert_eq!(s.id(), None);
            s.attr("k", 1.0);
        }
        let snap = t.snapshot();
        assert!(snap.metrics.counters.is_empty());
        assert!(snap.metrics.gauges.is_empty());
        assert!(snap.metrics.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn basic_records_metrics_but_not_spans() {
        let t = Telemetry::new(TelemetryLevel::Basic);
        t.counter_add("queries", 2);
        t.observe("lat", 5.0);
        t.event("e", &[]);
        let _s = t.span("root");
        drop(_s);
        let snap = t.snapshot();
        assert_eq!(snap.metrics.counter("queries"), Some(2));
        assert_eq!(snap.metrics.histogram("lat").unwrap().count, 1);
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn spans_nest_ambiently_within_one_sink() {
        let t = Telemetry::new(TelemetryLevel::Full);
        {
            let root = t.span("query");
            let root_id = root.id().unwrap();
            {
                let stage = t.span("stage.launch");
                assert_ne!(stage.id(), Some(root_id));
                {
                    let inner = t.span("stage.launch.chunk");
                    drop(inner);
                }
            }
            let sibling = t.span("stage.gather");
            drop(sibling);
            drop(root);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 4);
        let root = snap.spans_named("query").next().unwrap();
        assert_eq!(root.parent, None);
        let launch = snap.spans_named("stage.launch").next().unwrap();
        let gather = snap.spans_named("stage.gather").next().unwrap();
        let chunk = snap.spans_named("stage.launch.chunk").next().unwrap();
        assert_eq!(launch.parent, Some(root.id));
        assert_eq!(gather.parent, Some(root.id));
        assert_eq!(chunk.parent, Some(launch.id));
        snap.check_nesting(1e-6).unwrap();
        assert_eq!(snap.roots().len(), 1);
        assert_eq!(snap.subtree(root.id).len(), 4);
    }

    #[test]
    fn distinct_sinks_do_not_cross_parent() {
        let a = Telemetry::new(TelemetryLevel::Full);
        let b = Telemetry::new(TelemetryLevel::Full);
        let root_a = a.span("a.root");
        let span_b = b.span("b.root");
        assert_eq!(
            b.snapshot().spans.len(),
            0,
            "b.root still live, nothing recorded yet"
        );
        drop(span_b);
        drop(root_a);
        let snap_b = b.snapshot();
        assert_eq!(snap_b.spans[0].parent, None, "no cross-sink parenting");
    }

    #[test]
    fn scoped_and_suppressed_drive_current() {
        // The global sink defaults to Off in tests (RTNN_TELEMETRY unset),
        // so bare current() is None.
        let t = Telemetry::new(TelemetryLevel::Full);
        Telemetry::scoped(&t, || {
            let current = Telemetry::current().expect("scoped sink is current");
            assert!(Arc::ptr_eq(&current, &t));
            Telemetry::suppressed(|| {
                assert!(Telemetry::current().is_none());
            });
            assert!(Telemetry::current().is_some());
        });
        // Detached code sees no frame at all: the global fallback, and no
        // ambient span parent; the frames come back afterwards, also on
        // panic.
        Telemetry::scoped(&t, || {
            let _span = t.span("outer");
            Telemetry::detached(|| {
                assert!(Telemetry::current().is_none());
                let inner = Telemetry::scoped(&t, || t.span("inner").id()).expect("spans on");
                let snap = t.snapshot();
                assert_eq!(snap.span(inner).expect("recorded").parent, None);
            });
            let caught = std::panic::catch_unwind(|| Telemetry::detached(|| panic!("boom")));
            assert!(caught.is_err());
            let current = Telemetry::current().expect("scoped sink is back");
            assert!(Arc::ptr_eq(&current, &t));
        });
        let off = Telemetry::new(TelemetryLevel::Off);
        Telemetry::scoped(&off, || {
            assert!(
                Telemetry::current().is_none(),
                "an Off sink never answers current()"
            );
        });
    }

    #[test]
    fn retro_records_build_connected_trees() {
        let clock = Arc::new(VirtualClock::new());
        let t = Telemetry::with_clock(TelemetryLevel::Full, clock.clone());
        let request = t.reserve_span_id();
        let tick = t
            .record_span(SpanRecord {
                name: "serve.tick".into(),
                parent: Some(request),
                start_ms: 1.0,
                end_ms: 4.0,
                attrs: vec![("requests".into(), 2.0)],
            })
            .unwrap();
        t.record_span(SpanRecord {
            name: "serve.shard".into(),
            parent: Some(tick),
            start_ms: 1.0,
            end_ms: 3.0,
            attrs: vec![],
        })
        .unwrap();
        clock.set_ms(5.0);
        t.record_span_with_id(
            request,
            SpanRecord {
                name: "serve.request".into(),
                parent: None,
                start_ms: 0.0,
                end_ms: 5.0,
                attrs: vec![],
            },
        );
        let snap = t.snapshot();
        snap.check_nesting(0.0).unwrap();
        let root = snap.spans_named("serve.request").next().unwrap();
        assert_eq!(root.id, request);
        assert_eq!(snap.subtree(request).len(), 3);
        assert_eq!(snap.children_of(tick).len(), 1);
    }

    #[test]
    fn virtual_clock_snapshots_are_bit_deterministic() {
        let run = || {
            let clock = Arc::new(VirtualClock::new());
            let t = Telemetry::with_clock(TelemetryLevel::Full, clock.clone());
            t.counter_add("ticks", 3);
            t.observe("lat", 2.5);
            clock.set_ms(1.0);
            {
                let mut s = t.span("tick");
                s.attr("n", 1.0);
                s.attr_wall("host_ms", std::time::Instant::now().elapsed().as_secs_f64());
                clock.set_ms(2.0);
            }
            t.event("departure", &[("req", 1.0)]);
            t.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same schedule, same snapshot");
        assert!(a.deterministic);
        assert!(
            a.spans[0].attr("host_ms").is_none(),
            "wall attrs are dropped on virtual clocks"
        );
        assert_eq!(a.spans[0].attr("n"), Some(1.0));
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn ring_overflow_keeps_recent_spans_and_counts_drops() {
        let t =
            Telemetry::with_capacities(TelemetryLevel::Full, Arc::new(MonotonicClock::new()), 4, 2);
        for i in 0..6 {
            let mut s = t.span("s");
            s.attr("i", i as f64);
            drop(s);
            t.event("e", &[("i", i as f64)]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped_spans, 2);
        assert_eq!(snap.spans[0].attr("i"), Some(2.0));
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped_events, 4);
    }

    #[test]
    fn snapshot_exports_parse_back() {
        let t = Telemetry::new(TelemetryLevel::Full);
        t.counter_add("index.queries", 4);
        t.gauge_set("serve.queue_depth", 2.0);
        for v in [1.0, 2.0, 100.0] {
            t.observe("serve.latency.ms", v);
        }
        {
            let mut s = t.span("serve.request");
            s.attr("points", 64.0);
        }
        t.event("serve.enqueue", &[("depth", 1.0)]);
        let snap = t.snapshot();
        verify_jsonl_roundtrip(&snap).unwrap();
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE rtnn_index_queries counter"));
        assert!(prom.contains("rtnn_serve_queue_depth 2"));
        assert!(prom.contains("rtnn_serve_latency_ms_count 3"));
        assert!(prom.contains("rtnn_serve_latency_ms_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("quantile=\"0.999\""));
    }

    #[test]
    fn profiler_rides_the_level_gate() {
        let sample = ProfileSample {
            plan_kind: "knn",
            points: 4096,
            backend: "gpusim",
            queries: 8,
            stages: &[("Launch", 2.0)],
        };
        // No profiler attached: recording is a no-op.
        let t = Telemetry::new(TelemetryLevel::Full);
        assert!(!t.profiler_enabled());
        t.profile(&sample);
        assert_eq!(t.profile_snapshot(), None);
        // Attached on an Off sink: still gated off.
        let off = Telemetry::new(TelemetryLevel::Off);
        off.enable_profiler(SignatureProfiler::default());
        assert!(!off.profiler_enabled());
        off.profile(&sample);
        assert!(off.profile_snapshot().unwrap().is_empty());
        // Attached on a recording sink: samples fold in.
        t.enable_profiler(SignatureProfiler::default());
        assert!(t.profiler_enabled());
        t.profile(&sample);
        t.profile(&sample);
        let snap = t.profile_snapshot().unwrap();
        assert_eq!(snap.lookup("knn", 4096, "gpusim").unwrap().executions, 2);
    }

    #[test]
    fn span_guard_is_resilient_to_out_of_order_drops() {
        let t = Telemetry::new(TelemetryLevel::Full);
        let a = t.span("a");
        let b = t.span("b");
        drop(a);
        let c = t.span("c");
        drop(c);
        drop(b);
        let snap = t.snapshot();
        // c was opened while b was still the innermost live span.
        let b_span = snap.spans_named("b").next().unwrap();
        let c_span = snap.spans_named("c").next().unwrap();
        assert_eq!(c_span.parent, Some(b_span.id));
    }
}
