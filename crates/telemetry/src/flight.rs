//! SLO flight recorder: a bounded ring of recent request traces plus a
//! rolling-window latency monitor that pins exemplars when a target is
//! breached.
//!
//! The serving layer records one [`RequestTrace`] per answered request —
//! its latency, the per-stage device breakdown of the tick that served it,
//! and the shard [`skew`](RequestTrace::shard_skew) of that tick. The
//! [`FlightRecorder`] keeps the most recent traces in a ring buffer (the
//! "flight recorder" proper) and feeds every latency into an embedded
//! [`SloMonitor`]. When the monitored quantile of the rolling window
//! crosses the target, the recorder emits a typed [`SloEvent::Breach`] and
//! **pins** the worst trace in the window as an exemplar, so a p99 spike
//! is attributable after the fact to Schedule/Partition/Launch/Gather or a
//! hot shard — without keeping every trace forever.
//!
//! Everything here is plain deterministic bookkeeping over values the
//! caller supplies: driven from a virtual-time replay, two identical runs
//! produce identical events and pin identical exemplars (pinned by the
//! serve load harness's determinism suite).

use std::collections::VecDeque;

use crate::export::{json_escape, json_f64};
use crate::metrics::percentile;
use crate::span::RingBuffer;

/// Default capacity of the recent-trace ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;
/// Most exemplars a recorder pins before dropping new ones (breach storms
/// must not grow memory without bound).
pub const MAX_PINNED: usize = 64;

/// One served request, as the flight recorder keeps it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Request span name (`serve.request.knn` / `.range` / `.batch`).
    pub name: String,
    /// Sojourn latency in milliseconds (virtual milliseconds in the load
    /// harness, wall milliseconds on the live service).
    pub latency_ms: f64,
    /// Completion timestamp on the service clock, in milliseconds.
    pub end_ms: f64,
    /// Queries in the request.
    pub queries: u64,
    /// Requests fused into the tick that served this one.
    pub tick_requests: u64,
    /// Per-stage `(label, device_ms)` breakdown of the serving tick, in
    /// pipeline order (empty when the executor reported no trace).
    pub stage_device_ms: Vec<(String, f64)>,
    /// `ShardTiming::skew` of the serving tick (from `rtnn-serve`):
    /// critical path over ideal parallel time, 1.0 when perfectly
    /// balanced, 0.0 when unsharded.
    pub shard_skew: f64,
}

impl RequestTrace {
    /// The stage with the largest device charge, if any stage charged
    /// anything — the first answer to "where did the time go?".
    pub fn dominant_stage(&self) -> Option<(&str, f64)> {
        self.stage_device_ms
            .iter()
            .filter(|(_, ms)| *ms > 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite stage charges"))
            .map(|(name, ms)| (name.as_str(), *ms))
    }

    fn jsonl_line(&self, kind: &str) -> String {
        use std::fmt::Write as _;
        let mut stages = String::from("[");
        for (i, (label, ms)) in self.stage_device_ms.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            let _ = write!(stages, "[\"{}\",{}]", json_escape(label), json_f64(*ms));
        }
        stages.push(']');
        format!(
            "{{\"type\":\"{kind}\",\"name\":\"{}\",\"latency_ms\":{},\"end_ms\":{},\"queries\":{},\"tick_requests\":{},\"shard_skew\":{},\"stage_device_ms\":{}}}",
            json_escape(&self.name),
            json_f64(self.latency_ms),
            json_f64(self.end_ms),
            self.queries,
            self.tick_requests,
            json_f64(self.shard_skew),
            stages,
        )
    }
}

/// A rolling-window latency target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// The watched quantile (e.g. `0.99`).
    pub quantile: f64,
    /// The target for that quantile, in milliseconds.
    pub target_ms: f64,
    /// Rolling window length, in requests.
    pub window: usize,
    /// Don't judge until the window holds at least this many samples (a
    /// one-request "p99" is noise, not a breach).
    pub min_samples: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            quantile: 0.99,
            target_ms: 10.0,
            window: 128,
            min_samples: 16,
        }
    }
}

impl SloConfig {
    /// A p99 target of `target_ms` with default window sizing.
    pub fn p99(target_ms: f64) -> Self {
        SloConfig {
            target_ms,
            ..SloConfig::default()
        }
    }
}

/// What one observation did to the monitor's breach state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SloTransition {
    Breached { observed_ms: f64 },
    Recovered { observed_ms: f64 },
}

/// Watches a rolling window of latencies against an [`SloConfig`] and
/// reports under→over / over→under transitions.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    config: SloConfig,
    window: VecDeque<f64>,
    breached: bool,
}

impl SloMonitor {
    /// A monitor on `config`, initially un-breached with an empty window.
    pub fn new(config: SloConfig) -> Self {
        SloMonitor {
            config,
            window: VecDeque::with_capacity(config.window.max(1)),
            breached: false,
        }
    }

    /// The monitored target.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// True while the watched quantile is over target.
    pub fn is_breached(&self) -> bool {
        self.breached
    }

    /// The watched quantile over the current window (0 while empty).
    pub fn observed_ms(&self) -> f64 {
        let samples: Vec<f64> = self.window.iter().copied().collect();
        percentile(&samples, self.config.quantile)
    }

    /// Samples currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    fn observe(&mut self, latency_ms: f64) -> Option<SloTransition> {
        if self.window.len() == self.config.window.max(1) {
            self.window.pop_front();
        }
        self.window.push_back(latency_ms);
        if self.window.len() < self.config.min_samples.max(1) {
            return None;
        }
        let observed_ms = self.observed_ms();
        let over = observed_ms > self.config.target_ms;
        match (self.breached, over) {
            (false, true) => {
                self.breached = true;
                Some(SloTransition::Breached { observed_ms })
            }
            (true, false) => {
                self.breached = false;
                Some(SloTransition::Recovered { observed_ms })
            }
            _ => None,
        }
    }
}

/// A typed SLO transition, emitted by the recorder in observation order.
#[derive(Debug, Clone, PartialEq)]
pub enum SloEvent {
    /// The watched quantile crossed over the target.
    Breach {
        /// Service-clock timestamp of the request that tipped the window.
        at_ms: f64,
        /// The quantile's value over the window at the breach.
        observed_ms: f64,
        /// The configured target.
        target_ms: f64,
        /// The watched quantile.
        quantile: f64,
        /// Samples in the window when judged.
        window_len: usize,
        /// Index into [`FlightRecorder::pinned`] of the exemplar pinned
        /// for this breach (`None` once [`MAX_PINNED`] is reached).
        exemplar: Option<usize>,
    },
    /// The watched quantile came back under the target.
    Recover {
        /// Service-clock timestamp of the request that restored the window.
        at_ms: f64,
        /// The quantile's value over the window at recovery.
        observed_ms: f64,
        /// The configured target.
        target_ms: f64,
        /// The watched quantile.
        quantile: f64,
    },
}

impl SloEvent {
    fn jsonl_line(&self) -> String {
        match self {
            SloEvent::Breach {
                at_ms,
                observed_ms,
                target_ms,
                quantile,
                window_len,
                exemplar,
            } => format!(
                "{{\"type\":\"slo_breach\",\"at_ms\":{},\"observed_ms\":{},\"target_ms\":{},\"quantile\":{},\"window_len\":{window_len},\"exemplar\":{}}}",
                json_f64(*at_ms),
                json_f64(*observed_ms),
                json_f64(*target_ms),
                json_f64(*quantile),
                exemplar.map_or("null".to_string(), |i| i.to_string()),
            ),
            SloEvent::Recover {
                at_ms,
                observed_ms,
                target_ms,
                quantile,
            } => format!(
                "{{\"type\":\"slo_recover\",\"at_ms\":{},\"observed_ms\":{},\"target_ms\":{},\"quantile\":{}}}",
                json_f64(*at_ms),
                json_f64(*observed_ms),
                json_f64(*target_ms),
                json_f64(*quantile),
            ),
        }
    }
}

/// An exemplar pinned at a breach: the worst trace in the breaching window,
/// kept past ring eviction.
#[derive(Debug, Clone, PartialEq)]
pub struct PinnedExemplar {
    /// Index into [`FlightRecorder::events`] of the breach that pinned it.
    pub event: usize,
    /// The pinned trace.
    pub trace: RequestTrace,
}

/// The flight recorder: recent-trace ring + SLO monitor + pinned exemplars.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: RingBuffer<RequestTrace>,
    monitor: Option<SloMonitor>,
    events: Vec<SloEvent>,
    pinned: Vec<PinnedExemplar>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent traces, with no SLO
    /// monitor (pure flight recording).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: RingBuffer::new(capacity),
            monitor: None,
            events: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// A recorder that also watches `slo` and pins exemplars on breach.
    pub fn with_slo(capacity: usize, slo: SloConfig) -> Self {
        let mut recorder = Self::new(capacity);
        recorder.monitor = Some(SloMonitor::new(slo));
        recorder
    }

    /// Record one served request: push it into the ring and feed its
    /// latency to the monitor; on an under→over transition, emit a
    /// [`SloEvent::Breach`] and pin the worst trace in the breaching
    /// window (ties broken toward the earliest, so replays pin
    /// deterministically).
    pub fn record(&mut self, trace: RequestTrace) {
        let (at_ms, latency_ms) = (trace.end_ms, trace.latency_ms);
        self.ring.push(trace);
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        match monitor.observe(latency_ms) {
            Some(SloTransition::Breached { observed_ms }) => {
                let window_len = monitor.window_len();
                let config = *monitor.config();
                let exemplar = self.pin_worst_of_window(window_len);
                self.events.push(SloEvent::Breach {
                    at_ms,
                    observed_ms,
                    target_ms: config.target_ms,
                    quantile: config.quantile,
                    window_len,
                    exemplar,
                });
            }
            Some(SloTransition::Recovered { observed_ms }) => {
                let config = *monitor.config();
                self.events.push(SloEvent::Recover {
                    at_ms,
                    observed_ms,
                    target_ms: config.target_ms,
                    quantile: config.quantile,
                });
            }
            None => {}
        }
    }

    /// Pin the worst-latency trace among the last `window_len` ring
    /// entries (the monitor window, as far as the ring still holds it).
    fn pin_worst_of_window(&mut self, window_len: usize) -> Option<usize> {
        if self.pinned.len() >= MAX_PINNED {
            return None;
        }
        let start = self.ring.len().saturating_sub(window_len);
        let worst = self
            .ring
            .iter()
            .skip(start)
            // Strict > keeps the earliest of equal-latency traces.
            .fold(None::<&RequestTrace>, |best, t| match best {
                Some(b) if t.latency_ms > b.latency_ms => Some(t),
                None => Some(t),
                keep => keep,
            })?
            .clone();
        self.pinned.push(PinnedExemplar {
            event: self.events.len(),
            trace: worst,
        });
        Some(self.pinned.len() - 1)
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &RequestTrace> {
        self.ring.iter()
    }

    /// Traces evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// SLO transitions, in observation order.
    pub fn events(&self) -> &[SloEvent] {
        &self.events
    }

    /// Exemplars pinned at breaches, in breach order.
    pub fn pinned(&self) -> &[PinnedExemplar] {
        &self.pinned
    }

    /// The embedded monitor, if one was configured.
    pub fn monitor(&self) -> Option<&SloMonitor> {
        self.monitor.as_ref()
    }

    /// Serialize as JSON Lines: one `flight_meta` record, then every SLO
    /// event, pinned exemplar and retained trace, in order. Parses back
    /// with [`parse_jsonl`](crate::parse_jsonl).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"flight_meta\",\"capacity\":{},\"retained\":{},\"dropped\":{},\"events\":{},\"pinned\":{}}}",
            self.ring.capacity(),
            self.ring.len(),
            self.ring.dropped(),
            self.events.len(),
            self.pinned.len(),
        );
        for event in &self.events {
            let _ = writeln!(out, "{}", event.jsonl_line());
        }
        for pin in &self.pinned {
            let _ = writeln!(
                out,
                "{{\"type\":\"exemplar\",\"event\":{},\"trace\":{}}}",
                pin.event,
                pin.trace.jsonl_line("trace"),
            );
        }
        for trace in self.ring.iter() {
            let _ = writeln!(out, "{}", trace.jsonl_line("trace"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(latency_ms: f64, end_ms: f64) -> RequestTrace {
        RequestTrace {
            name: "serve.request.knn".into(),
            latency_ms,
            end_ms,
            queries: 8,
            tick_requests: 2,
            stage_device_ms: vec![
                ("Partition".into(), 0.2),
                ("Schedule".into(), 0.1),
                ("Launch".into(), latency_ms / 2.0),
                ("Gather".into(), 0.0),
            ],
            shard_skew: 1.25,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(trace(1.0, i as f64));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let ends: Vec<f64> = rec.recent().map(|t| t.end_ms).collect();
        assert_eq!(ends, vec![2.0, 3.0, 4.0]);
        assert!(rec.events().is_empty(), "no monitor, no events");
    }

    #[test]
    fn breach_pins_the_worst_trace_and_recovery_is_reported() {
        let slo = SloConfig {
            quantile: 0.99,
            target_ms: 5.0,
            window: 8,
            min_samples: 4,
        };
        let mut rec = FlightRecorder::with_slo(32, slo);
        for i in 0..6 {
            rec.record(trace(1.0, i as f64));
        }
        assert!(rec.events().is_empty());
        rec.record(trace(40.0, 6.0)); // tips the window p99
        assert_eq!(rec.events().len(), 1);
        let SloEvent::Breach {
            observed_ms,
            exemplar,
            window_len,
            ..
        } = &rec.events()[0]
        else {
            panic!("breach expected");
        };
        assert_eq!(*observed_ms, 40.0);
        assert_eq!(*window_len, 7);
        let pin = &rec.pinned()[exemplar.unwrap()];
        assert_eq!(pin.trace.latency_ms, 40.0);
        assert_eq!(pin.trace.dominant_stage().unwrap().0, "Launch");
        assert!(rec.monitor().unwrap().is_breached());
        // The slow sample ages out of the window: recovery.
        for i in 7..16 {
            rec.record(trace(1.0, i as f64));
        }
        assert_eq!(rec.events().len(), 2);
        assert!(matches!(rec.events()[1], SloEvent::Recover { .. }));
        assert!(!rec.monitor().unwrap().is_breached());
        assert_eq!(rec.pinned().len(), 1, "recovery pins nothing");
    }

    #[test]
    fn identical_streams_pin_identical_exemplars() {
        let run = || {
            let slo = SloConfig {
                quantile: 0.99,
                target_ms: 2.0,
                window: 8,
                min_samples: 4,
            };
            let mut rec = FlightRecorder::with_slo(16, slo);
            let latencies = [1.0, 1.5, 1.0, 8.0, 8.0, 1.0, 1.2, 9.0, 1.0, 1.1];
            for (i, l) in latencies.iter().enumerate() {
                rec.record(trace(*l, i as f64));
            }
            rec
        };
        let a = run();
        let b = run();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.pinned(), b.pinned());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(!a.pinned().is_empty());
        // Equal-latency worst traces pin the *earliest* one.
        assert_eq!(a.pinned()[0].trace.end_ms, 3.0);
    }

    #[test]
    fn min_samples_gates_judgement() {
        let slo = SloConfig {
            quantile: 0.5,
            target_ms: 0.5,
            window: 8,
            min_samples: 5,
        };
        let mut rec = FlightRecorder::with_slo(8, slo);
        for i in 0..4 {
            rec.record(trace(100.0, i as f64));
        }
        assert!(rec.events().is_empty(), "window not yet judged");
        rec.record(trace(100.0, 4.0));
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn pinning_is_capped() {
        // Nearest-rank p90 of a 2-sample window is its max, so one over
        // tips it and two unders flush it.
        let slo = SloConfig {
            quantile: 0.9,
            target_ms: 1.0,
            window: 2,
            min_samples: 1,
        };
        let mut rec = FlightRecorder::with_slo(4, slo);
        // One over then two unders per cycle: the over tips the 2-sample
        // window's median, the two unders flush it back — every cycle is a
        // fresh breach + recovery.
        for i in 0..(MAX_PINNED as u32 + 10) {
            rec.record(trace(5.0, (3 * i) as f64));
            rec.record(trace(0.1, (3 * i + 1) as f64));
            rec.record(trace(0.1, (3 * i + 2) as f64));
        }
        assert_eq!(rec.pinned().len(), MAX_PINNED);
        let unpinned_breaches = rec
            .events()
            .iter()
            .filter(|e| matches!(e, SloEvent::Breach { exemplar: None, .. }))
            .count();
        assert!(unpinned_breaches >= 10, "later breaches stop pinning");
    }

    #[test]
    fn jsonl_parses_back() {
        let slo = SloConfig {
            quantile: 0.99,
            target_ms: 1.0,
            window: 8,
            min_samples: 4,
        };
        let mut rec = FlightRecorder::with_slo(8, slo);
        for i in 0..10 {
            rec.record(trace(3.0, i as f64));
        }
        let jsonl = rec.to_jsonl();
        let parsed = crate::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed[0].get("type").unwrap().as_str(), Some("flight_meta"));
        let meta = |key: &str| parsed[0].get(key).and_then(|v| v.as_f64());
        assert_eq!(meta("capacity"), Some(8.0));
        assert_eq!(meta("retained"), Some(8.0));
        assert_eq!(meta("dropped"), Some(2.0));
        assert!(parsed
            .iter()
            .any(|r| r.get("type").and_then(|t| t.as_str()) == Some("slo_breach")));
        assert!(parsed
            .iter()
            .any(|r| r.get("type").and_then(|t| t.as_str()) == Some("exemplar")));
    }
}
