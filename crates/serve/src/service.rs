//! The live multi-threaded query service: a channel-based client handle,
//! a dispatcher that coalesces whatever is in flight within a bounded
//! window, and per-request / per-tick statistics.
//!
//! ## Threading model
//!
//! The dispatcher runs wherever [`QueryService::run`] is called and *owns*
//! the executor (an `Index` or [`ShardedIndex`](crate::ShardedIndex)) for
//! the duration of the run — clients never touch the index, they only talk
//! to the [`ServiceClient`] over a channel, so any number of client
//! threads can submit concurrently. A sharded executor additionally fans
//! each tick out over the `rtnn-parallel` worker pool. The service drains
//! and exits when every client handle has been dropped.
//!
//! ```
//! use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
//! use rtnn_gpusim::Device;
//! use rtnn_math::Vec3;
//! use rtnn_serve::{QueryService, Request, ServeConfig};
//!
//! let device = Device::rtx_2080();
//! let backend = GpusimBackend::new(&device);
//! let points: Vec<Vec3> = (0..500)
//!     .map(|i| Vec3::new((i % 8) as f32, ((i / 8) % 8) as f32, (i / 64) as f32))
//!     .collect();
//! let queries = points[..16].to_vec();
//! let mut index = Index::build(&backend, &points[..], EngineConfig::default());
//!
//! let (service, client) = QueryService::new(ServeConfig::default());
//! let stats = std::thread::scope(|s| {
//!     s.spawn(move || {
//!         let pending = client.submit(Request::new(queries, QueryPlan::knn(1.5, 4)));
//!         let response = pending.wait();
//!         assert_eq!(response.neighbors().len(), 16);
//!         // client handle drops here -> the service drains and exits
//!     });
//!     service.run(&mut index)
//! });
//! assert_eq!(stats.requests, 1);
//! ```

use crate::coalesce::{execute_tick_tuned, TickExecutor};
use crate::config::ServeConfig;
use crate::request::{Request, RequestStats, Response};
use crate::stats::ServiceStats;
use rtnn::AutoTuner;
use rtnn_telemetry::{
    FlightRecorder, RequestTrace, SpanId, SpanRecord, Telemetry, TelemetrySnapshot,
};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One in-flight request plus its reply channel.
struct Envelope {
    request: Request,
    submitted: Instant,
    reply: mpsc::Sender<Response>,
    /// Pre-reserved id of the request's telemetry span (`None` when spans
    /// are disabled); the dispatcher records it once the reply is sent.
    span_id: Option<SpanId>,
    /// Submission instant on the telemetry clock, for the span interval.
    submitted_ms: f64,
}

/// A cloneable client handle: submit requests, receive responses.
#[derive(Clone)]
pub struct ServiceClient {
    tx: mpsc::Sender<Envelope>,
    telemetry: Arc<Telemetry>,
}

/// A response that has not arrived yet (returned by
/// [`ServiceClient::submit`]).
pub struct PendingResponse {
    rx: mpsc::Receiver<Response>,
}

impl PendingResponse {
    /// Block until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the request without responding (it
    /// stopped running before the request's tick).
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("the query service stopped before responding")
    }
}

impl ServiceClient {
    /// Enqueue `request`; the returned handle yields the [`Response`].
    ///
    /// # Panics
    ///
    /// Panics if the service is no longer running.
    pub fn submit(&self, request: Request) -> PendingResponse {
        let (reply, rx) = mpsc::channel();
        let (span_id, submitted_ms) = if self.telemetry.spans_enabled() {
            (
                Some(self.telemetry.reserve_span_id()),
                self.telemetry.now_ms(),
            )
        } else {
            (None, 0.0)
        };
        self.tx
            .send(Envelope {
                request,
                submitted: Instant::now(),
                reply,
                span_id,
                submitted_ms,
            })
            .expect("the query service is no longer running");
        PendingResponse { rx }
    }

    /// Submit and wait in one call.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// The telemetry sink the service records to.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Freeze the service's telemetry: serving metrics (queue-depth /
    /// window gauges, per-plan-kind `serve.latency.*` histograms with
    /// exact p50/p99/p999) plus, at level `full`, the completed span trees
    /// — one `serve.request.*` root per request, its `serve.tick` child,
    /// and the executor's pipeline spans beneath. Valid mid-run: clients
    /// can snapshot while the dispatcher is serving.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }
}

/// The dispatcher half of the service (see module docs).
pub struct QueryService {
    rx: mpsc::Receiver<Envelope>,
    config: ServeConfig,
    telemetry: Arc<Telemetry>,
    /// Optional SLO flight recorder: every served request lands in its ring
    /// with the tick's stage breakdown and shard skew, and SLO breaches pin
    /// the worst exemplar in the window (see
    /// [`FlightRecorder`](rtnn_telemetry::FlightRecorder)).
    flight: Option<Arc<Mutex<FlightRecorder>>>,
    /// Optional adaptive stage tuner: when attached, every coalesced tick
    /// takes **one** tuning decision for its fused batch (recorded on the
    /// tick's [`TickOutcome`](crate::TickOutcome)) and folds the tick's
    /// measured stage timings back in. Shared via `Arc<Mutex<..>>` so the
    /// caller can inspect [`AutoTuner::report`] after (or during) the run.
    tuner: Option<Arc<Mutex<AutoTuner>>>,
}

impl QueryService {
    /// A service with its first client handle (clone the handle for more
    /// clients; the service exits once all handles are dropped). Records to
    /// the process-wide [`Telemetry::global`] sink (the `RTNN_TELEMETRY`
    /// knob); use [`QueryService::with_telemetry`] to capture a run on a
    /// private sink instead.
    pub fn new(config: ServeConfig) -> (QueryService, ServiceClient) {
        Self::with_telemetry(config, Telemetry::global().clone())
    }

    /// A service recording to an explicit telemetry sink — every request
    /// span, tick span, gauge and latency histogram of this run lands
    /// there, retrievable via [`ServiceClient::telemetry_snapshot`].
    pub fn with_telemetry(
        config: ServeConfig,
        telemetry: Arc<Telemetry>,
    ) -> (QueryService, ServiceClient) {
        let (tx, rx) = mpsc::channel();
        (
            QueryService {
                rx,
                config,
                telemetry: telemetry.clone(),
                flight: None,
                tuner: None,
            },
            ServiceClient { tx, telemetry },
        )
    }

    /// Attach an SLO flight recorder: the dispatcher records one
    /// [`RequestTrace`] per served request
    /// (latency, tick stage breakdown, shard skew), and — when the recorder
    /// carries an [`SloMonitor`](rtnn_telemetry::SloMonitor) — pins breach
    /// exemplars as they happen. The caller keeps its `Arc` to inspect or
    /// dump the recorder after (or during) the run.
    pub fn with_flight_recorder(mut self, recorder: Arc<Mutex<FlightRecorder>>) -> QueryService {
        self.flight = Some(recorder);
        self
    }

    /// Attach an adaptive stage tuner: each coalesced tick consults it
    /// once — one decision per fused batch, keyed on the executed plan's
    /// kind, the executor's density and backend — executes under the
    /// decided [`rtnn::StageOverrides`], and reports the measured stage
    /// timings back. Decisions ride on every tick's
    /// [`TickOutcome::tuned`](crate::TickOutcome::tuned). Tuning never
    /// changes responses: every request stays bit-equal to its untuned
    /// execution. The caller keeps its `Arc` to read
    /// [`AutoTuner::report`] afterwards.
    pub fn with_auto_tuner(mut self, tuner: Arc<Mutex<AutoTuner>>) -> QueryService {
        self.tuner = Some(tuner);
        self
    }

    /// Run the dispatch loop on the current thread until every client
    /// handle has been dropped and the queue is drained. Returns the run's
    /// statistics (latencies in wall microseconds).
    pub fn run<E: TickExecutor>(self, executor: &mut E) -> ServiceStats {
        let tel = &self.telemetry;
        tel.gauge_set(
            "serve.coalescing_window_us",
            if self.config.coalescing {
                self.config.window_us as f64
            } else {
                0.0
            },
        );
        let mut stats = ServiceStats::default();
        loop {
            // Block for the first request of the tick; a disconnect with an
            // empty queue ends the run.
            let Ok(first) = self.rx.recv() else { break };
            let mut tick: Vec<Envelope> = vec![first];

            if self.config.coalescing {
                // Keep draining whatever lands within the window.
                let deadline = Instant::now() + self.config.window();
                while tick.len() < self.config.max_batch {
                    let now = Instant::now();
                    let Some(remaining) = deadline
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())
                    else {
                        break;
                    };
                    match self.rx.recv_timeout(remaining) {
                        Ok(envelope) => tick.push(envelope),
                        Err(_) => break, // window elapsed or all clients gone
                    }
                }
            }

            tel.gauge_set("serve.queue_depth", tick.len() as f64);
            // Execute inside a `serve.tick` span scoped to this sink, so
            // the executor's own pipeline spans nest under the tick. The
            // tick span parents under the request that opened it; requests
            // that merely joined carry the same tick via their attrs.
            let (outcomes, tick_outcome) = Telemetry::scoped(tel, || {
                let mut tick_span = tel.span_with_parent("serve.tick", tick[0].span_id);
                let requests: Vec<&Request> = tick.iter().map(|e| &e.request).collect();
                let result = match &self.tuner {
                    Some(tuner) => {
                        let mut tuner = tuner.lock().expect("auto tuner lock poisoned");
                        execute_tick_tuned(executor, &requests, Some(&mut tuner))
                    }
                    None => execute_tick_tuned(executor, &requests, None),
                };
                tick_span
                    .attr("requests", tick.len() as f64)
                    .attr("queries", result.1.queries as f64)
                    .attr("sim_ms", result.1.sim_ms);
                if let Some(d) = result.1.tuned {
                    tick_span.attr("tuned_level", d.level as usize as f64);
                }
                result
            });
            let tick_requests = tick.len();
            let tick_skew = executor.last_shard_skew();
            tel.counter_add("serve.ticks", 1);
            tel.counter_add("serve.requests", tick_requests as u64);
            stats.record_tick(tick_requests, tick_outcome.queries, tick_outcome.sim_ms);

            for (envelope, outcome) in tick.into_iter().zip(outcomes) {
                let latency_us = envelope.submitted.elapsed().as_secs_f64() * 1e6;
                stats.record_latency(latency_us);
                tel.observe(envelope.request.latency_histogram(), latency_us);
                if let Some(flight) = &self.flight {
                    // The recorder speaks milliseconds; the service's wall
                    // latencies are microseconds.
                    flight
                        .lock()
                        .expect("flight recorder lock poisoned")
                        .record(RequestTrace {
                            name: envelope.request.span_name().to_string(),
                            latency_ms: latency_us / 1e3,
                            end_ms: tel.now_ms(),
                            queries: envelope.request.queries.len() as u64,
                            tick_requests: tick_requests as u64,
                            stage_device_ms: tick_outcome
                                .stage_device_ms
                                .iter()
                                .filter(|(label, _)| !label.is_empty())
                                .map(|(label, ms)| (label.to_string(), *ms))
                                .collect(),
                            shard_skew: tick_skew,
                        });
                }
                if let Some(id) = envelope.span_id {
                    // Recorded before the reply, so once a client's call
                    // returns its own request span is already in any
                    // snapshot it takes; the interval still covers the
                    // full submit → respond sojourn on the telemetry
                    // clock.
                    tel.record_span_with_id(
                        id,
                        SpanRecord {
                            name: envelope.request.span_name().into(),
                            parent: None,
                            start_ms: envelope.submitted_ms,
                            end_ms: tel.now_ms(),
                            attrs: vec![
                                ("queries".into(), envelope.request.queries.len() as f64),
                                ("latency_us".into(), latency_us),
                                ("tick_requests".into(), tick_requests as f64),
                            ],
                        },
                    );
                }
                // A client that gave up on its response is not an error.
                let _ = envelope.reply.send(Response {
                    outcome,
                    stats: RequestStats {
                        latency_us,
                        tick_requests,
                        tick_sim_ms: tick_outcome.sim_ms,
                    },
                });
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
    use rtnn_gpusim::Device;
    use rtnn_math::Vec3;

    fn cloud(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.713) % 9.0, (f * 0.391) % 9.0, (f * 0.267) % 9.0)
            })
            .collect()
    }

    #[test]
    fn concurrent_clients_get_their_own_bit_equal_responses() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(400);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());

        // Direct (unserved) reference results per request.
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                let queries: Vec<Vec3> = points
                    .iter()
                    .skip(i)
                    .step_by(17)
                    .take(12)
                    .copied()
                    .collect();
                let plan = if i % 2 == 0 {
                    QueryPlan::knn(1.2, 5)
                } else {
                    QueryPlan::range(0.9, 100_000)
                };
                Request::new(queries, plan)
            })
            .collect();
        let mut direct = Index::build(&backend, &points[..], EngineConfig::default());
        let expected: Vec<Vec<Vec<u32>>> = requests
            .iter()
            .map(|r| direct.query(&r.queries, &r.plan).unwrap().neighbors)
            .collect();

        let (service, client) = QueryService::new(ServeConfig::default().with_window_us(2_000));
        let stats = std::thread::scope(|s| {
            for (req, exp) in requests.iter().zip(&expected) {
                let client = client.clone();
                s.spawn(move || {
                    let response = client.call(req.clone());
                    assert_eq!(response.neighbors(), exp);
                    assert!(response.stats.tick_requests >= 1);
                });
            }
            drop(client);
            service.run(&mut index)
        });
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.latencies.len(), 8);
        assert!(stats.sim_ms > 0.0);
        assert!(stats.latency_percentile(0.99) >= stats.latency_percentile(0.5));
    }

    #[test]
    fn coalescing_off_serves_one_request_per_tick() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(200);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let queries = points[..8].to_vec();
        let (service, client) = QueryService::new(ServeConfig::default().without_coalescing());
        let stats = std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..5 {
                    let r = client.call(Request::new(queries.clone(), QueryPlan::knn(1.0, 3)));
                    assert!(r.outcome.is_ok());
                    assert_eq!(r.stats.tick_requests, 1);
                }
            });
            service.run(&mut index)
        });
        assert_eq!(stats.ticks, 5);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.coalesced_requests, 0);
        assert_eq!(stats.max_tick_requests, 1);
    }

    #[test]
    fn one_request_yields_a_connected_span_tree() {
        use rtnn_telemetry::TelemetryLevel;
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(300);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let queries = points[..8].to_vec();
        let sink = Telemetry::new(TelemetryLevel::Full);
        let (service, client) = QueryService::with_telemetry(ServeConfig::default(), sink);
        let snapshot = std::thread::scope(|s| {
            let handle = s.spawn(move || {
                let r = client.call(Request::new(queries, QueryPlan::knn(1.2, 4)));
                assert!(r.outcome.is_ok());
                client.telemetry_snapshot()
            });
            service.run(&mut index);
            handle.join().unwrap()
        });

        // One connected tree: request → tick → the executor's query span
        // → its pipeline stages.
        let roots = snapshot.roots();
        assert_eq!(roots.len(), 1, "roots: {roots:?}");
        let request = roots[0];
        assert_eq!(request.name, "serve.request.knn");
        let ticks = snapshot.children_of(request.id);
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].name, "serve.tick");
        let queries_spans = snapshot.children_of(ticks[0].id);
        assert!(
            queries_spans.iter().any(|s| s.name == "index.query.knn"),
            "tick children: {queries_spans:?}"
        );
        assert_eq!(
            snapshot.subtree(request.id).len(),
            snapshot.spans.len(),
            "every span hangs off the one request"
        );
        snapshot.check_nesting(1e-6).unwrap();
        assert_eq!(
            snapshot
                .metrics
                .histogram("serve.latency.knn")
                .unwrap()
                .count,
            1
        );
        assert_eq!(snapshot.metrics.counter("serve.ticks"), Some(1));
    }

    #[test]
    fn flight_recorder_captures_every_request_and_pins_a_breach() {
        use rtnn_telemetry::{SloConfig, SloEvent};
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(300);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let queries = points[..8].to_vec();
        // A 0 ms target: every wall latency is positive, so the monitor
        // breaches deterministically on its first judged sample.
        let slo = SloConfig {
            quantile: 0.5,
            target_ms: 0.0,
            window: 8,
            min_samples: 1,
        };
        let recorder = Arc::new(Mutex::new(FlightRecorder::with_slo(32, slo)));
        let (service, client) = QueryService::new(ServeConfig::default().without_coalescing());
        let service = service.with_flight_recorder(recorder.clone());
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..5 {
                    let r = client.call(Request::new(queries.clone(), QueryPlan::knn(1.0, 3)));
                    assert!(r.outcome.is_ok());
                }
            });
            service.run(&mut index)
        });

        let flight = recorder.lock().unwrap();
        assert_eq!(flight.len(), 5, "one trace per served request");
        for trace in flight.recent() {
            assert_eq!(trace.name, "serve.request.knn");
            assert!(trace.latency_ms > 0.0);
            assert_eq!(trace.shard_skew, 0.0, "unsharded executor");
            assert!(
                trace
                    .stage_device_ms
                    .iter()
                    .any(|(l, ms)| l == "Launch" && *ms > 0.0),
                "tick stage breakdown rides the trace: {:?}",
                trace.stage_device_ms
            );
        }
        assert!(
            flight
                .events()
                .iter()
                .any(|e| matches!(e, SloEvent::Breach { .. })),
            "0ms target must breach"
        );
        assert!(!flight.pinned().is_empty(), "breach pins an exemplar");
        // At least the meta line plus one line per recorded trace.
        assert!(flight.to_jsonl().lines().count() > 5);
    }

    #[test]
    fn invalid_request_fails_without_stopping_the_service() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = cloud(100);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let queries = points[..4].to_vec();
        let (service, client) = QueryService::new(ServeConfig::default());
        std::thread::scope(|s| {
            s.spawn(move || {
                let bad = client.call(Request::new(queries.clone(), QueryPlan::knn(-1.0, 3)));
                assert!(bad.outcome.is_err());
                let good = client.call(Request::new(queries.clone(), QueryPlan::knn(1.0, 3)));
                assert!(good.outcome.is_ok());
            });
            service.run(&mut index)
        });
    }
}
