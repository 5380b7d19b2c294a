//! Deterministic virtual-time load harness.
//!
//! The live [`QueryService`](crate::QueryService) coalesces on *wall*
//! time, so its batch compositions depend on scheduler jitter — fine for
//! serving, useless for a reproducible experiment. This module replays the
//! same dispatcher policy on a virtual clock: request arrivals are drawn
//! from a seeded exponential process, the coalescing window closes at
//! exact virtual instants, and each tick's cost is the *simulated* device
//! milliseconds the executor reports. Same seed, same executor → the same
//! ticks, latencies and throughput, on any machine. `fig_serve` sweeps
//! offered load through this harness.
//!
//! [`run_virtual_observed`] additionally attaches a private
//! [`Telemetry`] sink on the replay's [`VirtualClock`]: every span and
//! metric is stamped from the replayed schedule (wall-measured values are
//! dropped — see [`Telemetry::is_deterministic`]), so the returned
//! [`TelemetrySnapshot`] is itself bit-reproducible across machines and
//! thread counts.

use crate::coalesce::{execute_tick, TickExecutor, TickOutcome};
use crate::config::ServeConfig;
use crate::request::Request;
use crate::stats::ServiceStats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtnn_telemetry::{
    FlightRecorder, RequestTrace, SpanRecord, Telemetry, TelemetryLevel, TelemetrySnapshot,
    VirtualClock,
};
use std::sync::Arc;

/// The outcome of one virtual-time run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Tick/throughput accounting (latencies in virtual milliseconds).
    pub stats: ServiceStats,
    /// Virtual milliseconds from the first arrival to the last departure.
    pub makespan_ms: f64,
    /// Requests completed per virtual second.
    pub achieved_qps: f64,
    /// Offered request rate (requests per virtual second).
    pub offered_qps: f64,
}

impl LoadReport {
    /// Latency percentile in virtual milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.stats.latencies.percentile(q)
    }
}

/// Poisson-process arrival times (virtual ms) for `n` requests at
/// `offered_qps` requests per virtual second, deterministically from
/// `seed`.
pub fn poisson_arrivals(n: usize, offered_qps: f64, seed: u64) -> Vec<f64> {
    assert!(offered_qps > 0.0, "offered load must be positive");
    let mean_gap_ms = 1e3 / offered_qps;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential; 1-u in (0,1] keeps ln finite.
            let u: f64 = rng.gen();
            t += -mean_gap_ms * (1.0 - u).ln();
            t
        })
        .collect()
}

/// Serve `requests` arriving at `arrivals_ms` (sorted, virtual ms) through
/// `executor` under the dispatcher policy of `config`, on a virtual clock.
///
/// The policy mirrors [`QueryService::run`](crate::QueryService::run): a
/// tick opens when the service is free and a request is waiting, stays
/// open for the coalescing window (batching every request that has arrived
/// by its close, up to `max_batch`) — closing early the moment the batch
/// is full, exactly like the live dispatcher — then executes; the next
/// tick cannot start before the previous one's simulated execution
/// finished. With coalescing off every tick serves exactly one request.
pub fn run_virtual<E: TickExecutor>(
    executor: &mut E,
    requests: &[Request],
    arrivals_ms: &[f64],
    config: &ServeConfig,
) -> LoadReport {
    replay(executor, requests, arrivals_ms, config, None, None)
}

/// [`run_virtual`] with a private telemetry sink on the replay's virtual
/// clock, recording at `level`: per-request spans (`serve.request.*`,
/// interval = arrival → departure), one `serve.tick` span per tick
/// (parented under the request that opened it, enclosing the executor's
/// own pipeline spans), per-plan-kind latency histograms
/// (`serve.latency.*`, virtual milliseconds), and the queue-depth /
/// coalescing-window gauges. Returns the report plus the frozen snapshot —
/// bit-deterministic for a given (requests, arrivals, config, executor).
pub fn run_virtual_observed<E: TickExecutor>(
    executor: &mut E,
    requests: &[Request],
    arrivals_ms: &[f64],
    config: &ServeConfig,
    level: TelemetryLevel,
) -> (LoadReport, TelemetrySnapshot) {
    let clock = Arc::new(VirtualClock::new());
    let telemetry = Telemetry::with_clock(level, clock.clone());
    let report = replay(
        executor,
        requests,
        arrivals_ms,
        config,
        Some(Observer {
            telemetry: &telemetry,
            clock: &clock,
        }),
        None,
    );
    let snapshot = telemetry.snapshot();
    (report, snapshot)
}

/// [`run_virtual_observed`] with an SLO flight recorder riding the replay:
/// every served request lands in `recorder` as a [`RequestTrace`] stamped
/// in virtual milliseconds (latency = arrival → departure, the tick's
/// stage breakdown and shard skew attached), so an attached
/// [`SloMonitor`](rtnn_telemetry::SloMonitor) judges the exact replayed
/// latency sequence. Same (requests, arrivals, config, executor, SLO) →
/// the same breach events and the same pinned exemplar traces, bit for
/// bit, on any machine — the property `tests/telemetry_equivalence.rs`
/// pins.
pub fn run_virtual_recorded<E: TickExecutor>(
    executor: &mut E,
    requests: &[Request],
    arrivals_ms: &[f64],
    config: &ServeConfig,
    level: TelemetryLevel,
    recorder: &mut FlightRecorder,
) -> (LoadReport, TelemetrySnapshot) {
    let clock = Arc::new(VirtualClock::new());
    let telemetry = Telemetry::with_clock(level, clock.clone());
    let report = replay(
        executor,
        requests,
        arrivals_ms,
        config,
        Some(Observer {
            telemetry: &telemetry,
            clock: &clock,
        }),
        Some(recorder),
    );
    let snapshot = telemetry.snapshot();
    (report, snapshot)
}

/// The observed replay's recording context: the sink plus the hand-advanced
/// clock it stamps from.
struct Observer<'a> {
    telemetry: &'a Arc<Telemetry>,
    clock: &'a Arc<VirtualClock>,
}

fn replay<E: TickExecutor>(
    executor: &mut E,
    requests: &[Request],
    arrivals_ms: &[f64],
    config: &ServeConfig,
    observer: Option<Observer<'_>>,
    mut flight: Option<&mut FlightRecorder>,
) -> LoadReport {
    assert_eq!(requests.len(), arrivals_ms.len());
    assert!(
        arrivals_ms.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let window_ms = if config.coalescing {
        config.window_us as f64 / 1e3
    } else {
        0.0
    };
    if let Some(obs) = &observer {
        obs.telemetry.gauge_set(
            "serve.coalescing_window_us",
            if config.coalescing {
                config.window_us as f64
            } else {
                0.0
            },
        );
    }

    let mut stats = ServiceStats::default();
    let mut free_at = 0.0f64;
    let mut last_departure = 0.0f64;
    let mut i = 0;
    while i < requests.len() {
        let open = free_at.max(arrivals_ms[i]);
        let close = open + window_ms;
        let mut j = i + 1;
        if config.coalescing {
            while j < requests.len() && arrivals_ms[j] <= close && j - i < config.max_batch {
                j += 1;
            }
        }
        // The window closes early once the batch is full (the live
        // dispatcher stops draining at max_batch and executes right away);
        // otherwise the tick waits the window out.
        let exec_start = if j - i >= config.max_batch {
            open.max(arrivals_ms[j - 1])
        } else {
            close
        };
        let tick: Vec<&Request> = requests[i..j].iter().collect();
        let outcome = match &observer {
            None => execute_tick(executor, &tick).1,
            Some(obs) => observed_tick(obs, executor, &tick, arrivals_ms, i, j, exec_start),
        };
        let departure = exec_start + outcome.sim_ms;
        stats.record_tick(tick.len(), outcome.queries, outcome.sim_ms);
        for &arrival in &arrivals_ms[i..j] {
            stats.record_latency(departure - arrival);
        }
        if let Some(recorder) = flight.as_deref_mut() {
            let skew = executor.last_shard_skew();
            let stage_device_ms: Vec<(String, f64)> = outcome
                .stage_device_ms
                .iter()
                .filter(|(label, _)| !label.is_empty())
                .map(|(label, ms)| (label.to_string(), *ms))
                .collect();
            for (k, &arrival) in arrivals_ms[i..j].iter().enumerate() {
                recorder.record(RequestTrace {
                    name: requests[i + k].span_name().to_string(),
                    latency_ms: departure - arrival,
                    end_ms: departure,
                    queries: requests[i + k].queries.len() as u64,
                    tick_requests: tick.len() as u64,
                    stage_device_ms: stage_device_ms.clone(),
                    shard_skew: skew,
                });
            }
        }
        free_at = departure;
        last_departure = departure;
        i = j;
    }

    let makespan_ms = (last_departure - arrivals_ms.first().copied().unwrap_or(0.0)).max(0.0);
    let achieved_qps = if makespan_ms > 0.0 {
        requests.len() as f64 / (makespan_ms / 1e3)
    } else {
        0.0
    };
    let offered_qps = if requests.len() > 1 {
        let span_ms = arrivals_ms[requests.len() - 1] - arrivals_ms[0];
        if span_ms > 0.0 {
            (requests.len() - 1) as f64 / (span_ms / 1e3)
        } else {
            f64::INFINITY
        }
    } else {
        0.0
    };
    LoadReport {
        stats,
        makespan_ms,
        achieved_qps,
        offered_qps,
    }
}

/// One tick of the observed replay: advance the virtual clock to the tick's
/// exact schedule instants, run the executor inside a `serve.tick` span (so
/// its pipeline spans nest under the tick on the replay sink), then record
/// each request's span retrospectively over its arrival → departure
/// sojourn.
fn observed_tick<E: TickExecutor>(
    obs: &Observer<'_>,
    executor: &mut E,
    tick: &[&Request],
    arrivals_ms: &[f64],
    i: usize,
    j: usize,
    exec_start: f64,
) -> TickOutcome {
    let tel = obs.telemetry;
    obs.clock.set_ms(exec_start);
    tel.gauge_set("serve.queue_depth", tick.len() as f64);
    let request_ids: Vec<_> = (i..j)
        .map(|_| tel.spans_enabled().then(|| tel.reserve_span_id()))
        .collect();
    let outcome = Telemetry::scoped(tel, || {
        let mut tick_span = tel.span_with_parent("serve.tick", request_ids[0]);
        let (_, outcome) = execute_tick(executor, tick);
        obs.clock.set_ms(exec_start + outcome.sim_ms);
        tick_span
            .attr("requests", tick.len() as f64)
            .attr("queries", outcome.queries as f64)
            .attr("sim_ms", outcome.sim_ms);
        outcome
    });
    tel.counter_add("serve.ticks", 1);
    tel.counter_add("serve.requests", tick.len() as u64);
    let departure = exec_start + outcome.sim_ms;
    for (k, ridx) in (i..j).enumerate() {
        let request = &tick[k];
        let latency_ms = departure - arrivals_ms[ridx];
        tel.observe(request.latency_histogram(), latency_ms);
        if let Some(id) = request_ids[k] {
            tel.record_span_with_id(
                id,
                SpanRecord {
                    name: request.span_name().into(),
                    parent: None,
                    start_ms: arrivals_ms[ridx],
                    end_ms: departure,
                    attrs: vec![
                        ("queries".into(), request.queries.len() as f64),
                        ("latency_ms".into(), latency_ms),
                        ("tick_requests".into(), tick.len() as f64),
                    ],
                },
            );
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::SearchError;
    use rtnn::{QueryPlan, SearchResults, TimeBreakdown};
    use rtnn_math::Vec3;

    /// Costs a fixed 2 ms base per call plus 1 ms per query — a stand-in
    /// with the amortisation profile coalescing exploits.
    struct FixedCost;

    impl TickExecutor for FixedCost {
        fn execute(
            &mut self,
            queries: &[Vec3],
            _plan: &QueryPlan,
        ) -> Result<SearchResults, SearchError> {
            Ok(SearchResults {
                neighbors: vec![Vec::new(); queries.len()],
                breakdown: TimeBreakdown {
                    search_ms: 2.0 + queries.len() as f64,
                    ..Default::default()
                },
                search_metrics: Default::default(),
                fs_metrics: Default::default(),
                num_partitions: 1,
                num_bundles: 1,
                trace: Default::default(),
            })
        }
    }

    fn req() -> Request {
        Request::new(vec![Vec3::ZERO], QueryPlan::knn(1.0, 2))
    }

    #[test]
    fn arrivals_are_deterministic_sorted_and_rate_matched() {
        let a = poisson_arrivals(2_000, 100.0, 7);
        let b = poisson_arrivals(2_000, 100.0, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 1_999.0 / ((a[1_999] - a[0]) / 1e3);
        assert!((rate - 100.0).abs() / 100.0 < 0.15, "rate {rate}");
        assert_ne!(a, poisson_arrivals(2_000, 100.0, 8));
    }

    #[test]
    fn saturated_coalescing_beats_one_per_call() {
        let requests: Vec<Request> = (0..200).map(|_| req()).collect();
        // Saturating: everything arrives almost immediately.
        let arrivals: Vec<f64> = (0..200).map(|i| i as f64 * 1e-3).collect();
        let coalesced = run_virtual(
            &mut FixedCost,
            &requests,
            &arrivals,
            &ServeConfig::default()
                .with_window_us(1_000)
                .with_max_batch(16),
        );
        let serial = run_virtual(
            &mut FixedCost,
            &requests,
            &arrivals,
            &ServeConfig::default().without_coalescing(),
        );
        // Serial pays 3 ms per request; 16-request ticks pay 18 ms for 16.
        assert!(coalesced.stats.mean_tick_requests() > 4.0);
        assert_eq!(serial.stats.mean_tick_requests(), 1.0);
        assert!(
            coalesced.achieved_qps > 1.3 * serial.achieved_qps,
            "coalesced {} vs serial {}",
            coalesced.achieved_qps,
            serial.achieved_qps
        );
        assert!(coalesced.stats.sim_ms < serial.stats.sim_ms);
    }

    #[test]
    fn full_batches_close_the_window_early() {
        // Everything is waiting at t=0; with max_batch=4 and a huge window
        // the service must not idle: ticks of 4 execute back to back.
        let requests: Vec<Request> = (0..8).map(|_| req()).collect();
        let arrivals = vec![0.0; 8];
        let cfg = ServeConfig::default()
            .with_window_us(1_000_000) // 1000 ms window
            .with_max_batch(4);
        let report = run_virtual(&mut FixedCost, &requests, &arrivals, &cfg);
        assert_eq!(report.stats.ticks, 2);
        // Each tick costs 2 + 4 = 6 ms; no window wait in between.
        assert!(
            (report.makespan_ms - 12.0).abs() < 1e-9,
            "{}",
            report.makespan_ms
        );
    }

    #[test]
    fn idle_load_pays_the_window_in_latency() {
        let requests: Vec<Request> = (0..5).map(|_| req()).collect();
        // Arrivals far apart: every tick serves one request.
        let arrivals: Vec<f64> = (0..5).map(|i| i as f64 * 1_000.0).collect();
        let cfg = ServeConfig::default().with_window_us(500);
        let report = run_virtual(&mut FixedCost, &requests, &arrivals, &cfg);
        assert_eq!(report.stats.ticks, 5);
        // Latency = window (0.5 ms) + execution (3 ms).
        assert!((report.latency_ms(0.5) - 3.5).abs() < 1e-9);
        let no_window = run_virtual(
            &mut FixedCost,
            &requests,
            &arrivals,
            &ServeConfig::default().without_coalescing(),
        );
        assert!((no_window.latency_ms(0.5) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn recorded_replay_reproducibly_pins_the_same_breach_exemplar() {
        use rtnn_telemetry::{SloConfig, SloEvent};
        let requests: Vec<Request> = (0..120).map(|_| req()).collect();
        // Saturating offered load: each 8-request tick costs 10 virtual ms
        // but its requests arrive within ~4 ms, so the backlog — and with
        // it the request latencies — must grow past any fixed target.
        let arrivals = poisson_arrivals(120, 2_000.0, 23);
        let cfg = ServeConfig::default()
            .with_window_us(1_000)
            .with_max_batch(8);
        let slo = SloConfig {
            quantile: 0.9,
            target_ms: 8.0,
            window: 32,
            min_samples: 8,
        };
        let run = || {
            let mut recorder = FlightRecorder::with_slo(64, slo);
            let (report, snapshot) = run_virtual_recorded(
                &mut FixedCost,
                &requests,
                &arrivals,
                &cfg,
                TelemetryLevel::Basic,
                &mut recorder,
            );
            (report, snapshot, recorder)
        };
        let (report_a, snap_a, flight_a) = run();
        let (report_b, snap_b, flight_b) = run();

        // Recording never perturbs the replay.
        let plain = run_virtual(&mut FixedCost, &requests, &arrivals, &cfg);
        assert_eq!(report_a.stats, plain.stats);
        assert_eq!(report_a.stats, report_b.stats);
        assert_eq!(snap_a, snap_b);

        // The breach fires, pins an exemplar, and does so identically on
        // every run of the same schedule.
        assert!(
            flight_a
                .events()
                .iter()
                .any(|e| matches!(e, SloEvent::Breach { .. })),
            "saturating load must breach the 8 ms p90 target: {:?}",
            flight_a.events()
        );
        assert!(!flight_a.pinned().is_empty());
        assert_eq!(flight_a.events(), flight_b.events());
        assert_eq!(flight_a.pinned(), flight_b.pinned());
        assert_eq!(flight_a.to_jsonl(), flight_b.to_jsonl());

        // The exemplar is a real slow request with its breakdown attached.
        let exemplar = &flight_a.pinned()[0].trace;
        assert!(exemplar.latency_ms >= 8.0, "{}", exemplar.latency_ms);
        assert_eq!(exemplar.name, "serve.request.knn");
    }

    #[test]
    fn observed_replay_matches_the_plain_one_and_snapshots_deterministically() {
        let requests: Vec<Request> = (0..40).map(|_| req()).collect();
        let arrivals = poisson_arrivals(40, 500.0, 11);
        let cfg = ServeConfig::default()
            .with_window_us(2_000)
            .with_max_batch(8);
        let plain = run_virtual(&mut FixedCost, &requests, &arrivals, &cfg);
        let (observed, snap_a) = run_virtual_observed(
            &mut FixedCost,
            &requests,
            &arrivals,
            &cfg,
            TelemetryLevel::Full,
        );
        let (_, snap_b) = run_virtual_observed(
            &mut FixedCost,
            &requests,
            &arrivals,
            &cfg,
            TelemetryLevel::Full,
        );

        // Observation never changes the replay.
        assert_eq!(observed.stats, plain.stats);
        assert_eq!(observed.makespan_ms, plain.makespan_ms);

        // Snapshots are bit-deterministic and structurally sound.
        assert_eq!(snap_a, snap_b);
        assert!(snap_a.deterministic);
        snap_a.check_nesting(1e-9).unwrap();
        assert_eq!(
            snap_a.spans_named("serve.tick").count(),
            plain.stats.ticks,
            "one tick span per tick"
        );
        assert_eq!(
            snap_a.spans_named("serve.request.knn").count(),
            requests.len(),
            "one request span per request"
        );
        assert_eq!(
            snap_a.metrics.counter("serve.requests"),
            Some(requests.len() as u64)
        );
        let lat = snap_a.metrics.histogram("serve.latency.knn").unwrap();
        assert_eq!(lat.count, requests.len() as u64);
        assert_eq!(lat.p999, plain.stats.latency_p999());

        // Basic drops the spans but keeps the metrics.
        let (_, basic) = run_virtual_observed(
            &mut FixedCost,
            &requests,
            &arrivals,
            &cfg,
            TelemetryLevel::Basic,
        );
        assert!(basic.spans.is_empty());
        assert_eq!(
            basic.metrics.counter("serve.ticks"),
            Some(plain.stats.ticks as u64)
        );
    }
}
