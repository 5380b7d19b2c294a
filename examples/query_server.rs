//! A concurrent query server over one shared scene: many client threads
//! submit small KNN/range requests through a channel-based handle, the
//! dispatcher coalesces whatever is in flight into one fused batch per
//! tick, and a spatially sharded index fans each tick out over the worker
//! pool — with every response equal to a direct `Index::query` call
//! (bit-equal KNN, set-equal range). A caller-owned `AutoTuner` rides on
//! the service and picks the stage-override rung once per coalesced tick.
//!
//! Run with:
//! ```text
//! cargo run --release --example query_server
//! # knobs: RTNN_SERVE_THREADS=4 RTNN_SERVE_WINDOW_US=500
//! ```

use rtnn::{AutoTuner, EngineConfig, GpusimBackend, Index, QueryPlan};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{QueryService, Request, ServeConfig, ShardedIndex};
use rtnn_telemetry::{FlightRecorder, SloConfig, Telemetry, TelemetryLevel};
use std::sync::{Arc, Mutex};

/// Per-query sorted copy: the canonical form for comparing range results
/// produced at different opt levels.
fn sorted(neighbors: &[Vec<u32>]) -> Vec<Vec<u32>> {
    neighbors
        .iter()
        .map(|n| {
            let mut n = n.clone();
            n.sort_unstable();
            n
        })
        .collect()
}

fn main() {
    // 1. Serving configuration from the environment (validated: garbage in
    //    RTNN_SERVE_THREADS / RTNN_SERVE_WINDOW_US is a startup error).
    let config = ServeConfig::from_env();
    config.apply_thread_limit();
    println!(
        "serve config: window {} µs, max batch {}",
        config.window_us, config.max_batch
    );

    // 2. One shared scene: a 30k-point cloud served by 4 Morton-range
    //    shards on the simulated RTX 2080.
    let cloud = uniform::generate(&UniformParams {
        num_points: 30_000,
        seed: 11,
        ..Default::default()
    });
    let points = cloud.points.clone();
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
    println!(
        "scene: {} points in {} shards of {:?}",
        sharded.len(),
        sharded.num_shards(),
        sharded.shard_sizes()
    );

    // 3. Client traffic: 6 threads, each submitting 8 requests with its own
    //    parameters (mixed KNN/range), all against the same service.
    let num_clients = 6;
    let per_client = 8;
    let requests_of = |client: usize| -> Vec<Request> {
        (0..per_client)
            .map(|i| {
                let stride = 29 + client * 7 + i;
                let queries: Vec<Vec3> = points
                    .iter()
                    .skip(client * 501 + i * 97)
                    .step_by(stride)
                    .take(16)
                    .copied()
                    .collect();
                let plan = match (client + i) % 3 {
                    0 => QueryPlan::knn(2.0, 8),
                    1 => QueryPlan::range(1.6, 100_000),
                    _ => QueryPlan::knn(2.8, 4),
                };
                Request::new(queries, plan)
            })
            .collect()
    };

    // Reference results from a direct (unserved) index — the bit-equality
    // oracle for every response.
    let mut reference = Index::build(&backend, &points[..], EngineConfig::default());
    let expected: Vec<Vec<Vec<Vec<u32>>>> = (0..num_clients)
        .map(|c| {
            requests_of(c)
                .iter()
                .map(|r| reference.query(&r.queries, &r.plan).unwrap().neighbors)
                .collect()
        })
        .collect();

    // 4. Serve: the dispatcher owns the sharded index; clients only hold
    //    channel handles. The service drains and exits once every client
    //    handle is dropped.
    //    The run records to a private telemetry sink (always-on here so the
    //    example can print a snapshot; the global `RTNN_TELEMETRY` knob
    //    gates the default sink instead).
    //    A flight recorder rides along: every request leaves a trace in a
    //    bounded ring, and an SLO monitor watches the rolling p99 — on a
    //    breach it pins the worst-in-window trace as the exemplar to debug.
    let sink = Telemetry::new(TelemetryLevel::Full);
    let slo = SloConfig {
        quantile: 0.99,
        target_ms: 5.0,
        window: 32,
        min_samples: 8,
    };
    let flight = Arc::new(Mutex::new(FlightRecorder::with_slo(256, slo)));
    //    The auto tuner makes one stage-override decision per coalesced
    //    tick, recorded on the tick's outcome — tuning changes which
    //    pipeline stages run, never the responses.
    let tuner = Arc::new(Mutex::new(AutoTuner::new(42)));
    let (service, client) = QueryService::with_telemetry(config, sink.clone());
    let service = service
        .with_flight_recorder(flight.clone())
        .with_auto_tuner(tuner.clone());
    let stats = std::thread::scope(|s| {
        for c in 0..num_clients {
            let client = client.clone();
            let requests = requests_of(c);
            let expected = &expected[c];
            s.spawn(move || {
                for (ri, request) in requests.into_iter().enumerate() {
                    // Ticks may run at a tuner-decided opt level, and range
                    // results are set-equal (not bit-equal) across levels.
                    let is_range = request.plan.kind_label() == "range";
                    let response = client.call(request);
                    if is_range {
                        assert_eq!(
                            sorted(response.neighbors()),
                            sorted(&expected[ri]),
                            "client {c} request {ri}: served response must be \
                             set-equal to a direct Index::query"
                        );
                    } else {
                        assert_eq!(
                            response.neighbors(),
                            &expected[ri],
                            "client {c} request {ri}: served response must be \
                             bit-equal to a direct Index::query"
                        );
                    }
                }
            });
        }
        drop(client);
        service.run(&mut sharded)
    });

    // 5. What the service saw.
    println!(
        "served {} requests in {} ticks (mean batch {:.1}, largest {}), {} queries total",
        stats.requests,
        stats.ticks,
        stats.mean_tick_requests(),
        stats.max_tick_requests,
        stats.queries
    );
    println!(
        "latency: p50 {:.0} µs, p99 {:.0} µs, p999 {:.0} µs (wall); simulated device time {:.2} ms",
        stats.latency_percentile(0.5),
        stats.latency_percentile(0.99),
        stats.latency_p999(),
        stats.sim_ms
    );
    let timing = sharded.last_timing();
    println!(
        "last tick critical path {:.3} ms across {} active shards (skew {:.2}×)",
        timing.critical_path_ms(),
        timing.active_shards(),
        timing.skew()
    );

    // 6. The telemetry view of the same run: serving metrics plus one span
    //    tree per request (request → tick → per-shard stages).
    let snapshot = sink.snapshot();
    println!("\ntelemetry snapshot ({} spans):", snapshot.spans.len());
    for (name, value) in &snapshot.metrics.counters {
        println!("  counter {name} = {value}");
    }
    for (name, hist) in &snapshot.metrics.histograms {
        println!(
            "  histogram {name}: n={} p50={:.1} p99={:.1} p999={:.1}",
            hist.count, hist.p50, hist.p99, hist.p999
        );
    }
    if let Some(request) = snapshot.roots().first() {
        println!("  one request's span tree:");
        for span in snapshot.subtree(request.id) {
            let depth = {
                let mut d = 0;
                let mut cursor = span.parent;
                while let Some(p) = cursor {
                    d += 1;
                    cursor = snapshot.span(p).and_then(|s| s.parent);
                }
                d
            };
            println!(
                "  {:indent$}{} [{:.3} ms]",
                "",
                span.name,
                span.duration_ms(),
                indent = 4 + 2 * depth
            );
        }
    }
    // 7. The flight recorder's view: every request left a trace, and the
    //    SLO monitor's event log says when the rolling p99 crossed the
    //    target — each breach pinning its worst-in-window exemplar.
    let flight = flight.lock().expect("flight recorder lock poisoned");
    println!(
        "\nflight recorder: {} trace(s) held ({} dropped), {} SLO event(s), {} pinned exemplar(s)",
        flight.len(),
        flight.dropped(),
        flight.events().len(),
        flight.pinned().len()
    );
    for event in flight.events() {
        match event {
            rtnn_telemetry::SloEvent::Breach {
                at_ms,
                observed_ms,
                target_ms,
                quantile,
                ..
            } => println!(
                "  breach  at {at_ms:.2} ms: p{:.0} = {observed_ms:.3} ms over the \
                 {target_ms:.1} ms target",
                quantile * 100.0
            ),
            rtnn_telemetry::SloEvent::Recover {
                at_ms, observed_ms, ..
            } => println!("  recover at {at_ms:.2} ms: back to {observed_ms:.3} ms"),
        }
    }
    if let Some(exemplar) = flight.pinned().first() {
        let trace = &exemplar.trace;
        println!(
            "  exemplar: {} [{:.3} ms, {} queries, tick of {}]{}",
            trace.name,
            trace.latency_ms,
            trace.queries,
            trace.tick_requests,
            trace
                .dominant_stage()
                .map(|(stage, ms)| format!(", dominated by {stage} ({ms:.3} ms)"))
                .unwrap_or_default()
        );
    }
    // 8. What the auto tuner learned: one decision per coalesced tick,
    //    summarised per (plan kind, density bucket, backend) signature.
    let tuner = tuner.lock().expect("auto tuner lock poisoned");
    println!(
        "\nauto tuner: {} decision(s) across {} signature(s):",
        tuner.decisions(),
        tuner.report().len()
    );
    for sig in tuner.report() {
        println!(
            "  {}: {} decision(s), {}/4 arms measured, steady choice {:?}",
            sig.label(),
            sig.decisions,
            sig.measured_arms,
            sig.choice
        );
    }
    println!(
        "\nall {} responses verified against direct Index::query ✓",
        stats.requests
    );
}
