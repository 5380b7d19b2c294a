//! `serve_small`: a `QueryService` over a 4-shard `ShardedIndex`, driven by
//! one client thread that keeps 64 small requests outstanding.

use super::{check_sample, probe_layers, Args, Checks, Outcome, Setup, SplitMix, Traced};
use crate::adapters::{self, Answer, QueryPlan, Vec3};
use crate::layers::{Layers, Timed};
use crate::stats::{ms_per_k, Meter, Stamp};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const POINTS: usize = 20_000;
/// Side of the uniform generator's default box.
const BOX_SIDE: f32 = 100.0;
const SHARDS: usize = 4;
const OUTSTANDING: usize = 64;
const PER_REQUEST: usize = 8;
/// Distinct seeded requests, cycled by the client.
const POOL: usize = 1024;
/// Fused ticks of the deterministic replay behind `sim_ms_per_kquery`.
const REPLAY_TICKS: usize = 8;
/// Answers per throughput window.
const WINDOW: usize = 512;
/// Every `CHECK_EVERY`-th served request is brute-force checked.
const CHECK_EVERY: usize = 32;

type Requests = Vec<(Vec<Vec3>, QueryPlan)>;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let points = adapters::uniform(POINTS, args.seed);
    let r = BOX_SIDE * (8.0 / POINTS as f32).cbrt();
    let plans = [QueryPlan::knn(r, 8), QueryPlan::range(r, 32)];
    let mut rng = SplitMix::new(args.seed ^ 0x5345_5256);
    let pool: Requests = (0..POOL)
        .map(|i| {
            let queries = (0..PER_REQUEST)
                .map(|_| Vec3::new(rng.unit(), rng.unit(), rng.unit()) * BOX_SIDE)
                .collect();
            (queries, plans[i % 2].clone())
        })
        .collect();

    let device = adapters::device();
    let backend = adapters::backend(&device);
    // Set-up: build and warm the shards, then one untimed tick of each
    // plan kind the service executes (lone knn, lone range, fused batch).
    let (index, setup) = Setup::first(|| {
        let mut index = adapters::sharded(&backend, &points, SHARDS, &plans)?;
        for requests in [&pool[0..1], &pool[1..2], &pool[..OUTSTANDING]] {
            for outcome in adapters::fused_tick(&mut index, requests).0 {
                outcome?;
            }
        }
        Ok(index)
    })?;
    let mut exec = Timed::new(index);

    // The simulated clock depends on how requests fuse into ticks, which
    // live timing decides; a fixed replay of full ticks pins it down.
    let mut checks = Checks::new(args.inject_error);
    let mut sim_ms = 0.0;
    for tick in pool.chunks(OUTSTANDING).take(REPLAY_TICKS) {
        let (outcomes, ms) = adapters::fused_tick(&mut exec, tick);
        sim_ms += ms;
        for ((queries, plan), outcome) in tick.iter().zip(outcomes) {
            checks.op(outcome.and_then(|got| {
                check_sample(&points, queries, plan, &got, 0..queries.len(), false)
            }));
        }
    }
    let sim_queries = (REPLAY_TICKS * OUTSTANDING * PER_REQUEST) as f64;

    let phase = Duration::from_secs_f64(args.phase_seconds());
    let (plain, served) = serve_phase(&mut exec, &pool, phase, 0);
    let next = served.len();
    verify(&points, &pool, served, &mut checks);

    let traced = if args.trace {
        exec.reset();
        exec.layers = Some(Layers::default());
        let (meter, served) = serve_phase(&mut exec, &pool, phase, next);
        let mut layers = exec.layers.take().expect("set above");
        // An answer does not say which tick served it, so its queue wait
        // is its latency less the median tick wall.
        let tick_ms = layers.median("serve.tick_ms");
        for s in &served {
            layers.add("serve.requests_per_tick", s.tick_requests as f64);
            layers.add("serve.queue_wait_ms", s.latency_ms - tick_ms);
        }
        verify(&points, &pool, served, &mut checks);
        let all: Vec<Vec3> = pool.iter().flat_map(|(q, _)| q.iter().copied()).collect();
        let floor = probe_layers(&mut layers, &backend, &points, &all, r)?;
        Some(Traced {
            meter,
            layers,
            floor_ms_per_query: floor,
        })
    } else {
        None
    };
    let (setup_s, peak_rss_mb) = setup.finish(args)?;
    Ok(Outcome {
        info: vec![
            ("points", points.len().to_string()),
            ("shards", SHARDS.to_string()),
            ("queries_per_op", PER_REQUEST.to_string()),
            ("outstanding", OUTSTANDING.to_string()),
            ("radius", r.to_string()),
        ],
        setup_s,
        peak_rss_mb,
        plain,
        sim_ms_per_kquery: ms_per_k(sim_ms, sim_queries),
        checks,
        traced,
    })
}

/// One served request as the harness keeps it: the neighbor lists only
/// when the oracle samples it (or it failed), so memory stays flat.
struct Served {
    /// Position in the request sequence (the pool cycles).
    i: usize,
    latency_ms: f64,
    tick_requests: usize,
    outcome: Option<Result<Vec<Vec<u32>>, String>>,
}

/// Serve for `phase` with a closed-loop client; returns the meter and the
/// served requests in submission order.
fn serve_phase(
    exec: &mut Timed<rtnn_serve::ShardedIndex<'_>>,
    pool: &Requests,
    phase: Duration,
    first: usize,
) -> (Meter, Vec<Served>) {
    adapters::serve(exec, |client| {
        let submit = |i: usize| {
            let (queries, plan) = &pool[i % POOL];
            (i, client.submit(queries.clone(), plan.clone()))
        };
        let mut meter = Meter::default();
        let t0 = Instant::now();
        let mut window = Stamp::now();
        let mut pending: VecDeque<_> = (first..first + OUTSTANDING).map(submit).collect();
        let mut next = first + OUTSTANDING;
        let mut answers = Vec::new();
        while let Some((i, p)) = pending.pop_front() {
            let Answer {
                outcome,
                latency_ms,
                tick_requests,
            } = p.wait();
            meter.record(latency_ms);
            answers.push(Served {
                i,
                latency_ms,
                tick_requests,
                outcome: (i % CHECK_EVERY == 0 || outcome.is_err()).then_some(outcome),
            });
            // Full windows, then the drain as a last, shorter one.
            let in_window = answers.len() % WINDOW;
            if in_window == 0 || pending.is_empty() && t0.elapsed() >= phase {
                let served = if in_window == 0 { WINDOW } else { in_window };
                meter.close_window_with((served * PER_REQUEST) as f64, window.elapsed());
                window = Stamp::now();
            }
            if t0.elapsed() < phase {
                pending.push_back(submit(next));
                next += 1;
            }
        }
        meter.wall_s = t0.elapsed().as_secs_f64();
        (meter, answers)
    })
}

/// Brute-force check the kept answers. Only they and the failed requests
/// count as ops: an unchecked answer is neither a pass nor a failure.
fn verify(points: &[Vec3], pool: &Requests, served: Vec<Served>, checks: &mut Checks) {
    for s in served {
        let (queries, plan) = &pool[s.i % POOL];
        let verdict = match s.outcome {
            Some(Ok(got)) => {
                let inject = checks.inject_now();
                check_sample(points, queries, plan, &got, 0..queries.len(), inject)
            }
            Some(Err(e)) => Err(e),
            None => continue,
        };
        checks.op(verdict);
    }
}
