//! `batch_kitti`: a warm `Index` over a KITTI-like cloud. One op is a cycle
//! of three `Index::query` calls: knn, range and a two-slice batch.

use super::{check_sample, drive, probe_layers, rotating_sample};
use super::{Args, Checks, Outcome, Setup, Traced};
use crate::adapters::{self, Batch, PlanSlice, QueryPlan, Results, Vec3};
use crate::stats::{median, ms_per_k, ms_since};
use std::time::Instant;

/// Scale divisor of `Kitti12M` (≈120k points).
const DIVISOR: usize = 100;
/// Every `QUERY_STRIDE`-th point is a query of the range call (10k). The
/// size puts a 20 s run at 50–80 cycles however much of the CPU the host
/// steals, so the tail rule lands on p75 every time.
const QUERY_STRIDE: usize = 12;
/// The knn call takes every `KNN_EVERY`-th range query and the batch call
/// every `BATCH_EVERY`-th. Per query, knn costs about four times range and
/// the batch about two and a half, so the three calls take similar shares
/// of the cycle: a slowdown of any one plan kind moves the cycle latency
/// by at least a third of that slowdown.
const KNN_EVERY: usize = 4;
const BATCH_EVERY: usize = 2;
const K: usize = 32;
/// Queries brute-force checked per call.
const CHECKED: usize = 32;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (points, r) = adapters::kitti(DIVISOR, args.seed);
    let range_queries: Vec<Vec3> = points.iter().step_by(QUERY_STRIDE).copied().collect();
    let every = |n: usize| -> Vec<Vec3> { range_queries.iter().step_by(n).copied().collect() };
    let (knn_queries, batch_queries) = (every(KNN_EVERY), every(BATCH_EVERY));
    let half = batch_queries.len() / 2;
    let knn = QueryPlan::knn(r, K);
    let range_near = QueryPlan::range(0.7 * r, K);
    let batch = QueryPlan::Batch(vec![
        PlanSlice::new(knn.clone(), (0..half as u32).collect()),
        PlanSlice::new(
            range_near.clone(),
            (half as u32..batch_queries.len() as u32).collect(),
        ),
    ]);
    let calls = [
        (&knn_queries, knn.clone()),
        (&range_queries, QueryPlan::range(r, K)),
        (&batch_queries, batch),
    ];
    let plans: Vec<QueryPlan> = calls.iter().map(|c| c.1.clone()).collect();
    let cycle_queries: usize = calls.iter().map(|c| c.0.len()).sum();

    let device = adapters::device();
    let backend = adapters::backend(&device);
    // Set-up: warm every plan, then one untimed call of each plan kind —
    // the first call still builds per-partition structures `warm` skips.
    let (mut index, setup) = Setup::first(|| {
        let mut index = Batch::build(&backend, &points, &plans)?;
        for (queries, plan) in &calls {
            index.query(queries, plan)?;
        }
        Ok(index)
    })?;
    // Single-plan answers the batch slices must reproduce.
    let refs = Refs {
        knn: index.query(&batch_queries, &knn)?.neighbors,
        near: index.query(&batch_queries, &range_near)?.neighbors,
        half,
    };

    let mut checks = Checks::new(args.inject_error);
    let mut sim_ms = 0.0;
    let mut round = 0usize;
    let mut call_ms: [Vec<f64>; 3] = Default::default();
    let (plain, traced) = drive(args, 1, 1, |meter, mut layers| {
        let mut walls_ms = [0.0; 3];
        let out = meter.time(cycle_queries, || {
            calls
                .iter()
                .zip(&mut walls_ms)
                .map(|((queries, plan), wall_ms)| {
                    let t0 = Instant::now();
                    let res = index.query(queries, plan);
                    *wall_ms = ms_since(t0);
                    res
                })
                .collect::<Result<Vec<Results>, String>>()
        });
        for (times, wall_ms) in call_ms.iter_mut().zip(walls_ms) {
            times.push(wall_ms);
        }
        let inject = checks.inject_now();
        let verdict = out.and_then(|results| {
            for (i, ((queries, plan), res)) in calls.iter().zip(&results).enumerate() {
                if round == 0 {
                    sim_ms += res.total_time_ms();
                }
                if let Some(layers) = layers.as_deref_mut() {
                    layers.record_call(res, walls_ms[i], queries.len());
                    layers.add(
                        "index.cached_structures",
                        adapters::cached_structures(index.executor()) as f64,
                    );
                }
                let inject = inject && i == 0;
                verify(&points, queries, plan, &res.neighbors, &refs, round, inject)?;
            }
            Ok(())
        });
        checks.op(verdict);
        round += 1;
    });

    let traced = match traced {
        Some((meter, mut layers)) => {
            let floor = probe_layers(&mut layers, &backend, &points, &range_queries, r)?;
            Some(Traced {
                meter,
                layers,
                floor_ms_per_query: floor,
            })
        }
        None => None,
    };
    let (setup_s, peak_rss_mb) = setup.finish(args)?;
    Ok(Outcome {
        info: vec![
            ("points", points.len().to_string()),
            (
                "queries_per_call",
                format!(
                    "knn {}, range {}, batch {}",
                    knn_queries.len(),
                    range_queries.len(),
                    batch_queries.len()
                ),
            ),
            (
                "call_p50_ms",
                format!(
                    "knn {:.1}, range {:.1}, batch {:.1}",
                    median(&call_ms[0]),
                    median(&call_ms[1]),
                    median(&call_ms[2])
                ),
            ),
            ("radius", r.to_string()),
        ],
        setup_s,
        peak_rss_mb,
        plain,
        sim_ms_per_kquery: ms_per_k(sim_ms, cycle_queries as f64),
        checks,
        traced,
    })
}

/// Single-plan answers over the batch call's queries that its slices must
/// reproduce: the knn plan on the first `half`, range at 0.7r on the rest.
struct Refs {
    knn: Vec<Vec<u32>>,
    near: Vec<Vec<u32>>,
    half: usize,
}

/// Oracle gate of one call: sampled queries against brute force, and batch
/// slices against the single-plan answers on the same index.
fn verify(
    points: &[Vec3],
    queries: &[Vec3],
    plan: &QueryPlan,
    got: &[Vec<u32>],
    refs: &Refs,
    round: usize,
    inject: bool,
) -> Result<(), String> {
    let (n, half) = (queries.len(), refs.half);
    let QueryPlan::Batch(slices) = plan else {
        let sample = rotating_sample(n, CHECKED, round);
        return check_sample(points, queries, plan, got, sample, inject);
    };
    let lower = rotating_sample(half, CHECKED / 2, round);
    check_sample(points, queries, &slices[0].plan, got, lower, inject)?;
    let upper = rotating_sample(n - half, CHECKED / 2, round).map(|i| i + half);
    check_sample(points, queries, &slices[1].plan, got, upper, false)?;
    if got[..half] != refs.knn[..half] {
        return Err("batch knn slice differs from the single knn plan".into());
    }
    for (qi, (a, b)) in got.iter().zip(&refs.near).enumerate().skip(half) {
        // A capped range answer may be any K of the in-radius points; an
        // uncapped one must be the same set.
        if b.len() < K {
            let (mut a, mut b) = (a.clone(), b.clone());
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return Err(format!("batch range slice differs at query {qi}"));
            }
        }
    }
    Ok(())
}
