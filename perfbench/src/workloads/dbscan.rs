//! `dbscan_nbody`: DBSCAN over a plain `Index` on an NBody-like cloud —
//! unbounded range neighborhoods and a host union-find reduce.

use super::{drive, probe_layers, Args, Checks, Outcome, Setup, SplitMix, Traced};
use crate::adapters::{self, Batch, QueryPlan, Vec3};
use crate::layers::Timed;
use crate::stats::ms_per_k;

/// Scale divisor of `NBody9M` (18k points).
const DIVISOR: usize = 500;
const MIN_PTS: usize = 8;
/// Clusterings per throughput window: enough process CPU time that its
/// 10 ms clock ticks round each window's cost by under 1%.
const WINDOW_OPS: usize = 4;
/// ε-neighbors per point (itself included) on average, which sets ε: about
/// what ε = 0.5·r gives on a typical seed. With ε = 0.5·r itself the
/// neighbor lists, and so the work of a run, differ by up to a quarter
/// between seeds.
const MEAN_NEIGHBORS: f64 = 160.0;
/// Seeded points whose neighborhoods set ε.
const EPS_SAMPLE: usize = 4096;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (points, r) = adapters::nbody(DIVISOR, args.seed);
    let eps = eps_for(&points, r, args.seed);
    let n = points.len();
    let device = adapters::device();
    let backend = adapters::backend(&device);

    // Set-up: warm the ε plan, then one untimed clustering run.
    let (index, setup) = Setup::first(|| {
        let mut index = Batch::build(&backend, &points, &[QueryPlan::range_unbounded(eps)])?;
        adapters::dbscan(&points, eps, MIN_PTS, index.executor())?;
        Ok(index)
    })?;
    let mut exec = Timed::new(index.into_executor());
    let want = adapters::dbscan_oracle(&points, eps, MIN_PTS);

    let mut checks = Checks::new(args.inject_error);
    let mut sim_ms = None;
    let (plain, traced) = drive(args, WINDOW_OPS, 1, |meter, mut layers| {
        exec.reset();
        exec.layers = layers.as_deref_mut().map(std::mem::take);
        let out = meter.time(n, || adapters::dbscan(&points, eps, MIN_PTS, &mut exec));
        sim_ms.get_or_insert(exec.sim_ms);
        if let (Some(layers), Some(calls)) = (layers, exec.layers.take()) {
            *layers = calls;
            let run_ms = meter.last_raw_ms();
            layers.add("dbscan.neighborhood_ms", exec.wall_ms);
            layers.add("dbscan.reduce_ms", run_ms - exec.wall_ms);
            layers.add("dbscan.edges", exec.neighbors as f64);
            layers.add("dbscan.batches", exec.calls as f64);
            layers.add(
                "index.cached_structures",
                adapters::cached_structures(&exec.inner) as f64,
            );
        }
        let inject = checks.inject_now();
        checks.op(out.and_then(|mut got| {
            if inject {
                got[0] = Some(u32::MAX);
            }
            if got == want {
                Ok(())
            } else {
                let at = got.iter().zip(&want).position(|(a, b)| a != b);
                Err(format!(
                    "DBSCAN labels differ from the oracle at point {at:?}"
                ))
            }
        }));
    });

    let traced = match traced {
        Some((meter, mut layers)) => {
            let floor = probe_layers(&mut layers, &backend, &points, &points, eps)?;
            Some(Traced {
                meter,
                layers,
                floor_ms_per_query: floor,
            })
        }
        None => None,
    };
    let clusters = want
        .iter()
        .flatten()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let (setup_s, peak_rss_mb) = setup.finish(args)?;
    Ok(Outcome {
        info: vec![
            ("points", n.to_string()),
            ("eps", eps.to_string()),
            ("min_pts", MIN_PTS.to_string()),
            ("clusters", clusters.to_string()),
        ],
        setup_s,
        peak_rss_mb,
        plain,
        sim_ms_per_kquery: ms_per_k(sim_ms.unwrap_or(0.0), n as f64),
        checks,
        traced,
    })
}

/// The ε at which `EPS_SAMPLE` seeded points have `MEAN_NEIGHBORS`
/// neighbors on average (strictly closer than ε, as DBSCAN counts them),
/// read off a histogram of their squared distances below `r²`.
fn eps_for(points: &[Vec3], r: f32, seed: u64) -> f32 {
    const BINS: usize = 1 << 14;
    let r2 = f64::from(r * r);
    let mut hist = vec![0u64; BINS];
    let mut rng = SplitMix::new(seed ^ 0x0E95);
    for _ in 0..EPS_SAMPLE {
        let q = points[rng.below(points.len())];
        for p in points {
            let d2 = f64::from(p.distance_squared(q));
            if d2 < r2 {
                hist[((d2 / r2) * BINS as f64) as usize] += 1;
            }
        }
    }
    let target = MEAN_NEIGHBORS * EPS_SAMPLE as f64;
    let mut below = 0.0;
    for (bin, &count) in hist.iter().enumerate() {
        let count = count as f64;
        if below + count >= target {
            let d2 = (bin as f64 + (target - below) / count) / BINS as f64 * r2;
            return d2.sqrt() as f32;
        }
        below += count;
    }
    r
}
