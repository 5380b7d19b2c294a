//! `stream_nbody`: a `DynamicIndex` over an orbiting NBody-like cloud.
//! Each frame moves every point, every 8th frame also removes and
//! re-inserts 1% of them (forcing a rebuild), then searches.

use super::{check_sample, drive, probe_layers, rotating_sample};
use super::{Args, Checks, Outcome, Setup, SplitMix, Traced};
use crate::adapters::{self, Drift, QueryPlan, Stream, Vec3};
use crate::stats::{ms_per_k, ms_since};
use std::time::Instant;

/// Scale divisor of `NBody9M` (22.5k points). The size puts a 20 s run at
/// 300–700 frames however much of the CPU the host steals, so the tail
/// rule lands on p95 every time.
const DIVISOR: usize = 400;
const K: usize = 16;
/// Every `QUERY_STRIDE`-th live point is a query.
const QUERY_STRIDE: usize = 32;
const ANGULAR_STEP: f32 = 0.01;
/// Every `CHURN_EVERY`-th frame re-inserts `CHURN_PERCENT`% of the points.
const CHURN_EVERY: usize = 8;
const CHURN_PERCENT: usize = 1;
/// Frames behind `sim_ms_per_kquery` (eight churn cycles).
const SIM_FRAMES: usize = 64;
/// Queries brute-force checked per frame.
const CHECKED: usize = 16;
/// Frames per scene: the orbit restarts (untimed, like a set-up) every
/// `EPISODE` frames. Frames grow costlier as the scene ages, so without
/// restarts a run on a faster host would reach older, slower frames and
/// report a worse tail.
const EPISODE: usize = 128;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (points, r) = adapters::nbody(DIVISOR, args.seed);
    let plan = QueryPlan::knn(r, K);
    let device = adapters::device();
    let queries_of =
        |live: &[Vec3]| -> Vec<Vec3> { live.iter().step_by(QUERY_STRIDE).copied().collect() };

    // Set-up: seed the index and run the first frame, which builds every
    // structure. The scene restarts with each set-up.
    let start = || -> Result<_, String> {
        let mut stream = Stream::new(&device, &points, r, K);
        stream.search(&queries_of(&points))?;
        Ok((stream, Drift::orbit(&points, ANGULAR_STEP, args.seed)))
    };
    let ((mut stream, mut drift), setup) = Setup::first(start)?;
    // Stable handles change on re-insert; track handle ↔ scene slot.
    let identity: Vec<u32> = (0..points.len() as u32).collect();
    let (mut handle_of, mut slot_of) = (identity.clone(), identity.clone());
    let mut rng = SplitMix::new(args.seed ^ 0xD1F7);

    let mut checks = Checks::new(args.inject_error);
    let (mut sim_ms, mut sim_queries) = (0.0, 0.0);
    let mut frame = 0usize;
    let (plain, traced) = drive(args, CHURN_EVERY, SIM_FRAMES, |meter, layers| {
        if frame > 0 && frame.is_multiple_of(EPISODE) {
            match start() {
                Ok(fresh) => (stream, drift) = fresh,
                Err(e) => return checks.op(Err(e)),
            }
            (handle_of, slot_of) = (identity.clone(), identity.clone());
            rng = SplitMix::new(args.seed ^ 0xD1F7);
        }
        frame += 1;
        // Input generation stays outside the op: the scene step, the new
        // positions and the churn picks.
        let moves: Vec<(u32, Vec3)> = drift
            .step()
            .into_iter()
            .map(|slot| (slot, drift.position(slot)))
            .collect();
        let churn: Vec<u32> = if frame.is_multiple_of(CHURN_EVERY) {
            (0..points.len() * CHURN_PERCENT / 100)
                .map(|_| rng.below(points.len()) as u32)
                .collect()
        } else {
            Vec::new()
        };
        let live = drift.live_points();
        let queries = queries_of(&live);

        let mut write_ms = 0.0;
        let out = meter.time(queries.len(), || {
            let t0 = Instant::now();
            for &(slot, p) in &moves {
                stream.move_point(handle_of[slot as usize], p);
            }
            for &slot in &churn {
                if stream.remove(handle_of[slot as usize]) {
                    let h = stream.insert(live[slot as usize]);
                    handle_of[slot as usize] = h;
                    slot_of.resize(slot_of.len().max(h as usize + 1), u32::MAX);
                    slot_of[h as usize] = slot;
                }
            }
            write_ms = ms_since(t0);
            stream.search(&queries)
        });
        let inject = checks.inject_now();
        let verdict = out.and_then(|f| {
            if frame <= SIM_FRAMES {
                sim_ms += f.results.total_time_ms();
                sim_queries += queries.len() as f64;
            }
            if let Some(layers) = layers {
                let search_ms = meter.last_raw_ms() - write_ms;
                layers.add("dynamic.write_ms", write_ms);
                layers.add("dynamic.search_ms", search_ms);
                layers.add("dynamic.structure_host_ms", f.structure_host_ms);
                layers.add("dynamic.structure_sim_ms", f.structure_sim_ms);
                layers.add("dynamic.rebuilds", f.rebuilt as u8 as f64);
                layers.add("dynamic.refits", f.refit as u8 as f64);
                layers.record_call(&f.results, search_ms - f.structure_host_ms, queries.len());
            }
            // Stable handles → scene slots, then brute force over the
            // scene's own live points.
            let got: Vec<Vec<u32>> = f
                .results
                .neighbors
                .iter()
                .map(|ids| ids.iter().map(|&h| slot_of[h as usize]).collect())
                .collect();
            let sample = rotating_sample(queries.len(), CHECKED, frame);
            check_sample(&live, &queries, &plan, &got, sample, inject)
        });
        checks.op(verdict);
    });

    let traced = match traced {
        Some((meter, mut layers)) => {
            let live = drift.live_points();
            let floor = probe_layers(
                &mut layers,
                &adapters::backend(&device),
                &live,
                &queries_of(&live),
                r,
            )?;
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
            ("queries_per_op", queries_of(&points).len().to_string()),
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
