//! `fig_build`: host-parallel structure construction, end to end.
//!
//! This figure has no counterpart in the paper — it evaluates the parallel
//! construction path this repo adds on top of the paper's build-cost model:
//! the staged LBVH pipeline (`rtnn_bvh::builder`), the subtree-parallel
//! refit (`rtnn_bvh::refit`), and the shard-concurrent cold start of the
//! serving layer (`rtnn_serve::ShardedIndex::warm`).
//!
//! Three sweeps:
//!
//! 1. **Build vs threads** — host wall ms per million AABBs of the parallel
//!    LBVH at 1/2/4/8 worker threads. Every tree is checked bit-identical
//!    to the serial oracle before its wall time is reported.
//! 2. **Refit vs cut depth** — wall ms of the subtree-parallel refit as the
//!    frontier cut deepens, against the serial refit oracle.
//! 3. **Cold start** — wall ms to build *and warm* a `ShardedIndex`
//!    (structures for the serving plan pre-built on every shard) at one
//!    thread vs the machine width.
//!
//! Each build and refit row (the serial oracles' included) is the median
//! of five timed runs: one run at the smoke scale takes about a
//! millisecond, so a single timing swings with scheduler noise.
//!
//! Every time here is host wall clock; none of it feeds a simulated cost
//! (the device charges a build by its own model, `T_build = k1 · M`). On a
//! runner with fewer cores than a sweep's thread count the walls stay flat
//! or get worse, so CI asserts bit-equality and report structure, never a
//! measured multi-thread speedup.

use crate::report::{fmt_ms, fmt_speedup, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn::{EngineConfig, GpusimBackend, QueryPlan};
use rtnn_bvh::{
    build_point_bvh, refit_bvh_serial, refit_bvh_with_cut, BuildParams, Bvh, BvhBuilder,
};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};
use rtnn_parallel::with_thread_count;
use rtnn_serve::ShardedIndex;
use std::time::Instant;

/// Byte-level tree equality: primitive order, node layout, AABB bits.
fn trees_bit_identical(a: &Bvh, b: &Bvh) -> bool {
    a.prim_indices == b.prim_indices
        && a.nodes.len() == b.nodes.len()
        && a.nodes.iter().zip(&b.nodes).all(|(x, y)| {
            x.kind == y.kind
                && x.aabb.min.to_array().map(f32::to_bits)
                    == y.aabb.min.to_array().map(f32::to_bits)
                && x.aabb.max.to_array().map(f32::to_bits)
                    == y.aabb.max.to_array().map(f32::to_bits)
        })
}

/// Timed runs per build and refit row; the row reports their median.
const REPEATS: usize = 5;

/// Wall ms of `f` and its output.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// The median wall ms of [`REPEATS`] runs of `run` (each returning its
/// own wall ms, so untimed set-up stays out), and the last run's output.
fn median_of_repeats<T>(mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut walls, mut last) = (Vec::with_capacity(REPEATS), None);
    for _ in 0..REPEATS {
        let (wall, out) = run();
        walls.push(wall);
        last = Some(out);
    }
    walls.sort_by(f64::total_cmp);
    (walls[REPEATS / 2], last.expect("at least one repeat"))
}

/// Run the parallel-construction experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure B (extension): parallel structure construction — LBVH build, batched refit, \
         shard-concurrent cold start",
    );
    let machine_threads = rtnn_parallel::current_num_threads();

    let num_points = (1_000_000 / scale.dataset_divisor).max(5_000);
    let cloud = uniform::generate(&UniformParams {
        num_points,
        seed: 0x4255_494C, // "BUIL"
        ..Default::default()
    });
    let points = cloud.points;
    let side = Aabb::from_points(&points).longest_extent();
    let radius = side * (8.0 / num_points as f32).cbrt() * 0.5;

    // --- Sweep 1: build wall vs thread count, pinned to the oracle.
    let serial_params = BuildParams {
        builder: BvhBuilder::LbvhSerial,
        ..BuildParams::default()
    };
    let (serial_wall, oracle) =
        median_of_repeats(|| timed(|| build_point_bvh(&points, radius, serial_params)));
    let mut build_table = Table::new(
        format!(
            "parallel LBVH host build, {} points (serial oracle: {})",
            points.len(),
            fmt_ms(serial_wall),
        ),
        &["threads", "wall", "ms / M AABBs", "bit-identical"],
    );
    let mut wall_1t = 0.0f64;
    let mut wall_4t = 0.0f64;
    let mut all_identical = true;
    for threads in [1usize, 2, 4, 8] {
        let mut identical = true;
        let (wall, ()) = median_of_repeats(|| {
            let (wall, tree) = timed(|| {
                with_thread_count(threads, || {
                    build_point_bvh(&points, radius, BuildParams::default())
                })
            });
            identical &= trees_bit_identical(&tree, &oracle);
            (wall, ())
        });
        all_identical &= identical;
        if threads == 1 {
            wall_1t = wall;
        }
        if threads == 4 {
            wall_4t = wall;
        }
        build_table.push_row(vec![
            threads.to_string(),
            fmt_ms(wall),
            format!("{:.2}", wall / points.len() as f64 * 1e6),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    report.tables.push(build_table);

    // --- Sweep 2: refit wall vs frontier cut depth, against the serial
    // oracle. The drift keeps the primitive count fixed (refit contract).
    let drifted: Vec<Vec3> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let j = ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.5;
            Vec3::new(p.x + j * radius, p.y - j * radius, p.z + 0.5 * j * radius)
        })
        .collect();
    let moved: Vec<Aabb> = drifted
        .iter()
        .map(|&p| Aabb::cube(p, 2.0 * radius))
        .collect();
    let (serial_refit_wall, serial_tree) = median_of_repeats(|| {
        let mut tree = oracle.clone();
        let (wall, refit) = timed(|| refit_bvh_serial(&mut tree, &moved));
        refit.expect("same primitive count");
        (wall, tree)
    });
    let mut refit_table = Table::new(
        format!(
            "subtree-parallel refit at machine width (serial oracle: {})",
            fmt_ms(serial_refit_wall),
        ),
        &["cut depth", "wall", "speedup vs serial", "bit-identical"],
    );
    let mut best_refit_speedup: f64 = 0.0;
    for cut in [0u32, 2, 4, 8] {
        let mut identical = true;
        let (wall, ()) = median_of_repeats(|| {
            let mut tree = oracle.clone();
            let (wall, refit) = timed(|| refit_bvh_with_cut(&mut tree, &moved, cut));
            refit.expect("same count");
            identical &= trees_bit_identical(&tree, &serial_tree);
            (wall, ())
        });
        all_identical &= identical;
        let speedup = serial_refit_wall / wall.max(1e-9);
        best_refit_speedup = best_refit_speedup.max(speedup);
        refit_table.push_row(vec![
            cut.to_string(),
            fmt_ms(wall),
            fmt_speedup(speedup),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    report.tables.push(refit_table);

    // --- Sweep 3: serving cold start — build + warm a ShardedIndex at one
    // thread vs the machine width.
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let plan = QueryPlan::knn(radius, 8);
    let shards = 4;
    let mut cold_table = Table::new(
        format!("ShardedIndex cold start: build + warm, {shards} shards"),
        &["threads", "wall"],
    );
    let mut cold_walls = Vec::new();
    for threads in [1usize, machine_threads.max(2)] {
        let (wall, built) = timed(|| {
            with_thread_count(threads, || {
                let mut sharded =
                    ShardedIndex::build(&backend, &points, EngineConfig::default(), shards);
                sharded.warm(&plan).expect("valid plan")
            })
        });
        assert!(built > 0.0, "cold start must build structures");
        cold_walls.push(wall);
        cold_table.push_row(vec![threads.to_string(), fmt_ms(wall)]);
    }
    report.tables.push(cold_table);
    let cold_speedup = cold_walls[0] / cold_walls[1].max(1e-9);

    report.headline_metric(
        "build_ms_per_million_1t",
        wall_1t / points.len() as f64 * 1e6,
    );
    report.headline_metric("build_speedup_4t", wall_1t / wall_4t.max(1e-9));
    report.headline_metric("refit_best_cut_speedup", best_refit_speedup);
    report.headline_metric("cold_start_ms_1t", cold_walls[0]);
    report.headline_metric("cold_start_speedup", cold_speedup);
    report.headline_metric("bit_identical", if all_identical { 1.0 } else { 0.0 });

    report.notes.push(format!(
        "runner exposes {machine_threads} hardware thread(s); wall times are honest host \
         measurements, so thread counts above that stay flat or get worse"
    ));
    report.notes.push(
        "every parallel tree (build and refit, at every thread count and cut depth) is \
         checked bit-identical to the serial oracle before its time is reported"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_structure_and_bit_equality_hold_at_smoke_scale() {
        let report = run(&ExperimentScale::smoke_test());
        let metric = |name: &str| -> f64 {
            report
                .headline
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing headline metric {name}"))
                .1
        };
        // The hard guarantee: every parallel tree matched the serial
        // oracle bit for bit. (Measured wall speedups are runner-dependent
        // — a single-core CI box shows none — so they are reported, never
        // asserted.)
        assert_eq!(metric("bit_identical"), 1.0);
        assert!(metric("build_ms_per_million_1t") > 0.0);
        assert!(metric("cold_start_ms_1t") > 0.0);
        assert_eq!(report.tables.len(), 3);
        assert_eq!(report.tables[0].rows.len(), 4, "thread sweep rows");
        assert_eq!(report.tables[1].rows.len(), 4, "cut sweep rows");
        assert_eq!(report.tables[2].rows.len(), 2, "cold-start rows");
    }
}
