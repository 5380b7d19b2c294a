//! `fig_serve`: offered-load sweep of the `rtnn-serve` query service.
//!
//! This figure has no counterpart in the paper — it evaluates the serving
//! subsystem. A fixed population of small point-query requests (mixed
//! KNN/range parameters, the shape a neighbor-search service sees from
//! many concurrent clients) is offered to the service at increasing
//! arrival rates through the deterministic virtual-time harness
//! (`rtnn_serve::loadgen`), twice per rate:
//!
//! * **coalescing on** — the dispatcher fuses whatever arrives within the
//!   window into one `QueryPlan::Batch` per tick (identical-parameter
//!   slices merged), paying one data transfer, one shared scheduling pass
//!   and one partitioning per merged parameter set;
//! * **coalescing off** — the one-request-per-call baseline
//!   (`max_batch = 1`).
//!
//! Reported: achieved throughput and p50/p99 latency per offered load, the
//! coalescing speedup at saturation, and — separately — how the simulated
//! critical path of one saturated tick scales when the same scene is
//! served by a `ShardedIndex` with 1–8 Morton-range shards.
//!
//! All numbers are virtual/simulated and seeded: the sweep is reproducible
//! bit-for-bit on any machine.

use crate::report::{fmt_ms, fmt_speedup, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{execute_tick, poisson_arrivals, run_virtual, Request, ServeConfig, ShardedIndex};

/// Mixed request population: small query sets with one of four parameter
/// bundles, deterministically laid out. The radii sit at or below the
/// ~8-neighbor density anchor — the point-lookup shape of serving traffic,
/// and tight enough that the shard router can prune (a search sphere wider
/// than a shard fans out everywhere).
fn build_requests(points: &[Vec3], num_requests: usize, base_r: f32) -> Vec<Request> {
    let plans = [
        QueryPlan::knn(base_r * 0.5, 8),
        QueryPlan::range(base_r * 0.5, 32),
        QueryPlan::knn(base_r * 0.6, 4),
        QueryPlan::range(base_r * 0.35, 16),
    ];
    (0..num_requests)
        .map(|i| {
            let len = 4 + (i % 3) * 6; // 4 / 10 / 16 queries
            let queries: Vec<Vec3> = (0..len)
                .map(|j| points[(i * 131 + j * 17) % points.len()])
                .collect();
            Request::new(queries, plans[i % plans.len()].clone())
        })
        .collect()
}

/// Run the serving experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure S (extension): request coalescing and spatial sharding under offered load",
    );
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);

    let num_points = (1_500_000 / scale.dataset_divisor).max(8_000);
    let cloud = uniform::generate(&UniformParams {
        num_points,
        seed: 0x5345_5256, // "SERV"
        ..Default::default()
    });
    let points = cloud.points;
    let side = rtnn_math::Aabb::from_points(&points).longest_extent();
    let base_r = side * (8.0 / num_points as f32).cbrt();
    let num_requests = (scale.query_cap / 5).clamp(60, 300);
    let requests = build_requests(&points, num_requests, base_r);

    // Serving configurations under comparison.
    let coalesced_cfg = ServeConfig::default()
        .with_window_us(500)
        .with_max_batch(32);
    let serial_cfg = ServeConfig::default().with_max_batch(1);

    // Capacity anchor: the one-request-per-call rate on a warm index when
    // requests are always waiting (everything arrives at t=0⁺).
    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let burst: Vec<f64> = (0..requests.len()).map(|i| i as f64 * 1e-6).collect();
    let serial_burst = run_virtual(&mut index, &requests, &burst, &serial_cfg);
    let capacity_qps = serial_burst.achieved_qps;

    // Offered-load sweep (fractions of the serial capacity).
    let mut sweep = Table::new(
        format!(
            "{} points, {} requests ({} queries), offered load as a fraction of the \
             one-request-per-call capacity ({:.0} req/s simulated)",
            points.len(),
            requests.len(),
            requests.iter().map(|r| r.queries.len()).sum::<usize>(),
            capacity_qps,
        ),
        &[
            "load",
            "offered req/s",
            "coalesced req/s",
            "batch avg",
            "p50 ms",
            "p99 ms",
            "serial req/s",
            "serial p99 ms",
        ],
    );
    let mut peak_qps: f64 = 0.0;
    let mut p99_at_80 = 0.0;
    let mut speedup_at_saturation = 0.0;
    for (li, load) in [0.25, 0.5, 0.8, 1.5, 3.0].iter().enumerate() {
        let offered = capacity_qps * load;
        let arrivals = poisson_arrivals(requests.len(), offered, 0xA0 + li as u64);
        let mut on_index = Index::build(&backend, &points[..], EngineConfig::default());
        let on = run_virtual(&mut on_index, &requests, &arrivals, &coalesced_cfg);
        let mut off_index = Index::build(&backend, &points[..], EngineConfig::default());
        let off = run_virtual(&mut off_index, &requests, &arrivals, &serial_cfg);
        peak_qps = peak_qps.max(on.achieved_qps);
        if (*load - 0.8).abs() < 1e-9 {
            p99_at_80 = on.latency_ms(0.99);
        }
        if (*load - 3.0).abs() < 1e-9 {
            speedup_at_saturation = on.achieved_qps / off.achieved_qps.max(1e-12);
        }
        sweep.push_row(vec![
            format!("{:.0}%", load * 100.0),
            format!("{offered:.0}"),
            format!("{:.0}", on.achieved_qps),
            format!("{:.1}", on.stats.mean_tick_requests()),
            fmt_ms(on.latency_ms(0.5)),
            fmt_ms(on.latency_ms(0.99)),
            format!("{:.0}", off.achieved_qps),
            fmt_ms(off.latency_ms(0.99)),
        ]);
    }
    report.tables.push(sweep);

    // Shard scaling: one saturated tick (every request fused) served by a
    // ShardedIndex; the simulated critical path is the slowest shard.
    let tick: Vec<&Request> = requests.iter().collect();
    let mut shard_table = Table::new(
        "simulated critical path of one fully fused tick vs shard count \
         (Morton-range shards, per-shard work in parallel)",
        &[
            "shards",
            "critical path",
            "total work",
            "active",
            "speedup",
            "efficiency",
        ],
    );
    let mut crit_1 = 0.0;
    let mut scaling_efficiency = 0.0;
    let mut shard_speedup = 0.0;
    let mut shard_skew_8 = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), shards);
        // Warm the width caches so the tick measures steady-state serving.
        let (_, _) = execute_tick(&mut sharded, &tick);
        let (_, outcome) = execute_tick(&mut sharded, &tick);
        let timing = sharded.last_timing().clone();
        let crit = timing.critical_path_ms();
        if shards == 1 {
            crit_1 = crit;
        }
        let speedup = crit_1 / crit.max(1e-12);
        let efficiency = speedup / shards as f64;
        if shards == 8 {
            scaling_efficiency = efficiency;
            shard_speedup = speedup;
            shard_skew_8 = timing.skew();
        }
        shard_table.push_row(vec![
            shards.to_string(),
            fmt_ms(crit),
            fmt_ms(timing.total_ms()),
            format!("{}/{}", timing.active_shards(), sharded.num_shards()),
            fmt_speedup(speedup),
            format!("{:.0}%", efficiency * 100.0),
        ]);
        let _ = outcome;
    }
    report.tables.push(shard_table);

    report.headline_metric("serve_peak_qps", peak_qps);
    report.headline_metric("serve_p99_ms_at_80pct_load", p99_at_80);
    report.headline_metric("serve_coalescing_speedup", speedup_at_saturation);
    report.headline_metric("serve_shard_speedup_8", shard_speedup);
    report.headline_metric("serve_shard_scaling_efficiency", scaling_efficiency);
    report.headline_metric("serve_shard_skew", shard_skew_8);
    report.notes.push(format!(
        "at saturation (3x offered load) coalescing sustains {} the throughput of \
         one-request-per-call serving — fused ticks pay one data transfer, one \
         shared scheduling pass and one partitioning per merged parameter set",
        fmt_speedup(speedup_at_saturation),
    ));
    report.notes.push(format!(
        "spatial sharding cuts the simulated critical path of a saturated tick \
         {} with 8 Morton-range shards ({:.0}% parallel efficiency); the router \
         only fans each query to shards overlapping its search sphere",
        fmt_speedup(shard_speedup),
        scaling_efficiency * 100.0,
    ));
    report
        .notes
        .push("all numbers are virtual-time/simulated and seeded: reruns are bit-identical".into());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_beats_serial_serving_at_saturation() {
        let report = run(&ExperimentScale::smoke_test());
        let metric = |name: &str| -> f64 {
            report
                .headline
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing headline metric {name}"))
                .1
        };
        // The acceptance criterion of the serving subsystem: coalescing
        // beats one-request-per-call throughput by at least 1.3x when the
        // service is saturated.
        assert!(
            metric("serve_coalescing_speedup") >= 1.3,
            "coalescing speedup {} below the 1.3x bar",
            metric("serve_coalescing_speedup")
        );
        assert!(metric("serve_peak_qps") > 0.0);
        assert!(metric("serve_p99_ms_at_80pct_load") > 0.0);
        // Sharding must help, not hurt, the saturated critical path.
        assert!(
            metric("serve_shard_speedup_8") > 1.0,
            "8 shards should beat 1, got {}",
            metric("serve_shard_speedup_8")
        );
        // Skew is critical-path over ideal parallel time: >= 1 whenever the
        // tick fanned out at all (the `serve.shard.skew` gauge's source).
        assert!(
            metric("serve_shard_skew") >= 1.0,
            "skew {} below 1",
            metric("serve_shard_skew")
        );
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].rows.len(), 5);
        assert_eq!(report.tables[1].rows.len(), 4);
    }
}
