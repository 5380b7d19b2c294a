//! Figures 7 and 8: the effect of the AABB size.
//!
//! With a fixed query set, the per-point AABB width in the BVH is swept
//! (the paper uses 0.3–30 on KITTI); search time (Figure 7) and the number
//! of IS shader calls (Figure 8) both grow super-linearly with the width,
//! because the number of AABBs a query resides in grows with the AABB
//! volume (∝ width³).

use crate::report::{fmt_ms, FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::characterization_workload;
use rtnn::shaders::{QueryIndexing, RangeProgram};
use rtnn_bvh::{build_point_bvh, BuildParams};
use rtnn_gpusim::{Device, IsShaderKind};
use rtnn_math::Vec3;
use rtnn_optix::Pipeline;

/// Width multipliers applied to the dataset's default radius; the paper's
/// sweep spans two orders of magnitude.
const WIDTH_FACTORS: [f32; 6] = [0.3, 0.6, 1.0, 2.0, 3.0, 5.0];

/// Run the Figure 7 + Figure 8 experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new("Figures 7 and 8: search time and IS calls vs AABB width");
    let device = Device::rtx_2080_ti();
    let workload = characterization_workload(scale);
    // Keep the query count moderate: the large-AABB end of the sweep makes
    // every query intersect many AABBs.
    let queries: Vec<Vec3> = workload
        .queries
        .iter()
        .take(scale.query_cap.min(5_000))
        .copied()
        .collect();

    let mut table = Table::new(
        "Search time and IS calls vs AABB width (fixed query count)",
        &["AABB width", "search time", "IS calls", "IS calls / query"],
    );
    let mut series: Vec<(f32, f64, u64)> = Vec::new();
    for factor in WIDTH_FACTORS {
        let width = workload.radius * factor;
        let bvh = build_point_bvh(&workload.points, width / 2.0, BuildParams::default());
        // A pure step-1/step-2 exercise: range search with an effectively
        // unbounded K and a radius matching the AABB (the paper varies only
        // the AABB in the BVH).
        let program = RangeProgram {
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: width / 2.0,
            k: usize::MAX,
            sphere_test: true,
        };
        let launch = Pipeline::new(&device).launch(
            &bvh,
            queries.len(),
            &program,
            IsShaderKind::RangeSphereTest,
        );
        table.push_row(vec![
            format!("{width:.3}"),
            fmt_ms(launch.metrics.time_ms()),
            launch.metrics.is_calls.to_string(),
            format!(
                "{:.1}",
                launch.metrics.is_calls as f64 / queries.len() as f64
            ),
        ]);
        series.push((width, launch.metrics.time_ms(), launch.metrics.is_calls));
    }
    report.tables.push(table);

    // Shape checks reported as notes: both series must be increasing, and
    // the growth of IS calls must be super-linear in the width.
    let monotone_time = series.windows(2).all(|w| w[1].1 >= w[0].1);
    let monotone_is = series.windows(2).all(|w| w[1].2 >= w[0].2);
    report.notes.push(format!(
        "search time monotone in AABB width: {monotone_time}; IS calls monotone: {monotone_is} (paper: both grow, IS calls super-linearly)"
    ));
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        if first.2 > 0 {
            let width_ratio = (last.0 / first.0) as f64;
            let is_ratio = last.2 as f64 / first.2 as f64;
            report.notes.push(format!(
                "width grew {width_ratio:.0}x, IS calls grew {is_ratio:.0}x (super-linear growth expected)"
            ));
            report.headline_metric("is_call_growth_over_width_sweep", is_ratio);
            report.headline_metric("time_growth_over_width_sweep", last.1 / first.1.max(1e-12));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_one_row_per_width() {
        let report = run(&ExperimentScale::smoke_test());
        assert_eq!(report.tables[0].rows.len(), WIDTH_FACTORS.len());
    }

    #[test]
    fn is_calls_grow_with_width() {
        let report = run(&ExperimentScale::smoke_test());
        let is_calls: Vec<u64> = report.tables[0]
            .rows
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(is_calls.windows(2).all(|w| w[1] >= w[0]), "{is_calls:?}");
        assert!(*is_calls.last().unwrap() > *is_calls.first().unwrap());
    }
}
