//! Section 3.1 micro-measurement: the step-2 (IS shader) work is an order of
//! magnitude more expensive than the step-1 (ray–AABB traversal) work, which
//! is why RTNN casts degenerate short rays instead of long ones.

use crate::report::{FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::characterization_workload;
use rtnn::shaders::{QueryIndexing, RangeProgram};
use rtnn_bvh::{build_point_bvh, BuildParams};
use rtnn_gpusim::{Device, IsShaderKind};
use rtnn_math::Vec3;
use rtnn_optix::Pipeline;

/// Run the micro-benchmark.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Section 3.1 micro-benchmark: step 1 (traversal) vs step 2 (IS shader) cost",
    );
    let device = Device::rtx_2080();
    let workload = characterization_workload(scale);
    let queries: Vec<Vec3> = workload
        .queries
        .iter()
        .take(scale.query_cap.min(10_000))
        .copied()
        .collect();
    let bvh = build_point_bvh(&workload.points, workload.radius, BuildParams::default());
    let program = RangeProgram {
        queries: &queries,
        indexing: QueryIndexing::Identity,
        radius: workload.radius,
        k: usize::MAX,
        sphere_test: true,
    };
    let launch =
        Pipeline::new(&device).launch(&bvh, queries.len(), &program, IsShaderKind::RangeSphereTest);
    let m = &launch.metrics;
    let cost = device.config().cost;

    let mut table = Table::new(
        "Per-invocation cost-model constants and measured launch totals",
        &[
            "quantity",
            "count in launch",
            "cycles per invocation",
            "total cycles charged",
        ],
    );
    table.push_row(vec![
        "step 1: BVH node traversal (RT cores)".into(),
        m.node_visits.to_string(),
        format!("{:.1}", cost.node_test_cycles),
        format!("{:.0}", m.kernel.rt_core_cycles),
    ]);
    table.push_row(vec![
        "step 2: IS shader call, range + sphere test (SMs)".into(),
        m.is_calls.to_string(),
        format!("{:.1}", cost.is_range_cycles),
        format!("{:.0}", m.kernel.sm_cycles),
    ]);
    table.push_row(vec![
        "step 2: IS shader call, KNN priority queue (SMs)".into(),
        "-".into(),
        format!("{:.1}", cost.is_knn_cycles),
        "-".into(),
    ]);
    report.tables.push(table);
    report.notes.push(format!(
        "per-invocation IS : node-test cost ratio = {:.0}:1 (paper: step 2 is an order of magnitude more expensive than step 1)",
        cost.is_range_cycles / cost.node_test_cycles
    ));
    report.notes.push(format!(
        "warp-level execution hides part of that gap: this launch charged {:.0} SM cycles vs {:.0} RT-core cycles",
        m.kernel.sm_cycles, m.kernel.rt_core_cycles
    ));
    report.headline_metric(
        "is_to_node_test_cost_ratio",
        cost.is_range_cycles / cost.node_test_cycles,
    );
    report.headline_metric(
        "sm_to_rt_cycles_ratio",
        m.kernel.sm_cycles / m.kernel.rt_core_cycles.max(1e-12),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_calls_are_at_least_an_order_of_magnitude_costlier() {
        let report = run(&ExperimentScale::smoke_test());
        let note = &report.notes[0];
        let ratio: f64 = note
            .split(" = ")
            .nth(1)
            .unwrap()
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(ratio >= 10.0, "ratio {ratio} too small: {note}");
        assert_eq!(report.tables[0].rows.len(), 3);
    }
}
