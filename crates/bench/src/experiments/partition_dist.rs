//! Figure 16 (Appendix C): the number of queries in a partition is inversely
//! correlated with the partition's AABB size — the empirical fact the
//! optimal-bundling theorem builds on.

use crate::report::{FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::{Workload, DEFAULT_K};
use rtnn::partition::{partition_queries, KnnAabbRule};
use rtnn::{MegacellGrid, SearchMode, SearchParams};
use rtnn_data::DatasetName;
use rtnn_gpusim::Device;

/// Spearman-style rank correlation between two series.
pub fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).unwrap());
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let ra = rank(a);
    let rb = rank(b);
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        num += (ra[i] - mean) * (rb[i] - mean);
        da += (ra[i] - mean).powi(2);
        db += (rb[i] - mean).powi(2);
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

/// Run the Figure 16 experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new("Figure 16: queries per partition vs partition AABB size");
    let device = Device::rtx_2080();
    // The non-uniform N-body input produces the richest partition structure.
    let workload = Workload::for_dataset(DatasetName::NBody9M, scale);
    let params = SearchParams {
        radius: workload.radius,
        k: DEFAULT_K,
        mode: SearchMode::Knn,
    };
    let order: Vec<u32> = (0..workload.queries.len() as u32).collect();
    let grid = MegacellGrid::build(&workload.points, 1 << 21).expect("the workload has points");
    let set = partition_queries(
        &device,
        &grid,
        &workload.queries,
        &order,
        &params,
        KnnAabbRule::Guaranteed,
        None,
    );

    let mut table = Table::new(
        format!("Partitions of {} (KNN, K = {DEFAULT_K})", workload.name),
        &["AABB size", "#queries", "sphere test"],
    );
    let mut widths = Vec::new();
    let mut counts = Vec::new();
    for p in &set.partitions {
        table.push_row(vec![
            format!("{:.3}", p.aabb_width),
            p.len().to_string(),
            if p.sphere_test { "yes" } else { "no" }.to_string(),
        ]);
        widths.push(p.aabb_width as f64);
        counts.push(p.len() as f64);
    }
    report.tables.push(table);

    let corr = rank_correlation(&widths, &counts);
    report.notes.push(format!(
        "rank correlation between AABB size and query count: {corr:.2} (paper: strongly negative — most queries live in the small-AABB partitions)"
    ));
    report
        .notes
        .push(format!("{} partitions in total", set.partitions.len()));
    report.headline_metric("size_vs_count_rank_correlation", corr);
    report.headline_metric("num_partitions", set.partitions.len() as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_correlation_extremes() {
        assert!((rank_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-9);
        assert!((rank_correlation(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-9);
        assert_eq!(rank_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn smoke_run_produces_partitions() {
        let report = run(&ExperimentScale::smoke_test());
        assert!(!report.tables[0].rows.is_empty());
    }
}
