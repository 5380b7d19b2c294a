//! Figure 15 (Appendix B): BVH construction time is linear in the number of
//! AABBs.
//!
//! The paper regresses a linear fit with R² = 0.996; the bundling cost model
//! (`T_build = k1 · M`) rests on that fact. This experiment sweeps the
//! primitive count, measures the simulated build time of the acceleration
//! structure, and reports the same regression.

use crate::report::{fmt_ms, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn_bvh::BuildParams;
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_optix::Accel;

/// Linear regression of `y` on `x`; returns `(slope, intercept, r_squared)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxx += (xi - mean_x) * (xi - mean_x);
        sxy += (xi - mean_x) * (yi - mean_y);
        syy += (yi - mean_y) * (yi - mean_y);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    (slope, intercept, r2)
}

/// Run the Figure 15 experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new("Figure 15: BVH build time vs number of AABBs");
    let device = Device::rtx_2080_ti();
    // Sweep primitive counts; the paper goes to 36 M — scale down accordingly.
    let max_points = (36_000_000 / scale.dataset_divisor).max(6_000);
    let counts: Vec<usize> = (1..=6).map(|i| max_points * i / 6).collect();

    let mut table = Table::new(
        "Simulated acceleration-structure build time",
        &["#AABBs", "build time"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &counts {
        let cloud = uniform::generate(&UniformParams {
            num_points: n,
            seed: 42,
            ..Default::default()
        });
        let accel = Accel::build(&device, &cloud.points, 1.0, BuildParams::default())
            .expect("build sweep fits the device");
        table.push_row(vec![n.to_string(), fmt_ms(accel.build_time_ms())]);
        xs.push(n as f64);
        ys.push(accel.build_time_ms());
    }
    report.tables.push(table);

    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    report.notes.push(format!(
        "linear fit: build_ms = {slope:.3e} * AABBs + {intercept:.4}, R² = {r2:.4} (paper: R² = 0.996)"
    ));
    report.headline_metric("build_time_linear_fit_r2", r2);
    report.headline_metric("build_ms_per_million_aabbs", slope * 1e6);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_a_perfect_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn build_time_is_essentially_linear() {
        let report = run(&ExperimentScale::smoke_test());
        let note = report.notes.last().unwrap();
        let r2: f64 = note
            .split("R² = ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(r2 > 0.99, "R² {r2} too low: {note}");
    }
}
