//! Extension figure: adaptive stage tuning vs the static `OptLevel` ladder.
//!
//! PR 9's continuous profiler showed the motivating regression: the fully
//! optimised pipeline (`OptLevel::Full`, the default) *loses* to NoOpt on
//! the scaled NBody-9M range workload — the paper's own Figure 13 story,
//! where the Oracle disables partitioning on non-uniform inputs. This
//! experiment measures what the online [`rtnn::AutoTuner`] recovers of
//! that oracle gap without a-priori knowledge:
//!
//! * every (dataset × mode) cell runs the full static ladder to
//!   steady state (second, warm run per rung — the regime an online
//!   policy competes in) through [`rtnn::StageOverrides::for_level`];
//! * the same cell then runs a fresh index through a caller-owned
//!   [`rtnn::AutoTuner`] (`AutoTuner::run` around `Index::query_with`) for
//!   a handful of rounds: cost-model cold start, one bootstrap round per
//!   arm, then measured exploitation;
//! * headlines: `auto_regret_vs_best_pct` (worst-case loss to the best
//!   static rung, hard-gated at ≤ 5% by an assertion in [`run`]),
//!   `auto_gain_vs_worst_pct` on the regression workload (NBody range),
//!   and `auto_bit_equal_checks` — every auto round's neighbor lists are
//!   asserted equal to the static reference (bit-equal KNN, set-equal
//!   range, the same contract the opt-level ladder itself guarantees), so
//!   tuning provably never changes answers.

use crate::report::{fmt_ms, headline_slug, FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::{Workload, DEFAULT_K};
use rtnn::autotune::DEFAULT_SEED;
use rtnn::{
    AutoTuner, Backend, CostCoefficients, DecisionSource, EngineConfig, GpusimBackend, Index,
    OptLevel, QueryPlan, SearchMode, SearchParams, StageOverrides,
};
use rtnn_data::DatasetName;
use rtnn_gpusim::Device;

/// Regret gate: auto must stay within this percentage of the best static
/// rung on every workload (the ISSUE's acceptance bound).
const MAX_REGRET_PCT: f64 = 5.0;
/// Rounds of auto-tuned querying per cell: enough for the cost-model cold
/// start, one bootstrap round per arm, and several measured exploit rounds.
const MAX_ROUNDS: usize = 16;
/// Measured (exploit) rounds required before the cell's steady state is
/// read off.
const MEASURED_ROUNDS: usize = 3;

struct Cell {
    dataset: String,
    mode: &'static str,
    /// Steady-state simulated ms per static ladder rung.
    ladder_ms: [f64; 4],
    steady_auto_ms: f64,
    chosen: OptLevel,
    bit_equal_checks: u64,
}

impl Cell {
    fn best_ms(&self) -> f64 {
        self.ladder_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn worst_ms(&self) -> f64 {
        self.ladder_ms.iter().copied().fold(0.0, f64::max)
    }

    fn regret_pct(&self) -> f64 {
        (self.steady_auto_ms - self.best_ms()) / self.best_ms().max(1e-12) * 100.0
    }

    fn gain_vs_worst_pct(&self) -> f64 {
        (self.worst_ms() - self.steady_auto_ms) / self.steady_auto_ms.max(1e-12) * 100.0
    }
}

/// Non-truncating result cap for the range cells: the cross-rung equality
/// invariant below only holds when no rung drops neighbors to a cap.
const RANGE_CAP: usize = 100_000;

/// Canonical neighbor lists for cross-rung comparison: KNN results are
/// bit-equal across the ladder; range results are *set*-equal (traversal
/// order differs per rung), so they are compared sorted.
fn canonical(mode: SearchMode, neighbors: &[Vec<u32>]) -> Vec<Vec<u32>> {
    match mode {
        SearchMode::Knn => neighbors.to_vec(),
        SearchMode::Range => neighbors
            .iter()
            .map(|n| {
                let mut n = n.clone();
                n.sort_unstable();
                n
            })
            .collect(),
    }
}

/// Run one (dataset × mode) cell: static ladder to steady state, then the
/// auto-tuned index, with every round's results checked equal.
fn run_cell(device: &Device, workload: &Workload, mode: SearchMode) -> Cell {
    let plan = match mode {
        SearchMode::Knn => QueryPlan::from_params(SearchParams {
            radius: workload.radius,
            k: DEFAULT_K,
            mode,
        }),
        SearchMode::Range => QueryPlan::range(workload.radius, RANGE_CAP),
    };
    // The default (Guaranteed) KNN AABB rule: the cross-rung equality
    // invariant requires exact KNN, and the paper's EquiVolume heuristic is
    // not guaranteed exact — its candidate set can shift with partitioning.
    let config = EngineConfig::default();
    let backend = GpusimBackend::new(device);

    // Static ladder, steady state: one shared index, each rung driven
    // through its per-call stage overrides. The first pass per rung builds
    // that rung's structures (width caches, grids); the second is the
    // steady-state time an online policy competes against.
    let mut statics = Index::build(&backend, &workload.points[..], config);
    let mut ladder_ms = [0.0; 4];
    let mut reference: Option<Vec<Vec<u32>>> = None;
    let mut bit_equal_checks = 0u64;
    for (i, level) in OptLevel::all().into_iter().enumerate() {
        let overrides = StageOverrides::for_level(level);
        statics
            .query_with(&workload.queries, &plan, overrides)
            .expect("ladder warm-up fits the device");
        let steady = statics
            .query_with(&workload.queries, &plan, overrides)
            .expect("ladder run fits the device");
        ladder_ms[i] = steady.total_time_ms();
        // The ladder invariant the tuner relies on: every rung returns the
        // same neighbors (bit-equal KNN, set-equal range — see canonical).
        let neighbors = canonical(mode, &steady.neighbors);
        match &reference {
            Some(r) => {
                assert_eq!(
                    &neighbors, r,
                    "{} {:?}: ladder rung {level:?} diverged",
                    workload.name, mode
                );
                bit_equal_checks += 1;
            }
            None => reference = Some(neighbors),
        }
    }
    let reference = reference.expect("ladder populated the reference");

    // Auto: a fresh index driven through a seeded tuner with the device's
    // cost model, run until it has exploited its measurements for a few
    // rounds (cap as a safety net — with the deterministic seed the cap is
    // never the exit path).
    let mut auto = Index::build(&backend, &workload.points[..], config);
    let mut tuner =
        AutoTuner::new(DEFAULT_SEED).with_cost_model(CostCoefficients::calibrate(device));
    let mut steady_auto_ms = f64::NAN;
    let mut chosen = OptLevel::default();
    let mut measured = 0usize;
    for _ in 0..MAX_ROUNDS {
        let (decision, results) = tuner.run(
            plan.kind_label(),
            workload.points.len(),
            backend.name(),
            workload.queries.len(),
            |overrides| auto.query_with(&workload.queries, &plan, overrides),
        );
        let results = results.expect("auto run fits the device");
        assert_eq!(
            canonical(mode, &results.neighbors),
            reference,
            "{} {:?}: an auto-tuned round changed the answer",
            workload.name,
            mode
        );
        bit_equal_checks += 1;
        if decision.source == DecisionSource::Measured {
            measured += 1;
            steady_auto_ms = results.total_time_ms();
            chosen = decision.level;
            if measured >= MEASURED_ROUNDS {
                break;
            }
        }
    }
    assert!(
        measured >= 1,
        "{} {:?}: the tuner never reached a measured decision",
        workload.name,
        mode
    );

    Cell {
        dataset: workload.name.clone(),
        mode: match mode {
            SearchMode::Knn => "knn",
            SearchMode::Range => "range",
        },
        ladder_ms,
        steady_auto_ms,
        chosen,
        bit_equal_checks,
    }
}

/// Run the adaptive-tuning experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report =
        FigureReport::new("Figure A2 (extension): adaptive stage tuning vs the static ladder");
    let device = Device::rtx_2080();

    let mut table = Table::new(
        format!("Auto tuning on {}", device.config().name),
        &[
            "workload",
            "best static",
            "worst static",
            "auto (steady)",
            "chosen",
            "regret vs best",
        ],
    );
    let mut cells = Vec::new();
    for dataset in [DatasetName::Kitti12M, DatasetName::NBody9M] {
        let workload = Workload::for_dataset(dataset, scale);
        for mode in [SearchMode::Knn, SearchMode::Range] {
            cells.push(run_cell(&device, &workload, mode));
        }
    }

    let mut worst_regret = 0.0f64;
    let mut total_checks = 0u64;
    for cell in &cells {
        let regret = cell.regret_pct();
        worst_regret = worst_regret.max(regret);
        total_checks += cell.bit_equal_checks;
        table.push_row(vec![
            format!("{} {}", cell.dataset, cell.mode),
            fmt_ms(cell.best_ms()),
            fmt_ms(cell.worst_ms()),
            fmt_ms(cell.steady_auto_ms),
            cell.chosen.label().to_string(),
            format!("{regret:.2}%"),
        ]);
        let slug = headline_slug(&cell.dataset);
        report.headline_metric(
            format!("{slug}_{}_auto_regret_vs_best_pct", cell.mode),
            regret,
        );
        // The acceptance gate: auto may lose at most MAX_REGRET_PCT to the
        // best static rung, on every workload. Simulated time is
        // deterministic, so this is a hard invariant, not a flaky bound.
        assert!(
            regret <= MAX_REGRET_PCT,
            "{} {}: auto regret {regret:.2}% exceeds {MAX_REGRET_PCT}%",
            cell.dataset,
            cell.mode
        );
    }
    report.tables.push(table);

    report.headline_metric("auto_regret_vs_best_pct", worst_regret);
    report.headline_metric("auto_bit_equal_checks", total_checks as f64);
    // The motivating regression: on NBody range the default Full rung can
    // lose to NoOpt (`full_speedup_vs_noopt < 1.0` in Figure 13). Auto
    // must recover the measured gap: its steady state sits at the best
    // rung (the regret gate above), so its gain over the worst rung is
    // the full spread.
    let regression = cells
        .iter()
        .find(|c| c.dataset.contains("NBody") && c.mode == "range")
        .expect("the NBody range cell ran");
    report.headline_metric("auto_gain_vs_worst_pct", regression.gain_vs_worst_pct());
    report.notes.push(format!(
        "NBody range (the Fig. 13 regression case): static spread {} → {}, auto settles on {} at {} ({:+.1}% vs worst rung)",
        fmt_ms(regression.worst_ms()),
        fmt_ms(regression.best_ms()),
        regression.chosen.label(),
        fmt_ms(regression.steady_auto_ms),
        regression.gain_vs_worst_pct(),
    ));
    report.notes.push(format!(
        "worst-case auto regret across the grid: {worst_regret:.2}% (gate: ≤ {MAX_REGRET_PCT}%); every auto round bit-equal to the static reference ({total_checks} checks)"
    ));
    report.notes.push(
        "decision flow: cost model on the first-ever query per signature, one bootstrap round per ladder rung, then seeded ε-greedy exploitation of the measured per-stage timings"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_gates_regret_and_equality() {
        // Tighter than the shared smoke scale: the auto grid runs ~17
        // pipeline executions per cell (full ladder twice + the tuner's
        // bootstrap/exploit rounds), which is an order of magnitude more
        // than the other figures' smokes — keep the debug-profile CI run
        // affordable. The CI fig_auto *binary* smoke still runs the shared
        // RTNN_SCALE=10000 grid in release.
        let scale = ExperimentScale {
            dataset_divisor: 50_000,
            query_cap: 100,
            ..ExperimentScale::smoke_test()
        };
        let report = run(&scale);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 4, "2 datasets x 2 modes");
        let headline = |name: &str| -> f64 {
            report
                .headline
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing headline {name}"))
                .1
        };
        // The run() asserts already gate regret; re-check the exported
        // headline is consistent with the gate.
        assert!(headline("auto_regret_vs_best_pct") <= MAX_REGRET_PCT);
        // 3 ladder cross-checks + at least 5 auto rounds, per cell.
        assert!(headline("auto_bit_equal_checks") >= 4.0 * 8.0);
        assert!(headline("auto_gain_vs_worst_pct") >= 0.0);
        // Per-workload regret headlines exist for the whole grid (the slug
        // embeds the scale, e.g. `kitti_12m__1_200_scale__...`, so match by
        // prefix + suffix rather than exact name).
        for slug in ["kitti_12m", "nbody_9m"] {
            for mode in ["knn", "range"] {
                let suffix = format!("_{mode}_auto_regret_vs_best_pct");
                assert!(
                    report
                        .headline
                        .iter()
                        .any(|(n, _)| n.starts_with(slug) && n.ends_with(&suffix)),
                    "missing per-cell regret headline for {slug} {mode}"
                );
            }
        }
    }
}
