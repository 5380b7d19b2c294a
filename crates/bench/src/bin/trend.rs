//! `rtnn-trend`: perf-regression tracking over the figure headline metrics.
//!
//! Every experiment binary persists a `FigureReport` under `results/`, and
//! `reproduce_all` folds the headline metrics into `results/summary.json`.
//! This tool diffs the *current* headlines against noise-aware baselines
//! kept under `results/baselines/` — one JSON file per figure, holding the
//! last few recorded runs of every metric (the baseline is the median, so a
//! single noisy run neither poisons the baseline nor trips the check) — and
//! exits nonzero when a metric regressed in its bad direction beyond its
//! tolerance band.
//!
//! Metric direction is classified from the headline name (the naming
//! conventions `report::headline_slug` enforces): `*speedup*` / `*qps*` /
//! `*throughput*` must not fall, `*_ms` / `*overhead*` / `*skew*` must not
//! rise, and equality/structure headlines (`*bit_equal*`, `*checks*`,
//! `*count*`, `*points*`, `*clusters*`) must not shrink at all — those are
//! deterministic at any fixed scale, which is why CI gates on them
//! (`--check --equality-only`) at smoke scale while the perf bands are
//! refreshed from full-scale nightly runs.
//!
//! Baselines are scale-stamped: a check silently skips figures whose
//! baseline was recorded at a different `RTNN_SCALE`, so smoke baselines
//! and full-scale baselines coexist in the same directory. A baseline
//! recorded at the current scale must be met, though: a metric of a judged
//! class that it holds and the current results lack fails the check, so a
//! check run before the figures (or after one that wrote nothing) cannot
//! pass by judging nothing.
//!
//! ```text
//! rtnn-trend --record              # fold current results into baselines
//! rtnn-trend --check               # diff, exit 1 on regression
//! rtnn-trend --check --equality-only
//! rtnn-trend --self-test           # exercise the detector end to end
//! ```
//!
//! Every invocation appends one JSON line to
//! `results/baselines/trajectory.jsonl` — the longitudinal record of every
//! headline across PRs.

use rtnn_bench::report::json_f64;
use rtnn_telemetry::export::json_escape;
use rtnn_telemetry::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Runs kept per metric; the baseline is their median.
const MAX_RUNS: usize = 8;
/// Relative tolerance band for perf (non-equality) metrics.
const DEFAULT_TOLERANCE_PCT: f64 = 25.0;
/// Perf values below this are noise-floor; never judged.
const ABS_FLOOR: f64 = 1e-9;

/// How a headline metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricClass {
    /// Deterministic structure/equality headline: must not shrink at all.
    Equality,
    /// Larger is better (speedups, throughput): must not fall past band.
    HigherIsBetter,
    /// Smaller is better (times, overheads, skew): must not rise past band.
    LowerIsBetter,
    /// Tracked in the trajectory but never failed.
    Track,
}

impl MetricClass {
    fn label(self) -> &'static str {
        match self {
            MetricClass::Equality => "equality",
            MetricClass::HigherIsBetter => "higher",
            MetricClass::LowerIsBetter => "lower",
            MetricClass::Track => "track",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "equality" => Some(MetricClass::Equality),
            "higher" => Some(MetricClass::HigherIsBetter),
            "lower" => Some(MetricClass::LowerIsBetter),
            "track" => Some(MetricClass::Track),
            _ => None,
        }
    }
}

/// Classify a headline by its (slugged) name.
fn classify(name: &str) -> MetricClass {
    let n = name.to_ascii_lowercase();
    let has = |pats: &[&str]| pats.iter().any(|p| n.contains(p));
    if has(&[
        "bit_equal",
        "_equal",
        "checks",
        "count",
        "points",
        "clusters",
        "signatures",
        "exemplars",
    ]) {
        MetricClass::Equality
    } else if has(&["speedup", "qps", "throughput", "hit_rate", "geomean"]) {
        MetricClass::HigherIsBetter
    } else if has(&[
        "_ms", "ms_", "overhead", "gap_pct", "skew", "latency", "time", "cost",
    ]) {
        MetricClass::LowerIsBetter
    } else {
        MetricClass::Track
    }
}

/// Median of a non-empty slice.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metric values"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// One metric's baseline: its recorded runs plus judgement parameters.
#[derive(Debug, Clone)]
struct MetricBaseline {
    class: MetricClass,
    tolerance_pct: f64,
    runs: Vec<f64>,
}

impl MetricBaseline {
    fn baseline(&self) -> f64 {
        median(&self.runs)
    }
}

/// The persisted baseline of one figure.
#[derive(Debug, Clone, Default)]
struct FigureBaseline {
    figure: String,
    scale: String,
    metrics: BTreeMap<String, MetricBaseline>,
}

/// Current headlines of one figure, read from `results/`.
#[derive(Debug, Clone)]
struct FigureHeadlines {
    slug: String,
    figure: String,
    metrics: Vec<(String, f64)>,
}

/// The verdict on one judged metric.
#[derive(Debug, Clone)]
struct Verdict {
    slug: String,
    name: String,
    class: MetricClass,
    baseline: f64,
    /// `None` when the current results lack the metric.
    current: Option<f64>,
    regressed: bool,
    note: &'static str,
}

/// The `RTNN_SCALE` stamp for baselines ("default" when unset).
fn scale_stamp() -> String {
    std::env::var("RTNN_SCALE").unwrap_or_else(|_| "default".to_string())
}

/// Read every figure's current headlines: per-figure `<slug>.json` reports
/// first, then `summary.json` entries for figures without a report file.
/// Entries whose slug mentions `provenance` are metadata, not metrics.
fn read_current(results: &Path) -> Result<Vec<FigureHeadlines>, String> {
    let mut by_slug: BTreeMap<String, FigureHeadlines> = BTreeMap::new();

    let entries = std::fs::read_dir(results)
        .map_err(|e| format!("cannot read results dir {}: {e}", results.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if path.extension().and_then(|e| e.to_str()) != Some("json")
            || stem == "summary"
            || stem.contains("provenance")
        {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let figure = value
            .get("figure")
            .and_then(JsonValue::as_str)
            .unwrap_or(stem)
            .to_string();
        let Some(headline) = value.get("headline").and_then(JsonValue::as_array) else {
            continue; // not a FigureReport
        };
        let mut metrics = Vec::new();
        for pair in headline {
            let Some(items) = pair.as_array() else {
                continue;
            };
            if let (Some(name), Some(v)) = (
                items.first().and_then(JsonValue::as_str),
                items.get(1).and_then(JsonValue::as_f64),
            ) {
                metrics.push((name.to_string(), v));
            }
        }
        by_slug.insert(
            stem.to_string(),
            FigureHeadlines {
                slug: stem.to_string(),
                figure,
                metrics,
            },
        );
    }

    // summary.json fills in figures whose per-figure report is absent.
    let summary = results.join("summary.json");
    if let Ok(text) = std::fs::read_to_string(&summary) {
        let value = parse_json(&text).map_err(|e| format!("{}: {e}", summary.display()))?;
        if let JsonValue::Object(figures) = value {
            for (figure, metrics) in figures {
                let slug = rtnn_bench::report::headline_slug(&figure);
                if slug.contains("provenance") || by_slug.contains_key(&slug) {
                    continue;
                }
                let JsonValue::Object(fields) = metrics else {
                    continue;
                };
                let metrics: Vec<(String, f64)> = fields
                    .into_iter()
                    .filter_map(|(name, v)| v.as_f64().map(|v| (name, v)))
                    .collect();
                by_slug.insert(
                    slug.clone(),
                    FigureHeadlines {
                        slug,
                        figure,
                        metrics,
                    },
                );
            }
        }
    }

    Ok(by_slug.into_values().collect())
}

fn baseline_path(baselines: &Path, slug: &str) -> PathBuf {
    baselines.join(format!("{slug}.json"))
}

fn read_baseline(path: &Path) -> Result<Option<FigureBaseline>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let value = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut baseline = FigureBaseline {
        figure: value
            .get("figure")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        scale: value
            .get("scale")
            .and_then(JsonValue::as_str)
            .unwrap_or("default")
            .to_string(),
        metrics: BTreeMap::new(),
    };
    let Some(metrics) = value.get("metrics").and_then(JsonValue::as_array) else {
        return Ok(Some(baseline));
    };
    for m in metrics {
        let (Some(name), Some(class)) = (
            m.get("name").and_then(JsonValue::as_str),
            m.get("class")
                .and_then(JsonValue::as_str)
                .and_then(MetricClass::from_label),
        ) else {
            continue;
        };
        let tolerance_pct = m
            .get("tolerance_pct")
            .and_then(JsonValue::as_f64)
            .unwrap_or(DEFAULT_TOLERANCE_PCT);
        let runs: Vec<f64> = m
            .get("runs")
            .and_then(JsonValue::as_array)
            .map(|rs| rs.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default();
        if runs.is_empty() {
            continue;
        }
        baseline.metrics.insert(
            name.to_string(),
            MetricBaseline {
                class,
                tolerance_pct,
                runs,
            },
        );
    }
    Ok(Some(baseline))
}

fn write_baseline(path: &Path, baseline: &FigureBaseline) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"figure\": \"{}\",", json_escape(&baseline.figure));
    let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&baseline.scale));
    let _ = writeln!(out, "  \"metrics\": [");
    let n = baseline.metrics.len();
    for (i, (name, m)) in baseline.metrics.iter().enumerate() {
        let runs = m
            .runs
            .iter()
            .map(|v| json_f64(*v))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"class\": \"{}\", \"tolerance_pct\": {}, \"runs\": [{}]}}",
            json_escape(name),
            m.class.label(),
            json_f64(m.tolerance_pct),
            runs,
        );
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Fold the current headlines of every figure into its baseline file.
fn record(results: &Path, baselines: &Path) -> Result<usize, String> {
    std::fs::create_dir_all(baselines)
        .map_err(|e| format!("cannot create {}: {e}", baselines.display()))?;
    let scale = scale_stamp();
    let current = read_current(results)?;
    let mut recorded = 0;
    for fig in &current {
        let path = baseline_path(baselines, &fig.slug);
        let mut baseline = match read_baseline(&path)? {
            // A scale change restarts the history: runs at different
            // scales are not comparable samples of the same quantity.
            Some(b) if b.scale == scale => b,
            _ => FigureBaseline::default(),
        };
        baseline.figure = fig.figure.clone();
        baseline.scale = scale.clone();
        for (name, value) in &fig.metrics {
            let entry = baseline
                .metrics
                .entry(name.clone())
                .or_insert_with(|| MetricBaseline {
                    class: classify(name),
                    tolerance_pct: DEFAULT_TOLERANCE_PCT,
                    runs: Vec::new(),
                });
            entry.runs.push(*value);
            if entry.runs.len() > MAX_RUNS {
                let excess = entry.runs.len() - MAX_RUNS;
                entry.runs.drain(..excess);
            }
            recorded += 1;
        }
        write_baseline(&path, &baseline)?;
    }
    Ok(recorded)
}

/// Judge one metric against its baseline; a judged metric the current
/// results lack (`current` is `None`) regressed.
fn judge(slug: &str, name: &str, current: Option<f64>, baseline: &MetricBaseline) -> Verdict {
    let base = baseline.baseline();
    let tol = baseline.tolerance_pct / 100.0;
    let (regressed, note) = match (baseline.class, current) {
        (MetricClass::Track, _) => (false, "tracked only"),
        (_, None) => (true, "missing from the current results"),
        (MetricClass::Equality, Some(current)) => {
            if current + ABS_FLOOR < base {
                (true, "structure/equality headline shrank")
            } else if current > base + ABS_FLOOR {
                (false, "grew (refresh baselines with --record)")
            } else {
                (false, "unchanged")
            }
        }
        (MetricClass::HigherIsBetter, Some(current)) => {
            if base > ABS_FLOOR && current < base * (1.0 - tol) {
                (true, "fell past the tolerance band")
            } else {
                (false, "within band")
            }
        }
        (MetricClass::LowerIsBetter, Some(current)) => {
            if base > ABS_FLOOR && current > base * (1.0 + tol) {
                (true, "rose past the tolerance band")
            } else {
                (false, "within band")
            }
        }
    };
    Verdict {
        slug: slug.to_string(),
        name: name.to_string(),
        class: baseline.class,
        baseline: base,
        current,
        regressed,
        note,
    }
}

/// The slugs of every baseline file under `baselines`, sorted (none when
/// the directory does not exist).
fn baseline_slugs(baselines: &Path) -> Result<Vec<String>, String> {
    let entries = match std::fs::read_dir(baselines) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", baselines.display())),
    };
    let mut slugs: Vec<String> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .collect();
    slugs.sort();
    Ok(slugs)
}

/// Diff current headlines against every baseline recorded at the current
/// `RTNN_SCALE`; returns every verdict. A baseline metric of a judged class
/// (equality only under `equality_only`, any but `Track` otherwise) that the
/// current results lack is a regression.
fn check(results: &Path, baselines: &Path, equality_only: bool) -> Result<Vec<Verdict>, String> {
    let scale = scale_stamp();
    let current = read_current(results)?;
    let mut verdicts = Vec::new();
    for slug in baseline_slugs(baselines)? {
        let Some(baseline) = read_baseline(&baseline_path(baselines, &slug))? else {
            continue;
        };
        if baseline.scale != scale {
            continue; // recorded at another RTNN_SCALE: not comparable
        }
        let fig = current.iter().find(|f| f.slug == slug);
        for (name, metric) in &baseline.metrics {
            if equality_only && metric.class != MetricClass::Equality {
                continue;
            }
            let value = fig.and_then(|f| f.metrics.iter().find(|(n, _)| n == name));
            if value.is_some() || metric.class != MetricClass::Track {
                verdicts.push(judge(&slug, name, value.map(|(_, v)| *v), metric));
            }
        }
    }
    Ok(verdicts)
}

/// Append one trajectory line: every current headline plus the run verdict.
fn append_trajectory(
    baselines: &Path,
    mode: &str,
    current: &[FigureHeadlines],
    regressions: usize,
) -> Result<(), String> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(baselines)
        .map_err(|e| format!("cannot create {}: {e}", baselines.display()))?;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = format!(
        "{{\"type\":\"trend\",\"ts_unix\":{ts},\"mode\":\"{mode}\",\"scale\":\"{}\",\"regressions\":{regressions},\"metrics\":{{",
        json_escape(&scale_stamp()),
    );
    let mut first = true;
    for fig in current {
        for (name, value) in &fig.metrics {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(
                line,
                "\"{}::{}\":{}",
                json_escape(&fig.slug),
                json_escape(name),
                json_f64(*value)
            );
        }
    }
    line.push_str("}}\n");
    let path = baselines.join("trajectory.jsonl");
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    file.write_all(line.as_bytes())
        .map_err(|e| format!("cannot append {}: {e}", path.display()))
}

/// End-to-end detector exercise in a temp dir: duplicate runs must pass;
/// an injected 2x regression, a missing figure report and empty results
/// must fail. Returns an error string on any deviation.
fn self_test() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("rtnn_trend_selftest_{}", std::process::id()));
    let results = dir.join("results");
    let baselines = results.join("baselines");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let write_fig = |latency: f64, checks: f64| -> Result<(), String> {
        let report = format!(
            "{{\"figure\": \"Self test figure\", \"tables\": [], \"notes\": [], \"headline\": [[\"serve_latency_p99_ms\", {latency}], [\"obs_bit_equal_checks\", {checks}], [\"fanout_note\", 3.0]]}}",
        );
        std::fs::write(results.join("self_test_figure.json"), report).map_err(|e| e.to_string())
    };
    let other = results.join("self_test_other.json");
    let other_report = "{\"figure\": \"Self test other\", \"headline\": [[\"other_equal\", 1.0]]}";

    // Record three identical runs, then re-check the same numbers.
    for _ in 0..3 {
        write_fig(4.0, 14.0)?;
        std::fs::write(&other, other_report).map_err(|e| e.to_string())?;
        record(&results, &baselines)?;
    }
    let verdicts = check(&results, &baselines, false)?;
    if verdicts.iter().any(|v| v.regressed) {
        return Err("duplicate runs flagged as regression".to_string());
    }
    if verdicts.len() != 4 {
        return Err(format!("expected 4 verdicts, got {}", verdicts.len()));
    }

    // Inject a 2x latency regression: must trip the lower-is-better band.
    write_fig(8.0, 14.0)?;
    let verdicts = check(&results, &baselines, false)?;
    let latency = verdicts
        .iter()
        .find(|v| v.name == "serve_latency_p99_ms")
        .ok_or("latency verdict missing")?;
    if !latency.regressed {
        return Err("2x latency regression not detected".to_string());
    }
    // ... but the equality-only gate ignores perf metrics.
    let eq_only = check(&results, &baselines, true)?;
    if eq_only.iter().any(|v| v.regressed) {
        return Err("equality-only check must ignore perf regressions".to_string());
    }

    // A shrunken structure headline fails even the equality-only gate.
    write_fig(4.0, 13.0)?;
    let eq_only = check(&results, &baselines, true)?;
    if !eq_only.iter().any(|v| v.regressed) {
        return Err("shrunken equality headline not detected".to_string());
    }

    // A figure whose report is missing fails the gate, naming its metric ...
    write_fig(4.0, 14.0)?;
    std::fs::remove_file(&other).map_err(|e| e.to_string())?;
    let eq_only = check(&results, &baselines, true)?;
    let regressed: Vec<(&str, &str)> = eq_only
        .iter()
        .filter(|v| v.regressed)
        .map(|v| (v.slug.as_str(), v.name.as_str()))
        .collect();
    if regressed != [("self_test_other", "other_equal")] {
        return Err(format!("missing figure report not detected: {regressed:?}"));
    }
    // ... and so do results that hold no figure report at all.
    std::fs::remove_file(results.join("self_test_figure.json")).map_err(|e| e.to_string())?;
    let eq_only = check(&results, &baselines, true)?;
    if eq_only.len() != 2 || !eq_only.iter().all(|v| v.regressed) {
        return Err("empty results not detected".to_string());
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: rtnn-trend (--check [--equality-only] | --record | --self-test) \
         [--results DIR] [--baselines DIR] [--no-trajectory]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut equality_only = false;
    let mut no_trajectory = false;
    let mut results = PathBuf::from("results");
    let mut baselines: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => mode = Some("check"),
            "--record" => mode = Some("record"),
            "--self-test" => mode = Some("self-test"),
            "--equality-only" => equality_only = true,
            "--no-trajectory" => no_trajectory = true,
            "--results" => results = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--baselines" => baselines = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let baselines = baselines.unwrap_or_else(|| results.join("baselines"));
    let Some(mode) = mode else { usage() };

    match mode {
        "self-test" => match self_test() {
            Ok(()) => {
                println!("rtnn-trend self-test: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rtnn-trend self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        "record" => {
            let current = match read_current(&results) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("rtnn-trend: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match record(&results, &baselines) {
                Ok(n) => {
                    if !no_trajectory {
                        if let Err(e) = append_trajectory(&baselines, "record", &current, 0) {
                            eprintln!("rtnn-trend: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    println!(
                        "rtnn-trend: recorded {n} headline values across {} figures (scale {})",
                        current.len(),
                        scale_stamp(),
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("rtnn-trend: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "check" => {
            let current = match read_current(&results) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("rtnn-trend: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let verdicts = match check(&results, &baselines, equality_only) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("rtnn-trend: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let regressions: Vec<&Verdict> = verdicts.iter().filter(|v| v.regressed).collect();
            for v in &verdicts {
                let marker = if v.regressed { "REGRESSION" } else { "ok" };
                let current = v
                    .current
                    .map_or("missing".to_string(), |c| format!("{c:.6}"));
                println!(
                    "{marker:10} {}::{} [{}] baseline {:.6} -> current {current} ({})",
                    v.slug,
                    v.name,
                    v.class.label(),
                    v.baseline,
                    v.note,
                );
            }
            if !no_trajectory {
                if let Err(e) = append_trajectory(&baselines, "check", &current, regressions.len())
                {
                    eprintln!("rtnn-trend: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!(
                "rtnn-trend: {} metrics judged, {} regression(s) (scale {}{})",
                verdicts.len(),
                regressions.len(),
                scale_stamp(),
                if equality_only { ", equality-only" } else { "" },
            );
            if regressions.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtnn_trend_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn classification_follows_the_naming_conventions() {
        assert_eq!(classify("obs_bit_equal_checks"), MetricClass::Equality);
        assert_eq!(classify("radius_sweep_points"), MetricClass::Equality);
        assert_eq!(classify("dbscan_equal"), MetricClass::Equality);
        assert_eq!(classify("obs_profiler_signatures"), MetricClass::Equality);
        assert_eq!(
            classify("obs_flight_pinned_exemplars"),
            MetricClass::Equality
        );
        assert_eq!(
            classify("rtx_2080_geomean_speedup_frnn"),
            MetricClass::HigherIsBetter
        );
        assert_eq!(
            classify("coalesced_qps_at_peak"),
            MetricClass::HigherIsBetter
        );
        assert_eq!(classify("serve_shard_skew"), MetricClass::LowerIsBetter);
        assert_eq!(
            classify("obs_overhead_pct_full"),
            MetricClass::LowerIsBetter
        );
        assert_eq!(classify("build_time_growth"), MetricClass::LowerIsBetter);
        assert_eq!(classify("ordered_vs_random_factor"), MetricClass::Track);
    }

    #[test]
    fn median_is_noise_robust() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 100.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 100.0]), 2.5);
    }

    #[test]
    fn judge_applies_direction_and_band() {
        let lower = MetricBaseline {
            class: MetricClass::LowerIsBetter,
            tolerance_pct: 25.0,
            runs: vec![4.0, 4.2, 3.9],
        };
        assert!(
            !judge("f", "m_ms", Some(4.5), &lower).regressed,
            "within band"
        );
        assert!(judge("f", "m_ms", Some(8.0), &lower).regressed, "2x is out");
        assert!(
            !judge("f", "m_ms", Some(1.0), &lower).regressed,
            "faster is fine"
        );

        let higher = MetricBaseline {
            class: MetricClass::HigherIsBetter,
            tolerance_pct: 25.0,
            runs: vec![10.0],
        };
        assert!(judge("f", "speedup", Some(5.0), &higher).regressed);
        assert!(!judge("f", "speedup", Some(9.0), &higher).regressed);

        let eq = MetricBaseline {
            class: MetricClass::Equality,
            tolerance_pct: 25.0,
            runs: vec![14.0],
        };
        assert!(
            judge("f", "checks", Some(13.0), &eq).regressed,
            "shrink fails"
        );
        assert!(
            !judge("f", "checks", Some(15.0), &eq).regressed,
            "growth warns"
        );
        assert!(!judge("f", "checks", Some(14.0), &eq).regressed);
        assert!(judge("f", "checks", None, &eq).regressed, "missing fails");
    }

    #[test]
    fn baselines_round_trip_and_cap_their_runs() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("fig.json");
        let mut baseline = FigureBaseline {
            figure: "Fig \"X\"".to_string(),
            scale: "10000".to_string(),
            metrics: BTreeMap::new(),
        };
        baseline.metrics.insert(
            "a_ms".to_string(),
            MetricBaseline {
                class: MetricClass::LowerIsBetter,
                tolerance_pct: 30.0,
                runs: (0..12).map(|i| i as f64).collect(),
            },
        );
        write_baseline(&path, &baseline).unwrap();
        let back = read_baseline(&path).unwrap().unwrap();
        assert_eq!(back.figure, "Fig \"X\"");
        assert_eq!(back.scale, "10000");
        let m = &back.metrics["a_ms"];
        assert_eq!(m.class, MetricClass::LowerIsBetter);
        assert_eq!(m.tolerance_pct, 30.0);
        assert_eq!(m.runs.len(), 12, "write/read preserves; record caps");
        assert!(read_baseline(&dir.join("missing.json")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detector_end_to_end() {
        self_test().unwrap();
    }

    #[test]
    fn scale_mismatch_skips_the_figure() {
        let dir = temp_dir("scale");
        let results = dir.join("results");
        let baselines = results.join("baselines");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::write(
            results.join("fig.json"),
            "{\"figure\": \"F\", \"headline\": [[\"x_ms\", 100.0]]}",
        )
        .unwrap();
        let mut baseline = FigureBaseline {
            figure: "F".to_string(),
            scale: "some-other-scale".to_string(),
            metrics: BTreeMap::new(),
        };
        baseline.metrics.insert(
            "x_ms".to_string(),
            MetricBaseline {
                class: MetricClass::LowerIsBetter,
                tolerance_pct: 25.0,
                runs: vec![1.0],
            },
        );
        write_baseline(&baselines.join("fig.json"), &baseline).unwrap();
        let verdicts = check(&results, &baselines, false).unwrap();
        assert!(verdicts.is_empty(), "mismatched scale must not be judged");
        std::fs::remove_dir_all(&dir).ok();
    }
}
