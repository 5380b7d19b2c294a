//! Table formatting and result persistence for the experiment binaries.

use rtnn_telemetry::export::json_escape;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(row);
    }

    /// Render as a column-aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as Markdown (used by `reproduce_all` to build EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// The output of one experiment: a set of tables plus free-form notes and
/// machine-readable headline metrics.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Which figure this reproduces ("Figure 5", ...).
    pub figure: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Observations worth recording (who wins, rough factors, caveats).
    pub notes: Vec<String>,
    /// Headline metrics, `(name, value)` pairs: the handful of numbers that
    /// summarise the figure (a geomean speedup, an R², an amortized cost).
    /// `reproduce_all` collects these into `results/summary.json` so the
    /// perf trajectory can be tracked across PRs.
    pub headline: Vec<(String, f64)>,
}

impl FigureReport {
    /// Create an empty report.
    pub fn new(figure: impl Into<String>) -> Self {
        FigureReport {
            figure: figure.into(),
            tables: Vec::new(),
            notes: Vec::new(),
            headline: Vec::new(),
        }
    }

    /// Record one headline metric (non-finite values are dropped so the
    /// summary JSON stays valid).
    pub fn headline_metric(&mut self, name: impl Into<String>, value: f64) {
        if value.is_finite() {
            self.headline.push((name.into(), value));
        }
    }

    /// Render for terminal output.
    pub fn render(&self) -> String {
        let mut out = format!("==== {} ====\n\n", self.figure);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("## {}\n\n", self.figure);
        for t in &self.tables {
            out.push_str(&t.render_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
            out.push('\n');
        }
        out
    }

    /// Persist the report (markdown + JSON) under `dir`.
    pub fn save(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let slug = headline_slug(&self.figure);
        let md_path = dir.join(format!("{slug}.md"));
        std::fs::write(&md_path, self.render_markdown())?;
        let json_path = dir.join(format!("{slug}.json"));
        std::fs::write(json_path, self.to_json())?;
        Ok(md_path)
    }

    /// The report as two-space-indented JSON: an object with `figure`,
    /// `tables` (each with `title`, `headers` and `rows`), `notes` and
    /// `headline` (`[name, value]` pairs).
    fn to_json(&self) -> String {
        let strings = |depth, items: &[String]| {
            json_array(depth, items.iter().map(|s| json_str(s)).collect())
        };
        let tables = self.tables.iter().map(|t| {
            json_object(
                2,
                &[
                    ("title", json_str(&t.title)),
                    ("headers", strings(3, &t.headers)),
                    (
                        "rows",
                        json_array(3, t.rows.iter().map(|r| strings(4, r)).collect()),
                    ),
                ],
            )
        });
        let headline = self
            .headline
            .iter()
            .map(|(name, value)| json_array(2, vec![json_str(name), json_f64(*value)]));
        json_object(
            0,
            &[
                ("figure", json_str(&self.figure)),
                ("tables", json_array(1, tables.collect())),
                ("notes", strings(1, &self.notes)),
                ("headline", json_array(1, headline.collect())),
            ],
        )
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A JSON array at nesting `depth` of `items` rendered at `depth + 1`: one
/// item per line, two spaces of indent per level, `[]` when empty.
fn json_array(depth: usize, items: Vec<String>) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let pad = "  ".repeat(depth);
    format!("[\n{pad}  {}\n{pad}]", items.join(&format!(",\n{pad}  ")))
}

/// A JSON object at nesting `depth`, laid out like [`json_array`].
fn json_object(depth: usize, fields: &[(&str, String)]) -> String {
    let pad = "  ".repeat(depth);
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\n{pad}  {}\n{pad}}}",
        fields.join(&format!(",\n{pad}  "))
    )
}

/// Format an `f64` as a JSON number, the one number format of the JSON
/// files this crate writes: integral values below 1e15 keep a trailing
/// `.0`, other finite values use the shortest round-trip form, and
/// non-finite values become `null` (JSON has no NaN or infinity).
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Render the cross-figure summary (`figure name → headline metrics`) as a
/// stable, machine-readable JSON object. Written by `reproduce_all` to
/// `results/summary.json`. Non-finite values are written as `0`.
pub fn render_summary_json(entries: &[(&str, &[(String, f64)])]) -> String {
    let mut out = String::from("{\n");
    for (fi, (figure, metrics)) in entries.iter().enumerate() {
        out.push_str(&format!("  \"{}\": {{\n", json_escape(figure)));
        for (mi, (name, value)) in metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!("    \"{}\": {v}", json_escape(name)));
            out.push_str(if mi + 1 < metrics.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }");
        out.push_str(if fi + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Lowercased `[a-z0-9_]` slug of a figure or dataset name — the one
/// sanitizer behind report file names and `summary.json` headline-metric
/// keys, so the key format cannot drift between figures.
pub fn headline_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Geometric mean of a set of ratios (ignores non-positive entries, returns
/// 0 if none remain) — how the paper aggregates per-input speedups.
pub fn geomean(values: &[f64]) -> f64 {
    let positives: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positives.is_empty() {
        return 0.0;
    }
    (positives.iter().map(|v| v.ln()).sum::<f64>() / positives.len() as f64).exp()
}

/// Format a milliseconds value compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1000.0)
    }
}

/// Format a speedup factor.
pub fn fmt_speedup(x: f64) -> String {
    if x == 0.0 {
        "n/a".to_string()
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_contains_all_cells() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("demo") && s.contains("333") && s.contains("bb"));
        let md = t.render_markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("| 333 | 4 |"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn geomean_behaviour() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        assert!((geomean(&[3.0, 0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(2500.0), "2.50 s");
        assert_eq!(fmt_ms(2.5), "2.50 ms");
        assert_eq!(fmt_ms(0.5), "500.0 µs");
        assert_eq!(fmt_speedup(2.25), "2.2x");
        assert_eq!(fmt_speedup(0.0), "n/a");
    }

    #[test]
    fn summary_json_is_well_formed_and_escaped() {
        let a = vec![("geomean_speedup".to_string(), 2.5)];
        let b = vec![("r\"2\"".to_string(), 0.996), ("bad".to_string(), f64::NAN)];
        let s = render_summary_json(&[("Figure 11", &a), ("Fig \"15\"", &b)]);
        assert!(s.contains("\"Figure 11\""));
        assert!(s.contains("\"geomean_speedup\": 2.5"));
        assert!(s.contains("\\\"15\\\""));
        assert!(
            s.contains("\"bad\": 0"),
            "non-finite must be sanitised: {s}"
        );
        // Balanced braces and no trailing commas before closers.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(!s.contains(",\n}"));
        assert!(!s.contains(",\n  }"));
        assert_eq!(render_summary_json(&[]), "{\n}\n");
    }

    #[test]
    fn headline_metrics_drop_non_finite_values() {
        let mut r = FigureReport::new("t");
        r.headline_metric("ok", 1.5);
        r.headline_metric("nan", f64::NAN);
        r.headline_metric("inf", f64::INFINITY);
        assert_eq!(r.headline, vec![("ok".to_string(), 1.5)]);
    }

    #[test]
    fn report_save_round_trip() {
        let mut report = FigureReport::new("Figure 99 \"quoted\" a\\b (test)");
        let mut t = Table::new("tiny", &["x", "y"]);
        t.push_row(vec!["1".into(), "2.50 ms".into()]);
        t.push_row(vec!["333".into(), "n/a".into()]);
        report.tables.push(t);
        report.tables.push(Table::new("empty", &["only"]));
        report.notes.push("a note".into());
        report.notes.push("two\nlines\tand a tab".into());
        report.headline_metric("integral", 3.0);
        report.headline_metric("r2", 0.9125939376069159);
        report.headline_metric("tiny", 1e-7);
        report.headline_metric("huge", 1e15);
        // `headline_metric` drops non-finite values; a direct push must
        // still serialise to valid JSON.
        report.headline.push(("nan".to_string(), f64::NAN));
        let dir = std::env::temp_dir().join("rtnn_bench_report_test");
        let path = report.save(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("Figure 99"));
        assert!(content.contains("a note"));
        let json = std::fs::read_to_string(path.with_extension("json")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(json, EXPECTED_REPORT_JSON);
    }

    /// The JSON `FigureReport::save` writes for the fixture above, pinned
    /// byte for byte.
    const EXPECTED_REPORT_JSON: &str = r#"{
  "figure": "Figure 99 \"quoted\" a\\b (test)",
  "tables": [
    {
      "title": "tiny",
      "headers": [
        "x",
        "y"
      ],
      "rows": [
        [
          "1",
          "2.50 ms"
        ],
        [
          "333",
          "n/a"
        ]
      ]
    },
    {
      "title": "empty",
      "headers": [
        "only"
      ],
      "rows": []
    }
  ],
  "notes": [
    "a note",
    "two\nlines\tand a tab"
  ],
  "headline": [
    [
      "integral",
      3.0
    ],
    [
      "r2",
      0.9125939376069159
    ],
    [
      "tiny",
      0.0000001
    ],
    [
      "huge",
      1000000000000000
    ],
    [
      "nan",
      null
    ]
  ]
}"#;
}
