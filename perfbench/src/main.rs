//! The repository's benchmark. One run measures one seeded workload on a
//! release build, checks its answers against brute-force oracles, and
//! prints a readable report followed by one JSON line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_kitti --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the time
//! between an untraced and a traced phase and reports the per-layer
//! metrics (see `layers.rs`). `--inject-error` corrupts one checked answer
//! to show the oracle gate failing the run. Any op that errs or disagrees
//! with its oracle makes the run exit with status 1.

mod adapters;
mod layers;
mod stats;
mod workloads;

use layers::LAYER_METRICS;
use stats::{block_tail, median};
use workloads::{Args, Outcome};

/// The end-to-end metrics and their units. `BENCHMARK.json` lists the same
/// with their bounds (pinned by a self-test).
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("queries_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_ms_per_kquery", "ms"),
    ("cpu_ms_per_kquery", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

pub const WORKLOADS: &[&str] = &["batch_kitti", "serve_small", "stream_nbody", "dbscan_nbody"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        inject_error: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-error" {
            args.inject_error = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (no process spawned, nothing read outside it).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// A finite number as JSON (shortest round-trip digits).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn report(args: &Args, threads: usize, out: Outcome) -> bool {
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        threads,
        git_commit()
    );
    for (k, v) in &out.info {
        println!("  {k} = {v}");
    }
    let c = &out.checks;
    let error_rate = c.failed as f64 / c.attempted.max(1) as f64;
    println!(
        "  oracle: {} ops checked, {} failed, error_rate = {error_rate} ratio",
        c.attempted, c.failed
    );
    if let Some(e) = &c.first_failure {
        println!("  first failure: {e}");
    }

    let p = &out.plain;
    let metrics: Vec<(&str, &str, f64)> = match out.traced {
        None => {
            let (pct, tail_ms, beyond, blocks) = block_tail(&p.latencies_ms);
            println!(
                "  {} ops in {} windows over {:.3} s; op_tail_ms is p{pct} \
                 (median over {blocks} block(s), {beyond} samples beyond it per block)",
                p.latencies_ms.len(),
                p.windows.len(),
                p.wall_s,
            );
            println!(
                "  times are net of steal: the run got {:.3} of the CPU time it was \
                 ready to use; op p50 as read {} ms",
                p.total().served_share(),
                median(&p.raw_latencies_ms)
            );
            let values = [
                p.queries_per_s(),
                median(&p.latencies_ms),
                tail_ms,
                out.sim_ms_per_kquery,
                p.cpu_ms_per_kquery(),
                median(&out.setup_s),
                out.peak_rss_mb,
            ];
            println!(
                "  {} set-ups, median {} s",
                out.setup_s.len(),
                median(&out.setup_s)
            );
            E2E_METRICS
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
        Some(t) => {
            let mut layers = t.layers;
            let p50_plain = median(&p.latencies_ms);
            let p50_traced = median(&t.meter.latencies_ms);
            layers.add("trace.overhead_pct", (p50_traced / p50_plain - 1.0) * 100.0);
            let usage = t.meter.total();
            layers.add("process.cpu_per_wall", usage.cpu_s / usage.net_wall_s());
            let (values, missing) = layers.finish(t.floor_ms_per_query);
            println!(
                "  untraced {} ops p50 {p50_plain} ms; traced {} ops p50 {p50_traced} ms",
                p.latencies_ms.len(),
                t.meter.latencies_ms.len()
            );
            if !missing.is_empty() {
                println!(
                    "  not exercised by {} (reported as 0): {}",
                    args.workload,
                    missing.join(", ")
                );
            }
            LAYER_METRICS
                .iter()
                .zip(values)
                .map(|(m, v)| {
                    println!("  [{}] {} → moves {}", m.layer, m.name, m.moves);
                    (m.name, m.unit, v)
                })
                .collect()
        }
    };
    for (name, unit, v) in &metrics {
        println!("  {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    let correct = c.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.attempted.max(1),
        c.failed,
        body.join(", ")
    );
    correct
}

fn main() {
    // Runs must not depend on the caller's environment: drop every knob
    // the library reads (telemetry level, profiling, scale, thread counts).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RTNN_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--inject-error]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    adapters::set_threads(threads);
    let outcome = match args.workload.as_str() {
        "batch_kitti" => workloads::batch::run(&args),
        "serve_small" => workloads::serve::run(&args),
        "stream_nbody" => workloads::stream::run(&args),
        _ => workloads::dbscan::run(&args),
    };
    let ok = match outcome {
        Ok(out) => report(&args, threads, out),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            false
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` for every named entry of `BENCHMARK.json`,
    /// which keeps one entry per line.
    fn benchmark_entries() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> Option<String> {
            let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[start..].split('"').next()?.to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for s in ["workloads", "end_to_end", "per_layer"] {
                if line.contains(&format!("\"{s}\": [")) {
                    section = s.to_string();
                }
            }
            if let Some(name) = field(line, "name") {
                out.push((
                    section.clone(),
                    name,
                    field(line, "unit").unwrap_or_default(),
                ));
            }
        }
        out
    }

    fn section(entries: &[(String, String, String)], s: &str) -> Vec<(String, String)> {
        entries
            .iter()
            .filter(|e| e.0 == s)
            .map(|e| (e.1.clone(), e.2.clone()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_harness_reports() {
        let entries = benchmark_entries();
        let workloads: Vec<String> = section(&entries, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = E2E_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section(&entries, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(section(&entries, "per_layer"), layers);
    }

    #[test]
    fn json_numbers_are_finite() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }
}
