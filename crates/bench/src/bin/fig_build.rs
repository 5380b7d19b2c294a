//! Extension figure: host-parallel structure construction — LBVH build vs
//! threads, refit vs cut depth, shard-concurrent cold start.

use rtnn_bench::{experiments, ExperimentScale};

fn main() {
    let report = experiments::build::run(&ExperimentScale::from_env());
    println!("{}", report.render());
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
}
