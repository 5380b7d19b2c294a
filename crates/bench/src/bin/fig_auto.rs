//! Extension figure: adaptive stage tuning (a caller-owned `AutoTuner`
//! driving `Index::query_with`) vs the static `OptLevel` ladder — regret,
//! recovered regression gap, and the bit-equality proof that tuning never
//! changes answers.

use rtnn_bench::{experiments, ExperimentScale};

fn main() {
    let report = experiments::auto::run(&ExperimentScale::from_env());
    println!("{}", report.render());
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
}
