//! The `fig_obs` smoke gate: bit-equality always, and the *disabled*
//! telemetry path within its overhead bound. Measured overheads of the
//! enabled levels are intentionally not asserted (timing-dependent).
//!
//! The gate times host wall clock, so it lives in a test binary of its own:
//! cargo runs test binaries one after another, so no sibling test competes
//! for the CPUs while it times.

use rtnn_bench::experiments::obs;
use rtnn_bench::scale::ExperimentScale;

#[test]
fn disabled_telemetry_is_bit_equal_and_cheap() {
    let report = obs::run(&ExperimentScale::smoke_test());
    let metric = |name: &str| -> f64 {
        report
            .headline
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing headline metric {name}"))
            .1
    };
    assert!(metric("obs_bit_equal_checks") >= 14.0);
    assert!(
        metric("obs_overhead_pct_off") < 10.0,
        "RTNN_TELEMETRY=off must stay under the 10% smoke bound, got {:.2}%",
        metric("obs_overhead_pct_off")
    );
    assert!(metric("obs_loadgen_spans_full") > 0.0);
    // The new observability layers are covered but not timing-gated:
    // the profiler saw signatures and the deterministic 0 ms SLO pinned
    // exemplars (both counts, not wall times).
    assert!(metric("obs_profiler_signatures") >= 1.0);
    assert!(metric("obs_flight_pinned_exemplars") >= 1.0);
    assert_eq!(report.tables.len(), 2);
}
