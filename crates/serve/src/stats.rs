//! Serving statistics: per-request latency distribution and per-tick
//! throughput accounting, shared by the live service and the virtual-time
//! load harness.
//!
//! Latencies are held in an [`rtnn_telemetry::Histogram`] — the same exact
//! log-bucketed type the telemetry layer snapshots — so the workspace keeps
//! one percentile implementation (nearest-rank, re-exported here as
//! [`percentile`]) and the service's p50/p99/p999 agree with what
//! `ServiceClient::telemetry_snapshot()` reports.

pub use rtnn_telemetry::percentile;
use rtnn_telemetry::Histogram;

/// Aggregate statistics of a service run (live or virtual-time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Execution ticks dispatched.
    pub ticks: usize,
    /// Requests served (including failed ones).
    pub requests: usize,
    /// Requests that shared a tick with at least one other request.
    pub coalesced_requests: usize,
    /// Largest number of requests fused into one tick.
    pub max_tick_requests: usize,
    /// Total queries launched.
    pub queries: usize,
    /// Total simulated milliseconds of tick execution.
    pub sim_ms: f64,
    /// Per-request latency distribution. Microseconds of wall time for the
    /// live service; virtual milliseconds for the load harness.
    pub latencies: Histogram,
}

impl ServiceStats {
    /// Record one tick of `requests` requests / `queries` queries costing
    /// `sim_ms` simulated milliseconds.
    pub fn record_tick(&mut self, requests: usize, queries: usize, sim_ms: f64) {
        self.ticks += 1;
        self.requests += requests;
        if requests > 1 {
            self.coalesced_requests += requests;
        }
        self.max_tick_requests = self.max_tick_requests.max(requests);
        self.queries += queries;
        self.sim_ms += sim_ms;
    }

    /// Record one request's latency (same unit across the run).
    pub fn record_latency(&mut self, latency: f64) {
        self.latencies.record(latency);
    }

    /// Mean requests per tick.
    pub fn mean_tick_requests(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.requests as f64 / self.ticks as f64
        }
    }

    /// Latency percentile (unit matches [`Self::latencies`]); exact
    /// nearest-rank, so tail quantiles like `0.999` are real observations.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.latencies.percentile(q)
    }

    /// The p999 tail latency (unit matches [`Self::latencies`]).
    pub fn latency_p999(&self) -> f64 {
        self.latencies.percentile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 0.5), 2.0);
        assert_eq!(percentile(&samples, 0.75), 3.0);
        assert_eq!(percentile(&samples, 0.99), 4.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tick_accounting() {
        let mut s = ServiceStats::default();
        s.record_tick(1, 10, 2.0);
        s.record_tick(3, 30, 4.0);
        s.record_latency(5.0);
        assert_eq!(s.ticks, 2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.coalesced_requests, 3);
        assert_eq!(s.max_tick_requests, 3);
        assert_eq!(s.queries, 40);
        assert!((s.mean_tick_requests() - 2.0).abs() < 1e-12);
        assert_eq!(s.sim_ms, 6.0);
    }

    #[test]
    fn latency_tail_goes_through_the_shared_histogram() {
        let mut s = ServiceStats::default();
        for i in 1..=1000 {
            s.record_latency(i as f64);
        }
        assert_eq!(s.latency_percentile(0.5), 500.0);
        assert_eq!(s.latency_percentile(0.99), 990.0);
        assert_eq!(s.latency_p999(), 999.0);
        let snap = s.latencies.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.p999, 999.0);
        // Same distribution, same stats: Histogram is comparable, which the
        // serve determinism suite relies on.
        let again = s.clone();
        assert_eq!(s, again);
    }
}
