//! Shared types for the baseline searchers.

use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// A search request shared by all baselines: radius-bounded, count-bounded,
/// exactly the interface of Section 2.1.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest {
    /// Search radius.
    pub radius: f32,
    /// Maximum neighbor count.
    pub k: usize,
}

impl SearchRequest {
    /// Construct a request.
    pub fn new(radius: f32, k: usize) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(k >= 1, "k must be at least 1");
        SearchRequest { radius, k }
    }
}

/// The outcome of one baseline execution.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Per-query neighbor ids.
    pub neighbors: Vec<Vec<u32>>,
    /// Simulated milliseconds spent building the data structure.
    pub build_ms: f64,
    /// Simulated milliseconds spent searching.
    pub search_ms: f64,
    /// Simulated milliseconds spent on host↔device transfers.
    pub data_ms: f64,
}

impl BaselineRun {
    /// End-to-end simulated time.
    pub fn total_ms(&self) -> f64 {
        self.build_ms + self.search_ms + self.data_ms
    }
}

/// A uniform interface over the baselines so the bench harness can sweep
/// them generically.
pub trait Baseline {
    /// Short name used in figures ("cuNSearch", "FRNN", ...).
    fn name(&self) -> &'static str;

    /// Fixed-radius search, or `None` if the baseline does not support it
    /// (FRNN and FastRNN are KNN-only, mirroring the original libraries).
    fn range_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun>;

    /// KNN search, or `None` if unsupported (cuNSearch is range-only) or the
    /// requested `K` is out of the baseline's supported range (PCLOctree
    /// supports only `K = 1`).
    fn knn_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun>;
}

/// Transfer cost shared by every baseline: points + queries in, ids out.
pub fn transfer_ms(device: &Device, num_points: usize, num_queries: usize, k: usize) -> f64 {
    device.transfer_h2d_ms((num_points + num_queries) as u64 * 12)
        + device.transfer_d2h_ms(num_queries as u64 * k as u64 * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_totals() {
        let run = BaselineRun {
            neighbors: vec![vec![0, 1], vec![2]],
            build_ms: 1.0,
            search_ms: 2.0,
            data_ms: 0.5,
        };
        assert_eq!(run.total_ms(), 3.5);
    }

    #[test]
    #[should_panic]
    fn zero_radius_request_panics() {
        let _ = SearchRequest::new(0.0, 4);
    }

    #[test]
    fn transfer_grows_with_input() {
        let d = Device::rtx_2080();
        assert!(transfer_ms(&d, 1_000_000, 1_000_000, 32) > transfer_ms(&d, 1000, 1000, 32));
    }
}
