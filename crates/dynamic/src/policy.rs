//! The refit-vs-rebuild decision, driven by the execution backend's
//! structure timing (`rtnn::Backend::timing`).
//!
//! Refitting a BVH in place is several times cheaper than a rebuild but
//! freezes the topology: as points drift from the positions the tree was
//! built for, sibling AABBs overlap and traversal slows down. The
//! `DynamicIndex` expresses that degradation as a quality ratio `q ≥ 1`
//! (refitted SAH cost over freshly-built SAH cost, `rtnn_bvh::Bvh::sah_cost`),
//! which is a first-order predictor of traversal time: a query round that
//! took `S` ms on a fresh tree is predicted to take `q·S` on the refitted
//! one.
//!
//! Per frame the steady-state costs are therefore
//!
//! * keep refitting: `T_refit = R + q·S`
//! * rebuild now:    `T_build = B + S`
//!
//! with `R`/`B` the refit/build cost the *backend* reports for the current
//! structure size ([`StructureTiming`]) and `S` the last frame's traversal
//! time. All three are simulated device milliseconds, never host
//! measurements, so a seed replays the same rebuild frames at any thread
//! count. The adaptive policy rebuilds exactly when `(q − 1)·S > B − R` —
//! when the predicted traversal penalty of the stale topology exceeds what
//! the rebuild would cost over a refit — plus a hard quality cap as a
//! safety net for workloads whose `S` is noisy or unknown.
//!
//! A backend that builds no tree (the brute-force oracle) reports `q = 1`,
//! so the adaptive policy degrades gracefully to refit-only behaviour
//! there.

use rtnn::StructureTiming;

/// How the policy decides (the bench compares all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// Timing-driven refit-vs-rebuild (the default).
    #[default]
    Adaptive,
    /// Rebuild the structure every frame (the batch-engine baseline).
    AlwaysRebuild,
    /// Never rebuild on motion, only on structural changes. (Insertions and
    /// removals still force a rebuild in every mode; refit cannot
    /// re-topologize.)
    NeverRebuild,
}

/// The refit-vs-rebuild policy and its knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Decision mode.
    pub mode: PolicyMode,
    /// Hard cap on the quality ratio: at or above it the adaptive policy
    /// rebuilds regardless of the cost comparison. Guards against unbounded
    /// degradation while the search-time estimate is missing or stale.
    pub max_quality_ratio: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            mode: PolicyMode::Adaptive,
            max_quality_ratio: 3.0,
        }
    }
}

impl RebuildPolicy {
    /// The timing-driven policy with default knobs.
    pub fn adaptive() -> Self {
        RebuildPolicy::default()
    }

    /// Rebuild every frame (baseline for the `fig_dynamic` comparison).
    pub fn always_rebuild() -> Self {
        RebuildPolicy {
            mode: PolicyMode::AlwaysRebuild,
            ..RebuildPolicy::default()
        }
    }

    /// Refit-only on motion (the other end of the spectrum).
    pub fn never_rebuild() -> Self {
        RebuildPolicy {
            mode: PolicyMode::NeverRebuild,
            ..RebuildPolicy::default()
        }
    }

    /// True when this policy rebuilds on every motion frame regardless of
    /// quality — callers skip the exploratory refit entirely, so the
    /// rebuild-every-frame baseline pays exactly one build per frame.
    pub fn always_rebuilds(&self) -> bool {
        self.mode == PolicyMode::AlwaysRebuild
    }

    /// Decide whether this frame should rebuild, given the quality ratio
    /// `q` of the already-refitted tree, the backend's simulated structure
    /// timing at the current size, and the last frame's simulated traversal
    /// time (`None` until a frame has run).
    pub fn should_rebuild(
        &self,
        quality_ratio: f64,
        timing: &StructureTiming,
        last_traversal_ms: Option<f64>,
    ) -> bool {
        match self.mode {
            PolicyMode::AlwaysRebuild => true,
            PolicyMode::NeverRebuild => false,
            PolicyMode::Adaptive => {
                if quality_ratio >= self.max_quality_ratio {
                    return true;
                }
                let Some(s) = last_traversal_ms else {
                    return false;
                };
                (quality_ratio - 1.0) * s > timing.rebuild_premium_ms()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{Backend, GpusimBackend};
    use rtnn_gpusim::Device;

    fn timing(n: usize) -> StructureTiming {
        GpusimBackend::new(&Device::rtx_2080()).timing(n)
    }

    #[test]
    fn forced_modes_ignore_the_timing() {
        let t = timing(1000);
        assert!(RebuildPolicy::always_rebuild().should_rebuild(1.0, &t, Some(1.0)));
        assert!(!RebuildPolicy::never_rebuild().should_rebuild(100.0, &t, Some(1.0)));
    }

    #[test]
    fn adaptive_keeps_a_fresh_tree_and_drops_a_degraded_one() {
        let p = RebuildPolicy::adaptive();
        let t = timing(1_000_000);
        // Pristine tree: never rebuild.
        assert!(!p.should_rebuild(1.0, &t, Some(10.0)));
        // Far beyond the quality cap: rebuild even with no time estimate.
        assert!(p.should_rebuild(10.0, &t, None));
        // Mild degradation on a cheap search: the rebuild premium dominates.
        let premium = t.rebuild_premium_ms();
        assert!(!p.should_rebuild(1.05, &t, Some(premium / 10.0)));
        // Same degradation but an expensive search: traversal penalty wins.
        assert!(p.should_rebuild(1.05, &t, Some(premium * 40.0)));
    }

    #[test]
    fn break_even_scales_with_the_rebuild_premium() {
        let p = RebuildPolicy::adaptive();
        // A bigger cloud has a bigger rebuild premium, so the same (q, S)
        // that justifies a rebuild on a small cloud may not on a large one.
        let q = 1.2;
        let small = timing(100_000);
        let large = timing(10_000_000);
        let s = small.rebuild_premium_ms() / (q - 1.0) * 1.5;
        assert!(p.should_rebuild(q, &small, Some(s)));
        assert!(!p.should_rebuild(q, &large, Some(s)));
    }

    #[test]
    fn no_history_means_no_speculative_rebuild_below_the_cap() {
        let p = RebuildPolicy::adaptive();
        assert!(!p.should_rebuild(1.5, &timing(1_000_000), None));
    }

    #[test]
    fn free_structures_always_prefer_a_rebuild_once_stale() {
        // A backend with zero structure cost (the brute-force oracle) has a
        // zero rebuild premium: any quality loss with a known traversal
        // time justifies rebuilding.
        let p = RebuildPolicy::adaptive();
        let free = StructureTiming::default();
        assert!(p.should_rebuild(1.01, &free, Some(1.0)));
        assert!(!p.should_rebuild(1.0, &free, Some(1.0)));
    }
}
