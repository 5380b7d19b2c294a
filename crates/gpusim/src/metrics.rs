//! Metrics produced by simulated kernel launches.

use crate::cache::CacheStats;

/// Memory-hierarchy counters for one launch (summed over SM shards).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// L1 counters (all SMs).
    pub l1: CacheStats,
    /// L2 counters (all shards).
    pub l2: CacheStats,
    /// Accesses that went to DRAM.
    pub dram_accesses: u64,
}

impl MemoryStats {
    /// Merge another launch's / shard's counters into this one.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.dram_accesses += other.dram_accesses;
    }

    /// L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1.hit_rate()
    }

    /// L2 hit rate in `[0, 1]` (of the accesses that missed L1).
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }
}

/// The result of executing one kernel (an RT launch or an SM compute
/// kernel) on the simulated device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelMetrics {
    /// Simulated execution time in milliseconds: the busiest SM's cycle
    /// count divided by the clock.
    pub time_ms: f64,
    /// Total cycles accumulated across all SMs (work, not wall time).
    pub total_cycles: f64,
    /// Cycles on the busiest SM (determines `time_ms`).
    pub critical_path_cycles: f64,
    /// Number of warps issued.
    pub warps: u64,
    /// Number of threads / rays issued.
    pub threads: u64,
    /// Cycles charged to RT-core traversal work.
    pub rt_core_cycles: f64,
    /// Cycles charged to SM shader / arithmetic work.
    pub sm_cycles: f64,
    /// Cycles charged to memory stalls (after latency hiding).
    pub mem_stall_cycles: f64,
    /// SIMT efficiency in `[0, 1]`: useful lane work divided by issued warp
    /// work. Reported as the "SM occupancy" analogue of Figure 6.
    pub simt_efficiency: f64,
    /// Memory-hierarchy counters.
    pub memory: MemoryStats,
}

impl KernelMetrics {
    /// Merge metrics of two kernels that execute back-to-back (times add,
    /// counters add, efficiency is re-weighted by warp count).
    pub fn merge_sequential(&mut self, other: &KernelMetrics) {
        let total_warps = self.warps + other.warps;
        if total_warps > 0 {
            self.simt_efficiency = (self.simt_efficiency * self.warps as f64
                + other.simt_efficiency * other.warps as f64)
                / total_warps as f64;
        }
        self.time_ms += other.time_ms;
        self.total_cycles += other.total_cycles;
        self.critical_path_cycles += other.critical_path_cycles;
        self.warps = total_warps;
        self.threads += other.threads;
        self.rt_core_cycles += other.rt_core_cycles;
        self.sm_cycles += other.sm_cycles;
        self.mem_stall_cycles += other.mem_stall_cycles;
        self.memory.merge(&other.memory);
    }
}

/// Accumulates the per-frame costs of a streaming (multi-frame) workload so
/// amortized figures can be reported: structure maintenance (build/refit),
/// kernel work, and the peak frame, per frame and in total.
///
/// This is the counterpart of [`KernelMetrics::merge_sequential`] for
/// workloads where the interesting unit is a *frame* rather than a launch —
/// the `rtnn-dynamic` subsystem records one entry per query round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameAccumulator {
    /// Number of frames recorded.
    pub frames: u64,
    /// Kernel metrics summed over all frames (searches, scheduling, ...).
    pub kernel: KernelMetrics,
    /// Simulated milliseconds spent on acceleration-structure maintenance
    /// (builds + refits) across all frames.
    pub structure_ms: f64,
    /// Simulated end-to-end milliseconds summed over all frames.
    pub total_ms: f64,
    /// The most expensive single frame's end-to-end simulated milliseconds.
    pub peak_frame_ms: f64,
    /// Number of frames that performed a full structure rebuild.
    pub rebuilds: u64,
    /// Number of frames that refitted the structure in place.
    pub refits: u64,
}

impl FrameAccumulator {
    /// Record one frame.
    ///
    /// `kernel` is the frame's merged kernel metrics, `structure_ms` the
    /// simulated build/refit cost it paid, and `frame_total_ms` its
    /// end-to-end simulated time (kernels + structure + transfers).
    pub fn record_frame(&mut self, kernel: &KernelMetrics, structure_ms: f64, frame_total_ms: f64) {
        self.frames += 1;
        self.kernel.merge_sequential(kernel);
        self.structure_ms += structure_ms;
        self.total_ms += frame_total_ms;
        self.peak_frame_ms = self.peak_frame_ms.max(frame_total_ms);
    }

    /// Amortized simulated milliseconds per frame (0 before any frame).
    pub fn amortized_frame_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_ms / self.frames as f64
        }
    }

    /// Amortized structure-maintenance milliseconds per frame.
    pub fn amortized_structure_ms(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.structure_ms / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_stats_merge_and_rates() {
        let mut m = MemoryStats::default();
        m.l1.accesses = 100;
        m.l1.hits = 80;
        m.l2.accesses = 20;
        m.l2.hits = 10;
        m.dram_accesses = 10;
        let mut n = m;
        n.merge(&m);
        assert_eq!(n.l1.accesses, 200);
        assert_eq!(n.dram_accesses, 20);
        assert!((m.l1_hit_rate() - 0.8).abs() < 1e-9);
        assert!((m.l2_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn frame_accumulator_amortizes_and_tracks_peaks() {
        let mut acc = FrameAccumulator::default();
        assert_eq!(acc.amortized_frame_ms(), 0.0);
        assert_eq!(acc.amortized_structure_ms(), 0.0);
        let k = KernelMetrics {
            time_ms: 2.0,
            warps: 4,
            ..Default::default()
        };
        acc.record_frame(&k, 0.5, 3.0);
        acc.rebuilds += 1;
        acc.record_frame(&k, 0.1, 9.0);
        acc.refits += 1;
        assert_eq!(acc.frames, 2);
        assert!((acc.total_ms - 12.0).abs() < 1e-12);
        assert!((acc.amortized_frame_ms() - 6.0).abs() < 1e-12);
        assert!((acc.amortized_structure_ms() - 0.3).abs() < 1e-12);
        assert!((acc.peak_frame_ms - 9.0).abs() < 1e-12);
        assert_eq!(acc.kernel.warps, 8);
        assert_eq!(acc.rebuilds + acc.refits, acc.frames);
    }

    #[test]
    fn sequential_merge_adds_time_and_reweights_efficiency() {
        let a = KernelMetrics {
            time_ms: 1.0,
            warps: 10,
            simt_efficiency: 1.0,
            total_cycles: 100.0,
            ..Default::default()
        };
        let b = KernelMetrics {
            time_ms: 3.0,
            warps: 30,
            simt_efficiency: 0.5,
            total_cycles: 300.0,
            ..Default::default()
        };
        let mut m = a.clone();
        m.merge_sequential(&b);
        assert!((m.time_ms - 4.0).abs() < 1e-12);
        assert_eq!(m.warps, 40);
        assert!((m.simt_efficiency - 0.625).abs() < 1e-12);
        assert!((m.total_cycles - 400.0).abs() < 1e-12);
    }
}
