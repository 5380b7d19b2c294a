//! A generic "plain compute kernel" runner for the simulated device.
//!
//! The GPU baselines (cuNSearch-like grid search, FRNN-like grid KNN, the
//! PCLOctree-like octree search) and RTNN's own helper kernels (query sort,
//! megacell growth) are data-parallel kernels that run on the SMs without
//! touching the RT cores. Instead of hand-writing a warp executor for
//! each, a kernel body reports each thread's simulated cost through
//! [`ThreadWork`] as it runs — how many arithmetic operations the thread
//! performs and which global-memory ranges it reads — and
//! [`run_sm_kernel`] charges that work to the device with the same
//! SIMT/lockstep and cache modelling the RT launches get:
//!
//! * a warp's arithmetic time is `max` over its lanes (lockstep execution),
//! * its memory traffic is one transaction per distinct cache line its
//!   lanes read,
//! * SIMT efficiency is the ratio of useful lane work to issued warp work.
//!
//! A read is a range of element addresses, from the first element's to the
//! last's; a single element is a range of one. Every range feeds the
//! cache lines it spans straight into its warp's line set, so a thread
//! keeps no address list, and a run of contiguous elements (a thread's
//! scan of a cell table) costs one entry per line rather than one per
//! element. The warp sorts and deduplicates its line set once, which is
//! the only place the simulator coalesces arbitrary addresses.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::metrics::KernelMetrics;
use std::ops::RangeInclusive;

/// The simulated cost of one kernel thread, reported by the kernel body as
/// it runs (see the [module docs](self)).
#[derive(Debug)]
pub struct ThreadWork<'w> {
    ops: u64,
    line_shift: u32,
    /// The L1 lines of the thread's warp, in read order.
    lines: &'w mut Vec<u64>,
}

impl ThreadWork<'_> {
    /// Add `n` arithmetic operations (distance tests, comparisons, queue
    /// updates), charged at `CostModel::sm_op_cycles`.
    #[inline]
    pub fn ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Read the element (point record, cell offset, tree node) at byte
    /// address `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.read_range(addr..=addr);
    }

    /// Read a run of contiguous elements, given by the addresses of its
    /// first and last element (not by a byte span: the last element's bytes
    /// may extend into a line the read does not charge). The run touches
    /// every cache line from its first element's to its last's, so its
    /// elements must be no more than one line apart.
    #[inline]
    pub fn read_range(&mut self, elements: RangeInclusive<u64>) {
        let (first, last) = elements.into_inner();
        debug_assert!(first <= last, "a read range runs forwards");
        self.lines
            .extend((first >> self.line_shift)..=(last >> self.line_shift));
    }
}

/// Run a kernel of `num_threads` threads on `device`. `thread_fn(i, work)`
/// performs thread `i`'s algorithmic work on the host, reports its
/// simulated cost through `work`, and returns whatever per-thread result
/// the caller accumulates.
///
/// Returns per-thread results of `thread_fn` plus the launch metrics.
pub fn run_sm_kernel<R, F>(
    device: &Device,
    num_threads: usize,
    thread_fn: F,
) -> (Vec<R>, KernelMetrics)
where
    R: Send + Default + Clone,
    F: Fn(usize, &mut ThreadWork<'_>) -> R + Sync,
{
    let warp_size = device.config().warp_size as f64;
    device.run_warps(num_threads, |range, shard| {
        let mut results = Vec::with_capacity(range.len());
        let mut max_ops = 0u64;
        let mut total_ops = 0u64;
        let mut lines: Vec<u64> = Vec::new();
        let line_shift = shard.line_shift();
        for i in range {
            let mut work = ThreadWork {
                ops: 0,
                line_shift,
                lines: &mut lines,
            };
            results.push(thread_fn(i, &mut work));
            max_ops = max_ops.max(work.ops);
            total_ops += work.ops;
        }
        // Lockstep arithmetic: the warp runs as long as its slowest lane.
        shard.charge_sm_ops(max_ops as f64);
        // Coalesced memory traffic: one transaction per distinct line.
        lines.sort_unstable();
        lines.dedup();
        shard.access_lines(&lines);
        // Useful work = what lanes needed; issued = slowest lane times the
        // warp width (inactive lanes still occupy issue slots).
        shard.note_simt_work(total_ops as f64, max_ops as f64 * warp_size);
        results
    })
}

/// Estimate the device-resident footprint of a point cloud plus per-query
/// result buffers — shared by RTNN and the baselines so OOM behaviour is
/// comparable.
pub fn point_cloud_bytes(num_points: usize, num_queries: usize, neighbors_per_query: usize) -> u64 {
    let points = num_points as u64 * 12; // 3 x f32
    let queries = num_queries as u64 * 12;
    let results = num_queries as u64 * neighbors_per_query as u64 * 4; // u32 ids
    points + queries + results
}

/// Helper: the byte address of point `i`'s coordinates in the simulated
/// global-memory layout (12-byte records in a flat array).
#[inline]
pub fn point_address(i: u32) -> u64 {
    POINTS_BASE + i as u64 * 12
}

/// Helper: the byte address of cell `i`'s start offset in a grid structure.
#[inline]
pub fn cell_offset_address(i: usize) -> u64 {
    CELLS_BASE + i as u64 * 4
}

/// Helper: the byte address of tree node `i` for SM-traversed trees
/// (octree / k-d tree baselines); nodes are 32-byte records.
#[inline]
pub fn tree_node_address(i: u32) -> u64 {
    TREE_BASE + i as u64 * 32
}

const POINTS_BASE: u64 = 0x1000_0000;
const CELLS_BASE: u64 = 0x4000_0000;
const TREE_BASE: u64 = 0x7000_0000;

/// Base address of BVH node storage (used by `rtnn-optix`).
pub const BVH_NODES_BASE: u64 = 0xA000_0000;
/// Base address of BVH primitive-slot storage (used by `rtnn-optix`).
pub const BVH_PRIMS_BASE: u64 = 0xD000_0000;

/// Check that the simulator can run `config`; the error names the first
/// field it cannot. [`Device::new`] panics with this message.
pub fn validate_device_config(config: &DeviceConfig) -> Result<(), String> {
    if config.num_sms == 0 {
        return Err("device must have at least one SM".into());
    }
    if config.warp_size == 0 {
        return Err("warp size must be positive".into());
    }
    if config.clock_ghz <= 0.0 {
        return Err("clock must be positive".into());
    }
    for (level, cache) in [("L1", &config.l1), ("L2", &config.l2)] {
        if cache.ways == 0 {
            return Err(format!("{level} must have at least one way"));
        }
        if !cache.line_bytes.is_power_of_two() {
            return Err(format!(
                "{level} line size must be a power of two, got {} bytes",
                cache.line_bytes
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_results_and_metrics() {
        let d = Device::tiny_test_device();
        let n = 500;
        let (results, metrics) = run_sm_kernel(&d, n, |i, work| {
            work.ops(10);
            work.read(point_address(i as u32));
            i * 2
        });
        assert_eq!(results.len(), n);
        assert_eq!(results[123], 246);
        assert!(metrics.time_ms > 0.0);
        assert!(metrics.sm_cycles > 0.0);
        assert_eq!(
            metrics.rt_core_cycles, 0.0,
            "plain kernels never touch RT cores"
        );
        assert!(metrics.memory.l1.accesses > 0);
    }

    #[test]
    fn coalescing_counts_one_access_per_line() {
        let d = Device::tiny_test_device();
        // One warp, 32 addresses inside a single 64-byte line: one access.
        let one_line = run_sm_kernel(&d, 32, |i, work| work.read(1024 + i as u64)).1;
        assert_eq!(one_line.memory.l1.accesses, 1);
        // 32 addresses on 32 different lines: 32 accesses.
        let spread = run_sm_kernel(&d, 32, |i, work| work.read(100_000 + i as u64 * 64)).1;
        assert_eq!(spread.memory.l1.accesses, 32);
    }

    #[test]
    fn a_range_reads_the_lines_of_its_elements() {
        let d = Device::rtx_2080();
        // Each thread reads a run of 1-32 four-byte cells at a scattered
        // start, as a range and as one read per element.
        let first = |i: usize| cell_offset_address(i * 37 % 1000);
        let len = |i: usize| (i * 7 % 32 + 1) as u64;
        let ranged = run_sm_kernel(&d, 3000, |i, work| {
            work.ops(1);
            work.read_range(first(i)..=first(i) + (len(i) - 1) * 4);
        })
        .1;
        let listed = run_sm_kernel(&d, 3000, |i, work| {
            work.ops(1);
            for e in 0..len(i) {
                work.read(first(i) + e * 4);
            }
        })
        .1;
        assert_eq!(format!("{ranged:?}"), format!("{listed:?}"));
        assert!(ranged.memory.l1.accesses > 3000 / 32);
        // The range ends at its last element's address: a 4-byte element
        // at the end of a line charges that line only.
        let tail = run_sm_kernel(&d, 1, |_, work| work.read_range(124..=124)).1;
        assert_eq!(tail.memory.l1.accesses, 1);
    }

    #[test]
    fn heavier_ops_cost_more() {
        let d = Device::tiny_test_device();
        let run = |ops: u64| run_sm_kernel(&d, 1000, |_, work| work.ops(ops)).1.time_ms;
        assert!(run(200) > run(50));
    }

    #[test]
    fn imbalanced_lanes_lower_simt_efficiency() {
        let d = Device::tiny_test_device();
        let balanced = run_sm_kernel(&d, 3200, |_, work| work.ops(20)).1;
        let imbalanced = run_sm_kernel(&d, 3200, |i, work| {
            work.ops(if i % 32 == 0 { 640 } else { 0 });
        })
        .1;
        assert!(balanced.simt_efficiency > 0.9);
        assert!(imbalanced.simt_efficiency < 0.1);
        // Same total useful ops, but the imbalanced kernel is slower.
        assert!(imbalanced.time_ms >= balanced.time_ms);
    }

    #[test]
    fn coherent_addresses_beat_scattered_addresses() {
        let d = Device::rtx_2080();
        let n = 20_000;
        // Coherent threads keep revisiting a small shared working set (the
        // way spatially-grouped queries revisit the same tree nodes);
        // scattered threads touch a huge address range.
        let coherent = run_sm_kernel(&d, n, |i, work| {
            work.ops(1);
            work.read(point_address((i % 256) as u32));
            work.read(point_address((i % 64) as u32));
        })
        .1;
        let scattered = run_sm_kernel(&d, n, |i, work| {
            let wild = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)) % (1 << 30);
            work.ops(1);
            work.read(POINTS_BASE + wild);
        })
        .1;
        assert!(coherent.memory.l1_hit_rate() > scattered.memory.l1_hit_rate());
        assert!(coherent.time_ms < scattered.time_ms);
    }

    #[test]
    fn footprint_model_is_monotone() {
        assert!(point_cloud_bytes(1000, 1000, 50) > point_cloud_bytes(100, 100, 50));
        assert_eq!(point_cloud_bytes(0, 0, 0), 0);
    }

    #[test]
    fn address_helpers_do_not_collide() {
        assert!(point_address(1_000_000) < CELLS_BASE);
        assert!(cell_offset_address(10_000_000) < TREE_BASE);
        assert!(tree_node_address(10_000_000) < BVH_NODES_BASE);
    }

    #[test]
    fn config_validation() {
        for preset in [
            DeviceConfig::rtx_2080(),
            DeviceConfig::rtx_2080_ti(),
            DeviceConfig::tiny_test_device(),
        ] {
            assert_eq!(validate_device_config(&preset), Ok(()), "{}", preset.name);
        }
        let mut bad = DeviceConfig::tiny_test_device();
        bad.num_sms = 0;
        assert!(validate_device_config(&bad).is_err());
        let mut bad2 = DeviceConfig::tiny_test_device();
        bad2.clock_ghz = 0.0;
        assert!(validate_device_config(&bad2).is_err());
    }
}
