//! A generic "plain compute kernel" runner for the simulated device.
//!
//! The GPU baselines (cuNSearch-like grid search, FRNN-like grid KNN, the
//! PCLOctree-like octree search) are data-parallel kernels that run on the
//! SMs without touching the RT cores. Instead of hand-writing a warp
//! executor for each, they describe the per-thread work through
//! [`ThreadWork`] — how many arithmetic operations the thread performs and
//! which global-memory addresses it reads — and [`run_sm_kernel`] charges
//! that work to the device with the same SIMT/lockstep and cache modelling
//! the RT launches get:
//!
//! * a warp's arithmetic time is `max` over its lanes (lockstep execution),
//! * its memory traffic is the coalesced union of its lanes' addresses,
//! * SIMT efficiency is the ratio of useful lane work to issued warp work.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::metrics::KernelMetrics;

/// The simulated cost of one kernel thread, as reported by the kernel body.
#[derive(Debug, Clone, Default)]
pub struct ThreadWork {
    /// Number of arithmetic operations (distance tests, comparisons, queue
    /// updates) the thread performs; charged at `CostModel::sm_op_cycles`.
    pub compute_ops: u64,
    /// Global-memory byte addresses the thread reads (point records, cell
    /// offsets, tree nodes). Coalesced per warp before being charged.
    pub mem_addresses: Vec<u64>,
}

impl ThreadWork {
    /// Convenience constructor.
    pub fn new(compute_ops: u64, mem_addresses: Vec<u64>) -> Self {
        ThreadWork {
            compute_ops,
            mem_addresses,
        }
    }
}

/// Run a kernel of `num_threads` threads on `device`. `thread_fn(i)`
/// performs thread `i`'s algorithmic work on the host (producing whatever
/// results the caller accumulates on its own) and returns the simulated cost
/// description for that thread.
///
/// Returns per-thread results of `thread_fn` plus the launch metrics.
pub fn run_sm_kernel<R, F>(
    device: &Device,
    num_threads: usize,
    thread_fn: F,
) -> (Vec<R>, KernelMetrics)
where
    R: Send + Default + Clone,
    F: Fn(usize) -> (R, ThreadWork) + Sync,
{
    let warp_size = device.config().warp_size as f64;
    device.run_warps(num_threads, |range, shard| {
        let mut results = Vec::with_capacity(range.len());
        let mut max_ops = 0u64;
        let mut total_ops = 0u64;
        let mut addresses: Vec<u64> = Vec::new();
        for i in range.clone() {
            let (r, work) = thread_fn(i);
            results.push(r);
            max_ops = max_ops.max(work.compute_ops);
            total_ops += work.compute_ops;
            addresses.extend_from_slice(&work.mem_addresses);
        }
        // Lockstep arithmetic: the warp runs as long as its slowest lane.
        shard.charge_sm_ops(max_ops as f64);
        // Coalesced memory traffic for the whole warp.
        shard.access_warp_memory(&addresses);
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

/// Access check helper so configuration mistakes fail loudly in tests.
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
    if config.l1.line_bytes == 0 || config.l2.line_bytes == 0 {
        return Err("cache lines must be non-empty".into());
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
        let (results, metrics) = run_sm_kernel(&d, n, |i| {
            (i * 2, ThreadWork::new(10, vec![point_address(i as u32)]))
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
    fn heavier_ops_cost_more() {
        let d = Device::tiny_test_device();
        let run = |ops: u64| {
            run_sm_kernel(&d, 1000, |_| ((), ThreadWork::new(ops, vec![])))
                .1
                .time_ms
        };
        assert!(run(200) > run(50));
    }

    #[test]
    fn imbalanced_lanes_lower_simt_efficiency() {
        let d = Device::tiny_test_device();
        let balanced = run_sm_kernel(&d, 3200, |_| ((), ThreadWork::new(20, vec![]))).1;
        let imbalanced = run_sm_kernel(&d, 3200, |i| {
            let ops = if i % 32 == 0 { 640 } else { 0 };
            ((), ThreadWork::new(ops, vec![]))
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
        let coherent = run_sm_kernel(&d, n, |i| {
            (
                (),
                ThreadWork::new(
                    1,
                    vec![
                        point_address((i % 256) as u32),
                        point_address((i % 64) as u32),
                    ],
                ),
            )
        })
        .1;
        let scattered = run_sm_kernel(&d, n, |i| {
            let wild = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15)) % (1 << 30);
            ((), ThreadWork::new(1, vec![POINTS_BASE + wild]))
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
        assert!(validate_device_config(&DeviceConfig::rtx_2080()).is_ok());
        let mut bad = DeviceConfig::tiny_test_device();
        bad.num_sms = 0;
        assert!(validate_device_config(&bad).is_err());
        let mut bad2 = DeviceConfig::tiny_test_device();
        bad2.clock_ghz = 0.0;
        assert!(validate_device_config(&bad2).is_err());
    }
}
