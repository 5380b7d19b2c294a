//! The simulated device: warp scheduling across SM shards, acceleration-
//! structure build timing, and PCIe transfer timing.

use crate::config::DeviceConfig;
use crate::metrics::KernelMetrics;
use crate::shard::SmShard;
use rtnn_parallel::par_map_collect_mut;
use std::sync::{Mutex, PoisonError};

/// Error returned when a simulated allocation exceeds device memory —
/// the analogue of the `OOM` entries in Figure 11.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes the allocation requested.
    pub requested_bytes: u64,
    /// Bytes the device has in total.
    pub capacity_bytes: u64,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "allocation of {} bytes exceeds device memory of {} bytes",
            self.requested_bytes, self.capacity_bytes
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Structure-maintenance timing pair reported by [`Device::structure_timing`]
/// (and forwarded by search backends): what a from-scratch build and an
/// in-place refit of an acceleration structure cost at a given size. The
/// refit-vs-rebuild policies consume this instead of talking to a device
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StructureTiming {
    /// Simulated milliseconds of a from-scratch structure build.
    pub build_ms: f64,
    /// Simulated milliseconds of an in-place refit.
    pub refit_ms: f64,
    /// Measured host wall-clock milliseconds of the most recent structure
    /// maintenance (build and/or refit) on the host-parallel construction
    /// path; `0.0` means "not measured" (model-only timing).
    ///
    /// Reported separately from `work_ms` so a parallel build shows up as
    /// *parallelism* (same work, less wall time) instead of silently
    /// reporting less work.
    pub host_wall_ms: f64,
    /// Aggregate busy milliseconds across all construction workers for the
    /// same operations; `0.0` means "not measured".
    pub work_ms: f64,
}

impl StructureTiming {
    /// What a rebuild costs *over* a refit — the premium the adaptive
    /// refit-vs-rebuild policy weighs against the traversal penalty of a
    /// stale tree.
    pub fn rebuild_premium_ms(&self) -> f64 {
        self.build_ms - self.refit_ms
    }

    /// Measured host-parallel speedup of structure maintenance
    /// (`work_ms / host_wall_ms`, clamped to ≥ 1); `None` until both terms
    /// have been measured.
    pub fn host_speedup(&self) -> Option<f64> {
        (self.host_wall_ms > 0.0 && self.work_ms > 0.0)
            .then(|| (self.work_ms / self.host_wall_ms).max(1.0))
    }

    /// The rebuild premium with the `(q−1)·S > B−R` coefficients re-derived
    /// for parallel construction: both the build and refit terms shrink by
    /// the *measured* host speedup, so a structure that builds `s×` faster
    /// on the pool breaks even at an `s×` smaller traversal penalty. Equal
    /// to [`Self::rebuild_premium_ms`] while unmeasured.
    pub fn parallel_premium_ms(&self) -> f64 {
        self.rebuild_premium_ms() / self.host_speedup().unwrap_or(1.0)
    }

    /// Attach a measured host profile (wall/work pair) to a model timing.
    pub fn with_host_profile(mut self, host_wall_ms: f64, work_ms: f64) -> Self {
        self.host_wall_ms = host_wall_ms;
        self.work_ms = work_ms;
        self
    }
}

/// A simulated GPU, exposed by reference so one device can be shared across
/// experiments and threads. A launch simulates only the SMs that receive a
/// warp, and its outcome depends only on its inputs: every SM starts with
/// cold caches and zero counters. The device keeps the per-SM state of
/// finished launches for reuse (reset, not reallocated), never more shards
/// than `num_sms` × the most launches that have run on it at once; a clone
/// starts with none.
pub struct Device {
    config: DeviceConfig,
    /// SM shards of finished launches, waiting for reuse. Only `append`
    /// and `split_off` run under the lock, so the list stays whole even if
    /// a panic poisoned it; locking ignores the poison, so one panicking
    /// launch never makes later launches on this device panic.
    spare_shards: Mutex<Vec<SmShard>>,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        Device::new(self.config.clone())
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Device {
    /// Wrap a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            config,
            spare_shards: Mutex::new(Vec::new()),
        }
    }

    /// The RTX 2080 preset.
    pub fn rtx_2080() -> Self {
        Device::new(DeviceConfig::rtx_2080())
    }

    /// The RTX 2080 Ti preset.
    pub fn rtx_2080_ti() -> Self {
        Device::new(DeviceConfig::rtx_2080_ti())
    }

    /// A tiny device for unit tests.
    pub fn tiny_test_device() -> Self {
        Device::new(DeviceConfig::tiny_test_device())
    }

    /// The device configuration.
    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Simulated milliseconds to build an acceleration structure over
    /// `num_prims` primitive AABBs: a fixed launch overhead plus a linear
    /// per-primitive term (Figure 15 / Equation 3), scaled by SM count
    /// relative to the 68-SM reference device.
    pub fn accel_build_time_ms(&self, num_prims: usize) -> f64 {
        if num_prims == 0 {
            return 0.0;
        }
        let c = &self.config.cost;
        let rate = c.accel_build_prims_per_ms_ref * (self.config.num_sms as f64 / 68.0);
        c.accel_build_fixed_ms + num_prims as f64 / rate
    }

    /// Simulated milliseconds to *refit* an existing acceleration structure
    /// over `num_prims` primitives in place: the AABBs are re-streamed
    /// bottom-up with no sort and no hierarchy emission, so the throughput is
    /// `accel_refit_speedup` times the build rate and the fixed overhead is
    /// smaller (no allocation).
    pub fn accel_refit_time_ms(&self, num_prims: usize) -> f64 {
        if num_prims == 0 {
            return 0.0;
        }
        let c = &self.config.cost;
        let rate = c.accel_build_prims_per_ms_ref
            * c.accel_refit_speedup
            * (self.config.num_sms as f64 / 68.0);
        c.accel_refit_fixed_ms + num_prims as f64 / rate
    }

    /// The build/refit cost pair for a structure over `num_prims`
    /// primitives — the timing a search backend reports so structure
    /// policies (refit-vs-rebuild) can be decided without knowing which
    /// device model is underneath.
    pub fn structure_timing(&self, num_prims: usize) -> StructureTiming {
        StructureTiming {
            build_ms: self.accel_build_time_ms(num_prims),
            refit_ms: self.accel_refit_time_ms(num_prims),
            // Host-side measurements are attached by the layer that actually
            // ran a build/refit; the device model alone has none.
            host_wall_ms: 0.0,
            work_ms: 0.0,
        }
    }

    /// Simulated milliseconds to copy `bytes` from host to device over PCIe.
    pub fn transfer_h2d_ms(&self, bytes: u64) -> f64 {
        if let Some(t) = rtnn_telemetry::Telemetry::current() {
            t.counter_add("device.h2d_bytes", bytes);
        }
        self.h2d_cost_ms(bytes)
    }

    /// Simulated milliseconds of *visible* device-to-host copy time (most of
    /// it overlaps with compute, per the paper's footnote 4).
    pub fn transfer_d2h_ms(&self, bytes: u64) -> f64 {
        if let Some(t) = rtnn_telemetry::Telemetry::current() {
            t.counter_add("device.d2h_bytes", bytes);
        }
        self.h2d_cost_ms(bytes) * self.config.cost.d2h_visible_fraction
    }

    fn h2d_cost_ms(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.config.cost.pcie_gbps * 1e9) * 1e3
    }

    /// Check whether an allocation of `bytes` fits in device memory.
    pub fn check_allocation(&self, bytes: u64) -> Result<(), OutOfDeviceMemory> {
        if bytes > self.config.memory_bytes {
            Err(OutOfDeviceMemory {
                requested_bytes: bytes,
                capacity_bytes: self.config.memory_bytes,
            })
        } else {
            Ok(())
        }
    }

    /// Execute a kernel of `num_threads` threads grouped into warps of
    /// `config.warp_size`.
    ///
    /// `warp_fn(first_thread..last_thread, shard)` simulates one warp: it
    /// performs whatever algorithmic work the kernel does for those threads,
    /// charges the work to `shard`, and returns the per-thread results (one
    /// `R` per thread in the range, in order).
    ///
    /// Warps are assigned to SM shards round-robin (warp `w` runs on SM
    /// `w % num_sms`). Only the `min(num_sms, num_warps)` SMs that receive a
    /// warp are simulated, in parallel on the host, each on a shard reused
    /// from an earlier launch and reset to cold caches and zero counters
    /// (see [`Device`] for how many the device keeps). The shards fold into
    /// the metrics in SM order, so every sum is the same at any thread
    /// count; an empty SM would add exact zeros, so skipping it changes no
    /// bit. The kernel's simulated time is the cycle count of the busiest
    /// shard.
    pub fn run_warps<R, F>(&self, num_threads: usize, warp_fn: F) -> (Vec<R>, KernelMetrics)
    where
        R: Send + Default + Clone,
        F: Fn(std::ops::Range<usize>, &mut SmShard) -> Vec<R> + Sync,
    {
        let warp_size = self.config.warp_size;
        let num_warps = num_threads.div_ceil(warp_size);
        let num_sms = self.config.num_sms;

        let mut results: Vec<R> = vec![R::default(); num_threads];
        let mut shards = self.take_shards(num_warps.min(num_sms));
        {
            let results_ptr = ResultsPtr(results.as_mut_ptr());
            par_map_collect_mut(&mut shards, |sm, shard| {
                let ptr = results_ptr;
                shard.reset();
                // Warps assigned to this SM: sm, sm + num_sms, ...
                for w in (sm..num_warps).step_by(num_sms) {
                    let start = w * warp_size;
                    let end = (start + warp_size).min(num_threads);
                    shard.begin_warp();
                    let warp_results = warp_fn(start..end, shard);
                    debug_assert_eq!(warp_results.len(), end - start);
                    for (offset, r) in warp_results.into_iter().enumerate() {
                        // SAFETY: thread indices are partitioned across
                        // warps, and warps across SMs, so each element is
                        // written exactly once.
                        unsafe { ptr.0.add(start + offset).write(r) };
                    }
                }
            });
        }

        let mut metrics = KernelMetrics {
            warps: num_warps as u64,
            threads: num_threads as u64,
            ..Default::default()
        };
        let mut useful = 0.0;
        let mut issued = 0.0;
        for shard in &shards {
            let cycles = shard.cycles();
            metrics.total_cycles += cycles;
            metrics.critical_path_cycles = metrics.critical_path_cycles.max(cycles);
            let (rt, sm, mem) = shard.cycle_breakdown();
            metrics.rt_core_cycles += rt;
            metrics.sm_cycles += sm;
            metrics.mem_stall_cycles += mem;
            metrics.memory.merge(&shard.memory_stats());
            let (u, i) = shard.simt_work();
            useful += u;
            issued += i;
        }
        self.spare_shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut shards);
        metrics.simt_efficiency = if issued > 0.0 {
            (useful / issued).clamp(0.0, 1.0)
        } else {
            1.0
        };
        metrics.time_ms = self.config.cycles_to_ms(metrics.critical_path_cycles);
        (results, metrics)
    }

    /// `n` shards for a launch: spares first, fresh ones for the rest.
    /// Shards are created only when no spare is left, which bounds how many
    /// the device ever holds.
    fn take_shards(&self, n: usize) -> Vec<SmShard> {
        let mut shards = {
            let mut spare = self
                .spare_shards
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let keep = spare.len().saturating_sub(n);
            spare.split_off(keep)
        };
        while shards.len() < n {
            shards.push(SmShard::new(&self.config));
        }
        shards
    }
}

/// Disjoint-write pointer wrapper (same pattern as `rtnn-parallel`).
struct ResultsPtr<T>(*mut T);
impl<T> Clone for ResultsPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ResultsPtr<T> {}
unsafe impl<T> Send for ResultsPtr<T> {}
unsafe impl<T> Sync for ResultsPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IsShaderKind;
    use rtnn_parallel::with_thread_count;

    #[test]
    fn build_time_is_linear_in_primitives() {
        let d = Device::rtx_2080();
        let t0 = d.accel_build_time_ms(0);
        let t1 = d.accel_build_time_ms(1_000_000);
        let t2 = d.accel_build_time_ms(2_000_000);
        let t4 = d.accel_build_time_ms(4_000_000);
        assert_eq!(t0, 0.0);
        // Linear beyond the fixed overhead: equal increments.
        let d1 = t2 - t1;
        let d2 = t4 - t2;
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
        assert!(t1 > 0.0);
    }

    #[test]
    fn refit_is_much_cheaper_than_build_but_not_free() {
        let d = Device::rtx_2080();
        for n in [100_000usize, 1_000_000, 10_000_000] {
            let build = d.accel_build_time_ms(n);
            let refit = d.accel_refit_time_ms(n);
            assert!(refit > 0.0);
            assert!(
                refit < build / 2.0,
                "refit {refit} not clearly cheaper than build {build} at n={n}"
            );
        }
        assert_eq!(d.accel_refit_time_ms(0), 0.0);
        // Linear in the primitive count beyond the fixed overhead.
        let d1 = d.accel_refit_time_ms(2_000_000) - d.accel_refit_time_ms(1_000_000);
        let d2 = d.accel_refit_time_ms(4_000_000) - d.accel_refit_time_ms(2_000_000);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
    }

    #[test]
    fn ti_builds_faster_than_2080() {
        let n = 10_000_000;
        assert!(
            Device::rtx_2080_ti().accel_build_time_ms(n)
                < Device::rtx_2080().accel_build_time_ms(n)
        );
    }

    #[test]
    fn transfer_times_scale_with_bytes() {
        let d = Device::rtx_2080();
        let one_gb = d.transfer_h2d_ms(1_000_000_000);
        assert!((one_gb - 1000.0 / 12.0).abs() < 1.0);
        assert!(d.transfer_d2h_ms(1_000_000_000) < one_gb);
        assert_eq!(d.transfer_h2d_ms(0), 0.0);
    }

    #[test]
    fn allocation_check() {
        let d = Device::tiny_test_device();
        assert!(d.check_allocation(1024).is_ok());
        let err = d.check_allocation(u64::MAX).unwrap_err();
        assert!(err.requested_bytes > err.capacity_bytes);
        assert!(err.to_string().contains("exceeds device memory"));
    }

    #[test]
    fn run_warps_returns_per_thread_results_in_order() {
        let d = Device::tiny_test_device();
        let n = 1000;
        let (results, metrics) = d.run_warps(n, |range, shard| {
            shard.charge_sm_ops(range.len() as f64);
            range.map(|i| i as u64 * 3).collect()
        });
        assert_eq!(results.len(), n);
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i as u64 * 3);
        }
        assert_eq!(metrics.threads, n as u64);
        assert_eq!(metrics.warps, n.div_ceil(32) as u64);
        assert!(metrics.time_ms > 0.0);
        assert!(metrics.total_cycles >= metrics.critical_path_cycles);
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let d = Device::tiny_test_device();
        let (results, metrics) = d.run_warps::<u32, _>(0, |_, _| Vec::new());
        assert!(results.is_empty());
        assert_eq!(metrics.warps, 0);
        assert_eq!(metrics.time_ms, 0.0);
    }

    #[test]
    fn balanced_work_beats_imbalanced_work() {
        // Same total work; one distribution concentrates it in a single warp.
        let d = Device::tiny_test_device();
        let n = 32 * 64;
        let total_ops = 32_000.0;
        let (_, balanced) = d.run_warps(n, |range, shard| {
            shard.charge_sm_ops(total_ops / (n as f64 / range.len() as f64));
            vec![(); range.len()]
        });
        let (_, imbalanced) = d.run_warps(n, |range, shard| {
            if range.start == 0 {
                shard.charge_sm_ops(total_ops);
            }
            vec![(); range.len()]
        });
        assert!(imbalanced.time_ms > balanced.time_ms);
    }

    #[test]
    fn more_sms_means_faster_kernels() {
        let work = |range: std::ops::Range<usize>, shard: &mut SmShard| {
            shard.charge_is_calls(range.len() as f64, IsShaderKind::RangeSphereTest);
            vec![(); range.len()]
        };
        let n = 100_000;
        let (_, small) = Device::rtx_2080().run_warps(n, work);
        let (_, big) = Device::rtx_2080_ti().run_warps(n, work);
        assert!(big.time_ms < small.time_ms);
    }

    #[test]
    fn metrics_are_bit_identical_at_any_thread_count() {
        // Per-SM cycles are non-integer and span many magnitudes, so summing
        // the shards in the order host threads finish them moves low bits.
        let d = Device::rtx_2080();
        let num_sms = d.config().num_sms;
        let launch = || {
            d.run_warps(num_sms * 32 * 8, |range, shard| {
                let w = range.start / 32;
                let sm = w % num_sms;
                let addrs: Vec<u64> = range
                    .clone()
                    .map(|i| (i as u64).wrapping_mul(2_654_435_761) % 100_003 * 64)
                    .collect();
                shard.access_warp_memory(&addrs);
                shard.charge_sm_cycles((1.0 + w as f64 / 3.0) * 10f64.powi((sm % 9) as i32));
                shard.charge_rt_node_tests(w as f64 / 7.0);
                shard.note_simt_work(w as f64 * 0.7, 32.0);
                vec![(); range.len()]
            })
            .1
        };
        let bits = |m: &KernelMetrics| {
            let floats = [
                m.time_ms,
                m.total_cycles,
                m.critical_path_cycles,
                m.rt_core_cycles,
                m.sm_cycles,
                m.mem_stall_cycles,
                m.simt_efficiency,
            ]
            .map(f64::to_bits);
            (floats, m.warps, m.threads, m.memory)
        };
        let reference = bits(&with_thread_count(1, launch));
        for run in 0..30 {
            assert_eq!(bits(&with_thread_count(4, launch)), reference, "run {run}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let d = Device::rtx_2080();
        let run = || {
            d.run_warps(10_000, |range, shard| {
                let addrs: Vec<u64> = range.clone().map(|i| (i as u64 % 997) * 64).collect();
                shard.access_warp_memory(&addrs);
                shard.charge_sm_ops(range.len() as f64);
                vec![(); range.len()]
            })
            .1
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
