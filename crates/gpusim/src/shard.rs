//! Per-SM simulation state.
//!
//! The device splits work into warps and assigns warps round-robin to SM
//! shards. Each shard owns a private L1 and a 1/`num_sms` slice of the L2,
//! which keeps the simulation deterministic even when shards are simulated
//! on different host threads. Warp executors (the OptiX pipeline, the plain
//! SM kernel runner) charge their work to the shard through the methods
//! below; the device then reduces shard cycle counts into a kernel time.

use crate::cache::SetAssociativeCache;
use crate::config::{CostModel, DeviceConfig, IsShaderKind};
use crate::metrics::MemoryStats;

/// Simulation state of one streaming multiprocessor (plus its RT core and
/// its slice of the L2).
#[derive(Debug, Clone)]
pub struct SmShard {
    cost: CostModel,
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    cycles: f64,
    rt_core_cycles: f64,
    sm_cycles: f64,
    mem_stall_cycles: f64,
    dram_accesses: u64,
    useful_lane_work: f64,
    issued_warp_work: f64,
    warps_executed: u64,
}

impl SmShard {
    /// Create a shard for one SM of `config`.
    pub fn new(config: &DeviceConfig) -> Self {
        let mut l2_cfg = config.l2;
        l2_cfg.capacity_bytes =
            (l2_cfg.capacity_bytes / config.num_sms.max(1)).max(l2_cfg.line_bytes * l2_cfg.ways);
        SmShard {
            cost: config.cost,
            l1: SetAssociativeCache::new(config.l1),
            l2: SetAssociativeCache::new(l2_cfg),
            cycles: 0.0,
            rt_core_cycles: 0.0,
            sm_cycles: 0.0,
            mem_stall_cycles: 0.0,
            dram_accesses: 0,
            useful_lane_work: 0.0,
            issued_warp_work: 0.0,
            warps_executed: 0,
        }
    }

    /// Return to the state [`SmShard::new`] gives: cold caches and zero
    /// counters, keeping every allocation.
    pub(crate) fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.cycles = 0.0;
        self.rt_core_cycles = 0.0;
        self.sm_cycles = 0.0;
        self.mem_stall_cycles = 0.0;
        self.dram_accesses = 0;
        self.useful_lane_work = 0.0;
        self.issued_warp_work = 0.0;
        self.warps_executed = 0;
    }

    /// The cost model in effect.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Mark the start of a warp (bumps the warp counter).
    pub fn begin_warp(&mut self) {
        self.warps_executed += 1;
    }

    /// Charge `units` BVH node tests to the RT core.
    pub fn charge_rt_node_tests(&mut self, units: f64) {
        let c = units * self.cost.node_test_cycles;
        self.rt_core_cycles += c;
        self.cycles += c;
    }

    /// Charge `units` primitive-AABB tests to the RT core.
    pub fn charge_rt_prim_tests(&mut self, units: f64) {
        let c = units * self.cost.prim_test_cycles;
        self.rt_core_cycles += c;
        self.cycles += c;
    }

    /// Charge `count` intersection-shader invocations of `kind` to the SM.
    pub fn charge_is_calls(&mut self, count: f64, kind: IsShaderKind) {
        let c = count * self.cost.is_call_cycles(kind);
        self.sm_cycles += c;
        self.cycles += c;
    }

    /// Charge `count` generic SM operations (used by baseline kernels).
    pub fn charge_sm_ops(&mut self, count: f64) {
        let c = count * self.cost.sm_op_cycles;
        self.sm_cycles += c;
        self.cycles += c;
    }

    /// Charge raw SM cycles (for shader bodies whose cost the caller already
    /// expressed in cycles).
    pub fn charge_sm_cycles(&mut self, cycles: f64) {
        self.sm_cycles += cycles;
        self.cycles += cycles;
    }

    /// `log2` of the L1 line size: a warp's reads of byte addresses `a`
    /// and `b` coalesce into one transaction when
    /// `a >> line_shift() == b >> line_shift()`.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.l1.line_shift()
    }

    /// Issue one warp-level memory transaction per L1 line in `lines` — the
    /// distinct lines the warp reads, in ascending order — probe the cache
    /// hierarchy and charge the resulting stall cycles, summed in that
    /// order. An L1 miss probes the L2 line holding the same bytes.
    pub fn access_lines(&mut self, lines: &[u64]) {
        debug_assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "a warp's lines must be ascending and distinct"
        );
        if lines.is_empty() {
            return;
        }
        let (l1_shift, l2_shift) = (self.l1.line_shift(), self.l2.line_shift());
        let mut stall = 0.0;
        for &line in lines {
            if self.l1.access(line) {
                stall += self.cost.l1_hit_cycles;
            } else if self.l2.access((line << l1_shift) >> l2_shift) {
                stall += self.cost.l2_hit_cycles;
            } else {
                self.dram_accesses += 1;
                stall += self.cost.dram_cycles;
            }
        }
        let visible = stall * (1.0 - self.cost.latency_hiding);
        self.mem_stall_cycles += visible;
        self.cycles += visible;
    }

    /// Record SIMT efficiency inputs for one warp: `useful` is the sum of
    /// per-lane work items, `issued` is the work the warp actually had to
    /// issue in lockstep (≥ `useful / warp_size`). Both in arbitrary but
    /// consistent units.
    pub fn note_simt_work(&mut self, useful: f64, issued: f64) {
        self.useful_lane_work += useful;
        self.issued_warp_work += issued;
    }

    /// Total cycles accumulated on this shard.
    #[inline]
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Number of warps executed on this shard.
    #[inline]
    pub fn warps_executed(&self) -> u64 {
        self.warps_executed
    }

    /// Breakdown `(rt_core, sm, mem_stall)` cycles.
    pub fn cycle_breakdown(&self) -> (f64, f64, f64) {
        (self.rt_core_cycles, self.sm_cycles, self.mem_stall_cycles)
    }

    /// SIMT efficiency inputs `(useful, issued)`.
    pub fn simt_work(&self) -> (f64, f64) {
        (self.useful_lane_work, self.issued_warp_work)
    }

    /// Memory counters for this shard.
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            dram_accesses: self.dram_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn shard() -> SmShard {
        SmShard::new(&DeviceConfig::tiny_test_device())
    }

    #[test]
    fn charges_accumulate_cycles() {
        let mut s = shard();
        assert_eq!(s.cycles(), 0.0);
        s.charge_rt_node_tests(10.0);
        s.charge_is_calls(2.0, IsShaderKind::Knn);
        s.charge_sm_ops(5.0);
        let (rt, sm, mem) = s.cycle_breakdown();
        assert!(rt > 0.0 && sm > 0.0);
        assert_eq!(mem, 0.0);
        assert!((s.cycles() - (rt + sm)).abs() < 1e-9);
        // KNN IS calls are the most expensive item charged here.
        assert!(sm > rt);
    }

    #[test]
    fn every_listed_line_is_one_access() {
        let mut s = shard();
        s.access_lines(&[16]);
        assert_eq!(s.memory_stats().l1.accesses, 1);
        let spread: Vec<u64> = (0..32u64).map(|i| 1_000 + i * 3).collect();
        s.access_lines(&spread);
        assert_eq!(s.memory_stats().l1.accesses, 33);
    }

    #[test]
    fn an_l1_miss_probes_the_l2_line_holding_the_same_bytes() {
        // 64-byte L1 lines inside 256-byte L2 lines: L1 lines 8..12 share
        // one L2 line, so only the first of them reaches DRAM.
        let mut config = DeviceConfig::tiny_test_device();
        config.l2.line_bytes = 256;
        let mut s = SmShard::new(&config);
        s.access_lines(&[8, 9, 10, 11, 12]);
        let m = s.memory_stats();
        assert_eq!((m.l1.accesses, m.l1.hits), (5, 0));
        assert_eq!((m.l2.accesses, m.l2.hits), (5, 3));
        assert_eq!(m.dram_accesses, 2);
    }

    #[test]
    fn repeated_warp_accesses_hit_in_l1() {
        let mut s = shard();
        let lines = [0, 1, 2, 3];
        s.access_lines(&lines);
        let cold_cycles = s.cycles();
        s.access_lines(&lines);
        let warm_cycles = s.cycles() - cold_cycles;
        assert!(
            warm_cycles < cold_cycles,
            "warm {warm_cycles} vs cold {cold_cycles}"
        );
        assert!(s.memory_stats().l1.hits >= 4);
    }

    #[test]
    fn dram_accesses_are_counted() {
        let mut s = shard();
        // Stream far more distinct lines than L1+L2 shard capacity.
        for line in 0..2000u64 {
            s.access_lines(&[line]);
        }
        let m = s.memory_stats();
        assert!(m.dram_accesses > 0);
        assert!(s.cycle_breakdown().2 > 0.0);
    }

    #[test]
    fn empty_memory_access_is_free() {
        let mut s = shard();
        s.access_lines(&[]);
        assert_eq!(s.cycles(), 0.0);
        assert_eq!(s.memory_stats().l1.accesses, 0);
    }

    #[test]
    fn a_reset_shard_replays_bit_identically_to_a_fresh_one() {
        let config = DeviceConfig::rtx_2080();
        // Non-integer charges and enough distinct lines to reach DRAM.
        let replay = |s: &mut SmShard, seed: u64| {
            for w in 0..200u64 {
                s.begin_warp();
                let lines: std::collections::BTreeSet<u64> = (0..32u64)
                    .map(|lane| ((w * 977 + lane * 131 + seed) % 5000 * 96) >> s.line_shift())
                    .collect();
                s.access_lines(&lines.into_iter().collect::<Vec<_>>());
                s.charge_rt_node_tests(w as f64 / 3.0);
                s.charge_is_calls(w as f64 / 7.0, IsShaderKind::Knn);
                s.note_simt_work(w as f64 * 0.3, 32.0);
            }
        };
        let observe = |s: &SmShard| {
            let (rt, sm, mem) = s.cycle_breakdown();
            let (useful, issued) = s.simt_work();
            let floats = [s.cycles(), rt, sm, mem, useful, issued].map(f64::to_bits);
            (floats, s.memory_stats(), s.warps_executed())
        };
        let mut fresh = SmShard::new(&config);
        replay(&mut fresh, 0);
        let mut reused = SmShard::new(&config);
        replay(&mut reused, 12_345);
        assert_ne!(observe(&reused), observe(&fresh));
        reused.reset();
        replay(&mut reused, 0);
        assert_eq!(observe(&reused), observe(&fresh));
    }

    #[test]
    fn simt_bookkeeping() {
        let mut s = shard();
        s.begin_warp();
        s.note_simt_work(32.0, 32.0);
        s.begin_warp();
        s.note_simt_work(8.0, 32.0);
        assert_eq!(s.warps_executed(), 2);
        let (useful, issued) = s.simt_work();
        assert_eq!(useful, 40.0);
        assert_eq!(issued, 64.0);
    }
}
