//! Golden fingerprints of the execution engine: every answer and every
//! simulated number one query produces, hashed, so a refactor of the query
//! driver cannot move a single bit unnoticed.
//!
//! Each fingerprint is an FNV-1a hash over
//!
//! * the neighbor ids (with per-query lengths),
//! * the five `TimeBreakdown` components,
//! * every counter of `search_metrics` and `fs_metrics`, their kernels'
//!   cycle split, SIMT efficiency, warp and thread counts and L1/L2/DRAM
//!   counters included,
//! * `num_partitions` and `num_bundles`,
//! * each pipeline stage's simulated `device_ms`.
//!
//! Host wall-clock and invocation counts are left out: the first is not
//! deterministic, the second describes how the driver is organised rather
//! than what it computes.
//!
//! Two scenes are pinned. A fresh `Index` answers {knn, range, capped
//! range, two-slice batch} at every `OptLevel`. A `DynamicIndex` runs a
//! frame sequence (first search, pure motion, no motion, remove + insert)
//! through its refit, reuse and rebuild paths, each frame growing its
//! megacells over the grid the index maintains.
//!
//! If a change is *meant* to move simulated numbers, say so in the change
//! and update the constants from the `got` values the failures print.

use rtnn::{
    EngineConfig, GpusimBackend, Index, LaunchMetrics, OptLevel, PlanSlice, QueryPlan, RtnnConfig,
    SearchParams, SearchResults,
};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_dynamic::{DynamicIndex, RebuildPolicy, StructureAction};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn launch(&mut self, m: &LaunchMetrics) {
        let k = &m.kernel;
        for v in [
            m.active_rays,
            m.node_visits,
            m.prim_tests,
            m.is_calls,
            m.terminated_rays,
            m.hit_rays,
            k.warps,
            k.threads,
            k.memory.l1.accesses,
            k.memory.l1.hits,
            k.memory.l2.accesses,
            k.memory.l2.hits,
            k.memory.dram_accesses,
        ] {
            self.u64(v);
        }
        for v in [
            k.time_ms,
            k.total_cycles,
            k.critical_path_cycles,
            k.rt_core_cycles,
            k.sm_cycles,
            k.mem_stall_cycles,
            k.simt_efficiency,
        ] {
            self.f64(v);
        }
    }

    fn results(&mut self, r: &SearchResults) {
        self.u64(r.neighbors.len() as u64);
        for list in &r.neighbors {
            self.u64(list.len() as u64);
            for &id in list {
                self.u64(u64::from(id));
            }
        }
        for (_, ms) in r.breakdown.components() {
            self.f64(ms);
        }
        self.launch(&r.search_metrics);
        self.launch(&r.fs_metrics);
        self.u64(r.num_partitions as u64);
        self.u64(r.num_bundles as u64);
        for stage in r.trace.stages() {
            self.f64(stage.device_ms);
        }
    }
}

fn fingerprint(r: &SearchResults) -> u64 {
    let mut h = Fnv::new();
    h.results(r);
    h.0
}

/// A sparse 100³ cloud with a dense 10³ clump, so partitioning finds
/// megacells of several widths.
fn scene() -> Vec<Vec3> {
    let sparse = uniform::generate(&UniformParams {
        num_points: 2000,
        seed: 0x601D,
        ..Default::default()
    });
    let dense = uniform::generate(&UniformParams {
        num_points: 1000,
        bounds: Aabb::new(Vec3::splat(40.0), Vec3::splat(50.0)),
        seed: 0xC1A5,
    });
    sparse.points.into_iter().chain(dense.points).collect()
}

fn queries(points: &[Vec3]) -> Vec<Vec3> {
    let mut q: Vec<Vec3> = points.iter().step_by(6).copied().collect();
    q.push(Vec3::splat(-60.0)); // outside the cloud
    q
}

fn plans(num_queries: usize) -> [(&'static str, QueryPlan); 4] {
    let n = num_queries as u32;
    [
        ("knn", QueryPlan::knn(9.0, 8)),
        ("range", QueryPlan::range(6.0, 4096)),
        ("capped_range", QueryPlan::range(9.0, 3)),
        (
            "batch",
            QueryPlan::Batch(vec![
                PlanSlice::new(QueryPlan::knn(9.0, 8), (0..n).step_by(2).collect()),
                PlanSlice::new(QueryPlan::range(5.0, 64), (1..n).step_by(2).collect()),
            ]),
        ),
    ]
}

/// `(plan, level, fingerprint)` for a fresh `Index` per pair.
const FRESH_INDEX: [(&str, OptLevel, u64); 16] = [
    ("knn", OptLevel::NoOpt, 0x8C46_66E7_9F3C_033D),
    ("knn", OptLevel::Sched, 0x200E_0196_C591_1EF9),
    ("knn", OptLevel::SchedPartition, 0x550E_DCFB_2E5D_74AC),
    ("knn", OptLevel::Full, 0x2F4D_8CA9_8BEC_DAF5),
    ("range", OptLevel::NoOpt, 0x65D6_9DAA_6470_41C7),
    ("range", OptLevel::Sched, 0xFCC7_996E_8DBD_8473),
    ("range", OptLevel::SchedPartition, 0xEEE7_69F5_43CA_96FD),
    ("range", OptLevel::Full, 0x214B_0BEF_CA41_791E),
    ("capped_range", OptLevel::NoOpt, 0xEBAB_3B3C_AB30_E6C5),
    ("capped_range", OptLevel::Sched, 0x71ED_80B4_79BD_8F36),
    (
        "capped_range",
        OptLevel::SchedPartition,
        0x5BC3_8F31_4BED_E028,
    ),
    ("capped_range", OptLevel::Full, 0x14DA_1A24_3FB5_D4A7),
    ("batch", OptLevel::NoOpt, 0xE493_BD89_F162_321B),
    ("batch", OptLevel::Sched, 0xE733_F9C7_8BE2_A8BD),
    ("batch", OptLevel::SchedPartition, 0x2FDA_AB5E_F6DC_4E54),
    ("batch", OptLevel::Full, 0x5FEA_37CD_46F9_3E24),
];

/// `(frame, expected action, fingerprint)`; the fingerprint also covers the
/// frame's simulated structure-maintenance ms.
const DYNAMIC_FRAMES: [(&str, StructureAction, u64); 4] = [
    (
        "first search",
        StructureAction::Rebuilt,
        0x19FB_70BC_CC49_DE5C,
    ),
    ("pure motion", StructureAction::Refit, 0x71DD_ED44_CA8D_3E9D),
    ("no motion", StructureAction::Reused, 0x0D03_D7F9_72EE_7DCD),
    (
        "remove + insert",
        StructureAction::Rebuilt,
        0x00AF_5EA2_97CE_2DFC,
    ),
];

#[test]
fn fresh_index_fingerprints_are_unchanged_for_every_plan_and_level() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = scene();
    let queries = queries(&points);
    let mut drift = Vec::new();
    for (name, plan) in plans(queries.len()) {
        for level in OptLevel::all() {
            let mut index = Index::build(
                &backend,
                &points[..],
                EngineConfig::default().with_opt(level),
            );
            let got = fingerprint(&index.query(&queries, &plan).unwrap());
            let want = FRESH_INDEX
                .iter()
                .find(|(n, l, _)| *n == name && *l == level)
                .map(|e| e.2)
                .unwrap();
            if got != want {
                drift.push(format!("{name} {level:?}: got {got:#018X}"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "fingerprints drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn dynamic_frame_fingerprints_are_unchanged() {
    let device = Device::rtx_2080();
    let points = scene();
    // Every point queries, so the megacell kernel outweighs its fixed
    // launch cost.
    let queries = points.clone();
    // A policy that never weighs wall-clock build profiles, so every run
    // takes the same refit/rebuild path.
    let mut index = DynamicIndex::with_policy(
        &device,
        RtnnConfig::new(SearchParams::knn(9.0, 8)),
        RebuildPolicy::never_rebuild(),
    );
    for &p in &points {
        index.insert(p);
    }
    let mut drift = Vec::new();
    for (frame, action, want) in DYNAMIC_FRAMES {
        match frame {
            "pure motion" => {
                // A slight contraction towards the centre: points stay
                // inside the grid bounds and few change cells, so the grid
                // absorbs the motion in place.
                let centre = Vec3::splat(50.0);
                for h in 0..points.len() as u32 {
                    let p = index.position(h).unwrap();
                    index.move_point(h, centre + (p - centre) * 0.9999);
                }
            }
            "remove + insert" => {
                for h in (0..points.len() as u32).step_by(97) {
                    assert!(index.remove(h));
                }
                for i in 0..20 {
                    index.insert(Vec3::new(45.0 + 0.1 * i as f32, 45.0, 45.0));
                }
            }
            _ => {}
        }
        let f = index.search(&queries).unwrap();
        assert_eq!(f.action, action, "{frame}: structure action");
        let mut h = Fnv::new();
        h.results(&f.results);
        h.f64(f.structure_ms);
        if h.0 != want {
            drift.push(format!("{frame}: got {:#018X}", h.0));
        }
    }
    assert!(
        drift.is_empty(),
        "fingerprints drifted:\n{}",
        drift.join("\n")
    );
}
