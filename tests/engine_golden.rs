//! Golden fingerprints of the execution engine: every answer and every
//! simulated number one query produces, hashed, so a refactor of the query
//! driver cannot move a single bit unnoticed.
//!
//! Each fingerprint is an FNV-1a hash over
//!
//! * the neighbor ids (with per-query lengths),
//! * the five `TimeBreakdown` components,
//! * the counters and kernel time of `search_metrics` and `fs_metrics`,
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
//! whose refit frames must keep hitting the megacell cache; a frame that
//! recomputed its megacells would charge a different partition kernel.
//!
//! If a change is *meant* to move simulated numbers, say so in the change
//! and update the constants from the `got` values the failures print.

use rtnn::{
    EngineConfig, GpusimBackend, Index, LaunchMetrics, OptLevel, PlanSlice, QueryPlan, RtnnConfig,
    SearchParams, SearchResults, StageKind,
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
        for v in [
            m.active_rays,
            m.node_visits,
            m.prim_tests,
            m.is_calls,
            m.terminated_rays,
            m.hit_rays,
        ] {
            self.u64(v);
        }
        self.f64(m.kernel.time_ms);
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
    ("knn", OptLevel::NoOpt, 0xAADA_E014_8903_2A7F),
    ("knn", OptLevel::Sched, 0xB4D7_07F1_BA81_981F),
    ("knn", OptLevel::SchedPartition, 0xE0C0_3BC9_AD80_E43B),
    ("knn", OptLevel::Full, 0x9D2E_319D_6808_2DF0),
    ("range", OptLevel::NoOpt, 0xE695_6F5E_473B_1611),
    ("range", OptLevel::Sched, 0xA88F_4D7B_380E_A832),
    ("range", OptLevel::SchedPartition, 0x0FF9_12ED_5E5A_4B1C),
    ("range", OptLevel::Full, 0x1A2B_0456_A361_E933),
    ("capped_range", OptLevel::NoOpt, 0xBFE2_BC21_3C63_5A54),
    ("capped_range", OptLevel::Sched, 0xE75B_7617_3885_8F86),
    (
        "capped_range",
        OptLevel::SchedPartition,
        0xA066_4B7C_3A16_A34B,
    ),
    ("capped_range", OptLevel::Full, 0x4CA2_8ACA_E9AC_6693),
    ("batch", OptLevel::NoOpt, 0xCE12_C3E1_EDA4_D964),
    ("batch", OptLevel::Sched, 0x3508_6A74_D201_20F2),
    ("batch", OptLevel::SchedPartition, 0x5E4C_86E8_0B0A_A16A),
    ("batch", OptLevel::Full, 0x8FAA_8DE9_3465_DE5C),
];

/// `(frame, expected action, fingerprint)`; the fingerprint also covers the
/// frame's simulated structure-maintenance ms.
const DYNAMIC_FRAMES: [(&str, StructureAction, u64); 4] = [
    (
        "first search",
        StructureAction::Rebuilt,
        0x724E_334C_C47F_A691,
    ),
    ("pure motion", StructureAction::Refit, 0x41D2_2F01_EE9E_5DC3),
    ("no motion", StructureAction::Reused, 0xD97F_A8BE_025E_9C65),
    (
        "remove + insert",
        StructureAction::Rebuilt,
        0x4845_67CC_1008_1B8F,
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
    let mut first_partition_ms = None;
    for (frame, action, want) in DYNAMIC_FRAMES {
        match frame {
            "pure motion" => {
                // A slight contraction towards the centre: points stay
                // inside the grid bounds and few change cells, so most
                // queries keep their cached megacells.
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
        // Cache hits probe one entry instead of growing a megacell, so the
        // refit and reuse frames charge a cheaper partition kernel.
        let partition_ms = f.results.trace.stage(StageKind::Partition).device_ms;
        match action {
            StructureAction::Rebuilt => {
                first_partition_ms = first_partition_ms.or(Some(partition_ms))
            }
            _ => assert!(
                partition_ms < first_partition_ms.unwrap(),
                "{frame}: the megacell cache was not hit"
            ),
        }
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
