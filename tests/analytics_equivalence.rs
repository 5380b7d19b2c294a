//! Analytics equivalence suite: DBSCAN labels and reverse-k-NN member sets
//! must be **bit-equal** to the O(n²) oracles in `rtnn-baselines` no matter
//! which execution backend answers the neighborhood queries (gpusim or
//! brute force), how the executor is sharded (plain `Index`
//! vs `ShardedIndex` at several shard counts), or whether a dynamic scene
//! is clustered from scratch or maintained incrementally across frames.
//!
//! Every reduction in `rtnn-analytics` is order-invariant, so these are
//! exact `assert_eq!`s — no tolerance, no set-normalisation.

use proptest::prelude::*;
use rtnn::{Backend, EngineConfig, GpusimBackend, Index};
use rtnn_analytics::stream::FrameChange;
use rtnn_analytics::{Dbscan, ReverseKnn, StreamingDbscan};
use rtnn_baselines::{dbscan_oracle, rknn_oracle, BruteForceBackend};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_dynamic::DynamicIndex;
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::ShardedIndex;

fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

/// DBSCAN parameter sweep: sparse through dense neighborhoods.
const DBSCAN_GRID: [(f32, usize); 3] = [(0.6, 3), (0.9, 5), (1.4, 8)];
/// Reverse-k-NN parameter sweep.
const RKNN_GRID: [(usize, f32); 3] = [(1, 0.8), (3, 1.2), (6, 2.0)];

#[test]
fn dbscan_labels_match_the_oracle_on_every_backend() {
    let device = Device::rtx_2080();
    let backends: Vec<(&str, Box<dyn Backend>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];
    let points = seeded_cloud(420, 0xD85C);
    for (eps, min_pts) in DBSCAN_GRID {
        let want = dbscan_oracle(&points, eps, min_pts);
        for (name, backend) in &backends {
            let mut index =
                Index::build(backend.as_ref(), points.as_slice(), EngineConfig::default());
            let got = Dbscan::new(eps, min_pts)
                .run(&points, &mut index)
                .expect("dbscan fits the device");
            assert_eq!(
                got.labels, want,
                "backend {name}, eps {eps}, min_pts {min_pts}"
            );
        }
    }
}

#[test]
fn rknn_members_match_the_oracle_on_every_backend() {
    let device = Device::rtx_2080();
    let backends: Vec<(&str, Box<dyn Backend>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];
    let points = seeded_cloud(380, 0x4B1D);
    let mut queries: Vec<Vec3> = points.iter().step_by(11).copied().collect();
    queries.push(Vec3::new(-60.0, -60.0, -60.0)); // far outside: empty set
    for (k, r_max) in RKNN_GRID {
        let want = rknn_oracle(&points, &queries, k, r_max);
        for (name, backend) in &backends {
            let mut index =
                Index::build(backend.as_ref(), points.as_slice(), EngineConfig::default());
            let got = ReverseKnn::new(k, r_max)
                .run(&points, &queries, &mut index)
                .expect("rknn fits the device");
            assert_eq!(got.members, want, "backend {name}, k {k}, r_max {r_max}");
        }
    }
}

/// Shard counts 0 (no sharding: the plain `Index` executor), 1, 2 and 5:
/// per-shard partial hit lists are merged into canonical single-index
/// lists before any analytics reduction, so the full results — not just
/// the labels — are bit-equal.
#[test]
fn sharded_executors_are_bit_equal_to_the_plain_index() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(500, 0x5A4D);
    let queries: Vec<Vec3> = points.iter().step_by(17).copied().collect();
    let (eps, min_pts) = (0.9, 4);
    let (k, r_max) = (3, 1.1);

    let mut plain = Index::build(&backend, points.as_slice(), EngineConfig::default());
    let dbscan_plain = Dbscan::new(eps, min_pts)
        .run(&points, &mut plain)
        .expect("dbscan fits the device");
    let rknn_plain = ReverseKnn::new(k, r_max)
        .run(&points, &queries, &mut plain)
        .expect("rknn fits the device");
    assert_eq!(dbscan_plain.labels, dbscan_oracle(&points, eps, min_pts));

    for shards in [1usize, 2, 5] {
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), shards);
        let dbscan_got = Dbscan::new(eps, min_pts)
            .run(&points, &mut sharded)
            .expect("sharded dbscan fits the device");
        assert_eq!(dbscan_got, dbscan_plain, "dbscan, {shards} shards");
        let rknn_got = ReverseKnn::new(k, r_max)
            .run(&points, &queries, &mut sharded)
            .expect("sharded rknn fits the device");
        assert_eq!(rknn_got, rknn_plain, "rknn, {shards} shards");
    }
}

/// Drive a dynamic scene through moves, inserts and removes; every frame,
/// the incrementally maintained streaming labels and a from-scratch
/// clustering of the frame's live points must both match the oracle.
#[test]
fn dynamic_frames_match_the_oracle_every_frame() {
    let device = Device::rtx_2080();
    let config = rtnn::RtnnConfig::new(rtnn::SearchParams::range(0.9, 64));
    let mut points = seeded_cloud(260, 0xF00D);
    let (eps, min_pts) = (0.9, 4);
    let mut index = DynamicIndex::with_points(&device, config, &points);
    let mut stream = StreamingDbscan::new(Dbscan::new(eps, min_pts));
    let mut dead: Vec<u32> = Vec::new();

    for frame in 0..5u32 {
        let mut change = FrameChange::default();
        if frame > 0 {
            // Deterministic churn: a stripe of survivors moves, one point
            // retires, two join.
            let stride = 3 + frame as usize;
            let live: Vec<u32> = (0..points.len() as u32)
                .filter(|h| !dead.contains(h))
                .collect();
            for &h in live.iter().step_by(stride) {
                let p = points[h as usize] + Vec3::new(0.11 * frame as f32, -0.07, 0.05);
                points[h as usize] = p;
                index.move_point(h, p);
                change.moved.push(h);
            }
            let retire = live[live.len() / 2];
            index.remove(retire);
            dead.push(retire);
            change.removed.push(retire);
            for i in 0..2 {
                let p = points[(7 * frame as usize + i) % points.len()] + Vec3::new(0.3, 0.3, 0.3);
                let handle = index.insert(p);
                assert_eq!(handle as usize, points.len());
                points.push(p);
                change.inserted.push(handle);
            }
        }

        let streamed = stream
            .relabel(&mut index, &change)
            .expect("relabel fits the device");

        let mut frame_view = index.as_index().expect("frame view");
        let live: Vec<Vec3> = frame_view.index.points().to_vec();
        let handles: Vec<u32> = frame_view.handles.to_vec();
        let want = dbscan_oracle(&live, eps, min_pts);

        // From-scratch clustering of the frame's compact view.
        let fresh = Dbscan::new(eps, min_pts)
            .run(&live, &mut frame_view.index)
            .expect("dbscan fits the device");
        assert_eq!(fresh.labels, want, "frame {frame}, from scratch");

        // Streamed handle-space labels, translated to compact space.
        let mut compact_of = vec![u32::MAX; streamed.clustering.labels.len()];
        for (i, &h) in handles.iter().enumerate() {
            compact_of[h as usize] = i as u32;
        }
        let translated = streamed.clustering.labels_as(&compact_of);
        let streamed_compact: Vec<Option<u32>> =
            handles.iter().map(|&h| translated[h as usize]).collect();
        assert_eq!(streamed_compact, want, "frame {frame}, streamed");
    }
}

/// One drift frame in the property test: per-point jitter selectors plus
/// insert positions and removal picks.
#[derive(Debug, Clone)]
struct DriftFrame {
    move_mask: Vec<bool>,
    jitter: (f32, f32, f32),
    inserts: Vec<(f32, f32, f32)>,
    removes: Vec<u16>,
}

fn frame_strategy(n: usize) -> impl Strategy<Value = DriftFrame> {
    (
        proptest::collection::vec(any::<bool>(), n..n + 1),
        (-0.4f32..0.4, -0.4f32..0.4, -0.4f32..0.4),
        proptest::collection::vec((-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0), 0..3),
        proptest::collection::vec(any::<u16>(), 0..3),
    )
        .prop_map(|(move_mask, jitter, inserts, removes)| DriftFrame {
            move_mask,
            jitter,
            inserts,
            removes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Incremental relabel across arbitrary drift sequences stays
    /// bit-equal to a from-scratch recluster of every frame.
    #[test]
    fn streaming_relabel_matches_recluster_under_random_drift(
        seed in 0u64..1_000,
        frames in proptest::collection::vec(frame_strategy(60), 1..4),
    ) {
        let device = Device::rtx_2080();
        let config = || rtnn::RtnnConfig::new(rtnn::SearchParams::range(0.8, 64));
        let mut points = seeded_cloud(60, seed);
        let params = Dbscan::new(0.8, 3);
        let mut inc_index = DynamicIndex::with_points(&device, config(), &points);
        let mut full_index = DynamicIndex::with_points(&device, config(), &points);
        let mut inc = StreamingDbscan::new(params);
        let mut full = StreamingDbscan::new(params);
        let mut dead: Vec<u32> = Vec::new();

        for frame in &frames {
            let mut change = FrameChange::default();
            let live: Vec<u32> =
                (0..points.len() as u32).filter(|h| !dead.contains(h)).collect();
            // At least one point always survives (removals stop at one),
            // so `live` is never empty.
            prop_assert!(!live.is_empty());
            for (slot, &moved) in frame.move_mask.iter().enumerate() {
                if !moved || slot >= live.len() {
                    continue;
                }
                let h = live[slot];
                let (dx, dy, dz) = frame.jitter;
                let p = points[h as usize] + Vec3::new(dx, dy, dz);
                points[h as usize] = p;
                inc_index.move_point(h, p);
                full_index.move_point(h, p);
                change.moved.push(h);
            }
            for &(x, y, z) in &frame.inserts {
                let p = Vec3::new(x, y, z);
                let handle = inc_index.insert(p);
                prop_assert_eq!(handle, full_index.insert(p));
                prop_assert_eq!(handle as usize, points.len());
                points.push(p);
                change.inserted.push(handle);
            }
            for &pick in &frame.removes {
                let live_now: Vec<u32> =
                    (0..points.len() as u32).filter(|h| !dead.contains(h)).collect();
                if live_now.len() <= 1 {
                    break;
                }
                let h = live_now[pick as usize % live_now.len()];
                inc_index.remove(h);
                full_index.remove(h);
                dead.push(h);
                change.removed.push(h);
            }

            let a = inc.relabel(&mut inc_index, &change).expect("relabel");
            let b = full.recluster(&mut full_index).expect("recluster");
            prop_assert_eq!(&a.clustering, &b.clustering);
            prop_assert_eq!(a.alive, b.alive);
        }
    }
}
