//! Nondeterminism hazards: every dataset generator must produce bit-identical
//! clouds across repeated runs and across worker-thread counts, and the
//! engine's results and *simulated* timings must be independent of the host
//! thread count.
//!
//! These tests mutate the process-global `rtnn_parallel` thread count, so
//! they live in their own integration-test binary (own process) and
//! serialise the mutation behind a lock.

use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use std::sync::Mutex;

static THREAD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the worker-thread count pinned to `n`, restoring the default
/// afterwards.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap();
    rtnn_parallel::set_num_threads(n);
    let out = f();
    rtnn_parallel::set_num_threads(0);
    out
}

fn small_cloud(name: DatasetName) -> Vec<Vec3> {
    Dataset::scaled(name, name.paper_points() / 3000)
        .generate()
        .points
}

#[test]
fn every_dataset_family_is_reproducible_across_runs() {
    for name in DatasetName::all() {
        let a = small_cloud(name);
        let b = small_cloud(name);
        assert_eq!(
            a.len(),
            b.len(),
            "{}: cloud size changed between runs",
            name.label()
        );
        assert!(
            a.iter().zip(&b).all(|(p, q)| p == q),
            "{}: clouds differ between two generations with the same seed",
            name.label()
        );
    }
}

#[test]
fn dataset_generation_is_independent_of_thread_count() {
    for name in [
        DatasetName::Kitti1M,
        DatasetName::NBody9M,
        DatasetName::Bunny360K,
    ] {
        let serial = with_threads(1, || small_cloud(name));
        let parallel = with_threads(8, || small_cloud(name));
        assert!(
            serial.iter().zip(&parallel).all(|(p, q)| p == q) && serial.len() == parallel.len(),
            "{}: cloud depends on the worker-thread count",
            name.label()
        );
    }
}

#[test]
fn engine_results_and_simulated_times_are_independent_of_thread_count() {
    let device = Device::rtx_2080();
    let points = small_cloud(DatasetName::Kitti6M);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    let run = || {
        Index::build(
            &GpusimBackend::new(&device),
            &points[..],
            EngineConfig::default(),
        )
        .query(&queries, &QueryPlan::knn(2.0, 8))
        .unwrap()
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(8, run);
    assert_eq!(
        serial.neighbors, parallel.neighbors,
        "neighbor lists depend on thread count"
    );
    assert_eq!(
        serial.breakdown, parallel.breakdown,
        "simulated breakdown depends on thread count"
    );
    assert_eq!(
        serial.search_metrics, parallel.search_metrics,
        "simulated search metrics depend on thread count"
    );
}

#[test]
fn kitti_cloud_matches_golden_fingerprint() {
    // Bit-exact, order-sensitive fingerprint of one generated cloud: catches
    // accidental changes to the ChaCha8 stream, the seeding scheme, the
    // generator logic, or the emission *order* (a plain coordinate sum would
    // miss permutations, which silently change every downstream neighbor-id
    // ordering) — drift that same-process double-generation cannot see.
    let points = Dataset::scaled(DatasetName::Kitti1M, 10_000)
        .generate()
        .points;
    assert_eq!(points.len(), 1000);
    // FNV-1a over the points' coordinate bits, in emission order.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in &points {
        for bits in [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()] {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    assert_eq!(
        hash, GOLDEN_KITTI_FINGERPRINT,
        "KITTI-1M/10000 fingerprint drifted (got {hash:#018X}); if the \
         generator change is intentional, update GOLDEN_KITTI_FINGERPRINT"
    );
}

/// Order-sensitive FNV-1a hash of the `Kitti1M`-scaled-by-10000 cloud
/// (1000 points, seed 101). Update only for intentional generator changes.
const GOLDEN_KITTI_FINGERPRINT: u64 = 0x0FC2_A35B_CC0A_AA36;
