//! Property test for refit correctness: after arbitrary point
//! perturbations, a `DynamicIndex` that is *forced* onto the refit path
//! (never-rebuild policy) must return bit-identical neighbor sets to a
//! fresh index built from scratch at the new positions — across both
//! search modes and all four optimisation levels. The refitted tree may be
//! arbitrarily worse to traverse, but never allowed to change an answer.

use proptest::prelude::*;
use rtnn::{EngineConfig, GpusimBackend, Index, OptLevel, RtnnConfig, SearchMode, SearchParams};
use rtnn_dynamic::{DynamicIndex, RebuildPolicy, StructureAction};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

fn point_in(half: f32) -> impl Strategy<Value = Vec3> {
    (-half..half, -half..half, -half..half).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud_strategy() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point_in(8.0), 20..100)
}

/// Deterministic per-point displacement: fine-grained pseudo-random values
/// in `[-2.5, 2.5]` per axis, mixing intra-cell nudges with cross-cloud
/// jumps (and never producing exact distance ties).
fn displacement(h: usize, frame: usize, seed: u64) -> Vec3 {
    let mix = |salt: u64| {
        let mut x = (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (frame as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ seed.wrapping_add(salt);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        ((x % 100_000) as f32 / 100_000.0 - 0.5) * 5.0
    };
    Vec3::new(mix(1), mix(2), mix(3))
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn refit_returns_bit_identical_neighbor_sets_to_a_rebuild(
        points in cloud_strategy(),
        seed_frames in 1usize..3,
        motion_seed in any::<u64>(),
        radius in 0.8f32..4.0,
        k in 1usize..16,
        mode_is_knn in any::<bool>(),
        opt_idx in 0usize..4,
    ) {
        let device = Device::rtx_2080();
        let mode = if mode_is_knn { SearchMode::Knn } else { SearchMode::Range };
        // Range mode caps the result at K neighbors, and *which* K is
        // topology-dependent — so give range searches a cap that never
        // binds; KNN's k-subset is distance-determined and stays comparable.
        let k = if mode_is_knn { k } else { 10_000 };
        let params = SearchParams { radius, k, mode };
        let opt = OptLevel::all()[opt_idx];
        let config = RtnnConfig {
            params,
            engine: EngineConfig::default()
                .with_opt(opt)
                .with_grid_max_cells(1 << 12),
        };

        // Force the refit path for every motion frame.
        let mut index =
            DynamicIndex::with_policy(&device, config, RebuildPolicy::never_rebuild());
        let mut current = points.clone();
        for &p in &current {
            index.insert(p);
        }
        let queries: Vec<Vec3> = current.iter().step_by(3).copied().collect();
        let first = index.search(&queries).unwrap();
        prop_assert_eq!(first.action, StructureAction::Rebuilt);

        // Drift the cloud a few frames, refitting every time.
        for frame in 0..seed_frames {
            for (h, p) in current.iter_mut().enumerate() {
                *p += displacement(h, frame, motion_seed);
                index.move_point(h as u32, *p);
            }
            let queries: Vec<Vec3> = current.iter().step_by(3).copied().collect();
            let refit = index.search(&queries).unwrap();
            prop_assert_eq!(refit.action, StructureAction::Refit);

            let fresh = Index::build(&GpusimBackend::new(&device), &current[..], config.engine)
                .query(&queries, &config.plan())
                .unwrap();
            for qi in 0..queries.len() {
                let d = sorted(refit.results.neighbors[qi].clone());
                let f = sorted(fresh.neighbors[qi].clone());
                prop_assert!(
                    d == f,
                    "{mode:?} {opt:?} frame {frame} query {qi}: refit {d:?} vs rebuild {f:?}"
                );
            }
        }
    }
}
