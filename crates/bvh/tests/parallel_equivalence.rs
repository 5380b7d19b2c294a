//! Property tests pinning the parallel construction path to the serial
//! oracle: for arbitrary clouds, at every tested thread count, the staged
//! parallel LBVH pipeline must produce a **bit-identical** tree to
//! `BvhBuilder::LbvhSerial`, and the subtree-parallel refit must leave the
//! tree in exactly the state the serial refit produces — across all three
//! drift generators (`rtnn_data::dynamics`), over several motion frames.
//!
//! "Bit-identical" is `Bvh::bit_identical`: same leaf records, same node
//! layout, same AABB bit patterns. Thread count may change only how fast
//! the structure is built, never a single bit of it.

use proptest::prelude::*;
use rtnn_bvh::{
    build_point_bvh, refit_bvh_serial, refit_bvh_with_cut, validate_bvh, BuildParams, BvhBuilder,
};
use rtnn_data::dynamics::{DriftModel, DriftScene};
use rtnn_data::PointCloud;
use rtnn_math::Vec3;
use rtnn_parallel::with_thread_count;

fn point_in(half: f32) -> impl Strategy<Value = Vec3> {
    (-half..half, -half..half, -half..half).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud_strategy() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point_in(8.0), 1..120)
}

fn drift_model(idx: usize) -> DriftModel {
    match idx % 3 {
        0 => DriftModel::SphSettle {
            compression: 0.9,
            jitter: 0.05,
        },
        1 => DriftModel::NBodyOrbit { angular_step: 0.2 },
        _ => DriftModel::LidarSweep {
            velocity: Vec3::new(0.4, 0.1, 0.0),
            // No churn: refit requires a fixed primitive count.
            churn_fraction: 0.0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn parallel_build_is_bit_identical_at_every_thread_count(
        points in cloud_strategy(),
        width in 0.1f32..2.0,
        max_leaf in 1u32..5,
    ) {
        let serial_params = BuildParams {
            builder: BvhBuilder::LbvhSerial,
            max_leaf_size: max_leaf,
        };
        let parallel_params = BuildParams {
            builder: BvhBuilder::Lbvh,
            max_leaf_size: max_leaf,
        };
        let oracle = build_point_bvh(&points, 0.5 * width, serial_params);
        validate_bvh(&oracle).unwrap();
        for threads in [1usize, 2, 6] {
            let tree = with_thread_count(threads, || {
                build_point_bvh(&points, 0.5 * width, parallel_params)
            });
            prop_assert!(tree.bit_identical(&oracle), "{} threads", threads);
        }
    }

    #[test]
    fn parallel_refit_matches_the_serial_oracle_across_drift_generators(
        points in cloud_strategy(),
        width in 0.2f32..1.5,
        model_idx in 0usize..3,
        seed in any::<u64>(),
        frames in 1usize..4,
    ) {
        let params = BuildParams {
            builder: BvhBuilder::Lbvh,
            max_leaf_size: 4,
        };
        let built = build_point_bvh(&points, 0.5 * width, params);
        let mut scene = DriftScene::new(
            &PointCloud::new("prop", points),
            drift_model(model_idx),
            seed,
        );
        let mut serial_tree = built.clone();
        for frame in 0..frames {
            scene.step();
            let moved = scene.live_points();
            refit_bvh_serial(&mut serial_tree, &moved).unwrap();
            for threads in [1usize, 2, 5] {
                for cut in [0u32, 2, 8] {
                    let mut tree = built.clone();
                    // Catch up to the serial tree's frame, then refit the
                    // final frame through the parallel path under test.
                    let stats = with_thread_count(threads, || {
                        refit_bvh_with_cut(&mut tree, &moved, cut)
                    })
                    .unwrap();
                    let context =
                        format!("model {model_idx} frame {frame} threads {threads} cut {cut}");
                    prop_assert!(tree.bit_identical(&serial_tree), "{}", context);
                    prop_assert_eq!(stats.nodes_updated, tree.nodes.len());
                    validate_bvh(&tree).unwrap();
                }
            }
        }
    }
}
