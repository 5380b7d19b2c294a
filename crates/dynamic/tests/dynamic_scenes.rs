//! Streaming-scene acceptance tests: a `DynamicIndex` driven through the
//! frame-stepped generators of `rtnn-data` must return neighbor sets
//! bit-equal to a fresh index rebuilt from scratch every frame, while
//! doing strictly less structure work.

use rtnn::{EngineConfig, GpusimBackend, Index, OptLevel, RtnnConfig, SearchParams, SearchResults};
use rtnn_data::dynamics::{DriftModel, DriftScene, FrameUpdate};
use rtnn_data::PointCloud;
use rtnn_dynamic::{DynamicIndex, RebuildPolicy, StructureAction};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// A jittered lattice block, SPH-like density. The jitter is a fine-grained
/// per-axis hash so no two pairwise distances collide exactly — KNN
/// boundary ties would otherwise make the chosen k-subset depend on
/// traversal order, which is exactly the freedom these bit-equality tests
/// must not grant.
fn fluid_block(n_per_axis: usize, spacing: f32) -> PointCloud {
    let mut pts = Vec::new();
    let jitter = |x: usize, y: usize, z: usize, salt: u32| {
        let h = (x as u32)
            .wrapping_mul(73856093)
            .wrapping_add((y as u32).wrapping_mul(19349663))
            .wrapping_add((z as u32).wrapping_mul(83492791))
            .wrapping_add(salt.wrapping_mul(2654435761));
        0.07 * spacing * ((h % 100_000) as f32 / 100_000.0 - 0.5)
    };
    for x in 0..n_per_axis {
        for y in 0..n_per_axis {
            for z in 0..n_per_axis {
                pts.push(Vec3::new(
                    x as f32 * spacing + jitter(x, y, z, 1),
                    y as f32 * spacing + jitter(x, y, z, 2),
                    z as f32 * spacing + jitter(x, y, z, 3),
                ));
            }
        }
    }
    PointCloud::new("fluid-block", pts)
}

/// Apply a scene frame to an index (slot ids equal handle ids by
/// construction: the index was seeded from the scene's initial slots in
/// order, and both allocate new slots sequentially).
fn apply_update(index: &mut DynamicIndex<'_>, scene: &DriftScene, update: &FrameUpdate) {
    for &slot in &update.removed {
        assert!(index.remove(slot));
    }
    for &slot in &update.inserted {
        let h = index.insert(scene.position(slot).unwrap());
        assert_eq!(h, slot, "scene slots and index handles must stay aligned");
    }
    for &slot in &update.moved {
        assert!(index.move_point(slot, scene.position(slot).unwrap()));
    }
}

/// The from-scratch reference: a fresh index over `points`.
fn rebuilt(
    device: &Device,
    config: RtnnConfig,
    points: &[Vec3],
    queries: &[Vec3],
) -> SearchResults {
    Index::build(&GpusimBackend::new(device), points, config.engine)
        .query(queries, &config.plan())
        .unwrap()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// The headline acceptance run: 50 frames of SPH settling.
#[test]
fn fifty_frame_sph_is_bit_identical_to_rebuilding_every_frame() {
    let device = Device::rtx_2080();
    let cloud = fluid_block(6, 0.22); // 216 particles, 50 frames
    let h = 2.2 * 0.22;
    // K above any realistic neighbor count so range results are full sets.
    let params = SearchParams::range(h, 4096);
    // A small grid budget keeps the debug-build test fast; production uses
    // the default multi-million-cell budget.
    let config = RtnnConfig {
        params,
        engine: EngineConfig::default().with_grid_max_cells(1 << 12),
    };
    let model = DriftModel::SphSettle {
        compression: 0.995,
        jitter: 0.002,
    };

    let mut scene = DriftScene::new(&cloud, model, 0xD1CE);
    let mut policy_index = DynamicIndex::with_points(&device, config, &cloud.points);
    let mut rebuild_index =
        DynamicIndex::with_policy(&device, config, RebuildPolicy::always_rebuild());
    for &p in &cloud.points {
        rebuild_index.insert(p);
    }

    let frames = 50;
    for frame in 0..frames {
        let update = scene.step();
        apply_update(&mut policy_index, &scene, &update);
        apply_update(&mut rebuild_index, &scene, &update);
        let points = scene.live_points();
        let queries = points.clone();

        let dynamic = policy_index.search(&queries).unwrap();
        let baseline = rebuild_index.search(&queries).unwrap();
        assert_eq!(baseline.action, StructureAction::Rebuilt);

        // Bit-identical neighbor sets: the policy-driven index against the
        // rebuild-every-frame index, every frame.
        for qi in 0..queries.len() {
            assert_eq!(
                sorted(dynamic.results.neighbors[qi].clone()),
                sorted(baseline.results.neighbors[qi].clone()),
                "frame {frame} query {qi}: policy vs rebuild-every-frame"
            );
        }
        // And against a fresh index on a sample of frames (the rebuild
        // index is already a from-scratch baseline; this guards the
        // adopted-scene plumbing itself).
        if frame % 10 == 0 {
            let fresh = rebuilt(&device, config, &points, &queries);
            for qi in 0..queries.len() {
                assert_eq!(
                    sorted(dynamic.results.neighbors[qi].clone()),
                    sorted(fresh.neighbors[qi].clone()),
                    "frame {frame} query {qi}: policy vs fresh index"
                );
            }
        }
    }

    let m = policy_index.frame_metrics();
    assert_eq!(m.frames, frames);
    // The policy must have refitted at least once and rebuilt strictly
    // fewer times than there were frames.
    assert!(m.refits > 0, "policy never took the refit path");
    assert!(
        m.rebuilds < frames,
        "policy rebuilt every frame ({} rebuilds)",
        m.rebuilds
    );
    // Amortized structure cost (simulated) must undercut rebuild-every-frame.
    let baseline_m = rebuild_index.frame_metrics();
    assert_eq!(baseline_m.rebuilds, frames);
    assert!(
        m.amortized_structure_ms() < baseline_m.amortized_structure_ms(),
        "policy structure {:.4} ms/frame vs rebuild {:.4} ms/frame",
        m.amortized_structure_ms(),
        baseline_m.amortized_structure_ms()
    );
    assert!(
        m.amortized_frame_ms() < baseline_m.amortized_frame_ms(),
        "policy total {:.4} ms/frame vs rebuild {:.4} ms/frame",
        m.amortized_frame_ms(),
        baseline_m.amortized_frame_ms()
    );
}

#[test]
fn lidar_churn_frames_stay_exact_through_forced_rebuilds() {
    let device = Device::rtx_2080();
    let cloud = fluid_block(6, 1.0);
    let params = SearchParams::knn(2.5, 8);
    let config = RtnnConfig {
        params,
        engine: EngineConfig::default().with_grid_max_cells(1 << 12),
    };
    let mut scene = DriftScene::new(
        &cloud,
        DriftModel::LidarSweep {
            velocity: Vec3::new(0.4, 0.05, 0.0),
            churn_fraction: 0.04,
        },
        0xBEEF,
    );
    let mut index = DynamicIndex::with_points(&device, config, &cloud.points);
    for frame in 0..8 {
        let update = scene.step();
        assert!(update.is_structural());
        apply_update(&mut index, &scene, &update);
        let points = scene.live_points();
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let dynamic = index.search(&queries).unwrap();
        // Structural churn always rebuilds — and stays exact.
        assert_eq!(dynamic.action, StructureAction::Rebuilt);
        let fresh = rebuilt(&device, config, &points, &queries);
        // Handles and compact ids diverge once slots die: translate the
        // fresh engine's compact ids through the live slot order.
        let live_slots: Vec<u32> = (0..scene.num_slots() as u32)
            .filter(|&s| scene.position(s).is_some())
            .collect();
        for qi in 0..queries.len() {
            let fresh_as_handles: Vec<u32> = fresh.neighbors[qi]
                .iter()
                .map(|&c| live_slots[c as usize])
                .collect();
            assert_eq!(
                sorted(dynamic.results.neighbors[qi].clone()),
                sorted(fresh_as_handles),
                "frame {frame} query {qi}"
            );
        }
    }
}

#[test]
fn nbody_orbit_mixes_refits_and_policy_rebuilds_and_stays_exact() {
    let device = Device::rtx_2080();
    let cloud = fluid_block(6, 0.6);
    let params = SearchParams::range(1.3, 4096);
    let config = RtnnConfig {
        params,
        engine: EngineConfig::default()
            .with_opt(OptLevel::Full)
            .with_grid_max_cells(1 << 12),
    };
    let mut scene = DriftScene::new(&cloud, DriftModel::NBodyOrbit { angular_step: 0.06 }, 3);
    let mut index = DynamicIndex::with_points(&device, config, &cloud.points);
    for frame in 0..12 {
        let update = scene.step();
        apply_update(&mut index, &scene, &update);
        let points = scene.live_points();
        let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
        let dynamic = index.search(&queries).unwrap();
        let fresh = rebuilt(&device, config, &points, &queries);
        for qi in 0..queries.len() {
            assert_eq!(
                sorted(dynamic.results.neighbors[qi].clone()),
                sorted(fresh.neighbors[qi].clone()),
                "frame {frame} query {qi}"
            );
        }
    }
    let m = index.frame_metrics();
    assert!(m.refits > 0, "orbital drift should be refittable sometimes");
    assert!(m.rebuilds < m.frames);
}

/// Nightly stress sweep: every drift model × both modes × all four
/// optimisation levels, with exactness checked every frame. Run with
/// `cargo test --release -p rtnn-dynamic --test dynamic_scenes -- --ignored`.
#[test]
#[ignore = "long-running dynamic-scene sweep; exercised by the nightly CI job"]
fn dynamic_scene_stress_sweep() {
    let device = Device::rtx_2080();
    let cloud = fluid_block(9, 0.5);
    let models = [
        DriftModel::SphSettle {
            compression: 0.99,
            jitter: 0.01,
        },
        DriftModel::NBodyOrbit { angular_step: 0.08 },
        DriftModel::LidarSweep {
            velocity: Vec3::new(0.2, 0.0, 0.0),
            churn_fraction: 0.05,
        },
    ];
    let param_sets = [SearchParams::range(1.1, 4096), SearchParams::knn(1.4, 10)];
    for (mi, model) in models.iter().enumerate() {
        for params in param_sets {
            for opt in OptLevel::all() {
                let config = RtnnConfig {
                    params,
                    engine: EngineConfig::default()
                        .with_opt(opt)
                        .with_grid_max_cells(1 << 14),
                };
                let mut scene = DriftScene::new(&cloud, *model, 0xAB + mi as u64);
                let mut index = DynamicIndex::with_points(&device, config, &cloud.points);
                for frame in 0..20 {
                    let update = scene.step();
                    apply_update(&mut index, &scene, &update);
                    let points = scene.live_points();
                    let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
                    let dynamic = index.search(&queries).unwrap();
                    let fresh = rebuilt(&device, config, &points, &queries);
                    let live_slots: Vec<u32> = (0..scene.num_slots() as u32)
                        .filter(|&s| scene.position(s).is_some())
                        .collect();
                    for qi in 0..queries.len() {
                        let fresh_as_handles: Vec<u32> = fresh.neighbors[qi]
                            .iter()
                            .map(|&c| live_slots[c as usize])
                            .collect();
                        assert_eq!(
                            sorted(dynamic.results.neighbors[qi].clone()),
                            sorted(fresh_as_handles),
                            "model {mi} {params:?} {opt:?} frame {frame} query {qi}"
                        );
                    }
                }
            }
        }
    }
}
