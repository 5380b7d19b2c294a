//! The leaf records `{point, id}` stand in for stored primitive boxes: a
//! slot's cube, derived from its record and the tree's half width, must be
//! bit-equal to `Aabb::cube(point, width)` after every build and refit, and
//! traversal over the records must report exactly the primitives and
//! slots a brute-force walk of the same boxes finds.

use rtnn_bvh::{
    build_point_bvh, refit_bvh_serial, refit_bvh_with_cut, refit_point_bvh, validate_bvh,
    BuildParams, Bvh, BvhBuilder, NodeKind, TraversalControl, VisitMarks,
};
use rtnn_math::{Aabb, Ray, Vec3};
use std::collections::BTreeSet;

/// A seeded xorshift stream of floats in `[0, 1)`.
fn unit_stream(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000_003) as f32 / 1_000_003.0
    }
}

fn cloud(n: usize, side: f32, seed: u64) -> Vec<Vec3> {
    let mut unit = unit_stream(seed);
    (0..n)
        .map(|_| Vec3::new(unit(), unit(), unit()) * side - Vec3::splat(0.5 * side))
        .collect()
}

fn aabb_bits(a: Aabb) -> [[u32; 3]; 2] {
    [a.min.to_array(), a.max.to_array()].map(|v| v.map(f32::to_bits))
}

/// Every slot's record holds its primitive's point, and its derived cube
/// is `Aabb::cube(point, width)` bit for bit.
fn assert_slot_cubes(bvh: &Bvh, points: &[Vec3], width: f32, context: &str) {
    assert_eq!(bvh.records.len(), points.len(), "{context}");
    for (slot, record) in bvh.records.iter().enumerate() {
        let point = points[record.id as usize];
        assert_eq!(
            record.point.to_array().map(f32::to_bits),
            point.to_array().map(f32::to_bits),
            "{context}: slot {slot}"
        );
        assert_eq!(
            aabb_bits(record.cube(bvh.half_width)),
            aabb_bits(Aabb::cube(point, width)),
            "{context}: slot {slot}"
        );
    }
    validate_bvh(bvh).unwrap_or_else(|e| panic!("{context}: {e:?}"));
}

#[test]
fn slot_cubes_equal_the_width_cubes_after_build_and_refit() {
    let points = cloud(3000, 40.0, 7);
    let moved: Vec<Vec3> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| p + Vec3::new(0.37 * (i % 5) as f32, -0.21 * (i % 3) as f32, 0.013))
        .collect();
    for width in [0.3f32, 1e-3, 2.0 * 7.368063] {
        for builder in [BvhBuilder::Lbvh, BvhBuilder::LbvhSerial] {
            let params = BuildParams {
                builder,
                ..BuildParams::default()
            };
            // The structure handle builds at the half width, as here.
            let built = build_point_bvh(&points, 0.5 * width, params);
            let context = format!("width {width}, {builder:?}");
            assert_slot_cubes(&built, &points, width, &format!("{context} build"));

            let mut refit = built.clone();
            refit_point_bvh(&mut refit, &moved).unwrap();
            assert_slot_cubes(&refit, &moved, width, &format!("{context} refit"));
            let mut serial = built.clone();
            refit_bvh_serial(&mut serial, &moved).unwrap();
            assert_slot_cubes(&serial, &moved, width, &format!("{context} serial refit"));
            let mut cut = built.clone();
            refit_bvh_with_cut(&mut cut, &moved, 4).unwrap();
            assert_slot_cubes(&cut, &moved, width, &format!("{context} cut refit"));

            // A refit back to the built points restores the built tree.
            refit_point_bvh(&mut refit, &points).unwrap();
            assert!(refit.bit_identical(&built), "{context}");
        }
    }
}

/// The slots a traversal of `ray` reads, found without the traversal: a
/// node is read when it is the root or its parent's box meets the ray, and
/// a leaf's slots are read when the leaf's box meets the ray.
fn reference_footprint(bvh: &Bvh, ray: &Ray) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let mut read = vec![false; bvh.nodes.len()];
    if let Some(first) = read.first_mut() {
        *first = true;
    }
    let (mut nodes, mut slots) = (BTreeSet::new(), BTreeSet::new());
    // Preorder puts every parent before its children.
    for (i, node) in bvh.nodes.iter().enumerate() {
        if !read[i] {
            continue;
        }
        nodes.insert(i as u32);
        if !node.aabb.intersects_ray(ray) {
            continue;
        }
        match node.kind() {
            NodeKind::Internal { left, right } => {
                assert!(left as usize > i && right as usize > i, "preorder layout");
                read[left as usize] = true;
                read[right as usize] = true;
            }
            NodeKind::Leaf { start, count } => slots.extend(start..start + count),
        }
    }
    (nodes, slots)
}

#[test]
fn marked_traversal_equals_brute_force_containment_on_random_probes() {
    for (seed, width) in [(11u64, 0.8f32), (12, 3.0), (13, 1e-3)] {
        let points = cloud(2000, 20.0, seed);
        let bvh = build_point_bvh(&points, 0.5 * width, BuildParams::default());
        let mut unit = unit_stream(seed ^ 0xABCD);
        let mut marks = VisitMarks::default();
        for probe in 0..300 {
            // Half the probes sit on a point, half anywhere around the cloud.
            let q = if probe % 2 == 0 {
                points[(unit() * points.len() as f32) as usize % points.len()]
            } else {
                Vec3::new(unit(), unit(), unit()) * 24.0 - Vec3::splat(12.0)
            };
            let ray = Ray::point_probe(q);
            let mut hits = BTreeSet::new();
            marks.clear();
            let stats = bvh.traverse_marked(&ray, &mut marks, |record| {
                assert_eq!(record.point, points[record.id as usize]);
                assert!(hits.insert(record.id), "id {} reported twice", record.id);
                TraversalControl::Continue
            });
            let want_hits: BTreeSet<u32> = (0..points.len() as u32)
                .filter(|&i| Aabb::cube(points[i as usize], width).intersects_ray(&ray))
                .collect();
            let context = format!("seed {seed}, width {width}, probe {probe}");
            assert_eq!(hits, want_hits, "{context}");
            assert_eq!(stats.is_calls, hits.len() as u64, "{context}");
            let (want_nodes, want_slots) = reference_footprint(&bvh, &ray);
            let (nodes, slots) = marks.ascending();
            assert!(nodes.eq(want_nodes.iter().copied()), "{context}: nodes");
            assert!(slots.eq(want_slots.iter().copied()), "{context}: slots");
            assert_eq!(stats.nodes_visited, want_nodes.len() as u64, "{context}");
            assert_eq!(stats.prim_tests, want_slots.len() as u64, "{context}");
            // The plain traversal reports the same ids.
            let mut plain = BTreeSet::new();
            bvh.traverse(&ray, |id| {
                plain.insert(id);
                TraversalControl::Continue
            });
            assert_eq!(plain, want_hits, "{context}: traverse");
        }
    }
}
