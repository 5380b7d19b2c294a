//! Property tests pinning a warp's footprint to its definition: the
//! ascending walk of one `VisitMarks` set, traversed by every ray of a warp
//! in turn, is exactly the sorted, deduplicated union of the rays'
//! single-ray visit sets, and its counts are that union's sizes — for
//! arbitrary clouds, AABB widths, query orders and warp sizes 1–32.
//!
//! A single ray reads each slot at most once, so a fresh set per ray must
//! count as many slots as the ray's own work counters report.

use proptest::prelude::*;
use rtnn_bvh::{build_point_bvh, BuildParams, TraversalControl, VisitMarks};
use rtnn_math::{Ray, Vec3};

fn point_in(half: f32) -> impl Strategy<Value = Vec3> {
    (-half..half, -half..half, -half..half).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Sort and deduplicate a list of slots.
fn sorted_distinct(mut slots: Vec<u32>) -> Vec<u32> {
    slots.sort_unstable();
    slots.dedup();
    slots
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn a_warp_footprint_is_the_union_of_its_rays_visit_sets(
        points in prop::collection::vec(point_in(6.0), 1..300),
        queries in prop::collection::vec(point_in(7.0), 1..100),
        width in 0.05f32..4.0,
        warp_size in 1usize..33,
        order_seed in any::<u64>(),
    ) {
        let bvh = build_point_bvh(&points, width / 2.0, BuildParams::default());
        // A seeded permutation of the queries: the launch order decides
        // which rays share a warp.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut state = order_seed | 1;
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut warp_marks = VisitMarks::default();
        for warp in order.chunks(warp_size) {
            warp_marks.clear();
            let mut union_nodes = Vec::new();
            let mut union_prims = Vec::new();
            for &q in warp {
                let ray = Ray::point_probe(queries[q]);
                let mut single = VisitMarks::default();
                let stats = bvh.traverse_marked(&ray, &mut single, |_| TraversalControl::Continue);
                prop_assert_eq!(single.node_count() as u64, stats.nodes_visited);
                prop_assert_eq!(single.prim_count() as u64, stats.prim_tests);
                let (nodes, prims) = single.ascending();
                union_nodes.extend(nodes);
                union_prims.extend(prims);

                let warp_stats =
                    bvh.traverse_marked(&ray, &mut warp_marks, |_| TraversalControl::Continue);
                // Marks never change the traversal itself.
                prop_assert_eq!(warp_stats, stats);
            }
            let union_nodes = sorted_distinct(union_nodes);
            let union_prims = sorted_distinct(union_prims);
            prop_assert_eq!(warp_marks.node_count(), union_nodes.len());
            prop_assert_eq!(warp_marks.prim_count(), union_prims.len());
            let (nodes, prims) = warp_marks.ascending();
            prop_assert_eq!(nodes.collect::<Vec<_>>(), union_nodes);
            prop_assert_eq!(prims.collect::<Vec<_>>(), union_prims);
        }
    }
}
