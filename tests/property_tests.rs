//! Property-based tests (proptest) over the core invariants of the
//! reproduction:
//!
//! * RTNN results equal the brute-force oracle for arbitrary clouds, query
//!   sets, radii and K, in both modes and at every optimisation level;
//! * the query schedule is always a permutation;
//! * query partitioning covers every query exactly once and never exceeds
//!   the full `2r` AABB width;
//! * the bundling plan never costs more than leaving partitions unbundled
//!   and covers every partition exactly once;
//! * BVHs built over arbitrary AABB sets validate structurally.

use proptest::prelude::*;
use rtnn::pipeline::{Schedule, ScheduleCx};
use rtnn::verify::check_all;
use rtnn::{
    plan_bundles, Backend, CostCoefficients, EngineConfig, GpusimBackend, Index, KnnAabbRule,
    MegacellGrid, OptLevel, PartitionSet, QueryPlan, SearchMode, SearchParams,
};
use rtnn_bvh::{build_bvh, validate_bvh, BuildParams, BvhBuilder};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};

/// Partition `queries` in input order over a megacell grid built on
/// `points` (budget `1 << 15`), without a cache.
fn partition_over_fresh_grid(
    device: &Device,
    points: &[Vec3],
    queries: &[Vec3],
    params: &SearchParams,
) -> PartitionSet {
    let grid = MegacellGrid::build(points, 1 << 15).expect("clouds are never empty");
    let order: Vec<u32> = (0..queries.len() as u32).collect();
    rtnn::partition::partition_queries(
        device,
        &grid,
        queries,
        &order,
        params,
        KnnAabbRule::Guaranteed,
        None,
    )
}

/// A strategy for a random point in a box of the given half-extent.
fn point_in(half: f32) -> impl Strategy<Value = Vec3> {
    (-half..half, -half..half, -half..half).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Clouds of 20–160 points; small enough that the oracle stays cheap but
/// large enough to exercise multi-level BVHs and several partitions.
fn cloud_strategy() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point_in(10.0), 20..160)
}

fn queries_strategy() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(point_in(12.0), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn rtnn_matches_oracle_for_arbitrary_inputs(
        points in cloud_strategy(),
        queries in queries_strategy(),
        radius in 0.5f32..6.0,
        k in 1usize..20,
        mode_is_knn in any::<bool>(),
        opt_idx in 0usize..4,
    ) {
        let device = Device::rtx_2080();
        let mode = if mode_is_knn { SearchMode::Knn } else { SearchMode::Range };
        let params = SearchParams { radius, k, mode };
        let opt = OptLevel::all()[opt_idx];
        let results = Index::build(
            &GpusimBackend::new(&device),
            &points[..],
            EngineConfig::default().with_opt(opt),
        )
        .query(&queries, &QueryPlan::from_params(params))
        .unwrap();
        prop_assert_eq!(results.neighbors.len(), queries.len());
        if let Err((q, e)) = check_all(&points, &queries, &params, &results.neighbors) {
            return Err(TestCaseError::fail(format!("{mode:?} {opt:?} query {q}: {e}")));
        }
    }

    #[test]
    fn schedule_is_always_a_permutation(
        points in cloud_strategy(),
        queries in queries_strategy(),
        radius in 0.5f32..4.0,
    ) {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let accel = backend.build(&points, 2.0 * radius, BuildParams::default()).unwrap();
        let ids: Vec<u32> = (0..queries.len() as u32).collect();
        let schedule = Schedule::Coherence.run(&ScheduleCx {
            backend: &backend,
            accel: Some(accel.as_ref()),
            points: &points,
            point_bounds: Aabb::from_points(&points),
            queries: &queries,
            query_ids: &ids,
        });
        let mut seen = vec![false; queries.len()];
        for &q in &schedule.order {
            prop_assert!((q as usize) < queries.len());
            prop_assert!(!seen[q as usize], "query {} scheduled twice", q);
            seen[q as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partitioning_covers_every_query_once_with_bounded_widths(
        points in cloud_strategy(),
        queries in queries_strategy(),
        radius in 0.5f32..6.0,
        k in 1usize..16,
        knn in any::<bool>(),
    ) {
        let device = Device::rtx_2080();
        let mode = if knn { SearchMode::Knn } else { SearchMode::Range };
        let params = SearchParams { radius, k, mode };
        let set = partition_over_fresh_grid(&device, &points, &queries, &params);
        prop_assert_eq!(set.total_queries(), queries.len());
        let mut seen = vec![false; queries.len()];
        for p in &set.partitions {
            prop_assert!(p.aabb_width > 0.0);
            prop_assert!(p.aabb_width <= 2.0 * radius * (1.0 + 1e-5));
            for &q in &p.query_ids {
                prop_assert!(!seen[q as usize]);
                seen[q as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bundling_never_costs_more_than_no_bundling(
        points in cloud_strategy(),
        queries in queries_strategy(),
        radius in 0.5f32..6.0,
        k in 1usize..16,
        knn in any::<bool>(),
    ) {
        let device = Device::rtx_2080();
        let mode = if knn { SearchMode::Knn } else { SearchMode::Range };
        let params = SearchParams { radius, k, mode };
        let set = partition_over_fresh_grid(&device, &points, &queries, &params);
        let coeffs = CostCoefficients::calibrate(&device);
        let plan = plan_bundles(&set.partitions, points.len(), &params, &coeffs);
        prop_assert!(plan.estimated_cost_ms <= plan.unbundled_cost_ms + 1e-12);
        // Every partition appears in exactly one bundle.
        let mut seen = vec![false; set.partitions.len()];
        for group in &plan.groups {
            for &i in group {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bvh_builders_always_produce_valid_trees(
        points in cloud_strategy(),
        width in 0.01f32..5.0,
        builder_idx in 0usize..2,
        max_leaf in 1u32..9,
    ) {
        let builder = [BvhBuilder::Lbvh, BvhBuilder::LbvhSerial][builder_idx];
        let aabbs: Vec<Aabb> = points.iter().map(|&p| Aabb::cube(p, width)).collect();
        let bvh = build_bvh(&aabbs, BuildParams { builder, max_leaf_size: max_leaf });
        prop_assert!(validate_bvh(&bvh).is_ok());
        prop_assert_eq!(bvh.num_primitives(), points.len());
    }

    #[test]
    fn point_probe_traversal_equals_linear_scan(
        points in cloud_strategy(),
        query in point_in(12.0),
        width in 0.1f32..6.0,
    ) {
        // The fundamental equivalence of Section 3.1: traversing the BVH with
        // a short ray finds exactly the AABBs that contain the query point.
        let aabbs: Vec<Aabb> = points.iter().map(|&p| Aabb::cube(p, width)).collect();
        let bvh = build_bvh(&aabbs, BuildParams::default());
        let mut via_bvh = bvh.primitives_containing(query);
        via_bvh.sort_unstable();
        let mut via_scan: Vec<u32> = aabbs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains_point(query))
            .map(|(i, _)| i as u32)
            .collect();
        via_scan.sort_unstable();
        prop_assert_eq!(via_bvh, via_scan);
    }
}
