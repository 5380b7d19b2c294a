//! Query partitioning (Section 5.1, Listing 3).
//!
//! Queries whose megacells have the same size share a partition; each
//! partition gets its own BVH whose per-point AABB width is the smallest
//! width that still guarantees correct results for that partition. Dense
//! regions get small AABBs (few traversals / IS calls), sparse regions fall
//! back to the full `2r` width.
//!
//! ### AABB width rules
//!
//! *Range search*: the paper sets the AABB width to the megacell width and
//! drops the sphere test. We use the slightly more conservative
//! `2·(steps+1)·cell` (the query sits somewhere inside its central cell, so
//! this width guarantees every megacell point is recovered), and the sphere
//! test is dropped only when that width fits inside the search sphere
//! (width ≤ 2r/√3) — the same condition Appendix A uses to pick between its
//! two IS-shader costs.
//!
//! *KNN search*: the width must cover the distance to the K-th nearest
//! neighbor. Three rules are provided (see [`KnnAabbRule`]): the paper's
//! equi-volume heuristic, the paper's conservative circumsphere bound
//! (`√3·a`), and a guaranteed-exact bound (`2√3·(steps+1)·cell`, the L2
//! diameter argument). The engine defaults to the guaranteed rule so the
//! library's results always match the brute-force oracle; the benches also
//! exercise the paper's heuristic.

use crate::megacell::{MegacellGrid, MegacellResult};
use crate::result::{SearchMode, SearchParams};
use rtnn_gpusim::kernel::{cell_offset_address, run_sm_kernel};
use rtnn_gpusim::{Device, KernelMetrics};
use rtnn_math::Vec3;

/// How the KNN AABB width is derived from the megacell width (Figure 10c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnAabbRule {
    /// The paper's equi-volume heuristic: `w = 2·(3/(4π))^(1/3)·a`. Fastest,
    /// not guaranteed exact (Section 5.1 notes it was "sufficient from the
    /// datasets we evaluate").
    EquiVolume,
    /// The paper's conservative bound: the AABB circumscribes the sphere
    /// that circumscribes the megacell, `w = √3·a`.
    CircumSphere,
    /// Exact bound: every point within the distance of the K-th megacell
    /// point is guaranteed to be inside the AABB (`w = 2√3·(steps+1)·cell`).
    /// The library default.
    #[default]
    Guaranteed,
}

/// One query partition.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-point AABB width used to build this partition's BVH.
    pub aabb_width: f32,
    /// The queries (ids into the original query array) in this partition, in
    /// scheduled order.
    pub query_ids: Vec<u32>,
    /// Representative megacell width (used by the bundling cost model).
    pub megacell_width: f32,
    /// Whether the IS shader must run the sphere test for this partition.
    pub sphere_test: bool,
    /// Estimated local point density `K / megacell_width³` (Equation 4).
    pub density: f64,
}

impl Partition {
    /// Number of queries in the partition.
    pub fn len(&self) -> usize {
        self.query_ids.len()
    }

    /// True if the partition holds no queries.
    pub fn is_empty(&self) -> bool {
        self.query_ids.is_empty()
    }
}

/// The full partitioning of a query set.
#[derive(Debug, Clone)]
pub struct PartitionSet {
    /// Partitions sorted by ascending AABB width.
    pub partitions: Vec<Partition>,
    /// Simulated cost of the megacell kernel (part of `Opt` in Figure 12).
    pub opt_metrics: KernelMetrics,
    /// Grid cell size used for the megacells.
    pub cell_size: f32,
}

impl PartitionSet {
    /// Total number of queries across all partitions.
    pub fn total_queries(&self) -> usize {
        self.partitions.iter().map(Partition::len).sum()
    }
}

/// Compute the AABB width and sphere-test flag for one megacell result.
fn aabb_width_for(
    mc: &MegacellResult,
    cell: f32,
    params: &SearchParams,
    rule: KnnAabbRule,
) -> (f32, bool) {
    let full = 2.0 * params.radius;
    if mc.capped {
        // Sparse region: fall back to the full AABB; the sphere test is
        // required because the AABB circumscribes (not inscribes) the sphere.
        return (full, true);
    }
    let inscribed = 2.0 * params.radius / 3.0_f32.sqrt();
    match params.mode {
        SearchMode::Range => {
            let w = (2.0 * (mc.steps + 1) as f32 * cell).min(full);
            // Drop the sphere test only when the AABB is inside the sphere.
            (w, w > inscribed)
        }
        SearchMode::Knn => {
            let a = mc.width;
            let w = match rule {
                KnnAabbRule::EquiVolume => {
                    2.0 * (3.0 / (4.0 * std::f32::consts::PI)).powf(1.0 / 3.0) * a
                }
                KnnAabbRule::CircumSphere => 3.0_f32.sqrt() * a,
                KnnAabbRule::Guaranteed => 2.0 * 3.0_f32.sqrt() * (mc.steps + 1) as f32 * cell,
            };
            // KNN always needs distances, so the sphere test is never elided.
            (w.min(full), true)
        }
    }
}

/// Partition `queries` (processed in `query_order`) according to their
/// megacell sizes over a prebuilt `grid`: a persistent [`crate::Index`]
/// builds its grid once and partitions every plan's queries against it.
/// Queries are grouped by `(steps, capped)`, since identical keys produce
/// identical AABB widths, and each partition gets its width, sphere-test
/// flag and density.
///
/// The megacell growth for every query is charged to the simulated device as
/// an SM kernel (the paper implements it in CUDA); its metrics are returned
/// in [`PartitionSet::opt_metrics`].
pub fn partition_queries(
    device: &Device,
    grid: &MegacellGrid,
    queries: &[Vec3],
    query_order: &[u32],
    params: &SearchParams,
    rule: KnnAabbRule,
) -> PartitionSet {
    // Megacell kernel: one thread per query, returning its growth result.
    // Each thread is charged the cell-count records its growth examined
    // (the read is capped at a run of 32 records from the query's cell to
    // keep it bounded; the op count carries the full cost).
    let (megacells, opt_metrics) = run_sm_kernel(device, query_order.len(), |launch_idx, work| {
        let q = queries[query_order[launch_idx] as usize];
        let mc = grid.megacell_for(q, params.radius, params.k);
        let centre_cell = grid.grid().cell_index(grid.grid().cell_of(q));
        let touched = (mc.cells_scanned as usize).min(32);
        work.ops(mc.cells_scanned as u64);
        if touched > 0 {
            work.read_range(
                cell_offset_address(centre_cell)..=cell_offset_address(centre_cell + touched - 1),
            );
        }
        mc
    });

    let cell = grid.cell_size();
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(u32, bool), Vec<u32>> = BTreeMap::new();
    for (mc, &qid) in megacells.iter().zip(query_order) {
        groups.entry((mc.steps, mc.capped)).or_default().push(qid);
    }

    let mut partitions: Vec<Partition> = groups
        .into_iter()
        .map(|((steps, capped), query_ids)| {
            let mc = MegacellResult {
                steps,
                width: grid.width_at(steps),
                found: params.k as u32,
                capped,
                cells_scanned: 0,
            };
            let (aabb_width, sphere_test) = aabb_width_for(&mc, cell, params, rule);
            let megacell_width = if capped {
                2.0 * params.radius
            } else {
                mc.width
            };
            Partition {
                aabb_width,
                query_ids,
                megacell_width,
                sphere_test,
                density: params.k as f64 / (megacell_width as f64).powi(3).max(f64::MIN_POSITIVE),
            }
        })
        .collect();
    partitions.sort_by(|a, b| a.aabb_width.partial_cmp(&b.aabb_width).unwrap());

    PartitionSet {
        partitions,
        opt_metrics,
        cell_size: cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_per_axis: usize) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    fn identity_order(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Partition `queries` in input order over a fresh grid on `points`.
    fn partition_fresh(points: &[Vec3], queries: &[Vec3], params: &SearchParams) -> PartitionSet {
        let grid = MegacellGrid::build(points, 1 << 18).unwrap();
        partition_queries(
            &Device::rtx_2080(),
            &grid,
            queries,
            &identity_order(queries.len()),
            params,
            KnnAabbRule::Guaranteed,
        )
    }

    #[test]
    fn every_query_lands_in_exactly_one_partition() {
        let points = grid_points(10);
        let queries = points.clone();
        let params = SearchParams::knn(3.0, 8);
        let set = partition_fresh(&points, &queries, &params);
        assert_eq!(set.total_queries(), queries.len());
        let mut seen = vec![false; queries.len()];
        for p in &set.partitions {
            for &q in &p.query_ids {
                assert!(!seen[q as usize], "query {q} appears twice");
                seen[q as usize] = true;
            }
            assert!(!p.is_empty());
            assert!(p.aabb_width > 0.0);
            assert!(p.aabb_width <= 2.0 * params.radius + 1e-5);
        }
        assert!(seen.iter().all(|&s| s));
        assert!(set.opt_metrics.time_ms > 0.0);
    }

    #[test]
    fn partitions_are_sorted_by_aabb_width() {
        // Mixed density: dense blob + sparse outskirts produce several
        // different megacell sizes.
        let mut points = grid_points(8);
        for i in 0..60 {
            points.push(Vec3::new(
                30.0 + (i % 4) as f32 * 3.0,
                (i / 4) as f32 * 3.0,
                0.0,
            ));
        }
        let queries = points.clone();
        let params = SearchParams::knn(6.0, 16);
        let set = partition_fresh(&points, &queries, &params);
        assert!(set.partitions.len() >= 2, "expected multiple partitions");
        for w in set.partitions.windows(2) {
            assert!(w[0].aabb_width <= w[1].aabb_width);
        }
    }

    #[test]
    fn range_partitions_skip_the_sphere_test_only_when_safe() {
        let points = grid_points(10);
        let queries = points.clone();
        let params = SearchParams::range(4.0, 4);
        let set = partition_fresh(&points, &queries, &params);
        let inscribed = 2.0 * params.radius / 3.0_f32.sqrt();
        for p in &set.partitions {
            if !p.sphere_test {
                assert!(p.aabb_width <= inscribed + 1e-5);
            }
        }
        // With a dense uniform cloud and small K, at least one partition
        // should manage to skip the sphere test.
        assert!(set.partitions.iter().any(|p| !p.sphere_test));
    }

    #[test]
    fn knn_rules_order_by_conservativeness() {
        let mc = MegacellResult {
            steps: 2,
            width: 5.0,
            found: 16,
            capped: false,
            cells_scanned: 0,
        };
        let cell = 1.0;
        let params = SearchParams::knn(100.0, 16);
        let (equi, _) = aabb_width_for(&mc, cell, &params, KnnAabbRule::EquiVolume);
        let (circ, _) = aabb_width_for(&mc, cell, &params, KnnAabbRule::CircumSphere);
        let (guar, _) = aabb_width_for(&mc, cell, &params, KnnAabbRule::Guaranteed);
        assert!(
            equi < circ,
            "equi-volume {equi} should be below circumsphere {circ}"
        );
        assert!(
            circ < guar,
            "circumsphere {circ} should be below guaranteed {guar}"
        );
        // Equi-volume matches the paper's formula 2·(3/4π)^(1/3)·a ≈ 1.24·a.
        assert!((equi / mc.width - 1.24).abs() < 0.01);
        // Circumsphere is √3·a.
        assert!((circ / mc.width - 1.732).abs() < 0.01);
    }

    #[test]
    fn capped_queries_fall_back_to_the_full_width() {
        let mc = MegacellResult {
            steps: 3,
            width: 7.0,
            found: 1,
            capped: true,
            cells_scanned: 0,
        };
        let params = SearchParams::range(2.0, 64);
        let (w, sphere) = aabb_width_for(&mc, 1.0, &params, KnnAabbRule::Guaranteed);
        assert_eq!(w, 4.0);
        assert!(sphere);
    }

    #[test]
    fn denser_clouds_produce_smaller_minimum_aabbs() {
        let sparse = grid_points(6); // spacing 1.0
        let dense: Vec<Vec3> = grid_points(6).iter().map(|&p| p * 0.25).collect();
        let params = SearchParams::knn(2.0, 4);
        let run = |pts: &Vec<Vec3>| partition_fresh(pts, pts, &params);
        let sparse_set = run(&sparse);
        let dense_set = run(&dense);
        let min_w = |s: &PartitionSet| {
            s.partitions
                .iter()
                .map(|p| p.aabb_width)
                .fold(f32::INFINITY, f32::min)
        };
        assert!(min_w(&dense_set) <= min_w(&sparse_set));
    }
}
