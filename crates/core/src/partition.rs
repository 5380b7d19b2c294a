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
use rtnn_gpusim::kernel::{cell_offset_address, run_sm_kernel, ThreadWork};
use rtnn_gpusim::{Device, KernelMetrics};
use rtnn_math::{Aabb, Vec3};

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
///
/// The megacell growth for every query is charged to the simulated device as
/// an SM kernel (the paper implements it in CUDA); its metrics are returned
/// in [`PartitionSet::opt_metrics`].
///
/// With `cache = Some((cache, dirty_region))`, queries whose cached result
/// provably still holds pay only a probe (one op) and everything else is
/// re-grown; the cache is updated in place, ready for the next frame.
/// `dirty_region` must bound every grid cell whose population changed since
/// the cache entries were written (see [`crate::megacell::GridRefresh`]);
/// pass [`Aabb::EMPTY`] when nothing moved between cells.
pub fn partition_queries(
    device: &Device,
    grid: &MegacellGrid,
    queries: &[Vec3],
    query_order: &[u32],
    params: &SearchParams,
    rule: KnnAabbRule,
    cache: Option<(&mut MegacellCache, &Aabb)>,
) -> PartitionSet {
    let (megacells, opt_metrics) = match cache {
        // Megacell kernel: one thread per query. The host-side growth result
        // is returned as the thread's result; its work is charged to the
        // device.
        None => run_sm_kernel(device, query_order.len(), |launch_idx, work| {
            let q = queries[query_order[launch_idx] as usize];
            Wrapped(grow_megacell(grid, q, params, work))
        }),
        Some((cache, dirty_region)) => grow_cached(
            device,
            grid,
            queries,
            query_order,
            params,
            cache,
            dirty_region,
        ),
    };
    group_into_partitions(&megacells, query_order, grid, params, rule, opt_metrics)
}

/// Grow one query's megacell and account its device-side work: the
/// cell-count records the growth examined (the read is capped at a run of
/// 32 records from the query's cell to keep it bounded; the op count
/// carries the full cost).
fn grow_megacell(
    grid: &MegacellGrid,
    q: Vec3,
    params: &SearchParams,
    work: &mut ThreadWork<'_>,
) -> MegacellResult {
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
}

/// Group per-query megacell results (aligned with `query_order`) into
/// partitions by `(steps, capped)` — identical keys produce identical AABB
/// widths — and derive each partition's width, sphere-test flag and density.
fn group_into_partitions(
    megacells: &[Wrapped],
    query_order: &[u32],
    grid: &MegacellGrid,
    params: &SearchParams,
    rule: KnnAabbRule,
    opt_metrics: KernelMetrics,
) -> PartitionSet {
    let cell = grid.cell_size();
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(u32, bool), Vec<u32>> = BTreeMap::new();
    for (launch_idx, wrapped) in megacells.iter().enumerate() {
        let mc = wrapped.0;
        groups
            .entry((mc.steps, mc.capped))
            .or_default()
            .push(query_order[launch_idx]);
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

/// Per-query megacell results cached across frames of a streaming scene,
/// indexed by query id.
///
/// A megacell result depends only on the query's central grid cell, the
/// per-cell point counts inside its reachable box, and the search
/// parameters — so a cached entry stays valid as long as (a) the query is
/// still inside the grid and in the same cell and (b) no cell inside its
/// reachable region changed population. [`partition_queries`] enforces
/// exactly that when handed the cache, recomputing only the invalidated
/// queries instead of re-growing every megacell wholesale. The query
/// *positions* may change freely between frames (the central-cell check
/// catches them), and a lookup under different search parameters drops the
/// entries wholesale (megacell growth depends on `(radius, k)`); the *grid
/// identity* must stay fixed for the cache's lifetime — invalidate on a
/// grid rebuild.
#[derive(Debug, Clone, Default)]
pub struct MegacellCache {
    /// Per query id: the central cell the entry was computed for + result.
    entries: Vec<Option<(u32, MegacellResult)>>,
    /// The search parameters the entries were computed for (megacell growth
    /// depends on `(radius, k)`): a lookup under different parameters must
    /// not trust them.
    params_key: Option<(u32, usize, SearchMode)>,
}

impl MegacellCache {
    /// An empty (all-invalid) cache for `num_queries` queries.
    pub fn new(num_queries: usize) -> Self {
        MegacellCache {
            entries: vec![None; num_queries],
            params_key: None,
        }
    }

    /// Drop every entry, resizing to `num_queries` (used after a grid
    /// rebuild or when the query set changes).
    pub fn invalidate_all(&mut self, num_queries: usize) {
        self.entries.clear();
        self.entries.resize(num_queries, None);
        self.params_key = None;
    }

    /// Make the cache safe for a lookup under `params` over `num_queries`
    /// queries: entries computed for different search parameters (or a
    /// different query count) are dropped wholesale. Called by every cached
    /// [`partition_queries`] run, so a persistent cache may be handed plans
    /// with changing radii/K and stays conservative-correct.
    fn ensure_params(&mut self, params: &SearchParams, num_queries: usize) {
        let key = (params.radius.to_bits(), params.k, params.mode);
        if self.entries.len() != num_queries || self.params_key != Some(key) {
            self.invalidate_all(num_queries);
            self.params_key = Some(key);
        }
    }

    /// Number of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// Result of one cached-megacell kernel thread.
#[derive(Debug, Clone, Copy, Default)]
struct CachedOutcome {
    mc: Wrapped,
    /// True when the megacell was grown this frame (cache miss).
    recomputed: bool,
    /// True when the query was inside the grid (its entry may be stored).
    in_grid: bool,
}

/// The megacell kernel of a cached [`partition_queries`] run: a probe for
/// every query whose cached result still holds, a fresh growth for the
/// rest, folded back into `cache`.
fn grow_cached(
    device: &Device,
    grid: &MegacellGrid,
    queries: &[Vec3],
    query_order: &[u32],
    params: &SearchParams,
    cache: &mut MegacellCache,
    dirty_region: &Aabb,
) -> (Vec<Wrapped>, KernelMetrics) {
    cache.ensure_params(params, queries.len());
    let entries = &cache.entries;
    let (outcomes, opt_metrics) = run_sm_kernel(device, query_order.len(), |launch_idx, work| {
        let qid = query_order[launch_idx] as usize;
        let q = queries[qid];
        let in_grid = grid.grid().bounds().contains_point(q);
        if in_grid {
            if let Some((cell, cached)) = entries[qid] {
                let same_cell = cell as usize == grid.cell_index_of(q);
                if same_cell && !grid.reach_bounds(q, params.radius).overlaps(dirty_region) {
                    // Cache hit: one probe of the per-query state.
                    work.ops(1);
                    work.read(cell_offset_address(cell as usize));
                    return CachedOutcome {
                        mc: Wrapped(cached),
                        recomputed: false,
                        in_grid,
                    };
                }
            }
        }
        CachedOutcome {
            mc: Wrapped(grow_megacell(grid, q, params, work)),
            recomputed: true,
            in_grid,
        }
    });

    // Fold the frame's outcomes back into the cache: recomputed in-grid
    // queries overwrite their entry; out-of-grid queries lose theirs (their
    // old in-grid entry stops being refreshed, so it must not survive).
    for (launch_idx, outcome) in outcomes.iter().enumerate() {
        let qid = query_order[launch_idx] as usize;
        if !outcome.in_grid {
            cache.entries[qid] = None;
        } else if outcome.recomputed {
            let cell = grid.cell_index_of(queries[qid]) as u32;
            cache.entries[qid] = Some((cell, outcome.mc.0));
        }
    }

    (outcomes.iter().map(|o| o.mc).collect(), opt_metrics)
}

/// Newtype so the megacell result can flow through `run_sm_kernel`'s
/// `Default + Clone` result channel.
#[derive(Debug, Clone, Copy)]
struct Wrapped(MegacellResult);

impl Default for Wrapped {
    fn default() -> Self {
        Wrapped(MegacellResult {
            steps: 0,
            width: 0.0,
            found: 0,
            capped: true,
            cells_scanned: 0,
        })
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

    /// Partition `queries` in input order over a fresh grid on `points`,
    /// without a cache.
    fn partition_fresh(points: &[Vec3], queries: &[Vec3], params: &SearchParams) -> PartitionSet {
        let grid = MegacellGrid::build(points, 1 << 18).unwrap();
        partition_queries(
            &Device::rtx_2080(),
            &grid,
            queries,
            &identity_order(queries.len()),
            params,
            KnnAabbRule::Guaranteed,
            None,
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
    fn cached_partitioning_matches_uncached_and_gets_cheaper() {
        let device = Device::rtx_2080();
        let points = grid_points(9);
        let queries = points.clone();
        let order = identity_order(queries.len());
        let params = SearchParams::knn(3.0, 8);
        let grid = MegacellGrid::build(&points, 1 << 18).unwrap();
        let uncached = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            None,
        );
        let mut cache = MegacellCache::new(queries.len());
        // Frame 1: cold cache — identical partitions at the same cost.
        let frame1 = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        assert_eq!(frame1.partitions.len(), uncached.partitions.len());
        for (a, b) in frame1.partitions.iter().zip(&uncached.partitions) {
            assert_eq!(a.aabb_width, b.aabb_width);
            assert_eq!(a.query_ids, b.query_ids);
            assert_eq!(a.sphere_test, b.sphere_test);
        }
        assert_eq!(frame1.opt_metrics, uncached.opt_metrics);
        assert_eq!(cache.valid_entries(), queries.len());
        // Frame 2: nothing moved — all hits, same partitions, cheaper kernel.
        let frame2 = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        assert_eq!(frame2.partitions.len(), frame1.partitions.len());
        for (a, b) in frame2.partitions.iter().zip(&frame1.partitions) {
            assert_eq!(a.aabb_width, b.aabb_width);
            assert_eq!(a.query_ids, b.query_ids);
        }
        assert!(
            frame2.opt_metrics.total_cycles < frame1.opt_metrics.total_cycles,
            "warm frame {} should be cheaper than cold frame {}",
            frame2.opt_metrics.total_cycles,
            frame1.opt_metrics.total_cycles
        );
    }

    #[test]
    fn cached_partitioning_invalidates_only_the_dirty_region() {
        let device = Device::rtx_2080();
        let points = grid_points(9);
        let queries = points.clone();
        let order = identity_order(queries.len());
        let params = SearchParams::knn(1.5, 4);
        let grid = MegacellGrid::build(&points, 1 << 18).unwrap();
        let mut cache = MegacellCache::new(queries.len());
        partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        // A dirty corner: only queries whose reach touches it recompute; the
        // result must equal a fully uncached recomputation regardless.
        let dirty = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let warm = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &dirty)),
        );
        let mut cold_cache = MegacellCache::new(queries.len());
        let cold = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cold_cache, &Aabb::EMPTY)),
        );
        assert_eq!(warm.partitions.len(), cold.partitions.len());
        for (a, b) in warm.partitions.iter().zip(&cold.partitions) {
            assert_eq!(a.query_ids, b.query_ids);
            assert_eq!(a.aabb_width, b.aabb_width);
        }
        assert!(warm.opt_metrics.total_cycles < cold.opt_metrics.total_cycles);
    }

    #[test]
    fn cache_entries_are_dropped_when_the_params_change() {
        // Megacell growth depends on (radius, k): entries grown for a small
        // k must never be trusted by a lookup with a larger one (the box
        // would be too small and miss neighbors). The cache invalidates
        // itself wholesale on a params change.
        let device = Device::rtx_2080();
        let points = grid_points(9);
        let queries = points.clone();
        let order = identity_order(queries.len());
        let grid = MegacellGrid::build(&points, 1 << 18).unwrap();
        let mut cache = MegacellCache::new(queries.len());
        let small = SearchParams::knn(3.0, 2);
        partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &small,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        assert_eq!(cache.valid_entries(), queries.len());
        // Same cache, much larger K: must match a cold computation exactly.
        let large = SearchParams::knn(3.0, 40);
        let warm = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &large,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        let mut cold_cache = MegacellCache::new(queries.len());
        let cold = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &large,
            KnnAabbRule::Guaranteed,
            Some((&mut cold_cache, &Aabb::EMPTY)),
        );
        assert_eq!(warm.partitions.len(), cold.partitions.len());
        for (a, b) in warm.partitions.iter().zip(&cold.partitions) {
            assert_eq!(a.aabb_width, b.aabb_width);
            assert_eq!(a.query_ids, b.query_ids);
        }
        // And a repeat under the same params is a pure cache hit again.
        let repeat = partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &large,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        assert!(repeat.opt_metrics.total_cycles < warm.opt_metrics.total_cycles);
    }

    #[test]
    fn out_of_grid_queries_are_never_cached() {
        let device = Device::rtx_2080();
        let points = grid_points(4);
        let queries = vec![Vec3::new(-50.0, 0.0, 0.0), Vec3::new(1.5, 1.5, 1.5)];
        let order = identity_order(queries.len());
        let params = SearchParams::range(2.0, 8);
        let grid = MegacellGrid::build(&points, 4096).unwrap();
        let mut cache = MegacellCache::new(queries.len());
        partition_queries(
            &device,
            &grid,
            &queries,
            &order,
            &params,
            KnnAabbRule::Guaranteed,
            Some((&mut cache, &Aabb::EMPTY)),
        );
        // Only the in-grid query earned an entry.
        assert_eq!(cache.valid_entries(), 1);
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
