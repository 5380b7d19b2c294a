//! Search parameters, results, the per-phase time breakdown, and the
//! deterministic merge of per-shard results ([`ShardMerge`]).

use crate::pipeline::PipelineTrace;
use crate::plan::PlanError;
use rtnn_math::morton::MortonEncoder;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::LaunchMetrics;
use serde::{Deserialize, Serialize};

/// The two neighbor-search variants the paper targets (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMode {
    /// Fixed-radius (range) search: return up to `K` neighbors within `r`.
    Range,
    /// K-nearest-neighbor search: return the `K` nearest neighbors within `r`.
    Knn,
}

/// The search interface of Section 2.1: every search carries a radius `r`
/// and a maximum neighbor count `K`, for both variants. An unbounded KNN is
/// emulated with a very large `r`, an unbounded range search with a very
/// large `K`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Search radius `r` (must be positive).
    pub radius: f32,
    /// Maximum neighbor count `K` (must be at least 1).
    pub k: usize,
    /// Which variant to run.
    pub mode: SearchMode,
}

impl SearchParams {
    /// Range-search parameters.
    pub fn range(radius: f32, k: usize) -> Self {
        SearchParams {
            radius,
            k,
            mode: SearchMode::Range,
        }
    }

    /// KNN parameters.
    pub fn knn(radius: f32, k: usize) -> Self {
        SearchParams {
            radius,
            k,
            mode: SearchMode::Knn,
        }
    }

    /// Validate the parameters; every violation is a typed
    /// [`PlanError`] naming the offending field.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !self.radius.is_finite() || self.radius <= 0.0 {
            return Err(PlanError::InvalidRadius {
                field: "SearchParams.radius",
                value: self.radius,
            });
        }
        if self.k == 0 {
            return Err(PlanError::ZeroNeighborCount {
                field: "SearchParams.k",
            });
        }
        Ok(())
    }
}

/// The five components of Figure 12: data transfer, optimisation overhead
/// (query reordering + partitioning), BVH builds, the first (scheduling)
/// search, and the actual search. All in simulated milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Host↔device transfers (`Data`).
    pub data_ms: f64,
    /// Query reordering and partitioning kernels (`Opt`).
    pub opt_ms: f64,
    /// Acceleration-structure builds (`BVH`).
    pub bvh_ms: f64,
    /// The first-hit scheduling launch (`FS`).
    pub fs_ms: f64,
    /// The actual neighbor-search launches (`Search`).
    pub search_ms: f64,
}

impl TimeBreakdown {
    /// End-to-end simulated time.
    pub fn total_ms(&self) -> f64 {
        self.data_ms + self.opt_ms + self.bvh_ms + self.fs_ms + self.search_ms
    }

    /// The five components as `(label, milliseconds)` pairs in the order the
    /// paper's Figure 12 stacks them.
    pub fn components(&self) -> [(&'static str, f64); 5] {
        [
            ("Data", self.data_ms),
            ("Opt", self.opt_ms),
            ("BVH", self.bvh_ms),
            ("FS", self.fs_ms),
            ("Search", self.search_ms),
        ]
    }

    /// Each component as a fraction of the total (zero total gives zeros).
    pub fn fractions(&self) -> [(&'static str, f64); 5] {
        let total = self.total_ms();
        let mut out = self.components();
        for (_, v) in out.iter_mut() {
            *v = if total > 0.0 { *v / total } else { 0.0 };
        }
        out
    }
}

/// The output of one RTNN search.
#[derive(Debug, Clone, Default)]
pub struct SearchResults {
    /// Per-query neighbor ids (indices into the points the
    /// [`Index`](crate::Index) was built over), in the original query
    /// order. KNN results are sorted by increasing distance.
    pub neighbors: Vec<Vec<u32>>,
    /// Per-phase simulated time.
    pub breakdown: TimeBreakdown,
    /// Aggregated metrics of the actual search launches.
    pub search_metrics: LaunchMetrics,
    /// Aggregated metrics of the first-hit scheduling launch (zero when
    /// scheduling is disabled).
    pub fs_metrics: LaunchMetrics,
    /// Number of query partitions searched (1 when partitioning is off).
    pub num_partitions: usize,
    /// Number of partitions after bundling (equals `num_partitions` when
    /// bundling is off or made no difference).
    pub num_bundles: usize,
    /// Per-stage metering of the pipeline execution that produced these
    /// results (see [`crate::pipeline`]): every simulated millisecond
    /// outside the `Data` transfer slot is accounted to exactly one stage.
    pub trace: PipelineTrace,
}

impl SearchResults {
    /// Total number of neighbor links reported.
    pub fn total_neighbors(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum()
    }

    /// Simulated end-to-end time in milliseconds.
    pub fn total_time_ms(&self) -> f64 {
        self.breakdown.total_ms()
    }
}

// ---------------------------------------------------------------------------
// Shard merging
// ---------------------------------------------------------------------------

/// Deterministic merging of per-shard neighbor lists back into the result a
/// single unsharded index would have produced.
///
/// The engine's traversal visits primitives in a *canonical, structure-
/// independent* order: the LBVH sorts primitives by `(Morton code of the
/// point over the cloud's point bounds, point id)` and traversal walks the
/// leaves left to right, so the hits of a range query arrive in exactly
/// that order — for *every* AABB width the partitioner picks, because the
/// Morton normalisation uses the primitive **centroids** (the points
/// themselves), not the width-dilated boxes. A `ShardMerge` precomputes
/// that rank over the full point set, which lets a sharded execution
/// (`rtnn-serve`'s `ShardedIndex`) reassemble per-shard hit lists into the
/// single-index hit order by sorting on the rank:
///
/// * [`merge_range`](Self::merge_range) — union the per-shard in-radius
///   hits, order by traversal rank, truncate to the cap. Bit-equal to the
///   unsharded result whenever the cap does not truncate (a truncating
///   range search returns *some* `cap` in-range neighbors by contract, and
///   which ones depends on the structure that served it).
/// * [`merge_knn`](Self::merge_knn) — union the per-shard top-`k` lists,
///   keep the `k` smallest by `(distance², id)` — the same total order the
///   KNN heap's distance-sorted output uses. Bit-equal to the unsharded
///   result whenever no two candidates tie exactly at the `k`-th distance
///   (ties inside the heap are resolved by offer order, which sharding
///   cannot observe; seeded float clouds do not produce them).
///
/// The rank also defines the canonical Morton-range sharding:
/// [`traversal_order`](Self::traversal_order) lists the point ids in rank
/// order, and cutting that sequence into contiguous chunks yields spatially
/// compact shards.
#[derive(Debug, Clone)]
pub struct ShardMerge {
    /// `rank[point_id]` = position of the point in the canonical traversal
    /// order.
    rank: Vec<u32>,
}

impl ShardMerge {
    /// Precompute the canonical traversal rank of every point — the same
    /// `(Morton key over the point bounds, id)` sort the LBVH builder uses.
    pub fn new(points: &[Vec3]) -> Self {
        let bounds = Aabb::from_points(points);
        let encoder = MortonEncoder::new(&bounds);
        let mut keyed: Vec<(u64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (encoder.encode(p), i as u32))
            .collect();
        keyed.sort_unstable_by_key(|&(k, id)| (k, id));
        let mut rank = vec![0u32; points.len()];
        for (r, &(_, id)) in keyed.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        ShardMerge { rank }
    }

    /// Number of points the merge was built over.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True when built over an empty cloud.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The canonical traversal rank of a point id.
    #[inline]
    pub fn rank(&self, point_id: u32) -> u32 {
        self.rank[point_id as usize]
    }

    /// Point ids in canonical traversal order — cut this into contiguous
    /// chunks to shard the cloud along the Morton curve.
    pub fn traversal_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.rank.len() as u32).collect();
        ids.sort_unstable_by_key(|&id| self.rank[id as usize]);
        ids
    }

    /// Merge one query's per-shard range hits (lists of *global* point
    /// ids, disjoint across shards) into single-index hit order: sort by
    /// traversal rank, truncate to `cap`.
    pub fn merge_range(&self, shard_hits: &[Vec<u32>], cap: usize) -> Vec<u32> {
        let mut all: Vec<u32> = shard_hits.iter().flatten().copied().collect();
        all.sort_unstable_by_key(|&id| self.rank[id as usize]);
        all.truncate(cap);
        all
    }

    /// The shared shard-`Gather`: reassemble one query's per-shard hit
    /// lists into the result a single unsharded index would have produced,
    /// dispatching on the plan's search mode. This is the one merge every
    /// sharded execution (`rtnn-serve`'s `ShardedIndex`) runs after its
    /// per-shard pipeline launches.
    pub fn gather_query(
        &self,
        params: &SearchParams,
        query: Vec3,
        points: &[Vec3],
        shard_hits: &[Vec<u32>],
    ) -> Vec<u32> {
        match params.mode {
            SearchMode::Knn => Self::merge_knn(query, points, shard_hits, params.k),
            SearchMode::Range => self.merge_range(shard_hits, params.k),
        }
    }

    /// Merge one query's per-shard KNN lists (lists of *global* point ids,
    /// disjoint across shards) into the `k` nearest, sorted by increasing
    /// `(distance², id)` — the KNN shader's output order. Distances are
    /// recomputed with the exact expression the IS shader evaluates, so
    /// the keys are bit-identical to the on-device ones.
    pub fn merge_knn(query: Vec3, points: &[Vec3], shard_hits: &[Vec<u32>], k: usize) -> Vec<u32> {
        let mut all: Vec<(u32, u32)> = shard_hits
            .iter()
            .flatten()
            .map(|&id| (query.distance_squared(points[id as usize]).to_bits(), id))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(SearchParams::range(1.0, 10).validate().is_ok());
        assert!(SearchParams::knn(0.5, 1).validate().is_ok());
        assert_eq!(
            SearchParams::range(0.0, 10).validate().unwrap_err(),
            PlanError::InvalidRadius {
                field: "SearchParams.radius",
                value: 0.0
            }
        );
        assert!(SearchParams::range(-1.0, 10).validate().is_err());
        assert!(SearchParams::range(f32::NAN, 10).validate().is_err());
        assert_eq!(
            SearchParams::range(1.0, 0).validate().unwrap_err(),
            PlanError::ZeroNeighborCount {
                field: "SearchParams.k"
            }
        );
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = TimeBreakdown {
            data_ms: 1.0,
            opt_ms: 2.0,
            bvh_ms: 3.0,
            fs_ms: 4.0,
            search_ms: 10.0,
        };
        assert_eq!(b.total_ms(), 20.0);
        let f = b.fractions();
        assert_eq!(f[0].0, "Data");
        assert!((f[4].1 - 0.5).abs() < 1e-12);
        let sum: f64 = f.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(TimeBreakdown::default().fractions()[0].1, 0.0);
    }

    #[test]
    fn results_counters() {
        let r = SearchResults {
            neighbors: vec![vec![1, 2], vec![], vec![3]],
            breakdown: TimeBreakdown {
                search_ms: 5.0,
                ..Default::default()
            },
            search_metrics: LaunchMetrics::default(),
            fs_metrics: LaunchMetrics::default(),
            num_partitions: 1,
            num_bundles: 1,
            trace: PipelineTrace::default(),
        };
        assert_eq!(r.total_neighbors(), 3);
        assert_eq!(r.total_time_ms(), 5.0);
    }

    fn scattered(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.731) % 7.0, (f * 0.413) % 7.0, (f * 0.297) % 7.0)
            })
            .collect()
    }

    #[test]
    fn rank_is_a_permutation_and_orders_the_shards() {
        let points = scattered(200);
        let merge = ShardMerge::new(&points);
        assert_eq!(merge.len(), points.len());
        let order = merge.traversal_order();
        let mut seen = vec![false; points.len()];
        for (r, &id) in order.iter().enumerate() {
            assert_eq!(merge.rank(id) as usize, r);
            assert!(!seen[id as usize]);
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merge_range_reproduces_the_unsharded_traversal_order() {
        use crate::backend::{Backend, GpusimBackend, TraversalJob, TraversalKind};
        use rtnn_bvh::BuildParams;
        use rtnn_gpusim::Device;

        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = scattered(300);
        let queries = vec![Vec3::new(3.0, 3.0, 3.0), Vec3::new(1.0, 5.5, 2.0)];
        let ids: Vec<u32> = (0..queries.len() as u32).collect();
        let kind = TraversalKind::Range {
            radius: 1.6,
            cap: 10_000,
            sphere_test: true,
        };

        // Unsharded reference: one structure over every point.
        let accel = backend.build(&points, 3.2, BuildParams::default()).unwrap();
        let reference = backend.traverse(
            accel.as_ref(),
            &TraversalJob {
                points: &points,
                queries: &queries,
                query_ids: &ids,
                kind,
            },
        );

        // Three Morton-range shards, each with its own structure (and its
        // own, different, shard-local traversal order).
        let merge = ShardMerge::new(&points);
        let order = merge.traversal_order();
        for (qi, _) in queries.iter().enumerate() {
            let mut shard_hits = Vec::new();
            for chunk in order.chunks(order.len().div_ceil(3)) {
                let shard_points: Vec<Vec3> = chunk.iter().map(|&id| points[id as usize]).collect();
                let shard_accel = backend
                    .build(&shard_points, 3.2, BuildParams::default())
                    .unwrap();
                let local = backend.traverse(
                    shard_accel.as_ref(),
                    &TraversalJob {
                        points: &shard_points,
                        queries: &queries,
                        query_ids: &ids[qi..qi + 1],
                        kind,
                    },
                );
                shard_hits.push(
                    local.payloads[0]
                        .iter()
                        .map(|&l| chunk[l as usize])
                        .collect(),
                );
            }
            assert_eq!(
                merge.merge_range(&shard_hits, 10_000),
                reference.payloads[qi],
                "query {qi}: rank merge must reproduce the single-structure hit order"
            );
        }
    }

    #[test]
    fn merge_knn_keeps_the_global_top_k_in_distance_order() {
        let points = scattered(120);
        let q = Vec3::new(3.5, 3.5, 3.5);
        // Per-shard top-4 lists over an id split.
        let shard_a: Vec<u32> = (0..60).collect();
        let shard_b: Vec<u32> = (60..120).collect();
        let top = |ids: &[u32]| -> Vec<u32> {
            let mut v: Vec<u32> = ids.to_vec();
            v.sort_by_key(|&id| (q.distance_squared(points[id as usize]).to_bits(), id));
            v.truncate(4);
            v
        };
        let merged = ShardMerge::merge_knn(q, &points, &[top(&shard_a), top(&shard_b)], 4);
        // Reference: global top-4 by (d2, id).
        let expected = top(&(0..120).collect::<Vec<u32>>());
        assert_eq!(merged, expected);
        // The merged list is sorted by increasing distance.
        for w in merged.windows(2) {
            assert!(
                q.distance_squared(points[w[0] as usize])
                    <= q.distance_squared(points[w[1] as usize])
            );
        }
    }
}
