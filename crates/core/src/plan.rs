//! Typed, per-call query plans — the query half of the two-level
//! [`Index`](crate::Index) API.
//!
//! The paper's pipeline builds one acceleration structure over the points
//! and then answers *many* searches against it, with different radii, `K`s
//! and variants (unrestricted KNN à la RT-kNNS Unbound, clustering-style
//! epsilon queries à la RT-DBSCAN). A [`QueryPlan`] captures one such
//! search — or a heterogeneous [`QueryPlan::Batch`] of them — and is passed
//! *per call* to [`Index::query`](crate::Index::query), so the same index
//! serves every plan without rebuilding.
//!
//! Plans are validated at query time, together with the call's queries;
//! every violation is reported as a typed [`PlanError`] naming the
//! offending field or query.

use crate::result::{SearchMode, SearchParams};
use rtnn_math::{Aabb, Vec3};
use std::borrow::Cow;

/// A typed description of one neighbor search (or a batch of them),
/// decoupled from the scene it runs against.
///
/// ```
/// use rtnn::QueryPlan;
///
/// let knn = QueryPlan::knn(1.5, 8); // 8 nearest neighbors within r = 1.5
/// let rng = QueryPlan::range(0.8, 64); // up to 64 neighbors within r = 0.8
/// assert!(knn.validate(100).is_ok());
/// assert!(rng.validate(100).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// K-nearest-neighbor search: the `k` nearest neighbors within `r`.
    /// (An unrestricted KNN is expressed with a very large `r`.)
    Knn {
        /// Number of nearest neighbors to return (must be at least 1).
        k: usize,
        /// Search radius bounding the returned neighbors (positive, finite).
        r: f32,
    },
    /// Fixed-radius (range) search: up to `cap` neighbors within `r`.
    /// (An unbounded range search is expressed with
    /// [`QueryPlan::range_unbounded`], whose [`UNBOUNDED_CAP`] sentinel the
    /// index resolves to the scene's point count at query time.)
    ///
    /// [`UNBOUNDED_CAP`]: QueryPlan::UNBOUNDED_CAP
    Range {
        /// Search radius (positive, finite).
        r: f32,
        /// Maximum neighbor count (must be at least 1).
        cap: usize,
    },
    /// A heterogeneous batch: several plans with per-plan radii/K answered
    /// against the same index in one call, sharing a single scheduling
    /// traversal pass and the index's cached structures. Each slice names
    /// the query ids (indices into the query array) it applies to; ids must
    /// be disjoint across slices, and queries covered by no slice get an
    /// empty result.
    Batch(Vec<PlanSlice>),
}

/// One sub-plan of a [`QueryPlan::Batch`]: a (non-batch) plan plus the
/// query ids it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSlice {
    /// The plan for these queries ([`QueryPlan::Knn`] or
    /// [`QueryPlan::Range`]; nesting batches is rejected).
    pub plan: QueryPlan,
    /// Indices into the query array this plan applies to.
    pub query_ids: Vec<u32>,
}

impl PlanSlice {
    /// A slice applying `plan` to `query_ids`.
    pub fn new(plan: QueryPlan, query_ids: Vec<u32>) -> Self {
        PlanSlice { plan, query_ids }
    }
}

impl QueryPlan {
    /// KNN plan: the `k` nearest neighbors within `r`.
    pub fn knn(r: f32, k: usize) -> Self {
        QueryPlan::Knn { k, r }
    }

    /// Range plan: up to `cap` neighbors within `r`.
    pub fn range(r: f32, cap: usize) -> Self {
        QueryPlan::Range { r, cap }
    }

    /// The sentinel cap carried by [`range_unbounded`](Self::range_unbounded)
    /// plans. Execution entry points resolve it to the scene's point count
    /// (the largest result a range query can produce) before sizing result
    /// buffers, so the sentinel never reaches footprint arithmetic.
    pub const UNBOUNDED_CAP: usize = usize::MAX;

    /// Unbounded range plan: *every* neighbor within `r`.
    ///
    /// Semantically identical to [`range`](Self::range) with a cap of the
    /// scene's point count, without the caller having to know that count —
    /// the DBSCAN driver in `rtnn-analytics` needs exact ε-neighborhoods,
    /// and a hand-picked "very large" cap either truncates silently or
    /// over-allocates result buffers. The plan carries the
    /// [`UNBOUNDED_CAP`](Self::UNBOUNDED_CAP) sentinel, which the index
    /// resolves per scene at query time; validation is exactly that of
    /// `range` (the sentinel is non-zero, so only the radius can fail).
    ///
    /// ```
    /// use rtnn::{PlanError, QueryPlan};
    ///
    /// assert!(QueryPlan::range_unbounded(0.8).validate(100).is_ok());
    /// assert_eq!(
    ///     QueryPlan::range_unbounded(f32::INFINITY).validate(100).unwrap_err(),
    ///     PlanError::InvalidRadius { field: "Range.r", value: f32::INFINITY }
    /// );
    /// ```
    pub fn range_unbounded(r: f32) -> Self {
        QueryPlan::Range {
            r,
            cap: Self::UNBOUNDED_CAP,
        }
    }

    /// This plan with any [`UNBOUNDED_CAP`](Self::UNBOUNDED_CAP) sentinel
    /// resolved to `num_points.max(1)` — the tightest true bound on a range
    /// result (`max(1)` keeps the resolved plan valid for empty scenes).
    /// Plans without the sentinel are returned borrowed; execution entry
    /// points call this before any result-buffer sizing.
    pub fn resolve_caps(&self, num_points: usize) -> Cow<'_, QueryPlan> {
        let bound = num_points.max(1);
        match self {
            QueryPlan::Range {
                r,
                cap: Self::UNBOUNDED_CAP,
            } => Cow::Owned(QueryPlan::range(*r, bound)),
            QueryPlan::Batch(slices)
                if slices.iter().any(|s| {
                    matches!(
                        s.plan,
                        QueryPlan::Range {
                            cap: Self::UNBOUNDED_CAP,
                            ..
                        }
                    )
                }) =>
            {
                Cow::Owned(QueryPlan::Batch(
                    slices
                        .iter()
                        .map(|s| {
                            PlanSlice::new(
                                s.plan.resolve_caps(num_points).into_owned(),
                                s.query_ids.clone(),
                            )
                        })
                        .collect(),
                ))
            }
            _ => Cow::Borrowed(self),
        }
    }

    /// The plan equivalent to a [`SearchParams`] bundle (what a
    /// [`RtnnConfig`](crate::RtnnConfig) carries).
    pub fn from_params(params: SearchParams) -> Self {
        match params.mode {
            SearchMode::Knn => QueryPlan::Knn {
                k: params.k,
                r: params.radius,
            },
            SearchMode::Range => QueryPlan::Range {
                r: params.radius,
                cap: params.k,
            },
        }
    }

    /// The plan kind as a static label (`"knn"` / `"range"` / `"batch"`) —
    /// the suffix the telemetry naming schema uses for per-plan-kind span
    /// names and latency histograms.
    pub fn kind_label(&self) -> &'static str {
        match self {
            QueryPlan::Knn { .. } => "knn",
            QueryPlan::Range { .. } => "range",
            QueryPlan::Batch(_) => "batch",
        }
    }

    /// The parameter bundle of a non-batch plan (`None` for
    /// [`QueryPlan::Batch`]).
    pub fn params(&self) -> Option<SearchParams> {
        match *self {
            QueryPlan::Knn { k, r } => Some(SearchParams::knn(r, k)),
            QueryPlan::Range { r, cap } => Some(SearchParams::range(r, cap)),
            QueryPlan::Batch(_) => None,
        }
    }

    /// The largest radius any part of this plan searches (0 for an empty
    /// batch). [`Index::warm`](crate::Index::warm) sizes the structure of
    /// the shared scheduling pass from this.
    pub fn max_radius(&self) -> f32 {
        match self {
            QueryPlan::Knn { r, .. } | QueryPlan::Range { r, .. } => *r,
            QueryPlan::Batch(slices) => slices
                .iter()
                .map(|s| s.plan.max_radius())
                .fold(0.0, f32::max),
        }
    }

    /// The canonical form of this plan: nested [`QueryPlan::Batch`]es are
    /// flattened and slices with identical parameters are merged into one
    /// slice (query ids concatenated in encounter order), with merged
    /// slices ordered by the first appearance of their parameters.
    ///
    /// Deduplication is scoped to one merged slice: an id claimed twice by
    /// slices with the *same* parameters is kept once (the merge makes the
    /// two claims indistinguishable), while an id claimed by slices with
    /// *different* parameters survives in both — that conflict is a plan
    /// bug, and [`validate`](Self::validate) keeps reporting it as
    /// [`PlanError::DuplicateQueryId`] after normalization.
    ///
    /// A slice wrapping a nested batch contributes the nested slices
    /// verbatim — query ids are always absolute indices into the query
    /// array, so the wrapper slice's own `query_ids` carry no additional
    /// information and are ignored.
    ///
    /// Single plans and already-normal batches are returned borrowed, so
    /// calling this on the hot path is free for them. [`Index::query`]
    /// normalizes every plan before validating it (a flattened batch is
    /// valid even when the original nested one would have been rejected),
    /// and the `rtnn-serve` coalescer uses the same routine to fuse the
    /// per-request slices of one serving tick into a minimal batch.
    ///
    /// ```
    /// use rtnn::{PlanSlice, QueryPlan};
    ///
    /// let batch = QueryPlan::Batch(vec![
    ///     PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0]),
    ///     PlanSlice::new(QueryPlan::range(2.0, 8), vec![1]),
    ///     PlanSlice::new(QueryPlan::knn(1.0, 4), vec![2]),
    /// ]);
    /// let normal = batch.normalized();
    /// if let QueryPlan::Batch(slices) = normal.as_ref() {
    ///     assert_eq!(slices.len(), 2);
    ///     assert_eq!(slices[0].query_ids, vec![0, 2]);
    /// } else {
    ///     unreachable!();
    /// }
    /// ```
    ///
    /// [`Index::query`]: crate::Index::query
    pub fn normalized(&self) -> Cow<'_, QueryPlan> {
        let QueryPlan::Batch(slices) = self else {
            return Cow::Borrowed(self);
        };
        // Fast path: no nesting, no duplicate ids, and no two slices with
        // the same parameters — the plan is already normal.
        let mut seen_params: Vec<SearchParams> = Vec::with_capacity(slices.len());
        let already_normal = slices.iter().all(|s| match s.plan.params() {
            Some(p) if !seen_params.contains(&p) => {
                seen_params.push(p);
                true
            }
            _ => false,
        }) && !has_duplicate_ids(slices);
        if already_normal {
            return Cow::Borrowed(self);
        }

        // (params, query ids) in first-appearance order.
        let mut merged: Vec<(SearchParams, Vec<u32>)> = Vec::new();
        collect_slices(slices, &mut merged);
        Cow::Owned(QueryPlan::Batch(
            merged
                .into_iter()
                .map(|(params, mut ids)| {
                    // Dedup within the merged slice only (see doc comment):
                    // same-params double claims collapse, cross-params ones
                    // are left for validate() to reject.
                    let mut seen = std::collections::HashSet::with_capacity(ids.len());
                    ids.retain(|&q| seen.insert(q));
                    PlanSlice::new(QueryPlan::from_params(params), ids)
                })
                .collect(),
        ))
    }

    /// Validate the plan against a query set of `num_queries` queries.
    ///
    /// Every violation is a typed [`PlanError`] naming the offending field:
    ///
    /// ```
    /// use rtnn::{PlanError, QueryPlan};
    ///
    /// let err = QueryPlan::knn(-1.0, 8).validate(10).unwrap_err();
    /// assert_eq!(
    ///     err,
    ///     PlanError::InvalidRadius { field: "Knn.r", value: -1.0 }
    /// );
    /// assert_eq!(
    ///     QueryPlan::range(1.0, 0).validate(10).unwrap_err(),
    ///     PlanError::ZeroNeighborCount { field: "Range.cap" }
    /// );
    /// ```
    pub fn validate(&self, num_queries: usize) -> Result<(), PlanError> {
        match self {
            QueryPlan::Knn { k, r } => {
                check_radius("Knn.r", *r)?;
                check_count("Knn.k", *k)
            }
            QueryPlan::Range { r, cap } => {
                check_radius("Range.r", *r)?;
                check_count("Range.cap", *cap)
            }
            QueryPlan::Batch(slices) => {
                if slices.is_empty() {
                    return Err(PlanError::EmptyBatch);
                }
                let mut claimed = vec![false; num_queries];
                for (si, slice) in slices.iter().enumerate() {
                    if matches!(slice.plan, QueryPlan::Batch(_)) {
                        return Err(PlanError::NestedBatch { slice: si });
                    }
                    slice.plan.validate(num_queries)?;
                    for &qid in &slice.query_ids {
                        if qid as usize >= num_queries {
                            return Err(PlanError::QueryIdOutOfRange {
                                slice: si,
                                query_id: qid,
                                num_queries,
                            });
                        }
                        if claimed[qid as usize] {
                            return Err(PlanError::DuplicateQueryId {
                                slice: si,
                                query_id: qid,
                            });
                        }
                        claimed[qid as usize] = true;
                    }
                }
                Ok(())
            }
        }
    }

    /// Validate the plan against the call's actual `queries`: everything
    /// [`validate`](Self::validate) checks, then that every query position
    /// is finite ([`PlanError::NonFiniteQuery`] names the first that is
    /// not). Every execution entry point runs this before any work.
    ///
    /// ```
    /// use rtnn::{PlanError, QueryPlan};
    /// use rtnn_math::Vec3;
    ///
    /// let queries = [Vec3::ZERO, Vec3::new(f32::NAN, 0.0, 0.0)];
    /// assert_eq!(
    ///     QueryPlan::knn(1.5, 4).validate_for(&queries).unwrap_err(),
    ///     PlanError::NonFiniteQuery { query_id: 1 }
    /// );
    /// ```
    pub fn validate_for(&self, queries: &[Vec3]) -> Result<(), PlanError> {
        self.validate(queries.len())?;
        match queries.iter().position(|q| !q.is_finite()) {
            Some(i) => Err(PlanError::NonFiniteQuery { query_id: i as u32 }),
            None => Ok(()),
        }
    }
}

/// Check that every indexed point is finite
/// ([`PlanError::NonFinitePoint`] names the first that is not) and return
/// their bounds. An [`Index`](crate::Index) runs this once, at its first
/// query: a NaN or infinite point has no distance to compare, so no answer
/// over it can agree with the brute-force oracle. The bounds are the
/// points' in-order fold, bit-equal to [`Aabb::from_points`]; the
/// coherence schedule grows them by each call's queries.
///
/// ```
/// use rtnn::plan::validate_points;
/// use rtnn::PlanError;
/// use rtnn_math::{Aabb, Vec3};
///
/// let points = [Vec3::ZERO, Vec3::ONE, Vec3::new(0.0, f32::INFINITY, 0.0)];
/// assert_eq!(
///     validate_points(&points).unwrap_err(),
///     PlanError::NonFinitePoint { point_id: 2 }
/// );
/// assert_eq!(validate_points(&points[..2]), Ok(Aabb::from_points(&points[..2])));
/// ```
pub fn validate_points(points: &[Vec3]) -> Result<Aabb, PlanError> {
    let mut bounds = Aabb::EMPTY;
    for (i, &p) in points.iter().enumerate() {
        if !p.is_finite() {
            return Err(PlanError::NonFinitePoint { point_id: i as u32 });
        }
        bounds.grow_point(p);
    }
    Ok(bounds)
}

/// Append every (transitively nested) slice of `slices` to `merged`,
/// grouping by exact parameters (per-group deduplication happens in the
/// caller once the groups are complete).
fn collect_slices(slices: &[PlanSlice], merged: &mut Vec<(SearchParams, Vec<u32>)>) {
    for slice in slices {
        match &slice.plan {
            QueryPlan::Batch(nested) => collect_slices(nested, merged),
            single => {
                let params = single.params().expect("non-batch plan has params");
                match merged.iter_mut().find(|(p, _)| *p == params) {
                    Some((_, existing)) => existing.extend_from_slice(&slice.query_ids),
                    None => merged.push((params, slice.query_ids.clone())),
                }
            }
        }
    }
}

fn has_duplicate_ids(slices: &[PlanSlice]) -> bool {
    let mut seen = std::collections::HashSet::new();
    slices
        .iter()
        .flat_map(|s| s.query_ids.iter())
        .any(|&q| !seen.insert(q))
}

fn check_radius(field: &'static str, r: f32) -> Result<(), PlanError> {
    if !r.is_finite() || r <= 0.0 {
        Err(PlanError::InvalidRadius { field, value: r })
    } else {
        Ok(())
    }
}

fn check_count(field: &'static str, k: usize) -> Result<(), PlanError> {
    if k == 0 {
        Err(PlanError::ZeroNeighborCount { field })
    } else {
        Ok(())
    }
}

/// A typed plan/configuration validation error, naming the offending field.
///
/// Replaces the stringly-typed `Result<(), String>` the legacy
/// `SearchParams::validate` used to return.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A radius field is non-positive or non-finite.
    InvalidRadius {
        /// Which field (`"Knn.r"`, `"Range.r"`, `"SearchParams.radius"`...).
        field: &'static str,
        /// The rejected value.
        value: f32,
    },
    /// A neighbor-count field is zero.
    ZeroNeighborCount {
        /// Which field (`"Knn.k"`, `"Range.cap"`, `"SearchParams.k"`...).
        field: &'static str,
    },
    /// `grid_max_cells` is zero — the megacell pass needs at least one cell.
    ZeroGridBudget,
    /// A cells-per-axis grid resolution is zero (the raster-scan ordering
    /// of the coherence experiments needs at least one cell per axis).
    ZeroCellsPerAxis {
        /// Which field (`"raster_order.cells_per_axis"`...).
        field: &'static str,
    },
    /// The `ShrunkenAabb` approximation factor is outside `(0, 1]`.
    InvalidShrinkFactor {
        /// The rejected factor.
        factor: f32,
    },
    /// A [`QueryPlan::Batch`] holds no slices.
    EmptyBatch,
    /// A batch slice nests another batch.
    NestedBatch {
        /// Index of the offending slice.
        slice: usize,
    },
    /// A batch slice names a query id outside the query array.
    QueryIdOutOfRange {
        /// Index of the offending slice.
        slice: usize,
        /// The out-of-range id.
        query_id: u32,
        /// The number of queries in the call.
        num_queries: usize,
    },
    /// Two batch slices claim the same query id.
    DuplicateQueryId {
        /// Index of the second slice claiming the id.
        slice: usize,
        /// The doubly-claimed id.
        query_id: u32,
    },
    /// A query position has a NaN or infinite coordinate.
    NonFiniteQuery {
        /// Index of the offending query in the call's query array.
        query_id: u32,
    },
    /// An indexed point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// The caller's id of the offending point: its index in the points
        /// the index was built over (the global id for a sharded index, the
        /// stable handle for a streaming frame).
        point_id: u32,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidRadius { field, value } => {
                write!(f, "{field}: search radius must be positive and finite, got {value}")
            }
            PlanError::ZeroNeighborCount { field } => {
                write!(f, "{field}: neighbor count must be at least 1, got 0")
            }
            PlanError::ZeroGridBudget => write!(
                f,
                "grid_max_cells: the megacell grid budget must be at least 1 cell, got 0"
            ),
            PlanError::ZeroCellsPerAxis { field } => write!(
                f,
                "{field}: the grid resolution must be at least 1 cell per axis, got 0"
            ),
            PlanError::InvalidShrinkFactor { factor } => {
                write!(f, "ShrunkenAabb.factor: must be in (0, 1], got {factor}")
            }
            PlanError::EmptyBatch => write!(f, "Batch: must hold at least one plan slice"),
            PlanError::NestedBatch { slice } => {
                write!(f, "Batch slice {slice}: nested Batch plans are not allowed")
            }
            PlanError::QueryIdOutOfRange {
                slice,
                query_id,
                num_queries,
            } => write!(
                f,
                "Batch slice {slice}: query id {query_id} is out of range (call has {num_queries} queries)"
            ),
            PlanError::DuplicateQueryId { slice, query_id } => write!(
                f,
                "Batch slice {slice}: query id {query_id} is already claimed by an earlier slice"
            ),
            PlanError::NonFiniteQuery { query_id } => write!(
                f,
                "query {query_id}: query positions must be finite, got a NaN or infinite coordinate"
            ),
            PlanError::NonFinitePoint { point_id } => write!(
                f,
                "point {point_id}: indexed points must be finite, got a NaN or infinite coordinate"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_params_round_trip() {
        let knn = QueryPlan::knn(1.5, 8);
        assert_eq!(knn.params(), Some(SearchParams::knn(1.5, 8)));
        let range = QueryPlan::range(0.8, 64);
        assert_eq!(range.params(), Some(SearchParams::range(0.8, 64)));
        assert_eq!(QueryPlan::from_params(SearchParams::knn(1.5, 8)), knn);
        assert_eq!(QueryPlan::from_params(SearchParams::range(0.8, 64)), range);
        assert_eq!(QueryPlan::Batch(Vec::new()).params(), None);
    }

    #[test]
    fn single_plan_validation_names_the_field() {
        assert!(QueryPlan::knn(1.0, 4).validate(0).is_ok());
        assert!(matches!(
            QueryPlan::knn(f32::NAN, 4).validate(0).unwrap_err(),
            PlanError::InvalidRadius {
                field: "Knn.r",
                value,
            } if value.is_nan()
        ));
        assert_eq!(
            QueryPlan::knn(1.0, 0).validate(0).unwrap_err(),
            PlanError::ZeroNeighborCount { field: "Knn.k" }
        );
        assert_eq!(
            QueryPlan::range(0.0, 4).validate(0).unwrap_err(),
            PlanError::InvalidRadius {
                field: "Range.r",
                value: 0.0
            }
        );
        let msg = QueryPlan::range(-2.0, 4)
            .validate(0)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("Range.r") && msg.contains("-2"), "{msg}");
    }

    #[test]
    fn batch_validation_rejects_structural_errors() {
        assert_eq!(
            QueryPlan::Batch(Vec::new()).validate(4).unwrap_err(),
            PlanError::EmptyBatch
        );
        let nested = QueryPlan::Batch(vec![PlanSlice::new(
            QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.0, 2), vec![0])]),
            vec![0],
        )]);
        assert_eq!(
            nested.validate(4).unwrap_err(),
            PlanError::NestedBatch { slice: 0 }
        );
        let oob = QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.0, 2), vec![4])]);
        assert_eq!(
            oob.validate(4).unwrap_err(),
            PlanError::QueryIdOutOfRange {
                slice: 0,
                query_id: 4,
                num_queries: 4
            }
        );
        let dup = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 2), vec![0, 1]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![1]),
        ]);
        assert_eq!(
            dup.validate(4).unwrap_err(),
            PlanError::DuplicateQueryId {
                slice: 1,
                query_id: 1
            }
        );
        let ok = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 2), vec![0, 1]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![2, 3]),
        ]);
        assert!(ok.validate(4).is_ok());
        assert_eq!(ok.max_radius(), 2.0);
    }

    #[test]
    fn normalized_passes_single_plans_and_normal_batches_through() {
        let knn = QueryPlan::knn(1.5, 8);
        assert!(matches!(knn.normalized(), Cow::Borrowed(_)));
        let normal = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 2), vec![0, 1]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![2]),
        ]);
        let out = normal.normalized();
        assert!(
            matches!(out, Cow::Borrowed(_)),
            "already-normal batch is borrowed"
        );
        assert_eq!(out.as_ref(), &normal);
    }

    #[test]
    fn normalized_merges_identical_params_preserving_query_order() {
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![3, 0]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![1]),
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![5, 2]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![4]),
        ]);
        let QueryPlan::Batch(slices) = batch.normalized().into_owned() else {
            panic!("normalized batch stays a batch");
        };
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].plan, QueryPlan::knn(1.0, 4));
        assert_eq!(slices[0].query_ids, vec![3, 0, 5, 2]);
        assert_eq!(slices[1].plan, QueryPlan::range(2.0, 8));
        assert_eq!(slices[1].query_ids, vec![1, 4]);
    }

    #[test]
    fn normalized_flattens_nested_batches_and_dedups_ids() {
        let nested = QueryPlan::Batch(vec![
            PlanSlice::new(
                QueryPlan::Batch(vec![
                    PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0, 1]),
                    PlanSlice::new(QueryPlan::range(3.0, 16), vec![2]),
                ]),
                Vec::new(),
            ),
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![1, 3]),
        ]);
        assert!(nested.validate(4).is_err(), "raw nested batch is rejected");
        let flat = nested.normalized().into_owned();
        assert!(flat.validate(4).is_ok(), "normalized form is valid");
        let QueryPlan::Batch(slices) = flat else {
            panic!("stays a batch")
        };
        assert_eq!(slices.len(), 2);
        // Query 1 is claimed by the first knn slice; the duplicate is dropped.
        assert_eq!(slices[0].query_ids, vec![0, 1, 3]);
        assert_eq!(slices[1].query_ids, vec![2]);
    }

    #[test]
    fn normalized_keeps_cross_params_duplicates_for_validation() {
        // An id claimed under two *different* parameter sets is a plan bug,
        // not a merge artefact: normalization must not silently drop either
        // claim, so validate() still reports it.
        let conflicted = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![0]),
        ]);
        let normal = conflicted.normalized();
        assert_eq!(
            normal.validate(2).unwrap_err(),
            PlanError::DuplicateQueryId {
                slice: 1,
                query_id: 0
            }
        );
        // Same-params double claims are indistinguishable after merging and
        // collapse to one.
        let doubled = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0, 1]),
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![1, 2]),
        ]);
        let QueryPlan::Batch(slices) = doubled.normalized().into_owned() else {
            panic!("stays a batch")
        };
        assert_eq!(slices[0].query_ids, vec![0, 1, 2]);
    }

    #[test]
    fn normalized_distinguishes_kinds_with_equal_numbers() {
        // Knn{k, r} and Range{r, cap} with the same numbers are different
        // params and must not merge.
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 8), vec![0]),
            PlanSlice::new(QueryPlan::range(1.0, 8), vec![1]),
        ]);
        let out = batch.normalized();
        let QueryPlan::Batch(slices) = out.as_ref() else {
            panic!("stays a batch")
        };
        assert_eq!(slices.len(), 2);
    }

    #[test]
    fn range_unbounded_validates_like_range() {
        let plan = QueryPlan::range_unbounded(0.8);
        assert_eq!(
            plan,
            QueryPlan::Range {
                r: 0.8,
                cap: QueryPlan::UNBOUNDED_CAP
            }
        );
        assert!(plan.validate(100).is_ok());
        assert_eq!(plan.max_radius(), 0.8);
        assert_eq!(plan.kind_label(), "range");
        // The radius checks are exactly those of `range`.
        assert_eq!(
            QueryPlan::range_unbounded(0.0).validate(10).unwrap_err(),
            PlanError::InvalidRadius {
                field: "Range.r",
                value: 0.0
            }
        );
        assert!(matches!(
            QueryPlan::range_unbounded(f32::NAN).validate(10).unwrap_err(),
            PlanError::InvalidRadius { field: "Range.r", value } if value.is_nan()
        ));
        assert_eq!(
            QueryPlan::range_unbounded(-3.5).validate(10).unwrap_err(),
            PlanError::InvalidRadius {
                field: "Range.r",
                value: -3.5
            }
        );
    }

    #[test]
    fn resolve_caps_replaces_only_the_sentinel() {
        // The sentinel resolves to the point count…
        assert_eq!(
            QueryPlan::range_unbounded(0.8).resolve_caps(37).as_ref(),
            &QueryPlan::range(0.8, 37)
        );
        // …empty scenes keep the resolved plan valid…
        assert_eq!(
            QueryPlan::range_unbounded(0.8).resolve_caps(0).as_ref(),
            &QueryPlan::range(0.8, 1)
        );
        // …and everything else is passed through borrowed, bit-for-bit.
        for plan in [
            QueryPlan::knn(1.0, 8),
            QueryPlan::range(1.0, 8),
            QueryPlan::range(1.0, usize::MAX - 1),
        ] {
            assert!(matches!(plan.resolve_caps(37), Cow::Borrowed(_)));
        }
        // Batches resolve per slice, preserving non-sentinel slices.
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::range_unbounded(0.5), vec![0]),
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![1]),
        ]);
        let QueryPlan::Batch(slices) = batch.resolve_caps(9).into_owned() else {
            panic!("stays a batch");
        };
        assert_eq!(slices[0].plan, QueryPlan::range(0.5, 9));
        assert_eq!(slices[1].plan, QueryPlan::knn(1.0, 4));
        let sentinel_free = QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0])]);
        assert!(matches!(sentinel_free.resolve_caps(9), Cow::Borrowed(_)));
    }

    #[test]
    fn invalid_slice_plans_are_reported() {
        let bad = QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::range(1.0, 0), vec![0])]);
        assert_eq!(
            bad.validate(2).unwrap_err(),
            PlanError::ZeroNeighborCount { field: "Range.cap" }
        );
    }
}
