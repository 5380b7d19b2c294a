//! The RTNN shader programs (the paper's Listing 1), expressed against the
//! `rtnn-optix` shader interface.
//!
//! Three programs:
//!
//! * [`RangeProgram`] — fixed-radius search: the IS shader performs the
//!   sphere test (optionally elided when the partition's AABB is inscribed
//!   in the search sphere, Section 5.1), appends the neighbor, and
//!   terminates the ray once `K` neighbors are recorded (the AH shader of
//!   Listing 1).
//! * [`KnnProgram`] — K-nearest-neighbor search: the IS shader maintains a
//!   bounded max-heap of the `K` closest points seen so far and never
//!   terminates early (every candidate inside the AABB must be examined).
//! * [`FirstHitProgram`] — the truncated launch used by query scheduling
//!   (Section 4, Listing 2): terminate on the very first intersected leaf
//!   AABB and record which primitive it was.

use rtnn_math::{Ray, Vec3};
use rtnn_optix::{IsVerdict, RayProgram};

/// Sentinel for "no first hit found".
pub const NO_HIT: u32 = u32::MAX;

/// The most entries a payload reserves when its ray starts: a ray with a
/// smaller cap never grows its list, and no ray reserves more up front,
/// however large its cap (an unbounded range's cap is the point count).
const PAYLOAD_RESERVE: usize = 64;

/// Maps launch indices to query ids: either the identity (launch `i` is
/// query `i`) or an explicit permutation / subset (scheduled order,
/// per-partition query lists).
#[derive(Debug, Clone, Copy)]
pub enum QueryIndexing<'a> {
    /// Launch index == query index.
    Identity,
    /// `ids[launch_index]` is the query index.
    Mapped(&'a [u32]),
}

impl<'a> QueryIndexing<'a> {
    /// Resolve a launch index to a query id.
    #[inline]
    pub fn query_id(&self, launch_index: u32) -> u32 {
        match self {
            QueryIndexing::Identity => launch_index,
            QueryIndexing::Mapped(ids) => ids[launch_index as usize],
        }
    }

    /// Number of launches needed to cover this indexing given `n_queries`.
    pub fn launch_count(&self, n_queries: usize) -> usize {
        match self {
            QueryIndexing::Identity => n_queries,
            QueryIndexing::Mapped(ids) => ids.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Range search
// ---------------------------------------------------------------------------

/// Payload of the range-search program: the neighbor ids found so far.
pub type RangePayload = Vec<u32>;

/// Fixed-radius search shader set.
#[derive(Debug, Clone)]
pub struct RangeProgram<'a> {
    /// Search points (AABB centres / sphere centres).
    pub points: &'a [Vec3],
    /// Query positions.
    pub queries: &'a [Vec3],
    /// Launch-index → query-id mapping.
    pub indexing: QueryIndexing<'a>,
    /// Search radius.
    pub radius: f32,
    /// Maximum neighbor count; the ray terminates when reached.
    pub k: usize,
    /// Whether the IS shader performs the sphere test. Partitions whose AABB
    /// is inscribed in the search sphere skip it (Section 5.1); the
    /// approximate mode of Section 8 skips it too (accepting a √3·r bound).
    pub sphere_test: bool,
}

impl<'a> RayProgram for RangeProgram<'a> {
    type Payload = RangePayload;

    fn ray_gen(&self, launch_index: u32) -> Option<(Ray, RangePayload)> {
        let q = self.queries[self.indexing.query_id(launch_index) as usize];
        let payload = Vec::with_capacity(self.k.min(PAYLOAD_RESERVE));
        Some((Ray::point_probe(q), payload))
    }

    fn intersection(
        &self,
        launch_index: u32,
        prim_id: u32,
        payload: &mut RangePayload,
    ) -> IsVerdict {
        if self.sphere_test {
            let q = self.queries[self.indexing.query_id(launch_index) as usize];
            let p = self.points[prim_id as usize];
            if q.distance_squared(p) >= self.radius * self.radius {
                return IsVerdict::Ignore;
            }
        }
        payload.push(prim_id);
        if payload.len() >= self.k {
            IsVerdict::AcceptAndTerminate
        } else {
            IsVerdict::Accept
        }
    }
}

// ---------------------------------------------------------------------------
// KNN search
// ---------------------------------------------------------------------------

/// A bounded max-heap of `(distance², point id)` pairs — the per-ray
/// priority queue of the KNN IS shader. Distances are stored as order-
/// preserving `u32` bit patterns (all distances are non-negative floats).
#[derive(Debug, Clone, Default)]
pub struct KnnHeap {
    entries: Vec<(u32, u32)>,
}

impl KnnHeap {
    /// An empty heap with room for `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        KnnHeap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of neighbors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no neighbors are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest distance² currently held (as an f32), if any.
    pub fn worst_distance_squared(&self) -> Option<f32> {
        self.entries.first().map(|&(bits, _)| f32::from_bits(bits))
    }

    /// Offer a candidate; keeps only the `k` closest.
    pub fn offer(&mut self, dist_sq: f32, id: u32, k: usize) {
        debug_assert!(dist_sq >= 0.0);
        let key = dist_sq.to_bits();
        if self.entries.len() < k {
            self.entries.push((key, id));
            self.sift_up(self.entries.len() - 1);
        } else if let Some(&(worst, _)) = self.entries.first() {
            if key < worst {
                self.entries[0] = (key, id);
                self.sift_down(0);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].0 > self.entries[parent].0 {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && self.entries[l].0 > self.entries[largest].0 {
                largest = l;
            }
            if r < n && self.entries[r].0 > self.entries[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }

    /// Drain into point ids sorted by increasing distance.
    pub fn into_sorted_ids(mut self) -> Vec<u32> {
        self.entries.sort_by_key(|&(d, id)| (d, id));
        self.entries.into_iter().map(|(_, id)| id).collect()
    }
}

/// KNN search shader set.
#[derive(Debug, Clone)]
pub struct KnnProgram<'a> {
    /// Search points.
    pub points: &'a [Vec3],
    /// Query positions.
    pub queries: &'a [Vec3],
    /// Launch-index → query-id mapping.
    pub indexing: QueryIndexing<'a>,
    /// Search radius bounding the returned neighbors.
    pub radius: f32,
    /// Number of nearest neighbors to keep.
    pub k: usize,
}

impl<'a> RayProgram for KnnProgram<'a> {
    type Payload = KnnHeap;

    fn ray_gen(&self, launch_index: u32) -> Option<(Ray, KnnHeap)> {
        let q = self.queries[self.indexing.query_id(launch_index) as usize];
        let heap = KnnHeap::with_capacity(self.k.min(PAYLOAD_RESERVE));
        Some((Ray::point_probe(q), heap))
    }

    fn intersection(&self, launch_index: u32, prim_id: u32, payload: &mut KnnHeap) -> IsVerdict {
        let q = self.queries[self.indexing.query_id(launch_index) as usize];
        let p = self.points[prim_id as usize];
        let d2 = q.distance_squared(p);
        if d2 >= self.radius * self.radius {
            return IsVerdict::Ignore;
        }
        payload.offer(d2, prim_id, self.k);
        IsVerdict::Accept
    }
}

// ---------------------------------------------------------------------------
// First-hit (scheduling) pass
// ---------------------------------------------------------------------------

/// Payload of the first-hit pass: the id of the first intersected primitive
/// AABB, or [`NO_HIT`].
pub type FirstHitPayload = u32;

/// The truncated launch of Listing 2: `traceRays(queries, 1, radius, bvh)`.
#[derive(Debug, Clone)]
pub struct FirstHitProgram<'a> {
    /// Query positions.
    pub queries: &'a [Vec3],
    /// Launch-index → query-id mapping (identity for a full-query-set pass;
    /// a batch's shared scheduling pass maps onto the covered subset).
    pub indexing: QueryIndexing<'a>,
}

impl<'a> RayProgram for FirstHitProgram<'a> {
    type Payload = FirstHitPayload;

    fn ray_gen(&self, launch_index: u32) -> Option<(Ray, FirstHitPayload)> {
        let q = self.queries[self.indexing.query_id(launch_index) as usize];
        Some((Ray::point_probe(q), NO_HIT))
    }

    fn intersection(
        &self,
        _launch_index: u32,
        prim_id: u32,
        payload: &mut FirstHitPayload,
    ) -> IsVerdict {
        // Any enclosing AABB is an equally good spatial hint (Section 4), so
        // no sphere test: accept the very first one and stop.
        *payload = prim_id;
        IsVerdict::AcceptAndTerminate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_indexing_modes() {
        let ids = [5u32, 9, 2];
        let mapped = QueryIndexing::Mapped(&ids);
        assert_eq!(mapped.query_id(1), 9);
        assert_eq!(mapped.launch_count(100), 3);
        let identity = QueryIndexing::Identity;
        assert_eq!(identity.query_id(7), 7);
        assert_eq!(identity.launch_count(100), 100);
    }

    #[test]
    fn knn_heap_keeps_the_k_closest() {
        let mut heap = KnnHeap::default();
        let k = 3;
        for (i, d) in [9.0f32, 1.0, 4.0, 16.0, 0.25, 2.25].iter().enumerate() {
            heap.offer(*d, i as u32, k);
        }
        assert_eq!(heap.len(), 3);
        // Closest three distances are 0.25 (id 4), 1.0 (id 1), 2.25 (id 5).
        assert_eq!(heap.into_sorted_ids(), vec![4, 1, 5]);
    }

    #[test]
    fn knn_heap_handles_fewer_candidates_than_k() {
        let mut heap = KnnHeap::default();
        heap.offer(1.0, 7, 10);
        heap.offer(0.5, 3, 10);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
        assert_eq!(heap.worst_distance_squared(), Some(1.0));
        assert_eq!(heap.into_sorted_ids(), vec![3, 7]);
    }

    #[test]
    fn knn_heap_ties_are_deterministic() {
        let mut heap = KnnHeap::default();
        heap.offer(1.0, 9, 2);
        heap.offer(1.0, 3, 2);
        heap.offer(1.0, 7, 2);
        let ids = heap.into_sorted_ids();
        assert_eq!(ids.len(), 2);
        // Equal keys sort by id, and the replacement policy only replaces on
        // strictly smaller distances, so the first two offered survive.
        assert_eq!(ids, vec![3, 9]);
    }

    #[test]
    fn range_program_sphere_test_filters_corners() {
        let points = vec![Vec3::ZERO];
        let queries = vec![Vec3::new(0.9, 0.9, 0.9)]; // inside AABB(width 2), outside unit sphere
        let with_test = RangeProgram {
            points: &points,
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: 1.0,
            k: 8,
            sphere_test: true,
        };
        let without_test = RangeProgram {
            sphere_test: false,
            ..with_test.clone()
        };
        let mut payload = Vec::new();
        assert_eq!(
            with_test.intersection(0, 0, &mut payload),
            IsVerdict::Ignore
        );
        assert!(payload.is_empty());
        assert_ne!(
            without_test.intersection(0, 0, &mut payload),
            IsVerdict::Ignore
        );
        assert_eq!(payload, vec![0]);
    }

    #[test]
    fn range_program_terminates_at_k() {
        let points = vec![
            Vec3::ZERO,
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.2, 0.0, 0.0),
        ];
        let queries = vec![Vec3::ZERO];
        let prog = RangeProgram {
            points: &points,
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: 1.0,
            k: 2,
            sphere_test: true,
        };
        let mut payload = Vec::new();
        assert_eq!(prog.intersection(0, 0, &mut payload), IsVerdict::Accept);
        assert_eq!(
            prog.intersection(0, 1, &mut payload),
            IsVerdict::AcceptAndTerminate
        );
        assert_eq!(payload.len(), 2);
    }

    #[test]
    fn knn_program_rejects_points_outside_radius() {
        let points = vec![Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.1, 0.0, 0.0)];
        let queries = vec![Vec3::ZERO];
        let prog = KnnProgram {
            points: &points,
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: 1.0,
            k: 4,
        };
        let mut heap = KnnHeap::default();
        assert_eq!(prog.intersection(0, 0, &mut heap), IsVerdict::Ignore);
        assert_eq!(prog.intersection(0, 1, &mut heap), IsVerdict::Accept);
        assert_eq!(heap.into_sorted_ids(), vec![1]);
    }

    #[test]
    fn ray_gen_reserves_the_cap_up_to_a_bound() {
        let points = vec![Vec3::ZERO; 3];
        let queries = vec![Vec3::ZERO];
        for cap in [
            1usize,
            7,
            32,
            PAYLOAD_RESERVE - 1,
            PAYLOAD_RESERVE,
            1_000_000,
        ] {
            let range = RangeProgram {
                points: &points,
                queries: &queries,
                indexing: QueryIndexing::Identity,
                radius: 1.0,
                k: cap,
                sphere_test: true,
            };
            let knn = KnnProgram {
                points: &points,
                queries: &queries,
                indexing: QueryIndexing::Identity,
                radius: 1.0,
                k: cap,
            };
            let range_reserved = range.ray_gen(0).unwrap().1.capacity();
            let knn_reserved = knn.ray_gen(0).unwrap().1.entries.capacity();
            for (kind, reserved) in [("range", range_reserved), ("knn", knn_reserved)] {
                if cap < PAYLOAD_RESERVE {
                    assert_eq!(reserved, cap, "{kind} cap {cap}");
                } else {
                    assert!(reserved <= PAYLOAD_RESERVE, "{kind} cap {cap}: {reserved}");
                    assert!(reserved > 0, "{kind} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn first_hit_program_terminates_immediately() {
        let queries = vec![Vec3::ZERO];
        let prog = FirstHitProgram {
            queries: &queries,
            indexing: QueryIndexing::Identity,
        };
        let (_, initial) = prog.ray_gen(0).unwrap();
        assert_eq!(initial, NO_HIT);
        let mut payload = initial;
        assert_eq!(
            prog.intersection(0, 42, &mut payload),
            IsVerdict::AcceptAndTerminate
        );
        assert_eq!(payload, 42);
    }
}
