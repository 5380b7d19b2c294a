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
//! * [`KnnProgram`] — K-nearest-neighbor search: the IS shader offers each
//!   candidate within the radius to a per-ray [`KnnTopK`], which keeps the
//!   `K` smallest `(distance², id)` pairs, and never terminates early
//!   (every candidate inside the AABB must be examined).
//! * [`FirstHitProgram`] — the truncated launch used by query scheduling
//!   (Section 4, Listing 2): terminate on the very first intersected leaf
//!   AABB and record which primitive it was.
//!
//! The traversal hands each IS shader the ray's origin (the query) and the
//! hit primitive's point and id, so a candidate costs its distance test and
//! no lookup of the query or the point.

use rtnn_bvh::LeafRecord;
use rtnn_math::{Ray, Vec3};
use rtnn_optix::{IsVerdict, RayProgram};

/// Sentinel for "no first hit found".
pub const NO_HIT: u32 = u32::MAX;

/// The most entries a payload reserves when its ray starts: a range ray
/// with a smaller cap (or a KNN ray with a smaller top-k buffer) never
/// grows its list, and no ray reserves more up front, however large its
/// cap (an unbounded range's cap is the point count).
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
}

// ---------------------------------------------------------------------------
// Range search
// ---------------------------------------------------------------------------

/// Payload of the range-search program: the neighbor ids found so far.
pub type RangePayload = Vec<u32>;

/// Fixed-radius search shader set.
#[derive(Debug, Clone)]
pub struct RangeProgram<'a> {
    /// Query positions.
    pub queries: &'a [Vec3],
    /// Launch-index → query-id mapping.
    pub indexing: QueryIndexing<'a>,
    /// Search radius.
    pub radius: f32,
    /// Maximum neighbor count; the ray terminates when reached.
    pub k: usize,
    /// Whether the IS shader performs the sphere test. Partitions whose AABB
    /// is inscribed in the search sphere skip it (Section 5.1).
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
        origin: Vec3,
        prim: &LeafRecord,
        payload: &mut RangePayload,
    ) -> IsVerdict {
        if self.sphere_test && origin.distance_squared(prim.point) >= self.radius * self.radius {
            return IsVerdict::Ignore;
        }
        payload.push(prim.id);
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

/// The per-ray top-k of the KNN IS shader: the `k` smallest
/// `(distance², point id)` pairs offered, in that order, so a tie at the
/// k-th distance goes to the lower id whatever order the candidates come
/// in — the order `verify::brute_force_knn` sorts by.
///
/// Each candidate is one `u64` key, the distance's bits (order-preserving
/// for the non-negative distances offered) above the id. Keys collect in a
/// buffer of `2k`; a full buffer is compacted to its `k` smallest keys by
/// one selection, and the largest key kept then bounds every later offer,
/// so most candidates of a long ray cost one comparison. The default
/// top-k keeps nothing.
#[derive(Debug, Clone, Default)]
pub struct KnnTopK {
    keys: Vec<u64>,
    k: usize,
    /// Offers at or above this key cannot be among the `k` smallest.
    bound: u64,
}

impl KnnTopK {
    /// An empty top-`k`, its buffer reserved for `2k` keys up to a bound of
    /// 64.
    pub fn new(k: usize) -> Self {
        KnnTopK {
            keys: Vec::with_capacity(k.saturating_mul(2).min(PAYLOAD_RESERVE)),
            k,
            bound: if k == 0 { 0 } else { u64::MAX },
        }
    }

    /// Offer a candidate at squared distance `dist_sq` (non-negative).
    #[inline]
    pub fn offer(&mut self, dist_sq: f32, id: u32) {
        debug_assert!(dist_sq >= 0.0);
        let key = u64::from(dist_sq.to_bits()) << 32 | u64::from(id);
        if key < self.bound {
            self.keys.push(key);
            if self.keys.len() == self.k.saturating_mul(2) {
                self.compact();
            }
        }
    }

    /// Keep the `k` smallest keys and bound later offers by the largest.
    fn compact(&mut self) {
        let (_, &mut kth, _) = self.keys.select_nth_unstable(self.k - 1);
        self.keys.truncate(self.k);
        self.bound = kth;
    }

    /// Drain into the kept point ids, sorted by increasing distance and,
    /// among equal distances, by id.
    pub fn into_sorted_ids(mut self) -> Vec<u32> {
        self.keys.sort_unstable();
        self.keys.truncate(self.k);
        self.keys.into_iter().map(|key| key as u32).collect()
    }
}

/// KNN search shader set.
#[derive(Debug, Clone)]
pub struct KnnProgram<'a> {
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
    type Payload = KnnTopK;

    fn ray_gen(&self, launch_index: u32) -> Option<(Ray, KnnTopK)> {
        let q = self.queries[self.indexing.query_id(launch_index) as usize];
        Some((Ray::point_probe(q), KnnTopK::new(self.k)))
    }

    fn intersection(&self, origin: Vec3, prim: &LeafRecord, payload: &mut KnnTopK) -> IsVerdict {
        let d2 = origin.distance_squared(prim.point);
        if d2 >= self.radius * self.radius {
            return IsVerdict::Ignore;
        }
        payload.offer(d2, prim.id);
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
        _origin: Vec3,
        prim: &LeafRecord,
        payload: &mut FirstHitPayload,
    ) -> IsVerdict {
        // Any enclosing AABB is an equally good spatial hint (Section 4), so
        // no sphere test: accept the very first one and stop.
        *payload = prim.id;
        IsVerdict::AcceptAndTerminate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(id: u32, point: Vec3) -> LeafRecord {
        LeafRecord { point, id }
    }

    #[test]
    fn query_indexing_modes() {
        let ids = [5u32, 9, 2];
        let mapped = QueryIndexing::Mapped(&ids);
        assert_eq!(mapped.query_id(1), 9);
        let identity = QueryIndexing::Identity;
        assert_eq!(identity.query_id(7), 7);
    }

    #[test]
    fn knn_top_k_keeps_the_k_closest() {
        let mut top = KnnTopK::new(3);
        for (i, d) in [9.0f32, 1.0, 4.0, 16.0, 0.25, 2.25].iter().enumerate() {
            top.offer(*d, i as u32);
        }
        // Closest three distances are 0.25 (id 4), 1.0 (id 1), 2.25 (id 5).
        assert_eq!(top.into_sorted_ids(), vec![4, 1, 5]);
    }

    #[test]
    fn knn_top_k_handles_fewer_candidates_than_k() {
        let mut top = KnnTopK::new(10);
        top.offer(1.0, 7);
        top.offer(0.5, 3);
        assert_eq!(top.into_sorted_ids(), vec![3, 7]);
        // A top-0, the default one included, keeps nothing.
        for mut empty in [KnnTopK::new(0), KnnTopK::default()] {
            empty.offer(0.0, 1);
            assert!(empty.into_sorted_ids().is_empty());
        }
    }

    #[test]
    fn knn_ties_at_the_kth_distance_go_to_the_lower_id_in_any_offer_order() {
        // Five candidates at distance² 1 and two nearer ones: the top-4
        // keeps both nearer ones and the two lowest ids at distance² 1,
        // however the candidates are ordered, as a sort by (d², id) does.
        let candidates = [
            (1.0f32, 9u32),
            (1.0, 3),
            (0.5, 12),
            (1.0, 7),
            (1.0, 4),
            (0.25, 20),
            (1.0, 5),
        ];
        let want = vec![20, 12, 3, 4];
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            for i in (1..order.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut top = KnnTopK::new(4);
            for &i in &order {
                top.offer(candidates[i].0, candidates[i].1);
            }
            assert_eq!(top.into_sorted_ids(), want, "offer order {order:?}");
        }
        // Past several compactions of the 2k buffer, too: 100 equidistant
        // candidates offered from the highest id down.
        let mut top = KnnTopK::new(3);
        for id in (0..100).rev() {
            top.offer(2.0, id);
        }
        assert_eq!(top.into_sorted_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn range_program_sphere_test_filters_corners() {
        let queries = vec![Vec3::ZERO];
        // Inside the width-2 AABB of the query, outside its unit sphere.
        let corner = prim(0, Vec3::new(0.9, 0.9, 0.9));
        let with_test = RangeProgram {
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
            with_test.intersection(Vec3::ZERO, &corner, &mut payload),
            IsVerdict::Ignore
        );
        assert!(payload.is_empty());
        assert_ne!(
            without_test.intersection(Vec3::ZERO, &corner, &mut payload),
            IsVerdict::Ignore
        );
        assert_eq!(payload, vec![0]);
    }

    #[test]
    fn range_program_terminates_at_k() {
        let queries = vec![Vec3::ZERO];
        let prog = RangeProgram {
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: 1.0,
            k: 2,
            sphere_test: true,
        };
        let mut payload = Vec::new();
        assert_eq!(
            prog.intersection(Vec3::ZERO, &prim(0, Vec3::ZERO), &mut payload),
            IsVerdict::Accept
        );
        assert_eq!(
            prog.intersection(Vec3::ZERO, &prim(1, Vec3::new(0.1, 0.0, 0.0)), &mut payload),
            IsVerdict::AcceptAndTerminate
        );
        assert_eq!(payload, vec![0, 1]);
    }

    #[test]
    fn knn_program_rejects_points_outside_radius() {
        let queries = vec![Vec3::ZERO];
        let prog = KnnProgram {
            queries: &queries,
            indexing: QueryIndexing::Identity,
            radius: 1.0,
            k: 4,
        };
        let mut top = KnnTopK::new(4);
        let (far, near) = (
            prim(0, Vec3::new(5.0, 0.0, 0.0)),
            prim(1, Vec3::new(0.1, 0.0, 0.0)),
        );
        assert_eq!(
            prog.intersection(Vec3::ZERO, &far, &mut top),
            IsVerdict::Ignore
        );
        assert_eq!(
            prog.intersection(Vec3::ZERO, &near, &mut top),
            IsVerdict::Accept
        );
        assert_eq!(top.into_sorted_ids(), vec![1]);
    }

    #[test]
    fn ray_gen_reserves_the_buffer_up_to_a_bound() {
        // A range payload holds up to its cap, a KNN top-k up to twice its
        // k; either reserves that much, up to PAYLOAD_RESERVE.
        let queries = vec![Vec3::ZERO];
        for cap in [
            1usize,
            7,
            PAYLOAD_RESERVE / 2 - 1,
            PAYLOAD_RESERVE / 2,
            PAYLOAD_RESERVE - 1,
            PAYLOAD_RESERVE,
            1_000_000,
        ] {
            let range = RangeProgram {
                queries: &queries,
                indexing: QueryIndexing::Identity,
                radius: 1.0,
                k: cap,
                sphere_test: true,
            };
            let knn = KnnProgram {
                queries: &queries,
                indexing: QueryIndexing::Identity,
                radius: 1.0,
                k: cap,
            };
            let range_reserved = range.ray_gen(0).unwrap().1.capacity();
            let knn_reserved = knn.ray_gen(0).unwrap().1.keys.capacity();
            for (kind, holds, reserved) in [
                ("range", cap, range_reserved),
                ("knn", 2 * cap, knn_reserved),
            ] {
                if holds <= PAYLOAD_RESERVE {
                    assert_eq!(reserved, holds, "{kind} cap {cap}");
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
            prog.intersection(Vec3::ZERO, &prim(42, Vec3::ONE), &mut payload),
            IsVerdict::AcceptAndTerminate
        );
        assert_eq!(payload, 42);
    }
}
