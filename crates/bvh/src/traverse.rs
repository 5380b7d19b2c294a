//! Stack-based BVH traversal with OptiX intersection semantics.
//!
//! Traversal visits every node whose AABB intersects the ray (Conditions 1
//! and 2 of the paper); at leaves, each primitive cube is tested against
//! the ray and, on a hit, the caller-supplied visitor — the IS shader in
//! OptiX terms — is invoked with the slot's leaf record. The visitor can
//! terminate the ray (the AH shader's `optixTerminateRay`, used by RTNN
//! when `K` neighbors have been found).
//!
//! Two entry points:
//!
//! * [`Bvh::traverse`] — counts work (node visits, primitive tests) without
//!   recording which nodes were touched, and hands the visitor the
//!   primitive id; used by correctness tests and CPU oracles.
//! * [`Bvh::traverse_marked`] — hands the visitor the whole leaf record,
//!   point and id, and additionally marks every node slot and primitive
//!   slot the ray reads in a [`VisitMarks`] set. Marks accumulate over
//!   calls until [`VisitMarks::clear`], so traversing each ray of a warp
//!   into one set leaves the warp's footprint: the distinct slots its rays
//!   read, counted once each and walked in ascending order. The GPU
//!   simulator charges RT-core tests and memory traffic for that footprint.
//!   The set also holds the traversal stack, so a thread that reuses one
//!   set for every ray allocates nothing per ray.
//!
//! A ray reads two arrays: 32-byte nodes, and at a leaf its adjacent
//! 16-byte records `records[start..start + count]`. Each slot's cube is
//! derived from its record and the tree's half width, so a hit costs no
//! further read: the visitor gets the point it needs for the IS shader's
//! distance test with the id.

use crate::node::{Bvh, LeafRecord, NodeKind};
use rtnn_math::Ray;

/// Visitor verdict after a primitive hit (the IS/AH shader return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalControl {
    /// Keep traversing.
    Continue,
    /// Terminate this ray immediately (AH shader termination).
    Terminate,
}

/// Per-ray work counters produced by a traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// BVH nodes whose AABB was tested against the ray (internal + leaf).
    pub nodes_visited: u64,
    /// Leaf nodes entered.
    pub leaves_visited: u64,
    /// Primitive AABBs tested against the ray inside leaves.
    pub prim_tests: u64,
    /// Primitive AABB tests that hit, i.e. IS shader invocations.
    pub is_calls: u64,
    /// Whether the visitor terminated the ray early.
    pub terminated: bool,
}

impl TraversalStats {
    /// Accumulate another ray's stats into this one.
    pub fn merge(&mut self, other: &TraversalStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.prim_tests += other.prim_tests;
        self.is_calls += other.is_calls;
        self.terminated |= other.terminated;
    }
}

/// The distinct node and primitive slots a group of rays read, plus the
/// traversal stack the rays reuse.
///
/// Holds one bit per node slot and one bit per primitive slot. Beside each
/// bitset it keeps the indices of the bitset words that hold a set bit,
/// each listed once. A mark only sets its bit (and lists its word if the
/// word was empty); the counts popcount the listed words when asked, so a
/// caller that reads them once per warp pays per listed word, not per
/// mark. [`VisitMarks::clear`] zeroes the listed words instead of the
/// whole bitset, and [`ascending`](VisitMarks::ascending) sorts the listed
/// words — on the order of a hundred for a warp that reads well over a
/// thousand slots — and walks their set bits, so all three cost the warp's
/// footprint, not the size of the BVH, and no per-slot list is kept or
/// sorted.
///
/// Memory: the bitsets grow to fit the largest BVH traversed with these
/// marks and never shrink, one bit per node slot and per primitive slot,
/// so about 1.7 bits per point for this crate's LBVH (≈ 0.71 nodes per
/// point). The word lists hold at most one 32-bit index per 64 slots, so
/// at most another 0.9 bits per point. The stack holds one 32-bit node
/// index per pending subtree, bounded by the tree depth. Slots are
/// indices, not identities: clear the marks before using them on a
/// different BVH.
#[derive(Debug, Clone, Default)]
pub struct VisitMarks {
    nodes: SlotSet,
    prims: SlotSet,
    /// The stack of [`Bvh::traverse_marked`], emptied at each ray's start.
    stack: Vec<u32>,
}

impl VisitMarks {
    /// Number of distinct node slots marked since the last clear.
    pub fn node_count(&self) -> usize {
        self.nodes.count()
    }

    /// Number of distinct primitive slots marked since the last clear.
    pub fn prim_count(&self) -> usize {
        self.prims.count()
    }

    /// The slots marked since the last clear, each kind in ascending order
    /// and each slot once: indices into `Bvh::nodes`, then leaf slots
    /// (indices into `Bvh::records`).
    pub fn ascending(&mut self) -> (AscendingSlots<'_>, AscendingSlots<'_>) {
        (self.nodes.ascending(), self.prims.ascending())
    }

    /// Unmark every slot, keeping the allocations.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.prims.clear();
    }
}

/// A set of `u32` slots: one bit per slot, plus the list of the bitset
/// words that hold a set bit. Marking is O(1) and allocates nothing once
/// the word list has its capacity; counting, visiting in ascending order
/// and clearing touch only the listed words (at most one per 64 slots).
/// [`VisitMarks`] keeps one per slot kind; a streaming index keeps its
/// moved point handles in one.
#[derive(Debug, Clone, Default)]
pub struct SlotSet {
    bits: Vec<u64>,
    /// Indices of the words of `bits` that are non-zero, each once.
    words: Vec<u32>,
}

impl SlotSet {
    /// Grow the bitset to cover `slots` slots.
    pub fn fit(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Mark `slot`, listing its word if this is the word's first mark.
    /// Panics if `slot` is past the slots the set was [fit](Self::fit) to.
    #[inline]
    pub fn mark(&mut self, slot: u32) {
        let w = slot as usize / 64;
        let word = &mut self.bits[w];
        if *word == 0 {
            self.words.push(w as u32);
        }
        *word |= 1u64 << (slot % 64);
    }

    /// Number of marked slots: the set bits of the listed words.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|&w| self.bits[w as usize].count_ones() as usize)
            .sum()
    }

    /// True if no slot is marked.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Unmark every slot, keeping the allocations.
    pub fn clear(&mut self) {
        // Only listed words have a bit set.
        for &w in &self.words {
            self.bits[w as usize] = 0;
        }
        self.words.clear();
    }

    /// The marked slots in ascending order, each once; sorts the listed
    /// words in place.
    pub fn ascending(&mut self) -> AscendingSlots<'_> {
        self.words.sort_unstable();
        AscendingSlots {
            bits: &self.bits,
            words: self.words.iter(),
            word: 0,
            base: 0,
        }
    }
}

/// The marked slots of one [`SlotSet`], in ascending order (see
/// [`SlotSet::ascending`] and [`VisitMarks::ascending`]).
#[derive(Debug, Clone)]
pub struct AscendingSlots<'a> {
    bits: &'a [u64],
    words: std::slice::Iter<'a, u32>,
    /// The unvisited set bits of the current word.
    word: u64,
    /// The slot of the current word's bit 0.
    base: u32,
}

impl<'a> AscendingSlots<'a> {
    /// The slots not yet yielded, one bitset word at a time and in
    /// ascending order: `(w, bits)` where bit `b` of `bits` marks slot
    /// `64·w + b`. A caller that maps runs of slots to one value (say, 32-
    /// byte records to a cache line) can fold a word at once instead of
    /// walking its bits.
    pub fn words(self) -> impl Iterator<Item = (u32, u64)> + 'a {
        let AscendingSlots {
            bits,
            words,
            word,
            base,
        } = self;
        (word != 0)
            .then_some((base / 64, word))
            .into_iter()
            .chain(words.map(move |&w| (w, bits[w as usize])))
    }
}

impl Iterator for AscendingSlots<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            let &w = self.words.next()?;
            self.word = self.bits[w as usize];
            self.base = w * 64;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl Bvh {
    /// Traverse the BVH with `ray`, invoking `on_hit(prim_id)` for every
    /// primitive whose cube the ray intersects. Returns work counters.
    pub fn traverse<F>(&self, ray: &Ray, mut on_hit: F) -> TraversalStats
    where
        F: FnMut(u32) -> TraversalControl,
    {
        // Depth is O(log n) for this crate's builder; the stack grows past
        // the reservation for skewed trees.
        let mut stack = Vec::with_capacity(64);
        self.traverse_impl(ray, &mut |record| on_hit(record.id), &mut stack, None)
    }

    /// As [`Bvh::traverse`], but invoking `on_hit` with the hit slot's leaf
    /// record, and additionally marking every node and primitive slot the
    /// ray reads in `marks`. Earlier marks are kept, so slots this ray
    /// shares with rays traversed before it are counted once. The
    /// traversal runs on the stack `marks` keeps, which allocates only
    /// when a ray goes deeper than every ray before it.
    pub fn traverse_marked<F>(
        &self,
        ray: &Ray,
        marks: &mut VisitMarks,
        mut on_hit: F,
    ) -> TraversalStats
    where
        F: FnMut(&LeafRecord) -> TraversalControl,
    {
        let VisitMarks {
            nodes,
            prims,
            stack,
        } = marks;
        nodes.fit(self.nodes.len());
        prims.fit(self.records.len());
        self.traverse_impl(ray, &mut on_hit, stack, Some((nodes, prims)))
    }

    fn traverse_impl<F>(
        &self,
        ray: &Ray,
        on_hit: &mut F,
        stack: &mut Vec<u32>,
        mut marks: Option<(&mut SlotSet, &mut SlotSet)>,
    ) -> TraversalStats
    where
        F: FnMut(&LeafRecord) -> TraversalControl,
    {
        let mut stats = TraversalStats::default();
        if self.nodes.is_empty() {
            return stats;
        }
        // A terminated or unwound ray may have left entries behind.
        stack.clear();
        stack.push(0);
        'rays: while let Some(node_idx) = stack.pop() {
            let node = &self.nodes[node_idx as usize];
            stats.nodes_visited += 1;
            if let Some((nodes, _)) = marks.as_mut() {
                nodes.mark(node_idx);
            }
            if !node.aabb.intersects_ray(ray) {
                continue;
            }
            match node.kind() {
                NodeKind::Internal { left, right } => {
                    stack.push(right);
                    stack.push(left);
                }
                NodeKind::Leaf { start, count } => {
                    stats.leaves_visited += 1;
                    let slots = start as usize..(start + count) as usize;
                    for (slot, record) in slots.clone().zip(&self.records[slots]) {
                        stats.prim_tests += 1;
                        if let Some((_, prims)) = marks.as_mut() {
                            prims.mark(slot as u32);
                        }
                        if record.cube(self.half_width).intersects_ray(ray) {
                            stats.is_calls += 1;
                            if on_hit(record) == TraversalControl::Terminate {
                                stats.terminated = true;
                                break 'rays;
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    /// Collect every primitive id whose cube contains `query` (i.e. would
    /// trigger the IS shader for a point-probe ray from `query`). Reference
    /// helper used by tests and by the first-hit scheduling pass oracle.
    pub fn primitives_containing(&self, query: rtnn_math::Vec3) -> Vec<u32> {
        let mut out = Vec::new();
        self.traverse(&Ray::point_probe(query), |pid| {
            out.push(pid);
            TraversalControl::Continue
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_point_bvh, BuildParams};
    use rtnn_math::{Aabb, Vec3};

    fn sample_points() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..5 {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    #[test]
    fn empty_bvh_traversal_is_a_noop() {
        let bvh = Bvh::empty();
        let stats = bvh.traverse(&Ray::point_probe(Vec3::ZERO), |_| {
            TraversalControl::Continue
        });
        assert_eq!(stats, TraversalStats::default());
    }

    #[test]
    fn traversal_finds_exactly_the_enclosing_aabbs() {
        let points = sample_points();
        let radius = 0.9;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        let query = Vec3::new(1.2, 2.1, 3.3);
        let mut hits = bvh.primitives_containing(query);
        hits.sort();
        // Brute-force expectation: points whose width-2r cube contains query.
        let mut expected: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &p)| Aabb::cube(p, 2.0 * radius).contains_point(query))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort();
        assert_eq!(hits, expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn early_termination_stops_the_ray() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 2.0, BuildParams::default());
        let query = Vec3::new(2.0, 2.0, 2.0);
        let mut count = 0;
        let stats = bvh.traverse(&Ray::point_probe(query), |_| {
            count += 1;
            if count == 3 {
                TraversalControl::Terminate
            } else {
                TraversalControl::Continue
            }
        });
        assert_eq!(count, 3);
        assert!(stats.terminated);
        assert_eq!(stats.is_calls, 3);
        // Without termination there are far more than 3 enclosing AABBs.
        assert!(bvh.primitives_containing(query).len() > 3);
    }

    #[test]
    fn stats_relationships_hold() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let stats = bvh.traverse(&Ray::point_probe(Vec3::new(2.5, 2.5, 2.5)), |_| {
            TraversalControl::Continue
        });
        assert!(stats.nodes_visited >= stats.leaves_visited);
        assert!(stats.prim_tests >= stats.is_calls);
        assert!(!stats.terminated);
    }

    #[test]
    fn marks_count_each_slot_a_ray_reads_once() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let mut marks = VisitMarks::default();
        let stats = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(2.5, 2.5, 2.5)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert_eq!(marks.node_count() as u64, stats.nodes_visited);
        assert_eq!(marks.prim_count() as u64, stats.prim_tests);
        // The walks list every counted slot once, in ascending order.
        let (nodes, prims) = marks.ascending();
        let (nodes, prims): (Vec<u32>, Vec<u32>) = (nodes.collect(), prims.collect());
        assert_eq!(nodes.len(), marks.node_count());
        assert_eq!(prims.len(), marks.prim_count());
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(prims.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(nodes[0], 0, "traversal reads the root");
        // A second ray adds only the slots the first did not read.
        let first = marks.node_count();
        let stats2 = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(2.6, 2.5, 2.5)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert!(marks.node_count() < first + stats2.nodes_visited as usize);
        assert_eq!(marks.ascending().0.count(), marks.node_count());
        // Clearing forgets every mark.
        marks.clear();
        assert_eq!((marks.node_count(), marks.prim_count()), (0, 0));
        let (nodes, prims) = marks.ascending();
        assert_eq!(nodes.count() + prims.count(), 0);
        let stats3 = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(-10.0, 0.0, 0.0)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert_eq!(marks.ascending().0.collect::<Vec<_>>(), [0]);
        assert_eq!(stats3.nodes_visited, 1);
    }

    #[test]
    fn words_resume_where_the_slot_walk_stopped() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let mut marks = VisitMarks::default();
        for &q in &points {
            bvh.traverse_marked(&Ray::point_probe(q), &mut marks, |_| {
                TraversalControl::Continue
            });
        }
        // Primitive slots: every one of the 125, so two bitset words.
        let all: Vec<u32> = marks.ascending().1.collect();
        assert_eq!(all.len(), points.len());
        for taken in [0, 1, 5, 63, 64, 100, all.len()] {
            let mut slots = marks.ascending().1;
            slots.by_ref().take(taken).for_each(drop);
            let rest: Vec<u32> = slots
                .words()
                .flat_map(|(w, bits)| {
                    (0..64)
                        .filter(move |b| bits >> b & 1 == 1)
                        .map(move |b| w * 64 + b)
                })
                .collect();
            assert_eq!(rest, all[taken..], "after {taken} slots");
        }
    }

    /// The footprint of one warp of point probes at `queries`.
    fn footprint(bvh: &Bvh, queries: &[Vec3], marks: &mut VisitMarks) -> (Vec<u32>, Vec<u32>) {
        marks.clear();
        for &q in queries {
            bvh.traverse_marked(&Ray::point_probe(q), marks, |_| TraversalControl::Continue);
        }
        let (nodes, prims) = marks.ascending();
        (nodes.collect(), prims.collect())
    }

    #[test]
    fn marks_reused_across_bvh_sizes_match_fresh_marks() {
        let grid = |n: usize| -> Vec<Vec3> {
            (0..n * n * n)
                .map(|i| Vec3::new((i % n) as f32, (i / n % n) as f32, (i / (n * n)) as f32))
                .collect()
        };
        let large = build_point_bvh(&grid(16), 1.5, BuildParams::default());
        let small = build_point_bvh(&grid(3), 1.5, BuildParams::default());
        // Probes spread over the large cloud, so its footprint spans many
        // bitset words past the small BVH's.
        let queries: Vec<Vec3> = (0..32)
            .map(|i| Vec3::splat(0.5 * i as f32).min(Vec3::splat(15.0)))
            .collect();
        let mut reused = VisitMarks::default();
        for (name, bvh) in [
            ("large", &large),
            ("small", &small),
            ("large again", &large),
        ] {
            let got = footprint(bvh, &queries, &mut reused);
            let want = footprint(bvh, &queries, &mut VisitMarks::default());
            assert_eq!(got, want, "{name}");
            assert!(!got.1.is_empty(), "{name}: the probes hit primitives");
        }
    }

    #[test]
    fn far_away_query_visits_only_the_root() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.5, BuildParams::default());
        let stats = bvh.traverse(&Ray::point_probe(Vec3::new(1000.0, 1000.0, 1000.0)), |_| {
            TraversalControl::Continue
        });
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.is_calls, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TraversalStats {
            nodes_visited: 1,
            leaves_visited: 1,
            prim_tests: 2,
            is_calls: 1,
            terminated: false,
        };
        let b = TraversalStats {
            nodes_visited: 3,
            leaves_visited: 1,
            prim_tests: 4,
            is_calls: 2,
            terminated: true,
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 4);
        assert_eq!(a.prim_tests, 6);
        assert_eq!(a.is_calls, 3);
        assert!(a.terminated);
    }

    #[test]
    fn coherent_queries_share_traversal_paths() {
        // Two nearby queries touch mostly the same nodes; two distant queries
        // do not. This is the microscopic fact behind Observation 1.
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.9, BuildParams::default());
        let trace_of = |q: Vec3| {
            let mut marks = VisitMarks::default();
            bvh.traverse_marked(&Ray::point_probe(q), &mut marks, |_| {
                TraversalControl::Continue
            });
            marks
                .ascending()
                .0
                .collect::<std::collections::HashSet<_>>()
        };
        let a = trace_of(Vec3::new(1.0, 1.0, 1.0));
        let b = trace_of(Vec3::new(1.1, 1.05, 0.95));
        let c = trace_of(Vec3::new(3.9, 3.9, 3.9));
        let overlap = |x: &std::collections::HashSet<u32>, y: &std::collections::HashSet<u32>| {
            x.intersection(y).count() as f64 / x.union(y).count().max(1) as f64
        };
        assert!(overlap(&a, &b) > overlap(&a, &c));
    }
}
