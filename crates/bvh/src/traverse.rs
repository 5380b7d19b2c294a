//! Stack-based BVH traversal with OptiX intersection semantics.
//!
//! Traversal visits every node whose AABB intersects the ray (Conditions 1
//! and 2 of the paper); at leaves, each primitive AABB is tested against the
//! ray and, on a hit, the caller-supplied visitor — the IS shader in OptiX
//! terms — is invoked with the primitive id. The visitor can terminate the
//! ray (the AH shader's `optixTerminateRay`, used by RTNN when `K`
//! neighbors have been found).
//!
//! Two entry points:
//!
//! * [`Bvh::traverse`] — counts work (node visits, primitive tests) without
//!   recording which nodes were touched; used by correctness tests and CPU
//!   oracles.
//! * [`Bvh::traverse_marked`] — additionally marks every node slot and
//!   primitive slot the ray reads in a [`VisitMarks`] set. Marks accumulate
//!   over calls until [`VisitMarks::clear`], so traversing each ray of a
//!   warp into one set leaves the warp's footprint: the distinct slots its
//!   rays read, each listed once, in first-visit order. The GPU simulator
//!   charges RT-core tests and memory traffic for that footprint.

use crate::node::{Bvh, NodeKind};
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

/// The distinct node and primitive slots a group of rays read.
///
/// Holds one bit per node slot and one bit per primitive slot, plus the
/// marked slots of each kind in first-visit order. A bit is set exactly
/// when its slot is on a list, so [`VisitMarks::clear`] walks the lists
/// instead of the bitsets and costs the number of distinct slots, not the
/// size of the BVH.
///
/// The bitsets grow to fit the largest BVH traversed with these marks and
/// never shrink: one bit per node slot and per primitive slot, so about
/// 1.7 bits per point for this crate's LBVH (≈ 0.71 nodes per point), plus
/// the lists' capacity. Slots are indices, not identities: clear the marks
/// before using them on a different BVH.
#[derive(Debug, Clone, Default)]
pub struct VisitMarks {
    node_bits: Vec<u64>,
    prim_bits: Vec<u64>,
    nodes: Vec<u32>,
    prims: Vec<u32>,
}

impl VisitMarks {
    /// Distinct indices into `Bvh::nodes` marked since the last clear, in
    /// first-visit order.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Distinct indices into `Bvh::prim_indices` (leaf slots) marked since
    /// the last clear, in first-visit order.
    pub fn prims(&self) -> &[u32] {
        &self.prims
    }

    /// Unmark every slot, keeping the allocations.
    pub fn clear(&mut self) {
        // Every set bit belongs to a listed slot, so zeroing the words the
        // lists point at clears the bitsets.
        for &n in &self.nodes {
            self.node_bits[n as usize / 64] = 0;
        }
        for &p in &self.prims {
            self.prim_bits[p as usize / 64] = 0;
        }
        self.nodes.clear();
        self.prims.clear();
    }

    /// Grow the bitsets to cover every slot of `bvh`.
    fn fit(&mut self, bvh: &Bvh) {
        let words = |slots: usize| slots.div_ceil(64);
        if self.node_bits.len() < words(bvh.nodes.len()) {
            self.node_bits.resize(words(bvh.nodes.len()), 0);
        }
        if self.prim_bits.len() < words(bvh.prim_indices.len()) {
            self.prim_bits.resize(words(bvh.prim_indices.len()), 0);
        }
    }

    /// Mark `slot` in `bits`, listing it if this is its first visit.
    #[inline]
    fn mark(bits: &mut [u64], list: &mut Vec<u32>, slot: u32) {
        let word = &mut bits[slot as usize / 64];
        let bit = 1u64 << (slot % 64);
        if *word & bit == 0 {
            *word |= bit;
            list.push(slot);
        }
    }
}

impl Bvh {
    /// Traverse the BVH with `ray`, invoking `on_hit(prim_id)` for every
    /// primitive whose AABB the ray intersects. Returns work counters.
    pub fn traverse<F>(&self, ray: &Ray, mut on_hit: F) -> TraversalStats
    where
        F: FnMut(u32) -> TraversalControl,
    {
        self.traverse_impl(ray, &mut on_hit, None)
    }

    /// As [`Bvh::traverse`], additionally marking every node and primitive
    /// slot the ray reads in `marks`. Earlier marks are kept, so slots this
    /// ray shares with rays traversed before it are listed once.
    pub fn traverse_marked<F>(
        &self,
        ray: &Ray,
        marks: &mut VisitMarks,
        mut on_hit: F,
    ) -> TraversalStats
    where
        F: FnMut(u32) -> TraversalControl,
    {
        marks.fit(self);
        self.traverse_impl(ray, &mut on_hit, Some(marks))
    }

    fn traverse_impl<F>(
        &self,
        ray: &Ray,
        on_hit: &mut F,
        mut marks: Option<&mut VisitMarks>,
    ) -> TraversalStats
    where
        F: FnMut(u32) -> TraversalControl,
    {
        let mut stats = TraversalStats::default();
        if self.nodes.is_empty() {
            return stats;
        }
        // Explicit stack; depth is bounded by tree depth which is O(log n)
        // for our builders, but size generously to cope with skewed trees.
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        stack.push(0);
        'rays: while let Some(node_idx) = stack.pop() {
            let node = &self.nodes[node_idx as usize];
            stats.nodes_visited += 1;
            if let Some(m) = marks.as_deref_mut() {
                VisitMarks::mark(&mut m.node_bits, &mut m.nodes, node_idx);
            }
            if !node.aabb.intersects_ray(ray) {
                continue;
            }
            match node.kind {
                NodeKind::Internal { left, right } => {
                    stack.push(right);
                    stack.push(left);
                }
                NodeKind::Leaf { start, count } => {
                    stats.leaves_visited += 1;
                    for slot in start..start + count {
                        let prim_id = self.prim_indices[slot as usize];
                        stats.prim_tests += 1;
                        if let Some(m) = marks.as_deref_mut() {
                            VisitMarks::mark(&mut m.prim_bits, &mut m.prims, slot);
                        }
                        if self.prim_aabbs[prim_id as usize].intersects_ray(ray) {
                            stats.is_calls += 1;
                            if on_hit(prim_id) == TraversalControl::Terminate {
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

    /// Collect every primitive id whose AABB contains `query` (i.e. would
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
    fn marks_list_each_slot_a_ray_reads_once() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let mut marks = VisitMarks::default();
        let stats = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(2.5, 2.5, 2.5)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert_eq!(marks.nodes().len() as u64, stats.nodes_visited);
        assert_eq!(marks.prims().len() as u64, stats.prim_tests);
        assert_eq!(marks.nodes()[0], 0, "traversal starts at the root");
        // A second ray adds only the slots the first did not read.
        let first = marks.nodes().len();
        let stats2 = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(2.6, 2.5, 2.5)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert!(marks.nodes().len() < first + stats2.nodes_visited as usize);
        // Clearing forgets every mark.
        marks.clear();
        assert!(marks.nodes().is_empty() && marks.prims().is_empty());
        let stats3 = bvh.traverse_marked(
            &Ray::point_probe(Vec3::new(-10.0, 0.0, 0.0)),
            &mut marks,
            |_| TraversalControl::Continue,
        );
        assert_eq!(marks.nodes(), [0]);
        assert_eq!(stats3.nodes_visited, 1);
    }

    /// The footprint of one warp of point probes at `queries`.
    fn footprint(bvh: &Bvh, queries: &[Vec3], marks: &mut VisitMarks) -> (Vec<u32>, Vec<u32>) {
        marks.clear();
        for &q in queries {
            bvh.traverse_marked(&Ray::point_probe(q), marks, |_| TraversalControl::Continue);
        }
        (marks.nodes().to_vec(), marks.prims().to_vec())
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
                .nodes()
                .iter()
                .copied()
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
