//! BVH node layout and the [`Bvh`] container.
//!
//! Every BVH is a point BVH: primitive `i` is the cube of half width
//! [`Bvh::half_width`] centred at point `i`. Traversal reads two arrays:
//! 32-byte [`BvhNode`]s in preorder (node 0 is the root), and 16-byte
//! [`LeafRecord`]s `{point, id}` in leaf-slot order, so a leaf's records
//! sit next to each other. A slot's box is not stored but derived
//! ([`LeafRecord::cube`]). Both types are aligned to their size, so none
//! spans two cache lines. The GPU simulator derives memory addresses from
//! node and slot indices (at its own record sizes, not these), so two rays
//! that touch the same node or slot touch the same simulated cache lines.

use rtnn_math::{Aabb, Vec3};

/// What a node is: an internal node with two children, or a leaf owning a
/// slice of primitives. The decoded view of a [`BvhNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Internal node; fields are indices into [`Bvh::nodes`].
    Internal { left: u32, right: u32 },
    /// Leaf node; `start..start + count` are its leaf slots, indices into
    /// [`Bvh::records`].
    Leaf { start: u32, count: u32 },
}

/// The bit of [`BvhNode`]'s second word that marks a leaf.
const LEAF_FLAG: u32 = 1 << 31;

/// A single BVH node: its box and two `u32`s (see [`BvhNode::kind`]).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct BvhNode {
    /// Bounds of everything beneath this node.
    pub aabb: Aabb,
    /// Internal: the left child. Leaf: the first slot.
    first: u32,
    /// Internal: the right child. Leaf: the slot count, with [`LEAF_FLAG`].
    second: u32,
}

impl BvhNode {
    /// A node with bounds `aabb` of the given kind. Child indices and slot
    /// counts must be below 2³¹.
    #[inline]
    pub fn new(aabb: Aabb, kind: NodeKind) -> Self {
        let (first, second) = match kind {
            NodeKind::Internal { left, right } => (left, right),
            NodeKind::Leaf { start, count } => (start, count | LEAF_FLAG),
        };
        let node = BvhNode {
            aabb,
            first,
            second,
        };
        debug_assert_eq!(node.kind(), kind, "an index or count of 2³¹ or more");
        node
    }

    /// The node's children or leaf slots.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        if self.is_leaf() {
            NodeKind::Leaf {
                start: self.first,
                count: self.second & !LEAF_FLAG,
            }
        } else {
            NodeKind::Internal {
                left: self.first,
                right: self.second,
            }
        }
    }

    /// Replace the node's children or leaf slots, keeping its box.
    pub fn set_kind(&mut self, kind: NodeKind) {
        *self = BvhNode::new(self.aabb, kind);
    }

    /// True if this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.second & LEAF_FLAG != 0
    }
}

/// One leaf slot: the point a primitive cube is centred at, and the
/// primitive's id.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(16))]
pub struct LeafRecord {
    /// The primitive's point: its cube's centre.
    pub point: Vec3,
    /// The primitive's id, an index into the points the BVH was built over.
    pub id: u32,
}

impl LeafRecord {
    /// The record's box: the cube of half width `half` centred at its
    /// point. With `half = width * 0.5` this is bit-equal to
    /// `Aabb::cube(point, width)`, which halves the width the same way.
    #[inline]
    pub fn cube(&self, half: f32) -> Aabb {
        let half = Vec3::splat(half);
        Aabb::new(self.point - half, self.point + half)
    }
}

// The host sizes the module docs promise.
const _: () =
    assert!(std::mem::size_of::<BvhNode>() == 32 && std::mem::size_of::<LeafRecord>() == 16);

/// The box of the leaf slots `records`: the fold of their cubes.
pub(crate) fn records_aabb(records: &[LeafRecord], half: f32) -> Aabb {
    records
        .iter()
        .fold(Aabb::EMPTY, |aabb, r| aabb.union(&r.cube(half)))
}

/// A bounding volume hierarchy over per-point cubes (see the module docs).
///
/// The BVH borrows nothing: it stores a copy of the points so the
/// acceleration structure is self-contained, mirroring how an OptiX GAS owns
/// its device-side buffers after `optixAccelBuild`.
#[derive(Debug, Clone)]
pub struct Bvh {
    /// Flat node array; index 0 is the root (when non-empty).
    pub nodes: Vec<BvhNode>,
    /// The leaf slots, referenced by leaf ranges: `records[s]` holds the
    /// point and id of the primitive in slot `s`. The ids are a
    /// permutation of the ids the BVH was built over.
    pub records: Vec<LeafRecord>,
    /// Half the width of every primitive cube.
    pub half_width: f32,
    /// Maximum leaf size the builder was configured with.
    pub max_leaf_size: u32,
}

impl Bvh {
    /// An empty hierarchy (no primitives, no nodes).
    pub fn empty() -> Self {
        Bvh {
            nodes: Vec::new(),
            records: Vec::new(),
            half_width: 0.0,
            max_leaf_size: 1,
        }
    }

    /// Number of primitives the BVH was built over.
    #[inline]
    pub fn num_primitives(&self) -> usize {
        self.records.len()
    }

    /// Number of nodes (internal + leaf).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True if the BVH contains no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Root node bounds, or an empty AABB if the BVH is empty.
    #[inline]
    pub fn root_bounds(&self) -> Aabb {
        self.nodes.first().map(|n| n.aabb).unwrap_or(Aabb::EMPTY)
    }

    /// Depth of the tree (root = 1). Returns 0 for an empty BVH.
    pub fn depth(&self) -> usize {
        fn rec(bvh: &Bvh, node: usize) -> usize {
            match bvh.nodes[node].kind() {
                NodeKind::Leaf { .. } => 1,
                NodeKind::Internal { left, right } => {
                    1 + rec(bvh, left as usize).max(rec(bvh, right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(self, 0)
        }
    }

    /// True if `other` is the same tree bit for bit: the same nodes, leaf
    /// records, half width and leaf size, every `f32` compared by its bits.
    pub fn bit_identical(&self, other: &Bvh) -> bool {
        let bits = |v: Vec3| v.to_array().map(f32::to_bits);
        let node = |n: &BvhNode| (bits(n.aabb.min), bits(n.aabb.max), n.first, n.second);
        let rec = |r: &LeafRecord| (bits(r.point), r.id);
        let (a, b) = (self, other);
        a.nodes.iter().map(node).eq(b.nodes.iter().map(node))
            && a.records.iter().map(rec).eq(b.records.iter().map(rec))
            && a.half_width.to_bits() == b.half_width.to_bits()
            && a.max_leaf_size == b.max_leaf_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bvh_properties() {
        let b = Bvh::empty();
        assert!(b.is_empty());
        assert_eq!(b.num_nodes(), 0);
        assert_eq!(b.num_primitives(), 0);
        assert_eq!(b.depth(), 0);
        assert!(b.root_bounds().is_empty());
    }

    #[test]
    fn node_kind_round_trips_through_the_packed_words() {
        let aabb = Aabb::cube(Vec3::ZERO, 1.0);
        for kind in [
            NodeKind::Leaf { start: 0, count: 2 },
            NodeKind::Leaf {
                start: LEAF_FLAG - 1,
                count: LEAF_FLAG - 1,
            },
            NodeKind::Internal { left: 1, right: 2 },
            NodeKind::Internal {
                left: LEAF_FLAG - 1,
                right: LEAF_FLAG - 1,
            },
        ] {
            let mut node = BvhNode::new(aabb, kind);
            assert_eq!(node.kind(), kind);
            assert_eq!(node.aabb, aabb);
            assert_eq!(node.is_leaf(), matches!(kind, NodeKind::Leaf { .. }));
            node.set_kind(NodeKind::Leaf { start: 5, count: 0 });
            assert_eq!(node.kind(), NodeKind::Leaf { start: 5, count: 0 });
            assert_eq!(node.aabb, aabb);
        }
        assert_eq!(std::mem::align_of::<BvhNode>(), 32);
        assert_eq!(std::mem::align_of::<LeafRecord>(), 16);
    }

    #[test]
    fn bit_identical_tells_apart_equal_floats_with_other_bits() {
        let points = [Vec3::new(0.0, 1.0, 2.0), Vec3::new(3.0, 0.5, -1.0)];
        let bvh = crate::builder::build_point_bvh(&points, 0.5, Default::default());
        assert!(bvh.bit_identical(&bvh.clone()));
        let changes: [fn(&mut Bvh); 4] = [
            |b| b.records.iter_mut().for_each(|r| r.point.x *= -1.0),
            |b| b.nodes[0].aabb.min.x += 1.0,
            |b| b.half_width = -b.half_width,
            |b| b.max_leaf_size += 1,
        ];
        for change in changes {
            let mut other = bvh.clone();
            change(&mut other);
            assert!(!other.bit_identical(&bvh));
        }
    }

    #[test]
    fn a_record_cube_is_the_width_cube_bit_for_bit() {
        let points = [
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-0.1, 1e-7, 3.3e5),
            Vec3::new(7.368063, -7.368063, 0.3),
        ];
        for width in [0.3f32, 1e-3, 2.0 * 7.368063, 0.0, 1e-40] {
            for (id, &point) in points.iter().enumerate() {
                let record = LeafRecord {
                    point,
                    id: id as u32,
                };
                let (got, want) = (record.cube(width * 0.5), Aabb::cube(point, width));
                let bits =
                    |a: Aabb| [a.min.to_array(), a.max.to_array()].map(|v| v.map(f32::to_bits));
                assert_eq!(bits(got), bits(want), "width {width}, point {point:?}");
            }
        }
    }
}
