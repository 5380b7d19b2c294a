//! BVH node layout and the [`Bvh`] container.
//!
//! Nodes are stored in a flat `Vec<BvhNode>`; node 0 is the root. Leaves
//! reference a contiguous range of leaf slots: `prim_indices[s]` is the
//! primitive id in slot `s` (a permutation of the ids the BVH was built
//! over) and `prim_aabbs[s]` is its box, so a leaf's boxes sit next to each
//! other. The flat layout matters beyond convenience: the GPU simulator
//! derives memory addresses for cache modelling from node and slot
//! indices, so two rays that touch the same node or slot also touch the
//! same simulated cache lines.

use rtnn_math::Aabb;

/// What a node is: an internal node with two children, or a leaf owning a
/// slice of primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Internal node; fields are indices into [`Bvh::nodes`].
    Internal { left: u32, right: u32 },
    /// Leaf node; `start..start + count` are its leaf slots, indices into
    /// [`Bvh::prim_indices`] and [`Bvh::prim_aabbs`].
    Leaf { start: u32, count: u32 },
}

/// A single BVH node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhNode {
    /// Bounds of everything beneath this node.
    pub aabb: Aabb,
    /// Internal / leaf discriminant and payload.
    pub kind: NodeKind,
}

impl BvhNode {
    /// True if this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }
}

/// A bounding volume hierarchy over a set of axis-aligned primitive boxes.
///
/// The BVH borrows nothing: it stores a copy of the primitive AABBs so the
/// acceleration structure is self-contained, mirroring how an OptiX GAS owns
/// its device-side buffers after `optixAccelBuild`.
#[derive(Debug, Clone)]
pub struct Bvh {
    /// Flat node array; index 0 is the root (when non-empty).
    pub nodes: Vec<BvhNode>,
    /// The primitive id in each leaf slot: a permutation of the ids the
    /// BVH was built over, referenced by leaf ranges.
    pub prim_indices: Vec<u32>,
    /// Primitive bounding boxes, indexed by leaf slot: `prim_aabbs[s]` is
    /// the box of primitive `prim_indices[s]`, so a leaf scan reads
    /// adjacent memory (the order the simulator bills primitive records
    /// in). Look a box up by id through `prim_indices`, not directly.
    pub prim_aabbs: Vec<Aabb>,
    /// Maximum leaf size the builder was configured with.
    pub max_leaf_size: u32,
}

impl Bvh {
    /// An empty hierarchy (no primitives, no nodes).
    pub fn empty() -> Self {
        Bvh {
            nodes: Vec::new(),
            prim_indices: Vec::new(),
            prim_aabbs: Vec::new(),
            max_leaf_size: 1,
        }
    }

    /// Number of primitives the BVH was built over.
    #[inline]
    pub fn num_primitives(&self) -> usize {
        self.prim_aabbs.len()
    }

    /// Number of nodes (internal + leaf).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// True if the BVH contains no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prim_aabbs.is_empty()
    }

    /// Root node bounds, or an empty AABB if the BVH is empty.
    #[inline]
    pub fn root_bounds(&self) -> Aabb {
        self.nodes.first().map(|n| n.aabb).unwrap_or(Aabb::EMPTY)
    }

    /// Depth of the tree (root = 1). Returns 0 for an empty BVH.
    pub fn depth(&self) -> usize {
        fn rec(bvh: &Bvh, node: usize) -> usize {
            match bvh.nodes[node].kind {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_math::Vec3;

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
    fn node_kind_helpers() {
        let leaf = BvhNode {
            aabb: Aabb::cube(Vec3::ZERO, 1.0),
            kind: NodeKind::Leaf { start: 0, count: 2 },
        };
        let internal = BvhNode {
            aabb: Aabb::cube(Vec3::ZERO, 2.0),
            kind: NodeKind::Internal { left: 1, right: 2 },
        };
        assert!(leaf.is_leaf());
        assert!(!internal.is_leaf());
    }
}
