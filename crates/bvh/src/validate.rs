//! Structural validation of BVHs, used by tests and property tests.

use crate::node::{Bvh, NodeKind};

/// Ways a BVH can be malformed.
#[derive(Debug, Clone, PartialEq)]
pub enum BvhValidationError {
    /// A non-empty primitive set with no nodes (or vice versa).
    EmptyMismatch,
    /// A node's child index points outside the node array.
    ChildOutOfRange { node: usize, child: u32 },
    /// A node is referenced as a child more than once (the tree is a DAG or
    /// contains a cycle).
    NodeVisitedTwice { node: usize },
    /// Some node is unreachable from the root.
    UnreachableNodes { expected: usize, visited: usize },
    /// `prim_indices` is not a permutation-sized table over the primitives
    /// (the two arrays disagree in length).
    IndexTableSizeMismatch { indices: usize, primitives: usize },
    /// A leaf slot references a primitive id outside `prim_aabbs`.
    PrimIdOutOfRange { node: usize, prim: u32 },
    /// A leaf range points outside `prim_indices`.
    LeafRangeOutOfBounds { node: usize },
    /// A leaf exceeds the configured maximum leaf size.
    LeafTooLarge { node: usize, count: u32, max: u32 },
    /// A primitive id appears in zero or multiple leaves.
    PrimitiveCoverage { prim: u32, occurrences: usize },
    /// A parent AABB does not enclose one of its children.
    ParentDoesNotEncloseChild { parent: usize, child: usize },
    /// A leaf AABB does not enclose one of its primitives.
    LeafDoesNotEnclosePrimitive { node: usize, prim: u32 },
}

/// Check every structural invariant of `bvh`. Returns `Ok(())` for valid
/// hierarchies (including the empty one).
pub fn validate_bvh(bvh: &Bvh) -> Result<(), BvhValidationError> {
    if bvh.nodes.is_empty() || bvh.prim_aabbs.is_empty() {
        return if bvh.nodes.is_empty() && bvh.prim_aabbs.is_empty() && bvh.prim_indices.is_empty() {
            Ok(())
        } else {
            Err(BvhValidationError::EmptyMismatch)
        };
    }

    if bvh.prim_indices.len() != bvh.prim_aabbs.len() {
        return Err(BvhValidationError::IndexTableSizeMismatch {
            indices: bvh.prim_indices.len(),
            primitives: bvh.prim_aabbs.len(),
        });
    }

    let n_nodes = bvh.nodes.len();
    let mut visited = vec![false; n_nodes];
    let mut prim_seen = vec![0usize; bvh.prim_aabbs.len()];
    let mut stack = vec![0usize];
    let mut visited_count = 0usize;

    while let Some(idx) = stack.pop() {
        if visited[idx] {
            return Err(BvhValidationError::NodeVisitedTwice { node: idx });
        }
        visited[idx] = true;
        visited_count += 1;
        let node = &bvh.nodes[idx];
        match node.kind {
            NodeKind::Internal { left, right } => {
                for child in [left, right] {
                    if child as usize >= n_nodes {
                        return Err(BvhValidationError::ChildOutOfRange { node: idx, child });
                    }
                    let child_aabb = &bvh.nodes[child as usize].aabb;
                    if !node.aabb.expanded(1e-5).contains_aabb(child_aabb) {
                        return Err(BvhValidationError::ParentDoesNotEncloseChild {
                            parent: idx,
                            child: child as usize,
                        });
                    }
                    stack.push(child as usize);
                }
            }
            NodeKind::Leaf { start, count } => {
                let end = start as usize + count as usize;
                if end > bvh.prim_indices.len() {
                    return Err(BvhValidationError::LeafRangeOutOfBounds { node: idx });
                }
                if count > bvh.max_leaf_size {
                    return Err(BvhValidationError::LeafTooLarge {
                        node: idx,
                        count,
                        max: bvh.max_leaf_size,
                    });
                }
                for &pid in &bvh.prim_indices[start as usize..end] {
                    if pid as usize >= bvh.prim_aabbs.len() {
                        return Err(BvhValidationError::PrimIdOutOfRange {
                            node: idx,
                            prim: pid,
                        });
                    }
                    prim_seen[pid as usize] += 1;
                    if !node
                        .aabb
                        .expanded(1e-5)
                        .contains_aabb(&bvh.prim_aabbs[pid as usize])
                    {
                        return Err(BvhValidationError::LeafDoesNotEnclosePrimitive {
                            node: idx,
                            prim: pid,
                        });
                    }
                }
            }
        }
    }

    if visited_count != n_nodes {
        return Err(BvhValidationError::UnreachableNodes {
            expected: n_nodes,
            visited: visited_count,
        });
    }
    for (prim, &occ) in prim_seen.iter().enumerate() {
        if occ != 1 {
            return Err(BvhValidationError::PrimitiveCoverage {
                prim: prim as u32,
                occurrences: occ,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_bvh, BuildParams};
    use crate::node::BvhNode;
    use rtnn_math::{Aabb, Vec3};

    fn valid_two_prim_bvh() -> Bvh {
        let prim_aabbs = vec![
            Aabb::cube(Vec3::ZERO, 1.0),
            Aabb::cube(Vec3::new(4.0, 0.0, 0.0), 1.0),
        ];
        build_bvh(
            &prim_aabbs,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        )
    }

    #[test]
    fn empty_is_valid() {
        assert_eq!(validate_bvh(&Bvh::empty()), Ok(()));
    }

    #[test]
    fn built_trees_are_valid() {
        assert_eq!(validate_bvh(&valid_two_prim_bvh()), Ok(()));
    }

    #[test]
    fn detects_shrunk_parent() {
        let mut bvh = valid_two_prim_bvh();
        bvh.nodes[0].aabb = Aabb::cube(Vec3::ZERO, 0.1);
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::ParentDoesNotEncloseChild { .. })
                | Err(BvhValidationError::LeafDoesNotEnclosePrimitive { .. })
        ));
    }

    #[test]
    fn detects_duplicate_primitive() {
        // Two identical primitives so leaf enclosure still holds; then alias
        // both leaf slots to primitive 0 so coverage is the only violation.
        let prim_aabbs = vec![Aabb::cube(Vec3::ZERO, 1.0); 2];
        let mut bvh = build_bvh(
            &prim_aabbs,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        );
        for slot in bvh.prim_indices.iter_mut() {
            *slot = 0;
        }
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::PrimitiveCoverage { .. })
        ));
    }

    #[test]
    fn detects_oversized_leaf() {
        let prim_aabbs = vec![Aabb::cube(Vec3::ZERO, 1.0); 3];
        let mut bvh = build_bvh(
            &prim_aabbs,
            BuildParams {
                max_leaf_size: 4,
                ..BuildParams::default()
            },
        );
        bvh.max_leaf_size = 1; // pretend the builder was configured tighter
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::LeafTooLarge { .. })
        ));
    }

    #[test]
    fn detects_child_cycle() {
        let mut bvh = valid_two_prim_bvh();
        // Make the root's right child the root itself.
        if let NodeKind::Internal { left, .. } = bvh.nodes[0].kind {
            bvh.nodes[0].kind = NodeKind::Internal { left, right: 0 };
        }
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::NodeVisitedTwice { .. })
                | Err(BvhValidationError::UnreachableNodes { .. })
        ));
    }

    #[test]
    fn detects_unreachable_node() {
        let mut bvh = valid_two_prim_bvh();
        bvh.nodes.push(BvhNode {
            aabb: Aabb::cube(Vec3::ZERO, 1.0),
            kind: NodeKind::Leaf { start: 0, count: 0 },
        });
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::UnreachableNodes { .. })
        ));
    }

    #[test]
    fn detects_index_table_size_mismatch() {
        let mut bvh = valid_two_prim_bvh();
        bvh.prim_indices.push(0);
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::IndexTableSizeMismatch {
                indices: 3,
                primitives: 2
            })
        ));
    }

    #[test]
    fn detects_out_of_range_primitive_id() {
        let mut bvh = valid_two_prim_bvh();
        bvh.prim_indices[0] = 99;
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::PrimIdOutOfRange { prim: 99, .. })
                | Err(BvhValidationError::LeafDoesNotEnclosePrimitive { .. })
        ));
    }

    #[test]
    fn detects_empty_mismatch() {
        let mut bvh = Bvh::empty();
        bvh.prim_aabbs.push(Aabb::cube(Vec3::ZERO, 1.0));
        assert_eq!(validate_bvh(&bvh), Err(BvhValidationError::EmptyMismatch));
    }
}
