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
    /// A leaf record holds a primitive id outside the primitive count.
    PrimIdOutOfRange { node: usize, prim: u32 },
    /// A leaf range points outside the leaf records.
    LeafRangeOutOfBounds { node: usize },
    /// A leaf exceeds the configured maximum leaf size.
    LeafTooLarge { node: usize, count: u32, max: u32 },
    /// A primitive id appears in zero or multiple leaves.
    PrimitiveCoverage { prim: u32, occurrences: usize },
    /// A parent AABB does not enclose one of its children.
    ParentDoesNotEncloseChild { parent: usize, child: usize },
    /// A leaf AABB does not enclose the cube of one of its records.
    LeafDoesNotEnclosePrimitive { node: usize, prim: u32 },
}

/// Check every structural invariant of `bvh`. Returns `Ok(())` for valid
/// hierarchies (including the empty one).
pub fn validate_bvh(bvh: &Bvh) -> Result<(), BvhValidationError> {
    if bvh.nodes.is_empty() || bvh.records.is_empty() {
        return if bvh.nodes.is_empty() && bvh.records.is_empty() {
            Ok(())
        } else {
            Err(BvhValidationError::EmptyMismatch)
        };
    }

    let n_nodes = bvh.nodes.len();
    let mut visited = vec![false; n_nodes];
    let mut prim_seen = vec![0usize; bvh.records.len()];
    let mut stack = vec![0usize];
    let mut visited_count = 0usize;

    while let Some(idx) = stack.pop() {
        if visited[idx] {
            return Err(BvhValidationError::NodeVisitedTwice { node: idx });
        }
        visited[idx] = true;
        visited_count += 1;
        let node = &bvh.nodes[idx];
        match node.kind() {
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
                if end > bvh.records.len() {
                    return Err(BvhValidationError::LeafRangeOutOfBounds { node: idx });
                }
                if count > bvh.max_leaf_size {
                    return Err(BvhValidationError::LeafTooLarge {
                        node: idx,
                        count,
                        max: bvh.max_leaf_size,
                    });
                }
                for record in &bvh.records[start as usize..end] {
                    let prim = record.id;
                    if prim as usize >= bvh.records.len() {
                        return Err(BvhValidationError::PrimIdOutOfRange { node: idx, prim });
                    }
                    prim_seen[prim as usize] += 1;
                    let cube = record.cube(bvh.half_width);
                    if !node.aabb.expanded(1e-5).contains_aabb(&cube) {
                        return Err(BvhValidationError::LeafDoesNotEnclosePrimitive {
                            node: idx,
                            prim,
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
    use crate::builder::{build_point_bvh, BuildParams};
    use crate::node::{BvhNode, LeafRecord};
    use rtnn_math::{Aabb, Vec3};

    fn two_prim_bvh(points: &[Vec3]) -> Bvh {
        build_point_bvh(
            points,
            0.5,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        )
    }

    fn valid_two_prim_bvh() -> Bvh {
        two_prim_bvh(&[Vec3::ZERO, Vec3::new(4.0, 0.0, 0.0)])
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
    fn detects_a_record_outside_its_leaf_box() {
        // A record moved without a refit, or a half width grown without
        // one, leaves its cube outside the leaf box that was folded for it.
        let mut moved = valid_two_prim_bvh();
        moved.records[1].point.y += 0.6;
        let mut widened = valid_two_prim_bvh();
        widened.half_width *= 1.5;
        for bvh in [moved, widened] {
            assert!(matches!(
                validate_bvh(&bvh),
                Err(BvhValidationError::LeafDoesNotEnclosePrimitive { .. })
            ));
        }
        // Within the box, a record still validates.
        let mut nudged = valid_two_prim_bvh();
        nudged.half_width *= 0.5;
        assert_eq!(validate_bvh(&nudged), Ok(()));
    }

    #[test]
    fn detects_duplicate_primitive() {
        // Two identical points so leaf enclosure still holds; then alias
        // both leaf slots to primitive 0 so coverage is the only violation.
        let mut bvh = two_prim_bvh(&[Vec3::ZERO; 2]);
        for record in bvh.records.iter_mut() {
            record.id = 0;
        }
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::PrimitiveCoverage { .. })
        ));
    }

    #[test]
    fn detects_oversized_leaf() {
        let mut bvh = build_point_bvh(&[Vec3::ZERO; 3], 0.5, BuildParams::default());
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
        if let NodeKind::Internal { left, .. } = bvh.nodes[0].kind() {
            bvh.nodes[0].set_kind(NodeKind::Internal { left, right: 0 });
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
        bvh.nodes.push(BvhNode::new(
            Aabb::cube(Vec3::ZERO, 1.0),
            NodeKind::Leaf { start: 0, count: 0 },
        ));
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::UnreachableNodes { .. })
        ));
    }

    #[test]
    fn detects_a_leaf_range_past_the_records() {
        let mut bvh = valid_two_prim_bvh();
        let NodeKind::Internal { right, .. } = bvh.nodes[0].kind() else {
            panic!("expected internal root");
        };
        bvh.nodes[right as usize].set_kind(NodeKind::Leaf { start: 1, count: 2 });
        bvh.max_leaf_size = 2;
        assert_eq!(
            validate_bvh(&bvh),
            Err(BvhValidationError::LeafRangeOutOfBounds {
                node: right as usize
            })
        );
    }

    #[test]
    fn detects_out_of_range_primitive_id() {
        let mut bvh = valid_two_prim_bvh();
        bvh.records[0].id = 99;
        assert!(matches!(
            validate_bvh(&bvh),
            Err(BvhValidationError::PrimIdOutOfRange { prim: 99, .. })
        ));
    }

    #[test]
    fn detects_empty_mismatch() {
        let mut bvh = Bvh::empty();
        bvh.records.push(LeafRecord::default());
        assert_eq!(validate_bvh(&bvh), Err(BvhValidationError::EmptyMismatch));
    }
}
