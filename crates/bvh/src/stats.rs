//! The surface-area-heuristic quality metric of a built BVH.

use crate::node::{Bvh, NodeKind};

impl Bvh {
    /// Surface-area-heuristic cost of the tree: the expected traversal work
    /// of a random ray, `Σ SA(node)/SA(root)` weighted by a node-test cost
    /// for internal nodes and by the primitive count for leaves. This is the
    /// quality metric the refit-vs-rebuild policy monitors: a refitted tree
    /// keeps its topology while sibling boxes grow and overlap, which shows
    /// up directly as a rising SAH cost.
    pub fn sah_cost(&self) -> f64 {
        const TRAVERSAL_COST: f64 = 1.0;
        const PRIM_TEST_COST: f64 = 1.0;
        let root_sa = self.root_bounds().surface_area() as f64;
        if root_sa <= 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        let mut cost = 0.0;
        for node in &self.nodes {
            let sa = node.aabb.surface_area() as f64 / root_sa;
            match node.kind() {
                NodeKind::Internal { .. } => cost += TRAVERSAL_COST * sa,
                NodeKind::Leaf { count, .. } => cost += PRIM_TEST_COST * sa * count as f64,
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_point_bvh, BuildParams};
    use rtnn_math::Vec3;

    #[test]
    fn sah_cost_properties() {
        assert_eq!(Bvh::empty().sah_cost(), 0.0);
        let pts: Vec<Vec3> = (0..200)
            .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
            .collect();
        let bvh = build_point_bvh(&pts, 0.4, BuildParams::default());
        let cost = bvh.sah_cost();
        // The root itself contributes its own weight, so the cost of any
        // non-trivial tree is at least 1.
        assert!(cost >= 1.0, "sah cost {cost}");
        // Wider primitive AABBs overlap more, so the same points at a larger
        // radius must cost more to traverse.
        let wide = build_point_bvh(&pts, 2.0, BuildParams::default());
        assert!(wide.sah_cost() > cost);
    }
}
