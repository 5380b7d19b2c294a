//! PCLOctree-like octree search.
//!
//! The Point Cloud Library's GPU octree builds a space-partitioning octree
//! over the points and traverses it on the SMs (there is no hardware help
//! for the traversal — that is exactly the contrast with RTNN's BVH on the
//! RT cores that Section 6.1 calls out). It supports radius search with an
//! arbitrary result cap and an approximate nearest-neighbor query with
//! `K = 1`; the same restrictions apply here.

use crate::common::{transfer_ms, Baseline, BaselineRun, SearchRequest};
use rtnn_gpusim::kernel::{point_address, run_sm_kernel, tree_node_address};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};

/// Maximum points per octree leaf.
const LEAF_SIZE: usize = 32;
/// Maximum subdivision depth.
const MAX_DEPTH: u32 = 21;
/// SM ops charged per node visited during traversal.
const OPS_PER_NODE: u64 = 12;
/// SM ops charged per point distance test.
const OPS_PER_POINT_TEST: u64 = 12;
/// SM ops charged per point during construction.
const OPS_PER_BUILD_POINT: u64 = 10;

/// One octree node.
#[derive(Debug, Clone)]
enum OctNode {
    /// Children indices (missing octants collapse to `u32::MAX`).
    Internal { children: [u32; 8], bounds: Aabb },
    /// Leaf owning a slice of the reordered point-id array.
    Leaf {
        start: u32,
        count: u32,
        bounds: Aabb,
    },
}

/// An octree over a point cloud.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<OctNode>,
    point_ids: Vec<u32>,
}

impl Octree {
    /// Build an octree over `points`. Returns `None` for an empty cloud.
    pub fn build(points: &[Vec3]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut bounds = Aabb::from_points(points);
        if bounds.longest_extent() <= 0.0 {
            bounds = bounds.expanded(1e-3);
        }
        // Cubify so octants stay cubical.
        let half = bounds.longest_extent() * 0.5;
        let bounds = Aabb::cube(bounds.center(), 2.0 * half);
        let mut tree = Octree {
            nodes: Vec::new(),
            point_ids: (0..points.len() as u32).collect(),
        };
        let n = points.len();
        tree.subdivide(points, bounds, 0, n, 0);
        Some(tree)
    }

    fn subdivide(
        &mut self,
        points: &[Vec3],
        bounds: Aabb,
        start: usize,
        end: usize,
        depth: u32,
    ) -> u32 {
        let count = end - start;
        let node_index = self.nodes.len() as u32;
        if count <= LEAF_SIZE || depth >= MAX_DEPTH {
            self.nodes.push(OctNode::Leaf {
                start: start as u32,
                count: count as u32,
                bounds,
            });
            return node_index;
        }
        self.nodes.push(OctNode::Leaf {
            start: 0,
            count: 0,
            bounds,
        }); // placeholder
        let centre = bounds.center();
        // Partition the id range into the 8 octants (stable bucket sort).
        let octant_of = |p: Vec3| -> usize {
            ((p.x > centre.x) as usize)
                | (((p.y > centre.y) as usize) << 1)
                | (((p.z > centre.z) as usize) << 2)
        };
        let slice = self.point_ids[start..end].to_vec();
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for pid in slice {
            buckets[octant_of(points[pid as usize])].push(pid);
        }
        let mut children = [u32::MAX; 8];
        let mut cursor = start;
        for (oct, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let child_start = cursor;
            self.point_ids[cursor..cursor + bucket.len()].copy_from_slice(bucket);
            cursor += bucket.len();
            let child_bounds = octant_bounds(&bounds, oct);
            children[oct] = self.subdivide(points, child_bounds, child_start, cursor, depth + 1);
        }
        self.nodes[node_index as usize] = OctNode::Internal { children, bounds };
        node_index
    }

    /// Radius search: up to `k` point ids within `radius` of `q`, plus the
    /// traversal work `(nodes_visited, point_tests)`; `read` gets the device
    /// address of every node and point record the search reads.
    pub fn radius_search(
        &self,
        points: &[Vec3],
        q: Vec3,
        radius: f32,
        k: usize,
        mut read: impl FnMut(u64),
    ) -> (Vec<u32>, u64, u64) {
        let r2 = radius * radius;
        let mut out = Vec::new();
        let mut nodes_visited = 0u64;
        let mut point_tests = 0u64;
        let mut stack = vec![0u32];
        'outer: while let Some(ni) = stack.pop() {
            nodes_visited += 1;
            read(tree_node_address(ni));
            let bounds = match &self.nodes[ni as usize] {
                OctNode::Internal { bounds, .. } => bounds,
                OctNode::Leaf { bounds, .. } => bounds,
            };
            if bounds.distance_squared_to_point(q) > r2 {
                continue;
            }
            match &self.nodes[ni as usize] {
                OctNode::Internal { children, .. } => {
                    for &c in children {
                        if c != u32::MAX {
                            stack.push(c);
                        }
                    }
                }
                OctNode::Leaf { start, count, .. } => {
                    for &pid in &self.point_ids[*start as usize..(*start + *count) as usize] {
                        point_tests += 1;
                        read(point_address(pid));
                        if q.distance_squared(points[pid as usize]) < r2 {
                            out.push(pid);
                            if out.len() >= k {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        (out, nodes_visited, point_tests)
    }

    /// Approximate-free exact nearest neighbor (K = 1) within `radius`,
    /// plus work, as [`radius_search`](Self::radius_search) reports it.
    pub fn nearest(
        &self,
        points: &[Vec3],
        q: Vec3,
        radius: f32,
        mut read: impl FnMut(u64),
    ) -> (Option<u32>, u64, u64) {
        let mut best: Option<(f32, u32)> = None;
        let mut best_r2 = radius * radius;
        let mut nodes_visited = 0u64;
        let mut point_tests = 0u64;
        // Best-first descent using a small manual stack ordered by node
        // distance (sufficiently close to PCL's behaviour for cost purposes).
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            nodes_visited += 1;
            read(tree_node_address(ni));
            match &self.nodes[ni as usize] {
                OctNode::Internal { children, bounds } => {
                    if bounds.distance_squared_to_point(q) >= best_r2 {
                        continue;
                    }
                    // Push children ordered so the closest is processed first.
                    let mut kids: Vec<u32> = children
                        .iter()
                        .copied()
                        .filter(|&c| c != u32::MAX)
                        .collect();
                    kids.sort_by(|&a, &b| {
                        let da = self.node_bounds(a).distance_squared_to_point(q);
                        let db = self.node_bounds(b).distance_squared_to_point(q);
                        db.partial_cmp(&da).unwrap()
                    });
                    stack.extend(kids);
                }
                OctNode::Leaf {
                    start,
                    count,
                    bounds,
                } => {
                    if bounds.distance_squared_to_point(q) >= best_r2 {
                        continue;
                    }
                    for &pid in &self.point_ids[*start as usize..(*start + *count) as usize] {
                        point_tests += 1;
                        read(point_address(pid));
                        let d2 = q.distance_squared(points[pid as usize]);
                        if d2 < best_r2 {
                            best_r2 = d2;
                            best = Some((d2, pid));
                        }
                    }
                }
            }
        }
        (best.map(|(_, id)| id), nodes_visited, point_tests)
    }

    fn node_bounds(&self, ni: u32) -> &Aabb {
        match &self.nodes[ni as usize] {
            OctNode::Internal { bounds, .. } => bounds,
            OctNode::Leaf { bounds, .. } => bounds,
        }
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

fn octant_bounds(parent: &Aabb, octant: usize) -> Aabb {
    let c = parent.center();
    let mut min = parent.min;
    let mut max = parent.max;
    if octant & 1 != 0 {
        min.x = c.x;
    } else {
        max.x = c.x;
    }
    if octant & 2 != 0 {
        min.y = c.y;
    } else {
        max.y = c.y;
    }
    if octant & 4 != 0 {
        min.z = c.z;
    } else {
        max.z = c.z;
    }
    Aabb::new(min, max)
}

/// The PCLOctree-like baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OctreeSearch;

impl Baseline for OctreeSearch {
    fn name(&self) -> &'static str {
        "PCLOctree"
    }

    fn range_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        let Some(tree) = Octree::build(points) else {
            return Some(BaselineRun {
                neighbors: vec![Vec::new(); queries.len()],
                build_ms: 0.0,
                search_ms: 0.0,
                data_ms,
            });
        };
        let (_, build_metrics) = run_sm_kernel(device, points.len(), |pi, work| {
            work.ops(OPS_PER_BUILD_POINT);
            work.read(point_address(pi as u32));
        });
        let (neighbors, search_metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            let (ids, nodes, tests) =
                tree.radius_search(points, queries[qi], request.radius, request.k, |a| {
                    work.read(a)
                });
            work.ops(nodes * OPS_PER_NODE + tests * OPS_PER_POINT_TEST);
            ids
        });
        Some(BaselineRun {
            neighbors,
            build_ms: build_metrics.time_ms,
            search_ms: search_metrics.time_ms,
            data_ms,
        })
    }

    fn knn_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        // PCLOctree supports only K = 1 for KNN (Section 6.1 / Figure 14).
        if request.k != 1 {
            return None;
        }
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        let tree = Octree::build(points)?;
        let (_, build_metrics) = run_sm_kernel(device, points.len(), |pi, work| {
            work.ops(OPS_PER_BUILD_POINT);
            work.read(point_address(pi as u32));
        });
        let (neighbors, search_metrics) = run_sm_kernel(device, queries.len(), |qi, work| {
            let (nearest, nodes, tests) =
                tree.nearest(points, queries[qi], request.radius, |a| work.read(a));
            work.ops(nodes * OPS_PER_NODE + tests * OPS_PER_POINT_TEST);
            nearest.into_iter().collect::<Vec<u32>>()
        });
        Some(BaselineRun {
            neighbors,
            build_ms: build_metrics.time_ms,
            search_ms: search_metrics.time_ms,
            data_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::{brute_force_knn, check_all};
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..1200)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.537) % 12.0, (f * 0.811) % 12.0, (f * 0.353) % 12.0)
            })
            .collect()
    }

    #[test]
    fn octree_structure_covers_every_point_once() {
        let points = cloud();
        let tree = Octree::build(&points).unwrap();
        assert!(tree.num_nodes() > 1);
        let mut ids = tree.point_ids.clone();
        ids.sort();
        let expected: Vec<u32> = (0..points.len() as u32).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn range_results_satisfy_the_contract() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(37).copied().collect();
        let request = SearchRequest::new(1.0, 256);
        let run = OctreeSearch
            .range_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::range(1.0, 256),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn nearest_neighbor_matches_the_oracle() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points
            .iter()
            .step_by(41)
            .map(|&p| p + Vec3::splat(0.05))
            .collect();
        let request = SearchRequest::new(2.0, 1);
        let run = OctreeSearch
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let expected = brute_force_knn(&points, *q, 2.0, 1);
            assert_eq!(run.neighbors[qi], expected, "query {qi}");
        }
    }

    #[test]
    fn knn_with_k_greater_than_one_is_unsupported() {
        let device = Device::rtx_2080();
        assert!(OctreeSearch
            .knn_search(&device, &cloud(), &[Vec3::ZERO], SearchRequest::new(1.0, 4))
            .is_none());
    }

    #[test]
    fn duplicate_points_do_not_recurse_forever() {
        let points = vec![Vec3::ONE; 500];
        let tree = Octree::build(&points).unwrap();
        assert!(tree.num_nodes() >= 1);
        let (ids, _, _) = tree.radius_search(&points, Vec3::ONE, 0.5, 1000, |_| ());
        assert_eq!(ids.len(), 500);
    }

    #[test]
    fn empty_cloud_builds_nothing() {
        assert!(Octree::build(&[]).is_none());
    }
}
