//! A k-d tree searcher.
//!
//! Not one of the paper's GPU baselines, but the canonical CPU data
//! structure for low-dimensional neighbor search (FLANN, nanoflann, ...).
//! It serves two roles here: an additional tree-based comparison point whose
//! traversal is charged to the simulated SMs, and a fast exact oracle for
//! the integration and property tests (brute force is O(N·M) and becomes the
//! test-suite bottleneck first).

use crate::common::{transfer_ms, Baseline, BaselineRun, SearchRequest};
use rtnn_gpusim::kernel::{point_address, run_sm_kernel, tree_node_address};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// Maximum points per leaf.
const LEAF_SIZE: usize = 16;
/// SM ops charged per node visited.
const OPS_PER_NODE: u64 = 10;
/// SM ops charged per point distance test.
const OPS_PER_POINT_TEST: u64 = 12;
/// SM ops charged per point during construction.
const OPS_PER_BUILD_POINT: u64 = 12;

#[derive(Debug, Clone)]
enum KdNode {
    Internal {
        axis: u8,
        split: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        start: u32,
        count: u32,
    },
}

/// A balanced k-d tree over a point cloud.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    point_ids: Vec<u32>,
}

impl KdTree {
    /// Build a tree over `points`; `None` for an empty cloud.
    pub fn build(points: &[Vec3]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut tree = KdTree {
            nodes: Vec::new(),
            point_ids: (0..points.len() as u32).collect(),
        };
        let n = points.len();
        tree.build_node(points, 0, n);
        Some(tree)
    }

    fn build_node(&mut self, points: &[Vec3], start: usize, end: usize) -> u32 {
        let count = end - start;
        let node_index = self.nodes.len() as u32;
        if count <= LEAF_SIZE {
            self.nodes.push(KdNode::Leaf {
                start: start as u32,
                count: count as u32,
            });
            return node_index;
        }
        // Split on the axis with the largest spread of the contained points.
        let mut lo = Vec3::splat(f32::INFINITY);
        let mut hi = Vec3::splat(f32::NEG_INFINITY);
        for &pid in &self.point_ids[start..end] {
            lo = lo.min(points[pid as usize]);
            hi = hi.max(points[pid as usize]);
        }
        let extent = hi - lo;
        let axis = if extent.x >= extent.y && extent.x >= extent.z {
            0
        } else if extent.y >= extent.z {
            1
        } else {
            2
        } as usize;
        if extent[axis] <= 0.0 {
            // All points identical along every axis: leave as an oversized leaf.
            self.nodes.push(KdNode::Leaf {
                start: start as u32,
                count: count as u32,
            });
            return node_index;
        }
        let mid = start + count / 2;
        self.point_ids[start..end].select_nth_unstable_by(count / 2, |&a, &b| {
            points[a as usize][axis]
                .partial_cmp(&points[b as usize][axis])
                .unwrap()
        });
        let split = points[self.point_ids[mid] as usize][axis];
        self.nodes.push(KdNode::Leaf { start: 0, count: 0 }); // placeholder
        let left = self.build_node(points, start, mid);
        let right = self.build_node(points, mid, end);
        self.nodes[node_index as usize] = KdNode::Internal {
            axis: axis as u8,
            split,
            left,
            right,
        };
        node_index
    }

    /// Up to `k` ids within `radius` of `q`, plus traversal work
    /// `(nodes_visited, point_tests)`; `read` gets the device address of
    /// every node and point record the search reads.
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
        let (mut nodes_visited, mut point_tests) = (0u64, 0u64);
        let mut stack = vec![(0u32, 0.0f32)]; // (node, squared distance to its region)
        'outer: while let Some((ni, d2_region)) = stack.pop() {
            if d2_region > r2 {
                continue;
            }
            nodes_visited += 1;
            read(tree_node_address(ni));
            match &self.nodes[ni as usize] {
                KdNode::Internal {
                    axis,
                    split,
                    left,
                    right,
                } => {
                    let delta = q[*axis as usize] - *split;
                    let (near, far) = if delta <= 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    stack.push((far, d2_region.max(delta * delta)));
                    stack.push((near, d2_region));
                }
                KdNode::Leaf { start, count } => {
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

    /// The `k` nearest ids within `radius`, sorted by distance, plus work,
    /// as [`radius_search`](Self::radius_search) reports it.
    pub fn knn_search(
        &self,
        points: &[Vec3],
        q: Vec3,
        radius: f32,
        k: usize,
        mut read: impl FnMut(u64),
    ) -> (Vec<u32>, u64, u64) {
        let mut best: Vec<(f32, u32)> = Vec::with_capacity(k + 1);
        let mut worst = radius * radius;
        let (mut nodes_visited, mut point_tests) = (0u64, 0u64);
        let mut stack = vec![(0u32, 0.0f32)];
        while let Some((ni, d2_region)) = stack.pop() {
            if d2_region >= worst && best.len() >= k {
                continue;
            }
            if d2_region >= radius * radius {
                continue;
            }
            nodes_visited += 1;
            read(tree_node_address(ni));
            match &self.nodes[ni as usize] {
                KdNode::Internal {
                    axis,
                    split,
                    left,
                    right,
                } => {
                    let delta = q[*axis as usize] - *split;
                    let (near, far) = if delta <= 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    stack.push((far, d2_region.max(delta * delta)));
                    stack.push((near, d2_region));
                }
                KdNode::Leaf { start, count } => {
                    for &pid in &self.point_ids[*start as usize..(*start + *count) as usize] {
                        point_tests += 1;
                        read(point_address(pid));
                        let d2 = q.distance_squared(points[pid as usize]);
                        if d2 < radius * radius && (best.len() < k || d2 < worst) {
                            let pos = best.partition_point(|&(d, id)| (d, id) < (d2, pid));
                            best.insert(pos, (d2, pid));
                            if best.len() > k {
                                best.pop();
                            }
                            if best.len() == k {
                                worst = best.last().unwrap().0;
                            }
                        }
                    }
                }
            }
        }
        let ids = best.into_iter().map(|(_, id)| id).collect();
        (ids, nodes_visited, point_tests)
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// The k-d-tree baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct KdTreeSearch;

impl Baseline for KdTreeSearch {
    fn name(&self) -> &'static str {
        "KdTree"
    }

    fn range_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        let Some(tree) = KdTree::build(points) else {
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
        let data_ms = transfer_ms(device, points.len(), queries.len(), request.k);
        let Some(tree) = KdTree::build(points) else {
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
                tree.knn_search(points, queries[qi], request.radius, request.k, |a| {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::{brute_force_knn, check_all};
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..1500)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.637) % 11.0, (f * 0.911) % 11.0, (f * 0.453) % 11.0)
            })
            .collect()
    }

    #[test]
    fn tree_covers_every_point_once() {
        let points = cloud();
        let tree = KdTree::build(&points).unwrap();
        let mut ids = tree.point_ids.clone();
        ids.sort();
        assert_eq!(ids, (0..points.len() as u32).collect::<Vec<_>>());
        assert!(tree.num_nodes() > 1);
    }

    #[test]
    fn range_results_satisfy_the_contract() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(29).copied().collect();
        let request = SearchRequest::new(0.9, 512);
        let run = KdTreeSearch
            .range_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::range(0.9, 512),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn knn_matches_the_oracle() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points
            .iter()
            .step_by(53)
            .map(|&p| p + Vec3::new(0.01, -0.02, 0.03))
            .collect();
        let request = SearchRequest::new(1.5, 7);
        let run = KdTreeSearch
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                run.neighbors[qi],
                brute_force_knn(&points, *q, 1.5, 7),
                "query {qi}"
            );
        }
    }

    #[test]
    fn duplicate_points_build_a_finite_tree() {
        let points = vec![Vec3::ONE; 300];
        let tree = KdTree::build(&points).unwrap();
        let (ids, _, _) = tree.radius_search(&points, Vec3::ONE, 0.1, 1000, |_| ());
        assert_eq!(ids.len(), 300);
    }

    #[test]
    fn empty_cloud_handled() {
        assert!(KdTree::build(&[]).is_none());
        let device = Device::rtx_2080();
        let run = KdTreeSearch
            .knn_search(&device, &[], &[Vec3::ZERO], SearchRequest::new(1.0, 3))
            .unwrap();
        assert!(run.neighbors[0].is_empty());
    }
}
