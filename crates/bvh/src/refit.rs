//! In-place BVH refit for dynamic scenes.
//!
//! When primitives move but their count stays fixed, the tree topology
//! (parent/child structure and leaf → primitive assignment) can be kept and
//! only the AABBs recomputed bottom-up: leaves from their primitives,
//! internal nodes from their children. This is exactly what
//! `optixAccelBuild` with `OPTIX_BUILD_OPERATION_UPDATE` does on real
//! hardware — an order of magnitude cheaper than a rebuild, at the price of
//! tree quality: as primitives drift from the positions the topology was
//! chosen for, sibling AABBs start to overlap and traversal visits more
//! nodes. The [`crate::node::Bvh::sah_cost`] monitor quantifies that
//! degradation; the `rtnn-dynamic` crate's rebuild policy acts on it.

use crate::node::{Bvh, NodeKind};
use rtnn_math::Aabb;
use rtnn_parallel::{current_num_threads, par_map_collect};
use std::time::Instant;

/// Ways a refit request can be invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum RefitError {
    /// The new primitive set has a different size than the tree was built
    /// over — refit cannot change topology; rebuild instead.
    PrimitiveCountChanged {
        /// Primitives the tree owns.
        tree: usize,
        /// Primitives supplied to the refit.
        supplied: usize,
    },
}

impl std::fmt::Display for RefitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitError::PrimitiveCountChanged { tree, supplied } => write!(
                f,
                "refit cannot change the primitive count (tree has {tree}, supplied {supplied}); rebuild instead"
            ),
        }
    }
}

impl std::error::Error for RefitError {}

/// What a refit did, for logging and policy decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitStats {
    /// Nodes whose AABB was recomputed (all of them).
    pub nodes_updated: usize,
    /// SAH cost of the tree before the refit.
    pub sah_before: f64,
    /// SAH cost of the tree after the refit.
    pub sah_after: f64,
}

/// Recompute every node AABB of `bvh` bottom-up from `new_prim_aabbs`
/// without re-topologizing. The new primitive set must have exactly the same
/// length as the one the tree was built over; primitive ids keep their
/// meaning: `new_prim_aabbs` is indexed by id, like the builder's input,
/// and the tree stores it in leaf-slot order ([`Bvh::prim_aabbs`]).
///
/// Works for any structurally valid tree regardless of node layout (explicit
/// traversals are used throughout, so children need not follow their parent
/// in the node array).
///
/// Large trees are refitted in parallel over independent subtrees (see
/// [`refit_bvh_with_cut`]); the result is bit-identical to the serial oracle
/// ([`refit_bvh_serial`]) at every thread count, because every node box is
/// computed from exactly the same operands either way.
///
/// In debug and test builds the refitted tree is re-validated with
/// [`crate::validate::validate_bvh`]; a violation is a bug in this function
/// or in the input tree and panics.
pub fn refit_bvh(bvh: &mut Bvh, new_prim_aabbs: &[Aabb]) -> Result<RefitStats, RefitError> {
    let wall = Instant::now();
    let threads = current_num_threads();
    // Cut deep enough to hand every worker several subtrees for load
    // balancing; a serial run or a small tree dispatches to the oracle.
    let stats = if threads <= 1 || bvh.nodes.len() < 4096 {
        refit_bvh_serial(bvh, new_prim_aabbs)?
    } else {
        let cut_depth = (threads * 8).next_power_of_two().trailing_zeros();
        refit_bvh_with_cut(bvh, new_prim_aabbs, cut_depth)?
    };
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.counter_add("bvh.refits", 1);
        t.observe_wall("bvh.refit.wall_ms", wall.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats)
}

/// The serial refit oracle: one explicit post-order traversal of the whole
/// tree. The parallel path must match it bit for bit.
pub fn refit_bvh_serial(bvh: &mut Bvh, new_prim_aabbs: &[Aabb]) -> Result<RefitStats, RefitError> {
    let sah_before = check_and_adopt(bvh, new_prim_aabbs)?;
    let Some(sah_before) = sah_before else {
        return Ok(empty_stats(bvh));
    };

    // Iterative post-order: visit children before recomputing the parent.
    // `(node, expanded)` pairs; on the second visit both children are done.
    let mut stack: Vec<(u32, bool)> = vec![(0, false)];
    while let Some((idx, expanded)) = stack.pop() {
        let node = bvh.nodes[idx as usize];
        match node.kind {
            NodeKind::Leaf { start, count } => {
                bvh.nodes[idx as usize].aabb = leaf_aabb(bvh, start, count);
            }
            NodeKind::Internal { left, right } => {
                if expanded {
                    let aabb = bvh.nodes[left as usize]
                        .aabb
                        .union(&bvh.nodes[right as usize].aabb);
                    bvh.nodes[idx as usize].aabb = aabb;
                } else {
                    stack.push((idx, true));
                    stack.push((left, false));
                    stack.push((right, false));
                }
            }
        }
    }

    finish(bvh, sah_before)
}

/// Parallel refit with an explicit subtree cut: a breadth-first sweep from
/// the root collects the frontier at `cut_depth` (plus any leaves above it),
/// the frontier subtrees are refitted concurrently, and a serial top-up
/// pass recomputes the internal nodes above the cut in reverse BFS order.
/// `cut_depth = 0` degenerates to one job — the whole tree.
///
/// Bit-identical to [`refit_bvh_serial`] for every cut depth and thread
/// count: each node's box is computed from the same operands in the same
/// order; only the schedule differs.
pub fn refit_bvh_with_cut(
    bvh: &mut Bvh,
    new_prim_aabbs: &[Aabb],
    cut_depth: u32,
) -> Result<RefitStats, RefitError> {
    let sah_before = check_and_adopt(bvh, new_prim_aabbs)?;
    let Some(sah_before) = sah_before else {
        return Ok(empty_stats(bvh));
    };

    // BFS from the root: nodes shallower than the cut stay in `upper`
    // (recomputed serially afterwards); the frontier — subtree roots at the
    // cut depth, plus leaves encountered above it — becomes the job list.
    let mut upper: Vec<u32> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut queue: Vec<(u32, u32)> = vec![(0, 0)]; // (node, depth)
    let mut head = 0;
    while head < queue.len() {
        let (idx, depth) = queue[head];
        head += 1;
        match bvh.nodes[idx as usize].kind {
            NodeKind::Internal { left, right } if depth < cut_depth => {
                upper.push(idx);
                queue.push((left, depth + 1));
                queue.push((right, depth + 1));
            }
            _ => frontier.push(idx),
        }
    }

    // Refit the frontier subtrees concurrently. Workers only read the tree
    // and return (node, aabb) pairs; a serial pass applies them, so no two
    // threads ever alias a node.
    let jobs: Vec<Vec<(u32, Aabb)>> = {
        let bvh: &Bvh = bvh;
        par_map_collect(frontier.len(), |i| eval_subtree(bvh, frontier[i]))
    };

    for job in jobs {
        for (idx, aabb) in job {
            bvh.nodes[idx as usize].aabb = aabb;
        }
    }
    // Serial top-up: reverse BFS order guarantees both children of every
    // upper node — frontier roots or deeper upper nodes — are final.
    for &idx in upper.iter().rev() {
        let NodeKind::Internal { left, right } = bvh.nodes[idx as usize].kind else {
            unreachable!("upper nodes are internal by construction");
        };
        bvh.nodes[idx as usize].aabb = bvh.nodes[left as usize]
            .aabb
            .union(&bvh.nodes[right as usize].aabb);
    }

    finish(bvh, sah_before)
}

/// Post-order evaluation of one subtree's new AABBs against the (already
/// adopted) primitive boxes. Returns `(node, aabb)` pairs in post-order; an
/// explicit two-stack machine, so degenerate SAH chains cannot overflow the
/// call stack.
fn eval_subtree(bvh: &Bvh, root: u32) -> Vec<(u32, Aabb)> {
    enum Visit {
        Enter(u32),
        Exit(u32),
    }
    let mut out: Vec<(u32, Aabb)> = Vec::new();
    let mut values: Vec<Aabb> = Vec::new();
    let mut stack = vec![Visit::Enter(root)];
    while let Some(visit) = stack.pop() {
        match visit {
            Visit::Enter(idx) => match bvh.nodes[idx as usize].kind {
                NodeKind::Leaf { start, count } => {
                    let aabb = leaf_aabb(bvh, start, count);
                    out.push((idx, aabb));
                    values.push(aabb);
                }
                NodeKind::Internal { left, right } => {
                    stack.push(Visit::Exit(idx));
                    // Enter right first so left's value lands below right's,
                    // and the union below reads (left, right) in order.
                    stack.push(Visit::Enter(right));
                    stack.push(Visit::Enter(left));
                }
            },
            Visit::Exit(idx) => {
                let r = values.pop().expect("right child evaluated");
                let l = values.pop().expect("left child evaluated");
                let aabb = l.union(&r);
                out.push((idx, aabb));
                values.push(aabb);
            }
        }
    }
    out
}

/// Count-check `new_prim_aabbs` (indexed by primitive id) against the tree
/// and adopt them, gathered into the tree's leaf-slot order. Returns
/// `Ok(None)` for the empty tree (nothing to refit), otherwise the SAH cost
/// before the refit.
fn check_and_adopt(bvh: &mut Bvh, new_prim_aabbs: &[Aabb]) -> Result<Option<f64>, RefitError> {
    if new_prim_aabbs.len() != bvh.prim_aabbs.len() {
        return Err(RefitError::PrimitiveCountChanged {
            tree: bvh.prim_aabbs.len(),
            supplied: new_prim_aabbs.len(),
        });
    }
    let sah_before = bvh.sah_cost();
    if bvh.nodes.is_empty() {
        return Ok(None);
    }
    for (slot_aabb, &pid) in bvh.prim_aabbs.iter_mut().zip(&bvh.prim_indices) {
        *slot_aabb = new_prim_aabbs[pid as usize];
    }
    Ok(Some(sah_before))
}

fn empty_stats(bvh: &Bvh) -> RefitStats {
    let sah = bvh.sah_cost();
    RefitStats {
        nodes_updated: 0,
        sah_before: sah,
        sah_after: sah,
    }
}

/// The box of the leaf slots `start..start + count`.
fn leaf_aabb(bvh: &Bvh, start: u32, count: u32) -> Aabb {
    let mut aabb = Aabb::EMPTY;
    for slot_aabb in &bvh.prim_aabbs[start as usize..(start + count) as usize] {
        aabb.grow_aabb(slot_aabb);
    }
    aabb
}

fn finish(bvh: &mut Bvh, sah_before: f64) -> Result<RefitStats, RefitError> {
    #[cfg(any(debug_assertions, test))]
    crate::validate::validate_bvh(bvh).expect("refit produced an invalid BVH");

    Ok(RefitStats {
        nodes_updated: bvh.nodes.len(),
        sah_before,
        sah_after: bvh.sah_cost(),
    })
}

/// Refit helper mirroring [`crate::builder::build_point_bvh`]: primitives
/// are the width-`2·radius` cubes centred at `points` (Listing 1's mapping).
pub fn refit_point_bvh(
    bvh: &mut Bvh,
    points: &[rtnn_math::Vec3],
    radius: f32,
) -> Result<RefitStats, RefitError> {
    let aabbs = rtnn_parallel::par_map(points.len(), |i| Aabb::cube(points[i], 2.0 * radius));
    refit_bvh(bvh, &aabbs)
}

/// A quality monitor for a tree that is refitted across frames: remembers
/// the SAH cost the tree had when it was last *built* and reports the
/// degradation ratio of the current (refitted) tree against it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SahMonitor {
    built_sah: f64,
}

impl SahMonitor {
    /// Record the freshly built tree's SAH cost as the quality baseline.
    pub fn baseline(bvh: &Bvh) -> Self {
        SahMonitor {
            built_sah: bvh.sah_cost(),
        }
    }

    /// The SAH cost at the last rebuild.
    pub fn built_sah(&self) -> f64 {
        self.built_sah
    }

    /// Quality-degradation ratio of `bvh` against the baseline: 1.0 means
    /// as good as freshly built, 2.0 means traversal is predicted to cost
    /// about twice as much. Never below 1.0 (a refit can coincidentally
    /// tighten boxes; the policy only cares about degradation).
    pub fn quality_ratio(&self, bvh: &Bvh) -> f64 {
        if self.built_sah <= 0.0 {
            return 1.0;
        }
        (bvh.sah_cost() / self.built_sah).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_bvh, build_point_bvh, BuildParams};
    use crate::validate::validate_bvh;
    use rtnn_math::Vec3;

    fn grid_points(n_per_axis: usize) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    #[test]
    fn refit_with_identical_primitives_is_a_fixed_point() {
        let pts = grid_points(5);
        let mut bvh = build_point_bvh(&pts, 0.5, BuildParams::default());
        let reference = bvh.clone();
        let stats = refit_point_bvh(&mut bvh, &pts, 0.5).unwrap();
        assert_eq!(stats.nodes_updated, bvh.nodes.len());
        assert!((stats.sah_after - stats.sah_before).abs() < 1e-9);
        for (a, b) in bvh.nodes.iter().zip(&reference.nodes) {
            assert_eq!(a.aabb, b.aabb);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn refit_tracks_moved_primitives_and_stays_valid() {
        let mut pts = grid_points(6);
        let mut bvh = build_point_bvh(&pts, 0.4, BuildParams::default());
        // Drift every point and squash z (an SPH-settle-like motion).
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += 0.3 * ((i % 7) as f32 - 3.0) / 3.0;
            p.z *= 0.8;
        }
        refit_point_bvh(&mut bvh, &pts, 0.4).unwrap();
        validate_bvh(&bvh).unwrap();
        // Every leaf slot's box is the cube at its primitive's new position.
        for (slot, &pid) in bvh.prim_indices.iter().enumerate() {
            assert_eq!(bvh.prim_aabbs[slot], Aabb::cube(pts[pid as usize], 0.8));
        }
        // The root must bound all new positions.
        let root = bvh.root_bounds();
        for &p in &pts {
            assert!(root.contains_point(p));
        }
    }

    #[test]
    fn primitive_boxes_are_stored_in_leaf_slot_order() {
        use crate::builder::BvhBuilder;
        let pts = grid_points(7);
        let boxes =
            |pts: &[Vec3]| -> Vec<Aabb> { pts.iter().map(|&p| Aabb::cube(p, 0.9)).collect() };
        let built = boxes(&pts);
        let moved = boxes(
            &pts.iter()
                .enumerate()
                .map(|(i, &p)| p + Vec3::new(0.3 * (i % 5) as f32, -0.2 * (i % 3) as f32, 0.1))
                .collect::<Vec<_>>(),
        );
        let assert_slot_order = |bvh: &Bvh, boxes: &[Aabb], context: &str| {
            for (slot, &pid) in bvh.prim_indices.iter().enumerate() {
                assert_eq!(
                    bvh.prim_aabbs[slot], boxes[pid as usize],
                    "{context}: slot {slot}"
                );
            }
        };
        for builder in [BvhBuilder::Lbvh, BvhBuilder::LbvhSerial] {
            for max_leaf_size in [1u32, 4] {
                let context = format!("{builder:?} leaf={max_leaf_size}");
                let bvh = build_bvh(
                    &built,
                    BuildParams {
                        builder,
                        max_leaf_size,
                    },
                );
                assert_slot_order(&bvh, &built, &format!("{context} build"));
                let mut serial = bvh.clone();
                refit_bvh_serial(&mut serial, &moved).unwrap();
                assert_slot_order(&serial, &moved, &format!("{context} serial refit"));
                for cut in [0u32, 2, 4, 8] {
                    let mut cut_tree = bvh.clone();
                    refit_bvh_with_cut(&mut cut_tree, &moved, cut).unwrap();
                    assert_slot_order(&cut_tree, &moved, &format!("{context} cut {cut}"));
                }
            }
        }
    }

    #[test]
    fn refit_rejects_changed_primitive_count() {
        let pts = grid_points(3);
        let mut bvh = build_point_bvh(&pts, 0.5, BuildParams::default());
        let fewer: Vec<Aabb> = pts[..10].iter().map(|&p| Aabb::cube(p, 1.0)).collect();
        let err = refit_bvh(&mut bvh, &fewer).unwrap_err();
        assert!(matches!(
            err,
            RefitError::PrimitiveCountChanged {
                tree: 27,
                supplied: 10
            }
        ));
        assert!(err.to_string().contains("rebuild instead"));
    }

    #[test]
    fn refit_of_empty_bvh_is_a_noop() {
        let mut bvh = Bvh::empty();
        let stats = refit_bvh(&mut bvh, &[]).unwrap();
        assert_eq!(stats.nodes_updated, 0);
        assert!(bvh.is_empty());
    }

    #[test]
    fn drift_degrades_sah_and_monitor_reports_it() {
        let mut pts = grid_points(8);
        let mut bvh = build_point_bvh(&pts, 0.4, BuildParams::default());
        let monitor = SahMonitor::baseline(&bvh);
        assert!((monitor.quality_ratio(&bvh) - 1.0).abs() < 1e-9);
        // Heavy scrambling drift: points swap regions, so the frozen topology
        // groups far-apart points under common ancestors.
        let n = pts.len();
        for i in 0..n / 2 {
            pts.swap(i, n - 1 - i);
        }
        for (i, p) in pts.iter_mut().enumerate() {
            p.y += ((i % 13) as f32) * 0.9;
        }
        let stats = refit_point_bvh(&mut bvh, &pts, 0.4).unwrap();
        assert!(
            stats.sah_after > stats.sah_before * 1.2,
            "expected clear SAH degradation, got {} -> {}",
            stats.sah_before,
            stats.sah_after
        );
        assert!(monitor.quality_ratio(&bvh) > 1.2);
        // A rebuild restores the baseline-level quality.
        let rebuilt = build_point_bvh(&pts, 0.4, BuildParams::default());
        assert!(rebuilt.sah_cost() < bvh.sah_cost());
    }

    #[test]
    fn parallel_refit_matches_the_serial_oracle_at_every_cut_and_thread_count() {
        let mut pts = grid_points(9); // 729 points
        let bvh0 = build_point_bvh(&pts, 0.4, BuildParams::default());
        // Drift the points so the refit actually changes every box.
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += 0.4 * ((i % 11) as f32 - 5.0) / 5.0;
            p.y -= 0.2 * ((i % 5) as f32);
            p.z *= 0.9;
        }
        let moved: Vec<Aabb> = pts.iter().map(|&p| Aabb::cube(p, 0.8)).collect();
        let mut serial = bvh0.clone();
        let serial_stats = refit_bvh_serial(&mut serial, &moved).unwrap();
        for cut in [0u32, 1, 3, 6, 30] {
            for threads in [1usize, 2, 5] {
                let mut parallel = bvh0.clone();
                let stats = rtnn_parallel::with_thread_count(threads, || {
                    refit_bvh_with_cut(&mut parallel, &moved, cut).unwrap()
                });
                assert_eq!(stats, serial_stats, "cut={cut} threads={threads}");
                for (i, (a, b)) in parallel.nodes.iter().zip(&serial.nodes).enumerate() {
                    assert_eq!(a.aabb, b.aabb, "cut={cut} threads={threads} node {i}");
                    assert_eq!(a.kind, b.kind);
                }
                assert_eq!(parallel.prim_aabbs, serial.prim_aabbs);
            }
        }
        // The public dispatcher agrees too.
        let mut dispatched = bvh0.clone();
        let dispatched_stats = refit_bvh(&mut dispatched, &moved).unwrap();
        assert_eq!(dispatched_stats, serial_stats);
    }

    #[test]
    fn parallel_refit_handles_hand_reordered_layouts() {
        // Same hand-reordered layout as the serial test below: children do
        // not follow their parent, so the BFS cut must still be correct.
        let prim_aabbs = vec![
            Aabb::cube(Vec3::ZERO, 1.0),
            Aabb::cube(Vec3::new(4.0, 0.0, 0.0), 1.0),
        ];
        let mut bvh = build_bvh(
            &prim_aabbs,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        );
        let NodeKind::Internal { left, right } = bvh.nodes[0].kind else {
            panic!("expected internal root");
        };
        bvh.nodes.swap(left as usize, right as usize);
        bvh.nodes[0].kind = NodeKind::Internal {
            left: right,
            right: left,
        };
        let moved = vec![
            Aabb::cube(Vec3::new(0.0, 3.0, 0.0), 1.0),
            Aabb::cube(Vec3::new(4.0, -3.0, 0.0), 1.0),
        ];
        let mut serial = bvh.clone();
        refit_bvh_serial(&mut serial, &moved).unwrap();
        for cut in [0u32, 1, 2] {
            let mut parallel = bvh.clone();
            refit_bvh_with_cut(&mut parallel, &moved, cut).unwrap();
            validate_bvh(&parallel).unwrap();
            for (a, b) in parallel.nodes.iter().zip(&serial.nodes) {
                assert_eq!(a.aabb, b.aabb, "cut={cut}");
            }
        }
    }

    #[test]
    fn refit_works_on_hand_layouts_with_children_before_parents() {
        // Node 0 is an internal root whose children sit at indices 1 and 2 —
        // but build a layout where the *left* child is the last node, so a
        // naive reverse-index sweep would read a stale child box.
        let prim_aabbs = vec![
            Aabb::cube(Vec3::ZERO, 1.0),
            Aabb::cube(Vec3::new(4.0, 0.0, 0.0), 1.0),
        ];
        let mut bvh = build_bvh(
            &prim_aabbs,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        );
        // Swap the two leaves in the node array and fix up the root's child
        // indices, producing a valid but reordered layout.
        let NodeKind::Internal { left, right } = bvh.nodes[0].kind else {
            panic!("expected internal root");
        };
        bvh.nodes.swap(left as usize, right as usize);
        bvh.nodes[0].kind = NodeKind::Internal {
            left: right,
            right: left,
        };
        validate_bvh(&bvh).unwrap();
        let moved = vec![
            Aabb::cube(Vec3::new(0.0, 2.0, 0.0), 1.0),
            Aabb::cube(Vec3::new(4.0, -2.0, 0.0), 1.0),
        ];
        refit_bvh(&mut bvh, &moved).unwrap();
        validate_bvh(&bvh).unwrap();
        assert!(bvh.root_bounds().contains_aabb(&moved[0]));
        assert!(bvh.root_bounds().contains_aabb(&moved[1]));
    }
}
