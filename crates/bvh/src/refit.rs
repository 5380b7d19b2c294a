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
//! degradation; the `rtnn-dynamic` crate's rebuild policy acts on it, from
//! the SAH cost each refit folds once, after its last box.
//!
//! A large tree refits in parallel and in place ([`refit_bvh_with_cut`]):
//! in the builders' preorder layout every subtree below a cut depth is a
//! contiguous run of `Bvh::nodes`, so the array splits into disjoint
//! mutable runs, one pool worker sweeps each run from its last node to its
//! first (children follow their parent), and the few nodes above the cut
//! are folded last.

use crate::node::{records_aabb, Bvh, BvhNode, LeafRecord, NodeKind};
use rtnn_math::Vec3;
use rtnn_parallel::{current_num_threads, par_chunks_mut, par_map_collect_mut};
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
    /// SAH cost of the tree after the refit.
    pub sah_after: f64,
}

/// Refit `bvh` in place over its cubes moved to `points` (Listing 1's
/// mapping; the moving counterpart of [`crate::builder::build_point_bvh`])
/// without re-topologizing. The cubes keep the tree's half width. `points`
/// is indexed by primitive id, like the builder's input, and must have
/// exactly as many entries as the tree has primitives; each leaf record
/// takes its primitive's new point in one parallel pass, and the cubes are
/// derived from the records.
///
/// This is [`refit_bvh_with_cut`] at a cut depth that suits the pool: deep
/// enough to hand every worker several subtrees for load balancing, while
/// a serial run or a small tree sweeps the whole node array as one run on
/// the calling thread. The result is bit-identical to the serial oracle
/// ([`refit_bvh_serial`]) over the same points at every thread count,
/// because every node box is computed from exactly the same operands
/// either way.
///
/// In debug and test builds the refitted tree is re-validated with
/// [`crate::validate::validate_bvh`]; a violation is a bug in this function
/// or in the input tree and panics.
pub fn refit_point_bvh(bvh: &mut Bvh, points: &[Vec3]) -> Result<RefitStats, RefitError> {
    let wall = Instant::now();
    let threads = current_num_threads();
    let cut_depth = if threads <= 1 || bvh.nodes.len() < 4096 {
        0
    } else {
        (threads * 8).next_power_of_two().trailing_zeros()
    };
    let stats = refit_bvh_with_cut(bvh, points, cut_depth)?;
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.counter_add("bvh.refits", 1);
        t.observe_wall("bvh.refit.wall_ms", wall.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats)
}

/// The serial refit oracle over the tree's cubes moved to `points`
/// (indexed by primitive id): a serial pass over the leaf records, then
/// one explicit post-order traversal of the whole tree, which needs no
/// particular node layout. The cut path must match it bit for bit, and
/// falls back to its traversal for a layout that is not preorder.
pub fn refit_bvh_serial(bvh: &mut Bvh, points: &[Vec3]) -> Result<RefitStats, RefitError> {
    if !check_count(bvh, points.len())? {
        return Ok(empty_stats(bvh));
    }
    adopt_points(&mut bvh.records, points);
    refit_post_order(bvh);
    finish(bvh)
}

/// Recompute every node box from the adopted leaf records by one
/// iterative post-order traversal, which needs no particular node layout.
fn refit_post_order(bvh: &mut Bvh) {
    // `(node, expanded)` pairs; on the second visit both children are done.
    let mut stack: Vec<(u32, bool)> = vec![(0, false)];
    while let Some((idx, expanded)) = stack.pop() {
        match bvh.nodes[idx as usize].kind() {
            NodeKind::Leaf { start, count } => {
                let slots = &bvh.records[start as usize..(start + count) as usize];
                bvh.nodes[idx as usize].aabb = records_aabb(slots, bvh.half_width);
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
}

/// Parallel refit over the tree's cubes moved to `points`, with an
/// explicit subtree cut, in place. The leaf records take their new points
/// in one parallel pass. A breadth-first sweep from the root then collects
/// the *upper* nodes shallower than `cut_depth` and the frontier below
/// them: the subtree roots at the cut, plus any leaves above it. The
/// builders emit nodes in preorder, so each frontier subtree is the
/// contiguous run of nodes from its root to the next upper node or
/// frontier root. The node array is split into those runs
/// (`split_at_mut`), one pool worker refits a run by sweeping it from its
/// last node to its first (every child follows its parent), and a serial
/// top-up recomputes the upper nodes in reverse BFS order.
/// `cut_depth = 0` makes the whole tree one run.
///
/// A layout that is not preorder is detected during the sweep: some
/// frontier subtree is then not one run, so a node of it has a child
/// outside its run or before it. Such a tree is refitted by the serial
/// post-order instead.
///
/// Bit-identical to [`refit_bvh_serial`] for every cut depth and thread
/// count: each node's box is computed from the same operands in the same
/// order; only the schedule differs.
pub fn refit_bvh_with_cut(
    bvh: &mut Bvh,
    points: &[Vec3],
    cut_depth: u32,
) -> Result<RefitStats, RefitError> {
    if !check_count(bvh, points.len())? {
        return Ok(empty_stats(bvh));
    }
    par_chunks_mut(&mut bvh.records, 256, |_, chunk| {
        adopt_points(chunk, points)
    });

    // BFS from the root, listing every node it reaches as the start of a
    // run: `(node, is a frontier root)`. Upper nodes only end the runs
    // before them; in preorder each is a run of one.
    let mut queue: Vec<(u32, u32)> = vec![(0, 0)]; // (node, depth)
    let mut upper: Vec<u32> = Vec::new();
    let mut starts: Vec<(u32, bool)> = Vec::new();
    let mut head = 0;
    while head < queue.len() {
        let (idx, depth) = queue[head];
        head += 1;
        match bvh.nodes[idx as usize].kind() {
            NodeKind::Internal { left, right } if depth < cut_depth => {
                upper.push(idx);
                starts.push((idx, false));
                queue.push((left, depth + 1));
                queue.push((right, depth + 1));
            }
            _ => starts.push((idx, true)),
        }
    }
    starts.sort_unstable();

    let Bvh {
        nodes,
        records,
        half_width,
        ..
    } = bvh;
    let mut runs: Vec<(u32, &mut [BvhNode])> = Vec::with_capacity(starts.len());
    // The nodes from the current start on; node 0, the root, starts first.
    let mut rest: &mut [BvhNode] = nodes;
    for (i, &(first, frontier)) in starts.iter().enumerate() {
        let end = starts
            .get(i + 1)
            .map_or(first as usize + rest.len(), |s| s.0 as usize);
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(end - first as usize);
        rest = tail;
        if frontier {
            runs.push((first, run));
        }
    }
    let (records, half): (&[LeafRecord], f32) = (records, *half_width);
    let swept = par_map_collect_mut(&mut runs, |_, (first, run)| {
        refit_run(*first, run, records, half)
    });
    if !swept.into_iter().all(|ok| ok) {
        refit_post_order(bvh);
        return finish(bvh);
    }
    // Serial top-up: reverse BFS order guarantees both children of every
    // upper node — frontier roots or deeper upper nodes — are final.
    for &idx in upper.iter().rev() {
        let NodeKind::Internal { left, right } = bvh.nodes[idx as usize].kind() else {
            unreachable!("upper nodes are internal by construction");
        };
        bvh.nodes[idx as usize].aabb = bvh.nodes[left as usize]
            .aabb
            .union(&bvh.nodes[right as usize].aabb);
    }
    finish(bvh)
}

/// Refit the run of nodes `first..first + run.len()` in place, from its
/// last node to its first. Returns false, leaving the run part-refitted,
/// when a child lies outside the run or before its parent (a layout that
/// is not preorder).
fn refit_run(first: u32, run: &mut [BvhNode], records: &[LeafRecord], half: f32) -> bool {
    for i in (0..run.len()).rev() {
        run[i].aabb = match run[i].kind() {
            NodeKind::Leaf { start, count } => {
                records_aabb(&records[start as usize..(start + count) as usize], half)
            }
            NodeKind::Internal { left, right } => {
                let child = |c: u32| {
                    let c = c.wrapping_sub(first) as usize;
                    (c > i && c < run.len()).then_some(c)
                };
                let (Some(l), Some(r)) = (child(left), child(right)) else {
                    return false;
                };
                run[l].aabb.union(&run[r].aabb)
            }
        };
    }
    true
}

/// Count-check `supplied` primitives against the tree before a refit
/// writes any leaf record. Returns `Ok(false)` for the empty tree (nothing
/// to refit).
fn check_count(bvh: &Bvh, supplied: usize) -> Result<bool, RefitError> {
    if supplied != bvh.records.len() {
        return Err(RefitError::PrimitiveCountChanged {
            tree: bvh.records.len(),
            supplied,
        });
    }
    Ok(!bvh.nodes.is_empty())
}

/// Give each leaf record its primitive's point (`points` is indexed by
/// primitive id).
fn adopt_points(records: &mut [LeafRecord], points: &[Vec3]) {
    for record in records {
        record.point = points[record.id as usize];
    }
}

fn empty_stats(bvh: &Bvh) -> RefitStats {
    RefitStats {
        nodes_updated: 0,
        sah_after: bvh.sah_cost(),
    }
}

fn finish(bvh: &mut Bvh) -> Result<RefitStats, RefitError> {
    #[cfg(any(debug_assertions, test))]
    crate::validate::validate_bvh(bvh).expect("refit produced an invalid BVH");

    Ok(RefitStats {
        nodes_updated: bvh.nodes.len(),
        sah_after: bvh.sah_cost(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_point_bvh, BuildParams};
    use crate::validate::validate_bvh;
    use rtnn_math::{Aabb, Vec3};

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
        let stats = refit_point_bvh(&mut bvh, &pts).unwrap();
        assert_eq!(stats.nodes_updated, bvh.nodes.len());
        assert_eq!(stats.sah_after, reference.sah_cost());
        assert_eq!(bvh.nodes, reference.nodes);
        assert_eq!(bvh.records, reference.records);
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
        refit_point_bvh(&mut bvh, &pts).unwrap();
        validate_bvh(&bvh).unwrap();
        // Every leaf slot's box is the cube at its primitive's new position.
        for record in &bvh.records {
            let cube = record.cube(bvh.half_width);
            assert_eq!(cube, Aabb::cube(pts[record.id as usize], 0.8));
        }
        // The root must bound all new positions.
        let root = bvh.root_bounds();
        for &p in &pts {
            assert!(root.contains_point(p));
        }
    }

    #[test]
    fn refit_rejects_changed_primitive_count() {
        let pts = grid_points(3);
        let mut bvh = build_point_bvh(&pts, 0.5, BuildParams::default());
        let err = refit_point_bvh(&mut bvh, &pts[..10]).unwrap_err();
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
        let stats = refit_point_bvh(&mut bvh, &[]).unwrap();
        assert_eq!(stats.nodes_updated, 0);
        assert!(bvh.is_empty());
    }

    #[test]
    fn drift_degrades_the_refitted_sah() {
        let mut pts = grid_points(8);
        let mut bvh = build_point_bvh(&pts, 0.4, BuildParams::default());
        // Heavy scrambling drift: points swap regions, so the frozen topology
        // groups far-apart points under common ancestors.
        let n = pts.len();
        for i in 0..n / 2 {
            pts.swap(i, n - 1 - i);
        }
        for (i, p) in pts.iter_mut().enumerate() {
            p.y += ((i % 13) as f32) * 0.9;
        }
        let sah_before = bvh.sah_cost();
        let stats = refit_point_bvh(&mut bvh, &pts).unwrap();
        assert!(
            stats.sah_after > sah_before * 1.2,
            "expected clear SAH degradation, got {} -> {}",
            sah_before,
            stats.sah_after
        );
        // A rebuild restores the baseline-level quality.
        let rebuilt = build_point_bvh(&pts, 0.4, BuildParams::default());
        assert!(rebuilt.sah_cost() < bvh.sah_cost());
    }

    /// Depth of every leaf (root = 0).
    fn leaf_depths(bvh: &Bvh) -> Vec<u32> {
        let mut depths = Vec::new();
        let mut stack = vec![(0u32, 0u32)];
        while let Some((idx, depth)) = stack.pop() {
            match bvh.nodes[idx as usize].kind() {
                NodeKind::Leaf { .. } => depths.push(depth),
                NodeKind::Internal { left, right } => {
                    stack.push((left, depth + 1));
                    stack.push((right, depth + 1));
                }
            }
        }
        depths
    }

    /// Refit `bvh` over `moved` points through the cut path at cut depths
    /// 0–8 and 30 and at 1, 2 and 4 threads; every tree must equal the
    /// serial oracle's.
    fn assert_cut_refits_match_the_oracle(bvh: &Bvh, moved: &[Vec3], context: &str) {
        let mut serial = bvh.clone();
        let serial_stats = refit_bvh_serial(&mut serial, moved).unwrap();
        for cut in (0u32..=8).chain([30]) {
            for threads in [1usize, 2, 4] {
                let mut parallel = bvh.clone();
                let stats = rtnn_parallel::with_thread_count(threads, || {
                    refit_bvh_with_cut(&mut parallel, moved, cut).unwrap()
                });
                let context = format!("{context}: cut={cut} threads={threads}");
                assert_eq!(stats, serial_stats, "{context}");
                assert!(parallel.bit_identical(&serial), "{context}");
            }
        }
    }

    #[test]
    fn parallel_refit_matches_the_serial_oracle_at_every_cut_and_thread_count() {
        // A 9³ grid plus far outliers: the outliers split off near the
        // root, so some leaves sit above every cut from 2 to 8.
        let mut pts = grid_points(9);
        pts.extend([
            Vec3::new(60.0, 2.0, 3.0),
            Vec3::new(-40.0, -30.0, 5.0),
            Vec3::new(4.0, 90.0, -70.0),
        ]);
        let bvh0 = build_point_bvh(&pts, 0.4, BuildParams::default());
        let depths = leaf_depths(&bvh0);
        assert!(depths.iter().any(|&d| d < 2), "no leaf above cut 2");
        assert!(depths.iter().any(|&d| d > 8), "no subtree below cut 8");
        // Drift the points so the refit actually changes every box.
        for (i, p) in pts.iter_mut().enumerate() {
            p.x += 0.4 * ((i % 11) as f32 - 5.0) / 5.0;
            p.y -= 0.2 * ((i % 5) as f32);
            p.z *= 0.9;
        }
        assert_cut_refits_match_the_oracle(&bvh0, &pts, "grid + outliers");
        // The pool-cut refit agrees too.
        let mut serial = bvh0.clone();
        let serial_stats = refit_bvh_serial(&mut serial, &pts).unwrap();
        let mut dispatched = bvh0.clone();
        let dispatched_stats = refit_point_bvh(&mut dispatched, &pts).unwrap();
        assert_eq!(dispatched_stats, serial_stats);
        assert!(dispatched.bit_identical(&serial));
    }

    #[test]
    fn parallel_refit_handles_hand_reordered_layouts() {
        // Renumber the nodes of `bvh` by `order` (old index → new index,
        // keeping the root at 0), fixing up child indices.
        fn renumbered(bvh: &Bvh, order: impl Fn(usize) -> usize) -> Bvh {
            let mut out = bvh.clone();
            for (i, node) in bvh.nodes.iter().enumerate() {
                let mut node = *node;
                if let NodeKind::Internal { left, right } = node.kind() {
                    node.set_kind(NodeKind::Internal {
                        left: order(left as usize) as u32,
                        right: order(right as usize) as u32,
                    });
                }
                out.nodes[order(i)] = node;
            }
            validate_bvh(&out).unwrap();
            out
        }
        let pts = grid_points(6);
        let built = build_point_bvh(&pts, 0.5, BuildParams::default());
        let n = built.nodes.len();
        let moved: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| p + Vec3::new(0.1 * (i % 7) as f32, 0.0, -0.3))
            .collect();
        // Every child before its parent: no run sweep applies, so the cut
        // path falls back to the post-order at every depth.
        let reversed = renumbered(&built, |i| if i == 0 { 0 } else { n - i });
        assert_cut_refits_match_the_oracle(&reversed, &moved, "reversed");
        // The root's two children swapped in the array: the left child's
        // subtree now sits after the right one's.
        let NodeKind::Internal { left, right } = built.nodes[0].kind() else {
            panic!("expected internal root");
        };
        let (left, right) = (left as usize, right as usize);
        let swapped = renumbered(&built, |i| match i {
            0 => 0,
            i if i >= right => i - right + 1,
            i => i - left + 1 + (n - right),
        });
        assert_cut_refits_match_the_oracle(&swapped, &moved, "swapped subtrees");
        // Two leaves under the root, swapped in the array.
        let two = build_point_bvh(
            &[Vec3::ZERO, Vec3::new(4.0, 0.0, 0.0)],
            0.5,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        );
        let two_moved = [Vec3::new(0.0, 3.0, 0.0), Vec3::new(4.0, -3.0, 0.0)];
        let two_swapped = renumbered(&two, |i| [0, 2, 1][i]);
        assert_cut_refits_match_the_oracle(&two_swapped, &two_moved, "two leaves");
    }

    #[test]
    fn refit_works_on_hand_layouts_with_children_before_parents() {
        // Node 0 is an internal root whose children sit at indices 1 and 2 —
        // but build a layout where the *left* child is the last node, so a
        // naive reverse-index sweep would read a stale child box.
        let mut bvh = build_point_bvh(
            &[Vec3::ZERO, Vec3::new(4.0, 0.0, 0.0)],
            0.5,
            BuildParams {
                max_leaf_size: 1,
                ..BuildParams::default()
            },
        );
        // Swap the two leaves in the node array and fix up the root's child
        // indices, producing a valid but reordered layout.
        let NodeKind::Internal { left, right } = bvh.nodes[0].kind() else {
            panic!("expected internal root");
        };
        bvh.nodes.swap(left as usize, right as usize);
        bvh.nodes[0].set_kind(NodeKind::Internal {
            left: right,
            right: left,
        });
        validate_bvh(&bvh).unwrap();
        let moved = [Vec3::new(0.0, 2.0, 0.0), Vec3::new(4.0, -2.0, 0.0)];
        refit_point_bvh(&mut bvh, &moved).unwrap();
        validate_bvh(&bvh).unwrap();
        for p in moved {
            assert!(bvh.root_bounds().contains_aabb(&Aabb::cube(p, 1.0)));
        }
    }

    #[test]
    fn point_refit_matches_the_serial_oracle() {
        let width = 0.9;
        for n_per_axis in [4, 20] {
            let mut pts = grid_points(n_per_axis);
            let built = build_point_bvh(&pts, 0.5 * width, BuildParams::default());
            if n_per_axis == 20 {
                assert!(built.nodes.len() > 4096, "big enough to cut in parallel");
            }
            for (i, p) in pts.iter_mut().enumerate() {
                *p += Vec3::new(0.3 * (i % 7) as f32, -0.2 * (i % 3) as f32, 0.1);
            }
            let mut serial = built.clone();
            let serial_stats = refit_bvh_serial(&mut serial, &pts).unwrap();
            for threads in [1usize, 2, 4] {
                let mut tree = built.clone();
                let stats = rtnn_parallel::with_thread_count(threads, || {
                    refit_point_bvh(&mut tree, &pts).unwrap()
                });
                let context = format!("{n_per_axis}³ grid, {threads} threads");
                assert_eq!(stats, serial_stats, "{context}");
                assert!(tree.bit_identical(&serial), "{context}");
            }
            // A count mismatch is rejected before any slot is written.
            let mut tree = built.clone();
            let err = refit_point_bvh(&mut tree, &pts[1..]).unwrap_err();
            assert_eq!(
                err,
                RefitError::PrimitiveCountChanged {
                    tree: pts.len(),
                    supplied: pts.len() - 1
                }
            );
            assert!(tree.bit_identical(&built));
        }
        let mut empty = Bvh::empty();
        let stats = refit_point_bvh(&mut empty, &[]).unwrap();
        assert_eq!(stats, refit_bvh_serial(&mut Bvh::empty(), &[]).unwrap());
        assert!(matches!(
            refit_point_bvh(&mut empty, &[Vec3::ZERO]),
            Err(RefitError::PrimitiveCountChanged {
                tree: 0,
                supplied: 1
            })
        ));
    }
}
