//! The LBVH builder and its serial oracle.
//!
//! Every primitive is the cube of half width `h` centred at a point; the
//! cube centres are encoded as 63-bit Morton keys, sorted (in parallel),
//! and the hierarchy is emitted by splitting each sorted range at the
//! highest Morton bit that differs inside the range. Build time is
//! `O(n log n)` dominated by the sort — in practice linear in the primitive
//! count for the sizes the paper sweeps (Figure 15), which is the property
//! the bundling cost model relies on (`T_build = k1 · M`, Equation 3).
//!
//! ## The staged parallel pipeline ([`BvhBuilder::Lbvh`])
//!
//! ```text
//! centroid bounds (serial)            — the Morton grid must match the oracle
//!   → Morton keys      (par_chunks_mut)
//!   → (key, id) sort   (par_sort_by_key; unique compound keys)
//!   → leaf records {point, id} in slot order (par_chunks_mut gather)
//!   → split discovery  (level-wise, parallel within a level)
//!   → subtree sizes + AABBs (bottom-up over levels, parallel within a level)
//!   → preorder index assignment (top-down over levels, parallel)
//!   → node scatter (serial, trivial)
//! ```
//!
//! The pipeline produces a tree **bit-identical** to the serial oracle
//! ([`BvhBuilder::LbvhSerial`]) at every thread count: the sort permutation
//! is fixed by the unique `(morton, id)` compound key, and componentwise
//! `min`/`max` with a consistent tie rule is associative, so an internal
//! node's AABB (`left ∪ right`) equals the oracle's sequential fold over the
//! node's whole primitive range. The proptest suite pins this equality
//! across thread counts and drift generators.

use crate::node::{records_aabb, Bvh, BvhNode, LeafRecord, NodeKind};
use rtnn_math::morton::MortonEncoder;
use rtnn_math::{Aabb, Vec3};
use rtnn_parallel::{par_chunks_mut, par_sort_by_key};
use std::time::Instant;

/// Which LBVH construction path to run. Both emit the same tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BvhBuilder {
    /// Morton-code linear BVH built by the staged parallel pipeline
    /// (default; models the OptiX fast build path). Bit-identical to
    /// [`BvhBuilder::LbvhSerial`] at every thread count.
    #[default]
    Lbvh,
    /// The fully serial LBVH reference path: the oracle the parallel
    /// pipeline is validated against, and a way to opt out of host
    /// parallelism entirely.
    LbvhSerial,
}

/// Build-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    /// Which builder to run.
    pub builder: BvhBuilder,
    /// Maximum number of primitives per leaf.
    pub max_leaf_size: u32,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            builder: BvhBuilder::Lbvh,
            max_leaf_size: 4,
        }
    }
}

/// Build a BVH where every primitive is the cube of width `2 * radius`
/// centred at a point — exactly Listing 1's `buildBVH(points, radius)`.
/// Primitive `i` is `points[i]`; each slot's cube is bit-equal to
/// `Aabb::cube(points[i], 2.0 * radius)`.
///
/// An empty point list yields [`Bvh::empty`].
pub fn build_point_bvh(points: &[Vec3], radius: f32, params: BuildParams) -> Bvh {
    if points.is_empty() {
        return Bvh::empty();
    }
    assert!(
        params.max_leaf_size >= 1,
        "max_leaf_size must be at least 1"
    );
    // Halve the width the way `Aabb::cube` does (`2r · 0.5` is `r` unless
    // `2r` overflows).
    let half = 2.0 * radius * 0.5;
    let wall = Instant::now();
    let bvh = match params.builder {
        BvhBuilder::Lbvh => build_lbvh_parallel(points, half, params.max_leaf_size),
        BvhBuilder::LbvhSerial => build_lbvh_serial(points, half, params.max_leaf_size),
    };
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.counter_add("bvh.builds", 1);
        t.counter_add("bvh.build_prims", points.len() as u64);
        t.observe_wall("bvh.build.wall_ms", wall.elapsed().as_secs_f64() * 1e3);
    }
    bvh
}

/// The centre of the half-width-`half` cube at `point`, the point its
/// Morton key encodes. It can differ from `point` in the last bit.
#[inline]
fn cube_center(point: Vec3, half: f32) -> Vec3 {
    LeafRecord { point, id: 0 }.cube(half).center()
}

/// The bounds of the cube centres, folded in id order so the Morton grid
/// (and with it every code, split and box) is the same on both paths.
fn centroid_bounds(points: &[Vec3], half: f32) -> Aabb {
    let mut bounds = Aabb::EMPTY;
    for &p in points {
        bounds.grow_point(cube_center(p, half));
    }
    bounds
}

// ---------------------------------------------------------------------------
// LBVH — serial oracle
// ---------------------------------------------------------------------------

/// The fully serial LBVH reference build: serial Morton map, serial stable
/// sort, recursive preorder emission. The parallel pipeline below must
/// produce a bit-identical tree at every thread count.
fn build_lbvh_serial(points: &[Vec3], half: f32, max_leaf_size: u32) -> Bvh {
    let n = points.len();
    let encoder = MortonEncoder::new(&centroid_bounds(points, half));
    // (morton, prim_id) pairs, sorted by the unique compound key.
    let mut keyed: Vec<(u64, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (encoder.encode(cube_center(p, half)), i as u32))
        .collect();
    keyed.sort_by_key(|&(k, id)| (k, id));

    let mut nodes = Vec::with_capacity(2 * n);
    let codes: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
    let records: Vec<LeafRecord> = keyed
        .iter()
        .map(|&(_, id)| LeafRecord {
            point: points[id as usize],
            id,
        })
        .collect();

    // Recursive split on the highest differing Morton bit.
    struct Ctx<'a> {
        records: &'a [LeafRecord],
        half: f32,
        codes: &'a [u64],
        max_leaf: usize,
    }

    fn emit(ctx: &Ctx, nodes: &mut Vec<BvhNode>, start: usize, end: usize) -> u32 {
        let count = end - start;
        let aabb = records_aabb(&ctx.records[start..end], ctx.half);
        let node_index = nodes.len() as u32;
        if count <= ctx.max_leaf {
            nodes.push(BvhNode::new(
                aabb,
                NodeKind::Leaf {
                    start: start as u32,
                    count: count as u32,
                },
            ));
            return node_index;
        }
        let split = find_morton_split(&ctx.codes[start..end]) + start;
        nodes.push(BvhNode::new(aabb, NodeKind::Internal { left: 0, right: 0 }));
        let left = emit(ctx, nodes, start, split);
        let right = emit(ctx, nodes, split, end);
        nodes[node_index as usize].set_kind(NodeKind::Internal { left, right });
        node_index
    }

    let ctx = Ctx {
        records: &records,
        half,
        codes: &codes,
        max_leaf: max_leaf_size as usize,
    };
    emit(&ctx, &mut nodes, 0, n);

    Bvh {
        nodes,
        records,
        half_width: half,
        max_leaf_size,
    }
}

// ---------------------------------------------------------------------------
// LBVH — staged parallel pipeline
// ---------------------------------------------------------------------------

/// One range of the Morton-sorted primitive order at one level of the
/// split recursion. The pipeline materialises the recursion tree level by
/// level so every phase is a flat parallel pass over a `Vec<LevelTask>`.
#[derive(Clone, Copy)]
struct LevelTask {
    /// Primitive range `[start, end)` in the sorted order.
    start: u32,
    end: u32,
    /// Absolute split position; `u32::MAX` marks a leaf task.
    split: u32,
    /// Index of the left child task in the next level (right child is
    /// `first_child + 1`); `u32::MAX` for leaves.
    first_child: u32,
    /// Index of the parent task in the previous level; `u32::MAX` at root.
    parent: u32,
    /// Number of BVH nodes in this task's subtree.
    subtree: u32,
    /// `subtree` of the left child — the preorder offset of the right child.
    left_subtree: u32,
    /// Preorder index of this task's node in the final node array.
    node_index: u32,
    aabb: Aabb,
}

impl LevelTask {
    fn over(start: u32, end: u32, parent: u32) -> LevelTask {
        LevelTask {
            start,
            end,
            split: u32::MAX,
            first_child: u32::MAX,
            parent,
            subtree: 0,
            left_subtree: 0,
            node_index: 0,
            aabb: Aabb::EMPTY,
        }
    }
}

/// The staged parallel LBVH build (see the module docs for the pipeline
/// diagram). Bit-identical to [`build_lbvh_serial`] at every thread count.
fn build_lbvh_parallel(points: &[Vec3], half: f32, max_leaf_size: u32) -> Bvh {
    let n = points.len();

    // Stage 1 — centroid bounds, kept serial: the fold must visit the
    // primitives in exactly the oracle's order.
    let encoder = MortonEncoder::new(&centroid_bounds(points, half));

    // Stage 2 — Morton keys, parallel over primitives.
    let mut keyed: Vec<(u64, u32)> = vec![(0, 0); n];
    par_chunks_mut(&mut keyed, 256, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let i = start + off;
            *slot = (encoder.encode(cube_center(points[i], half)), i as u32);
        }
    });

    // Stage 3 — parallel sort. The `(morton, id)` compound key is unique,
    // so the permutation does not depend on chunking or thread count.
    par_sort_by_key(&mut keyed, |&(k, id)| (k, id));

    let codes: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
    // The leaf records in slot order, gathered in parallel.
    let mut records = vec![LeafRecord::default(); n];
    par_chunks_mut(&mut records, 256, |start, chunk| {
        for (record, &(_, id)) in chunk.iter_mut().zip(&keyed[start..]) {
            *record = LeafRecord {
                point: points[id as usize],
                id,
            };
        }
    });
    drop(keyed);

    // Stage 4 — split discovery, level-synchronous: every task of a level
    // finds its Morton split in parallel, then a serial prefix pass lays
    // out the next level (deterministic child order).
    let mut levels: Vec<Vec<LevelTask>> = Vec::new();
    let mut current = vec![LevelTask::over(0, n as u32, u32::MAX)];
    loop {
        par_chunks_mut(&mut current, 16, |_, chunk| {
            for task in chunk.iter_mut() {
                let count = task.end - task.start;
                task.split = if count <= max_leaf_size {
                    u32::MAX
                } else {
                    let range = &codes[task.start as usize..task.end as usize];
                    (find_morton_split(range) + task.start as usize) as u32
                };
            }
        });
        let mut next = Vec::new();
        for (ti, task) in current.iter_mut().enumerate() {
            if task.split != u32::MAX {
                task.first_child = next.len() as u32;
                next.push(LevelTask::over(task.start, task.split, ti as u32));
                next.push(LevelTask::over(task.split, task.end, ti as u32));
            }
        }
        let done = next.is_empty();
        levels.push(current);
        if done {
            break;
        }
        current = next;
    }

    // Stage 5 — bottom-up subtree sizes and AABBs, parallel within each
    // level. Leaves fold their slots' cubes exactly like the oracle;
    // internal boxes are `left ∪ right`, bit-equal to the oracle's full
    // fold because componentwise min/max with a consistent tie rule is
    // associative.
    for li in (0..levels.len()).rev() {
        let (head, tail) = levels.split_at_mut(li + 1);
        let children: &[LevelTask] = tail.first().map(|v| v.as_slice()).unwrap_or(&[]);
        par_chunks_mut(&mut head[li], 16, |_, chunk| {
            for task in chunk.iter_mut() {
                if task.split == u32::MAX {
                    task.subtree = 1;
                    task.aabb =
                        records_aabb(&records[task.start as usize..task.end as usize], half);
                } else {
                    let l = children[task.first_child as usize];
                    let r = children[task.first_child as usize + 1];
                    task.subtree = 1 + l.subtree + r.subtree;
                    task.left_subtree = l.subtree;
                    task.aabb = l.aabb.union(&r.aabb);
                }
            }
        });
    }

    // Stage 6 — preorder index assignment, top-down: each child only reads
    // its parent (previous level) and writes itself, so levels are data
    // parallel. The serial emitter visits `parent, left subtree, right
    // subtree`, so `left = parent + 1` and `right = parent + 1 + |left|`.
    levels[0][0].node_index = 0;
    for li in 0..levels.len().saturating_sub(1) {
        let (head, tail) = levels.split_at_mut(li + 1);
        let parents: &[LevelTask] = head[li].as_slice();
        par_chunks_mut(&mut tail[0], 16, |start, chunk| {
            for (off, task) in chunk.iter_mut().enumerate() {
                let j = (start + off) as u32;
                let p = parents[task.parent as usize];
                task.node_index = if j == p.first_child {
                    p.node_index + 1
                } else {
                    p.node_index + 1 + p.left_subtree
                };
            }
        });
    }

    // Stage 7 — scatter the finished tasks into their preorder slots. A
    // trivial linear pass, kept serial.
    let total = levels[0][0].subtree as usize;
    let mut nodes = vec![BvhNode::new(Aabb::EMPTY, NodeKind::Leaf { start: 0, count: 0 }); total];
    for level in &levels {
        for task in level {
            let kind = if task.split == u32::MAX {
                NodeKind::Leaf {
                    start: task.start,
                    count: task.end - task.start,
                }
            } else {
                NodeKind::Internal {
                    left: task.node_index + 1,
                    right: task.node_index + 1 + task.left_subtree,
                }
            };
            nodes[task.node_index as usize] = BvhNode::new(task.aabb, kind);
        }
    }

    Bvh {
        nodes,
        records,
        half_width: half,
        max_leaf_size,
    }
}

/// Position (relative to the slice start) at which to split a Morton-sorted
/// range: one past the last key sharing the highest differing bit with the
/// first key. Falls back to the midpoint when all keys are equal.
fn find_morton_split(codes: &[u64]) -> usize {
    let n = codes.len();
    debug_assert!(n >= 2);
    let first = codes[0];
    let last = codes[n - 1];
    if first == last {
        return n / 2;
    }
    let common = (first ^ last).leading_zeros();
    // Binary search for the first code whose prefix differs from `first`
    // beyond the common prefix.
    let mut lo = 0usize;
    let mut hi = n - 1;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if (first ^ codes[mid]).leading_zeros() > common {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi.clamp(1, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_bvh;

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

    fn all_builders() -> [BvhBuilder; 2] {
        [BvhBuilder::Lbvh, BvhBuilder::LbvhSerial]
    }

    fn params(builder: BvhBuilder, max_leaf_size: u32) -> BuildParams {
        BuildParams {
            builder,
            max_leaf_size,
        }
    }

    #[test]
    fn empty_input_gives_empty_bvh() {
        for b in all_builders() {
            assert!(build_point_bvh(&[], 0.5, params(b, 4)).is_empty());
        }
    }

    #[test]
    fn single_primitive() {
        for b in all_builders() {
            let bvh = build_point_bvh(&[Vec3::new(1.0, 2.0, 3.0)], 0.25, params(b, 4));
            assert_eq!(bvh.num_nodes(), 1);
            assert_eq!(bvh.num_primitives(), 1);
            assert!(bvh.nodes[0].is_leaf());
            validate_bvh(&bvh).unwrap();
        }
    }

    #[test]
    fn all_builders_produce_valid_trees() {
        let points = grid_points(6); // 216 points
        for b in all_builders() {
            for leaf in [1u32, 2, 4, 8] {
                let bvh = build_point_bvh(&points, 0.4, params(b, leaf));
                validate_bvh(&bvh).unwrap_or_else(|e| panic!("{b:?} leaf={leaf}: {e:?}"));
                assert_eq!(bvh.num_primitives(), points.len());
                assert!(bvh.depth() >= 2);
            }
        }
    }

    #[test]
    fn duplicate_points_do_not_break_builders() {
        // All-equal Morton codes exercise the fallback midpoint split.
        let points = vec![Vec3::splat(1.0); 33];
        for b in all_builders() {
            let bvh = build_point_bvh(&points, 0.1, params(b, 2));
            validate_bvh(&bvh).unwrap();
            assert_eq!(bvh.num_primitives(), 33);
        }
    }

    #[test]
    fn point_bvh_uses_width_2r() {
        let points = vec![Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)];
        let bvh = build_point_bvh(&points, 0.75, BuildParams::default());
        // Each leaf slot's box must be the cube of width 1.5 around its point.
        for record in &bvh.records {
            assert_eq!(record.point, points[record.id as usize]);
            assert_eq!(record.cube(bvh.half_width), Aabb::cube(record.point, 1.5));
        }
        validate_bvh(&bvh).unwrap();
    }

    #[test]
    fn planar_input_builds() {
        // KITTI-like: all points in a thin z slab.
        let mut pts = grid_points(8);
        for p in &mut pts {
            p.z *= 1e-3;
        }
        for b in all_builders() {
            let bvh = build_point_bvh(&pts, 0.3, params(b, 4));
            validate_bvh(&bvh).unwrap();
        }
    }

    #[test]
    fn morton_split_positions_are_interior() {
        let codes: Vec<u64> = vec![0, 1, 2, 3, 8, 9, 10, 11];
        let s = find_morton_split(&codes);
        assert!(s >= 1 && s < codes.len());
        assert_eq!(s, 4); // split where bit 3 flips
        assert_eq!(find_morton_split(&[7, 7, 7, 7]), 2); // equal codes -> midpoint
    }

    #[test]
    fn lbvh_depth_is_logarithmic_for_uniform_points() {
        let points = grid_points(10); // 1000 points
        let bvh = build_point_bvh(&points, 0.5, BuildParams::default());
        // A pathological chain would be ~250 deep; a healthy tree is O(log n).
        assert!(bvh.depth() <= 24, "depth {} too large", bvh.depth());
    }

    #[test]
    fn parallel_lbvh_is_bit_identical_to_the_serial_oracle() {
        // Mixed shapes: uniform grid, a thin slab, and heavy duplicates (the
        // midpoint-split fallback), across leaf sizes and thread counts.
        let mut slab = grid_points(7);
        for p in &mut slab {
            p.z *= 1e-3;
        }
        let mut dupes = grid_points(3);
        dupes.extend(vec![Vec3::splat(1.0); 40]);
        for (name, pts) in [
            ("grid", grid_points(6)),
            ("slab", slab),
            ("dupes", dupes),
            ("single", vec![Vec3::ZERO]),
        ] {
            for leaf in [1u32, 4] {
                let serial = build_point_bvh(&pts, 0.4, params(BvhBuilder::LbvhSerial, leaf));
                for threads in [1usize, 2, 6] {
                    let parallel = rtnn_parallel::with_thread_count(threads, || {
                        build_point_bvh(&pts, 0.4, params(BvhBuilder::Lbvh, leaf))
                    });
                    assert!(
                        parallel.bit_identical(&serial),
                        "{name} leaf={leaf} threads={threads}"
                    );
                    validate_bvh(&parallel).unwrap();
                }
            }
        }
    }
}
