//! The LBVH builder and its serial oracle.
//!
//! Primitive centroids are encoded as 63-bit Morton keys, sorted (in
//! parallel), and the hierarchy is emitted by splitting each sorted range at
//! the highest Morton bit that differs inside the range. Build time is
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
//!   → boxes into leaf-slot order (par_chunks_mut gather)
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

use crate::node::{Bvh, BvhNode, NodeKind};
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

/// Build a BVH over `prim_aabbs` with the given parameters.
///
/// An empty primitive list yields [`Bvh::empty`].
pub fn build_bvh(prim_aabbs: &[Aabb], params: BuildParams) -> Bvh {
    if prim_aabbs.is_empty() {
        return Bvh::empty();
    }
    assert!(
        params.max_leaf_size >= 1,
        "max_leaf_size must be at least 1"
    );
    let wall = Instant::now();
    let bvh = match params.builder {
        BvhBuilder::Lbvh => build_lbvh_parallel(prim_aabbs, params.max_leaf_size),
        BvhBuilder::LbvhSerial => build_lbvh_serial(prim_aabbs, params.max_leaf_size),
    };
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.counter_add("bvh.builds", 1);
        t.counter_add("bvh.build_prims", prim_aabbs.len() as u64);
        t.observe_wall("bvh.build.wall_ms", wall.elapsed().as_secs_f64() * 1e3);
    }
    bvh
}

/// Convenience: build a BVH where every primitive is the cube of width
/// `2 * radius` centred at a point — exactly Listing 1's `buildBVH(points,
/// radius)`.
pub fn build_point_bvh(points: &[Vec3], radius: f32, params: BuildParams) -> Bvh {
    let mut aabbs = vec![Aabb::EMPTY; points.len()];
    par_chunks_mut(&mut aabbs, 256, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Aabb::cube(points[start + off], 2.0 * radius);
        }
    });
    build_bvh(&aabbs, params)
}

// ---------------------------------------------------------------------------
// LBVH — serial oracle
// ---------------------------------------------------------------------------

/// The fully serial LBVH reference build: serial Morton map, serial stable
/// sort, recursive preorder emission. The parallel pipeline below must
/// produce a bit-identical tree at every thread count.
fn build_lbvh_serial(prim_aabbs: &[Aabb], max_leaf_size: u32) -> Bvh {
    let n = prim_aabbs.len();
    // Scene bounds over centroids for Morton normalisation.
    let mut centroid_bounds = Aabb::EMPTY;
    for a in prim_aabbs {
        centroid_bounds.grow_point(a.center());
    }
    let encoder = MortonEncoder::new(&centroid_bounds);
    // (morton, prim_id) pairs, sorted by the unique compound key.
    let mut keyed: Vec<(u64, u32)> = prim_aabbs
        .iter()
        .enumerate()
        .map(|(i, a)| (encoder.encode(a.center()), i as u32))
        .collect();
    keyed.sort_by_key(|&(k, id)| (k, id));

    let mut nodes = Vec::with_capacity(2 * n);
    let prim_indices: Vec<u32> = keyed.iter().map(|&(_, id)| id).collect();
    let codes: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
    let slot_aabbs: Vec<Aabb> = prim_indices
        .iter()
        .map(|&pid| prim_aabbs[pid as usize])
        .collect();

    // Recursive split on the highest differing Morton bit.
    struct Ctx<'a> {
        slot_aabbs: &'a [Aabb],
        codes: &'a [u64],
        max_leaf: usize,
    }

    fn emit(ctx: &Ctx, nodes: &mut Vec<BvhNode>, start: usize, end: usize) -> u32 {
        let count = end - start;
        let mut aabb = Aabb::EMPTY;
        for slot_aabb in &ctx.slot_aabbs[start..end] {
            aabb.grow_aabb(slot_aabb);
        }
        let node_index = nodes.len() as u32;
        if count <= ctx.max_leaf {
            nodes.push(BvhNode {
                aabb,
                kind: NodeKind::Leaf {
                    start: start as u32,
                    count: count as u32,
                },
            });
            return node_index;
        }
        let split = find_morton_split(&ctx.codes[start..end]) + start;
        nodes.push(BvhNode {
            aabb,
            kind: NodeKind::Internal { left: 0, right: 0 },
        });
        let left = emit(ctx, nodes, start, split);
        let right = emit(ctx, nodes, split, end);
        nodes[node_index as usize].kind = NodeKind::Internal { left, right };
        node_index
    }

    let ctx = Ctx {
        slot_aabbs: &slot_aabbs,
        codes: &codes,
        max_leaf: max_leaf_size as usize,
    };
    emit(&ctx, &mut nodes, 0, n);

    Bvh {
        nodes,
        prim_indices,
        prim_aabbs: slot_aabbs,
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
fn build_lbvh_parallel(prim_aabbs: &[Aabb], max_leaf_size: u32) -> Bvh {
    let n = prim_aabbs.len();

    // Stage 1 — centroid bounds, kept serial: the fold must visit the
    // primitives in exactly the oracle's order so the Morton grid (and with
    // it every code, split and box) is bit-equal.
    let mut centroid_bounds = Aabb::EMPTY;
    for a in prim_aabbs {
        centroid_bounds.grow_point(a.center());
    }
    let encoder = MortonEncoder::new(&centroid_bounds);

    // Stage 2 — Morton keys, parallel over primitives.
    let mut keyed: Vec<(u64, u32)> = vec![(0, 0); n];
    par_chunks_mut(&mut keyed, 256, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let i = start + off;
            *slot = (encoder.encode(prim_aabbs[i].center()), i as u32);
        }
    });

    // Stage 3 — parallel sort. The `(morton, id)` compound key is unique,
    // so the permutation does not depend on chunking or thread count.
    par_sort_by_key(&mut keyed, |&(k, id)| (k, id));

    let prim_indices: Vec<u32> = keyed.iter().map(|&(_, id)| id).collect();
    let codes: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
    // The boxes in leaf-slot order, gathered in parallel.
    let mut slot_aabbs = vec![Aabb::EMPTY; n];
    par_chunks_mut(&mut slot_aabbs, 256, |start, chunk| {
        for (slot_aabb, &pid) in chunk.iter_mut().zip(&prim_indices[start..]) {
            *slot_aabb = prim_aabbs[pid as usize];
        }
    });

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
    // level. Leaves fold their primitive subrange exactly like the oracle;
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
                    let mut aabb = Aabb::EMPTY;
                    for slot_aabb in &slot_aabbs[task.start as usize..task.end as usize] {
                        aabb.grow_aabb(slot_aabb);
                    }
                    task.aabb = aabb;
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
    let mut nodes = vec![
        BvhNode {
            aabb: Aabb::EMPTY,
            kind: NodeKind::Leaf { start: 0, count: 0 },
        };
        total
    ];
    for level in &levels {
        for task in level {
            nodes[task.node_index as usize] = BvhNode {
                aabb: task.aabb,
                kind: if task.split == u32::MAX {
                    NodeKind::Leaf {
                        start: task.start,
                        count: task.end - task.start,
                    }
                } else {
                    NodeKind::Internal {
                        left: task.node_index + 1,
                        right: task.node_index + 1 + task.left_subtree,
                    }
                },
            };
        }
    }

    Bvh {
        nodes,
        prim_indices,
        prim_aabbs: slot_aabbs,
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

    fn assert_bit_identical(a: &Bvh, b: &Bvh, context: &str) {
        assert_eq!(a.prim_indices, b.prim_indices, "{context}: prim order");
        assert_eq!(a.prim_aabbs, b.prim_aabbs, "{context}: prim AABBs");
        assert_eq!(a.nodes.len(), b.nodes.len(), "{context}: node count");
        for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(x.kind, y.kind, "{context}: node {i} kind");
            assert_eq!(x.aabb, y.aabb, "{context}: node {i} aabb");
        }
    }

    #[test]
    fn empty_input_gives_empty_bvh() {
        for b in all_builders() {
            let bvh = build_bvh(
                &[],
                BuildParams {
                    builder: b,
                    max_leaf_size: 4,
                },
            );
            assert!(bvh.is_empty());
        }
    }

    #[test]
    fn single_primitive() {
        let aabbs = [Aabb::cube(Vec3::new(1.0, 2.0, 3.0), 0.5)];
        for b in all_builders() {
            let bvh = build_bvh(
                &aabbs,
                BuildParams {
                    builder: b,
                    max_leaf_size: 4,
                },
            );
            assert_eq!(bvh.num_nodes(), 1);
            assert_eq!(bvh.num_primitives(), 1);
            assert!(bvh.nodes[0].is_leaf());
            validate_bvh(&bvh).unwrap();
        }
    }

    #[test]
    fn all_builders_produce_valid_trees() {
        let points = grid_points(6); // 216 points
        let aabbs: Vec<Aabb> = points.iter().map(|&p| Aabb::cube(p, 0.8)).collect();
        for b in all_builders() {
            for leaf in [1u32, 2, 4, 8] {
                let bvh = build_bvh(
                    &aabbs,
                    BuildParams {
                        builder: b,
                        max_leaf_size: leaf,
                    },
                );
                validate_bvh(&bvh).unwrap_or_else(|e| panic!("{b:?} leaf={leaf}: {e:?}"));
                assert_eq!(bvh.num_primitives(), aabbs.len());
                assert!(bvh.depth() >= 2);
            }
        }
    }

    #[test]
    fn duplicate_points_do_not_break_builders() {
        // All-equal Morton codes exercise the fallback midpoint split.
        let aabbs = vec![Aabb::cube(Vec3::splat(1.0), 0.2); 33];
        for b in all_builders() {
            let bvh = build_bvh(
                &aabbs,
                BuildParams {
                    builder: b,
                    max_leaf_size: 2,
                },
            );
            validate_bvh(&bvh).unwrap();
            assert_eq!(bvh.num_primitives(), 33);
        }
    }

    #[test]
    fn point_bvh_uses_width_2r() {
        let points = vec![Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)];
        let bvh = build_point_bvh(&points, 0.75, BuildParams::default());
        // Each leaf slot's box must be the cube of width 1.5 around its point.
        for (slot, &pid) in bvh.prim_indices.iter().enumerate() {
            assert_eq!(bvh.prim_aabbs[slot], Aabb::cube(points[pid as usize], 1.5));
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
        let aabbs: Vec<Aabb> = pts.iter().map(|&p| Aabb::cube(p, 0.6)).collect();
        for b in all_builders() {
            let bvh = build_bvh(
                &aabbs,
                BuildParams {
                    builder: b,
                    max_leaf_size: 4,
                },
            );
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
                let serial = build_bvh(
                    &pts.iter().map(|&p| Aabb::cube(p, 0.8)).collect::<Vec<_>>(),
                    BuildParams {
                        builder: BvhBuilder::LbvhSerial,
                        max_leaf_size: leaf,
                    },
                );
                for threads in [1usize, 2, 6] {
                    let parallel = rtnn_parallel::with_thread_count(threads, || {
                        build_bvh(
                            &pts.iter().map(|&p| Aabb::cube(p, 0.8)).collect::<Vec<_>>(),
                            BuildParams {
                                builder: BvhBuilder::Lbvh,
                                max_leaf_size: leaf,
                            },
                        )
                    });
                    assert_bit_identical(
                        &serial,
                        &parallel,
                        &format!("{name} leaf={leaf} threads={threads}"),
                    );
                    validate_bvh(&parallel).unwrap();
                }
            }
        }
    }
}
