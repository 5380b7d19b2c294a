//! The launch path: map launch indices to rays, group 32 consecutive rays
//! into a warp, traverse the BVH for every ray, run the shaders, and charge
//! the work to the simulated device.
//!
//! The warp grouping matters: the paper's Section 3.2.1 observes that
//! "OptiX groups every 32 adjacent rays generated in the RG shader into a
//! warp", so adjacent launch indices that correspond to spatially distant
//! queries diverge. The query-scheduling optimisation exists precisely to
//! exploit this grouping, and the simulator reproduces it: a warp's RT-core
//! time is driven by the *union* of the BVH nodes its rays visit, its
//! shader time by its slowest lane, and its memory traffic by the distinct
//! cache lines it touches.
//!
//! # Finding a warp's union
//!
//! A warp traverses each of its rays with
//! [`Bvh::traverse_marked`](rtnn_bvh::Bvh::traverse_marked) into one
//! [`VisitMarks`] set, which sets a bit for every node or primitive slot
//! any of the warp's rays reads. Once the rays are done, the warp
//! popcounts the marked bitset words for its distinct node and primitive
//! counts: its RT-core tests and its issued SIMT work. For memory, the
//! marks hand over their node words and then their primitive words in
//! ascending order. A line holds `line_bytes / 32` records, so each word
//! folds to one bit per cache line (one line per slot when a line is
//! smaller than a 32-byte record) and the walk takes one step per line.
//! The lines come out ascending and each once. The shard gets the two runs
//! of lines as one ascending set without a sort of slots, addresses or
//! lines, so the cost grows with the distinct lines rather than with every
//! ray's visits. The node records reach the primitive region only past
//! about 25M nodes (`BVH_PRIMS_BASE − BVH_NODES_BASE` over 32 bytes a
//! node); from there the two runs interleave, and they are merged.
//!
//! # What a ray costs the host
//!
//! The per-ray loop is the traversal and the shaders, with nothing
//! allocated, counted or looked up per ray on top:
//! - the traversal stack lives in the thread's reused marks;
//! - the ray reads 32-byte nodes and, at a leaf, its adjacent 16-byte
//!   `{point, id}` records ([`Bvh::records`](rtnn_bvh::Bvh::records), in
//!   the leaf-slot order the simulator bills primitive records in), from
//!   which it derives each slot's cube;
//! - the IS shader gets the ray's origin and the hit record, so a KNN
//!   candidate costs its distance test and, if it can still make the top k,
//!   one `u64` key pushed into a buffer;
//! - a mark only sets a bit, and the counts are taken once per warp;
//! - the RTNN programs reserve their payloads once, when the ray starts.
//!
//! Each host thread keeps one footprint (the marks, their stack and the
//! line buffer) in a thread-local and reuses it for every warp it runs, in
//! every launch. Before its first ray, a warp clears what the thread's
//! previous warp marked, by zeroing only the bitset words that warp
//! touched, and each ray empties the stack before it starts. This also
//! covers a warp that unwound mid-way because a shader panicked. Marks
//! never outlive the next warp on their thread, so the reuse cannot change
//! an answer or a simulated number.
//!
//! Memory: a structure holds about 0.71 nodes per point, so about 39 host
//! bytes per point (0.71 × 32 B of nodes and a 16 B record); the simulator
//! bills its own record sizes by slot index, whatever the host layout. A
//! thread's footprint holds one bit per node slot and per primitive slot
//! of the largest BVH it has traversed, plus at most one 32-bit word index
//! per 64 of those slots, for the life of the thread (the worker pool's
//! threads live as long as the process), a stack as deep as the deepest
//! ray it has traversed, and line capacity for the largest warp footprint
//! it has metered. At the paper's 12M-point scale the bits take about
//! 2.6 MB per thread and the word lists at most 1.3 MB (u32 visit stamps
//! would take about 82 MB).

use crate::accel::{NODE_BYTES, PRIM_BYTES};
use crate::shader::{IsVerdict, RayProgram};
use rtnn_bvh::{Bvh, TraversalControl, VisitMarks};
use rtnn_gpusim::kernel::{BVH_NODES_BASE, BVH_PRIMS_BASE};
use rtnn_gpusim::{Device, IsShaderKind, KernelMetrics, SmShard};
use std::cell::RefCell;
use std::ops::Range;

/// Aggregate counters for one launch, merging device metrics with the
/// ray-tracing-specific counters the paper's figures plot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchMetrics {
    /// Device-level metrics (simulated time, cycles, caches, occupancy).
    pub kernel: KernelMetrics,
    /// Number of rays that produced a ray in the RG shader.
    pub active_rays: u64,
    /// Total BVH node visits summed over rays (the paper's "tree traversals").
    pub node_visits: u64,
    /// Total primitive-AABB tests inside leaves.
    pub prim_tests: u64,
    /// Total IS shader invocations (Figure 8's y-axis).
    pub is_calls: u64,
    /// Rays that were terminated early by the IS/AH shader.
    pub terminated_rays: u64,
    /// Rays for which at least one intersection was accepted (CH shader ran).
    pub hit_rays: u64,
}

impl LaunchMetrics {
    /// Merge another launch executed back-to-back with this one.
    pub fn merge_sequential(&mut self, other: &LaunchMetrics) {
        self.kernel.merge_sequential(&other.kernel);
        self.active_rays += other.active_rays;
        self.node_visits += other.node_visits;
        self.prim_tests += other.prim_tests;
        self.is_calls += other.is_calls;
        self.terminated_rays += other.terminated_rays;
        self.hit_rays += other.hit_rays;
    }

    /// Simulated launch time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.kernel.time_ms
    }
}

/// The result of one pipeline launch: the final per-ray payloads (indexed by
/// launch index) and the launch metrics.
#[derive(Debug, Clone)]
pub struct LaunchResult<P> {
    /// Final payload of every launch index (default-initialised for masked
    /// lanes).
    pub payloads: Vec<P>,
    /// Simulated execution metrics.
    pub metrics: LaunchMetrics,
}

/// Per-ray outputs of a warp.
#[derive(Default, Clone)]
struct RayOutput<P> {
    payload: P,
    node_visits: u64,
    prim_tests: u64,
    is_calls: u64,
    terminated: bool,
    hit: bool,
    active: bool,
}

/// A warp's footprint and the cache lines built from it.
#[derive(Default)]
struct WarpFootprint {
    marks: VisitMarks,
    lines: Vec<u64>,
}

impl WarpFootprint {
    /// Run the rays `range` of one warp and charge their work to `shard`,
    /// sized by the distinct slots they read.
    fn run_warp<P: RayProgram>(
        &mut self,
        bvh: &Bvh,
        program: &P,
        is_kind: IsShaderKind,
        warp_size: f64,
        range: Range<usize>,
        shard: &mut SmShard,
    ) -> Vec<RayOutput<P::Payload>> {
        let WarpFootprint { marks, lines } = self;
        // Marks left by this thread's previous warp, one that unwound
        // mid-way included, must not count towards this one.
        marks.clear();
        let mut warp_results: Vec<RayOutput<P::Payload>> = Vec::with_capacity(range.len());
        let mut sum_lane_nodes = 0u64;
        let mut sum_lane_is = 0u64;

        for launch_index in range {
            let mut out = RayOutput::<P::Payload>::default();
            if let Some((ray, mut payload)) = program.ray_gen(launch_index as u32) {
                out.active = true;
                let mut hit_any = false;
                let stats = bvh.traverse_marked(&ray, marks, |prim| {
                    match program.intersection(ray.origin, prim, &mut payload) {
                        IsVerdict::Ignore => TraversalControl::Continue,
                        IsVerdict::Accept => {
                            hit_any = true;
                            TraversalControl::Continue
                        }
                        IsVerdict::AcceptAndTerminate => {
                            hit_any = true;
                            TraversalControl::Terminate
                        }
                    }
                });
                if hit_any {
                    program.closest_hit(launch_index as u32, &mut payload);
                } else {
                    program.miss(launch_index as u32, &mut payload);
                }
                out.node_visits = stats.nodes_visited;
                out.prim_tests = stats.prim_tests;
                out.is_calls = stats.is_calls;
                out.terminated = stats.terminated;
                out.hit = hit_any;
                out.payload = payload;

                sum_lane_nodes += stats.nodes_visited;
                sum_lane_is += stats.is_calls;
            }
            warp_results.push(out);
        }

        // RT-core work: one node test per distinct node, one AABB test per
        // distinct primitive slot the warp scanned. A node shared by several
        // rays in the warp is broadcast, so it is charged once.
        let distinct_nodes = marks.node_count();
        shard.charge_rt_node_tests(distinct_nodes as f64);
        shard.charge_rt_prim_tests(marks.prim_count() as f64);
        // SM shader work: IS invocations interrupt hardware traversal at
        // lane-specific points, so they are only partially SIMT-parallel;
        // every lane's IS calls are charged, packed `is_simt_width` wide.
        let is_width = shard.cost().is_simt_width.max(1.0);
        shard.charge_is_calls(sum_lane_is as f64 / is_width, is_kind);

        // Memory traffic: the lines of the BVH nodes and primitive records
        // the warp read.
        let (nodes, prims) = marks.ascending();
        footprint_lines(lines, nodes.words(), prims.words(), shard.line_shift());
        shard.access_lines(lines);

        // SIMT efficiency: useful lane-work over issued warp-work.
        let issued = (distinct_nodes as f64).max(1e-9) * warp_size;
        shard.note_simt_work(sum_lane_nodes as f64, issued);

        warp_results
    }
}

/// Fill `lines` with the distinct L1 lines (`addr >> line_shift`) of the
/// marked node slots `nodes` and primitive slots `prims`, both given as
/// ascending bitset words (see `AscendingSlots::words`), in ascending
/// order.
fn footprint_lines(
    lines: &mut Vec<u64>,
    nodes: impl Iterator<Item = (u32, u64)>,
    prims: impl Iterator<Item = (u32, u64)>,
    line_shift: u32,
) {
    lines.clear();
    push_run(lines, nodes, BVH_NODES_BASE, NODE_BYTES, line_shift);
    let split = lines.len();
    push_run(lines, prims, BVH_PRIMS_BASE, PRIM_BYTES, line_shift);
    if split > 0 && split < lines.len() && lines[split] <= lines[split - 1] {
        merge_runs(lines, split);
    }
}

/// Append to `lines` the distinct lines of the records at
/// `base + slot · record_bytes` for the slots marked in `words`.
///
/// When a line holds `2^g` records (`g = line_shift − log2 record_bytes`),
/// each aligned group of `2^g` slots shares one line, so each word is
/// folded to one bit per group and the walk costs one step per line, not
/// per slot. A line no larger than a record gives one line per slot; a
/// line wider than a word's 64 records gives one line per word, and
/// consecutive words on one line collapse. Both rest on `base` starting a
/// word's span of records and on a power-of-two `record_bytes` (asserted
/// at compile time below), so no group or word straddles two lines.
fn push_run(
    lines: &mut Vec<u64>,
    words: impl Iterator<Item = (u32, u64)>,
    base: u64,
    record_bytes: u64,
    line_shift: u32,
) {
    let group_shift = line_shift.saturating_sub(record_bytes.trailing_zeros());
    // The bits that start a group: every `2^g`-th bit, or only bit 0 once
    // a group spans the whole word.
    let group_starts = match group_shift {
        0..=5 => u64::MAX / ((1u64 << (1u32 << group_shift)) - 1),
        _ => 1,
    };
    let mut last = None;
    for (w, bits) in words {
        // OR each group's bits into its first bit.
        let mut folded = bits;
        for step in 0..group_shift.min(6) {
            folded |= folded >> (1u32 << step);
        }
        folded &= group_starts;
        while folded != 0 {
            let slot = u64::from(w) * 64 + u64::from(folded.trailing_zeros());
            folded &= folded - 1;
            let line = (base + slot * record_bytes) >> line_shift;
            if last != Some(line) {
                lines.push(line);
                last = Some(line);
            }
        }
    }
}

// `push_run`'s fold: a bitset word's 64 records start a line of any size
// up to 64 records, and lie inside one line of any larger size.
const _: () = assert!(
    NODE_BYTES.is_power_of_two()
        && PRIM_BYTES.is_power_of_two()
        && BVH_NODES_BASE.is_multiple_of(64 * NODE_BYTES)
        && BVH_PRIMS_BASE.is_multiple_of(64 * PRIM_BYTES)
);

/// Merge the ascending distinct runs `lines[..split]` and `lines[split..]`
/// into one ascending distinct sequence.
fn merge_runs(lines: &mut Vec<u64>, split: usize) {
    let (a, b) = lines.split_at(split);
    let mut merged = Vec::with_capacity(lines.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        merged.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    *lines = merged;
}

thread_local! {
    /// The footprint every warp this thread runs reuses.
    static FOOTPRINT: RefCell<WarpFootprint> = RefCell::new(WarpFootprint::default());
}

/// A ray-casting pipeline bound to a device.
#[derive(Debug, Clone)]
pub struct Pipeline<'d> {
    device: &'d Device,
}

impl<'d> Pipeline<'d> {
    /// Create a pipeline on `device`.
    pub fn new(device: &'d Device) -> Self {
        Pipeline { device }
    }

    /// The device this pipeline launches on.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Launch `num_rays` rays of `program` against `bvh`.
    ///
    /// `is_kind` selects the simulated cost of each IS invocation (range
    /// with/without sphere test, or KNN) — see
    /// [`rtnn_gpusim::CostModel`].
    pub fn launch<P: RayProgram>(
        &self,
        bvh: &Bvh,
        num_rays: usize,
        program: &P,
        is_kind: IsShaderKind,
    ) -> LaunchResult<P::Payload> {
        let warp_size = self.device.config().warp_size as f64;

        let (outputs, kernel) = self.device.run_warps(num_rays, |range, shard| {
            let run = |footprint: &mut WarpFootprint| {
                footprint.run_warp(bvh, program, is_kind, warp_size, range, shard)
            };
            FOOTPRINT.with(|cell| match cell.try_borrow_mut() {
                Ok(mut footprint) => run(&mut footprint),
                // A shader that launches from inside a warp gets its own.
                Err(_) => run(&mut WarpFootprint::default()),
            })
        });

        let mut metrics = LaunchMetrics {
            kernel,
            ..Default::default()
        };
        let mut payloads = Vec::with_capacity(outputs.len());
        for out in outputs {
            metrics.active_rays += out.active as u64;
            metrics.node_visits += out.node_visits;
            metrics.prim_tests += out.prim_tests;
            metrics.is_calls += out.is_calls;
            metrics.terminated_rays += out.terminated as u64;
            metrics.hit_rays += out.hit as u64;
            payloads.push(out.payload);
        }
        LaunchResult { payloads, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::{build_point_bvh, BuildParams, LeafRecord};
    use rtnn_math::{Ray, Vec3};

    /// The unoptimised RTNN range-search shader from Listing 1, specialised
    /// for tests: payload is the list of neighbor ids, capped at `k`.
    struct RangeProgram {
        queries: Vec<Vec3>,
        radius: f32,
        k: usize,
    }

    impl RayProgram for RangeProgram {
        type Payload = Vec<u32>;
        fn ray_gen(&self, launch_index: u32) -> Option<(Ray, Vec<u32>)> {
            self.queries
                .get(launch_index as usize)
                .map(|&q| (Ray::point_probe(q), Vec::new()))
        }
        fn intersection(
            &self,
            origin: Vec3,
            prim: &LeafRecord,
            payload: &mut Vec<u32>,
        ) -> IsVerdict {
            if origin.distance_squared(prim.point) < self.radius * self.radius {
                payload.push(prim.id);
                if payload.len() >= self.k {
                    IsVerdict::AcceptAndTerminate
                } else {
                    IsVerdict::Accept
                }
            } else {
                IsVerdict::Ignore
            }
        }
    }

    fn cloud() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    fn brute_force_range(points: &[Vec3], q: Vec3, r: f32) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &p)| q.distance_squared(p) < r * r)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort();
        out
    }

    #[test]
    fn launch_produces_correct_neighbor_sets() {
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.1;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        let queries: Vec<Vec3> = vec![
            Vec3::new(3.5, 3.5, 3.5),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(7.2, 6.9, 7.1),
        ];
        let program = RangeProgram {
            queries: queries.clone(),
            radius,
            k: 1000,
        };
        let pipeline = Pipeline::new(&device);
        let result = pipeline.launch(&bvh, queries.len(), &program, IsShaderKind::RangeSphereTest);
        for (qi, q) in queries.iter().enumerate() {
            let mut got = result.payloads[qi].clone();
            got.sort();
            assert_eq!(got, brute_force_range(&points, *q, radius), "query {qi}");
        }
        assert_eq!(result.metrics.active_rays, 3);
        assert!(result.metrics.is_calls >= result.metrics.hit_rays);
        assert!(result.metrics.time_ms() > 0.0);
    }

    #[test]
    fn termination_caps_the_neighbor_count() {
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 2.5;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        let queries = vec![Vec3::new(4.0, 4.0, 4.0)];
        let program = RangeProgram {
            queries,
            radius,
            k: 5,
        };
        let result =
            Pipeline::new(&device).launch(&bvh, 1, &program, IsShaderKind::RangeSphereTest);
        assert_eq!(result.payloads[0].len(), 5);
        assert_eq!(result.metrics.terminated_rays, 1);
    }

    #[test]
    fn masked_lanes_do_no_work() {
        let device = Device::rtx_2080();
        let points = cloud();
        let bvh = build_point_bvh(&points, 1.0, BuildParams::default());
        struct MaskedProgram;
        impl RayProgram for MaskedProgram {
            type Payload = u32;
            fn ray_gen(&self, _: u32) -> Option<(Ray, u32)> {
                None
            }
            fn intersection(&self, _: Vec3, _: &LeafRecord, _: &mut u32) -> IsVerdict {
                IsVerdict::Ignore
            }
        }
        let result =
            Pipeline::new(&device).launch(&bvh, 100, &MaskedProgram, IsShaderKind::RangeSphereTest);
        assert_eq!(result.metrics.active_rays, 0);
        assert_eq!(result.metrics.is_calls, 0);
        assert_eq!(result.metrics.node_visits, 0);
        assert_eq!(result.payloads.len(), 100);
    }

    #[test]
    fn miss_and_closest_hit_dispatch() {
        let device = Device::rtx_2080();
        let points = vec![Vec3::ZERO];
        let bvh = build_point_bvh(&points, 0.5, BuildParams::default());
        /// Payload records which terminal shader ran.
        struct TerminalProgram;
        impl RayProgram for TerminalProgram {
            type Payload = (bool, bool); // (closest_hit_ran, miss_ran)
            fn ray_gen(&self, launch_index: u32) -> Option<(Ray, (bool, bool))> {
                let q = if launch_index == 0 {
                    Vec3::ZERO
                } else {
                    Vec3::new(100.0, 0.0, 0.0)
                };
                Some((Ray::point_probe(q), (false, false)))
            }
            fn intersection(&self, _: Vec3, _: &LeafRecord, _: &mut (bool, bool)) -> IsVerdict {
                IsVerdict::Accept
            }
            fn closest_hit(&self, _: u32, payload: &mut (bool, bool)) {
                payload.0 = true;
            }
            fn miss(&self, _: u32, payload: &mut (bool, bool)) {
                payload.1 = true;
            }
        }
        let result =
            Pipeline::new(&device).launch(&bvh, 2, &TerminalProgram, IsShaderKind::RangeSphereTest);
        assert_eq!(result.payloads[0], (true, false));
        assert_eq!(result.payloads[1], (false, true));
        assert_eq!(result.metrics.hit_rays, 1);
    }

    #[test]
    fn a_warp_that_unwound_leaves_no_marks_behind() {
        // A shader panic unwinds out of a warp after four rays have marked
        // slots the next launch's rays never read; that launch, on the same
        // thread, must meter exactly what it meters on a fresh thread.
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.2;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        let program = |z: f32| RangeProgram {
            queries: (0..40)
                .map(|i| Vec3::new((i % 8) as f32, (i / 8) as f32, z))
                .collect(),
            radius,
            k: 1000,
        };
        let (near, far) = (program(0.0), program(7.0));
        /// A program with a shader fault on the fifth ray of a warp.
        struct FaultOnFifthRay<'a>(&'a RangeProgram);
        impl RayProgram for FaultOnFifthRay<'_> {
            type Payload = Vec<u32>;
            fn ray_gen(&self, launch_index: u32) -> Option<(Ray, Vec<u32>)> {
                assert_ne!(launch_index % 32, 4, "injected shader fault");
                self.0.ray_gen(launch_index)
            }
            fn intersection(
                &self,
                o: Vec3,
                prim: &LeafRecord,
                payload: &mut Vec<u32>,
            ) -> IsVerdict {
                self.0.intersection(o, prim, payload)
            }
        }
        let one_thread = |f: &dyn Fn() -> LaunchMetrics| rtnn_parallel::with_thread_count(1, f);
        let launch_near = || {
            Pipeline::new(&device)
                .launch(&bvh, 40, &near, IsShaderKind::RangeSphereTest)
                .metrics
        };
        let after_fault = one_thread(&|| {
            let faulty = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Pipeline::new(&device).launch(
                    &bvh,
                    40,
                    &FaultOnFifthRay(&far),
                    IsShaderKind::RangeSphereTest,
                )
            }));
            assert!(faulty.is_err(), "the shader fault must reach the caller");
            launch_near()
        });
        let fresh = std::thread::scope(|s| s.spawn(|| one_thread(&launch_near)).join().unwrap());
        // Debug prints every f64 in its shortest round-trip form, so equal
        // strings mean bit-equal metrics.
        assert_eq!(format!("{after_fault:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn a_shader_may_launch_from_inside_a_warp() {
        // The inner launch runs its warp on the thread whose footprint the
        // outer warp holds, and must meter exactly as a launch of its own.
        let device = Device::rtx_2080();
        let points = cloud();
        let bvh = build_point_bvh(&points, 1.1, BuildParams::default());
        let inner = RangeProgram {
            queries: vec![Vec3::new(3.5, 3.5, 3.5)],
            radius: 1.1,
            k: 1000,
        };
        /// Launches `inner` from its miss shader.
        struct Nesting<'a> {
            device: &'a Device,
            bvh: &'a Bvh,
            inner: &'a RangeProgram,
        }
        impl RayProgram for Nesting<'_> {
            type Payload = Option<LaunchMetrics>;
            fn ray_gen(&self, _: u32) -> Option<(Ray, Option<LaunchMetrics>)> {
                Some((Ray::point_probe(Vec3::splat(-50.0)), None))
            }
            fn intersection(
                &self,
                _: Vec3,
                _: &LeafRecord,
                _: &mut Option<LaunchMetrics>,
            ) -> IsVerdict {
                IsVerdict::Ignore
            }
            fn miss(&self, _: u32, payload: &mut Option<LaunchMetrics>) {
                let launch = Pipeline::new(self.device).launch(
                    self.bvh,
                    1,
                    self.inner,
                    IsShaderKind::RangeSphereTest,
                );
                *payload = Some(launch.metrics);
            }
        }
        let outer = Nesting {
            device: &device,
            bvh: &bvh,
            inner: &inner,
        };
        let nested = rtnn_parallel::with_thread_count(1, || {
            Pipeline::new(&device).launch(&bvh, 1, &outer, IsShaderKind::RangeSphereTest)
        })
        .payloads[0]
            .clone()
            .expect("the miss shader ran");
        let direct = Pipeline::new(&device)
            .launch(&bvh, 1, &inner, IsShaderKind::RangeSphereTest)
            .metrics;
        assert!(direct.node_visits > 0);
        assert_eq!(format!("{nested:?}"), format!("{direct:?}"));
    }

    /// The reference for `footprint_lines`: every slot's address mapped to
    /// its line, then sorted and deduplicated.
    fn lines_by_sorting(nodes: &[u32], prims: &[u32], line_shift: u32) -> Vec<u64> {
        let addresses = nodes
            .iter()
            .map(|&n| BVH_NODES_BASE + n as u64 * NODE_BYTES)
            .chain(
                prims
                    .iter()
                    .map(|&p| BVH_PRIMS_BASE + p as u64 * PRIM_BYTES),
            );
        let mut lines: Vec<u64> = addresses.map(|a| a >> line_shift).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// The ascending bitset words of the ascending slot list `slots`.
    fn words_of(slots: &[u32]) -> Vec<(u32, u64)> {
        let mut words: Vec<(u32, u64)> = Vec::new();
        for &slot in slots {
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            match words.last_mut() {
                Some((last, bits)) if *last == w => *bits |= bit,
                _ => words.push((w, bit)),
            }
        }
        words
    }

    /// `footprint_lines` over ascending slot lists.
    fn lines_by_walking(nodes: &[u32], prims: &[u32], line_shift: u32) -> Vec<u64> {
        let mut lines = vec![7]; // stale content the call must drop
        footprint_lines(
            &mut lines,
            words_of(nodes).into_iter(),
            words_of(prims).into_iter(),
            line_shift,
        );
        lines
    }

    #[test]
    fn warp_lines_equal_the_sorted_lines_of_their_slots() {
        let points: Vec<Vec3> = (0..3000u32)
            .map(|i| {
                let h = i.wrapping_mul(2_654_435_761);
                Vec3::new(
                    (h % 97) as f32,
                    (h / 97 % 89) as f32,
                    (h / 8633 % 83) as f32,
                ) * 0.1
            })
            .collect();
        let bvh = build_point_bvh(&points, 0.4, BuildParams::default());
        let mut marks = VisitMarks::default();
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for warp in 0..200 {
            marks.clear();
            let rays = 1 + next() % 32;
            for _ in 0..rays {
                let q = points[(next() % points.len() as u64) as usize];
                let jitter = Vec3::new((next() % 7) as f32, (next() % 5) as f32, 0.0) * 0.05;
                bvh.traverse_marked(&Ray::point_probe(q + jitter), &mut marks, |_| {
                    TraversalControl::Continue
                });
            }
            let (nodes, prims) = marks.ascending();
            let (nodes, prims): (Vec<u32>, Vec<u32>) = (nodes.collect(), prims.collect());
            // Up to 256 B lines, then lines wider than a bitset word's 64
            // records (4 KiB) and far wider (512 MiB).
            for line_shift in (3..=8).chain([12, 29]) {
                // The launch's own walk: the marks' words, folded per line.
                let mut walked = vec![7];
                let (node_words, prim_words) = marks.ascending();
                footprint_lines(
                    &mut walked,
                    node_words.words(),
                    prim_words.words(),
                    line_shift,
                );
                assert_eq!(
                    walked,
                    lines_by_sorting(&nodes, &prims, line_shift),
                    "warp {warp}, {} B lines",
                    1 << line_shift
                );
            }
        }
    }

    #[test]
    fn node_lines_that_reach_the_primitive_region_are_merged() {
        // Node slot `reach` sits at BVH_PRIMS_BASE, so nodes from there on
        // share lines with the first primitive slots.
        let reach = ((BVH_PRIMS_BASE - BVH_NODES_BASE) / NODE_BYTES) as u32;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut pick = |lo: u32, n: u32| -> Vec<u32> {
            let mut slots: Vec<u32> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    lo + (state % 900) as u32
                })
                .collect();
            slots.sort_unstable();
            slots.dedup();
            slots
        };
        let mut interleaved = 0;
        for case in 0..60 {
            let nodes = [pick(0, 40), pick(reach - 300, 1 + case * 3)].concat();
            let prims = pick(0, 1 + (case * 7) % 100);
            for line_shift in (3..=8).chain([12, 29]) {
                let want = lines_by_sorting(&nodes, &prims, line_shift);
                assert_eq!(
                    lines_by_walking(&nodes, &prims, line_shift),
                    want,
                    "case {case}, {} B lines",
                    1 << line_shift
                );
                let node_lines = lines_by_sorting(&nodes, &[], line_shift);
                let prim_lines = lines_by_sorting(&[], &prims, line_shift);
                if node_lines.last() > prim_lines.first() {
                    interleaved += 1;
                }
            }
        }
        assert!(interleaved > 60, "the cases must interleave the runs");
        for (nodes, prims) in [(vec![], vec![]), (vec![reach], vec![]), (vec![], vec![0])] {
            assert_eq!(
                lines_by_walking(&nodes, &prims, 7),
                lines_by_sorting(&nodes, &prims, 7)
            );
        }
    }

    #[test]
    fn coherent_launch_is_not_slower_than_scrambled_launch() {
        // The Figure 5 effect at pipeline level: same set of queries, same
        // total work, different launch-index order.
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.2;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        // Queries on a fine grid, in raster order.
        let mut queries = Vec::new();
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..4 {
                    queries.push(Vec3::new(x as f32 * 0.5, y as f32 * 0.5, z as f32 * 2.0));
                }
            }
        }
        let n = queries.len();
        let mut scrambled = queries.clone();
        // Deterministic scramble.
        for i in 0..n {
            let j = (i * 2654435761) % n;
            scrambled.swap(i, j);
        }
        let run = |qs: Vec<Vec3>| {
            let program = RangeProgram {
                queries: qs,
                radius,
                k: 1000,
            };
            Pipeline::new(&device)
                .launch(&bvh, n, &program, IsShaderKind::RangeSphereTest)
                .metrics
        };
        let ordered = run(queries);
        let shuffled = run(scrambled);
        // Same total algorithmic work...
        assert_eq!(ordered.is_calls, shuffled.is_calls);
        // ...but the ordered launch is at least as fast and at least as
        // cache-friendly.
        assert!(ordered.kernel.time_ms <= shuffled.kernel.time_ms);
        assert!(ordered.kernel.simt_efficiency >= shuffled.kernel.simt_efficiency);
    }
}
