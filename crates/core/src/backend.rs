//! The execution backend seam: build/refit/traverse + timing behind one
//! object-safe trait, so backend choice is a constructor argument instead
//! of a hardwired `&Device`.
//!
//! The engine pipeline (scheduling, partitioning, bundling) is
//! backend-agnostic: it decides *what* to traverse and hands each launch to
//! a [`Backend`], which owns *how* the traversal executes and what
//! structures back it. Two implementations ship:
//!
//! * [`GpusimBackend`] — the one ray-tracing backend: traversals run on the
//!   simulated Turing-class device through the OptiX-like pipeline, with
//!   full microarchitectural metrics. [`GpusimBackend::new`] exposes the
//!   BVH and its SAH quality; [`GpusimBackend::optix_shim`] is the
//!   integration shim for a real OptiX 7 device, which honours the hardware
//!   contract — the acceleration structure is opaque, no BVH or SAH
//!   introspection, exactly what `optixAccelBuild` would hand back — with
//!   bit-identical results.
//! * `BruteForceBackend` (in `rtnn-baselines`) — keeps no structure and
//!   answers every traversal by exhaustive scan over the mapping semantics
//!   ([`exhaustive_traverse`]); it doubles as the oracle the cross-backend
//!   equivalence suite checks the ray-tracing backend against.

use crate::shaders::{FirstHitProgram, KnnHeap, KnnProgram, QueryIndexing, RangeProgram, NO_HIT};
use rtnn_bvh::BuildParams;
use rtnn_gpusim::device::OutOfDeviceMemory;
use rtnn_gpusim::kernel::{point_address, run_sm_kernel, ThreadWork};
use rtnn_gpusim::{Device, IsShaderKind, StructureTiming};
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::{Gas, LaunchMetrics, Pipeline};
use rtnn_parallel::par_map;

pub use rtnn_optix::{Accel, AccelRef, RefitOutcome};

/// What one traversal pass computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraversalKind {
    /// Fixed-radius search: up to `cap` neighbors within `radius`;
    /// `sphere_test` elided when the partition's AABB is inscribed in the
    /// search sphere (Section 5.1) or the approximation mode skips it.
    Range {
        /// Search radius.
        radius: f32,
        /// Terminate the ray once this many neighbors are recorded.
        cap: usize,
        /// Whether the IS shader runs the point-in-sphere test.
        sphere_test: bool,
    },
    /// K-nearest-neighbor search: the `k` nearest within `radius`, returned
    /// sorted by increasing distance.
    Knn {
        /// Search radius bounding the returned neighbors.
        radius: f32,
        /// Number of nearest neighbors to keep.
        k: usize,
    },
    /// The truncated scheduling pass (Section 4): record the first
    /// enclosing primitive and terminate.
    FirstHit,
}

/// One traversal pass: which queries to launch (in which order) against
/// which point set, and what to compute per query.
#[derive(Debug, Clone, Copy)]
pub struct TraversalJob<'a> {
    /// Search points (AABB centres).
    pub points: &'a [Vec3],
    /// Query positions.
    pub queries: &'a [Vec3],
    /// Launch order: `query_ids[i]` is the query launched at index `i`.
    pub query_ids: &'a [u32],
    /// What to compute.
    pub kind: TraversalKind,
}

/// The outcome of one traversal pass.
#[derive(Debug, Clone)]
pub struct Traversal {
    /// Per-*launch-index* results, aligned with
    /// [`TraversalJob::query_ids`]: neighbor ids for `Range` (traversal
    /// order) and `Knn` (sorted by increasing distance), and a zero- or
    /// one-element vector for `FirstHit`.
    pub payloads: Vec<Vec<u32>>,
    /// Simulated execution metrics.
    pub metrics: LaunchMetrics,
}

/// A neighbor-search execution backend (see module docs). Object-safe: the
/// engine and the [`crate::Index`] hold `&dyn Backend` / `Box<dyn Backend>`.
///
/// `Sync` is a supertrait so a `dyn Backend` can be shared across the
/// worker threads of a serving layer (`rtnn-serve` fans one backend out to
/// per-shard indexes executing in parallel); backends are read-only at
/// traversal time, so every shipped implementation already satisfies it.
pub trait Backend: Sync {
    /// Short human-readable backend name (used in reports).
    fn name(&self) -> &'static str;

    /// The simulated device this backend charges work to. Engine-side
    /// kernels (query sort, megacell growth) and transfer costs are billed
    /// here so every backend's end-to-end numbers are comparable.
    fn device(&self) -> &Device;

    /// Build an acceleration structure over width-`aabb_width` cubes
    /// centred at `points`.
    fn build(
        &self,
        points: &[Vec3],
        aabb_width: f32,
        build: BuildParams,
    ) -> Result<Accel, OutOfDeviceMemory>;

    /// Refit `accel` in place for moved `points` (same count, same width).
    /// `None` means the structure cannot absorb the update — rebuild
    /// instead.
    fn refit(&self, accel: &mut Accel, points: &[Vec3]) -> Option<RefitOutcome>;

    /// Execute one traversal pass against `accel`.
    fn traverse(&self, accel: AccelRef<'_>, job: &TraversalJob<'_>) -> Traversal;

    /// Structure build/refit timing at a given size — what refit-vs-rebuild
    /// policies consult.
    fn timing(&self, num_prims: usize) -> StructureTiming;
}

/// Width-`width` cubes centred at the points (the Listing 1 mapping).
fn point_aabbs(points: &[Vec3], width: f32) -> Vec<Aabb> {
    par_map(points.len(), |i| Aabb::cube(points[i], width))
}

/// Run `job` against a BVH-backed structure through the OptiX-like
/// pipeline.
fn pipeline_traverse(device: &Device, gas: &Gas, job: &TraversalJob<'_>) -> Traversal {
    let pipeline = Pipeline::new(device);
    let n = job.query_ids.len();
    let indexing = QueryIndexing::Mapped(job.query_ids);
    match job.kind {
        TraversalKind::Range {
            radius,
            cap,
            sphere_test,
        } => {
            let program = RangeProgram {
                points: job.points,
                queries: job.queries,
                indexing,
                radius,
                k: cap,
                sphere_test,
            };
            let kind = if sphere_test {
                IsShaderKind::RangeSphereTest
            } else {
                IsShaderKind::RangeNoSphereTest
            };
            let launch = pipeline.launch(gas, n, &program, kind);
            Traversal {
                payloads: launch.payloads,
                metrics: launch.metrics,
            }
        }
        TraversalKind::Knn { radius, k } => {
            let program = KnnProgram {
                points: job.points,
                queries: job.queries,
                indexing,
                radius,
                k,
            };
            let launch = pipeline.launch(gas, n, &program, IsShaderKind::Knn);
            Traversal {
                payloads: launch
                    .payloads
                    .into_iter()
                    .map(KnnHeap::into_sorted_ids)
                    .collect(),
                metrics: launch.metrics,
            }
        }
        TraversalKind::FirstHit => {
            let program = FirstHitProgram {
                queries: job.queries,
                indexing,
            };
            let launch = pipeline.launch(gas, n, &program, IsShaderKind::RangeNoSphereTest);
            Traversal {
                payloads: launch
                    .payloads
                    .into_iter()
                    .map(|hit| if hit == NO_HIT { Vec::new() } else { vec![hit] })
                    .collect(),
                metrics: launch.metrics,
            }
        }
    }
}

/// Cost (in generic SM ops) of one exhaustive distance/containment test —
/// matches the brute-force baseline's accounting.
const OPS_PER_SCAN_TEST: u64 = 4;

/// Answer `job` by exhaustive scan over the basic-mapping semantics: a
/// point is a candidate exactly when its width-`aabb_width` AABB contains
/// the query (what BVH traversal of a degenerate point probe reports), and
/// the per-candidate shader semantics (sphere test, cap termination, KNN
/// heap) are identical to the ray-tracing programs. Candidates are visited
/// in point-id order.
///
/// This is the structure-less oracle path: `BruteForceBackend` (in
/// `rtnn-baselines`) delegates here, and so does any backend handed a
/// [`AccelRef::Flat`] handle. The scan is charged to the simulated device
/// as one thread per query streaming every point.
pub fn exhaustive_traverse(
    device: &Device,
    accel: AccelRef<'_>,
    job: &TraversalJob<'_>,
) -> Traversal {
    let width = accel.aabb_width();
    let num_points = accel.num_primitives().min(job.points.len());
    let points = &job.points[..num_points];

    #[derive(Debug, Clone, Default)]
    struct ScanOutcome {
        ids: Vec<u32>,
        scanned: u64,
        is_calls: u64,
        terminated: bool,
        hit: bool,
    }

    let (outcomes, kernel) = run_sm_kernel(device, job.query_ids.len(), |launch_idx| {
        let q = job.queries[job.query_ids[launch_idx] as usize];
        let mut out = ScanOutcome::default();
        // Candidate test: exactly what BVH traversal of a degenerate
        // point probe reports — the point's width-w AABB contains q.
        let contains = |p: Vec3| Aabb::cube(p, width).contains_point(q);
        match job.kind {
            TraversalKind::Range {
                radius,
                cap,
                sphere_test,
            } => {
                let r2 = radius * radius;
                for (pi, &p) in points.iter().enumerate() {
                    out.scanned += 1;
                    if !contains(p) {
                        continue;
                    }
                    out.is_calls += 1;
                    if sphere_test && q.distance_squared(p) >= r2 {
                        continue;
                    }
                    out.hit = true;
                    out.ids.push(pi as u32);
                    if out.ids.len() >= cap {
                        out.terminated = true;
                        break;
                    }
                }
            }
            TraversalKind::Knn { radius, k } => {
                let r2 = radius * radius;
                let mut heap = KnnHeap::default();
                for (pi, &p) in points.iter().enumerate() {
                    out.scanned += 1;
                    if !contains(p) {
                        continue;
                    }
                    out.is_calls += 1;
                    let d2 = q.distance_squared(p);
                    if d2 < r2 {
                        out.hit = true;
                        heap.offer(d2, pi as u32, k);
                    }
                }
                out.ids = heap.into_sorted_ids();
            }
            TraversalKind::FirstHit => {
                for (pi, &p) in points.iter().enumerate() {
                    out.scanned += 1;
                    if contains(p) {
                        out.is_calls += 1;
                        out.hit = true;
                        out.terminated = true;
                        out.ids.push(pi as u32);
                        break;
                    }
                }
            }
        }
        // Sample the address stream (one address per 32 points) to keep
        // the trace bounded; the op count carries the full cost.
        let addresses: Vec<u64> = (0..out.scanned as u32)
            .step_by(32)
            .map(point_address)
            .collect();
        let work = ThreadWork::new(out.scanned * OPS_PER_SCAN_TEST, addresses);
        (out, work)
    });

    let mut metrics = LaunchMetrics {
        kernel,
        ..Default::default()
    };
    let mut payloads = Vec::with_capacity(outcomes.len());
    for out in outcomes {
        metrics.active_rays += 1;
        metrics.prim_tests += out.scanned;
        metrics.is_calls += out.is_calls;
        metrics.terminated_rays += out.terminated as u64;
        metrics.hit_rays += out.hit as u64;
        payloads.push(out.ids);
    }
    Traversal { payloads, metrics }
}

/// The ray-tracing backend: traversals execute on the simulated
/// Turing-class device through the OptiX-like pipeline, with full metrics.
#[derive(Debug, Clone, Copy)]
pub struct GpusimBackend<'d> {
    device: &'d Device,
    /// Build opaque structures (no BVH or SAH introspection).
    opaque: bool,
}

impl<'d> GpusimBackend<'d> {
    /// The default backend on `device`, with BVH and SAH quality
    /// introspection.
    pub fn new(device: &'d Device) -> Self {
        GpusimBackend {
            device,
            opaque: false,
        }
    }

    /// The integration shim for a real OptiX 7 device: same launch
    /// semantics and bit-identical results (without an RTX card the rays
    /// execute on the same simulated pipeline), but the acceleration
    /// structure honours the hardware contract — it is opaque, with no BVH
    /// or SAH introspection, so quality-driven policies fall back to their
    /// introspection-free behaviour. Named `"optix-shim"`, so profiler and
    /// tuner signatures keep it apart from the default backend.
    pub fn optix_shim(device: &'d Device) -> Self {
        GpusimBackend {
            device,
            opaque: true,
        }
    }
}

impl<'d> Backend for GpusimBackend<'d> {
    fn name(&self) -> &'static str {
        if self.opaque {
            "optix-shim"
        } else {
            "gpusim"
        }
    }

    fn device(&self) -> &Device {
        self.device
    }

    fn build(
        &self,
        points: &[Vec3],
        aabb_width: f32,
        build: BuildParams,
    ) -> Result<Accel, OutOfDeviceMemory> {
        let gas = Gas::build(self.device, &point_aabbs(points, aabb_width), build)?;
        Ok(if self.opaque {
            Accel::from_gas_opaque(gas, aabb_width)
        } else {
            Accel::from_gas(gas, aabb_width)
        })
    }

    fn refit(&self, accel: &mut Accel, points: &[Vec3]) -> Option<RefitOutcome> {
        accel.refit_in_place(self.device, points)
    }

    fn traverse(&self, accel: AccelRef<'_>, job: &TraversalJob<'_>) -> Traversal {
        match accel {
            AccelRef::Gas { gas, .. } => pipeline_traverse(self.device, gas, job),
            flat @ AccelRef::Flat { .. } => exhaustive_traverse(self.device, flat, job),
        }
    }

    fn timing(&self, num_prims: usize) -> StructureTiming {
        self.device.structure_timing(num_prims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Vec3> {
        (0..400)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.37) % 6.0, (f * 0.61) % 6.0, (f * 0.13) % 6.0)
            })
            .collect()
    }

    fn identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn trait_is_object_safe_and_backends_agree_on_knn() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(13).copied().collect();
        let ids = identity(queries.len());
        let backends: Vec<Box<dyn Backend + '_>> = vec![
            Box::new(GpusimBackend::new(&device)),
            Box::new(GpusimBackend::optix_shim(&device)),
        ];
        let job = TraversalJob {
            points: &points,
            queries: &queries,
            query_ids: &ids,
            kind: TraversalKind::Knn { radius: 1.5, k: 6 },
        };
        let mut results = Vec::new();
        for b in &backends {
            let accel = b.build(&points, 3.0, BuildParams::default()).unwrap();
            results.push(b.traverse(accel.as_ref(), &job).payloads);
        }
        assert_eq!(results[0], results[1], "gpusim and optix shim must agree");
    }

    #[test]
    fn exhaustive_traverse_matches_the_pipeline_on_knn() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
        let ids = identity(queries.len());
        let job = TraversalJob {
            points: &points,
            queries: &queries,
            query_ids: &ids,
            kind: TraversalKind::Knn { radius: 1.2, k: 5 },
        };
        let backend = GpusimBackend::new(&device);
        let accel = backend.build(&points, 2.4, BuildParams::default()).unwrap();
        let rt = backend.traverse(accel.as_ref(), &job);
        let flat = exhaustive_traverse(&device, Accel::flat(points.len(), 2.4).as_ref(), &job);
        assert_eq!(rt.payloads, flat.payloads);
        assert!(flat.metrics.time_ms() > 0.0);
        assert_eq!(flat.metrics.active_rays, queries.len() as u64);
    }

    #[test]
    fn exhaustive_range_respects_cap_and_sphere_test() {
        let device = Device::rtx_2080();
        let points = vec![
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.9, 0.9, 0.9), // inside width-2 AABB, outside unit sphere
            Vec3::new(0.2, 0.0, 0.0),
            Vec3::new(0.3, 0.0, 0.0),
        ];
        let queries = vec![Vec3::ZERO];
        let ids = identity(1);
        let accel = Accel::flat(points.len(), 2.0);
        let with_test = exhaustive_traverse(
            &device,
            accel.as_ref(),
            &TraversalJob {
                points: &points,
                queries: &queries,
                query_ids: &ids,
                kind: TraversalKind::Range {
                    radius: 1.0,
                    cap: 2,
                    sphere_test: true,
                },
            },
        );
        // Id order, capped at 2, corner point rejected by the sphere test.
        assert_eq!(with_test.payloads[0], vec![0, 2]);
        assert_eq!(with_test.metrics.terminated_rays, 1);
        let without_test = exhaustive_traverse(
            &device,
            accel.as_ref(),
            &TraversalJob {
                points: &points,
                queries: &queries,
                query_ids: &ids,
                kind: TraversalKind::Range {
                    radius: 1.0,
                    cap: 8,
                    sphere_test: false,
                },
            },
        );
        assert_eq!(without_test.payloads[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn exhaustive_first_hit_returns_the_first_containing_point() {
        let device = Device::rtx_2080();
        let points = vec![Vec3::new(10.0, 0.0, 0.0), Vec3::new(0.2, 0.0, 0.0)];
        let queries = vec![Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)];
        let ids = identity(2);
        let t = exhaustive_traverse(
            &device,
            Accel::flat(2, 1.0).as_ref(),
            &TraversalJob {
                points: &points,
                queries: &queries,
                query_ids: &ids,
                kind: TraversalKind::FirstHit,
            },
        );
        assert_eq!(t.payloads[0], vec![1]);
        assert!(t.payloads[1].is_empty(), "no enclosing AABB");
        assert_eq!(t.metrics.hit_rays, 1);
    }

    #[test]
    fn timing_reports_refit_cheaper_than_build() {
        let device = Device::rtx_2080();
        let t = GpusimBackend::new(&device).timing(1_000_000);
        assert!(t.refit_ms > 0.0 && t.refit_ms < t.build_ms);
        assert!(t.rebuild_premium_ms() > 0.0);
    }
}
