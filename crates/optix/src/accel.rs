//! The opaque acceleration-structure handle a search backend returns.
//!
//! Search backends (`rtnn::Backend` implementations) build different things:
//! the ray-tracing backends build a [`Gas`] over per-point AABBs, while the
//! brute-force oracle keeps no structure at all and scans the flat point
//! array at traversal time. [`Accel`] is the common handle: it records the
//! per-point AABB width the structure was built for, the simulated build
//! cost, and — for structure-owning backends — the [`Gas`] itself.
//!
//! [`AccelRef`] is the borrowed, traversal-facing view: engines can hold a
//! structure in a cache (or adopt one from a streaming index) and hand
//! backends a cheap copyable reference per launch.

use crate::gas::Gas;
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};
use rtnn_parallel::par_map;

/// Outcome of an in-place [`Accel`] refit through a backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitOutcome {
    /// Simulated milliseconds the refit cost.
    pub refit_ms: f64,
    /// SAH cost of the tree after the refit, when the backend exposes tree
    /// quality (`None` for structure-less backends and for hardware shims
    /// that treat the tree as opaque).
    pub sah_after: Option<f64>,
}

#[derive(Debug, Clone)]
enum AccelKind {
    /// A BVH-backed structure. `expose_quality` is false for backends that
    /// treat the hardware tree as opaque (no SAH introspection).
    Gas { gas: Gas, expose_quality: bool },
    /// No structure: the backend scans the flat point array at traversal
    /// time (the brute-force oracle).
    Flat { num_points: usize },
}

/// An acceleration structure built by a search backend (see module docs).
#[derive(Debug, Clone)]
pub struct Accel {
    kind: AccelKind,
    aabb_width: f32,
    build_ms: f64,
}

impl Accel {
    /// Wrap a built [`Gas`] whose primitives are width-`aabb_width` cubes,
    /// exposing its tree quality (SAH) to policies.
    pub fn from_gas(gas: Gas, aabb_width: f32) -> Self {
        let build_ms = gas.build_time_ms();
        Accel {
            kind: AccelKind::Gas {
                gas,
                expose_quality: true,
            },
            aabb_width,
            build_ms,
        }
    }

    /// Wrap a built [`Gas`] as an *opaque* hardware structure: traversable,
    /// refittable, but without SAH introspection — the contract a real
    /// OptiX 7 device gives you.
    pub fn from_gas_opaque(gas: Gas, aabb_width: f32) -> Self {
        let build_ms = gas.build_time_ms();
        Accel {
            kind: AccelKind::Gas {
                gas,
                expose_quality: false,
            },
            aabb_width,
            build_ms,
        }
    }

    /// A structure-less handle over `num_points` points with a nominal
    /// per-point AABB width (the brute-force oracle's "structure").
    pub fn flat(num_points: usize, aabb_width: f32) -> Self {
        Accel {
            kind: AccelKind::Flat { num_points },
            aabb_width,
            build_ms: 0.0,
        }
    }

    /// Borrowed traversal-facing view.
    pub fn as_ref(&self) -> AccelRef<'_> {
        match &self.kind {
            AccelKind::Gas { gas, .. } => AccelRef::Gas {
                gas,
                aabb_width: self.aabb_width,
            },
            AccelKind::Flat { num_points } => AccelRef::Flat {
                num_points: *num_points,
                aabb_width: self.aabb_width,
            },
        }
    }

    /// The underlying BVH-backed structure, when the backend exposes tree
    /// quality (`None` for flat handles and opaque hardware trees).
    pub fn gas(&self) -> Option<&Gas> {
        match &self.kind {
            AccelKind::Gas {
                gas,
                expose_quality: true,
            } => Some(gas),
            _ => None,
        }
    }

    /// Per-point AABB width the structure was built for.
    pub fn aabb_width(&self) -> f32 {
        self.aabb_width
    }

    /// Simulated milliseconds the build cost (0 for flat handles).
    pub fn build_time_ms(&self) -> f64 {
        self.build_ms
    }

    /// Number of point primitives covered.
    pub fn num_primitives(&self) -> usize {
        match &self.kind {
            AccelKind::Gas { gas, .. } => gas.num_primitives(),
            AccelKind::Flat { num_points } => *num_points,
        }
    }

    /// Refit the structure in place over moved `points` (same count, same
    /// AABB width). Returns `None` when the handle cannot absorb the update
    /// — primitive count changed, or the structure kind does not support
    /// refits — in which case the caller should rebuild.
    pub fn refit_in_place(&mut self, device: &Device, points: &[Vec3]) -> Option<RefitOutcome> {
        let width = self.aabb_width;
        match &mut self.kind {
            AccelKind::Gas {
                gas,
                expose_quality,
            } => {
                if gas.num_primitives() != points.len() {
                    return None;
                }
                let aabbs = par_map(points.len(), |i| Aabb::cube(points[i], width));
                let refit = gas.refit(device, &aabbs).ok()?;
                Some(RefitOutcome {
                    refit_ms: refit.refit_time_ms,
                    sah_after: expose_quality.then_some(refit.stats.sah_after),
                })
            }
            AccelKind::Flat { num_points } => {
                // Positions are read from the caller's array at traversal
                // time, so a same-count "refit" is free; a count change
                // needs a (also free) rebuild, reported as unsupported for
                // uniformity with the structure-owning backends.
                if *num_points != points.len() {
                    return None;
                }
                Some(RefitOutcome {
                    refit_ms: 0.0,
                    sah_after: None,
                })
            }
        }
    }
}

/// Borrowed view of an [`Accel`], cheap to copy per launch. Engines that
/// keep structures in caches (or adopt one from a streaming index) hand
/// backends this view instead of the owning handle.
#[derive(Debug, Clone, Copy)]
pub enum AccelRef<'a> {
    /// A BVH-backed structure.
    Gas {
        /// The structure.
        gas: &'a Gas,
        /// Per-point AABB width it was built for.
        aabb_width: f32,
    },
    /// No structure: scan the flat point array.
    Flat {
        /// Number of point primitives.
        num_points: usize,
        /// Nominal per-point AABB width (containment tests use it).
        aabb_width: f32,
    },
}

impl<'a> AccelRef<'a> {
    /// Number of point primitives covered.
    pub fn num_primitives(&self) -> usize {
        match self {
            AccelRef::Gas { gas, .. } => gas.num_primitives(),
            AccelRef::Flat { num_points, .. } => *num_points,
        }
    }

    /// Per-point AABB width the structure was built for.
    pub fn aabb_width(&self) -> f32 {
        match self {
            AccelRef::Gas { aabb_width, .. } | AccelRef::Flat { aabb_width, .. } => *aabb_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::BuildParams;

    fn cloud(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new((i % 7) as f32, ((i / 7) % 7) as f32, (i / 49) as f32))
            .collect()
    }

    #[test]
    fn gas_handle_round_trip() {
        let device = Device::rtx_2080();
        let pts = cloud(200);
        let gas = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        let accel = Accel::from_gas(gas, 1.0);
        assert_eq!(accel.num_primitives(), 200);
        assert_eq!(accel.aabb_width(), 1.0);
        assert!(accel.build_time_ms() > 0.0);
        assert!(accel.gas().is_some());
        assert!(matches!(accel.as_ref(), AccelRef::Gas { aabb_width, .. } if aabb_width == 1.0));
        assert_eq!(accel.as_ref().num_primitives(), 200);
    }

    #[test]
    fn opaque_handle_hides_the_tree_but_still_refits() {
        let device = Device::rtx_2080();
        let mut pts = cloud(150);
        let gas = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        let mut accel = Accel::from_gas_opaque(gas, 1.0);
        assert!(accel.gas().is_none(), "opaque trees expose no BVH");
        for p in pts.iter_mut() {
            p.x += 0.05;
        }
        let outcome = accel.refit_in_place(&device, &pts).unwrap();
        assert!(outcome.refit_ms > 0.0);
        assert_eq!(outcome.sah_after, None, "opaque trees expose no SAH");
        // Transparent handles report quality.
        let gas2 = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        let mut transparent = Accel::from_gas(gas2, 1.0);
        let o2 = transparent.refit_in_place(&device, &pts).unwrap();
        assert!(o2.sah_after.is_some());
    }

    #[test]
    fn refit_rejects_count_changes() {
        let device = Device::rtx_2080();
        let pts = cloud(100);
        let gas = Gas::build_from_points(&device, &pts, 0.5, BuildParams::default()).unwrap();
        let mut accel = Accel::from_gas(gas, 1.0);
        assert!(accel.refit_in_place(&device, &pts[..50]).is_none());
        let mut flat = Accel::flat(100, 1.0);
        assert!(flat.refit_in_place(&device, &pts).is_some());
        assert!(flat.refit_in_place(&device, &pts[..50]).is_none());
    }

    #[test]
    fn flat_handle_has_no_structure_cost() {
        let accel = Accel::flat(42, 2.0);
        assert_eq!(accel.num_primitives(), 42);
        assert_eq!(accel.build_time_ms(), 0.0);
        assert!(accel.gas().is_none());
        assert!(matches!(
            accel.as_ref(),
            AccelRef::Flat {
                num_points: 42,
                aabb_width
            } if aabb_width == 2.0
        ));
    }
}
