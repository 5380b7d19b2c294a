//! SPH density estimation — the scientific-computing workload behind the
//! cuNSearch baseline (SPlisHSPlasH uses fixed-radius neighbor search every
//! timestep to evaluate smoothing kernels over particle neighborhoods).
//!
//! This is a genuine multi-frame simulation on the streaming subsystem: a
//! dam-break block of particles settles under gravity over many timesteps,
//! and a persistent [`rtnn_dynamic::DynamicIndex`] serves every step's
//! neighborhood search. Particles only *move* between steps, so most frames
//! refit the BVH in place and refresh the megacell grid incrementally; the
//! cost-model policy rebuilds only when the drifted topology would slow
//! traversal by more than a rebuild costs.
//!
//! Run with:
//! ```text
//! cargo run --release --example sph_fluid
//! ```

use rtnn::verify::check_result;
use rtnn::{RtnnConfig, SearchParams};
use rtnn_dynamic::{DynamicIndex, StructureAction};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// The poly6 smoothing kernel used by standard SPH formulations.
fn poly6(r2: f32, h: f32) -> f32 {
    let h2 = h * h;
    if r2 >= h2 {
        return 0.0;
    }
    let coeff = 315.0 / (64.0 * std::f32::consts::PI * h.powi(9));
    coeff * (h2 - r2).powi(3)
}

fn main() {
    // A dam-break style block of particles on a jittered lattice.
    let n_per_axis = 24usize; // ~14k particles
    let spacing = 0.1f32;
    let h = 2.2 * spacing; // smoothing length == search radius
    let mut particles: Vec<Vec3> = Vec::new();
    for x in 0..n_per_axis {
        for y in 0..n_per_axis {
            for z in 0..n_per_axis {
                let jitter = 0.01 * ((x * 7 + y * 13 + z * 29) % 10) as f32 / 10.0;
                particles.push(Vec3::new(
                    x as f32 * spacing + jitter,
                    y as f32 * spacing - jitter,
                    z as f32 * spacing + jitter,
                ));
            }
        }
    }
    println!("SPH block: {} particles, h = {h:.3}", particles.len());

    let device = Device::rtx_2080();
    let params = SearchParams::range(h, 64);
    let config = RtnnConfig::new(params);
    let rest_density = 1000.0f32;
    let particle_mass = rest_density * spacing.powi(3);
    let stiffness = 3.0f32;

    // The persistent index: built once, maintained across every timestep on
    // the default (gpusim) execution backend — swap in the brute-force
    // oracle via `DynamicIndex::with_backend`.
    let mut index = DynamicIndex::with_points(&device, config, &particles);
    println!("execution backend: {}", index.backend().name());

    let steps = 8;
    for step in 0..steps {
        // 1. Neighbor search through the streaming index.
        let frame = index.search(&particles).expect("neighborhood search");

        // 2. Density and pressure from the smoothing kernel.
        let densities: Vec<f32> = frame
            .results
            .neighbors
            .iter()
            .enumerate()
            .map(|(i, neigh)| {
                let mut rho = particle_mass * poly6(0.0, h); // self contribution
                for &j in neigh {
                    let r2 = particles[i].distance_squared(particles[j as usize]);
                    rho += particle_mass * poly6(r2, h);
                }
                rho
            })
            .collect();
        let avg_density = densities.iter().sum::<f32>() / densities.len() as f32;
        let avg_pressure = densities
            .iter()
            .map(|&rho| stiffness * (rho - rest_density).max(0.0))
            .sum::<f32>()
            / densities.len() as f32;
        let avg_neighbors = frame.results.total_neighbors() as f64 / particles.len() as f64;
        let action = match frame.action {
            StructureAction::Rebuilt => "rebuild",
            StructureAction::Refit => "refit",
            StructureAction::Reused => "reuse",
        };
        println!(
            "step {step}: avg {avg_neighbors:.1} neighbors, density {avg_density:.0} kg/m³, pressure {avg_pressure:.1} Pa, \
             {action} (quality {:.3}, structure {:.3} ms), search {:.2} ms (sim)",
            frame.quality_ratio,
            frame.structure_ms,
            frame.results.total_time_ms(),
        );

        // 3. Advect: the block settles under gravity — denser-than-rest
        //    regions push their particles slightly outward while everything
        //    compresses toward the ground plane.
        for (i, p) in particles.iter_mut().enumerate() {
            let over = ((densities[i] - rest_density) / rest_density).clamp(0.0, 1.0);
            p.z *= 0.99;
            p.x += 0.002 * over * if i % 2 == 0 { 1.0 } else { -1.0 };
            index.move_point(i as u32, *p);
        }
        // Interior particles of a lattice at this spacing have 30+ neighbors
        // within 2.2 spacings; densities should land near the rest density.
        assert!(avg_density > 0.5 * rest_density && avg_density < 2.0 * rest_density);
    }

    // Oracle spot-check of the final frame: the streaming index must agree
    // with an exhaustive scan.
    let last = index.search(&particles).expect("final search");
    for qi in (0..particles.len()).step_by(173) {
        check_result(
            &particles,
            particles[qi],
            &params,
            &last.results.neighbors[qi],
        )
        .unwrap_or_else(|e| panic!("query {qi} disagrees with the oracle: {e}"));
    }

    let m = index.frame_metrics();
    assert!(
        m.rebuilds < m.frames,
        "a settling fluid must not rebuild every frame"
    );
    println!(
        "{} frames: {} rebuilds, {} refits; amortized {:.2} ms/frame (structure {:.3} ms/frame, peak {:.2} ms)",
        m.frames,
        m.rebuilds,
        m.refits,
        m.amortized_frame_ms(),
        m.amortized_structure_ms(),
        m.peak_frame_ms,
    );
    println!("SPH example finished ✓");
}
