//! The named datasets of the paper's evaluation, at configurable scale.
//!
//! Section 6.1 evaluates nine inputs: KITTI-1M/6M/12M/25M, NBody-9M/10M,
//! Bunny-360K, Dragon-3.6M and Buddha-4.6M. The catalog maps each name to
//! the corresponding synthetic generator with the paper's point count scaled
//! by a `scale` divisor — the CPU-hosted simulator cannot sweep 25M-point
//! clouds in a benchmark suite, so the default experiments run at reduced
//! scale and EXPERIMENTS.md records the divisor used.

use crate::lidar::LidarParams;
use crate::nbody::NBodyParams;
use crate::scan::{ScanModel, ScanParams};
use crate::{lidar, nbody, scan, PointCloud};

/// The nine evaluation inputs of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    Kitti1M,
    Kitti6M,
    Kitti12M,
    Kitti25M,
    NBody9M,
    NBody10M,
    Bunny360K,
    Dragon3_6M,
    Buddha4_6M,
}

impl DatasetName {
    /// All nine inputs in the order Figure 11 lists them.
    pub fn all() -> [DatasetName; 9] {
        [
            DatasetName::Kitti1M,
            DatasetName::Kitti6M,
            DatasetName::Kitti12M,
            DatasetName::Kitti25M,
            DatasetName::NBody9M,
            DatasetName::NBody10M,
            DatasetName::Bunny360K,
            DatasetName::Dragon3_6M,
            DatasetName::Buddha4_6M,
        ]
    }

    /// The paper's point count for this input.
    pub fn paper_points(&self) -> usize {
        match self {
            DatasetName::Kitti1M => 1_000_000,
            DatasetName::Kitti6M => 6_000_000,
            DatasetName::Kitti12M => 12_000_000,
            DatasetName::Kitti25M => 25_000_000,
            DatasetName::NBody9M => 9_000_000,
            DatasetName::NBody10M => 10_000_000,
            DatasetName::Bunny360K => 360_000,
            DatasetName::Dragon3_6M => 3_600_000,
            DatasetName::Buddha4_6M => 4_600_000,
        }
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetName::Kitti1M => "KITTI-1M",
            DatasetName::Kitti6M => "KITTI-6M",
            DatasetName::Kitti12M => "KITTI-12M",
            DatasetName::Kitti25M => "KITTI-25M",
            DatasetName::NBody9M => "NBody-9M",
            DatasetName::NBody10M => "NBody-10M",
            DatasetName::Bunny360K => "Bunny-360K",
            DatasetName::Dragon3_6M => "Dragon-3.6M",
            DatasetName::Buddha4_6M => "Buddha-4.6M",
        }
    }

    /// A search radius appropriate for the dataset's units, mirroring the
    /// paper's setup (metres for KITTI, unit-cube fractions for the scans,
    /// Mpc/h for the N-body trace).
    pub fn default_radius(&self) -> f32 {
        match self {
            DatasetName::Kitti1M
            | DatasetName::Kitti6M
            | DatasetName::Kitti12M
            | DatasetName::Kitti25M => 1.0,
            DatasetName::NBody9M | DatasetName::NBody10M => 5.0,
            DatasetName::Bunny360K | DatasetName::Dragon3_6M | DatasetName::Buddha4_6M => 0.0124,
        }
    }
}

/// A dataset request: a paper input plus a scale divisor.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Which paper input.
    pub name: DatasetName,
    /// Scale divisor: the generated cloud has `paper_points / scale_divisor`
    /// points (at least 1000).
    pub scale_divisor: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Dataset {
    /// A dataset scaled down by `divisor` (the default experiment
    /// configuration uses 20–100 depending on machine budget).
    pub fn scaled(name: DatasetName, divisor: usize) -> Self {
        assert!(divisor >= 1);
        Dataset {
            name,
            scale_divisor: divisor,
            seed: default_seed(name),
        }
    }

    /// Number of points this request will generate.
    pub fn num_points(&self) -> usize {
        (self.name.paper_points() / self.scale_divisor).max(1000)
    }

    /// Generate the cloud.
    pub fn generate(&self) -> PointCloud {
        let n = self.num_points();
        let mut cloud = match self.name {
            DatasetName::Kitti1M
            | DatasetName::Kitti6M
            | DatasetName::Kitti12M
            | DatasetName::Kitti25M => lidar::generate(&LidarParams {
                num_points: n,
                // Larger frames cover more street: grow the xy extent with the
                // point count so density stays roughly constant, as merging
                // KITTI frames does.
                half_extent_xy: 40.0 * (self.name.paper_points() as f32 / 1e6).sqrt(),
                seed: self.seed,
                ..Default::default()
            }),
            DatasetName::NBody9M | DatasetName::NBody10M => nbody::generate(&NBodyParams {
                num_points: n,
                seed: self.seed,
                ..Default::default()
            }),
            DatasetName::Bunny360K => scan::generate(&ScanParams {
                model: ScanModel::Blob,
                num_points: n,
                seed: self.seed,
                ..Default::default()
            }),
            DatasetName::Dragon3_6M => scan::generate(&ScanParams {
                model: ScanModel::TorusKnot,
                num_points: n,
                seed: self.seed,
                ..Default::default()
            }),
            DatasetName::Buddha4_6M => scan::generate(&ScanParams {
                model: ScanModel::StackedBlobs,
                num_points: n,
                seed: self.seed,
                ..Default::default()
            }),
        };
        cloud.name = if self.scale_divisor == 1 {
            self.name.label().to_string()
        } else {
            format!(
                "{} (1/{} scale: {} pts)",
                self.name.label(),
                self.scale_divisor,
                n
            )
        };
        cloud
    }
}

fn default_seed(name: DatasetName) -> u64 {
    // Stable per-dataset seeds so every experiment sees the same cloud.
    match name {
        DatasetName::Kitti1M => 101,
        DatasetName::Kitti6M => 106,
        DatasetName::Kitti12M => 112,
        DatasetName::Kitti25M => 125,
        DatasetName::NBody9M => 209,
        DatasetName::NBody10M => 210,
        DatasetName::Bunny360K => 303,
        DatasetName::Dragon3_6M => 336,
        DatasetName::Buddha4_6M => 346,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lists_all_nine_paper_inputs() {
        let all = DatasetName::all();
        assert_eq!(all.len(), 9);
        let total: usize = all.iter().map(|d| d.paper_points()).sum();
        assert_eq!(
            total,
            1_000_000
                + 6_000_000
                + 12_000_000
                + 25_000_000
                + 9_000_000
                + 10_000_000
                + 360_000
                + 3_600_000
                + 4_600_000
        );
    }

    #[test]
    fn scaled_generation_matches_requested_size() {
        let ds = Dataset::scaled(DatasetName::Kitti1M, 100);
        assert_eq!(ds.num_points(), 10_000);
        let cloud = ds.generate();
        assert_eq!(cloud.len(), 10_000);
        assert!(cloud.name.contains("KITTI-1M"));
        assert!(cloud.name.contains("1/100"));
    }

    #[test]
    fn tiny_scale_is_clamped_to_a_useful_minimum() {
        let ds = Dataset::scaled(DatasetName::Bunny360K, 1_000_000);
        assert_eq!(ds.num_points(), 1000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::scaled(DatasetName::NBody9M, 500).generate();
        let b = Dataset::scaled(DatasetName::NBody9M, 500).generate();
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn each_family_has_its_distribution_signature() {
        // KITTI-like: flat in z. Scan-like: inside the unit cube. NBody-like:
        // spans hundreds of units.
        let kitti = Dataset::scaled(DatasetName::Kitti6M, 300).generate();
        let scanb = Dataset::scaled(DatasetName::Buddha4_6M, 300).generate();
        let nbody = Dataset::scaled(DatasetName::NBody10M, 300).generate();
        assert!(kitti.bounds().extent().z < 5.0);
        assert!(scanb.bounds().extent().max_component() <= 1.001);
        assert!(nbody.bounds().extent().max_component() > 100.0);
    }

    #[test]
    fn default_radii_are_positive_and_dataset_appropriate() {
        for name in DatasetName::all() {
            assert!(name.default_radius() > 0.0);
        }
        assert!(DatasetName::Buddha4_6M.default_radius() < 0.1);
        assert!(DatasetName::Kitti12M.default_radius() >= 0.5);
    }
}
