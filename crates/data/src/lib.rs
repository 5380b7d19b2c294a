//! # rtnn-data
//!
//! Synthetic dataset generators standing in for the three dataset families
//! of the paper's evaluation (Section 6.1), plus a catalog that names the
//! paper's inputs at a configurable scale.
//!
//! | Paper dataset | Generator | Distribution property preserved |
//! |---|---|---|
//! | KITTI LiDAR frames (1M–25M pts) | [`lidar`] | points concentrated near the ground plane, confined to a narrow z range, with vertical structures |
//! | Stanford scans: Bunny / Dragon / Buddha | [`scan`] | points sampled on closed 2D surfaces embedded in 3D, roughly uniform surface density |
//! | Millennium N-body traces (9M/10M galaxies) | [`nbody`] | hierarchically clustered ("fractal") distribution with strongly varying local density |
//!
//! All generators are deterministic given a seed (ChaCha8 PRNG) so every
//! experiment in `rtnn-bench` is reproducible bit-for-bit.

pub mod catalog;
pub mod dynamics;
pub mod lidar;
pub mod nbody;
pub mod scan;
pub mod uniform;

pub use catalog::{Dataset, DatasetName};
pub use dynamics::{DriftModel, DriftScene, FrameUpdate};
pub use lidar::LidarParams;
pub use nbody::NBodyParams;
pub use scan::{ScanModel, ScanParams};
pub use uniform::UniformParams;

use rtnn_math::{Aabb, Vec3};

/// A generated point cloud plus its provenance.
#[derive(Debug, Clone)]
pub struct PointCloud {
    /// The points.
    pub points: Vec<Vec3>,
    /// Human-readable name (e.g. `KITTI-1M (scaled 1/10)`).
    pub name: String,
}

impl PointCloud {
    /// Construct from raw points.
    pub fn new(name: impl Into<String>, points: Vec<Vec3>) -> Self {
        PointCloud {
            name: name.into(),
            points,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Bounding box of the cloud.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.points)
    }

    /// Use every `stride`-th point as a query (the paper's experiments use
    /// the data points themselves as queries).
    pub fn queries_subsampled(&self, stride: usize) -> Vec<Vec3> {
        assert!(stride >= 1);
        self.points.iter().copied().step_by(stride).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_cloud_helpers() {
        let pc = PointCloud::new(
            "test",
            vec![Vec3::ZERO, Vec3::ONE, Vec3::new(2.0, 0.0, 0.0)],
        );
        assert_eq!(pc.len(), 3);
        assert!(!pc.is_empty());
        assert_eq!(pc.bounds().max, Vec3::new(2.0, 1.0, 1.0));
        assert_eq!(pc.queries_subsampled(2).len(), 2);
        assert_eq!(pc.queries_subsampled(1).len(), 3);
    }
}
