//! Uniform grids over a 3D scene.
//!
//! Two consumers, mirroring the paper:
//!
//! * the query-partitioning optimisation (Section 5.1) lays a uniform grid
//!   over the search points and grows a *megacell* around each query, and
//! * the grid-based baselines (cuNSearch-like fixed-radius search and
//!   FRNN-like KNN) bin points into cells and scan neighbouring cells.
//!
//! [`UniformGrid`] is pure geometry (point ↔ cell mapping) and serves both.
//! [`PointBins`] adds a counting-sort of point ids by cell, the layout the
//! grid baselines use and charge memory accesses against; the megacell pass
//! counts points with a table of its own (`rtnn::MegacellGrid`).

use crate::{Aabb, Vec3};

/// Integer coordinates of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCoord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl GridCoord {
    /// Construct a coordinate triple.
    #[inline]
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        GridCoord { x, y, z }
    }
}

/// A uniform grid covering an AABB with cubical cells.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bounds: Aabb,
    cell_size: f32,
    dims: [u32; 3],
}

impl UniformGrid {
    /// Build a grid over `bounds` with the given `cell_size`. The bounds are
    /// expanded by a small epsilon so points exactly on the max face still
    /// map to a valid cell. Panics if `cell_size` is not strictly positive or
    /// `bounds` is empty.
    pub fn new(bounds: Aabb, cell_size: f32) -> Self {
        assert!(
            cell_size > 0.0,
            "cell_size must be positive, got {cell_size}"
        );
        assert!(!bounds.is_empty(), "cannot build a grid over an empty AABB");
        let ext = bounds.extent();
        let dim = |e: f32| ((e / cell_size).ceil() as u32).max(1);
        UniformGrid {
            bounds,
            cell_size,
            dims: [dim(ext.x), dim(ext.y), dim(ext.z)],
        }
    }

    /// Build a grid with at most `max_cells` total cells by choosing the cell
    /// size accordingly (the paper uses "the smallest cell size allowed by
    /// the GPU memory capacity"; `max_cells` plays the role of that memory
    /// cap).
    pub fn with_max_cells(bounds: Aabb, max_cells: usize) -> Self {
        assert!(max_cells >= 1);
        assert!(!bounds.is_empty(), "cannot build a grid over an empty AABB");
        let ext = bounds.extent();
        // Degenerate axes contribute a single cell; distribute resolution over
        // the remaining ones.
        let volume: f64 = [ext.x, ext.y, ext.z]
            .iter()
            .map(|&e| if e > 0.0 { e as f64 } else { 1.0 })
            .product();
        let live_axes = [ext.x, ext.y, ext.z]
            .iter()
            .filter(|&&e| e > 0.0)
            .count()
            .max(1);
        let cell = (volume / max_cells as f64).powf(1.0 / live_axes as f64) as f32;
        let cell = cell.max(ext.max_component() * 1e-6).max(f32::MIN_POSITIVE);
        let mut grid = UniformGrid::new(bounds, cell);
        // Rounding of `ceil` can overshoot max_cells slightly; grow the cell
        // until the budget is respected.
        while grid.num_cells() > max_cells {
            grid = UniformGrid::new(bounds, grid.cell_size * 1.1);
        }
        grid
    }

    /// The grid's bounding box.
    #[inline]
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// Edge length of a cell.
    #[inline]
    pub fn cell_size(&self) -> f32 {
        self.cell_size
    }

    /// Number of cells along each axis.
    #[inline]
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.dims[0] as usize * self.dims[1] as usize * self.dims[2] as usize
    }

    /// Cell containing `p`, clamped to the grid.
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> GridCoord {
        let rel = (p - self.bounds.min) / self.cell_size;
        let clamp = |v: f32, d: u32| (v.floor().max(0.0) as u32).min(d - 1);
        GridCoord {
            x: clamp(rel.x, self.dims[0]),
            y: clamp(rel.y, self.dims[1]),
            z: clamp(rel.z, self.dims[2]),
        }
    }

    /// Linear index of a cell (x fastest, z slowest) — the "raster-scan
    /// order" used in the Figure 5 experiment.
    #[inline]
    pub fn cell_index(&self, c: GridCoord) -> usize {
        (c.z as usize * self.dims[1] as usize + c.y as usize) * self.dims[0] as usize + c.x as usize
    }

    /// Inverse of [`Self::cell_index`].
    #[inline]
    pub fn coord_of_index(&self, idx: usize) -> GridCoord {
        let nx = self.dims[0] as usize;
        let ny = self.dims[1] as usize;
        GridCoord {
            x: (idx % nx) as u32,
            y: ((idx / nx) % ny) as u32,
            z: (idx / (nx * ny)) as u32,
        }
    }

    /// Geometric bounds of a cell.
    #[inline]
    pub fn cell_bounds(&self, c: GridCoord) -> Aabb {
        let min = self.bounds.min
            + Vec3::new(
                c.x as f32 * self.cell_size,
                c.y as f32 * self.cell_size,
                c.z as f32 * self.cell_size,
            );
        Aabb::new(min, min + Vec3::splat(self.cell_size))
    }

    /// Iterate all cell coordinates in the inclusive range `[lo, hi]` in
    /// raster order.
    pub fn iter_range(&self, lo: GridCoord, hi: GridCoord) -> impl Iterator<Item = GridCoord> {
        let (lx, hx) = (lo.x, hi.x);
        let (ly, hy) = (lo.y, hi.y);
        let (lz, hz) = (lo.z, hi.z);
        (lz..=hz).flat_map(move |z| {
            (ly..=hy).flat_map(move |y| (lx..=hx).map(move |x| GridCoord { x, y, z }))
        })
    }
}

/// Points binned into the cells of a [`UniformGrid`] by counting sort.
///
/// `cell_start[i]..cell_start[i+1]` indexes `point_ids` for cell `i`; this is
/// the standard GPU layout (cuNSearch, FRNN) and the one the grid baselines'
/// simulated kernels charge memory traffic against. The megacell pass does
/// not use it: it only counts points, and keeps one count per cell.
#[derive(Debug, Clone)]
pub struct PointBins {
    grid: UniformGrid,
    cell_start: Vec<u32>,
    point_ids: Vec<u32>,
}

impl PointBins {
    /// Bin `points` into `grid` cells.
    pub fn build(grid: UniformGrid, points: &[Vec3]) -> Self {
        let cells: Vec<u32> = points
            .iter()
            .map(|&p| grid.cell_index(grid.cell_of(p)) as u32)
            .collect();
        let n_cells = grid.num_cells();
        let mut counts = vec![0u32; n_cells + 1];
        for &c in &cells {
            counts[c as usize + 1] += 1;
        }
        for i in 0..n_cells {
            counts[i + 1] += counts[i];
        }
        let cell_start = counts;
        let mut cursor = cell_start.clone();
        let mut point_ids = vec![0u32; cells.len()];
        for (i, &c) in cells.iter().enumerate() {
            point_ids[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        PointBins {
            grid,
            cell_start,
            point_ids,
        }
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Point ids stored in `cell`.
    #[inline]
    pub fn cell_points(&self, cell: GridCoord) -> &[u32] {
        let idx = self.grid.cell_index(cell);
        let start = self.cell_start[idx] as usize;
        let end = self.cell_start[idx + 1] as usize;
        &self.point_ids[start..end]
    }

    /// Number of points in `cell`.
    #[inline]
    pub fn cell_count(&self, cell: GridCoord) -> u32 {
        let idx = self.grid.cell_index(cell);
        self.cell_start[idx + 1] - self.cell_start[idx]
    }

    /// Total number of binned points.
    #[inline]
    pub fn len(&self) -> usize {
        self.point_ids.len()
    }

    /// True if no points were binned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.point_ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(cells_per_axis: u32) -> UniformGrid {
        UniformGrid::new(
            Aabb::new(Vec3::ZERO, Vec3::splat(cells_per_axis as f32)),
            1.0,
        )
    }

    #[test]
    fn dimensions_and_counts() {
        let g = unit_grid(4);
        assert_eq!(g.dims(), [4, 4, 4]);
        assert_eq!(g.num_cells(), 64);
        assert_eq!(g.cell_size(), 1.0);
        let g2 = UniformGrid::new(Aabb::new(Vec3::ZERO, Vec3::new(2.5, 1.0, 0.9)), 1.0);
        assert_eq!(g2.dims(), [3, 1, 1]);
    }

    #[test]
    fn point_to_cell_mapping_and_clamping() {
        let g = unit_grid(4);
        assert_eq!(g.cell_of(Vec3::new(0.5, 0.5, 0.5)), GridCoord::new(0, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(3.9, 0.1, 2.2)), GridCoord::new(3, 0, 2));
        // Points on / beyond the max face clamp into the last cell.
        assert_eq!(g.cell_of(Vec3::new(4.0, 4.0, 4.0)), GridCoord::new(3, 3, 3));
        assert_eq!(
            g.cell_of(Vec3::new(-1.0, 5.0, 2.0)),
            GridCoord::new(0, 3, 2)
        );
    }

    #[test]
    fn index_round_trip() {
        let g = unit_grid(3);
        for idx in 0..g.num_cells() {
            let c = g.coord_of_index(idx);
            assert_eq!(g.cell_index(c), idx);
        }
    }

    #[test]
    fn cell_bounds_partition_the_domain() {
        let g = unit_grid(2);
        let b = g.cell_bounds(GridCoord::new(1, 0, 1));
        assert_eq!(b.min, Vec3::new(1.0, 0.0, 1.0));
        assert_eq!(b.max, Vec3::new(2.0, 1.0, 2.0));
    }

    #[test]
    fn max_cells_budget_is_respected() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(10.0, 20.0, 5.0));
        for budget in [1usize, 64, 1000, 8192] {
            let g = UniformGrid::with_max_cells(bounds, budget);
            assert!(
                g.num_cells() <= budget,
                "budget {budget} -> {}",
                g.num_cells()
            );
        }
        // Planar bounds (degenerate z) still work.
        let planar = Aabb::new(Vec3::ZERO, Vec3::new(10.0, 10.0, 0.0));
        let g = UniformGrid::with_max_cells(planar, 256);
        assert!(g.num_cells() <= 256);
        assert_eq!(g.dims()[2], 1);
    }

    #[test]
    fn range_iteration_is_exhaustive() {
        let g = unit_grid(4);
        let cells: Vec<_> = g
            .iter_range(GridCoord::new(1, 1, 1), GridCoord::new(2, 3, 1))
            .collect();
        assert_eq!(cells.len(), 2 * 3); // 2 × 3 × 1 cells
        assert!(cells.contains(&GridCoord::new(2, 3, 1)));
    }

    #[test]
    fn bins_preserve_every_point_exactly_once() {
        let g = unit_grid(4);
        let pts: Vec<Vec3> = (0..100)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.37) % 4.0, (f * 0.61) % 4.0, (f * 0.13) % 4.0)
            })
            .collect();
        let bins = PointBins::build(g, &pts);
        assert_eq!(bins.len(), pts.len());
        assert!(!bins.is_empty());
        let mut seen = vec![false; pts.len()];
        for idx in 0..bins.grid().num_cells() {
            let c = bins.grid().coord_of_index(idx);
            assert_eq!(bins.cell_count(c) as usize, bins.cell_points(c).len());
            for &pid in bins.cell_points(c) {
                assert!(!seen[pid as usize], "point {pid} binned twice");
                seen[pid as usize] = true;
                // The point really is inside the cell it was binned into.
                assert!(bins
                    .grid()
                    .cell_bounds(c)
                    .expanded(1e-5)
                    .contains_point(pts[pid as usize]));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_panics() {
        let _ = UniformGrid::new(Aabb::new(Vec3::ZERO, Vec3::ONE), 0.0);
    }
}
