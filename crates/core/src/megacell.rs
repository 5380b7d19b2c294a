//! Megacell computation (Section 5.1, Figure 10a).
//!
//! A uniform grid is laid over the search points. For each query, the
//! megacell is the smallest axis-aligned block of grid cells, grown
//! outwards from the cell containing the query, that holds at least `K`
//! points — growth stops early when the block would leave the cube
//! inscribed in the query's `r`-sphere (growing further could not help: a
//! bigger block would only add points outside the search radius along the
//! axes).
//!
//! The grid stores one `u32` per cell: an inclusive summed-volume table of
//! the cells' point counts. Counting the points in any block of cells then
//! takes at most eight table reads, so a growth step costs the host the
//! same whether its block holds one cell or the whole grid, and the last
//! step of a growth of n steps (an elongated grid, a wide radius) is found
//! by bracketing and bisecting in O(log n) counts. A streaming scene
//! refills the table in place when points change cell.
//!
//! The megacell width determines the per-partition AABB width (see
//! [`crate::partition`]); the number of points it holds estimates the local
//! density used by the bundling cost model (Equation 4).

use rtnn_math::{Aabb, GridCoord, UniformGrid, Vec3};

/// The grid the megacell pass operates on: a [`UniformGrid`] over the
/// search points, the cell each point is binned into, and a count table.
///
/// The table holds exactly one `u32` per grid cell, in
/// [`UniformGrid::cell_index`] order: the entry of cell `(x, y, z)` is the
/// number of points in the cells `[0, x] × [0, y] × [0, z]`. A block of
/// cells is counted from the entries at its corners by
/// inclusion–exclusion, at constant cost whatever its size.
///
/// For streaming scenes the grid supports *incremental* maintenance: it
/// remembers which cell every point was binned into, so when a frame moves a
/// subset of the points only those points' cells are recomputed and the
/// table is refilled in its own buffer ([`MegacellGrid::refresh`]); the
/// grid geometry (bounds, cell size, dimensions) survives.
#[derive(Debug, Clone)]
pub struct MegacellGrid {
    grid: UniformGrid,
    /// Inclusive summed-volume table of per-cell point counts.
    counts: Vec<u32>,
    /// Cell index each point is currently binned into (indexed by point id).
    point_cells: Vec<u32>,
}

/// Result of growing one query's megacell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MegacellResult {
    /// Growth steps beyond the central cell (0 = just the query's cell).
    pub steps: u32,
    /// Megacell width `(2·steps + 1) · cell_size`.
    pub width: f32,
    /// Number of points inside the megacell.
    pub found: u32,
    /// True if growth stopped at the inscribed-cube cap with fewer than `K`
    /// points found (a sparse region); such queries fall back to the full
    /// `2r` AABB.
    pub capped: bool,
    /// Grid cells examined — the work estimate charged to the device for the
    /// `Opt` component of Figure 12. Saturates at `u32::MAX`, so a larger
    /// radius never charges less.
    pub cells_scanned: u32,
}

impl MegacellGrid {
    /// Build the grid over `points`, using at most `max_cells` cells (the
    /// paper uses "the smallest cell size allowed by the GPU memory
    /// capacity"; `max_cells` stands in for that memory cap). Returns `None`
    /// for an empty point set.
    pub fn build(points: &[Vec3], max_cells: usize) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let bounds = Aabb::from_points(points);
        // Guard against a degenerate (single-point) cloud: give the grid a
        // tiny but positive extent.
        let bounds = if bounds.longest_extent() <= 0.0 {
            bounds.expanded(1e-3)
        } else {
            bounds
        };
        let grid = UniformGrid::with_max_cells(bounds, max_cells.max(8));
        Some(MegacellGrid::on_grid(grid, points))
    }

    /// Bin `points` into the cells of `grid` and fill the count table.
    fn on_grid(grid: UniformGrid, points: &[Vec3]) -> Self {
        let point_cells = points
            .iter()
            .map(|&p| grid.cell_index(grid.cell_of(p)) as u32)
            .collect();
        let mut mg = MegacellGrid {
            counts: vec![0; grid.num_cells()],
            grid,
            point_cells,
        };
        mg.fill_counts();
        mg
    }

    /// Refill the count table from `point_cells`, in place: one count per
    /// point into its cell, then inclusive prefix sums along x rows, y
    /// within each z slab, and z across slabs.
    fn fill_counts(&mut self) {
        let counts = &mut self.counts[..];
        counts.fill(0);
        for &c in &self.point_cells {
            counts[c as usize] += 1;
        }
        let [nx, ny, _] = self.grid.dims();
        let (row, slab) = (nx as usize, nx as usize * ny as usize);
        for cells in counts.chunks_exact_mut(row) {
            let mut sum = 0;
            for c in cells {
                sum += *c;
                *c = sum;
            }
        }
        prefix_runs(counts, slab, row);
        prefix_runs(counts, counts.len(), slab);
    }

    /// Number of points in the inclusive cell box `[lo, hi]`: the table
    /// entries at the box's eight outer corners, combined by
    /// inclusion–exclusion. A corner below the grid (an axis where `lo` is
    /// 0) reads 0. The sum wraps in `u32`, which is exact because the true
    /// count never exceeds the point count. Inlined into the growth search,
    /// where its address arithmetic folds into the search's.
    #[inline(always)]
    fn count_in_box(&self, lo: GridCoord, hi: GridCoord) -> u32 {
        let [nx, ny, _] = self.grid.dims();
        let (row, slab) = (nx as usize, nx as usize * ny as usize);
        // Per axis, the `hi` plane adds and the plane below `lo` subtracts.
        let planes = |lo: u32, hi: u32, stride: usize| {
            [
                Some((hi as usize * stride, false)),
                lo.checked_sub(1).map(|b| (b as usize * stride, true)),
            ]
        };
        let mut total = 0u32;
        for (z, z_sub) in planes(lo.z, hi.z, slab).into_iter().flatten() {
            for (y, y_sub) in planes(lo.y, hi.y, row).into_iter().flatten() {
                for (x, x_sub) in planes(lo.x, hi.x, 1).into_iter().flatten() {
                    let c = self.counts[z + y + x];
                    total = if z_sub ^ y_sub ^ x_sub {
                        total.wrapping_sub(c)
                    } else {
                        total.wrapping_add(c)
                    };
                }
            }
        }
        total
    }

    /// The cell box `steps` cells out from `centre` on every side, clamped
    /// to the grid.
    fn box_around(&self, centre: GridCoord, steps: u32) -> (GridCoord, GridCoord) {
        let [nx, ny, nz] = self.grid.dims();
        let lo = GridCoord::new(
            centre.x.saturating_sub(steps),
            centre.y.saturating_sub(steps),
            centre.z.saturating_sub(steps),
        );
        let hi = GridCoord::new(
            centre.x.saturating_add(steps).min(nx - 1),
            centre.y.saturating_add(steps).min(ny - 1),
            centre.z.saturating_add(steps).min(nz - 1),
        );
        (lo, hi)
    }

    /// Absorb a frame of motion: `points` are the current positions (same
    /// ids as at build time) and `moved` lists the ids whose position
    /// changed since the last build/refresh. Only the moved points' cells
    /// are recomputed; the count table is refilled in place when any point
    /// changed cell.
    ///
    /// Returns `false`, leaving `self` untouched, when the motion cannot be
    /// absorbed and the caller must rebuild the grid with
    /// [`MegacellGrid::build`]: the point count changed, or a moved point
    /// escaped the grid bounds (binning clamps out-of-bounds points into
    /// boundary cells, which would let the megacell counts claim points
    /// that are geometrically far outside the counted box and break the
    /// AABB-width soundness argument).
    pub fn refresh(&mut self, points: &[Vec3], moved: &[u32]) -> bool {
        if points.len() != self.point_cells.len() {
            return false;
        }
        let grid = &self.grid;
        // Each change as (id, new cell).
        let mut changes: Vec<(u32, u32)> = Vec::new();
        for &id in moved {
            let p = points[id as usize];
            if !grid.bounds().contains_point(p) {
                return false;
            }
            let cell = grid.cell_index(grid.cell_of(p)) as u32;
            if cell != self.point_cells[id as usize] {
                changes.push((id, cell));
            }
        }
        if !changes.is_empty() {
            for &(id, new_cell) in &changes {
                self.point_cells[id as usize] = new_cell;
            }
            self.fill_counts();
        }
        true
    }

    /// Edge length of one grid cell.
    pub fn cell_size(&self) -> f32 {
        self.grid.cell_size()
    }

    /// The underlying grid.
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Width of a megacell grown `steps` cells out from its central cell:
    /// `(2·steps + 1) · cell_size`. The cell count is formed in `u64`, so
    /// the step cap of an arbitrarily large radius does not overflow.
    pub(crate) fn width_at(&self, steps: u32) -> f32 {
        (2 * u64::from(steps) + 1) as f32 * self.cell_size()
    }

    /// Maximum number of growth steps for search radius `radius`: the
    /// megacell must stay within the cube inscribed in the `r`-sphere
    /// (width `2r/√3`).
    pub fn max_steps(&self, radius: f32) -> u32 {
        let inscribed = 2.0 * radius / 3.0_f32.sqrt();
        if inscribed <= self.cell_size() {
            return 0;
        }
        (((inscribed / self.cell_size()) - 1.0) / 2.0)
            .floor()
            .max(0.0) as u32
    }

    /// Grow the megacell for one query (Figure 10a).
    pub fn megacell_for(&self, query: Vec3, radius: f32, k: usize) -> MegacellResult {
        let grid = &self.grid;
        let centre = grid.cell_of(query);
        let max_steps = self.max_steps(radius);

        // Every width rule downstream (partition.rs) bounds the K-th-neighbor
        // distance by the query's position *inside* its central cell. A query
        // outside the grid is clamped into a boundary cell by `cell_of`, so
        // that bound does not hold for it — report it capped so it falls back
        // to the full-width `2r` AABB (like a sparse-region query). The stored
        // grid bounds are checked directly (not the reconstructed cell box,
        // whose `min + c·cell` arithmetic accumulates f32 rounding at high
        // cell indices and could misroute in-grid boundary queries).
        if !grid.bounds().contains_point(query) {
            return MegacellResult {
                steps: 0,
                width: self.cell_size(),
                found: 0,
                capped: true,
                cells_scanned: 1,
            };
        }

        let (steps, found) = self.growth(centre, k, max_steps);
        MegacellResult {
            steps,
            width: self.width_at(steps),
            found,
            capped: (found as usize) < k,
            cells_scanned: self.cells_through(centre, steps),
        }
    }

    /// The first growth step up to `max_steps` whose box around `centre`
    /// holds `k` points, with its count; `max_steps` and the count at the
    /// cap when none does. `found` never falls as the box grows and stops
    /// changing once the box spans the grid, so the step is bracketed by
    /// steps that grow by one and an eighth, up to the cap or the whole
    /// grid if nearer, and then bisected: O(log n) box counts for a growth
    /// of n steps. Up to step 8 the brackets are single steps, so a short
    /// growth, the common case, counts each of its boxes in turn, and
    /// consecutive boxes read neighbouring table entries.
    fn growth(&self, centre: GridCoord, k: usize, max_steps: u32) -> (u32, u32) {
        let count = |steps| {
            let (lo, hi) = self.box_around(centre, steps);
            self.count_in_box(lo, hi)
        };
        // The first step whose box spans the grid.
        let [nx, ny, nz] = self.grid.dims();
        let whole_grid = [
            centre.x,
            nx - 1 - centre.x,
            centre.y,
            ny - 1 - centre.y,
            centre.z,
            nz - 1 - centre.z,
        ]
        .into_iter()
        .fold(0, u32::max);
        let last = max_steps.min(whole_grid);
        // Every step below `lo` holds fewer than k points.
        let (mut lo, mut hi) = (0, 0);
        let mut found = count(0);
        while (found as usize) < k && hi < last {
            lo = hi + 1;
            hi = hi.saturating_add(1 + hi / 8).min(last);
            found = count(hi);
        }
        if (found as usize) < k {
            return (max_steps, found);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at_mid = count(mid);
            if at_mid as usize >= k {
                (hi, found) = (mid, at_mid);
            } else {
                lo = mid + 1;
            }
        }
        (hi, found)
    }

    /// The growth charge: the cells of every box from step 0 to `steps`
    /// around `centre`, summed and saturated at `u32::MAX`, from the box
    /// sizes alone. Until its box spans the grid, step `s` adds at least
    /// `s + 1` cells, so the sum saturates within about 92,700 steps; from
    /// the first box that spans the grid on, every step adds the whole
    /// grid, and those steps are charged at once.
    fn cells_through(&self, centre: GridCoord, steps: u32) -> u32 {
        let cap = u64::from(u32::MAX);
        let whole_grid = self.grid.num_cells() as u64;
        let mut total = 0u64;
        for s in 0..=steps {
            let (lo, hi) = self.box_around(centre, s);
            let volume = [hi.x - lo.x, hi.y - lo.y, hi.z - lo.z]
                .into_iter()
                .map(|span| u64::from(span) + 1)
                .product::<u64>();
            if volume == whole_grid {
                total = total.saturating_add(u64::from(steps - s + 1).saturating_mul(volume));
                break;
            }
            total += volume;
            if total >= cap {
                break;
            }
        }
        total.min(cap) as u32
    }
}

/// Within each `span`-long chunk of `counts`, add every `stride`-long run to
/// the run after it, front to back: an inclusive prefix sum over the runs.
fn prefix_runs(counts: &mut [u32], span: usize, stride: usize) {
    for chunk in counts.chunks_exact_mut(span) {
        for start in (stride..span).step_by(stride) {
            let (below, run) = chunk.split_at_mut(start);
            for (c, b) in run[..stride].iter_mut().zip(&below[start - stride..]) {
                *c += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_grid_points(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32) * spacing);
                }
            }
        }
        pts
    }

    #[test]
    fn empty_points_give_no_grid() {
        assert!(MegacellGrid::build(&[], 1000).is_none());
    }

    #[test]
    fn single_point_cloud_builds() {
        let mg = MegacellGrid::build(&[Vec3::ONE], 1000).unwrap();
        let r = mg.megacell_for(Vec3::ONE, 1.0, 1);
        assert_eq!(r.found, 1);
        assert!(!r.capped);
    }

    #[test]
    fn growth_stops_when_k_is_reached() {
        let points = dense_grid_points(10, 1.0);
        let mg = MegacellGrid::build(&points, 32 * 32 * 32).unwrap();
        let q = Vec3::new(5.0, 5.0, 5.0);
        let small_k = mg.megacell_for(q, 4.0, 2);
        let big_k = mg.megacell_for(q, 4.0, 200);
        assert!(small_k.found >= 2);
        assert!(big_k.steps >= small_k.steps);
        assert!(big_k.width >= small_k.width);
        assert!(big_k.cells_scanned >= small_k.cells_scanned);
    }

    #[test]
    fn growth_is_capped_by_the_inscribed_cube() {
        // A sparse cloud: the megacell cannot reach K points before hitting
        // the cap, so the query is flagged `capped`.
        let points = vec![Vec3::ZERO, Vec3::new(50.0, 0.0, 0.0)];
        let mg = MegacellGrid::build(&points, 64 * 64 * 64).unwrap();
        let r = mg.megacell_for(Vec3::new(25.0, 0.0, 0.0), 2.0, 5);
        assert!(r.capped);
        assert_eq!(r.found, 0);
        // The megacell width never exceeds the inscribed-cube width (one cell
        // of slack allowed when the cell itself is larger than the cube).
        let inscribed = 2.0 * 2.0 / 3.0_f32.sqrt();
        assert!(r.width <= inscribed + mg.cell_size());
    }

    #[test]
    fn max_steps_shrinks_with_radius() {
        let points = dense_grid_points(8, 1.0);
        let mg = MegacellGrid::build(&points, 64 * 64 * 64).unwrap();
        assert!(mg.max_steps(10.0) > mg.max_steps(1.0));
        assert_eq!(mg.max_steps(1e-6), 0);
    }

    #[test]
    fn denser_regions_need_smaller_megacells() {
        // Half the cloud is dense, half is sparse: the dense-region query
        // stops earlier.
        let mut points = Vec::new();
        for i in 0..1000 {
            // Dense blob around the origin.
            let f = i as f32;
            points.push(Vec3::new(
                (f * 0.618) % 2.0,
                (f * 0.414) % 2.0,
                (f * 0.273) % 2.0,
            ));
        }
        for i in 0..50 {
            // Sparse far region.
            points.push(Vec3::new(20.0 + (i as f32) * 0.9, 20.0, 20.0));
        }
        let mg = MegacellGrid::build(&points, 64 * 64 * 64).unwrap();
        let dense = mg.megacell_for(Vec3::new(1.0, 1.0, 1.0), 8.0, 16);
        let sparse = mg.megacell_for(Vec3::new(25.0, 20.0, 20.0), 8.0, 16);
        assert!(dense.width <= sparse.width);
        assert!(dense.found >= 16);
    }

    #[test]
    fn refresh_absorbs_in_bounds_motion_and_matches_a_fresh_build() {
        let mut points = dense_grid_points(6, 1.0);
        let mut mg = MegacellGrid::build(&points, 4096).unwrap();
        // Move a handful of points to other cells (staying inside bounds).
        let moved: Vec<u32> = vec![3, 40, 100, 150];
        for &id in &moved {
            let p = &mut points[id as usize];
            p.x = (p.x + 2.0) % 5.0;
            p.y = (p.y + 1.0) % 5.0;
        }
        let before = mg.counts.clone();
        assert!(
            mg.refresh(&points, &moved),
            "in-bounds motion must refresh in place"
        );
        assert_ne!(mg.counts, before, "the motion must change some count");
        // Every megacell result equals a freshly built grid's (geometry was
        // preserved, so cell size and dims agree).
        let fresh = MegacellGrid::build(&points, 4096).unwrap();
        assert_eq!(mg.cell_size(), fresh.cell_size());
        for q in [
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(2.5, 2.5, 2.5),
            Vec3::new(4.9, 0.1, 3.3),
        ] {
            assert_eq!(mg.megacell_for(q, 2.0, 8), fresh.megacell_for(q, 2.0, 8));
        }
    }

    #[test]
    fn refresh_with_intra_cell_motion_leaves_the_counts_unchanged() {
        let mut points = dense_grid_points(5, 1.0);
        let mut mg = MegacellGrid::build(&points, 4096).unwrap();
        let cell = mg.cell_size();
        // Nudge every interior point by much less than a cell (points on the
        // max face are left alone so nothing escapes the grid bounds).
        let mut moved: Vec<u32> = Vec::new();
        for (i, p) in points.iter_mut().enumerate() {
            if p.x < 3.5 {
                p.x += 0.01 * cell;
                moved.push(i as u32);
            }
        }
        let before = mg.counts.clone();
        assert!(
            mg.refresh(&points, &moved),
            "tiny motion should not force a rebuild"
        );
        // The points sit on cell faces and move a hundredth of a cell into
        // the cell above, so none changes cell.
        assert_eq!(mg.counts, before);
    }

    #[test]
    fn refresh_demands_rebuild_when_points_escape_or_counts_change() {
        let mut points = dense_grid_points(4, 1.0);
        let mut mg = MegacellGrid::build(&points, 4096).unwrap();
        let before = (mg.counts.clone(), mg.point_cells.clone());
        // A point leaves the grid bounds entirely, after one that changes
        // cell: the grid is left untouched.
        points[3] = Vec3::splat(2.5);
        points[7] = Vec3::new(100.0, 0.0, 0.0);
        assert!(!mg.refresh(&points, &[3, 7]));
        assert_eq!((mg.counts.clone(), mg.point_cells.clone()), before);
        // Point-count changes always force a rebuild.
        points.pop();
        assert!(!mg.refresh(&points, &[]));
    }

    #[test]
    fn queries_outside_the_grid_fall_back_to_the_capped_path() {
        // The downstream width rules assume the query lies inside its central
        // cell; a query outside the grid must be reported capped so the
        // partitioner gives it the full-width `2r` AABB (anything narrower is
        // unsound — the K nearest points can be farther than the megacell
        // bound accounts for).
        let points = dense_grid_points(4, 1.0);
        let mg = MegacellGrid::build(&points, 4096).unwrap();
        for q in [
            Vec3::new(-100.0, -100.0, -100.0),
            Vec3::new(1.5, 1.5, 3.5), // just beyond the max face on one axis
            Vec3::new(-0.1, 1.5, 1.5),
        ] {
            let r = mg.megacell_for(q, 2.0, 4);
            assert!(r.capped, "out-of-grid query {q:?} must be capped");
            assert_eq!(r.found, 0);
            assert!(r.cells_scanned > 0);
        }
        // Queries inside the grid (including on the boundary faces) keep the
        // normal growth path.
        for q in [
            Vec3::new(1.5, 1.5, 1.5),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(3.0, 3.0, 3.0),
        ] {
            let r = mg.megacell_for(q, 2.0, 4);
            assert!(!r.capped, "in-grid query {q:?} must not be capped");
            assert!(r.found >= 4);
        }
    }

    /// The row scan the count table replaced: a prefix over per-cell counts
    /// in `cell_index` order, with a box summed one x-row at a time. Every
    /// table count and every growth result must match it.
    struct RowScan {
        grid: UniformGrid,
        cell_start: Vec<u32>,
    }

    impl RowScan {
        fn new(grid: &UniformGrid, points: &[Vec3]) -> Self {
            let mut cell_start = vec![0u32; grid.num_cells() + 1];
            for &p in points {
                cell_start[grid.cell_index(grid.cell_of(p)) + 1] += 1;
            }
            for i in 1..cell_start.len() {
                cell_start[i] += cell_start[i - 1];
            }
            RowScan {
                grid: grid.clone(),
                cell_start,
            }
        }

        fn count_in_cell_box(&self, lo: GridCoord, hi: GridCoord) -> u32 {
            let mut total = 0;
            for z in lo.z..=hi.z {
                for y in lo.y..=hi.y {
                    let row_lo = self.grid.cell_index(GridCoord { x: lo.x, y, z });
                    let row_hi = self.grid.cell_index(GridCoord { x: hi.x, y, z });
                    total += self.cell_start[row_hi + 1] - self.cell_start[row_lo];
                }
            }
            total
        }

        /// The growth loop as it ran over the row scan: one step at a time,
        /// the charge saturating at `u32::MAX`.
        fn megacell_for(&self, max_steps: u32, query: Vec3, k: usize) -> MegacellResult {
            let grid = &self.grid;
            let centre = grid.cell_of(query);
            let dims = grid.dims();
            if !grid.bounds().contains_point(query) {
                return MegacellResult {
                    steps: 0,
                    width: grid.cell_size(),
                    found: 0,
                    capped: true,
                    cells_scanned: 1,
                };
            }
            let mut steps = 0u32;
            let mut cells_scanned = 0u32;
            let mut found;
            loop {
                let lo = GridCoord::new(
                    centre.x.saturating_sub(steps),
                    centre.y.saturating_sub(steps),
                    centre.z.saturating_sub(steps),
                );
                let hi = GridCoord::new(
                    (centre.x + steps).min(dims[0] - 1),
                    (centre.y + steps).min(dims[1] - 1),
                    (centre.z + steps).min(dims[2] - 1),
                );
                found = self.count_in_cell_box(lo, hi);
                let volume = (hi.x - lo.x + 1) * (hi.y - lo.y + 1) * (hi.z - lo.z + 1);
                cells_scanned = cells_scanned.saturating_add(volume);
                if found as usize >= k || steps >= max_steps {
                    break;
                }
                if lo.x == 0
                    && lo.y == 0
                    && lo.z == 0
                    && hi.x == dims[0] - 1
                    && hi.y == dims[1] - 1
                    && hi.z == dims[2] - 1
                {
                    cells_scanned =
                        cells_scanned.saturating_add((max_steps - steps).saturating_mul(volume));
                    steps = max_steps;
                    break;
                }
                steps += 1;
            }
            MegacellResult {
                steps,
                width: (2 * u64::from(steps) + 1) as f32 * grid.cell_size(),
                found,
                capped: (found as usize) < k,
                cells_scanned,
            }
        }
    }

    /// Every inclusive cell box of `grid`.
    fn every_box(grid: &UniformGrid) -> Vec<(GridCoord, GridCoord)> {
        let [nx, ny, nz] = grid.dims();
        let spans = |n: u32| (0..n).flat_map(move |lo| (lo..n).map(move |hi| (lo, hi)));
        let mut boxes = Vec::new();
        for (lz, hz) in spans(nz) {
            for (ly, hy) in spans(ny) {
                for (lx, hx) in spans(nx) {
                    boxes.push((GridCoord::new(lx, ly, lz), GridCoord::new(hx, hy, hz)));
                }
            }
        }
        boxes
    }

    /// A seeded stream of uniform floats in `[0, 1)` (SplitMix64).
    fn unit_floats(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    /// Seeded uniform, clustered and planar clouds, and a single point.
    fn test_clouds(seed: u64) -> Vec<(&'static str, Vec<Vec3>)> {
        let mut next = unit_floats(seed);
        let mut in_box = |scale: f32| Vec3::new(next(), next(), next()) * scale;
        let uniform: Vec<Vec3> = (0..400).map(|_| in_box(10.0)).collect();
        let centres = [
            Vec3::splat(2.0),
            Vec3::new(15.0, 3.0, 8.0),
            Vec3::splat(17.0),
        ];
        let mut clustered: Vec<Vec3> = (0..360).map(|i| centres[i % 3] + in_box(1.0)).collect();
        clustered.extend((0..12).map(|_| in_box(20.0)));
        let planar: Vec<Vec3> = (0..300)
            .map(|_| {
                let p = in_box(10.0);
                Vec3::new(p.x, p.y, 2.0)
            })
            .collect();
        vec![
            ("uniform", uniform),
            ("clustered", clustered),
            ("planar", planar),
            ("single", vec![Vec3::new(1.0, 2.0, 3.0)]),
        ]
    }

    #[test]
    fn table_counts_match_the_row_scan_on_every_box() {
        // Four points on a 2×2×2 unit grid.
        let pts = [
            Vec3::splat(0.5),         // cell (0,0,0)
            Vec3::new(1.5, 0.5, 0.5), // cell (1,0,0)
            Vec3::new(1.5, 1.5, 0.5), // cell (1,1,0)
            Vec3::new(1.5, 1.5, 1.5), // cell (1,1,1)
        ];
        let unit = UniformGrid::new(Aabb::new(Vec3::ZERO, Vec3::splat(2.0)), 1.0);
        let mg = MegacellGrid::on_grid(unit, &pts);
        let (o, l) = (GridCoord::new(0, 0, 0), GridCoord::new(1, 1, 1));
        assert_eq!(mg.count_in_box(o, o), 1);
        assert_eq!(mg.count_in_box(o, l), 4);
        let (a, b) = (GridCoord::new(1, 0, 0), GridCoord::new(1, 1, 0));
        assert_eq!(mg.count_in_box(a, b), 2);

        // Seeded clouds, and one on a grid of unequal sides: every box.
        let mut checked = 0;
        for seed in 1..=3u64 {
            let mut grids: Vec<_> = test_clouds(seed)
                .into_iter()
                .map(|(name, points)| (name, MegacellGrid::build(&points, 125).unwrap(), points))
                .collect();
            let stretched: Vec<Vec3> = grids[0]
                .2
                .iter()
                .map(|&p| p * Vec3::new(1.0, 0.6, 0.4))
                .collect();
            let sides = Aabb::new(Vec3::ZERO, Vec3::new(10.0, 6.0, 4.0));
            let unequal = MegacellGrid::on_grid(UniformGrid::new(sides, 1.5), &stretched);
            assert_eq!(unequal.grid().dims(), [7, 4, 3]);
            grids.push(("unequal sides", unequal, stretched));
            for (name, mg, points) in grids {
                assert_eq!(mg.counts.len(), mg.grid().num_cells(), "{name}");
                let reference = RowScan::new(mg.grid(), &points);
                for (lo, hi) in every_box(mg.grid()) {
                    assert_eq!(
                        mg.count_in_box(lo, hi),
                        reference.count_in_cell_box(lo, hi),
                        "{name}, seed {seed}, box {lo:?}..={hi:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "only {checked} boxes");
    }

    #[test]
    fn growth_matches_the_row_scan_reference() {
        for (name, points) in test_clouds(7) {
            let mg = MegacellGrid::build(&points, 1 << 12).unwrap();
            let grid = mg.grid();
            if name == "planar" {
                assert_eq!(grid.dims()[2], 1);
            }
            let reference = RowScan::new(grid, &points);
            let bounds = *grid.bounds();
            let (lo, hi, mid) = (bounds.min, bounds.max, bounds.center());
            let mut queries: Vec<Vec3> = points.iter().step_by(37).copied().collect();
            queries.extend([
                lo,
                mid,
                hi,
                // On each max face.
                Vec3::new(hi.x, mid.y, mid.z),
                Vec3::new(mid.x, hi.y, mid.z),
                Vec3::new(mid.x, mid.y, hi.z),
                // Outside.
                hi + Vec3::splat(1.0),
                lo - Vec3::splat(0.25),
                Vec3::new(mid.x, mid.y, hi.z + 0.5),
            ]);
            let cell = mg.cell_size();
            let past_grid = 3.0 * bounds.extent().length() + cell;
            let radii = [
                0.5 * cell,
                cell,
                2.0 * cell,
                5.0 * cell,
                20.0 * cell,
                past_grid,
            ];
            assert_eq!(mg.max_steps(radii[0]), 0);
            let widest = grid.dims().into_iter().max().unwrap();
            assert!(mg.max_steps(past_grid) > widest, "{name}");
            let n = points.len();
            for &q in &queries {
                for &r in &radii {
                    for k in [1, 2, 7, n, n + 1, 3 * n] {
                        assert_eq!(
                            mg.megacell_for(q, r, k),
                            reference.megacell_for(mg.max_steps(r), q, k),
                            "{name}: q {q:?}, r {r}, k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_leaves_every_box_count_equal_to_a_fresh_build() {
        let mut points = test_clouds(11).swap_remove(0).1;
        let mut mg = MegacellGrid::build(&points, 6 * 6 * 6).unwrap();
        let before = mg.counts.clone();
        // Move every fifth point onto another point's position: each stays
        // in bounds, and cell populations change.
        let moved: Vec<u32> = (0..points.len() as u32).step_by(5).collect();
        for &id in &moved {
            points[id as usize] = points[id as usize / 5 + 1];
        }
        assert!(
            mg.refresh(&points, &moved),
            "in-bounds motion must refresh in place"
        );
        assert_ne!(mg.counts, before, "the motion must change some count");
        let fresh = MegacellGrid::on_grid(mg.grid().clone(), &points);
        for (lo, hi) in every_box(mg.grid()) {
            assert_eq!(
                mg.count_in_box(lo, hi),
                fresh.count_in_box(lo, hi),
                "box {lo:?}..={hi:?}"
            );
        }
    }

    #[test]
    fn huge_radii_saturate_the_charge_instead_of_overflowing() {
        // A 12³ unit grid under the engine's default 2^21-cell budget. A
        // query that never finds k points jumps to the step cap and is
        // charged the whole grid for every remaining step; past r ≈ 1e2
        // that charge, the cap's box bounds and its width no longer fit
        // `u32` (a panic in a debug build, a wrapped charge in release).
        let points = dense_grid_points(12, 1.0);
        let mg = MegacellGrid::build(&points, 1 << 21).unwrap();
        let q = Vec3::splat(5.5);
        let mut charge = 0;
        for r in [1e1, 1e2, 1e3, 1e5, 1e9, 1e30, f32::MAX] {
            let mc = mg.megacell_for(q, r, 4000);
            assert!(mc.capped && mc.found == 1728, "r {r}: {mc:?}");
            assert!(mc.cells_scanned >= charge, "r {r}: charge fell");
            charge = mc.cells_scanned;
            assert!(mc.width.is_finite() && mc.width > 0.0, "r {r}: {mc:?}");
        }
        assert_eq!(charge, u32::MAX);
    }

    #[test]
    fn long_growths_match_the_step_loop() {
        // 10k points 0.1 apart along x under the default cell budget: a
        // 1,000,000×1×1 grid, where a wide radius and a large k take the
        // step-by-step growth hundreds of thousands of steps.
        let line: Vec<Vec3> = (0..10_000)
            .map(|i| Vec3::new(0.1 * i as f32, 0.0, 0.0))
            .collect();
        // A 100×100 lattice on a plane: a 1317×1317×1 grid, where a long
        // growth from a corner or an edge clamps on one side of an axis
        // long before the other.
        let plane: Vec<Vec3> = (0..10_000)
            .map(|i| Vec3::new((i % 100) as f32, (i / 100) as f32, 0.0))
            .collect();
        // 2,000 seeded points in a 100³ box: a 128³ grid, where a long
        // growth clamps on each side of each axis at a different step.
        let mut next = unit_floats(29);
        let mut cube: Vec<Vec3> = (0..2_000)
            .map(|_| Vec3::new(next(), next(), next()) * 100.0)
            .collect();
        cube.extend([Vec3::ZERO, Vec3::splat(100.0)]);
        for (name, points, dims, queries, radii) in [
            (
                "line",
                line.clone(),
                [1_000_000, 1, 1],
                vec![line[0], line[3_700], line[9_999]],
                [100.0, 1_000.0],
            ),
            (
                "plane",
                plane.clone(),
                [1317, 1317, 1],
                vec![
                    plane[0],
                    plane[50],
                    plane[4_950],
                    Vec3::new(30.3, 80.6, 0.0),
                ],
                [20.0, 200.0],
            ),
            (
                "cube",
                cube.clone(),
                [128, 128, 128],
                vec![cube[0], cube[7], Vec3::new(10.0, 90.0, 40.0)],
                [60.0, 200.0],
            ),
        ] {
            let mg = MegacellGrid::build(&points, 1 << 21).unwrap();
            assert_eq!(mg.grid().dims(), dims, "{name}");
            let reference = RowScan::new(mg.grid(), &points);
            let mut longest = 0;
            for &q in &queries {
                for r in radii {
                    for k in [1_500, 2_000, 10_000, 20_000] {
                        let got = mg.megacell_for(q, r, k);
                        let want = reference.megacell_for(mg.max_steps(r), q, k);
                        assert_eq!(got, want, "{name}: q {q:?}, r {r}, k {k}");
                        longest = longest.max(got.steps);
                    }
                }
            }
            assert!(longest > 64, "{name}: longest growth {longest} steps");
        }
    }
}
