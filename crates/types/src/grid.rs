//! Occupancy-grid indexing and ray traversal.
//!
//! Grids are row-major with cell `(0, 0)` at the world-frame origin
//! corner. `GridDims` carries the resolution (metres per cell) and the
//! world-frame origin so world↔grid conversion lives in one place.

use crate::geometry::Point2;
use std::ops::ControlFlow;

/// Integer cell coordinate in a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridIndex {
    /// Column (x direction).
    pub col: i32,
    /// Row (y direction).
    pub row: i32,
}

impl GridIndex {
    /// Construct a cell index.
    pub fn new(col: i32, row: i32) -> Self {
        GridIndex { col, row }
    }

    /// Chebyshev (8-connected) distance to another cell (in i64: cells
    /// at opposite ends of the i32 range are 2³² − 1 apart).
    pub fn chebyshev(self, other: GridIndex) -> i64 {
        let (dc, dr) = self.deltas(other);
        dc.max(dr)
    }

    /// Manhattan (4-connected) distance to another cell.
    pub fn manhattan(self, other: GridIndex) -> i64 {
        let (dc, dr) = self.deltas(other);
        dc + dr
    }

    fn deltas(self, other: GridIndex) -> (i64, i64) {
        (
            (self.col as i64 - other.col as i64).abs(),
            (self.row as i64 - other.row as i64).abs(),
        )
    }

    /// The 4-connected neighbours (no bounds check).
    pub fn neighbors4(self) -> [GridIndex; 4] {
        [
            GridIndex::new(self.col + 1, self.row),
            GridIndex::new(self.col - 1, self.row),
            GridIndex::new(self.col, self.row + 1),
            GridIndex::new(self.col, self.row - 1),
        ]
    }

    /// The 8-connected neighbours (no bounds check).
    pub fn neighbors8(self) -> [GridIndex; 8] {
        [
            GridIndex::new(self.col + 1, self.row),
            GridIndex::new(self.col - 1, self.row),
            GridIndex::new(self.col, self.row + 1),
            GridIndex::new(self.col, self.row - 1),
            GridIndex::new(self.col + 1, self.row + 1),
            GridIndex::new(self.col + 1, self.row - 1),
            GridIndex::new(self.col - 1, self.row + 1),
            GridIndex::new(self.col - 1, self.row - 1),
        ]
    }
}

/// Grid geometry: size, resolution, and world-frame origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridDims {
    /// Number of columns.
    pub width: u32,
    /// Number of rows.
    pub height: u32,
    /// Metres per cell.
    pub resolution: f64,
    /// World coordinates of the lower-left corner of cell (0, 0).
    pub origin: Point2,
}

impl GridDims {
    /// Construct grid geometry.
    pub fn new(width: u32, height: u32, resolution: f64, origin: Point2) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        GridDims {
            width,
            height,
            resolution,
            origin,
        }
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// True when the grid has zero cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// World extent in metres (width, height).
    pub fn world_size(&self) -> (f64, f64) {
        (
            self.width as f64 * self.resolution,
            self.height as f64 * self.resolution,
        )
    }

    /// Does this cell lie inside the grid?
    pub fn contains(&self, idx: GridIndex) -> bool {
        idx.col >= 0
            && idx.row >= 0
            && (idx.col as u32) < self.width
            && (idx.row as u32) < self.height
    }

    /// Row-major flat index for a contained cell.
    pub fn flat(&self, idx: GridIndex) -> usize {
        debug_assert!(self.contains(idx));
        idx.row as usize * self.width as usize + idx.col as usize
    }

    /// Inverse of [`GridDims::flat`].
    pub fn unflat(&self, flat: usize) -> GridIndex {
        GridIndex::new(
            (flat % self.width as usize) as i32,
            (flat / self.width as usize) as i32,
        )
    }

    /// World point → containing cell (may be outside the grid).
    #[inline]
    pub fn world_to_grid(&self, p: Point2) -> GridIndex {
        GridIndex::new(
            floor_i32((p.x - self.origin.x) / self.resolution),
            floor_i32((p.y - self.origin.y) / self.resolution),
        )
    }

    /// Centre of a cell in world coordinates.
    pub fn grid_to_world(&self, idx: GridIndex) -> Point2 {
        Point2::new(
            self.origin.x + (idx.col as f64 + 0.5) * self.resolution,
            self.origin.y + (idx.row as f64 + 0.5) * self.resolution,
        )
    }

    /// Clamp a cell index to the nearest in-bounds cell.
    pub fn clamp(&self, idx: GridIndex) -> GridIndex {
        GridIndex::new(
            idx.col.clamp(0, self.width.saturating_sub(1) as i32),
            idx.row.clamp(0, self.height.saturating_sub(1) as i32),
        )
    }
}

/// `x.floor() as i32`, exactly, for every `f64` (NaN → 0, ±∞ and
/// out-of-range values saturate), without a call into libm.
///
/// `x as i32` truncates towards zero and saturates; the result is one
/// too large exactly when truncation rounded a negative non-integer up,
/// which is when it lies above `x`.
#[inline]
pub fn floor_i32(x: f64) -> i32 {
    let t = x as i32;
    t.saturating_sub(((t as f64) > x) as i32)
}

/// One cell of a [`RayWalk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayCell {
    /// The cell (may be outside the grid; coordinates past the `i32`
    /// range wrap).
    pub idx: GridIndex,
    /// Its row-major index, `Some` only when the cell is inside the grid.
    pub flat: Option<usize>,
}

/// Amanatides–Woo voxel traversal: every cell a segment passes
/// through, in order, from the cell containing `from` to the cell
/// containing `to`.
///
/// This is the one stepping loop of the workspace: the laser
/// ray-caster, occupancy-map updates, costmap ray clearing and
/// [`GridRay`] all walk it, so they all visit the same cells. Each step
/// moves one axis (the one whose next cell border is nearer, `y` on a
/// tie), so the cells form a 4-connected chain. The walk stops after
/// the end cell, or after `(chebyshev(start, end) + 1)·2 + 4` cells if
/// floating-point rounding steps past it. It carries the flat index
/// along (±1 per column, ±width per row), so a cell inside the grid
/// costs one unsigned bounds test and no multiply.
#[derive(Debug, Clone)]
pub struct RayWalk {
    // Columns and rows are i64 and the flat index wraps, so no step
    // can overflow, however far apart the endpoints are.
    col: i64,
    row: i64,
    end_col: i64,
    end_row: i64,
    step_x: i64,
    step_y: i64,
    flat: usize,
    flat_step_x: usize,
    flat_step_y: usize,
    width: u64,
    height: u64,
    t_max_x: f64,
    t_max_y: f64,
    t_delta_x: f64,
    t_delta_y: f64,
    /// Cells still to yield; 0 once the end cell has been yielded.
    remaining: u64,
}

impl RayWalk {
    /// Walk from `from` to `to` (world coordinates) on a grid with the
    /// given geometry.
    pub fn new(dims: &GridDims, from: Point2, to: Point2) -> Self {
        let start = dims.world_to_grid(from);
        let end = dims.world_to_grid(to);
        let dir = to - from;
        let res = dims.resolution;

        let step_x = if dir.x > 0.0 { 1 } else { -1 };
        let step_y = if dir.y > 0.0 { 1 } else { -1 };

        // Parametric distance (in t where p = from + t*dir, t ∈ [0,1])
        // to the first vertical / horizontal cell border.
        let fx = (from.x - dims.origin.x) / res - start.col as f64; // in [0,1)
        let fy = (from.y - dims.origin.y) / res - start.row as f64;

        let t_max_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.x > 0.0 {
            (1.0 - fx) * res / dir.x.abs()
        } else {
            fx * res / dir.x.abs()
        };
        let t_max_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.y > 0.0 {
            (1.0 - fy) * res / dir.y.abs()
        } else {
            fy * res / dir.y.abs()
        };
        let t_delta_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.x.abs()
        };
        let t_delta_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.y.abs()
        };

        let width = dims.width as usize;
        let (col, row) = (start.col as i64, start.row as i64);
        let budget = (start.chebyshev(end) + 1) * 2 + 4;
        RayWalk {
            col,
            row,
            end_col: end.col as i64,
            end_row: end.row as i64,
            step_x,
            step_y,
            flat: (row as usize)
                .wrapping_mul(width)
                .wrapping_add(col as usize),
            flat_step_x: step_x as usize,
            flat_step_y: (step_y as usize).wrapping_mul(width),
            width: dims.width as u64,
            height: dims.height as u64,
            t_max_x,
            t_max_y,
            t_delta_x,
            t_delta_y,
            remaining: budget.min(u32::MAX as i64) as u64,
        }
    }

    /// The current cell.
    #[inline(always)]
    fn cell(&self) -> RayCell {
        let inside = (self.col as u64) < self.width && (self.row as u64) < self.height;
        RayCell {
            idx: GridIndex::new(self.col as i32, self.row as i32),
            flat: inside.then_some(self.flat),
        }
    }

    /// Move to the next cell: one step along the axis whose next cell
    /// border is nearer.
    ///
    /// A branch, not selects: on baseline x86-64 an `f64` select
    /// becomes a branch anyway or a round trip through integer
    /// registers, and the select forms measured 1.6–1.8× slower per
    /// cell than this.
    #[inline(always)]
    fn step(&mut self) {
        if self.t_max_x < self.t_max_y {
            self.t_max_x += self.t_delta_x;
            self.col += self.step_x;
            self.flat = self.flat.wrapping_add(self.flat_step_x);
        } else {
            self.t_max_y += self.t_delta_y;
            self.row += self.step_y;
            self.flat = self.flat.wrapping_add(self.flat_step_y);
        }
    }

    /// Visit every cell before the end cell, in order, until `visit`
    /// breaks. Continues with the end cell (not visited) when the walk
    /// reached it, or with `None` when rounding stepped past it: then
    /// `visit` saw every cell up to the budget.
    #[inline]
    pub fn walk<B>(
        mut self,
        mut visit: impl FnMut(RayCell) -> ControlFlow<B>,
    ) -> ControlFlow<B, Option<RayCell>> {
        // Every step moves one cell along one axis, always the same
        // way, so the end cell can only be the cell as many steps on as
        // it is Manhattan-far from the start. Visit the cells before it
        // without testing for the end.
        let to_end =
            (self.end_col - self.col).unsigned_abs() + (self.end_row - self.row).unsigned_abs();
        let before = to_end.min(self.remaining);
        self.remaining -= before;
        for _ in 0..before {
            visit(self.cell())?;
            self.step();
        }
        if self.remaining > 0 && self.col == self.end_col && self.row == self.end_row {
            return ControlFlow::Continue(Some(self.cell()));
        }
        for _ in 0..self.remaining {
            visit(self.cell())?;
            self.step();
        }
        ControlFlow::Continue(None)
    }
}

/// The cells of a [`RayWalk`] one at a time, as plain indices, for
/// callers that do not index a grid (line-of-sight checks, tests).
#[derive(Debug, Clone)]
pub struct GridRay(RayWalk);

impl GridRay {
    /// Build a traversal from `from` to `to` (world coordinates) on a
    /// grid with the given geometry.
    pub fn new(dims: &GridDims, from: Point2, to: Point2) -> Self {
        GridRay(RayWalk::new(dims, from, to))
    }
}

impl Iterator for GridRay {
    type Item = GridIndex;

    fn next(&mut self) -> Option<GridIndex> {
        let walk = &mut self.0;
        if walk.remaining == 0 {
            return None;
        }
        let idx = walk.cell().idx;
        walk.remaining = if walk.col == walk.end_col && walk.row == walk.end_row {
            0
        } else {
            walk.remaining - 1
        };
        walk.step();
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> GridDims {
        GridDims::new(100, 80, 0.1, Point2::new(-1.0, -1.0))
    }

    #[test]
    fn world_grid_roundtrip_center() {
        let d = dims();
        let idx = GridIndex::new(37, 22);
        let p = d.grid_to_world(idx);
        assert_eq!(d.world_to_grid(p), idx);
    }

    #[test]
    fn contains_and_flat() {
        let d = dims();
        assert!(d.contains(GridIndex::new(0, 0)));
        assert!(d.contains(GridIndex::new(99, 79)));
        assert!(!d.contains(GridIndex::new(100, 0)));
        assert!(!d.contains(GridIndex::new(0, -1)));
        let idx = GridIndex::new(5, 3);
        assert_eq!(d.unflat(d.flat(idx)), idx);
    }

    #[test]
    fn clamp_out_of_bounds() {
        let d = dims();
        assert_eq!(d.clamp(GridIndex::new(-5, 200)), GridIndex::new(0, 79));
    }

    #[test]
    fn ray_straight_horizontal() {
        let d = dims();
        let cells: Vec<_> =
            GridRay::new(&d, Point2::new(0.05, 0.05), Point2::new(0.55, 0.05)).collect();
        // Starts at cell (10,10), 0.5 m → 5 extra cells in +x.
        assert_eq!(cells.first().copied(), Some(GridIndex::new(10, 10)));
        assert_eq!(cells.last().copied(), Some(GridIndex::new(15, 10)));
        assert_eq!(cells.len(), 6);
        for w in cells.windows(2) {
            assert_eq!(w[1].row, w[0].row);
            assert_eq!(w[1].col, w[0].col + 1);
        }
    }

    #[test]
    fn ray_diagonal_is_connected() {
        let d = dims();
        let cells: Vec<_> =
            GridRay::new(&d, Point2::new(0.0, 0.0), Point2::new(1.0, 0.7)).collect();
        assert!(!cells.is_empty());
        for w in cells.windows(2) {
            // Amanatides–Woo steps one axis at a time: 4-connected chain.
            assert_eq!(
                w[0].manhattan(w[1]),
                1,
                "gap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(
            cells.last().copied(),
            Some(d.world_to_grid(Point2::new(1.0, 0.7)))
        );
    }

    #[test]
    fn ray_degenerate_same_cell() {
        let d = dims();
        let cells: Vec<_> =
            GridRay::new(&d, Point2::new(0.31, 0.31), Point2::new(0.33, 0.32)).collect();
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn ray_negative_direction() {
        let d = dims();
        let cells: Vec<_> =
            GridRay::new(&d, Point2::new(0.55, 0.05), Point2::new(0.05, 0.05)).collect();
        assert_eq!(cells.first().copied(), Some(GridIndex::new(15, 10)));
        assert_eq!(cells.last().copied(), Some(GridIndex::new(10, 10)));
    }

    #[test]
    fn neighbor_distances() {
        let c = GridIndex::new(4, 4);
        for n in c.neighbors4() {
            assert_eq!(c.manhattan(n), 1);
        }
        for n in c.neighbors8() {
            assert_eq!(c.chebyshev(n), 1);
        }
    }
}
