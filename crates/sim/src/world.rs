//! Ground-truth 2-D worlds.
//!
//! A [`World`] is an immutable boolean occupancy grid representing the
//! true environment the LGV operates in. It provides exact ray casting
//! for the laser sensor and collision queries for the vehicle. The
//! [`presets`] module ships deterministic floorplans that stand in for
//! the paper's lab environment and the Intel Research Lab dataset.
//!
//! The cells sit behind an [`Arc`], so cloning a world (every fleet
//! vehicle's `MissionConfig` holds one) shares them instead of copying
//! them.

use lgv_types::prelude::*;
use std::ops::ControlFlow;
use std::sync::Arc;

pub mod generator;
pub mod presets;

/// Immutable ground-truth occupancy world. Clones share the cells.
#[derive(Debug, Clone)]
pub struct World {
    dims: GridDims,
    /// Row-major occupancy; `true` = solid.
    occ: Arc<[bool]>,
}

impl World {
    /// Grid geometry.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// Is the cell occupied? Out-of-bounds counts as occupied (walls
    /// of the universe).
    pub fn occupied(&self, idx: GridIndex) -> bool {
        if !self.dims.contains(idx) {
            return true;
        }
        self.occ[self.dims.flat(idx)]
    }

    /// Cast a ray from `from` at absolute angle `angle` and return the
    /// distance to the first solid cell, capped at `max_range`.
    ///
    /// This is the ground-truth geometry the simulated lidar samples.
    pub fn raycast(&self, from: Point2, angle: f64, max_range: f64) -> f64 {
        self.raycast_dir(from, angle.cos(), angle.sin(), max_range)
    }

    /// [`World::raycast`] with the direction given as a unit vector.
    ///
    /// This is the hot path of the lidar model (beams × cells per
    /// scan): it walks the shared [`RayWalk`] and looks each cell up by
    /// its flat index. Callers precompute `(dir_x, dir_y)` once per
    /// beam table instead of paying two trig calls per beam per scan.
    pub fn raycast_dir(&self, from: Point2, dir_x: f64, dir_y: f64, max_range: f64) -> f64 {
        let to = Point2::new(from.x + max_range * dir_x, from.y + max_range * dir_y);
        // Out of bounds counts as occupied (walls of the universe).
        let solid = |cell: RayCell| cell.flat.is_none_or(|flat| self.occ[flat]);
        let walked = RayWalk::new(&self.dims, from, to).walk(|cell| {
            if solid(cell) {
                ControlFlow::Break(cell.idx)
            } else {
                ControlFlow::Continue(())
            }
        });
        let hit = match walked {
            ControlFlow::Break(idx) => idx,
            ControlFlow::Continue(Some(end)) if solid(end) => end.idx,
            ControlFlow::Continue(_) => return max_range,
        };
        // Distance to the hit cell centre, clamped into range.
        from.distance(self.dims.grid_to_world(hit)).min(max_range)
    }

    /// Would a disc of radius `r` centred at `p` collide with any
    /// solid cell? Conservative circle-vs-grid test used by the
    /// vehicle simulator.
    pub fn collides_disc(&self, p: Point2, r: f64) -> bool {
        let lo = self.dims.world_to_grid(Point2::new(p.x - r, p.y - r));
        let hi = self.dims.world_to_grid(Point2::new(p.x + r, p.y + r));
        for row in lo.row..=hi.row {
            for col in lo.col..=hi.col {
                let idx = GridIndex::new(col, row);
                if self.occupied(idx) {
                    let c = self.dims.grid_to_world(idx);
                    let half = self.dims.resolution / 2.0;
                    // Closest point on the cell square to p.
                    let cx = p.x.clamp(c.x - half, c.x + half);
                    let cy = p.y.clamp(c.y - half, c.y + half);
                    if p.distance(Point2::new(cx, cy)) <= r {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Snapshot the world as a ground-truth [`MapMsg`] (used to seed
    /// the "known map" navigation workload).
    pub fn to_map_msg(&self, stamp: SimTime) -> MapMsg {
        MapMsg {
            stamp,
            dims: self.dims,
            cells: self
                .occ
                .iter()
                .map(|&o| if o { MapMsg::OCCUPIED } else { MapMsg::FREE })
                .collect(),
        }
    }
}

/// Builder assembling a world from geometric primitives. It draws into
/// the cells the finished [`World`] keeps, so building copies nothing.
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    dims: GridDims,
    occ: Arc<[bool]>,
}

impl WorldBuilder {
    /// Empty (all free) world of `width × height` metres at the given
    /// resolution, origin at (0, 0).
    pub fn new(width_m: f64, height_m: f64, resolution: f64) -> Self {
        let w = (width_m / resolution).round() as u32;
        let h = (height_m / resolution).round() as u32;
        let dims = GridDims::new(w, h, resolution, Point2::ORIGIN);
        WorldBuilder {
            dims,
            occ: std::iter::repeat_n(false, dims.len()).collect(),
        }
    }

    /// Surround the world with solid boundary walls.
    pub fn walls(self) -> Self {
        let (w, h) = (self.dims.width as i32 - 1, self.dims.height as i32 - 1);
        let all = |_| true;
        self.paint(GridIndex::new(0, 0), GridIndex::new(w, 0), true, all)
            .paint(GridIndex::new(0, h), GridIndex::new(w, h), true, all)
            .paint(GridIndex::new(0, 0), GridIndex::new(0, h), true, all)
            .paint(GridIndex::new(w, 0), GridIndex::new(w, h), true, all)
    }

    /// Fill an axis-aligned rectangle (world metres) with solid cells.
    pub fn rect(self, min: Point2, max: Point2) -> Self {
        let (lo, hi) = (self.dims.world_to_grid(min), self.dims.world_to_grid(max));
        self.paint(lo, hi, true, |_| true)
    }

    /// Fill a disc (world metres) with solid cells.
    pub fn disc(self, centre: Point2, radius: f64) -> Self {
        let dims = self.dims;
        let lo = dims.world_to_grid(Point2::new(centre.x - radius, centre.y - radius));
        let hi = dims.world_to_grid(Point2::new(centre.x + radius, centre.y + radius));
        self.paint(lo, hi, true, |idx| {
            dims.grid_to_world(idx).distance(centre) <= radius
        })
    }

    /// Carve a free rectangle (e.g. a doorway through a wall).
    pub fn carve(self, min: Point2, max: Point2) -> Self {
        let (lo, hi) = (self.dims.world_to_grid(min), self.dims.world_to_grid(max));
        self.paint(lo, hi, false, |_| true)
    }

    /// Set to `v` every in-bounds cell of the box `lo..=hi` that `pick`
    /// selects.
    fn paint(
        mut self,
        lo: GridIndex,
        hi: GridIndex,
        v: bool,
        pick: impl Fn(GridIndex) -> bool,
    ) -> Self {
        let dims = self.dims;
        let occ = Arc::make_mut(&mut self.occ);
        for row in lo.row..=hi.row {
            for col in lo.col..=hi.col {
                let idx = GridIndex::new(col, row);
                if dims.contains(idx) && pick(idx) {
                    occ[dims.flat(idx)] = v;
                }
            }
        }
        self
    }

    /// Finish building.
    pub fn build(self) -> World {
        World {
            dims: self.dims,
            occ: self.occ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_room() -> World {
        WorldBuilder::new(10.0, 8.0, 0.1).walls().build()
    }

    #[test]
    fn bounds_are_occupied() {
        let w = empty_room();
        assert!(w.occupied(GridIndex::new(-1, 0)));
        assert!(w.occupied(GridIndex::new(0, 0))); // boundary wall
        assert!(!w.occupied(GridIndex::new(50, 40))); // interior
    }

    #[test]
    fn raycast_hits_wall_at_expected_distance() {
        let w = empty_room();
        let from = Point2::new(5.0, 4.0);
        // Ray towards +x: wall cells start at col 99 (x ∈ [9.9, 10.0]).
        let d = w.raycast(from, 0.0, 20.0);
        assert!((d - 4.95).abs() < 0.1, "d = {d}");
        // Ray towards -x: wall at x ∈ [0, 0.1].
        let d = w.raycast(from, std::f64::consts::PI, 20.0);
        assert!((d - 4.95).abs() < 0.1, "d = {d}");
    }

    #[test]
    fn raycast_respects_max_range() {
        let w = empty_room();
        let d = w.raycast(Point2::new(5.0, 4.0), 0.0, 2.0);
        assert_eq!(d, 2.0);
    }

    #[test]
    fn raycast_sees_obstacle() {
        let w = WorldBuilder::new(10.0, 8.0, 0.1)
            .walls()
            .rect(Point2::new(6.0, 3.0), Point2::new(6.5, 5.0))
            .build();
        let d = w.raycast(Point2::new(5.0, 4.0), 0.0, 20.0);
        assert!((d - 1.0).abs() < 0.15, "d = {d}");
    }

    /// Is the world-frame point `(x, y)` inside a solid cell?
    fn solid(w: &World, x: f64, y: f64) -> bool {
        w.occupied(w.dims().world_to_grid(Point2::new(x, y)))
    }

    #[test]
    fn disc_obstacle_marks_cells() {
        let w = WorldBuilder::new(10.0, 8.0, 0.1)
            .disc(Point2::new(5.0, 4.0), 0.5)
            .build();
        assert!(solid(&w, 5.0, 4.0));
        assert!(solid(&w, 5.4, 4.0));
        assert!(!solid(&w, 5.7, 4.0));
    }

    #[test]
    fn carve_opens_doorway() {
        let w = WorldBuilder::new(10.0, 8.0, 0.1)
            .rect(Point2::new(5.0, 0.0), Point2::new(5.1, 8.0))
            .carve(Point2::new(5.0, 3.5), Point2::new(5.1, 4.5))
            .build();
        assert!(solid(&w, 5.05, 1.0));
        assert!(!solid(&w, 5.05, 4.0));
    }

    #[test]
    fn collision_disc() {
        let w = empty_room();
        assert!(!w.collides_disc(Point2::new(5.0, 4.0), 0.2));
        // Touching the +x wall (wall occupies x ≥ 9.9).
        assert!(w.collides_disc(Point2::new(9.8, 4.0), 0.2));
        assert!(w.collides_disc(Point2::new(0.3, 0.3), 0.25));
    }

    #[test]
    fn clones_share_the_cells() {
        let w = empty_room();
        assert!(Arc::ptr_eq(&w.occ, &w.clone().occ));
    }

    #[test]
    fn map_msg_roundtrip_values() {
        let w = WorldBuilder::new(2.0, 2.0, 0.5).walls().build();
        let m = w.to_map_msg(SimTime::EPOCH);
        assert_eq!(m.cells.len(), 16);
        assert_eq!(m.cells[0], MapMsg::OCCUPIED);
        assert_eq!(m.cells[5], MapMsg::FREE);
        assert_eq!(m.known_fraction(), 1.0);
    }

    #[test]
    fn cells_off_the_grid_count_as_occupied() {
        let w = WorldBuilder::new(4.0, 4.0, 0.1).build();
        assert!(!w.occupied(GridIndex::new(0, 0)));
        assert!(w.occupied(GridIndex::new(-1, 0)));
        assert!(w.occupied(GridIndex::new(40, 39)));
        // With no walls, a ray still stops at the edge of the grid.
        // It ends at the centre of the first off-grid cell, (40, 20).
        let from = Point2::new(2.0, 2.0);
        let r = w.raycast(from, 0.0, 10.0);
        assert!(
            (r - from.distance(Point2::new(4.05, 2.05))).abs() < 1e-9,
            "range {r}"
        );
    }

    #[test]
    fn painting_clips_to_the_grid() {
        let w = WorldBuilder::new(1.0, 1.0, 0.1)
            .rect(Point2::new(-1.0, -1.0), Point2::new(0.25, 0.25))
            .build();
        assert!(w.occupied(GridIndex::new(0, 0)));
        assert!(w.occupied(GridIndex::new(2, 2)));
        assert!(!w.occupied(GridIndex::new(3, 3)));
        assert!(!w.occupied(GridIndex::new(0, 3)));
    }

    #[test]
    fn builder_clones_draw_independently() {
        let base = WorldBuilder::new(2.0, 2.0, 0.1);
        let marked = base.clone().disc(Point2::new(1.0, 1.0), 0.3).build();
        let plain = base.build();
        let centre = GridIndex::new(10, 10);
        assert!(marked.occupied(centre));
        assert!(!plain.occupied(centre));
    }

    #[test]
    fn a_disc_reaching_past_a_cell_edge_collides() {
        let w = WorldBuilder::new(4.0, 4.0, 1.0)
            .rect(Point2::new(0.0, 0.0), Point2::new(0.5, 0.5))
            .build();
        assert!(w.collides_disc(Point2::new(1.5, 0.5), 0.51));
        assert!(!w.collides_disc(Point2::new(1.5, 0.5), 0.49));
        assert!(w.collides_disc(Point2::new(0.5, 0.5), 0.01));
    }
}
