//! Log-odds occupancy grid.
//!
//! Each SLAM particle owns one of these. Scan integration carves free
//! space along each beam and reinforces the endpoint cell; queries
//! expose occupancy probability for the scan matcher and export to the
//! wire-format [`MapMsg`].

use lgv_types::prelude::*;
use std::ops::ControlFlow;

/// Log-odds increment for an observed-occupied cell.
const L_OCC: f32 = 0.9;
/// Log-odds increment for an observed-free cell.
const L_FREE: f32 = -0.35;
/// Clamp bounds keeping cells recoverable.
const L_MIN: f32 = -8.0;
/// Upper clamp bound.
const L_MAX: f32 = 8.0;
/// Threshold above which a cell counts as occupied.
pub(crate) const L_OCC_THRESHOLD: f32 = 0.7;
/// Threshold below which a cell counts as free.
pub(crate) const L_FREE_THRESHOLD: f32 = -0.7;

/// A mutable occupancy-grid map with log-odds cells.
#[derive(Debug)]
pub struct OccupancyGrid {
    dims: GridDims,
    logodds: Vec<f32>,
    /// Count of cells ever touched by an observation.
    observed: usize,
}

impl Clone for OccupancyGrid {
    fn clone(&self) -> Self {
        OccupancyGrid {
            dims: self.dims,
            logodds: self.logodds.clone(),
            observed: self.observed,
        }
    }

    /// Copies into `self`'s cell buffer, which allocates nothing when
    /// the two grids have the same size (SLAM resampling relies on it).
    fn clone_from(&mut self, source: &Self) {
        self.dims = source.dims;
        self.logodds.clone_from(&source.logodds);
        self.observed = source.observed;
    }
}

impl OccupancyGrid {
    /// Fresh all-unknown grid.
    pub fn new(dims: GridDims) -> Self {
        OccupancyGrid {
            dims,
            logodds: vec![0.0; dims.len()],
            observed: 0,
        }
    }

    /// Grid geometry.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// Raw log-odds of a cell (0 = unknown); out of bounds reads 0.
    pub fn logodds(&self, idx: GridIndex) -> f32 {
        if self.dims.contains(idx) {
            self.logodds[self.dims.flat(idx)]
        } else {
            0.0
        }
    }

    /// All log-odds, row-major.
    pub(crate) fn logodds_cells(&self) -> &[f32] {
        &self.logodds
    }

    /// Is the cell confidently occupied?
    pub fn is_occupied(&self, idx: GridIndex) -> bool {
        self.logodds(idx) > L_OCC_THRESHOLD
    }

    /// Is the cell confidently free?
    pub fn is_free(&self, idx: GridIndex) -> bool {
        self.logodds(idx) < L_FREE_THRESHOLD
    }

    /// Is the cell still unknown?
    pub fn is_unknown(&self, idx: GridIndex) -> bool {
        !self.is_occupied(idx) && !self.is_free(idx)
    }

    /// Number of cells ever updated.
    pub fn observed_cells(&self) -> usize {
        self.observed
    }

    /// Integrate a laser scan taken from `pose`: carve free space
    /// along every beam, reinforce hit endpoints. Records the cell
    /// updates in `meter` (the dominant map-update cost): one per cell
    /// walked before the endpoint cell, inside the grid or not, and
    /// one per hit.
    pub fn integrate_scan(&mut self, pose: Pose2D, scan: &LaserScan, meter: &mut WorkMeter) {
        let origin = pose.position();
        let dims = self.dims;
        let cells = &mut self.logodds[..];
        let mut observed = 0;
        let mut bump = |flat: usize, delta: f32| {
            let old = cells[flat];
            observed += (old == 0.0) as usize;
            cells[flat] = (old + delta).clamp(L_MIN, L_MAX);
        };
        let mut cell_updates = 0u64;
        for i in 0..scan.len() {
            let endpoint = scan.beam_endpoint(pose, i);
            // Free space up to (but excluding) the endpoint cell.
            let _ = RayWalk::new(&dims, origin, endpoint).walk(|cell| {
                if let Some(flat) = cell.flat {
                    bump(flat, L_FREE);
                }
                cell_updates += 1;
                ControlFlow::<()>::Continue(())
            });
            if scan.is_hit(i) {
                let end_cell = dims.world_to_grid(endpoint);
                if dims.contains(end_cell) {
                    bump(dims.flat(end_cell), L_OCC);
                }
                cell_updates += 1;
            }
        }
        self.observed += observed;
        meter.serial_ops(cell_updates, crate::rbpf::cost::CYCLES_PER_MAP_CELL_UPDATE);
    }

    /// Export as a wire-format occupancy map.
    pub fn to_map_msg(&self, stamp: SimTime) -> MapMsg {
        let cells = self
            .logodds
            .iter()
            .map(|&l| {
                if l > L_OCC_THRESHOLD {
                    MapMsg::OCCUPIED
                } else if l < L_FREE_THRESHOLD {
                    MapMsg::FREE
                } else {
                    MapMsg::UNKNOWN
                }
            })
            .collect();
        MapMsg {
            stamp,
            dims: self.dims,
            cells,
        }
    }

    /// Build a confident grid directly from a ground-truth map message
    /// (used to seed known-map workloads and tests).
    pub fn from_map_msg(msg: &MapMsg) -> Self {
        let logodds = msg
            .cells
            .iter()
            .map(|&c| match c {
                MapMsg::OCCUPIED => L_MAX,
                MapMsg::FREE => L_MIN,
                _ => 0.0,
            })
            .collect();
        let observed = msg.cells.iter().filter(|&&c| c != MapMsg::UNKNOWN).count();
        OccupancyGrid {
            dims: msg.dims,
            logodds,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn dims() -> GridDims {
        GridDims::new(100, 100, 0.05, Point2::ORIGIN)
    }

    fn scan_hitting(range: f64) -> LaserScan {
        LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 8.0,
            range_max: 3.5,
            ranges: vec![range; 8],
        }
    }

    #[test]
    fn fresh_grid_is_unknown() {
        let g = OccupancyGrid::new(dims());
        let idx = GridIndex::new(50, 50);
        assert!(g.is_unknown(idx));
        assert_eq!(g.logodds(idx), 0.0);
        assert_eq!(g.observed_cells(), 0);
    }

    #[test]
    fn integrate_marks_hits_and_clears_path() {
        let mut g = OccupancyGrid::new(dims());
        let pose = Pose2D::new(2.5, 2.5, 0.0);
        let scan = scan_hitting(1.0);
        let mut m = WorkMeter::new();
        // Repeat to exceed the confidence thresholds.
        for _ in 0..3 {
            g.integrate_scan(pose, &scan, &mut m);
        }
        // Endpoint of beam 0 at (3.5, 2.5) should be occupied.
        let hit_cell = g.dims().world_to_grid(Point2::new(3.5, 2.5));
        assert!(g.is_occupied(hit_cell));
        // Mid-ray cell should be free.
        let mid = g.dims().world_to_grid(Point2::new(3.0, 2.5));
        assert!(g.is_free(mid));
        assert!(g.observed_cells() > 0);
        assert!(m.finish().total_cycles() > 0.0);
    }

    #[test]
    fn max_range_beams_clear_but_do_not_mark() {
        let mut g = OccupancyGrid::new(dims());
        let pose = Pose2D::new(2.5, 2.5, 0.0);
        let scan = scan_hitting(3.5); // all out of range
        let mut m = WorkMeter::new();
        for _ in 0..3 {
            g.integrate_scan(pose, &scan, &mut m);
        }
        // No occupied cells anywhere.
        for row in 0..100 {
            for col in 0..100 {
                assert!(!g.is_occupied(GridIndex::new(col, row)));
            }
        }
        // But the path was cleared.
        assert!(g.is_free(g.dims().world_to_grid(Point2::new(3.0, 2.5))));
    }

    #[test]
    fn logodds_clamp_holds() {
        let mut g = OccupancyGrid::new(dims());
        let pose = Pose2D::new(2.5, 2.5, 0.0);
        let scan = scan_hitting(1.0);
        let mut m = WorkMeter::new();
        for _ in 0..200 {
            g.integrate_scan(pose, &scan, &mut m);
        }
        let hit_cell = g.dims().world_to_grid(Point2::new(3.5, 2.5));
        assert!(g.logodds(hit_cell) <= L_MAX);
        let mid = g.dims().world_to_grid(Point2::new(3.0, 2.5));
        assert!(g.logodds(mid) >= L_MIN);
    }

    #[test]
    fn out_of_bounds_reads_are_unknown() {
        let g = OccupancyGrid::new(dims());
        assert_eq!(g.logodds(GridIndex::new(-5, 3)), 0.0);
        assert_eq!(g.logodds(GridIndex::new(1000, 1000)), 0.0);
    }

    #[test]
    fn map_msg_roundtrip() {
        let mut g = OccupancyGrid::new(dims());
        let pose = Pose2D::new(2.5, 2.5, 0.0);
        let mut m = WorkMeter::new();
        for _ in 0..3 {
            g.integrate_scan(pose, &scan_hitting(1.0), &mut m);
        }
        let msg = g.to_map_msg(SimTime::EPOCH);
        let g2 = OccupancyGrid::from_map_msg(&msg);
        let hit_cell = g.dims().world_to_grid(Point2::new(3.5, 2.5));
        assert!(g2.is_occupied(hit_cell));
        assert_eq!(g2.dims(), g.dims());
        assert!(msg.known_fraction() > 0.0);
    }

    #[test]
    fn each_cell_counts_as_observed_once() {
        let mut g = OccupancyGrid::new(dims());
        let pose = Pose2D::new(2.5, 2.5, 0.0);
        let mut m = WorkMeter::new();
        g.integrate_scan(pose, &scan_hitting(1.0), &mut m);
        let first = g.observed_cells();
        assert!(first > 8, "observed {first}");
        g.integrate_scan(pose, &scan_hitting(1.0), &mut m);
        assert_eq!(g.observed_cells(), first);
        let msg = g.to_map_msg(SimTime::EPOCH);
        let known = msg.cells.iter().filter(|&&c| c != MapMsg::UNKNOWN).count();
        assert!(known <= first);
    }

    #[test]
    fn clone_from_copies_geometry_cells_and_count() {
        let mut a = OccupancyGrid::new(dims());
        let mut m = WorkMeter::new();
        a.integrate_scan(Pose2D::new(2.5, 2.5, 0.3), &scan_hitting(0.8), &mut m);
        let mut b = OccupancyGrid::new(GridDims::new(10, 10, 0.1, Point2::ORIGIN));
        b.clone_from(&a);
        assert_eq!(b.dims(), a.dims());
        assert_eq!(b.observed_cells(), a.observed_cells());
        assert_eq!(b.logodds_cells(), a.logodds_cells());
        assert_eq!(b.to_map_msg(SimTime::EPOCH), a.to_map_msg(SimTime::EPOCH));
    }

    #[test]
    fn a_loaded_map_is_saturated_and_counts_its_known_cells() {
        let msg = MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(2, 2, 0.05, Point2::ORIGIN),
            cells: vec![
                MapMsg::UNKNOWN,
                MapMsg::FREE,
                MapMsg::OCCUPIED,
                MapMsg::FREE,
            ],
        };
        let g = OccupancyGrid::from_map_msg(&msg);
        assert_eq!(g.observed_cells(), 3);
        assert!(g.is_unknown(GridIndex::new(0, 0)));
        assert!(g.is_free(GridIndex::new(1, 0)));
        assert!(g.is_occupied(GridIndex::new(0, 1)));
        assert_eq!(g.to_map_msg(SimTime::EPOCH).cells, msg.cells);
    }
}
