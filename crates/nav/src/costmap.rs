//! Multi-layer costmap (the CostmapGen node).
//!
//! Mirrors ROS `costmap_2d`: a static layer seeded from the map, an
//! obstacle layer maintained from laser scans (mark hits, ray-clear
//! free space), and an inflation layer spreading cost outward from
//! lethal cells so planners keep clearance. CostmapGen is both an ECN
//! and the first node of the VDP (paper Table II / Fig. 4), so its
//! cycle accounting matters: the per-update work is dominated by the
//! full-grid inflation pass.
//!
//! The inflation pass is a two-pass chamfer distance transform. Each
//! pass sweeps row by row: it first folds in the three neighbours from
//! the row already swept, a per-cell loop that vectorises, then runs
//! the serial chain along the row. Both steps take `min`s of finite
//! `f32`s, so the distances match the classic cell-by-cell sweep bit
//! for bit. The `min`s are plain compare-selects rather than
//! `f32::min`: the two differ only on NaN and on the sign of zero, and
//! every distance is finite and either `+0.0` or a sum of positive
//! steps, so neither case arises. The select also lets the row chain
//! carry its running value in a register instead of waiting on a
//! `minnum` after every add.
//!
//! The master pass turns each distance inside the inflation radius
//! into a cost with an `exp`. Those distances are sums of a few cell
//! steps, so one grid holds only a few dozen distinct values among
//! thousands of inflated cells; a small stack table keyed on the
//! distance's bits computes each cost once per refresh, with the same
//! expression, so the costs are unchanged. The table lives only for
//! the pass: `Costmap` itself keeps no distance state.
//!
//! The obstacle layer keeps one byte per cell: the age of its mark in
//! updates. A ray clearing a cell writes 0 (never marked, or cleared);
//! a hit writes 1. Each refresh treats ages `1..=MARK_TTL_UPDATES` as
//! lethal and then moves every non-zero age up by one, saturating at
//! `MARK_TTL_UPDATES + 1`, so a mark stays lethal for exactly
//! [`MARK_TTL_UPDATES`] refreshes and a cell marked long ago still
//! reads as observed rather than [`COST_UNKNOWN`]. A byte is enough
//! because those are the only states a mark has: never marked, live
//! for its first `MARK_TTL_UPDATES` refreshes, and expired.
//!
//! The static layer and the master grid sit behind [`Arc`]s. Cloning a
//! costmap shares them (a fleet builds one costmap from its world and
//! gives each vehicle a clone), and the first write to either gives the
//! writer a private copy; a costmap that already owns its grid writes
//! it in place.
//!
//! Trajectory checks ask [`Costmap::footprint_collides`] whether a disc
//! overlaps a blocked cell. A `ClearanceWindow` answers most of those
//! questions up front: it holds the exact Chebyshev clearance and the
//! cost of every cell near the robot, a disc centred in a cell with
//! enough clearance cannot collide, and where the scan still runs it
//! skips the cells the clearance proves unblocked. `Costmap` owns the
//! rule for what counts as blocked in both places.

use lgv_types::prelude::*;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Cost of a lethal (obstacle) cell.
pub const COST_LETHAL: u8 = 254;
/// Cost of a cell inside the inscribed radius of an obstacle.
pub const COST_INSCRIBED: u8 = 253;
/// Largest cost considered traversable by planners.
pub const COST_FREE_MAX: u8 = 127;
/// Cost assigned to completely unknown cells.
pub const COST_UNKNOWN: u8 = 128;

/// Obstacle persistence: a mark stays lethal for this many updates,
/// the one that made it included, unless a ray clears it first.
pub const MARK_TTL_UPDATES: u8 = 25;
// Mark ages saturate at `MARK_TTL_UPDATES + 1`, which must fit a `u8`.
const _: () = assert!(MARK_TTL_UPDATES < u8::MAX);

/// Cycle-cost constants for the costmap work model, calibrated so the
/// lab-map navigation workload draws ≈ 0.86 Gcycles/s (Table II,
/// CostmapGen with a map) at the 5 Hz update rate.
pub mod cost {
    /// Cycles per cell touched in the inflation/refresh pass.
    pub const CYCLES_PER_REFRESH_CELL: f64 = 3200.0;
    /// Cycles per cell traced by the obstacle layer's ray clearing.
    pub const CYCLES_PER_RAY_CELL: f64 = 220.0;
}

/// Costmap configuration.
#[derive(Debug, Clone)]
pub struct CostmapConfig {
    /// Robot (inscribed) radius in metres.
    pub inscribed_radius: f64,
    /// Inflation radius in metres (cost decays to zero here).
    pub inflation_radius: f64,
    /// Exponential decay rate of inflated cost.
    pub cost_scaling: f64,
}

impl Default for CostmapConfig {
    fn default() -> Self {
        CostmapConfig {
            inscribed_radius: 0.11,
            inflation_radius: 0.45,
            cost_scaling: 8.0,
        }
    }
}

/// The multi-layer costmap. Clones share the static layer and the
/// master grid until one of them writes it.
#[derive(Debug, Clone)]
pub struct Costmap {
    cfg: CostmapConfig,
    dims: GridDims,
    /// Static layer: lethal where the a-priori map is occupied.
    static_lethal: Arc<[bool]>,
    /// Obstacle layer: the age of each cell's mark in updates, 0 for
    /// never marked or cleared (see the module docs).
    mark_age: Vec<u8>,
    /// Combined + inflated master grid.
    master: Arc<[u8]>,
}

impl Costmap {
    /// Build from a static map message (all `OCCUPIED` cells become
    /// lethal; `UNKNOWN` stays unknown until observed).
    pub fn from_map(cfg: CostmapConfig, map: &MapMsg) -> Self {
        let dims = map.dims;
        let static_lethal = map.cells.iter().map(|&c| c == MapMsg::OCCUPIED).collect();
        let mut cm = Costmap {
            cfg,
            dims,
            static_lethal,
            mark_age: vec![0; dims.len()],
            master: std::iter::repeat_n(COST_UNKNOWN, dims.len()).collect(),
        };
        let mut meter = WorkMeter::new();
        cm.refresh(map, None, &mut meter);
        cm
    }

    /// Build over an empty (all-unknown) static layer, for the
    /// exploration workload where SLAM supplies the map incrementally.
    pub fn empty(cfg: CostmapConfig, dims: GridDims) -> Self {
        Costmap {
            cfg,
            dims,
            static_lethal: std::iter::repeat_n(false, dims.len()).collect(),
            mark_age: vec![0; dims.len()],
            master: std::iter::repeat_n(COST_UNKNOWN, dims.len()).collect(),
        }
    }

    /// Grid geometry.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// Master-grid cost of a cell; out of bounds is lethal.
    pub fn cost(&self, idx: GridIndex) -> u8 {
        if self.dims.contains(idx) {
            self.master[self.dims.flat(idx)]
        } else {
            COST_LETHAL
        }
    }

    /// Configuration.
    pub fn config(&self) -> &CostmapConfig {
        &self.cfg
    }

    /// Is the cell traversable for planning (known and sub-inscribed)?
    pub fn traversable(&self, idx: GridIndex) -> bool {
        let c = self.cost(idx);
        c < COST_INSCRIBED && c != COST_UNKNOWN
    }

    /// Is the disc of radius `r` centred at `p` in collision with a
    /// lethal cell (used for trajectory feasibility)?
    pub fn footprint_collides(&self, p: Point2, r: f64) -> bool {
        self.footprint_collides_beyond(p, r, GridIndex::new(0, 0), 0)
    }

    /// [`Costmap::footprint_collides`] without looking at the box cells
    /// less than `k` cells (Chebyshev) from `centre`, which the caller
    /// knows are unblocked. The answer is the same: the scan only asks
    /// whether *some* blocked cell is close enough, and the skipped
    /// cells are not blocked.
    fn footprint_collides_beyond(&self, p: Point2, r: f64, centre: GridIndex, k: i32) -> bool {
        let lo = self.dims.world_to_grid(Point2::new(p.x - r, p.y - r));
        let hi = self.dims.world_to_grid(Point2::new(p.x + r, p.y + r));
        let hits = |row: i32, cols: std::ops::RangeInclusive<i32>| {
            cols.into_iter().any(|col| {
                let idx = GridIndex::new(col, row);
                self.blocked(idx)
                    && self.dims.grid_to_world(idx).distance(p) <= r + self.dims.resolution * 0.71
            })
        };
        (lo.row..=hi.row).any(|row| {
            if k > 0 && (i64::from(row) - i64::from(centre.row)).abs() < i64::from(k) {
                // The row crosses the hole: scan its two ends.
                hits(row, lo.col..=hi.col.min(centre.col.saturating_sub(k)))
                    || hits(row, lo.col.max(centre.col.saturating_add(k))..=hi.col)
            } else {
                hits(row, lo.col..=hi.col)
            }
        })
    }

    /// Replace the static layer (exploration: SLAM publishes a fresh
    /// map). A costmap that owns its layer overwrites it in place.
    pub fn set_static_map(&mut self, map: &MapMsg) {
        assert_eq!(map.dims, self.dims, "map geometry must match");
        for (dst, &c) in Arc::make_mut(&mut self.static_lethal)
            .iter_mut()
            .zip(&map.cells)
        {
            *dst = c == MapMsg::OCCUPIED;
        }
    }

    /// Update the obstacle layer from a scan taken at `pose`, then
    /// rebuild the master grid (static ∪ obstacles, inflated). This is
    /// one CostmapGen activation; `map` is the current known map used
    /// to distinguish free from unknown.
    pub fn update(&mut self, map: &MapMsg, pose: Pose2D, scan: &LaserScan, meter: &mut WorkMeter) {
        let origin = pose.position();
        let mut ray_cells = 0u64;
        for i in 0..scan.len() {
            let endpoint = scan.beam_endpoint(pose, i);
            let end_cell = self.dims.world_to_grid(endpoint);
            // Clear along the beam; the end cell counts as traced when
            // the walk reaches it.
            let walked = RayWalk::new(&self.dims, origin, endpoint).walk(|cell| {
                ray_cells += 1;
                if let Some(flat) = cell.flat {
                    self.mark_age[flat] = 0;
                }
                ControlFlow::<()>::Continue(())
            });
            if let ControlFlow::Continue(Some(_)) = walked {
                ray_cells += 1;
            }
            // Mark the hit.
            if scan.is_hit(i) && self.dims.contains(end_cell) {
                let flat = self.dims.flat(end_cell);
                self.mark_age[flat] = 1;
            }
        }
        meter.serial_ops(ray_cells, cost::CYCLES_PER_RAY_CELL);
        self.refresh(map, Some(pose.position()), meter);
    }

    /// Rebuild the master grid: combine layers and run the inflation
    /// pass (a two-sweep chamfer distance transform). When the robot
    /// pose is known, its footprint is cleared afterwards — the ROS
    /// `costmap_2d` footprint-clearing behaviour that prevents phantom
    /// marks (SLAM pose jitter, stale readings) from trapping the
    /// robot inside its own inscribed zone.
    fn refresh(&mut self, map: &MapMsg, robot: Option<Point2>, meter: &mut WorkMeter) {
        let (w, h) = (self.dims.width as usize, self.dims.height as usize);
        let n = w * h;
        debug_assert_eq!(map.cells.len(), n);

        // Distance (in metres) to the nearest lethal cell, via a
        // two-pass chamfer transform. The seed pass is one branch-free
        // select per cell (non-short-circuit `|`), so the compiler can
        // vectorize it. It also ages the marks: a live age
        // (`1..=MARK_TTL_UPDATES`, one wrapping compare) moves up by
        // one, and 0 and the saturated `MARK_TTL_UPDATES + 1` stay.
        let mut dist: Vec<f32> = self
            .static_lethal
            .iter()
            .zip(self.mark_age.iter_mut())
            .map(|(&s, age)| {
                let live = age.wrapping_sub(1) < MARK_TTL_UPDATES;
                *age += u8::from(live);
                if s | live {
                    0.0
                } else {
                    CHAMFER_FAR
                }
            })
            .collect();
        chamfer(&mut dist, w, self.dims.resolution as f32);

        // Master grid from distance + known/unknown state.
        let inscribed = self.cfg.inscribed_radius as f32;
        let inflate = self.cfg.inflation_radius as f32;
        let scaling = self.cfg.cost_scaling as f32;
        let mut memo = InflationMemo::new();
        let master = Arc::make_mut(&mut self.master);
        let cells = master
            .iter_mut()
            .zip(&dist)
            .zip(&map.cells)
            .zip(&self.mark_age);
        for (((m, &d), &cell), &age) in cells {
            *m = if d <= 0.0 {
                COST_LETHAL
            } else if d <= inscribed {
                COST_INSCRIBED
            } else if d <= inflate {
                memo.cost(d, || {
                    let factor = (-scaling * (d - inscribed)).exp().clamp(0.0, 1.0);
                    (factor * COST_FREE_MAX as f32) as u8
                })
            } else if cell == MapMsg::UNKNOWN && age == 0 {
                COST_UNKNOWN
            } else {
                0
            };
        }
        // Footprint clearing around the robot.
        if let Some(p) = robot {
            let clear_r = self.cfg.inscribed_radius + 0.06;
            let lo = self
                .dims
                .world_to_grid(Point2::new(p.x - clear_r, p.y - clear_r));
            let hi = self
                .dims
                .world_to_grid(Point2::new(p.x + clear_r, p.y + clear_r));
            for row in lo.row..=hi.row {
                for col in lo.col..=hi.col {
                    let idx = GridIndex::new(col, row);
                    if self.dims.contains(idx)
                        && self.dims.grid_to_world(idx).distance(p) <= clear_r
                    {
                        let flat = self.dims.flat(idx);
                        master[flat] = master[flat].min(COST_FREE_MAX);
                        self.mark_age[flat] = 0;
                    }
                }
            }
        }

        // The refresh pass is data-parallel over cell stripes (the
        // paper's Fig. 5 parallelizes the costmap update together with
        // trajectory scoring); a serial residue covers the sweep
        // dependencies of the distance transform.
        let total = n as f64 * cost::CYCLES_PER_REFRESH_CELL;
        meter.serial_ops(1, total * 0.1);
        meter.parallel_ops(1, total * 0.9, 512);
    }

    /// Is a cell blocked for the footprint test (inscribed, lethal or
    /// off the map)?
    fn blocked(&self, idx: GridIndex) -> bool {
        self.cost(idx) >= COST_INSCRIBED
    }

    /// Build the [`ClearanceWindow`] for footprints of radius `radius`
    /// centred anywhere within `reach` metres of `center`.
    pub(crate) fn clearance_window(
        &self,
        center: Point2,
        reach: f64,
        radius: f64,
    ) -> ClearanceWindow<'_> {
        let res = self.dims.resolution;
        let q = radius.max(0.0) / res;
        let c = self.dims.world_to_grid(center);
        let half = (reach.max(0.0) / res).ceil() as i64 + q.ceil() as i64 + 3;
        // Rounding slack of the box's reach (see `ClearanceWindow`):
        // a few ulps of the largest cell coordinate, in cells, that a
        // pose in the window can have.
        let cells = (c.col.unsigned_abs().max(c.row.unsigned_abs()) as f64) + half as f64 + 2.0;
        let origin = self.dims.origin.x.abs().max(self.dims.origin.y.abs()) / res;
        let slack = 8.0 * f64::EPSILON * (2.0 * origin + cells + q + 2.0);
        let free_above = (q + slack).floor() as u32 + 1;
        // Clip to the map: cells beyond it are blocked anyway.
        let lo_col = (c.col as i64 - half).max(0);
        let lo_row = (c.row as i64 - half).max(0);
        let hi_col = (c.col as i64 + half).min(self.dims.width as i64 - 1);
        let hi_row = (c.row as i64 + half).min(self.dims.height as i64 - 1);
        let cols = (hi_col - lo_col + 1).max(0) as usize;
        let rows = (hi_row - lo_row + 1).max(0) as usize;

        // The window's costs, copied row by row from the master grid,
        // and their chessboard distance transform over the window plus
        // a one-cell blocked border: two passes with the 3×3 mask
        // (exact for the Chebyshev metric), each run the way `chamfer`
        // runs its passes. Saturating `u8` `min`s are exact in any
        // order.
        let stride = cols + 2;
        let mut cost = vec![COST_LETHAL; stride * (rows + 2)];
        let mut clear = vec![0u8; stride * (rows + 2)];
        if cols > 0 {
            let width = self.dims.width as usize;
            for r in 0..rows {
                let from = (lo_row as usize + r) * width + lo_col as usize;
                let src = &self.master[from..from + cols];
                let at = (r + 1) * stride + 1;
                cost[at..at + cols].copy_from_slice(src);
                for (d, &c) in clear[at..at + cols].iter_mut().zip(src) {
                    *d = if c >= COST_INSCRIBED { 0 } else { u8::MAX };
                }
            }
        }
        for r in 1..=rows {
            let (done, rest) = clear.split_at_mut(r * stride);
            chessboard_row(&mut rest[..stride], &done[(r - 1) * stride..], false);
        }
        for r in (1..=rows).rev() {
            let (head, done) = clear.split_at_mut((r + 1) * stride);
            chessboard_row(&mut head[r * stride..], &done[..stride], true);
        }
        ClearanceWindow {
            cm: self,
            radius,
            origin: GridIndex::new(lo_col as i32 - 1, lo_row as i32 - 1),
            stride,
            rows: rows + 2,
            clear,
            cost,
            free_above,
        }
    }
}

/// One row of a chessboard pass over a bordered window: fold in the
/// three neighbours from the adjacent row `adj` already swept, then
/// chain along the row, left to right or (`backward`) right to left.
/// The border cells at either end stay as they are.
fn chessboard_row(cur: &mut [u8], adj: &[u8], backward: bool) {
    let n = cur.len() - 2;
    let inner = cur[1..=n].iter_mut();
    for (((d, &a), &b), &c) in inner.zip(&adj[..n]).zip(&adj[1..=n]).zip(&adj[2..]) {
        *d = (*d).min(a.min(b).min(c).saturating_add(1));
    }
    let chain = |run: &mut u8, d: &mut u8| {
        *run = (*d).min(run.saturating_add(1));
        *d = *run;
    };
    if backward {
        let mut run = cur[n + 1];
        cur[1..=n].iter_mut().rev().for_each(|d| chain(&mut run, d));
    } else {
        let mut run = cur[0];
        cur[1..=n].iter_mut().for_each(|d| chain(&mut run, d));
    }
}

/// Chebyshev clearance and cost of the cells around a point. The
/// clearance is the chessboard distance, in cells, from each cell to
/// the nearest blocked one (`cost >= COST_INSCRIBED`, which includes
/// cells off the map). Every cell outside the window counts as
/// blocked, so a clearance never over-estimates. The window also keeps
/// a copy of each cell's cost, so one index answers both questions the
/// DWA asks of a pose; only the window's border and cells beyond it
/// fall back to the [`Costmap`].
///
/// **The box's reach.** [`Costmap::footprint_collides`] for a disc of
/// radius `r` at `p` scans the box `[world_to_grid(p − r),
/// world_to_grid(p + r)]`. Per axis, with `u = (p.x − origin.x) / res`
/// and `q = r / res`, the box runs from `⌊u − q⌋` to `⌊u + q⌋` around
/// the centre cell `⌊u⌋`. Writing `u = U + α` and `q = Q + β` with
/// integer parts `U`, `Q` and fractions `α, β ∈ [0, 1)`, `u − q` is
/// `U − Q − 1 + (1 + α − β)` with `1 + α − β ∈ (0, 2)`, so
/// `⌊u − q⌋ ≥ U − Q − 1`, and likewise `⌊u + q⌋ ≤ U + Q + 1`. The box
/// therefore reaches at most `k = ⌊q⌋ + 1` cells from the centre cell
/// in Chebyshev distance. The three roundings in each corner's
/// `world_to_grid` and the two in the centre's move `u ± q` and `u`
/// by a few ulps of the coordinate in cells; the window adds that
/// slack to `q` before the floor, which matters only when `r / res`
/// sits within rounding of an integer. At `r = 0.11`, `res = 0.05`,
/// `k` is 3, not the 4 of the looser `⌈q⌉ + 1`.
///
/// A centre cell whose clearance exceeds `k` therefore cannot collide,
/// and [`ClearanceWindow::probe`] skips the scan there.
///
/// **The ring skip.** Where the centre cell's clearance `c` is at most
/// `k`, the scan still runs, but every cell less than `c` cells
/// (Chebyshev) from the centre is unblocked: were one blocked, the
/// centre's clearance would be below `c`. The scan asks only whether
/// some blocked cell of the box is near enough to the pose, so leaving
/// out cells known to be unblocked cannot change its answer, and it
/// looks only at the ring of the box at distance `c` or more. At the
/// default radius (`q = 2.2`) the box is 5 or 6 cells a side, reaching
/// 3 cells from the centre on at most one side per axis, so at
/// clearance 3, where most scanned poses sit, at most 11 of its up to
/// 36 cells are left to look at, and often none.
#[derive(Debug, Clone)]
pub(crate) struct ClearanceWindow<'a> {
    cm: &'a Costmap,
    /// Footprint radius the window answers for.
    radius: f64,
    /// Grid index of the first cell of the (bordered) window.
    origin: GridIndex,
    stride: usize,
    rows: usize,
    /// Row-major clearances, saturating at `u8::MAX`.
    clear: Vec<u8>,
    /// Row-major master-grid costs; the border's entries are unused.
    cost: Vec<u8>,
    /// `k`: clearances above this rule out a collision.
    free_above: u32,
}

impl ClearanceWindow<'_> {
    /// `None` when a disc of the window's radius at `p` collides (the
    /// answer of [`Costmap::footprint_collides`]), else the cost of
    /// `cell` ([`Costmap::cost`]). `cell` must be `world_to_grid(p)`,
    /// which the caller has already computed.
    pub(crate) fn probe(&self, p: Point2, cell: GridIndex) -> Option<u8> {
        debug_assert_eq!(cell, self.cm.dims.world_to_grid(p));
        let Some(i) = self.inner_index(cell) else {
            let collides = self.cm.footprint_collides(p, self.radius);
            return (!collides).then(|| self.cm.cost(cell));
        };
        let k = self.clear[i];
        let collides = u32::from(k) <= self.free_above
            && self
                .cm
                .footprint_collides_beyond(p, self.radius, cell, i32::from(k));
        (!collides).then_some(self.cost[i])
    }

    /// Flat index of `idx` when it lies inside the window's border.
    fn inner_index(&self, idx: GridIndex) -> Option<usize> {
        // Offsets from the first inner cell; a cell before it wraps
        // round to a huge value.
        let col = (i64::from(idx.col) - i64::from(self.origin.col) - 1) as u64;
        let row = (i64::from(idx.row) - i64::from(self.origin.row) - 1) as u64;
        let inside = col < (self.stride - 2) as u64 && row < (self.rows - 2) as u64;
        inside.then(|| (row as usize + 1) * self.stride + col as usize + 1)
    }

    /// Chebyshev clearance of `idx` in cells; 0 outside the window.
    #[cfg(test)]
    fn clearance(&self, idx: GridIndex) -> u8 {
        // The border's clearances are 0 too.
        self.inner_index(idx).map_or(0, |i| self.clear[i])
    }

    /// Is `footprint_collides` certainly `false` for every disc centred
    /// in cell `idx`?
    #[cfg(test)]
    fn rules_out_collision(&self, idx: GridIndex) -> bool {
        self.clearance(idx) as u32 > self.free_above
    }
}

/// Seed distance of non-lethal cells in the chamfer transform.
const CHAMFER_FAR: f32 = 1e9;

/// Two-pass chamfer distance transform, in place, of a row-major grid
/// `w` cells wide whose lethal cells hold 0 and all others
/// [`CHAMFER_FAR`].
///
/// Each pass takes one row at a time in two steps: first it folds in
/// the three neighbours from the row already swept (each cell
/// independent of the others, so the loops vectorise), then it runs
/// the serial chain along the row. `min` of finite values is exact in
/// any order, so the result is bit-identical to the cell-by-cell
/// sweep.
fn chamfer(dist: &mut [f32], w: usize, res: f32) {
    if w == 0 {
        return;
    }
    let (orth, diag) = (res, res * std::f32::consts::SQRT_2);
    let h = dist.len() / w;
    // Forward: rows top to bottom, each chained left to right.
    for row in 0..h {
        let (done, rest) = dist.split_at_mut(row * w);
        let cur = &mut rest[..w];
        if row > 0 {
            fold_adjacent_row(cur, &done[(row - 1) * w..], orth, diag);
        }
        let mut run = cur[0];
        for d in &mut cur[1..] {
            run += orth;
            if *d < run {
                run = *d;
            } else {
                *d = run;
            }
        }
    }
    // Backward: rows bottom to top, each chained right to left.
    for row in (0..h).rev() {
        let (head, done) = dist.split_at_mut((row + 1) * w);
        let cur = &mut head[row * w..];
        if row + 1 < h {
            fold_adjacent_row(cur, &done[..w], orth, diag);
        }
        let mut run = cur[w - 1];
        for d in cur[..w - 1].iter_mut().rev() {
            run += orth;
            if *d < run {
                run = *d;
            } else {
                *d = run;
            }
        }
    }
}

/// `cur[c] = min(cur[c], adj[c] + orth, adj[c - 1] + diag, adj[c + 1] + diag)`
/// for an adjacent row `adj` of the same width.
fn fold_adjacent_row(cur: &mut [f32], adj: &[f32], orth: f32, diag: f32) {
    let w = cur.len();
    for (d, &a) in cur.iter_mut().zip(adj) {
        *d = select_min(*d, a + orth);
    }
    for (d, &a) in cur[1..].iter_mut().zip(&adj[..w - 1]) {
        *d = select_min(*d, a + diag);
    }
    for (d, &a) in cur[..w - 1].iter_mut().zip(&adj[1..]) {
        *d = select_min(*d, a + diag);
    }
}

/// `min(a, b)` for chamfer distances. They are never NaN or −0.0, so a
/// plain compare-select agrees with `f32::min` bit for bit.
#[inline(always)]
fn select_min(a: f32, b: f32) -> f32 {
    if b < a {
        b
    } else {
        a
    }
}

/// Inflation cost per distinct distance, for one master pass. Chamfer
/// distances are sums of a few cell steps, so a grid holds only a few
/// dozen distinct values inside the inflation radius; this
/// direct-mapped table turns thousands of `exp`s per refresh into one
/// per value. A slot holds the `f32` bits of a distance and its cost;
/// a miss just recomputes, so the cost is exact whatever collides.
struct InflationMemo {
    slots: [(u32, u8); InflationMemo::SLOTS],
}

impl InflationMemo {
    const SLOTS: usize = 128;
    /// A NaN pattern, which no chamfer distance has.
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        InflationMemo {
            slots: [(Self::EMPTY, 0); Self::SLOTS],
        }
    }

    /// The cost for distance `d`, from `compute` on the first call.
    #[inline]
    fn cost(&mut self, d: f32, compute: impl FnOnce() -> u8) -> u8 {
        let bits = d.to_bits();
        // Fibonacci hashing onto the top bits: the low mantissa bits of
        // nearby distances differ most.
        let slot = &mut self.slots[(bits.wrapping_mul(0x9e37_79b9) >> 25) as usize];
        if slot.0 != bits {
            *slot = (bits, compute());
        }
        slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn empty_map(w: u32, h: u32) -> MapMsg {
        MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(w, h, 0.05, Point2::ORIGIN),
            cells: vec![MapMsg::FREE; (w * h) as usize],
        }
    }

    fn map_with_block(w: u32, h: u32) -> MapMsg {
        let mut m = empty_map(w, h);
        // Block at cells cols 40..=44, rows 40..=44 (world ≈ 2.0–2.25).
        for row in 40..=44 {
            for col in 40..=44 {
                m.cells[(row * w + col) as usize] = MapMsg::OCCUPIED;
            }
        }
        m
    }

    #[test]
    fn static_obstacles_are_lethal_and_inflated() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        assert_eq!(cm.cost(GridIndex::new(42, 42)), COST_LETHAL);
        // A cell just outside the block but within the inscribed
        // radius is inscribed.
        assert_eq!(cm.cost(GridIndex::new(45, 42)), COST_INSCRIBED);
        // Within the inflation radius: nonzero but traversable.
        let c = cm.cost(GridIndex::new(49, 42));
        assert!(c > 0 && c < COST_INSCRIBED, "cost {c}");
        // Far away: free.
        assert_eq!(cm.cost(GridIndex::new(90, 90)), 0);
    }

    #[test]
    fn inflation_cost_decreases_with_distance() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let mut prev = COST_LETHAL;
        for col in 45..55 {
            let c = cm.cost(GridIndex::new(col, 42));
            assert!(
                c <= prev,
                "cost must not increase moving away: {c} > {prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn out_of_bounds_is_lethal() {
        let cm = Costmap::from_map(CostmapConfig::default(), &empty_map(20, 20));
        assert_eq!(cm.cost(GridIndex::new(-1, 5)), COST_LETHAL);
        assert_eq!(cm.cost(GridIndex::new(5, 999)), COST_LETHAL);
    }

    #[test]
    fn scan_marks_new_obstacles() {
        let m = empty_map(100, 100);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        // Robot at (1, 2.5) facing +x; beam 0 hits at 1 m → (2, 2.5).
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0, 3.5, 3.5, 3.5],
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, Pose2D::new(1.0, 2.5, 0.0), &scan, &mut meter);
        let hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        assert_eq!(cm.cost(hit), COST_LETHAL);
        assert!(meter.finish().total_cycles() > 0.0);
    }

    #[test]
    fn ray_clearing_removes_stale_marks() {
        let m = empty_map(100, 100);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let pose = Pose2D::new(1.0, 2.5, 0.0);
        let hit_scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0, 3.5, 3.5, 3.5],
        };
        let clear_scan = LaserScan {
            ranges: vec![2.0, 3.5, 3.5, 3.5],
            ..hit_scan.clone()
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, pose, &hit_scan, &mut meter);
        let old_hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        assert_eq!(cm.cost(old_hit), COST_LETHAL);
        // Next scan sees through that cell: it must clear.
        cm.update(&m, pose, &clear_scan, &mut meter);
        assert!(cm.cost(old_hit) < COST_INSCRIBED, "stale mark should clear");
    }

    #[test]
    fn a_mark_is_lethal_for_exactly_the_ttl_and_observed_for_ever() {
        let mut m = empty_map(100, 100);
        m.cells.iter_mut().for_each(|c| *c = MapMsg::UNKNOWN);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let pose = Pose2D::new(1.0, 2.5, 0.0);
        // One beam hitting at 1 m, then scans with no beams, which
        // refresh without clearing anything.
        let hit_scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI,
            range_max: 3.5,
            ranges: vec![1.0],
        };
        let idle = LaserScan {
            ranges: vec![],
            ..hit_scan.clone()
        };
        let hit = cm.dims().world_to_grid(Point2::new(2.0, 2.5));
        let never = GridIndex::new(90, 90);
        let mut meter = WorkMeter::new();
        cm.update(&m, pose, &hit_scan, &mut meter);
        for refresh in 1..=MARK_TTL_UPDATES {
            assert_eq!(cm.cost(hit), COST_LETHAL, "refresh {refresh}");
            cm.update(&m, pose, &idle, &mut meter);
        }
        assert_eq!(cm.cost(hit), 0, "expired after the TTL");
        for _ in 0..300 {
            cm.update(&m, pose, &idle, &mut meter);
        }
        // Marked 300 updates ago: the age saturated, still observed.
        assert_eq!(cm.mark_age[cm.dims().flat(hit)], MARK_TTL_UPDATES + 1);
        assert_eq!(cm.cost(hit), 0);
        assert_eq!(cm.cost(never), COST_UNKNOWN);
    }

    #[test]
    fn clones_share_grids_until_they_write_them() {
        let m = map_with_block(60, 60);
        let template = Costmap::from_map(CostmapConfig::default(), &m);
        let mut cm = template.clone();
        assert!(Arc::ptr_eq(&cm.static_lethal, &template.static_lethal));
        assert!(Arc::ptr_eq(&cm.master, &template.master));
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0, 3.5, 3.5, 3.5],
        };
        cm.update(&m, Pose2D::new(1.0, 1.5, 0.0), &scan, &mut WorkMeter::new());
        // The update wrote only the master grid; the template is intact.
        assert!(Arc::ptr_eq(&cm.static_lethal, &template.static_lethal));
        assert!(!Arc::ptr_eq(&cm.master, &template.master));
        assert_eq!(template.cost(GridIndex::new(40, 30)), 0);
        assert_eq!(cm.cost(GridIndex::new(40, 30)), COST_LETHAL);
        // A costmap that owns its layers rewrites them in place.
        let mut own = Costmap::from_map(CostmapConfig::default(), &m);
        let (layer, master) = (own.static_lethal.as_ptr(), own.master.as_ptr());
        own.set_static_map(&m);
        own.update(&m, Pose2D::new(1.0, 1.5, 0.0), &scan, &mut WorkMeter::new());
        assert_eq!(
            (own.static_lethal.as_ptr(), own.master.as_ptr()),
            (layer, master)
        );
    }

    #[test]
    fn unknown_cells_stay_unknown_until_observed() {
        let mut m = empty_map(60, 60);
        m.cells.iter_mut().for_each(|c| *c = MapMsg::UNKNOWN);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        assert_eq!(cm.cost(GridIndex::new(30, 30)), COST_UNKNOWN);
        assert!(!cm.traversable(GridIndex::new(30, 30)));
    }

    #[test]
    fn footprint_collision_detection() {
        let m = map_with_block(100, 100);
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        // Block spans roughly [2.0, 2.25]².
        assert!(cm.footprint_collides(Point2::new(2.1, 2.1), 0.11));
        assert!(cm.footprint_collides(Point2::new(2.35, 2.1), 0.11));
        assert!(!cm.footprint_collides(Point2::new(4.0, 4.0), 0.11));
    }

    /// The cell-by-cell two-sweep chamfer that `chamfer` replaces.
    fn chamfer_reference(dist: &mut [f32], w: usize, res: f32) {
        let h = dist.len() / w;
        let (orth, diag) = (res, res * std::f32::consts::SQRT_2);
        for row in 0..h {
            for col in 0..w {
                let i = row * w + col;
                let mut d = dist[i];
                if col > 0 {
                    d = d.min(dist[i - 1] + orth);
                }
                if row > 0 {
                    d = d.min(dist[i - w] + orth);
                    if col > 0 {
                        d = d.min(dist[i - w - 1] + diag);
                    }
                    if col + 1 < w {
                        d = d.min(dist[i - w + 1] + diag);
                    }
                }
                dist[i] = d;
            }
        }
        for row in (0..h).rev() {
            for col in (0..w).rev() {
                let i = row * w + col;
                let mut d = dist[i];
                if col + 1 < w {
                    d = d.min(dist[i + 1] + orth);
                }
                if row + 1 < h {
                    d = d.min(dist[i + w] + orth);
                    if col > 0 {
                        d = d.min(dist[i + w - 1] + diag);
                    }
                    if col + 1 < w {
                        d = d.min(dist[i + w + 1] + diag);
                    }
                }
                dist[i] = d;
            }
        }
    }

    #[test]
    fn row_split_chamfer_is_bit_identical_to_reference() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut shapes = vec![(1, 1), (1, 37), (37, 1), (2, 2), (1, 240), (240, 1)];
        for _ in 0..60 {
            shapes.push((1 + rng.index(90), 1 + rng.index(90)));
        }
        for (w, h) in shapes {
            for density in [0.0, 0.002, 0.05, 0.4, 1.0] {
                let res = [0.05f32, 0.1, 0.07][rng.index(3)];
                let seed: Vec<f32> = (0..w * h)
                    .map(|_| {
                        if rng.chance(density) {
                            0.0
                        } else {
                            CHAMFER_FAR
                        }
                    })
                    .collect();
                let (mut fast, mut slow) = (seed.clone(), seed);
                chamfer(&mut fast, w, res);
                chamfer_reference(&mut slow, w, res);
                let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "{w}x{h} density {density}");
            }
        }
    }

    /// A random map up to 40×40 cells with a random origin and
    /// resolution, random lethal cells, and sometimes a lethal border.
    fn random_costmap(rng: &mut SimRng) -> Costmap {
        let (w, h) = (1 + rng.index(40) as u32, 1 + rng.index(40) as u32);
        let res = [0.05, 0.1, 0.07][rng.index(3)];
        let origin = Point2::new(rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0));
        let dims = GridDims::new(w, h, res, origin);
        let density = rng.uniform_range(0.0, 0.15);
        let border: [bool; 4] = std::array::from_fn(|_| rng.chance(0.5));
        let mut cells = vec![MapMsg::FREE; dims.len()];
        for (i, c) in cells.iter_mut().enumerate() {
            let idx = dims.unflat(i);
            let on_border = (border[0] && idx.col == 0)
                || (border[1] && idx.col as u32 == w - 1)
                || (border[2] && idx.row == 0)
                || (border[3] && idx.row as u32 == h - 1);
            if on_border || rng.chance(density) {
                *c = MapMsg::OCCUPIED;
            } else if rng.chance(0.1) {
                *c = MapMsg::UNKNOWN;
            }
        }
        let map = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        };
        Costmap::from_map(CostmapConfig::default(), &map)
    }

    /// A point in the square of half-width `half` around `c`; a third of
    /// them sit on a cell edge, where `world_to_grid` rounds.
    fn random_point(rng: &mut SimRng, dims: &GridDims, c: Point2, half: f64) -> Point2 {
        let p = Point2::new(
            c.x + rng.uniform_range(-half, half),
            c.y + rng.uniform_range(-half, half),
        );
        if rng.chance(0.33) {
            let idx = dims.world_to_grid(p);
            let corner = dims.grid_to_world(idx);
            Point2::new(
                corner.x - dims.resolution * 0.5,
                corner.y - dims.resolution * 0.5,
            )
        } else {
            p
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn clearance_window_agrees_with_footprint_collides(seed in 0u64..1_000_000) {
            let mut rng = SimRng::seed_from_u64(seed);
            let cm = random_costmap(&mut rng);
            let dims = *cm.dims();
            let (ww, wh) = (
                dims.width as f64 * dims.resolution,
                dims.height as f64 * dims.resolution,
            );
            let centre = Point2::new(
                dims.origin.x + rng.uniform_range(-0.3, ww + 0.3),
                dims.origin.y + rng.uniform_range(-0.3, wh + 0.3),
            );
            let reach = rng.uniform_range(0.0, 0.8);
            // Half the radii sit at k·res or one ulp either side, where
            // `r / res` is within rounding of an integer.
            let r = if rng.chance(0.5) {
                rng.uniform_range(0.05, 0.2)
            } else {
                let r = (1 + rng.index(4)) as f64 * dims.resolution;
                [r.next_down(), r, r.next_up()][rng.index(3)]
            };
            let window = cm.clearance_window(centre, reach, r);
            for _ in 0..300 {
                let p = random_point(&mut rng, &dims, centre, reach + 0.5);
                let c = dims.world_to_grid(p);
                let expected = (!cm.footprint_collides(p, r)).then(|| cm.cost(c));
                proptest::prop_assert_eq!(window.probe(p, c), expected, "at {:?} r={}", p, r);
                // The box's reach bound itself, blocked cells or not,
                // for every pose whose cell the window covers.
                let (col, row) = (c.col - window.origin.col, c.row - window.origin.row);
                if col >= 0 && row >= 0 && (col as usize) < window.stride && (row as usize) < window.rows {
                    let lo = dims.world_to_grid(Point2::new(p.x - r, p.y - r));
                    let hi = dims.world_to_grid(Point2::new(p.x + r, p.y + r));
                    let reach = (c.col - lo.col)
                        .max(hi.col - c.col)
                        .max(c.row - lo.row)
                        .max(hi.row - c.row);
                    proptest::prop_assert!(
                        reach as u32 <= window.free_above,
                        "box at {:?} r={} reaches {} cells", p, r, reach
                    );
                }
            }
        }

        #[test]
        fn probe_matches_the_costmap_inside_on_and_beyond_the_border(seed in 0u64..1_000_000) {
            let mut rng = SimRng::seed_from_u64(seed);
            let cm = random_costmap(&mut rng);
            let dims = *cm.dims();
            let centre = dims.grid_to_world(GridIndex::new(
                rng.index(dims.width as usize) as i32,
                rng.index(dims.height as usize) as i32,
            ));
            let r = (1 + rng.index(3)) as f64 * dims.resolution;
            let r = [r.next_down(), r, r.next_up(), rng.uniform_range(0.05, 0.2)][rng.index(4)];
            let window = cm.clearance_window(centre, rng.uniform_range(0.0, 0.6), r);
            let o = window.origin;
            // Every cell of the bordered window and one ring beyond it,
            // each at its centre and at a random point inside it.
            for row in o.row - 1..=o.row + window.rows as i32 {
                for col in o.col - 1..=o.col + window.stride as i32 {
                    let corner = dims.grid_to_world(GridIndex::new(col, row));
                    let half = dims.resolution * 0.5;
                    let jitter = Point2::new(
                        corner.x + rng.uniform_range(-half, half),
                        corner.y + rng.uniform_range(-half, half),
                    );
                    for p in [corner, jitter] {
                        let c = dims.world_to_grid(p);
                        let expected = (!cm.footprint_collides(p, r)).then(|| cm.cost(c));
                        proptest::prop_assert_eq!(window.probe(p, c), expected, "at {:?} r={}", p, r);
                        // Every hole the clearance licenses leaves the
                        // scan's answer as it is.
                        if let Some(i) = window.inner_index(c) {
                            for k in 0..=window.clear[i].min(window.free_above as u8) {
                                proptest::prop_assert_eq!(
                                    cm.footprint_collides_beyond(p, r, c, i32::from(k)),
                                    cm.footprint_collides(p, r),
                                    "at {:?} r={} hole {}", p, r, k
                                );
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn clearance_window_is_the_exact_chessboard_distance(seed in 0u64..1_000_000) {
            let mut rng = SimRng::seed_from_u64(seed);
            let cm = random_costmap(&mut rng);
            let dims = *cm.dims();
            let centre = dims.grid_to_world(GridIndex::new(
                rng.index(dims.width as usize) as i32,
                rng.index(dims.height as usize) as i32,
            ));
            let window = cm.clearance_window(centre, rng.uniform_range(0.0, 0.6), 0.11);
            let o = window.origin;
            let interior = |idx: GridIndex| {
                idx.col > o.col
                    && idx.row > o.row
                    && idx.col < o.col + window.stride as i32 - 1
                    && idx.row < o.row + window.rows as i32 - 1
            };
            for row in o.row..o.row + window.rows as i32 {
                for col in o.col..o.col + window.stride as i32 {
                    let idx = GridIndex::new(col, row);
                    // Smallest ring around `idx` holding a blocked or
                    // out-of-window cell.
                    let brute = (0..=255i32)
                        .find(|&d| {
                            (-d..=d).any(|dr| {
                                (-d..=d).any(|dc| {
                                    let n = GridIndex::new(col + dc, row + dr);
                                    (dr.abs() == d || dc.abs() == d)
                                        && (!interior(n) || cm.blocked(n))
                                })
                            })
                        })
                        .unwrap_or(255);
                    proptest::prop_assert_eq!(window.clearance(idx) as i32, brute, "{:?}", idx);
                }
            }
        }
    }

    #[test]
    fn clearance_window_rules_out_only_open_space_inside_it() {
        let cm = Costmap::from_map(CostmapConfig::default(), &map_with_block(100, 100));
        let centre = Point2::new(3.5, 3.5);
        let window = cm.clearance_window(centre, 0.5, 0.11);
        let dims = *cm.dims();
        // Open space around the centre: the pre-check rules it out.
        assert!(window.rules_out_collision(dims.world_to_grid(centre)));
        // Next to the block, and beyond the window: the full check runs.
        assert!(!window.rules_out_collision(dims.world_to_grid(Point2::new(2.3, 2.1))));
        assert!(!window.rules_out_collision(dims.world_to_grid(Point2::new(4.5, 3.5))));
        // Off the map the window is empty rather than wrong.
        let outside = cm.clearance_window(Point2::new(-20.0, -20.0), 0.5, 0.11);
        assert_eq!(outside.clearance(GridIndex::new(0, 0)), 0);
    }

    #[test]
    fn work_scales_with_grid_size() {
        let small = empty_map(50, 50);
        let large = empty_map(200, 200);
        let mut cs = Costmap::from_map(CostmapConfig::default(), &small);
        let mut cl = Costmap::from_map(CostmapConfig::default(), &large);
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.5,
            range_max: 3.5,
            ranges: vec![1.0; 12],
        };
        let mut ms = WorkMeter::new();
        let mut ml = WorkMeter::new();
        cs.update(&small, Pose2D::new(1.2, 1.2, 0.0), &scan, &mut ms);
        cl.update(&large, Pose2D::new(1.2, 1.2, 0.0), &scan, &mut ml);
        assert!(ml.finish().total_cycles() > 10.0 * ms.finish().total_cycles());
    }

    #[test]
    fn table2_costmap_cycle_anchor() {
        // Lab-scale map (12×10 m at 5 cm): one update should cost
        // ≈ 0.86/5 ≈ 0.17 Gcycles (Table II, CostmapGen with a map).
        let m = empty_map(240, 200);
        let mut cm = Costmap::from_map(CostmapConfig::default(), &m);
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 360.0,
            range_max: 3.5,
            ranges: vec![2.0; 360],
        };
        let mut meter = WorkMeter::new();
        cm.update(&m, Pose2D::new(6.0, 5.0, 0.0), &scan, &mut meter);
        let g = meter.finish().total_cycles() / 1e9;
        assert!((0.12..0.25).contains(&g), "per-update Gcycles {g}");
    }

    #[test]
    fn an_empty_costmap_is_unknown_and_untraversable() {
        let dims = GridDims::new(8, 6, 0.05, Point2::ORIGIN);
        let cm = Costmap::empty(CostmapConfig::default(), dims);
        assert_eq!(
            cm.config().inflation_radius,
            CostmapConfig::default().inflation_radius
        );
        for i in 0..dims.len() {
            let idx = dims.unflat(i);
            assert_eq!(cm.cost(idx), COST_UNKNOWN);
            assert!(!cm.traversable(idx));
        }
    }

    #[test]
    #[should_panic(expected = "map geometry must match")]
    fn a_static_map_of_another_geometry_is_rejected() {
        let mut cm = Costmap::from_map(CostmapConfig::default(), &map_with_block(100, 100));
        cm.set_static_map(&map_with_block(50, 50));
    }
}
