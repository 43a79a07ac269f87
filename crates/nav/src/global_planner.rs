//! Global path planning (the PathPlanning node).
//!
//! Grid search over the costmap with 8-connectivity, supporting both
//! of the paper's cited algorithms: Dijkstra and A* (Hart et al. '68).
//! Edge cost is geometric distance plus a penalty proportional to the
//! costmap value, so paths prefer clearance. The produced waypoint
//! list is smoothed by greedy line-of-sight shortcutting.

use crate::costmap::{Costmap, COST_INSCRIBED};
use lgv_types::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cycle-cost constants: calibrated so replanning at 1 Hz on the lab
/// map draws ≈ 0.055 Gcycles/s (Table II, PathPlanning).
pub mod cost {
    /// Cycles per node expansion (heap ops + 8 neighbour relaxations).
    pub const CYCLES_PER_EXPANSION: f64 = 1400.0;
}

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerAlgorithm {
    /// Uniform-cost search (Dijkstra '59).
    Dijkstra,
    /// A* with the Euclidean-distance heuristic.
    AStar,
}

/// Weight of costmap values added to edge costs (metres of
/// equivalent detour per full-scale cost).
pub const COST_WEIGHT: f64 = 0.8;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Search algorithm.
    pub algorithm: PlannerAlgorithm,
    /// Allow planning through unknown space (exploration needs this).
    pub allow_unknown: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            algorithm: PlannerAlgorithm::AStar,
            allow_unknown: false,
        }
    }
}

/// One planning outcome.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// The path, start → goal.
    pub path: PathMsg,
    /// Nodes expanded during the search.
    pub expansions: u64,
    /// Cycle demand of this activation.
    pub work: Work,
}

#[derive(Debug, PartialEq)]
struct QueueEntry {
    priority: f64,
    flat: usize,
}

impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priority.
        other.priority.total_cmp(&self.priority)
    }
}

/// The global planner.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlanner {
    cfg: PlannerConfig,
}

impl GlobalPlanner {
    /// Build with config.
    pub fn new(cfg: PlannerConfig) -> Self {
        GlobalPlanner { cfg }
    }

    /// Configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    fn passable(&self, cm: &Costmap, idx: GridIndex) -> bool {
        if self.cfg.allow_unknown {
            cm.cost(idx) < COST_INSCRIBED
        } else {
            cm.traversable(idx)
        }
    }

    /// Plan a path from `start` to `goal` (world coordinates).
    pub fn plan(
        &self,
        cm: &Costmap,
        start: Point2,
        goal: Point2,
        stamp: SimTime,
    ) -> Result<PlanResult, LgvError> {
        let dims = *cm.dims();
        let s = dims.clamp(dims.world_to_grid(start));
        let g = dims.clamp(dims.world_to_grid(goal));
        if !self.passable(cm, g) {
            return Err(LgvError::NoPath {
                context: format!("goal {goal:?} not traversable"),
            });
        }
        // Start is where the robot is: treat as passable even if the
        // costmap momentarily inflates over it.
        let n = dims.len();
        let mut best = vec![f64::INFINITY; n];
        let mut parent = vec![usize::MAX; n];
        let mut closed = vec![false; n];
        let mut heap = BinaryHeap::new();
        let sf = dims.flat(s);
        let gf = dims.flat(g);
        best[sf] = 0.0;
        heap.push(QueueEntry {
            priority: 0.0,
            flat: sf,
        });

        let heuristic = |flat: usize| -> f64 {
            match self.cfg.algorithm {
                PlannerAlgorithm::Dijkstra => 0.0,
                PlannerAlgorithm::AStar => {
                    let idx = dims.unflat(flat);
                    dims.grid_to_world(idx).distance(dims.grid_to_world(g))
                }
            }
        };

        let mut expansions = 0u64;
        while let Some(QueueEntry { flat, .. }) = heap.pop() {
            if closed[flat] {
                continue;
            }
            closed[flat] = true;
            expansions += 1;
            if flat == gf {
                break;
            }
            let idx = dims.unflat(flat);
            for nb in idx.neighbors8() {
                if !dims.contains(nb) || !self.passable(cm, nb) {
                    continue;
                }
                let diagonal = nb.col != idx.col && nb.row != idx.row;
                if diagonal {
                    // No corner cutting: a diagonal move requires both
                    // orthogonal companion cells to be passable, or the
                    // robot's body would clip the blocked corner.
                    let c1 = GridIndex::new(nb.col, idx.row);
                    let c2 = GridIndex::new(idx.col, nb.row);
                    if !self.passable(cm, c1) || !self.passable(cm, c2) {
                        continue;
                    }
                }
                let nf = dims.flat(nb);
                if closed[nf] {
                    continue;
                }
                let step = if diagonal {
                    dims.resolution * std::f64::consts::SQRT_2
                } else {
                    dims.resolution
                };
                let penalty = COST_WEIGHT * (cm.cost(nb) as f64 / 254.0) * dims.resolution;
                let cand = best[flat] + step + penalty;
                if cand < best[nf] {
                    best[nf] = cand;
                    parent[nf] = flat;
                    heap.push(QueueEntry {
                        priority: cand + heuristic(nf),
                        flat: nf,
                    });
                }
            }
        }

        let work = Work::serial(expansions as f64 * cost::CYCLES_PER_EXPANSION);
        if !closed[gf] {
            return Err(LgvError::NoPath {
                context: format!("no route from {start:?} to {goal:?} ({expansions} expansions)"),
            });
        }

        // Reconstruct and smooth.
        let mut cells = vec![gf];
        let mut cur = gf;
        while cur != sf {
            cur = parent[cur];
            cells.push(cur);
            if cells.len() > n {
                return Err(LgvError::NoPath {
                    context: "parent cycle".into(),
                });
            }
        }
        cells.reverse();
        let raw: Vec<Point2> = cells
            .iter()
            .map(|&f| dims.grid_to_world(dims.unflat(f)))
            .collect();
        let waypoints = self.shortcut(cm, &raw);

        Ok(PlanResult {
            path: PathMsg { stamp, waypoints },
            expansions,
            work,
        })
    }

    /// Like [`GlobalPlanner::plan`], but when the exact goal cell is
    /// not traversable (a frontier cell hugging a wall's inflation, a
    /// goal just inside clutter), retarget to the nearest traversable
    /// cell within `slack` metres of it.
    pub fn plan_near(
        &self,
        cm: &Costmap,
        start: Point2,
        goal: Point2,
        slack: f64,
        stamp: SimTime,
    ) -> Result<PlanResult, LgvError> {
        match self.plan(cm, start, goal, stamp) {
            Ok(r) => Ok(r),
            Err(first_err) => {
                let dims = *cm.dims();
                let centre = dims.clamp(dims.world_to_grid(goal));
                let radius = (slack / dims.resolution).ceil() as i32;
                let mut best: Option<(f64, GridIndex)> = None;
                for dr in -radius..=radius {
                    for dc in -radius..=radius {
                        let idx = GridIndex::new(centre.col + dc, centre.row + dr);
                        if !dims.contains(idx) || !self.passable(cm, idx) {
                            continue;
                        }
                        let d = dims.grid_to_world(idx).distance(goal);
                        if d <= slack && best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, idx));
                        }
                    }
                }
                match best {
                    Some((_, idx)) => self.plan(cm, start, dims.grid_to_world(idx), stamp),
                    None => Err(first_err),
                }
            }
        }
    }

    /// Greedy line-of-sight shortcutting over the raw cell path.
    fn shortcut(&self, cm: &Costmap, raw: &[Point2]) -> Vec<Point2> {
        if raw.len() <= 2 {
            return raw.to_vec();
        }
        let mut out = vec![raw[0]];
        let mut i = 0;
        while i + 1 < raw.len() {
            // Furthest j visible from i.
            let mut j = i + 1;
            for k in (i + 1..raw.len()).rev() {
                if self.line_free(cm, raw[i], raw[k]) {
                    j = k;
                    break;
                }
            }
            out.push(raw[j]);
            i = j;
        }
        out
    }

    fn line_free(&self, cm: &Costmap, a: Point2, b: Point2) -> bool {
        GridRay::new(cm.dims(), a, b).all(|c| self.passable(cm, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmap::CostmapConfig;

    fn open_map(w: u32, h: u32) -> MapMsg {
        MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(w, h, 0.05, Point2::ORIGIN),
            cells: vec![MapMsg::FREE; (w * h) as usize],
        }
    }

    /// Map with a vertical wall at x ≈ 2.5 m with a gap at y ∈ [3, 3.5].
    fn wall_map() -> MapMsg {
        let mut m = open_map(120, 120);
        for row in 0..120 {
            let y = row as f64 * 0.05;
            if (3.0..3.5).contains(&y) {
                continue;
            }
            m.cells[row * 120 + 50] = MapMsg::OCCUPIED;
        }
        m
    }

    fn planner(alg: PlannerAlgorithm) -> GlobalPlanner {
        GlobalPlanner::new(PlannerConfig {
            algorithm: alg,
            ..Default::default()
        })
    }

    #[test]
    fn straight_path_in_open_space() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(100, 100));
        let p = planner(PlannerAlgorithm::AStar);
        let r = p
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(4.0, 1.0),
                SimTime::EPOCH,
            )
            .unwrap();
        let len = r.path.length();
        assert!((len - 3.0).abs() < 0.2, "length {len}");
        assert!(r.path.waypoints.len() >= 2);
    }

    #[test]
    fn path_goes_through_the_gap() {
        let cm = Costmap::from_map(CostmapConfig::default(), &wall_map());
        let p = planner(PlannerAlgorithm::AStar);
        let r = p
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 1.0),
                SimTime::EPOCH,
            )
            .unwrap();
        // Must detour via y ≈ 3.25: length well above the straight 4 m.
        assert!(r.path.length() > 5.0, "length {}", r.path.length());
        // Every waypoint pair stays collision-free.
        let max_y = r.path.waypoints.iter().map(|w| w.y).fold(0.0, f64::max);
        assert!(max_y > 2.9, "should pass near the gap, max_y {max_y}");
    }

    #[test]
    fn dijkstra_and_astar_agree_on_length() {
        let cm = Costmap::from_map(CostmapConfig::default(), &wall_map());
        let d = planner(PlannerAlgorithm::Dijkstra)
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 1.0),
                SimTime::EPOCH,
            )
            .unwrap();
        let a = planner(PlannerAlgorithm::AStar)
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 1.0),
                SimTime::EPOCH,
            )
            .unwrap();
        let diff = (d.path.length() - a.path.length()).abs();
        assert!(
            diff < 0.4,
            "Dijkstra {} vs A* {}",
            d.path.length(),
            a.path.length()
        );
    }

    #[test]
    fn astar_expands_fewer_nodes() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let d = planner(PlannerAlgorithm::Dijkstra)
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 5.0),
                SimTime::EPOCH,
            )
            .unwrap();
        let a = planner(PlannerAlgorithm::AStar)
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 5.0),
                SimTime::EPOCH,
            )
            .unwrap();
        assert!(
            a.expansions * 2 < d.expansions,
            "A* {} vs Dijkstra {}",
            a.expansions,
            d.expansions
        );
        assert!(a.work.total_cycles() < d.work.total_cycles());
    }

    #[test]
    fn unreachable_goal_errors() {
        // Wall with no gap.
        let mut m = open_map(100, 100);
        for row in 0..100 {
            m.cells[row * 100 + 50] = MapMsg::OCCUPIED;
        }
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let p = planner(PlannerAlgorithm::AStar);
        let r = p.plan(
            &cm,
            Point2::new(1.0, 1.0),
            Point2::new(4.0, 1.0),
            SimTime::EPOCH,
        );
        assert!(matches!(r, Err(LgvError::NoPath { .. })));
    }

    #[test]
    fn goal_inside_obstacle_errors() {
        let m = wall_map();
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let p = planner(PlannerAlgorithm::AStar);
        let r = p.plan(
            &cm,
            Point2::new(1.0, 1.0),
            Point2::new(2.52, 1.0),
            SimTime::EPOCH,
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_space_respected_unless_allowed() {
        let mut m = open_map(100, 100);
        // Right half unknown.
        for row in 0..100 {
            for col in 50..100 {
                m.cells[row * 100 + col] = MapMsg::UNKNOWN;
            }
        }
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let strict = planner(PlannerAlgorithm::AStar);
        assert!(strict
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(4.0, 1.0),
                SimTime::EPOCH
            )
            .is_err());
        let permissive = GlobalPlanner::new(PlannerConfig {
            allow_unknown: true,
            ..Default::default()
        });
        assert!(permissive
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(4.0, 1.0),
                SimTime::EPOCH
            )
            .is_ok());
    }

    #[test]
    fn path_waypoints_are_collision_free() {
        let cm = Costmap::from_map(CostmapConfig::default(), &wall_map());
        let p = planner(PlannerAlgorithm::AStar);
        let r = p
            .plan(
                &cm,
                Point2::new(1.0, 1.0),
                Point2::new(5.0, 5.5),
                SimTime::EPOCH,
            )
            .unwrap();
        for w in &r.path.waypoints {
            let idx = cm.dims().world_to_grid(*w);
            assert!(cm.cost(idx) < COST_INSCRIBED, "waypoint {w:?} in collision");
        }
    }

    #[test]
    fn plan_near_retargets_a_goal_inside_an_obstacle() {
        let cm = Costmap::from_map(CostmapConfig::default(), &wall_map());
        let p = planner(PlannerAlgorithm::AStar);
        let (start, goal) = (Point2::new(1.0, 1.0), Point2::new(2.525, 1.0));
        assert!(p.plan(&cm, start, goal, SimTime::EPOCH).is_err());
        assert!(p.plan_near(&cm, start, goal, 0.0, SimTime::EPOCH).is_err());
        let r = p.plan_near(&cm, start, goal, 1.0, SimTime::EPOCH).unwrap();
        let end = *r.path.waypoints.last().unwrap();
        assert!(end.distance(goal) <= 1.0, "end {end:?}");
        assert!(end.x < 2.5, "retargeted on the start's side: {end:?}");
        assert!(cm.traversable(cm.dims().world_to_grid(end)));
    }

    #[test]
    fn planning_to_the_start_cell_is_trivial() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(40, 40));
        let p = planner(PlannerAlgorithm::Dijkstra);
        assert_eq!(p.config().algorithm, PlannerAlgorithm::Dijkstra);
        let here = Point2::new(1.0, 1.0);
        let r = p.plan(&cm, here, here, SimTime::EPOCH).unwrap();
        assert_eq!(r.expansions, 1);
        assert_eq!(r.path.length(), 0.0);
        assert_eq!(r.work.total_cycles(), cost::CYCLES_PER_EXPANSION);
    }
}
