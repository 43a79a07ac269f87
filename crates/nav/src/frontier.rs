//! Frontier-based exploration (the Exploration node).
//!
//! Yamauchi's classic algorithm (CIRA '97), as cited by the paper: a
//! *frontier* is a known-free cell adjacent to unknown space. Frontier
//! cells are clustered by connectivity; clusters below a minimum size
//! are noise; the goal is the centroid of the best cluster (nearest by
//! default). When no frontiers remain, the area is fully explored and
//! the mission is complete.

use lgv_types::prelude::*;
use std::collections::VecDeque;

/// Cycle-cost constants: Exploration is the lightest planning node
/// (Table II: 0.011 Gcycles without a map).
pub mod cost {
    /// Cycles per grid cell scanned for frontier detection.
    pub const CYCLES_PER_CELL_SCAN: f64 = 90.0;
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Minimum cluster size (cells) to count as a real frontier.
    pub min_cluster: usize,
    /// Bias: prefer nearest cluster (`true`) or largest (`false`).
    pub prefer_nearest: bool,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            min_cluster: 8,
            prefer_nearest: true,
        }
    }
}

/// One exploration decision.
#[derive(Debug, Clone)]
pub struct FrontierOutput {
    /// Next goal, or `None` when the map is fully explored.
    pub goal: Option<GoalMsg>,
    /// Number of frontier clusters found (≥ min size).
    pub clusters: usize,
    /// Total frontier cells found.
    pub frontier_cells: usize,
    /// Cycle demand of this activation.
    pub work: Work,
}

/// The explorer.
#[derive(Debug, Clone, Default)]
pub struct FrontierExplorer {
    cfg: FrontierConfig,
}

impl FrontierExplorer {
    /// Build with config.
    pub fn new(cfg: FrontierConfig) -> Self {
        FrontierExplorer { cfg }
    }

    /// Pick the next exploration goal from the current map knowledge.
    pub fn select_goal(&self, map: &MapMsg, robot: Point2, stamp: SimTime) -> FrontierOutput {
        self.select_goal_excluding(map, robot, stamp, &[], 0.0)
    }

    /// Like [`FrontierExplorer::select_goal`], but skip clusters whose
    /// centroid lies within `excl_radius` of any excluded point —
    /// used by the mission Controller to blacklist frontiers that
    /// repeatedly proved unreachable.
    pub fn select_goal_excluding(
        &self,
        map: &MapMsg,
        robot: Point2,
        stamp: SimTime,
        excluded: &[Point2],
        excl_radius: f64,
    ) -> FrontierOutput {
        let dims = map.dims;
        let n = dims.len();
        let is_free = |i: usize| map.cells[i] == MapMsg::FREE;
        let is_unknown = |i: usize| map.cells[i] == MapMsg::UNKNOWN;

        // 1. Find frontier cells.
        let mut frontier = vec![false; n];
        let mut frontier_cells = 0usize;
        #[allow(clippy::needless_range_loop)] // index feeds dims.unflat
        for i in 0..n {
            if !is_free(i) {
                continue;
            }
            let idx = dims.unflat(i);
            let f = idx
                .neighbors4()
                .iter()
                .any(|nb| dims.contains(*nb) && is_unknown(dims.flat(*nb)));
            if f {
                frontier[i] = true;
                frontier_cells += 1;
            }
        }

        // 2. Cluster by 8-connectivity BFS. The goal candidate for a
        //    cluster is the frontier cell *nearest to the cluster's
        //    centroid*: a raw centroid collapses to the robot's own
        //    position for ring-shaped frontiers (an enclosing
        //    boundary), while the nearest-to-centroid cell is always a
        //    real frontier cell in the middle of the opening.
        let mut visited = vec![false; n];
        // (representative frontier cell, cluster size)
        let mut clusters: Vec<(Point2, usize)> = Vec::new();
        for i in 0..n {
            if !frontier[i] || visited[i] {
                continue;
            }
            let mut queue = VecDeque::from([i]);
            visited[i] = true;
            let mut members: Vec<Point2> = Vec::new();
            let mut sx = 0.0;
            let mut sy = 0.0;
            while let Some(j) = queue.pop_front() {
                let p = dims.grid_to_world(dims.unflat(j));
                sx += p.x;
                sy += p.y;
                members.push(p);
                for nb in dims.unflat(j).neighbors8() {
                    if dims.contains(nb) {
                        let nf = dims.flat(nb);
                        if frontier[nf] && !visited[nf] {
                            visited[nf] = true;
                            queue.push_back(nf);
                        }
                    }
                }
            }
            if members.len() >= self.cfg.min_cluster {
                let centroid = Point2::new(sx / members.len() as f64, sy / members.len() as f64);
                let rep = members
                    .iter()
                    .min_by(|a, b| a.distance(centroid).total_cmp(&b.distance(centroid)))
                    .copied()
                    .unwrap();
                clusters.push((rep, members.len()));
            }
        }

        // 3. Pick the target cluster (skipping blacklisted regions).
        clusters.retain(|(c, _)| !excluded.iter().any(|e| e.distance(*c) <= excl_radius));
        let target = if self.cfg.prefer_nearest {
            clusters
                .iter()
                .min_by(|a, b| robot.distance(a.0).total_cmp(&robot.distance(b.0)))
        } else {
            clusters.iter().max_by_key(|c| c.1)
        };

        let work = Work::serial(n as f64 * cost::CYCLES_PER_CELL_SCAN);
        FrontierOutput {
            goal: target.map(|(c, _)| GoalMsg { stamp, target: *c }),
            clusters: clusters.len(),
            frontier_cells,
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map whose left half is free, right half unknown: the frontier
    /// is the vertical boundary.
    fn half_known() -> MapMsg {
        let dims = GridDims::new(60, 40, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::UNKNOWN; dims.len()];
        for row in 0..40 {
            for col in 0..30 {
                cells[row * 60 + col] = MapMsg::FREE;
            }
        }
        MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        }
    }

    #[test]
    fn finds_boundary_frontier() {
        let e = FrontierExplorer::default();
        let out = e.select_goal(&half_known(), Point2::new(1.0, 2.0), SimTime::EPOCH);
        assert!(
            out.frontier_cells >= 40,
            "boundary column: {}",
            out.frontier_cells
        );
        assert_eq!(out.clusters, 1);
        let goal = out.goal.expect("frontier goal");
        // Centroid near x = 2.95, mid-height y ≈ 2.0.
        assert!((goal.target.x - 2.95).abs() < 0.1, "x {}", goal.target.x);
        assert!((goal.target.y - 2.0).abs() < 0.2, "y {}", goal.target.y);
    }

    #[test]
    fn fully_explored_returns_none() {
        let dims = GridDims::new(30, 30, 0.1, Point2::ORIGIN);
        let map = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells: vec![MapMsg::FREE; dims.len()],
        };
        let e = FrontierExplorer::default();
        let out = e.select_goal(&map, Point2::new(1.0, 1.0), SimTime::EPOCH);
        assert!(out.goal.is_none());
        assert_eq!(out.frontier_cells, 0);
    }

    #[test]
    fn occupied_cells_are_not_frontiers() {
        let mut map = half_known();
        // Wall along the boundary: frontier disappears behind it.
        for row in 0..40 {
            map.cells[row * 60 + 29] = MapMsg::OCCUPIED;
        }
        let e = FrontierExplorer::default();
        let out = e.select_goal(&map, Point2::new(1.0, 2.0), SimTime::EPOCH);
        assert!(out.goal.is_none(), "wall blocks the frontier");
    }

    #[test]
    fn small_clusters_are_noise() {
        let dims = GridDims::new(30, 30, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::FREE; dims.len()];
        // A single unknown cell in the middle: 4 frontier neighbours,
        // below the min-cluster threshold of 8.
        cells[15 * 30 + 15] = MapMsg::UNKNOWN;
        let map = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        };
        let e = FrontierExplorer::default();
        let out = e.select_goal(&map, Point2::new(1.0, 1.0), SimTime::EPOCH);
        assert!(out.goal.is_none());
        assert!(out.frontier_cells > 0);
        assert_eq!(out.clusters, 0);
    }

    #[test]
    fn nearest_cluster_preferred() {
        let dims = GridDims::new(60, 20, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::FREE; dims.len()];
        // Two unknown regions: columns 0..6 (near) and 54..60 (far).
        for row in 0..20 {
            for col in 0..6 {
                cells[row * 60 + col] = MapMsg::UNKNOWN;
            }
            for col in 54..60 {
                cells[row * 60 + col] = MapMsg::UNKNOWN;
            }
        }
        let map = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        };
        let e = FrontierExplorer::default();
        let robot = Point2::new(1.5, 1.0);
        let out = e.select_goal(&map, robot, SimTime::EPOCH);
        assert_eq!(out.clusters, 2);
        let goal = out.goal.unwrap().target;
        assert!(
            goal.x < 3.0,
            "nearest frontier is on the left, got {goal:?}"
        );
    }

    #[test]
    fn work_scales_with_map_size() {
        let e = FrontierExplorer::default();
        let small = half_known();
        let dims = GridDims::new(240, 160, 0.1, Point2::ORIGIN);
        let large = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells: vec![MapMsg::FREE; dims.len()],
        };
        let ws = e.select_goal(&small, Point2::ORIGIN, SimTime::EPOCH).work;
        let wl = e.select_goal(&large, Point2::ORIGIN, SimTime::EPOCH).work;
        assert!(wl.total_cycles() > 10.0 * ws.total_cycles());
    }

    fn two_regions() -> MapMsg {
        let dims = GridDims::new(60, 20, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::FREE; dims.len()];
        // Unknown: columns 0..6 of the lower half (near), and all of
        // columns 54..60 (far, with the longer frontier).
        for row in 0..20 {
            for col in 54..60 {
                cells[row * 60 + col] = MapMsg::UNKNOWN;
            }
        }
        for row in 0..10 {
            for col in 0..6 {
                cells[row * 60 + col] = MapMsg::UNKNOWN;
            }
        }
        MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        }
    }

    #[test]
    fn excluded_goals_fall_through_to_the_next_cluster() {
        let e = FrontierExplorer::default();
        let (map, robot) = (two_regions(), Point2::new(1.5, 1.5));
        let near = e
            .select_goal(&map, robot, SimTime::EPOCH)
            .goal
            .unwrap()
            .target;
        assert!(near.x < 3.0, "{near:?}");
        let out = e.select_goal_excluding(&map, robot, SimTime::EPOCH, &[near], 0.5);
        assert_eq!(out.clusters, 1);
        let far = out.goal.unwrap().target;
        assert!(far.x > 3.0, "{far:?}");
        let none = e.select_goal_excluding(&map, robot, SimTime::EPOCH, &[near, far], 0.5);
        assert!(none.goal.is_none());
        assert_eq!(none.clusters, 0);
    }

    #[test]
    fn largest_cluster_wins_unless_nearest_is_preferred() {
        let e = FrontierExplorer::new(FrontierConfig {
            prefer_nearest: false,
            ..FrontierConfig::default()
        });
        let out = e.select_goal(&two_regions(), Point2::new(1.5, 1.5), SimTime::EPOCH);
        assert_eq!(out.clusters, 2);
        assert!(out.goal.unwrap().target.x > 3.0);
    }
}
