//! Property-based tests for the navigation stack: planner optimality
//! and safety, costmap invariants, DWA feasibility guarantees.

use lgv_nav::costmap::{Costmap, CostmapConfig, COST_INSCRIBED, COST_LETHAL};
use lgv_nav::dwa::{DwaConfig, DwaPlanner, HeadingTable};
use lgv_nav::frontier::FrontierExplorer;
use lgv_nav::global_planner::{GlobalPlanner, PlannerAlgorithm, PlannerConfig};
use lgv_nav::velocity_mux::{MuxConfig, VelocityMux};
use lgv_types::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

/// An open map with a few random rectangular obstacles.
fn obstacle_map(seed: u64, blocks: usize) -> MapMsg {
    let dims = GridDims::new(120, 120, 0.05, Point2::ORIGIN);
    let mut cells = vec![MapMsg::FREE; dims.len()];
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..blocks {
        let cx = rng.index(80) + 20;
        let cy = rng.index(80) + 20;
        let w = rng.index(8) + 2;
        let h = rng.index(8) + 2;
        for row in cy..(cy + h).min(120) {
            for col in cx..(cx + w).min(120) {
                cells[row * 120 + col] = MapMsg::OCCUPIED;
            }
        }
    }
    MapMsg {
        stamp: SimTime::EPOCH,
        dims,
        cells,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn astar_never_beats_dijkstra_by_much(seed in 0u64..200, blocks in 0usize..6) {
        // A* with an admissible heuristic and identical edge costs must
        // return (near-)identical path lengths to Dijkstra.
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        let start = Point2::new(0.5, 0.5);
        let goal = Point2::new(5.5, 5.5);
        let d = GlobalPlanner::new(PlannerConfig {
            algorithm: PlannerAlgorithm::Dijkstra,
            ..Default::default()
        })
        .plan(&cm, start, goal, SimTime::EPOCH);
        let a = GlobalPlanner::new(PlannerConfig {
            algorithm: PlannerAlgorithm::AStar,
            ..Default::default()
        })
        .plan(&cm, start, goal, SimTime::EPOCH);
        match (d, a) {
            (Ok(d), Ok(a)) => {
                // Shortcutting adds small variation; lengths agree within 10 %.
                let ratio = a.path.length() / d.path.length().max(1e-9);
                prop_assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
                prop_assert!(a.expansions <= d.expansions);
            }
            (Err(_), Err(_)) => {}
            (d, a) => prop_assert!(false, "planners disagree on reachability: {d:?} vs {a:?}"),
        }
    }

    #[test]
    fn planned_paths_avoid_lethal_cells(seed in 0u64..200, blocks in 0usize..6) {
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        let p = GlobalPlanner::new(PlannerConfig::default());
        if let Ok(r) = p.plan(&cm, Point2::new(0.5, 0.5), Point2::new(5.5, 5.5), SimTime::EPOCH) {
            for w in r.path.waypoints.windows(2) {
                for cell in GridRay::new(cm.dims(), w[0], w[1]) {
                    prop_assert!(
                        cm.cost(cell) < COST_INSCRIBED,
                        "path segment crosses lethal/inscribed cell {cell:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn costmap_costs_bounded_and_lethal_preserved(seed in 0u64..100, blocks in 1usize..6) {
        let map = obstacle_map(seed, blocks);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        for (i, &c) in map.cells.iter().enumerate() {
            let idx = cm.dims().unflat(i);
            prop_assert!(cm.cost(idx) <= COST_LETHAL);
            if c == MapMsg::OCCUPIED {
                prop_assert_eq!(cm.cost(idx), COST_LETHAL, "static obstacle must stay lethal");
            }
        }
    }

    #[test]
    fn dwa_never_commands_into_collision(
        seed in 0u64..100, px in 1.0f64..5.0, py in 1.0f64..5.0, th in -3.0f64..3.0,
    ) {
        let map = obstacle_map(seed, 4);
        let cm = Costmap::from_map(CostmapConfig::default(), &map);
        if cm.footprint_collides(Point2::new(px, py), 0.12) {
            return Ok(());
        }
        let pose = Pose2D::new(px, py, th);
        let mut dwa = DwaPlanner::new(DwaConfig { samples: 120, ..Default::default() });
        let path = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![pose.position(), Point2::new(5.5, 5.5)],
        };
        let r = dwa.compute(&cm, pose, &path, Point2::new(5.5, 5.5));
        if r.twist.linear > 0.0 {
            // Forward-simulate the chosen command over the DWA horizon:
            // it must stay collision-free (that's the feasibility test
            // the planner itself applied).
            let mut p = pose;
            for _ in 0..16 {
                p = p.integrate(r.twist, 0.1);
                prop_assert!(
                    !cm.footprint_collides(p.position(), 0.10),
                    "commanded trajectory collides at {p:?}"
                );
            }
        }
    }

    #[test]
    fn heading_table_rollouts_match_integrate_bit_for_bit(
        x in -5.0f64..5.0,
        y in -5.0f64..5.0,
        heading in (0u8..3, -PI..PI, 0.0f64..1e-3).prop_map(|(kind, th, off)| match kind {
            // At random, or within 1e-3 of ±π so the rollouts wrap.
            0 => th,
            1 => PI - off,
            _ => -PI + off,
        }),
        omegas in proptest::collection::vec(
            (0u8..4, -2.84f64..2.84).prop_map(|(kind, w)| match kind {
                0 => 0.0,
                1 => 5e-10,
                2 => -5e-10,
                _ => w,
            }),
            1..6,
        ),
        v in 0.0f64..0.22,
    ) {
        let start = Pose2D { x, y, theta: heading };
        let table = HeadingTable::new(heading, &omegas, 0.1, 16);
        for (wi, &w) in omegas.iter().enumerate() {
            let mut p = start;
            let mut steps = 0;
            for q in table.rollout(start.position(), v, wi) {
                p = p.integrate(Twist::new(v, w), 0.1);
                steps += 1;
                prop_assert_eq!(
                    [q.x.to_bits(), q.y.to_bits(), q.theta.to_bits()],
                    [p.x.to_bits(), p.y.to_bits(), p.theta.to_bits()],
                    "ω {} step {}", w, steps
                );
            }
            prop_assert_eq!(steps, 16);
        }
    }

    #[test]
    fn mux_always_returns_a_valid_command(
        cmds in proptest::collection::vec((0u64..5000, 0u8..3, -1.0f64..1.0), 0..30),
        query in 0u64..6000,
    ) {
        let mut mux = VelocityMux::new(MuxConfig::default());
        let mut stamps: Vec<u64> = cmds.iter().map(|c| c.0).collect();
        stamps.sort_unstable();
        for (stamp, src, v) in &cmds {
            let source = match src {
                0 => VelocitySource::Navigation,
                1 => VelocitySource::Joystick,
                _ => VelocitySource::SafetyController,
            };
            mux.submit(VelocityCmd {
                stamp: SimTime::EPOCH + Duration::from_millis(*stamp),
                twist: Twist::new(*v, 0.0),
                source,
            });
        }
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(query));
        prop_assert!(out.twist.linear.is_finite());
        // If it returned a non-stop command, that command must be fresh.
        if !out.twist.is_stop() {
            let age = (SimTime::EPOCH + Duration::from_millis(query)).saturating_since(out.stamp);
            prop_assert!(age <= Duration::from_millis(600));
        }
    }

    #[test]
    fn frontier_goal_is_always_on_a_frontier_cluster(seed in 0u64..100) {
        // Free disc of known space around a random centre; goal must
        // lie near the known/unknown boundary.
        let dims = GridDims::new(80, 80, 0.1, Point2::ORIGIN);
        let mut cells = vec![MapMsg::UNKNOWN; dims.len()];
        let mut rng = SimRng::seed_from_u64(seed);
        let cx = 20 + rng.index(40) as i32;
        let cy = 20 + rng.index(40) as i32;
        let r = 8 + rng.index(8) as i32;
        for row in 0..80 {
            for col in 0..80 {
                let dx = col - cx;
                let dy = row - cy;
                if dx * dx + dy * dy <= r * r {
                    cells[(row * 80 + col) as usize] = MapMsg::FREE;
                }
            }
        }
        let map = MapMsg { stamp: SimTime::EPOCH, dims, cells };
        let centre = dims.grid_to_world(GridIndex::new(cx, cy));
        let out = FrontierExplorer::default().select_goal(&map, centre, SimTime::EPOCH);
        if let Some(goal) = out.goal {
            let dist = goal.target.distance(centre);
            // Frontier ring lies at radius r·0.1 m ± a cell or two.
            prop_assert!(
                (dist - r as f64 * 0.1).abs() < 0.4,
                "goal {dist} vs ring {}",
                r as f64 * 0.1
            );
        }
    }
}
