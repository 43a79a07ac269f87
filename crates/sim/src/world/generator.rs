//! Procedural floorplan generation.
//!
//! The paper evaluates on one lab and one public SLAM dataset; a
//! library user wants *families* of environments to sweep. This
//! generator produces seeded office-like floorplans — a grid of rooms
//! connected by doorways along a random spanning tree (guaranteeing
//! full connectivity), plus optional extra doors and furniture
//! clutter. Same seed ⇒ same world, byte for byte.

use super::{World, WorldBuilder};
use lgv_types::prelude::*;

/// Wall thickness (m).
pub const WALL: f64 = 0.15;
/// Furniture pieces per room (discs/rects).
pub const CLUTTER_PER_ROOM: u32 = 2;
/// Grid resolution (m/cell).
pub const RESOLUTION: f64 = 0.05;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct FloorplanConfig {
    /// Rooms along x.
    pub rooms_x: u32,
    /// Rooms along y.
    pub rooms_y: u32,
    /// Room size (m), square rooms.
    pub room_size: f64,
    /// Doorway width (m).
    pub door: f64,
    /// Probability of an *extra* door between adjacent rooms beyond
    /// the spanning tree (0 = tree only, 1 = every wall has a door).
    pub extra_door_prob: f64,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        FloorplanConfig {
            rooms_x: 3,
            rooms_y: 2,
            room_size: 5.0,
            door: 1.1,
            extra_door_prob: 0.25,
        }
    }
}

/// A generated floorplan: the world plus semantic anchors.
#[derive(Debug, Clone)]
pub struct Floorplan {
    /// The occupancy world.
    pub world: World,
    /// Centre of each room, row-major.
    pub room_centres: Vec<Point2>,
    /// A free start pose (centre of room 0).
    pub start: Pose2D,
    /// A free goal far from the start (centre of the last room).
    pub goal: Point2,
}

/// Generate a floorplan from a seed.
pub fn generate(cfg: &FloorplanConfig, seed: u64) -> Floorplan {
    assert!(
        cfg.rooms_x >= 1 && cfg.rooms_y >= 1,
        "need at least one room"
    );
    assert!(cfg.door < cfg.room_size, "door must fit in a wall");
    let mut rng = SimRng::seed_from_u64(seed);
    let (nx, ny) = (cfg.rooms_x as usize, cfg.rooms_y as usize);
    let n = nx * ny;
    let w_m = cfg.rooms_x as f64 * cfg.room_size;
    let h_m = cfg.rooms_y as f64 * cfg.room_size;

    let mut b = WorldBuilder::new(w_m, h_m, RESOLUTION).walls();

    // Interior walls between every pair of adjacent rooms.
    for i in 1..nx {
        let x = i as f64 * cfg.room_size;
        b = b.rect(
            Point2::new(x - WALL / 2.0, 0.0),
            Point2::new(x + WALL / 2.0, h_m),
        );
    }
    for j in 1..ny {
        let y = j as f64 * cfg.room_size;
        b = b.rect(
            Point2::new(0.0, y - WALL / 2.0),
            Point2::new(w_m, y + WALL / 2.0),
        );
    }

    // Spanning tree over the room grid (randomized DFS) — each tree
    // edge gets a doorway, guaranteeing connectivity.
    let mut visited = vec![false; n];
    let mut stack = vec![0usize];
    visited[0] = true;
    let mut tree_edges: Vec<(usize, usize)> = Vec::new();
    while let Some(&cur) = stack.last() {
        let (cx, cy) = (cur % nx, cur / nx);
        let mut neighbours = Vec::new();
        if cx + 1 < nx {
            neighbours.push(cur + 1);
        }
        if cx > 0 {
            neighbours.push(cur - 1);
        }
        if cy + 1 < ny {
            neighbours.push(cur + nx);
        }
        if cy > 0 {
            neighbours.push(cur - nx);
        }
        let fresh: Vec<usize> = neighbours.into_iter().filter(|&v| !visited[v]).collect();
        if fresh.is_empty() {
            stack.pop();
            continue;
        }
        let next = fresh[rng.index(fresh.len())];
        visited[next] = true;
        tree_edges.push((cur, next));
        stack.push(next);
    }

    // Optional extra doors on non-tree adjacencies.
    let mut all_edges = tree_edges.clone();
    for j in 0..ny {
        for i in 0..nx {
            let cur = j * nx + i;
            for &other in &[
                if i + 1 < nx { Some(cur + 1) } else { None },
                if j + 1 < ny { Some(cur + nx) } else { None },
            ] {
                if let Some(other) = other {
                    let in_tree = tree_edges
                        .iter()
                        .any(|&(a, b2)| (a, b2) == (cur, other) || (a, b2) == (other, cur));
                    if !in_tree && rng.chance(cfg.extra_door_prob) {
                        all_edges.push((cur, other));
                    }
                }
            }
        }
    }

    // Carve the doorways.
    for &(a, c) in &all_edges {
        let (ax, ay) = (a % nx, a / nx);
        let (cx2, cy2) = (c % nx, c / nx);
        let margin = cfg.door / 2.0 + 0.4;
        if ay == cy2 {
            // Vertical wall between horizontally adjacent rooms.
            let x = ax.max(cx2) as f64 * cfg.room_size;
            let yc = ay as f64 * cfg.room_size + rng.uniform_range(margin, cfg.room_size - margin);
            b = b.carve(
                Point2::new(x - WALL, yc - cfg.door / 2.0),
                Point2::new(x + WALL, yc + cfg.door / 2.0),
            );
        } else {
            // Horizontal wall between vertically adjacent rooms.
            let y = ay.max(cy2) as f64 * cfg.room_size;
            let xc = ax as f64 * cfg.room_size + rng.uniform_range(margin, cfg.room_size - margin);
            b = b.carve(
                Point2::new(xc - cfg.door / 2.0, y - WALL),
                Point2::new(xc + cfg.door / 2.0, y + WALL),
            );
        }
    }

    // Clutter: keep a clear disc at each room centre so starts/goals
    // and doorway approaches stay navigable.
    let mut room_centres = Vec::with_capacity(n);
    for j in 0..ny {
        for i in 0..nx {
            let centre = Point2::new(
                (i as f64 + 0.5) * cfg.room_size,
                (j as f64 + 0.5) * cfg.room_size,
            );
            room_centres.push(centre);
            for _ in 0..CLUTTER_PER_ROOM {
                let r = rng.uniform_range(0.15, 0.35);
                // Rejection-sample a spot away from the centre and walls.
                for _ in 0..10 {
                    let px =
                        (i as f64) * cfg.room_size + rng.uniform_range(0.8, cfg.room_size - 0.8);
                    let py =
                        (j as f64) * cfg.room_size + rng.uniform_range(0.8, cfg.room_size - 0.8);
                    let p = Point2::new(px, py);
                    if p.distance(centre) > r + 0.6 {
                        b = if rng.chance(0.5) {
                            b.disc(p, r)
                        } else {
                            b.rect(Point2::new(p.x - r, p.y - r), Point2::new(p.x + r, p.y + r))
                        };
                        break;
                    }
                }
            }
        }
    }

    let world = b.build();
    let start = Pose2D::new(room_centres[0].x, room_centres[0].y, 0.0);
    let goal = room_centres[n - 1];
    Floorplan {
        world,
        room_centres,
        start,
        goal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Free-space BFS between two points on the generated grid.
    fn connected(world: &World, from: Point2, to: Point2) -> bool {
        let dims = *world.dims();
        let start = dims.world_to_grid(from);
        let goal = dims.world_to_grid(to);
        let mut seen = vec![false; dims.len()];
        let mut q = VecDeque::from([start]);
        seen[dims.flat(start)] = true;
        while let Some(cur) = q.pop_front() {
            if cur == goal {
                return true;
            }
            for nb in cur.neighbors4() {
                if dims.contains(nb) && !world.occupied(nb) {
                    let f = dims.flat(nb);
                    if !seen[f] {
                        seen[f] = true;
                        q.push_back(nb);
                    }
                }
            }
        }
        false
    }

    #[test]
    fn generated_worlds_are_deterministic() {
        let cfg = FloorplanConfig::default();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(
            a.world.to_map_msg(SimTime::EPOCH).cells,
            b.world.to_map_msg(SimTime::EPOCH).cells
        );
        assert_eq!(a.room_centres, b.room_centres);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FloorplanConfig::default();
        let a = generate(&cfg, 1).world.to_map_msg(SimTime::EPOCH);
        let b = generate(&cfg, 2).world.to_map_msg(SimTime::EPOCH);
        assert_ne!(a.cells, b.cells);
    }

    #[test]
    fn all_rooms_are_reachable() {
        // The spanning tree guarantees it; verify across seeds.
        let cfg = FloorplanConfig {
            extra_door_prob: 0.0,
            ..Default::default()
        };
        for seed in 0..8 {
            let f = generate(&cfg, seed);
            for centre in &f.room_centres {
                assert!(
                    connected(&f.world, f.start.position(), *centre),
                    "seed {seed}: room at {centre:?} unreachable"
                );
            }
        }
    }

    #[test]
    fn start_and_goal_are_free_and_far() {
        let cfg = FloorplanConfig::default();
        for seed in 0..8 {
            let f = generate(&cfg, seed);
            assert!(
                !f.world.collides_disc(f.start.position(), 0.2),
                "seed {seed}"
            );
            assert!(!f.world.collides_disc(f.goal, 0.2), "seed {seed}");
            assert!(f.start.position().distance(f.goal) > cfg.room_size);
        }
    }

    #[test]
    fn room_count_matches_config() {
        let cfg = FloorplanConfig {
            rooms_x: 4,
            rooms_y: 3,
            ..Default::default()
        };
        let f = generate(&cfg, 3);
        assert_eq!(f.room_centres.len(), 12);
        let d = f.world.dims();
        assert!((d.width as f64 * d.resolution - 20.0).abs() < 0.1);
        assert!((d.height as f64 * d.resolution - 15.0).abs() < 0.1);
    }

    #[test]
    fn single_room_degenerates_gracefully() {
        let cfg = FloorplanConfig {
            rooms_x: 1,
            rooms_y: 1,
            ..Default::default()
        };
        let f = generate(&cfg, 5);
        assert_eq!(f.room_centres.len(), 1);
        assert!(!f.world.collides_disc(f.start.position(), 0.2));
    }
}
