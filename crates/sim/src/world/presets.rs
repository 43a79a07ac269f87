//! Deterministic preset worlds.
//!
//! These stand in for the paper's physical lab and the Intel Research
//! Lab dataset: every preset is built from fixed geometry so the scan
//! streams they produce are reproducible bit-for-bit.

use super::{World, WorldBuilder};
use lgv_types::prelude::*;

/// Default grid resolution (m/cell), matching the ROS map_server default.
pub const RESOLUTION: f64 = 0.05;

/// A 12 × 10 m office-like lab: two rooms joined by a doorway, desks
/// and a pillar for clutter. Used by the end-to-end navigation and
/// exploration workloads (paper §VIII-D: "explore in our lab … then
/// navigate on the known map").
pub fn lab() -> World {
    WorldBuilder::new(12.0, 10.0, RESOLUTION)
        .walls()
        // Vertical partition wall with a 1.2 m doorway.
        .rect(Point2::new(6.0, 0.0), Point2::new(6.15, 10.0))
        .carve(Point2::new(6.0, 4.2), Point2::new(6.15, 5.4))
        // Desks along the north wall of the left room.
        .rect(Point2::new(0.8, 8.2), Point2::new(3.2, 9.2))
        // A low cabinet in the left room.
        .rect(Point2::new(1.0, 2.0), Point2::new(2.4, 2.8))
        // Chairs and boxes cluttering the rooms, several directly on
        // the door-to-goal route (forces curves — the Fig. 14 effect
        // that keeps the *real* velocity below v_max at speed).
        .disc(Point2::new(2.9, 4.4), 0.25)
        .disc(Point2::new(4.3, 5.3), 0.25)
        .disc(Point2::new(4.6, 3.6), 0.3)
        // Meeting table in the right room.
        .rect(Point2::new(8.2, 6.2), Point2::new(10.2, 7.4))
        // Structural pillar, a waste bin and crates in the right room.
        .disc(Point2::new(9.0, 2.5), 0.35)
        .disc(Point2::new(7.4, 4.3), 0.3)
        .disc(Point2::new(8.5, 3.3), 0.25)
        .disc(Point2::new(9.8, 4.2), 0.25)
        .build()
}

/// Start pose used by the lab missions (left room, facing +x).
pub fn lab_start() -> Pose2D {
    Pose2D::new(1.5, 5.0, 0.0)
}

/// Navigation goal used by the lab missions (right room).
pub fn lab_goal() -> Point2 {
    Point2::new(10.5, 3.0)
}

/// An 18 × 14 m multi-room floorplan with corridors — a synthetic
/// stand-in for the Intel Research Lab SLAM dataset. Rooms hang off a
/// central corridor; doorways are 1 m wide.
pub fn intel_like() -> World {
    let mut b = WorldBuilder::new(18.0, 14.0, RESOLUTION).walls();
    // Central horizontal corridor between y = 6 and y = 8: walls at
    // y ∈ [5.85, 6.0] and [8.0, 8.15] with doorways into each room.
    b = b.rect(Point2::new(0.0, 5.85), Point2::new(18.0, 6.0));
    b = b.rect(Point2::new(0.0, 8.0), Point2::new(18.0, 8.15));
    // Room dividers below the corridor (south rooms).
    for i in 1..4 {
        let x = i as f64 * 4.5;
        b = b.rect(Point2::new(x, 0.0), Point2::new(x + 0.15, 5.85));
    }
    // Room dividers above the corridor (north rooms).
    for i in 1..4 {
        let x = i as f64 * 4.5;
        b = b.rect(Point2::new(x, 8.15), Point2::new(x + 0.15, 14.0));
    }
    // Doorways from the corridor into each of the 8 rooms.
    for i in 0..4 {
        let x = i as f64 * 4.5 + 1.8;
        b = b.carve(Point2::new(x, 5.85), Point2::new(x + 1.0, 6.0));
        b = b.carve(Point2::new(x, 8.0), Point2::new(x + 1.0, 8.15));
    }
    // Clutter: a desk or crate per room.
    b = b
        .rect(Point2::new(1.0, 1.0), Point2::new(2.2, 1.8))
        .rect(Point2::new(6.0, 2.5), Point2::new(7.0, 3.5))
        .rect(Point2::new(10.5, 1.2), Point2::new(11.7, 2.0))
        .rect(Point2::new(15.0, 3.0), Point2::new(16.2, 3.8))
        .rect(Point2::new(1.5, 10.5), Point2::new(2.7, 11.5))
        .rect(Point2::new(6.2, 11.0), Point2::new(7.4, 12.0))
        .rect(Point2::new(10.8, 10.2), Point2::new(12.0, 11.0))
        .disc(Point2::new(15.5, 11.0), 0.4);
    b.build()
}

/// Start pose for the intel-like world (west end of the corridor).
pub fn intel_start() -> Pose2D {
    Pose2D::new(1.0, 7.0, 0.0)
}

/// A 20 × 6 m obstacle course with three phases — an obstacle slalom,
/// a long straight, and a 90° right turn — reproducing the path
/// structure of Fig. 14 (avoiding obstacles / heading straight /
/// turning right).
pub fn obstacle_course() -> World {
    WorldBuilder::new(20.0, 12.0, RESOLUTION)
        .walls()
        // Corridor walls: 6 m tall corridor along y ∈ [0, 6] for the
        // first 16 m, then the track turns north.
        .rect(Point2::new(0.0, 6.0), Point2::new(16.0, 6.15))
        // Slalom obstacles in the first 8 m.
        .disc(Point2::new(2.5, 2.2), 0.4)
        .disc(Point2::new(4.5, 3.8), 0.4)
        .disc(Point2::new(6.5, 2.0), 0.4)
        .disc(Point2::new(8.0, 3.9), 0.4)
        // The turn: block the corridor past x = 18 below y = 6 so the
        // robot must head north.
        .rect(Point2::new(19.0, 0.0), Point2::new(20.0, 6.0))
        .build()
}

/// Start pose for the obstacle course (west entrance).
pub fn course_start() -> Pose2D {
    Pose2D::new(1.0, 3.0, 0.0)
}

/// Goal for the obstacle course (north arm after the right turn).
pub fn course_goal() -> Point2 {
    Point2::new(17.5, 10.5)
}

/// A 30 × 8 m mostly-open arena for the network-robustness experiment
/// (Fig. 11): the WAP sits near point A at the west end; point C at the
/// far east end is outside reliable radio range.
pub fn arena() -> World {
    WorldBuilder::new(30.0, 8.0, RESOLUTION)
        .walls()
        .disc(Point2::new(10.0, 5.5), 0.4)
        .disc(Point2::new(20.0, 2.5), 0.4)
        .build()
}

/// Point A of the Fig. 11 trace (near the WAP).
pub fn arena_point_a() -> Pose2D {
    Pose2D::new(2.0, 4.0, 0.0)
}

/// Point C of the Fig. 11 trace (weak-signal zone).
pub fn arena_point_c() -> Point2 {
    Point2::new(28.0, 4.0)
}

/// WAP position for the arena.
pub fn arena_wap() -> Point2 {
    Point2::new(2.0, 6.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_start_and_goal_are_free() {
        let w = lab();
        assert!(!w.collides_disc(lab_start().position(), 0.15));
        assert!(!w.collides_disc(lab_goal(), 0.15));
    }

    /// Is the world-frame point `(x, y)` inside a solid cell?
    fn solid(w: &World, x: f64, y: f64) -> bool {
        w.occupied(w.dims().world_to_grid(Point2::new(x, y)))
    }

    #[test]
    fn lab_doorway_is_open() {
        let w = lab();
        assert!(!solid(&w, 6.07, 4.8));
        assert!(solid(&w, 6.07, 2.0));
    }

    #[test]
    fn intel_like_rooms_reachable_through_doorways() {
        let w = intel_like();
        // Corridor free, doorway free, wall solid.
        assert!(!solid(&w, 9.0, 7.0));
        assert!(!solid(&w, 2.3, 5.9));
        assert!(solid(&w, 0.5, 5.9));
    }

    #[test]
    fn course_phases_have_expected_geometry() {
        let w = obstacle_course();
        // Slalom obstacle present.
        assert!(solid(&w, 2.5, 2.2));
        // Straight stretch free.
        assert!(!solid(&w, 12.0, 3.0));
        // Turn forces north: corridor blocked at the east end.
        assert!(solid(&w, 19.5, 3.0));
        assert!(!solid(&w, 17.5, 8.0));
        assert!(!w.collides_disc(course_goal(), 0.15));
    }

    #[test]
    fn arena_endpoints_free_and_far_apart() {
        let w = arena();
        assert!(!w.collides_disc(arena_point_a().position(), 0.15));
        assert!(!w.collides_disc(arena_point_c(), 0.15));
        assert!(arena_point_a().position().distance(arena_point_c()) > 20.0);
    }

    #[test]
    fn presets_are_deterministic() {
        let a = lab().to_map_msg(SimTime::EPOCH);
        let b = lab().to_map_msg(SimTime::EPOCH);
        assert_eq!(a.cells, b.cells);
    }
}
