//! Message vocabulary exchanged between pipeline nodes.
//!
//! These mirror the ROS message types used by the paper's stack
//! (`sensor_msgs/LaserScan`, `nav_msgs/Odometry`, `geometry_msgs/Twist`,
//! `nav_msgs/OccupancyGrid`, `nav_msgs/Path`). All carry the producing
//! timestamp for the profiler; the ones that cross the simulated
//! network are encoded by `lgv_middleware::codec`, the single owner of
//! the wire format.

use crate::geometry::{Point2, Pose2D, Twist};
use crate::grid::GridDims;
use crate::time::SimTime;

/// A full 360° laser sweep (LDS-01-style).
#[derive(Debug, Clone, PartialEq)]
pub struct LaserScan {
    /// Production time.
    pub stamp: SimTime,
    /// Angle of the first beam, radians in the robot frame.
    pub angle_min: f64,
    /// Angular increment between consecutive beams, radians.
    pub angle_increment: f64,
    /// Maximum sensing range in metres; `ranges[i] >= range_max`
    /// encodes "no return".
    pub range_max: f64,
    /// One range per beam, metres.
    pub ranges: Vec<f64>,
}

impl LaserScan {
    /// Beam count.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the scan has no beams.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Angle of beam `i` in the robot frame.
    pub fn beam_angle(&self, i: usize) -> f64 {
        self.angle_min + i as f64 * self.angle_increment
    }

    /// Whether beam `i` hit something (range strictly below max).
    pub fn is_hit(&self, i: usize) -> bool {
        self.ranges[i] < self.range_max
    }

    /// Endpoint of beam `i` in the world frame given the sensor pose.
    pub fn beam_endpoint(&self, pose: Pose2D, i: usize) -> Point2 {
        let a = pose.theta + self.beam_angle(i);
        let r = self.ranges[i].min(self.range_max);
        Point2::new(pose.x + r * a.cos(), pose.y + r * a.sin())
    }
}

/// Odometry estimate from wheel encoders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdometryMsg {
    /// Production time.
    pub stamp: SimTime,
    /// Dead-reckoned pose (drifts over time).
    pub pose: Pose2D,
    /// Body-frame velocity at the stamp.
    pub twist: Twist,
}

/// Pose estimate from a localization node (AMCL or SLAM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseEstimate {
    /// Production time.
    pub stamp: SimTime,
    /// Estimated pose in the map frame.
    pub pose: Pose2D,
    /// Scalar confidence in `[0, 1]` (1 = fully converged).
    pub confidence: f64,
}

/// Origin of a velocity command, ordered by priority for the
/// multiplexer (higher = more urgent, paper Fig. 2 node 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VelocitySource {
    /// Autonomous navigation (lowest priority).
    Navigation,
    /// Human joystick override.
    Joystick,
    /// Safety controller (highest priority).
    SafetyController,
}

/// A velocity command with provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityCmd {
    /// Production time.
    pub stamp: SimTime,
    /// The command.
    pub twist: Twist,
    /// Which subsystem produced it.
    pub source: VelocitySource,
}

/// Occupancy-grid map snapshot (SLAM output / static map).
#[derive(Debug, Clone, PartialEq)]
pub struct MapMsg {
    /// Production time.
    pub stamp: SimTime,
    /// Grid geometry.
    pub dims: GridDims,
    /// Row-major occupancy: -1 unknown, 0 free, 100 occupied
    /// (ROS `nav_msgs/OccupancyGrid` convention).
    pub cells: Vec<i8>,
}

impl MapMsg {
    /// Occupancy value constants.
    pub const UNKNOWN: i8 = -1;
    /// Free-space cell value.
    pub const FREE: i8 = 0;
    /// Occupied cell value.
    pub const OCCUPIED: i8 = 100;

    /// Fraction of cells that are known (free or occupied).
    pub fn known_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let known = self.cells.iter().filter(|&&c| c != Self::UNKNOWN).count();
        known as f64 / self.cells.len() as f64
    }
}

/// A planned path through the world.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMsg {
    /// Production time.
    pub stamp: SimTime,
    /// Waypoints from start to goal, world frame.
    pub waypoints: Vec<Point2>,
}

impl PathMsg {
    /// Total arc length of the path in metres.
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }
}

/// A navigation goal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoalMsg {
    /// Production time.
    pub stamp: SimTime,
    /// Target position in the map frame.
    pub target: Point2,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn scan() -> LaserScan {
        LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / 360.0,
            range_max: 3.5,
            ranges: vec![1.0; 360],
        }
    }

    #[test]
    fn beam_angles_span_circle() {
        let s = scan();
        assert_eq!(s.len(), 360);
        assert!((s.beam_angle(359) - (2.0 * PI - s.angle_increment)).abs() < 1e-9);
    }

    #[test]
    fn beam_endpoint_geometry() {
        let s = scan();
        let pose = Pose2D::new(1.0, 2.0, PI / 2.0);
        // Beam 0 points along the robot's heading (+y here).
        let p = s.beam_endpoint(pose, 0);
        assert!((p.x - 1.0).abs() < 1e-9);
        assert!((p.y - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hit_detection_threshold() {
        let mut s = scan();
        s.ranges[5] = 3.5;
        assert!(!s.is_hit(5));
        assert!(s.is_hit(6));
    }

    #[test]
    fn map_known_fraction() {
        let dims = GridDims::new(2, 2, 1.0, Point2::ORIGIN);
        let m = MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells: vec![
                MapMsg::UNKNOWN,
                MapMsg::FREE,
                MapMsg::OCCUPIED,
                MapMsg::UNKNOWN,
            ],
        };
        assert_eq!(m.known_fraction(), 0.5);
    }

    #[test]
    fn path_length_sums_segments() {
        let p = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![
                Point2::new(0.0, 0.0),
                Point2::new(3.0, 0.0),
                Point2::new(3.0, 4.0),
            ],
        };
        assert_eq!(p.length(), 7.0);
        assert_eq!(
            PathMsg {
                stamp: SimTime::EPOCH,
                waypoints: vec![]
            }
            .length(),
            0.0
        );
    }

    #[test]
    fn velocity_source_priority_ordering() {
        assert!(VelocitySource::SafetyController > VelocitySource::Joystick);
        assert!(VelocitySource::Joystick > VelocitySource::Navigation);
    }
}
