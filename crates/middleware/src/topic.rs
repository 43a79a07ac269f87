//! Topic names of the standard LGV pipeline (paper Fig. 2).

use std::fmt;

/// An interned topic name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicName(pub &'static str);

impl TopicName {
    /// Laser scans from the sensor driver.
    pub const SCAN: TopicName = TopicName("/scan");
    /// Wheel odometry.
    pub const ODOM: TopicName = TopicName("/odom");
    /// Pose estimate from localization / SLAM.
    pub const POSE: TopicName = TopicName("/amcl_pose");
    /// Occupancy map from SLAM or the map server.
    pub const MAP: TopicName = TopicName("/map");
    /// Costmap updates.
    pub const COSTMAP: TopicName = TopicName("/costmap");
    /// Global plan.
    pub const PLAN: TopicName = TopicName("/plan");
    /// Navigation goal.
    pub const GOAL: TopicName = TopicName("/move_base_simple/goal");
    /// Velocity candidates from the local planner.
    pub const CMD_VEL_NAV: TopicName = TopicName("/cmd_vel/navigation");
    /// Velocity from the safety controller.
    pub const CMD_VEL_SAFETY: TopicName = TopicName("/cmd_vel/safety");
    /// Velocity from the joystick.
    pub const CMD_VEL_JOY: TopicName = TopicName("/cmd_vel/joystick");
    /// Final multiplexed velocity to the actuators.
    pub const CMD_VEL: TopicName = TopicName("/cmd_vel");
    /// Per-node processing-time reports from the Profiler.
    pub const PROC_TIME: TopicName = TopicName("/profiler/proc_time");

    /// The raw name.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// Every well-known pipeline topic.
    pub const ALL: [TopicName; 12] = [
        TopicName::SCAN,
        TopicName::ODOM,
        TopicName::POSE,
        TopicName::MAP,
        TopicName::COSTMAP,
        TopicName::PLAN,
        TopicName::GOAL,
        TopicName::CMD_VEL_NAV,
        TopicName::CMD_VEL_SAFETY,
        TopicName::CMD_VEL_JOY,
        TopicName::CMD_VEL,
        TopicName::PROC_TIME,
    ];

    /// Resolve a wire-transmitted name back to a known topic.
    pub fn resolve(name: &str) -> Option<TopicName> {
        TopicName::ALL.into_iter().find(|t| t.0 == name)
    }
}

impl fmt::Display for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_names_are_distinct() {
        let all = [
            TopicName::SCAN,
            TopicName::ODOM,
            TopicName::POSE,
            TopicName::MAP,
            TopicName::COSTMAP,
            TopicName::PLAN,
            TopicName::GOAL,
            TopicName::CMD_VEL_NAV,
            TopicName::CMD_VEL_SAFETY,
            TopicName::CMD_VEL_JOY,
            TopicName::CMD_VEL,
            TopicName::PROC_TIME,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_is_path_like() {
        assert_eq!(TopicName::SCAN.to_string(), "/scan");
    }
}
