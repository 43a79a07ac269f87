//! # lgv-types
//!
//! Foundation types shared by every crate in the `cloud-lgv` workspace:
//! planar geometry, angle arithmetic, occupancy-grid indexing, virtual
//! (simulated) time, deterministic random sampling, cycle-level work
//! accounting, and the message vocabulary exchanged between robotic
//! computation nodes.
//!
//! Everything in this crate is deterministic and allocation-conscious;
//! the heavier simulation substrates build on top of it.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod angle;
pub mod error;
pub mod geometry;
pub mod grid;
pub mod msg;
pub mod node;
pub mod rng;
pub mod stats;
pub mod time;
pub mod vehicle;
pub mod work;

pub use angle::{normalize_angle, Angle};
pub use error::LgvError;
pub use geometry::{Point2, Pose2D, Twist, Vec2};
pub use grid::{GridDims, GridIndex, GridRay, RayCell, RayWalk};
pub use msg::{
    GoalMsg, LaserScan, MapMsg, OdometryMsg, PathMsg, PoseEstimate, VelocityCmd, VelocitySource,
};
pub use node::{NodeKind, NodeSet, Placement, Stage};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{Duration, Rate, SimTime};
pub use vehicle::VehicleId;
pub use work::{Work, WorkMeter};

/// 64-bit FNV-1a: the workspace's one checksum over bytes (scenario
/// outputs, mission-report fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::angle::{normalize_angle, Angle};
    pub use crate::error::LgvError;
    pub use crate::geometry::{Point2, Pose2D, Twist, Vec2};
    pub use crate::grid::{GridDims, GridIndex, GridRay, RayCell, RayWalk};
    pub use crate::msg::*;
    pub use crate::node::{NodeKind, NodeSet, Placement, Stage};
    pub use crate::rng::SimRng;
    pub use crate::stats::Summary;
    pub use crate::time::{Duration, Rate, SimTime};
    pub use crate::vehicle::VehicleId;
    pub use crate::work::{Work, WorkMeter};
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(super::fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
