//! # lgv-slam
//!
//! A from-scratch GMapping-style SLAM stack (Grisetti et al., ICRA'05):
//! a Rao-Blackwellized particle filter where each particle carries a
//! pose hypothesis and its own occupancy-grid map.
//!
//! * [`map`] — log-odds occupancy grids with ray-carving scan
//!   integration.
//! * [`motion`] — the odometry motion model (Thrun et al., chapter 5).
//! * [`scan_match`] — hill-climbing scan-to-map matching, the
//!   `scanMatch` function that consumes 98 % of SLAM compute in the
//!   paper's measurements (§V).
//! * [`pool`] — a scoped-thread fork-join executor used to
//!   parallelize `scanMatch` across particles (paper Fig. 6).
//! * [`rbpf`] — the filter itself: propagate → scanMatch → weight →
//!   `updateTreeWeights` → resample, with full cycle-level work
//!   accounting for the platform model.

//! ## Example
//!
//! ```
//! use lgv_slam::{GMapping, SlamConfig};
//! use lgv_types::prelude::*;
//!
//! // A small filter over a 8 × 8 m area.
//! let cfg = SlamConfig {
//!     num_particles: 5,
//!     threads: 2,
//!     map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
//!     ..SlamConfig::default()
//! };
//! let start = Pose2D::new(4.0, 4.0, 0.0);
//! let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(1));
//!
//! // Feed one odometry + scan pair (a synthetic square room).
//! let beams = 90;
//! let scan = LaserScan {
//!     stamp: SimTime::EPOCH,
//!     angle_min: 0.0,
//!     angle_increment: std::f64::consts::TAU / beams as f64,
//!     range_max: 3.5,
//!     ranges: vec![2.0; beams],
//! };
//! let odom = OdometryMsg { stamp: SimTime::EPOCH, pose: start, twist: Twist::STOP };
//! let out = slam.process(&odom, &scan);
//! assert!(out.work.parallel_fraction() > 0.9); // scanMatch dominates
//! assert!(slam.best_map(SimTime::EPOCH).known_fraction() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod map;
pub mod motion;
pub mod pool;
pub mod rbpf;
pub mod scan_match;

pub use map::OccupancyGrid;
pub use motion::{MotionModel, MotionNoise};
pub use pool::ParallelExecutor;
pub use rbpf::{GMapping, SlamConfig, SlamOutput};
pub use scan_match::{MatchResult, ScanMatcher, ScanMatcherConfig};
