//! # lgv-nav
//!
//! The navigation stack of the standard LGV pipeline (paper Fig. 2),
//! implemented from scratch:
//!
//! * [`costmap`] — a multi-layer costmap (static, obstacle, inflation),
//!   the CostmapGen node and the heaviest member of the VDP.
//! * [`amcl`] — adaptive Monte Carlo localization for the known-map
//!   workload.
//! * [`global_planner`] — Dijkstra and A* global planners over the
//!   costmap (the PathPlanning node).
//! * [`dwa`] — Dynamic-Window / Trajectory-Rollout local planner (the
//!   PathTracking node), with the paper's parallel trajectory scoring
//!   (Fig. 5).
//! * [`frontier`] — frontier-based exploration goal selection
//!   (Yamauchi '97), the Exploration node.
//! * [`velocity_mux`] — priority-based velocity multiplexer.

//! ## Example: plan a path on a costmap
//!
//! ```
//! use lgv_nav::costmap::{Costmap, CostmapConfig};
//! use lgv_nav::global_planner::{GlobalPlanner, PlannerConfig};
//! use lgv_types::prelude::*;
//!
//! // An empty 6 × 6 m map.
//! let dims = GridDims::new(120, 120, 0.05, Point2::ORIGIN);
//! let map = MapMsg { stamp: SimTime::EPOCH, dims, cells: vec![MapMsg::FREE; dims.len()] };
//! let cm = Costmap::from_map(CostmapConfig::default(), &map);
//!
//! let planner = GlobalPlanner::new(PlannerConfig::default());
//! let plan = planner
//!     .plan(&cm, Point2::new(0.5, 0.5), Point2::new(5.0, 5.0), SimTime::EPOCH)
//!     .unwrap();
//! assert!(plan.path.length() >= 6.3); // at least the straight-line distance
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod amcl;
pub mod costmap;
pub mod dwa;
pub mod frontier;
pub mod global_planner;
pub mod velocity_mux;

pub use amcl::{Amcl, AmclConfig};
pub use costmap::{Costmap, CostmapConfig, COST_LETHAL};
pub use dwa::{DwaConfig, DwaPlanner, DwaResult};
pub use frontier::{FrontierConfig, FrontierExplorer};
pub use global_planner::{GlobalPlanner, PlannerAlgorithm, PlannerConfig};
pub use velocity_mux::VelocityMux;
