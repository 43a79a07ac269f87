//! Algorithm 1: the fine-grained migration strategy (paper §IV-B).
//!
//! * **EC (energy) goal** — migrate every ECN (T1 + T3) to the remote
//!   server; the lightweight rest (T2 + T4) stays on the LGV.
//! * **MCT (time) goal** — submit all ECNs, then compare the local VDP
//!   time `T_l^v` with the cloud VDP time `T_c` (remote processing +
//!   network latency). If the network makes the cloud VDP *slower*
//!   (`T_c > T_l^v`), migrate the T3 nodes back to the LGV — remote
//!   T1 nodes (e.g. SLAM) stay offloaded since they are off the
//!   critical path.
//!
//! Either way, the maximum velocity is re-derived from the winning VDP
//! makespan via Eq. 2c (`velocityOA`).
//!
//! Extension (paper §IX, "other robotic devices"): a [`PinPolicy`]
//! keeps designated safety-critical nodes on the vehicle regardless of
//! the goal.

use crate::classify::Classification;
use crate::model::{Goal, VelocityModel};
use lgv_types::prelude::*;

/// Safety-pinning extension: these nodes never leave the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PinPolicy {
    /// Nodes pinned to the LGV.
    pub pinned_local: NodeSet,
}

impl PinPolicy {
    /// Pin nothing (the paper's LGV evaluation).
    pub fn none() -> Self {
        PinPolicy::default()
    }

    /// Pin the whole control stage (the paper's suggestion for
    /// faster vehicles: keep obstacle avoidance on board).
    pub fn safety_critical() -> Self {
        PinPolicy {
            pinned_local: NodeSet::from_iter([NodeKind::PathTracking, NodeKind::VelocityMux]),
        }
    }
}

/// The outcome of one strategy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementPlan {
    /// Nodes to run on the remote server.
    pub remote: NodeSet,
    /// The VDP makespan the plan expects (the min of local/cloud for
    /// MCT; the cloud VDP for EC).
    pub expected_vdp: Duration,
    /// The Eq. 2c maximum velocity for that makespan.
    pub max_velocity: f64,
}

impl PlacementPlan {
    /// Placement of a specific node under this plan.
    pub fn placement(&self, kind: NodeKind) -> Placement {
        if self.remote.contains(kind) {
            Placement::Remote
        } else {
            Placement::Local
        }
    }
}

/// Algorithm 1.
#[derive(Debug, Clone)]
pub struct OffloadStrategy {
    /// Optimization goal `G`.
    pub goal: Goal,
    /// Eq. 2c parameters.
    pub velocity: VelocityModel,
    /// Safety pinning (extension).
    pub pins: PinPolicy,
}

impl OffloadStrategy {
    /// Strategy with default velocity model and no pins.
    ///
    /// ```
    /// use lgv_offload::classify::{classify, table2_without_map};
    /// use lgv_offload::model::Goal;
    /// use lgv_offload::strategy::OffloadStrategy;
    /// use lgv_types::{Duration, NodeKind};
    ///
    /// let class = classify(&table2_without_map());
    /// let strategy = OffloadStrategy::new(Goal::MissionTime);
    /// // Good network: the whole ECN set goes to the server.
    /// let plan = strategy.decide(&class, Duration::from_millis(600), Duration::from_millis(60));
    /// assert!(plan.remote.contains(NodeKind::Slam));
    /// assert!(plan.remote.contains(NodeKind::PathTracking));
    /// // Bad network: the VDP members come home, SLAM stays remote.
    /// let plan = strategy.decide(&class, Duration::from_millis(600), Duration::from_millis(900));
    /// assert!(plan.remote.contains(NodeKind::Slam));
    /// assert!(!plan.remote.contains(NodeKind::PathTracking));
    /// ```
    pub fn new(goal: Goal) -> Self {
        OffloadStrategy {
            goal,
            velocity: VelocityModel::default(),
            pins: PinPolicy::none(),
        }
    }

    /// Evaluate Algorithm 1.
    ///
    /// * `class` — the T1–T4 classification;
    /// * `local_vdp` — `T_l^v`: VDP makespan with all VDP nodes local;
    /// * `cloud_vdp` — `T_c`: VDP makespan with T3 offloaded,
    ///   *including* network latency.
    pub fn decide(
        &self,
        class: &Classification,
        local_vdp: Duration,
        cloud_vdp: Duration,
    ) -> PlacementPlan {
        // "submit all nodes ∈ ECN to the remote server"
        let mut remote = class.ecn;

        let mut expected_vdp = cloud_vdp;
        if self.goal == Goal::MissionTime && cloud_vdp > local_vdp {
            // "if Tc > Tl^v and G == MCT: migrate T3 back to the LGV"
            remote = remote.difference(class.t3);
            expected_vdp = local_vdp;
        }

        // Safety extension: pinned nodes stay local no matter what.
        remote = remote.difference(self.pins.pinned_local);
        if remote.intersection(class.t3) != class.t3 {
            // Any T3 node forced local puts the local VDP time back on
            // the critical path.
            expected_vdp = expected_vdp.max(local_vdp);
        }

        PlacementPlan {
            remote,
            expected_vdp,
            max_velocity: self.velocity.vmax(expected_vdp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, table2_with_map, table2_without_map};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn energy_goal_offloads_all_ecns() {
        let class = classify(&table2_without_map());
        let s = OffloadStrategy::new(Goal::Energy);
        // Even with terrible network, EC keeps ECNs remote.
        let plan = s.decide(&class, ms(600), ms(900));
        assert!(plan.remote.contains(NodeKind::Slam));
        assert!(plan.remote.contains(NodeKind::CostmapGen));
        assert!(plan.remote.contains(NodeKind::PathTracking));
        assert!(!plan.remote.contains(NodeKind::Exploration));
        assert!(!plan.remote.contains(NodeKind::VelocityMux));
    }

    #[test]
    fn mct_goal_offloads_when_network_is_good() {
        let class = classify(&table2_with_map());
        let s = OffloadStrategy::new(Goal::MissionTime);
        let plan = s.decide(&class, ms(600), ms(60));
        assert!(plan.remote.contains(NodeKind::CostmapGen));
        assert!(plan.remote.contains(NodeKind::PathTracking));
        assert_eq!(plan.expected_vdp, ms(60));
        // Offloading must raise the velocity.
        let local_plan = s.decide(&class, ms(600), ms(900));
        assert!(plan.max_velocity > 2.0 * local_plan.max_velocity);
    }

    #[test]
    fn mct_goal_migrates_t3_back_under_bad_network() {
        let class = classify(&table2_without_map());
        let s = OffloadStrategy::new(Goal::MissionTime);
        let plan = s.decide(&class, ms(600), ms(900));
        // T3 (CostmapGen, PathTracking) back to the LGV…
        assert!(!plan.remote.contains(NodeKind::CostmapGen));
        assert!(!plan.remote.contains(NodeKind::PathTracking));
        // …but T1 (SLAM) stays offloaded: off the critical path.
        assert!(plan.remote.contains(NodeKind::Slam));
        assert_eq!(plan.expected_vdp, ms(600));
    }

    #[test]
    fn velocity_follows_eq_2c() {
        let class = classify(&table2_with_map());
        let s = OffloadStrategy::new(Goal::MissionTime);
        let plan = s.decide(&class, ms(600), ms(50));
        assert!((plan.max_velocity - s.velocity.vmax(ms(50))).abs() < 1e-12);
    }

    #[test]
    fn pinning_keeps_safety_nodes_local() {
        let class = classify(&table2_with_map());
        let s = OffloadStrategy {
            goal: Goal::MissionTime,
            velocity: VelocityModel::default(),
            pins: PinPolicy::safety_critical(),
        };
        let plan = s.decide(&class, ms(600), ms(50));
        assert!(!plan.remote.contains(NodeKind::PathTracking));
        assert!(!plan.remote.contains(NodeKind::VelocityMux));
        // CostmapGen (unpinned T3) may still go remote.
        assert!(plan.remote.contains(NodeKind::CostmapGen));
        // With part of the VDP forced local, the expected makespan
        // reverts to the local bound.
        assert_eq!(plan.expected_vdp, ms(600));
    }

    #[test]
    fn placement_accessor() {
        let class = classify(&table2_with_map());
        let plan = OffloadStrategy::new(Goal::Energy).decide(&class, ms(600), ms(60));
        assert_eq!(plan.placement(NodeKind::PathTracking), Placement::Remote);
        assert_eq!(plan.placement(NodeKind::VelocityMux), Placement::Local);
    }

    #[test]
    fn equal_times_prefer_offloading() {
        // Tc == Tl^v is not "Tc > Tl^v": stay offloaded.
        let class = classify(&table2_with_map());
        let s = OffloadStrategy::new(Goal::MissionTime);
        let plan = s.decide(&class, ms(100), ms(100));
        assert!(plan.remote.contains(NodeKind::PathTracking));
    }

    #[test]
    fn energy_goal_keeps_t3_remote_when_the_cloud_is_slower() {
        let class = classify(&table2_with_map());
        let s = OffloadStrategy::new(Goal::Energy);
        let plan = s.decide(&class, ms(60), ms(600));
        assert_eq!(plan.remote, class.ecn);
        assert_eq!(plan.expected_vdp, ms(600));
        assert!((plan.max_velocity - s.velocity.vmax(ms(600))).abs() < 1e-12);
    }
}
