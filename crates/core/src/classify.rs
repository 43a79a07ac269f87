//! Bottleneck identification (paper §IV-A, Fig. 4).
//!
//! From per-node cycle profiles we derive:
//!
//! * **ECN** — Energy-Critical Nodes: nodes whose share of total
//!   cycle demand exceeds a threshold (Table II shows CostmapGen,
//!   PathTracking, and SLAM qualifying);
//! * **VDP** — the Velocity-Dependent Path: structurally CostmapGen →
//!   PathTracking → VelocityMux (Fig. 2);
//! * the four quadrants of Fig. 4:
//!   T1 = ECN ∖ VDP, T2 = VDP ∖ ECN, T3 = ECN ∩ VDP, T4 = neither.

use lgv_types::prelude::*;

/// Measured profile of one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeProfile {
    /// Which node.
    pub kind: NodeKind,
    /// Cycle demand per activation.
    pub work: Work,
    /// Activation rate (Hz).
    pub rate_hz: f64,
}

impl NodeProfile {
    /// Average cycle demand per second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.work.total_cycles() * self.rate_hz
    }
}

/// The classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Energy-critical nodes.
    pub ecn: NodeSet,
    /// Velocity-dependent-path nodes.
    pub vdp: NodeSet,
    /// ECN not on the VDP (offload for energy only).
    pub t1: NodeSet,
    /// VDP non-ECN (keep local: no benefit from migration).
    pub t2: NodeSet,
    /// ECN on the VDP (offload for both energy and time).
    pub t3: NodeSet,
    /// Neither (lightweight, keep local).
    pub t4: NodeSet,
}

/// Fraction of total cycle demand above which a node is an ECN.
/// Table II: SLAM 62 %, PathTracking 23–60 %, CostmapGen 12–37 % all
/// qualify; PathPlanning (1–2 %), Exploration (1 %), laser
/// localization (1 %) do not.
pub const ECN_SHARE_THRESHOLD: f64 = 0.10;

/// Classify a workload from its node profiles.
pub fn classify(profiles: &[NodeProfile]) -> Classification {
    let total: f64 = profiles.iter().map(|p| p.cycles_per_sec()).sum();
    let mut ecn = NodeSet::EMPTY;
    let mut vdp = NodeSet::EMPTY;
    for p in profiles {
        if total > 0.0 && p.cycles_per_sec() / total >= ECN_SHARE_THRESHOLD {
            ecn.insert(p.kind);
        }
        if p.kind.on_vdp() {
            vdp.insert(p.kind);
        }
    }
    let all = NodeSet::from_iter(profiles.iter().map(|p| p.kind));
    Classification {
        ecn,
        vdp,
        t1: ecn.difference(vdp),
        t2: vdp.difference(ecn),
        t3: ecn.intersection(vdp),
        t4: all.difference(ecn.union(vdp)),
    }
}

/// The Table II "with a map" profile at its natural rates — useful as
/// a static default before live profiling has data.
pub fn table2_with_map() -> Vec<NodeProfile> {
    vec![
        NodeProfile {
            kind: NodeKind::Localization,
            work: Work::serial(0.028e9 / 5.0),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::CostmapGen,
            work: Work::with_parallel(0.017e9, 0.154e9, 512),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::PathPlanning,
            work: Work::serial(0.055e9),
            rate_hz: 1.0,
        },
        NodeProfile {
            kind: NodeKind::PathTracking,
            work: Work::with_parallel(0.002e9, 0.275e9, 1000),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::VelocityMux,
            work: Work::serial(5.0e3),
            rate_hz: 5.0,
        },
    ]
}

/// The Table II "without a map" profile (exploration workload).
pub fn table2_without_map() -> Vec<NodeProfile> {
    vec![
        NodeProfile {
            kind: NodeKind::Slam,
            work: Work::with_parallel(0.02e9, 0.645e9, 30),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::CostmapGen,
            work: Work::with_parallel(0.014e9, 0.123e9, 512),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::PathPlanning,
            work: Work::serial(0.052e9),
            rate_hz: 1.0,
        },
        NodeProfile {
            kind: NodeKind::Exploration,
            work: Work::serial(0.011e9),
            rate_hz: 1.0,
        },
        NodeProfile {
            kind: NodeKind::PathTracking,
            work: Work::with_parallel(0.002e9, 0.24e9, 1000),
            rate_hz: 5.0,
        },
        NodeProfile {
            kind: NodeKind::VelocityMux,
            work: Work::serial(5.0e3),
            rate_hz: 5.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_map_matches_paper_table2() {
        // Paper Table II: ECNs with a map are CostmapGen + PathTracking.
        let c = classify(&table2_with_map());
        assert!(c.ecn.contains(NodeKind::CostmapGen));
        assert!(c.ecn.contains(NodeKind::PathTracking));
        assert!(!c.ecn.contains(NodeKind::Localization));
        assert!(!c.ecn.contains(NodeKind::PathPlanning));
        assert_eq!(c.ecn.len(), 2);
    }

    #[test]
    fn without_map_matches_paper_table2() {
        // Paper: ECNs without a map are CostmapGen, PathTracking, SLAM.
        let c = classify(&table2_without_map());
        assert!(c.ecn.contains(NodeKind::Slam));
        assert!(c.ecn.contains(NodeKind::CostmapGen));
        assert!(c.ecn.contains(NodeKind::PathTracking));
        assert!(!c.ecn.contains(NodeKind::Exploration));
        assert_eq!(c.ecn.len(), 3);
    }

    #[test]
    fn quadrants_partition_correctly() {
        let c = classify(&table2_without_map());
        // T3 = ECN ∩ VDP = {CostmapGen, PathTracking}.
        assert!(c.t3.contains(NodeKind::CostmapGen));
        assert!(c.t3.contains(NodeKind::PathTracking));
        // T1 = ECN ∖ VDP = {SLAM}.
        assert_eq!(c.t1, NodeSet::single(NodeKind::Slam));
        // T2 = VDP ∖ ECN = {VelocityMux}.
        assert_eq!(c.t2, NodeSet::single(NodeKind::VelocityMux));
        // T4 = the light planning nodes.
        assert!(c.t4.contains(NodeKind::PathPlanning));
        assert!(c.t4.contains(NodeKind::Exploration));
        // Quadrants are disjoint and cover all profiled nodes.
        let union = c.t1.union(c.t2).union(c.t3).union(c.t4);
        assert_eq!(union.len(), 6);
        for pair in [
            c.t1.intersection(c.t2),
            c.t1.intersection(c.t3),
            c.t1.intersection(c.t4),
            c.t2.intersection(c.t3),
            c.t2.intersection(c.t4),
            c.t3.intersection(c.t4),
        ] {
            assert!(pair.is_empty());
        }
    }

    #[test]
    fn vdp_is_structural() {
        let c = classify(&table2_with_map());
        assert!(c.vdp.contains(NodeKind::CostmapGen));
        assert!(c.vdp.contains(NodeKind::PathTracking));
        assert!(c.vdp.contains(NodeKind::VelocityMux));
        assert!(!c.vdp.contains(NodeKind::PathPlanning));
    }

    #[test]
    fn empty_profile_is_all_empty() {
        let c = classify(&[]);
        assert!(c.ecn.is_empty());
        assert!(c.t1.is_empty() && c.t2.is_empty() && c.t3.is_empty() && c.t4.is_empty());
    }

    #[test]
    fn rate_matters_not_just_per_activation_cost() {
        // A heavy node activated rarely is not an ECN.
        let profiles = vec![
            NodeProfile {
                kind: NodeKind::PathPlanning,
                work: Work::serial(10e9),
                rate_hz: 0.001,
            },
            NodeProfile {
                kind: NodeKind::PathTracking,
                work: Work::serial(0.2e9),
                rate_hz: 5.0,
            },
        ];
        let c = classify(&profiles);
        assert!(!c.ecn.contains(NodeKind::PathPlanning));
        assert!(c.ecn.contains(NodeKind::PathTracking));
    }

    #[test]
    fn table2_profiles_have_expected_totals() {
        // Sanity: the static profiles reproduce the Gcycles/s of
        // Table II within rounding.
        let total_map: f64 = table2_with_map()
            .iter()
            .map(|p| p.cycles_per_sec())
            .sum::<f64>()
            / 1e9;
        assert!(
            (2.0..2.7).contains(&total_map),
            "with-map total {total_map}"
        );
        let total_nomap: f64 = table2_without_map()
            .iter()
            .map(|p| p.cycles_per_sec())
            .sum::<f64>()
            / 1e9;
        assert!(
            (4.4..5.5).contains(&total_nomap),
            "without-map total {total_nomap}"
        );
    }
}
