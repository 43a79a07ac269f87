//! The functional-node vocabulary of the standard LGV pipeline
//! (paper Fig. 2) and where each node runs.

use std::fmt;

/// The processing stage a node belongs to (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sensor data → estimated state (localization, costmap).
    Perception,
    /// Long-range decisions (path planning, exploration).
    Planning,
    /// Motion command generation (path tracking, velocity mux).
    Control,
}

/// The functional computation nodes of the standard pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// Laser-based localization on a known map (AMCL).
    Localization,
    /// Simultaneous localization and mapping (GMapping-style RBPF).
    Slam,
    /// Costmap generation: static + obstacle + inflation layers.
    CostmapGen,
    /// Global path planning (A* / Dijkstra).
    PathPlanning,
    /// Frontier-based exploration goal selection.
    Exploration,
    /// Local planner / trajectory rollout (DWA) producing velocities.
    PathTracking,
    /// Priority-based selection among velocity sources.
    VelocityMux,
}

impl NodeKind {
    /// All node kinds, pipeline order.
    pub const ALL: [NodeKind; 7] = [
        NodeKind::Localization,
        NodeKind::Slam,
        NodeKind::CostmapGen,
        NodeKind::PathPlanning,
        NodeKind::Exploration,
        NodeKind::PathTracking,
        NodeKind::VelocityMux,
    ];

    /// The pipeline stage of this node.
    pub fn stage(self) -> Stage {
        match self {
            NodeKind::Localization | NodeKind::Slam | NodeKind::CostmapGen => Stage::Perception,
            NodeKind::PathPlanning | NodeKind::Exploration => Stage::Planning,
            NodeKind::PathTracking | NodeKind::VelocityMux => Stage::Control,
        }
    }

    /// Whether the node lies on the velocity-dependent path (VDP):
    /// CostmapGen → PathTracking → VelocityMux (paper §IV-A). The
    /// total processing time of this chain bounds the maximum safe
    /// velocity via Eq. 2c.
    pub fn on_vdp(self) -> bool {
        matches!(
            self,
            NodeKind::CostmapGen | NodeKind::PathTracking | NodeKind::VelocityMux
        )
    }

    /// Stable short name (used in reports and topic names).
    pub fn short_name(self) -> &'static str {
        match self {
            NodeKind::Localization => "localization",
            NodeKind::Slam => "slam",
            NodeKind::CostmapGen => "costmap_gen",
            NodeKind::PathPlanning => "path_planning",
            NodeKind::Exploration => "exploration",
            NodeKind::PathTracking => "path_tracking",
            NodeKind::VelocityMux => "velocity_mux",
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Where a node currently executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// On the LGV's embedded computer.
    #[default]
    Local,
    /// On the remote server (edge gateway or cloud).
    Remote,
}

impl Placement {
    /// True when the node runs on the vehicle.
    pub fn is_local(self) -> bool {
        matches!(self, Placement::Local)
    }
}

/// A small set of node kinds (bitset over the 7 pipeline nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeSet(u8);

impl NodeSet {
    /// Empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    fn bit(kind: NodeKind) -> u8 {
        1 << (kind as u8)
    }

    /// Set with a single member.
    pub fn single(kind: NodeKind) -> Self {
        NodeSet(Self::bit(kind))
    }

    /// Build from an iterator of kinds (also available through the
    /// standard `FromIterator`/`collect`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = NodeKind>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for k in iter {
            s.insert(k);
        }
        s
    }

    /// Insert a member.
    pub fn insert(&mut self, kind: NodeKind) {
        self.0 |= Self::bit(kind);
    }

    /// Remove a member.
    pub fn remove(&mut self, kind: NodeKind) {
        self.0 &= !Self::bit(kind);
    }

    /// Membership test.
    pub fn contains(&self, kind: NodeKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Union of two sets.
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Intersection of two sets.
    pub fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Members of `self` not in `other`.
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// Iterate the members in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = NodeKind> + '_ {
        NodeKind::ALL.into_iter().filter(|k| self.contains(*k))
    }
}

impl FromIterator<NodeKind> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeKind>>(iter: I) -> Self {
        NodeSet::from_iter(iter)
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, k) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_match_paper_pipeline() {
        assert_eq!(NodeKind::Localization.stage(), Stage::Perception);
        assert_eq!(NodeKind::Slam.stage(), Stage::Perception);
        assert_eq!(NodeKind::CostmapGen.stage(), Stage::Perception);
        assert_eq!(NodeKind::PathPlanning.stage(), Stage::Planning);
        assert_eq!(NodeKind::Exploration.stage(), Stage::Planning);
        assert_eq!(NodeKind::PathTracking.stage(), Stage::Control);
        assert_eq!(NodeKind::VelocityMux.stage(), Stage::Control);
    }

    #[test]
    fn vdp_membership_matches_paper() {
        let vdp: Vec<_> = NodeKind::ALL.into_iter().filter(|k| k.on_vdp()).collect();
        assert_eq!(
            vdp,
            vec![
                NodeKind::CostmapGen,
                NodeKind::PathTracking,
                NodeKind::VelocityMux
            ]
        );
    }

    #[test]
    fn nodeset_basic_ops() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(NodeKind::Slam);
        s.insert(NodeKind::PathTracking);
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeKind::Slam));
        assert!(!s.contains(NodeKind::CostmapGen));
        s.remove(NodeKind::Slam);
        assert!(!s.contains(NodeKind::Slam));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn nodeset_algebra() {
        let a = NodeSet::from_iter([NodeKind::Slam, NodeKind::CostmapGen]);
        let b = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b), NodeSet::single(NodeKind::CostmapGen));
        assert_eq!(a.difference(b), NodeSet::single(NodeKind::Slam));
    }

    #[test]
    fn nodeset_iter_order_is_pipeline_order() {
        let s = NodeSet::from_iter([NodeKind::VelocityMux, NodeKind::Localization]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![NodeKind::Localization, NodeKind::VelocityMux]);
    }

    #[test]
    fn display_names() {
        assert_eq!(NodeKind::CostmapGen.to_string(), "costmap_gen");
        let s = NodeSet::from_iter([NodeKind::Slam]);
        assert_eq!(s.to_string(), "{slam}");
    }
}
