//! The five evaluation deployments (paper §VIII, Figs. 12–13).

use lgv_net::RemoteSite;
use lgv_sim::platform::{Platform, PlatformKind};

/// One computation-deployment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// Display label (matches the paper's figure legends).
    pub label: &'static str,
    /// Remote endpoint (`None` = everything on the LGV).
    pub site: Option<RemoteSite>,
    /// Thread count used by remote parallel nodes.
    pub threads: u32,
}

impl Deployment {
    /// No offloading.
    pub fn local() -> Self {
        Deployment {
            label: "LGV",
            site: None,
            threads: 1,
        }
    }

    /// Edge gateway, no parallel optimization.
    pub fn edge() -> Self {
        Deployment {
            label: "Edge",
            site: Some(RemoteSite::EdgeGateway),
            threads: 1,
        }
    }

    /// Edge gateway with 8-thread parallelization.
    pub fn edge_8t() -> Self {
        Deployment {
            label: "Edge (8t)",
            site: Some(RemoteSite::EdgeGateway),
            threads: 8,
        }
    }

    /// Cloud server, no parallel optimization.
    pub fn cloud() -> Self {
        Deployment {
            label: "Cloud",
            site: Some(RemoteSite::CloudServer),
            threads: 1,
        }
    }

    /// Cloud server with 12-thread parallelization.
    pub fn cloud_12t() -> Self {
        Deployment {
            label: "Cloud (12t)",
            site: Some(RemoteSite::CloudServer),
            threads: 12,
        }
    }

    /// The full evaluation matrix of Figs. 12–13, in figure order.
    pub fn evaluation_set() -> [Deployment; 5] {
        [
            Deployment::local(),
            Deployment::edge(),
            Deployment::edge_8t(),
            Deployment::cloud(),
            Deployment::cloud_12t(),
        ]
    }

    /// The platform tier this deployment's remote site maps to (the
    /// LGV's own tier when not offloaded).
    pub fn platform_kind(&self) -> PlatformKind {
        match self.site {
            None => PlatformKind::Turtlebot3,
            Some(RemoteSite::EdgeGateway) => PlatformKind::EdgeGateway,
            Some(RemoteSite::CloudServer) => PlatformKind::CloudServer,
        }
    }

    /// The remote compute platform (the LGV's own when not offloaded).
    pub fn remote_platform(&self) -> Platform {
        Platform::preset(self.platform_kind())
    }

    /// The vehicle's own on-board platform (Table III tier 1).
    pub fn local_platform() -> Platform {
        Platform::preset(PlatformKind::Turtlebot3)
    }

    /// All three Table III platform tiers, in `PlatformKind::ALL`
    /// order (Turtlebot3, edge gateway, cloud server) — the single
    /// construction point for benches that sweep the tiers.
    pub fn tiers() -> [Platform; 3] {
        PlatformKind::ALL.map(Platform::preset)
    }

    /// Whether any offloading happens at all.
    pub fn offloaded(&self) -> bool {
        self.site.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_matches_figure_legend() {
        let set = Deployment::evaluation_set();
        assert_eq!(set.len(), 5);
        assert_eq!(set[0].label, "LGV");
        assert!(!set[0].offloaded());
        assert_eq!(set[2].threads, 8);
        assert_eq!(set[4].threads, 12);
        assert_eq!(set[4].site, Some(RemoteSite::CloudServer));
    }

    #[test]
    fn tiers_cover_table_three_in_order() {
        let tiers = Deployment::tiers();
        assert_eq!(tiers.len(), PlatformKind::ALL.len());
        for (t, k) in tiers.iter().zip(PlatformKind::ALL) {
            assert_eq!(t.kind, k);
        }
        assert_eq!(Deployment::local_platform().kind, PlatformKind::Turtlebot3);
    }

    #[test]
    fn platforms_resolve_by_site() {
        assert_eq!(
            Deployment::local().remote_platform().kind,
            PlatformKind::Turtlebot3
        );
        assert_eq!(
            Deployment::edge_8t().remote_platform().kind,
            PlatformKind::EdgeGateway
        );
        assert_eq!(
            Deployment::cloud().remote_platform().kind,
            PlatformKind::CloudServer
        );
    }
}
