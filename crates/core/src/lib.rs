//! # lgv-offload
//!
//! The paper's primary contribution: a practical, adaptive
//! cloud-offloading framework for Low-cost Ground Vehicle workloads.
//!
//! * [`model`] — the analytical model of §III: energy (Eq. 1a–1d) and
//!   mission-completion time (Eq. 2a–2c), including the
//!   obstacle-avoidance maximum velocity `velocityOA`.
//! * [`mod@classify`] — bottleneck identification (§IV-A): Energy-Critical
//!   Nodes, the Velocity-Dependent Path, and the T1–T4 quadrants of
//!   Fig. 4.
//! * [`strategy`] — Algorithm 1: the fine-grained migration policy for
//!   the EC (energy) and MCT (mission-completion-time) goals, with the
//!   safety-critical pinning extension of §IX.
//! * [`policy`] — the pluggable decision layer: the [`policy::OffloadPolicy`]
//!   trait plus three raced implementations (Algorithm 1 behind the
//!   trait, greedy global placement search, tabular contextual
//!   bandit). See `docs/POLICY.md`.
//! * [`netctl`] — Algorithm 2: offload network-quality control from
//!   packet bandwidth + signal direction (and the latency-only
//!   baseline it replaces, for the ablation).
//! * [`profiler`] — the Profiler thread of §VII: per-node processing
//!   times, RTT, and the VDP makespan.
//! * [`deploy`] — the five evaluation deployments of §VIII (local /
//!   gateway / gateway+8T / cloud / cloud+12T).
//! * [`recovery`] — the failure-recovery policy: rebuild horizon,
//!   checkpoint cadence and degraded-mode fidelity, switched on by
//!   [`RecoveryConfig`].
//! * [`mission`] — end-to-end virtual-time mission runner for the two
//!   standard workloads (Navigation with a map, Exploration without),
//!   wiring the whole stack together: simulated vehicle + sensors,
//!   middleware, network, remote platforms, energy ledger, and the
//!   runtime Controller applying both algorithms.
//! * [`session`] — one vehicle's complete runtime wiring packaged as a
//!   steppable [`VehicleSession`], so N instances can be interleaved
//!   on one virtual clock.
//! * [`fleet`] — the multi-tenant fleet driver: N sessions in lockstep
//!   against a shared cloud admission scheduler and a shared-spectrum
//!   access point.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod classify;
pub mod controller;
pub mod deploy;
pub mod fleet;
pub mod governor;
pub mod migration;
pub mod mission;
pub mod model;
pub mod netctl;
pub mod policy;
pub mod profiler;
pub mod recovery;
pub mod session;
pub mod strategy;

pub use classify::{classify, Classification, NodeProfile};
pub use controller::{ControlDecision, ControlInputs, Controller};
pub use deploy::Deployment;
pub use fleet::{run_fleet, run_fleet_traced, FleetConfig, FleetReport};
pub use governor::ThreadGovernor;
pub use migration::{MigrationManager, MigrationTicket};
pub use mission::{MissionConfig, MissionReport, Workload};
pub use model::{max_velocity_oa, Goal, VelocityModel};
pub use netctl::{NetControl, NetDecision};
pub use policy::{
    BanditPolicy, EnergyParams, GlobalPlacementPolicy, NodeEstimates, OffloadPolicy, PolicyContext,
    PolicyKind,
};
pub use profiler::Profiler;
pub use recovery::RecoveryConfig;
pub use session::VehicleSession;
pub use strategy::{OffloadStrategy, PlacementPlan};
