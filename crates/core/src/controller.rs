//! The runtime Controller (paper §VII).
//!
//! "This specifies the configuration parameters of functional worker
//! nodes for computation offloading and robustness at runtime … it
//! exposes interfaces of decision accuracy and maximum velocity
//! adjustment … and uses profiling data to make corresponding actions
//! based on our strategies."
//!
//! [`Controller`] composes the pluggable decision layer (an
//! [`OffloadPolicy`] — Algorithm 1 by default), Algorithm 2
//! ([`NetControl`]), and the derived actuation limits into one
//! evaluation per control cycle. The mission engine drives it; a
//! library user embedding the framework on their own robot stack calls
//! exactly the same API.
//!
//! Per cycle the Controller evaluates Algorithm 2 first, packages the
//! verdict together with the profiler features into a
//! [`PolicyContext`], and hands the whole context to the policy — so
//! the network controller's invoke-local override is *visible to* the
//! decision layer instead of silently bypassing it.

use crate::classify::Classification;
use crate::model::VelocityModel;
use crate::netctl::{NetControl, NetDecision, NetInputs, SwitchCause};
use crate::policy::{EnergyParams, NodeEstimates, OffloadPolicy, PolicyContext};
use crate::strategy::PlacementPlan;
use lgv_nav::velocity_mux::BASE_TIMEOUT;
use lgv_sim::vehicle::MAX_ANGULAR;
use lgv_trace::{TraceEvent, Tracer};
use lgv_types::prelude::*;

/// Measurements the Controller consumes each cycle (from the Profiler
/// and the switcher).
#[derive(Debug, Clone, Copy)]
pub struct ControlInputs {
    /// `T_l^v`: VDP makespan with the VDP local.
    pub local_vdp: Duration,
    /// `T_c`: VDP makespan with T3 offloaded, network included.
    pub cloud_vdp: Duration,
    /// Packet bandwidth `r_t` (packets/s).
    pub bandwidth: f64,
    /// Signal direction `d_t` (positive = approaching the WAP).
    pub direction: f64,
    /// Whether offloading is currently active.
    pub remote_enabled: bool,
    /// Whether freshly-migrated nodes still lack their state.
    pub cold_state: bool,
    /// Exploration safety cap (None for known-map navigation).
    pub exploration_cap: Option<f64>,
    /// Virtual age of the last downlink arrival at the robot (`None`
    /// until the remote has been heard from) — the cloud-liveness
    /// heartbeat's input.
    pub since_downlink: Option<Duration>,
    /// The robot's own radio diagnostics: weak signal or scripted
    /// blackout right now. Suppresses the heartbeat (a silent
    /// downlink behind a weak radio is an outage, not a crash).
    pub radio_weak: bool,
    /// Latest RTT measurement (the profiler's static WAN prior until
    /// the first echo returns).
    pub rtt: Duration,
    /// Per-node local/remote processing-time and demand estimates for
    /// whole-graph placement scoring.
    pub nodes: NodeEstimates,
    /// Energy-model parameters for placement scoring.
    pub energy: EnergyParams,
}

/// The Controller's per-cycle outputs: what to configure where.
#[derive(Debug, Clone, Copy)]
pub struct ControlDecision {
    /// Algorithm 1's placement plan.
    pub plan: PlacementPlan,
    /// Whether the VDP actually runs remotely this cycle.
    pub vdp_remote: bool,
    /// The makespan in force (drives Eq. 2c and the mux timeout).
    pub makespan: Duration,
    /// Maximum linear velocity (Eq. 2c, all caps applied).
    pub max_linear: f64,
    /// Maximum angular velocity (rotational analogue of Eq. 2c).
    pub max_angular: f64,
    /// Velocity-mux staleness timeout matched to the pipeline rate.
    pub mux_timeout: Duration,
    /// Algorithm 2's verdict for this cycle.
    pub net_decision: NetDecision,
    /// Why the verdict (meaningful when `net_decision != Keep`): the
    /// engine reacts differently to a heartbeat miss (remote dead —
    /// skip migration, rebuild cold) than to a rule switch.
    pub net_cause: SwitchCause,
}

/// Heading-error budget per reaction interval (rad) for the
/// angular-velocity cap.
pub const HEADING_BUDGET: f64 = 0.35;
/// Velocity cap while node state is still migrating.
pub const COLD_STATE_CAP: f64 = 0.15;

/// The runtime Controller.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Eq. 2c parameters.
    velocity: VelocityModel,
    policy: Box<dyn OffloadPolicy>,
    netctl: NetControl,
    offloaded_deployment: bool,
    adaptive: bool,
    tracer: Tracer,
}

impl Controller {
    /// Build a Controller around an offload-decision policy (use
    /// [`crate::policy::build`] or [`crate::policy::for_mission`] to
    /// construct one).
    ///
    /// * `offloaded` — whether the deployment has a remote host at all;
    /// * `adaptive` — whether Algorithm 2 may switch placements.
    pub fn new(
        velocity: VelocityModel,
        policy: Box<dyn OffloadPolicy>,
        offloaded: bool,
        adaptive: bool,
    ) -> Self {
        Controller {
            velocity,
            policy,
            netctl: NetControl::new(),
            offloaded_deployment: offloaded,
            adaptive,
            tracer: Tracer::disabled(),
        }
    }

    /// Route per-cycle control decisions to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Algorithm 2 switches performed so far.
    pub fn net_switches(&self) -> u64 {
        self.netctl.switches
    }

    /// Consecutive failed offload attempts currently backing off
    /// (resets to zero once a re-offload sticks). The session's
    /// degraded-mode trigger reads this to detect exhausted backoff.
    pub fn offload_failures(&self) -> u64 {
        self.netctl.failure_count()
    }

    /// Record a failed offload the network controller cannot observe
    /// itself (e.g. a migration deadline expiry): the next re-offload
    /// is gated behind an exponential backoff.
    pub fn record_offload_failure(&mut self, now: SimTime) {
        self.netctl.record_failure(now);
    }

    /// Evaluate one control cycle.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        class: &Classification,
        inputs: ControlInputs,
    ) -> ControlDecision {
        // Algorithm 2 + liveness heartbeat + re-offload backoff,
        // evaluated first so the verdict is part of the decision
        // context every policy sees. (Algorithm 2 reads only the
        // network inputs, so evaluating it before the placement
        // decision changes nothing for Algorithm 1.)
        let verdict = if self.adaptive && self.offloaded_deployment {
            self.netctl.evaluate(
                now,
                NetInputs {
                    bandwidth: inputs.bandwidth,
                    direction: inputs.direction,
                    remote_active: inputs.remote_enabled,
                    since_downlink: inputs.since_downlink,
                    radio_weak: inputs.radio_weak,
                },
            )
        } else {
            crate::netctl::NetVerdict {
                decision: NetDecision::Keep,
                cause: SwitchCause::Rule,
                backoff_armed: None,
            }
        };
        let net_decision = verdict.decision;

        // The decision layer: one placement plan from the full context.
        let ctx = PolicyContext {
            class,
            local_vdp: inputs.local_vdp,
            cloud_vdp: inputs.cloud_vdp,
            rtt: inputs.rtt,
            bandwidth: inputs.bandwidth,
            direction: inputs.direction,
            remote_enabled: inputs.remote_enabled,
            cold_state: inputs.cold_state,
            offload_failures: self.netctl.failure_count(),
            net: verdict,
            nodes: inputs.nodes,
            energy: inputs.energy,
        };
        let plan = self.policy.decide(now, &ctx);
        let vdp_remote = self.offloaded_deployment
            && inputs.remote_enabled
            && plan.remote.contains(NodeKind::PathTracking);
        let makespan = if vdp_remote {
            inputs.cloud_vdp
        } else {
            inputs.local_vdp
        };

        // Eq. 2c velocity with the safety and cold-state caps.
        let mut max_linear = self.velocity.vmax(makespan);
        if let Some(cap) = inputs.exploration_cap {
            max_linear = max_linear.min(cap);
        }
        if inputs.cold_state {
            max_linear = max_linear.min(COLD_STATE_CAP);
        }

        // Rotational budget and pipeline-matched staleness timeout.
        let max_angular =
            (HEADING_BUDGET / makespan.as_secs_f64().max(0.05)).clamp(0.4, MAX_ANGULAR);
        let mux_timeout = BASE_TIMEOUT.max(makespan * 2.5);
        if verdict.cause == SwitchCause::HeartbeatMiss {
            let silence = inputs.since_downlink.unwrap_or(Duration::ZERO);
            self.tracer.emit_at(
                now.as_nanos(),
                TraceEvent::HeartbeatMiss {
                    silence_ns: silence.as_nanos(),
                },
            );
        }
        if let Some((wait, failures)) = verdict.backoff_armed {
            self.tracer.emit_at(
                now.as_nanos(),
                TraceEvent::ReoffloadBackoff {
                    wait_ns: wait.as_nanos(),
                    failures,
                },
            );
        }

        self.tracer
            .emit_with_at(now.as_nanos(), || TraceEvent::PolicyDecide {
                policy: self.policy.name().to_string(),
                remote: if plan.remote.is_empty() {
                    "-".to_string()
                } else {
                    plan.remote
                        .iter()
                        .map(NodeKind::short_name)
                        .collect::<Vec<_>>()
                        .join("+")
                },
                expected_vdp_ns: plan.expected_vdp.as_nanos(),
                max_velocity: plan.max_velocity,
            });
        self.tracer
            .emit_with_at(now.as_nanos(), || TraceEvent::ControlDecision {
                local_vdp_ns: inputs.local_vdp.as_nanos(),
                cloud_vdp_ns: inputs.cloud_vdp.as_nanos(),
                bandwidth: inputs.bandwidth,
                direction: inputs.direction,
                vdp_remote,
                max_linear,
                net_decision: match net_decision {
                    NetDecision::Keep => "keep".to_string(),
                    NetDecision::InvokeLocal => "invoke_local".to_string(),
                    NetDecision::InvokeRemote => "invoke_remote".to_string(),
                },
            });

        ControlDecision {
            plan,
            vdp_remote,
            makespan,
            max_linear,
            max_angular,
            mux_timeout,
            net_decision,
            net_cause: verdict.cause,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, table2_with_map};
    use crate::model::Goal;
    use crate::policy::{build, PolicyKind};
    use crate::strategy::PinPolicy;

    fn controller(adaptive: bool) -> Controller {
        Controller::new(
            VelocityModel::default(),
            build(
                PolicyKind::Algorithm1,
                Goal::MissionTime,
                VelocityModel::default(),
                PinPolicy::none(),
                0,
            ),
            true,
            adaptive,
        )
    }

    fn inputs(local_ms: u64, cloud_ms: u64, remote: bool) -> ControlInputs {
        ControlInputs {
            local_vdp: Duration::from_millis(local_ms),
            cloud_vdp: Duration::from_millis(cloud_ms),
            bandwidth: 5.0,
            direction: 0.1,
            remote_enabled: remote,
            cold_state: false,
            exploration_cap: None,
            since_downlink: None,
            radio_weak: false,
            rtt: Duration::from_millis(20),
            nodes: NodeEstimates::default(),
            energy: EnergyParams::default(),
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::EPOCH + Duration::from_secs(s)
    }

    #[test]
    fn good_network_runs_vdp_remotely_and_fast() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let d = c.evaluate(t(10), &class, inputs(600, 60, true));
        assert!(d.vdp_remote);
        assert_eq!(d.makespan, Duration::from_millis(60));
        assert!(d.max_linear > 0.4);
        assert!(d.max_angular > 2.0);
    }

    #[test]
    fn bad_network_pulls_vdp_back_and_slows() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let d = c.evaluate(t(10), &class, inputs(600, 900, true));
        assert!(!d.vdp_remote, "MCT must migrate T3 back");
        assert_eq!(d.makespan, Duration::from_millis(600));
        assert!(d.max_linear < 0.25);
        assert!(d.max_angular < 1.0, "slow pipeline must bound turn rate");
        assert!(d.mux_timeout >= Duration::from_millis(1500));
    }

    #[test]
    fn cold_state_caps_velocity() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let mut i = inputs(600, 60, true);
        i.cold_state = true;
        let d = c.evaluate(t(10), &class, i);
        assert!(d.max_linear <= 0.15 + 1e-12);
    }

    #[test]
    fn exploration_cap_applies() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let mut i = inputs(600, 40, true);
        i.exploration_cap = Some(0.3);
        let d = c.evaluate(t(10), &class, i);
        assert!(d.max_linear <= 0.3 + 1e-12);
    }

    #[test]
    fn non_adaptive_controller_never_switches() {
        let mut c = controller(false);
        let class = classify(&table2_with_map());
        let mut i = inputs(600, 60, true);
        i.bandwidth = 0.0;
        i.direction = -0.5;
        for k in 0..20 {
            let d = c.evaluate(t(k), &class, i);
            assert_eq!(d.net_decision, NetDecision::Keep);
        }
        assert_eq!(c.net_switches(), 0);
    }

    #[test]
    fn heartbeat_miss_reaches_the_decision() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let mut i = inputs(600, 60, true);
        // Prime past the network controller's warmup with a healthy
        // downlink first.
        i.since_downlink = Some(Duration::from_millis(100));
        c.evaluate(t(1), &class, i);
        // Radio healthy, downlink silent past the 1.5 s timeout: the
        // controller reports the crash cause so the engine can skip
        // migration and rebuild cold.
        i.since_downlink = Some(Duration::from_millis(1700));
        let d = c.evaluate(t(10), &class, i);
        assert_eq!(d.net_decision, NetDecision::InvokeLocal);
        assert_eq!(d.net_cause, SwitchCause::HeartbeatMiss);
    }

    #[test]
    fn adaptive_controller_switches_in_dead_zone() {
        let mut c = controller(true);
        let class = classify(&table2_with_map());
        let mut i = inputs(600, 60, true);
        i.bandwidth = 0.5;
        i.direction = -0.5;
        let mut switched = false;
        for k in 0..20 {
            let d = c.evaluate(t(k), &class, i);
            if d.net_decision == NetDecision::InvokeLocal {
                switched = true;
                // The caller applies the decision.
                i.remote_enabled = false;
            }
        }
        assert!(switched);
        assert_eq!(c.net_switches(), 1, "conditions stay local: no flapping");
    }
}
