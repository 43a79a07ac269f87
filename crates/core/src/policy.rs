//! The pluggable offload-decision layer.
//!
//! The paper's Algorithm 1 ([`OffloadStrategy`]) migrates nodes off a
//! fixed threshold rule, but offloading is really a *sequential
//! decision problem* (Chinchali et al., "Network Offloading Policies
//! for Cloud Robotics"): the best placement depends on context that
//! changes every cycle, and alternative deciders — whole-graph
//! placement search (muPlacer-style) or learned policies — can beat
//! the static heuristic. This module extracts the decision into a
//! trait so implementations can be raced head-to-head on identical
//! inputs:
//!
//! * [`OffloadStrategy`] — the paper's strategy behind the trait
//!   (named `"algorithm1"`), **byte-identical** to calling
//!   [`OffloadStrategy::decide`] directly (the default; every
//!   pre-existing benchmark checksum is pinned to it);
//! * [`GlobalPlacementPolicy`] — greedy state-space search over the
//!   full node→tier assignment vector, scored by the analytical
//!   model's predicted cycle time and vehicle energy (the muPlacer
//!   idea from SNIPPETS.md applied to the paper's node DAG);
//! * [`BanditPolicy`] — a tabular contextual ε-greedy bandit over
//!   discretized profiler features, trained online from the same
//!   measurements the Profiler already records. No ML dependencies;
//!   fully deterministic in virtual time.
//!
//! Every policy consumes one [`PolicyContext`] per decision tick: the
//! profiler features (per-node local/remote times, RTT, bandwidth,
//! signal direction), energy-model parameters, fault/recovery state,
//! **and Algorithm 2's verdict** ([`NetVerdict`]) — so the network
//! controller's invoke-local override is visible to every policy
//! instead of silently bypassing them. The policy returns a full
//! [`PlacementPlan`]; the session applies the network verdict and
//! dispatches work exactly as before.
//!
//! See `docs/POLICY.md` for the trait contract and how to add a
//! policy.

use crate::classify::Classification;
use crate::mission::MissionConfig;
use crate::model::{Goal, VelocityModel};
use crate::netctl::{NetDecision, NetVerdict};
use crate::strategy::{OffloadStrategy, PinPolicy, PlacementPlan};
use lgv_types::prelude::*;
use std::collections::HashMap;
use std::fmt;

/// Which [`OffloadPolicy`] implementation a mission runs. Threaded
/// through [`MissionConfig::policy`] (and thus `FleetConfig`), so solo
/// missions and fleets build decisions through one factory path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's Algorithm 1 (the default — reproduces the
    /// historical behaviour byte-for-byte).
    #[default]
    Algorithm1,
    /// Greedy whole-graph placement search scored by the analytical
    /// model (muPlacer-style).
    GlobalPlacement,
    /// Tabular contextual ε-greedy bandit over discretized profiler
    /// features, trained online.
    Bandit,
}

impl PolicyKind {
    /// Stable lowercase label (used in reports and trace events).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Algorithm1 => "algorithm1",
            PolicyKind::GlobalPlacement => "global",
            PolicyKind::Bandit => "bandit",
        }
    }

    /// All implementations, race order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Algorithm1,
        PolicyKind::GlobalPlacement,
        PolicyKind::Bandit,
    ];
}

/// Energy-model parameters the policies score placements with
/// (paper Eq. 1a–1d, reduced to the two terms a placement actually
/// moves: on-board dynamic compute energy and radio transmit power).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyParams {
    /// Joules per Gcycle executed on the vehicle's embedded computer
    /// (Eq. 1c dynamic energy at the Turtlebot3 operating point).
    pub local_j_per_gcycle: f64,
    /// Radio transmit power while any node is offloaded (W).
    pub tx_power_w: f64,
}

/// Per-node processing-time and demand estimates: the latest live
/// profiler measurement where one exists, the static Table II profile
/// priced on the platform models otherwise (same cold-start fallback
/// the session's makespan estimator uses). Indexed by
/// [`NodeKind::ALL`] position.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeEstimates {
    local: [Duration; NodeKind::ALL.len()],
    remote: [Duration; NodeKind::ALL.len()],
    /// Cycle demand (Gcycles/s) per node; zero for nodes the current
    /// workload never activates.
    demand: [f64; NodeKind::ALL.len()],
}

fn node_index(kind: NodeKind) -> usize {
    NodeKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("NodeKind::ALL covers every kind")
}

impl NodeEstimates {
    /// Estimated processing time of `kind` on the vehicle.
    pub fn local(&self, kind: NodeKind) -> Duration {
        self.local[node_index(kind)]
    }

    /// Estimated processing time of `kind` on the remote tier
    /// (admission queueing and WAN surcharges included when the
    /// estimate is a live measurement).
    pub fn remote(&self, kind: NodeKind) -> Duration {
        self.remote[node_index(kind)]
    }

    /// Cycle demand of `kind` in Gcycles/s (zero when the workload
    /// never activates it).
    pub fn demand_gcps(&self, kind: NodeKind) -> f64 {
        self.demand[node_index(kind)]
    }

    /// Set the local-time estimate for `kind`.
    pub fn set_local(&mut self, kind: NodeKind, t: Duration) {
        self.local[node_index(kind)] = t;
    }

    /// Set the remote-time estimate for `kind`.
    pub fn set_remote(&mut self, kind: NodeKind, t: Duration) {
        self.remote[node_index(kind)] = t;
    }

    /// Set the demand estimate for `kind` (Gcycles/s).
    pub fn set_demand(&mut self, kind: NodeKind, gcps: f64) {
        self.demand[node_index(kind)] = gcps;
    }
}

/// Everything an [`OffloadPolicy`] may condition one decision on: the
/// profiler features, the energy model, the fault/recovery state, and
/// Algorithm 2's verdict for this cycle.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The T1–T4 workload classification.
    pub class: &'a Classification,
    /// `T_l^v`: measured VDP makespan with the VDP local.
    pub local_vdp: Duration,
    /// `T_c`: measured VDP makespan with T3 offloaded, network
    /// latency included.
    pub cloud_vdp: Duration,
    /// Latest RTT measurement (the static 20 ms WAN prior until the
    /// first echo returns).
    pub rtt: Duration,
    /// Packet bandwidth `r_t` (packets/s).
    pub bandwidth: f64,
    /// Signal direction `d_t` (positive = approaching the WAP).
    pub direction: f64,
    /// Whether offloading is currently active.
    pub remote_enabled: bool,
    /// Whether freshly-migrated nodes still lack their state.
    pub cold_state: bool,
    /// Consecutive failed offload attempts currently backing off
    /// (recovery state; resets once a re-offload sticks).
    pub offload_failures: u64,
    /// Algorithm 2's verdict for this cycle — visible to every policy
    /// instead of bypassing the decision layer. The session still
    /// applies the verdict (switching, migration, cold rebuild);
    /// policies read it to avoid proposing placements the network
    /// controller is about to tear down.
    pub net: NetVerdict,
    /// Per-node local/remote time and demand estimates.
    pub nodes: NodeEstimates,
    /// Energy-model parameters for placement scoring.
    pub energy: EnergyParams,
}

/// A pluggable offload decider: one full [`PlacementPlan`] per
/// decision tick from one [`PolicyContext`].
///
/// Implementations must be deterministic in virtual time: the same
/// sequence of `(now, ctx)` calls must produce the same sequence of
/// plans (seeded randomness is fine, wall clock is not). Stateful
/// learners update themselves inside [`OffloadPolicy::decide`] — the
/// context carries the measured outcome of the previous tick's plan.
pub trait OffloadPolicy: fmt::Debug + Send {
    /// Stable lowercase policy name (trace events, reports).
    fn name(&self) -> &'static str;

    /// Decide this tick's placement.
    fn decide(&mut self, now: SimTime, ctx: &PolicyContext<'_>) -> PlacementPlan;

    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn OffloadPolicy>;
}

impl Clone for Box<dyn OffloadPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Build the policy a mission configuration asks for — the single
/// factory path used by solo sessions and fleet drivers alike.
pub fn for_mission(cfg: &MissionConfig) -> Box<dyn OffloadPolicy> {
    build(cfg.policy, cfg.goal, cfg.velocity, cfg.pins, cfg.seed)
}

/// Build a policy from explicit parameters. `seed` feeds the bandit's
/// exploration stream; the other policies ignore it.
pub fn build(
    kind: PolicyKind,
    goal: Goal,
    velocity: VelocityModel,
    pins: PinPolicy,
    seed: u64,
) -> Box<dyn OffloadPolicy> {
    match kind {
        PolicyKind::Algorithm1 => Box::new(OffloadStrategy {
            goal,
            velocity,
            pins,
        }),
        PolicyKind::GlobalPlacement => Box::new(GlobalPlacementPolicy::new(goal, velocity, pins)),
        PolicyKind::Bandit => Box::new(BanditPolicy::new(goal, velocity, pins, seed)),
    }
}

/// The placement a session starts from before its first decision
/// tick: offloaded deployments optimistically submit the whole ECN
/// set, all-local deployments submit nothing; the expected makespan
/// and velocity are the historical conservative startup constants.
pub fn initial_plan(class: &Classification, offloaded: bool) -> PlacementPlan {
    PlacementPlan {
        remote: if offloaded { class.ecn } else { NodeSet::EMPTY },
        expected_vdp: Duration::from_millis(600),
        max_velocity: 0.15,
    }
}

/// Predicted `(VDP cycle time (s), vehicle energy rate (W))` of a
/// placement assignment under the context's estimates — the scoring
/// function shared by the search and bandit policies.
///
/// Cycle time is the analytical VDP makespan: Σ VDP-node times at
/// their assigned tier, plus one RTT when any VDP node is remote.
/// Energy rate is the on-board dynamic compute power of every node
/// kept local plus the radio transmit power when anything is remote.
pub fn predict(remote: NodeSet, ctx: &PolicyContext<'_>) -> (f64, f64) {
    let mut cycle = Duration::ZERO;
    let mut vdp_remote = false;
    let mut any_remote = false;
    let mut local_gcps = 0.0;
    for kind in NodeKind::ALL {
        let is_remote = remote.contains(kind);
        if is_remote {
            any_remote = true;
        } else {
            local_gcps += ctx.nodes.demand_gcps(kind);
        }
        if kind.on_vdp() {
            if is_remote {
                vdp_remote = true;
                cycle += ctx.nodes.remote(kind);
            } else {
                cycle += ctx.nodes.local(kind);
            }
        }
    }
    if vdp_remote {
        cycle += ctx.rtt;
    }
    let mut watts = local_gcps * ctx.energy.local_j_per_gcycle;
    if any_remote {
        watts += ctx.energy.tx_power_w;
    }
    (cycle.as_secs_f64(), watts)
}

/// Compare two `(cycle, watts)` scores under a goal: MCT minimizes
/// cycle time (energy breaks ties), EC minimizes energy (cycle time
/// breaks ties).
fn better(goal: Goal, a: (f64, f64), b: (f64, f64)) -> bool {
    let (ka, kb) = match goal {
        Goal::MissionTime => ((a.0, a.1), (b.0, b.1)),
        Goal::Energy => ((a.1, a.0), (b.1, b.0)),
    };
    ka < kb
}

// ---------------------------------------------------------------------------
// Algorithm 1 behind the trait
// ---------------------------------------------------------------------------

/// The paper's Algorithm 1 behind [`OffloadPolicy`].
///
/// Byte-identical to calling [`OffloadStrategy::decide`] with the
/// context's two makespans: it reads nothing else from the context
/// (in particular it ignores [`PolicyContext::net`], because the
/// historical pipeline evaluated the strategy before the network
/// controller), so every pre-existing benchmark checksum is preserved.
impl OffloadPolicy for OffloadStrategy {
    fn name(&self) -> &'static str {
        "algorithm1"
    }

    fn decide(&mut self, _now: SimTime, ctx: &PolicyContext<'_>) -> PlacementPlan {
        OffloadStrategy::decide(self, ctx.class, ctx.local_vdp, ctx.cloud_vdp)
    }

    fn clone_box(&self) -> Box<dyn OffloadPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Global placement search
// ---------------------------------------------------------------------------

/// Greedy whole-graph placement search (muPlacer-style).
///
/// Instead of Algorithm 1's one-rule migration of the T3 block, this
/// searches the full node→tier assignment vector: starting from
/// all-on-vehicle, it repeatedly offloads whichever single node most
/// improves the goal objective under the analytical model ([`predict`])
/// and stops at a local optimum. With the per-node estimates carrying
/// live admission queueing and WAN surcharges, a saturated cloud
/// genuinely prices itself out of the assignment.
///
/// The velocity mux (actuation) and pinned safety-critical nodes are
/// never candidates; when Algorithm 2's verdict this cycle is
/// invoke-local the search yields the all-vehicle assignment instead
/// of proposing placements the network controller is tearing down.
#[derive(Debug, Clone)]
pub struct GlobalPlacementPolicy {
    goal: Goal,
    velocity: VelocityModel,
    pins: PinPolicy,
}

impl GlobalPlacementPolicy {
    /// Search policy for a goal with the given Eq. 2c parameters and
    /// safety pins.
    pub fn new(goal: Goal, velocity: VelocityModel, pins: PinPolicy) -> Self {
        GlobalPlacementPolicy {
            goal,
            velocity,
            pins,
        }
    }

    fn plan_for(&self, remote: NodeSet, ctx: &PolicyContext<'_>) -> PlacementPlan {
        let (cycle, _) = predict(remote, ctx);
        let expected_vdp = Duration::from_secs_f64(cycle);
        PlacementPlan {
            remote,
            expected_vdp,
            max_velocity: self.velocity.vmax(expected_vdp),
        }
    }
}

impl OffloadPolicy for GlobalPlacementPolicy {
    fn name(&self) -> &'static str {
        "global"
    }

    fn decide(&mut self, _now: SimTime, ctx: &PolicyContext<'_>) -> PlacementPlan {
        // Respect the network controller: an invoke-local verdict
        // (rule, watchdog, or heartbeat) means remote execution is
        // being torn down this very cycle.
        if ctx.net.decision == NetDecision::InvokeLocal {
            return self.plan_for(NodeSet::EMPTY, ctx);
        }
        // Candidate moves: profiled nodes that may leave the vehicle.
        // The mux is actuation (the engine always runs it on-board)
        // and pinned nodes are contractually local.
        let candidates: Vec<NodeKind> = NodeKind::ALL
            .into_iter()
            .filter(|k| {
                *k != NodeKind::VelocityMux
                    && ctx.nodes.demand_gcps(*k) > 0.0
                    && !self.pins.pinned_local.contains(*k)
            })
            .collect();

        let mut assignment = NodeSet::EMPTY;
        let mut score = predict(assignment, ctx);
        loop {
            let mut best: Option<(NodeKind, (f64, f64))> = None;
            for &k in &candidates {
                if assignment.contains(k) {
                    continue;
                }
                let mut next = assignment;
                next.insert(k);
                let s = predict(next, ctx);
                if better(self.goal, s, score) && best.is_none_or(|(_, b)| better(self.goal, s, b))
                {
                    best = Some((k, s));
                }
            }
            match best {
                Some((k, s)) => {
                    assignment.insert(k);
                    score = s;
                }
                None => break,
            }
        }
        self.plan_for(assignment, ctx)
    }

    fn clone_box(&self) -> Box<dyn OffloadPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Tabular contextual bandit
// ---------------------------------------------------------------------------

/// Arms of the bandit: the three placements the execution engine can
/// meaningfully distinguish (see `docs/POLICY.md`).
const BANDIT_ARMS: usize = 3;

/// Exploration rate of the ε-greedy rule.
const BANDIT_EPSILON: f64 = 0.12;

/// A tabular contextual ε-greedy bandit over discretized profiler
/// features (Chinchali et al.: offloading as a sequential decision
/// problem).
///
/// * **Context** — bandwidth bucket (relative to Algorithm 2's
///   4 pkt/s threshold), signal-direction sign (with the ±0.02
///   deadband), RTT bucket, and cold-state flag: 72 cells.
/// * **Arms** — keep everything local; offload the full ECN set;
///   offload only the off-critical-path ECNs (T3 stays home).
/// * **Reward** — the *measured* outcome of the previous tick's arm,
///   read from the next context: negative VDP makespan under the MCT
///   goal, negative predicted vehicle power under EC. Updates are
///   incremental means per `(context, arm)` cell.
///
/// All randomness comes from one seeded [`SimRng`], and decisions
/// happen on the virtual-time decision tick, so a run is bit-for-bit
/// reproducible and fleet determinism is preserved.
#[derive(Debug, Clone)]
pub struct BanditPolicy {
    goal: Goal,
    velocity: VelocityModel,
    pins: PinPolicy,
    rng: SimRng,
    /// `(context, arm) → (mean reward, pulls)`.
    q: HashMap<(u8, u8), (f64, u64)>,
    /// Previous tick's `(context, arm, vdp_went_remote)` awaiting its
    /// observed reward.
    last: Option<(u8, u8, bool)>,
}

impl BanditPolicy {
    /// Bandit for a goal with the given Eq. 2c parameters, safety
    /// pins, and exploration seed.
    pub fn new(goal: Goal, velocity: VelocityModel, pins: PinPolicy, seed: u64) -> Self {
        BanditPolicy {
            goal,
            velocity,
            pins,
            rng: SimRng::seed_from_u64(seed ^ 0xBA_4D17),
            q: HashMap::new(),
            last: None,
        }
    }

    /// Discretize the profiler features into a context cell.
    fn context_id(ctx: &PolicyContext<'_>) -> u8 {
        let bw = if ctx.bandwidth < 2.0 {
            0
        } else if ctx.bandwidth < 4.0 {
            1
        } else if ctx.bandwidth < 6.0 {
            2
        } else {
            3
        };
        let dir = if ctx.direction < -0.02 {
            0
        } else if ctx.direction > 0.02 {
            2
        } else {
            1
        };
        let rtt_ms = ctx.rtt.as_secs_f64() * 1e3;
        let rtt = if rtt_ms < 25.0 {
            0
        } else if rtt_ms < 100.0 {
            1
        } else {
            2
        };
        let cold = u8::from(ctx.cold_state);
        bw * 18 + dir * 6 + rtt * 2 + cold
    }

    /// The placement an arm stands for (pins applied).
    fn arm_remote(&self, arm: u8, class: &Classification) -> NodeSet {
        let remote = match arm {
            0 => NodeSet::EMPTY,
            1 => class.ecn,
            _ => class.ecn.difference(class.t3),
        };
        remote.difference(self.pins.pinned_local)
    }

    /// Observed reward of the previous arm, measured by this tick's
    /// profiler features.
    fn reward(&self, vdp_was_remote: bool, ctx: &PolicyContext<'_>) -> f64 {
        match self.goal {
            Goal::MissionTime => {
                let makespan = if vdp_was_remote && ctx.remote_enabled {
                    ctx.cloud_vdp
                } else {
                    ctx.local_vdp
                };
                -makespan.as_secs_f64()
            }
            Goal::Energy => {
                let remote = if vdp_was_remote {
                    ctx.class.ecn.difference(self.pins.pinned_local)
                } else {
                    NodeSet::EMPTY
                };
                let (_, watts) = predict(remote, ctx);
                -watts
            }
        }
    }
}

impl OffloadPolicy for BanditPolicy {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn decide(&mut self, _now: SimTime, ctx: &PolicyContext<'_>) -> PlacementPlan {
        // Learn: credit the previous arm with its measured outcome.
        if let Some((c, a, vdp_remote)) = self.last.take() {
            let r = self.reward(vdp_remote, ctx);
            let cell = self.q.entry((c, a)).or_insert((0.0, 0));
            cell.1 += 1;
            cell.0 += (r - cell.0) / cell.1 as f64;
        }

        let c = Self::context_id(ctx);
        // Respect Algorithm 2: an invoke-local verdict forces the
        // local arm this tick (the switch is happening regardless);
        // the forced pull still gets credited next tick.
        let arm = if ctx.net.decision == NetDecision::InvokeLocal {
            0
        } else {
            // Untried arms first (deterministic order), then ε-greedy.
            let untried = (0..BANDIT_ARMS as u8).find(|a| !self.q.contains_key(&(c, *a)));
            match untried {
                Some(a) => a,
                None if self.rng.uniform() < BANDIT_EPSILON => self.rng.index(BANDIT_ARMS) as u8,
                None => (0..BANDIT_ARMS as u8)
                    .max_by(|a, b| {
                        let qa = self.q[&(c, *a)].0;
                        let qb = self.q[&(c, *b)].0;
                        qa.partial_cmp(&qb).expect("rewards are finite").then(
                            // Lower arm id wins ties for determinism.
                            b.cmp(a),
                        )
                    })
                    .expect("arms are non-empty"),
            }
        };

        let remote = self.arm_remote(arm, ctx.class);
        // Expected makespan mirrors the engine: the cloud estimate
        // only rules when the whole T3 block actually goes remote.
        let mut expected_vdp = if remote.contains(NodeKind::PathTracking) {
            ctx.cloud_vdp
        } else {
            ctx.local_vdp
        };
        if remote.intersection(ctx.class.t3) != ctx.class.t3 {
            expected_vdp = expected_vdp.max(ctx.local_vdp);
        }
        self.last = Some((c, arm, remote.contains(NodeKind::PathTracking)));
        PlacementPlan {
            remote,
            expected_vdp,
            max_velocity: self.velocity.vmax(expected_vdp),
        }
    }

    fn clone_box(&self) -> Box<dyn OffloadPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, table2_with_map, table2_without_map};
    use crate::netctl::SwitchCause;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn keep_verdict() -> NetVerdict {
        NetVerdict {
            decision: NetDecision::Keep,
            cause: SwitchCause::Rule,
            backoff_armed: None,
        }
    }

    /// Static-priced estimates roughly shaped like the lab workload:
    /// heavy nodes slow locally, fast remotely.
    fn estimates(class_profiles: &[crate::classify::NodeProfile]) -> NodeEstimates {
        let mut n = NodeEstimates::default();
        for p in class_profiles {
            let g = p.work.total_cycles() / 1e9;
            n.set_demand(p.kind, p.cycles_per_sec() / 1e9);
            // ~3.4 Gcycle/s vehicle vs ~40 Gcycle/s remote.
            n.set_local(p.kind, Duration::from_secs_f64(g / 3.4));
            n.set_remote(p.kind, Duration::from_secs_f64(g / 40.0));
        }
        n
    }

    fn ctx<'a>(
        class: &'a Classification,
        local_vdp: Duration,
        cloud_vdp: Duration,
        nodes: NodeEstimates,
    ) -> PolicyContext<'a> {
        PolicyContext {
            class,
            local_vdp,
            cloud_vdp,
            rtt: ms(20),
            bandwidth: 5.0,
            direction: 0.1,
            remote_enabled: true,
            cold_state: false,
            offload_failures: 0,
            net: keep_verdict(),
            nodes,
            energy: EnergyParams {
                local_j_per_gcycle: 1.2,
                tx_power_w: 1.3,
            },
        }
    }

    #[test]
    fn algorithm1_policy_is_byte_identical_to_the_strategy() {
        // Sweep both goals, both classifications, both pin policies,
        // and a makespan grid covering zero-RTT-fast-cloud, equal
        // times, and slow-cloud regimes: the plan behind the trait
        // must equal OffloadStrategy::decide exactly.
        let classes = [
            classify(&table2_with_map()),
            classify(&table2_without_map()),
        ];
        let profiles = [table2_with_map(), table2_without_map()];
        for (class, profile) in classes.iter().zip(&profiles) {
            for goal in [Goal::MissionTime, Goal::Energy] {
                for pins in [PinPolicy::none(), PinPolicy::safety_critical()] {
                    let strategy = OffloadStrategy {
                        goal,
                        velocity: VelocityModel::default(),
                        pins,
                    };
                    let mut policy = strategy.clone();
                    for local in [0u64, 60, 100, 600, 900] {
                        for cloud in [0u64, 60, 100, 600, 900] {
                            let c = ctx(class, ms(local), ms(cloud), estimates(profile));
                            let expect = strategy.decide(class, ms(local), ms(cloud));
                            let got = OffloadPolicy::decide(&mut policy, SimTime::EPOCH, &c);
                            assert_eq!(got, expect, "local={local} cloud={cloud} {goal:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rtt_makes_the_cloud_win_under_mct() {
        // Edge case: a zero-RTT link (wired lab bench) prices the
        // cloud VDP below local, so T3 stays remote and the expected
        // makespan is the cloud one.
        let class = classify(&table2_with_map());
        let mut p: Box<dyn OffloadPolicy> = Box::new(OffloadStrategy::new(Goal::MissionTime));
        let mut c = ctx(&class, ms(600), ms(40), estimates(&table2_with_map()));
        c.rtt = Duration::ZERO;
        let plan = p.decide(SimTime::EPOCH, &c);
        assert!(plan.remote.contains(NodeKind::PathTracking));
        assert_eq!(plan.expected_vdp, ms(40));
    }

    #[test]
    fn equal_local_and_remote_times_prefer_offloading() {
        // Tc == Tl^v is not "Tc > Tl^v": Algorithm 1 keeps T3 remote.
        let class = classify(&table2_with_map());
        let mut p: Box<dyn OffloadPolicy> = Box::new(OffloadStrategy::new(Goal::MissionTime));
        let c = ctx(&class, ms(100), ms(100), estimates(&table2_with_map()));
        let plan = p.decide(SimTime::EPOCH, &c);
        assert!(plan.remote.contains(NodeKind::PathTracking));
        assert_eq!(plan.expected_vdp, ms(100));
    }

    #[test]
    fn pinned_safety_nodes_never_leave_any_policy() {
        let class = classify(&table2_with_map());
        let pins = PinPolicy::safety_critical();
        let nodes = estimates(&table2_with_map());
        let c = ctx(&class, ms(600), ms(60), nodes);
        for kind in PolicyKind::ALL {
            let mut p = build(kind, Goal::MissionTime, VelocityModel::default(), pins, 7);
            for tick in 0..20 {
                let plan = p.decide(SimTime::EPOCH + Duration::from_millis(200 * tick), &c);
                assert!(
                    !plan.remote.contains(NodeKind::PathTracking)
                        && !plan.remote.contains(NodeKind::VelocityMux),
                    "{} tick {tick} leaked a pinned node",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn initial_plan_reproduces_the_session_startup_constants() {
        let class = classify(&table2_with_map());
        let plan = initial_plan(&class, true);
        assert_eq!(plan.remote, class.ecn);
        assert_eq!(plan.expected_vdp, ms(600));
        assert_eq!(plan.max_velocity, 0.15);
        let plan = initial_plan(&class, false);
        assert!(plan.remote.is_empty());
    }

    #[test]
    fn global_search_offloads_the_heavy_nodes_on_a_good_network() {
        let class = classify(&table2_without_map());
        let nodes = estimates(&table2_without_map());
        let mut p = GlobalPlacementPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
        );
        let c = ctx(&class, ms(600), ms(60), nodes);
        let plan = p.decide(SimTime::EPOCH, &c);
        // The heavy T3 pair must go remote; the mux never does.
        assert!(plan.remote.contains(NodeKind::CostmapGen));
        assert!(plan.remote.contains(NodeKind::PathTracking));
        assert!(!plan.remote.contains(NodeKind::VelocityMux));
        // Predicted makespan beats staying local.
        assert!(plan.expected_vdp < ms(600));
    }

    #[test]
    fn global_search_stays_home_when_the_network_prices_it_out() {
        let class = classify(&table2_with_map());
        let mut nodes = estimates(&table2_with_map());
        // A congested cloud: remote activations slower than local.
        for p in table2_with_map() {
            nodes.set_remote(p.kind, Duration::from_secs_f64(p.work.total_cycles() / 1e9));
        }
        let mut p = GlobalPlacementPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
        );
        let mut c = ctx(&class, ms(300), ms(900), nodes);
        c.rtt = ms(400);
        let plan = p.decide(SimTime::EPOCH, &c);
        assert!(plan.remote.is_empty(), "remote = {:?}", plan.remote);
    }

    #[test]
    fn global_search_under_energy_goal_offloads_despite_rtt() {
        // EC goal: shipping the heavy compute off-board wins on watts
        // even when the RTT makes the cycle slower.
        let class = classify(&table2_without_map());
        let nodes = estimates(&table2_without_map());
        let mut p =
            GlobalPlacementPolicy::new(Goal::Energy, VelocityModel::default(), PinPolicy::none());
        let mut c = ctx(&class, ms(600), ms(650), nodes);
        c.rtt = ms(300);
        let plan = p.decide(SimTime::EPOCH, &c);
        assert!(plan.remote.contains(NodeKind::Slam));
        assert!(plan.remote.contains(NodeKind::CostmapGen));
    }

    #[test]
    fn policies_respect_the_network_controllers_invoke_local() {
        // Satellite: Algorithm 2's override is visible to the layer —
        // the search and the bandit both yield all-local when the
        // verdict says the placement is being torn down. Algorithm 1
        // deliberately ignores it (historical byte-identity).
        let class = classify(&table2_with_map());
        let nodes = estimates(&table2_with_map());
        let mut c = ctx(&class, ms(600), ms(60), nodes);
        c.net = NetVerdict {
            decision: NetDecision::InvokeLocal,
            cause: SwitchCause::HeartbeatMiss,
            backoff_armed: None,
        };
        let mut global = GlobalPlacementPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
        );
        assert!(global.decide(SimTime::EPOCH, &c).remote.is_empty());
        let mut bandit = BanditPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
            7,
        );
        assert!(bandit.decide(SimTime::EPOCH, &c).remote.is_empty());
        let mut alg1: Box<dyn OffloadPolicy> = Box::new(OffloadStrategy::new(Goal::MissionTime));
        assert!(alg1
            .decide(SimTime::EPOCH, &c)
            .remote
            .contains(NodeKind::PathTracking));
    }

    #[test]
    fn bandit_is_deterministic_per_seed() {
        let class = classify(&table2_with_map());
        let nodes = estimates(&table2_with_map());
        let run = |seed: u64| {
            let mut p = BanditPolicy::new(
                Goal::MissionTime,
                VelocityModel::default(),
                PinPolicy::none(),
                seed,
            );
            (0..200)
                .map(|k| {
                    // Alternate between a good and a bad network so
                    // several context cells get visited.
                    let (l, cl, bw) = if k % 3 == 0 {
                        (600, 900, 1.0)
                    } else {
                        (600, 60, 5.5)
                    };
                    let mut c = ctx(&class, ms(l), ms(cl), nodes);
                    c.bandwidth = bw;
                    p.decide(SimTime::EPOCH + Duration::from_millis(200 * k), &c)
                        .remote
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
    }

    #[test]
    fn bandit_learns_to_offload_when_the_cloud_is_fast() {
        let class = classify(&table2_with_map());
        let nodes = estimates(&table2_with_map());
        let mut p = BanditPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
            3,
        );
        let c = ctx(&class, ms(600), ms(60), nodes);
        let mut offloaded = 0;
        let total = 400;
        for k in 0..total {
            let plan = p.decide(SimTime::EPOCH + Duration::from_millis(200 * k), &c);
            if plan.remote.contains(NodeKind::PathTracking) {
                offloaded += 1;
            }
        }
        // ε-greedy with ε = 0.12 over 3 arms: the greedy arm must
        // dominate once the cells are primed.
        assert!(
            offloaded as f64 > 0.75 * total as f64,
            "offloaded only {offloaded}/{total} ticks"
        );
    }

    #[test]
    fn bandit_learns_to_stay_home_when_the_cloud_is_slow() {
        let class = classify(&table2_with_map());
        let nodes = estimates(&table2_with_map());
        let mut p = BanditPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
            3,
        );
        let mut c = ctx(&class, ms(300), ms(900), nodes);
        c.bandwidth = 1.5;
        let mut local = 0;
        let total = 400;
        for k in 0..total {
            let plan = p.decide(SimTime::EPOCH + Duration::from_millis(200 * k), &c);
            if !plan.remote.contains(NodeKind::PathTracking) {
                local += 1;
            }
        }
        assert!(
            local as f64 > 0.75 * total as f64,
            "stayed local only {local}/{total} ticks"
        );
    }

    #[test]
    fn netctl_boundary_bandwidth_at_threshold_fires_neither_branch() {
        // Algorithm 2's inequalities are strict: r_t exactly at the
        // 4 pkt/s threshold switches in *neither* direction, whatever
        // the signal direction says — and the resulting Keep verdict
        // leaves the decision layer free to keep its own optimum.
        use crate::netctl::{NetControl, NetInputs};
        let t = SimTime::EPOCH + Duration::from_secs(3); // past warmup
        for (remote_active, direction) in [(true, -0.5), (false, 0.5)] {
            let mut nc = NetControl::new();
            let inputs = |bandwidth| NetInputs {
                bandwidth,
                direction,
                remote_active,
                since_downlink: Some(Duration::ZERO),
                radio_weak: false,
            };
            nc.evaluate(SimTime::EPOCH, inputs(4.0)); // start the clock
            let v = nc.evaluate(t, inputs(4.0));
            assert_eq!(
                v.decision,
                NetDecision::Keep,
                "r_t == threshold must keep (remote_active={remote_active})"
            );
            // Just past the threshold the matching branch fires.
            let v = nc.evaluate(t + ms(1), inputs(if remote_active { 3.99 } else { 4.01 }));
            let expect = if remote_active {
                NetDecision::InvokeLocal
            } else {
                NetDecision::InvokeRemote
            };
            assert_eq!(v.decision, expect, "past threshold must switch");
        }
    }

    #[test]
    fn netctl_boundary_direction_deadband_is_inclusive() {
        // |d_t| == 0.02 sits *inside* the deadband (strict
        // inequalities again): the robot counts as "not moving" and
        // neither branch fires; one tick beyond it does.
        use crate::netctl::{NetControl, NetInputs};
        let t = SimTime::EPOCH + Duration::from_secs(3);
        for (remote_active, bandwidth, away) in [(true, 3.0, true), (false, 5.0, false)] {
            let sign = if away { -1.0 } else { 1.0 };
            let inputs = |direction| NetInputs {
                bandwidth,
                direction,
                remote_active,
                since_downlink: Some(Duration::ZERO),
                radio_weak: false,
            };
            let mut nc = NetControl::new();
            nc.evaluate(SimTime::EPOCH, inputs(0.0));
            let v = nc.evaluate(t, inputs(sign * 0.02));
            assert_eq!(v.decision, NetDecision::Keep, "deadband edge must keep");
            let v = nc.evaluate(t + ms(1), inputs(sign * 0.021));
            let expect = if remote_active {
                NetDecision::InvokeLocal
            } else {
                NetDecision::InvokeRemote
            };
            assert_eq!(v.decision, expect, "outside the deadband must switch");
        }
    }

    #[test]
    fn netctl_boundary_dwell_verdict_flows_into_the_policies() {
        // Hysteresis dwell: after a switch the rule is suppressed for
        // min_dwell (1.5 s) exclusive — and while suppressed, the Keep
        // verdict reaches the decision layer, so the search policy is
        // free to propose its optimum rather than being forced local.
        use crate::netctl::{NetControl, NetInputs, MIN_DWELL};
        let t0 = SimTime::EPOCH + Duration::from_secs(3);
        let inputs = || NetInputs {
            bandwidth: 3.0,
            direction: -0.5,
            remote_active: true,
            since_downlink: Some(Duration::ZERO),
            radio_weak: false,
        };
        let mut nc = NetControl::new();
        nc.evaluate(SimTime::EPOCH, inputs());
        let v = nc.evaluate(t0, inputs());
        assert_eq!(v.decision, NetDecision::InvokeLocal);

        // One nanosecond short of the dwell: still suppressed.
        let dwell = MIN_DWELL;
        let held = nc.evaluate(t0 + (dwell - Duration::from_nanos(1)), inputs());
        assert_eq!(held.decision, NetDecision::Keep, "inside dwell must keep");
        // The suppressed verdict feeds the layer: the search policy
        // still proposes its own optimum under Keep...
        let class = classify(&table2_with_map());
        let nodes = estimates(&table2_with_map());
        let mut c = ctx(&class, ms(600), ms(60), nodes);
        c.net = held;
        let mut global = GlobalPlacementPolicy::new(
            Goal::MissionTime,
            VelocityModel::default(),
            PinPolicy::none(),
        );
        assert!(!global.decide(SimTime::EPOCH, &c).remote.is_empty());

        // ...and at exactly the dwell the rule fires again, which the
        // policies then respect (all-local).
        let fired = nc.evaluate(t0 + dwell, inputs());
        assert_eq!(fired.decision, NetDecision::InvokeLocal, "dwell expiry");
        c.net = fired;
        assert!(global.decide(SimTime::EPOCH, &c).remote.is_empty());
    }

    #[test]
    fn predict_prices_the_rtt_only_when_the_vdp_leaves() {
        let class = classify(&table2_without_map());
        let nodes = estimates(&table2_without_map());
        let mut c = ctx(&class, ms(600), ms(60), nodes);
        c.rtt = ms(50);
        let (all_local, watts_local) = predict(NodeSet::EMPTY, &c);
        // SLAM-only offload: off the VDP, so no RTT term on the cycle.
        let (slam_only, watts_slam) = predict(NodeSet::single(NodeKind::Slam), &c);
        assert!((all_local - slam_only).abs() < 1e-12);
        // But the radio now transmits — and the on-board demand fell.
        assert!(watts_slam < watts_local + c.energy.tx_power_w);
        // Offloading the T3 pair adds the RTT to the cycle.
        let t3 = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
        let (t3_cycle, _) = predict(t3, &c);
        let remote_sum: f64 = [NodeKind::CostmapGen, NodeKind::PathTracking]
            .iter()
            .map(|k| c.nodes.remote(*k).as_secs_f64())
            .sum::<f64>()
            + c.nodes.local(NodeKind::VelocityMux).as_secs_f64();
        assert!((t3_cycle - (remote_sum + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn node_estimates_keep_every_kind_apart() {
        let mut e = NodeEstimates::default();
        for (i, k) in NodeKind::ALL.into_iter().enumerate() {
            let i = i as u64 + 1;
            e.set_local(k, ms(i));
            e.set_remote(k, ms(10 * i));
            e.set_demand(k, i as f64 / 2.0);
        }
        for (i, k) in NodeKind::ALL.into_iter().enumerate() {
            let i = i as u64 + 1;
            assert_eq!(e.local(k), ms(i));
            assert_eq!(e.remote(k), ms(10 * i));
            assert_eq!(e.demand_gcps(k), i as f64 / 2.0);
        }
    }

    #[test]
    fn policy_labels_are_distinct_and_algorithm1_is_the_default() {
        assert_eq!(PolicyKind::default(), PolicyKind::Algorithm1);
        let labels: std::collections::BTreeSet<_> =
            PolicyKind::ALL.into_iter().map(PolicyKind::label).collect();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }
}
