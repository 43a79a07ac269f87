//! Trace analysis: turn a flat record stream back into explanations.
//!
//! [`TraceAnalysis`] reconstructs, from the records of **one mission**:
//!
//! * **per-message journeys** — lineage chains rooted at a fresh
//!   `bus_publish` (`parent == 0`), followed through channel sends,
//!   deliveries, remote compute samples, and re-publications;
//! * **per-cycle span trees** — every record carries the span of its
//!   200 ms control cycle, so events group under cycles exactly;
//! * a **latency waterfall** over the complete offload journeys
//!   (publish → uplink queue → uplink air → cloud compute → downlink
//!   air → delivery), with exact percentiles per stage;
//! * **critical-path attribution** — which stage dominated each
//!   journey's end-to-end latency;
//! * **drop/loss lineage** — where the journeys that never delivered
//!   actually died (sender discard, radio loss, bus drop, in flight);
//! * the §V **"lying RTT" anomaly** — windows of virtual time where
//!   the sender discards datagrams (kernel buffer full behind a weak
//!   signal) while the last measured RTT still looks healthy, i.e. the
//!   RTT metric actively misleads.
//!
//! [`TraceAnalysis::render_report`] prints all of the above as
//! fixed-precision text that is byte-for-byte deterministic for a
//! given record stream — the `trace_report` binary in `lgv-bench` is a
//! thin CLI over this module.

use crate::event::{SendKind, TraceEvent, TraceRecord};
use crate::metrics::Histogram;
use crate::sink::TraceSink;
use crate::span::{MsgId, SpanId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Virtual-time window width for the lying-RTT detector (1 s).
const ANOMALY_WINDOW_NS: u64 = 1_000_000_000;
/// Discards per window required to call the window anomalous.
const ANOMALY_MIN_DISCARDS: u64 = 3;
/// An RTT at or below this still "looks healthy" to a naive monitor.
const HEALTHY_RTT_MS: f64 = 100.0;

/// Where a journey's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fate {
    /// Delivered back to the robot bus (complete waterfall).
    Delivered,
    /// Never left the robot: every send was discarded at the sender.
    Discarded,
    /// Transmitted but lost in the air.
    Lost,
    /// Evicted from a bounded subscriber queue.
    BusDropped,
    /// Never touched a channel (the VDP ran locally that cycle).
    Local,
    /// Still somewhere between hosts when the trace ended.
    InFlight,
}

impl Fate {
    fn as_str(self) -> &'static str {
        match self {
            Fate::Delivered => "delivered",
            Fate::Discarded => "discarded at sender",
            Fate::Lost => "lost in the air",
            Fate::BusDropped => "dropped on a bus queue",
            Fate::Local => "handled locally",
            Fate::InFlight => "in flight at trace end",
        }
    }
}

/// The five waterfall stages of a complete offload journey, in
/// pipeline order.
const STAGES: [&str; 5] = [
    "publish->uplink",
    "uplink air",
    "cloud compute",
    "downlink air",
    "delivery",
];

/// One reconstructed lineage chain rooted at a fresh publish.
#[derive(Debug, Clone)]
struct Journey {
    root: MsgId,
    topic: String,
    span: SpanId,
    /// Envelope `vehicle` tag of the root publish (0 when untagged).
    vehicle: u64,
    t_publish: u64,
    /// Stage durations in ns, indexed like [`STAGES`]; `None` when the
    /// journey never reached that stage.
    stages: [Option<u64>; 5],
    /// Root publish → last chain event (ns).
    end_to_end: Option<u64>,
    fate: Fate,
}

impl Journey {
    /// Index into [`STAGES`] of the longest stage, for complete
    /// journeys.
    fn critical_stage(&self) -> Option<usize> {
        if self.fate != Fate::Delivered {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for (i, d) in self.stages.iter().enumerate() {
            if let Some(d) = d {
                // Strict `>` keeps the earliest stage on ties, which
                // is deterministic and favours upstream causes.
                if best.is_none_or(|(_, b)| *d > b) {
                    best = Some((i, *d));
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// What the records so far say about one lineage id: its publish, its
/// re-publications, and what happened to it on the channels.
#[derive(Debug, Clone, Default)]
struct MsgInfo {
    t_publish: u64,
    topic: String,
    span: SpanId,
    vehicle: u64,
    parent: MsgId,
    children: Vec<MsgId>,
    first_up_send: Option<u64>,
    /// `(observed_t, latency)` of the first uplink delivery.
    up_deliver: Option<(u64, u64)>,
    /// `(observed_t, latency)` of the first downlink delivery.
    down_deliver: Option<(u64, u64)>,
    compute_ns: u64,
    discarded: bool,
    transmitted: bool,
    lost: bool,
    bus_dropped: bool,
}

/// One scripted fault window reconstructed from its
/// `fault_begin`/`fault_end` edge events, with everything the trace
/// blames on it: losses, discards, heartbeat misses, migration
/// timeouts, and the speed cap the controller actually commanded
/// while the window was open.
#[derive(Debug, Clone, Default)]
struct FaultSpan {
    window: u64,
    fault: String,
    begin_ns: u64,
    /// Scheduled width as reported by the `fault_begin` event.
    span_ns: u64,
    /// Did a matching `fault_end` arrive before the trace ended?
    closed: bool,
    losses: u64,
    discards: u64,
    heartbeat_misses: u64,
    migration_timeouts: u64,
    /// `max_linear` samples from control decisions inside the window.
    speed: Histogram,
}

/// Per-vehicle aggregates for fleet traces, where records carry a
/// non-zero envelope `vehicle` tag. Journey counts come from the
/// journeys themselves ([`Journey::vehicle`]).
#[derive(Debug, Clone, Default)]
struct VehicleAgg {
    records: u64,
    cycles: u64,
    discards: u64,
    losses: u64,
    rtt_samples: u64,
    /// Same-stage cloud batches this vehicle joined (elastic fleets).
    cloud_batches: u64,
}

/// Per-policy aggregates from `policy_decide` events (the pluggable
/// offload-decision layer). One entry per policy name seen.
#[derive(Debug, Clone, Default)]
struct PolicyAgg {
    /// Decision ticks this policy produced.
    decisions: u64,
    /// Ticks whose plan proposed a non-empty remote set.
    remote_decisions: u64,
    /// Ticks whose proposed remote set differed from the same
    /// (policy, vehicle) stream's previous tick — placement churn.
    flips: u64,
    /// Sum of expected VDP makespans (ns), for the mean.
    expected_vdp_sum_ns: u64,
    /// Sum of advisory Eq. 2c velocities, for the mean.
    vmax_sum: f64,
}

/// One [`ANOMALY_WINDOW_NS`] window that saw sender discards.
#[derive(Debug, Clone)]
struct Anomaly {
    window_start_ns: u64,
    discards: u64,
    last_rtt_ms: f64,
    /// Virtual age of that RTT sample at the window's last discard.
    rtt_age_ns: u64,
}

/// Aggregated view of one mission's trace: reconstructed message
/// journeys, per-cycle span statistics, drop/loss lineage, and §V
/// "lying RTT" anomaly windows.
///
/// A streaming fold: each [`TraceSink::record`] call folds one record
/// in, so the analysis can be attached to a live
/// [`Tracer`](crate::Tracer) as a sink and read after the run, or
/// built offline from a parsed trace file with
/// [`TraceAnalysis::from_records`]. Both give the same report.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    workload: String,
    deployment: String,
    seed: u64,
    completed: Option<(bool, String)>,
    first_t_ns: u64,
    last_t_ns: u64,
    records: usize,
    cycles: u64,
    /// Lineage state per message id; journeys are folded from it on
    /// demand ([`TraceAnalysis::journeys`]).
    msgs: BTreeMap<u64, MsgInfo>,
    /// Records per span id (the events/cycle histogram).
    span_events: BTreeMap<u64, u64>,
    /// Sender discards per channel direction.
    discards: BTreeMap<String, u64>,
    /// Radio losses per channel direction.
    losses: BTreeMap<String, u64>,
    /// Queue drops per bus topic.
    bus_drops: BTreeMap<String, u64>,
    /// Every window with a sender discard, in order; the last one is
    /// still filling. [`TraceAnalysis::lying_windows`] filters them.
    anomalies: Vec<Anomaly>,
    /// Latest `(t_ns, rtt_ns)` RTT sample.
    last_rtt: Option<(u64, u64)>,
    total_rtt_samples: u64,
    /// Scripted fault windows in `fault_begin` emission order.
    faults: Vec<FaultSpan>,
    /// Fault windows currently open: window id -> index in `faults`.
    /// Events between a window's begin and end edges are attributed
    /// to it.
    open_faults: BTreeMap<u64, usize>,
    /// `max_linear` samples from control decisions outside every
    /// fault window — the baseline the per-window speed compares to.
    speed_outside: Histogram,
    migration_timeouts: u64,
    /// Re-offload backoff events as `(t_ns, wait_ns, failures)`.
    backoffs: Vec<(u64, u64, u64)>,
    /// Aggregates keyed by envelope `vehicle` tag; empty for
    /// single-vehicle traces (tag 0 is never entered), so pre-fleet
    /// reports render byte-identically.
    vehicles: BTreeMap<u64, VehicleAgg>,
    /// `cloud_batch` joins across the fleet (elastic cloud only).
    cloud_batch_joins: u64,
    /// Total marginal compute charged for batched joins.
    cloud_marginal_ns: u64,
    /// `cloud_scale` transitions as `(t_ns, from, to, utilization)`.
    cloud_scales: Vec<(u64, u32, u32, f64)>,
    /// Completed checkpoint transfers as `(t_ns, bytes)`.
    checkpoints: Vec<(u64, u64)>,
    /// `degrade_enter` events as `(t_ns, cause)`.
    degrade_enters: Vec<(u64, String)>,
    /// `degrade_exit` events as `(held_ns, missed_cycles)`.
    degrade_exits: Vec<(u64, u64)>,
    /// `replica_crash` window-begin edges (t_ns).
    replica_crashes: Vec<u64>,
    /// `replica_straggle` window-begin edges (t_ns).
    replica_straggles: Vec<u64>,
    /// Heartbeat-miss emission times, for detect/recover pairing.
    heartbeat_times: Vec<u64>,
    /// `net_switch` to-remote times — the re-offload moments a
    /// recovery completes at.
    reoffload_times: Vec<u64>,
    /// Vehicles per radio region from `region_assign` (sharded fleet
    /// traces only; empty otherwise, so unsharded reports render
    /// byte-identically).
    region_vehicles: BTreeMap<u32, u64>,
    /// `region_assign` events whose serving pool is homed elsewhere.
    wan_assigned: u64,
    /// `wan_hop` admissions observed and their total surcharge.
    wan_hops: u64,
    wan_delay_ns: u64,
    /// Distinct `(from_region, to_region)` WAN routes observed.
    wan_routes: BTreeSet<(u32, u32)>,
    /// Per-policy decision aggregates from `policy_decide` events;
    /// empty for traces predating the decision layer, so their
    /// reports render byte-identically.
    policies: BTreeMap<String, PolicyAgg>,
    /// Last proposed remote set per (policy, vehicle) decision
    /// stream, for counting placement flips.
    last_policy_remote: BTreeMap<(String, u64), String>,
}

/// Recovery-SLO summary computed from the resilience trace kinds
/// (`checkpoint`, `degrade_enter`/`degrade_exit`, `replica_crash`,
/// `replica_straggle`). [`TraceAnalysis::recovery_report`] returns
/// `None` unless the trace contains at least one of those kinds, so
/// pre-resilience traces render byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Completed checkpoint transfers.
    pub checkpoints: u64,
    /// Total snapshot bytes streamed by those checkpoints.
    pub checkpoint_bytes: u64,
    /// Times the pipeline dropped to reduced fidelity.
    pub degrade_entries: u64,
    /// Total virtual time spent degraded (sum of exit `held_ns`).
    pub degraded_ns: u64,
    /// `degraded_ns` over the trace's virtual-time span.
    pub degraded_fraction: f64,
    /// Control cycles that missed their deadline while degraded.
    pub missed_cycles: u64,
    /// Scripted replica-crash windows observed.
    pub replica_crash_windows: u64,
    /// Scripted straggler windows observed.
    pub replica_straggle_windows: u64,
    /// Mean replica-crash-begin → first-heartbeat-miss gap; `None`
    /// when no crash window was followed by a heartbeat miss.
    pub mean_time_to_detect_ns: Option<u64>,
    /// Mean heartbeat-miss → next-re-offload gap; `None` when no
    /// heartbeat miss was followed by a re-offload.
    pub mean_time_to_recover_ns: Option<u64>,
    /// Heartbeat misses never followed by a re-offload (the outage
    /// outlived the trace).
    pub unrecovered_outages: u64,
}

impl TraceSink for TraceAnalysis {
    /// Fold one record in (emission order expected).
    fn record(&mut self, rec: &TraceRecord) {
        if self.records == 0 {
            self.first_t_ns = rec.t_ns;
        }
        self.last_t_ns = rec.t_ns;
        self.records += 1;
        if !rec.span.is_none() {
            *self.span_events.entry(rec.span.0).or_insert(0) += 1;
        }
        if rec.vehicle != 0 {
            let v = self.vehicles.entry(rec.vehicle).or_default();
            v.records += 1;
            match &rec.event {
                TraceEvent::SpanBegin { name, .. } if name == "cycle" => v.cycles += 1,
                TraceEvent::ChannelSend {
                    outcome: SendKind::Discarded,
                    ..
                } => v.discards += 1,
                TraceEvent::ChannelLoss { .. } => v.losses += 1,
                TraceEvent::RttSample { .. } => v.rtt_samples += 1,
                TraceEvent::CloudBatch { .. } => v.cloud_batches += 1,
                _ => {}
            }
        }
        match &rec.event {
            TraceEvent::MissionStart {
                workload,
                deployment,
                seed,
            } => {
                self.workload = workload.clone();
                self.deployment = deployment.clone();
                self.seed = *seed;
            }
            TraceEvent::MissionEnd { completed, reason } => {
                self.completed = Some((*completed, reason.clone()));
            }
            TraceEvent::SpanBegin { name, .. } if name == "cycle" => {
                self.cycles += 1;
            }
            TraceEvent::BusPublish {
                topic, msg, parent, ..
            } if !msg.is_none() => {
                self.msgs.entry(msg.0).or_insert_with(|| MsgInfo {
                    t_publish: rec.t_ns,
                    topic: topic.clone(),
                    span: rec.span,
                    vehicle: rec.vehicle,
                    parent: *parent,
                    ..MsgInfo::default()
                });
                if !parent.is_none() {
                    if let Some(p) = self.msgs.get_mut(&parent.0) {
                        p.children.push(*msg);
                    }
                }
            }
            TraceEvent::BusDrop { topic, msg } => {
                *self.bus_drops.entry(topic.clone()).or_insert(0) += 1;
                if let Some(m) = self.msgs.get_mut(&msg.0) {
                    m.bus_dropped = true;
                }
            }
            TraceEvent::ChannelSend {
                dir, outcome, msg, ..
            } => {
                match outcome {
                    SendKind::Discarded => {
                        *self.discards.entry(dir.clone()).or_insert(0) += 1;
                        if let Some(m) = self.msgs.get_mut(&msg.0) {
                            m.discarded = true;
                        }
                        for &i in self.open_faults.values() {
                            self.faults[i].discards += 1;
                        }
                        // One more silent discard: extend (or open)
                        // the current anomaly window.
                        let w_start = rec.t_ns / ANOMALY_WINDOW_NS * ANOMALY_WINDOW_NS;
                        if self
                            .anomalies
                            .last()
                            .is_none_or(|w| w.window_start_ns != w_start)
                        {
                            self.anomalies.push(Anomaly {
                                window_start_ns: w_start,
                                discards: 0,
                                last_rtt_ms: f64::NAN,
                                rtt_age_ns: 0,
                            });
                        }
                        let w = self.anomalies.last_mut().expect("window just ensured");
                        w.discards += 1;
                        if let Some((t, rtt)) = self.last_rtt {
                            w.last_rtt_ms = rtt as f64 / 1e6;
                            w.rtt_age_ns = rec.t_ns.saturating_sub(t);
                        }
                    }
                    SendKind::Transmitted | SendKind::Held => {
                        if let Some(m) = self.msgs.get_mut(&msg.0) {
                            m.transmitted = true;
                            if dir == "up" && m.first_up_send.is_none() {
                                m.first_up_send = Some(rec.t_ns);
                            }
                        }
                    }
                }
            }
            TraceEvent::ChannelLoss { msg, dir, .. } => {
                *self.losses.entry(dir.clone()).or_insert(0) += 1;
                if let Some(m) = self.msgs.get_mut(&msg.0) {
                    m.lost = true;
                }
                for &i in self.open_faults.values() {
                    self.faults[i].losses += 1;
                }
            }
            TraceEvent::ChannelDeliver {
                dir,
                msg,
                latency_ns,
                ..
            } => {
                if let Some(m) = self.msgs.get_mut(&msg.0) {
                    let slot = if dir == "down" {
                        &mut m.down_deliver
                    } else {
                        &mut m.up_deliver
                    };
                    if slot.is_none() {
                        *slot = Some((rec.t_ns, *latency_ns));
                    }
                }
            }
            TraceEvent::ProfileSample {
                remote: true,
                nanos,
                msg,
                ..
            } => {
                if let Some(m) = self.msgs.get_mut(&msg.0) {
                    m.compute_ns += nanos;
                }
            }
            TraceEvent::RttSample { rtt_ns } => {
                self.total_rtt_samples += 1;
                self.last_rtt = Some((rec.t_ns, *rtt_ns));
            }
            TraceEvent::ControlDecision { max_linear, .. } => {
                if self.open_faults.is_empty() {
                    self.speed_outside.observe(*max_linear);
                } else {
                    for &i in self.open_faults.values() {
                        self.faults[i].speed.observe(*max_linear);
                    }
                }
            }
            TraceEvent::PolicyDecide {
                policy,
                remote,
                expected_vdp_ns,
                max_velocity,
            } => {
                let prev = self
                    .last_policy_remote
                    .insert((policy.clone(), rec.vehicle), remote.clone());
                let agg = self.policies.entry(policy.clone()).or_default();
                agg.decisions += 1;
                agg.remote_decisions += u64::from(remote != "-");
                agg.flips += u64::from(prev.is_some_and(|p| p != *remote));
                agg.expected_vdp_sum_ns += expected_vdp_ns;
                agg.vmax_sum += max_velocity;
            }
            TraceEvent::FaultBegin {
                fault,
                window,
                window_ns,
            } => {
                self.open_faults.insert(*window, self.faults.len());
                self.faults.push(FaultSpan {
                    window: *window,
                    fault: fault.clone(),
                    begin_ns: rec.t_ns,
                    span_ns: *window_ns,
                    ..FaultSpan::default()
                });
            }
            TraceEvent::FaultEnd { window, .. } => {
                if let Some(i) = self.open_faults.remove(window) {
                    self.faults[i].closed = true;
                }
            }
            TraceEvent::HeartbeatMiss { .. } => {
                self.heartbeat_times.push(rec.t_ns);
                for &i in self.open_faults.values() {
                    self.faults[i].heartbeat_misses += 1;
                }
            }
            TraceEvent::NetSwitch { to_remote: true } => {
                self.reoffload_times.push(rec.t_ns);
            }
            TraceEvent::MigrationTimeout { .. } => {
                self.migration_timeouts += 1;
                for &i in self.open_faults.values() {
                    self.faults[i].migration_timeouts += 1;
                }
            }
            TraceEvent::ReoffloadBackoff { wait_ns, failures } => {
                self.backoffs.push((rec.t_ns, *wait_ns, *failures));
            }
            TraceEvent::CloudBatch { marginal_ns, .. } => {
                self.cloud_batch_joins += 1;
                self.cloud_marginal_ns += marginal_ns;
            }
            TraceEvent::CloudScale {
                from_replicas,
                to_replicas,
                utilization,
                ..
            } => {
                self.cloud_scales
                    .push((rec.t_ns, *from_replicas, *to_replicas, *utilization));
            }
            TraceEvent::Checkpoint { bytes, .. } => {
                self.checkpoints.push((rec.t_ns, *bytes));
            }
            TraceEvent::DegradeEnter { cause, .. } => {
                self.degrade_enters.push((rec.t_ns, cause.clone()));
            }
            TraceEvent::DegradeExit {
                held_ns,
                missed_cycles,
            } => {
                self.degrade_exits.push((*held_ns, *missed_cycles));
            }
            TraceEvent::ReplicaCrash { .. } => {
                self.replica_crashes.push(rec.t_ns);
            }
            TraceEvent::ReplicaStraggle { .. } => {
                self.replica_straggles.push(rec.t_ns);
            }
            TraceEvent::RegionAssign { region, wan, .. } => {
                *self.region_vehicles.entry(*region).or_insert(0) += 1;
                if *wan {
                    self.wan_assigned += 1;
                }
            }
            TraceEvent::WanHop {
                from_region,
                to_region,
                delay_ns,
            } => {
                self.wan_hops += 1;
                self.wan_delay_ns += delay_ns;
                self.wan_routes.insert((*from_region, *to_region));
            }
            _ => {}
        }
    }
}

impl TraceAnalysis {
    /// Reconstruct journeys, spans, and anomalies from one mission's
    /// records (emission order expected, as read from a trace file).
    pub fn from_records(records: &[TraceRecord]) -> TraceAnalysis {
        let mut a = TraceAnalysis::default();
        for rec in records {
            a.record(rec);
        }
        a
    }

    /// Every lineage chain folded into a journey, roots in id order.
    fn journeys(&self) -> Vec<Journey> {
        self.msgs
            .iter()
            .filter(|(_, m)| m.parent.is_none())
            .map(|(&root, _)| self.journey(root))
            .collect()
    }

    /// Fold the chain rooted at `root` breadth-first into one journey.
    fn journey(&self, root: u64) -> Journey {
        let mut chain = vec![root];
        let mut i = 0;
        while i < chain.len() {
            chain.extend(self.msgs[&chain[i]].children.iter().map(|c| c.0));
            i += 1;
        }
        let rootinfo = &self.msgs[&root];
        let t0 = rootinfo.t_publish;

        let mut first_up_send = None;
        let mut up_deliver = None;
        let mut down_deliver = None;
        let mut compute_ns = 0u64;
        let mut last_publish = t0;
        let mut any_send = false;
        let mut discarded = false;
        let mut lost = false;
        let mut bus_dropped = false;
        let mut transmitted = false;
        for id in &chain {
            let m = &self.msgs[id];
            any_send |= m.transmitted || m.discarded;
            discarded |= m.discarded;
            transmitted |= m.transmitted;
            lost |= m.lost;
            bus_dropped |= m.bus_dropped;
            compute_ns += m.compute_ns;
            last_publish = last_publish.max(m.t_publish);
            first_up_send = first_up_send.or(m.first_up_send);
            up_deliver = up_deliver.or(m.up_deliver);
            down_deliver = down_deliver.or(m.down_deliver);
        }

        let complete = down_deliver.is_some_and(|(t, _)| last_publish >= t);
        // A drop outranks "local": a lone publish evicted from a bus
        // queue never reached a send either.
        let fate = if complete {
            Fate::Delivered
        } else if lost {
            Fate::Lost
        } else if bus_dropped {
            Fate::BusDropped
        } else if !any_send && chain.len() == 1 {
            Fate::Local
        } else if discarded && !transmitted {
            Fate::Discarded
        } else {
            Fate::InFlight
        };

        let mut stages = [None; 5];
        if complete {
            let (down_t, down_lat) = down_deliver.expect("complete implies down");
            stages[0] = first_up_send.map(|t| t.saturating_sub(t0));
            stages[1] = up_deliver.map(|(_, lat)| lat);
            stages[2] = Some(compute_ns);
            stages[3] = Some(down_lat);
            stages[4] = Some(last_publish.saturating_sub(down_t));
        }
        Journey {
            root: MsgId(root),
            topic: rootinfo.topic.clone(),
            span: rootinfo.span,
            vehicle: rootinfo.vehicle,
            t_publish: t0,
            stages,
            end_to_end: complete.then(|| last_publish.saturating_sub(t0)),
            fate,
        }
    }

    /// The windows where enough datagrams were discarded while the
    /// last RTT still looked healthy: the RTT metric lied.
    fn lying_windows(&self) -> Vec<&Anomaly> {
        self.anomalies
            .iter()
            .filter(|w| {
                w.discards >= ANOMALY_MIN_DISCARDS
                    && w.last_rtt_ms.is_finite()
                    && w.last_rtt_ms <= HEALTHY_RTT_MS
            })
            .collect()
    }

    /// Scripted fault windows seen (`fault_begin` records).
    pub fn fault_window_count(&self) -> usize {
        self.faults.len()
    }

    /// Heartbeat misses seen across the whole mission.
    pub fn heartbeat_miss_count(&self) -> u64 {
        self.heartbeat_times.len() as u64
    }

    /// Migration deadline expiries seen across the whole mission.
    pub fn migration_timeout_count(&self) -> u64 {
        self.migration_timeouts
    }

    /// Re-offload backoff waits announced across the whole mission.
    pub fn backoff_count(&self) -> usize {
        self.backoffs.len()
    }

    /// Per-outage recovery latencies (each heartbeat miss to the next
    /// `net_switch` back to remote) plus the count of misses never
    /// followed by a re-offload. Available for any trace with the old
    /// kinds — unlike [`TraceAnalysis::recovery_report`], which gates
    /// on the resilience kinds.
    fn reoffload_latencies(&self) -> (Vec<u64>, u64) {
        let mut recover = Vec::new();
        let mut unrecovered = 0u64;
        for &m in &self.heartbeat_times {
            match self.reoffload_times.iter().find(|&&r| r >= m) {
                Some(&r) => recover.push(r - m),
                None => unrecovered += 1,
            }
        }
        (recover, unrecovered)
    }

    /// Mean latency from a heartbeat miss to the next successful
    /// re-offload, or `None` when no miss was ever followed by one.
    pub fn mean_reoffload_latency_ns(&self) -> Option<u64> {
        let (recover, _) = self.reoffload_latencies();
        (!recover.is_empty()).then(|| recover.iter().sum::<u64>() / recover.len() as u64)
    }

    /// Recovery-SLO summary, or `None` when the trace carries none of
    /// the resilience kinds (`checkpoint`, `degrade_*`, `replica_*`).
    ///
    /// The gate deliberately ignores `heartbeat_miss`/`net_switch` —
    /// plenty of pre-resilience traces have those, and their reports
    /// must not change.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        if self.checkpoints.is_empty()
            && self.degrade_enters.is_empty()
            && self.degrade_exits.is_empty()
            && self.replica_crashes.is_empty()
            && self.replica_straggles.is_empty()
        {
            return None;
        }
        let degraded_ns: u64 = self.degrade_exits.iter().map(|(h, _)| h).sum();
        let missed_cycles: u64 = self.degrade_exits.iter().map(|(_, m)| m).sum();
        let span = self.last_t_ns.saturating_sub(self.first_t_ns);
        let degraded_fraction = if span == 0 {
            0.0
        } else {
            degraded_ns as f64 / span as f64
        };
        // Time-to-detect: each replica-crash window begin to the first
        // heartbeat miss at or after it (both streams are in emission
        // order).
        let mut detect = Vec::new();
        for &t in &self.replica_crashes {
            if let Some(&m) = self.heartbeat_times.iter().find(|&&m| m >= t) {
                detect.push(m - t);
            }
        }
        // Time-to-recover: each heartbeat miss to the next re-offload.
        let (recover, unrecovered) = self.reoffload_latencies();
        let mean = |v: &[u64]| (!v.is_empty()).then(|| v.iter().sum::<u64>() / v.len() as u64);
        Some(RecoveryReport {
            checkpoints: self.checkpoints.len() as u64,
            checkpoint_bytes: self.checkpoints.iter().map(|(_, b)| b).sum(),
            degrade_entries: self.degrade_enters.len() as u64,
            degraded_ns,
            degraded_fraction,
            missed_cycles,
            replica_crash_windows: self.replica_crashes.len() as u64,
            replica_straggle_windows: self.replica_straggles.len() as u64,
            mean_time_to_detect_ns: mean(&detect),
            mean_time_to_recover_ns: mean(&recover),
            unrecovered_outages: unrecovered,
        })
    }

    /// Render the full deterministic text report.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let span_s = (self.last_t_ns.saturating_sub(self.first_t_ns)) as f64 / 1e9;
        let _ = writeln!(out, "=== trace report ===");
        if self.workload.is_empty() {
            let _ = writeln!(out, "mission: (no mission_start record)");
        } else {
            let _ = writeln!(
                out,
                "mission: {} on {} (seed {})",
                self.workload, self.deployment, self.seed
            );
        }
        if let Some((ok, reason)) = &self.completed {
            let _ = writeln!(
                out,
                "outcome: {} ({})",
                if *ok { "completed" } else { "failed" },
                reason
            );
        }
        let _ = writeln!(
            out,
            "records: {} spanning {:.1} s of virtual time",
            self.records, span_s
        );
        let mut per_cycle = Histogram::default();
        for count in self.span_events.values() {
            per_cycle.observe(*count as f64);
        }
        let _ = writeln!(
            out,
            "cycles: {}   events/cycle: mean {:.1}, p95 {:.0}, max {:.0}",
            self.cycles,
            per_cycle.mean(),
            per_cycle.percentile(95.0),
            per_cycle.max()
        );
        let journeys = self.journeys();
        let complete = journeys
            .iter()
            .filter(|j| j.fate == Fate::Delivered)
            .count();
        let _ = writeln!(
            out,
            "journeys: {} reconstructed, {} delivered end-to-end",
            journeys.len(),
            complete
        );

        // ---- per-vehicle attribution (fleet traces only; the map is
        // empty for untagged traces, so pre-fleet reports are
        // byte-identical).
        if !self.vehicles.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- per-vehicle attribution ---");
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>7} {:>9} {:>10} {:>9} {:>7} {:>5} {:>7}",
                "vehicle",
                "records",
                "cycles",
                "journeys",
                "delivered",
                "discards",
                "losses",
                "rtts",
                "batches"
            );
            // (journeys, delivered) per root vehicle tag.
            let mut tally: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for j in &journeys {
                let t = tally.entry(j.vehicle).or_default();
                t.0 += 1;
                t.1 += u64::from(j.fate == Fate::Delivered);
            }
            for (id, v) in &self.vehicles {
                let (journeys, delivered) = tally.get(id).copied().unwrap_or_default();
                let _ = writeln!(
                    out,
                    "v{:<7} {:>8} {:>7} {:>9} {:>10} {:>9} {:>7} {:>5} {:>7}",
                    id,
                    v.records,
                    v.cycles,
                    journeys,
                    delivered,
                    v.discards,
                    v.losses,
                    v.rtt_samples,
                    v.cloud_batches
                );
            }
        }

        // ---- elastic cloud (only when batch/scale events exist, so
        // fixed-cloud and single-vehicle reports are unchanged).
        if self.cloud_batch_joins > 0 || !self.cloud_scales.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- elastic cloud ---");
            let _ = writeln!(
                out,
                "batched joins: {} ({:.3} s marginal compute charged)",
                self.cloud_batch_joins,
                self.cloud_marginal_ns as f64 / 1e9
            );
            let _ = writeln!(out, "replica scale events: {}", self.cloud_scales.len());
            for (t_ns, from, to, util) in &self.cloud_scales {
                let _ = writeln!(
                    out,
                    "  t={:>8.3}s  replicas {} -> {}  (window utilization {:.2})",
                    *t_ns as f64 / 1e9,
                    from,
                    to,
                    util
                );
            }
        }

        // ---- regional sharding (only when region_assign/wan_hop
        // events exist, so unsharded fleet reports are unchanged).
        if !self.region_vehicles.is_empty() || self.wan_hops > 0 {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- regional sharding ---");
            let _ = writeln!(
                out,
                "regions: {} ({} vehicles assigned, {} served by a remote pool)",
                self.region_vehicles.len(),
                self.region_vehicles.values().sum::<u64>(),
                self.wan_assigned
            );
            for (region, vehicles) in &self.region_vehicles {
                let _ = writeln!(out, "  region r{region}: {vehicles} vehicle(s)");
            }
            let _ = writeln!(
                out,
                "wan hops: {} admissions, {:.3} s total surcharge, {} route(s)",
                self.wan_hops,
                self.wan_delay_ns as f64 / 1e9,
                self.wan_routes.len()
            );
            for (from, to) in &self.wan_routes {
                let _ = writeln!(out, "  route r{from} -> r{to}");
            }
        }

        // ---- decision layer (only when policy_decide events exist,
        // so traces predating the pluggable policies are unchanged).
        if !self.policies.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- policy decisions ---");
            let _ = writeln!(
                out,
                "{:<12} {:>9} {:>9} {:>7} {:>13} {:>10}",
                "policy", "decisions", "remote", "flips", "mean_vdp_ms", "mean_vmax"
            );
            for (name, p) in &self.policies {
                let n = p.decisions.max(1) as f64;
                let _ = writeln!(
                    out,
                    "{:<12} {:>9} {:>9} {:>7} {:>13.3} {:>10.3}",
                    name,
                    p.decisions,
                    p.remote_decisions,
                    p.flips,
                    p.expected_vdp_sum_ns as f64 / n / 1e6,
                    p.vmax_sum / n
                );
            }
        }

        // ---- waterfall.
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "--- latency waterfall ({complete} delivered journeys) ---"
        );
        if complete == 0 {
            let _ = writeln!(
                out,
                "(no journey delivered end-to-end; nothing to decompose)"
            );
        } else {
            let mut hists: Vec<Histogram> = vec![Histogram::default(); STAGES.len() + 1];
            for j in &journeys {
                if j.fate != Fate::Delivered {
                    continue;
                }
                for (i, d) in j.stages.iter().enumerate() {
                    if let Some(d) = d {
                        hists[i].observe(*d as f64 / 1e6);
                    }
                }
                if let Some(e) = j.end_to_end {
                    hists[STAGES.len()].observe(e as f64 / 1e6);
                }
            }
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>9} {:>9} {:>9} {:>9}",
                "stage", "count", "mean_ms", "p50_ms", "p95_ms", "max_ms"
            );
            for (i, name) in STAGES.iter().chain(["end-to-end"].iter()).enumerate() {
                let h = &hists[i];
                let _ = writeln!(
                    out,
                    "{:<16} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    name,
                    h.count(),
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.max()
                );
            }
        }

        // ---- critical path.
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "--- critical path (which stage dominated each delivered journey) ---"
        );
        if complete == 0 {
            let _ = writeln!(out, "(no delivered journeys)");
        } else {
            let mut dominated = [0u64; 5];
            for j in &journeys {
                if let Some(i) = j.critical_stage() {
                    dominated[i] += 1;
                }
            }
            let total: u64 = dominated.iter().sum();
            let _ = writeln!(out, "{:<16} {:>9} {:>7}", "stage", "dominated", "share");
            for (i, name) in STAGES.iter().enumerate() {
                let share = if total == 0 {
                    0.0
                } else {
                    dominated[i] as f64 * 100.0 / total as f64
                };
                let _ = writeln!(out, "{:<16} {:>9} {:>6.1}%", name, dominated[i], share);
            }
        }

        // ---- drop & loss lineage.
        let _ = writeln!(out);
        let _ = writeln!(out, "--- drop & loss lineage ---");
        let fmt_map = |map: &BTreeMap<String, u64>| -> String {
            if map.is_empty() {
                "none".to_string()
            } else {
                map.iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        let _ = writeln!(out, "sender discards: {}", fmt_map(&self.discards));
        let _ = writeln!(out, "radio losses:    {}", fmt_map(&self.losses));
        let _ = writeln!(out, "bus queue drops: {}", fmt_map(&self.bus_drops));
        let mut fates: BTreeMap<Fate, u64> = BTreeMap::new();
        for j in &journeys {
            *fates.entry(j.fate).or_insert(0) += 1;
        }
        let fate_line = if fates.is_empty() {
            "none".to_string()
        } else {
            fates
                .iter()
                .map(|(f, n)| format!("{}={n}", f.as_str()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "journey fates:   {fate_line}");
        // The undelivered journeys, each with its root and fate — the
        // lineage answer to "where did my message go?".
        for j in &journeys {
            if matches!(j.fate, Fate::Discarded | Fate::Lost | Fate::BusDropped) {
                let _ = writeln!(
                    out,
                    "  {} `{}` published at {:.3} s in {} -> {}",
                    j.root,
                    j.topic,
                    j.t_publish as f64 / 1e9,
                    j.span,
                    j.fate.as_str()
                );
            }
        }

        // ---- fault attribution.
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "--- fault windows (scripted faults and what the trace blames on them) ---"
        );
        if self.faults.is_empty() {
            let _ = writeln!(out, "none scripted");
        } else {
            for w in &self.faults {
                let t0 = w.begin_ns as f64 / 1e9;
                let dur = w.span_ns as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "#{} {:<13} [{:6.1} s, {:6.1} s){}",
                    w.window,
                    w.fault,
                    t0,
                    t0 + dur,
                    if w.closed {
                        ""
                    } else {
                        "  (still open at trace end)"
                    }
                );
                let _ = writeln!(
                    out,
                    "  inside: {} radio losses, {} sender discards, {} heartbeat misses, \
                     {} migration timeouts",
                    w.losses, w.discards, w.heartbeat_misses, w.migration_timeouts
                );
                let inside = w.speed.mean();
                let outside = self.speed_outside.mean();
                if w.speed.count() > 0 && self.speed_outside.count() > 0 {
                    let _ = writeln!(
                        out,
                        "  speed cap: mean {:.3} m/s inside vs {:.3} m/s outside fault windows",
                        inside, outside
                    );
                }
            }
            let blamed: u64 = self.faults.iter().map(|w| w.losses + w.discards).sum();
            let total: u64 =
                self.losses.values().sum::<u64>() + self.discards.values().sum::<u64>();
            let _ = writeln!(
                out,
                "{} of {} dropped/discarded datagrams fell inside a fault window",
                blamed.min(total),
                total
            );
        }
        if !self.backoffs.is_empty() {
            let waits = self
                .backoffs
                .iter()
                .map(|(_, wait, _)| format!("{:.1} s", *wait as f64 / 1e9))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "re-offload backoffs: {} (waits {})",
                self.backoffs.len(),
                waits
            );
        }

        // ---- anomalies.
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "--- anomalies: lying-RTT windows (rtt healthy while sender discards) ---"
        );
        let lying = self.lying_windows();
        if lying.is_empty() {
            let _ = writeln!(out, "none detected");
        } else {
            for w in &lying {
                let t0 = w.window_start_ns as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "[{:6.1} s, {:6.1} s): {} datagrams discarded while last RTT reads {:.1} ms \
                     ({:.1} s stale) -> RTT metric lies",
                    t0,
                    t0 + ANOMALY_WINDOW_NS as f64 / 1e9,
                    w.discards,
                    w.last_rtt_ms,
                    w.rtt_age_ns as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "{} window(s) where RTT telemetry ({} samples total) hid sender-side loss",
                lying.len(),
                self.total_rtt_samples
            );
        }

        // ---- recovery SLOs (only when the resilience kinds are
        // present, so earlier traces render byte-identically).
        if let Some(r) = self.recovery_report() {
            let _ = writeln!(out);
            let _ = writeln!(out, "--- recovery SLOs ---");
            let _ = writeln!(
                out,
                "checkpoints: {} completed ({} snapshot bytes streamed)",
                r.checkpoints, r.checkpoint_bytes
            );
            let _ = writeln!(
                out,
                "replica fault windows: {} crash, {} straggle",
                r.replica_crash_windows, r.replica_straggle_windows
            );
            let _ = writeln!(
                out,
                "degraded mode: {} entries, {:.3} s held ({:.1}% of trace), {} missed cycles",
                r.degrade_entries,
                r.degraded_ns as f64 / 1e9,
                r.degraded_fraction * 100.0,
                r.missed_cycles
            );
            for (t_ns, cause) in &self.degrade_enters {
                let _ = writeln!(
                    out,
                    "  entered at {:.3} s (cause: {cause})",
                    *t_ns as f64 / 1e9
                );
            }
            match r.mean_time_to_detect_ns {
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "time-to-detect: mean {:.3} s (replica crash -> heartbeat miss)",
                        d as f64 / 1e9
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "time-to-detect: n/a (no heartbeat miss followed a replica crash)"
                    );
                }
            }
            match r.mean_time_to_recover_ns {
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "time-to-recover: mean {:.3} s (heartbeat miss -> re-offload), \
                         {} outage(s) unrecovered at trace end",
                        d as f64 / 1e9,
                        r.unrecovered_outages
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "time-to-recover: n/a ({} outage(s) unrecovered at trace end)",
                        r.unrecovered_outages
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ms: u64, seq: u64, span: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_ns: t_ms * 1_000_000,
            seq,
            span: SpanId(span),
            vehicle: 0,
            event,
        }
    }

    fn publish(topic: &str, msg: u64, parent: u64) -> TraceEvent {
        TraceEvent::BusPublish {
            topic: topic.into(),
            bytes: 100,
            fanout: 1,
            msg: MsgId(msg),
            parent: MsgId(parent),
        }
    }

    fn send(dir: &str, msg: u64, outcome: SendKind) -> TraceEvent {
        TraceEvent::ChannelSend {
            dir: dir.into(),
            seq: msg,
            bytes: 100,
            outcome,
            msg: MsgId(msg),
        }
    }

    fn deliver(dir: &str, msg: u64, latency_ms: u64) -> TraceEvent {
        TraceEvent::ChannelDeliver {
            dir: dir.into(),
            seq: msg,
            msg: MsgId(msg),
            latency_ns: latency_ms * 1_000_000,
        }
    }

    fn loss(msg: u64) -> TraceEvent {
        TraceEvent::ChannelLoss {
            dir: "up".into(),
            seq: msg,
            msg: MsgId(msg),
        }
    }

    fn miss() -> TraceEvent {
        TraceEvent::HeartbeatMiss {
            silence_ns: 1_600_000_000,
        }
    }

    fn decision(max_linear: f64) -> TraceEvent {
        TraceEvent::ControlDecision {
            local_vdp_ns: 1,
            cloud_vdp_ns: 1,
            bandwidth: 5.0,
            direction: 0.1,
            vdp_remote: true,
            max_linear,
            net_decision: "hold".into(),
        }
    }

    /// `records` re-tagged with envelope `vehicle`.
    fn on(vehicle: u64, records: impl IntoIterator<Item = TraceRecord>) -> Vec<TraceRecord> {
        records
            .into_iter()
            .map(|r| TraceRecord { vehicle, ..r })
            .collect()
    }

    /// `records` moved `ms` later on the virtual clock.
    fn shift(ms: u64, records: Vec<TraceRecord>) -> Vec<TraceRecord> {
        records
            .into_iter()
            .map(|r| TraceRecord {
                t_ns: r.t_ns + ms * 1_000_000,
                ..r
            })
            .collect()
    }

    /// One complete offload journey: scan publish -> uplink -> remote
    /// republish -> remote compute -> cmd publish -> downlink ->
    /// robot republish.
    fn complete_journey() -> Vec<TraceRecord> {
        let cycle = TraceEvent::SpanBegin {
            span: SpanId(1),
            name: "cycle".into(),
            index: 0,
        };
        let compute = TraceEvent::ProfileSample {
            node: "Slam".into(),
            remote: true,
            nanos: 40_000_000,
            msg: MsgId(2),
        };
        vec![
            rec(0, 0, 1, cycle),
            rec(0, 1, 1, publish("scan", 1, 0)),
            rec(1, 2, 1, send("up", 1, SendKind::Transmitted)),
            rec(13, 3, 1, deliver("up", 1, 12)),
            rec(13, 4, 1, publish("scan", 2, 1)),
            rec(53, 5, 1, compute),
            rec(53, 6, 1, publish("cmd_vel", 3, 2)),
            rec(54, 7, 1, send("down", 3, SendKind::Transmitted)),
            rec(64, 8, 1, deliver("down", 3, 10)),
            rec(65, 9, 1, publish("cmd_vel", 4, 3)),
            rec(200, 10, 1, TraceEvent::SpanEnd { span: SpanId(1) }),
        ]
    }

    /// Three uplink journeys: discarded at the sender, lost in the air,
    /// never sent.
    fn fates() -> Vec<TraceRecord> {
        vec![
            rec(0, 0, 0, publish("scan", 11, 0)),
            rec(1, 1, 0, send("up", 11, SendKind::Discarded)),
            rec(10, 2, 0, publish("scan", 12, 0)),
            rec(11, 3, 0, send("up", 12, SendKind::Transmitted)),
            rec(12, 4, 0, loss(12)),
            rec(20, 5, 0, publish("scan", 13, 0)),
        ]
    }

    /// A healthy 24 ms RTT sample, then `n` sender discards inside one
    /// anomaly window.
    fn lying_burst(n: u64) -> Vec<TraceRecord> {
        let mut records = vec![rec(100, 0, 0, TraceEvent::RttSample { rtt_ns: 24_000_000 })];
        for i in 0..n {
            let discard = send("up", 100 + i, SendKind::Discarded);
            records.push(rec(1_200 + i * 10, i + 1, 0, discard));
        }
        records
    }

    /// A 2 s blackout: full speed before it; a loss, a discard, a
    /// heartbeat miss and a lower speed cap inside; one more loss and
    /// a re-offload backoff after it.
    fn fault_window() -> Vec<TraceRecord> {
        let edge = |begin: bool| {
            let (fault, window) = ("blackout".to_string(), 0);
            if begin {
                TraceEvent::FaultBegin {
                    fault,
                    window,
                    window_ns: 2_000_000_000,
                }
            } else {
                TraceEvent::FaultEnd { fault, window }
            }
        };
        let backoff = TraceEvent::ReoffloadBackoff {
            wait_ns: 2_000_000_000,
            failures: 1,
        };
        vec![
            rec(0, 0, 0, decision(0.15)),
            rec(1_000, 1, 0, edge(true)),
            rec(1_100, 2, 0, loss(0)),
            rec(1_200, 3, 0, send("up", 0, SendKind::Discarded)),
            rec(1_300, 4, 0, miss()),
            rec(1_400, 5, 0, decision(0.08)),
            rec(3_000, 6, 0, edge(false)),
            rec(3_100, 7, 0, loss(0)),
            rec(5_000, 8, 0, backoff),
        ]
    }

    /// Vehicle 1 delivers a full journey; vehicle 2 only discards.
    fn fleet() -> Vec<TraceRecord> {
        let mut records = on(1, complete_journey());
        records.extend(on(
            2,
            [
                rec(300, 11, 0, publish("scan", 50, 0)),
                rec(301, 12, 0, send("up", 50, SendKind::Discarded)),
            ],
        ));
        records
    }

    /// A batched join on vehicle 2 and a replica scale-up seen by
    /// vehicle 1.
    fn elastic() -> Vec<TraceRecord> {
        let batch = TraceEvent::CloudBatch {
            stage: "slam".into(),
            occupancy: 2,
            window: 2,
            marginal_ns: 6_000_000,
        };
        let scale = TraceEvent::CloudScale {
            from_replicas: 1,
            to_replicas: 2,
            utilization: 1.5,
            window: 3,
        };
        let mut records = on(2, [rec(400, 20, 0, batch)]);
        records.extend(on(1, [rec(410, 21, 0, scale)]));
        records
    }

    /// Two vehicles in two regions, one served across the WAN.
    fn sharded() -> Vec<TraceRecord> {
        let assign = |region, wan| TraceEvent::RegionAssign {
            region,
            cloud_pool: 0,
            wan,
        };
        let hop = || TraceEvent::WanHop {
            from_region: 1,
            to_region: 0,
            delay_ns: 10_000_000,
        };
        vec![
            rec(0, 0, 0, assign(0, false)),
            rec(1, 1, 0, assign(1, true)),
            rec(200, 2, 0, hop()),
            rec(400, 3, 0, hop()),
        ]
    }

    /// algorithm1 flips once (remote -> local); the bandit ticks once.
    fn policy_ticks() -> Vec<TraceRecord> {
        let decide = |policy: &str, remote: &str| TraceEvent::PolicyDecide {
            policy: policy.into(),
            remote: remote.into(),
            expected_vdp_ns: 100_000_000,
            max_velocity: 0.5,
        };
        vec![
            rec(200, 0, 0, decide("algorithm1", "costmap_gen+path_tracking")),
            rec(400, 1, 0, decide("algorithm1", "costmap_gen+path_tracking")),
            rec(600, 2, 0, decide("algorithm1", "-")),
            rec(800, 3, 0, decide("bandit", "-")),
        ]
    }

    /// Checkpoint, replica crash, miss, degraded spell, re-offload,
    /// straggler, and a final miss that never recovers.
    fn recovery_arc() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                0,
                TraceEvent::Checkpoint {
                    bytes: 5184,
                    elapsed_ns: 40_000_000,
                },
            ),
            rec(
                2_000,
                1,
                0,
                TraceEvent::ReplicaCrash {
                    replicas: 1,
                    window: 0,
                    window_ns: 4_000_000_000,
                },
            ),
            rec(3_000, 2, 0, miss()),
            rec(
                4_000,
                3,
                0,
                TraceEvent::DegradeEnter {
                    cause: "blackout".into(),
                    slam_particles: 4,
                    dwa_samples: 100,
                },
            ),
            rec(
                9_000,
                4,
                0,
                TraceEvent::DegradeExit {
                    held_ns: 5_000_000_000,
                    missed_cycles: 0,
                },
            ),
            rec(10_000, 5, 0, TraceEvent::NetSwitch { to_remote: true }),
            rec(
                12_000,
                6,
                0,
                TraceEvent::ReplicaStraggle {
                    factor: 2.5,
                    window: 1,
                    window_ns: 2_000_000_000,
                },
            ),
            rec(13_000, 7, 0, miss()),
        ]
    }

    #[test]
    fn reconstructs_a_complete_journey() {
        let a = TraceAnalysis::from_records(&complete_journey());
        assert_eq!(a.journeys().len(), 1);
        assert_eq!(a.cycles, 1);
        let j = &a.journeys()[0];
        assert_eq!(j.fate, Fate::Delivered);
        assert_eq!(j.stages[0], Some(1_000_000)); // publish->uplink
        assert_eq!(j.stages[1], Some(12_000_000)); // uplink air
        assert_eq!(j.stages[2], Some(40_000_000)); // cloud compute
        assert_eq!(j.stages[3], Some(10_000_000)); // downlink air
        assert_eq!(j.stages[4], Some(1_000_000)); // delivery
        assert_eq!(j.end_to_end, Some(65_000_000));
        assert_eq!(j.critical_stage(), Some(2)); // compute dominates
        let report = a.render_report();
        assert!(report.contains("journeys: 1 reconstructed, 1 delivered end-to-end"));
        assert!(report.contains("cloud compute"));
        assert!(report.contains("none detected"));
    }

    #[test]
    fn classifies_discard_and_loss_fates() {
        let a = TraceAnalysis::from_records(&fates());
        assert_eq!(a.journeys().len(), 3);
        let fates: Vec<Fate> = a.journeys().iter().map(|j| j.fate).collect();
        assert_eq!(fates, vec![Fate::Discarded, Fate::Lost, Fate::Local]);
        let report = a.render_report();
        assert!(report.contains("journeys: 3 reconstructed, 0 delivered end-to-end"));
        assert!(report.contains("sender discards: up=1"));
        assert!(report.contains("radio losses:    up=1"));
        assert!(report.contains("msg#11 `scan`"));
    }

    #[test]
    fn lone_publish_evicted_from_a_bus_queue_is_a_bus_drop() {
        let drop = TraceEvent::BusDrop {
            topic: "map".into(),
            msg: MsgId(21),
        };
        let a =
            TraceAnalysis::from_records(&[rec(0, 0, 0, publish("map", 21, 0)), rec(1, 1, 0, drop)]);
        let fates: Vec<Fate> = a.journeys().iter().map(|j| j.fate).collect();
        assert_eq!(fates, vec![Fate::BusDropped]);
        let report = a.render_report();
        assert!(report.contains("bus queue drops: map=1"), "{report}");
        assert!(report.contains("dropped on a bus queue=1"), "{report}");
        assert!(!report.contains("handled locally"), "{report}");
    }

    #[test]
    fn lying_rtt_needs_healthy_rtt_and_enough_discards() {
        // Healthy RTT then a burst of discards in one window: flagged.
        let a = TraceAnalysis::from_records(&lying_burst(4));
        assert_eq!(a.lying_windows().len(), 1);
        let report = a.render_report();
        assert!(report.contains("RTT metric lies"));
        assert!(report.contains("24.0 ms"));

        // Too few discards: not flagged.
        let few = lying_burst(2);
        assert_eq!(TraceAnalysis::from_records(&few).lying_windows().len(), 0);

        // Unhealthy RTT (the monitor already sees trouble): not lying.
        let mut honest = lying_burst(4);
        honest[0].event = TraceEvent::RttSample {
            rtt_ns: 900_000_000,
        };
        assert_eq!(
            TraceAnalysis::from_records(&honest).lying_windows().len(),
            0
        );

        // No RTT sample at all: nothing to lie.
        let blind = &lying_burst(3)[1..];
        assert_eq!(TraceAnalysis::from_records(blind).lying_windows().len(), 0);
    }

    #[test]
    fn fault_windows_attribute_losses_and_speed() {
        let a = TraceAnalysis::from_records(&fault_window());
        assert_eq!(a.fault_window_count(), 1);
        assert_eq!(a.heartbeat_miss_count(), 1);
        assert_eq!(a.backoff_count(), 1);
        let w = &a.faults[0];
        assert!(w.closed);
        assert_eq!(w.losses, 1, "post-window loss must not be blamed on it");
        assert_eq!(w.discards, 1);
        assert_eq!(w.heartbeat_misses, 1);
        assert_eq!(w.speed.count(), 1);
        assert_eq!(a.speed_outside.count(), 1);
        let report = a.render_report();
        assert!(report.contains("#0 blackout"));
        assert!(report.contains("1 radio losses, 1 sender discards, 1 heartbeat misses"));
        assert!(report.contains("speed cap: mean 0.080 m/s inside vs 0.150 m/s outside"));
        assert!(report.contains("2 of 3 dropped/discarded datagrams fell inside a fault window"));
        assert!(report.contains("re-offload backoffs: 1 (waits 2.0 s)"));
    }

    #[test]
    fn report_is_deterministic() {
        let records = complete_journey();
        let a = TraceAnalysis::from_records(&records).render_report();
        let b = TraceAnalysis::from_records(&records).render_report();
        assert_eq!(a, b);
    }

    #[test]
    fn untagged_traces_render_no_vehicle_section() {
        let a = TraceAnalysis::from_records(&complete_journey());
        assert_eq!(a.vehicles.len(), 0);
        assert!(!a.render_report().contains("per-vehicle attribution"));
    }

    #[test]
    fn fleet_traces_attribute_per_vehicle() {
        let a = TraceAnalysis::from_records(&fleet());
        assert_eq!(a.vehicles.len(), 2);
        let report = a.render_report();
        assert!(report.contains("per-vehicle attribution"));
        // The row's cycles, journeys, delivered and discards columns.
        let row = |v: &str| -> Vec<&str> {
            let line = report.lines().find(|l| l.starts_with(v)).expect(v);
            line.split_whitespace().skip(2).take(4).collect()
        };
        assert_eq!(row("v1 "), ["1", "1", "1", "0"]);
        assert_eq!(row("v2 "), ["0", "1", "0", "1"]);
        // No elastic cloud events: the section must not render.
        assert!(!report.contains("elastic cloud"));
        // No region events either: the sharding section must not
        // render for unsharded fleet traces.
        assert!(!report.contains("regional sharding"));
        assert_eq!(a.region_vehicles.len(), 0);
    }

    #[test]
    fn sharded_traces_report_regions_and_wan_hops() {
        let a = TraceAnalysis::from_records(&sharded());
        assert_eq!(a.region_vehicles.len(), 2);
        assert_eq!(a.wan_hops, 2);
        assert_eq!(a.wan_delay_ns, 20_000_000);
        let report = a.render_report();
        assert!(report.contains("regional sharding"));
        assert!(report.contains("region r1: 1 vehicle(s)"));
        assert!(report.contains("route r1 -> r0"));
        assert!(report.contains("1 served by a remote pool"));
    }

    #[test]
    fn policy_section_requires_policy_decide_events() {
        // A pre-decision-layer trace must render without the section
        // and count zero decisions.
        let legacy = vec![rec(5_000, 1, 0, TraceEvent::NetSwitch { to_remote: true })];
        let a = TraceAnalysis::from_records(&legacy);
        assert_eq!(a.policies.values().map(|p| p.decisions).sum::<u64>(), 0);
        assert!(a.policies.is_empty());
        assert!(!a.render_report().contains("policy decisions"));
    }

    #[test]
    fn policy_section_aggregates_decisions_and_flips() {
        let a = TraceAnalysis::from_records(&policy_ticks());
        assert_eq!(a.policies.values().map(|p| p.decisions).sum::<u64>(), 4);
        assert_eq!(
            a.policies.keys().collect::<Vec<_>>(),
            ["algorithm1", "bandit"]
        );
        // algorithm1 flipped once (remote -> local); the bandit's
        // single tick has no predecessor, so no flip.
        assert_eq!(a.policies.values().map(|p| p.flips).sum::<u64>(), 1);
        let rendered = a.render_report();
        assert!(rendered.contains("policy decisions"));
        assert!(rendered.contains("algorithm1"));
        assert!(rendered.contains("bandit"));
    }

    #[test]
    fn recovery_report_requires_a_resilience_kind() {
        // heartbeat_miss + net_switch alone (the pre-resilience chaos
        // vocabulary) must not trigger the section.
        let legacy = vec![
            rec(1_000, 0, 0, miss()),
            rec(5_000, 1, 0, TraceEvent::NetSwitch { to_remote: true }),
        ];
        let a = TraceAnalysis::from_records(&legacy);
        assert!(a.recovery_report().is_none());
        assert!(!a.render_report().contains("recovery SLOs"));
    }

    #[test]
    fn recovery_report_computes_the_slos() {
        let a = TraceAnalysis::from_records(&recovery_arc());
        let r = a.recovery_report().expect("resilience kinds present");
        assert_eq!((r.checkpoints, r.checkpoint_bytes), (1, 5184));
        assert_eq!(r.degrade_entries, 1);
        assert_eq!(r.degraded_ns, 5_000_000_000);
        assert_eq!(r.missed_cycles, 0);
        assert_eq!(r.replica_crash_windows, 1);
        assert_eq!(r.replica_straggle_windows, 1);
        // Crash at 2 s, first miss at 3 s: 1 s to detect.
        assert_eq!(r.mean_time_to_detect_ns, Some(1_000_000_000));
        // Miss at 3 s recovers at the 10 s re-offload (7 s); the 13 s
        // miss never recovers.
        assert_eq!(r.mean_time_to_recover_ns, Some(7_000_000_000));
        assert_eq!(r.unrecovered_outages, 1);
        // Degraded fraction over the 13 s trace span.
        assert!((r.degraded_fraction - 5.0 / 13.0).abs() < 1e-9);
        let report = a.render_report();
        assert!(report.contains("--- recovery SLOs ---"), "{report}");
        assert!(
            report.contains("checkpoints: 1 completed (5184"),
            "{report}"
        );
        assert!(report.contains("1 crash, 1 straggle"), "{report}");
        assert!(report.contains("time-to-detect: mean 1.000 s"), "{report}");
        assert!(report.contains("time-to-recover: mean 7.000 s"), "{report}");
        assert!(report.contains("1 outage(s) unrecovered"), "{report}");
    }

    #[test]
    fn elastic_cloud_events_render_attributed_section() {
        let mut records = on(1, complete_journey());
        records.extend(elastic());
        let a = TraceAnalysis::from_records(&records);
        assert_eq!(a.cloud_batch_joins, 1);
        assert_eq!(a.cloud_scales.len(), 1);
        assert_eq!(a.vehicles[&2].cloud_batches, 1);
        let report = a.render_report();
        assert!(report.contains("--- elastic cloud ---"), "{report}");
        assert!(report.contains("batched joins: 1"), "{report}");
        assert!(report.contains("replicas 1 -> 2"), "{report}");
    }

    /// The fixtures above laid end to end on a two-vehicle mission, so
    /// that every report section opens.
    fn every_section() -> Vec<TraceRecord> {
        let start = TraceEvent::MissionStart {
            workload: "navigation".into(),
            deployment: "edge-8t".into(),
            seed: 7,
        };
        let end = TraceEvent::MissionEnd {
            completed: true,
            reason: "goal reached".into(),
        };
        let mut records = vec![rec(0, 0, 0, start)];
        records.extend(fleet());
        records.extend(elastic());
        records.extend(shift(500, sharded()));
        records.extend(shift(1_000, policy_ticks()));
        records.extend(on(2, shift(2_000, fates())));
        records.extend(shift(3_000, fault_window()));
        records.extend(on(1, shift(9_000, lying_burst(4))));
        records.extend(shift(11_000, recovery_arc()));
        records.push(rec(24_000, 0, 0, end));
        for (seq, r) in records.iter_mut().enumerate() {
            r.seq = seq as u64;
        }
        records
    }

    /// The whole report of [`every_section`], pinned byte for byte.
    #[test]
    fn golden_report_covers_every_section() {
        let report = TraceAnalysis::from_records(&every_section()).render_report();
        assert_eq!(report, GOLDEN_REPORT, "\n{report}");
    }

    const GOLDEN_REPORT: &str = r#"=== trace report ===
mission: navigation on edge-8t (seed 7)
outcome: completed (goal reached)
records: 53 spanning 24.0 s of virtual time
cycles: 1   events/cycle: mean 11.0, p95 11, max 11
journeys: 5 reconstructed, 1 delivered end-to-end

--- per-vehicle attribution ---
vehicle   records  cycles  journeys  delivered  discards  losses  rtts batches
v1             17       1         1          1         4       0     1       0
v2              9       0         4          0         2       1     0       1

--- elastic cloud ---
batched joins: 1 (0.006 s marginal compute charged)
replica scale events: 1
  t=   0.410s  replicas 1 -> 2  (window utilization 1.50)

--- regional sharding ---
regions: 2 (2 vehicles assigned, 1 served by a remote pool)
  region r0: 1 vehicle(s)
  region r1: 1 vehicle(s)
wan hops: 2 admissions, 0.020 s total surcharge, 1 route(s)
  route r1 -> r0

--- policy decisions ---
policy       decisions    remote   flips   mean_vdp_ms  mean_vmax
algorithm1           3         2       1       100.000      0.500
bandit               1         0       0       100.000      0.500

--- latency waterfall (1 delivered journeys) ---
stage             count   mean_ms    p50_ms    p95_ms    max_ms
publish->uplink       1     1.000     1.000     1.000     1.000
uplink air            1    12.000    12.000    12.000    12.000
cloud compute         1    40.000    40.000    40.000    40.000
downlink air          1    10.000    10.000    10.000    10.000
delivery              1     1.000     1.000     1.000     1.000
end-to-end            1    65.000    65.000    65.000    65.000

--- critical path (which stage dominated each delivered journey) ---
stage            dominated   share
publish->uplink          0    0.0%
uplink air               0    0.0%
cloud compute            1  100.0%
downlink air             0    0.0%
delivery                 0    0.0%

--- drop & loss lineage ---
sender discards: up=7
radio losses:    up=3
bus queue drops: none
journey fates:   delivered=1, discarded at sender=2, lost in the air=1, handled locally=1
  msg#11 `scan` published at 2.000 s in span#0 -> discarded at sender
  msg#12 `scan` published at 2.010 s in span#0 -> lost in the air
  msg#50 `scan` published at 0.300 s in span#0 -> discarded at sender

--- fault windows (scripted faults and what the trace blames on them) ---
#0 blackout      [   4.0 s,    6.0 s)
  inside: 1 radio losses, 1 sender discards, 1 heartbeat misses, 0 migration timeouts
  speed cap: mean 0.080 m/s inside vs 0.150 m/s outside fault windows
2 of 10 dropped/discarded datagrams fell inside a fault window
re-offload backoffs: 1 (waits 2.0 s)

--- anomalies: lying-RTT windows (rtt healthy while sender discards) ---
[  10.0 s,   11.0 s): 4 datagrams discarded while last RTT reads 24.0 ms (1.1 s stale) -> RTT metric lies
1 window(s) where RTT telemetry (1 samples total) hid sender-side loss

--- recovery SLOs ---
checkpoints: 1 completed (5184 snapshot bytes streamed)
replica fault windows: 1 crash, 1 straggle
degraded mode: 1 entries, 5.000 s held (20.8% of trace), 0 missed cycles
  entered at 15.000 s (cause: blackout)
time-to-detect: mean 1.000 s (replica crash -> heartbeat miss)
time-to-recover: mean 11.850 s (heartbeat miss -> re-offload), 1 outage(s) unrecovered at trace end
"#;
}
