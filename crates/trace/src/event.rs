//! Trace event vocabulary and the deterministic JSON encoding.
//!
//! Every observable action in the stack maps to exactly one
//! [`TraceEvent`] variant. Variants are grouped into coarse
//! [`EventCategory`] buckets (one per instrumented subsystem) so tests
//! and dashboards can assert coverage without enumerating every kind.
//!
//! The `trace_events!` table below is the schema: one row per variant
//! gives its docs, name, wire `kind`, category and typed fields, and
//! the enum, [`TraceEvent::kind`], [`TraceEvent::category`],
//! [`TraceEvent::KINDS`], the encoder and the [`crate::TraceReader`]
//! decoder are all generated from it. Adding a kind means one row here
//! plus one row in `docs/OBSERVABILITY.md`; the golden-line test in
//! `reader.rs` and `tests/schema_doc.rs` fail until both exist.
//!
//! The JSON encoding is hand-rolled (this crate has no dependencies)
//! and **byte-for-byte deterministic**: field order is the row's
//! declaration order, integers print in decimal, and floats print via
//! Rust's shortest-roundtrip `{:?}` formatting. See
//! `docs/OBSERVABILITY.md` for the full schema reference.

use crate::json::{write_escaped, Value};
use crate::span::{MsgId, SpanId};
use std::fmt::Write as _;

/// What happened to a simulated UDP `send` (mirrors the outcome enum
/// of the network layer without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// Handed to the radio (may still be lost in the air).
    Transmitted,
    /// Held in the one-slot kernel buffer (weak-signal blocking).
    Held,
    /// Silently dropped at the sender: kernel buffer already full.
    Discarded,
}

impl SendKind {
    /// Every outcome, in declaration order.
    pub const ALL: [SendKind; 3] = [SendKind::Transmitted, SendKind::Held, SendKind::Discarded];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SendKind::Transmitted => "transmitted",
            SendKind::Held => "held",
            SendKind::Discarded => "discarded",
        }
    }
}

/// Coarse event grouping, one per instrumented subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// Mission lifecycle and per-cycle progress.
    Mission,
    /// Causal span boundaries (one span per control cycle).
    Span,
    /// Pub/sub bus activity (publishes, queue drops).
    Bus,
    /// Simulated UDP channel activity (sends, radio losses).
    Channel,
    /// Round-trip-time samples from echoed stamps.
    Rtt,
    /// Per-node processing-time samples from the Profiler.
    Profile,
    /// Runtime Controller decisions (Algorithm 1 + Algorithm 2).
    Control,
    /// Thread-governor recommendations (§VIII-E).
    Governor,
    /// Energy-ledger deltas (Eq. 1a components).
    Energy,
    /// Placement switches and node-state migration transfers.
    Migration,
    /// Injected fault windows opening and closing.
    Fault,
    /// Elastic shared-cloud activity: batched admissions and replica
    /// autoscaling (emitted only by fleet runs with a shared cloud).
    Cloud,
    /// Regional fleet sharding: vehicle→region placement and
    /// cross-region WAN hops (emitted only by sharded fleet runs).
    Region,
}

impl EventCategory {
    /// Every category, in a fixed documentation order.
    pub const ALL: [EventCategory; 13] = [
        EventCategory::Mission,
        EventCategory::Span,
        EventCategory::Bus,
        EventCategory::Channel,
        EventCategory::Rtt,
        EventCategory::Profile,
        EventCategory::Control,
        EventCategory::Governor,
        EventCategory::Energy,
        EventCategory::Migration,
        EventCategory::Fault,
        EventCategory::Cloud,
        EventCategory::Region,
    ];

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventCategory::Mission => "mission",
            EventCategory::Span => "span",
            EventCategory::Bus => "bus",
            EventCategory::Channel => "channel",
            EventCategory::Rtt => "rtt",
            EventCategory::Profile => "profile",
            EventCategory::Control => "control",
            EventCategory::Governor => "governor",
            EventCategory::Energy => "energy",
            EventCategory::Migration => "migration",
            EventCategory::Fault => "fault",
            EventCategory::Cloud => "cloud",
            EventCategory::Region => "region",
        }
    }
}

/// The wire name of a field: its Rust name unless the row overrides it.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $wire:literal) => {
        $wire
    };
}

/// Generates [`TraceEvent`] and its whole wire schema from one table.
///
/// Each row is `Variant = "kind" in Category { fields }`, with the
/// variant's and each field's doc comments. A fieldless row has no
/// braces and becomes a unit variant. `field as "name": Type` encodes
/// the field under another key. Every field type implements [`Field`].
macro_rules! trace_events {
    (
        $(#[$enum_doc:meta])*
        pub enum TraceEvent {$(
            $(#[$doc:meta])*
            $name:ident = $kind:literal in $cat:ident $({$(
                $(#[$field_doc:meta])*
                $field:ident $(as $wire:literal)?: $ty:ty
            ),* $(,)?})?
        ),+ $(,)?}
    ) => {
        $(#[$enum_doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {$(
            $(#[$doc])*
            $name $({$(
                $(#[$field_doc])*
                $field: $ty,
            )*})?,
        )+}

        impl TraceEvent {
            /// Every kind in declaration order: its wire `kind` string,
            /// its category, and its field names in encoding order.
            pub const KINDS: &[(&str, EventCategory, &[&str])] = &[$(
                ($kind, EventCategory::$cat, &[$($(wire_name!($field $($wire)?)),*)?]),
            )+];

            /// Stable snake-case kind name (the JSON `kind` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $kind,)+
                }
            }

            /// The coarse subsystem bucket this event belongs to.
            pub fn category(&self) -> EventCategory {
                match self {
                    $(TraceEvent::$name { .. } => EventCategory::$cat,)+
                }
            }

            /// Append this event's fields (past `kind`) to a JSON object body.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$name { $($($field),*)? } => {
                        $($(Field::encode($field, out, wire_name!($field $($wire)?));)*)?
                    })+
                }
            }

            /// Rebuild the event of `kind` from the fields that follow
            /// `kind` on its line.
            pub(crate) fn decode(kind: &str, fields: &[(String, Value)]) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $($kind => TraceEvent::$name {
                        $($($field: field(fields, wire_name!($field $($wire)?))?,)*)?
                    },)+
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }
    };
}

trace_events! {
    /// One structured observation from the instrumented stack.
    ///
    /// All timestamps and durations are virtual-time nanoseconds (`u64`),
    /// never wall-clock — traces replay identically for a given seed.
    pub enum TraceEvent {
        /// A mission began.
        MissionStart = "mission_start" in Mission {
            /// Workload name (`Navigation` / `Exploration`).
            workload: String,
            /// Deployment label (Fig. 12/13 scenario).
            deployment: String,
            /// Master seed (replays of the same seed produce identical
            /// traces).
            seed: u64,
        },
        /// One control cycle's position/goal/battery snapshot.
        MissionProgress = "mission_progress" in Mission {
            /// Ground-truth x (m).
            x: f64,
            /// Ground-truth y (m).
            y: f64,
            /// Current goal x (m).
            goal_x: f64,
            /// Current goal y (m).
            goal_y: f64,
            /// Straight-line distance to the goal (m).
            goal_dist: f64,
            /// Battery state of charge in [0, 1].
            battery_soc: f64,
        },
        /// The mission ended.
        MissionEnd = "mission_end" in Mission {
            /// Whether the goal was achieved within the caps.
            completed: bool,
            /// Human-readable reason.
            reason: String,
        },
        /// A causal span opened (one per 200 ms control cycle).
        SpanBegin = "span_begin" in Span {
            /// The span's id; every record emitted until the matching
            /// [`TraceEvent::SpanEnd`] carries it in its envelope.
            span as "span_id": SpanId,
            /// Span name (`cycle` for control cycles).
            name: String,
            /// Ordinal of this span among same-named spans (cycle number).
            index: u64,
        },
        /// A causal span closed.
        SpanEnd = "span_end" in Span {
            /// The span that closed.
            span as "span_id": SpanId,
        },
        /// A message was published on a bus topic.
        BusPublish = "bus_publish" in Bus {
            /// Topic name.
            topic: String,
            /// Serialized payload size.
            bytes: u64,
            /// Number of subscriber queues the bytes fanned out to.
            fanout: u32,
            /// Lineage id allocated to this message.
            msg: MsgId,
            /// Origin message when this publish relays another message
            /// across hosts ([`MsgId::NONE`] for fresh publishes).
            parent: MsgId,
        },
        /// A full bounded subscriber queue dropped its oldest message
        /// (the freshness-over-completeness policy in action).
        BusDrop = "bus_drop" in Bus {
            /// Topic name.
            topic: String,
            /// Lineage id of the dropped (oldest) message.
            msg: MsgId,
        },
        /// A datagram was offered to a simulated UDP channel.
        ChannelSend = "channel_send" in Channel {
            /// Channel direction label (`up` / `down` / `tcp`).
            dir: String,
            /// Channel sequence number.
            seq: u64,
            /// Payload size.
            bytes: u64,
            /// What the simulated UDP send did with it.
            outcome: SendKind,
            /// Lineage id of the bus message inside the datagram
            /// ([`MsgId::NONE`] for control chatter such as acks).
            msg: MsgId,
        },
        /// A transmitted datagram was lost in the air.
        ChannelLoss = "channel_loss" in Channel {
            /// Channel direction label.
            dir: String,
            /// Channel sequence number.
            seq: u64,
            /// Lineage id of the lost datagram's message.
            msg: MsgId,
        },
        /// A datagram reached the receive queue (emitted at the tick that
        /// observed the arrival; `latency_ns` is the true channel latency
        /// including any time parked in the kernel buffer).
        ChannelDeliver = "channel_deliver" in Channel {
            /// Channel direction label.
            dir: String,
            /// Channel sequence number.
            seq: u64,
            /// Lineage id of the delivered message.
            msg: MsgId,
            /// `arrived_at - sent_at` for the datagram.
            latency_ns: u64,
        },
        /// A round-trip-time sample from an echoed stamp.
        RttSample = "rtt_sample" in Rtt {
            /// The measured RTT.
            rtt_ns: u64,
        },
        /// The Profiler recorded a node's processing time.
        ProfileSample = "profile_sample" in Profile {
            /// Node name.
            node: String,
            /// Whether the node ran on the remote platform.
            remote: bool,
            /// Processing time.
            nanos: u64,
            /// Lineage id of the message the activation consumed
            /// ([`MsgId::NONE`] when the input did not ride the bus).
            msg: MsgId,
        },
        /// One runtime-Controller evaluation: the Algorithm 1 makespan
        /// inputs, the Algorithm 2 network inputs, and the outputs.
        ControlDecision = "control_decision" in Control {
            /// `T_l^v`: all-local VDP makespan estimate.
            local_vdp_ns: u64,
            /// `T_c`: offloaded VDP makespan estimate (network included).
            cloud_vdp_ns: u64,
            /// Packet bandwidth `r_t` (packets/s).
            bandwidth: f64,
            /// Signal direction `d_t` (positive = approaching the WAP).
            direction: f64,
            /// Whether the VDP runs remotely this cycle.
            vdp_remote: bool,
            /// Eq. 2c maximum linear velocity in force.
            max_linear: f64,
            /// Algorithm 2 verdict (`keep` / `invoke_local` /
            /// `invoke_remote`).
            net_decision: String,
        },
        /// One offload-policy decision tick: which `OffloadPolicy`
        /// implementation produced this cycle's placement plan and what it
        /// chose (the decision-layer counterpart of
        /// [`TraceEvent::ControlDecision`], which records the applied
        /// actuation outputs).
        PolicyDecide = "policy_decide" in Control {
            /// Policy name (`algorithm1` / `global` / `bandit`).
            policy: String,
            /// Chosen remote node set (`+`-joined short names, `-` when
            /// everything stays on the vehicle).
            remote: String,
            /// The plan's expected VDP makespan.
            expected_vdp_ns: u64,
            /// The plan's advisory Eq. 2c velocity.
            max_velocity: f64,
        },
        /// A thread-governor recommendation (§VIII-E).
        GovernorDecision = "governor_decision" in Governor {
            /// Mean velocity-gap ratio over the window.
            mean_gap: f64,
            /// Recommended remote thread count.
            threads: u32,
        },
        /// Energy accumulated by one component since the previous delta.
        EnergyDelta = "energy_delta" in Energy {
            /// Component name (Fig. 13 bar).
            component: String,
            /// Joules added.
            joules: f64,
        },
        /// Algorithm 2 switched the placement.
        NetSwitch = "net_switch" in Migration {
            /// `true` = nodes now invoked remotely, `false` = locally.
            to_remote: bool,
        },
        /// A node-state migration transfer started.
        MigrationStart = "migration_start" in Migration {
            /// Total state bytes being shipped.
            bytes: u64,
        },
        /// The in-flight migration delivered its last segment.
        MigrationCommit = "migration_commit" in Migration {
            /// Transfer duration.
            elapsed_ns: u64,
            /// Cumulative reliable-channel transmission attempts.
            attempts: u64,
        },
        /// The in-flight migration was abandoned (state rebuilt from
        /// fresh sensor data instead).
        MigrationAbort = "migration_abort" in Migration,
        /// A scripted fault window opened.
        FaultBegin = "fault_begin" in Fault {
            /// Fault kind label (`blackout` / `burst_loss` /
            /// `latency_spike` / `corruption` / `remote_crash`).
            fault: String,
            /// Index of the window in the mission's fault schedule (pairs
            /// this event with its [`TraceEvent::FaultEnd`]).
            window: u64,
            /// Scripted length of the window.
            window_ns: u64,
        },
        /// A scripted fault window closed.
        FaultEnd = "fault_end" in Fault {
            /// Fault kind label (as in [`TraceEvent::FaultBegin`]).
            fault: String,
            /// Index of the window in the mission's fault schedule.
            window: u64,
        },
        /// The cloud-liveness heartbeat expired: downlink silence under a
        /// healthy radio, so the remote host is presumed dead and the
        /// Controller invokes nodes locally at once (no outage-watchdog
        /// wait).
        HeartbeatMiss = "heartbeat_miss" in Control {
            /// How long the downlink had been silent when the heartbeat
            /// fired.
            silence_ns: u64,
        },
        /// A node-state migration overran its deadline and was aborted
        /// (the destination rebuilds state from fresh sensor data).
        MigrationTimeout = "migration_timeout" in Migration {
            /// How long the transfer had been running.
            elapsed_ns: u64,
            /// Total state bytes the transfer was shipping.
            bytes: u64,
        },
        /// Algorithm 2 wanted to re-offload but the exponential backoff
        /// after a recent offload failure suppressed the switch.
        ReoffloadBackoff = "reoffload_backoff" in Control {
            /// Time remaining until re-offload is allowed again.
            wait_ns: u64,
            /// Consecutive offload failures behind the current backoff.
            failures: u64,
        },
        /// This vehicle's same-stage cloud request coalesced into a
        /// batched execution with other tenants' requests from the same
        /// contention window (the elastic scheduler's batched admission).
        CloudBatch = "cloud_batch" in Cloud {
            /// Coalesced stage label (`NodeKind` short name, e.g. `slam`).
            stage: String,
            /// Distinct tenants sharing the batch after this join (≥ 2).
            occupancy: u64,
            /// Contention-window index the batch formed in.
            window: u64,
            /// Marginal compute this join added instead of a full
            /// independent execution.
            marginal_ns: u64,
        },
        /// The elastic cloud's replica pool scaled at a contention-window
        /// boundary (attributed to the vehicle whose admission crossed the
        /// boundary and observed the decision).
        CloudScale = "cloud_scale" in Cloud {
            /// Provisioned replicas before the decision.
            from_replicas: u32,
            /// Provisioned replicas after (spin-up lag still applies
            /// before an added replica serves).
            to_replicas: u32,
            /// The previous-window utilization that triggered it.
            utilization: f64,
            /// Window index the new pool size takes effect in.
            window: u64,
        },
        /// A checkpoint transfer of offloaded node state completed: crash
        /// recovery can now resume from this snapshot instead of a cold
        /// rebuild.
        Checkpoint = "checkpoint" in Migration {
            /// Snapshot size shipped over the migration TCP path.
            bytes: u64,
            /// Transfer duration.
            elapsed_ns: u64,
        },
        /// Sustained stress (blackout or exhausted re-offload backoff)
        /// dropped the local pipeline to reduced fidelity so the control
        /// deadline keeps being met on vehicle silicon.
        DegradeEnter = "degrade_enter" in Control {
            /// What tripped the trigger (`blackout` / `backoff`).
            cause: String,
            /// SLAM particle count in force while degraded.
            slam_particles: u64,
            /// DWA trajectory-sample budget in force while degraded.
            dwa_samples: u64,
        },
        /// Sustained health restored full pipeline fidelity.
        DegradeExit = "degrade_exit" in Control {
            /// How long the degraded mode was held.
            held_ns: u64,
            /// Control cycles that missed their deadline while degraded.
            missed_cycles: u64,
        },
        /// A scripted cloud-replica crash window opened: the affected
        /// replicas stop serving (capacity shrinks) but keep billing.
        ReplicaCrash = "replica_crash" in Cloud {
            /// Replicas taken down by this window.
            replicas: u64,
            /// Index of the window in the cloud fault schedule.
            window: u64,
            /// Scripted length of the window.
            window_ns: u64,
        },
        /// A scripted straggler window opened: admissions land on a slow
        /// replica and their queueing + execution stretch by `factor`.
        ReplicaStraggle = "replica_straggle" in Cloud {
            /// Service-time multiplier while the window is open (> 1).
            factor: f64,
            /// Index of the window in the cloud fault schedule.
            window: u64,
            /// Scripted length of the window.
            window_ns: u64,
        },
        /// A sharded fleet placed this vehicle: its floorplan stall falls
        /// in `region` (which owns the WAP it uplinks through) and its
        /// offloaded stages are served by scheduler pool `cloud_pool`.
        RegionAssign = "region_assign" in Region {
            /// Radio region (floorplan stripe) the vehicle parks in.
            region: u32,
            /// Cloud scheduler pool serving the region (`region %
            /// cloud_pools`).
            cloud_pool: u32,
            /// Whether the pool is homed in another region, so every
            /// admission pays the deterministic WAN hop.
            wan: bool,
        },
        /// A remote admission from a vehicle whose serving cloud pool is
        /// homed in another region paid the deterministic WAN hop.
        WanHop = "wan_hop" in Region {
            /// Region the vehicle (and its WAP) lives in.
            from_region: u32,
            /// Region the serving scheduler pool is homed in.
            to_region: u32,
            /// The hop surcharge added to the remote processing time.
            delay_ns: u64,
        },
    }
}

/// A timestamped, sequenced trace event — one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the emission (nanoseconds since the epoch).
    pub t_ns: u64,
    /// Monotone per-tracer emission counter (total order within a
    /// run, including events sharing a timestamp).
    pub seq: u64,
    /// The causal span open at emission time ([`SpanId::NONE`] when
    /// the event fired outside any control cycle).
    pub span: SpanId,
    /// Fleet vehicle (tenant) the emitting component belongs to;
    /// `0` — the `VehicleId::NONE` sentinel — for single-vehicle runs
    /// and fleet-level events. Encoded on the wire only when non-zero,
    /// so pre-fleet traces stay byte-identical.
    pub vehicle: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Encode as one deterministic JSON object (no trailing newline).
    ///
    /// ```
    /// use lgv_trace::{SpanId, TraceEvent, TraceRecord};
    ///
    /// let rec = TraceRecord {
    ///     t_ns: 200_000_000,
    ///     seq: 3,
    ///     span: SpanId(1),
    ///     vehicle: 0,
    ///     event: TraceEvent::RttSample { rtt_ns: 24_000_000 },
    /// };
    /// assert_eq!(
    ///     rec.to_json(),
    ///     r#"{"t_ns":200000000,"seq":3,"span":1,"kind":"rtt_sample","rtt_ns":24000000}"#
    /// );
    ///
    /// // Fleet runs stamp the tenant into the envelope.
    /// let tagged = TraceRecord { vehicle: 2, ..rec };
    /// assert_eq!(
    ///     tagged.to_json(),
    ///     r#"{"t_ns":200000000,"seq":3,"span":1,"vehicle":2,"kind":"rtt_sample","rtt_ns":24000000}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        let _ = write!(
            out,
            "\"t_ns\":{},\"seq\":{},\"span\":{}",
            self.t_ns, self.seq, self.span.0
        );
        if self.vehicle != 0 {
            self.vehicle.encode(&mut out, "vehicle");
        }
        write_str(&mut out, "kind", self.event.kind());
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// How one typed event field is written after its key and read back.
pub(crate) trait Field: Sized {
    /// Append `,"name":value`.
    fn encode(&self, out: &mut String, name: &str);
    /// Decode the parsed value of the field called `name`.
    fn decode(v: &Value, name: &str) -> Result<Self, String>;
}

/// Decode the first field called `name`.
pub(crate) fn field<T: Field>(fields: &[(String, Value)], name: &str) -> Result<T, String> {
    let (_, v) = fields
        .iter()
        .find(|(k, _)| k == name)
        .ok_or_else(|| format!("missing field `{name}`"))?;
    T::decode(v, name)
}

impl Field for u64 {
    fn encode(&self, out: &mut String, name: &str) {
        let _ = write!(out, ",\"{name}\":{self}");
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        match v {
            Value::U64(v) => Ok(*v),
            other => Err(format!(
                "field `{name}`: expected unsigned integer, got {other:?}"
            )),
        }
    }
}

impl Field for u32 {
    fn encode(&self, out: &mut String, name: &str) {
        let _ = write!(out, ",\"{name}\":{self}");
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        u32::try_from(u64::decode(v, name)?).map_err(|_| format!("field `{name}`: exceeds u32"))
    }
}

impl Field for bool {
    fn encode(&self, out: &mut String, name: &str) {
        let _ = write!(out, ",\"{name}\":{self}");
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        match v {
            Value::Bool(v) => Ok(*v),
            other => Err(format!("field `{name}`: expected bool, got {other:?}")),
        }
    }
}

impl Field for f64 {
    /// Floats print via `{:?}` (shortest round-trip form,
    /// deterministic); non-finite values — impossible in healthy
    /// traces — encode as `null`, keeping every line valid JSON.
    fn encode(&self, out: &mut String, name: &str) {
        if self.is_finite() {
            let _ = write!(out, ",\"{name}\":{self:?}");
        } else {
            let _ = write!(out, ",\"{name}\":null");
        }
    }

    /// `null` decodes to NaN, and a bare integer is accepted leniently.
    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        match v {
            Value::F64(v) => Ok(*v),
            Value::U64(v) => Ok(*v as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(format!("field `{name}`: expected number, got {other:?}")),
        }
    }
}

impl Field for String {
    fn encode(&self, out: &mut String, name: &str) {
        write_str(out, name, self);
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        str_value(v, name).map(str::to_string)
    }
}

impl Field for MsgId {
    fn encode(&self, out: &mut String, name: &str) {
        self.0.encode(out, name);
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        u64::decode(v, name).map(MsgId)
    }
}

impl Field for SpanId {
    fn encode(&self, out: &mut String, name: &str) {
        self.0.encode(out, name);
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        u64::decode(v, name).map(SpanId)
    }
}

impl Field for SendKind {
    fn encode(&self, out: &mut String, name: &str) {
        write_str(out, name, self.as_str());
    }

    fn decode(v: &Value, name: &str) -> Result<Self, String> {
        let s = str_value(v, name)?;
        SendKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| format!("unknown send outcome `{s}`"))
    }
}

/// The text of a string-valued field.
pub(crate) fn str_value<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("field `{name}`: expected string, got {other:?}")),
    }
}

fn write_str(out: &mut String, name: &str, v: &str) {
    let _ = write!(out, ",\"{name}\":\"");
    write_escaped(out, v);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_categories_are_consistent() {
        let mut kinds: Vec<&str> = TraceEvent::KINDS.iter().map(|(kind, ..)| *kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), TraceEvent::KINDS.len(), "duplicate kind");
        for (kind, category, fields) in TraceEvent::KINDS {
            assert!(!kind.is_empty());
            assert!(EventCategory::ALL.contains(category));
            let mut names = fields.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), fields.len(), "`{kind}` repeats a field");
            // The reader looks these envelope keys up before `kind`.
            assert!(!fields.contains(&"vehicle") && !fields.contains(&"kind"));
        }
        for category in EventCategory::ALL {
            assert!(
                TraceEvent::KINDS.iter().any(|(_, c, _)| *c == category),
                "no kind in {category:?}"
            );
        }
    }

    #[test]
    fn json_escapes_strings() {
        let rec = TraceRecord {
            t_ns: 0,
            seq: 0,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::MissionEnd {
                completed: false,
                reason: "a \"quoted\"\nline\\end".into(),
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_ns":0,"seq":0,"span":0,"kind":"mission_end","completed":false,"reason":"a \"quoted\"\nline\\end"}"#
        );
    }

    #[test]
    fn json_floats_roundtrip_and_nonfinite_is_null() {
        let rec = TraceRecord {
            t_ns: 1,
            seq: 2,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 0.1,
            },
        };
        assert!(rec.to_json().contains("\"joules\":0.1"));
        let bad = TraceRecord {
            t_ns: 1,
            seq: 3,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: f64::NAN,
            },
        };
        assert!(bad.to_json().contains("\"joules\":null"));
    }

    #[test]
    fn unit_variant_encodes_without_fields() {
        let rec = TraceRecord {
            t_ns: 9,
            seq: 1,
            span: SpanId(2),
            vehicle: 0,
            event: TraceEvent::MigrationAbort,
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_ns":9,"seq":1,"span":2,"kind":"migration_abort"}"#
        );
    }

    #[test]
    fn labels_are_distinct_snake_case() {
        let labels: Vec<&str> = SendKind::ALL
            .iter()
            .map(|k| k.as_str())
            .chain(EventCategory::ALL.iter().map(|c| c.as_str()))
            .chain(TraceEvent::KINDS.iter().map(|(kind, ..)| *kind))
            .collect();
        for l in &labels {
            assert!(
                l.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "{l}"
            );
        }
        let send: std::collections::BTreeSet<_> =
            SendKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(send.len(), SendKind::ALL.len());
        let cats: std::collections::BTreeSet<_> =
            EventCategory::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(cats.len(), EventCategory::ALL.len());
    }

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RttSample { rtt_ns: 5 },
            TraceEvent::MigrationAbort,
            TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 1.5,
            },
            TraceEvent::MissionEnd {
                completed: true,
                reason: "goal".into(),
            },
            TraceEvent::GovernorDecision {
                mean_gap: 0.25,
                threads: 4,
            },
            TraceEvent::SpanBegin {
                span: SpanId(3),
                name: "cycle".into(),
                index: 7,
            },
        ]
    }

    #[test]
    fn kind_and_category_come_from_the_kinds_table() {
        for e in samples() {
            let row = TraceEvent::KINDS
                .iter()
                .find(|(kind, ..)| *kind == e.kind())
                .unwrap_or_else(|| panic!("{} missing from KINDS", e.kind()));
            assert_eq!(row.1, e.category(), "{}", e.kind());
        }
    }

    #[test]
    fn records_list_the_envelope_then_the_kinds_fields() {
        for (seq, event) in samples().into_iter().enumerate() {
            let kind = event.kind();
            let rec = TraceRecord {
                t_ns: 1,
                seq: seq as u64,
                span: SpanId::NONE,
                vehicle: 0,
                event,
            };
            let crate::json::Value::Obj(fields) =
                crate::json::Value::parse(&rec.to_json()).unwrap()
            else {
                panic!("not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let (_, _, want) = TraceEvent::KINDS.iter().find(|(k, ..)| *k == kind).unwrap();
            assert_eq!(keys[..4], ["t_ns", "seq", "span", "kind"], "{kind}");
            assert_eq!(keys[4..], want[..], "{kind}");
        }
    }
}
