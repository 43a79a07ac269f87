//! Typed trace reading: the exact inverse of [`TraceRecord::to_json`].
//!
//! [`TraceReader`] parses JSON Lines produced by a [`crate::JsonlSink`]
//! back into [`TraceRecord`]s, so analysis code (the `trace_report`
//! binary, tests, replay tooling) works on typed events instead of
//! string matching. Lines go through the crate's [`crate::json`]
//! reader — this crate has no dependencies — and must be the flat
//! objects the encoder emits: every value is a string, number, bool,
//! or `null` (non-finite floats round-trip as `null` → NaN → `null`).
//!
//! Because the encoder prints floats in shortest-round-trip form and
//! fixes the field order per kind, a parsed record re-encodes
//! **byte-for-byte identically** — the property the round-trip
//! proptests pin down.
//!
//! ```
//! use lgv_trace::{TraceEvent, TraceReader};
//!
//! let line = r#"{"t_ns":200000000,"seq":3,"span":1,"kind":"rtt_sample","rtt_ns":24000000}"#;
//! let rec = TraceReader::parse_line(line).unwrap();
//! assert_eq!(rec.event, TraceEvent::RttSample { rtt_ns: 24_000_000 });
//! assert_eq!(rec.to_json(), line);
//! ```

use crate::event::{SendKind, TraceEvent, TraceRecord};
use crate::json::Value;
use crate::span::{MsgId, SpanId};
use std::fmt;
use std::path::Path;

/// A parse failure, located by 1-based line number (0 for file-level
/// I/O errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 = not line-bound).
    pub line_no: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line_no == 0 {
            write!(f, "trace parse error: {}", self.msg)
        } else {
            write!(
                f,
                "trace parse error at line {}: {}",
                self.line_no, self.msg
            )
        }
    }
}

impl std::error::Error for ParseError {}

/// The key/value pairs of one parsed line, in file order.
///
/// Lookups skip the first `skip` fields: envelope keys (`t_ns`, `seq`,
/// `span`, `kind`) come first on the wire and `seq` also names a
/// channel-event field, so event lookups must start past `kind`.
struct Obj {
    fields: Vec<(String, Value)>,
    skip: usize,
}

impl Obj {
    /// Parse one line as a flat object: every value a string, number,
    /// bool or `null`.
    fn parse(line: &str) -> Result<Obj, String> {
        let Value::Obj(fields) = Value::parse(line)? else {
            return Err("expected a JSON object".into());
        };
        if let Some((key, _)) = fields
            .iter()
            .find(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)))
        {
            return Err(format!("field `{key}`: nested value in a flat record"));
        }
        Ok(Obj { fields, skip: 0 })
    }

    /// The same pairs with lookups scoped past the `kind` field, for
    /// event-field access.
    fn past_kind(self) -> Result<Obj, String> {
        let at = self
            .fields
            .iter()
            .position(|(k, _)| k == "kind")
            .ok_or_else(|| "missing field `kind`".to_string())?;
        Ok(Obj {
            skip: at + 1,
            ..self
        })
    }

    fn get(&self, name: &str) -> Result<&Value, String> {
        self.fields[self.skip..]
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`"))
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        match self.get(name)? {
            Value::U64(v) => Ok(*v),
            other => Err(format!(
                "field `{name}`: expected unsigned integer, got {other:?}"
            )),
        }
    }

    /// Optional unsigned field: absent → `None`, present with the
    /// wrong type → error. Used for the `vehicle` envelope field,
    /// which the encoder omits for unattributed records.
    fn opt_u64(&self, name: &str) -> Result<Option<u64>, String> {
        if self.fields[self.skip..].iter().any(|(k, _)| k == name) {
            Ok(Some(self.u64(name)?))
        } else {
            Ok(None)
        }
    }

    fn u32(&self, name: &str) -> Result<u32, String> {
        u32::try_from(self.u64(name)?).map_err(|_| format!("field `{name}`: exceeds u32"))
    }

    /// Float fields: `null` decodes to NaN (the encoder writes
    /// non-finite values as `null`), and a bare integer is accepted
    /// leniently.
    fn f64(&self, name: &str) -> Result<f64, String> {
        match self.get(name)? {
            Value::F64(v) => Ok(*v),
            Value::U64(v) => Ok(*v as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(format!("field `{name}`: expected number, got {other:?}")),
        }
    }

    fn str(&self, name: &str) -> Result<String, String> {
        match self.get(name)? {
            Value::Str(v) => Ok(v.clone()),
            other => Err(format!("field `{name}`: expected string, got {other:?}")),
        }
    }

    fn bool(&self, name: &str) -> Result<bool, String> {
        match self.get(name)? {
            Value::Bool(v) => Ok(*v),
            other => Err(format!("field `{name}`: expected bool, got {other:?}")),
        }
    }

    fn msg(&self, name: &str) -> Result<MsgId, String> {
        Ok(MsgId(self.u64(name)?))
    }
}

/// Reconstruct the typed event from its `kind` and the fields past it.
fn event_from(kind: &str, obj: &Obj) -> Result<TraceEvent, String> {
    Ok(match kind {
        "mission_start" => TraceEvent::MissionStart {
            workload: obj.str("workload")?,
            deployment: obj.str("deployment")?,
            seed: obj.u64("seed")?,
        },
        "mission_progress" => TraceEvent::MissionProgress {
            x: obj.f64("x")?,
            y: obj.f64("y")?,
            goal_x: obj.f64("goal_x")?,
            goal_y: obj.f64("goal_y")?,
            goal_dist: obj.f64("goal_dist")?,
            battery_soc: obj.f64("battery_soc")?,
        },
        "mission_end" => TraceEvent::MissionEnd {
            completed: obj.bool("completed")?,
            reason: obj.str("reason")?,
        },
        "span_begin" => TraceEvent::SpanBegin {
            span: SpanId(obj.u64("span_id")?),
            name: obj.str("name")?,
            index: obj.u64("index")?,
        },
        "span_end" => TraceEvent::SpanEnd {
            span: SpanId(obj.u64("span_id")?),
        },
        "bus_publish" => TraceEvent::BusPublish {
            topic: obj.str("topic")?,
            bytes: obj.u64("bytes")?,
            fanout: obj.u32("fanout")?,
            msg: obj.msg("msg")?,
            parent: obj.msg("parent")?,
        },
        "bus_drop" => TraceEvent::BusDrop {
            topic: obj.str("topic")?,
            msg: obj.msg("msg")?,
        },
        "channel_send" => TraceEvent::ChannelSend {
            dir: obj.str("dir")?,
            seq: obj.u64("seq")?,
            bytes: obj.u64("bytes")?,
            outcome: match obj.str("outcome")?.as_str() {
                "transmitted" => SendKind::Transmitted,
                "held" => SendKind::Held,
                "discarded" => SendKind::Discarded,
                other => return Err(format!("unknown send outcome `{other}`")),
            },
            msg: obj.msg("msg")?,
        },
        "channel_loss" => TraceEvent::ChannelLoss {
            dir: obj.str("dir")?,
            seq: obj.u64("seq")?,
            msg: obj.msg("msg")?,
        },
        "channel_deliver" => TraceEvent::ChannelDeliver {
            dir: obj.str("dir")?,
            seq: obj.u64("seq")?,
            msg: obj.msg("msg")?,
            latency_ns: obj.u64("latency_ns")?,
        },
        "rtt_sample" => TraceEvent::RttSample {
            rtt_ns: obj.u64("rtt_ns")?,
        },
        "profile_sample" => TraceEvent::ProfileSample {
            node: obj.str("node")?,
            remote: obj.bool("remote")?,
            nanos: obj.u64("nanos")?,
            msg: obj.msg("msg")?,
        },
        "control_decision" => TraceEvent::ControlDecision {
            local_vdp_ns: obj.u64("local_vdp_ns")?,
            cloud_vdp_ns: obj.u64("cloud_vdp_ns")?,
            bandwidth: obj.f64("bandwidth")?,
            direction: obj.f64("direction")?,
            vdp_remote: obj.bool("vdp_remote")?,
            max_linear: obj.f64("max_linear")?,
            net_decision: obj.str("net_decision")?,
        },
        "policy_decide" => TraceEvent::PolicyDecide {
            policy: obj.str("policy")?,
            remote: obj.str("remote")?,
            expected_vdp_ns: obj.u64("expected_vdp_ns")?,
            max_velocity: obj.f64("max_velocity")?,
        },
        "governor_decision" => TraceEvent::GovernorDecision {
            mean_gap: obj.f64("mean_gap")?,
            threads: obj.u32("threads")?,
        },
        "energy_delta" => TraceEvent::EnergyDelta {
            component: obj.str("component")?,
            joules: obj.f64("joules")?,
        },
        "net_switch" => TraceEvent::NetSwitch {
            to_remote: obj.bool("to_remote")?,
        },
        "migration_start" => TraceEvent::MigrationStart {
            bytes: obj.u64("bytes")?,
        },
        "migration_commit" => TraceEvent::MigrationCommit {
            elapsed_ns: obj.u64("elapsed_ns")?,
            attempts: obj.u64("attempts")?,
        },
        "migration_abort" => TraceEvent::MigrationAbort,
        "fault_begin" => TraceEvent::FaultBegin {
            fault: obj.str("fault")?,
            window: obj.u64("window")?,
            window_ns: obj.u64("window_ns")?,
        },
        "fault_end" => TraceEvent::FaultEnd {
            fault: obj.str("fault")?,
            window: obj.u64("window")?,
        },
        "heartbeat_miss" => TraceEvent::HeartbeatMiss {
            silence_ns: obj.u64("silence_ns")?,
        },
        "migration_timeout" => TraceEvent::MigrationTimeout {
            elapsed_ns: obj.u64("elapsed_ns")?,
            bytes: obj.u64("bytes")?,
        },
        "reoffload_backoff" => TraceEvent::ReoffloadBackoff {
            wait_ns: obj.u64("wait_ns")?,
            failures: obj.u64("failures")?,
        },
        "cloud_batch" => TraceEvent::CloudBatch {
            stage: obj.str("stage")?,
            occupancy: obj.u64("occupancy")?,
            window: obj.u64("window")?,
            marginal_ns: obj.u64("marginal_ns")?,
        },
        "cloud_scale" => TraceEvent::CloudScale {
            from_replicas: obj.u32("from_replicas")?,
            to_replicas: obj.u32("to_replicas")?,
            utilization: obj.f64("utilization")?,
            window: obj.u64("window")?,
        },
        "checkpoint" => TraceEvent::Checkpoint {
            bytes: obj.u64("bytes")?,
            elapsed_ns: obj.u64("elapsed_ns")?,
        },
        "degrade_enter" => TraceEvent::DegradeEnter {
            cause: obj.str("cause")?,
            slam_particles: obj.u64("slam_particles")?,
            dwa_samples: obj.u64("dwa_samples")?,
        },
        "degrade_exit" => TraceEvent::DegradeExit {
            held_ns: obj.u64("held_ns")?,
            missed_cycles: obj.u64("missed_cycles")?,
        },
        "replica_crash" => TraceEvent::ReplicaCrash {
            replicas: obj.u64("replicas")?,
            window: obj.u64("window")?,
            window_ns: obj.u64("window_ns")?,
        },
        "replica_straggle" => TraceEvent::ReplicaStraggle {
            factor: obj.f64("factor")?,
            window: obj.u64("window")?,
            window_ns: obj.u64("window_ns")?,
        },
        "region_assign" => TraceEvent::RegionAssign {
            region: obj.u32("region")?,
            cloud_pool: obj.u32("cloud_pool")?,
            wan: obj.bool("wan")?,
        },
        "wan_hop" => TraceEvent::WanHop {
            from_region: obj.u32("from_region")?,
            to_region: obj.u32("to_region")?,
            delay_ns: obj.u64("delay_ns")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

/// Parser for the JSONL trace format written by [`crate::JsonlSink`].
///
/// Stateless; every method is an associated function.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceReader;

impl TraceReader {
    /// Parse one JSONL line into a typed record.
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        let obj = Obj::parse(line)?;
        let t_ns = obj.u64("t_ns")?;
        let seq = obj.u64("seq")?;
        let span = SpanId(obj.u64("span")?);
        // Optional tenant tag; no event kind has a field named
        // `vehicle`, so the unscoped lookup cannot mis-resolve.
        let vehicle = obj.opt_u64("vehicle")?.unwrap_or(0);
        let kind = obj.str("kind")?;
        let obj = obj.past_kind()?;
        Ok(TraceRecord {
            t_ns,
            seq,
            span,
            vehicle,
            event: event_from(&kind, &obj)?,
        })
    }

    /// Parse a whole trace (blank lines skipped), reporting the first
    /// failure with its 1-based line number.
    pub fn parse_str(text: &str) -> Result<Vec<TraceRecord>, ParseError> {
        let mut out = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            out.push(Self::parse_line(line).map_err(|msg| ParseError {
                line_no: idx + 1,
                msg,
            })?);
        }
        Ok(out)
    }

    /// Read and parse a trace file. I/O failures surface as a
    /// [`ParseError`] with `line_no == 0`.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Vec<TraceRecord>, ParseError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| ParseError {
            line_no: 0,
            msg: format!("cannot read {}: {e}", path.as_ref().display()),
        })?;
        Self::parse_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_envelope_and_event() {
        let line = r#"{"t_ns":7,"seq":2,"span":4,"kind":"bus_publish","topic":"scan","bytes":10,"fanout":2,"msg":5,"parent":0}"#;
        let rec = TraceReader::parse_line(line).unwrap();
        assert_eq!(rec.t_ns, 7);
        assert_eq!(rec.seq, 2);
        assert_eq!(rec.span, SpanId(4));
        assert_eq!(
            rec.event,
            TraceEvent::BusPublish {
                topic: "scan".into(),
                bytes: 10,
                fanout: 2,
                msg: MsgId(5),
                parent: MsgId::NONE,
            }
        );
        assert_eq!(rec.to_json(), line);
    }

    #[test]
    fn every_kind_round_trips_byte_identically() {
        let events = vec![
            TraceEvent::MissionStart {
                workload: "Navigation".into(),
                deployment: "edge-8t".into(),
                seed: 42,
            },
            TraceEvent::MissionProgress {
                x: 0.1,
                y: -2.5,
                goal_x: 4.0,
                goal_y: 4.5,
                goal_dist: 5.830951894845301,
                battery_soc: 0.93,
            },
            TraceEvent::MissionEnd {
                completed: true,
                reason: "goal \"reached\"\n".into(),
            },
            TraceEvent::SpanBegin {
                span: SpanId(9),
                name: "cycle".into(),
                index: 8,
            },
            TraceEvent::SpanEnd { span: SpanId(9) },
            TraceEvent::BusPublish {
                topic: "scan".into(),
                bytes: 1081,
                fanout: 2,
                msg: MsgId(3),
                parent: MsgId(1),
            },
            TraceEvent::BusDrop {
                topic: "cmd_vel".into(),
                msg: MsgId(4),
            },
            TraceEvent::ChannelSend {
                dir: "up".into(),
                seq: 17,
                bytes: 1100,
                outcome: SendKind::Held,
                msg: MsgId(3),
            },
            TraceEvent::ChannelLoss {
                dir: "down".into(),
                seq: 18,
                msg: MsgId(2),
            },
            TraceEvent::ChannelDeliver {
                dir: "up".into(),
                seq: 17,
                msg: MsgId(3),
                latency_ns: 24_000_000,
            },
            TraceEvent::RttSample { rtt_ns: 24_000_000 },
            TraceEvent::ProfileSample {
                node: "Slam".into(),
                remote: true,
                nanos: 7_000_000,
                msg: MsgId(3),
            },
            TraceEvent::ControlDecision {
                local_vdp_ns: 120_000_000,
                cloud_vdp_ns: 80_000_000,
                bandwidth: 5.5,
                direction: -0.25,
                vdp_remote: true,
                max_linear: 0.6,
                net_decision: "keep".into(),
            },
            TraceEvent::PolicyDecide {
                policy: "bandit".into(),
                remote: "-".into(),
                expected_vdp_ns: 120_000_000,
                max_velocity: 0.31,
            },
            TraceEvent::GovernorDecision {
                mean_gap: f64::NAN,
                threads: 8,
            },
            TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 0.5,
            },
            TraceEvent::NetSwitch { to_remote: false },
            TraceEvent::MigrationStart { bytes: 65_536 },
            TraceEvent::MigrationCommit {
                elapsed_ns: 1_000_000,
                attempts: 3,
            },
            TraceEvent::MigrationAbort,
            TraceEvent::FaultBegin {
                fault: "remote_crash".into(),
                window: 0,
                window_ns: 20_000_000_000,
            },
            TraceEvent::FaultEnd {
                fault: "remote_crash".into(),
                window: 0,
            },
            TraceEvent::HeartbeatMiss {
                silence_ns: 1_600_000_000,
            },
            TraceEvent::MigrationTimeout {
                elapsed_ns: 8_000_000_000,
                bytes: 81_920,
            },
            TraceEvent::ReoffloadBackoff {
                wait_ns: 4_000_000_000,
                failures: 2,
            },
            TraceEvent::CloudBatch {
                stage: "slam".to_string(),
                occupancy: 3,
                window: 41,
                marginal_ns: 600_000,
            },
            TraceEvent::CloudScale {
                from_replicas: 1,
                to_replicas: 2,
                utilization: 1.25,
                window: 42,
            },
            TraceEvent::Checkpoint {
                bytes: 5184,
                elapsed_ns: 37_000_000,
            },
            TraceEvent::DegradeEnter {
                cause: "backoff".into(),
                slam_particles: 4,
                dwa_samples: 100,
            },
            TraceEvent::DegradeExit {
                held_ns: 6_200_000_000,
                missed_cycles: 1,
            },
            TraceEvent::ReplicaCrash {
                replicas: 2,
                window: 0,
                window_ns: 4_000_000_000,
            },
            TraceEvent::ReplicaStraggle {
                factor: 3.25,
                window: 1,
                window_ns: 2_500_000_000,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let rec = TraceRecord {
                t_ns: i as u64 * 10,
                seq: i as u64,
                span: SpanId(1),
                vehicle: (i % 3) as u64,
                event,
            };
            let json = rec.to_json();
            let parsed = TraceReader::parse_line(&json)
                .unwrap_or_else(|e| panic!("parse failed for `{json}`: {e}"));
            assert_eq!(parsed.to_json(), json);
        }
    }

    #[test]
    fn vehicle_envelope_field_round_trips_and_defaults() {
        // Tagged: the field sits between `span` and `kind`.
        let tagged = r#"{"t_ns":7,"seq":2,"span":4,"vehicle":3,"kind":"rtt_sample","rtt_ns":5}"#;
        let rec = TraceReader::parse_line(tagged).unwrap();
        assert_eq!(rec.vehicle, 3);
        assert_eq!(rec.to_json(), tagged);
        // Pre-fleet lines (no field) parse to the 0 sentinel.
        let plain = r#"{"t_ns":7,"seq":2,"span":4,"kind":"rtt_sample","rtt_ns":5}"#;
        let rec = TraceReader::parse_line(plain).unwrap();
        assert_eq!(rec.vehicle, 0);
        assert_eq!(rec.to_json(), plain);
        // Wrong type is an error, not a silent default.
        let bad = r#"{"t_ns":7,"seq":2,"span":4,"vehicle":"x","kind":"rtt_sample","rtt_ns":5}"#;
        assert!(TraceReader::parse_line(bad)
            .unwrap_err()
            .contains("vehicle"));
    }

    #[test]
    fn parse_str_reports_line_numbers() {
        let text = "\n{\"t_ns\":0,\"seq\":0,\"span\":0,\"kind\":\"migration_abort\"}\nnot json\n";
        let err = TraceReader::parse_str(text).unwrap_err();
        assert_eq!(err.line_no, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn rejects_unknown_kind_and_missing_fields() {
        let unknown = r#"{"t_ns":0,"seq":0,"span":0,"kind":"mystery"}"#;
        assert!(TraceReader::parse_line(unknown)
            .unwrap_err()
            .contains("unknown event kind"));
        let missing = r#"{"t_ns":0,"seq":0,"span":0,"kind":"rtt_sample"}"#;
        assert!(TraceReader::parse_line(missing)
            .unwrap_err()
            .contains("rtt_ns"));
    }

    #[test]
    fn unicode_escapes_decode() {
        // Built via encode so the source stays free of raw control
        // characters: a control char (escaped as \\u0001 on the wire)
        // plus an astral-plane char (written raw by the encoder).
        let original = TraceRecord {
            t_ns: 0,
            seq: 0,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::MissionEnd {
                completed: false,
                reason: format!("ctrl{} pair\u{1F600} end", '\u{1}'),
            },
        };
        let line = original.to_json();
        assert!(line.contains("ctrl\\u0001 pair"));
        let rec = TraceReader::parse_line(&line).unwrap();
        assert_eq!(rec, original);
        assert_eq!(rec.to_json(), line);

        // Surrogate pairs in the input decode to one char.
        let paired = line.replace('\u{1F600}', "\\ud83d\\ude00");
        let rec2 = TraceReader::parse_line(&paired).unwrap();
        assert_eq!(rec2, original);
    }

    /// A valid line whose string field carries every kind of `\u` escape.
    const LINE: &str = r#"{"t_ns":7,"seq":2,"span":4,"kind":"mission_end","completed":true,"reason":"\u00e9\ud83d\ude00"}"#;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Truncated, spliced, over-nested and random lines each parse
        /// or fail; none panics.
        #[test]
        fn parse_line_returns_ok_or_err_on_arbitrary_text(
            cut in 0usize..LINE.len() + 1,
            piece in 0usize..6,
            depth in 0usize..(crate::json::MAX_DEPTH * 3),
            raw in ".{0,32}",
        ) {
            prop_assert!(TraceReader::parse_line(LINE).is_ok());
            let pieces = ["\\u", "\\ud83d", "\\ude00", "[", "{", "\""];
            // LINE is ASCII, so every cut is a char boundary.
            let _ = TraceReader::parse_line(&LINE[..cut]);
            let spliced = format!("{}{}{}", &LINE[..cut], pieces[piece], &LINE[cut..]);
            let _ = TraceReader::parse_line(&spliced);
            let _ = TraceReader::parse_line(&raw);
            // A nested value is never a valid record field, at any depth.
            let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            prop_assert!(TraceReader::parse_line(&LINE.replacen("true", &nested, 1)).is_err());
        }
    }
}
