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

use crate::event::{field, str_value, Field, TraceEvent, TraceRecord};
use crate::json::Value;
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

/// Parse one line as a flat object: every value a string, number,
/// bool or `null`.
fn parse_flat(line: &str) -> Result<Vec<(String, Value)>, String> {
    let Value::Obj(fields) = Value::parse(line)? else {
        return Err("expected a JSON object".into());
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)))
    {
        return Err(format!("field `{key}`: nested value in a flat record"));
    }
    Ok(fields)
}

/// Parser for the JSONL trace format written by [`crate::JsonlSink`].
///
/// Stateless; every method is an associated function.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceReader;

impl TraceReader {
    /// Parse one JSONL line into a typed record.
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        let fields = parse_flat(line)?;
        let t_ns = field(&fields, "t_ns")?;
        let seq = field(&fields, "seq")?;
        let span = field(&fields, "span")?;
        // Optional tenant tag; no event kind has a field named
        // `vehicle`, so the unscoped lookup cannot mis-resolve.
        let vehicle = fields
            .iter()
            .find(|(k, _)| k == "vehicle")
            .map(|(_, v)| u64::decode(v, "vehicle"))
            .transpose()?
            .unwrap_or(0);
        // Envelope keys come first on the wire and `seq` also names a
        // channel-event field, so event lookups start past `kind`.
        let at = fields
            .iter()
            .position(|(k, _)| k == "kind")
            .ok_or_else(|| "missing field `kind`".to_string())?;
        let kind = str_value(&fields[at].1, "kind")?;
        Ok(TraceRecord {
            t_ns,
            seq,
            span,
            vehicle,
            event: TraceEvent::decode(kind, &fields[at + 1..])?,
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
    use crate::event::SendKind;
    use crate::span::{MsgId, SpanId};
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
            TraceEvent::RegionAssign {
                region: 3,
                cloud_pool: 1,
                wan: true,
            },
            TraceEvent::WanHop {
                from_region: 3,
                to_region: 1,
                delay_ns: 10_000_000,
            },
        ];
        // One event per kind, in table order: every row is pinned.
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        let table: Vec<&str> = TraceEvent::KINDS.iter().map(|(kind, ..)| *kind).collect();
        assert_eq!(kinds, table);
        assert_eq!(events.len(), GOLDEN.len());
        for (i, (event, golden)) in events.into_iter().zip(GOLDEN).enumerate() {
            let rec = TraceRecord {
                t_ns: i as u64 * 10,
                seq: i as u64,
                span: SpanId(1),
                vehicle: (i % 3) as u64,
                event,
            };
            let json = rec.to_json();
            assert_eq!(json, golden, "encoding of `{}` moved", rec.event.kind());
            let parsed = TraceReader::parse_line(&json)
                .unwrap_or_else(|e| panic!("parse failed for `{json}`: {e}"));
            assert_eq!(parsed.to_json(), json);
        }
    }

    /// The exact wire bytes of each event in
    /// `every_kind_round_trips_byte_identically`, in the same order. A
    /// round trip alone cannot catch an encoder and a decoder that
    /// reorder fields together; these lines can.
    const GOLDEN: [&str; 34] = [
        r#"{"t_ns":0,"seq":0,"span":1,"kind":"mission_start","workload":"Navigation","deployment":"edge-8t","seed":42}"#,
        r#"{"t_ns":10,"seq":1,"span":1,"vehicle":1,"kind":"mission_progress","x":0.1,"y":-2.5,"goal_x":4.0,"goal_y":4.5,"goal_dist":5.830951894845301,"battery_soc":0.93}"#,
        r#"{"t_ns":20,"seq":2,"span":1,"vehicle":2,"kind":"mission_end","completed":true,"reason":"goal \"reached\"\n"}"#,
        r#"{"t_ns":30,"seq":3,"span":1,"kind":"span_begin","span_id":9,"name":"cycle","index":8}"#,
        r#"{"t_ns":40,"seq":4,"span":1,"vehicle":1,"kind":"span_end","span_id":9}"#,
        r#"{"t_ns":50,"seq":5,"span":1,"vehicle":2,"kind":"bus_publish","topic":"scan","bytes":1081,"fanout":2,"msg":3,"parent":1}"#,
        r#"{"t_ns":60,"seq":6,"span":1,"kind":"bus_drop","topic":"cmd_vel","msg":4}"#,
        r#"{"t_ns":70,"seq":7,"span":1,"vehicle":1,"kind":"channel_send","dir":"up","seq":17,"bytes":1100,"outcome":"held","msg":3}"#,
        r#"{"t_ns":80,"seq":8,"span":1,"vehicle":2,"kind":"channel_loss","dir":"down","seq":18,"msg":2}"#,
        r#"{"t_ns":90,"seq":9,"span":1,"kind":"channel_deliver","dir":"up","seq":17,"msg":3,"latency_ns":24000000}"#,
        r#"{"t_ns":100,"seq":10,"span":1,"vehicle":1,"kind":"rtt_sample","rtt_ns":24000000}"#,
        r#"{"t_ns":110,"seq":11,"span":1,"vehicle":2,"kind":"profile_sample","node":"Slam","remote":true,"nanos":7000000,"msg":3}"#,
        r#"{"t_ns":120,"seq":12,"span":1,"kind":"control_decision","local_vdp_ns":120000000,"cloud_vdp_ns":80000000,"bandwidth":5.5,"direction":-0.25,"vdp_remote":true,"max_linear":0.6,"net_decision":"keep"}"#,
        r#"{"t_ns":130,"seq":13,"span":1,"vehicle":1,"kind":"policy_decide","policy":"bandit","remote":"-","expected_vdp_ns":120000000,"max_velocity":0.31}"#,
        r#"{"t_ns":140,"seq":14,"span":1,"vehicle":2,"kind":"governor_decision","mean_gap":null,"threads":8}"#,
        r#"{"t_ns":150,"seq":15,"span":1,"kind":"energy_delta","component":"motor","joules":0.5}"#,
        r#"{"t_ns":160,"seq":16,"span":1,"vehicle":1,"kind":"net_switch","to_remote":false}"#,
        r#"{"t_ns":170,"seq":17,"span":1,"vehicle":2,"kind":"migration_start","bytes":65536}"#,
        r#"{"t_ns":180,"seq":18,"span":1,"kind":"migration_commit","elapsed_ns":1000000,"attempts":3}"#,
        r#"{"t_ns":190,"seq":19,"span":1,"vehicle":1,"kind":"migration_abort"}"#,
        r#"{"t_ns":200,"seq":20,"span":1,"vehicle":2,"kind":"fault_begin","fault":"remote_crash","window":0,"window_ns":20000000000}"#,
        r#"{"t_ns":210,"seq":21,"span":1,"kind":"fault_end","fault":"remote_crash","window":0}"#,
        r#"{"t_ns":220,"seq":22,"span":1,"vehicle":1,"kind":"heartbeat_miss","silence_ns":1600000000}"#,
        r#"{"t_ns":230,"seq":23,"span":1,"vehicle":2,"kind":"migration_timeout","elapsed_ns":8000000000,"bytes":81920}"#,
        r#"{"t_ns":240,"seq":24,"span":1,"kind":"reoffload_backoff","wait_ns":4000000000,"failures":2}"#,
        r#"{"t_ns":250,"seq":25,"span":1,"vehicle":1,"kind":"cloud_batch","stage":"slam","occupancy":3,"window":41,"marginal_ns":600000}"#,
        r#"{"t_ns":260,"seq":26,"span":1,"vehicle":2,"kind":"cloud_scale","from_replicas":1,"to_replicas":2,"utilization":1.25,"window":42}"#,
        r#"{"t_ns":270,"seq":27,"span":1,"kind":"checkpoint","bytes":5184,"elapsed_ns":37000000}"#,
        r#"{"t_ns":280,"seq":28,"span":1,"vehicle":1,"kind":"degrade_enter","cause":"backoff","slam_particles":4,"dwa_samples":100}"#,
        r#"{"t_ns":290,"seq":29,"span":1,"vehicle":2,"kind":"degrade_exit","held_ns":6200000000,"missed_cycles":1}"#,
        r#"{"t_ns":300,"seq":30,"span":1,"kind":"replica_crash","replicas":2,"window":0,"window_ns":4000000000}"#,
        r#"{"t_ns":310,"seq":31,"span":1,"vehicle":1,"kind":"replica_straggle","factor":3.25,"window":1,"window_ns":2500000000}"#,
        r#"{"t_ns":320,"seq":32,"span":1,"vehicle":2,"kind":"region_assign","region":3,"cloud_pool":1,"wan":true}"#,
        r#"{"t_ns":330,"seq":33,"span":1,"kind":"wan_hop","from_region":3,"to_region":1,"delay_ns":10000000}"#,
    ];

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
        // The exact texts, one per way a field can be wrong.
        let cases = [
            (r#""kind":"mystery""#, "unknown event kind `mystery`"),
            (r#""kind":"rtt_sample""#, "missing field `rtt_ns`"),
            (
                r#""kind":"rtt_sample","rtt_ns":"x""#,
                r#"field `rtt_ns`: expected unsigned integer, got Str("x")"#,
            ),
            (
                r#""kind":"governor_decision","mean_gap":0.5,"threads":4294967296"#,
                "field `threads`: exceeds u32",
            ),
            (
                r#""kind":"net_switch","to_remote":1"#,
                "field `to_remote`: expected bool, got U64(1)",
            ),
            (
                r#""kind":"energy_delta","component":"motor","joules":"x""#,
                r#"field `joules`: expected number, got Str("x")"#,
            ),
            (
                r#""kind":"bus_drop","topic":7,"msg":1"#,
                "field `topic`: expected string, got U64(7)",
            ),
            (
                r#""kind":"channel_send","dir":"up","seq":1,"bytes":2,"outcome":"lost","msg":3"#,
                "unknown send outcome `lost`",
            ),
        ];
        for (tail, want) in cases {
            let line = format!(r#"{{"t_ns":0,"seq":0,"span":0,{tail}}}"#);
            assert_eq!(TraceReader::parse_line(&line).unwrap_err(), want);
        }
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

    #[test]
    fn an_unreadable_file_is_an_error_without_a_line() {
        let err = TraceReader::read_file("/nonexistent/lgv/trace.jsonl").unwrap_err();
        assert_eq!(err.line_no, 0);
        assert!(err
            .to_string()
            .starts_with("trace parse error: cannot read"));
    }

    #[test]
    fn nested_values_and_non_objects_are_rejected() {
        let nested = r#"{"t_ns":0,"seq":0,"span":0,"kind":"migration_abort","x":[1]}"#;
        assert!(TraceReader::parse_line(nested)
            .unwrap_err()
            .contains("nested value"));
        assert_eq!(
            TraceReader::parse_line("[1]").unwrap_err(),
            "expected a JSON object"
        );
        assert!(TraceReader::parse_str("\n  \n").unwrap().is_empty());
    }
}
