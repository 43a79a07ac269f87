//! Property-based round-trip tests: every [`TraceEvent`] kind, filled
//! with arbitrary values, must survive `to_json` → [`TraceReader`]
//! parse → `to_json` byte-identically. Floats are generated from raw
//! bits so the non-finite → `null` → NaN path is exercised too.

use lgv_trace::{MsgId, SendKind, SpanId, TraceEvent, TraceReader, TraceRecord};
use proptest::prelude::*;

/// One event of every kind built from the given sample values.
fn all_kinds(s: &str, a: u64, b: u32, f: f64, flag: bool) -> Vec<TraceEvent> {
    let msg = MsgId(a % 1000);
    let parent = MsgId(b as u64);
    let outcome = match a % 3 {
        0 => SendKind::Transmitted,
        1 => SendKind::Held,
        _ => SendKind::Discarded,
    };
    vec![
        TraceEvent::MissionStart {
            workload: s.to_string(),
            deployment: s.to_string(),
            seed: a,
        },
        TraceEvent::MissionProgress {
            x: f,
            y: -f,
            goal_x: f * 2.0,
            goal_y: 0.0,
            goal_dist: f.abs(),
            battery_soc: 0.5,
        },
        TraceEvent::MissionEnd {
            completed: flag,
            reason: s.to_string(),
        },
        TraceEvent::SpanBegin {
            span: SpanId(a),
            name: s.to_string(),
            index: b as u64,
        },
        TraceEvent::SpanEnd { span: SpanId(a) },
        TraceEvent::BusPublish {
            topic: s.to_string(),
            bytes: a,
            fanout: b,
            msg,
            parent,
        },
        TraceEvent::BusDrop {
            topic: s.to_string(),
            msg,
        },
        TraceEvent::ChannelSend {
            dir: s.to_string(),
            seq: a,
            bytes: b as u64,
            outcome,
            msg,
        },
        TraceEvent::ChannelLoss {
            dir: s.to_string(),
            seq: a,
            msg,
        },
        TraceEvent::ChannelDeliver {
            dir: s.to_string(),
            seq: a,
            msg,
            latency_ns: b as u64,
        },
        TraceEvent::RttSample { rtt_ns: a },
        TraceEvent::ProfileSample {
            node: s.to_string(),
            remote: flag,
            nanos: a,
            msg,
        },
        TraceEvent::ControlDecision {
            local_vdp_ns: a,
            cloud_vdp_ns: b as u64,
            bandwidth: f,
            direction: -f,
            vdp_remote: flag,
            max_linear: 0.15,
            net_decision: s.to_string(),
        },
        TraceEvent::PolicyDecide {
            policy: s.to_string(),
            remote: s.to_string(),
            expected_vdp_ns: a,
            max_velocity: f,
        },
        TraceEvent::GovernorDecision {
            mean_gap: f,
            threads: b,
        },
        TraceEvent::EnergyDelta {
            component: s.to_string(),
            joules: f,
        },
        TraceEvent::NetSwitch { to_remote: flag },
        TraceEvent::MigrationStart { bytes: a },
        TraceEvent::MigrationCommit {
            elapsed_ns: a,
            attempts: b as u64,
        },
        TraceEvent::MigrationAbort,
        TraceEvent::FaultBegin {
            fault: s.to_string(),
            window: b as u64,
            window_ns: a,
        },
        TraceEvent::FaultEnd {
            fault: s.to_string(),
            window: b as u64,
        },
        TraceEvent::HeartbeatMiss { silence_ns: a },
        TraceEvent::MigrationTimeout {
            elapsed_ns: a,
            bytes: b as u64,
        },
        TraceEvent::ReoffloadBackoff {
            wait_ns: a,
            failures: b as u64,
        },
        TraceEvent::CloudBatch {
            stage: s.to_string(),
            occupancy: b as u64,
            window: a,
            marginal_ns: a,
        },
        TraceEvent::CloudScale {
            from_replicas: b,
            to_replicas: b.wrapping_add(1),
            utilization: f,
            window: a,
        },
        TraceEvent::Checkpoint {
            bytes: a,
            elapsed_ns: b as u64,
        },
        TraceEvent::DegradeEnter {
            cause: s.to_string(),
            slam_particles: b as u64,
            dwa_samples: a % 512,
        },
        TraceEvent::DegradeExit {
            held_ns: a,
            missed_cycles: b as u64,
        },
        TraceEvent::ReplicaCrash {
            replicas: b as u64,
            window: a,
            window_ns: a,
        },
        TraceEvent::ReplicaStraggle {
            factor: f,
            window: a,
            window_ns: a,
        },
        TraceEvent::RegionAssign {
            region: b,
            cloud_pool: b / 2,
            wan: flag,
        },
        TraceEvent::WanHop {
            from_region: b,
            to_region: b / 2,
            delay_ns: a,
        },
    ]
}

#[test]
fn all_kinds_covers_every_kind_once() {
    let kinds: Vec<&str> = all_kinds("x", 1, 2, 0.5, true)
        .iter()
        .map(TraceEvent::kind)
        .collect();
    let table: Vec<&str> = TraceEvent::KINDS.iter().map(|(kind, ..)| *kind).collect();
    assert_eq!(
        kinds, table,
        "all_kinds must list each kind once, in table order"
    );
}

proptest! {
    #[test]
    fn every_kind_roundtrips_byte_identically(
        t_ns in 0u64..4_000_000_000_000,
        seq in 0u64..1_000_000,
        span in 0u64..100_000,
        a in 0u64..1_000_000_000_000,
        b in 0u32..1_000_000,
        bits in 0u64..u64::MAX,
        flag in any::<bool>(),
        s in ".{0,12}",
    ) {
        // Raw bits cover NaN / ±inf / subnormals alongside normals.
        let f = f64::from_bits(bits);
        for (i, event) in all_kinds(&s, a, b, f, flag).into_iter().enumerate() {
            // Alternate tagged / untagged records so both envelope
            // encodings (field present and omitted) round-trip.
            let vehicle = if i % 2 == 0 { 0 } else { a % 33 };
            let rec = TraceRecord { t_ns, seq, span: SpanId(span), vehicle, event };
            let line = rec.to_json();
            let parsed = TraceReader::parse_line(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            prop_assert_eq!(
                &line,
                &parsed.to_json(),
                "re-encode differs for kind {}", rec.event.kind()
            );
            prop_assert_eq!(parsed.t_ns, t_ns);
            prop_assert_eq!(parsed.seq, seq);
            prop_assert_eq!(parsed.span, SpanId(span));
            prop_assert_eq!(parsed.vehicle, vehicle);
        }
    }

    #[test]
    fn parse_rejects_truncated_lines(
        cut in 1usize..40,
        a in 0u64..1_000_000,
    ) {
        let rec = TraceRecord {
            t_ns: a,
            seq: 1,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::RttSample { rtt_ns: a },
        };
        let line = rec.to_json();
        prop_assume!(cut < line.len());
        let truncated = &line[..line.len() - cut];
        prop_assert!(TraceReader::parse_line(truncated).is_err());
    }
}
