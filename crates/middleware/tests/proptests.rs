//! Property-based tests for the middleware: codec roundtrips over
//! arbitrary data, decoding of hostile input, bus queue invariants, and
//! the Switcher relaying over a faulty link.

use lgv_middleware::{
    from_bytes, to_bytes, wire_struct, Bus, Envelope, Switcher, SwitcherConfig, TopicName, Wire,
};
use lgv_net::fault::{FaultKind, FaultSchedule};
use lgv_net::link::{LinkConfig, RemoteSite};
use lgv_net::DuplexLink;
use lgv_types::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Nested {
    a: Option<u64>,
    b: Vec<u32>,
    c: String,
}

wire_struct!(Nested { a, b, c });

fn nested_strategy() -> impl Strategy<Value = Nested> {
    (
        proptest::option::of(any::<u64>()),
        vec(any::<u32>(), 0..16),
        ".{0,24}",
    )
        .prop_map(|(a, b, c)| Nested { a, b, c })
}

fn time() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_nanos)
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    (
        (
            ".{0,16}",
            any::<u64>(),
            time(),
            proptest::option::of(time()),
        ),
        vec((0usize..NodeKind::ALL.len(), any::<u64>()), 0..8),
        (any::<u64>(), any::<u64>(), vec(any::<u8>(), 0..48)),
    )
        .prop_map(
            |((topic, seq, sent_at, echo_stamp), procs, (msg, vehicle, payload))| Envelope {
                topic,
                seq,
                sent_at,
                echo_stamp,
                proc_times: procs
                    .into_iter()
                    .map(|(k, ns)| (NodeKind::ALL[k], Duration::from_nanos(ns)))
                    .collect(),
                msg,
                vehicle,
                payload,
            },
        )
}

fn scan_strategy() -> impl Strategy<Value = LaserScan> {
    (time(), -3.2f64..3.2, 0.0f64..0.1, vec(0.0f64..3.5, 0..24)).prop_map(
        |(stamp, angle_min, angle_increment, ranges)| LaserScan {
            stamp,
            angle_min,
            angle_increment,
            range_max: 3.5,
            ranges,
        },
    )
}

fn cmd_strategy() -> impl Strategy<Value = VelocityCmd> {
    (time(), -1.0f64..1.0, -3.0f64..3.0, 0usize..3).prop_map(|(stamp, v, w, src)| VelocityCmd {
        stamp,
        twist: Twist::new(v, w),
        source: [
            VelocitySource::Navigation,
            VelocitySource::Joystick,
            VelocitySource::SafetyController,
        ][src],
    })
}

fn map_strategy() -> impl Strategy<Value = MapMsg> {
    (time(), 0u32..6, 0u32..6, -5.0f64..5.0, -5.0f64..5.0).prop_map(|(stamp, w, h, x, y)| MapMsg {
        stamp,
        dims: GridDims::new(w, h, 0.05, Point2::new(x, y)),
        cells: (0..w * h).map(|i| [-1, 0, 100][i as usize % 3]).collect(),
    })
}

/// Decode `value`'s encoding, every strict prefix of it, and a copy
/// with the byte at `at` replaced by `byte`. The full encoding must
/// round-trip and every prefix must be `Err`; the corrupted copy may
/// decode either way, but nothing may panic.
fn check_hostile<T: Wire + PartialEq + std::fmt::Debug>(
    value: &T,
    at: usize,
    byte: u8,
) -> Result<(), TestCaseError> {
    let wire = to_bytes(value).unwrap();
    prop_assert_eq!(&from_bytes::<T>(&wire).unwrap(), value);
    for cut in 0..wire.len() {
        prop_assert!(
            from_bytes::<T>(&wire[..cut]).is_err(),
            "prefix {cut} decoded"
        );
    }
    let mut bad = wire.to_vec();
    bad[at % wire.len()] = byte;
    let _ = from_bytes::<T>(&bad);
    Ok(())
}

proptest! {
    #[test]
    fn codec_roundtrips_primitives(
        x in any::<u64>(), y in any::<f64>(), s in ".{0,64}", o in proptest::option::of(any::<i8>()),
    ) {
        // Compare encodings, not values: `y` may be NaN.
        let v = ((x, y), (s, o));
        let bytes = to_bytes(&v).unwrap();
        let back: ((u64, f64), (String, Option<i8>)) = from_bytes(&bytes).unwrap();
        prop_assert_eq!(to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn codec_roundtrips_collections(
        v in vec(any::<u32>(), 0..64),
        p in vec((0usize..NodeKind::ALL.len(), any::<u64>()), 0..32),
    ) {
        let p: Vec<(NodeKind, Duration)> =
            p.into_iter().map(|(k, ns)| (NodeKind::ALL[k], Duration::from_nanos(ns))).collect();
        let bytes = to_bytes(&(v.clone(), p.clone())).unwrap();
        let back: (Vec<u32>, Vec<(NodeKind, Duration)>) = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.0, v);
        prop_assert_eq!(back.1, p);
    }

    #[test]
    fn codec_roundtrips_derived_struct(n in nested_strategy()) {
        let bytes = to_bytes(&n).unwrap();
        let back: Nested = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, n);
    }

    #[test]
    fn codec_roundtrips_scan(ranges in vec(0.0f64..3.5, 0..400)) {
        let scan = LaserScan {
            stamp: SimTime::from_nanos(123),
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges,
        };
        let bytes = to_bytes(&scan).unwrap();
        let back: LaserScan = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, scan);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(junk in vec(any::<u8>(), 0..256)) {
        // Only `Err` or, for the rare structurally valid input, a full
        // consume.
        let _ = from_bytes::<Envelope>(&junk);
        let _ = from_bytes::<LaserScan>(&junk);
        let _ = from_bytes::<VelocityCmd>(&junk);
        let _ = from_bytes::<MapMsg>(&junk);
    }

    #[test]
    fn decoding_truncated_or_corrupted_messages_never_panics(
        env in envelope_strategy(),
        scan in scan_strategy(),
        cmd in cmd_strategy(),
        map in map_strategy(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        check_hostile(&env, at, byte)?;
        check_hostile(&scan, at, byte)?;
        check_hostile(&cmd, at, byte)?;
        check_hostile(&map, at, byte)?;
    }

    #[test]
    fn bounded_queue_keeps_newest(cap in 1usize..8, n in 1usize..32) {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::SCAN, cap);
        for i in 0..n as u32 {
            bus.publish(TopicName::SCAN, &i).unwrap();
        }
        let kept = sub.len();
        prop_assert_eq!(kept, cap.min(n));
        // Queue holds exactly the newest `kept` messages in order.
        let mut expected = (n as u32 - kept as u32)..n as u32;
        while let Ok(Some(v)) = sub.recv::<u32>() {
            prop_assert_eq!(Some(v), expected.next());
        }
        prop_assert_eq!(sub.dropped(), (n - kept) as u64);
    }

    #[test]
    fn publish_count_is_exact(n in 0usize..64) {
        let bus = Bus::new();
        for i in 0..n as u64 {
            bus.publish(TopicName::ODOM, &i).unwrap();
        }
        prop_assert_eq!(bus.publish_count(TopicName::ODOM), n as u64);
        if n > 0 {
            prop_assert_eq!(bus.latest::<u64>(TopicName::ODOM), Some(n as u64 - 1));
        }
    }

    #[test]
    fn switcher_survives_corrupted_and_blacked_out_links(
        seed in any::<u64>(),
        // (start s, length s, blackout?, corruption probability)
        windows in vec((0.0f64..8.0, 0.0f64..3.0, any::<bool>(), 0.0f64..1.0), 0..6),
        scans in vec(scan_strategy(), 1..6),
        cmds in vec(cmd_strategy(), 1..6),
        robot_x in 0.0f64..30.0,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let link = DuplexLink::new(
            LinkConfig::new(RemoteSite::EdgeGateway, Point2::ORIGIN),
            &mut rng,
        );
        let (robot, remote) = (Bus::new(), Bus::new());
        let cfg = SwitcherConfig {
            up_topics: vec![(TopicName::SCAN, 1)],
            down_topics: vec![(TopicName::CMD_VEL_NAV, 1)],
        };
        let mut sw = Switcher::new(link, robot.clone(), remote.clone(), &cfg);
        let schedule = windows.iter().fold(FaultSchedule::none(), |s, &(from, len, blackout, prob)| {
            s.with(from, len, if blackout { FaultKind::Blackout } else { FaultKind::Corruption { prob } })
        });
        sw.set_faults(&schedule);
        let scans_at_remote = remote.subscribe(TopicName::SCAN, 4);
        let cmds_at_robot = robot.subscribe(TopicName::CMD_VEL_NAV, 4);
        let pos = Point2::new(robot_x, 0.0);
        // Ten seconds of 10 Hz traffic both ways.
        for tick in 0..100usize {
            let now = SimTime::EPOCH + Duration::from_millis(100 * tick as u64);
            robot.publish(TopicName::SCAN, &scans[tick % scans.len()]).unwrap();
            remote.publish(TopicName::CMD_VEL_NAV, &cmds[tick % cmds.len()]).unwrap();
            sw.tick(now, pos);
            // Whatever arrives decodes or errs; it never panics.
            while !matches!(scans_at_remote.recv::<LaserScan>(), Ok(None)) {}
            while !matches!(cmds_at_robot.recv::<VelocityCmd>(), Ok(None)) {}
            let st = sw.stats();
            prop_assert!(st.up_delivered <= st.up_sent, "{st:?}");
            prop_assert!(st.down_delivered <= st.down_sent, "{st:?}");
            // RTT saturates at zero, and no echo predates the epoch.
            if let Some(rtt) = sw.rtt().latest() {
                prop_assert!(rtt <= now.saturating_since(SimTime::EPOCH), "rtt {rtt}");
            }
        }
    }
}
