//! Golden-byte tests: the exact wire encoding of the messages that
//! cross the robot–cloud link. Encoded sizes feed the bandwidth, UDP
//! buffer and energy models, so any change to these bytes is a change
//! to the physics and must be deliberate.

use lgv_middleware::{from_bytes, to_bytes, Envelope};
use lgv_types::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn velocity_cmd_bytes_are_pinned() {
    let cmd = VelocityCmd {
        stamp: SimTime::from_nanos(1_000_000_007),
        twist: Twist::new(0.25, -0.5),
        source: VelocitySource::Joystick,
    };
    let golden = [
        "07ca9a3b00000000", // stamp: u64 ns
        "000000000000d03f", // twist.linear: f64 0.25
        "000000000000e0bf", // twist.angular: f64 -0.5
        "01000000",         // source: u32 variant index (Joystick)
    ]
    .concat();
    let wire = to_bytes(&cmd).unwrap();
    assert_eq!(hex(&wire), golden);
    assert_eq!(from_bytes::<VelocityCmd>(&wire).unwrap(), cmd);
}

#[test]
fn laser_scan_bytes_are_pinned() {
    let scan = LaserScan {
        stamp: SimTime::from_nanos(42),
        angle_min: -1.5,
        angle_increment: 0.125,
        range_max: 3.5,
        ranges: vec![0.5, 1.0, 3.5],
    };
    let golden = [
        "2a00000000000000", // stamp
        "000000000000f8bf", // angle_min -1.5
        "000000000000c03f", // angle_increment 0.125
        "0000000000000c40", // range_max 3.5
        "0300000000000000", // ranges: u64 length prefix
        "000000000000e03f", // 0.5
        "000000000000f03f", // 1.0
        "0000000000000c40", // 3.5
    ]
    .concat();
    let wire = to_bytes(&scan).unwrap();
    assert_eq!(hex(&wire), golden);
    assert_eq!(from_bytes::<LaserScan>(&wire).unwrap(), scan);
}

#[test]
fn envelope_bytes_are_pinned() {
    let env = Envelope {
        topic: "/scan".into(),
        seq: 3,
        sent_at: SimTime::from_nanos(1_000),
        echo_stamp: Some(SimTime::from_nanos(500)),
        proc_times: vec![
            (NodeKind::Slam, Duration::from_millis(2)),
            (NodeKind::PathTracking, Duration::from_micros(250)),
        ],
        msg: 9,
        vehicle: 2,
        payload: vec![1, 2, 3],
    };
    let golden = [
        "0500000000000000", // topic: u64 length prefix
        "2f7363616e",       // "/scan"
        "0300000000000000", // seq
        "e803000000000000", // sent_at 1000 ns
        "01",               // echo_stamp: Some tag
        "f401000000000000", // echo_stamp 500 ns
        "0200000000000000", // proc_times: u64 length prefix
        "01000000",         // NodeKind::Slam
        "80841e0000000000", // 2 ms
        "05000000",         // NodeKind::PathTracking
        "90d0030000000000", // 250 us
        "0900000000000000", // msg
        "0200000000000000", // vehicle
        "0300000000000000", // payload: u64 length prefix
        "010203",           // payload bytes
    ]
    .concat();
    let wire = to_bytes(&env).unwrap();
    assert_eq!(hex(&wire), golden);
    assert_eq!(from_bytes::<Envelope>(&wire).unwrap(), env);
}
