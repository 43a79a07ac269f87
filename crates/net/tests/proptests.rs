//! Property-based tests for the network substrate: conservation laws
//! of the UDP channel and monotonicity of the signal model.

use bytes::Bytes;
use lgv_net::channel::{SendOutcome, UdpChannel};
use lgv_net::measure::{BandwidthMeter, SignalDirectionEstimator};
use lgv_net::signal::{SignalModel, WirelessConfig};
use lgv_types::prelude::*;
use proptest::prelude::*;

fn model(weak_radius: f64) -> SignalModel {
    SignalModel::new(
        WirelessConfig::default().with_weak_radius(weak_radius),
        Point2::new(0.0, 0.0),
    )
}

proptest! {
    #[test]
    fn rssi_monotone_in_distance(d1 in 0.2f64..100.0, d2 in 0.2f64..100.0) {
        let m = model(20.0);
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.rssi_at(Point2::new(near, 0.0)) >= m.rssi_at(Point2::new(far, 0.0)));
    }

    #[test]
    fn loss_prob_is_valid_probability(d in 0.1f64..200.0) {
        let m = model(20.0);
        let p = m.loss_prob(Point2::new(d, 0.0));
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// Conservation: every sent packet is accounted for exactly once —
    /// transmitted+held(≤1)+sender_discarded; every transmitted packet
    /// is delivered, lost in the air, or still in flight.
    #[test]
    fn channel_conserves_packets(
        seed in 0u64..500,
        positions in proptest::collection::vec(0.5f64..60.0, 1..80),
    ) {
        let m = model(20.0);
        let mut ch = UdpChannel::new(m, Duration::ZERO, SimRng::seed_from_u64(seed));
        let mut t = SimTime::EPOCH;
        let mut sent = 0u64;
        let mut held_now = 0u64;
        let mut received = 0u64;
        for (i, &x) in positions.iter().enumerate() {
            let pos = Point2::new(x, 0.0);
            let out = ch.send(t, pos, Bytes::from(vec![i as u8; 16]));
            sent += 1;
            held_now = match out {
                SendOutcome::HeldInKernelBuffer => 1,
                SendOutcome::Transmitted => 0,
                SendOutcome::DiscardedFullBuffer => held_now,
            };
            ch.tick(t + Duration::from_millis(150), pos);
            while ch.recv().is_some() {
                received += 1;
            }
            t += Duration::from_millis(200);
        }
        let s = ch.stats();
        // Sent = transmitted + still-held + discarded-at-sender.
        prop_assert_eq!(sent, s.transmitted + held_now + s.sender_discards);
        // Transmitted = delivered + lost + in flight.
        prop_assert_eq!(
            s.transmitted,
            s.delivered + s.radio_losses + ch.in_flight_len() as u64
        );
        // Receiver saw delivered minus overwritten.
        prop_assert_eq!(received, s.delivered - s.overwritten);
    }

    #[test]
    fn near_wap_nothing_is_sender_discarded(seed in 0u64..200, n in 1usize..60) {
        let m = model(20.0);
        let mut ch = UdpChannel::new(m, Duration::ZERO, SimRng::seed_from_u64(seed));
        let pos = Point2::new(1.0, 0.0);
        for i in 0..n {
            let t = SimTime::EPOCH + Duration::from_millis(200 * i as u64);
            let out = ch.send(t, pos, Bytes::from_static(b"x"));
            prop_assert_eq!(out, SendOutcome::Transmitted);
        }
        prop_assert_eq!(ch.stats().sender_discards, 0);
    }

    #[test]
    fn latency_never_negative(seed in 0u64..200) {
        let m = model(20.0);
        let mut ch = UdpChannel::new(m, Duration::from_millis(12), SimRng::seed_from_u64(seed));
        let pos = Point2::new(2.0, 0.0);
        for i in 0..20u64 {
            let t = SimTime::EPOCH + Duration::from_millis(100 * i);
            ch.send(t, pos, Bytes::from_static(b"y"));
            ch.tick(t + Duration::from_millis(99), pos);
            if let Some(p) = ch.recv() {
                prop_assert!(p.arrived_at >= p.sent_at);
                prop_assert!(p.latency() >= Duration::from_millis(12));
            }
        }
    }

    #[test]
    fn bandwidth_rate_matches_window_count(
        mut offsets in proptest::collection::vec(0u64..5000, 0..50),
    ) {
        // Arrival stamps are monotone in the simulator (the channel
        // delivers in arrival order); the meter relies on that.
        offsets.sort_unstable();
        let mut m = BandwidthMeter::new(Duration::from_secs(1));
        for &o in &offsets {
            m.record(SimTime::EPOCH + Duration::from_millis(o));
        }
        let now = SimTime::EPOCH + Duration::from_millis(5000);
        let in_window =
            offsets.iter().filter(|&&o| 5000 - o <= 1000).count();
        prop_assert_eq!(m.rate(now) as usize, in_window);
    }

    #[test]
    fn direction_sign_tracks_radial_motion(step in -0.5f64..0.5) {
        prop_assume!(step.abs() > 0.02);
        let mut d = SignalDirectionEstimator::new(Point2::new(0.0, 0.0));
        // Start far enough that we never cross the WAP.
        let mut x = 50.0;
        for i in 0..40 {
            let t = SimTime::EPOCH + Duration::from_millis(200 * i);
            d.update(t, Point2::new(x, 0.0));
            x += step;
        }
        if step > 0.0 {
            prop_assert!(d.direction() < 0.0, "moving away must read negative");
        } else {
            prop_assert!(d.direction() > 0.0, "approaching must read positive");
        }
    }
}
