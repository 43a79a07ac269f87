//! The Switcher: cross-host topic relay (paper §VII).
//!
//! The Switcher is "the main thread that maintains data communication
//! between different worker nodes deployed in the local LGV and the
//! remote server. It attaches temporal information to each ROS message
//! and sends it to the receiver with a serialized data structure."
//!
//! Our Switcher owns the simulated [`DuplexLink`] and relays a
//! configured set of topics between the robot's [`Bus`] and the remote
//! host's [`Bus`], wrapping every message in an [`Envelope`] carrying:
//!
//! * the send timestamp (for latency bookkeeping),
//! * an echo of the latest stamp received from the peer (the Profiler
//!   computes RTT from this, §VII "Profiler (2)"),
//! * the remote nodes' processing times piggybacked on downlink
//!   traffic (§VII "the remote switcher … attaches the subscribed
//!   processing time of the cloud worker nodes and returns it").

use crate::bus::{Bus, Subscriber};
use crate::codec::{from_bytes, to_bytes};
use crate::topic::TopicName;
use lgv_net::channel::SendOutcome;
use lgv_net::measure::{BandwidthMeter, RttTracker};
use lgv_net::DuplexLink;
use lgv_trace::{MsgId, TraceEvent, Tracer};
use lgv_types::prelude::*;

/// The wire envelope around every relayed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Topic the payload belongs to.
    pub topic: String,
    /// Relay sequence number.
    pub seq: u64,
    /// When the sending switcher emitted this envelope.
    pub sent_at: SimTime,
    /// Echo of the newest `sent_at` seen from the peer (RTT probe).
    pub echo_stamp: Option<SimTime>,
    /// Remote node processing times piggybacked on this envelope.
    pub proc_times: Vec<(NodeKind, Duration)>,
    /// Lineage id of the bus message inside (0 = untraced/control),
    /// carried across the wire so the receiving side can chain its
    /// re-publication back to the original publish.
    pub msg: u64,
    /// Tenant id of the vehicle this envelope belongs to (0 = the
    /// single-vehicle sentinel, [`VehicleId::NONE`]). A shared cloud
    /// demultiplexes fleet traffic by this field.
    pub vehicle: u64,
    /// The encoded inner message.
    pub payload: Vec<u8>,
}

crate::wire_struct!(Envelope {
    topic,
    seq,
    sent_at,
    echo_stamp,
    proc_times,
    msg,
    vehicle,
    payload
});

/// Which topics flow in each direction.
#[derive(Debug, Clone, Default)]
pub struct SwitcherConfig {
    /// Robot → server topics with per-topic relay queue capacity.
    pub up_topics: Vec<(TopicName, usize)>,
    /// Server → robot topics with per-topic relay queue capacity.
    pub down_topics: Vec<(TopicName, usize)>,
}

/// Relay statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitcherStats {
    /// Envelopes sent up.
    pub up_sent: u64,
    /// Uplink sends silently discarded at the sender (weak signal).
    pub up_discarded: u64,
    /// Envelopes delivered to the remote bus.
    pub up_delivered: u64,
    /// Envelopes sent down.
    pub down_sent: u64,
    /// Downlink sends silently discarded at the sender.
    pub down_discarded: u64,
    /// Envelopes delivered to the robot bus.
    pub down_delivered: u64,
}

/// The cross-host relay.
#[derive(Debug)]
pub struct Switcher {
    link: DuplexLink,
    robot_bus: Bus,
    remote_bus: Bus,
    up_subs: Vec<Subscriber>,
    down_subs: Vec<Subscriber>,
    seq: u64,
    /// Newest robot stamp the remote side has seen (echoed downward).
    latest_up_stamp: Option<SimTime>,
    /// Newest remote stamp the robot side has seen (echoed upward).
    latest_down_stamp: Option<SimTime>,
    /// Robot-side RTT estimate from echoed stamps.
    rtt: RttTracker,
    /// Robot-side receive-rate meter over the downlink (Algorithm 2's
    /// packet bandwidth `r_t`).
    bandwidth: BandwidthMeter,
    /// Pending processing times to piggyback on the next downlink
    /// envelopes (remote-side state).
    pending_proc: Vec<(NodeKind, Duration)>,
    /// When the robot last heard *anything* over the downlink — data
    /// or ack. Every downlink envelope originates at the remote host,
    /// so silence here under a healthy radio means the host is dead
    /// (the cloud-liveness heartbeat's input).
    last_downlink_at: Option<SimTime>,
    /// Bytes pushed into the uplink radio (for Eq. 1b energy).
    pub uplink_bytes_sent: u64,
    stats: SwitcherStats,
    tracer: Tracer,
    /// Tenant id stamped on every envelope this switcher emits
    /// ([`VehicleId::NONE`] outside a fleet).
    vehicle: VehicleId,
}

impl Switcher {
    /// Wire a switcher between two buses over a link.
    pub fn new(link: DuplexLink, robot_bus: Bus, remote_bus: Bus, cfg: &SwitcherConfig) -> Self {
        let up_subs = cfg
            .up_topics
            .iter()
            .map(|(t, cap)| robot_bus.subscribe(*t, *cap))
            .collect();
        let down_subs = cfg
            .down_topics
            .iter()
            .map(|(t, cap)| remote_bus.subscribe(*t, *cap))
            .collect();
        Switcher {
            link,
            robot_bus,
            remote_bus,
            up_subs,
            down_subs,
            seq: 0,
            latest_up_stamp: None,
            latest_down_stamp: None,
            rtt: RttTracker::default(),
            bandwidth: BandwidthMeter::new(Duration::from_secs(1)),
            pending_proc: Vec::new(),
            last_downlink_at: None,
            uplink_bytes_sent: 0,
            stats: SwitcherStats::default(),
            tracer: Tracer::disabled(),
            vehicle: VehicleId::NONE,
        }
    }

    /// Stamp every envelope this switcher emits with a fleet tenant
    /// id. Single-vehicle runs never call this and keep the 0
    /// sentinel.
    pub fn set_vehicle(&mut self, vehicle: VehicleId) {
        self.vehicle = vehicle;
    }

    /// Route relay events (RTT samples) and the underlying link's
    /// channel events to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.link.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Remote-side hook: report a node's processing time so it is
    /// piggybacked to the robot on the next downlink envelope.
    pub fn report_remote_proc_time(&mut self, node: NodeKind, time: Duration) {
        self.pending_proc.retain(|(n, _)| *n != node);
        self.pending_proc.push((node, time));
    }

    /// Robot-side RTT tracker (fed by echoed stamps).
    pub fn rtt(&self) -> &RttTracker {
        &self.rtt
    }

    /// Robot-side downlink packet bandwidth (packets/s) at `now`.
    pub fn downlink_bandwidth(&mut self, now: SimTime) -> f64 {
        self.bandwidth.rate(now)
    }

    /// Relay statistics.
    pub fn stats(&self) -> SwitcherStats {
        self.stats
    }

    /// The link (for signal/diagnostic queries).
    pub fn link(&self) -> &DuplexLink {
        &self.link
    }

    /// Mutable link access, for fleet wiring (joining the shared
    /// wireless medium).
    pub fn link_mut(&mut self) -> &mut DuplexLink {
        &mut self.link
    }

    /// When the robot last received any downlink envelope (`None`
    /// until the remote has been heard from at all).
    pub fn last_downlink_at(&self) -> Option<SimTime> {
        self.last_downlink_at
    }

    /// Reset the liveness clock — call when a placement switch gives
    /// the remote a fresh grace period to produce its first downlink.
    pub fn reset_downlink_clock(&mut self, now: SimTime) {
        self.last_downlink_at = Some(now);
    }

    /// Install scripted fault windows on both link directions.
    pub fn set_faults(&mut self, schedule: &lgv_net::FaultSchedule) {
        self.link.set_faults(schedule);
    }

    fn envelope(&mut self, topic: TopicName, payload: &[u8], now: SimTime, msg: MsgId) -> Envelope {
        let seq = self.seq;
        self.seq += 1;
        Envelope {
            topic: topic.as_str().to_string(),
            seq,
            sent_at: now,
            echo_stamp: None,
            proc_times: Vec::new(),
            msg: msg.0,
            vehicle: self.vehicle.raw(),
            payload: payload.to_vec(),
        }
    }

    /// Relay pending traffic in both directions and advance the link
    /// to `now` with the robot at `robot_pos`.
    pub fn tick(&mut self, now: SimTime, robot_pos: Point2) {
        // Robot → server.
        for i in 0..self.up_subs.len() {
            while let Some((bytes, msg)) = self.up_subs[i].recv_bytes_tagged() {
                let topic = self.up_subs[i].topic();
                let env = self.envelope(topic, &bytes, now, msg);
                let wire = to_bytes(&env).expect("envelope serializes");
                self.uplink_bytes_sent += wire.len() as u64;
                self.stats.up_sent += 1;
                if self.link.send_up_tagged(now, robot_pos, wire, msg)
                    == SendOutcome::DiscardedFullBuffer
                {
                    self.stats.up_discarded += 1;
                }
            }
        }

        // Server → robot.
        for i in 0..self.down_subs.len() {
            while let Some((bytes, msg)) = self.down_subs[i].recv_bytes_tagged() {
                let topic = self.down_subs[i].topic();
                let env = self.envelope(topic, &bytes, now, msg);
                let wire = to_bytes(&env).expect("envelope serializes");
                self.stats.down_sent += 1;
                if self.link.send_down_tagged(now, robot_pos, wire, msg)
                    == SendOutcome::DiscardedFullBuffer
                {
                    self.stats.down_discarded += 1;
                }
            }
        }

        self.link.tick(now, robot_pos);

        // Deliver arrivals at the server; acknowledge each delivery
        // immediately so the robot-side RTT excludes remote processing
        // time (the Profiler's VDP makespan adds processing
        // separately, §VII). Acks also carry the piggybacked remote
        // processing times.
        let mut acks: Vec<Envelope> = Vec::new();
        while let Some(pkt) = self.link.recv_at_server() {
            let Ok(env) = from_bytes::<Envelope>(&pkt.payload) else {
                continue;
            };
            self.latest_up_stamp = Some(
                self.latest_up_stamp
                    .map_or(env.sent_at, |s| s.max(env.sent_at)),
            );
            let seq = self.seq;
            self.seq += 1;
            acks.push(Envelope {
                topic: TopicName::PROC_TIME.as_str().to_string(),
                seq,
                sent_at: now,
                echo_stamp: Some(env.sent_at),
                proc_times: std::mem::take(&mut self.pending_proc),
                msg: 0,
                vehicle: self.vehicle.raw(),
                payload: Vec::new(),
            });
            if let Some(topic) = TopicName::resolve(&env.topic) {
                self.remote_bus
                    .publish_bytes_from(topic, env.payload.into(), MsgId(env.msg));
                self.stats.up_delivered += 1;
            }
        }
        for ack in acks {
            let wire = to_bytes(&ack).expect("ack serializes");
            let _ = self.link.send_down(now, robot_pos, wire);
        }
        self.link.tick(now, robot_pos);

        // Deliver arrivals at the robot. Ack envelopes (PROC_TIME)
        // feed the RTT tracker; data
        // envelopes feed the packet-bandwidth meter (Algorithm 2's
        // r_t counts the VDP data stream, not control chatter).
        while let Some(pkt) = self.link.recv_at_robot() {
            let Ok(env) = from_bytes::<Envelope>(&pkt.payload) else {
                continue;
            };
            self.last_downlink_at = Some(
                self.last_downlink_at
                    .map_or(pkt.arrived_at, |s| s.max(pkt.arrived_at)),
            );
            self.latest_down_stamp = Some(
                self.latest_down_stamp
                    .map_or(env.sent_at, |s| s.max(env.sent_at)),
            );
            if let Some(echo) = env.echo_stamp {
                let rtt = now.saturating_since(echo);
                self.rtt.record(rtt);
                self.tracer.emit_at(
                    now.as_nanos(),
                    TraceEvent::RttSample {
                        rtt_ns: rtt.as_nanos(),
                    },
                );
            }
            if env.topic == TopicName::PROC_TIME.as_str() {
                continue;
            }
            self.bandwidth.record(pkt.arrived_at);
            if let Some(topic) = TopicName::resolve(&env.topic) {
                self.robot_bus
                    .publish_bytes_from(topic, env.payload.into(), MsgId(env.msg));
                self.stats.down_delivered += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_net::link::{LinkConfig, RemoteSite};
    use lgv_net::signal::WirelessConfig;

    fn make(site: RemoteSite) -> (Switcher, Bus, Bus) {
        let mut rng = SimRng::seed_from_u64(7);
        let mut cfg = LinkConfig::new(site, Point2::new(0.0, 0.0));
        cfg.wireless = WirelessConfig {
            jitter: Duration::ZERO,
            ..WirelessConfig::default()
        }
        .with_weak_radius(20.0);
        let link = DuplexLink::new(cfg, &mut rng);
        let robot = Bus::new();
        let remote = Bus::new();
        // The VDP offloading set: sensor data up, velocity commands
        // down, all with one-length queues for freshness.
        let cfg = SwitcherConfig {
            up_topics: vec![
                (TopicName::SCAN, 1),
                (TopicName::ODOM, 1),
                (TopicName::POSE, 1),
            ],
            down_topics: vec![(TopicName::CMD_VEL_NAV, 1), (TopicName::PLAN, 1)],
        };
        let sw = Switcher::new(link, robot.clone(), remote.clone(), &cfg);
        (sw, robot, remote)
    }

    fn near() -> Point2 {
        Point2::new(1.0, 0.0)
    }

    fn step(sw: &mut Switcher, ms: u64, pos: Point2) -> SimTime {
        let t = SimTime::EPOCH + Duration::from_millis(ms);
        sw.tick(t, pos);
        t
    }

    #[test]
    fn relays_scan_up_and_cmd_down() {
        let (mut sw, robot, remote) = make(RemoteSite::EdgeGateway);
        let remote_sub = remote.subscribe(TopicName::SCAN, 2);

        robot.publish(TopicName::SCAN, &42u32).unwrap();
        step(&mut sw, 0, near());
        step(&mut sw, 50, near());
        assert_eq!(remote_sub.recv::<u32>().unwrap(), Some(42));

        let robot_sub = robot.subscribe(TopicName::CMD_VEL_NAV, 2);
        remote
            .publish(TopicName::CMD_VEL_NAV, &Twist::new(0.2, 0.0))
            .unwrap();
        step(&mut sw, 100, near());
        step(&mut sw, 150, near());
        assert_eq!(
            robot_sub.recv::<Twist>().unwrap(),
            Some(Twist::new(0.2, 0.0))
        );
        let st = sw.stats();
        assert_eq!(st.up_delivered, 1);
        assert_eq!(st.down_delivered, 1);
    }

    #[test]
    fn rtt_is_measured_from_echo() {
        let (mut sw, robot, remote) = make(RemoteSite::CloudServer);
        robot.publish(TopicName::SCAN, &1u8).unwrap();
        step(&mut sw, 0, near());
        step(&mut sw, 100, near()); // scan arrives at server
        remote.publish(TopicName::CMD_VEL_NAV, &2u8).unwrap();
        step(&mut sw, 120, near()); // cmd sent with echo of scan stamp
        step(&mut sw, 300, near()); // cmd arrives at robot
        let rtt = sw.rtt().latest().expect("RTT sample");
        // Echo stamp was t=0, received by t=300: RTT ≤ 300 ms and at
        // least the two WAN hops (2 × 12 ms).
        assert!(rtt >= Duration::from_millis(24), "rtt {rtt}");
        assert!(rtt <= Duration::from_millis(300));
    }

    #[test]
    fn remote_proc_times_are_piggybacked() {
        let (mut sw, robot, _remote) = make(RemoteSite::EdgeGateway);
        // A second report for the same node replaces the first.
        sw.report_remote_proc_time(NodeKind::PathTracking, Duration::from_millis(9));
        sw.report_remote_proc_time(NodeKind::PathTracking, Duration::from_millis(15));
        assert_eq!(
            sw.pending_proc,
            [(NodeKind::PathTracking, Duration::from_millis(15))]
        );
        // Proc times ride on the ack generated when uplink traffic is
        // delivered at the server.
        robot.publish(TopicName::SCAN, &0u8).unwrap();
        step(&mut sw, 0, near());
        step(&mut sw, 40, near());
        assert_eq!(sw.stats().up_delivered, 1);
        assert!(sw.pending_proc.is_empty(), "the ack took them");
        assert_eq!(sw.stats().down_sent, 0, "acks are not data");
    }

    #[test]
    fn weak_signal_starves_bandwidth() {
        let (mut sw, _robot, remote) = make(RemoteSite::EdgeGateway);
        let far = Point2::new(30.0, 0.0);
        // Server pushes velocity at 5 Hz for 2 s while the robot is out
        // of range.
        for i in 0..10 {
            remote.publish(TopicName::CMD_VEL_NAV, &(i as u32)).unwrap();
            step(&mut sw, 200 * i, far);
        }
        let now = SimTime::EPOCH + Duration::from_millis(2000);
        assert!(
            sw.downlink_bandwidth(now) <= 1.0,
            "bandwidth should collapse"
        );
        assert!(sw.stats().down_discarded > 0);
    }

    #[test]
    fn strong_signal_sustains_bandwidth() {
        let (mut sw, _robot, remote) = make(RemoteSite::EdgeGateway);
        for i in 0..10 {
            remote.publish(TopicName::CMD_VEL_NAV, &(i as u32)).unwrap();
            step(&mut sw, 200 * i, near());
        }
        let now = SimTime::EPOCH + Duration::from_millis(1900);
        assert!(
            sw.downlink_bandwidth(now) >= 4.0,
            "bandwidth {}",
            sw.downlink_bandwidth(now)
        );
    }

    #[test]
    fn downlink_liveness_clock_tracks_arrivals() {
        let (mut sw, robot, remote) = make(RemoteSite::EdgeGateway);
        assert_eq!(sw.last_downlink_at(), None, "silent until first arrival");
        // A command arriving from the remote stamps the clock...
        remote.publish(TopicName::CMD_VEL_NAV, &1u8).unwrap();
        step(&mut sw, 0, near());
        step(&mut sw, 50, near());
        let first = sw.last_downlink_at().expect("arrival stamps the clock");
        // ...and an ack (PROC_TIME) refreshes it too: any downlink
        // traffic proves the remote host is alive.
        robot.publish(TopicName::SCAN, &2u8).unwrap();
        step(&mut sw, 1000, near());
        step(&mut sw, 1050, near());
        step(&mut sw, 1100, near());
        let refreshed = sw.last_downlink_at().expect("still stamped");
        assert!(refreshed > first, "{refreshed} should advance past {first}");
        // Silence leaves it frozen.
        step(&mut sw, 5000, near());
        assert_eq!(sw.last_downlink_at(), Some(refreshed));
        // A placement switch resets the grace period.
        sw.reset_downlink_clock(SimTime::EPOCH + Duration::from_millis(6000));
        assert_eq!(
            sw.last_downlink_at(),
            Some(SimTime::EPOCH + Duration::from_millis(6000))
        );
    }

    #[test]
    fn envelopes_carry_the_tenant_id() {
        let (mut sw, _robot, _remote) = make(RemoteSite::EdgeGateway);
        // Default: the single-vehicle sentinel.
        let env = sw.envelope(TopicName::SCAN, &[1, 2], SimTime::EPOCH, MsgId::NONE);
        assert_eq!(env.vehicle, 0);
        sw.set_vehicle(VehicleId(5));
        let env = sw.envelope(TopicName::SCAN, &[1, 2], SimTime::EPOCH, MsgId::NONE);
        assert_eq!(env.vehicle, 5);
    }

    #[test]
    fn uplink_bytes_are_counted_for_energy() {
        let (mut sw, robot, _remote) = make(RemoteSite::EdgeGateway);
        robot.publish(TopicName::SCAN, &vec![0.5f64; 360]).unwrap();
        step(&mut sw, 0, near());
        assert!(
            sw.uplink_bytes_sent > 2880,
            "bytes {}",
            sw.uplink_bytes_sent
        );
    }
}
