//! Duplex robot↔server links.
//!
//! A [`DuplexLink`] bundles an uplink and a downlink [`UdpChannel`]
//! over the same radio, plus the wired WAN segment that distinguishes
//! the edge gateway (on the lab LAN) from the datacenter cloud server
//! (paper Table III / §VIII-A).

use crate::channel::{Packet, SendOutcome, UdpChannel};
use crate::fault::FaultSchedule;
use crate::signal::{SignalModel, WirelessConfig};
use bytes::Bytes;
use lgv_types::prelude::*;

/// Which remote site the link terminates at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteSite {
    /// Edge gateway on the local network: wireless hop only.
    EdgeGateway,
    /// Cloud server in a remote datacenter: wireless + wired WAN hop.
    CloudServer,
}

impl RemoteSite {
    /// Default extra one-way latency of the wired segment.
    pub fn wan_latency(self) -> Duration {
        match self {
            RemoteSite::EdgeGateway => Duration::ZERO,
            RemoteSite::CloudServer => Duration::from_millis(12),
        }
    }
}

/// Link configuration.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Radio parameters.
    pub wireless: WirelessConfig,
    /// WAP position in the world.
    pub wap: Point2,
    /// Remote endpoint.
    pub site: RemoteSite,
    /// Override for the wired segment latency (defaults per site).
    pub wan_latency: Option<Duration>,
}

impl LinkConfig {
    /// Config for a link to the given site with a WAP at `wap`.
    pub fn new(site: RemoteSite, wap: Point2) -> Self {
        LinkConfig {
            wireless: WirelessConfig::default(),
            wap,
            site,
            wan_latency: None,
        }
    }
}

/// A bidirectional robot↔server link.
#[derive(Debug, Clone)]
pub struct DuplexLink {
    /// Robot → server direction.
    pub uplink: UdpChannel,
    /// Server → robot direction.
    pub downlink: UdpChannel,
    site: RemoteSite,
    uplink_bps: f64,
}

impl DuplexLink {
    /// Build both directions over one radio model.
    pub fn new(cfg: LinkConfig, rng: &mut SimRng) -> Self {
        let wan = cfg.wan_latency.unwrap_or_else(|| cfg.site.wan_latency());
        let signal = SignalModel::new(cfg.wireless.clone(), cfg.wap);
        let uplink_bps = cfg.wireless.bandwidth_bps;
        DuplexLink {
            uplink: UdpChannel::new(signal.clone(), wan, rng.fork(0xA1)),
            downlink: UdpChannel::new(signal, wan, rng.fork(0xB2)),
            site: cfg.site,
            uplink_bps,
        }
    }

    /// Route both directions' channel events to `tracer` (uplink
    /// events labelled `up`, downlink events labelled `down`).
    pub fn set_tracer(&mut self, tracer: lgv_trace::Tracer) {
        self.uplink.set_tracer(tracer.clone(), "up");
        self.downlink.set_tracer(tracer, "down");
    }

    /// Install the same scripted fault windows on both directions.
    /// The uplink terminates at the remote host (its arrivals are
    /// swallowed by a crash window); the downlink originates there
    /// (its sends stop instead).
    pub fn set_faults(&mut self, schedule: &FaultSchedule) {
        self.uplink.set_faults(schedule.clone(), true);
        self.downlink.set_faults(schedule.clone(), false);
    }

    /// Join a fleet's shared access point as `vehicle`. Only the
    /// uplink contends: the fleet's heavy traffic is sensor uplink,
    /// and the server-side radio serves the downlink from a wired
    /// backbone in this model.
    pub fn join_shared_medium(&mut self, medium: crate::shared::SharedMedium, vehicle: u64) {
        self.uplink.join_medium(medium, vehicle);
    }

    /// Is the radio itself weak at the robot's position right now
    /// (including scripted blackouts, excluding remote-host crashes)?
    /// This is what the robot's own diagnostics can see — the signal
    /// the liveness heartbeat uses to tell an outage from a dead host.
    pub fn radio_weak(&self, robot: Point2, now: SimTime) -> bool {
        self.uplink.signal().is_weak_at(robot, now)
    }

    /// The remote endpoint of this link.
    pub fn site(&self) -> RemoteSite {
        self.site
    }

    /// Uplink data rate `R_uplink` (bits/s) for Eq. 1b's transmission
    /// energy.
    pub fn uplink_bps(&self) -> f64 {
        self.uplink_bps
    }

    /// Send robot → server.
    pub fn send_up(&mut self, now: SimTime, robot: Point2, payload: Bytes) -> SendOutcome {
        self.uplink.send(now, robot, payload)
    }

    /// Send robot → server carrying the lineage id of the bus message
    /// inside the datagram.
    pub fn send_up_tagged(
        &mut self,
        now: SimTime,
        robot: Point2,
        payload: Bytes,
        msg: lgv_trace::MsgId,
    ) -> SendOutcome {
        self.uplink.send_tagged(now, robot, payload, msg)
    }

    /// Send server → robot (the server is fixed; radio quality is
    /// still governed by the robot's position, passed at tick time).
    pub fn send_down(&mut self, now: SimTime, robot: Point2, payload: Bytes) -> SendOutcome {
        self.downlink.send(now, robot, payload)
    }

    /// Send server → robot with the message's lineage id.
    pub fn send_down_tagged(
        &mut self,
        now: SimTime,
        robot: Point2,
        payload: Bytes,
        msg: lgv_trace::MsgId,
    ) -> SendOutcome {
        self.downlink.send_tagged(now, robot, payload, msg)
    }

    /// Advance both directions to `now` with the robot at `robot`.
    pub fn tick(&mut self, now: SimTime, robot: Point2) {
        self.uplink.tick(now, robot);
        self.downlink.tick(now, robot);
    }

    /// Receive at the server side (from the uplink).
    pub fn recv_at_server(&mut self) -> Option<Packet> {
        self.uplink.recv()
    }

    /// Receive at the robot side (from the downlink).
    pub fn recv_at_robot(&mut self) -> Option<Packet> {
        self.downlink.recv()
    }

    /// Expected one-way latency for a payload of `bytes` at the
    /// robot's current position, ignoring loss (a prior estimate; the
    /// profiler measures the real value).
    pub fn nominal_latency(&self, bytes: usize) -> Duration {
        self.uplink.signal().tx_delay(bytes) + self.site.wan_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(site: RemoteSite) -> DuplexLink {
        let mut rng = SimRng::seed_from_u64(3);
        let mut cfg = LinkConfig::new(site, Point2::new(0.0, 0.0));
        cfg.wireless = WirelessConfig {
            jitter: Duration::ZERO,
            ..WirelessConfig::default()
        }
        .with_weak_radius(20.0);
        DuplexLink::new(cfg, &mut rng)
    }

    #[test]
    fn roundtrip_up_and_down() {
        let mut l = link(RemoteSite::EdgeGateway);
        let robot = Point2::new(2.0, 0.0);
        let t0 = SimTime::EPOCH;
        l.send_up(t0, robot, Bytes::from_static(b"scan"));
        l.tick(t0 + Duration::from_millis(20), robot);
        let got = l.recv_at_server().expect("server receives scan");
        assert_eq!(&got.payload[..], b"scan");

        let t1 = t0 + Duration::from_millis(25);
        l.send_down(t1, robot, Bytes::from_static(b"cmd"));
        l.tick(t1 + Duration::from_millis(20), robot);
        let got = l.recv_at_robot().expect("robot receives command");
        assert_eq!(&got.payload[..], b"cmd");
    }

    #[test]
    fn cloud_has_higher_latency_than_gateway() {
        let mut gw = link(RemoteSite::EdgeGateway);
        let mut cl = link(RemoteSite::CloudServer);
        let robot = Point2::new(2.0, 0.0);
        let t0 = SimTime::EPOCH;
        gw.send_up(t0, robot, Bytes::from_static(b"x"));
        cl.send_up(t0, robot, Bytes::from_static(b"x"));
        gw.tick(t0 + Duration::from_millis(100), robot);
        cl.tick(t0 + Duration::from_millis(100), robot);
        let lg = gw.recv_at_server().unwrap().latency();
        let lc = cl.recv_at_server().unwrap().latency();
        assert!(lc > lg, "cloud {lc} should exceed gateway {lg}");
        assert!(lc >= lg + Duration::from_millis(11));
    }

    #[test]
    fn nominal_latency_includes_wan() {
        let gw = link(RemoteSite::EdgeGateway);
        let cl = link(RemoteSite::CloudServer);
        assert!(cl.nominal_latency(48) > gw.nominal_latency(48));
    }

    #[test]
    fn directions_use_independent_loss_streams() {
        let mut l = link(RemoteSite::EdgeGateway);
        let robot = Point2::new(2.0, 0.0);
        // Both directions work; stats are tracked separately.
        l.send_up(SimTime::EPOCH, robot, Bytes::from_static(b"a"));
        l.send_down(SimTime::EPOCH, robot, Bytes::from_static(b"b"));
        l.tick(SimTime::EPOCH + Duration::from_millis(50), robot);
        assert_eq!(l.uplink.stats().transmitted, 1);
        assert_eq!(l.downlink.stats().transmitted, 1);
    }
}
