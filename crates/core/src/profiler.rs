//! The Profiler (paper §VII).
//!
//! Collects the four inputs Algorithms 1 and 2 consume:
//!
//! 1. per-node processing time (local nodes timed directly, remote
//!    nodes from the times piggybacked on downlink envelopes);
//! 2. network latency (RTT from echoed stamps);
//! 3. packet bandwidth (receive-rate meter);
//! 4. signal direction (WAP geometry from the internal world model).
//!
//! The derived quantity everything hinges on is the **VDP makespan**:
//! "the sum of received cloud processing time, subscribed local
//! processing time and RTT".

use lgv_trace::{MsgId, TraceEvent, Tracer};
use lgv_types::prelude::*;
use std::collections::HashMap;

/// Rolling per-node time statistics + network measurements.
///
/// ```
/// use lgv_offload::profiler::Profiler;
/// use lgv_types::prelude::*;
///
/// let mut p = Profiler::new();
/// p.record_local(NodeKind::CostmapGen, Duration::from_millis(240));
/// p.record_local(NodeKind::PathTracking, Duration::from_millis(400));
/// p.record_local(NodeKind::VelocityMux, Duration::from_millis(1));
/// // T_l^v: sum of the VDP nodes' local times, no RTT term.
/// assert_eq!(p.local_vdp_time(), Duration::from_millis(641));
///
/// // Offload the two heavy nodes: cloud times + RTT.
/// p.record_remote(NodeKind::CostmapGen, Duration::from_millis(14));
/// p.record_remote(NodeKind::PathTracking, Duration::from_millis(16));
/// p.record_rtt(Duration::from_millis(20));
/// let remote = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
/// assert_eq!(p.cloud_vdp_time(remote), Duration::from_millis(51));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    local_times: HashMap<NodeKind, Duration>,
    remote_times: HashMap<NodeKind, Duration>,
    rtt: Option<Duration>,
    bandwidth: f64,
    signal_direction: f64,
    tracer: Tracer,
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Route per-node processing-time samples to `tracer` (timestamps
    /// come from the tracer's shared virtual clock).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Record a local node's processing time.
    pub fn record_local(&mut self, node: NodeKind, time: Duration) {
        self.record_local_msg(node, time, MsgId::NONE);
    }

    /// Record a local node's processing time attributed to the bus
    /// message (lineage id) that triggered the computation.
    pub fn record_local_msg(&mut self, node: NodeKind, time: Duration, msg: MsgId) {
        self.tracer.emit_with(|| TraceEvent::ProfileSample {
            node: format!("{node:?}"),
            remote: false,
            nanos: time.as_nanos(),
            msg,
        });
        self.local_times.insert(node, time);
    }

    /// Record a remote node's processing time (piggybacked).
    pub fn record_remote(&mut self, node: NodeKind, time: Duration) {
        self.record_remote_msg(node, time, MsgId::NONE);
    }

    /// Record a remote node's processing time attributed to the bus
    /// message (lineage id) that triggered the computation.
    pub fn record_remote_msg(&mut self, node: NodeKind, time: Duration, msg: MsgId) {
        self.tracer.emit_with(|| TraceEvent::ProfileSample {
            node: format!("{node:?}"),
            remote: true,
            nanos: time.as_nanos(),
            msg,
        });
        self.remote_times.insert(node, time);
    }

    /// Record the latest RTT sample.
    pub fn record_rtt(&mut self, rtt: Duration) {
        self.rtt = Some(rtt);
    }

    /// Record the current packet bandwidth (packets/s).
    pub fn record_bandwidth(&mut self, pps: f64) {
        self.bandwidth = pps;
    }

    /// Record the current signal direction.
    pub fn record_signal_direction(&mut self, dir: f64) {
        self.signal_direction = dir;
    }

    /// Latest RTT (zero when never measured — e.g. all-local runs).
    pub fn rtt(&self) -> Duration {
        self.rtt.unwrap_or(Duration::ZERO)
    }

    /// Latest packet bandwidth (packets/s).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Latest signal direction.
    pub fn signal_direction(&self) -> f64 {
        self.signal_direction
    }

    /// Last known processing time of a node under a given placement.
    pub fn node_time(&self, node: NodeKind, placement: Placement) -> Option<Duration> {
        match placement {
            Placement::Local => self.local_times.get(&node).copied(),
            Placement::Remote => self.remote_times.get(&node).copied(),
        }
    }

    /// The VDP makespan for a placement assignment: Σ VDP node times
    /// (+ RTT when any VDP node is remote). Nodes without data yet
    /// contribute zero (optimistic startup).
    pub fn vdp_makespan(&self, remote: NodeSet) -> Duration {
        let mut total = Duration::ZERO;
        let mut any_remote = false;
        for kind in NodeKind::ALL {
            if !kind.on_vdp() {
                continue;
            }
            let placement = if remote.contains(kind) {
                Placement::Remote
            } else {
                Placement::Local
            };
            if placement == Placement::Remote {
                any_remote = true;
            }
            if let Some(t) = self.node_time(kind, placement) {
                total += t;
            }
        }
        if any_remote {
            total += self.rtt();
        }
        total
    }

    /// `T_l^v`: the all-local VDP makespan.
    pub fn local_vdp_time(&self) -> Duration {
        self.vdp_makespan(NodeSet::EMPTY)
    }

    /// `T_c`: the VDP makespan with the given remote set (must include
    /// network latency — `vdp_makespan` adds the RTT).
    pub fn cloud_vdp_time(&self, remote: NodeSet) -> Duration {
        self.vdp_makespan(remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn vdp_remote() -> NodeSet {
        NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking])
    }

    #[test]
    fn local_makespan_sums_vdp_nodes_only() {
        let mut p = Profiler::new();
        p.record_local(NodeKind::CostmapGen, ms(240));
        p.record_local(NodeKind::PathTracking, ms(400));
        p.record_local(NodeKind::VelocityMux, ms(1));
        p.record_local(NodeKind::Slam, ms(2000)); // not on VDP
        assert_eq!(p.local_vdp_time(), ms(641));
    }

    #[test]
    fn cloud_makespan_adds_rtt() {
        let mut p = Profiler::new();
        p.record_local(NodeKind::VelocityMux, ms(1));
        p.record_remote(NodeKind::CostmapGen, ms(14));
        p.record_remote(NodeKind::PathTracking, ms(16));
        p.record_rtt(ms(20));
        assert_eq!(p.cloud_vdp_time(vdp_remote()), ms(51));
    }

    #[test]
    fn all_local_set_has_no_rtt_term() {
        let mut p = Profiler::new();
        p.record_local(NodeKind::CostmapGen, ms(100));
        p.record_local(NodeKind::PathTracking, ms(100));
        p.record_local(NodeKind::VelocityMux, ms(1));
        p.record_rtt(ms(500));
        assert_eq!(p.local_vdp_time(), ms(201));
    }

    #[test]
    fn missing_data_contributes_zero() {
        let p = Profiler::new();
        assert_eq!(p.local_vdp_time(), Duration::ZERO);
        assert_eq!(p.rtt(), Duration::ZERO);
    }

    #[test]
    fn placement_distinguishes_time_sources() {
        let mut p = Profiler::new();
        p.record_local(NodeKind::PathTracking, ms(400));
        p.record_remote(NodeKind::PathTracking, ms(15));
        assert_eq!(
            p.node_time(NodeKind::PathTracking, Placement::Local),
            Some(ms(400))
        );
        assert_eq!(
            p.node_time(NodeKind::PathTracking, Placement::Remote),
            Some(ms(15))
        );
        // MCT comparison: the same node, both worlds.
        assert!(p.cloud_vdp_time(vdp_remote()) < p.local_vdp_time());
    }

    #[test]
    fn network_measurements_roundtrip() {
        let mut p = Profiler::new();
        p.record_bandwidth(4.7);
        p.record_signal_direction(-0.3);
        assert_eq!(p.bandwidth(), 4.7);
        assert_eq!(p.signal_direction(), -0.3);
    }

    #[test]
    fn samples_are_traced_with_placement_and_lineage() {
        let tracer = Tracer::enabled();
        let ring = tracer.attach(lgv_trace::RingBufferSink::new(4));
        let mut p = Profiler::new();
        p.set_tracer(tracer);
        p.record_local_msg(NodeKind::Slam, ms(3), MsgId(4));
        p.record_remote(NodeKind::CostmapGen, ms(1));
        let ring = ring.lock().unwrap();
        let events: Vec<_> = ring.records().map(|r| r.event.clone()).collect();
        assert_eq!(
            events,
            vec![
                TraceEvent::ProfileSample {
                    node: "Slam".into(),
                    remote: false,
                    nanos: 3_000_000,
                    msg: MsgId(4),
                },
                TraceEvent::ProfileSample {
                    node: "CostmapGen".into(),
                    remote: true,
                    nanos: 1_000_000,
                    msg: MsgId::NONE,
                },
            ]
        );
    }

    #[test]
    fn the_latest_sample_per_placement_wins() {
        let mut p = Profiler::new();
        assert_eq!(p.rtt(), Duration::ZERO);
        p.record_local(NodeKind::PathTracking, ms(9));
        p.record_local(NodeKind::PathTracking, ms(4));
        p.record_remote(NodeKind::PathTracking, ms(2));
        assert_eq!(
            p.node_time(NodeKind::PathTracking, Placement::Local),
            Some(ms(4))
        );
        assert_eq!(
            p.node_time(NodeKind::PathTracking, Placement::Remote),
            Some(ms(2))
        );
        assert_eq!(p.node_time(NodeKind::Slam, Placement::Local), None);
    }
}
