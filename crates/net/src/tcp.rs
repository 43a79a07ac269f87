//! Reliable, in-order channel (the "TCP" of the paper's §VII: "each
//! VM is connected to an LGV via TCP/UDP").
//!
//! Control traffic — node migration commands, state transfer during an
//! Algorithm 2 switch, map uploads — must arrive completely and in
//! order, unlike the freshness-first VDP streams. [`TcpChannel`]
//! provides that over the same lossy radio: stop-and-wait
//! retransmission with a retransmission timeout, cumulative in-order
//! delivery, and head-of-line blocking (the defining behavioural
//! difference from [`crate::channel::UdpChannel`] — *latency spikes
//! instead of loss*).
//!
//! The window is deliberately 1 segment (stop-and-wait): control
//! traffic is tiny, and the simple protocol keeps the simulation
//! exactly analysable in tests.

use crate::fault::{FaultInjector, FaultSchedule};
use crate::signal::SignalModel;
use bytes::Bytes;
use lgv_trace::{MsgId, SendKind, TraceEvent, Tracer};
use lgv_types::prelude::*;
use std::collections::VecDeque;

/// Channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments accepted from the application.
    pub queued: u64,
    /// Transmission attempts (including retransmissions).
    pub attempts: u64,
    /// Segments lost in the air (recovered by retransmission).
    pub losses: u64,
    /// Segments fully delivered to the receiver.
    pub delivered: u64,
    /// Segments flushed by [`TcpChannel::cancel_pending`] before
    /// delivery (aborted transfers).
    pub cancelled: u64,
}

#[derive(Debug, Clone)]
struct Segment {
    seq: u64,
    payload: Bytes,
    queued_at: SimTime,
    /// Lineage id of the logical message the segment belongs to
    /// ([`MsgId::NONE`] for untagged traffic).
    msg: MsgId,
}

/// Reliable in-order channel over the radio model.
#[derive(Debug, Clone)]
pub struct TcpChannel {
    signal: SignalModel,
    wan_latency: Duration,
    rto: Duration,
    rng: SimRng,
    next_seq: u64,
    /// Unsent + unacknowledged segments, in order.
    send_queue: VecDeque<Segment>,
    /// Head-of-queue state: when the in-flight copy (if any) will be
    /// acknowledged, or when to retransmit.
    in_flight: Option<InFlight>,
    /// Delivered segments awaiting the application.
    rx_queue: VecDeque<(u64, Bytes, SimTime)>,
    stats: TcpStats,
    tracer: Tracer,
    /// Direction label stamped on trace events (`tcp` by default).
    trace_dir: &'static str,
    /// Scripted fault windows applied to this channel (no-op by default).
    faults: FaultInjector,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// When the receiver gets the segment (None = this copy was lost).
    arrives: Option<SimTime>,
    /// When the sender sees the cumulative ack (success path).
    acked: Option<SimTime>,
    /// When the retransmission timer fires.
    rto_at: SimTime,
}

impl TcpChannel {
    /// Build a reliable channel over `signal`, with an extra wired
    /// segment of `wan_latency` and a fixed retransmission timeout.
    pub fn new(signal: SignalModel, wan_latency: Duration, rng: SimRng) -> Self {
        TcpChannel {
            signal,
            wan_latency,
            rto: Duration::from_millis(200),
            rng,
            next_seq: 0,
            send_queue: VecDeque::new(),
            in_flight: None,
            rx_queue: VecDeque::new(),
            stats: TcpStats::default(),
            tracer: Tracer::disabled(),
            trace_dir: "tcp",
            faults: FaultInjector::disabled(),
        }
    }

    /// Install scripted fault windows. The reliable channel always
    /// terminates at the remote host, so a
    /// [`crate::fault::FaultKind::RemoteCrash`] window loses every
    /// launch (no acks from a dead box) and the retransmission timer
    /// carries the transfer across the window.
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        self.signal.set_faults(schedule.clone());
        self.faults = FaultInjector::new(schedule, self.rng.fork(0xFA17), true);
    }

    /// Route this channel's send/loss/deliver events to `tracer`,
    /// labelled with the direction `dir` (`"tcp"` for the shared
    /// control channel).
    pub fn set_tracer(&mut self, tracer: Tracer, dir: &'static str) {
        self.tracer = tracer;
        self.trace_dir = dir;
    }

    /// Queue a payload for reliable delivery. Never drops; large
    /// backlogs simply take longer (head-of-line blocking).
    pub fn send(&mut self, now: SimTime, payload: Bytes) -> u64 {
        self.send_tagged(now, payload, MsgId::NONE)
    }

    /// Like [`TcpChannel::send`], carrying the lineage id of the
    /// logical message the segment belongs to.
    pub fn send_tagged(&mut self, now: SimTime, payload: Bytes, msg: MsgId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.queued += 1;
        let bytes = payload.len() as u64;
        self.tracer
            .emit_with_at(now.as_nanos(), || TraceEvent::ChannelSend {
                dir: self.trace_dir.to_string(),
                seq,
                bytes,
                outcome: SendKind::Transmitted,
                msg,
            });
        self.send_queue.push_back(Segment {
            seq,
            payload,
            queued_at: now,
            msg,
        });
        seq
    }

    fn launch_head(&mut self, now: SimTime, robot: Point2) {
        let Some(head) = self.send_queue.front() else {
            return;
        };
        self.stats.attempts += 1;
        let lost = self.faults.drops_at_send(now)
            || self.rng.chance(self.signal.loss_prob_at(robot, now))
            || self.signal.is_weak_at(robot, now) && self.rng.chance(0.5);
        let one_way = self.signal.tx_delay_at(head.payload.len(), now)
            + self.wan_latency
            + self.signal.config().jitter * self.rng.uniform();
        if lost {
            self.stats.losses += 1;
            let (seq, msg) = (head.seq, head.msg);
            self.tracer
                .emit_with_at(now.as_nanos(), || TraceEvent::ChannelLoss {
                    dir: self.trace_dir.to_string(),
                    seq,
                    msg,
                });
            self.in_flight = Some(InFlight {
                arrives: None,
                acked: None,
                rto_at: now + self.rto,
            });
        } else {
            let arrives = now + one_way;
            // Ack is small: base latency + WAN back.
            let acked = arrives + self.signal.tx_delay(16) + self.wan_latency;
            self.in_flight = Some(InFlight {
                arrives: Some(arrives),
                acked: Some(acked),
                rto_at: now + self.rto,
            });
        }
    }

    /// Advance the protocol to `now` with the robot at `robot`.
    pub fn tick(&mut self, now: SimTime, robot: Point2) {
        loop {
            match self.in_flight {
                None => {
                    if self.send_queue.is_empty() {
                        return;
                    }
                    self.launch_head(now, robot);
                    // Protocol events for the launched copy resolve on
                    // later ticks (or below if already due).
                }
                Some(f) => {
                    // Delivery event.
                    if let (Some(arrives), Some(acked)) = (f.arrives, f.acked) {
                        if acked <= now {
                            let seg = self.send_queue.pop_front().expect("in-flight head");
                            // Stamped at the observing tick; the true
                            // queue-to-receiver latency rides along.
                            let (seq, msg) = (seg.seq, seg.msg);
                            let latency = arrives.saturating_since(seg.queued_at);
                            self.tracer.emit_with_at(now.as_nanos(), || {
                                TraceEvent::ChannelDeliver {
                                    dir: self.trace_dir.to_string(),
                                    seq,
                                    msg,
                                    latency_ns: latency.as_nanos(),
                                }
                            });
                            self.rx_queue.push_back((seg.seq, seg.payload, arrives));
                            self.stats.delivered += 1;
                            self.in_flight = None;
                            continue; // launch the next segment
                        }
                        return; // waiting on the ack
                    }
                    // Lost copy: retransmit at RTO.
                    if f.rto_at <= now {
                        self.launch_head(now, robot);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    /// Receive the next in-order payload, with its sequence number and
    /// arrival time.
    pub fn recv(&mut self) -> Option<(u64, Bytes, SimTime)> {
        self.rx_queue.pop_front()
    }

    /// Abandon the transfer: flush every queued segment, the in-flight
    /// copy, and any delivered-but-undrained payloads. Returns the
    /// number of segments flushed from the send side. Without this, an
    /// aborted transfer's segments would keep retransmitting (burning
    /// bandwidth) and head-of-line-block the *next* transfer behind
    /// stale traffic nobody will drain.
    pub fn cancel_pending(&mut self) -> usize {
        let flushed = self.send_queue.len();
        self.stats.cancelled += flushed as u64;
        self.send_queue.clear();
        self.in_flight = None;
        self.rx_queue.clear();
        flushed
    }

    /// Protocol statistics.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::WirelessConfig;

    fn channel(loss_mid_shift: f64) -> TcpChannel {
        let cfg = WirelessConfig {
            loss_mid_dbm: -76.0 + loss_mid_shift,
            jitter: Duration::ZERO,
            ..WirelessConfig::default()
        }
        .with_weak_radius(25.0);
        let sm = SignalModel::new(cfg, Point2::new(0.0, 0.0));
        TcpChannel::new(sm, Duration::from_millis(10), SimRng::seed_from_u64(3))
    }

    fn near() -> Point2 {
        Point2::new(1.0, 0.0)
    }

    #[test]
    fn delivers_in_order_without_loss() {
        let mut ch = channel(0.0);
        for i in 0..5u8 {
            ch.send(
                SimTime::EPOCH + Duration::from_millis(i as u64),
                Bytes::from(vec![i]),
            );
        }
        let mut t = SimTime::EPOCH;
        let mut got = vec![];
        for _ in 0..100 {
            t += Duration::from_millis(10);
            ch.tick(t, near());
            while let Some((seq, payload, _)) = ch.recv() {
                got.push((seq, payload[0]));
            }
        }
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!(ch.send_queue.is_empty());
        assert_eq!(ch.stats().delivered, 5);
    }

    #[test]
    fn retransmits_through_a_lossy_zone() {
        // Loss midpoint shifted so the test position is very lossy but
        // not "weak" (driver never blocks TCP — it just retries).
        let mut ch = channel(12.0);
        let pos = Point2::new(18.0, 0.0);
        for i in 0..10u8 {
            ch.send(SimTime::EPOCH, Bytes::from(vec![i]));
        }
        let mut t = SimTime::EPOCH;
        let mut got = 0;
        for _ in 0..3000 {
            t += Duration::from_millis(20);
            ch.tick(t, pos);
            while ch.recv().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 10, "reliable channel must deliver everything");
        let s = ch.stats();
        assert!(s.losses > 0, "expected losses to be exercised");
        assert!(s.attempts > s.delivered, "retransmissions happened");
    }

    #[test]
    fn head_of_line_blocking_shows_as_latency() {
        let mut ch = channel(12.0);
        let lossy = Point2::new(18.0, 0.0);
        ch.send(SimTime::EPOCH, Bytes::from_static(b"head"));
        ch.send(SimTime::EPOCH, Bytes::from_static(b"tail"));
        let mut t = SimTime::EPOCH;
        let mut worst_age = Duration::ZERO;
        while !ch.send_queue.is_empty() {
            t += Duration::from_millis(20);
            ch.tick(t, lossy);
            if let Some(head) = ch.send_queue.front() {
                worst_age = worst_age.max(t.saturating_since(head.queued_at));
            }
            assert!(t < SimTime::EPOCH + Duration::from_secs(120), "livelock");
            while ch.recv().is_some() {}
        }
        // Unlike UDP (which would have silently dropped), the reliable
        // stream fell behind instead.
        assert!(
            worst_age >= Duration::from_millis(200),
            "head age {worst_age}"
        );
    }

    #[test]
    fn weak_signal_does_not_silently_drop() {
        let mut ch = channel(0.0);
        let weak = Point2::new(120.0, 0.0); // loss probability ~1 out here
        ch.send(SimTime::EPOCH, Bytes::from_static(b"state"));
        // Deep in the dead zone nothing gets through…
        let mut t = SimTime::EPOCH;
        for _ in 0..50 {
            t += Duration::from_millis(50);
            ch.tick(t, weak);
        }
        assert_eq!(ch.send_queue.len(), 1, "segment still queued, not dropped");
        // …and delivery resumes when the robot returns.
        for _ in 0..100 {
            t += Duration::from_millis(50);
            ch.tick(t, near());
        }
        assert!(ch.recv().is_some(), "segment delivered after recovery");
    }

    #[test]
    fn trace_covers_send_loss_and_deliver() {
        use lgv_trace::{RingBufferSink, Tracer};
        let mut ch = channel(12.0);
        let tracer = Tracer::enabled();
        let ring = tracer.attach(RingBufferSink::new(256));
        ch.set_tracer(tracer, "tcp");
        let pos = Point2::new(18.0, 0.0);
        ch.send_tagged(SimTime::EPOCH, Bytes::from_static(b"state"), MsgId(9));
        let mut t = SimTime::EPOCH;
        while ch.stats().delivered == 0 {
            t += Duration::from_millis(20);
            ch.tick(t, pos);
            assert!(t < SimTime::EPOCH + Duration::from_secs(120), "livelock");
        }
        let ring = ring.lock().unwrap();
        let mut saw_send = false;
        let mut saw_deliver = false;
        for r in ring.records() {
            match &r.event {
                TraceEvent::ChannelSend { dir, msg, .. } => {
                    assert_eq!(dir, "tcp");
                    assert_eq!(*msg, MsgId(9));
                    saw_send = true;
                }
                TraceEvent::ChannelDeliver { dir, msg, .. } => {
                    assert_eq!(dir, "tcp");
                    assert_eq!(*msg, MsgId(9));
                    saw_deliver = true;
                }
                TraceEvent::ChannelLoss { msg, .. } => assert_eq!(*msg, MsgId(9)),
                _ => {}
            }
        }
        assert!(saw_send && saw_deliver);
    }

    #[test]
    fn cancel_pending_flushes_queue_flight_and_rx() {
        let mut ch = channel(0.0);
        for i in 0..6u8 {
            ch.send(SimTime::EPOCH, Bytes::from(vec![i]));
        }
        // Let a couple land (undrained) and one sit in flight.
        let mut t = SimTime::EPOCH;
        for _ in 0..10 {
            t += Duration::from_millis(10);
            ch.tick(t, near());
        }
        assert!(ch.stats().delivered > 0);
        let flushed = ch.cancel_pending();
        assert!(flushed > 0);
        assert!(ch.send_queue.is_empty());
        assert!(ch.recv().is_none(), "stale deliveries flushed too");
        assert_eq!(ch.stats().cancelled, flushed as u64);
        // A fresh transfer is not blocked behind stale segments.
        ch.send(t, Bytes::from_static(b"fresh"));
        for _ in 0..50 {
            t += Duration::from_millis(10);
            ch.tick(t, near());
        }
        let (_, payload, _) = ch.recv().expect("fresh segment delivered");
        assert_eq!(&payload[..], b"fresh");
    }

    #[test]
    fn crash_window_stalls_transfer_until_restart() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut ch = channel(0.0);
        ch.set_faults(FaultSchedule::none().with(0.0, 5.0, FaultKind::RemoteCrash));
        ch.send(SimTime::EPOCH, Bytes::from_static(b"state"));
        let mut t = SimTime::EPOCH;
        // While the host is down nothing is acknowledged…
        for _ in 0..400 {
            t += Duration::from_millis(10);
            ch.tick(t, near());
        }
        assert_eq!(ch.stats().delivered, 0, "dead host acks nothing");
        assert!(ch.stats().losses > 0, "every launch into the crash is lost");
        // …and the RTO machinery completes the transfer after restart.
        for _ in 0..200 {
            t += Duration::from_millis(10);
            ch.tick(t, near());
        }
        assert!(ch.recv().is_some(), "transfer lands once the host is back");
    }

    #[test]
    fn arrival_times_are_monotone() {
        let mut ch = channel(6.0);
        for i in 0..8u8 {
            ch.send(SimTime::EPOCH, Bytes::from(vec![i]));
        }
        let mut t = SimTime::EPOCH;
        let mut last = SimTime::EPOCH;
        let mut n = 0;
        for _ in 0..2000 {
            t += Duration::from_millis(10);
            ch.tick(t, Point2::new(10.0, 0.0));
            while let Some((_, _, arrived)) = ch.recv() {
                assert!(arrived >= last, "in-order arrival");
                last = arrived;
                n += 1;
            }
        }
        assert_eq!(n, 8);
    }
}
