//! Node state migration (paper §VI-A / §VII).
//!
//! When Algorithm 2 moves nodes between hosts, their *state* has to
//! follow: "the LGV will invoke offloaded computation nodes locally
//! and migrate related states back from the cloud". State transfer is
//! control traffic — it must arrive completely — so it rides the
//! reliable [`TcpChannel`] rather than the freshness-first UDP paths.
//!
//! Until the state lands, the freshly-invoked node runs *cold*
//! (costmap without its obstacle history, path tracker without its
//! dynamic-window context), and the Controller caps the velocity — the
//! "spend much time to restart mission without state migration"
//! failure the paper warns about is exactly what this machinery
//! avoids.

use lgv_net::signal::SignalModel;
use lgv_net::TcpChannel;
use lgv_trace::Tracer;
use lgv_types::prelude::*;

/// Estimated wire size of a node's migratable state (bytes).
///
/// CostmapGen carries its obstacle-layer marks; PathTracking its
/// dynamic-window context; SLAM dominates with per-particle poses,
/// weights, and the delta of its occupancy maps.
pub fn state_size_bytes(kind: NodeKind, slam_particles: usize) -> usize {
    match kind {
        NodeKind::CostmapGen => 20 * 1024,
        NodeKind::PathTracking => 256,
        NodeKind::VelocityMux => 64,
        NodeKind::Slam => slam_particles * 2 * 1024,
        NodeKind::Localization => 4 * 1024,
        NodeKind::PathPlanning | NodeKind::Exploration => 128,
    }
}

/// A migration in progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTicket {
    /// Which nodes are moving.
    pub nodes: NodeSet,
    /// When the transfer started.
    pub started: SimTime,
    /// Total bytes being shipped.
    pub bytes: usize,
}

/// Outcome of a completed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationDone {
    /// The ticket that completed.
    pub ticket: MigrationTicket,
    /// How long the transfer took.
    pub elapsed: Duration,
    /// Transmission attempts used (> segments ⇒ retransmissions).
    pub attempts: u64,
}

/// Why [`MigrationManager::begin`] refused to start a transfer. The
/// two cases need different reactions: `Busy` means try again after
/// the in-flight transfer resolves; `EmptyNodeSet` means the caller
/// asked to move nothing and no transfer will ever be needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginError {
    /// A transfer is already in flight — the newest placement wins
    /// once it resolves.
    Busy,
    /// The requested node set is empty; there is no state to move.
    EmptyNodeSet,
}

impl std::fmt::Display for BeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeginError::Busy => write!(f, "a migration is already in flight"),
            BeginError::EmptyNodeSet => write!(f, "the node set is empty"),
        }
    }
}

/// What [`MigrationManager::tick`] observed this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationEvent {
    /// The last segment landed; state is live at the destination.
    Done(MigrationDone),
    /// A checkpoint snapshot landed: crash recovery can now resume
    /// from `ticket.started` instead of rebuilding cold.
    CheckpointDone(MigrationDone),
    /// The transfer blew its deadline and was aborted — all queued
    /// and in-flight segments were cancelled. The destination must
    /// rebuild state cold.
    TimedOut {
        /// The abandoned transfer.
        ticket: MigrationTicket,
        /// How long it had been running.
        elapsed: Duration,
    },
}

/// What an in-flight transfer is carrying: a placement switch's full
/// state, or a periodic checkpoint snapshot. Checkpoints are
/// best-effort — a deadline expiry drops them quietly instead of
/// raising the migration-timeout alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferKind {
    Migration,
    Checkpoint,
}

/// Ships node state over a reliable channel during placement switches.
#[derive(Debug)]
pub struct MigrationManager {
    tcp: TcpChannel,
    active: Option<(MigrationTicket, u64, TransferKind)>,
    /// Completed migrations (diagnostics).
    pub completed: u64,
    /// Deadline-aborted migrations (diagnostics).
    pub timed_out: u64,
    /// Completed checkpoint snapshots (diagnostics).
    pub checkpoints: u64,
    /// Checkpoint transfers dropped by the deadline (diagnostics).
    pub checkpoint_timeouts: u64,
    /// Start instant of the most recent *completed* checkpoint: the
    /// point crash recovery can resume from.
    last_checkpoint: Option<SimTime>,
    segment_bytes: usize,
    /// Abort a transfer that has run longer than this (`None` = wait
    /// forever, the original behaviour).
    deadline: Option<Duration>,
    tracer: Tracer,
}

impl MigrationManager {
    /// Build over the mission's radio model; `wan_latency` as for the
    /// data links.
    pub fn new(signal: SignalModel, wan_latency: Duration, rng: SimRng) -> Self {
        MigrationManager {
            tcp: TcpChannel::new(signal, wan_latency, rng),
            active: None,
            completed: 0,
            timed_out: 0,
            checkpoints: 0,
            checkpoint_timeouts: 0,
            last_checkpoint: None,
            segment_bytes: 1400, // one MTU-ish segment
            deadline: None,
            tracer: Tracer::default(),
        }
    }

    /// Abort transfers that run longer than `deadline`.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = Some(deadline);
    }

    /// Install scripted fault windows on the reliable channel.
    pub fn set_faults(&mut self, schedule: lgv_net::FaultSchedule) {
        self.tcp.set_faults(schedule);
    }

    /// Route the reliable channel's send/loss/deliver events to
    /// `tracer` (direction label `tcp`); segments of one migration all
    /// share a single lineage id allocated at [`Self::begin`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tcp.set_tracer(tracer.clone(), "tcp");
        self.tracer = tracer;
    }

    /// Is a transfer currently in flight?
    pub fn in_progress(&self) -> bool {
        self.active.is_some()
    }

    /// Begin migrating the state of `nodes` at `now`. Refuses (and
    /// does nothing) with a typed reason if a transfer is already
    /// running — the Controller's dwell time makes back-to-back
    /// switches rare, and the newest placement wins once the current
    /// transfer resolves — or if there is no state to move.
    pub fn begin(
        &mut self,
        now: SimTime,
        nodes: NodeSet,
        slam_particles: usize,
    ) -> Result<MigrationTicket, BeginError> {
        // An empty node set is a caller bug and never becomes valid,
        // so it outranks the (retryable) busy refusal.
        if nodes.is_empty() {
            return Err(BeginError::EmptyNodeSet);
        }
        if self.active.is_some() {
            return Err(BeginError::Busy);
        }
        let bytes: usize = nodes
            .iter()
            .map(|k| state_size_bytes(k, slam_particles))
            .sum();
        Ok(self.start_transfer(now, nodes, bytes, TransferKind::Migration))
    }

    /// Begin shipping a periodic checkpoint snapshot of the offloaded
    /// `nodes`' state: `fraction` of the full migration size (an
    /// incremental delta, not a cold transfer). Refuses while any
    /// transfer is in flight — checkpoints are best-effort and simply
    /// wait for the next cadence tick.
    pub fn begin_checkpoint(
        &mut self,
        now: SimTime,
        nodes: NodeSet,
        slam_particles: usize,
        fraction: f64,
    ) -> Result<MigrationTicket, BeginError> {
        if nodes.is_empty() {
            return Err(BeginError::EmptyNodeSet);
        }
        if self.active.is_some() {
            return Err(BeginError::Busy);
        }
        let full: usize = nodes
            .iter()
            .map(|k| state_size_bytes(k, slam_particles))
            .sum();
        let bytes = ((full as f64 * fraction.clamp(0.0, 1.0)) as usize).max(64);
        Ok(self.start_transfer(now, nodes, bytes, TransferKind::Checkpoint))
    }

    fn start_transfer(
        &mut self,
        now: SimTime,
        nodes: NodeSet,
        bytes: usize,
        kind: TransferKind,
    ) -> MigrationTicket {
        let ticket = MigrationTicket {
            nodes,
            started: now,
            bytes,
        };
        let segments = bytes.div_ceil(self.segment_bytes).max(1);
        let msg = self.tracer.alloc_msg();
        let mut last_seq = 0;
        for i in 0..segments {
            let len = self.segment_bytes.min(bytes - i * self.segment_bytes);
            last_seq = self
                .tcp
                .send_tagged(now, bytes::Bytes::from(vec![0u8; len]), msg);
        }
        self.active = Some((ticket, last_seq, kind));
        ticket
    }

    /// Abort the in-flight transfer only if it is a checkpoint; a real
    /// migration is left alone. Used when a placement switch needs the
    /// channel a checkpoint is occupying. Returns whether a checkpoint
    /// was cancelled.
    pub fn abort_checkpoint(&mut self) -> bool {
        if matches!(self.active, Some((_, _, TransferKind::Checkpoint))) {
            self.abort();
            true
        } else {
            false
        }
    }

    /// Start instant of the most recent completed checkpoint.
    pub fn last_checkpoint(&self) -> Option<SimTime> {
        self.last_checkpoint
    }

    /// Consume the most recent completed checkpoint (crash recovery
    /// uses it once, then starts accumulating fresh state).
    pub fn take_checkpoint(&mut self) -> Option<SimTime> {
        self.last_checkpoint.take()
    }

    /// Abandon the in-flight transfer (the destination will rebuild
    /// state from fresh sensor data instead — the paper's "restart
    /// mission without state migration" fallback). Also cancels every
    /// queued and in-flight segment on the reliable channel, so a
    /// stale transfer cannot keep retransmitting under (and competing
    /// with) whatever the link does next. Returns the number of
    /// segments flushed.
    pub fn abort(&mut self) -> usize {
        self.active = None;
        self.tcp.cancel_pending()
    }

    /// Advance the transfer; reports completion when the last segment
    /// lands, or a timeout when the deadline expires first (the
    /// transfer is aborted and its segments cancelled — the caller
    /// decides what to do about the placement).
    pub fn tick(&mut self, now: SimTime, robot: Point2) -> Option<MigrationEvent> {
        self.tcp.tick(now, robot);
        let (ticket, last_seq, kind) = self.active?;
        let mut done = false;
        while let Some((seq, _, _)) = self.tcp.recv() {
            if seq == last_seq {
                done = true;
            }
        }
        if done {
            self.active = None;
            let outcome = MigrationDone {
                ticket,
                elapsed: now.saturating_since(ticket.started),
                attempts: self.tcp.stats().attempts,
            };
            return Some(match kind {
                TransferKind::Migration => {
                    self.completed += 1;
                    MigrationEvent::Done(outcome)
                }
                TransferKind::Checkpoint => {
                    self.checkpoints += 1;
                    self.last_checkpoint = Some(ticket.started);
                    MigrationEvent::CheckpointDone(outcome)
                }
            });
        }
        let elapsed = now.saturating_since(ticket.started);
        if let Some(deadline) = self.deadline {
            if elapsed >= deadline {
                self.abort();
                if kind == TransferKind::Checkpoint {
                    // Best-effort snapshot: drop it quietly and let the
                    // next cadence tick try again — no alarm, no
                    // timed-out accounting.
                    self.checkpoint_timeouts += 1;
                    return None;
                }
                self.timed_out += 1;
                self.tracer.emit_at(
                    now.as_nanos(),
                    lgv_trace::TraceEvent::MigrationTimeout {
                        elapsed_ns: elapsed.as_nanos(),
                        bytes: ticket.bytes as u64,
                    },
                );
                return Some(MigrationEvent::TimedOut { ticket, elapsed });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_net::signal::WirelessConfig;

    fn manager() -> MigrationManager {
        let cfg = WirelessConfig {
            jitter: Duration::ZERO,
            ..WirelessConfig::default()
        }
        .with_weak_radius(25.0);
        let sm = SignalModel::new(cfg, Point2::new(0.0, 0.0));
        MigrationManager::new(sm, Duration::from_millis(12), SimRng::seed_from_u64(5))
    }

    fn drive(
        m: &mut MigrationManager,
        from_ms: u64,
        pos: Point2,
        limit_s: u64,
    ) -> Option<(MigrationDone, SimTime)> {
        let mut t = SimTime::EPOCH + Duration::from_millis(from_ms);
        for _ in 0..(limit_s * 100) {
            t += Duration::from_millis(10);
            match m.tick(t, pos) {
                Some(MigrationEvent::Done(done)) => return Some((done, t)),
                Some(MigrationEvent::TimedOut { .. }) => return None,
                Some(MigrationEvent::CheckpointDone(_)) | None => {}
            }
        }
        None
    }

    #[test]
    fn state_sizes_are_ordered_sensibly() {
        assert!(state_size_bytes(NodeKind::Slam, 30) > state_size_bytes(NodeKind::CostmapGen, 30));
        assert!(
            state_size_bytes(NodeKind::CostmapGen, 30)
                > state_size_bytes(NodeKind::PathTracking, 30)
        );
        // SLAM state scales with the particle count.
        assert_eq!(
            state_size_bytes(NodeKind::Slam, 60),
            2 * state_size_bytes(NodeKind::Slam, 30)
        );
    }

    #[test]
    fn vdp_state_migrates_quickly_near_the_wap() {
        let mut m = manager();
        let nodes = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
        let ticket = m.begin(SimTime::EPOCH, nodes, 30).expect("ticket");
        assert!(ticket.bytes > 20_000);
        assert!(m.in_progress());
        let (done, _) = drive(&mut m, 0, Point2::new(1.0, 0.0), 30).expect("completes");
        assert_eq!(done.ticket.nodes, nodes);
        assert!(
            done.elapsed < Duration::from_secs(2),
            "near-WAP migration took {}",
            done.elapsed
        );
        assert!(!m.in_progress());
    }

    #[test]
    fn slam_state_takes_longer_than_vdp_state() {
        let mut a = manager();
        a.begin(SimTime::EPOCH, NodeSet::single(NodeKind::PathTracking), 30)
            .expect("begins");
        let (fast, _) = drive(&mut a, 0, Point2::new(1.0, 0.0), 30).unwrap();
        let mut b = manager();
        b.begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30)
            .expect("begins");
        let (slow, _) = drive(&mut b, 0, Point2::new(1.0, 0.0), 60).unwrap();
        assert!(
            slow.elapsed > fast.elapsed,
            "{} vs {}",
            slow.elapsed,
            fast.elapsed
        );
    }

    #[test]
    fn migration_survives_a_lossy_link() {
        let mut m = manager();
        m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::CostmapGen), 30)
            .expect("begins");
        // Lossy but not dead (the robot is walking back into range).
        let (done, _) = drive(&mut m, 0, Point2::new(20.0, 0.0), 120).expect("eventually lands");
        assert!(
            done.attempts as usize > done.ticket.bytes / 1400,
            "retransmissions expected"
        );
    }

    #[test]
    fn only_one_migration_at_a_time() {
        let mut m = manager();
        assert!(m
            .begin(SimTime::EPOCH, NodeSet::single(NodeKind::CostmapGen), 30)
            .is_ok());
        // Each refusal states its reason — busy is retryable, an
        // empty node set never will be.
        assert_eq!(
            m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30),
            Err(BeginError::Busy)
        );
        assert_eq!(
            m.begin(SimTime::EPOCH, NodeSet::EMPTY, 30),
            Err(BeginError::EmptyNodeSet)
        );
        // Once the transfer resolves, busy clears but empty does not.
        m.abort();
        assert!(m
            .begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30)
            .is_ok());
        m.abort();
        assert_eq!(
            m.begin(SimTime::EPOCH, NodeSet::EMPTY, 30),
            Err(BeginError::EmptyNodeSet)
        );
    }

    #[test]
    fn abort_flushes_in_flight_segments() {
        let mut m = manager();
        // SLAM state is many segments; none can have landed yet.
        m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30)
            .expect("begins");
        let flushed = m.abort();
        assert!(
            flushed > 10,
            "expected many queued segments, flushed {flushed}"
        );
        assert!(!m.in_progress());
        // The channel really is idle: a fresh migration starts from a
        // clean queue and completes normally.
        m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::PathTracking), 30)
            .expect("restarts");
        let (done, _) = drive(&mut m, 0, Point2::new(1.0, 0.0), 30).expect("completes");
        assert_eq!(done.ticket.nodes, NodeSet::single(NodeKind::PathTracking));
        // No stale SLAM segments got delivered to the new transfer.
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn deadline_aborts_a_stalled_transfer() {
        let mut m = manager();
        m.set_deadline(Duration::from_secs(3));
        m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::CostmapGen), 30)
            .expect("begins");
        // Far outside radio range: nothing will ever be acked.
        let far = Point2::new(500.0, 0.0);
        let mut t = SimTime::EPOCH;
        let mut timed_out = None;
        for _ in 0..1000 {
            t += Duration::from_millis(10);
            if let Some(MigrationEvent::TimedOut { ticket, elapsed }) = m.tick(t, far) {
                timed_out = Some((ticket, elapsed, t));
                break;
            }
        }
        let (ticket, elapsed, at) = timed_out.expect("deadline fires");
        assert!(elapsed >= Duration::from_secs(3));
        assert_eq!(
            at.saturating_since(SimTime::EPOCH).as_nanos(),
            elapsed.as_nanos()
        );
        assert!(ticket.bytes > 0);
        assert!(!m.in_progress());
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn checkpoint_completes_and_records_the_resume_point() {
        let mut m = manager();
        let nodes = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
        let full: usize = nodes.iter().map(|k| state_size_bytes(k, 30)).sum();
        let started = SimTime::EPOCH + Duration::from_secs(3);
        let ticket = m
            .begin_checkpoint(started, nodes, 30, 0.25)
            .expect("begins");
        assert_eq!(ticket.bytes, full / 4);
        assert!(ticket.bytes < full, "checkpoints are incremental");
        assert!(m.last_checkpoint().is_none(), "not landed yet");
        let mut t = started;
        let mut landed = None;
        for _ in 0..3000 {
            t += Duration::from_millis(10);
            match m.tick(t, Point2::new(1.0, 0.0)) {
                Some(MigrationEvent::CheckpointDone(done)) => {
                    landed = Some(done);
                    break;
                }
                Some(other) => panic!("unexpected event {other:?}"),
                None => {}
            }
        }
        let done = landed.expect("checkpoint lands");
        assert_eq!(done.ticket.started, started);
        assert_eq!(m.checkpoints, 1);
        assert_eq!(m.completed, 0, "checkpoints are not migrations");
        assert_eq!(m.last_checkpoint(), Some(started));
        // Recovery consumes it once.
        assert_eq!(m.take_checkpoint(), Some(started));
        assert_eq!(m.last_checkpoint(), None);
    }

    #[test]
    fn checkpoint_yields_the_channel_to_a_real_migration() {
        let mut m = manager();
        m.begin_checkpoint(
            SimTime::EPOCH,
            NodeSet::single(NodeKind::CostmapGen),
            30,
            0.25,
        )
        .expect("begins");
        assert_eq!(
            m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30),
            Err(BeginError::Busy)
        );
        assert!(m.abort_checkpoint(), "checkpoint steps aside");
        assert!(m
            .begin(SimTime::EPOCH, NodeSet::single(NodeKind::Slam), 30)
            .is_ok());
        // A real migration never steps aside.
        assert!(!m.abort_checkpoint());
        assert!(m.in_progress());
    }

    #[test]
    fn checkpoint_deadline_expiry_is_quiet() {
        let mut m = manager();
        m.set_deadline(Duration::from_secs(3));
        m.begin_checkpoint(
            SimTime::EPOCH,
            NodeSet::single(NodeKind::CostmapGen),
            30,
            0.25,
        )
        .expect("begins");
        let far = Point2::new(500.0, 0.0);
        let mut t = SimTime::EPOCH;
        for _ in 0..1000 {
            t += Duration::from_millis(10);
            // No TimedOut event ever surfaces for a checkpoint.
            assert_eq!(m.tick(t, far), None);
        }
        assert!(!m.in_progress(), "the deadline still cancels the transfer");
        assert_eq!(m.checkpoint_timeouts, 1);
        assert_eq!(m.timed_out, 0, "no migration-timeout alarm");
        assert_eq!(m.last_checkpoint(), None);
    }

    #[test]
    fn no_deadline_means_wait_forever() {
        let mut m = manager();
        m.begin(SimTime::EPOCH, NodeSet::single(NodeKind::CostmapGen), 30)
            .expect("begins");
        let far = Point2::new(500.0, 0.0);
        let mut t = SimTime::EPOCH;
        for _ in 0..2000 {
            t += Duration::from_millis(10);
            assert_eq!(m.tick(t, far), None);
        }
        assert!(
            m.in_progress(),
            "without a deadline the transfer keeps trying"
        );
    }

    #[test]
    fn an_idle_manager_has_nothing_to_abort_or_resume() {
        let mut m = manager();
        assert!(!m.in_progress());
        assert_eq!(m.abort(), 0);
        assert!(!m.abort_checkpoint());
        assert_eq!(m.last_checkpoint(), None);
        assert_eq!(m.take_checkpoint(), None);
        assert_eq!(m.tick(SimTime::EPOCH, Point2::new(1.0, 0.0)), None);
    }
}
