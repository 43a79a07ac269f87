//! Deterministic fault injection for the wireless stack.
//!
//! The smooth log-distance decay in [`signal`](crate::signal) only
//! exercises the paper's Algorithm 2 on *gradual* degradation. Real
//! deployments also hit the ugly failures — link blackouts, bursty
//! loss, latency spikes, corrupted frames, and a cloud host that dies
//! mid-mission — and the recovery machinery (heartbeat, migration
//! deadlines, re-offload backoff) is only testable if those failures
//! can be scripted *reproducibly*.
//!
//! This module provides that substrate: a [`FaultSchedule`] is a list
//! of [`Window`]s on the virtual clock, each carrying one
//! [`FaultKind`]. A [`FaultInjector`] (one per channel, seeded from
//! the channel's own [`SimRng`]) applies the active windows uniformly
//! inside [`UdpChannel`](crate::UdpChannel),
//! [`TcpChannel`](crate::TcpChannel), and
//! [`SignalModel`](crate::signal::SignalModel), so the same seed and
//! schedule reproduce a byte-identical trace run after run.
//!
//! Two failure families are deliberately distinct:
//!
//! * **Radio faults** ([`FaultKind::Blackout`], [`FaultKind::BurstLoss`],
//!   [`FaultKind::LatencySpike`], [`FaultKind::Corruption`]) degrade the
//!   *link*: RSSI-derived weakness and loss spike, so the robot's own
//!   radio diagnostics see the problem.
//! * **[`FaultKind::RemoteCrash`]** kills the *remote host* while the
//!   radio stays healthy: uplink frames land at a dead box and
//!   downlink traffic simply stops. The robot can only infer this from
//!   silence — which is exactly what the cloud-liveness heartbeat in
//!   `lgv-core` does.
//!
//! Failures of the shared cloud box itself ([`CloudFaultKind`]) use
//! the same [`Schedule`] and [`FaultClock`], as a
//! [`CloudFaultSchedule`].

use lgv_types::prelude::*;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Total radio blackout: the signal reads weak and every
    /// transmission is lost, in both directions.
    Blackout,
    /// Gilbert–Elliott burst loss: a two-state Markov chain advanced
    /// once per transmission. In the *good* state the channel behaves
    /// normally; in the *bad* state each transmission is lost with
    /// probability `loss_in_burst`.
    BurstLoss {
        /// Per-transmission probability of entering the bad state.
        p_enter: f64,
        /// Per-transmission probability of leaving the bad state.
        p_exit: f64,
        /// Loss probability while the chain is in the bad state.
        loss_in_burst: f64,
    },
    /// Every frame in the window takes `extra` additional one-way
    /// latency (queueing at a congested hop).
    LatencySpike {
        /// Extra one-way delay added to each transmission.
        extra: Duration,
    },
    /// Each transmitted payload is corrupted with probability `prob`
    /// (one byte flipped); receivers that fail to decode drop the
    /// frame.
    Corruption {
        /// Per-transmission corruption probability.
        prob: f64,
    },
    /// The remote host is down: it neither receives nor sends. The
    /// radio itself stays healthy — RSSI and weak-signal diagnostics
    /// are unaffected, which is what lets the robot distinguish a
    /// crash from an outage.
    RemoteCrash,
}

impl FaultKind {
    /// Stable label used in `fault_begin` / `fault_end` trace events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Blackout => "blackout",
            FaultKind::BurstLoss { .. } => "burst_loss",
            FaultKind::LatencySpike { .. } => "latency_spike",
            FaultKind::Corruption { .. } => "corruption",
            FaultKind::RemoteCrash => "remote_crash",
        }
    }
}

/// A half-open window `[from, until)` on the virtual clock during
/// which one fault of kind `K` is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<K> {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// What goes wrong while the window is active.
    pub kind: K,
}

impl<K> Window<K> {
    /// Is `now` inside the window?
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// An ordered list of scripted [`Window`]s of one fault family:
/// [`FaultSchedule`] for the radio, [`CloudFaultSchedule`] for the
/// shared cloud box.
///
/// Windows may overlap; each active window contributes its effect
/// independently (latency spikes sum, any active blackout blacks out,
/// crashed replicas sum, stragglers compound).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule<K> {
    windows: Vec<Window<K>>,
}

/// Radio-tier fault windows, applied per channel by [`FaultInjector`].
pub type FaultSchedule = Schedule<FaultKind>;

/// Cloud-tier fault windows, consumed by `lgv-sim`'s `CloudScheduler`;
/// an empty schedule is a structural no-op there.
pub type CloudFaultSchedule = Schedule<CloudFaultKind>;

// By hand: a derive would demand `K: Default`.
impl<K> Default for Schedule<K> {
    fn default() -> Self {
        Schedule {
            windows: Vec::new(),
        }
    }
}

impl<K: Copy> Schedule<K> {
    /// A schedule with no faults.
    pub fn none() -> Self {
        Schedule::default()
    }

    /// Builder: add a window starting `from_s` seconds into the
    /// mission, lasting `dur_s` seconds.
    pub fn with(mut self, from_s: f64, dur_s: f64, kind: K) -> Self {
        let from = SimTime::from_secs_f64(from_s);
        self.windows.push(Window {
            from,
            until: from + Duration::from_secs_f64(dur_s),
            kind,
        });
        self
    }

    /// The scripted windows, in insertion order.
    pub fn windows(&self) -> &[Window<K>] {
        &self.windows
    }

    /// True when nothing is scheduled (the common, fault-free case).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The kinds of the windows open at `now`, in schedule order.
    pub fn active(&self, now: SimTime) -> impl Iterator<Item = K> + '_ {
        self.windows
            .iter()
            .filter(move |w| w.contains(now))
            .map(|w| w.kind)
    }

    /// The draw loop behind each tier's `randomized`: one to three
    /// windows, each drawing its start, then its duration, then its
    /// kind (through `kind`). The pinned schedules depend on that order.
    fn random(seed: u64, horizon: Duration, mut kind: impl FnMut(&mut SimRng) -> K) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut schedule = Schedule::none();
        let span = horizon.as_secs_f64();
        for _ in 0..(1 + rng.index(3)) {
            let from_s = rng.uniform_range(0.05 * span, 0.6 * span);
            let dur_s = rng.uniform_range(2.0, 15.0);
            schedule = schedule.with(from_s, dur_s, kind(&mut rng));
        }
        schedule
    }
}

impl Schedule<FaultKind> {
    /// Is a [`FaultKind::Blackout`] window active at `now`?
    pub fn blackout_at(&self, now: SimTime) -> bool {
        self.active(now).any(|k| matches!(k, FaultKind::Blackout))
    }

    /// Is a [`FaultKind::RemoteCrash`] window active at `now`?
    pub fn crash_at(&self, now: SimTime) -> bool {
        self.active(now)
            .any(|k| matches!(k, FaultKind::RemoteCrash))
    }

    /// Sum of the extra one-way latency from every
    /// [`FaultKind::LatencySpike`] window active at `now`.
    pub fn extra_latency_at(&self, now: SimTime) -> Duration {
        self.active(now).fold(Duration::ZERO, |sum, k| match k {
            FaultKind::LatencySpike { extra } => sum + extra,
            _ => sum,
        })
    }

    /// Highest corruption probability among the
    /// [`FaultKind::Corruption`] windows active at `now` (0.0 if none).
    pub fn corruption_prob_at(&self, now: SimTime) -> f64 {
        self.active(now)
            .filter_map(|k| match k {
                FaultKind::Corruption { prob } => Some(prob),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// The [`FaultKind::BurstLoss`] parameters active at `now`, if any
    /// (first matching window wins).
    pub fn burst_at(&self, now: SimTime) -> Option<(f64, f64, f64)> {
        self.active(now).find_map(|k| match k {
            FaultKind::BurstLoss {
                p_enter,
                p_exit,
                loss_in_burst,
            } => Some((p_enter, p_exit, loss_in_burst)),
            _ => None,
        })
    }

    /// A seeded random schedule for chaos testing: one to three
    /// windows of random kind, start, and duration inside `horizon`.
    /// The same seed always yields the same schedule.
    pub fn randomized(seed: u64, horizon: Duration) -> Self {
        Schedule::random(seed ^ 0xFA_0175, horizon, |rng| match rng.index(5) {
            0 => FaultKind::Blackout,
            1 => FaultKind::BurstLoss {
                p_enter: rng.uniform_range(0.05, 0.3),
                p_exit: rng.uniform_range(0.05, 0.3),
                loss_in_burst: rng.uniform_range(0.5, 1.0),
            },
            2 => FaultKind::LatencySpike {
                extra: Duration::from_millis(10 + rng.index(190) as u64),
            },
            3 => FaultKind::Corruption {
                prob: rng.uniform_range(0.1, 0.6),
            },
            _ => FaultKind::RemoteCrash,
        })
    }
}

/// One kind of injected **cloud-tier** failure — the shared box's own
/// failure modes, distinct from the radio faults in [`FaultKind`]: the
/// link stays perfectly healthy while the replica pool misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CloudFaultKind {
    /// `replicas` provisioned replicas are dead for the window: they
    /// keep accruing cost (the bill does not know they crashed) but
    /// serve no capacity, so every admission queues against a smaller
    /// pool.
    ReplicaCrash {
        /// How many replicas are down (clamped to the pool size).
        replicas: u32,
    },
    /// The pool contains a straggler: executions scheduled in the
    /// window run `factor` times slower end to end (the load balancer
    /// cannot route around it).
    Straggler {
        /// End-to-end slowdown factor (> 1).
        factor: f64,
    },
    /// Scale-up decisions taken during the window fail to provision:
    /// the spin-up is paid for but no replica ever joins the pool.
    FailedScaleUp,
}

impl CloudFaultKind {
    /// Stable label used in `replica_crash` / `replica_straggle`
    /// trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CloudFaultKind::ReplicaCrash { .. } => "replica_crash",
            CloudFaultKind::Straggler { .. } => "replica_straggle",
            CloudFaultKind::FailedScaleUp => "failed_scale_up",
        }
    }
}

impl Schedule<CloudFaultKind> {
    /// Total replicas dead at `now` (summed across overlapping crash
    /// windows).
    pub fn crashed_at(&self, now: SimTime) -> u32 {
        self.active(now)
            .map(|k| match k {
                CloudFaultKind::ReplicaCrash { replicas } => replicas,
                _ => 0,
            })
            .sum()
    }

    /// The end-to-end slowdown factor at `now` (overlapping straggler
    /// windows compound; 1.0 if none is active).
    pub fn straggle_factor_at(&self, now: SimTime) -> f64 {
        self.active(now)
            .filter_map(|k| match k {
                CloudFaultKind::Straggler { factor } => Some(factor.max(1.0)),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// Does a scale-up decided at `now` fail to provision?
    pub fn scale_up_fails_at(&self, now: SimTime) -> bool {
        self.active(now)
            .any(|k| matches!(k, CloudFaultKind::FailedScaleUp))
    }

    /// A seeded random cloud schedule for chaos testing, drawn from a
    /// stream distinct from [`FaultSchedule::randomized`]'s.
    pub fn randomized(seed: u64, horizon: Duration) -> Self {
        Schedule::random(seed ^ 0xC1_0D_FA, horizon, |rng| match rng.index(3) {
            0 => CloudFaultKind::ReplicaCrash {
                replicas: 1 + rng.index(2) as u32,
            },
            1 => CloudFaultKind::Straggler {
                factor: rng.uniform_range(1.5, 4.0),
            },
            _ => CloudFaultKind::FailedScaleUp,
        })
    }
}

/// Applies a [`FaultSchedule`] inside one channel.
///
/// Each channel owns its own injector with an [`SimRng`] forked from
/// the channel's stream, so fault randomness (burst-chain advances,
/// corruption draws) never perturbs the channel's pre-existing loss
/// and jitter draws — and stays deterministic per seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    rng: SimRng,
    /// Gilbert–Elliott chain state: currently in the bad (bursty) state?
    in_burst: bool,
    /// Does the remote host sit at this channel's *receiving* end?
    /// (Uplink and the migration TCP channel: yes; downlink: no.)
    remote_receives: bool,
}

impl FaultInjector {
    /// Injector over `schedule`; `remote_receives` marks channels
    /// whose destination is the remote host (their in-flight frames
    /// are swallowed when a [`FaultKind::RemoteCrash`] is active).
    pub fn new(schedule: FaultSchedule, rng: SimRng, remote_receives: bool) -> Self {
        FaultInjector {
            schedule,
            rng,
            in_burst: false,
            remote_receives,
        }
    }

    /// A no-op injector (empty schedule) for channels built without
    /// fault wiring.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultSchedule::none(), SimRng::seed_from_u64(0), false)
    }

    /// Should a transmission launched at `now` be dropped outright?
    ///
    /// Blackouts and crashes drop everything; burst-loss windows
    /// advance the Gilbert–Elliott chain one step per transmission and
    /// drop probabilistically while the chain is in the bad state.
    pub fn drops_at_send(&mut self, now: SimTime) -> bool {
        if self.schedule.is_empty() {
            return false;
        }
        if self.schedule.blackout_at(now) || self.schedule.crash_at(now) {
            return true;
        }
        match self.schedule.burst_at(now) {
            Some((p_enter, p_exit, loss_in_burst)) => {
                if self.in_burst {
                    if self.rng.chance(p_exit) {
                        self.in_burst = false;
                    }
                } else if self.rng.chance(p_enter) {
                    self.in_burst = true;
                }
                self.in_burst && self.rng.chance(loss_in_burst)
            }
            None => {
                self.in_burst = false;
                false
            }
        }
    }

    /// Should a frame *arriving* at `now` be swallowed?
    ///
    /// True only while a crash window is active on a channel whose
    /// receiver is the remote host: frames launched before the crash
    /// land at a dead box. Frames already in flight *towards the
    /// robot* still arrive — the robot is alive.
    pub fn swallows_at_delivery(&self, now: SimTime) -> bool {
        self.remote_receives && self.schedule.crash_at(now)
    }

    /// Should the payload of a transmission at `now` be corrupted?
    pub fn corrupts(&mut self, now: SimTime) -> bool {
        if self.schedule.is_empty() {
            return false;
        }
        let prob = self.schedule.corruption_prob_at(now);
        prob > 0.0 && self.rng.chance(prob)
    }

    /// Flip one byte of `payload` (at a seeded random offset), the
    /// canonical "failed checksum" corruption. Empty payloads pass
    /// through unchanged.
    pub fn corrupt_payload(&mut self, payload: &bytes::Bytes) -> bytes::Bytes {
        if payload.is_empty() {
            return payload.clone();
        }
        let mut buf = payload.to_vec();
        let idx = self.rng.index(buf.len());
        buf[idx] ^= 0xFF;
        bytes::Bytes::from(buf)
    }
}

/// Tracks which windows of a schedule have begun/ended so each edge
/// is reported exactly once as virtual time crosses it: the mission
/// engine turns radio edges into `fault_begin` / `fault_end` trace
/// events, and the cloud scheduler reports the begin edges of its
/// windows through its admissions.
#[derive(Debug, Clone)]
pub struct FaultClock<K> {
    schedule: Schedule<K>,
    begun: Vec<bool>,
    ended: Vec<bool>,
}

/// One edge reported by [`FaultClock::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEdge<K> {
    /// Index of the window in the schedule.
    pub window: u64,
    /// The window's fault kind.
    pub kind: K,
    /// True at the window's start, false at its end.
    pub begin: bool,
    /// The window's scripted length.
    pub span: Duration,
}

impl<K: Copy> FaultClock<K> {
    /// Clock over `schedule`, with no edges reported yet.
    pub fn new(schedule: Schedule<K>) -> Self {
        let n = schedule.windows().len();
        FaultClock {
            schedule,
            begun: vec![false; n],
            ended: vec![false; n],
        }
    }

    /// The schedule the clock walks.
    pub fn schedule(&self) -> &Schedule<K> {
        &self.schedule
    }

    /// Report every window edge crossed up to `now`, in schedule
    /// order, each exactly once.
    pub fn poll(&mut self, now: SimTime) -> Vec<FaultEdge<K>> {
        let mut edges = Vec::new();
        for (i, w) in self.schedule.windows().iter().enumerate() {
            let span = w.until.saturating_since(w.from);
            if !self.begun[i] && now >= w.from {
                self.begun[i] = true;
                edges.push(FaultEdge {
                    window: i as u64,
                    kind: w.kind,
                    begin: true,
                    span,
                });
            }
            if !self.ended[i] && now >= w.until {
                self.ended[i] = true;
                edges.push(FaultEdge {
                    window: i as u64,
                    kind: w.kind,
                    begin: false,
                    span,
                });
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn windows_are_half_open() {
        let s = FaultSchedule::none().with(10.0, 5.0, FaultKind::Blackout);
        assert!(!s.blackout_at(t(9.999)));
        assert!(s.blackout_at(t(10.0)));
        assert!(s.blackout_at(t(14.999)));
        assert!(!s.blackout_at(t(15.0)));
    }

    #[test]
    fn latency_spikes_sum_when_overlapping() {
        let s = FaultSchedule::none()
            .with(
                0.0,
                10.0,
                FaultKind::LatencySpike {
                    extra: Duration::from_millis(40),
                },
            )
            .with(
                5.0,
                10.0,
                FaultKind::LatencySpike {
                    extra: Duration::from_millis(60),
                },
            );
        assert_eq!(s.extra_latency_at(t(2.0)), Duration::from_millis(40));
        assert_eq!(s.extra_latency_at(t(7.0)), Duration::from_millis(100));
        assert_eq!(s.extra_latency_at(t(16.0)), Duration::ZERO);
    }

    #[test]
    fn blackout_and_crash_drop_every_send() {
        let s = FaultSchedule::none()
            .with(0.0, 1.0, FaultKind::Blackout)
            .with(2.0, 1.0, FaultKind::RemoteCrash);
        let mut inj = FaultInjector::new(s, SimRng::seed_from_u64(1), true);
        assert!(inj.drops_at_send(t(0.5)));
        assert!(inj.drops_at_send(t(2.5)));
        assert!(!inj.drops_at_send(t(1.5)));
    }

    #[test]
    fn crash_swallows_only_at_the_remote_end() {
        let s = FaultSchedule::none().with(0.0, 1.0, FaultKind::RemoteCrash);
        let up = FaultInjector::new(s.clone(), SimRng::seed_from_u64(1), true);
        let down = FaultInjector::new(s, SimRng::seed_from_u64(1), false);
        assert!(up.swallows_at_delivery(t(0.5)));
        assert!(!down.swallows_at_delivery(t(0.5)));
        assert!(!up.swallows_at_delivery(t(1.5)));
    }

    #[test]
    fn burst_loss_comes_in_bursts() {
        let s = FaultSchedule::none().with(
            0.0,
            100.0,
            FaultKind::BurstLoss {
                p_enter: 0.05,
                p_exit: 0.05,
                loss_in_burst: 1.0,
            },
        );
        let mut inj = FaultInjector::new(s, SimRng::seed_from_u64(7), true);
        let drops: Vec<bool> = (0..2000)
            .map(|i| inj.drops_at_send(t(i as f64 * 0.01)))
            .collect();
        let losses = drops.iter().filter(|d| **d).count();
        // The chain spends roughly half its time in each state.
        assert!(losses > 400 && losses < 1600, "losses={losses}");
        // Losses cluster: consecutive-loss pairs beat the independent
        // expectation (≈p²·n) by the chain's stickiness (≈p·(1−p_exit)·n).
        let pairs = drops.windows(2).filter(|w| w[0] && w[1]).count();
        let p = losses as f64 / drops.len() as f64;
        let independent = p * p * (drops.len() - 1) as f64;
        assert!(
            pairs as f64 > 1.5 * independent,
            "pairs={pairs} vs independent {independent:.1}"
        );
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let s = FaultSchedule::none().with(0.0, 1.0, FaultKind::Corruption { prob: 1.0 });
        let mut inj = FaultInjector::new(s, SimRng::seed_from_u64(3), true);
        assert!(inj.corrupts(t(0.5)));
        let orig = bytes::Bytes::from(vec![0u8; 64]);
        let bad = inj.corrupt_payload(&orig);
        let diffs = orig.iter().zip(bad.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn randomized_schedules_are_reproducible_and_bounded() {
        let horizon = Duration::from_secs(120);
        let a = FaultSchedule::randomized(9, horizon);
        let b = FaultSchedule::randomized(9, horizon);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.windows().len() <= 3);
        for w in a.windows() {
            assert!(w.from >= SimTime::EPOCH && w.until <= SimTime::EPOCH + horizon);
        }
        assert_ne!(a, FaultSchedule::randomized(10, horizon));
    }

    /// `seed: from_ns until_ns kind` for each window `randomized` draws
    /// over a 120 s horizon, for seeds 0, 1, 9 and 42.
    fn drawn<K: std::fmt::Debug>(randomized: fn(u64, Duration) -> Schedule<K>) -> Vec<String> {
        let mut out = Vec::new();
        for seed in [0, 1, 9, 42] {
            for w in randomized(seed, Duration::from_secs(120)).windows {
                let (from, until) = (w.from.as_nanos(), w.until.as_nanos());
                out.push(format!("{seed}: {from} {until} {:?}", w.kind));
            }
        }
        out
    }

    /// Reproducibility alone would miss a reordered draw; these pins
    /// do not. Seed 1 covers the kinds the other seeds never draw.
    #[test]
    fn randomized_schedules_are_pinned() {
        assert_eq!(
            drawn(FaultSchedule::randomized),
            [
                "0: 58843372971 73486844944 LatencySpike { extra: Duration(123000000) }",
                "1: 14053385746 22364782945 Corruption { prob: 0.43799488110482754 }",
                "1: 32990743507 47434395023 Corruption { prob: 0.4570429565520554 }",
                "1: 48984542033 55013998772 BurstLoss { p_enter: 0.21750332052207488, \
                 p_exit: 0.08378870455183386, loss_in_burst: 0.7070904120561734 }",
                "9: 61113516215 68938975517 RemoteCrash",
                "42: 13045875076 21528529390 LatencySpike { extra: Duration(177000000) }",
                "42: 9072558793 24001995170 Corruption { prob: 0.2848260043038504 }",
                "42: 59048159231 61367319024 Blackout",
            ]
        );
        assert_eq!(
            drawn(CloudFaultSchedule::randomized),
            [
                "0: 36471409562 45650172947 ReplicaCrash { replicas: 1 }",
                "0: 61332931755 66615746214 ReplicaCrash { replicas: 2 }",
                "1: 54953453487 62996990304 Straggler { factor: 3.803924693317256 }",
                "1: 59839851339 64307970359 FailedScaleUp",
                "1: 70268007547 84442572190 ReplicaCrash { replicas: 1 }",
                "9: 63093379051 70714181426 FailedScaleUp",
                "9: 65752921821 68058242298 ReplicaCrash { replicas: 1 }",
                "42: 69522506591 76185971650 ReplicaCrash { replicas: 1 }",
                "42: 10208211635 22348940178 ReplicaCrash { replicas: 1 }",
            ]
        );
    }

    #[test]
    fn cloud_schedule_queries_compose_over_overlaps() {
        let s = CloudFaultSchedule::none()
            .with(1.0, 4.0, CloudFaultKind::ReplicaCrash { replicas: 1 })
            .with(3.0, 4.0, CloudFaultKind::ReplicaCrash { replicas: 2 })
            .with(2.0, 2.0, CloudFaultKind::Straggler { factor: 2.0 })
            .with(3.0, 2.0, CloudFaultKind::Straggler { factor: 1.5 })
            .with(6.0, 1.0, CloudFaultKind::FailedScaleUp);
        assert_eq!(s.crashed_at(t(0.5)), 0);
        assert_eq!(s.crashed_at(t(1.0)), 1);
        assert_eq!(s.crashed_at(t(3.5)), 3, "overlapping crashes sum");
        assert_eq!(s.crashed_at(t(5.5)), 2);
        assert_eq!(s.straggle_factor_at(t(1.0)), 1.0);
        assert_eq!(s.straggle_factor_at(t(2.5)), 2.0);
        assert_eq!(s.straggle_factor_at(t(3.5)), 3.0, "stragglers compound");
        assert!(!s.scale_up_fails_at(t(5.5)));
        assert!(s.scale_up_fails_at(t(6.0)));
        assert!(!s.scale_up_fails_at(t(7.0)));
    }

    #[test]
    fn cloud_randomized_schedules_are_reproducible_and_bounded() {
        let horizon = Duration::from_secs(120);
        let a = CloudFaultSchedule::randomized(9, horizon);
        let b = CloudFaultSchedule::randomized(9, horizon);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.windows().len() <= 3);
        for w in a.windows() {
            assert!(w.from >= SimTime::EPOCH && w.until <= SimTime::EPOCH + horizon);
        }
        assert_ne!(a, CloudFaultSchedule::randomized(10, horizon));
        // Cloud and channel schedules draw from distinct streams, so
        // pairing them under one seed does not correlate their windows.
        assert_ne!(
            format!("{:?}", CloudFaultSchedule::randomized(9, horizon)),
            format!("{:?}", FaultSchedule::randomized(9, horizon))
        );
    }

    #[test]
    fn fault_clock_reports_each_edge_once() {
        let s = FaultSchedule::none()
            .with(1.0, 2.0, FaultKind::Blackout)
            .with(2.0, 1.0, FaultKind::RemoteCrash);
        let mut clock = FaultClock::new(s);
        assert!(clock.poll(t(0.5)).is_empty());
        let e = clock.poll(t(1.0));
        assert_eq!(e.len(), 1);
        assert!(e[0].begin && e[0].kind == FaultKind::Blackout);
        // Jump past several edges at once: both remaining begins/ends arrive together.
        let e = clock.poll(t(10.0));
        assert_eq!(e.len(), 3);
        assert!(clock.poll(t(20.0)).is_empty());
    }
}
