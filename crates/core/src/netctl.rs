//! Algorithm 2: offload network quality control (paper §VI-A).
//!
//! Latency statistics lie over VDP-style UDP links (Fig. 7): packets
//! silently discarded at the sender never appear in any percentile,
//! so the tail looks healthy precisely while the link starves. The
//! paper's controller therefore watches two robust signals:
//!
//! * `r_t` — **packet bandwidth**: the receive rate over a window;
//!   with a fixed 5 Hz send rate it directly exposes loss;
//! * `d_t` — **signal direction**: whether the LGV is moving towards
//!   (+) or away from (−) the WAP, from its internal world model.
//!
//! The decision rule is exactly Algorithm 2, plus a dwell time so the
//! system cannot flap when hovering at the threshold:
//!
//! ```text
//! if r_t < threshold and d_t < 0 → invoke nodes locally
//! if r_t > threshold and d_t > 0 → invoke nodes remotely
//! otherwise                      → keep the current placement
//! ```
//!
//! A latency-threshold baseline ([`LatencyOnlyControl`]) is included
//! for the ablation benches — it demonstrates the Fig. 7/11 failure.

use lgv_types::prelude::*;

/// What Algorithm 2 wants done with the currently-offloaded node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDecision {
    /// Migrate the offloaded nodes back onto the LGV.
    InvokeLocal,
    /// (Re-)offload the nodes to the remote server.
    InvokeRemote,
    /// No change.
    Keep,
}

/// Why a switch (or suppression) happened — the recovery paths need
/// to distinguish "the rule said so" from "the remote host is dead".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchCause {
    /// Algorithm 2's bandwidth × direction rule.
    Rule,
    /// Bandwidth starved past [`OUTAGE_TIMEOUT`] while offloaded — the
    /// radio is the problem.
    OutageWatchdog,
    /// The radio is healthy but the remote fell silent past
    /// [`HEARTBEAT_TIMEOUT`] — the remote host is the problem.
    HeartbeatMiss,
}

impl SwitchCause {
    /// Stable label for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchCause::Rule => "rule",
            SwitchCause::OutageWatchdog => "outage_watchdog",
            SwitchCause::HeartbeatMiss => "heartbeat_miss",
        }
    }
}

/// One evaluation's inputs. The first three are Algorithm 2's own
/// signals; the last two feed the cloud-liveness heartbeat, which
/// separates a radio outage (the robot's own diagnostics see a weak
/// signal) from a dead remote host (radio healthy, downlink silent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetInputs {
    /// `r_t` — measured packet bandwidth (packets/s).
    pub bandwidth: f64,
    /// `d_t` — signal direction (positive = approaching the WAP).
    pub direction: f64,
    /// Do the offloadable nodes currently run remotely?
    pub remote_active: bool,
    /// Virtual age of the last robot-side downlink arrival; `None`
    /// until the remote has been heard from at all (a fresh offload
    /// gets [`HEARTBEAT_TIMEOUT`] to produce its first downlink).
    pub since_downlink: Option<Duration>,
    /// The robot's own radio diagnostics: weak signal or scripted
    /// blackout right now. A silent downlink under a *weak* radio is
    /// an outage, not a crash — the heartbeat must not fire.
    pub radio_weak: bool,
}

/// The full outcome of one [`NetControl::evaluate`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetVerdict {
    /// What to do with the node placement.
    pub decision: NetDecision,
    /// Why (meaningful when `decision != Keep`).
    pub cause: SwitchCause,
    /// `Some((wait, failures))` exactly once per failure: the moment
    /// re-offload conditions first became satisfied again and the
    /// pending exponential backoff armed instead. The caller should
    /// emit a `reoffload_backoff` trace event from this.
    pub backoff_armed: Option<(Duration, u64)>,
}

/// Bandwidth threshold (packets/s). The paper uses 4 of a 5 Hz send
/// rate (§VIII-C).
pub const BANDWIDTH_THRESHOLD: f64 = 4.0;
/// Minimum time between switches (hysteresis dwell).
pub const MIN_DWELL: Duration = Duration::from_millis(1500);
/// Ignore measurements this long after startup (the bandwidth window
/// and direction estimator need to fill).
pub const WARMUP: Duration = Duration::from_secs(2);
/// Direction magnitudes below this count as "not moving" (neither
/// branch of Algorithm 2 fires).
pub const DIRECTION_DEADBAND: f64 = 0.02;
/// Extension beyond the paper's Algorithm 2: if the bandwidth has been
/// below threshold for this long while offloaded, invoke the nodes
/// locally regardless of signal direction. The paper's two rules only
/// cover the *mobility* cases; a stationary robot in a total outage
/// would otherwise deadlock (it cannot move without commands, and it
/// cannot switch without moving).
pub const OUTAGE_TIMEOUT: Duration = Duration::from_secs(5);
/// Cloud-liveness heartbeat: if the downlink has been silent this long
/// while offloaded *and the radio itself looks healthy*, the remote
/// host is presumed dead and the nodes are invoked locally immediately
/// — bypassing the dwell, well before the outage watchdog would react.
pub const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(1500);
/// First re-offload backoff after a failed offload; doubles per
/// consecutive failure.
pub const BACKOFF_BASE: Duration = Duration::from_secs(2);
/// Ceiling for the exponential backoff.
pub const BACKOFF_CAP: Duration = Duration::from_secs(30);
/// Forget recorded failures (and any pending backoff) after the remote
/// has been continuously healthy this long.
pub const FAILURE_FORGET: Duration = Duration::from_secs(30);

/// Algorithm 2 with switch-dwell hysteresis, a cloud-liveness
/// heartbeat, and exponential re-offload backoff.
#[derive(Debug, Clone, Default)]
pub struct NetControl {
    last_switch: Option<SimTime>,
    started: Option<SimTime>,
    starved_since: Option<SimTime>,
    healthy_since: Option<SimTime>,
    /// Consecutive offload failures (crash, outage, timed-out
    /// migration) with no sustained healthy period between them.
    failures: u64,
    /// A failure was recorded and its backoff has not armed yet.
    backoff_pending: bool,
    /// Wait computed at the last `record_failure`.
    backoff_wait: Duration,
    /// Once armed: re-offload is suppressed until this instant.
    backoff_until: Option<SimTime>,
    /// Switches performed (diagnostics).
    pub switches: u64,
}

impl NetControl {
    /// A controller that has not switched yet.
    pub fn new() -> Self {
        NetControl::default()
    }

    /// Evaluate the rule at `now` given the measured packet bandwidth
    /// `r_t` (packets/s), the signal direction `d_t` (positive =
    /// approaching the WAP), and whether the nodes currently run
    /// remotely.
    ///
    /// Legacy entry point: no heartbeat inputs, so only the rule and
    /// the outage watchdog can fire (a weak radio suppresses the
    /// heartbeat by definition).
    pub fn decide(&mut self, now: SimTime, r_t: f64, d_t: f64, remote_active: bool) -> NetDecision {
        self.evaluate(
            now,
            NetInputs {
                bandwidth: r_t,
                direction: d_t,
                remote_active,
                since_downlink: None,
                radio_weak: true,
            },
        )
        .decision
    }

    /// Full evaluation with liveness inputs.
    pub fn evaluate(&mut self, now: SimTime, inp: NetInputs) -> NetVerdict {
        let keep = |cause| NetVerdict {
            decision: NetDecision::Keep,
            cause,
            backoff_armed: None,
        };
        let started = *self.started.get_or_insert(now);
        if now.saturating_since(started) < WARMUP {
            return keep(SwitchCause::Rule);
        }

        // Forget old failures once the remote has been continuously
        // healthy long enough — the next incident backs off from the
        // base again.
        if inp.remote_active && inp.bandwidth >= BANDWIDTH_THRESHOLD {
            let since = *self.healthy_since.get_or_insert(now);
            if now.saturating_since(since) >= FAILURE_FORGET {
                self.failures = 0;
                self.backoff_pending = false;
                self.backoff_until = None;
            }
        } else {
            self.healthy_since = None;
        }

        // Cloud-liveness heartbeat: checked before the dwell so a
        // crashed remote never strands the robot waiting out
        // hysteresis. Fires only when the radio itself is healthy —
        // a silent downlink behind a weak signal is the watchdog's
        // territory.
        if inp.remote_active && !inp.radio_weak {
            if let Some(age) = inp.since_downlink {
                if age >= HEARTBEAT_TIMEOUT {
                    self.starved_since = None;
                    self.last_switch = Some(now);
                    self.switches += 1;
                    self.record_failure(now);
                    return NetVerdict {
                        decision: NetDecision::InvokeLocal,
                        cause: SwitchCause::HeartbeatMiss,
                        backoff_armed: None,
                    };
                }
            }
        }

        if let Some(last) = self.last_switch {
            if now.saturating_since(last) < MIN_DWELL {
                return keep(SwitchCause::Rule);
            }
        }
        // Outage watchdog (extension; see `OUTAGE_TIMEOUT`).
        if inp.remote_active && inp.bandwidth < BANDWIDTH_THRESHOLD {
            let since = *self.starved_since.get_or_insert(now);
            if now.saturating_since(since) >= OUTAGE_TIMEOUT {
                self.starved_since = None;
                self.last_switch = Some(now);
                self.switches += 1;
                self.record_failure(now);
                return NetVerdict {
                    decision: NetDecision::InvokeLocal,
                    cause: SwitchCause::OutageWatchdog,
                    backoff_armed: None,
                };
            }
        } else {
            self.starved_since = None;
        }

        let db = DIRECTION_DEADBAND;
        let (r_t, d_t) = (inp.bandwidth, inp.direction);
        let decision = if r_t < BANDWIDTH_THRESHOLD && d_t < -db && inp.remote_active {
            NetDecision::InvokeLocal
        } else if r_t > BANDWIDTH_THRESHOLD && d_t > db && !inp.remote_active {
            NetDecision::InvokeRemote
        } else {
            NetDecision::Keep
        };

        // Gate re-offload behind the backoff. The wait is measured
        // from the moment retry conditions are first satisfied again
        // (armed here), not from the failure itself — so a long crash
        // window cannot silently swallow the whole wait.
        if decision == NetDecision::InvokeRemote {
            if self.backoff_pending {
                self.backoff_pending = false;
                self.backoff_until = Some(now + self.backoff_wait);
                return NetVerdict {
                    decision: NetDecision::Keep,
                    cause: SwitchCause::Rule,
                    backoff_armed: Some((self.backoff_wait, self.failures)),
                };
            }
            if let Some(until) = self.backoff_until {
                if now < until {
                    return keep(SwitchCause::Rule);
                }
                self.backoff_until = None;
            }
        }

        if decision != NetDecision::Keep {
            self.last_switch = Some(now);
            self.switches += 1;
        }
        NetVerdict {
            decision,
            cause: SwitchCause::Rule,
            backoff_armed: None,
        }
    }

    /// Record a failed offload (remote crash, outage fallback, or a
    /// timed-out migration). The next `InvokeRemote` the rule would
    /// emit instead arms an exponential backoff — `base × 2^(n−1)`,
    /// capped — and only after that wait does re-offload go through.
    /// Heartbeat and watchdog switches record themselves; callers only
    /// need this for failures the controller cannot see (e.g. a
    /// migration deadline expiry).
    pub fn record_failure(&mut self, _now: SimTime) {
        self.failures += 1;
        let exp = (self.failures - 1).min(16) as u32;
        let wait = BACKOFF_BASE * (1u64 << exp) as f64;
        self.backoff_wait = wait.min(BACKOFF_CAP);
        self.backoff_pending = true;
        self.backoff_until = None;
    }

    /// Consecutive failures currently held against the remote.
    pub fn failure_count(&self) -> u64 {
        self.failures
    }
}

/// The naive latency-threshold controller Algorithm 2 replaces. Used
/// by the ablation benches to reproduce the Fig. 7 failure: under
/// weak signal the observed latency stays healthy (survivor bias), so
/// this controller never reacts.
#[derive(Debug, Clone)]
pub struct LatencyOnlyControl {
    /// Switch local when observed tail latency exceeds this.
    pub latency_threshold: Duration,
}

impl LatencyOnlyControl {
    /// Evaluate on the latest observed (survivor) latency; `None`
    /// means no packet arrived — which this naive controller treats
    /// as "no news is good news", exactly its failure mode.
    pub fn decide(&self, observed: Option<Duration>, remote_active: bool) -> NetDecision {
        match observed {
            Some(lat) if lat > self.latency_threshold && remote_active => NetDecision::InvokeLocal,
            _ => NetDecision::Keep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::EPOCH + Duration::from_millis(ms)
    }

    /// A controller whose warm-up has already elapsed (first decide
    /// call pins the start time).
    fn warmed() -> NetControl {
        let mut c = NetControl::new();
        assert_eq!(c.decide(t(0), 5.0, 0.0, true), NetDecision::Keep);
        c
    }

    #[test]
    fn warmup_suppresses_early_decisions() {
        let mut c = NetControl::new();
        // Clear "go local" conditions, but inside the warm-up window.
        assert_eq!(c.decide(t(0), 0.0, -0.5, true), NetDecision::Keep);
        assert_eq!(c.decide(t(1000), 0.0, -0.5, true), NetDecision::Keep);
        assert_eq!(c.decide(t(2500), 0.0, -0.5, true), NetDecision::InvokeLocal);
    }

    #[test]
    fn weak_and_retreating_goes_local() {
        let mut c = warmed();
        assert_eq!(c.decide(t(3000), 1.0, -0.5, true), NetDecision::InvokeLocal);
    }

    #[test]
    fn strong_and_approaching_goes_remote() {
        let mut c = warmed();
        assert_eq!(
            c.decide(t(3000), 5.0, 0.5, false),
            NetDecision::InvokeRemote
        );
    }

    #[test]
    fn mixed_signals_keep() {
        let mut c = warmed();
        // Weak but approaching: the link is about to recover — keep.
        assert_eq!(c.decide(t(3000), 1.0, 0.5, true), NetDecision::Keep);
        // Strong but retreating: still fine for now — keep.
        assert_eq!(c.decide(t(3010), 5.0, -0.5, true), NetDecision::Keep);
    }

    #[test]
    fn idempotent_states_keep() {
        let mut c = warmed();
        // Already local, weak signal: nothing to do.
        assert_eq!(c.decide(t(3000), 1.0, -0.5, false), NetDecision::Keep);
        // Already remote, strong signal: nothing to do.
        assert_eq!(c.decide(t(3010), 5.0, 0.5, true), NetDecision::Keep);
    }

    #[test]
    fn dwell_prevents_flapping() {
        let mut c = warmed();
        assert_eq!(c.decide(t(3000), 1.0, -0.5, true), NetDecision::InvokeLocal);
        // Immediately after, conditions say "go remote" — suppressed.
        assert_eq!(c.decide(t(3200), 5.0, 0.5, false), NetDecision::Keep);
        // After the dwell expires the switch is allowed.
        assert_eq!(
            c.decide(t(5000), 5.0, 0.5, false),
            NetDecision::InvokeRemote
        );
        assert_eq!(c.switches, 2);
    }

    #[test]
    fn threshold_is_strict() {
        let mut c = warmed();
        // Exactly at the threshold: neither branch fires.
        assert_eq!(c.decide(t(3000), 4.0, -0.5, true), NetDecision::Keep);
        assert_eq!(c.decide(t(3010), 4.0, 0.5, false), NetDecision::Keep);
    }

    #[test]
    fn outage_watchdog_fires_without_motion() {
        // Stationary robot, dead link: the mobility rules can never
        // fire (direction ≈ 0), but the watchdog must.
        let mut c = warmed();
        let mut fired = false;
        for k in 0..15 {
            let d = c.decide(t(3000 + k * 1000), 0.0, 0.0, true);
            if d == NetDecision::InvokeLocal {
                fired = true;
                break;
            }
        }
        assert!(fired, "watchdog should invoke local during a total outage");
    }

    #[test]
    fn watchdog_resets_when_bandwidth_recovers() {
        let mut c = warmed();
        // 3 s starved, then healthy again: no switch.
        assert_eq!(c.decide(t(3000), 0.0, 0.0, true), NetDecision::Keep);
        assert_eq!(c.decide(t(6000), 0.0, 0.0, true), NetDecision::Keep);
        assert_eq!(c.decide(t(7000), 5.0, 0.0, true), NetDecision::Keep);
        // Starvation clock restarted: 4 s more of starvation is short
        // of the 5 s timeout.
        assert_eq!(c.decide(t(8000), 0.0, 0.0, true), NetDecision::Keep);
        assert_eq!(c.decide(t(11_000), 0.0, 0.0, true), NetDecision::Keep);
        assert_eq!(c.switches, 0);
    }

    #[test]
    fn direction_deadband_suppresses_jitter() {
        let mut c = warmed();
        assert_eq!(c.decide(t(3000), 1.0, -0.005, true), NetDecision::Keep);
        assert_eq!(c.decide(t(3010), 5.0, 0.005, false), NetDecision::Keep);
    }

    /// Heartbeat inputs: remote active, downlink silent for `age_ms`,
    /// radio weak or not.
    fn hb(age_ms: u64, radio_weak: bool) -> NetInputs {
        NetInputs {
            bandwidth: 5.0,
            direction: 0.0,
            remote_active: true,
            since_downlink: Some(Duration::from_millis(age_ms)),
            radio_weak,
        }
    }

    #[test]
    fn heartbeat_fires_fast_when_radio_is_healthy() {
        let mut c = warmed();
        // Downlink silent 1.6 s > 1.5 s timeout, radio fine: the
        // remote is dead — local fallback right now, no 5 s watchdog
        // wait, and the failure is held against the remote.
        let v = c.evaluate(t(3000), hb(1600, false));
        assert_eq!(v.decision, NetDecision::InvokeLocal);
        assert_eq!(v.cause, SwitchCause::HeartbeatMiss);
        assert_eq!(c.failure_count(), 1);
    }

    #[test]
    fn heartbeat_bypasses_the_dwell() {
        let mut c = warmed();
        // A rule switch just happened...
        assert_eq!(
            c.decide(t(3000), 5.0, 0.5, false),
            NetDecision::InvokeRemote
        );
        // ...and 200 ms later the remote dies. The dwell must not
        // delay the fallback.
        let v = c.evaluate(t(3200), hb(1600, false));
        assert_eq!(v.decision, NetDecision::InvokeLocal);
        assert_eq!(v.cause, SwitchCause::HeartbeatMiss);
    }

    #[test]
    fn heartbeat_suppressed_during_radio_outage() {
        let mut c = warmed();
        // Same silence, but the robot's own diagnostics show a weak
        // radio: this is an outage, not a crash — the watchdog (not
        // the heartbeat) owns it.
        let mut inp = hb(1600, true);
        inp.bandwidth = 0.0;
        let v = c.evaluate(t(3000), inp);
        assert_eq!(v.decision, NetDecision::Keep);
        assert_eq!(c.failure_count(), 0);
    }

    #[test]
    fn heartbeat_waits_for_a_first_downlink() {
        let mut c = warmed();
        // Freshly offloaded: no downlink seen yet. Not a miss.
        let mut inp = hb(0, false);
        inp.since_downlink = None;
        assert_eq!(c.evaluate(t(3000), inp).decision, NetDecision::Keep);
    }

    #[test]
    fn backoff_arms_at_retry_eligibility_and_doubles() {
        let mut c = warmed();
        c.record_failure(t(3000));
        // Retry conditions first satisfied at t=10 s: the rule wants
        // InvokeRemote, but the 2 s backoff arms instead — once.
        let retry = |c: &mut NetControl, ms| {
            c.evaluate(
                t(ms),
                NetInputs {
                    bandwidth: 5.0,
                    direction: 0.5,
                    remote_active: false,
                    since_downlink: None,
                    radio_weak: false,
                },
            )
        };
        let v = retry(&mut c, 10_000);
        assert_eq!(v.decision, NetDecision::Keep);
        assert_eq!(v.backoff_armed, Some((Duration::from_secs(2), 1)));
        // Still waiting at +1 s, no re-announcement.
        let v = retry(&mut c, 11_000);
        assert_eq!(v.decision, NetDecision::Keep);
        assert_eq!(v.backoff_armed, None);
        // Wait elapsed: re-offload goes through.
        assert_eq!(retry(&mut c, 12_100).decision, NetDecision::InvokeRemote);
        // A second failure doubles the wait.
        c.record_failure(t(13_000));
        let v = retry(&mut c, 20_000);
        assert_eq!(v.backoff_armed, Some((Duration::from_secs(4), 2)));
        assert_eq!(retry(&mut c, 22_000).decision, NetDecision::Keep);
        assert_eq!(retry(&mut c, 24_100).decision, NetDecision::InvokeRemote);
    }

    #[test]
    fn backoff_wait_is_capped() {
        let mut c = warmed();
        for k in 0..10 {
            c.record_failure(t(3000 + k));
        }
        let v = c.evaluate(
            t(10_000),
            NetInputs {
                bandwidth: 5.0,
                direction: 0.5,
                remote_active: false,
                since_downlink: None,
                radio_weak: false,
            },
        );
        assert_eq!(v.backoff_armed, Some((Duration::from_secs(30), 10)));
    }

    #[test]
    fn sustained_health_forgets_failures() {
        let mut c = warmed();
        c.record_failure(t(3000));
        assert_eq!(c.failure_count(), 1);
        // Healthy remote for > failure_forget (30 s): history cleared,
        // including the pending backoff.
        let healthy = |c: &mut NetControl, ms| {
            c.evaluate(
                t(ms),
                NetInputs {
                    bandwidth: 5.0,
                    direction: 0.0,
                    remote_active: true,
                    since_downlink: Some(Duration::from_millis(100)),
                    radio_weak: false,
                },
            )
        };
        healthy(&mut c, 4000);
        healthy(&mut c, 40_000);
        assert_eq!(c.failure_count(), 0);
    }

    #[test]
    fn legacy_decide_never_sees_a_heartbeat() {
        // decide() passes radio_weak = true and no downlink age: the
        // heartbeat path is unreachable, preserving the original
        // Algorithm 2 + watchdog behaviour byte-for-byte.
        let mut c = warmed();
        assert_eq!(c.decide(t(3000), 5.0, 0.0, true), NetDecision::Keep);
        assert_eq!(c.failure_count(), 0);
    }

    #[test]
    fn latency_only_controller_misses_silent_loss() {
        let c = LatencyOnlyControl {
            latency_threshold: Duration::from_millis(100),
        };
        // Survivor packets look healthy → Keep, even though the link
        // is actually starving (no packets at all → also Keep).
        assert_eq!(
            c.decide(Some(Duration::from_millis(8)), true),
            NetDecision::Keep
        );
        assert_eq!(c.decide(None, true), NetDecision::Keep);
        // It only reacts to a latency it can *see*.
        assert_eq!(
            c.decide(Some(Duration::from_millis(500)), true),
            NetDecision::InvokeLocal
        );
    }

    #[test]
    fn latency_only_control_reacts_only_to_slow_survivors() {
        let c = LatencyOnlyControl {
            latency_threshold: Duration::from_millis(100),
        };
        let slow = Some(Duration::from_millis(150));
        assert_eq!(c.decide(slow, true), NetDecision::InvokeLocal);
        assert_eq!(c.decide(slow, false), NetDecision::Keep);
        assert_eq!(
            c.decide(Some(Duration::from_millis(100)), true),
            NetDecision::Keep
        );
        // Silence reads as health: the failure mode of Fig. 7.
        assert_eq!(c.decide(None, true), NetDecision::Keep);
    }

    #[test]
    fn switch_cause_labels_are_distinct() {
        let labels = [
            SwitchCause::Rule.as_str(),
            SwitchCause::OutageWatchdog.as_str(),
            SwitchCause::HeartbeatMiss.as_str(),
        ];
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert_eq!(NetControl::new().failure_count(), 0);
    }
}
