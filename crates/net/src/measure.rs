//! Network-quality metrics for Algorithm 2.
//!
//! The paper replaces latency metrics (which UDP "best-effort
//! delivery" renders misleading, Fig. 7/11) with two robust signals:
//!
//! * **packet bandwidth** — the receive rate over a sliding window;
//!   with a fixed send rate it directly reflects loss;
//! * **signal direction** — whether the LGV is moving towards or away
//!   from the WAP, derived from its internal model of the environment.
//!
//! An [`RttTracker`] is still provided: the Profiler adds the latest
//! RTT to the VDP makespan.

use lgv_types::prelude::*;
use std::collections::VecDeque;

/// Receive-rate meter over a sliding time window.
#[derive(Debug, Clone)]
pub struct BandwidthMeter {
    window: Duration,
    arrivals: VecDeque<SimTime>,
}

impl BandwidthMeter {
    /// Meter with the given sliding window (the paper uses 1 s).
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO);
        BandwidthMeter {
            window,
            arrivals: VecDeque::new(),
        }
    }

    /// Record a packet arrival. Arrival stamps must be non-decreasing
    /// (the simulated channel delivers in arrival order); the sliding
    /// eviction relies on it.
    pub fn record(&mut self, at: SimTime) {
        debug_assert!(
            self.arrivals.back().is_none_or(|&b| b <= at),
            "arrivals must be monotone"
        );
        self.arrivals.push_back(at);
    }

    fn evict(&mut self, now: SimTime) {
        while let Some(&front) = self.arrivals.front() {
            if now.saturating_since(front) > self.window {
                self.arrivals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Packets per second observed over the window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.arrivals.len() as f64 / self.window.as_secs_f64()
    }
}

/// Estimates whether the LGV approaches (+1) or retreats from (−1)
/// the WAP, smoothed to ignore jitter. The WAP position is assumed
/// marked in the LGV's internal map (paper §VI-A).
#[derive(Debug, Clone)]
pub struct SignalDirectionEstimator {
    wap: Point2,
    last: Option<(SimTime, f64)>,
    /// Exponentially smoothed radial velocity (m/s, positive = towards
    /// the WAP).
    smoothed: f64,
    alpha: f64,
}

impl SignalDirectionEstimator {
    /// Estimator for a WAP at the given position.
    pub fn new(wap: Point2) -> Self {
        SignalDirectionEstimator {
            wap,
            last: None,
            smoothed: 0.0,
            alpha: 0.3,
        }
    }

    /// Feed the latest robot position; returns the smoothed direction.
    pub fn update(&mut self, now: SimTime, robot: Point2) -> f64 {
        let dist = robot.distance(self.wap);
        if let Some((t_prev, d_prev)) = self.last {
            let dt = now.saturating_since(t_prev).as_secs_f64();
            if dt > 1e-6 {
                // Positive when the distance shrinks.
                let v = (d_prev - dist) / dt;
                self.smoothed = self.alpha * v + (1.0 - self.alpha) * self.smoothed;
            }
        }
        self.last = Some((now, dist));
        self.smoothed
    }

    /// Current direction: > 0 approaching, < 0 retreating (the `d_t`
    /// of Algorithm 2).
    pub fn direction(&self) -> f64 {
        self.smoothed
    }
}

/// The latest round-trip time, fed by echoed stamps; the Profiler
/// reads it for the VDP makespan.
#[derive(Debug, Clone, Default)]
pub struct RttTracker {
    latest: Option<Duration>,
}

impl RttTracker {
    /// Record an RTT sample.
    pub fn record(&mut self, rtt: Duration) {
        self.latest = Some(rtt);
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<Duration> {
        self.latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_counts_window() {
        let mut m = BandwidthMeter::new(Duration::from_secs(1));
        for i in 0..5 {
            m.record(SimTime::EPOCH + Duration::from_millis(200 * i));
        }
        // At t = 1 s all five arrivals are inside the window.
        assert_eq!(m.rate(SimTime::EPOCH + Duration::from_secs(1)), 5.0);
        // At t = 2.1 s they have all aged out.
        assert_eq!(m.rate(SimTime::EPOCH + Duration::from_millis(2100)), 0.0);
    }

    #[test]
    fn bandwidth_reflects_loss() {
        let mut m = BandwidthMeter::new(Duration::from_secs(1));
        // 5 Hz sender, but only 1 packet survives each second.
        m.record(SimTime::EPOCH + Duration::from_millis(100));
        assert_eq!(m.rate(SimTime::EPOCH + Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn direction_positive_when_approaching() {
        let mut d = SignalDirectionEstimator::new(Point2::new(0.0, 0.0));
        for i in 0..20 {
            let t = SimTime::EPOCH + Duration::from_millis(200 * i);
            // Walk from x = 20 towards the WAP.
            d.update(t, Point2::new(20.0 - i as f64, 0.0));
        }
        assert!(d.direction() > 0.0);
    }

    #[test]
    fn direction_negative_when_retreating() {
        let mut d = SignalDirectionEstimator::new(Point2::new(0.0, 0.0));
        for i in 0..20 {
            let t = SimTime::EPOCH + Duration::from_millis(200 * i);
            d.update(t, Point2::new(2.0 + i as f64, 0.0));
        }
        assert!(d.direction() < 0.0);
    }

    #[test]
    fn direction_flips_at_turnaround() {
        let mut d = SignalDirectionEstimator::new(Point2::new(0.0, 0.0));
        let mut i = 0u64;
        // Out for 30 steps…
        for k in 0..30 {
            d.update(
                SimTime::EPOCH + Duration::from_millis(200 * i),
                Point2::new(k as f64, 0.0),
            );
            i += 1;
        }
        assert!(d.direction() < 0.0);
        // …then back.
        for k in (0..30).rev() {
            d.update(
                SimTime::EPOCH + Duration::from_millis(200 * i),
                Point2::new(k as f64, 0.0),
            );
            i += 1;
        }
        assert!(d.direction() > 0.0);
    }

    #[test]
    fn rtt_tracker_stats() {
        let mut r = RttTracker::default();
        assert_eq!(r.latest(), None);
        for ms in [10u64, 20, 30, 40] {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.latest(), Some(Duration::from_millis(40)));
    }

    #[test]
    fn bandwidth_window_keeps_an_arrival_exactly_one_window_old() {
        let w = Duration::from_millis(500);
        let mut m = BandwidthMeter::new(w);
        m.record(SimTime::EPOCH);
        assert_eq!(m.rate(SimTime::EPOCH + w), 2.0);
        assert_eq!(m.rate(SimTime::EPOCH + w + Duration::from_nanos(1)), 0.0);
    }

    #[test]
    #[should_panic]
    fn bandwidth_meter_rejects_an_empty_window() {
        let _ = BandwidthMeter::new(Duration::ZERO);
    }

    #[test]
    fn direction_is_a_smoothed_closing_speed() {
        let mut d = SignalDirectionEstimator::new(Point2::ORIGIN);
        let at = |s: u64| SimTime::EPOCH + Duration::from_secs(s);
        // The first fix has nothing to compare with.
        assert_eq!(d.update(at(0), Point2::new(10.0, 0.0)), 0.0);
        // Closing at 1 m/s: each step blends in 30% of the new speed.
        assert!((d.update(at(1), Point2::new(9.0, 0.0)) - 0.3).abs() < 1e-12);
        assert!((d.update(at(2), Point2::new(8.0, 0.0)) - 0.51).abs() < 1e-12);
        // A repeated timestamp carries no speed and changes nothing.
        assert!((d.update(at(2), Point2::new(0.0, 0.0)) - 0.51).abs() < 1e-12);
        assert_eq!(d.direction(), d.update(at(2), Point2::new(0.0, 0.0)));
    }
}
