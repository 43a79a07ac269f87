//! Adaptive parallelism governor (paper §VIII-E).
//!
//! Fig. 14's observation: the real velocity only reaches the Eq. 2c
//! maximum on straight stretches; in obstacle-dense or turning phases
//! the gap `v_max − v_real` widens, and the extra cloud parallelism
//! that bought the high `v_max` is wasted. The paper suggests
//! "adopt\[ing\] the optimal offloading policy which has a minimum gap
//! based on different phases of environment — if there are more
//! obstacles … reduce the parallelization … \[to\] save the financial
//! cost and resource usage on the cloud servers."
//!
//! [`ThreadGovernor`] implements that policy: it tracks the recent
//! velocity-gap ratio and recommends a thread count between 1 and the
//! deployment maximum — full parallelism when the robot is actually
//! using the speed, scaled down when the environment is the binding
//! constraint.

use lgv_trace::{TraceEvent, Tracer};
use std::collections::VecDeque;

/// Sliding window of velocity samples considered.
pub const WINDOW: usize = 25;
/// Gap ratio (`1 − v_real/v_max`) below which full parallelism is
/// kept.
pub const LOW_GAP: f64 = 0.15;
/// Gap ratio above which parallelism drops to the minimum.
pub const HIGH_GAP: f64 = 0.6;
/// Smallest thread count the governor will recommend.
pub const MIN_THREADS: u32 = 1;

/// Tracks the velocity gap and recommends a thread count.
#[derive(Debug, Clone)]
pub struct ThreadGovernor {
    max_threads: u32,
    samples: VecDeque<f64>,
    tracer: Tracer,
}

impl ThreadGovernor {
    /// Governor for a deployment allowed up to `max_threads`.
    pub fn new(max_threads: u32) -> Self {
        assert!(max_threads >= 1);
        ThreadGovernor {
            max_threads,
            samples: VecDeque::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Route governor decisions to `tracer` (timestamps come from the
    /// tracer's shared virtual clock).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Record one control cycle's `(v_max, v_real)` pair.
    pub fn observe(&mut self, vmax: f64, v_real: f64) {
        if vmax <= 1e-6 {
            return;
        }
        let gap = (1.0 - v_real / vmax).clamp(0.0, 1.0);
        if self.samples.len() == WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(gap);
    }

    /// Mean gap ratio over the window (0 until data arrives).
    pub fn mean_gap(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Recommended thread count: linear interpolation between the
    /// deployment maximum (gap ≤ low) and the minimum (gap ≥ high).
    pub fn recommend(&self) -> u32 {
        let threads = self.recommend_inner();
        self.tracer.emit_with(|| TraceEvent::GovernorDecision {
            mean_gap: self.mean_gap(),
            threads,
        });
        threads
    }

    fn recommend_inner(&self) -> u32 {
        // Be generous until the window has real data.
        if self.samples.len() < WINDOW / 2 {
            return self.max_threads;
        }
        let gap = self.mean_gap();
        let (lo, hi) = (LOW_GAP, HIGH_GAP);
        if gap <= lo {
            self.max_threads
        } else if gap >= hi {
            MIN_THREADS.min(self.max_threads)
        } else {
            let t = 1.0 - (gap - lo) / (hi - lo);
            let span = (self.max_threads - MIN_THREADS) as f64;
            (MIN_THREADS as f64 + t * span).round() as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor() -> ThreadGovernor {
        ThreadGovernor::new(12)
    }

    #[test]
    fn full_speed_keeps_full_parallelism() {
        let mut g = governor();
        for _ in 0..30 {
            g.observe(0.6, 0.58);
        }
        assert_eq!(g.recommend(), 12);
    }

    #[test]
    fn large_gap_drops_to_minimum() {
        let mut g = governor();
        for _ in 0..30 {
            g.observe(0.6, 0.1);
        }
        assert_eq!(g.recommend(), 1);
    }

    #[test]
    fn intermediate_gap_interpolates() {
        let mut g = governor();
        for _ in 0..30 {
            g.observe(0.6, 0.36); // gap 0.4, between 0.15 and 0.6
        }
        let r = g.recommend();
        assert!(r > 1 && r < 12, "recommended {r}");
    }

    #[test]
    fn warmup_is_generous() {
        let mut g = governor();
        g.observe(0.6, 0.0);
        assert_eq!(g.recommend(), 12, "no throttling before the window fills");
    }

    #[test]
    fn zero_vmax_samples_are_ignored() {
        let mut g = governor();
        for _ in 0..30 {
            g.observe(0.0, 0.0);
        }
        assert_eq!(g.mean_gap(), 0.0);
        assert_eq!(g.recommend(), 12);
    }

    #[test]
    fn gap_shrinks_recommendation_monotonically() {
        let mut prev = u32::MAX;
        for gap in [0.0, 0.2, 0.3, 0.4, 0.5, 0.7] {
            let mut g = governor();
            for _ in 0..30 {
                g.observe(1.0, 1.0 - gap);
            }
            let r = g.recommend();
            assert!(r <= prev, "recommendation must not increase with gap");
            prev = r;
        }
    }

    #[test]
    fn only_the_latest_window_of_samples_counts() {
        let mut g = governor();
        for _ in 0..WINDOW {
            g.observe(0.5, 0.0);
        }
        assert_eq!(g.mean_gap(), 1.0);
        for _ in 0..WINDOW {
            g.observe(0.5, 0.5);
        }
        assert_eq!(g.mean_gap(), 0.0);
        assert_eq!(g.recommend(), 12);
    }

    #[test]
    fn gaps_are_clamped_to_the_unit_interval() {
        let mut g = governor();
        g.observe(0.5, 0.8);
        assert_eq!(g.mean_gap(), 0.0);
        g.observe(0.5, -0.5);
        assert_eq!(g.mean_gap(), 0.5);
    }

    #[test]
    fn recommendations_are_traced() {
        let tracer = Tracer::enabled();
        let ring = tracer.attach(lgv_trace::RingBufferSink::new(4));
        let mut g = governor();
        g.set_tracer(tracer);
        assert_eq!(g.recommend(), 12);
        let ring = ring.lock().unwrap();
        let rec = ring.records().next().unwrap();
        assert_eq!(
            rec.event,
            TraceEvent::GovernorDecision {
                mean_gap: 0.0,
                threads: 12
            }
        );
    }

    #[test]
    #[should_panic]
    fn a_governor_needs_at_least_one_thread() {
        let _ = ThreadGovernor::new(0);
    }
}
