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
use lgv_types::prelude::*;
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

    /// Estimated relative compute-resource saving vs always running at
    /// the deployment maximum (0 = none, 1 = everything).
    pub fn resource_saving(&self) -> f64 {
        1.0 - self.recommend() as f64 / self.max_threads as f64
    }
}

/// Summarize per-phase velocity gaps from a mission trace — the data
/// behind Fig. 14's analysis.
pub fn gap_by_phase<F>(
    samples: &[(f64, f64, Point2)],
    classify: F,
) -> Vec<(&'static str, f64, f64, usize)>
where
    F: Fn(Point2) -> &'static str,
{
    let mut acc: Vec<(&'static str, f64, f64, usize)> = Vec::new();
    for &(vmax, real, pos) in samples {
        let phase = classify(pos);
        match acc.iter_mut().find(|(p, ..)| *p == phase) {
            Some(entry) => {
                entry.1 += vmax;
                entry.2 += real;
                entry.3 += 1;
            }
            None => acc.push((phase, vmax, real, 1)),
        }
    }
    for entry in &mut acc {
        entry.1 /= entry.3 as f64;
        entry.2 /= entry.3 as f64;
    }
    acc
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
        assert_eq!(g.resource_saving(), 0.0);
    }

    #[test]
    fn large_gap_drops_to_minimum() {
        let mut g = governor();
        for _ in 0..30 {
            g.observe(0.6, 0.1);
        }
        assert_eq!(g.recommend(), 1);
        assert!(g.resource_saving() > 0.9);
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
    fn gap_by_phase_averages() {
        let samples = vec![
            (0.6, 0.6, Point2::new(1.0, 0.0)),
            (0.6, 0.2, Point2::new(11.0, 0.0)),
            (0.6, 0.4, Point2::new(11.0, 0.0)),
        ];
        let phases = gap_by_phase(&samples, |p| if p.x < 10.0 { "open" } else { "dense" });
        assert_eq!(phases.len(), 2);
        let dense = phases.iter().find(|(p, ..)| *p == "dense").unwrap();
        assert!((dense.1 - 0.6).abs() < 1e-12);
        assert!((dense.2 - 0.3).abs() < 1e-12);
        assert_eq!(dense.3, 2);
    }
}
