//! Host-time samples of timed calls and their summaries.

use lgv_types::Work;
use std::time::Instant;

/// Host wall-clock samples of one timed call, with the modelled cost
/// (`Work`) the calls returned, where they return one.
#[derive(Debug, Default, Clone)]
pub struct Timing {
    us: Vec<f64>,
    gcycles: f64,
}

impl Timing {
    /// Time one call of `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(t0.elapsed().as_secs_f64() * 1e6);
        r
    }

    /// Record one sample measured elsewhere, in microseconds.
    pub fn record(&mut self, us: f64) {
        self.us.push(us);
    }

    /// Add the modelled cost of the last timed call.
    pub fn charge(&mut self, work: &Work) {
        self.charge_gcycles(work.total_cycles() / 1e9);
    }

    /// Add modelled Gcycles directly.
    pub fn charge_gcycles(&mut self, gcycles: f64) {
        self.gcycles += gcycles;
    }

    /// Number of timed calls.
    pub fn calls(&self) -> usize {
        self.us.len()
    }

    /// Nearest-rank percentile `p` (0–100) in microseconds; 0 with no
    /// samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.us, p)
    }

    /// Modelled Gcycles per call; 0 with no calls.
    pub fn gcycles_per_call(&self) -> f64 {
        if self.us.is_empty() {
            0.0
        } else {
            self.gcycles / self.us.len() as f64
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (mean of the middle two for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
