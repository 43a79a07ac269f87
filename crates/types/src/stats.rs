//! Summary statistics for the benches and reports: means, spreads and
//! ranges in one pass, without ad-hoc numerics in each scenario.

/// Running summary of a scalar stream (Welford's online algorithm —
/// numerically stable, single pass, O(1) memory).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Fresh, empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Ingest one sample (non-finite samples are ignored).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Samples ingested.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 with < 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn single_sample_has_no_spread() {
        let mut s = Summary::new();
        s.push(-3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), -3.5);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), -3.5);
        assert_eq!(s.max(), -3.5);
    }
}
