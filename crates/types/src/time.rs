//! Virtual time.
//!
//! All experiments run on a simulated clock so results are independent
//! of the host machine. [`SimTime`] is an absolute instant, [`Duration`]
//! a signed-free span, both with nanosecond resolution stored in `u64`
//! (≈ 584 years of range — plenty for a vacuum-cleaner mission).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, nanosecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// From fractional seconds; negative or non-finite values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e9).round() as u64)
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("Duration underflow"))
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An absolute instant on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// Instant at `ns` nanoseconds past the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Instant at fractional seconds past the epoch.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(Duration::from_secs_f64(s).as_nanos())
    }

    /// Nanoseconds since epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since epoch (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since an earlier instant (panics if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is later"),
        )
    }

    /// Span since an earlier instant, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

/// A fixed repetition rate (Hz) with its period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    hz: f64,
}

impl Rate {
    /// Construct from a frequency in Hz (must be positive and finite).
    pub fn hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "rate must be positive");
        Rate { hz }
    }

    /// Frequency in Hz.
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// Period between two ticks.
    pub fn period(self) -> Duration {
        Duration::from_secs_f64(1.0 / self.hz)
    }

    /// Number of whole ticks that fit in a span.
    pub fn ticks_in(self, span: Duration) -> u64 {
        (span.as_secs_f64() * self.hz).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3000));
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1500));
    }

    #[test]
    fn duration_from_negative_or_nan_is_zero() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(300);
        let b = Duration::from_millis(200);
        assert_eq!(a + b, Duration::from_millis(500));
        assert_eq!(a - b, Duration::from_millis(100));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a * 2.0, Duration::from_millis(600));
        assert_eq!(a / 3.0, Duration::from_millis(100));
    }

    #[test]
    fn simtime_ordering_and_span() {
        let t0 = SimTime::EPOCH;
        let t1 = t0 + Duration::from_secs(5);
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), Duration::from_secs(5));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
        assert_eq!(t1 - t0, Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn simtime_since_panics_on_reversal() {
        let t0 = SimTime::EPOCH + Duration::from_secs(1);
        let _ = SimTime::EPOCH.since(t0);
    }

    #[test]
    fn rate_period_and_ticks() {
        let r = Rate::hz(5.0);
        assert_eq!(r.period(), Duration::from_millis(200));
        assert_eq!(r.ticks_in(Duration::from_secs(2)), 10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", Duration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
    }
}
