//! Battery model.
//!
//! A simple coulomb counter over the Table I battery capacity: the
//! paper's motivation (§I) is that the Turtlebot3's 19.98 Wh pack
//! leaves the embedded computer only ≈ 3.35 Wh per hour, so mission
//! feasibility is an energy question.

/// A coulomb-counting battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    consumed_j: f64,
}

impl Battery {
    /// New full battery with the given capacity in watt-hours.
    pub fn new_wh(capacity_wh: f64) -> Self {
        assert!(capacity_wh > 0.0, "battery capacity must be positive");
        Battery {
            capacity_j: capacity_wh * 3600.0,
            consumed_j: 0.0,
        }
    }

    /// Drain energy (J); draining past empty clamps at empty.
    pub fn drain(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        self.consumed_j = (self.consumed_j + joules.max(0.0)).min(self.capacity_j);
    }

    /// Remaining energy (J).
    pub fn remaining_j(&self) -> f64 {
        self.capacity_j - self.consumed_j
    }

    /// State of charge in [0, 1].
    pub fn soc(&self) -> f64 {
        self.remaining_j() / self.capacity_j
    }

    /// True when fully drained.
    pub fn depleted(&self) -> bool {
        self.remaining_j() <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_battery_is_full() {
        let b = Battery::new_wh(19.98);
        assert!((b.remaining_j() - 19.98 * 3600.0).abs() < 1e-6);
        assert_eq!(b.soc(), 1.0);
        assert!(!b.depleted());
    }

    #[test]
    fn drain_and_deplete() {
        let mut b = Battery::new_wh(1.0); // 3600 J
        b.drain(1800.0);
        assert!((b.soc() - 0.5).abs() < 1e-12);
        b.drain(999999.0);
        assert!(b.depleted());
        assert_eq!(b.remaining_j(), 0.0);
    }

    #[test]
    #[should_panic(expected = "battery capacity must be positive")]
    fn non_positive_capacity_panics() {
        let _ = Battery::new_wh(0.0);
    }

    #[test]
    fn drains_accumulate_and_clamp_at_empty() {
        let mut b = Battery::new_wh(1.0);
        for _ in 0..4 {
            b.drain(450.0);
        }
        assert_eq!(b.remaining_j(), 1800.0);
        b.drain(0.0);
        assert_eq!(b.soc(), 0.5);
        b.drain(1800.0);
        assert!(b.depleted());
        assert_eq!(b.soc(), 0.0);
        b.drain(1.0);
        assert_eq!(b.remaining_j(), 0.0);
    }
}
