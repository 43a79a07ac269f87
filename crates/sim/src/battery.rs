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

    /// Remaining energy (Wh).
    pub fn remaining_wh(&self) -> f64 {
        self.remaining_j() / 3600.0
    }

    /// State of charge in [0, 1].
    pub fn soc(&self) -> f64 {
        self.remaining_j() / self.capacity_j
    }

    /// True when fully drained.
    pub fn depleted(&self) -> bool {
        self.remaining_j() <= 0.0
    }

    /// How long the battery lasts at a constant draw (seconds).
    pub fn runtime_at(&self, watts: f64) -> f64 {
        if watts <= 0.0 {
            f64::INFINITY
        } else {
            self.remaining_j() / watts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_battery_is_full() {
        let b = Battery::new_wh(19.98);
        assert!((b.remaining_wh() - 19.98).abs() < 1e-9);
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
    fn runtime_estimate() {
        let b = Battery::new_wh(19.98);
        // Paper §I: the EC budget is ≈ 3.35 Wh for one hour; at a
        // 3.35 W draw the full pack would last ≈ 6 h.
        let hours = b.runtime_at(3.35) / 3600.0;
        assert!((hours - 19.98 / 3.35).abs() < 1e-9);
        assert_eq!(b.runtime_at(0.0), f64::INFINITY);
    }
}
