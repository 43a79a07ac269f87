//! Cycle-level work accounting.
//!
//! The paper's analytical model (Eq. 1c) prices a node's energy and
//! processing time by the CPU cycles it demands (`L_{n,t}`). Instead of
//! curve-fitting, every algorithm in this workspace *counts* its own
//! operations (beams traced, particles matched, trajectories scored …)
//! through a [`WorkMeter`] and converts them to cycles with explicit
//! per-operation constants. A [`Work`] record additionally splits the
//! cycles into a serial and a parallelizable part so the platform model
//! can apply Amdahl-style scaling (paper §V, Figures 9–10).

use std::ops::{Add, AddAssign};

/// The cycle demand of one node activation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Cycles that must execute sequentially (pipeline setup,
    /// resampling, reductions…).
    pub serial_cycles: f64,
    /// Cycles divisible across worker threads.
    pub parallel_cycles: f64,
    /// Number of independent items the parallel part splits into
    /// (particles, trajectories). Bounds usable parallelism: `N`
    /// threads can never help beyond `parallel_items` ways.
    pub parallel_items: u32,
}

impl Work {
    /// No work.
    pub const ZERO: Work = Work {
        serial_cycles: 0.0,
        parallel_cycles: 0.0,
        parallel_items: 0,
    };

    /// Entirely sequential work.
    pub fn serial(cycles: f64) -> Self {
        Work {
            serial_cycles: cycles,
            parallel_cycles: 0.0,
            parallel_items: 0,
        }
    }

    /// Work with a parallel section of `items` independent pieces.
    pub fn with_parallel(serial_cycles: f64, parallel_cycles: f64, items: u32) -> Self {
        Work {
            serial_cycles,
            parallel_cycles,
            parallel_items: items,
        }
    }

    /// Total cycle count.
    pub fn total_cycles(&self) -> f64 {
        self.serial_cycles + self.parallel_cycles
    }

    /// Fraction of the work that can be parallelized (0 when empty).
    pub fn parallel_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t <= 0.0 {
            0.0
        } else {
            self.parallel_cycles / t
        }
    }

    /// Average parallel cycles per item (0 when there is no parallel part).
    pub fn cycles_per_item(&self) -> f64 {
        if self.parallel_items == 0 {
            0.0
        } else {
            self.parallel_cycles / self.parallel_items as f64
        }
    }
}

impl Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work {
            serial_cycles: self.serial_cycles + rhs.serial_cycles,
            parallel_cycles: self.parallel_cycles + rhs.parallel_cycles,
            parallel_items: self.parallel_items.max(rhs.parallel_items),
        }
    }
}

impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

/// Incremental accumulator used inside algorithms to tally operations
/// as they happen, then convert to a [`Work`] record.
#[derive(Debug, Clone, Default)]
pub struct WorkMeter {
    serial: f64,
    parallel: f64,
    items: u32,
}

impl WorkMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        WorkMeter::default()
    }

    /// Record `count` sequential operations costing `cycles_per_op` each.
    pub fn serial_ops(&mut self, count: u64, cycles_per_op: f64) {
        self.serial += count as f64 * cycles_per_op;
    }

    /// Record `count` parallelizable operations costing `cycles_per_op`
    /// each, spread over `items` independent work pieces.
    pub fn parallel_ops(&mut self, count: u64, cycles_per_op: f64, items: u32) {
        self.parallel += count as f64 * cycles_per_op;
        self.items = self.items.max(items);
    }

    /// Snapshot the accumulated work.
    pub fn finish(&self) -> Work {
        Work {
            serial_cycles: self.serial,
            parallel_cycles: self.parallel,
            parallel_items: self.items,
        }
    }

    /// Reset to zero (meters are reused across ticks to avoid churn).
    pub fn reset(&mut self) {
        *self = WorkMeter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_properties() {
        assert_eq!(Work::ZERO.total_cycles(), 0.0);
        assert_eq!(Work::ZERO.parallel_fraction(), 0.0);
        assert_eq!(Work::ZERO.cycles_per_item(), 0.0);
    }

    #[test]
    fn parallel_fraction_math() {
        let w = Work::with_parallel(25.0, 75.0, 10);
        assert_eq!(w.total_cycles(), 100.0);
        assert_eq!(w.parallel_fraction(), 0.75);
        assert_eq!(w.cycles_per_item(), 7.5);
    }

    #[test]
    fn addition_merges_parts() {
        let a = Work::with_parallel(10.0, 20.0, 4);
        let b = Work::serial(5.0);
        let c = a + b;
        assert_eq!(c.serial_cycles, 15.0);
        assert_eq!(c.parallel_cycles, 20.0);
        assert_eq!(c.parallel_items, 4);
    }

    #[test]
    fn meter_accumulates_and_resets() {
        let mut m = WorkMeter::new();
        m.serial_ops(100, 2.0);
        m.parallel_ops(360, 5.0, 30);
        m.parallel_ops(40, 1.0, 8);
        let w = m.finish();
        assert_eq!(w.serial_cycles, 200.0);
        assert_eq!(w.parallel_cycles, 1840.0);
        assert_eq!(w.parallel_items, 30);
        m.reset();
        assert_eq!(m.finish(), Work::ZERO);
    }
}
