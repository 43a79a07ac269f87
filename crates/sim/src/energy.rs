//! Mission energy accounting (Eq. 1a).
//!
//! An [`EnergyLedger`] integrates per-component energy over virtual
//! time and produces the [`EnergyReport`] breakdown that Fig. 13 plots
//! (motor / sensor / microcontroller / embedded computer / wireless).

use lgv_trace::{TraceEvent, Tracer};
use lgv_types::prelude::*;
use std::fmt;

/// The energy-consuming components of an LGV (Fig. 13's bar stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Laser / camera subsystem.
    Sensor,
    /// Drive motors.
    Motor,
    /// Microcontroller board.
    Microcontroller,
    /// Embedded computer.
    EmbeddedComputer,
    /// Wireless controller (transmission energy, Eq. 1b).
    Wireless,
}

impl Component {
    /// All components in report order.
    pub const ALL: [Component; 5] = [
        Component::Sensor,
        Component::Motor,
        Component::Microcontroller,
        Component::EmbeddedComputer,
        Component::Wireless,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Component::Sensor => "sensor",
            Component::Motor => "motor",
            Component::Microcontroller => "microcontroller",
            Component::EmbeddedComputer => "embedded_computer",
            Component::Wireless => "wireless",
        }
    }
}

/// Accumulates joules per component over a mission.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    joules: [f64; 5],
    traced: [f64; 5],
    tracer: Tracer,
}

impl EnergyLedger {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Route energy deltas to `tracer`. Deltas are only emitted by
    /// [`EnergyLedger::trace_flush`], so the caller controls the event
    /// rate (the mission engine flushes once per control cycle rather
    /// than per integration substep).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emit one [`TraceEvent::EnergyDelta`] per component that gained
    /// energy since the previous flush.
    pub fn trace_flush(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        for c in Component::ALL {
            let i = Self::slot(c);
            let delta = self.joules[i] - self.traced[i];
            if delta > 0.0 {
                self.tracer.emit(TraceEvent::EnergyDelta {
                    component: c.name().to_string(),
                    joules: delta,
                });
                self.traced[i] = self.joules[i];
            }
        }
    }

    fn slot(c: Component) -> usize {
        Component::ALL.iter().position(|&x| x == c).unwrap()
    }

    /// Add energy (J) to one component. Negative or non-finite values
    /// are rejected with a panic in debug, clamped to zero in release.
    pub fn add(&mut self, c: Component, joules: f64) {
        debug_assert!(joules.is_finite() && joules >= 0.0, "bad energy {joules}");
        self.joules[Self::slot(c)] += joules.max(0.0);
    }

    /// Integrate constant `watts` over `span` into a component.
    pub fn add_power(&mut self, c: Component, watts: f64, span: Duration) {
        self.add(c, watts * span.as_secs_f64());
    }

    /// Joules accumulated by a component so far.
    pub fn joules(&self, c: Component) -> f64 {
        self.joules[Self::slot(c)]
    }

    /// Total joules across all components.
    pub fn total_joules(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Snapshot the ledger as a report for a mission of length `time`.
    pub fn report(&self, time: Duration) -> EnergyReport {
        EnergyReport {
            joules: self.joules,
            mission_time: time,
        }
    }
}

/// Per-component energy breakdown plus mission completion time —
/// exactly the quantities Fig. 13 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    joules: [f64; 5],
    /// Mission completion time.
    pub mission_time: Duration,
}

impl EnergyReport {
    /// Joules consumed by one component.
    pub fn joules(&self, c: Component) -> f64 {
        self.joules[Component::ALL.iter().position(|&x| x == c).unwrap()]
    }

    /// Total energy in joules (Eq. 1a's `E_total`).
    pub fn total_joules(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Total energy in watt-hours.
    pub fn total_wh(&self) -> f64 {
        self.total_joules() / 3600.0
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mission time: {:.1}s", self.mission_time.as_secs_f64())?;
        for c in Component::ALL {
            writeln!(f, "  {:<18} {:>9.1} J", c.name(), self.joules(c))?;
        }
        write!(
            f,
            "  {:<18} {:>9.1} J ({:.3} Wh)",
            "TOTAL",
            self.total_joules(),
            self.total_wh()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_component() {
        let mut l = EnergyLedger::new();
        l.add(Component::Motor, 10.0);
        l.add(Component::Motor, 5.0);
        l.add(Component::Sensor, 2.0);
        assert_eq!(l.joules(Component::Motor), 15.0);
        assert_eq!(l.joules(Component::Sensor), 2.0);
        assert_eq!(l.joules(Component::Wireless), 0.0);
        assert_eq!(l.total_joules(), 17.0);
    }

    #[test]
    fn add_power_integrates() {
        let mut l = EnergyLedger::new();
        l.add_power(Component::EmbeddedComputer, 6.5, Duration::from_secs(10));
        assert!((l.joules(Component::EmbeddedComputer) - 65.0).abs() < 1e-9);
    }

    #[test]
    fn report_totals_and_units() {
        let mut l = EnergyLedger::new();
        l.add(Component::Motor, 1800.0);
        let r = l.report(Duration::from_secs(60));
        assert_eq!(r.total_joules(), 1800.0);
        assert!((r.total_wh() - 0.5).abs() < 1e-12);
        assert_eq!(r.mission_time, Duration::from_secs(60));
    }

    #[test]
    fn display_contains_components() {
        let l = EnergyLedger::new();
        let s = l.report(Duration::from_secs(1)).to_string();
        assert!(s.contains("motor"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn trace_flush_emits_only_new_energy() {
        let tracer = lgv_trace::Tracer::enabled();
        let ring = tracer.attach(lgv_trace::RingBufferSink::new(16));
        let mut l = EnergyLedger::new();
        l.set_tracer(tracer);
        l.add(Component::Motor, 3.0);
        l.add(Component::Sensor, 1.0);
        l.trace_flush();
        // Nothing new: a second flush is silent.
        l.trace_flush();
        l.add(Component::Motor, 2.0);
        l.trace_flush();
        let deltas: Vec<(String, f64)> = ring
            .lock()
            .unwrap()
            .records()
            .map(|r| match &r.event {
                TraceEvent::EnergyDelta { component, joules } => (component.clone(), *joules),
                e => panic!("unexpected event {e:?}"),
            })
            .collect();
        assert_eq!(
            deltas,
            vec![
                ("sensor".to_string(), 1.0),
                ("motor".to_string(), 3.0),
                ("motor".to_string(), 2.0),
            ]
        );
    }

    #[test]
    fn a_report_is_a_snapshot_of_every_component() {
        let mut l = EnergyLedger::new();
        for (i, c) in Component::ALL.into_iter().enumerate() {
            l.add(c, (i + 1) as f64);
        }
        let r = l.report(Duration::from_secs(2));
        l.add(Component::Wireless, 100.0);
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(r.joules(c), (i + 1) as f64, "{}", c.name());
        }
        assert_eq!(r.total_joules(), 15.0);
        assert_eq!(l.total_joules(), 115.0);
    }
}
