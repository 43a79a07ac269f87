//! Component power models (paper Eq. 1 and Table I).
//!
//! * Motor: `P_m = P_l + m(a + gμ)v` (Eq. 1d, from Mei et al. \[34\]).
//! * Embedded computer: `E_ec = k · L · f²` (Eq. 1c) plus an idle
//!   floor; `k` is calibrated so full utilization hits the Table I
//!   maximum.
//! * Wireless: `E_trans = P_trans · D_trans / R_uplink` (Eq. 1b).
//! * Sensor and microcontroller draw constant power while the mission
//!   runs.

use crate::platform::Platform;

/// Standard gravity (m/s²).
pub const GRAVITY: f64 = 9.81;

/// Maximum power draw of each LGV component in watts (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDraw {
    /// Sensor subsystem (laser / camera).
    pub sensor: f64,
    /// Drive motors.
    pub motor: f64,
    /// Microcontroller board.
    pub microcontroller: f64,
    /// Embedded computer.
    pub embedded_computer: f64,
}

impl PowerDraw {
    /// Total maximum draw.
    pub fn total(&self) -> f64 {
        self.sensor + self.motor + self.microcontroller + self.embedded_computer
    }

    /// Percentage share of each component, in Table I order.
    pub fn shares(&self) -> [f64; 4] {
        let t = self.total();
        [
            self.sensor / t * 100.0,
            self.motor / t * 100.0,
            self.microcontroller / t * 100.0,
            self.embedded_computer / t * 100.0,
        ]
    }
}

/// A commodity LGV profile: Table I power numbers plus the mechanical
/// constants the motor model needs.
#[derive(Debug, Clone, PartialEq)]
pub struct LgvProfile {
    /// Vehicle name.
    pub name: &'static str,
    /// Table I maximum component power.
    pub max_power: PowerDraw,
    /// Battery capacity (Wh). Turtlebot3: 19.98 Wh.
    pub battery_wh: f64,
    /// Vehicle mass (kg).
    pub mass_kg: f64,
    /// Ground friction constant μ.
    pub friction_mu: f64,
    /// Motor transforming loss `P_l` (W) — drawn whenever motors are
    /// powered, even at rest.
    pub motor_loss_w: f64,
    /// Embedded computer idle power (W).
    pub ec_idle_w: f64,
    /// Wireless transmit power `P_trans` (W).
    pub trans_power_w: f64,
}

impl LgvProfile {
    /// Turtlebot3 (burger): the paper's evaluation vehicle.
    pub fn turtlebot3() -> Self {
        LgvProfile {
            name: "Turtlebot3",
            max_power: PowerDraw {
                sensor: 1.0,
                motor: 6.7,
                microcontroller: 1.0,
                embedded_computer: 6.5,
            },
            battery_wh: 19.98,
            mass_kg: 1.8,
            friction_mu: 0.35,
            motor_loss_w: 1.2,
            ec_idle_w: 1.9,
            trans_power_w: 1.3,
        }
    }

    /// Turtlebot2 (vision-based, Table I row 1).
    pub fn turtlebot2() -> Self {
        LgvProfile {
            name: "Turtlebot2",
            max_power: PowerDraw {
                sensor: 2.5,
                motor: 9.0,
                microcontroller: 4.6,
                embedded_computer: 15.0,
            },
            battery_wh: 39.6,
            mass_kg: 6.3,
            friction_mu: 0.35,
            motor_loss_w: 1.8,
            ec_idle_w: 4.0,
            trans_power_w: 1.3,
        }
    }

    /// Pioneer 3DX (Table I row 3).
    pub fn pioneer_3dx() -> Self {
        LgvProfile {
            name: "Pioneer 3DX",
            max_power: PowerDraw {
                sensor: 0.82,
                motor: 10.6,
                microcontroller: 4.6,
                embedded_computer: 15.0,
            },
            battery_wh: 86.4,
            mass_kg: 9.0,
            friction_mu: 0.35,
            motor_loss_w: 2.2,
            ec_idle_w: 4.0,
            trans_power_w: 1.3,
        }
    }

    /// Motor model for this vehicle.
    pub fn motor_model(&self) -> MotorModel {
        MotorModel {
            loss_w: self.motor_loss_w,
            mass_kg: self.mass_kg,
            friction_mu: self.friction_mu,
            max_w: self.max_power.motor,
        }
    }

    /// Compute-energy model for this vehicle's embedded computer
    /// running at the given platform's frequency.
    pub fn compute_model(&self, platform: &Platform) -> ComputeEnergyModel {
        ComputeEnergyModel::calibrated(platform, self.max_power.embedded_computer, self.ec_idle_w)
    }
}

/// Eq. 1d: `P_m = P_l + m(a + gμ)v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotorModel {
    /// Transforming loss `P_l` (W).
    pub loss_w: f64,
    /// Vehicle mass (kg).
    pub mass_kg: f64,
    /// Ground friction constant μ.
    pub friction_mu: f64,
    /// Saturation limit (Table I motor maximum).
    pub max_w: f64,
}

impl MotorModel {
    /// Instantaneous motor power at velocity `v` (m/s) and commanded
    /// acceleration `a` (m/s²).
    pub fn power(&self, v: f64, a: f64) -> f64 {
        let p = self.loss_w + self.mass_kg * (a.abs() + GRAVITY * self.friction_mu) * v.abs();
        p.clamp(0.0, self.max_w)
    }
}

/// Eq. 1c: `E = k · L · f²`, with `k` calibrated so that running the
/// platform flat-out draws the Table I maximum above idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeEnergyModel {
    /// Effective switched capacitance `k` (J / (cycle · Hz²)).
    pub k: f64,
    /// Clock frequency the vehicle runs at (Hz).
    pub freq_hz: f64,
    /// Idle floor power (W).
    pub idle_w: f64,
}

impl ComputeEnergyModel {
    /// Calibrate `k` from a platform and its maximum/idle power:
    /// at full utilization the platform retires `f·ipc·cores` cycles
    /// per second, and `P_dyn = k·(cycles/s)·f²` must equal
    /// `max_w − idle_w`.
    pub fn calibrated(platform: &Platform, max_w: f64, idle_w: f64) -> Self {
        let full_rate = platform.rate() * platform.cores as f64;
        let k = (max_w - idle_w).max(0.0) / (full_rate * platform.freq_hz * platform.freq_hz);
        ComputeEnergyModel {
            k,
            freq_hz: platform.freq_hz,
            idle_w,
        }
    }

    /// Dynamic energy (J) of executing `cycles` on the vehicle.
    pub fn dynamic_energy(&self, cycles: f64) -> f64 {
        self.k * cycles * self.freq_hz * self.freq_hz
    }

    /// Idle energy (J) over a span of `secs`.
    pub fn idle_energy(&self, secs: f64) -> f64 {
        self.idle_w * secs
    }
}

/// Eq. 1b: transmission energy `P_trans · D / R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmitModel {
    /// Transmit power of the wireless controller (W).
    pub power_w: f64,
}

impl TransmitModel {
    /// Energy (J) to push `bytes` up a link running at `uplink_bps`
    /// bits per second.
    pub fn energy(&self, bytes: usize, uplink_bps: f64) -> f64 {
        if uplink_bps <= 0.0 {
            return 0.0;
        }
        self.power_w * (bytes as f64 * 8.0) / uplink_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_turtlebot3_shares() {
        // Table I: Turtlebot3 = sensor 6.5 %, motor 44 %, MCU 6.5 %,
        // EC 43 % (rounded).
        let p = LgvProfile::turtlebot3().max_power;
        let s = p.shares();
        assert!((s[0] - 6.5).abs() < 1.0, "sensor {}", s[0]);
        assert!((s[1] - 44.0).abs() < 1.5, "motor {}", s[1]);
        assert!((s[3] - 43.0).abs() < 1.5, "ec {}", s[3]);
        assert!((p.total() - 15.2).abs() < 0.01);
    }

    #[test]
    fn table1_other_vehicles() {
        let t2 = LgvProfile::turtlebot2().max_power;
        assert_eq!(t2.motor, 9.0);
        assert_eq!(t2.embedded_computer, 15.0);
        let p3 = LgvProfile::pioneer_3dx().max_power;
        assert_eq!(p3.sensor, 0.82);
        assert_eq!(p3.motor, 10.6);
    }

    #[test]
    fn motor_power_increases_with_velocity() {
        let m = LgvProfile::turtlebot3().motor_model();
        let p0 = m.power(0.0, 0.0);
        let p1 = m.power(0.11, 0.0);
        let p2 = m.power(0.22, 0.0);
        assert_eq!(p0, m.loss_w);
        assert!(p1 > p0 && p2 > p1);
        // Linear in v at constant a.
        assert!(((p2 - p0) - 2.0 * (p1 - p0)).abs() < 1e-9);
    }

    #[test]
    fn motor_power_increases_with_acceleration() {
        let m = LgvProfile::turtlebot3().motor_model();
        assert!(m.power(0.2, 2.0) > m.power(0.2, 0.0));
    }

    #[test]
    fn motor_power_saturates_at_table1_max() {
        let m = MotorModel {
            loss_w: 1.0,
            mass_kg: 50.0,
            friction_mu: 1.0,
            max_w: 6.7,
        };
        assert_eq!(m.power(5.0, 10.0), 6.7);
    }

    #[test]
    fn compute_model_full_load_hits_max_power() {
        let platform = crate::platform::Platform::turtlebot3();
        let profile = LgvProfile::turtlebot3();
        let m = profile.compute_model(&platform);
        // One second of full-rate cycles on all cores:
        let cycles = platform.rate() * platform.cores as f64;
        let p = m.dynamic_energy(cycles) + m.idle_energy(1.0);
        assert!(
            (p - profile.max_power.embedded_computer).abs() < 1e-6,
            "p = {p}"
        );
    }

    #[test]
    fn compute_energy_scales_with_f_squared() {
        let mut platform = crate::platform::Platform::turtlebot3();
        let m1 = ComputeEnergyModel::calibrated(&platform, 6.5, 1.9);
        platform.freq_hz *= 2.0;
        // Same k, doubled frequency → 4× the per-cycle energy.
        let m2 = ComputeEnergyModel {
            k: m1.k,
            freq_hz: platform.freq_hz,
            idle_w: m1.idle_w,
        };
        assert!((m2.dynamic_energy(1e9) / m1.dynamic_energy(1e9) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn transmit_energy_eq_1b() {
        let t = TransmitModel { power_w: 1.3 };
        // 2.94 KB scan at 10 Mbit/s.
        let e = t.energy(2940, 10e6);
        assert!((e - 1.3 * 2940.0 * 8.0 / 10e6).abs() < 1e-12);
        assert_eq!(t.energy(1000, 0.0), 0.0);
    }
}
