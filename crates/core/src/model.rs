//! The analytical model (paper §III).
//!
//! Energy (Eq. 1a–1d) is implemented by `lgv_sim::power` and
//! integrated by `lgv_sim::energy`; this module owns the *time* side:
//! Eq. 2a–2c, in particular the obstacle-avoidance maximum velocity
//!
//! ```text
//! v_max = a_max · ( sqrt(t_p² + 2d/a_max) − t_p )        (Eq. 2c)
//! ```
//!
//! where `t_p` is the VDP processing time (local + cloud + network,
//! Eq. 2b), `a_max` the acceleration limit and `d` the required
//! stopping distance. The faster the pipeline reacts, the faster the
//! vehicle may safely drive — the quantitative heart of the paper.

use lgv_types::prelude::*;

/// The developer-selected optimization goal of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Reduce total energy consumption (EC).
    Energy,
    /// Shorten mission completion time (MCT).
    MissionTime,
}

/// Eq. 2c: the maximum safe velocity for a pipeline reaction time of
/// `tp` seconds, acceleration limit `a_max` (m/s²), and stopping
/// distance `d` (m).
pub fn max_velocity_oa(tp_secs: f64, a_max: f64, d: f64) -> f64 {
    if a_max <= 0.0 || d <= 0.0 {
        return 0.0;
    }
    let tp = tp_secs.max(0.0);
    a_max * ((tp * tp + 2.0 * d / a_max).sqrt() - tp)
}

/// Velocity model: Eq. 2c plus the vehicle's hard velocity cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityModel {
    /// Maximum acceleration `a_max` (m/s²).
    pub a_max: f64,
    /// Required stopping distance `d` (m).
    pub stop_distance: f64,
    /// Hardware velocity cap (m/s).
    pub hw_cap: f64,
}

impl Default for VelocityModel {
    fn default() -> Self {
        // Tuned so a local-compute VDP time of ≈ 0.6 s yields the
        // paper's ≈ 0.18 m/s baseline and a well-offloaded ≈ 40 ms
        // pipeline reaches ≈ 0.7 m/s (the 4–5× of Fig. 12).
        VelocityModel {
            a_max: 3.0,
            stop_distance: 0.12,
            hw_cap: 1.0,
        }
    }
}

impl VelocityModel {
    /// `velocityOA(T_c)` of Algorithm 1: the capped Eq. 2c velocity.
    ///
    /// ```
    /// use lgv_offload::model::VelocityModel;
    /// use lgv_types::Duration;
    ///
    /// let m = VelocityModel::default();
    /// let slow_pipeline = m.vmax(Duration::from_millis(600)); // local compute
    /// let fast_pipeline = m.vmax(Duration::from_millis(40));  // offloaded
    /// assert!(fast_pipeline > 3.0 * slow_pipeline);
    /// ```
    pub fn vmax(&self, vdp_makespan: Duration) -> f64 {
        max_velocity_oa(vdp_makespan.as_secs_f64(), self.a_max, self.stop_distance).min(self.hw_cap)
    }
}

/// Decomposition of mission completion time (Eq. 2a): `T = T_s + T_m`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Standby time: the vehicle waits on computation.
    pub standby: Duration,
    /// Moving time.
    pub moving: Duration,
}

impl TimeBreakdown {
    /// Total mission time.
    pub fn total(&self) -> Duration {
        self.standby + self.moving
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_processing_time_gives_kinematic_limit() {
        // tp = 0: v = sqrt(2·a·d).
        let v = max_velocity_oa(0.0, 3.0, 0.08);
        assert!((v - (2.0f64 * 3.0 * 0.08).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn velocity_decreases_with_processing_time() {
        let mut prev = f64::INFINITY;
        for tp in [0.0, 0.05, 0.1, 0.3, 0.6, 1.2] {
            let v = max_velocity_oa(tp, 3.0, 0.08);
            assert!(v < prev, "vmax must strictly decrease");
            assert!(v > 0.0);
            prev = v;
        }
    }

    #[test]
    fn velocity_increases_with_stopping_distance() {
        assert!(max_velocity_oa(0.2, 3.0, 0.2) > max_velocity_oa(0.2, 3.0, 0.05));
    }

    #[test]
    fn degenerate_parameters_give_zero() {
        assert_eq!(max_velocity_oa(0.1, 0.0, 0.1), 0.0);
        assert_eq!(max_velocity_oa(0.1, 3.0, 0.0), 0.0);
        // Negative tp treated as zero.
        let v = max_velocity_oa(-5.0, 3.0, 0.08);
        assert_eq!(v, max_velocity_oa(0.0, 3.0, 0.08));
    }

    #[test]
    fn paper_fig12_velocity_band() {
        // Local VDP ≈ 0.6 s → ≈ 0.13 m/s; offloaded ≈ 40 ms → ≈ 0.6 m/s:
        // the 4–5× increase of Fig. 12.
        let m = VelocityModel::default();
        let local = m.vmax(Duration::from_millis(600));
        let offloaded = m.vmax(Duration::from_millis(40));
        assert!((0.08..0.2).contains(&local), "local vmax {local}");
        assert!(
            (0.5..0.8).contains(&offloaded),
            "offloaded vmax {offloaded}"
        );
        let ratio = offloaded / local;
        assert!((3.5..6.0).contains(&ratio), "velocity ratio {ratio}");
    }

    #[test]
    fn hw_cap_binds() {
        let m = VelocityModel {
            a_max: 100.0,
            stop_distance: 5.0,
            hw_cap: 1.0,
        };
        assert_eq!(m.vmax(Duration::ZERO), 1.0);
    }

    #[test]
    fn time_breakdown_sums() {
        let t = TimeBreakdown {
            standby: Duration::from_secs(3),
            moving: Duration::from_secs(42),
        };
        assert_eq!(t.total(), Duration::from_secs(45));
    }
}
