//! 360° laser distance sensor (LDS-01 model).
//!
//! Samples the ground-truth world by ray casting one beam per degree,
//! adds range noise, and occasionally drops a return (dust, specular
//! surfaces). Runs at a fixed scan rate; the returned [`LaserScan`]
//! matches the wire format the paper measures (≈ 2.94 KB per scan).

use crate::world::World;
use lgv_types::prelude::*;
use std::f64::consts::PI;
use std::sync::Arc;

/// Scan rate (Hz). LDS-01: 5.
pub const SCAN_RATE: f64 = 5.0;

/// Sensor configuration.
#[derive(Debug, Clone)]
pub struct LidarConfig {
    /// Number of beams per revolution. LDS-01: 360.
    pub beams: usize,
    /// Maximum range (m). LDS-01: 3.5.
    pub range_max: f64,
    /// Gaussian range noise std-dev (m).
    pub range_noise: f64,
    /// Probability an individual beam returns nothing.
    pub dropout: f64,
}

impl Default for LidarConfig {
    fn default() -> Self {
        LidarConfig {
            beams: 360,
            range_max: 3.5,
            range_noise: 0.01,
            dropout: 0.002,
        }
    }
}

/// The simulated scanner.
#[derive(Debug, Clone)]
pub struct Lidar {
    cfg: LidarConfig,
    rng: SimRng,
    /// Per-beam `(cos, sin)` of the sensor-frame beam angle `i * inc`.
    /// Rotating this fixed table by the pose heading replaces the two
    /// trig calls per beam per scan — with 360 beams at 5 Hz, the trig
    /// dominated the scan kernel. It depends only on the beam count, so
    /// scanners built from one [`Lidar::beam_table`] share it.
    beam_dirs: Arc<[(f64, f64)]>,
}

impl Lidar {
    /// Build a scanner with its own beam table.
    pub fn new(cfg: LidarConfig, rng: SimRng) -> Self {
        let beam_dirs = Self::beam_table(&cfg);
        Self::with_beam_table(cfg, beam_dirs, rng)
    }

    /// The per-beam directions of a scanner configured by `cfg`.
    pub fn beam_table(cfg: &LidarConfig) -> Arc<[(f64, f64)]> {
        assert!(cfg.beams > 0, "lidar needs at least one beam");
        let inc = 2.0 * PI / cfg.beams as f64;
        (0..cfg.beams)
            .map(|i| (i as f64 * inc).sin_cos())
            .map(|(s, c)| (c, s))
            .collect()
    }

    /// Build a scanner on a table from [`Lidar::beam_table`] of the
    /// same configuration.
    pub fn with_beam_table(cfg: LidarConfig, beam_dirs: Arc<[(f64, f64)]>, rng: SimRng) -> Self {
        assert_eq!(
            beam_dirs.len(),
            cfg.beams,
            "beam table of another beam count"
        );
        Lidar {
            cfg,
            rng,
            beam_dirs,
        }
    }

    /// Sensor configuration.
    pub fn config(&self) -> &LidarConfig {
        &self.cfg
    }

    /// Scan period.
    pub fn period(&self) -> Duration {
        Rate::hz(SCAN_RATE).period()
    }

    /// Produce one full sweep from the given sensor pose.
    pub fn scan(&mut self, world: &World, pose: Pose2D, stamp: SimTime) -> LaserScan {
        // One scope for the whole sweep: per-beam scopes would cost
        // two clock reads per DDA walk and drown the kernel.
        let _prof = lgv_trace::prof::scope("sim/raycast");
        let inc = 2.0 * PI / self.cfg.beams as f64;
        let origin = pose.position();
        // One sin/cos for the whole sweep: each precomputed beam
        // direction is rotated by the heading via the angle-addition
        // identity instead of evaluating cos/sin per beam.
        let (sin_th, cos_th) = pose.theta.sin_cos();
        let mut ranges = Vec::with_capacity(self.cfg.beams);
        for &(cos_b, sin_b) in self.beam_dirs.iter() {
            let dir_x = cos_b * cos_th - sin_b * sin_th;
            let dir_y = sin_b * cos_th + cos_b * sin_th;
            let true_range = world.raycast_dir(origin, dir_x, dir_y, self.cfg.range_max);
            let r = if true_range >= self.cfg.range_max || self.rng.chance(self.cfg.dropout) {
                self.cfg.range_max
            } else {
                (true_range + self.rng.gaussian(0.0, self.cfg.range_noise))
                    .clamp(0.0, self.cfg.range_max)
            };
            ranges.push(r);
        }
        LaserScan {
            stamp,
            angle_min: 0.0,
            angle_increment: inc,
            range_max: self.cfg.range_max,
            ranges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;

    fn room() -> World {
        WorldBuilder::new(10.0, 10.0, 0.05).walls().build()
    }

    fn quiet_lidar() -> Lidar {
        let cfg = LidarConfig {
            range_noise: 0.0,
            dropout: 0.0,
            ..LidarConfig::default()
        };
        Lidar::new(cfg, SimRng::seed_from_u64(2))
    }

    #[test]
    fn scan_has_expected_shape() {
        let mut l = quiet_lidar();
        let s = l.scan(&room(), Pose2D::new(5.0, 5.0, 0.0), SimTime::EPOCH);
        assert_eq!(s.len(), 360);
        assert!((s.angle_increment - 2.0 * PI / 360.0).abs() < 1e-12);
    }

    #[test]
    fn centre_of_room_sees_max_range_everywhere() {
        // Room is 10 m wide, max range 3.5: every beam runs out.
        let mut l = quiet_lidar();
        let s = l.scan(&room(), Pose2D::new(5.0, 5.0, 0.0), SimTime::EPOCH);
        assert!(s.ranges.iter().all(|&r| r == 3.5));
        assert!(!s.is_hit(0));
    }

    #[test]
    fn near_wall_sees_wall_in_heading_direction() {
        let mut l = quiet_lidar();
        // 1 m from the +x wall (wall occupies x ≥ 9.95), facing it.
        let s = l.scan(&room(), Pose2D::new(9.0, 5.0, 0.0), SimTime::EPOCH);
        assert!(s.is_hit(0));
        assert!((s.ranges[0] - 0.97).abs() < 0.1, "range {}", s.ranges[0]);
        // Beam 180 looks away: out of range.
        assert!(!s.is_hit(180));
    }

    #[test]
    fn beams_rotate_with_pose() {
        let mut l = quiet_lidar();
        // Facing -x: beam 0 now sees the near wall at x = 0.
        let s = l.scan(&room(), Pose2D::new(1.0, 5.0, PI), SimTime::EPOCH);
        assert!(s.is_hit(0));
        assert!((s.ranges[0] - 0.97).abs() < 0.1);
    }

    #[test]
    fn noise_perturbs_ranges_but_stays_in_bounds() {
        let cfg = LidarConfig {
            range_noise: 0.05,
            dropout: 0.0,
            ..LidarConfig::default()
        };
        let mut l = Lidar::new(cfg, SimRng::seed_from_u64(3));
        let s = l.scan(&room(), Pose2D::new(9.0, 5.0, 0.0), SimTime::EPOCH);
        assert!(s.ranges.iter().all(|&r| (0.0..=3.5).contains(&r)));
        // The hit beams shouldn't all be identical under noise.
        let hits: Vec<f64> = (0..360)
            .filter(|&i| s.is_hit(i))
            .map(|i| s.ranges[i])
            .collect();
        assert!(hits.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn dropout_produces_max_range_returns() {
        let cfg = LidarConfig {
            range_noise: 0.0,
            dropout: 0.5,
            ..LidarConfig::default()
        };
        let mut l = Lidar::new(cfg, SimRng::seed_from_u64(4));
        let s = l.scan(&room(), Pose2D::new(9.0, 5.0, 0.0), SimTime::EPOCH);
        // Facing the wall, roughly half of the would-be hits drop out.
        let misses = (0..60).filter(|&i| !s.is_hit(i)).count();
        assert!(misses > 10, "misses {misses}");
    }

    #[test]
    fn period_matches_rate() {
        let l = quiet_lidar();
        assert_eq!(l.period(), Duration::from_millis(200));
    }

    #[test]
    fn deterministic_for_seed() {
        let mk = || {
            let cfg = LidarConfig::default();
            let mut l = Lidar::new(cfg, SimRng::seed_from_u64(9));
            l.scan(&room(), Pose2D::new(3.0, 3.0, 0.4), SimTime::EPOCH)
        };
        assert_eq!(mk(), mk());
    }
}
