//! Adaptive Monte Carlo Localization (the known-map Localization node).
//!
//! A particle filter against a *fixed* map: propagate with the
//! odometry motion model, weight with the same beam-likelihood score
//! the SLAM scan matcher uses, resample on weight degeneracy, and —
//! the "adaptive" part (KLD-sampling, Fox '01) — shrink the particle
//! population as the estimate converges and grow it again when the
//! spread increases. With a known map this node is light (Table II:
//! 0.028 Gcycles ≈ 1 % of the with-map workload), which is why the
//! fine-grained migration policy leaves it wherever convenient.

use lgv_slam::map::OccupancyGrid;
use lgv_slam::motion::{MotionModel, MotionNoise};
use lgv_slam::rbpf::cost::CYCLES_PER_BEAM_EVAL;
use lgv_slam::rbpf::RESAMPLE_NEFF_FRAC;
use lgv_slam::scan_match::{ScanCache, ScanMatcher, ScanMatcherConfig};
use lgv_types::prelude::*;
use lgv_types::rng::low_variance_resample;

/// AMCL configuration.
#[derive(Debug, Clone)]
pub struct AmclConfig {
    /// Minimum particle population.
    pub min_particles: usize,
    /// Maximum particle population.
    pub max_particles: usize,
    /// Use every `beam_skip`-th beam for weighting.
    pub beam_skip: usize,
    /// Resample when `N_eff` falls below this fraction of the
    /// population.
    pub resample_neff_frac: f64,
    /// Positional spread (m, std-dev) below which the population
    /// shrinks towards `min_particles`.
    pub converge_spread: f64,
    /// Motion noise.
    pub motion: MotionNoise,
    /// Initial pose uncertainty (m / rad std-dev).
    pub init_spread: (f64, f64),
}

impl Default for AmclConfig {
    fn default() -> Self {
        AmclConfig {
            min_particles: 40,
            max_particles: 200,
            beam_skip: 10,
            resample_neff_frac: RESAMPLE_NEFF_FRAC,
            converge_spread: 0.08,
            motion: MotionNoise::default(),
            init_spread: (0.15, 0.1),
        }
    }
}

#[derive(Debug, Clone)]
struct AParticle {
    pose: Pose2D,
    weight: f64,
}

/// One AMCL update's output.
#[derive(Debug, Clone)]
pub struct AmclOutput {
    /// Weighted-mean pose estimate.
    pub pose: PoseEstimate,
    /// Cycle demand of this activation.
    pub work: Work,
    /// Current particle count (adaptation observable).
    pub particles: usize,
    /// Positional spread (m).
    pub spread: f64,
}

/// The localizer.
#[derive(Debug)]
pub struct Amcl {
    cfg: AmclConfig,
    map: OccupancyGrid,
    matcher: ScanMatcher,
    motion: MotionModel,
    particles: Vec<AParticle>,
    last_odom: Option<Pose2D>,
    rng: SimRng,
}

impl Amcl {
    /// Build a localizer on a known map, initialized around `start`.
    pub fn new(cfg: AmclConfig, map: &MapMsg, start: Pose2D, mut rng: SimRng) -> Self {
        let n0 = cfg.max_particles;
        let (sp, sr) = cfg.init_spread;
        let particles = (0..n0)
            .map(|_| AParticle {
                pose: Pose2D::new(
                    start.x + rng.gaussian(0.0, sp),
                    start.y + rng.gaussian(0.0, sp),
                    start.theta + rng.gaussian(0.0, sr),
                ),
                weight: 1.0 / n0 as f64,
            })
            .collect();
        let matcher = ScanMatcher::new(ScanMatcherConfig {
            beam_skip: cfg.beam_skip,
            ..ScanMatcherConfig::default()
        });
        let motion = MotionModel::new(cfg.motion);
        Amcl {
            cfg,
            map: OccupancyGrid::from_map_msg(map),
            matcher,
            motion,
            particles,
            last_odom: None,
            rng,
        }
    }

    /// Current particle count.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    /// Weighted-mean pose.
    pub fn mean_pose(&self) -> Pose2D {
        let wsum: f64 = self.particles.iter().map(|p| p.weight).sum();
        let mut x = 0.0;
        let mut y = 0.0;
        let mut sc = 0.0;
        let mut ss = 0.0;
        for p in &self.particles {
            let w = p.weight / wsum.max(1e-12);
            x += w * p.pose.x;
            y += w * p.pose.y;
            sc += w * p.pose.theta.cos();
            ss += w * p.pose.theta.sin();
        }
        Pose2D::new(x, y, ss.atan2(sc))
    }

    /// Positional spread (std-dev of particle positions, m).
    pub fn spread(&self) -> f64 {
        let mean = self.mean_pose();
        let n = self.particles.len() as f64;
        let var: f64 = self
            .particles
            .iter()
            .map(|p| p.pose.position().distance_sq(mean.position()))
            .sum::<f64>()
            / n;
        var.sqrt()
    }

    /// Process one odometry + scan pair.
    pub fn process(&mut self, odom: &OdometryMsg, scan: &LaserScan) -> AmclOutput {
        let delta = match self.last_odom {
            Some(last) => last.between(odom.pose),
            None => Pose2D::default(),
        };
        self.last_odom = Some(odom.pose);

        let mut meter = WorkMeter::new();
        let n = self.particles.len();

        // Propagate.
        for p in &mut self.particles {
            p.pose = self.motion.sample(p.pose, delta, &mut self.rng);
        }
        meter.serial_ops(n as u64, lgv_slam::rbpf::cost::CYCLES_PER_MOTION_SAMPLE);

        // Weight with the beam likelihood against the static map.
        let cache = ScanCache::new(scan, self.cfg.beam_skip);
        let mut evals = 0u64;
        for p in &mut self.particles {
            let (score, used) = self.matcher.score_cached(&self.map, p.pose, &cache);
            evals += used;
            let per_beam = if used > 0 { score / used as f64 } else { 0.0 };
            p.weight *= (per_beam * 4.0).exp();
        }
        meter.serial_ops(evals, CYCLES_PER_BEAM_EVAL);

        // Normalize; N_eff.
        let wsum: f64 = self.particles.iter().map(|p| p.weight).sum();
        if wsum > 0.0 && wsum.is_finite() {
            for p in &mut self.particles {
                p.weight /= wsum;
            }
        } else {
            let u = 1.0 / n as f64;
            for p in &mut self.particles {
                p.weight = u;
            }
        }
        let neff = 1.0
            / self
                .particles
                .iter()
                .map(|p| p.weight * p.weight)
                .sum::<f64>();

        // Adaptive population sizing (the "A" in AMCL): shrink when
        // converged, grow when dispersed.
        let spread = self.spread();
        let target = if spread < self.cfg.converge_spread {
            self.cfg.min_particles
        } else {
            let t = (spread / (4.0 * self.cfg.converge_spread)).min(1.0);
            (self.cfg.min_particles as f64
                + t * (self.cfg.max_particles - self.cfg.min_particles) as f64) as usize
        };

        // Resample (also applies the population resize).
        if neff < self.cfg.resample_neff_frac * n as f64 || target != n {
            let weights: Vec<f64> = self.particles.iter().map(|p| p.weight).collect();
            let picks = low_variance_resample(&mut self.rng, &weights, target);
            let u = 1.0 / target as f64;
            self.particles = picks
                .iter()
                .map(|&i| AParticle {
                    pose: self.particles[i].pose,
                    weight: u,
                })
                .collect();
            meter.serial_ops(target as u64, 200.0);
        }

        let confidence = (1.0 - (spread / (4.0 * self.cfg.converge_spread)).min(1.0)).max(0.0);
        AmclOutput {
            pose: PoseEstimate {
                stamp: scan.stamp,
                pose: self.mean_pose(),
                confidence,
            },
            work: meter.finish(),
            particles: self.particles.len(),
            spread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Ground-truth box room `[1,6] × [1.5,6.5]` and exact scans of it.
    fn room_map() -> MapMsg {
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut cells = vec![MapMsg::FREE; dims.len()];
        for row in 0..160 {
            for col in 0..160 {
                let x = (col as f64 + 0.5) * 0.05;
                let y = (row as f64 + 0.5) * 0.05;
                let on_x_wall =
                    ((x - 1.0).abs() < 0.05 || (x - 6.0).abs() < 0.05) && (1.5..=6.5).contains(&y);
                let on_y_wall =
                    ((y - 1.5).abs() < 0.05 || (y - 6.5).abs() < 0.05) && (1.0..=6.0).contains(&x);
                if on_x_wall || on_y_wall {
                    cells[row * 160 + col] = MapMsg::OCCUPIED;
                }
            }
        }
        MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells,
        }
    }

    fn room_scan(pose: Pose2D) -> LaserScan {
        let (xmin, xmax, ymin, ymax) = (1.0, 6.0, 1.5, 6.5);
        let beams = 360;
        let inc = 2.0 * PI / beams as f64;
        let ranges = (0..beams)
            .map(|i| {
                let a = pose.theta + i as f64 * inc;
                let (c, s) = (a.cos(), a.sin());
                let tx = if c > 1e-12 {
                    (xmax - pose.x) / c
                } else if c < -1e-12 {
                    (xmin - pose.x) / c
                } else {
                    f64::INFINITY
                };
                let ty = if s > 1e-12 {
                    (ymax - pose.y) / s
                } else if s < -1e-12 {
                    (ymin - pose.y) / s
                } else {
                    f64::INFINITY
                };
                tx.min(ty).min(3.5)
            })
            .collect();
        LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: inc,
            range_max: 3.5,
            ranges,
        }
    }

    fn odom(pose: Pose2D) -> OdometryMsg {
        OdometryMsg {
            stamp: SimTime::EPOCH,
            pose,
            twist: Twist::STOP,
        }
    }

    #[test]
    fn converges_on_true_pose_when_stationary() {
        let map = room_map();
        let truth = Pose2D::new(3.0, 4.0, 0.0);
        let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(1));
        let mut out = None;
        for _ in 0..10 {
            out = Some(amcl.process(&odom(truth), &room_scan(truth)));
        }
        let out = out.unwrap();
        let err = out.pose.pose.distance(truth);
        assert!(err < 0.12, "localization error {err} m");
        assert!(out.spread < 0.2, "spread {}", out.spread);
    }

    #[test]
    fn population_shrinks_as_estimate_converges() {
        let map = room_map();
        let truth = Pose2D::new(3.0, 4.0, 0.0);
        let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(2));
        let n0 = amcl.num_particles();
        for _ in 0..15 {
            amcl.process(&odom(truth), &room_scan(truth));
        }
        assert!(
            amcl.num_particles() < n0,
            "adaptive sizing should shrink: {} → {}",
            n0,
            amcl.num_particles()
        );
        assert!(amcl.num_particles() >= AmclConfig::default().min_particles);
    }

    #[test]
    fn tracks_motion() {
        let map = room_map();
        let mut truth = Pose2D::new(2.5, 4.0, 0.0);
        let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(3));
        for _ in 0..20 {
            amcl.process(&odom(truth), &room_scan(truth));
            truth = Pose2D::new(truth.x + 0.04, truth.y, 0.0);
        }
        let err = amcl.mean_pose().distance(truth);
        assert!(err < 0.2, "tracking error {err} m");
    }

    #[test]
    fn work_is_light_compared_to_slam() {
        // Table II: with-map Localization is ~1 % of the workload.
        let map = room_map();
        let truth = Pose2D::new(3.0, 4.0, 0.0);
        let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(4));
        let mut out = amcl.process(&odom(truth), &room_scan(truth));
        // First update runs the full population — still modest.
        assert!(
            out.work.total_cycles() < 6.0e7,
            "cycles {}",
            out.work.total_cycles()
        );
        // Once converged and shrunk, ≈ 0.03 Gcycles/s at 5 Hz.
        for _ in 0..10 {
            out = amcl.process(&odom(truth), &room_scan(truth));
        }
        assert!(
            out.work.total_cycles() < 2.0e7,
            "converged cycles {}",
            out.work.total_cycles()
        );
    }

    #[test]
    fn survives_degenerate_scan() {
        let map = room_map();
        let truth = Pose2D::new(3.0, 4.0, 0.0);
        let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(5));
        let empty = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.1,
            range_max: 3.5,
            ranges: vec![3.5; 60],
        };
        let out = amcl.process(&odom(truth), &empty);
        assert!(out.pose.pose.x.is_finite());
        assert!(amcl.num_particles() >= AmclConfig::default().min_particles);
    }

    #[test]
    fn deterministic_for_seed() {
        let map = room_map();
        let truth = Pose2D::new(3.0, 4.0, 0.0);
        let run = || {
            let mut amcl = Amcl::new(AmclConfig::default(), &map, truth, SimRng::seed_from_u64(9));
            for _ in 0..5 {
                amcl.process(&odom(truth), &room_scan(truth));
            }
            amcl.mean_pose()
        };
        assert_eq!(run(), run());
    }
}
