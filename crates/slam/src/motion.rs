//! Odometry motion model.
//!
//! The classic sample-based model from *Probabilistic Robotics*
//! (Thrun, Burgard, Fox, ch. 5.4): a relative odometry increment is
//! decomposed into rotation–translation–rotation, each corrupted with
//! noise proportional to the motion magnitudes, then re-composed onto
//! a particle's pose.

use lgv_types::prelude::*;

/// Noise coefficients (α₁..α₄ in Thrun's notation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionNoise {
    /// Rotation noise from rotation.
    pub alpha1: f64,
    /// Rotation noise from translation.
    pub alpha2: f64,
    /// Translation noise from translation.
    pub alpha3: f64,
    /// Translation noise from rotation.
    pub alpha4: f64,
}

impl Default for MotionNoise {
    fn default() -> Self {
        MotionNoise {
            alpha1: 0.08,
            alpha2: 0.02,
            alpha3: 0.05,
            alpha4: 0.02,
        }
    }
}

/// Sampling odometry motion model.
#[derive(Debug, Clone)]
pub struct MotionModel {
    noise: MotionNoise,
}

impl MotionModel {
    /// Build with the given noise coefficients.
    pub fn new(noise: MotionNoise) -> Self {
        MotionModel { noise }
    }

    /// Noise parameters.
    pub fn noise(&self) -> MotionNoise {
        self.noise
    }

    /// Sample a new pose given the previous pose and the *relative*
    /// odometry increment (in the previous pose's frame).
    pub fn sample(&self, pose: Pose2D, delta: Pose2D, rng: &mut SimRng) -> Pose2D {
        let trans = (delta.x * delta.x + delta.y * delta.y).sqrt();
        // Decompose into rot1 → trans → rot2.
        let rot1 = if trans < 1e-6 {
            0.0
        } else {
            delta.y.atan2(delta.x)
        };
        let rot2 = normalize_angle(delta.theta - rot1);

        let n = &self.noise;
        let rot1_hat =
            rot1 + rng.gaussian(0.0, (n.alpha1 * rot1.abs() + n.alpha2 * trans).max(1e-9));
        let trans_hat = trans
            + rng.gaussian(
                0.0,
                (n.alpha3 * trans + n.alpha4 * (rot1.abs() + rot2.abs())).max(1e-9),
            );
        let rot2_hat =
            rot2 + rng.gaussian(0.0, (n.alpha1 * rot2.abs() + n.alpha2 * trans).max(1e-9));

        let theta1 = pose.theta + rot1_hat;
        Pose2D::new(
            pose.x + trans_hat * theta1.cos(),
            pose.y + trans_hat * theta1.sin(),
            theta1 + rot2_hat,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_motion_stays_close() {
        let m = MotionModel::new(MotionNoise::default());
        let mut rng = SimRng::seed_from_u64(1);
        let p = Pose2D::new(1.0, 2.0, 0.5);
        for _ in 0..100 {
            let q = m.sample(p, Pose2D::new(0.0, 0.0, 0.0), &mut rng);
            assert!(q.distance(p) < 0.01, "jumped to {q:?}");
        }
    }

    #[test]
    fn mean_motion_matches_delta() {
        let m = MotionModel::new(MotionNoise::default());
        let mut rng = SimRng::seed_from_u64(2);
        let p = Pose2D::new(0.0, 0.0, 0.0);
        let delta = Pose2D::new(0.5, 0.0, 0.1);
        let n = 5000;
        let (mut sx, mut sy) = (0.0, 0.0);
        for _ in 0..n {
            let q = m.sample(p, delta, &mut rng);
            sx += q.x;
            sy += q.y;
        }
        assert!(
            (sx / n as f64 - 0.5).abs() < 0.01,
            "mean x {}",
            sx / n as f64
        );
        assert!((sy / n as f64).abs() < 0.05, "mean y {}", sy / n as f64);
    }

    #[test]
    fn noise_grows_with_motion() {
        let m = MotionModel::new(MotionNoise::default());
        let spread = |delta: Pose2D, seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let p = Pose2D::new(0.0, 0.0, 0.0);
            let samples: Vec<Pose2D> = (0..2000).map(|_| m.sample(p, delta, &mut rng)).collect();
            let mx = samples.iter().map(|s| s.x).sum::<f64>() / 2000.0;
            (samples.iter().map(|s| (s.x - mx).powi(2)).sum::<f64>() / 2000.0).sqrt()
        };
        let small = spread(Pose2D::new(0.1, 0.0, 0.0), 3);
        let large = spread(Pose2D::new(1.0, 0.0, 0.0), 3);
        assert!(large > small * 2.0, "small {small}, large {large}");
    }

    #[test]
    fn motion_composes_in_local_frame() {
        // Facing +y, a forward delta should move the particle in +y.
        let m = MotionModel::new(MotionNoise {
            alpha1: 0.0,
            alpha2: 0.0,
            alpha3: 0.0,
            alpha4: 0.0,
        });
        let mut rng = SimRng::seed_from_u64(4);
        let p = Pose2D::new(0.0, 0.0, std::f64::consts::FRAC_PI_2);
        let q = m.sample(p, Pose2D::new(0.3, 0.0, 0.0), &mut rng);
        assert!(q.y > 0.29, "{q:?}");
        assert!(q.x.abs() < 0.01);
    }
}
