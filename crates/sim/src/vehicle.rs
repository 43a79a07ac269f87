//! Differential-drive vehicle simulation.
//!
//! Models the Turtlebot3 base: commanded twists are rate-limited by
//! the acceleration budget, integrated with exact unicycle kinematics,
//! blocked by collisions against the ground-truth world, and reported
//! through a drifting odometry estimate (the drift is what makes the
//! localization nodes earn their keep).

use crate::world::World;
use lgv_types::prelude::*;

// Turtlebot3 burger limits from the ROBOTIS e-manual.

/// Body radius for collision checks (m).
pub const RADIUS: f64 = 0.105;
/// Hard linear velocity limit (m/s). Turtlebot3 burger: 0.22. The
/// default of [`VehicleConfig::max_linear`] and of the DWA planner's.
pub const MAX_LINEAR: f64 = 0.22;
/// Hard angular velocity limit (rad/s). Turtlebot3 burger: 2.84.
pub const MAX_ANGULAR: f64 = 2.84;
/// Maximum linear acceleration (m/s²).
pub const MAX_LIN_ACCEL: f64 = 2.5;
/// Maximum angular acceleration (rad/s²).
pub const MAX_ANG_ACCEL: f64 = 3.2;
/// Odometry translation noise: std-dev per metre travelled.
pub const ODOM_TRANS_NOISE: f64 = 0.01;
/// Odometry rotation noise: std-dev per radian turned.
pub const ODOM_ROT_NOISE: f64 = 0.02;

/// Mechanical configuration of the vehicle. The other limits are the
/// constants above.
#[derive(Debug, Clone)]
pub struct VehicleConfig {
    /// Hard linear velocity limit (m/s).
    pub max_linear: f64,
}

impl Default for VehicleConfig {
    fn default() -> Self {
        VehicleConfig {
            max_linear: MAX_LINEAR,
        }
    }
}

/// The simulated vehicle.
#[derive(Debug, Clone)]
pub struct Vehicle {
    cfg: VehicleConfig,
    /// Ground-truth pose.
    pose: Pose2D,
    /// Current actual twist (after acceleration limiting).
    twist: Twist,
    /// Commanded twist (target for the rate limiter).
    command: Twist,
    /// Dead-reckoned odometry pose (drifts).
    odom: Pose2D,
    rng: SimRng,
    /// Cumulative distance travelled (m).
    distance: f64,
    /// True while the last step was blocked by a collision.
    bumped: bool,
}

impl Vehicle {
    /// Place a vehicle at a starting pose.
    pub fn new(cfg: VehicleConfig, start: Pose2D, rng: SimRng) -> Self {
        Vehicle {
            cfg,
            pose: start,
            twist: Twist::STOP,
            command: Twist::STOP,
            odom: start,
            rng,
            distance: 0.0,
            bumped: false,
        }
    }

    /// Mechanical configuration.
    pub fn config(&self) -> &VehicleConfig {
        &self.cfg
    }

    /// Ground-truth pose (the experiment harness may look, the
    /// algorithms may not).
    pub fn true_pose(&self) -> Pose2D {
        self.pose
    }

    /// Current actual twist.
    pub fn twist(&self) -> Twist {
        self.twist
    }

    /// Total distance travelled so far (m).
    pub fn distance_travelled(&self) -> f64 {
        self.distance
    }

    /// Whether the last `step` was blocked by an obstacle.
    pub fn bumped(&self) -> bool {
        self.bumped
    }

    /// Latch a velocity command; takes effect over subsequent steps
    /// subject to acceleration limits.
    pub fn command(&mut self, twist: Twist) {
        self.command = twist.clamped(self.cfg.max_linear, MAX_ANGULAR);
    }

    /// Advance the simulation by `dt`, colliding against `world`.
    /// Returns the actual twist applied during the step.
    pub fn step(&mut self, world: &World, dt: Duration) -> Twist {
        let dt_s = dt.as_secs_f64();
        if dt_s <= 0.0 {
            return self.twist;
        }

        // Rate-limit towards the command.
        let dv = MAX_LIN_ACCEL * dt_s;
        let dw = MAX_ANG_ACCEL * dt_s;
        self.twist.linear += (self.command.linear - self.twist.linear).clamp(-dv, dv);
        self.twist.angular += (self.command.angular - self.twist.angular).clamp(-dw, dw);

        let proposed = self.pose.integrate(self.twist, dt_s);
        self.bumped = world.collides_disc(proposed.position(), RADIUS);
        if self.bumped {
            // Blocked: kill linear motion, allow rotation in place.
            self.twist.linear = 0.0;
            let spin = self
                .pose
                .integrate(Twist::new(0.0, self.twist.angular), dt_s);
            self.pose = Pose2D::new(self.pose.x, self.pose.y, spin.theta);
        } else {
            let moved = proposed.position().distance(self.pose.position());
            let turned = normalize_angle(proposed.theta - self.pose.theta).abs();
            self.distance += moved;

            // Odometry integrates the same motion plus drift noise.
            let delta = self.pose.between(proposed);
            let nx = self.rng.gaussian(0.0, ODOM_TRANS_NOISE * moved);
            let ny = self.rng.gaussian(0.0, ODOM_TRANS_NOISE * moved);
            let nth = self.rng.gaussian(
                0.0,
                ODOM_ROT_NOISE * turned + 0.2 * ODOM_TRANS_NOISE * moved,
            );
            self.odom =
                self.odom
                    .compose(Pose2D::new(delta.x + nx, delta.y + ny, delta.theta + nth));
            self.pose = proposed;
        }
        self.twist
    }

    /// Produce the odometry message for the current instant.
    pub fn odometry(&self, stamp: SimTime) -> OdometryMsg {
        OdometryMsg {
            stamp,
            pose: self.odom,
            twist: self.twist,
        }
    }

    /// Current linear acceleration demand towards the command (m/s²),
    /// used by the motor power model (Eq. 1d's `a`).
    pub fn accel_demand(&self) -> f64 {
        (self.command.linear - self.twist.linear)
            .abs()
            .min(MAX_LIN_ACCEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;

    fn arena() -> World {
        WorldBuilder::new(10.0, 10.0, 0.05).walls().build()
    }

    fn vehicle_at(x: f64, y: f64, th: f64) -> Vehicle {
        Vehicle::new(
            VehicleConfig::default(),
            Pose2D::new(x, y, th),
            SimRng::seed_from_u64(1),
        )
    }

    #[test]
    fn accelerates_towards_command() {
        let w = arena();
        let mut v = vehicle_at(5.0, 5.0, 0.0);
        v.command(Twist::new(0.22, 0.0));
        let t1 = v.step(&w, Duration::from_millis(20));
        assert!(t1.linear > 0.0 && t1.linear < 0.22, "{}", t1.linear);
        for _ in 0..20 {
            v.step(&w, Duration::from_millis(20));
        }
        assert!((v.twist().linear - 0.22).abs() < 1e-9);
    }

    #[test]
    fn command_is_clamped_to_limits() {
        let w = arena();
        let mut v = vehicle_at(5.0, 5.0, 0.0);
        v.command(Twist::new(10.0, -10.0));
        for _ in 0..200 {
            v.step(&w, Duration::from_millis(20));
        }
        assert!(v.twist().linear <= 0.22 + 1e-9);
        assert!(v.twist().angular >= -2.84 - 1e-9);
    }

    #[test]
    fn moves_forward_in_world_frame() {
        let w = arena();
        let mut v = vehicle_at(2.0, 5.0, 0.0);
        v.command(Twist::new(0.2, 0.0));
        for _ in 0..100 {
            v.step(&w, Duration::from_millis(50));
        }
        assert!(v.true_pose().x > 2.5);
        assert!((v.true_pose().y - 5.0).abs() < 1e-6);
        assert!(v.distance_travelled() > 0.5);
    }

    #[test]
    fn blocked_by_wall() {
        let w = arena();
        let mut v = vehicle_at(9.5, 5.0, 0.0);
        v.command(Twist::new(0.22, 0.0));
        for _ in 0..200 {
            v.step(&w, Duration::from_millis(50));
        }
        // Never passes through the wall at x = 10.
        assert!(v.true_pose().x < 10.0 - RADIUS + 0.1);
        assert!(v.bumped());
        assert_eq!(v.twist().linear, 0.0);
    }

    #[test]
    fn can_rotate_when_blocked() {
        let w = arena();
        let mut v = vehicle_at(9.8, 5.0, 0.0);
        v.command(Twist::new(0.22, 1.0));
        let th0 = v.true_pose().theta;
        for _ in 0..20 {
            v.step(&w, Duration::from_millis(50));
        }
        assert!(normalize_angle(v.true_pose().theta - th0).abs() > 0.1);
    }

    #[test]
    fn odometry_tracks_but_drifts() {
        let w = arena();
        let mut v = vehicle_at(2.0, 2.0, 0.5);
        v.command(Twist::new(0.2, 0.3));
        for _ in 0..400 {
            v.step(&w, Duration::from_millis(20));
        }
        let err = v.odometry(SimTime::EPOCH).pose.distance(v.true_pose());
        // Some drift, but in the same neighbourhood.
        assert!(err > 0.0, "odometry should drift");
        assert!(err < 1.0, "odometry drift too extreme: {err}");
    }

    #[test]
    fn odometry_is_deterministic_for_seed() {
        let w = arena();
        let run = || {
            let mut v = vehicle_at(2.0, 2.0, 0.0);
            v.command(Twist::new(0.2, 0.1));
            for _ in 0..100 {
                v.step(&w, Duration::from_millis(20));
            }
            v.odometry(SimTime::EPOCH).pose
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_dt_is_noop() {
        let w = arena();
        let mut v = vehicle_at(5.0, 5.0, 0.0);
        v.command(Twist::new(0.2, 0.0));
        let p0 = v.true_pose();
        v.step(&w, Duration::ZERO);
        assert_eq!(v.true_pose(), p0);
    }

    #[test]
    fn accel_demand_decreases_as_speed_converges() {
        let w = arena();
        let mut v = vehicle_at(5.0, 5.0, 0.0);
        v.command(Twist::new(0.22, 0.0));
        let d0 = v.accel_demand();
        for _ in 0..50 {
            v.step(&w, Duration::from_millis(20));
        }
        assert!(v.accel_demand() < d0);
        assert!(v.accel_demand() < 1e-6);
    }
}
