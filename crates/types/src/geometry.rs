//! Planar geometry: points, vectors, poses, and velocity twists.

use crate::angle::{normalize_angle, Angle};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point in the world frame, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

/// A free 2-D vector, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component (m).
    pub x: f64,
    /// Y component (m).
    pub y: f64,
}

impl Point2 {
    /// Origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance (avoids the square root on hot paths).
    pub fn distance_sq(self, other: Point2) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Linear interpolation between two points, `t` in `[0, 1]`.
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        let t = t.clamp(0.0, 1.0);
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl Vec2 {
    /// Zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Construct a vector.
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at a given heading.
    pub fn from_angle(a: Angle) -> Self {
        Vec2::new(a.cos(), a.sin())
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z component of the cross product (signed area).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Heading of the vector.
    pub fn angle(self) -> Angle {
        Angle::from_radians(self.y.atan2(self.x))
    }

    /// The vector scaled to unit length; zero vectors stay zero.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n < 1e-12 {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Rotate by an angle about the origin.
    pub fn rotated(self, a: Angle) -> Vec2 {
        let (s, c) = (a.sin(), a.cos());
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A planar pose: position plus heading, `SE(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose2D {
    /// X position in the world frame (m).
    pub x: f64,
    /// Y position in the world frame (m).
    pub y: f64,
    /// Heading in radians, normalized to `(-π, π]`.
    pub theta: f64,
}

impl Pose2D {
    /// Construct a pose (heading is normalized).
    pub fn new(x: f64, y: f64, theta: f64) -> Self {
        Pose2D {
            x,
            y,
            theta: normalize_angle(theta),
        }
    }

    /// Position component.
    pub fn position(self) -> Point2 {
        Point2::new(self.x, self.y)
    }

    /// Heading component.
    pub fn heading(self) -> Angle {
        Angle::from_radians(self.theta)
    }

    /// Transform a point expressed in this pose's local frame into the
    /// world frame.
    pub fn transform_from_local(self, local: Point2) -> Point2 {
        let (s, c) = (self.theta.sin(), self.theta.cos());
        Point2::new(
            self.x + local.x * c - local.y * s,
            self.y + local.x * s + local.y * c,
        )
    }

    /// Transform a world-frame point into this pose's local frame.
    pub fn transform_to_local(self, world: Point2) -> Point2 {
        let dx = world.x - self.x;
        let dy = world.y - self.y;
        let (s, c) = (self.theta.sin(), self.theta.cos());
        Point2::new(dx * c + dy * s, -dx * s + dy * c)
    }

    /// Compose with a relative motion expressed in the local frame
    /// (odometry increment): returns `self ⊕ delta`.
    pub fn compose(self, delta: Pose2D) -> Pose2D {
        let p = self.transform_from_local(Point2::new(delta.x, delta.y));
        Pose2D::new(p.x, p.y, self.theta + delta.theta)
    }

    /// Relative motion from `self` to `other`, expressed in `self`'s
    /// local frame: the inverse of [`Pose2D::compose`].
    pub fn between(self, other: Pose2D) -> Pose2D {
        let p = self.transform_to_local(other.position());
        Pose2D::new(p.x, p.y, other.theta - self.theta)
    }

    /// Euclidean distance between the positions of two poses.
    pub fn distance(self, other: Pose2D) -> f64 {
        self.position().distance(other.position())
    }

    /// Integrate a unicycle motion `(v, w)` over `dt` seconds using the
    /// exact arc model (falls back to straight-line when `|w|` is tiny).
    pub fn integrate(self, twist: Twist, dt: f64) -> Pose2D {
        let (v, w) = (twist.linear, twist.angular);
        if w.abs() < 1e-9 {
            Pose2D::new(
                self.x + v * dt * self.theta.cos(),
                self.y + v * dt * self.theta.sin(),
                self.theta,
            )
        } else {
            // Exact integration along a circular arc of radius v/w.
            let r = v / w;
            let th1 = self.theta + w * dt;
            Pose2D::new(
                self.x + r * (th1.sin() - self.theta.sin()),
                self.y - r * (th1.cos() - self.theta.cos()),
                th1,
            )
        }
    }
}

/// A planar velocity command: linear (m/s) + angular (rad/s).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Twist {
    /// Forward linear velocity (m/s).
    pub linear: f64,
    /// Angular velocity (rad/s), positive counter-clockwise.
    pub angular: f64,
}

impl Twist {
    /// Stationary twist.
    pub const STOP: Twist = Twist {
        linear: 0.0,
        angular: 0.0,
    };

    /// Construct a twist.
    pub fn new(linear: f64, angular: f64) -> Self {
        Twist { linear, angular }
    }

    /// True when both components are (numerically) zero.
    pub fn is_stop(self) -> bool {
        self.linear.abs() < 1e-9 && self.angular.abs() < 1e-9
    }

    /// Clamp both components to symmetric limits.
    pub fn clamped(self, max_linear: f64, max_angular: f64) -> Twist {
        Twist::new(
            self.linear.clamp(-max_linear, max_linear),
            self.angular.clamp(-max_angular, max_angular),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn vector_algebra_basics() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.normalized().norm(), 1.0);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)), 1.0);
    }

    #[test]
    fn vector_rotation_quarter_turn() {
        let r = Vec2::new(1.0, 0.0).rotated(Angle::from_radians(FRAC_PI_2));
        assert!((r.x).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_lerp_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 2.0));
        assert_eq!(a.lerp(b, -1.0), a);
        assert_eq!(a.lerp(b, 2.0), b);
    }

    #[test]
    fn pose_local_world_roundtrip() {
        let pose = Pose2D::new(2.0, -1.0, 0.7);
        let p = Point2::new(3.5, 0.25);
        let back = pose.transform_to_local(pose.transform_from_local(p));
        assert!(back.distance(p) < 1e-12);
    }

    #[test]
    fn pose_compose_between_inverse() {
        let a = Pose2D::new(1.0, 2.0, 0.3);
        let b = Pose2D::new(-0.5, 4.0, -2.0);
        let d = a.between(b);
        let b2 = a.compose(d);
        assert!(b2.distance(b) < 1e-12);
        assert!(normalize_angle(b2.theta - b.theta).abs() < 1e-12);
    }

    #[test]
    fn integrate_straight_line() {
        let p = Pose2D::new(0.0, 0.0, 0.0);
        let q = p.integrate(Twist::new(1.0, 0.0), 2.0);
        assert!((q.x - 2.0).abs() < 1e-12 && q.y.abs() < 1e-12);
    }

    #[test]
    fn integrate_full_circle_returns_home() {
        // v = r*w: a full revolution in 2π/w seconds comes back home.
        let p = Pose2D::new(1.0, 1.0, 0.5);
        let w = 0.8;
        let q = p.integrate(Twist::new(0.4, w), 2.0 * PI / w);
        assert!(q.distance(p) < 1e-9);
    }

    #[test]
    fn integrate_quarter_arc_geometry() {
        // Unit radius quarter arc from origin heading +x ends at (1, 1).
        let p = Pose2D::new(0.0, 0.0, 0.0);
        let q = p.integrate(Twist::new(1.0, 1.0), FRAC_PI_2);
        assert!((q.x - 1.0).abs() < 1e-9, "{q:?}");
        assert!((q.y - 1.0).abs() < 1e-9, "{q:?}");
        assert!((q.theta - FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn twist_clamp() {
        let t = Twist::new(5.0, -9.0).clamped(0.22, 2.84);
        assert_eq!(t.linear, 0.22);
        assert_eq!(t.angular, -2.84);
        assert!(Twist::STOP.is_stop());
    }
}
