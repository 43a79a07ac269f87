//! Angle arithmetic on the unit circle.
//!
//! All angles in the workspace are radians in `(-π, π]` unless stated
//! otherwise. [`Angle`] is a thin newtype that keeps its value
//! normalized, so subtraction always yields the shortest signed
//! rotation — the property every controller and scan matcher relies on.

use std::f64::consts::PI;
use std::ops::{Add, Neg, Sub};

/// Normalize an angle in radians into the half-open interval `(-π, π]`.
///
/// ```
/// use lgv_types::angle::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-12);
/// assert_eq!(normalize_angle(0.25), 0.25);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    if a.is_nan() || a.is_infinite() {
        return 0.0;
    }
    // rem_euclid keeps the result in [0, 2π); shift into (-π, π]. A
    // value already in [0, 2π) comes back from it unchanged, so skip
    // the division for the common case.
    let shifted = a + PI;
    let r = if (0.0..2.0 * PI).contains(&shifted) {
        shifted
    } else {
        shifted.rem_euclid(2.0 * PI)
    };
    let out = r - PI;
    if out <= -PI {
        out + 2.0 * PI
    } else {
        out
    }
}

/// A normalized planar angle in radians, always in `(-π, π]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle(f64);

impl Angle {
    /// Zero rotation.
    pub const ZERO: Angle = Angle(0.0);

    /// Build from radians; the value is normalized on construction.
    pub fn from_radians(r: f64) -> Self {
        Angle(normalize_angle(r))
    }

    /// Build from degrees.
    pub fn from_degrees(d: f64) -> Self {
        Angle::from_radians(d.to_radians())
    }

    /// The normalized radian value.
    pub fn radians(self) -> f64 {
        self.0
    }

    /// The value in degrees.
    pub fn degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Cosine of the angle.
    pub fn cos(self) -> f64 {
        self.0.cos()
    }

    /// Sine of the angle.
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Shortest absolute angular distance to `other`, in `[0, π]`.
    pub fn distance(self, other: Angle) -> f64 {
        (self - other).radians().abs()
    }

    /// Linear interpolation along the shortest arc. `t` in `[0, 1]`.
    pub fn slerp(self, other: Angle, t: f64) -> Angle {
        let d = (other - self).radians();
        Angle::from_radians(self.0 + d * t.clamp(0.0, 1.0))
    }
}

impl Add for Angle {
    type Output = Angle;
    fn add(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    fn sub(self, rhs: Angle) -> Angle {
        Angle::from_radians(self.0 - rhs.0)
    }
}

impl Neg for Angle {
    type Output = Angle;
    fn neg(self) -> Angle {
        Angle::from_radians(-self.0)
    }
}

impl From<f64> for Angle {
    fn from(r: f64) -> Self {
        Angle::from_radians(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_identity_in_range() {
        for a in [-3.0, -1.5, 0.0, 0.5, 3.0_f64] {
            let n = normalize_angle(a);
            assert!(n > -PI && n <= PI, "{n} out of range");
        }
    }

    #[test]
    fn normalize_wraps_multiples() {
        assert!((normalize_angle(2.0 * PI)).abs() < 1e-12);
        assert!((normalize_angle(-2.0 * PI)).abs() < 1e-12);
        assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn normalize_boundary_is_positive_pi() {
        // -π must map to +π (half-open interval convention).
        assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_non_finite() {
        assert_eq!(normalize_angle(f64::NAN), 0.0);
        assert_eq!(normalize_angle(f64::INFINITY), 0.0);
    }

    /// `normalize_angle` before its in-range fast path.
    fn normalize_reference(a: f64) -> f64 {
        if a.is_nan() || a.is_infinite() {
            return 0.0;
        }
        let out = (a + PI).rem_euclid(2.0 * PI) - PI;
        if out <= -PI {
            out + 2.0 * PI
        } else {
            out
        }
    }

    #[test]
    fn normalize_matches_rem_euclid_formula_bit_for_bit() {
        let specials = [
            PI,
            -PI,
            0.0,
            -0.0,
            2.0 * PI,
            -2.0 * PI,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        // splitmix64: random bit patterns plus values near the wrap.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut inputs = specials.to_vec();
        for _ in 0..20_000 {
            let bits = next();
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            inputs.push(f64::from_bits(bits));
            inputs.push((unit - 0.5) * 8.0 * PI);
            inputs.push(PI * if bits & 1 == 0 { 1.0 } else { -1.0 } + (unit - 0.5) * 1e-12);
            inputs.push((unit - 0.5) * 1e9);
        }
        for a in inputs {
            let (got, want) = (normalize_angle(a), normalize_reference(a));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "normalize_angle({a:e}): {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn subtraction_gives_shortest_rotation() {
        let a = Angle::from_degrees(170.0);
        let b = Angle::from_degrees(-170.0);
        // Going from b to a the short way is -20°, not +340°.
        let d = a - b;
        assert!((d.degrees() - (-20.0)).abs() < 1e-9, "{}", d.degrees());
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = Angle::from_degrees(10.0);
        let b = Angle::from_degrees(-175.0);
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-12);
        assert!(a.distance(b) <= PI + 1e-12);
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = Angle::from_degrees(170.0);
        let b = Angle::from_degrees(-170.0);
        assert!((a.slerp(b, 0.0).degrees() - 170.0).abs() < 1e-9);
        assert!((a.slerp(b, 1.0).degrees() - (-170.0)).abs() < 1e-9);
        // Midpoint across the wrap is ±180°.
        let mid = a.slerp(b, 0.5).degrees().abs();
        assert!((mid - 180.0).abs() < 1e-9);
    }

    #[test]
    fn degrees_roundtrip() {
        let a = Angle::from_degrees(42.5);
        assert!((a.degrees() - 42.5).abs() < 1e-9);
    }
}
