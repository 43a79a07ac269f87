//! The [`Strategy`] trait and the combinators this workspace uses.

use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::Range;

/// A recipe for generating values of one type.
///
/// Unlike the real crate there is no value tree / shrinking: a
/// strategy is just a deterministic function of the test RNG.
pub trait Strategy {
    /// Type of the generated values; `Debug` so that a failing case
    /// can report its inputs.
    type Value: Debug;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with a function.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! float_range_strategy {
    ($($ty:ty: $bits:literal),*) => {
        $(impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range");
                // The top `$bits` random bits, uniform in [0, 1).
                let u = (rng.next_u64() >> (64 - $bits)) as $ty * (1.0 / (1u64 << $bits) as $ty);
                // May round up to `end` for extreme spans: clamp below it.
                let v = self.start + u * (self.end - self.start);
                if v >= self.end {
                    self.end.next_down()
                } else {
                    v
                }
            }
        })*
    };
}
float_range_strategy!(f64: 53, f32: 24);

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {
        $(impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range");
                // Lemire's multiply-shift over the span. The span is a
                // wrapping `i64` difference, which gives signed and
                // unsigned types the same bits.
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i64).wrapping_add(hi as i64) as $ty
            }
        })*
    };
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// String pattern strategy. Only the `.{min,max}` regex form is
/// supported: it yields strings of `min..=max` characters drawn from a
/// fixed palette that includes multi-byte code points.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (min, max) = parse_dot_repeat(self).unwrap_or_else(|| {
            panic!("proptest shim: unsupported string pattern {self:?} (only `.{{min,max}}`)")
        });
        const PALETTE: &[char] = &[
            'a', 'b', 'q', 'z', 'A', 'Z', '0', '9', ' ', '_', '-', '.', '/', '"', '\\', '\n', 'é',
            'ß', 'λ', 'ж', '中', '🦀',
        ];
        let len = (min..max + 1).sample(rng);
        (0..len)
            .map(|_| PALETTE[(0..PALETTE.len()).sample(rng)])
            .collect()
    }
}

/// Parse `.{min,max}` into `(min, max)`.
fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (min, max) = rest.split_once(',')?;
    Some((min.trim().parse().ok()?, max.trim().parse().ok()?))
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {
        $(impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        })*
    };
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Element-count specification for collection strategies; built from
/// an exact `usize` or a `Range<usize>`.
pub struct SizeRange {
    pub(crate) min: usize,
    pub(crate) max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_exclusive: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange {
            min: r.start,
            max_exclusive: r.end,
        }
    }
}
