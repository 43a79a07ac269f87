//! The [`Strategy`] trait and the combinators this workspace uses.

use crate::test_runner::TestRng;
use rand::RngExt;
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

macro_rules! range_strategy {
    ($($ty:ty),*) => {
        $(impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                rng.random_range(self.clone())
            }
        })*
    };
}
range_strategy!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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
        let len = rng.random_range(min..max + 1);
        (0..len)
            .map(|_| PALETTE[rng.random_range(0usize..PALETTE.len())])
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
