//! `any::<T>()` strategies for primitive types.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::marker::PhantomData;

/// Types with a canonical "anything" strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy produced by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($ty:ty),*) => {
        $(impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $ty
            }
        })*
    };
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    /// Uniform over bit patterns, like the real crate's `any::<f64>()`
    /// it can yield NaN, infinities, subnormals, and signed zeros.
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.next_u64())
    }
}
