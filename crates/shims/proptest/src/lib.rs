//! In-tree subset of the `proptest` crate.
//!
//! Provides the [`proptest!`] macro family with a simplified runner:
//! each property runs [`test_runner::ProptestConfig::cases`] times
//! against inputs drawn from a deterministic per-test generator (seeded
//! from a hash of the test name), and a failure panics with the test
//! name, the case index, the attempt number and the `Debug` of the
//! drawn inputs, without shrinking. Strategy combinators cover exactly
//! what this workspace's tests use: numeric ranges, `any::<T>()`,
//! `collection::vec`, `option::of`, tuples, `prop_map`,
//! `Just`, and `.{min,max}` string patterns.
//!
//! Known deviations from the real crate: no shrinking, no persisted
//! regression files (`*.proptest-regressions` are ignored), and string
//! strategies accept only the `.{min,max}` regex form.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod strategy;

pub mod test_runner;

pub mod arbitrary;

/// `vec` strategy over other strategies.
pub mod collection {
    use crate::strategy::{SizeRange, Strategy};
    use crate::test_runner::TestRng;

    /// Strategy for `Vec<T>` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`fn@vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    impl SizeRange {
        pub(crate) fn sample(&self, rng: &mut TestRng) -> usize {
            if self.min >= self.max_exclusive.saturating_sub(1) {
                self.min
            } else {
                (self.min..self.max_exclusive).sample(rng)
            }
        }
    }
}

/// `Option` strategies over other strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<T>`: `None` roughly one time in four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy produced by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if (0usize..4).sample(rng) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// The glob-imported prelude: strategies, config, and macros.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Run the properties defined in the block as `#[test]` functions.
///
/// Supports an optional leading
/// `#![proptest_config(ProptestConfig::with_cases(n))]` and one or
/// more `fn name(pat in strategy, ...) { body }` items. The macro adds
/// `#[test]` itself, so a property that also carries its own `#[test]`
/// is registered, and run, twice under the same name.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __config = $cfg;
                let __strategy = ($($strat,)+);
                let mut __rng =
                    $crate::test_runner::TestRng::from_name(stringify!($name));
                let mut __ran: u32 = 0;
                let mut __attempts: u32 = 0;
                while __ran < __config.cases {
                    __attempts += 1;
                    if __attempts > __config.cases.saturating_mul(20) {
                        panic!(
                            "proptest: too many rejected cases in `{}` ({} accepted of {} attempts)",
                            stringify!($name), __ran, __attempts
                        );
                    }
                    // Strategies are deterministic functions of the RNG,
                    // so a failing case's inputs can be drawn again from
                    // this copy for the report.
                    let mut __rng_at_case = __rng.clone();
                    let ($($pat,)+) =
                        $crate::strategy::Strategy::sample(&__strategy, &mut __rng);
                    let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    match __outcome {
                        ::core::result::Result::Ok(()) => __ran += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(__msg),
                        ) => panic!(
                            "proptest `{}` failed at case {} (attempt {}): {}\n  inputs: {:?}",
                            stringify!($name),
                            __ran,
                            __attempts,
                            __msg,
                            $crate::strategy::Strategy::sample(&__strategy, &mut __rng_at_case),
                        ),
                    }
                }
            }
        )*
    };
}

/// Fail the current proptest case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current proptest case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: `left == right`\n  left: {:?}\n right: {:?}", __l, __r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n{}",
                    __l, __r, format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Discard the current proptest case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    /// Every property in the workspace sees the cases these draws
    /// stand for: pinned values of each strategy kind, in stream order.
    #[test]
    fn draws_are_pinned() {
        let mut rng = TestRng::from_name("golden_draws");
        let ranges = (
            (-2.5f64..1e6).prop_map(f64::to_bits),
            (-1.0f32..3.0).prop_map(f32::to_bits),
            3u8..200,
            i64::MIN..i64::MAX,
            0usize..1000,
            any::<u64>(),
        );
        let golden = [
            (
                0x410f8968a4f68499,
                0x3e21c8d0,
                135,
                1235300357512118908,
                597,
                0x959f7109cf2f99ff,
            ),
            (
                0x40d39d43da448346,
                0x3f8ae0a4,
                46,
                -7473526030925173781,
                628,
                0x12f08e5384f775f6,
            ),
            (
                0x412743cd223dc94c,
                0x3ee16118,
                173,
                -573348836228981422,
                114,
                0x24ad569b8f396139,
            ),
        ];
        for want in golden {
            assert_eq!(ranges.sample(&mut rng), want);
        }
        let composite = (
            crate::collection::vec(0u16..500, 1..6),
            crate::option::of(-7i8..7),
            ".{2,6}",
            any::<bool>(),
            any::<f64>().prop_map(f64::to_bits),
        );
        let golden = [
            (vec![440, 10, 2], None, "\n-🦀", false, 0xb7f6bbd6e03a5283),
            (vec![154], None, "中/", true, 0x800f47609a6444be),
            (vec![84, 187], Some(0), "z-", true, 0xc4a06bf33cebc81d),
        ];
        for (v, o, s, b, f) in golden {
            assert_eq!(composite.sample(&mut rng), (v, o, s.to_string(), b, f));
        }
    }

    proptest! {
        #[should_panic(expected = "proptest `reports_the_failing_inputs` failed at case 0 \
                                   (attempt 1): assertion failed: x < 5\n  inputs: (5, \"ab\")")]
        fn reports_the_failing_inputs(x in 5u32..6, s in Just(String::from("ab"))) {
            prop_assert!(x < 5);
            prop_assert_eq!(s.len(), 2);
        }
    }
}
