//! Test configuration, RNG, and case outcome types.

use rand::{Rng, SeedableRng};

/// Per-property configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the hermetic suite
        // fast while still exercising each property broadly.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-test generator: seeded from a hash of the test
/// name so every run of a given test sees the same case sequence.
#[derive(Clone)]
pub struct TestRng(rand::rngs::SmallRng);

impl TestRng {
    /// Build the generator for the named test.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(rand::rngs::SmallRng::seed_from_u64(h))
    }
}

impl Rng for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was discarded by `prop_assume!`; it does not count.
    Reject(String),
    /// The case failed an assertion; the test panics.
    Fail(String),
}

impl TestCaseError {
    /// Build a failure outcome.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection outcome.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}
