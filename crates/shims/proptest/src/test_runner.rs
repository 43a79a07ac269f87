//! Test configuration, RNG, and case outcome types.

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
///
/// xoshiro256++ seeded through SplitMix64, the same generator as
/// `lgv_types::SimRng`. It is a copy, not a dependency: `lgv-types`
/// dev-depends on this crate.
#[derive(Clone)]
pub struct TestRng([u64; 4]);

impl TestRng {
    /// Build the generator for the named test.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // SplitMix64 expands the hash into the full state.
        let mut next = || {
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng([next(), next(), next(), next()])
    }

    /// Next 64 uniformly random bits: one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
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
