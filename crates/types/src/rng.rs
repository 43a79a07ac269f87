//! Deterministic random sampling.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! seeded explicitly, so a whole experiment is reproducible from a
//! single `u64`. The generator is xoshiro256++ seeded through
//! SplitMix64; Gaussian samples come from the polar Box–Muller method.

/// Seeded random number generator used across the workspace.
///
/// xoshiro256++ (Blackman & Vigna): deterministic for a given seed,
/// cheap to fork, and `Clone` so particle filters can snapshot state.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the polar Box–Muller transform.
    spare_gaussian: Option<f64>,
}

impl SimRng {
    /// Create a generator from an explicit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expands the seed into the full state, which is
        // then never all zero.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
            spare_gaussian: None,
        }
    }

    /// Next 64 uniformly random bits: one xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
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

    /// Derive an independent child generator; used to give each
    /// subsystem (sensor noise, network loss, particle filter, …) its
    /// own stream while keeping one top-level seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // Mix the salt with fresh randomness so forks with different
        // salts are decorrelated even if called in a different order.
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`; `lo` when the two are equal.
    ///
    /// # Panics
    /// If `hi < lo` or either is NaN.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if lo == hi {
            return lo;
        }
        assert!(lo < hi, "empty range");
        // May round up to `hi` for extreme spans: clamp below it.
        let v = lo + self.uniform() * (hi - lo);
        if v >= hi {
            hi.next_down()
        } else {
            v
        }
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Lemire's multiply-shift: the high word of `bits × n`.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal sample (mean 0, std-dev 1) via polar Box–Muller.
    pub fn gaussian_std(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        loop {
            let u = self.uniform_range(-1.0, 1.0);
            let v = self.uniform_range(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_gaussian = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.gaussian_std()
    }

    /// Sample an index proportionally to non-negative `weights`.
    /// Returns `None` when all weights are zero (or the slice is empty).
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
        // Floating point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Low-variance (systematic) resampling: draws `n` indices from the
/// weight distribution using a single random offset, preserving
/// particle diversity better than independent draws. Standard tool in
/// Rao-Blackwellized particle filters (Thrun et al., *Probabilistic
/// Robotics*).
pub fn low_variance_resample(rng: &mut SimRng, weights: &[f64], n: usize) -> Vec<usize> {
    assert!(!weights.is_empty(), "cannot resample from empty weights");
    let total: f64 = weights.iter().copied().sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate weights: keep a uniform spread of the originals.
        return (0..n).map(|i| i % weights.len()).collect();
    }
    let step = total / n as f64;
    let mut r = rng.uniform() * step;
    let mut out = Vec::with_capacity(n);
    let mut cum = weights[0];
    let mut i = 0usize;
    for _ in 0..n {
        while r > cum && i + 1 < weights.len() {
            i += 1;
            cum += weights[i];
        }
        out.push(i);
        r += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut root = SimRng::seed_from_u64(42);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let matches = (0..64).filter(|_| c1.uniform() == c2.uniform()).count();
        assert!(matches < 4);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(6);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate() {
        let mut rng = SimRng::seed_from_u64(7);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn low_variance_resample_counts_match_weights() {
        let mut rng = SimRng::seed_from_u64(8);
        let w = [1.0, 1.0, 2.0];
        let idx = low_variance_resample(&mut rng, &w, 4000);
        assert_eq!(idx.len(), 4000);
        let c2 = idx.iter().filter(|&&i| i == 2).count();
        assert!((c2 as f64 / 4000.0 - 0.5).abs() < 0.02);
        assert!(idx.iter().all(|&i| i < 3));
    }

    #[test]
    fn low_variance_resample_zero_weights_fallback() {
        let mut rng = SimRng::seed_from_u64(9);
        let idx = low_variance_resample(&mut rng, &[0.0, 0.0, 0.0], 6);
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2]);
    }

    /// The streams every scenario checksum rests on, pinned bit for
    /// bit: per seed, the first `uniform`, `uniform_range(-1, 1)`,
    /// `index(7)` and `gaussian(0, 1)` draws, then the first `uniform`
    /// of `fork(3)`, then an FNV-1a fold over 2000 mixed calls.
    #[test]
    fn streams_are_pinned() {
        const GOLDEN: [(u64, u64, u64, usize, u64, u64, u64); 3] = [
            (
                0,
                0x3fd4c5d7585242c8,
                0xbfce2590c23c7f30,
                2,
                0xbfd37760deef87a4,
                0x3fce870ed28ae6c0,
                0x11a39979e3c0813b,
            ),
            (
                42,
                0x3fea0ec9a9e88ecd,
                0xbfd730df45d44868,
                6,
                0x3fe51a25efe6582f,
                0x3fd5a1165e355bca,
                0x672a1d956c80d5e1,
            ),
            (
                u64::MAX,
                0x3fd5b33e33a52388,
                0x3fe9a16210cb9696,
                6,
                0xbff468c056062e5f,
                0x3fed04dc4021154e,
                0xe8b54e95b46a0f94,
            ),
        ];
        for (seed, uniform, range, index, gaussian, fork, mixed) in GOLDEN {
            let mut r = SimRng::seed_from_u64(seed);
            assert_eq!(r.uniform().to_bits(), uniform, "seed {seed}");
            assert_eq!(r.uniform_range(-1.0, 1.0).to_bits(), range, "seed {seed}");
            assert_eq!(r.index(7), index, "seed {seed}");
            assert_eq!(r.gaussian(0.0, 1.0).to_bits(), gaussian, "seed {seed}");
            assert_eq!(r.fork(3).uniform().to_bits(), fork, "seed {seed}");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for k in 0..2000u64 {
                let x = match k % 6 {
                    0 => r.uniform().to_bits(),
                    1 => r.uniform_range(-3.5, 1e-3).to_bits(),
                    2 => r.index(1 + k as usize) as u64,
                    3 => r.gaussian(1.0, 2.0).to_bits(),
                    4 => r.chance(0.3) as u64,
                    _ => r.fork(k).uniform().to_bits(),
                };
                h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
            }
            assert_eq!(h, mixed, "seed {seed}");
        }
    }

    #[test]
    fn index_in_bounds() {
        let mut rng = SimRng::seed_from_u64(10);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_interval() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.uniform()));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::seed_from_u64(2);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.uniform()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }

    #[test]
    fn uniform_range_in_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!((-2.0..3.0).contains(&rng.uniform_range(-2.0, 3.0)));
        }
        assert_eq!(rng.uniform_range(1.5, 1.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_range_rejects_a_reversed_range() {
        SimRng::seed_from_u64(4).uniform_range(3.0, -2.0);
    }
}
