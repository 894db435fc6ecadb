//! Deterministic pseudo-random number generation.
//!
//! [`Rng`] implements xoshiro256** (Blackman & Vigna), a fast, high-quality
//! non-cryptographic generator, seeded through SplitMix64 so that any `u64`
//! seed yields a well-mixed initial state. All stochastic components of the
//! reproduction (stochastic quantization, synthetic gradients, data-set
//! synthesis, k-means initialization) draw from this generator, which makes
//! every experiment bit-reproducible.

/// SplitMix64 step used for seeding; also handy as a cheap stateless mixer.
///
/// # Examples
///
/// ```
/// let mut state = 1u64;
/// let a = cgx_tensor::rng::split_mix64(&mut state);
/// let b = cgx_tensor::rng::split_mix64(&mut state);
/// assert_ne!(a, b);
/// ```
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use cgx_tensor::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal sample from the Box-Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanded via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            split_mix64(&mut sm),
            split_mix64(&mut sm),
            split_mix64(&mut sm),
            split_mix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated worker its own stream.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed_from_u64(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Unbiased multiply-shift rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let l = m as u64;
            if l >= n {
                return (m >> 64) as u64;
            }
            // Low part small: check threshold to remain unbiased.
            let t = n.wrapping_neg() % n;
            if l >= t {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)` as `usize`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform integer in `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or open-ended.
    pub fn range(&mut self, range: impl std::ops::RangeBounds<usize>) -> usize {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let (Included(&lo), hi) = (range.start_bound(), range.end_bound()) else {
            panic!("range needs an inclusive start");
        };
        match hi {
            Included(&hi) => lo + self.below((hi - lo) as u64 + 1) as usize,
            Excluded(&hi) => lo + self.index(hi - lo),
            Unbounded => panic!("range needs an end"),
        }
    }

    /// Bernoulli trial with probability of success `p` (clamped to [0, 1]).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the Box-Muller transform (cached pairs).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0,1] so ln is finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative standard deviation");
        mean + std_dev * self.normal()
    }

    /// Log-normal sample: `exp(N(mu, sigma))`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Samples an index from an unnormalized weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value, or
    /// sums to zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "empty weight vector");
        let total: f64 = weights
            .iter()
            .map(|w| {
                assert!(w.is_finite() && *w >= 0.0, "invalid weight {w}");
                *w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (reservoir sampling).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

/// A stateless, position-addressable generator: draw `i` of the stream
/// named by `key` is a pure function of `(key, i)`, so any element can be
/// computed without the ones before it — in any order, or eight per
/// instruction in vector lanes — and skipping elements shifts nothing.
///
/// A position is 64 bits. Its high half selects a pair of round keys (one
/// SplitMix64 step over `key` and that half, so keys or halves one bit
/// apart give unrelated pairs); its low half is a counter, spread by a
/// Weyl multiply and put through a keyed two-round xorshift-multiply
/// permutation (multipliers from the hash-prospector search). A run of
/// consecutive counters therefore costs one add and two 32-bit multiplies
/// per draw, which AVX2 does eight lanes at a time. The quantizers
/// address element `j` of bucket `b` of a call as `(b << 32) | j`: every
/// bucket has round keys of its own and counters stay small. This is a
/// statistical generator for stochastic rounding, not a cipher.
///
/// # Examples
///
/// ```
/// use cgx_tensor::rng::CounterRng;
/// let stream = CounterRng::new(7);
/// assert_eq!(stream.u32_at(1000), CounterRng::new(7).u32_at(1000));
/// assert_ne!(stream.u32_at(1000), stream.u32_at(1001));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// The odd constant (2^32 / golden ratio) that spreads the counter.
    /// Public, with [`CounterRng::MULTIPLIERS`] and
    /// [`CounterRng::round_keys`], so that a vector kernel can evaluate
    /// [`CounterRng::mix`] lane-wise; `cgx_compress`'s quantizer does.
    pub const WEYL: u32 = 0x9E37_79B9;

    /// Multipliers of the two mixing rounds.
    pub const MULTIPLIERS: [u32; 2] = [0x21F0_AAAD, 0x735A_2D97];

    /// Names a stream. By convention a caller draws `key` once from its
    /// [`Rng`] per unit of work (one `compress` call).
    pub fn new(key: u64) -> Self {
        CounterRng { key }
    }

    /// Draw `i` of the stream.
    #[inline]
    pub fn u32_at(&self, i: u64) -> u32 {
        Self::mix(i as u32, self.round_keys(i >> 32))
    }

    /// The round keys of positions `(block << 32) | counter`.
    #[inline]
    pub fn round_keys(&self, block: u64) -> [u32; 2] {
        let mut state = self
            .key
            .wrapping_add(block.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let k = split_mix64(&mut state);
        [k as u32, (k >> 32) as u32]
    }

    /// The keyed permutation of a 32-bit counter: `u32_at(i) ==
    /// mix(i as u32, round_keys(i >> 32))`.
    #[inline]
    pub fn mix(counter: u32, keys: [u32; 2]) -> u32 {
        let mut x = counter.wrapping_mul(Self::WEYL) ^ keys[0];
        x = (x ^ (x >> 16)).wrapping_mul(Self::MULTIPLIERS[0]);
        x = (x ^ (x >> 15)).wrapping_add(keys[1]);
        x = x.wrapping_mul(Self::MULTIPLIERS[1]);
        x ^ (x >> 15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pearson correlation of two equally long samples.
    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va * vb).sqrt()
    }

    const DRAWS: u64 = 1 << 20;

    fn unit_draws(stream: CounterRng, from: u64) -> Vec<f64> {
        (from..from + DRAWS)
            .map(|i| stream.u32_at(i) as f64 / 4294967296.0)
            .collect()
    }

    #[test]
    fn counter_rng_is_a_pure_function_of_key_and_position() {
        let a = CounterRng::new(0xDEAD_BEEF);
        let forward: Vec<u32> = (0..64).map(|i| a.u32_at(i)).collect();
        let backward: Vec<u32> = (0..64).rev().map(|i| a.u32_at(i)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_eq!(CounterRng::new(0xDEAD_BEEF).u32_at(17), forward[17]);
        assert_ne!(CounterRng::new(0xDEAD_BEEE).u32_at(17), forward[17]);
        // Positions 2^32 apart share a low counter half but not a draw.
        let far: Vec<u32> = (0..64).map(|i| a.u32_at((1 << 32) + i)).collect();
        assert_eq!(far.iter().zip(&forward).filter(|(x, y)| x == y).count(), 0);
        for i in [0u64, 5, u32::MAX as u64, 1 << 32, (7 << 32) + 9] {
            assert_eq!(
                a.u32_at(i),
                CounterRng::mix(i as u32, a.round_keys(i >> 32)),
                "i={i}"
            );
        }
    }

    #[test]
    fn counter_rng_bits_are_balanced() {
        let stream = CounterRng::new(1);
        let mut ones = [0u64; 32];
        for i in 0..DRAWS {
            let x = stream.u32_at(i);
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += u64::from(x >> bit & 1);
            }
        }
        // Binomial(n, 1/2): sigma = sqrt(n)/2 = 512; allow 5 sigma.
        for (bit, &count) in ones.iter().enumerate() {
            let dev = (count as f64 - DRAWS as f64 / 2.0).abs();
            assert!(dev < 5.0 * 512.0, "bit {bit}: {count} ones of {DRAWS}");
        }
    }

    #[test]
    fn counter_rng_neighbours_are_uncorrelated() {
        // |r| of independent samples is ~ N(0, 1/sqrt(n)) ~ 0.001.
        let u = unit_draws(CounterRng::new(2), 0);
        let lag1 = correlation(&u[..u.len() - 1], &u[1..]);
        assert!(lag1.abs() < 0.005, "lag-1 correlation {lag1}");
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        assert!((mean - 0.5).abs() < 0.002, "mean {mean}");
    }

    #[test]
    fn counter_rng_keys_one_bit_apart_give_unrelated_streams() {
        let key = 0x0123_4567_89AB_CDEF;
        let base = unit_draws(CounterRng::new(key), 0);
        for bit in [0u32, 31, 32, 63] {
            let other = unit_draws(CounterRng::new(key ^ (1 << bit)), 0);
            let r = correlation(&base, &other);
            assert!(r.abs() < 0.005, "key bit {bit}: correlation {r}");
        }
        // The same holds for one stream's consecutive 2^32-position blocks.
        let next_block = unit_draws(CounterRng::new(key), 1 << 32);
        let r = correlation(&base, &next_block);
        assert!(r.abs() < 0.005, "adjacent blocks: correlation {r}");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut parent = Rng::seed_from_u64(5);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from_u64(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from_u64(1).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_with_scales() {
        let mut rng = Rng::seed_from_u64(19);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.normal_with(3.0, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Rng::seed_from_u64(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.categorical(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_zero_weights_panics() {
        Rng::seed_from_u64(1).categorical(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(29);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(31);
        let idx = rng.sample_indices(100, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "indices must be distinct");
        assert!(idx.iter().all(|i| *i < 100));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::seed_from_u64(37);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }
}
