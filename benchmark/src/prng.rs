//! The harness's own generator. Inputs (gradients, model init, batches)
//! come from here and never from `cgx_tensor::Rng`, so a change to the
//! program's generator cannot change what the benchmark feeds it.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, stream)`: the state is itself a
    /// SplitMix64 output, so nearby stream ids do not give nearby states.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (the modulo bias at `n` ≪ 2⁶⁴ is far
    /// below anything a benchmark input can show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fills `out` with `N(0, sigma²)` values, two per Box–Muller draw.
    pub fn fill_gaussian(&mut self, out: &mut [f32], sigma: f32) {
        for pair in out.chunks_mut(2) {
            let r = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
            let (sin, cos) = (std::f64::consts::TAU * self.uniform()).sin_cos();
            pair[0] = (r * cos) as f32 * sigma;
            if let Some(second) = pair.get_mut(1) {
                *second = (r * sin) as f32 * sigma;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of SplitMix64 from state 0 (Vigna's reference C).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed, stream| {
            let mut g = SplitMix64::stream(seed, stream);
            let mut v = vec![0f32; 33];
            g.fill_gaussian(&mut v, 0.5);
            v
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
    }

    #[test]
    fn gaussian_has_the_asked_spread() {
        let mut g = SplitMix64::new(42);
        let mut v = vec![0f32; 200_001];
        g.fill_gaussian(&mut v, 2.0);
        let n = v.len() as f64;
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.02, "sigma {}", var.sqrt());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_and_below_stay_in_range() {
        let mut g = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = g.uniform();
            assert!((0.0..1.0).contains(&u));
            assert!(g.below(7) < 7);
        }
    }
}
