//! The "fake" compressor behind the paper's motivating experiment.
//!
//! Section 2.1: *"assuming a buffer of size N to be transmitted and a target
//! compression ratio γ ≥ 1, we only transmit the first k = N/γ elements."*
//! This isolates the bandwidth term — reconstruction quality is irrelevant,
//! only transmitted bytes matter — and produces Figure 1 and the bandwidth
//! ceiling of Table 8.

use crate::{exact_len, f32s_to_bytes, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{Rng, Shape};

/// Transmits only the first `N/γ` elements of the buffer.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, FakeCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// let mut c = FakeCompressor::new(2.0);
/// let enc = c.compress(&g, &mut rng);
/// assert_eq!(enc.payload_bytes(), 8); // 2 of 4 f32s
/// ```
#[derive(Debug, Clone)]
pub struct FakeCompressor {
    gamma: f64,
}

impl FakeCompressor {
    /// Creates a fake compressor with ratio `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma < 1`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma >= 1.0, "compression ratio must be >= 1, got {gamma}");
        FakeCompressor { gamma }
    }

    /// The configured ratio γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    fn k_for(&self, n: usize) -> usize {
        ((n as f64 / self.gamma).round() as usize).min(n).max(1)
    }
}

impl Compressor for FakeCompressor {
    fn name(&self) -> String {
        format!("fake(x{})", self.gamma)
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        _rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        Encoded::new(shape, f32s_to_bytes(&data[..self.k_for(data.len())], pool))
    }

    /// The head the payload carries, then zeros.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let payload = enc.payload();
        exact_len(payload, self.compressed_bytes(out.len()))?;
        let head = payload.chunks_exact(4);
        let head = head.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        for (o, v) in out.iter_mut().zip(head.chain(std::iter::repeat(0.0))) {
            *o = if add { *o + v } else { v };
        }
        Ok(())
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        self.k_for(n) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;
    use cgx_tensor::Tensor;

    #[test]
    fn gamma_one_is_identity() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let mut c = FakeCompressor::new(1.0);
        assert_eq!(round_trip(&mut c, &g, &mut rng).as_slice(), g.as_slice());
    }

    #[test]
    fn high_gamma_keeps_head_only() {
        let mut rng = Rng::seed_from_u64(2);
        let g = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut c = FakeCompressor::new(4.0);
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn payload_scales_inversely_with_gamma() {
        let c2 = FakeCompressor::new(2.0);
        let c8 = FakeCompressor::new(8.0);
        assert_eq!(c2.compressed_bytes(1024), 4 * 512);
        assert_eq!(c8.compressed_bytes(1024), 4 * 128);
    }

    #[test]
    fn at_least_one_element_transmits() {
        assert_eq!(FakeCompressor::new(1e9).compressed_bytes(10), 4);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_unit_gamma_panics() {
        FakeCompressor::new(0.5);
    }
}
