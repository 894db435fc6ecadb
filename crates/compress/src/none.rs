//! Lossless passthrough "compression" — the FP32 baseline.

use crate::{
    exact_len, f32s_to_bytes, read_f32s_le, Compressor, Encoded, PayloadError, ScratchPool,
};
use cgx_tensor::{Rng, Shape};

/// Identity codec: ships raw `f32`s. This is the uncompressed NCCL/Horovod
/// baseline in every experiment.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, NoneCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::from_slice(&[1.0, -2.0]);
/// let mut c = NoneCompressor::new();
/// let enc = c.compress(&g, &mut rng);
/// assert_eq!(c.decompress(&enc).unwrap().as_slice(), g.as_slice());
/// assert!(c.is_lossless());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoneCompressor;

impl NoneCompressor {
    /// Creates the passthrough codec.
    pub fn new() -> Self {
        NoneCompressor
    }
}

impl Compressor for NoneCompressor {
    fn name(&self) -> String {
        "none(fp32)".to_string()
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        _rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        Encoded::new(shape, f32s_to_bytes(data, pool))
    }

    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let b = enc.payload();
        if !add {
            return read_f32s_le(b, out);
        }
        exact_len(b, out.len() * 4)?;
        for (o, c) in out.iter_mut().zip(b.chunks_exact(4)) {
            *o += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        Ok(())
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        n * 4
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;
    use cgx_tensor::Tensor;

    #[test]
    fn bit_exact_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::randn(&mut rng, &[257]);
        let mut c = NoneCompressor::new();
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), g.as_slice());
    }

    #[test]
    fn payload_is_4n_bytes() {
        assert_eq!(NoneCompressor::new().compressed_bytes(100), 400);
    }
}
