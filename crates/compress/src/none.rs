//! Lossless passthrough "compression" — the FP32 baseline.

use crate::{
    bytes_to_f32s, f32s_to_bytes, read_f32s_le, write_f32s_le, Compressor, Encoded, ScratchPool,
};
use cgx_tensor::{Rng, Shape, Tensor};

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
/// assert_eq!(c.decompress(&enc).as_slice(), g.as_slice());
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

    fn compress(&mut self, grad: &Tensor, _rng: &mut Rng) -> Encoded {
        Encoded::new(grad.shape().clone(), f32s_to_bytes(grad.as_slice()))
    }

    fn compress_slice(&mut self, data: &[f32], _rng: &mut Rng, pool: &ScratchPool) -> Encoded {
        let mut buf = pool.take_buf(data.len() * 4);
        buf.resize(data.len() * 4, 0);
        write_f32s_le(data, &mut buf);
        Encoded::new(Shape::vector(data.len()), buf.into())
    }

    fn compress_pooled(&mut self, grad: &Tensor, rng: &mut Rng, pool: &ScratchPool) -> Encoded {
        let flat = self.compress_slice(grad.as_slice(), rng, pool);
        Encoded::new(grad.shape().clone(), flat.into_payload())
    }

    fn decompress(&self, enc: &Encoded) -> Tensor {
        Tensor::from_vec(enc.shape().dims(), bytes_to_f32s(enc.payload()))
    }

    fn decompress_into(&self, enc: &Encoded, out: &mut [f32]) {
        read_f32s_le(enc.payload(), out);
    }

    fn decompress_add_into(&self, enc: &Encoded, out: &mut [f32]) {
        let b = enc.payload();
        assert_eq!(
            b.len(),
            out.len() * 4,
            "decompress_add_into length mismatch"
        );
        for (o, c) in out.iter_mut().zip(b.chunks_exact(4)) {
            *o += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        n * 4
    }

    fn is_lossless(&self) -> bool {
        true
    }

    fn aggregate_encoded(&self, a: &Encoded, b: &Encoded) -> Option<Encoded> {
        if a.shape() != b.shape() {
            return None;
        }
        let mut fa = bytes_to_f32s(a.payload());
        let fb = bytes_to_f32s(b.payload());
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x += y;
        }
        Some(Encoded::new(a.shape().clone(), f32s_to_bytes(&fa)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    #[test]
    fn bit_exact_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::randn(&mut rng, &[257]);
        let mut c = NoneCompressor::new();
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), g.as_slice());
    }

    #[test]
    fn aggregate_sums_payloads() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let mut c = NoneCompressor::new();
        let ea = c.compress(&a, &mut rng);
        let eb = c.compress(&b, &mut rng);
        let sum = c.aggregate_encoded(&ea, &eb).expect("associative");
        assert_eq!(c.decompress(&sum).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn payload_is_4n_bytes() {
        assert_eq!(NoneCompressor::new().compressed_bytes(100), 400);
    }
}
