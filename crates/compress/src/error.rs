//! Compression-error metrics.
//!
//! The adaptive compression problem (paper Section 5) is formulated around
//! the L2 norm of the compression error, "which is known to be associated
//! with convergence" (Karimireddy et al., 2019). These helpers measure it.

use crate::{own_payload, Compressor};
use cgx_tensor::{Rng, Tensor};

/// L2 norm of `g - decompress(compress(g))`.
pub fn compression_error(c: &mut dyn Compressor, grad: &Tensor, rng: &mut Rng) -> f64 {
    let enc = c.compress(grad, rng);
    own_payload(c.decompress(&enc)).l2_distance(grad)
}

/// Compression error normalized by the gradient norm (0 for a zero
/// gradient).
pub fn relative_compression_error(c: &mut dyn Compressor, grad: &Tensor, rng: &mut Rng) -> f64 {
    let norm = grad.norm2();
    if norm == 0.0 {
        0.0
    } else {
        compression_error(c, grad, rng) / norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoneCompressor, QsgdCompressor};

    #[test]
    fn lossless_has_zero_error() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::randn(&mut rng, &[128]);
        let mut c = NoneCompressor::new();
        assert_eq!(compression_error(&mut c, &g, &mut rng), 0.0);
    }

    #[test]
    fn relative_error_of_zero_gradient_is_zero() {
        let mut rng = Rng::seed_from_u64(2);
        let g = Tensor::zeros(&[16]);
        let mut c = QsgdCompressor::new(4, 16);
        assert_eq!(relative_compression_error(&mut c, &g, &mut rng), 0.0);
    }

    #[test]
    fn quantization_error_scales_with_fewer_bits() {
        let mut rng = Rng::seed_from_u64(3);
        let g = Tensor::randn(&mut rng, &[4096]);
        let mut coarse = QsgdCompressor::new(2, 128);
        let mut fine = QsgdCompressor::new(8, 128);
        let e_coarse = relative_compression_error(&mut coarse, &g, &mut rng);
        let e_fine = relative_compression_error(&mut fine, &g, &mut rng);
        assert!(e_coarse > 4.0 * e_fine, "{e_coarse} vs {e_fine}");
    }
}
