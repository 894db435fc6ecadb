//! Declarative compression configuration.
//!
//! CGX's user-facing API selects compression per layer by *parameters*
//! (bit-width, bucket size, …) rather than by constructing operator objects.
//! [`CompressionScheme`] is that parameter record; `build()` instantiates the
//! matching [`Compressor`].

use crate::fake::FakeCompressor;
use crate::{
    Compressor, ErrorFeedback, NoneCompressor, NormKind, NuqsgdCompressor, OneBitCompressor,
    PowerSgdCompressor, QsgdCompressor, TopKCompressor,
};

/// A serializable description of a compression configuration.
///
/// # Examples
///
/// ```
/// use cgx_compress::CompressionScheme;
/// let scheme = CompressionScheme::Qsgd { bits: 4, bucket_size: 128 };
/// let c = scheme.build();
/// assert_eq!(c.compressed_bytes(128), 68); // 4 + 128*4/8
/// assert_eq!(scheme.nominal_bits_per_element(), 4.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionScheme {
    /// Raw FP32 (the uncompressed baseline).
    None,
    /// Stochastic quantization (the CGX default: 4 bits, bucket 128).
    Qsgd {
        /// Bit width per component (2..=8).
        bits: u32,
        /// Bucket size for the per-bucket scale.
        bucket_size: usize,
    },
    /// Non-uniform (geometric-grid) stochastic quantization.
    Nuqsgd {
        /// Bit width per component (2..=8).
        bits: u32,
        /// Bucket size for the per-bucket scale.
        bucket_size: usize,
    },
    /// Magnitude sparsification with error feedback.
    TopK {
        /// Fraction of components kept, in (0, 1].
        ratio: f64,
    },
    /// Low-rank decomposition.
    PowerSgd {
        /// Decomposition rank.
        rank: usize,
    },
    /// Sign compression with error feedback.
    OneBit {
        /// Bucket size for the per-bucket mean magnitudes.
        bucket_size: usize,
    },
    /// Transmit the first `N/gamma` elements (motivation experiments only).
    Fake {
        /// Compression ratio γ >= 1.
        gamma: f64,
    },
}

impl CompressionScheme {
    /// The paper's accuracy-recovering default: 4-bit QSGD with bucket 128.
    pub fn cgx_default() -> Self {
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        }
    }

    /// Instantiates the corresponding compressor. Biased schemes (TopK,
    /// OneBit) come wrapped in [`ErrorFeedback`].
    pub fn build(&self) -> Box<dyn Compressor> {
        match *self {
            CompressionScheme::None => Box::new(NoneCompressor::new()),
            CompressionScheme::Qsgd { bits, bucket_size } => {
                Box::new(QsgdCompressor::with_norm(bits, bucket_size, NormKind::Max))
            }
            CompressionScheme::Nuqsgd { bits, bucket_size } => {
                Box::new(NuqsgdCompressor::new(bits, bucket_size))
            }
            CompressionScheme::TopK { ratio } => {
                Box::new(ErrorFeedback::new(Box::new(TopKCompressor::new(ratio))))
            }
            CompressionScheme::PowerSgd { rank } => Box::new(PowerSgdCompressor::new(rank)),
            CompressionScheme::OneBit { bucket_size } => Box::new(ErrorFeedback::new(Box::new(
                OneBitCompressor::new(bucket_size),
            ))),
            CompressionScheme::Fake { gamma } => Box::new(FakeCompressor::new(gamma)),
        }
    }

    /// Average wire bits per gradient element (asymptotic, ignoring
    /// rounding), used for quick bandwidth estimates.
    pub fn nominal_bits_per_element(&self) -> f64 {
        match *self {
            CompressionScheme::None => 32.0,
            CompressionScheme::Qsgd { bits, bucket_size }
            | CompressionScheme::Nuqsgd { bits, bucket_size } => {
                bits as f64 + 32.0 / bucket_size as f64
            }
            CompressionScheme::TopK { ratio } => 64.0 * ratio,
            CompressionScheme::PowerSgd { .. } => f64::NAN, // shape-dependent
            CompressionScheme::OneBit { bucket_size } => 1.0 + 64.0 / bucket_size as f64,
            CompressionScheme::Fake { gamma } => 32.0 / gamma,
        }
    }
}

impl Default for CompressionScheme {
    fn default() -> Self {
        CompressionScheme::cgx_default()
    }
}

impl std::fmt::Display for CompressionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CompressionScheme::None => write!(f, "fp32"),
            CompressionScheme::Qsgd { bits, bucket_size } => {
                write!(f, "qsgd-{bits}b-{bucket_size}")
            }
            CompressionScheme::Nuqsgd { bits, bucket_size } => {
                write!(f, "nuqsgd-{bits}b-{bucket_size}")
            }
            CompressionScheme::TopK { ratio } => write!(f, "topk-{}", ratio),
            CompressionScheme::PowerSgd { rank } => write!(f, "powersgd-r{rank}"),
            CompressionScheme::OneBit { bucket_size } => write!(f, "onebit-{bucket_size}"),
            CompressionScheme::Fake { gamma } => write!(f, "fake-x{gamma}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::{Rng, Tensor};

    #[test]
    fn default_is_4bit_bucket_128() {
        match CompressionScheme::default() {
            CompressionScheme::Qsgd { bits, bucket_size } => {
                assert_eq!(bits, 4);
                assert_eq!(bucket_size, 128);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn build_produces_working_compressors() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::randn(&mut rng, &[64, 8]);
        for scheme in [
            CompressionScheme::None,
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::Nuqsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::TopK { ratio: 0.1 },
            CompressionScheme::PowerSgd { rank: 2 },
            CompressionScheme::OneBit { bucket_size: 64 },
            CompressionScheme::Fake { gamma: 10.0 },
        ] {
            let mut c = scheme.build();
            let enc = c.compress(&g, &mut rng);
            let rt = c.decompress(&enc).unwrap();
            assert_eq!(rt.shape(), g.shape(), "scheme {scheme}");
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(CompressionScheme::cgx_default().to_string(), "qsgd-4b-128");
        assert_eq!(CompressionScheme::None.to_string(), "fp32");
    }
}
