//! Property-based tests over the compression substrate: wire-size
//! predictions are exact, round-trips preserve shape, error bounds hold,
//! and the codecs are robust to adversarial inputs.

use cgx::compress::{compression_error, CompressionScheme, Compressor, NormKind, QsgdCompressor};
use cgx::tensor::{cases, Rng, Tensor};

/// Gradient-like data with mixed scales, including exact zeros.
fn gradient(rng: &mut Rng, max_len: usize) -> Vec<f32> {
    (0..rng.range(1..max_len))
        .map(|_| match rng.index(3) {
            0 => rng.uniform_range(-1e3, 1e3) as f32,
            1 => rng.uniform_range(-1e-4, 1e-4) as f32,
            _ => 0.0,
        })
        .collect()
}

#[test]
fn qsgd_payload_matches_prediction() {
    cases(64, |rng| {
        let g = Tensor::from_slice(&gradient(rng, 4000));
        let mut q = QsgdCompressor::new(rng.range(2..=8) as u32, rng.range(1..2000));
        let enc = q.compress(&g, rng);
        assert_eq!(enc.payload_bytes(), q.compressed_bytes(g.len()));
        let rt = q.decompress(&enc);
        assert_eq!(rt.shape(), g.shape());
        assert!(rt.as_slice().iter().all(|x| x.is_finite()));
    });
}

#[test]
fn qsgd_error_bounded_by_one_grid_step_per_element() {
    cases(64, |rng| {
        let data = gradient(rng, 2000);
        let (bits, bucket) = (rng.range(2..=8) as u32, rng.range(1..512));
        let g = Tensor::from_slice(&data);
        let mut q = QsgdCompressor::with_norm(bits, bucket, NormKind::Max);
        let enc = q.compress(&g, rng);
        let rt = q.decompress(&enc);
        let s = ((1u32 << (bits - 1)) - 1) as f64;
        for (chunk, rt_chunk) in data.chunks(bucket).zip(rt.as_slice().chunks(bucket)) {
            let max = chunk.iter().fold(0.0f64, |m, x| m.max(x.abs() as f64));
            let step = max / s;
            for (a, b) in chunk.iter().zip(rt_chunk) {
                let err = (*a as f64 - *b as f64).abs();
                assert!(
                    err <= step * (1.0 + 1e-5) + 1e-12,
                    "err {err} > step {step}"
                );
            }
        }
    });
}

#[test]
fn all_schemes_roundtrip_any_shape() {
    cases(64, |rng| {
        let dims = [rng.range(1..40), rng.range(1..40)];
        let g = Tensor::randn(rng, &dims);
        for scheme in [
            CompressionScheme::None,
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::TopK { ratio: 0.25 },
            CompressionScheme::PowerSgd { rank: 2 },
            CompressionScheme::OneBit { bucket_size: 32 },
            CompressionScheme::Fake { gamma: 4.0 },
        ] {
            let mut c = scheme.build();
            let enc = c.compress(&g, rng);
            let rt = c.decompress(&enc);
            assert_eq!(rt.shape(), g.shape(), "scheme {scheme}");
            assert!(
                rt.as_slice().iter().all(|x| x.is_finite()),
                "scheme {scheme}"
            );
        }
    });
}

#[test]
fn compressed_size_monotone_in_bits() {
    cases(64, |rng| {
        let n = rng.range(1..100_000);
        let mut last = 0usize;
        for bits in 2u32..=8 {
            let sz = QsgdCompressor::new(bits, 128).compressed_bytes(n);
            assert!(sz >= last);
            last = sz;
        }
        // And always strictly below fp32 for reasonable sizes.
        if n >= 64 {
            assert!(QsgdCompressor::new(8, 128).compressed_bytes(n) < 4 * n);
        }
    });
}

#[test]
fn lossless_codec_error_is_exactly_zero() {
    cases(64, |rng| {
        let g = Tensor::from_slice(&gradient(rng, 2000));
        let mut c = CompressionScheme::None.build();
        assert_eq!(compression_error(c.as_mut(), &g, rng), 0.0);
    });
}

#[test]
fn quantization_is_unbiased_in_expectation() {
    cases(64, |rng| {
        // Single repeated value across a bucket: the stochastic rounding
        // mean must approach the true value.
        let value = rng.uniform_range(-10.0, 10.0) as f32;
        let g = Tensor::from_slice(&[value, -2.0 * value.abs() - 1.0, 0.5, -0.25]);
        let mut q = QsgdCompressor::new(rng.range(2..=4) as u32, 4);
        let trials = 4000;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            let enc = q.compress(&g, rng);
            acc += q.decompress(&enc)[0] as f64;
        }
        let mean = acc / trials as f64;
        let scale = (2.0 * value.abs() + 1.0) as f64;
        assert!(
            (mean - value as f64).abs() < 0.1 * scale.max(0.5),
            "mean {mean} vs value {value}"
        );
    });
}
