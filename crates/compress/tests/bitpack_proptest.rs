//! Property tests for the fused decode-accumulate kernels and recycled
//! pool buffers: the specialized paths must be bit- and ULP-identical to
//! the generic ones they replace. The word-wide bitpacking fast path's
//! properties are `bitpack`'s unit tests.

use cgx_compress::{
    CompressionScheme, Compressor, Encoded, NuqsgdCompressor, OneBitCompressor, QsgdCompressor,
    ScratchPool, TopKCompressor,
};
use cgx_tensor::{Rng, Tensor};
use cgx_testkit::cases;

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

/// Fused `decompress_add_into` must equal decompress-then-add to the last
/// ULP for the scheme under test.
fn assert_fused_matches(comp: &mut dyn Compressor, rng: &mut Rng) {
    let data = gradient(rng, 1200);
    let enc: Encoded = comp.compress(&Tensor::from_slice(&data), rng);
    // Reference: materialize the decode, then add elementwise.
    let decoded = comp.decompress(&enc).unwrap();
    let base = Tensor::randn(rng, &[data.len()]);
    let mut expect: Vec<f32> = base.as_slice().to_vec();
    for (e, d) in expect.iter_mut().zip(decoded.as_slice()) {
        *e += *d;
    }
    // Fused path.
    let mut fused: Vec<f32> = base.as_slice().to_vec();
    comp.decompress_add_into(&enc, &mut fused).unwrap();
    for (i, (a, b)) in fused.iter().zip(&expect).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {i} diverged: fused {a} vs reference {b}"
        );
    }
}

#[test]
fn qsgd_fused_decode_add_is_ulp_exact() {
    cases(64, |rng| {
        let mut c = QsgdCompressor::new(rng.range(2..=8) as u32, rng.range(1..512));
        assert_fused_matches(&mut c, rng);
    });
}

#[test]
fn nuqsgd_fused_decode_add_is_ulp_exact() {
    cases(64, |rng| {
        let mut c = NuqsgdCompressor::new(rng.range(2..=6) as u32, rng.range(1..512));
        assert_fused_matches(&mut c, rng);
    });
}

#[test]
fn onebit_fused_decode_add_is_ulp_exact() {
    cases(64, |rng| {
        let mut c = OneBitCompressor::new(rng.range(1..512));
        assert_fused_matches(&mut c, rng);
    });
}

#[test]
fn topk_fused_decode_add_is_ulp_exact() {
    cases(64, |rng| {
        let mut c = TopKCompressor::new(rng.uniform_range(0.01, 1.0));
        assert_fused_matches(&mut c, rng);
    });
}

/// Every scheme, with parameters drawn from `rng`.
fn every_scheme(rng: &mut Rng) -> [CompressionScheme; 7] {
    let (bits, bucket_size) = (rng.range(2..=8) as u32, rng.range(1..512));
    [
        CompressionScheme::None,
        CompressionScheme::Qsgd { bits, bucket_size },
        CompressionScheme::Nuqsgd { bits, bucket_size },
        CompressionScheme::TopK {
            ratio: rng.uniform_range(0.01, 1.0),
        },
        CompressionScheme::PowerSgd {
            rank: rng.range(1..5),
        },
        CompressionScheme::OneBit { bucket_size },
        CompressionScheme::Fake {
            gamma: rng.uniform_range(1.0, 8.0),
        },
    ]
}

#[test]
fn recycled_pool_buffers_encode_the_same_bytes() {
    // An encode takes its payload buffer (and error feedback its scratch)
    // from the pool, whose free buffers are other payloads recycled —
    // any length, capacity and contents. Whatever they hold, every
    // scheme's payload, twice over (stateful codecs on their second
    // call), is the one it writes through a fresh pool.
    cases(48, |rng| {
        let (rows, cols) = (rng.range(1..48), rng.range(1..48));
        let data: Vec<f32> = gradient(rng, 4000)
            .into_iter()
            .cycle()
            .take(rows * cols)
            .collect();
        let shape = Tensor::zeros(&[rows, cols]).shape().clone();
        for scheme in every_scheme(rng) {
            let (fresh, recycled) = (ScratchPool::new(), ScratchPool::new());
            for other in every_scheme(rng) {
                let junk = gradient(rng, 3000);
                recycled.recycle(other.build().compress_slice(&junk, rng, &recycled));
                recycled.put_f32(vec![f32::NAN; rng.range(0..3000)]);
            }
            let (mut a, mut b) = (scheme.build(), scheme.build());
            let seed = rng.next_u64();
            let (mut rng_a, mut rng_b) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
            for call in 0..2 {
                let want = a.encode(shape.clone(), 0, &data, &mut rng_a, &fresh);
                let reuses = recycled.reuses();
                let got = b.encode(shape.clone(), 0, &data, &mut rng_b, &recycled);
                assert!(
                    recycled.reuses() > reuses,
                    "{scheme}: the buffer was not recycled"
                );
                assert_eq!(
                    got.payload(),
                    want.payload(),
                    "{scheme} {rows}x{cols} call {call}"
                );
                assert_eq!(got.shape(), want.shape());
                recycled.recycle(got);
            }
        }
    });
}
