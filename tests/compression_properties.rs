//! Property-based tests over the compression substrate: wire-size
//! predictions are exact, round-trips preserve shape, error bounds hold,
//! and the codecs are robust to adversarial inputs.

use cgx_compress::{
    compression_error, CompressionScheme, Compressor, Encoded, NormKind, PayloadError,
    PowerSgdCompressor, QsgdCompressor, TopKCompressor,
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

/// The exact QSGD payload length of `data`: `compressed_bytes`' bits
/// less the codes of every bucket that holds only `±0`.
fn qsgd_payload_len(q: &QsgdCompressor, data: &[f32]) -> usize {
    let skipped: usize = data
        .chunks(q.bucket_size())
        .filter(|bucket| bucket.iter().all(|v| *v == 0.0))
        .map(<[f32]>::len)
        .sum();
    let buckets = data.len().div_ceil(q.bucket_size());
    (buckets * 32 + (data.len() - skipped) * q.bits() as usize).div_ceil(8)
}

#[test]
fn qsgd_payload_matches_prediction() {
    cases(64, |rng| {
        let g = Tensor::from_slice(&gradient(rng, 4000));
        let mut q = QsgdCompressor::new(rng.range(2..=8) as u32, rng.range(1..2000));
        let enc = q.compress(&g, rng);
        assert_eq!(enc.payload_bytes(), qsgd_payload_len(&q, g.as_slice()));
        let rt = q.decompress(&enc).unwrap();
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
        let rt = q.decompress(&enc).unwrap();
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
            let rt = c.decompress(&enc).unwrap();
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
            acc += q.decompress(&enc).unwrap()[0] as f64;
        }
        let mean = acc / trials as f64;
        let scale = (2.0 * value.abs() + 1.0) as f64;
        assert!(
            (mean - value as f64).abs() < 0.1 * scale.max(0.5),
            "mean {mean} vs value {value}"
        );
    });
}

/// Writes `value` over the 32 bits at bit `at` of `payload`, LSB-first as
/// the bit writer lays a norm field down.
fn put_u32_at_bit(payload: &mut [u8], at: usize, value: u32) {
    for i in 0..32 {
        let (byte, bit) = ((at + i) / 8, (at + i) % 8);
        let set = (value >> i) & 1 == 1;
        payload[byte] = (payload[byte] & !(1 << bit)) | (u8::from(set) << bit);
    }
}

/// Every way `c` decodes `payload` as a chunk of `shape`, each from a
/// fresh output: `decompress`, `decompress_into` and `decompress_add_into`.
/// A panic fails the test that asked.
fn every_decode(c: &dyn Compressor, enc: &Encoded) -> [Result<(), PayloadError>; 3] {
    let n = enc.shape().len();
    [
        c.decompress(enc).map(|_| ()),
        c.decompress_into(enc, &mut vec![1.0; n]),
        c.decompress_add_into(enc, &mut vec![1.0; n]),
    ]
}

#[test]
fn hostile_qsgd_payloads_are_refused_or_decode_cleanly() {
    // A payload off a socket, cut short, extended, or with one bucket's
    // norm field turned into the zero-bucket marker or out of it: a cut
    // or an extension is refused by every decoder, and a flipped field
    // decodes or is refused, never with a panic.
    cases(96, |rng| {
        let data = gradient(rng, 3000);
        let (bits, bucket) = (rng.range(2..=8) as u32, rng.range(1..300));
        let mut q = QsgdCompressor::new(bits, bucket);
        let enc = q.compress(&Tensor::from_slice(&data), rng);
        let n = data.len();
        assert_eq!(every_decode(&q, &enc), [Ok(()); 3]);
        let honest = enc.payload().to_vec();
        let cut = rng.range(1..=honest.len());
        let extended = [honest.as_slice(), &vec![0u8; rng.range(1..9)]].concat();
        // Bucket `b`'s norm field starts after the fields and codes of
        // the buckets before it.
        let b = rng.index(n.div_ceil(bucket));
        let field_at: usize = data
            .chunks(bucket)
            .take(b)
            .map(|chunk| match chunk.iter().all(|v| *v == 0.0) {
                true => 32,
                false => 32 + chunk.len() * bits as usize,
            })
            .sum();
        let zeros = data
            .chunks(bucket)
            .nth(b)
            .unwrap()
            .iter()
            .all(|v| *v == 0.0);
        let mut flipped = honest.clone();
        put_u32_at_bit(&mut flipped, field_at, if zeros { 0 } else { 0x8000_0000 });
        for (what, payload) in [
            ("cut", honest[..honest.len() - cut].to_vec()),
            ("extended", extended),
            ("flipped", flipped),
        ] {
            let what = format!("{what}: bits={bits} bucket={bucket} n={n} b={b}");
            let enc = Encoded::new(enc.shape().clone(), payload.into());
            for decoded in every_decode(&q, &enc) {
                assert!(decoded.is_err() || what.starts_with("flipped"), "{what}");
            }
        }
    });
}

/// A PowerSGD payload: the header `[m, n, r]` and `floats` factor
/// values after it, every one an `f32` little-endian.
fn powersgd_payload(header: [f32; 3], floats: usize) -> Vec<u8> {
    let values = header
        .into_iter()
        .chain((0..floats).map(|i| i as f32 * 0.25));
    values.flat_map(f32::to_le_bytes).collect()
}

#[test]
fn hostile_powersgd_payloads_are_refused() {
    // A PowerSGD frame off a socket is its header `[m, n, r]` and the
    // factors `P` (m × r) and `Q` (n × r). The decoder reads the header:
    // a payload cut, extended or not whole in `f32`s, one whose dims do
    // not multiply to the element count or are no finite integers, or
    // whose rank is not the codec's for those dims is refused; the honest
    // one decodes.
    cases(64, |rng| {
        let (m, n, rank) = (rng.range(1..40), rng.range(1..40), rng.range(1..6));
        let g = Tensor::randn(rng, &[m, n]);
        let mut c = PowerSgdCompressor::new(rank);
        let enc = c.compress(&g, rng);
        let r = rank.min(m).min(n);
        assert_eq!(every_decode(&c, &enc), [Ok(()); 3]);
        assert_eq!(c.decompress(&enc).unwrap().shape(), g.shape());
        let honest = enc.payload().to_vec();
        let header = [m as f32, n as f32, r as f32];
        let cut = rng.range(1..=honest.len());
        let (mut nan_dims, mut half_dims) = (header, header);
        nan_dims[rng.index(3)] = f32::NAN;
        half_dims[rng.index(2)] += 0.5;
        for (what, payload) in [
            ("cut", honest[..honest.len() - cut].to_vec()),
            ("extended", [&honest[..], &[0; 4]].concat()),
            ("unaligned", [&honest[..], &[0; 1]].concat()),
            ("thirteen bytes", honest[..13].to_vec()),
            (
                "wrong dims",
                powersgd_payload([(m + 1) as f32, n as f32, r as f32], (m + 1 + n) * r),
            ),
            (
                "wrong rank",
                powersgd_payload([m as f32, n as f32, (r + 1) as f32], (m + n) * (r + 1)),
            ),
            ("NaN dims", powersgd_payload(nan_dims, (m + n) * r)),
            ("fractional dims", powersgd_payload(half_dims, (m + n) * r)),
            (
                "infinite dims",
                powersgd_payload([f32::INFINITY, n as f32, r as f32], (m + n) * r),
            ),
        ] {
            let what = format!("{what}: m={m} n={n} rank={rank}");
            let enc = Encoded::new(enc.shape().clone(), payload.into());
            for decoded in every_decode(&c, &enc) {
                assert!(decoded.is_err(), "{what}: accepted");
            }
        }
    });
}

#[test]
fn hostile_topk_payloads_are_refused() {
    // A TopK frame off a socket is `k` and `k` (index, value) pairs. Of
    // the right length, random bytes, a `k` field that is not the codec's
    // for the element count, one larger than the payload holds, or one
    // index past the chunk; and the honest payload cut short or extended:
    // every decoder refuses each, and none panics. The honest one decodes.
    cases(64, |rng| {
        let n = rng.range(1..600);
        let g = Tensor::randn(rng, &[n]);
        let mut c = TopKCompressor::new(rng.uniform_range(0.01, 1.0));
        let enc = c.compress(&g, rng);
        let k = c.k_for(n);
        assert_eq!(every_decode(&c, &enc), [Ok(()); 3]);
        let honest = enc.payload().to_vec();
        assert_eq!(honest.len(), 4 + 8 * k);
        let with_k = |field: u32| [&field.to_le_bytes()[..], &honest[4..]].concat();
        let mut random: Vec<u8> = (0..honest.len()).map(|_| rng.next_u32() as u8).collect();
        // Random bytes whose `k` is the codec's still hold indices past
        // any chunk of fewer than 2^32 elements with overwhelming odds.
        random[..4].copy_from_slice(&(k as u32).to_le_bytes());
        let mut past = honest.clone();
        let pair = 4 + 8 * rng.index(k);
        let index = n as u32 + rng.range(0..1000) as u32;
        past[pair..pair + 4].copy_from_slice(&index.to_le_bytes());
        for (what, payload) in [
            ("random", random),
            ("a smaller k", with_k(rng.index(k) as u32)),
            (
                "k past the payload",
                with_k((k + 1 + rng.range(0..1000)) as u32),
            ),
            ("index past the chunk", past),
            ("cut", honest[..rng.index(honest.len())].to_vec()),
            (
                "extended",
                [&honest[..], &vec![0; rng.range(1..9)]].concat(),
            ),
        ] {
            let what = format!("{what}: n={n} k={k}");
            let enc = Encoded::new(enc.shape().clone(), payload.into());
            for decoded in every_decode(&c, &enc) {
                assert!(decoded.is_err(), "{what}: accepted");
            }
        }
    });
}
