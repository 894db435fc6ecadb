//! Wire-format determinism and stability tests.
//!
//! CGX's collectives rely on every rank decoding identical bytes; the wire
//! formats must therefore be fully deterministic functions of (input, rng
//! state, parameters), stable across calls, and must never waste space
//! beyond their predicted sizes.

use cgx::adaptive::{AdaptiveTrainConfig, BitAssignment};
use cgx::compress::{CompressionScheme, ScratchPool};
use cgx::net::wire;
use cgx::tensor::{Rng, Tensor};
use cgx_testkit::cases;

fn all_schemes() -> Vec<CompressionScheme> {
    vec![
        CompressionScheme::None,
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::Qsgd {
            bits: 2,
            bucket_size: 1024,
        },
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::TopK { ratio: 0.1 },
        CompressionScheme::OneBit { bucket_size: 64 },
        CompressionScheme::Fake { gamma: 8.0 },
    ]
}

/// What the live controller can put on the wire and [`all_schemes`]
/// lacks: every width of the default `bit_choices` at the bucket the
/// planner pairs it with (2/1024 and 4/128 are above), and NUQSGD at
/// width 3.
fn committed_schemes() -> Vec<CompressionScheme> {
    let pinned = all_schemes();
    let mut schemes: Vec<CompressionScheme> = AdaptiveTrainConfig::default()
        .bit_choices
        .iter()
        .map(|&bits| CompressionScheme::Qsgd {
            bits,
            bucket_size: BitAssignment::bucket_for_bits(bits),
        })
        .filter(|scheme| !pinned.contains(scheme))
        .collect();
    schemes.push(CompressionScheme::Nuqsgd {
        bits: 3,
        bucket_size: 128,
    });
    schemes
}

#[test]
fn payload_bytes_are_deterministic_in_seed() {
    cases(32, |rng| {
        let len = rng.range(1..3000);
        let g = Tensor::randn(rng, &[len]);
        for scheme in all_schemes() {
            let (mut r1, mut r2) = (rng.clone(), rng.clone());
            let e1 = scheme.build().compress(&g, &mut r1);
            let e2 = scheme.build().compress(&g, &mut r2);
            assert_eq!(
                e1.payload(),
                e2.payload(),
                "scheme {scheme} not deterministic"
            );
        }
    });
}

#[test]
fn quantized_payloads_never_exceed_prediction() {
    cases(32, |rng| {
        let len = rng.range(1..5000);
        let g = Tensor::randn(rng, &[len]);
        for scheme in all_schemes() {
            let mut c = scheme.build();
            let (got, predicted) = (c.compress(&g, rng).payload_bytes(), c.compressed_bytes(len));
            assert!(got <= predicted, "scheme {scheme}: {got} > {predicted}");
        }
    });
}

#[test]
fn decode_is_a_pure_function_of_the_payload() {
    cases(32, |rng| {
        // Decoding the same payload twice (or with a fresh compressor of
        // identical parameters) must give identical tensors — the property
        // the bit-exact consensus of the collectives rests on.
        let len = rng.range(1..2000);
        let g = Tensor::randn(rng, &[len]);
        for scheme in all_schemes() {
            let mut c = scheme.build();
            let enc = c.compress(&g, rng);
            let a = c.decompress(&enc).unwrap();
            let b = c.decompress(&enc).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
            let d = scheme.build().decompress(&enc).unwrap();
            assert_eq!(a.as_slice(), d.as_slice(), "scheme {scheme}");
        }
    });
}

#[test]
fn qsgd_wire_layout_is_stable() {
    // Golden-ish pin: a fixed input under a fixed seed must keep producing
    // the same payload (catches accidental wire-format changes).
    let g = Tensor::from_slice(&[0.5, -1.0, 0.25, 0.0, 2.0, -0.125, 0.75, 1.5]);
    let mut c = CompressionScheme::Qsgd {
        bits: 4,
        bucket_size: 4,
    }
    .build();
    let mut rng = Rng::seed_from_u64(42);
    let enc = c.compress(&g, &mut rng);
    // 2 buckets x (4-byte norm + 4 x 4-bit levels) = 2 x 6 bytes.
    assert_eq!(enc.payload_bytes(), 12);
    // The norms are the bucket max-norms, bit-exact.
    let p = enc.payload();
    assert_eq!(f32::from_le_bytes([p[0], p[1], p[2], p[3]]), 1.0);
    assert_eq!(f32::from_le_bytes([p[6], p[7], p[8], p[9]]), 2.0);
    // Decoding never flips a sign (stochastic rounding can zero a value,
    // but a nonzero decoded value always carries the input's sign).
    let rt = c.decompress(&enc).unwrap();
    for (a, b) in rt.as_slice().iter().zip(g.as_slice()) {
        if *a != 0.0 && *b != 0.0 {
            assert!(a.signum() == b.signum(), "{a} vs {b}");
        }
    }
}

fn fnv(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_encoder_emits_its_pinned_bytes() {
    // One digest per encoder, over both encode paths (owned and pooled
    // buffer) and lengths that end inside a word, a byte and a bucket.
    // The values were taken when the encoders still wrote through the
    // `bytes` crate's `BufMut` — those of `committed_schemes` at v0.17.0,
    // when every width but 2, 4 and 8 went through `write_bits`; a change
    // here is a change of wire format.
    let pool = ScratchPool::new();
    let mut schemes = all_schemes();
    schemes.push(CompressionScheme::Qsgd {
        bits: 3,
        bucket_size: 128,
    });
    schemes.push(CompressionScheme::PowerSgd { rank: 2 });
    schemes.extend(committed_schemes());
    let got: Vec<String> = schemes
        .iter()
        .map(|scheme| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for len in [1, 100, 515, 4096] {
                let mut rng = Rng::seed_from_u64(42);
                let g = Tensor::randn(&mut rng, &[len]);
                h = fnv(h, scheme.build().compress(&g, &mut rng.clone()).payload());
                let (shape, data) = (g.shape().clone(), g.as_slice());
                let enc = scheme.build().encode(shape, 0, data, &mut rng, &pool);
                h = fnv(h, enc.payload());
            }
            format!("{scheme} {h:#018x}")
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

const GOLDEN: [&str; 12] = [
    "fp32 0x56e4264d39a8056d",
    "qsgd-4b-128 0xdb07d47be2eb7a45",
    "qsgd-2b-1024 0x82b51d93c549db51",
    "nuqsgd-4b-128 0xc2c4316de1617fab",
    "topk-0.1 0xd754ad154a5f6785",
    "onebit-64 0x5c81483d75fac301",
    "fake-x8 0xba8fc8e8e99aafa5",
    "qsgd-3b-128 0x18e8bdeb63873d05",
    "powersgd-r2 0xd4cd08cf72e5e339",
    "qsgd-3b-512 0x8b2fc67cc1ed5441",
    "qsgd-8b-64 0x3ffe512a71e10c27",
    "nuqsgd-3b-128 0x9fcf7534d23201df",
];

#[test]
fn every_decoder_emits_its_pinned_values() {
    // One digest per decoder over the bits of what it reconstructs, dense
    // and accumulated onto a fixed base, for the payloads pinned above.
    // The values were taken with the scalar table decoder of v0.13.0 —
    // those of width 3 and 8 at v0.17.0, through the bit reader; a change
    // here changes what every rank sums.
    let mut schemes = all_schemes();
    schemes.push(CompressionScheme::Qsgd {
        bits: 3,
        bucket_size: 128,
    });
    schemes.extend(committed_schemes());
    let got: Vec<String> = schemes
        .iter()
        .map(|scheme| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for len in [1, 100, 515, 4096] {
                let mut rng = Rng::seed_from_u64(42);
                let g = Tensor::randn(&mut rng, &[len]);
                let mut c = scheme.build();
                let enc = c.compress(&g, &mut rng);
                let mut summed: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 11.0).collect();
                c.decompress_add_into(&enc, &mut summed).unwrap();
                for v in c.decompress(&enc).unwrap().as_slice().iter().chain(&summed) {
                    h = fnv(h, &v.to_bits().to_le_bytes());
                }
            }
            format!("{scheme} {h:#018x}")
        })
        .collect();
    assert_eq!(got, GOLDEN_DECODED);
}

const GOLDEN_DECODED: [&str; 11] = [
    "fp32 0x1f185b51838469a5",
    "qsgd-4b-128 0x48bcaa28c05a3d64",
    "qsgd-2b-1024 0xca8e7f6503a71ee7",
    "nuqsgd-4b-128 0xafc739782c8946b6",
    "topk-0.1 0x4e14ff4c5d9696aa",
    "onebit-64 0x3e7ea2d3de8d9020",
    "fake-x8 0x8b5679e0aa0fce8d",
    "qsgd-3b-128 0xdab78fb71d9f2b0a",
    "qsgd-3b-512 0x7f805b4c6975e54d",
    "qsgd-8b-64 0x8cdfc5e75ac84fcb",
    "nuqsgd-3b-128 0xb92f4dd15fb707cf",
];

#[test]
fn frame_header_bytes_are_pinned() {
    let mut framed = Vec::new();
    wire::append_header(
        &mut framed,
        0x0102_0304_0506_0708,
        0x0A0B_0C0D,
        b"cgx frame body",
    );
    framed.extend_from_slice(b"cgx frame body");
    // Magic, sequence number, checksum: little-endian, in that order.
    let header = [0xfa, 0xc6, 0x0d, 0x0c, 0x0b, 0x0a, 0xa0, 0x0e, 0x30, 0x0a];
    assert_eq!(framed[..wire::HEADER_LEN], header);
    assert_eq!(&framed[wire::HEADER_LEN..], b"cgx frame body");
    // Two whole 256-byte blocks and a tail: the lanes' block path, on
    // whichever body this CPU runs.
    let body: Vec<u8> = (0..600usize).map(|i| (i * 131 + 7) as u8).collect();
    let sum = wire::checksum(0x0102_0304_0506_0708, 0x0A0B_0C0D, &body);
    assert_eq!(sum, 0xe048_160a);
}
