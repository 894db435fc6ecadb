//! Property tests for the word-wide bitpacking fast path and the fused
//! decode-accumulate kernels: the specialized paths must be bit- and
//! ULP-identical to the generic ones they replace.

use cgx_compress::{
    is_word_packable, pack_fixed, unpack_fixed, BitReader, BitWriter, Compressor, Encoded,
    NuqsgdCompressor, OneBitCompressor, QsgdCompressor, ScratchPool, TopKCompressor,
};
use cgx_tensor::{cases, Rng, Tensor};

/// Up to `max_len` values that fit `width` bits, as the kernels require.
fn masked_values(rng: &mut Rng, width: u32, max_len: usize) -> Vec<u32> {
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    (0..rng.range(0..max_len))
        .map(|_| rng.next_u32() & mask)
        .collect()
}

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
    let decoded = comp.decompress(&enc);
    let base = Tensor::randn(rng, &[data.len()]);
    let mut expect: Vec<f32> = base.as_slice().to_vec();
    for (e, d) in expect.iter_mut().zip(decoded.as_slice()) {
        *e += *d;
    }
    // Fused path.
    let mut fused: Vec<f32> = base.as_slice().to_vec();
    comp.decompress_add_into(&enc, &mut fused);
    for (i, (a, b)) in fused.iter().zip(&expect).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {i} diverged: fused {a} vs reference {b}"
        );
    }
}

#[test]
fn run_writes_match_scalar_writes_for_all_widths() {
    cases(64, |rng| {
        // write_run (which internally dispatches to pack_fixed when the
        // alignment conditions hold) must always produce the same stream as
        // element-at-a-time write_bits, for every width — not just the
        // word-packable ones.
        let width = rng.range(1..=32) as u32;
        let values = masked_values(rng, width, 600);

        let mut scalar = BitWriter::new();
        for &v in &values {
            scalar.write_bits(v, width);
        }
        // Trailing f32 exercises the post-run partial-byte state.
        scalar.write_f32(1.5);
        let scalar_bytes = scalar.finish();

        let mut run = BitWriter::new();
        run.write_run(&values, width);
        run.write_f32(1.5);
        let run_bytes = run.finish();
        assert_eq!(&scalar_bytes[..], &run_bytes[..]);

        // And read_run recovers the exact values plus the trailer.
        let mut r = BitReader::new(&run_bytes);
        let mut got = Vec::with_capacity(values.len());
        r.read_run(width, values.len(), |v| got.push(v));
        assert_eq!(got, values);
        assert_eq!(r.read_f32(), 1.5);
    });
}

#[test]
fn pack_fixed_roundtrips_and_matches_bitwriter() {
    cases(64, |rng| {
        let width = [1u32, 2, 4, 8, 16, 32][rng.index(6)];
        assert!(is_word_packable(width));
        let values = masked_values(rng, width.min(8), 600);

        let mut packed = Vec::new();
        pack_fixed(&values, width, &mut packed);

        let mut w = BitWriter::new();
        for &v in &values {
            w.write_bits(v, width);
        }
        let scalar = w.finish();
        // pack_fixed zero-pads the final partial byte exactly like finish().
        assert_eq!(&packed[..], &scalar[..]);

        let back = unpack_fixed(&packed, width, values.len());
        assert_eq!(back, values);
    });
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

#[test]
fn pooled_compress_is_bit_identical_across_schemes() {
    cases(64, |rng| {
        // The pooled encode path (scratch-buffer reuse + write_run fast
        // path) must emit byte-identical payloads to the plain path.
        let pool = ScratchPool::new();
        let g = Tensor::from_slice(&gradient(rng, 1200));
        let (bits, bucket) = (rng.range(2..=8) as u32, rng.range(1..512));
        let mut a = QsgdCompressor::new(bits, bucket);
        let mut b = QsgdCompressor::new(bits, bucket);
        let mut rng_b = rng.clone();
        let plain = a.compress(&g, rng);
        let pooled = b.compress_pooled(&g, &mut rng_b, &pool);
        assert_eq!(plain.payload(), pooled.payload());
        assert_eq!(plain.shape(), pooled.shape());
    });
}
