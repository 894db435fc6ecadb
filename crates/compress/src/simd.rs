//! The two fused kernels of the bucketed quantizers, eight elements per
//! AVX2 iteration: stochastic rounding straight into packed codes, and
//! packed codes straight into (or onto) `f32`s.
//!
//! # Encode
//!
//! Per element, with `s` positive levels, `scale = s / norm` and `r` the
//! element's draw from the call's [`CounterRng`] stream:
//!
//! ```text
//! t     = trunc(clamp(v * scale, -s, s) * 2^24)    (f32 -> i32, |t| < 2^31)
//! level = (t + (r >> 8)) >> 24                     (arithmetic shift)
//! code  = s + level
//! ```
//!
//! `t` is the signed level in 8.24 fixed point, and adding a uniform
//! 24-bit draw before dropping the fraction *is* stochastic rounding:
//! the sum carries into the integer part (or, for `t < 0`, fails to
//! borrow from it) in exactly `fraction` of the `2^24` draws. Rounding is
//! therefore unbiased to within 2^-24 of a grid step, and `|level|` never
//! exceeds `s`, where the fraction is zero. No element depends on the one
//! before it, so the sequence runs in vector lanes as it stands:
//! [`BucketQuantizer::code`] is the scalar twin, and the AVX2 body does
//! the same IEEE-754 and integer operations lane for lane, special
//! values included (a NaN product clamps to `-s` in both).
//!
//! Eight codes fill `WIDTH` whole bytes at every width from 2 to 8, so a
//! group of eight is one little-endian word with code `l` at bits
//! `l * WIDTH..` and [`quantize_pack`] has one form for all seven widths:
//! the AVX2 body shifts each lane to its place (`vpsllvd`), ors the lanes
//! of each 128-bit half together and joins the halves — in a lane up to
//! 4 bits, in a `u64` above; the scalar twin, which is also the tail of
//! a bucket that is no multiple of eight, assembles the same word a code
//! at a time.
//!
//! # Decode
//!
//! A bucket of 2-, 3- or 4-bit codes decodes to at most sixteen values,
//! so [`lut_decode`] builds that codebook once per bucket from its norm
//! and every element is a lookup in it. The AVX2 body holds the codebook
//! in one `ymm` register (two at 4 bits) and per eight elements
//! broadcasts their packed word, shifts lane `l` right by `l * WIDTH`
//! (`vpsrlvd`), looks all eight up at once (`vpermps`, which reads three
//! index bits — a 3-bit code as it lies; at 4 bits twice, `vblendvps` on
//! code bit 3 picking the half) and stores the values or their sums with
//! the destination. A decoded value is a copy of a table entry on this
//! route and on its scalar twin, so the two cannot differ, whatever the
//! norm or the code. Wider codes decode by formula in the callers' bit
//! readers.

use cgx_tensor::rng::CounterRng;

const TWO_POW_24: f32 = 16_777_216.0;

/// What the elements of one bucket share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketQuantizer {
    /// Grid units per unit of magnitude, `s / norm`.
    scale: f32,
    /// `s`, the number of positive levels and the code of level zero.
    levels: u32,
    /// Round keys of the bucket's run of stream positions.
    keys: [u32; 2],
}

impl BucketQuantizer {
    /// Quantizer of bucket number `bucket` of the call that drew `stream`,
    /// onto `levels` positive levels spanning `norm`. Element `j` rounds
    /// on draw `(bucket << 32) | j`.
    pub(crate) fn new(levels: u32, norm: f32, stream: &CounterRng, bucket: u64) -> Self {
        BucketQuantizer {
            // Finite even where `norm` is zero or tiny, so that a zero
            // element is level zero whatever its bucket holds.
            scale: (levels as f32 / norm).min(f32::MAX),
            levels,
            keys: stream.round_keys(bucket),
        }
    }

    /// The code of element `j`, of value `v`.
    #[inline]
    pub(crate) fn code(&self, j: usize, v: f32) -> u32 {
        let r = CounterRng::mix(j as u32, self.keys);
        let s = self.levels as f32;
        let t = ((v * self.scale).max(-s).min(s) * TWO_POW_24) as i32;
        (self.levels as i32 + ((t + (r >> 8) as i32) >> 24)) as u32
    }
}

/// Writes the codes of `bucket`, `width` bits each and LSB-first, to
/// `out` — the bytes `BitWriter::write_bits` would produce from a
/// byte-aligned start.
///
/// # Panics
///
/// Panics unless `width` is in `2..=8` and `out` is exactly the whole
/// number of bytes the codes fill.
pub(crate) fn quantize_pack(bucket: &[f32], q: &BucketQuantizer, width: u32, out: &mut [u8]) {
    assert!((2..=8).contains(&width), "width {width} has no packed form");
    assert_eq!(out.len() * 8, bucket.len() * width as usize, "packed size");
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        done = unsafe {
            match width {
                2 => quantize_pack_avx2::<2>(bucket, q, out),
                3 => quantize_pack_avx2::<3>(bucket, q, out),
                4 => quantize_pack_avx2::<4>(bucket, q, out),
                5 => quantize_pack_avx2::<5>(bucket, q, out),
                6 => quantize_pack_avx2::<6>(bucket, q, out),
                7 => quantize_pack_avx2::<7>(bucket, q, out),
                _ => quantize_pack_avx2::<8>(bucket, q, out),
            }
        };
    }
    // Eight codes fill `width` whole bytes at any width, and `done` is a
    // multiple of 8: every group starts a byte, and the last one, of
    // fewer codes, ends on one because `out` does.
    let width = width as usize;
    let groups = bucket[done..]
        .chunks(8)
        .zip(out[done / 8 * width..].chunks_mut(width));
    for (g, (vals, bytes)) in groups.enumerate() {
        let mut word = 0u64;
        for (l, &v) in vals.iter().enumerate() {
            word |= u64::from(q.code(done + 8 * g + l, v)) << (l * width);
        }
        bytes.copy_from_slice(&word.to_le_bytes()[..bytes.len()]);
    }
}

/// AVX2 body of [`quantize_pack`] over the whole groups of eight
/// elements (eight codes fill `WIDTH` bytes); returns how many elements
/// that was.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_pack_avx2<const WIDTH: usize>(
    bucket: &[f32],
    q: &BucketQuantizer,
    out: &mut [u8],
) -> usize {
    use std::arch::x86_64::*;
    let scale = _mm256_set1_ps(q.scale);
    let s = _mm256_set1_ps(q.levels as f32);
    let minus_s = _mm256_set1_ps(-(q.levels as f32));
    let offset = _mm256_set1_epi32(q.levels as i32);
    let two_pow_24 = _mm256_set1_ps(TWO_POW_24);
    let k0 = _mm256_set1_epi32(q.keys[0] as i32);
    let k1 = _mm256_set1_epi32(q.keys[1] as i32);
    let m0 = _mm256_set1_epi32(CounterRng::MULTIPLIERS[0] as i32);
    let m1 = _mm256_set1_epi32(CounterRng::MULTIPLIERS[1] as i32);
    // Lane l of group g is element 8g + l; its Weyl multiple moves on by
    // 8 * WEYL from one group to the next.
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut weyl = _mm256_mullo_epi32(lanes, _mm256_set1_epi32(CounterRng::WEYL as i32));
    let weyl_step = _mm256_set1_epi32(CounterRng::WEYL.wrapping_mul(8) as i32);
    // Code l belongs at bits l * WIDTH.. of the group's word. Each 128-bit
    // half gathers its four codes in its lowest lane; above WIDTH 4 a
    // lane has no room for the other half's, and the two lanes are joined
    // in a `u64` instead.
    let w = WIDTH as i32;
    let up = if WIDTH > 4 { 0 } else { 4 * w };
    let shifts = _mm256_setr_epi32(0, w, 2 * w, 3 * w, up, up + w, up + 2 * w, up + 3 * w);
    let groups = bucket.chunks_exact(8);
    let done = groups.len() * 8;
    for (vals, bytes) in groups.zip(out.chunks_exact_mut(WIDTH)) {
        // r = CounterRng::mix(8g + l, keys) >> 8
        let mut x = _mm256_xor_si256(weyl, k0);
        weyl = _mm256_add_epi32(weyl, weyl_step);
        x = _mm256_mullo_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<16>(x)), m0);
        x = _mm256_add_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<15>(x)), k1);
        x = _mm256_mullo_epi32(x, m1);
        let r = _mm256_srli_epi32::<8>(_mm256_xor_si256(x, _mm256_srli_epi32::<15>(x)));
        // Operand order matters: vmaxps returns its second operand when
        // the first is NaN, as f32::max(NaN, -s) == -s.
        let v = _mm256_mul_ps(_mm256_loadu_ps(vals.as_ptr()), scale);
        let scaled = _mm256_min_ps(_mm256_max_ps(v, minus_s), s);
        let t = _mm256_cvttps_epi32(_mm256_mul_ps(scaled, two_pow_24));
        let level = _mm256_srai_epi32::<24>(_mm256_add_epi32(t, r));
        let placed = _mm256_sllv_epi32(_mm256_add_epi32(offset, level), shifts);
        let pairs = _mm256_or_si256(placed, _mm256_shuffle_epi32::<0b01_00_11_10>(placed));
        let quads = _mm256_or_si256(pairs, _mm256_shuffle_epi32::<0b10_11_00_01>(pairs));
        let lo = _mm256_castsi256_si128(quads);
        let hi = _mm256_extracti128_si256::<1>(quads);
        let word = if WIDTH > 4 {
            let (lo, hi) = (_mm_cvtsi128_si32(lo) as u32, _mm_cvtsi128_si32(hi) as u32);
            u64::from(lo) | u64::from(hi) << (4 * WIDTH)
        } else {
            _mm_cvtsi128_si32(_mm_or_si128(lo, hi)) as u32 as u64
        };
        bytes.copy_from_slice(&word.to_le_bytes()[..WIDTH]);
    }
    done
}

/// Decodes the buckets of `payload` — per bucket an `f32` norm, then
/// `bits`-bit codes, LSB-first — over `out` (`ADD` false) or onto it
/// (`ADD` true): element `i` is entry `code_i` of `table_of(norm)`, its
/// bucket's codebook. Returns `false`, with `out` untouched, for a layout
/// it has no kernel for: a width outside `2..=4` (more than sixteen
/// values), or full buckets that do not end on a byte, which leave norms
/// unaligned.
///
/// # Panics
///
/// Panics with `"bit stream exhausted"` if `payload` is shorter than
/// `out.len()` elements take.
pub(crate) fn lut_decode<const ADD: bool>(
    bits: u32,
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) -> bool {
    let (n, width) = (out.len(), bits as usize);
    if !(2..=4).contains(&bits) || !(bucket_size * width).is_multiple_of(8) {
        return false;
    }
    // The one length check of the decode: every read below is inside it.
    let needed = n.div_ceil(bucket_size) * 4 + (n * width).div_ceil(8);
    assert!(payload.len() >= needed, "bit stream exhausted");
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe {
            match bits {
                2 => lut_decode_avx2::<2, ADD>(payload, bucket_size, table_of, out),
                3 => lut_decode_avx2::<3, ADD>(payload, bucket_size, table_of, out),
                _ => lut_decode_avx2::<4, ADD>(payload, bucket_size, table_of, out),
            }
        }
        return true;
    }
    lut_decode_scalar::<ADD>(bits, payload, bucket_size, table_of, out);
    true
}

/// The scalar twin of [`lut_decode`]'s vector body: the same bucket walk
/// with no groups taken in registers.
fn lut_decode_scalar<const ADD: bool>(
    bits: u32,
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) {
    match bits {
        2 => lut_decode_buckets::<2, ADD>(payload, bucket_size, table_of, out, |_, _, _| 0),
        3 => lut_decode_buckets::<3, ADD>(payload, bucket_size, table_of, out, |_, _, _| 0),
        _ => lut_decode_buckets::<4, ADD>(payload, bucket_size, table_of, out, |_, _, _| 0),
    }
}

/// The bucket walk of [`lut_decode`]. `groups` decodes a leading multiple
/// of eight elements of a bucket from its codebook and says how many; the
/// rest are looked up from one word of up to eight codes at a time. With
/// no groups taken this is the kernel's scalar twin.
#[inline(always)]
fn lut_decode_buckets<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
    groups: impl Fn(&[f32; 16], &[u8], &mut [f32]) -> usize,
) {
    let mut rest = payload;
    for dst in out.chunks_mut(bucket_size) {
        let (norm, after) = rest.split_at(4);
        let (codes, after) = after.split_at((dst.len() * WIDTH).div_ceil(8));
        rest = after;
        let table = table_of(f32::from_le_bytes(norm.try_into().expect("four bytes")));
        // Eight codes fill `WIDTH` whole bytes and `done` is a multiple
        // of 8, so every group starts a byte; the last one, of fewer
        // codes, has the bytes those take.
        let done = groups(&table, codes, dst);
        let words = codes[done / 8 * WIDTH..].chunks(WIDTH);
        for (bytes, vals) in words.zip(dst[done..].chunks_mut(8)) {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            let word = u64::from_le_bytes(word);
            for (l, d) in vals.iter_mut().enumerate() {
                let v = table[(word >> (l * WIDTH)) as usize & ((1 << WIDTH) - 1)];
                *d = if ADD { *d + v } else { v };
            }
        }
    }
}

/// AVX2 body of [`lut_decode`]: every bucket's whole groups of eight
/// elements (eight codes fill `WIDTH` bytes) are looked up in registers.
///
/// # Safety
///
/// The CPU must support AVX2. Nothing else is asked of the caller: every
/// load and store goes through a slice of exactly the length it touches,
/// and a `payload` shorter than [`lut_decode`] has checked is a panic in
/// the walk, not a wild read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut_decode_avx2<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let w = WIDTH as i32;
    let shifts = _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w, 5 * w, 6 * w, 7 * w);
    let low_two = _mm256_set1_epi32(3);
    lut_decode_buckets::<WIDTH, ADD>(payload, bucket_size, table_of, out, |table, codes, dst| {
        let lo = _mm256_loadu_ps(table.as_ptr());
        let hi = _mm256_loadu_ps(table[8..].as_ptr());
        let groups = dst.chunks_exact_mut(8);
        let done = groups.len() * 8;
        for (bytes, vals) in codes.chunks_exact(WIDTH).zip(groups) {
            let mut word = [0u8; 4];
            word[..WIDTH].copy_from_slice(bytes);
            let idx = _mm256_srlv_epi32(_mm256_set1_epi32(i32::from_le_bytes(word)), shifts);
            // vpermps reads the low three index bits: a 3-bit code as it
            // lies. At 2 bits the third is the next code's; at 4 bits
            // code bit 3 picks the half.
            let low = if WIDTH == 2 {
                _mm256_and_si256(idx, low_two)
            } else {
                idx
            };
            let mut v = _mm256_permutevar8x32_ps(lo, low);
            if WIDTH == 4 {
                let bit3 = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(idx));
                v = _mm256_blendv_ps(v, _mm256_permutevar8x32_ps(hi, idx), bit3);
            }
            if ADD {
                v = _mm256_add_ps(_mm256_loadu_ps(vals.as_ptr()), v);
            }
            _mm256_storeu_ps(vals.as_mut_ptr(), v);
        }
        done
    });
}

/// `max_j |bucket[j]|` — the max-norm pass of the encoder. NaN elements
/// are skipped (`f32::max` ignores a NaN operand) and the result is never
/// `-0.0`: `abs` clears the sign and the fold starts at `+0.0`.
pub(crate) fn max_abs(bucket: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { max_abs_avx(bucket) };
    }
    bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()))
}

/// AVX body of [`max_abs`]: 32 elements per iteration, the last few by
/// the scalar fold. Operand order keeps the NaN skip — `vmaxps(x, acc)`
/// returns `acc`, its second operand, when `x` is NaN — so accumulators
/// are never NaN or negative and the order of the reduction cannot
/// change its value. There are four of them, reduced in registers: the
/// quantizer cannot start on a bucket before its norm is known, so this
/// fold's latency (4 cycles per dependent `vmaxps`) is time the encoder
/// waits.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn max_abs_avx(bucket: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut quads = bucket.chunks_exact(32);
    for quad in &mut quads {
        for (a, vals) in acc.iter_mut().zip(quad.chunks_exact(8)) {
            let v = _mm256_and_ps(_mm256_loadu_ps(vals.as_ptr()), absmask);
            *a = _mm256_max_ps(v, *a);
        }
    }
    let m8 = _mm256_max_ps(_mm256_max_ps(acc[0], acc[1]), _mm256_max_ps(acc[2], acc[3]));
    let m4 = _mm_max_ps(_mm256_castps256_ps128(m8), _mm256_extractf128_ps::<1>(m8));
    let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<1>(m2, m2));
    let tail = quads.remainder().iter();
    tail.fold(_mm_cvtss_f32(m1), |m, v| m.max(v.abs()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cgx_tensor::Rng;

    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        -1.0e-40, // subnormal
        f32::MAX,
        f32::MIN,
        -1.0,
        7.5,
    ];

    #[test]
    fn packed_bytes_match_scalar_twin_code_for_code() {
        let mut rng = Rng::seed_from_u64(43);
        let stream = CounterRng::new(rng.next_u64());
        let layouts = [
            (2u32, 1u32),
            (3, 3),
            (4, 7),
            (5, 15),
            (6, 31),
            (7, 63),
            (8, 127),
            (8, 3),
            (8, 31),
        ];
        for (width, levels) in layouts {
            // Lengths around the 8-lane group, those a width packs into
            // whole bytes: a partial last group exercises the word tail.
            let lengths = [0usize, 4, 8, 12, 16, 20, 24, 60, 64, 128, 1000];
            let whole = |n: &usize| (n * width as usize).is_multiple_of(8);
            for n in lengths.into_iter().filter(whole) {
                let mut bucket: Vec<f32> = (0..n).map(|_| (rng.normal() * 2.0) as f32).collect();
                for (slot, special) in bucket.iter_mut().skip(1).step_by(3).zip(SPECIALS) {
                    *slot = special;
                }
                for norm in [max_abs(&bucket), 1.0, 0.0, 1.0e-42, f32::INFINITY, f32::NAN] {
                    let q = BucketQuantizer::new(levels, norm, &stream, n as u64);
                    let mut packed = vec![0xAAu8; n * width as usize / 8];
                    quantize_pack(&bucket, &q, width, &mut packed);
                    let mut twin = crate::BitWriter::new();
                    for (j, &v) in bucket.iter().enumerate() {
                        twin.write_bits(q.code(j, v), width);
                    }
                    assert_eq!(
                        packed,
                        twin.finish().as_ref(),
                        "width={width} levels={levels} n={n} norm={norm}"
                    );
                }
            }
        }
    }

    #[test]
    fn codes_stay_on_the_grid_for_any_input() {
        let stream = CounterRng::new(5);
        for levels in [1u32, 3, 7, 15, 31, 63, 127] {
            for norm in [0.0f32, 1.0e-42, 1.0, f32::MAX, f32::INFINITY, f32::NAN] {
                let q = BucketQuantizer::new(levels, norm, &stream, 0);
                for (j, v) in SPECIALS.into_iter().enumerate() {
                    let code = q.code(j, v);
                    assert!(
                        code <= 2 * levels,
                        "levels={levels} norm={norm} v={v}: {code}"
                    );
                    if v == 0.0 {
                        assert_eq!(code, levels, "zero is level zero (norm={norm})");
                    }
                }
            }
        }
    }

    #[test]
    fn grid_points_are_fixed_and_midpoints_split_evenly() {
        let stream = CounterRng::new(11);
        let q = BucketQuantizer::new(7, 7.0, &stream, 3);
        let (mut up, trials) = (0u32, 100_000usize);
        for j in 0..trials {
            assert_eq!(q.code(j, 3.0), 10);
            assert_eq!(q.code(j, -7.0), 0);
            let code = q.code(j, -2.5);
            assert!(code == 4 || code == 5, "code {code}");
            up += u32::from(code == 4);
        }
        // Binomial(n, 1/2): sigma = sqrt(n)/2 ~ 158.
        assert!(
            (up as f64 - trials as f64 / 2.0).abs() < 4.0 * 158.0,
            "{up} of {trials} rounded up"
        );
    }

    /// QSGD's codebook at `levels` positive levels.
    fn grid(levels: u32) -> impl Fn(f32) -> [f32; 16] {
        let (s, offset) = (levels as f64, levels as i64);
        move |norm| std::array::from_fn(|c| (norm as f64 * (c as i64 - offset) as f64 / s) as f32)
    }

    /// [`lut_decode_scalar`] over QSGD's codebook.
    fn twin<const ADD: bool>(bits: u32, payload: &[u8], bucket_size: usize, out: &mut [f32]) {
        let table_of = grid((1 << (bits - 1)) - 1);
        lut_decode_scalar::<ADD>(bits, payload, bucket_size, table_of, out);
    }

    fn bits_of(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A payload no encoder wrote: bucket `b` carries norm number `b` of
    /// a list of honest and hostile ones (rotated by `n`), and its codes
    /// count up through every value `bits` bits hold — for QSGD the
    /// off-grid `2s + 1` included.
    pub(crate) fn crafted_payload(bits: u32, bucket_size: usize, n: usize) -> cgx_tensor::Bytes {
        let norms = [0.731, 0.0, 1.0e-42, f32::MAX, f32::INFINITY, f32::NAN];
        let mut w = crate::BitWriter::new();
        for b in 0..n.div_ceil(bucket_size) {
            w.write_f32(norms[(b + n) % norms.len()]);
            for j in 0..bucket_size.min(n - b * bucket_size) {
                w.write_bits((j + b) as u32 % (1 << bits), bits);
            }
        }
        w.finish()
    }

    #[test]
    fn lut_decode_matches_twin_and_formula_bit_for_bit() {
        for bits in [2u32, 3, 4] {
            let levels = (1u32 << (bits - 1)) - 1;
            for bucket_size in [8usize, 10, 64, 128, 1024] {
                // Lengths around the 8-lane group, the bucket and the byte.
                for n in [0usize, 1, 7, 8, 9, 127, 128, 129, 515, 1000, 4099] {
                    let payload = crafted_payload(bits, bucket_size, n);
                    let mut r = crate::BitReader::new(&payload);
                    let mut want = Vec::with_capacity(n);
                    for b in 0..n.div_ceil(bucket_size) {
                        let norm = r.read_f32() as f64;
                        for _ in 0..bucket_size.min(n - b * bucket_size) {
                            let signed = r.read_bits(bits) as i64 - levels as i64;
                            want.push((norm * signed as f64 / levels as f64) as f32);
                        }
                    }
                    let what = format!("bits={bits} bucket={bucket_size} n={n}");
                    let mut got = vec![9.0f32; n];
                    let taken =
                        lut_decode::<false>(bits, &payload, bucket_size, grid(levels), &mut got);
                    assert_eq!(
                        taken,
                        (bucket_size * bits as usize).is_multiple_of(8),
                        "{what}"
                    );
                    if !taken {
                        assert!(got.iter().all(|v| *v == 9.0), "{what}: untouched");
                        continue;
                    }
                    assert_eq!(bits_of(&got), bits_of(&want), "{what}");
                    twin::<false>(bits, &payload, bucket_size, &mut got);
                    assert_eq!(bits_of(&got), bits_of(&want), "twin, {what}");

                    let base: Vec<f32> = (0..n)
                        .map(|i| match i % 7 {
                            0 => SPECIALS[i % 5],
                            _ => i as f32 * 0.5 - 9.0,
                        })
                        .collect();
                    let mut kernel_sum = base.clone();
                    lut_decode::<true>(bits, &payload, bucket_size, grid(levels), &mut kernel_sum);
                    let mut twin_sum = base.clone();
                    twin::<true>(bits, &payload, bucket_size, &mut twin_sum);
                    for (i, (b, v)) in base.iter().zip(&want).enumerate() {
                        // Which payload the sum of two NaNs carries is the
                        // compiler's choice of operand order.
                        let any_nan = b.is_nan() && v.is_nan();
                        for got in [kernel_sum[i], twin_sum[i]] {
                            assert!(
                                got.to_bits() == (b + v).to_bits() || (any_nan && got.is_nan()),
                                "{what}: {b} + {v} at {i} gave {got}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_abs_matches_serial_fold() {
        let mut rng = Rng::seed_from_u64(47);
        // Lengths around the 32-element boundary exercise the tail fold.
        for n in [0usize, 1, 7, 31, 32, 33, 63, 64, 127, 128, 1000] {
            let mut bucket: Vec<f32> = (0..n).map(|_| (rng.normal() * 3.0) as f32).collect();
            let want = bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            assert_eq!(max_abs(&bucket), want, "n={n}");
            // NaN lanes are skipped wherever they fall; a signed zero or
            // an infinity is not.
            for (slot, special) in bucket.iter_mut().step_by(5).zip(SPECIALS) {
                *slot = special;
            }
            let want = bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            assert_eq!(
                max_abs(&bucket).to_bits(),
                want.to_bits(),
                "specials, n={n}"
            );
        }
    }
}
