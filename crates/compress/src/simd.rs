//! The two fused kernels of the bucketed quantizers at the machine's
//! vector width — sixteen elements per AVX-512 iteration, eight per AVX2
//! one: stochastic rounding straight into packed codes, and packed codes
//! straight into (or onto) `f32`s. The encoder's norm pass, [`max_abs`],
//! is here too, eight lanes on either vector route: it is a bucket's
//! first touch and runs at the speed of memory.
//!
//! # Routes
//!
//! A [`Route`] names the widest bodies a call may run: the 16-lane ones
//! (AVX-512F, with BMI2 for the pack), the 8-lane ones (AVX2) or the
//! scalar twins. [`Route::widest`] is the one place the crate asks the
//! CPU what it has; callers take the answer once per call, not per
//! bucket. What a wider body leaves of a bucket goes to the next narrower
//! one — 16 lanes, then 8, then the scalar word loop — so a bucket of any
//! length and every chunk tail stays off the per-code path, and a CPU
//! without AVX-512 runs the 8-lane bodies alone, as before there were
//! wider ones. All three routes write the same bytes and decode the same
//! bits: [`BucketQuantizer::code`] and the scalar walk of [`lut_decode`]
//! are the references the tests hold every body this CPU can run to.
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
//! [`BucketQuantizer::code`] is the scalar twin, and the vector bodies do
//! the same IEEE-754 and integer operations lane for lane, special
//! values included (a NaN product clamps to `-s` in all three).
//!
//! Eight codes fill `WIDTH` whole bytes at every width from 2 to 8, so a
//! group of eight is one little-endian word with code `l` at bits
//! `l * WIDTH..` and [`quantize_pack`] has one form for all seven widths.
//! The 16-lane body narrows its sixteen codes to a byte each (`vpmovdb`)
//! and closes the low `WIDTH` bits of every byte up with one `pext` per
//! eight: two words, `2 * WIDTH` bytes. The 8-lane body shifts each lane
//! to its place (`vpsllvd`), ors the lanes of each 128-bit half together
//! and joins the halves — in a lane up to 4 bits, in a `u64` above; the
//! scalar twin, which is also the tail of a bucket that is no multiple of
//! eight, assembles the same word a code at a time.
//!
//! # Decode
//!
//! A bucket of 2-, 3- or 4-bit codes decodes to at most sixteen values,
//! so [`lut_decode`] builds that codebook once per bucket from its norm
//! and every element is a lookup in it. The 16-lane body holds the
//! codebook in one `zmm` register, repeated to fill it below 4 bits:
//! `vpermps zmm` reads four index bits, and with entry `i` at every lane
//! `i mod 2^WIDTH` the bits above a code — its neighbour's — pick a copy
//! of the same entry, so no mask or blend is needed. Per sixteen elements
//! it puts the dword holding codes 0..8 in the low eight lanes and the
//! one holding codes 8..16 in the high eight, shifts each lane's code
//! down (`vpsrlvd`), looks all sixteen up at once and stores the values
//! or their sums with the destination. The 8-lane body holds the
//! codebook in one `ymm` register (two at 4 bits) and per eight elements
//! broadcasts their packed word, shifts lane `l` right by `l * WIDTH`,
//! looks all eight up (`vpermps ymm`, which reads three index bits — a
//! 3-bit code as it lies; at 4 bits twice, `vblendvps` on code bit 3
//! picking the half). A decoded value is a copy of a table entry on every
//! route, so the routes cannot differ, whatever the norm or the code.
//! Wider codes decode by formula in the callers' bit readers.

use cgx_tensor::rng::CounterRng;

const TWO_POW_24: f32 = 16_777_216.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest bodies a kernel call may run. Outside this module the only
/// way to one is [`Route::widest`], so holding a `Route` is the proof
/// that the CPU has the features its bodies are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route(Body);

impl Route {
    /// The widest route this CPU can run.
    pub(crate) fn widest() -> Route {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // The 16-lane pack closes its codes up with BMI2's `pext`.
            let wide = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("bmi2");
            return Route(if wide { Body::Avx512 } else { Body::Avx2 });
        }
        Route(Body::Scalar)
    }

    /// Elements per iteration of this route's bodies: 16, 8 or 1.
    pub(crate) fn lanes(self) -> u64 {
        match self.0 {
            Body::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => 8,
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => 16,
        }
    }
}

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
pub(crate) fn quantize_pack(
    route: Route,
    bucket: &[f32],
    q: &BucketQuantizer,
    width: u32,
    out: &mut [u8],
) {
    assert!((2..=8).contains(&width), "width {width} has no packed form");
    assert_eq!(out.len() * 8, bucket.len() * width as usize, "packed size");
    let done = match route.0 {
        Body::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        _ => match width {
            2 => quantize_pack_lanes::<2>(route, bucket, q, out),
            3 => quantize_pack_lanes::<3>(route, bucket, q, out),
            4 => quantize_pack_lanes::<4>(route, bucket, q, out),
            5 => quantize_pack_lanes::<5>(route, bucket, q, out),
            6 => quantize_pack_lanes::<6>(route, bucket, q, out),
            7 => quantize_pack_lanes::<7>(route, bucket, q, out),
            _ => quantize_pack_lanes::<8>(route, bucket, q, out),
        },
    };
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

/// The vector bodies of [`quantize_pack`] on a vector `route`: the
/// sixteens where it has them, then the whole group of eight they leave.
/// Returns how many elements that took, a multiple of eight.
#[cfg(target_arch = "x86_64")]
#[inline]
fn quantize_pack_lanes<const WIDTH: usize>(
    route: Route,
    bucket: &[f32],
    q: &BucketQuantizer,
    out: &mut [u8],
) -> usize {
    // SAFETY: a `Route` names only bodies whose CPU features
    // `Route::widest` has verified at runtime.
    unsafe {
        let done = match route.0 {
            Body::Avx512 => quantize_pack_avx512::<WIDTH>(bucket, q, out),
            _ => 0,
        };
        match bucket.len() - done {
            0..8 => done,
            _ => quantize_pack_avx2::<WIDTH>(done, bucket, q, out),
        }
    }
}

/// AVX-512 body of [`quantize_pack`] over the whole groups of sixteen
/// elements (sixteen codes fill `2 * WIDTH` bytes); returns how many
/// elements that was.
///
/// # Safety
///
/// The CPU must support AVX-512F and BMI2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,bmi2")]
unsafe fn quantize_pack_avx512<const WIDTH: usize>(
    bucket: &[f32],
    q: &BucketQuantizer,
    out: &mut [u8],
) -> usize {
    use std::arch::x86_64::*;
    let scale = _mm512_set1_ps(q.scale);
    let s = _mm512_set1_ps(q.levels as f32);
    let minus_s = _mm512_set1_ps(-(q.levels as f32));
    let offset = _mm512_set1_epi32(q.levels as i32);
    let two_pow_24 = _mm512_set1_ps(TWO_POW_24);
    let k0 = _mm512_set1_epi32(q.keys[0] as i32);
    let k1 = _mm512_set1_epi32(q.keys[1] as i32);
    let m0 = _mm512_set1_epi32(CounterRng::MULTIPLIERS[0] as i32);
    let m1 = _mm512_set1_epi32(CounterRng::MULTIPLIERS[1] as i32);
    // Lane l of group g is element 16g + l; its Weyl multiple moves on
    // by 16 * WEYL from one group to the next.
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut weyl = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(CounterRng::WEYL as i32));
    let weyl_step = _mm512_set1_epi32(CounterRng::WEYL.wrapping_mul(16) as i32);
    // The low WIDTH bits of each of eight bytes.
    let code_bits = 0x0101_0101_0101_0101u64 * ((1 << WIDTH) - 1);
    let groups = bucket.chunks_exact(16);
    let done = groups.len() * 16;
    for (vals, bytes) in groups.zip(out.chunks_exact_mut(2 * WIDTH)) {
        // r = CounterRng::mix(16g + l, keys) >> 8
        let mut x = _mm512_xor_si512(weyl, k0);
        weyl = _mm512_add_epi32(weyl, weyl_step);
        x = _mm512_mullo_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<16>(x)), m0);
        x = _mm512_add_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<15>(x)), k1);
        x = _mm512_mullo_epi32(x, m1);
        let r = _mm512_srli_epi32::<8>(_mm512_xor_si512(x, _mm512_srli_epi32::<15>(x)));
        // Operand order matters: vmaxps returns its second operand when
        // the first is NaN, as f32::max(NaN, -s) == -s.
        let v = _mm512_mul_ps(_mm512_loadu_ps(vals.as_ptr()), scale);
        let scaled = _mm512_min_ps(_mm512_max_ps(v, minus_s), s);
        let t = _mm512_cvttps_epi32(_mm512_mul_ps(scaled, two_pow_24));
        let level = _mm512_srai_epi32::<24>(_mm512_add_epi32(t, r));
        // A code is at most 2s <= 254: a byte each, then the WIDTH bits
        // of eight bytes closed up into one word of WIDTH bytes.
        let codes = _mm512_cvtepi32_epi8(_mm512_add_epi32(offset, level));
        let lo = _pext_u64(_mm_cvtsi128_si64(codes) as u64, code_bits);
        let hi = _pext_u64(_mm_extract_epi64::<1>(codes) as u64, code_bits);
        let word = u128::from(lo) | u128::from(hi) << (8 * WIDTH);
        bytes.copy_from_slice(&word.to_le_bytes()[..2 * WIDTH]);
    }
    done
}

/// AVX2 body of [`quantize_pack`] over the whole groups of eight elements
/// of `bucket[from..]` (eight codes fill `WIDTH` bytes), `from` being a
/// multiple of eight; returns where it stopped.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_pack_avx2<const WIDTH: usize>(
    from: usize,
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
    // Lane l of group g is element from + 8g + l; its Weyl multiple moves
    // on by 8 * WEYL from one group to the next.
    let first = _mm256_set1_epi32(from as i32);
    let lanes = _mm256_add_epi32(first, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mut weyl = _mm256_mullo_epi32(lanes, _mm256_set1_epi32(CounterRng::WEYL as i32));
    let weyl_step = _mm256_set1_epi32(CounterRng::WEYL.wrapping_mul(8) as i32);
    // Code l belongs at bits l * WIDTH.. of the group's word. Each 128-bit
    // half gathers its four codes in its lowest lane; above WIDTH 4 a
    // lane has no room for the other half's, and the two lanes are joined
    // in a `u64` instead.
    let w = WIDTH as i32;
    let up = if WIDTH > 4 { 0 } else { 4 * w };
    let shifts = _mm256_setr_epi32(0, w, 2 * w, 3 * w, up, up + w, up + 2 * w, up + 3 * w);
    let groups = bucket[from..].chunks_exact(8);
    let done = from + groups.len() * 8;
    for (vals, bytes) in groups.zip(out[from / 8 * WIDTH..].chunks_exact_mut(WIDTH)) {
        // r = CounterRng::mix(from + 8g + l, keys) >> 8
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
    route: Route,
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
    // One lane group at least, or the vector set-up is all a call does.
    let route = if n < 8 { Route(Body::Scalar) } else { route };
    match bits {
        2 => lut_decode_on::<2, ADD>(route, payload, bucket_size, table_of, out),
        3 => lut_decode_on::<3, ADD>(route, payload, bucket_size, table_of, out),
        _ => lut_decode_on::<4, ADD>(route, payload, bucket_size, table_of, out),
    }
    true
}

/// [`lut_decode`] at one width, by the bucket walk `route` names. On
/// [`Body::Scalar`] no groups are taken in registers: the twin the vector
/// walks are tested against.
#[inline]
fn lut_decode_on<const WIDTH: usize, const ADD: bool>(
    route: Route,
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) {
    match route.0 {
        Body::Scalar => {
            lut_decode_buckets::<WIDTH, ADD>(payload, bucket_size, table_of, out, |_, _, _| 0)
        }
        // SAFETY (both arms): a `Route` names only bodies whose CPU
        // features `Route::widest` has verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe { lut_decode_avx2::<WIDTH, ADD>(payload, bucket_size, table_of, out) },
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe {
            lut_decode_avx512::<WIDTH, ADD>(payload, bucket_size, table_of, out)
        },
    }
}

/// The bucket walk of [`lut_decode`]. `groups` decodes a leading multiple
/// of eight elements of a bucket from its codebook and says how many; the
/// rest are looked up from one word of up to eight codes at a time.
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

/// AVX-512 body of [`lut_decode`]: every bucket's whole groups of
/// sixteen elements (sixteen codes fill `2 * WIDTH` bytes) are looked up
/// in one register, and a whole group of eight after them by
/// [`lut_eights`].
///
/// # Safety
///
/// The CPU must support AVX-512F. Nothing else is asked of the caller:
/// every load and store goes through a slice of exactly the length it
/// touches, and a `payload` shorter than [`lut_decode`] has checked is a
/// panic in the walk, not a wild read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lut_decode_avx512<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // Codes 0..8 of a group start at bit 0 of its first four bytes; codes
    // 8..16 start at bit 8 * WIDTH of the group, which is bit `up` of its
    // last four. Lane l of either half then wants its dword moved right
    // by (l mod 8) * WIDTH more.
    let up = _mm512_set1_epi32(32 - 8 * WIDTH as i32);
    let in_half = _mm512_and_si512(lanes, _mm512_set1_epi32(7));
    let shifts = _mm512_mullo_epi32(in_half, _mm512_set1_epi32(WIDTH as i32));
    let shifts = _mm512_mask_add_epi32(shifts, 0xFF00, shifts, up);
    // Entry i at every lane i mod 2^WIDTH: vpermps reads four index bits,
    // and those above a code select a copy of the same entry.
    let copies = _mm512_and_si512(lanes, _mm512_set1_epi32((1 << WIDTH) - 1));
    lut_decode_buckets::<WIDTH, ADD>(payload, bucket_size, table_of, out, |table, codes, dst| {
        let book = _mm512_permutexvar_ps(copies, _mm512_loadu_ps(table.as_ptr()));
        let groups = dst.chunks_exact_mut(16);
        let done = groups.len() * 16;
        for (bytes, vals) in codes.chunks_exact(2 * WIDTH).zip(groups) {
            let low = i32::from_le_bytes(bytes[..4].try_into().expect("four bytes"));
            let high = i32::from_le_bytes(bytes[2 * WIDTH - 4..].try_into().expect("four bytes"));
            let halves = _mm512_mask_set1_epi32(_mm512_set1_epi32(low), 0xFF00, high);
            let mut v = _mm512_permutexvar_ps(_mm512_srlv_epi32(halves, shifts), book);
            if ADD {
                v = _mm512_add_ps(_mm512_loadu_ps(vals.as_ptr()), v);
            }
            _mm512_storeu_ps(vals.as_mut_ptr(), v);
        }
        done + lut_eights::<WIDTH, ADD>(table, &codes[done / 8 * WIDTH..], &mut dst[done..])
    });
}

/// AVX2 body of [`lut_decode`]: every bucket's whole groups of eight
/// elements are looked up in registers, by [`lut_eights`].
///
/// # Safety
///
/// The CPU must support AVX2. Nothing else is asked of the caller, as
/// for [`lut_decode_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut_decode_avx2<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) {
    lut_decode_buckets::<WIDTH, ADD>(payload, bucket_size, table_of, out, |table, codes, dst| {
        lut_eights::<WIDTH, ADD>(table, codes, dst)
    });
}

/// Looks the whole groups of eight elements of `dst` up in `table` —
/// eight codes fill `WIDTH` bytes of `codes` — and returns how many
/// elements that was.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lut_eights<const WIDTH: usize, const ADD: bool>(
    table: &[f32; 16],
    codes: &[u8],
    dst: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let w = WIDTH as i32;
    let shifts = _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w, 5 * w, 6 * w, 7 * w);
    let low_two = _mm256_set1_epi32(3);
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
}

/// `max_j |bucket[j]|` — the max-norm pass of the encoder. NaN elements
/// are skipped (`f32::max` ignores a NaN operand) and the result is never
/// `-0.0`: `abs` clears the sign and the fold starts at `+0.0`.
///
/// Both vector routes run the one 8-lane body: the fold is a bucket's
/// first touch and runs at memory speed in a step, where a 16-lane one
/// measured no faster alone and slower in the encoder (DESIGN.md §4.2.1).
pub(crate) fn max_abs(route: Route, bucket: &[f32]) -> f32 {
    match route.0 {
        Body::Scalar => bucket.iter().fold(0.0f32, |m, x| m.max(x.abs())),
        // SAFETY: a `Route` names only bodies whose CPU features
        // `Route::widest` has verified at runtime, and AVX2 implies AVX.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 | Body::Avx512 => unsafe { max_abs_avx(bucket) },
    }
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

    const SCALAR: Route = Route(Body::Scalar);

    /// Every route this CPU can run, not only the one [`Route::widest`]
    /// picks: a wider one implies the narrower.
    pub(crate) fn bodies() -> Vec<Route> {
        let all = [
            SCALAR,
            #[cfg(target_arch = "x86_64")]
            Route(Body::Avx2),
            #[cfg(target_arch = "x86_64")]
            Route(Body::Avx512),
        ];
        let widest = Route::widest().lanes();
        all.into_iter().filter(|r| r.lanes() <= widest).collect()
    }

    #[test]
    fn packed_bytes_match_scalar_twin_code_for_code() {
        // Under --nocapture a CI log says which bodies its runner could
        // test: one without AVX-512 is green on two of the three.
        let lanes: Vec<u64> = bodies().into_iter().map(Route::lanes).collect();
        println!("cgx-compress kernel bodies exercised, in lanes: {lanes:?}");
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
            // Lengths around the 8- and 16-lane groups, those a width
            // packs into whole bytes: what the sixteens leave goes to the
            // eights, and a partial last group exercises the word tail.
            let lengths = [
                0usize, 4, 8, 12, 15, 16, 17, 20, 24, 31, 40, 60, 64, 120, 128, 136, 1000,
            ];
            let whole = |n: &usize| (n * width as usize).is_multiple_of(8);
            for n in lengths.into_iter().filter(whole) {
                let mut bucket: Vec<f32> = (0..n).map(|_| (rng.normal() * 2.0) as f32).collect();
                for (slot, special) in bucket.iter_mut().skip(1).step_by(3).zip(SPECIALS) {
                    *slot = special;
                }
                let norms = [
                    max_abs(SCALAR, &bucket),
                    1.0,
                    0.0,
                    1.0e-42,
                    f32::INFINITY,
                    f32::NAN,
                ];
                for norm in norms {
                    let q = BucketQuantizer::new(levels, norm, &stream, n as u64);
                    let mut twin = crate::BitWriter::new();
                    for (j, &v) in bucket.iter().enumerate() {
                        twin.write_bits(q.code(j, v), width);
                    }
                    let twin = twin.finish();
                    for route in bodies() {
                        let mut packed = vec![0xAAu8; n * width as usize / 8];
                        quantize_pack(route, &bucket, &q, width, &mut packed);
                        assert_eq!(
                            packed,
                            twin.as_ref(),
                            "{route:?} width={width} levels={levels} n={n} norm={norm}"
                        );
                    }
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

    /// [`lut_decode`]'s scalar walk over QSGD's codebook.
    fn twin<const ADD: bool>(bits: u32, payload: &[u8], bucket_size: usize, out: &mut [f32]) {
        let table_of = grid((1 << (bits - 1)) - 1);
        lut_decode::<ADD>(SCALAR, bits, payload, bucket_size, table_of, out);
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
            // Buckets that are whole 16-lane groups, that leave the 8-lane
            // body a group (8, 24, 40, 136), and one no kernel takes (10).
            for bucket_size in [8usize, 10, 16, 24, 40, 64, 128, 136, 1024] {
                // Lengths around both lane groups, the bucket and the byte.
                let lengths = [
                    0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 40, 120, 127, 128, 129, 136, 515, 1000,
                    4099,
                ];
                for n in lengths {
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
                    let base: Vec<f32> = (0..n)
                        .map(|i| match i % 7 {
                            0 => SPECIALS[i % 5],
                            _ => i as f32 * 0.5 - 9.0,
                        })
                        .collect();
                    let mut twin_sum = base.clone();
                    twin::<true>(bits, &payload, bucket_size, &mut twin_sum);
                    for route in bodies() {
                        let what = format!("{route:?} bits={bits} bucket={bucket_size} n={n}");
                        let table_of = grid(levels);
                        let mut got = vec![9.0f32; n];
                        let taken = lut_decode::<false>(
                            route,
                            bits,
                            &payload,
                            bucket_size,
                            table_of,
                            &mut got,
                        );
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

                        let table_of = grid(levels);
                        let mut kernel_sum = base.clone();
                        lut_decode::<true>(
                            route,
                            bits,
                            &payload,
                            bucket_size,
                            table_of,
                            &mut kernel_sum,
                        );
                        for (i, (b, v)) in base.iter().zip(&want).enumerate() {
                            // Which payload the sum of two NaNs carries is
                            // the compiler's choice of operand order.
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
    }

    #[test]
    fn max_abs_matches_serial_fold() {
        let mut rng = Rng::seed_from_u64(47);
        // Lengths around the 32-element boundary exercise the tail fold.
        let lengths = [
            0usize, 1, 7, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 120, 127, 128, 136, 1000,
        ];
        for n in lengths {
            let mut bucket: Vec<f32> = (0..n).map(|_| (rng.normal() * 3.0) as f32).collect();
            let want = bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            for route in bodies() {
                assert_eq!(max_abs(route, &bucket), want, "{route:?} n={n}");
            }
            // NaN lanes are skipped wherever they fall; a signed zero or
            // an infinity is not.
            for (slot, special) in bucket.iter_mut().step_by(5).zip(SPECIALS) {
                *slot = special;
            }
            let want = bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            for route in bodies() {
                assert_eq!(
                    max_abs(route, &bucket).to_bits(),
                    want.to_bits(),
                    "{route:?} specials, n={n}"
                );
            }
        }
    }

    /// `cargo test --release -p cgx-compress --lib simd::tests::timing --
    /// --ignored --nocapture`: Melem/s of the three kernels on every route
    /// this CPU can run, over a 32,768-element chunk in buckets of the
    /// planner's size for the width (DESIGN.md §4.2.1's route table).
    #[test]
    #[ignore = "timing, not a check"]
    fn timing() {
        const N: usize = 32_768;
        let mut rng = Rng::seed_from_u64(1);
        let stream = CounterRng::new(rng.next_u64());
        let data: Vec<f32> = (0..N).map(|_| rng.normal() as f32).collect();
        let melem_s = |pass: &mut dyn FnMut()| {
            let best = (0..2000)
                .map(|_| {
                    let start = std::time::Instant::now();
                    pass();
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            N as f64 / best / 1e6
        };
        let layouts = [
            (2u32, 1024usize),
            (3, 512),
            (4, 128),
            (5, 64),
            (6, 64),
            (7, 64),
            (8, 64),
        ];
        for (bits, bucket_size) in layouts {
            let levels = (1u32 << (bits - 1)) - 1;
            let per_bucket = 4 + bucket_size * bits as usize / 8;
            let mut payload = vec![0u8; N / bucket_size * per_bucket];
            let mut out = vec![0.0f32; N];
            for route in bodies() {
                let encode = melem_s(&mut || {
                    let buckets = data.chunks(bucket_size).zip(payload.chunks_mut(per_bucket));
                    for (b, (bucket, bytes)) in buckets.enumerate() {
                        let norm = max_abs(route, bucket);
                        bytes[..4].copy_from_slice(&norm.to_le_bytes());
                        let q = BucketQuantizer::new(levels, norm, &stream, b as u64);
                        quantize_pack(route, bucket, &q, bits, &mut bytes[4..]);
                    }
                    std::hint::black_box(&mut payload);
                });
                let decode_add = melem_s(&mut || {
                    lut_decode::<true>(route, bits, &payload, bucket_size, grid(levels), &mut out);
                    std::hint::black_box(&mut out);
                });
                let decode_add = if bits <= 4 { decode_add } else { f64::NAN };
                println!(
                    "{bits} / {bucket_size:4} {:2} lanes: encode {encode:6.0} Melem/s, decode-add {decode_add:6.0}",
                    route.lanes()
                );
            }
        }
    }
}
