//! The two fused kernels of the bucketed quantizers at the machine's
//! vector width — sixteen elements per AVX-512 iteration, eight per AVX2
//! one: stochastic rounding straight into packed codes, and packed codes
//! straight into (or onto) `f32`s. The encoder's norm pass, the max-abs
//! fold, is here too, eight lanes on either vector route: it is a
//! bucket's first touch and runs at the speed of memory.
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
//! [`quantize`] is one walk over a whole call: the payload is sized
//! once, the route's constants are taken once, and per bucket the walk
//! folds the norm, writes it, derives the bucket's round keys and runs
//! the group bodies. A committing walk ([`Elems`]) also overwrites each
//! element with the codebook entry its code decodes to, from the register
//! the code is still in — the values every receiver's decode writes.
//!
//! A bucket whose norm is `+0.0` and whose elements are all `±0` (not a
//! zero max-norm over a NaN, which `max_abs` skips) is written as the
//! norm field [`ZERO_BUCKET`] and nothing else: no round keys are drawn
//! and no codes follow. Its codes would all be `s`, which decode to
//! `+0.0`, so a commit writes `+0.0` over it and [`lut_decode`] writes
//! (or adds) `+0.0` for it — the bits every decoder produced when the
//! codes were on the wire.
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
//! `l * WIDTH..` and [`quantize`] has one form for all seven widths.
//! The 16-lane body narrows its sixteen codes to a byte each (`vpmovdb`)
//! and closes the low `WIDTH` bits of every byte up with one `pext` per
//! eight: two words, `2 * WIDTH` bytes. The 8-lane body shifts each lane
//! to its place (`vpsllvd`), ors the lanes of each 128-bit half together
//! and joins the halves — in a lane up to 4 bits, in a `u64` above; the
//! scalar twin, which is also the tail of a bucket that is no multiple of
//! eight, assembles the same word a code at a time. A commit looks a
//! code of up to 4 bits up in the bucket's sixteen-entry codebook: one
//! `vpermps zmm`, or two `vpermps ymm` and a `vblendvps` on code bit 3.
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

use crate::{NormKind, PayloadError};
use cgx_tensor::rng::CounterRng;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::ops::Range;

const TWO_POW_24: f32 = 16_777_216.0;

/// The norm field of a bucket of zeros: the bits of `-0.0`, which neither
/// norm produces (`max_abs` and [`l2_norm`] of a bucket of `±0` are
/// `+0.0`). No codes follow it.
pub(crate) const ZERO_BUCKET: u32 = 0x8000_0000;

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

/// What a quantizer walk is asked for, besides its elements and its
/// output.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk<'a> {
    /// `s`, the number of positive levels.
    pub(crate) levels: u32,
    /// Elements per bucket; the last bucket may hold fewer.
    pub(crate) bucket_size: usize,
    /// The norm a bucket's grid spans.
    pub(crate) norm: NormKind,
    /// The call's stream: element `j` of bucket `b` rounds on draw
    /// `(b << 32) | j`.
    pub(crate) stream: &'a CounterRng,
}

/// The elements a walk quantizes: a `&[f32]` it only reads, or a
/// `&mut [f32]` it also overwrites with what they decode to — the commit.
pub(crate) trait Elems {
    /// Whether the walk writes each element's decoded value back.
    const COMMIT: bool;
    /// The elements.
    fn read(&self) -> &[f32];
    /// The elements, to overwrite; asked for only when `COMMIT`.
    fn write(&mut self) -> &mut [f32];
    /// The start of the elements in `range`, for a vector body to load
    /// from and, only when `COMMIT`, store to. Panics if `range` is out
    /// of bounds.
    fn lanes(&mut self, range: Range<usize>) -> *mut f32;
}

impl Elems for &[f32] {
    const COMMIT: bool = false;
    fn read(&self) -> &[f32] {
        self
    }
    fn write(&mut self) -> &mut [f32] {
        unreachable!("a walk that only encodes writes no element")
    }
    fn lanes(&mut self, range: Range<usize>) -> *mut f32 {
        self[range].as_ptr().cast_mut()
    }
}

impl Elems for &mut [f32] {
    const COMMIT: bool = true;
    fn read(&self) -> &[f32] {
        self
    }
    fn write(&mut self) -> &mut [f32] {
        self
    }
    fn lanes(&mut self, range: Range<usize>) -> *mut f32 {
        self[range].as_mut_ptr()
    }
}

/// Quantizes `data` into `out` in one walk: per bucket its norm (an
/// `f32`, little-endian), then its codes, `width` bits each and
/// LSB-first — the bytes `BitWriter` writes when every bucket starts on
/// a byte — or, for a bucket of zeros, [`ZERO_BUCKET`] alone. A
/// committing walk also overwrites each element with entry `code` of
/// `table_of(norm)`, its bucket's codebook: the value [`lut_decode`]
/// writes for it from the same function. Returns the payload's length.
///
/// # Panics
///
/// Panics unless `width` is in `2..=8` and holds the codes of
/// `walk.levels`, a bucket is a whole number of bytes, and `out` is
/// exactly as long as a payload with every code in it; and, for a
/// commit, unless the codes index sixteen entries (`walk.levels <= 7`).
pub(crate) fn quantize<E: Elems>(
    route: Route,
    walk: &Walk,
    width: u32,
    data: E,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [u8],
) -> usize {
    let (n, w) = (data.read().len(), width as usize);
    assert!((2..=8).contains(&width), "width {width} has no packed form");
    assert!(
        2 * walk.levels < 1 << width,
        "{width} bits hold no level beyond"
    );
    assert!(
        (walk.bucket_size * w).is_multiple_of(8),
        "buckets end on a byte"
    );
    let payload = n.div_ceil(walk.bucket_size) * 4 + (n * w).div_ceil(8);
    assert_eq!(out.len(), payload, "payload size");
    assert!(!E::COMMIT || walk.levels <= 7, "codes beyond the codebook");
    match width {
        2 => quantize_on::<2, E>(route, walk, data, table_of, out),
        3 => quantize_on::<3, E>(route, walk, data, table_of, out),
        4 => quantize_on::<4, E>(route, walk, data, table_of, out),
        5 => quantize_on::<5, E>(route, walk, data, table_of, out),
        6 => quantize_on::<6, E>(route, walk, data, table_of, out),
        7 => quantize_on::<7, E>(route, walk, data, table_of, out),
        _ => quantize_on::<8, E>(route, walk, data, table_of, out),
    }
}

/// [`quantize`] at one width, by the bucket walk `route` names. On
/// [`Body::Scalar`] no groups are taken in registers: the twin the vector
/// walks are tested against.
#[inline]
fn quantize_on<const WIDTH: usize, E: Elems>(
    route: Route,
    walk: &Walk,
    mut data: E,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [u8],
) -> usize {
    let data = &mut data;
    match route.0 {
        Body::Scalar => {
            let groups = |_: &_, _: &_, _, _: &mut E, _: &mut _| 0;
            quantize_buckets::<WIDTH, E>(walk, data, table_of, out, max_abs_scalar, groups)
        }
        // SAFETY (both arms): a `Route` names only bodies whose CPU
        // features `Route::widest` has verified at runtime.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe { quantize_avx2::<WIDTH, E>(walk, data, table_of, out) },
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe { quantize_avx512::<WIDTH, E>(walk, data, table_of, out) },
    }
}

/// The bucket walk of [`quantize`], returning the payload's length. Per
/// bucket: the norm (`max_abs` is the route's fold), written ahead of the
/// codes — or [`ZERO_BUCKET`], and the next bucket; the quantizer and,
/// committing, the codebook; then `groups` quantizes a leading multiple
/// of eight of the bucket's elements (their indices in `data` are its
/// range) in registers and says how many, and the rest go a word of up
/// to eight codes at a time through [`BucketQuantizer::code`]. The group
/// bodies take the bucket's values as arguments, not in a struct: one
/// that lived on the stack cost each bucket a failed store forwarding.
#[inline(always)]
fn quantize_buckets<const WIDTH: usize, E: Elems>(
    walk: &Walk,
    data: &mut E,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [u8],
    max_abs: impl Fn(&[f32]) -> f32,
    mut groups: impl FnMut(&BucketQuantizer, &[f32; 16], Range<usize>, &mut E, &mut [u8]) -> usize,
) -> usize {
    let (n, max_len) = (data.read().len(), out.len());
    let mut rest = out;
    for (b, at) in (0..n).step_by(walk.bucket_size).enumerate() {
        let len = walk.bucket_size.min(n - at);
        let (head, after) = std::mem::take(&mut rest).split_at_mut(4);
        let vals = &data.read()[at..at + len];
        let norm = match walk.norm {
            NormKind::Max => max_abs(vals),
            NormKind::L2 => l2_norm(vals),
        };
        // Every element `±0`, no bit but the sign set: a norm of `+0.0`
        // over a NaN is a bucket with codes. One branch-free fold, which
        // vectorises, where a test per element would not.
        if norm.to_bits() == 0 && vals.iter().fold(0, |bits, v| bits | v.to_bits() << 1) == 0 {
            head.copy_from_slice(&ZERO_BUCKET.to_le_bytes());
            if E::COMMIT {
                data.write()[at..at + len].fill(0.0);
            }
            rest = after;
            continue;
        }
        head.copy_from_slice(&norm.to_le_bytes());
        let (codes, after) = after.split_at_mut((len * WIDTH).div_ceil(8));
        rest = after;
        let q = BucketQuantizer::new(walk.levels, norm, walk.stream, b as u64);
        let table = if E::COMMIT { table_of(norm) } else { [0.0; 16] };
        let done = groups(&q, &table, at..at + len, data, codes);
        // Eight codes fill `WIDTH` whole bytes and `done` is a multiple
        // of 8, so every group starts a byte; the last one, of fewer
        // codes, has the bytes those take.
        for (g, bytes) in codes[done / 8 * WIDTH..].chunks_mut(WIDTH).enumerate() {
            let first = done + 8 * g;
            let mut word = 0u64;
            for (l, j) in (first..len.min(first + 8)).enumerate() {
                let code = q.code(j, data.read()[at + j]);
                word |= u64::from(code) << (l * WIDTH);
                if E::COMMIT {
                    data.write()[at + j] = table[code as usize];
                }
            }
            bytes.copy_from_slice(&word.to_le_bytes()[..bytes.len()]);
        }
    }
    max_len - rest.len()
}

/// AVX-512 body of [`quantize`]: every bucket's whole groups of sixteen
/// by [`Sixteens`], then a whole group of eight after them by [`Eights`].
///
/// # Safety
///
/// The CPU must support AVX-512F and BMI2. Nothing else is asked of the
/// caller: every load and store is inside a slice or an [`Elems::lanes`]
/// range that was bounds-checked first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,bmi2")]
unsafe fn quantize_avx512<const WIDTH: usize, E: Elems>(
    walk: &Walk,
    data: &mut E,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [u8],
) -> usize {
    let sixteens = Sixteens::<WIDTH>::new(walk.levels);
    let eights = Eights::<WIDTH>::new(walk.levels);
    let max_abs = |vals: &[f32]| max_abs_avx(vals);
    let groups = |q: &_, table: &_, at: Range<usize>, data: &mut E, codes: &mut _| {
        let done = sixteens.run(q, table, at.clone(), data, codes);
        match at.len() - done {
            0..8 => done,
            _ => eights.run(done, q, table, at, data, codes),
        }
    };
    quantize_buckets::<WIDTH, E>(walk, data, table_of, out, max_abs, groups)
}

/// AVX2 body of [`quantize`]: every bucket's whole groups of eight by
/// [`Eights`].
///
/// # Safety
///
/// The CPU must support AVX2. Nothing else is asked of the caller, as
/// for [`quantize_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2<const WIDTH: usize, E: Elems>(
    walk: &Walk,
    data: &mut E,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [u8],
) -> usize {
    let eights = Eights::<WIDTH>::new(walk.levels);
    let max_abs = |vals: &[f32]| max_abs_avx(vals);
    let groups = |q: &_, table: &_, at, data: &mut E, codes: &mut _| {
        eights.run(0, q, table, at, data, codes)
    };
    quantize_buckets::<WIDTH, E>(walk, data, table_of, out, max_abs, groups)
}

/// The 16-lane group body of [`quantize`], with the constants of a call
/// taken once.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Sixteens<const WIDTH: usize> {
    s: __m512,
    minus_s: __m512,
    offset: __m512i,
    two_pow_24: __m512,
    m0: __m512i,
    m1: __m512i,
    /// Lane l's Weyl multiple in a bucket's first group; it moves on by
    /// `step` from one group to the next.
    weyl: __m512i,
    step: __m512i,
}

#[cfg(target_arch = "x86_64")]
impl<const WIDTH: usize> Sixteens<WIDTH> {
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn new(levels: u32) -> Self {
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        Sixteens {
            s: _mm512_set1_ps(levels as f32),
            minus_s: _mm512_set1_ps(-(levels as f32)),
            offset: _mm512_set1_epi32(levels as i32),
            two_pow_24: _mm512_set1_ps(TWO_POW_24),
            m0: _mm512_set1_epi32(CounterRng::MULTIPLIERS[0] as i32),
            m1: _mm512_set1_epi32(CounterRng::MULTIPLIERS[1] as i32),
            weyl: _mm512_mullo_epi32(lanes, _mm512_set1_epi32(CounterRng::WEYL as i32)),
            step: _mm512_set1_epi32(CounterRng::WEYL.wrapping_mul(16) as i32),
        }
    }

    /// Quantizes the whole groups of sixteen of the bucket at `at` by `q`
    /// (sixteen codes fill `2 * WIDTH` bytes of `codes`) and, committing,
    /// writes their entries of `table` back; returns how many elements
    /// that was.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and BMI2.
    #[target_feature(enable = "avx512f,bmi2")]
    #[inline]
    unsafe fn run<E: Elems>(
        &self,
        q: &BucketQuantizer,
        table: &[f32; 16],
        at: Range<usize>,
        data: &mut E,
        codes: &mut [u8],
    ) -> usize {
        let Sixteens {
            s,
            minus_s,
            offset,
            two_pow_24,
            m0,
            m1,
            mut weyl,
            step,
        } = *self;
        let scale = _mm512_set1_ps(q.scale);
        let k0 = _mm512_set1_epi32(q.keys[0] as i32);
        let k1 = _mm512_set1_epi32(q.keys[1] as i32);
        let book = _mm512_loadu_ps(table.as_ptr());
        // The low WIDTH bits of each of eight bytes.
        let code_bits = 0x0101_0101_0101_0101u64 * ((1 << WIDTH) - 1);
        let groups = at.len() / 16;
        let vals = data.lanes(at.start..at.start + 16 * groups);
        for (g, bytes) in codes[..2 * WIDTH * groups]
            .chunks_exact_mut(2 * WIDTH)
            .enumerate()
        {
            // SAFETY: `vals` starts `16 * groups` elements, and only a
            // commit, whose `lanes` lent them writable, stores.
            let at = vals.add(16 * g);
            // r = CounterRng::mix(16g + l, keys) >> 8
            let mut x = _mm512_xor_si512(weyl, k0);
            weyl = _mm512_add_epi32(weyl, step);
            x = _mm512_mullo_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<16>(x)), m0);
            x = _mm512_add_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<15>(x)), k1);
            x = _mm512_mullo_epi32(x, m1);
            let r = _mm512_srli_epi32::<8>(_mm512_xor_si512(x, _mm512_srli_epi32::<15>(x)));
            // Operand order matters: vmaxps returns its second operand
            // when the first is NaN, as f32::max(NaN, -s) == -s.
            let v = _mm512_mul_ps(_mm512_loadu_ps(at), scale);
            let scaled = _mm512_min_ps(_mm512_max_ps(v, minus_s), s);
            let t = _mm512_cvttps_epi32(_mm512_mul_ps(scaled, two_pow_24));
            let level = _mm512_srai_epi32::<24>(_mm512_add_epi32(t, r));
            let code = _mm512_add_epi32(offset, level);
            if E::COMMIT {
                // A code of up to 4 bits is an index vpermps reads whole.
                _mm512_storeu_ps(at, _mm512_permutexvar_ps(code, book));
            }
            // A code is at most 2s <= 254: a byte each, then the WIDTH
            // bits of eight bytes closed up into one word of WIDTH bytes.
            // The bytes go through memory: two loads are cheaper than
            // moving both halves out of a register on the vector ports.
            let mut narrow = [0u64; 2];
            _mm512_mask_cvtepi32_storeu_epi8(narrow.as_mut_ptr().cast(), 0xFFFF, code);
            let lo = _pext_u64(narrow[0], code_bits);
            let hi = _pext_u64(narrow[1], code_bits);
            let word = u128::from(lo) | u128::from(hi) << (8 * WIDTH);
            bytes.copy_from_slice(&word.to_le_bytes()[..2 * WIDTH]);
        }
        groups * 16
    }
}

/// The 8-lane group body of [`quantize`], with the constants of a call
/// taken once.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Eights<const WIDTH: usize> {
    s: __m256,
    minus_s: __m256,
    offset: __m256i,
    two_pow_24: __m256,
    m0: __m256i,
    m1: __m256i,
    /// Lane l's Weyl multiple in a bucket's first group; it moves on by
    /// `step` from one group to the next.
    weyl: __m256i,
    step: __m256i,
    /// Where each lane's code goes in its 128-bit half.
    shifts: __m256i,
}

#[cfg(target_arch = "x86_64")]
impl<const WIDTH: usize> Eights<WIDTH> {
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn new(levels: u32) -> Self {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        // Code l belongs at bits l * WIDTH.. of the group's word. Each
        // 128-bit half gathers its four codes in its lowest lane; above
        // WIDTH 4 a lane has no room for the other half's, and the two
        // lanes are joined in a `u64` instead.
        let w = WIDTH as i32;
        let up = if WIDTH > 4 { 0 } else { 4 * w };
        Eights {
            s: _mm256_set1_ps(levels as f32),
            minus_s: _mm256_set1_ps(-(levels as f32)),
            offset: _mm256_set1_epi32(levels as i32),
            two_pow_24: _mm256_set1_ps(TWO_POW_24),
            m0: _mm256_set1_epi32(CounterRng::MULTIPLIERS[0] as i32),
            m1: _mm256_set1_epi32(CounterRng::MULTIPLIERS[1] as i32),
            weyl: _mm256_mullo_epi32(lanes, _mm256_set1_epi32(CounterRng::WEYL as i32)),
            step: _mm256_set1_epi32(CounterRng::WEYL.wrapping_mul(8) as i32),
            shifts: _mm256_setr_epi32(0, w, 2 * w, 3 * w, up, up + w, up + 2 * w, up + 3 * w),
        }
    }

    /// Quantizes the whole groups of eight of the bucket at `at` by `q`
    /// from its element `from`, a multiple of eight (eight codes fill
    /// `WIDTH` bytes of `codes`), and, committing, writes their entries
    /// of `table` back; returns where it stopped.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn run<E: Elems>(
        &self,
        from: usize,
        q: &BucketQuantizer,
        table: &[f32; 16],
        at: Range<usize>,
        data: &mut E,
        codes: &mut [u8],
    ) -> usize {
        let Eights {
            s,
            minus_s,
            offset,
            two_pow_24,
            m0,
            m1,
            weyl,
            step,
            shifts,
        } = *self;
        let scale = _mm256_set1_ps(q.scale);
        let k0 = _mm256_set1_epi32(q.keys[0] as i32);
        let k1 = _mm256_set1_epi32(q.keys[1] as i32);
        let book_lo = _mm256_loadu_ps(table.as_ptr());
        let book_hi = _mm256_loadu_ps(table[8..].as_ptr());
        let first = _mm256_set1_epi32(CounterRng::WEYL.wrapping_mul(from as u32) as i32);
        let mut weyl = _mm256_add_epi32(weyl, first);
        let groups = (at.len() - from) / 8;
        let vals = data.lanes(at.start + from..at.start + from + 8 * groups);
        let words = codes[from / 8 * WIDTH..][..WIDTH * groups].chunks_exact_mut(WIDTH);
        for (g, bytes) in words.enumerate() {
            // SAFETY: `vals` starts `8 * groups` elements, and only a
            // commit, whose `lanes` lent them writable, stores.
            let at = vals.add(8 * g);
            // r = CounterRng::mix(from + 8g + l, keys) >> 8
            let mut x = _mm256_xor_si256(weyl, k0);
            weyl = _mm256_add_epi32(weyl, step);
            x = _mm256_mullo_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<16>(x)), m0);
            x = _mm256_add_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<15>(x)), k1);
            x = _mm256_mullo_epi32(x, m1);
            let r = _mm256_srli_epi32::<8>(_mm256_xor_si256(x, _mm256_srli_epi32::<15>(x)));
            // Operand order matters: vmaxps returns its second operand
            // when the first is NaN, as f32::max(NaN, -s) == -s.
            let v = _mm256_mul_ps(_mm256_loadu_ps(at), scale);
            let scaled = _mm256_min_ps(_mm256_max_ps(v, minus_s), s);
            let t = _mm256_cvttps_epi32(_mm256_mul_ps(scaled, two_pow_24));
            let level = _mm256_srai_epi32::<24>(_mm256_add_epi32(t, r));
            let code = _mm256_add_epi32(offset, level);
            if E::COMMIT {
                // vpermps reads the low three index bits; code bit 3
                // picks the half.
                let bit3 = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(code));
                let lo = _mm256_permutevar8x32_ps(book_lo, code);
                let v = _mm256_blendv_ps(lo, _mm256_permutevar8x32_ps(book_hi, code), bit3);
                _mm256_storeu_ps(at, v);
            }
            let placed = _mm256_sllv_epi32(code, shifts);
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
        from + groups * 8
    }
}

/// Decodes the buckets of `payload` — per bucket an `f32` norm, then
/// `bits`-bit codes, LSB-first — over `out` (`ADD` false) or onto it
/// (`ADD` true): element `i` is entry `code_i` of `table_of(norm)`, its
/// bucket's codebook, and every element of a [`ZERO_BUCKET`] is `+0.0`
/// (NUQSGD, which decodes here too, never writes that norm). Returns
/// `Ok(false)`, with `out` untouched, for a layout it has no kernel for: a
/// width outside `2..=4` (more than sixteen values), or full buckets that
/// do not end on a byte, which leave norms unaligned.
///
/// # Errors
///
/// [`PayloadError::Short`], before reading past its end, if `payload` is
/// shorter than its norm fields say `out.len()` elements take, and
/// [`PayloadError::Trailing`] if bytes are left after the last bucket.
/// `out` is unspecified then.
pub(crate) fn lut_decode<const ADD: bool>(
    route: Route,
    bits: u32,
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) -> Result<bool, PayloadError> {
    let (n, width) = (out.len(), bits as usize);
    if !(2..=4).contains(&bits) || !(bucket_size * width).is_multiple_of(8) {
        return Ok(false);
    }
    // One lane group at least, or the vector set-up is all a call does.
    let route = if n < 8 { Route(Body::Scalar) } else { route };
    match bits {
        2 => lut_decode_on::<2, ADD>(route, payload, bucket_size, table_of, out),
        3 => lut_decode_on::<3, ADD>(route, payload, bucket_size, table_of, out),
        _ => lut_decode_on::<4, ADD>(route, payload, bucket_size, table_of, out),
    }
    .map(|()| true)
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
) -> Result<(), PayloadError> {
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

/// The bucket walk of [`lut_decode`], which checks each bucket's length
/// before it reads the bucket, and that no byte follows the last.
/// `groups` decodes a leading multiple of eight elements of a bucket from
/// its codebook and says how many; the rest are looked up from one word
/// of up to eight codes at a time.
#[inline(always)]
fn lut_decode_buckets<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
    groups: impl Fn(&[f32; 16], &[u8], &mut [f32]) -> usize,
) -> Result<(), PayloadError> {
    let mut rest = payload;
    for dst in out.chunks_mut(bucket_size) {
        let (norm, after) = rest.split_first_chunk().ok_or(PayloadError::Short)?;
        let norm = u32::from_le_bytes(*norm);
        if norm == ZERO_BUCKET {
            for d in dst.iter_mut() {
                *d = if ADD { *d + 0.0 } else { 0.0 };
            }
            rest = after;
            continue;
        }
        let code_bytes = (dst.len() * WIDTH).div_ceil(8);
        let (codes, after) = after
            .split_at_checked(code_bytes)
            .ok_or(PayloadError::Short)?;
        rest = after;
        let table = table_of(f32::from_bits(norm));
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
    match rest.is_empty() {
        true => Ok(()),
        false => Err(PayloadError::Trailing),
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
/// touches, and a short `payload` is an `Err` of the walk, not a wild
/// read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lut_decode_avx512<const WIDTH: usize, const ADD: bool>(
    payload: &[u8],
    bucket_size: usize,
    table_of: impl Fn(f32) -> [f32; 16],
    out: &mut [f32],
) -> Result<(), PayloadError> {
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
            let high = &bytes[2 * WIDTH - 4..];
            let low = i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let high = i32::from_le_bytes([high[0], high[1], high[2], high[3]]);
            let halves = _mm512_mask_set1_epi32(_mm512_set1_epi32(low), 0xFF00, high);
            let mut v = _mm512_permutexvar_ps(_mm512_srlv_epi32(halves, shifts), book);
            if ADD {
                v = _mm512_add_ps(_mm512_loadu_ps(vals.as_ptr()), v);
            }
            _mm512_storeu_ps(vals.as_mut_ptr(), v);
        }
        done + lut_eights::<WIDTH, ADD>(table, &codes[done / 8 * WIDTH..], &mut dst[done..])
    })
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
) -> Result<(), PayloadError> {
    lut_decode_buckets::<WIDTH, ADD>(payload, bucket_size, table_of, out, |table, codes, dst| {
        lut_eights::<WIDTH, ADD>(table, codes, dst)
    })
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

/// `max_j |bucket[j]|` — the max-norm fold of the walk on `route`. NaN
/// elements are skipped (`f32::max` ignores a NaN operand) and the result
/// is never `-0.0`: `abs` clears the sign and the fold starts at `+0.0`.
///
/// Both vector routes run the one 8-lane body: the fold is a bucket's
/// first touch and runs at memory speed in a step, where a 16-lane one
/// measured no faster alone and slower in the encoder (DESIGN.md §4.2.1).
#[cfg(test)]
pub(crate) fn max_abs(route: Route, bucket: &[f32]) -> f32 {
    match route.0 {
        Body::Scalar => max_abs_scalar(bucket),
        // SAFETY: a `Route` names only bodies whose CPU features
        // `Route::widest` has verified at runtime, and AVX2 implies AVX.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 | Body::Avx512 => unsafe { max_abs_avx(bucket) },
    }
}

/// The scalar fold of [`max_abs`].
fn max_abs_scalar(bucket: &[f32]) -> f32 {
    bucket.iter().fold(0.0f32, |m, x| m.max(x.abs()))
}

/// `sqrt(sum_j bucket[j]^2)`, summed in `f64` in element order — the L2
/// norm of a bucket. Never inlined: which of two NaNs a sum keeps is the
/// compiler's choice of operand order, so every route and the tests' twin
/// call the one compiled body.
#[inline(never)]
pub(crate) fn l2_norm(bucket: &[f32]) -> f32 {
    bucket
        .iter()
        .map(|x| (*x as f64).powi(2))
        .sum::<f64>()
        .sqrt() as f32
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
#[inline]
unsafe fn max_abs_avx(bucket: &[f32]) -> f32 {
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

    /// `n` elements in buckets of `bucket_size`, bucket `b` of a kind
    /// picked by `b`: ordinary values with specials among them, all
    /// zeros, subnormals only, or ordinary values beside an infinity, a
    /// NaN or `f32::MAX` — so that the walk meets every kind of norm.
    fn walk_input(rng: &mut Rng, bucket_size: usize, n: usize) -> Vec<f32> {
        let mut data: Vec<f32> = (0..n).map(|_| (rng.normal() * 2.0) as f32).collect();
        for (b, bucket) in data.chunks_mut(bucket_size).enumerate() {
            match b % 6 {
                0 => {
                    for (slot, special) in bucket.iter_mut().skip(1).step_by(3).zip(SPECIALS) {
                        *slot = special;
                    }
                }
                1 => bucket.fill(0.0),
                2 => {
                    for (j, v) in bucket.iter_mut().enumerate() {
                        *v = f32::from_bits(j as u32 % 7) * if j % 2 == 0 { 1.0 } else { -1.0 };
                    }
                }
                kind => bucket[bucket.len() / 2] = [f32::INFINITY, f32::NAN, f32::MAX][kind - 3],
            }
        }
        data
    }

    #[test]
    fn walk_matches_per_bucket_twin() {
        // Under --nocapture a CI log says which bodies its runner could
        // test: one without AVX-512 is green on two of the three.
        let lanes: Vec<u64> = bodies().into_iter().map(Route::lanes).collect();
        println!("cgx-compress kernel bodies exercised, in lanes: {lanes:?}");
        let mut rng = Rng::seed_from_u64(43);
        let stream = CounterRng::new(rng.next_u64());
        // Every width at its own levels, and the 8-bit form of 3-bit
        // codes that buckets of no whole byte take.
        let layouts = [
            (2u32, 1u32),
            (3, 3),
            (4, 7),
            (5, 15),
            (6, 31),
            (7, 63),
            (8, 127),
            (8, 3),
        ];
        for (width, levels) in layouts {
            // Buckets that are whole groups of sixteen, that leave the
            // eights one (8, 24, 136) and that leave the word tail some
            // (4, 12, 20 where they are whole bytes); lengths around the
            // groups and the bucket end on a partial bucket.
            let whole = |size: &usize| (size * width as usize).is_multiple_of(8);
            let sizes = [4usize, 8, 12, 16, 20, 24, 64, 136]
                .into_iter()
                .filter(whole);
            for bucket_size in sizes {
                for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 40, 127, 129, 515] {
                    let data = walk_input(&mut rng, bucket_size, n);
                    for norm in [NormKind::Max, NormKind::L2] {
                        let walk = Walk {
                            levels,
                            bucket_size,
                            norm,
                            stream: &stream,
                        };
                        let mut twin = crate::BitWriter::new();
                        let mut committed = Vec::with_capacity(n);
                        for (b, bucket) in data.chunks(bucket_size).enumerate() {
                            if bucket.iter().all(|v| *v == 0.0) {
                                twin.write_u32(ZERO_BUCKET);
                                committed.extend(bucket.iter().map(|_| Some(0.0)));
                                continue;
                            }
                            let norm = match norm {
                                NormKind::Max => max_abs(SCALAR, bucket),
                                NormKind::L2 => l2_norm(bucket),
                            };
                            twin.write_f32(norm);
                            let q = BucketQuantizer::new(levels, norm, &stream, b as u64);
                            let table = grid(levels)(norm);
                            for (j, &v) in bucket.iter().enumerate() {
                                let code = q.code(j, v);
                                twin.write_bits(code, width);
                                committed.push(table.get(code as usize).copied());
                            }
                        }
                        let twin = twin.finish();
                        let full = n.div_ceil(bucket_size) * 4 + (n * width as usize).div_ceil(8);
                        for route in bodies() {
                            let what = format!(
                                "{route:?} width={width} levels={levels} bucket={bucket_size} n={n} {norm:?}"
                            );
                            let mut out = vec![0xAAu8; full];
                            let len =
                                quantize(route, &walk, width, &data[..], grid(levels), &mut out);
                            assert_eq!(out[..len], twin[..], "{what}");
                            if levels > 7 {
                                continue;
                            }
                            let mut kept = data.clone();
                            out.fill(0xAA);
                            let len = quantize(
                                route,
                                &walk,
                                width,
                                &mut kept[..],
                                grid(levels),
                                &mut out,
                            );
                            assert_eq!(out[..len], twin[..], "{what}: commit");
                            let want: Vec<u32> =
                                committed.iter().map(|v| v.unwrap().to_bits()).collect();
                            assert_eq!(bits_of(&kept), want, "{what}: committed values");
                        }
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

    /// QSGD's codebook at `levels` positive levels — the one its decoders
    /// and commits use, which the tests below hold to the quotient.
    fn grid(levels: u32) -> impl Fn(f32) -> [f32; 16] {
        let bits = (levels + 1).trailing_zeros() + 1;
        crate::QsgdCompressor::new(bits, 8).codebook()
    }

    /// [`lut_decode`]'s scalar walk over QSGD's codebook.
    fn twin<const ADD: bool>(bits: u32, payload: &[u8], bucket_size: usize, out: &mut [f32]) {
        let table_of = grid((1 << (bits - 1)) - 1);
        lut_decode::<ADD>(SCALAR, bits, payload, bucket_size, table_of, out).unwrap();
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
                        let norm = r.read_f32().unwrap() as f64;
                        for _ in 0..bucket_size.min(n - b * bucket_size) {
                            let signed = r.read_bits(bits).unwrap() as i64 - levels as i64;
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
                            Ok((bucket_size * bits as usize).is_multiple_of(8)),
                            "{what}"
                        );
                        if taken == Ok(false) {
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
                        )
                        .unwrap();
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
            let walk = Walk {
                levels,
                bucket_size,
                norm: NormKind::Max,
                stream: &stream,
            };
            let mut payload = vec![0u8; N / bucket_size * (4 + bucket_size * bits as usize / 8)];
            let (mut kept, mut out) = (data.clone(), vec![0.0f32; N]);
            for route in bodies() {
                let encode = melem_s(&mut || {
                    quantize(route, &walk, bits, &data[..], grid(levels), &mut payload);
                    std::hint::black_box(&mut payload);
                });
                // Committing rewrites its input; after the first pass the
                // values are grid points, which quantize as fast. Above 4
                // bits neither a commit nor the table decode is a kernel.
                let (mut commit, mut decode_add) = (f64::NAN, f64::NAN);
                if bits <= 4 {
                    commit = melem_s(&mut || {
                        quantize(
                            route,
                            &walk,
                            bits,
                            &mut kept[..],
                            grid(levels),
                            &mut payload,
                        );
                        std::hint::black_box(&mut kept);
                    });
                    decode_add = melem_s(&mut || {
                        lut_decode::<true>(
                            route,
                            bits,
                            &payload,
                            bucket_size,
                            grid(levels),
                            &mut out,
                        )
                        .unwrap();
                        std::hint::black_box(&mut out);
                    });
                }
                println!(
                    "{bits} / {bucket_size:4} {:2} lanes: encode {encode:6.0} Melem/s, commit {commit:6.0}, decode-add {decode_add:6.0}",
                    route.lanes()
                );
            }
        }
    }
}
