//! QSGD: stochastic codebook quantization with bucketing.
//!
//! The paper's default compression method (Sections 2.3 and 4). Each gradient
//! is split into fixed-size *buckets*; each bucket stores one `f32` scale (its
//! norm) plus `b` bits per component encoding a signed quantization level
//! produced by stochastic rounding. Stochastic rounding keeps the estimator
//! unbiased, which is what lets SGD converge on compressed gradients.
//!
//! The paper's accuracy baseline is 4 bits with bucket size 128 (Transformers)
//! or 1024 (CNNs).

use crate::bitpack::{BitReader, BitWriter};
#[cfg(test)]
use crate::simd::BucketQuantizer;
use crate::simd::{self, Route, Walk};
use crate::{own_payload, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::rng::CounterRng;
use cgx_tensor::{Bytes, Rng, Shape};

/// Which per-bucket norm scales the quantization grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NormKind {
    /// Euclidean norm of the bucket — the formulation in the paper's QSGD
    /// description (Alistarh et al., 2017).
    L2,
    /// Max (infinity) norm — denser grids; what the CGX implementation
    /// ships and this crate's default.
    #[default]
    Max,
}

/// Stochastic quantizer with bucketing.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, QsgdCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::randn(&mut rng, &[512]);
/// let mut q = QsgdCompressor::new(4, 128);
/// let enc = q.compress(&g, &mut rng);
/// assert_eq!(enc.payload_bytes(), q.compressed_bytes(512));
/// ```
#[derive(Debug, Clone)]
pub struct QsgdCompressor {
    bits: u32,
    bucket_size: usize,
    norm: NormKind,
    /// The widest kernel bodies this CPU runs, asked once.
    route: Route,
    /// The walk's 8-bit payload of a call whose buckets are no whole
    /// number of bytes, on its way to the bit writer; reused across calls
    /// so steady-state compression allocates nothing.
    codes: Vec<u8>,
}

impl QsgdCompressor {
    /// Creates a quantizer with the given bit width and bucket size, using
    /// the max bucket norm (what the CGX implementation ships: for dense
    /// gradients the L2 norm of a bucket dwarfs individual components,
    /// making low-bit grids needlessly coarse).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8` or `bucket_size` is zero. (One-bit
    /// compression is a different scheme; see
    /// [`OneBitCompressor`](crate::OneBitCompressor).)
    pub fn new(bits: u32, bucket_size: usize) -> Self {
        Self::with_norm(bits, bucket_size, NormKind::Max)
    }

    /// Creates a quantizer with an explicit norm kind.
    ///
    /// # Panics
    ///
    /// Same conditions as [`QsgdCompressor::new`].
    pub fn with_norm(bits: u32, bucket_size: usize, norm: NormKind) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8, got {bits}");
        assert!(bucket_size > 0, "bucket size must be positive");
        QsgdCompressor {
            bits,
            bucket_size,
            norm,
            route: Route::widest(),
            codes: Vec::new(),
        }
    }

    /// Bit width per component.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Bucket size.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Number of positive quantization levels `s` (levels are `-s..=s`).
    pub(crate) fn levels(&self) -> u32 {
        (1u32 << (self.bits - 1)) - 1
    }

    /// The bucket's scale as it goes on the wire: the walk's norm, by the
    /// scalar fold the tests hold it to.
    #[cfg(test)]
    fn bucket_norm(&self, bucket: &[f32]) -> f32 {
        match self.norm {
            NormKind::L2 => simd::l2_norm(bucket),
            NormKind::Max => simd::max_abs(self.route, bucket),
        }
    }

    /// The codebook of a bucket of norm `norm`: entry `code` is
    /// `norm * (code - s) / s` in `f64`, rounded to `f32` — every decoder's
    /// value for a code, and what a commit writes back. It is taken as
    /// `norm * (code - s) * (1 / s)`, a multiply where two vector divides
    /// per bucket were the table's cost, and is the quotient's `f32` for
    /// every code of up to 4 bits (`codebook_is_the_quotient` checks it):
    ///
    /// - with `norm = m * 2^e` (`|m| < 2^24`) and `k = code - s`, `|k| <=
    ///   s` (`s` odd), the exact `q = m * k * 2^e / s` is never halfway
    ///   between two `f32`s: if `s` divides `m * k`, `q` is itself an
    ///   `f32`, and otherwise it is at least `2^-25 / s` of itself from any
    ///   such midpoint, where both `f64` results are within `2^-51` of it,
    ///   so they round to the same `f32`;
    /// - the one code above `2s`, `k = s + 1`, is a power of two, `k = 1`
    ///   on a norm scaled by it: the same argument;
    /// - `k = 0`, an infinite and a NaN norm give the same zero, infinity
    ///   or NaN either way.
    pub(crate) fn codebook(&self) -> impl Fn(f32) -> [f32; 16] {
        let (inv, offset) = (1.0 / self.levels() as f64, self.levels() as i64);
        move |norm| std::array::from_fn(|c| (norm as f64 * (c as i64 - offset) as f64 * inv) as f32)
    }

    /// Quantizes `data` into a payload over `buf`'s allocation, in one
    /// walk of the call (the "line rate" kernel of paper Appendix A; see
    /// [`crate::simd`]): per bucket the norm, then scale by `s / norm`,
    /// round stochastically, sign, offset and pack. All the call's
    /// randomness is one key drawn from `rng`; element `j` of bucket `b`
    /// rounds on draw `(b << 32) | j` of that key's [`CounterRng`]
    /// stream, whatever the other elements are. A bucket of zeros is its
    /// norm field alone ([`simd::ZERO_BUCKET`]). Where a bucket is a whole
    /// number of bytes the codes are packed in registers straight into the
    /// payload, at any width; where it is not, the norms after the first
    /// would not start on a byte, and the walk's 8-bit form goes through
    /// the bit writer. A `&mut` `data` is committed: see
    /// [`Compressor::compress_committed_at`].
    fn quantize<E: simd::Elems>(&mut self, data: E, rng: &mut Rng, mut buf: Vec<u8>) -> Bytes {
        let stream = CounterRng::new(rng.next_u64());
        let walk = Walk {
            levels: self.levels(),
            bucket_size: self.bucket_size,
            norm: self.norm,
            stream: &stream,
        };
        let (n, bits, table_of) = (data.read().len(), self.bits, self.codebook());
        if (self.bucket_size * bits as usize).is_multiple_of(8) {
            buf.clear();
            buf.resize(self.compressed_bytes(n), 0);
            let len = simd::quantize(self.route, &walk, bits, data, table_of, &mut buf);
            buf.truncate(len);
            return Bytes::from(buf);
        }
        self.codes.resize(n.div_ceil(self.bucket_size) * 4 + n, 0);
        let len = simd::quantize(self.route, &walk, 8, data, table_of, &mut self.codes);
        let mut w = BitWriter::from_buf(buf);
        let mut rest = &self.codes[..len];
        for at in (0..n).step_by(self.bucket_size) {
            let (norm, after) = rest.split_at(4);
            let norm = u32::from_le_bytes(norm.try_into().expect("four bytes"));
            w.write_u32(norm);
            let len = match norm {
                simd::ZERO_BUCKET => 0,
                _ => self.bucket_size.min(n - at),
            };
            let (codes, after) = after.split_at(len);
            for &code in codes {
                w.write_bits(code.into(), bits);
            }
            rest = after;
        }
        w.finish()
    }

    /// Decodes a payload of any layout, invoking `f(index, value)` for
    /// every element in stream order — `+0.0` for each of a
    /// [`simd::ZERO_BUCKET`]: the reference the table kernel is tested
    /// against, and the route of the layouts it does not take (5 to 8
    /// bits, and buckets that are no whole number of bytes).
    fn decode_with(
        &self,
        payload: &[u8],
        n: usize,
        mut f: impl FnMut(usize, f32),
    ) -> Result<(), PayloadError> {
        let s = self.levels() as f64;
        let offset = self.levels() as i64;
        // Codebook lookup: a bucket decodes every code to one of 2^bits
        // values, so materializing the table once per bucket replaces the
        // per-element i64->f64 convert / multiply / divide with one load.
        // Entries are computed with the exact per-element formula, keeping
        // lookup decode bit-identical to direct decode; skipped when the
        // table would rival the bucket itself in size.
        let table_len = 1usize << self.bits;
        let use_lut = table_len <= 64.max(self.bucket_size / 2);
        let mut table = [0.0f32; 256];
        let mut r = BitReader::new(payload);
        let mut remaining = n;
        let mut i = 0usize;
        while remaining > 0 {
            let bucket_len = remaining.min(self.bucket_size);
            remaining -= bucket_len;
            let norm = r.read_u32()?;
            if norm == simd::ZERO_BUCKET {
                for _ in 0..bucket_len {
                    f(i, 0.0);
                    i += 1;
                }
                continue;
            }
            let norm = f32::from_bits(norm) as f64;
            if use_lut {
                for (c, t) in table[..table_len].iter_mut().enumerate() {
                    let signed = c as i64 - offset;
                    *t = (norm * signed as f64 / s) as f32;
                }
                r.read_run(self.bits, bucket_len, |code| {
                    f(i, table[code as usize]);
                    i += 1;
                })?;
            } else {
                r.read_run(self.bits, bucket_len, |code| {
                    let signed = code as i64 - offset;
                    f(i, (norm * signed as f64 / s) as f32);
                    i += 1;
                })?;
            }
        }
        r.finish()
    }
}

impl Compressor for QsgdCompressor {
    fn name(&self) -> String {
        let norm = match self.norm {
            NormKind::L2 => "l2",
            NormKind::Max => "max",
        };
        format!("qsgd({}b,{},{norm})", self.bits, self.bucket_size)
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let buf = pool.take_buf(self.compressed_bytes(data.len()));
        Encoded::new(shape, self.quantize(data, rng, buf))
    }

    /// By `simd::lut_decode` where it takes the layout (2 to 4 bits,
    /// buckets of whole bytes), from `QsgdCompressor::codebook`, whose
    /// entries are the values of the per-element formula of
    /// `QsgdCompressor::decode_with`, else by that reader. The two agree
    /// bit for bit (`kernel_matches_reader_on_every_layout` and
    /// `every_decoder_emits_its_pinned_values` pin this). Scatter-reduce
    /// decodes `~1.5n` elements per rank per step. Either walk reads each
    /// norm field once, and with it how many bytes of codes follow.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let (route, payload, table_of) = (self.route, enc.payload(), self.codebook());
        let (bits, bucket_size) = (self.bits, self.bucket_size);
        let taken = match add {
            true => simd::lut_decode::<true>(route, bits, payload, bucket_size, table_of, out),
            false => simd::lut_decode::<false>(route, bits, payload, bucket_size, table_of, out),
        };
        match (taken?, add, out.len()) {
            (true, _, _) => Ok(()),
            (false, true, n) => self.decode_with(payload, n, |i, v| out[i] += v),
            (false, false, n) => self.decode_with(payload, n, |i, v| out[i] = v),
        }
    }

    /// Up to 4 bits the walk commits each element from the register its
    /// code is in, by the codebook the table decoders use; wider codes
    /// have no codebook in registers and are decoded after the walk.
    fn compress_committed_at(
        &mut self,
        offset: usize,
        data: &mut [f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let n = data.len();
        if self.bits > 4 {
            let enc = self.compress_slice_at(offset, data, rng, pool);
            own_payload(self.decode(&enc, data, false));
            return enc;
        }
        let buf = pool.take_buf(self.compressed_bytes(n));
        Encoded::new(Shape::vector(n), self.quantize(data, rng, buf))
    }

    /// With every bucket's codes: a bucket of zeros has none.
    fn compressed_bytes(&self, n: usize) -> usize {
        let buckets = n.div_ceil(self.bucket_size);
        let bits = buckets as u64 * 32 + n as u64 * self.bits as u64;
        bits.div_ceil(8) as usize
    }

    /// Walks the norm fields: a bucket of zeros has no codes.
    fn extent(&self, n: usize, bytes: &[u8]) -> Option<usize> {
        let mut bit = 0;
        for at in (0..n).step_by(self.bucket_size) {
            let Some(norm) = u32_at_bit(bytes, bit) else {
                return Some((bit + 32).div_ceil(8));
            };
            bit += 32;
            if norm != simd::ZERO_BUCKET {
                bit += self.bucket_size.min(n - at) * self.bits as usize;
            }
        }
        Some(bit.div_ceil(8))
    }

    fn kernel_cost_per_element(&self) -> f64 {
        // Single-pass fused norm + quantize kernel: ~2% of a typical
        // 3090 step touches ~5e8 elements/s effective; see Appendix A.
        2.0e-11
    }
}

/// The 32 bits from bit `bit` of `bytes` on, in the bit writer's order
/// (least significant first), if `bytes` holds them.
fn u32_at_bit(bytes: &[u8], bit: usize) -> Option<u32> {
    let window = bytes.get(bit / 8..(bit + 32).div_ceil(8))?;
    let word = (window.iter().rev()).fold(0u64, |w, &b| w << 8 | u64::from(b));
    Some((word >> (bit % 8)) as u32)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::round_trip;
    use crate::simd::tests::crafted_payload;
    use cgx_tensor::Tensor;

    const PROBE: [f32; 8] = [0.3, -0.7, 0.05, 0.9, -0.2, 0.0, 0.61, -0.33];

    /// Asserts that the mean round trip of [`PROBE`] over 20 000 calls (one
    /// key each) is within three standard errors of every element.
    fn assert_unbiased(bits: u32, norm: NormKind) {
        let trials = 20_000;
        let mut rng = Rng::seed_from_u64(7);
        let grad = Tensor::from_slice(&PROBE);
        let mut q = QsgdCompressor::with_norm(bits, PROBE.len(), norm);
        let (mut sum, mut sum_sq) = ([0.0f64; 8], [0.0f64; 8]);
        for _ in 0..trials {
            let rt = round_trip(&mut q, &grad, &mut rng);
            for ((s, sq), v) in sum.iter_mut().zip(&mut sum_sq).zip(rt.as_slice()) {
                *s += *v as f64;
                *sq += (*v as f64).powi(2);
            }
        }
        let n = trials as f64;
        for ((s, sq), g) in sum.iter().zip(&sum_sq).zip(PROBE) {
            let mean = s / n;
            let std_err = ((sq / n - mean * mean).max(0.0) / n).sqrt();
            // The slack covers f32 rounding of the scale and the decode.
            assert!(
                (mean - g as f64).abs() <= 3.0 * std_err + 1e-6,
                "bits={bits} {norm:?}: mean {mean} vs true {g} (std err {std_err})"
            );
        }
    }

    #[test]
    fn payload_size_matches_prediction() {
        let mut rng = Rng::seed_from_u64(1);
        for n in [1usize, 100, 128, 129, 1000, 4096] {
            for bits in [2u32, 3, 4, 8] {
                let g = Tensor::randn(&mut rng, &[n]);
                let mut q = QsgdCompressor::new(bits, 128);
                let enc = q.compress(&g, &mut rng);
                assert_eq!(
                    enc.payload_bytes(),
                    q.compressed_bytes(n),
                    "n={n} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn unbiased_estimator_l2() {
        for bits in [2, 4, 8] {
            assert_unbiased(bits, NormKind::L2);
        }
    }

    #[test]
    fn unbiased_estimator_max_norm() {
        for bits in [2, 4, 8] {
            assert_unbiased(bits, NormKind::Max);
        }
    }

    #[test]
    fn per_element_error_bounded_by_grid_step() {
        let mut rng = Rng::seed_from_u64(3);
        let grad = Tensor::randn(&mut rng, &[1024]);
        for norm in [NormKind::L2, NormKind::Max] {
            let mut q = QsgdCompressor::with_norm(4, 128, norm);
            let rt = round_trip(&mut q, &grad, &mut rng);
            let s = q.levels() as f64;
            for (bucket, rt_bucket) in grad.as_slice().chunks(128).zip(rt.as_slice().chunks(128)) {
                let bnorm = match norm {
                    NormKind::L2 => bucket
                        .iter()
                        .map(|x| (*x as f64).powi(2))
                        .sum::<f64>()
                        .sqrt(),
                    NormKind::Max => bucket.iter().fold(0.0f64, |m, x| m.max(x.abs() as f64)),
                };
                let step = bnorm / s;
                for (a, b) in bucket.iter().zip(rt_bucket) {
                    assert!(
                        (*a as f64 - *b as f64).abs() <= step + 1e-6,
                        "error exceeds one grid step"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_tensor_roundtrips_exactly() {
        let mut rng = Rng::seed_from_u64(5);
        let grad = Tensor::zeros(&[300]);
        let mut q = QsgdCompressor::new(4, 128);
        let rt = round_trip(&mut q, &grad, &mut rng);
        assert_eq!(rt.as_slice(), grad.as_slice());
    }

    #[test]
    fn more_bits_reduce_error() {
        let mut rng = Rng::seed_from_u64(11);
        let grad = Tensor::randn(&mut rng, &[8192]);
        let mut errs = Vec::new();
        for bits in [2u32, 4, 8] {
            let mut q = QsgdCompressor::new(bits, 128);
            let rt = round_trip(&mut q, &grad, &mut rng);
            errs.push(rt.l2_distance(&grad));
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn larger_buckets_increase_error_but_shrink_payload() {
        let mut rng = Rng::seed_from_u64(13);
        let grad = Tensor::randn(&mut rng, &[16384]);
        let mut small = QsgdCompressor::new(4, 64);
        let mut large = QsgdCompressor::new(4, 4096);
        let err_small = round_trip(&mut small, &grad, &mut rng).l2_distance(&grad);
        let err_large = round_trip(&mut large, &grad, &mut rng).l2_distance(&grad);
        assert!(err_small < err_large, "{err_small} vs {err_large}");
        assert!(small.compressed_bytes(16384) > large.compressed_bytes(16384));
    }

    #[test]
    fn shape_preserved() {
        let mut rng = Rng::seed_from_u64(17);
        let grad = Tensor::randn(&mut rng, &[12, 34]);
        let mut q = QsgdCompressor::new(3, 100);
        let rt = round_trip(&mut q, &grad, &mut rng);
        assert_eq!(rt.shape(), grad.shape());
    }

    #[test]
    fn four_bits_has_15_levels() {
        assert_eq!(QsgdCompressor::new(4, 128).levels(), 7);
        assert_eq!(QsgdCompressor::new(8, 128).levels(), 127);
        assert_eq!(QsgdCompressor::new(2, 128).levels(), 1);
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=8")]
    fn one_bit_rejected() {
        QsgdCompressor::new(1, 128);
    }

    #[test]
    fn name_reflects_parameters() {
        assert_eq!(QsgdCompressor::new(4, 128).name(), "qsgd(4b,128,max)");
    }

    #[test]
    fn encode_matches_scalar_twin() {
        // The payload written one code at a time from the kernel's scalar
        // twin: the vector kernel, its in-register packing, its tails and
        // the misaligned and odd-width routes must reproduce it byte for
        // byte, special values included.
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0e-40,
            f32::MAX,
        ];
        let mut seed_rng = Rng::seed_from_u64(31);
        for norm_kind in [NormKind::Max, NormKind::L2] {
            for bits in 2..=8u32 {
                for bucket_size in [10usize, 63, 128, 1024] {
                    for n in [1usize, 7, 8, 9, 127, 128, 515, 1000] {
                        let mut g = Tensor::randn(&mut seed_rng, &[n]);
                        if n >= 127 {
                            let special = specials[(n + bits as usize) % specials.len()];
                            g.as_mut_slice()[n / 2] = special;
                        }
                        let mut q = QsgdCompressor::with_norm(bits, bucket_size, norm_kind);
                        let mut rng = Rng::seed_from_u64(77);
                        let enc = q.compress(&g, &mut rng);
                        let stream = CounterRng::new(Rng::seed_from_u64(77).next_u64());
                        let mut w = BitWriter::default();
                        for (b, bucket) in g.as_slice().chunks(bucket_size).enumerate() {
                            let norm = q.bucket_norm(bucket);
                            w.write_f32(norm);
                            let twin = BucketQuantizer::new(q.levels(), norm, &stream, b as u64);
                            for (j, &v) in bucket.iter().enumerate() {
                                let code = twin.code(j, v);
                                assert!(code <= 2 * q.levels(), "level beyond s");
                                w.write_bits(code, bits);
                            }
                        }
                        assert_eq!(
                            enc.payload(),
                            &w.finish(),
                            "bits={bits} bucket={bucket_size} n={n} norm={norm_kind:?}"
                        );
                    }
                }
            }
        }
    }

    /// A row-sparse embedding gradient, `rows` rows of `dim`: every
    /// seventh row touched (ordinary values), every fourth `-0.0` (a
    /// product with a negative zero), the others `+0.0` — and a NaN in
    /// the middle of the second bucket of `bucket_size` that holds only
    /// zeros, whose max norm is `+0.0` but whose codes are not all `s`.
    fn embedding_grad(rng: &mut Rng, rows: usize, dim: usize, bucket_size: usize) -> Vec<f32> {
        let mut data: Vec<f32> = (0..rows * dim)
            .map(|i| match i / dim {
                r if r % 7 == 0 => (rng.normal() * 0.1) as f32,
                r if r % 4 == 1 => -0.0,
                _ => 0.0,
            })
            .collect();
        let zeros = data.chunks(bucket_size).enumerate();
        let mut zeros =
            zeros.filter(|(_, b)| b.len() == bucket_size && b.iter().all(|v| *v == 0.0));
        let (b, _) = zeros.nth(1).expect("two buckets of zeros");
        data[b * bucket_size + bucket_size / 2] = f32::NAN;
        data
    }

    #[test]
    fn zero_buckets_keep_every_decoded_bit() {
        // An embedding gradient through every compress entry point on
        // every route, at every width, in buckets whole in bytes and not
        // and buckets that end in the 8-lane group or the word tail:
        // the payload is the per-bucket twin's (a bucket of ±0 is its
        // `-0.0` norm field alone, a zero max norm over a NaN keeps its
        // codes), it passes the receiver's check, and decode, decode-add
        // onto `-0.0` and the commit give the bits of the quotient of the
        // codes the twin skipped.
        let lanes: Vec<u64> = simd::tests::bodies()
            .into_iter()
            .map(Route::lanes)
            .collect();
        println!("cgx-compress zero-bucket QSGD routes exercised, in lanes: {lanes:?}");
        let (pool, mut rng) = (ScratchPool::new(), Rng::seed_from_u64(67));
        let bits_of = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for bucket_size in [128usize, 63, 24, 8] {
            let g = Tensor::from_slice(&embedding_grad(&mut rng, 50, 40, bucket_size));
            let n = g.len();
            let base: Vec<f32> = (0..n).map(|i| [-0.0, 0.0, 1.5][i % 3]).collect();
            for (bits, norm_kind) in
                (2..=8u32).flat_map(|b| [(b, NormKind::Max), (b, NormKind::L2)])
            {
                let mut q = QsgdCompressor::with_norm(bits, bucket_size, norm_kind);
                let s = q.levels();
                let stream = CounterRng::new(Rng::seed_from_u64(71).next_u64());
                let (mut twin, mut quotients) = (BitWriter::default(), Vec::new());
                for (b, bucket) in g.as_slice().chunks(bucket_size).enumerate() {
                    let norm = q.bucket_norm(bucket);
                    let zeros = bucket.iter().all(|v| *v == 0.0);
                    twin.write_u32(if zeros { 0x8000_0000 } else { norm.to_bits() });
                    let quantizer = BucketQuantizer::new(s, norm, &stream, b as u64);
                    for (j, &v) in bucket.iter().enumerate() {
                        let code = quantizer.code(j, v);
                        if !zeros {
                            twin.write_bits(code, bits);
                        }
                        quotients.push(
                            (norm as f64 * (code as i64 - s as i64) as f64 / s as f64) as f32,
                        );
                    }
                }
                let twin = twin.finish();
                let summed: Vec<f32> = base.iter().zip(&quotients).map(|(b, v)| b + v).collect();
                for route in simd::tests::bodies() {
                    q.route = route;
                    let what = format!("{route:?} bits={bits} bucket={bucket_size} {norm_kind:?}");
                    let rng = || Rng::seed_from_u64(71);
                    let mut kept = g.as_slice().to_vec();
                    let encs = [
                        q.compress(&g, &mut rng()),
                        q.compress_slice(g.as_slice(), &mut rng(), &pool),
                        q.encode(g.shape().clone(), 0, g.as_slice(), &mut rng(), &pool),
                        q.compress_committed_at(0, &mut kept, &mut rng(), &pool),
                    ];
                    for enc in &encs {
                        assert_eq!(enc.payload(), &twin, "{what}");
                        assert_eq!(q.decompress_into(enc, &mut vec![0.0; n]), Ok(()), "{what}");
                    }
                    assert_eq!(bits_of(&kept), bits_of(&quotients), "{what}: committed");
                    let mut decoded = vec![9.0f32; n];
                    q.decompress_into(&encs[0], &mut decoded).unwrap();
                    assert_eq!(bits_of(&decoded), bits_of(&quotients), "{what}: decode");
                    let mut sum = base.clone();
                    q.decompress_add_into(&encs[0], &mut sum).unwrap();
                    assert_eq!(bits_of(&sum), bits_of(&summed), "{what}: decode-add");
                    let mut reference = vec![9.0f32; n];
                    q.decode_with(encs[0].payload(), n, |i, v| reference[i] = v)
                        .unwrap();
                    assert_eq!(bits_of(&reference), bits_of(&quotients), "{what}: reader");
                }
            }
        }
    }

    #[test]
    fn rounding_is_addressed_by_position() {
        // What an element rounds to depends on its own value, its bucket's
        // norm and its position — not on what the buckets before it hold,
        // nor on whether a bucket before it was sent as zeros alone.
        let mut rng = Rng::seed_from_u64(43);
        let dense = Tensor::randn(&mut rng, &[640]);
        let mut sparse = dense.clone();
        sparse.as_mut_slice()[..128].fill(0.0);
        let mut q = QsgdCompressor::new(4, 128);
        let per_bucket = q.compressed_bytes(128);
        let a = q.compress(&dense, &mut Rng::seed_from_u64(9));
        let b = q.compress(&sparse, &mut Rng::seed_from_u64(9));
        assert_eq!(b.payload()[..4], simd::ZERO_BUCKET.to_le_bytes());
        assert_eq!(a.payload()[per_bucket..], b.payload()[4..]);
        let zeros = q.decompress(&b).unwrap();
        assert!(zeros.as_slice()[..128].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn each_call_draws_one_key() {
        // The engine replays a collective's stream from one seed per
        // submit; that only works while a call's draw count does not
        // depend on its length or its route.
        let pool = ScratchPool::new();
        let codecs: [Box<dyn Compressor>; 2] = [
            Box::new(QsgdCompressor::new(3, 100)),
            Box::new(crate::NuqsgdCompressor::new(4, 128)),
        ];
        for mut c in codecs {
            for n in [1usize, 128, 1000] {
                let g = Tensor::randn(&mut Rng::seed_from_u64(n as u64), &[n]);
                let mut expected = Rng::seed_from_u64(55);
                expected.next_u64();
                let mut rng = Rng::seed_from_u64(55);
                c.compress(&g, &mut rng);
                assert_eq!(rng, expected, "{} compress n={n}", c.name());
                let mut rng = Rng::seed_from_u64(55);
                pool.recycle(c.compress_slice(g.as_slice(), &mut rng, &pool));
                assert_eq!(rng, expected, "{} compress_slice n={n}", c.name());
                let mut rng = Rng::seed_from_u64(55);
                pool.recycle(c.encode(g.shape().clone(), 0, g.as_slice(), &mut rng, &pool));
                assert_eq!(rng, expected, "{} encode n={n}", c.name());
            }
        }
    }

    #[test]
    fn lut_decode_matches_direct_formula() {
        // Decode by hand with the per-element formula; the LUT path in
        // decode_with must be bit-identical.
        let mut rng = Rng::seed_from_u64(37);
        for (bits, bucket_size) in [(2u32, 1024usize), (4, 128), (8, 64), (8, 1024)] {
            let g = Tensor::randn(&mut rng, &[1000]);
            let mut q = QsgdCompressor::new(bits, bucket_size);
            let enc = q.compress(&g, &mut rng);
            let got = q.decompress(&enc).unwrap();
            let s = q.levels() as f64;
            let offset = q.levels() as i64;
            let mut r = crate::bitpack::BitReader::new(enc.payload());
            let mut want = Vec::with_capacity(g.len());
            let mut remaining = g.len();
            while remaining > 0 {
                let bucket_len = remaining.min(bucket_size);
                let norm = r.read_f32().unwrap() as f64;
                for _ in 0..bucket_len {
                    let signed = r.read_bits(bits).unwrap() as i64 - offset;
                    want.push((norm * signed as f64 / s) as f32);
                }
                remaining -= bucket_len;
            }
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "bits={bits} bucket={bucket_size}");
        }
    }

    #[test]
    fn codebook_is_the_quotient() {
        // Every entry a code of 2 to 4 bits indexes, against the quotient
        // `decode_with` computes, for norms of every exponent, sign and
        // NaN payload (random bit patterns) and the edges of the range.
        let mut rng = Rng::seed_from_u64(59);
        let edges = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let tiny = [f32::from_bits(1), f32::from_bits(0x007f_ffff), -f32::MAX];
        let random = (0..1 << 18).map(|_| f32::from_bits(rng.next_u32()));
        let norms: Vec<f32> = edges.into_iter().chain(tiny).chain(random).collect();
        for bits in 2..=4u32 {
            let q = QsgdCompressor::new(bits, 128);
            let (s, table_of) = (q.levels() as i64, q.codebook());
            for &norm in &norms {
                let table = table_of(norm);
                for (code, entry) in table.iter().enumerate().take(1 << bits) {
                    let quotient = (norm as f64 * (code as i64 - s) as f64 / s as f64) as f32;
                    assert_eq!(
                        entry.to_bits(),
                        quotient.to_bits(),
                        "bits={bits} norm={norm:e} ({:#x}) code={code}",
                        norm.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_decode_matches_decompress() {
        let mut rng = Rng::seed_from_u64(23);
        for bits in [2u32, 3, 4, 8] {
            let g = Tensor::randn(&mut rng, &[515]);
            let mut q = QsgdCompressor::new(bits, 128);
            let enc = q.compress(&g, &mut rng);
            let dense = q.decompress(&enc).unwrap();
            let mut overwrite = vec![9.0f32; g.len()];
            q.decompress_into(&enc, &mut overwrite).unwrap();
            assert_eq!(overwrite, dense.as_slice(), "decompress_into bits={bits}");
            let base: Vec<f32> = (0..g.len()).map(|i| i as f32 * 0.25).collect();
            let mut fused = base.clone();
            q.decompress_add_into(&enc, &mut fused).unwrap();
            let unfused: Vec<f32> = base
                .iter()
                .zip(dense.as_slice())
                .map(|(b, d)| b + d)
                .collect();
            assert_eq!(fused, unfused, "decompress_add_into bits={bits}");
        }
    }

    #[test]
    fn word_decode_matches_reader_decode_across_layouts() {
        // Every (bits, bucket) layout — word-eligible or not, with and
        // without a partial tail bucket — must decode bit-identically to
        // the reader-closure reference, for both overwrite and add.
        let mut rng = Rng::seed_from_u64(41);
        for (bits, bucket_size) in [
            (2u32, 128usize), // word path, tail bucket hits the byte remainder
            (2, 10),          // word path, buckets smaller than one u64 word
            (4, 128),         // the CGX default
            (4, 63),          // 63*4 bits is no whole byte count: falls back
            (3, 128),         // eight codes in three bytes: the kernel's too
            (3, 10),          // 30 bits a bucket: falls back
            (5, 64),          // above the 4-bit table cap: falls back
            (8, 64),          // likewise
        ] {
            for n in [1usize, 64, 515, 1000] {
                let g = Tensor::randn(&mut rng, &[n]);
                let mut q = QsgdCompressor::new(bits, bucket_size);
                let enc = q.compress(&g, &mut rng);
                let mut fast = vec![0.0f32; n];
                q.decompress_into(&enc, &mut fast).unwrap();
                let mut reference = vec![0.0f32; n];
                q.decode_with(enc.payload(), n, |i, v| reference[i] = v)
                    .unwrap();
                assert_eq!(fast, reference, "bits={bits} bucket={bucket_size} n={n}");
                let base: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 9.0).collect();
                let mut fast_add = base.clone();
                q.decompress_add_into(&enc, &mut fast_add).unwrap();
                let mut ref_add = base;
                q.decode_with(enc.payload(), n, |i, v| ref_add[i] += v)
                    .unwrap();
                assert_eq!(
                    fast_add, ref_add,
                    "add: bits={bits} bucket={bucket_size} n={n}"
                );
            }
        }
    }

    /// [`crafted_payload`] as the wire chunk of an `n`-element vector.
    pub(crate) fn crafted(bits: u32, bucket_size: usize, n: usize) -> Encoded {
        Encoded::new(Shape::vector(n), crafted_payload(bits, bucket_size, n))
    }

    /// Asserts that both in-place decodes of `enc` give `reference`, bit
    /// for bit, the accumulating one onto a base of finite values, signed
    /// zeros and infinities.
    pub(crate) fn assert_decodes_to(c: &dyn Compressor, enc: &Encoded, reference: &[f32]) {
        let bits_of = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut stored = vec![9.0f32; reference.len()];
        c.decompress_into(enc, &mut stored).unwrap();
        assert_eq!(bits_of(&stored), bits_of(reference), "{} store", c.name());
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        let base: Vec<f32> = (0..reference.len())
            .map(|i| match i % 5 {
                0 => specials[i % 4],
                _ => i as f32 * 0.5 - 9.0,
            })
            .collect();
        let want: Vec<f32> = base.iter().zip(reference).map(|(b, v)| b + v).collect();
        let mut summed = base;
        c.decompress_add_into(enc, &mut summed).unwrap();
        assert_eq!(bits_of(&summed), bits_of(&want), "{} add", c.name());
    }

    #[test]
    fn kernel_matches_reader_on_every_layout() {
        for bits in [2u32, 3, 4] {
            for bucket_size in [8usize, 10, 64, 128, 1024] {
                for n in [1usize, 7, 8, 9, 127, 128, 129, 515, 1000, 4099] {
                    let q = QsgdCompressor::new(bits, bucket_size);
                    let enc = crafted(bits, bucket_size, n);
                    let mut reference = vec![0.0f32; n];
                    q.decode_with(enc.payload(), n, |i, v| reference[i] = v)
                        .unwrap();
                    assert_decodes_to(&q, &enc, &reference);
                }
            }
        }
    }

    #[test]
    fn whole_byte_buckets_take_the_kernels() {
        // Where a bucket is a whole number of bytes, no width stages
        // codes for the bit writer — the scratch only that route fills is
        // never allocated — and up to 4 bits the table kernel says it
        // took the decode. A plan that leaves these layouts pays 3-6x
        // per element, which no other test would notice. Nor would one
        // notice the kernels running narrower than the machine: the
        // route every call below takes is the widest the CPU reports.
        if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
            let flags = cpuinfo.lines().find(|line| line.starts_with("flags"));
            let has = |flag| flags.is_some_and(|line| line.split(' ').any(|f| f == flag));
            let lanes = match (has("avx2"), has("avx512f") && has("bmi2")) {
                (true, true) => 16,
                (true, false) => 8,
                (false, _) => 1,
            };
            let route = QsgdCompressor::new(4, 128).route;
            assert_eq!(route.lanes(), lanes, "{route:?} is not this CPU's widest");
        }
        let mut rng = Rng::seed_from_u64(53);
        for bits in 2..=8u32 {
            let whole = |bucket_size: &usize| (bucket_size * bits as usize).is_multiple_of(8);
            for bucket_size in (1..=64).chain([128, 512, 1024]).filter(whole) {
                let n = 3 * bucket_size;
                let g = Tensor::randn(&mut rng, &[n]);
                let mut q = QsgdCompressor::new(bits, bucket_size);
                let enc = q.compress(&g, &mut rng);
                let what = format!("bits={bits} bucket={bucket_size}");
                assert_eq!(q.codes.capacity(), 0, "{what}: encode left the kernel");
                // The answer is the layout's, whatever the codebook:
                // NUQSGD decodes through the same call.
                let mut out = vec![0.0f32; n];
                let (payload, table_of) = (enc.payload(), |_| [0.0; 16]);
                let taken = simd::lut_decode::<true>(
                    q.route,
                    bits,
                    payload,
                    bucket_size,
                    table_of,
                    &mut out,
                );
                assert_eq!(taken, Ok(bits <= 4), "{what}: decode");
            }
        }
    }

    #[test]
    fn short_payloads_are_refused() {
        // (4, 8, 7) and (3, 8, 7) are below one lane group and decode in
        // the scalar twin; the others reach the vector body.
        let layouts = [
            (4u32, 128usize, 515usize),
            (2, 1024, 2100),
            (3, 512, 1100),
            (4, 8, 7),
            (3, 8, 7),
        ];
        for (bits, bucket_size, n) in layouts {
            let q = QsgdCompressor::new(bits, bucket_size);
            let enc = crafted(bits, bucket_size, n);
            let full = q.compressed_bytes(n);
            assert_eq!(enc.payload_bytes(), full);
            let per_bucket = q.compressed_bytes(bucket_size);
            let boundaries = (0..=n / bucket_size).map(|b| b * per_bucket);
            for cut in boundaries.flat_map(|at| [at.saturating_sub(1), at, at + 1]) {
                let short = Encoded::new(enc.shape().clone(), enc.payload().slice(..cut.min(full)));
                for add in [false, true] {
                    let mut out = vec![0.0f32; n];
                    let decoded = match add {
                        true => q.decompress_add_into(&short, &mut out),
                        false => q.decompress_into(&short, &mut out),
                    };
                    let what = format!("bits={bits} bucket={bucket_size} n={n} cut={cut}");
                    let want = if cut >= full {
                        Ok(())
                    } else {
                        Err(PayloadError::Short)
                    };
                    assert_eq!(decoded, want, "{what}");
                }
            }
        }
    }

    #[test]
    fn compressed_ratio_near_nominal() {
        // 4 bits + one f32 per 128-bucket => 4.25 bits/elem vs 32.
        let q = QsgdCompressor::new(4, 128);
        let n = 1 << 20;
        let ratio = (n * 4) as f64 / q.compressed_bytes(n) as f64;
        assert!((ratio - 32.0 / 4.25).abs() < 0.05, "ratio {ratio}");
    }
}
