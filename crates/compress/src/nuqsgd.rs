//! NUQSGD: non-uniformly quantized stochastic gradient descent.
//!
//! Ramezani-Kebrya et al. (JMLR 2021) — cited by the paper as the
//! variance-reduction follow-up to QSGD by the same group. Normalized
//! gradient magnitudes of DNNs concentrate near zero, so a *geometric*
//! level grid (`1, 1/2, 1/4, ..., 2^-(s-1), 0`) wastes far less variance
//! than QSGD's uniform grid at the same bit budget. Components are
//! stochastically rounded between the two nearest levels so the estimator
//! stays unbiased.
//!
//! Wire format per bucket: one `f32` max-norm scale, then `b` bits per
//! component (sign + level index), identical size to QSGD — only the
//! codebook differs.

use crate::{simd, BitReader, BitWriter, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::rng::CounterRng;
use cgx_tensor::{Rng, Shape};

/// Non-uniform (exponential-grid) stochastic quantizer with bucketing.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, NuqsgdCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::randn(&mut rng, &[512]);
/// let mut q = NuqsgdCompressor::new(4, 128);
/// let enc = q.compress(&g, &mut rng);
/// assert_eq!(enc.payload_bytes(), q.compressed_bytes(512));
/// ```
#[derive(Debug, Clone)]
pub struct NuqsgdCompressor {
    bits: u32,
    bucket_size: usize,
    /// Level values in `[0, 1]`, descending: `1, 1/2, ..., 2^-(s-1), 0`.
    levels: Vec<f64>,
    /// Per-bucket code scratch, reused across calls.
    codes: Vec<u32>,
}

impl NuqsgdCompressor {
    /// Creates a non-uniform quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8` or `bucket_size` is zero.
    pub fn new(bits: u32, bucket_size: usize) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8, got {bits}");
        assert!(bucket_size > 0, "bucket size must be positive");
        // With b bits we store sign + index into s+1 magnitude levels,
        // where s = 2^(b-1) - 1 non-zero levels (same budget as QSGD).
        let s = (1u32 << (bits - 1)) - 1;
        let mut levels: Vec<f64> = (0..s).map(|i| 0.5f64.powi(i as i32)).collect();
        levels.push(0.0);
        NuqsgdCompressor {
            bits,
            bucket_size,
            levels,
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

    /// The magnitude codebook (descending, ending in 0).
    pub fn codebook(&self) -> &[f64] {
        &self.levels
    }

    /// Stochastically rounds `a` in `[0, 1]` to a codebook index, taking
    /// the upper level when the uniform 32-bit draw `r` falls below the
    /// rounding probability.
    fn quantize_magnitude(&self, a: f64, r: u32) -> u32 {
        debug_assert!((0.0..=1.0).contains(&a));
        // Find the bracketing pair: levels[i] >= a >= levels[i+1].
        for i in 0..self.levels.len() - 1 {
            let hi = self.levels[i];
            let lo = self.levels[i + 1];
            if a <= hi && a >= lo {
                let p = if hi > lo { (a - lo) / (hi - lo) } else { 0.0 };
                return if (r as f64) < p * 4_294_967_296.0 {
                    i as u32
                } else {
                    (i + 1) as u32
                };
            }
        }
        (self.levels.len() - 1) as u32
    }

    /// Quantizes `data` into `w`. Because the stream is LSB-first, writing
    /// the sign bit then the `bits-1` index bits is bit-identical to
    /// writing one combined code `sign | (idx << 1)` of width `bits` — so
    /// each bucket can be staged in the `codes` scratch and emitted through
    /// the word-wide [`BitWriter::write_run`] kernel. Randomness is
    /// addressed as in QSGD: one key from `rng` per call, and element `j`
    /// of bucket `b` rounds on draw `(b << 32) | j` of its [`CounterRng`]
    /// stream.
    fn encode_into(&mut self, data: &[f32], rng: &mut Rng, w: &mut BitWriter) {
        let stream = CounterRng::new(rng.next_u64());
        let zero_idx = (self.levels.len() - 1) as u32;
        let mut codes = std::mem::take(&mut self.codes);
        for (b, bucket) in data.chunks(self.bucket_size).enumerate() {
            let norm = bucket.iter().fold(0.0f64, |m, x| m.max(x.abs() as f64));
            w.write_f32(norm as f32);
            codes.clear();
            if norm == 0.0 {
                codes.resize(bucket.len(), zero_idx << 1);
            } else {
                let keys = stream.round_keys(b as u64);
                for (j, &v) in bucket.iter().enumerate() {
                    let a = (v.abs() as f64 / norm).min(1.0);
                    let idx = self.quantize_magnitude(a, CounterRng::mix(j as u32, keys));
                    codes.push(u32::from(v < 0.0) | (idx << 1));
                }
            }
            w.write_run(&codes, self.bits);
        }
        self.codes = codes;
    }

    /// Decodes the payload of an `n`-element chunk, of any layout,
    /// invoking `f(index, value)` per element in stream order.
    fn decode_with(
        &self,
        payload: &[u8],
        n: usize,
        mut f: impl FnMut(usize, f32),
    ) -> Result<(), PayloadError> {
        let mut r = BitReader::new(payload);
        let mut remaining = n;
        let mut i = 0usize;
        while remaining > 0 {
            let bucket_len = remaining.min(self.bucket_size);
            let norm = r.read_f32()? as f64;
            r.read_run(self.bits, bucket_len, |code| {
                let neg = code & 1 == 1;
                let idx = (code >> 1) as usize;
                let mag = norm * self.levels[idx.min(self.levels.len() - 1)];
                f(i, if neg { -mag as f32 } else { mag as f32 });
                i += 1;
            })?;
            remaining -= bucket_len;
        }
        r.finish()
    }
}

impl Compressor for NuqsgdCompressor {
    fn name(&self) -> String {
        format!("nuqsgd({}b,{})", self.bits, self.bucket_size)
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let mut w = BitWriter::from_buf(pool.take_buf(self.compressed_bytes(data.len())));
        self.encode_into(data, rng, &mut w);
        Encoded::new(shape, w.finish())
    }

    /// By [`simd::lut_decode`] where it takes the layout, from a codebook
    /// built with the formula of [`NuqsgdCompressor::decode_with`], else
    /// by that reader. The two agree bit for bit.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let table_of = |norm: f32| {
            std::array::from_fn(|code| {
                let mag = norm as f64 * self.levels[(code >> 1).min(self.levels.len() - 1)];
                (if code & 1 == 1 { -mag } else { mag }) as f32
            })
        };
        let (route, payload) = (simd::Route::widest(), enc.payload());
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

    fn compressed_bytes(&self, n: usize) -> usize {
        let buckets = n.div_ceil(self.bucket_size);
        let bits = buckets as u64 * 32 + n as u64 * self.bits as u64;
        bits.div_ceil(8) as usize
    }

    fn kernel_cost_per_element(&self) -> f64 {
        // A log-domain lookup instead of a multiply: comparable to QSGD.
        2.5e-11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{round_trip, QsgdCompressor};
    use cgx_tensor::Tensor;

    #[test]
    fn codebook_is_geometric_with_zero() {
        let q = NuqsgdCompressor::new(4, 128);
        // s = 7 non-zero levels + 0.
        assert_eq!(q.codebook().len(), 8);
        assert_eq!(q.codebook()[0], 1.0);
        assert_eq!(q.codebook()[1], 0.5);
        assert_eq!(*q.codebook().last().unwrap(), 0.0);
    }

    #[test]
    fn payload_size_matches_prediction_and_qsgd() {
        let mut rng = Rng::seed_from_u64(1);
        for n in [1usize, 100, 128, 1000] {
            let g = Tensor::randn(&mut rng, &[n]);
            let mut q = NuqsgdCompressor::new(4, 128);
            let enc = q.compress(&g, &mut rng);
            assert_eq!(enc.payload_bytes(), q.compressed_bytes(n));
            // Same wire budget as QSGD at equal parameters.
            assert_eq!(
                q.compressed_bytes(n),
                QsgdCompressor::new(4, 128).compressed_bytes(n)
            );
        }
    }

    #[test]
    fn unbiased_estimator() {
        let grad = Tensor::from_slice(&[0.3, -0.7, 0.05, 0.9, -0.2, 0.0, 0.61, -0.33]);
        let mut rng = Rng::seed_from_u64(7);
        let mut q = NuqsgdCompressor::new(4, 8);
        let trials = 30_000;
        let mut acc = vec![0.0f64; grad.len()];
        for _ in 0..trials {
            let rt = round_trip(&mut q, &grad, &mut rng);
            for (a, v) in acc.iter_mut().zip(rt.as_slice()) {
                *a += *v as f64;
            }
        }
        for (a, g) in acc.iter().zip(grad.as_slice()) {
            let mean = a / trials as f64;
            assert!((mean - *g as f64).abs() < 0.02, "mean {mean} vs {g}");
        }
    }

    #[test]
    fn beats_qsgd_on_concentrated_gradients() {
        // Heavy concentration near zero (log-normal magnitudes): the
        // geometric grid should produce lower relative error than the
        // uniform grid at the same bit budget.
        let mut rng = Rng::seed_from_u64(3);
        let data: Vec<f32> = (0..8192)
            .map(|_| {
                let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                (sign * rng.log_normal(-4.0, 1.5)) as f32
            })
            .collect();
        let g = Tensor::from_slice(&data);
        let mut nu = NuqsgdCompressor::new(4, 128);
        let mut un = QsgdCompressor::new(4, 128);
        let e_nu = round_trip(&mut nu, &g, &mut rng).l2_distance(&g);
        let e_un = round_trip(&mut un, &g, &mut rng).l2_distance(&g);
        assert!(e_nu < e_un, "nuqsgd {e_nu} vs qsgd {e_un}");
    }

    #[test]
    fn zero_tensor_roundtrips_exactly() {
        let mut rng = Rng::seed_from_u64(5);
        let g = Tensor::zeros(&[300]);
        let mut q = NuqsgdCompressor::new(3, 64);
        assert_eq!(round_trip(&mut q, &g, &mut rng).as_slice(), g.as_slice());
    }

    #[test]
    fn extreme_values_stay_finite_and_bounded() {
        let mut rng = Rng::seed_from_u64(9);
        let g = Tensor::from_slice(&[1e30, -1e-30, 0.0, -1e30]);
        let mut q = NuqsgdCompressor::new(4, 4);
        let rt = round_trip(&mut q, &g, &mut rng);
        assert!(rt.as_slice().iter().all(|x| x.is_finite()));
        assert!(rt.norm_inf() <= 1e30 * 1.001);
    }

    #[test]
    fn name_reflects_parameters() {
        assert_eq!(NuqsgdCompressor::new(4, 128).name(), "nuqsgd(4b,128)");
    }

    #[test]
    fn kernel_matches_reader_on_every_layout() {
        use crate::qsgd::tests::{assert_decodes_to, crafted};
        for bits in [2u32, 3, 4] {
            for bucket_size in [8usize, 10, 128] {
                for n in [1usize, 7, 8, 9, 129, 515, 1000] {
                    let q = NuqsgdCompressor::new(bits, bucket_size);
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
    fn fused_decode_matches_decompress() {
        let mut rng = Rng::seed_from_u64(33);
        for bits in [2u32, 3, 4, 8] {
            let g = Tensor::randn(&mut rng, &[300]);
            let mut q = NuqsgdCompressor::new(bits, 128);
            let enc = q.compress(&g, &mut rng);
            let dense = q.decompress(&enc).unwrap();
            let mut overwrite = vec![5.0f32; g.len()];
            q.decompress_into(&enc, &mut overwrite).unwrap();
            assert_eq!(overwrite, dense.as_slice(), "bits={bits}");
            let mut fused = vec![1.0f32; g.len()];
            q.decompress_add_into(&enc, &mut fused).unwrap();
            for (f, d) in fused.iter().zip(dense.as_slice()) {
                assert_eq!(*f, 1.0 + *d, "bits={bits}");
            }
        }
    }
}
