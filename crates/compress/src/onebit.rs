//! 1-bit SGD: sign compression with per-bucket mean magnitudes.
//!
//! The earliest practical gradient compressor (Seide et al., 2014). Each
//! component transmits only its sign; each bucket additionally carries the
//! mean absolute value of its positive and negative parts so reconstruction
//! is scale-aware. Biased — pair with
//! [`ErrorFeedback`](crate::ErrorFeedback) to recover accuracy.

use crate::{exact_len, BitReader, BitWriter, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{Rng, Shape};

/// Sign compressor with two per-bucket scales.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, OneBitCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::from_slice(&[2.0, -4.0, 6.0, -8.0]);
/// let mut c = OneBitCompressor::new(4);
/// let enc = c.compress(&g, &mut rng);
/// let rt = c.decompress(&enc).unwrap();
/// assert_eq!(rt.as_slice(), &[4.0, -6.0, 4.0, -6.0]);
/// ```
#[derive(Debug, Clone)]
pub struct OneBitCompressor {
    bucket_size: usize,
    /// Per-bucket sign-code scratch, reused across calls.
    codes: Vec<u32>,
}

impl OneBitCompressor {
    /// Creates a 1-bit compressor with the given bucket size.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_size` is zero.
    pub fn new(bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be positive");
        OneBitCompressor {
            bucket_size,
            codes: Vec::new(),
        }
    }

    /// Bucket size.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Encodes `data` into `w`, staging each bucket's sign bits in the
    /// `codes` scratch so they can flow through the word-wide
    /// [`BitWriter::write_run`] kernel.
    fn encode_into(&mut self, data: &[f32], w: &mut BitWriter) {
        let mut codes = std::mem::take(&mut self.codes);
        for bucket in data.chunks(self.bucket_size) {
            let (mut pos_sum, mut pos_n) = (0.0f64, 0u32);
            let (mut neg_sum, mut neg_n) = (0.0f64, 0u32);
            for &v in bucket {
                if v >= 0.0 {
                    pos_sum += v as f64;
                    pos_n += 1;
                } else {
                    neg_sum += (-v) as f64;
                    neg_n += 1;
                }
            }
            let pos_mean = if pos_n > 0 {
                pos_sum / pos_n as f64
            } else {
                0.0
            };
            let neg_mean = if neg_n > 0 {
                neg_sum / neg_n as f64
            } else {
                0.0
            };
            w.write_f32(pos_mean as f32);
            w.write_f32(neg_mean as f32);
            codes.clear();
            codes.extend(bucket.iter().map(|&v| u32::from(v >= 0.0)));
            w.write_run(&codes, 1);
        }
        self.codes = codes;
    }

    /// Decodes the payload of an `n`-element chunk, of exactly
    /// [`Compressor::compressed_bytes`]`(n)` bytes, invoking `f(index,
    /// value)` per element in stream order.
    fn decode_with(
        &self,
        payload: &[u8],
        n: usize,
        mut f: impl FnMut(usize, f32),
    ) -> Result<(), PayloadError> {
        exact_len(payload, self.compressed_bytes(n))?;
        let mut r = BitReader::new(payload);
        let mut remaining = n;
        let mut i = 0usize;
        while remaining > 0 {
            let bucket_len = remaining.min(self.bucket_size);
            let pos_mean = r.read_f32()?;
            let neg_mean = r.read_f32()?;
            r.read_run(1, bucket_len, |sign| {
                f(i, if sign == 1 { pos_mean } else { -neg_mean });
                i += 1;
            })?;
            remaining -= bucket_len;
        }
        Ok(())
    }
}

impl Compressor for OneBitCompressor {
    fn name(&self) -> String {
        format!("onebit({})", self.bucket_size)
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        _rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let mut w = BitWriter::from_buf(pool.take_buf(self.compressed_bytes(data.len())));
        self.encode_into(data, &mut w);
        Encoded::new(shape, w.finish())
    }

    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let (payload, n) = (enc.payload(), out.len());
        if add {
            self.decode_with(payload, n, |i, v| out[i] += v)
        } else {
            self.decode_with(payload, n, |i, v| out[i] = v)
        }
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        let buckets = n.div_ceil(self.bucket_size);
        let bits = buckets as u64 * 64 + n as u64;
        bits.div_ceil(8) as usize
    }

    fn kernel_cost_per_element(&self) -> f64 {
        1.5e-11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;
    use cgx_tensor::Tensor;

    #[test]
    fn reconstruction_uses_bucket_means() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::from_slice(&[1.0, 3.0, -2.0, -6.0]);
        let mut c = OneBitCompressor::new(4);
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), &[2.0, 2.0, -4.0, -4.0]);
    }

    #[test]
    fn bucket_mean_preserves_signed_sum() {
        // The reconstruction preserves the per-bucket sum of positives and
        // negatives, hence the total bucket sum.
        let mut rng = Rng::seed_from_u64(2);
        let g = Tensor::randn(&mut rng, &[4096]);
        let mut c = OneBitCompressor::new(256);
        let rt = round_trip(&mut c, &g, &mut rng);
        for (gb, rb) in g.as_slice().chunks(256).zip(rt.as_slice().chunks(256)) {
            let gs: f64 = gb.iter().map(|x| *x as f64).sum();
            let rs: f64 = rb.iter().map(|x| *x as f64).sum();
            assert!((gs - rs).abs() < 1e-2, "{gs} vs {rs}");
        }
    }

    #[test]
    fn payload_size_matches_prediction() {
        let mut rng = Rng::seed_from_u64(3);
        for n in [1usize, 7, 64, 65, 1000] {
            let g = Tensor::randn(&mut rng, &[n]);
            let mut c = OneBitCompressor::new(64);
            let enc = c.compress(&g, &mut rng);
            assert_eq!(enc.payload_bytes(), c.compressed_bytes(n), "n={n}");
        }
    }

    #[test]
    fn compression_is_near_32x_for_large_buckets() {
        let c = OneBitCompressor::new(1024);
        let n = 1 << 20;
        let ratio = (n * 4) as f64 / c.compressed_bytes(n) as f64;
        assert!(ratio > 30.0, "ratio {ratio}");
    }

    #[test]
    fn fused_decode_matches_decompress() {
        let mut rng = Rng::seed_from_u64(8);
        let g = Tensor::randn(&mut rng, &[777]);
        let mut c = OneBitCompressor::new(64);
        let enc = c.compress(&g, &mut rng);
        let dense = c.decompress(&enc).unwrap();
        let mut overwrite = vec![3.0f32; g.len()];
        c.decompress_into(&enc, &mut overwrite).unwrap();
        assert_eq!(overwrite, dense.as_slice());
        let mut fused = vec![0.5f32; g.len()];
        c.decompress_add_into(&enc, &mut fused).unwrap();
        for (f, d) in fused.iter().zip(dense.as_slice()) {
            assert_eq!(*f, 0.5 + *d);
        }
    }

    #[test]
    fn all_zero_bucket_roundtrips() {
        let mut rng = Rng::seed_from_u64(4);
        let g = Tensor::zeros(&[10]);
        let mut c = OneBitCompressor::new(4);
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), g.as_slice());
    }
}
