//! TopK magnitude sparsification.
//!
//! Transmits only the `k` largest-magnitude components (index + value).
//! The paper notes this family can reach >100x compression but needs error
//! feedback and per-model tuning to recover accuracy (Section 2.3); CGX uses
//! it only for naturally-sparse layers such as Transformer embeddings
//! (Section 6, "Heterogeneous compression").

use crate::{exact_len, BitReader, BitWriter, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{Rng, Shape, Tensor};

/// Sparsifier that keeps the top `ratio` fraction of components by
/// magnitude (at least one).
///
/// The wire format stores `k` as a `u32` followed by `k` (index `u32`,
/// value `f32`) pairs.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, TopKCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::from_slice(&[0.0, 5.0, -0.1, 0.0]);
/// let mut c = TopKCompressor::new(0.25);
/// let enc = c.compress(&g, &mut rng);
/// let rt = c.decompress(&enc).unwrap();
/// assert_eq!(rt.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TopKCompressor {
    ratio: f64,
}

impl TopKCompressor {
    /// Creates a sparsifier keeping fraction `ratio` of components.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "ratio must be in (0, 1], got {ratio}"
        );
        TopKCompressor { ratio }
    }

    /// The configured density.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of kept components for an `n`-element tensor.
    pub fn k_for(&self, n: usize) -> usize {
        ((n as f64 * self.ratio).round() as usize).clamp(1, n.max(1))
    }

    /// Decodes the sparse payload of an `n`-element chunk, invoking
    /// `f(index, value)` for each of the `k` stored pairs in stream order:
    /// the payload is `4 + 8k` bytes, its `k` field is
    /// [`TopKCompressor::k_for`]`(n)`, and every index is below `n`.
    fn decode_with(
        &self,
        payload: &[u8],
        n: usize,
        mut f: impl FnMut(usize, f32),
    ) -> Result<(), PayloadError> {
        let k = self.k_for(n);
        exact_len(payload, 4 + 8 * k)?;
        let mut r = BitReader::new(payload);
        if r.read_u32()? as usize != k {
            return Err(PayloadError::BadHeader);
        }
        for _ in 0..k {
            let (i, v) = (r.read_u32()? as usize, r.read_f32()?);
            if i >= n {
                return Err(PayloadError::IndexOutOfRange);
            }
            f(i, v);
        }
        Ok(())
    }
}

impl Compressor for TopKCompressor {
    fn name(&self) -> String {
        format!("topk({}%)", self.ratio * 100.0)
    }

    /// `k` as a `u32`, then each kept (index, value) pair in index order.
    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        _rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let k = self.k_for(data.len());
        let mut w = BitWriter::from_buf(pool.take_buf(self.compressed_bytes(data.len())));
        w.write_u32(k as u32);
        for i in Tensor::from_slice(data).top_k_indices(k) {
            w.write_u32(i as u32);
            w.write_f32(data[i]);
        }
        Encoded::new(shape, w.finish())
    }

    /// The decode-add touches only the `k` stored slots. Untouched slots
    /// keep their value instead of gaining `+ 0.0`; the only observable
    /// difference is an accumulator of -0.0 staying -0.0, and -0.0 == 0.0
    /// under f32 comparison, so consensus checks hold.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let (payload, n) = (enc.payload(), out.len());
        if add {
            self.decode_with(payload, n, |i, v| out[i] += v)
        } else {
            out.fill(0.0);
            self.decode_with(payload, n, |i, v| out[i] = v)
        }
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        4 + 8 * self.k_for(n)
    }

    fn kernel_cost_per_element(&self) -> f64 {
        // Selection is more expensive than a quantization pass (paper:
        // "additional cost of TopK compression").
        6.0e-11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_trip;

    #[test]
    fn keeps_exactly_largest() {
        let mut rng = Rng::seed_from_u64(1);
        let g = Tensor::from_slice(&[1.0, -10.0, 3.0, 0.5, -7.0, 2.0]);
        let mut c = TopKCompressor::new(0.5);
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), &[0.0, -10.0, 3.0, 0.0, -7.0, 0.0]);
    }

    #[test]
    fn full_ratio_is_lossless_in_values() {
        let mut rng = Rng::seed_from_u64(2);
        let g = Tensor::randn(&mut rng, &[64]);
        let mut c = TopKCompressor::new(1.0);
        let rt = round_trip(&mut c, &g, &mut rng);
        assert_eq!(rt.as_slice(), g.as_slice());
    }

    #[test]
    fn payload_size_matches_prediction() {
        let mut rng = Rng::seed_from_u64(3);
        for n in [1usize, 10, 1000] {
            let g = Tensor::randn(&mut rng, &[n]);
            let mut c = TopKCompressor::new(0.01);
            let enc = c.compress(&g, &mut rng);
            assert_eq!(enc.payload_bytes(), c.compressed_bytes(n));
        }
    }

    #[test]
    fn at_least_one_component_kept() {
        assert_eq!(TopKCompressor::new(0.001).k_for(10), 1);
    }

    #[test]
    fn error_is_norm_of_dropped_tail() {
        let mut rng = Rng::seed_from_u64(4);
        let g = Tensor::from_slice(&[3.0, 4.0, 0.1, -0.2]);
        let mut c = TopKCompressor::new(0.5);
        let rt = round_trip(&mut c, &g, &mut rng);
        let err = rt.l2_distance(&g);
        let expected = (0.1f64 * 0.1 + 0.2 * 0.2).sqrt();
        assert!((err - expected).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0, 1]")]
    fn zero_ratio_panics() {
        TopKCompressor::new(0.0);
    }

    #[test]
    fn fused_decode_matches_decompress() {
        let mut rng = Rng::seed_from_u64(7);
        let g = Tensor::randn(&mut rng, &[100]);
        let mut c = TopKCompressor::new(0.2);
        let enc = c.compress(&g, &mut rng);
        let dense = c.decompress(&enc).unwrap();
        let mut overwrite = vec![2.0f32; g.len()];
        c.decompress_into(&enc, &mut overwrite).unwrap();
        assert_eq!(overwrite, dense.as_slice());
        let base: Vec<f32> = (0..g.len()).map(|i| 0.1 * i as f32).collect();
        let mut fused = base.clone();
        c.decompress_add_into(&enc, &mut fused).unwrap();
        let unfused: Vec<f32> = base
            .iter()
            .zip(dense.as_slice())
            .map(|(b, d)| b + d)
            .collect();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn shape_preserved() {
        let mut rng = Rng::seed_from_u64(5);
        let g = Tensor::randn(&mut rng, &[8, 16]);
        let mut c = TopKCompressor::new(0.1);
        assert_eq!(round_trip(&mut c, &g, &mut rng).shape(), g.shape());
    }
}
