//! Error feedback (EF-SGD) wrapper.
//!
//! Error feedback accumulates the part of the gradient a lossy compressor
//! dropped and re-injects it into the next step's gradient. Karimireddy et
//! al. (2019) show this "fixes" biased compressors (signSGD, TopK); the CGX
//! paper applies it to TopK on embedding layers. The wrapper composes with
//! any inner [`Compressor`].

use std::collections::HashMap;

use crate::{own_payload, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{Rng, Shape};

/// Wraps a compressor with an error-feedback residual per window.
///
/// On each call the residual the window kept last time is added to the
/// incoming gradient before compression, and the new residual (input minus
/// what the wire format can represent) is kept. A window is `(offset,
/// len)` within the owning gradient; a whole tensor is the window `(0,
/// len)`.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, ErrorFeedback, TopKCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
/// let g = Tensor::from_slice(&[1.0, 0.1]);
/// let _ = ef.compress(&g, &mut rng);
/// // The dropped 0.1 is remembered:
/// assert!(ef.residual(0, 2).unwrap()[1] > 0.0);
/// ```
pub struct ErrorFeedback {
    inner: Box<dyn Compressor>,
    /// One residual per window, keyed by `(offset, len)`. Chunked
    /// allreduce feeds one compressor many distinct windows of the same
    /// gradient (per-peer scatter chunks, the aggregate chunk, pipeline
    /// segments); keying by position keeps each window's EF-SGD residual
    /// its own instead of conflating or dropping them by length.
    residuals: HashMap<(usize, usize), Vec<f32>>,
}

impl std::fmt::Debug for ErrorFeedback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErrorFeedback")
            .field("inner", &self.inner.name())
            .field("residuals", &self.residuals.len())
            .finish()
    }
}

impl ErrorFeedback {
    /// Wraps `inner` with no residual yet.
    pub fn new(inner: Box<dyn Compressor>) -> Self {
        ErrorFeedback {
            inner,
            residuals: HashMap::new(),
        }
    }

    /// The residual kept for the window at `(offset, len)`, if a call has
    /// encoded that window.
    pub fn residual(&self, offset: usize, len: usize) -> Option<&[f32]> {
        self.residuals.get(&(offset, len)).map(Vec::as_slice)
    }

    /// Clears every residual (e.g. at epoch boundaries, if desired).
    pub fn reset(&mut self) {
        self.residuals.clear();
    }

    /// Encodes the window `data` plus its residual, leaves `data` holding
    /// what the inner codec's receivers decode, and keeps the difference
    /// as the window's residual. The stored residual buffer doubles as
    /// the corrected-gradient buffer, so steady state allocates nothing:
    /// corrected = residual + data (element-wise `f32` add in index
    /// order; a copy of `data` on a window's first call), new residual =
    /// corrected − reconstruction.
    fn commit(
        &mut self,
        shape: Shape,
        offset: usize,
        data: &mut [f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let key = (offset, data.len());
        let mut corrected = match self.residuals.remove(&key) {
            Some(mut r) => {
                for (c, d) in r.iter_mut().zip(data.iter()) {
                    *c += *d;
                }
                r
            }
            None => {
                let mut c = pool.take_f32(data.len());
                c.copy_from_slice(data);
                c
            }
        };
        data.copy_from_slice(&corrected);
        let enc = self.inner.encode(shape, 0, data, rng, pool);
        if !self.inner.is_lossless() {
            own_payload(self.inner.decompress_into(&enc, data));
        }
        for (c, v) in corrected.iter_mut().zip(data.iter()) {
            *c -= *v;
        }
        self.residuals.insert(key, corrected);
        enc
    }
}

impl Compressor for ErrorFeedback {
    fn name(&self) -> String {
        format!("ef[{}]", self.inner.name())
    }

    fn encode(
        &mut self,
        shape: Shape,
        offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let mut recon = pool.take_f32(data.len());
        recon.copy_from_slice(data);
        let enc = self.commit(shape, offset, &mut recon, rng, pool);
        pool.put_f32(recon);
        enc
    }

    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        self.inner.decode(enc, out, add)
    }

    /// The reconstruction `data` is left holding is the one the window's
    /// residual is taken from.
    fn compress_committed_at(
        &mut self,
        offset: usize,
        data: &mut [f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        self.commit(Shape::vector(data.len()), offset, data, rng, pool)
    }

    fn compressed_bytes(&self, n: usize) -> usize {
        self.inner.compressed_bytes(n)
    }

    fn extent(&self, n: usize, bytes: &[u8]) -> Option<usize> {
        self.inner.extent(n, bytes)
    }

    /// Never: what a window sends is the input plus the residual it left
    /// last time, so even over a lossless inner codec a second round trip
    /// of `-0.0` returns `+0.0` (`+0.0 + -0.0`), and an infinite element
    /// leaves a NaN residual (`∞ − ∞`) behind for the next.
    fn is_lossless(&self) -> bool {
        false
    }

    fn kernel_cost_per_element(&self) -> f64 {
        // The residual add and subtract are two extra streaming passes.
        self.inner.kernel_cost_per_element() + 1.0e-11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopKCompressor;
    use cgx_tensor::Tensor;

    #[test]
    fn residual_feeds_back_dropped_mass() {
        let mut rng = Rng::seed_from_u64(1);
        // Component 1 is always dropped by top-1 at first, but error feedback
        // accumulates it until it wins.
        let g = Tensor::from_slice(&[1.0, 0.4]);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let enc1 = ef.compress(&g, &mut rng);
        let first = ef.decompress(&enc1).unwrap();
        assert_eq!(first.as_slice(), &[1.0, 0.0]);
        // After two more identical steps the residual at index 1 is 1.2 > 1.0
        // so index 1 finally transmits (with the accumulated value).
        let _ = ef.compress(&g, &mut rng);
        let enc3 = ef.compress(&g, &mut rng);
        let third = ef.decompress(&enc3).unwrap();
        assert_eq!(third.as_slice()[0], 0.0);
        assert!((third.as_slice()[1] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn long_run_transmits_all_mass() {
        // Over many steps EF-TopK must transmit (almost) the full gradient
        // sum: residual stays bounded.
        let mut rng = Rng::seed_from_u64(2);
        let g = Tensor::from_slice(&[0.9, 0.5, 0.3, 0.1]);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.25)));
        let mut transmitted = Tensor::zeros(&[4]);
        let steps = 400;
        for _ in 0..steps {
            let enc = ef.compress(&g, &mut rng);
            transmitted.add_assign(&ef.decompress(&enc).unwrap());
        }
        for i in 0..4 {
            let expect = g[i] * steps as f32;
            let got = transmitted[i];
            assert!(
                (got - expect).abs() / expect < 0.05,
                "component {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn reset_clears_residual() {
        let mut rng = Rng::seed_from_u64(3);
        let g = Tensor::from_slice(&[1.0, 0.4]);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let _ = ef.compress(&g, &mut rng);
        assert!(ef.residual(0, 2).is_some());
        ef.reset();
        assert!(ef.residual(0, 2).is_none());
    }

    #[test]
    fn name_wraps_inner() {
        let ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.01)));
        assert_eq!(ef.name(), "ef[topk(1%)]");
    }

    #[test]
    fn segmented_ef_transmits_same_mass_as_unsegmented() {
        // Regression: residuals once matched by length alone, so
        // alternating chunk lengths (5 then 3, as produced by near-equal
        // chunking) dropped the residual every call and EF-SGD silently
        // degraded to plain TopK. Offset-keyed residuals must transmit the
        // same gradient mass as whole-tensor EF.
        let g: Vec<f32> = vec![0.9, -0.5, 0.3, -0.1, 0.7, 0.2, -0.8, 0.05];
        let steps = 400;

        // Whole-tensor reference.
        let mut rng = Rng::seed_from_u64(11);
        let mut whole = ErrorFeedback::new(Box::new(TopKCompressor::new(0.25)));
        let mut whole_sum = vec![0.0f32; g.len()];
        for _ in 0..steps {
            let enc = whole.compress(&Tensor::from_slice(&g), &mut rng);
            let dec = whole.decompress(&enc).unwrap();
            for (s, v) in whole_sum.iter_mut().zip(dec.as_slice()) {
                *s += *v;
            }
        }

        // Segmented: unequal windows [0..5) and [5..8) through the
        // offset-keyed slice path, one shared compressor (as in the engine).
        let pool = ScratchPool::new();
        let mut rng = Rng::seed_from_u64(11);
        let mut seg = ErrorFeedback::new(Box::new(TopKCompressor::new(0.25)));
        let mut seg_sum = vec![0.0f32; g.len()];
        for _ in 0..steps {
            for (start, end) in [(0usize, 5usize), (5, 8)] {
                let enc = seg.compress_slice_at(start, &g[start..end], &mut rng, &pool);
                let mut dec = vec![0.0f32; end - start];
                seg.decompress_into(&enc, &mut dec).unwrap();
                for (s, v) in seg_sum[start..end].iter_mut().zip(&dec) {
                    *s += *v;
                }
                pool.recycle(enc);
            }
        }
        assert!(seg.residual(0, 5).is_some() && seg.residual(5, 3).is_some());

        // Both paths must transmit (almost) the full accumulated gradient:
        // per-element error stays bounded by one step's magnitude instead of
        // growing with `steps`.
        for i in 0..g.len() {
            let expect = g[i] * steps as f32;
            let whole_err = (whole_sum[i] - expect).abs();
            let seg_err = (seg_sum[i] - expect).abs();
            assert!(
                whole_err / expect.abs() < 0.05,
                "whole path lost mass at {i}: {} vs {expect}",
                whole_sum[i]
            );
            assert!(
                seg_err / expect.abs() < 0.05,
                "segmented path lost mass at {i}: {} vs {expect}",
                seg_sum[i]
            );
        }
    }

    #[test]
    fn slice_residuals_keyed_by_offset_not_just_length() {
        // Same-length windows at different offsets must keep independent
        // residuals (SRA compresses one equal-size chunk per peer).
        let pool = ScratchPool::new();
        let mut rng = Rng::seed_from_u64(5);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let a = [1.0f32, 0.4];
        let b = [0.2f32, 0.9];
        let _ = ef.compress_slice_at(0, &a, &mut rng, &pool);
        let _ = ef.compress_slice_at(2, &b, &mut rng, &pool);
        let ra = ef.residual(0, 2).expect("window (0,2) retained");
        let rb = ef.residual(2, 2).expect("window (2,2) retained");
        // top-1 keeps the max-magnitude element, the residual holds the other.
        assert!((ra[1] - 0.4).abs() < 1e-6, "{ra:?}");
        assert!((rb[0] - 0.2).abs() < 1e-6, "{rb:?}");
        // Steady state: after one warm-up round, no further pool
        // allocations.
        let enc = ef.compress_slice_at(0, &a, &mut rng, &pool);
        pool.recycle(enc);
        let allocs = pool.allocations();
        for _ in 0..10 {
            let enc = ef.compress_slice_at(0, &a, &mut rng, &pool);
            pool.recycle(enc);
        }
        assert_eq!(
            pool.allocations(),
            allocs,
            "chunked EF must be allocation-free at steady state"
        );
    }

    #[test]
    fn committed_window_matches_error_feedback_written_out() {
        // EF-SGD by hand beside both entry points, five rounds over three
        // windows (two of one length): corrected = residual + data (a copy
        // on a window's first round), the inner codec's payload of it,
        // the reconstruction decoded from that payload, residual =
        // corrected − reconstruction. `compress_slice_at` then decoding,
        // and `compress_committed_at`, each give its bytes, its
        // reconstruction and its residual — over QSGD, which commits in
        // its walk, over top-k and over FP32, which take the provided one.
        type Build = fn() -> Box<dyn Compressor>;
        let inners: [Build; 3] = [
            || Box::new(crate::QsgdCompressor::new(4, 64)),
            || Box::new(TopKCompressor::new(0.25)),
            || Box::new(crate::NoneCompressor::new()),
        ];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let pool = ScratchPool::new();
        for inner in inners {
            let (mut by_hand, mut plain, mut committing) = (
                inner(),
                ErrorFeedback::new(inner()),
                ErrorFeedback::new(inner()),
            );
            let what = plain.name();
            let mut residuals: HashMap<usize, Vec<f32>> = HashMap::new();
            let mut rngs = [0; 3].map(|_| Rng::seed_from_u64(17));
            let mut grads = Rng::seed_from_u64(18);
            for round in 0..5 {
                for (offset, len) in [(0usize, 300usize), (300, 300), (600, 257)] {
                    let at = format!("{what} round {round} window {offset}");
                    let mut data: Vec<f32> = (0..len).map(|_| grads.normal() as f32).collect();
                    data[round * 7] = -0.0;
                    let mut corrected = match residuals.remove(&offset) {
                        Some(mut r) => {
                            r.iter_mut().zip(&data).for_each(|(c, d)| *c += *d);
                            r
                        }
                        None => data.clone(),
                    };
                    let want = by_hand.compress_slice(&corrected, &mut rngs[0], &pool);
                    let mut recon = vec![0.0f32; len];
                    by_hand.decompress_into(&want, &mut recon).unwrap();
                    corrected.iter_mut().zip(&recon).for_each(|(c, v)| *c -= *v);

                    let enc = plain.compress_slice_at(offset, &data, &mut rngs[1], &pool);
                    let mut decoded = vec![0.0f32; len];
                    plain.decompress_into(&enc, &mut decoded).unwrap();
                    let mut kept = data.clone();
                    let committed =
                        committing.compress_committed_at(offset, &mut kept, &mut rngs[2], &pool);
                    for (path, enc, values, ef) in [
                        ("plain", &enc, &decoded, &plain),
                        ("committed", &committed, &kept, &committing),
                    ] {
                        assert_eq!(enc.payload(), want.payload(), "{at} {path}: bytes");
                        assert_eq!(bits(values), bits(&recon), "{at} {path}: values");
                        let residual = ef.residual(offset, len).expect("retained");
                        assert_eq!(bits(residual), bits(&corrected), "{at} {path}: residual");
                    }
                    residuals.insert(offset, corrected);
                }
            }
        }
    }

    #[test]
    fn reset_clears_slice_residuals_too() {
        let pool = ScratchPool::new();
        let mut rng = Rng::seed_from_u64(6);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let _ = ef.compress_slice_at(4, &[1.0, 0.25], &mut rng, &pool);
        assert!(ef.residual(4, 2).is_some());
        ef.reset();
        assert!(ef.residual(4, 2).is_none());
    }

    #[test]
    fn another_length_is_another_window() {
        // Chunked allreduce feeds one compressor slices of different
        // lengths (e.g. 257-element then 256-element chunks). A window of
        // another length starts from no residual, and neither window's
        // residual is zipped against the other's length.
        let mut rng = Rng::seed_from_u64(4);
        let mut ef = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let _ = ef.compress(&Tensor::from_slice(&[1.0, 0.4, 0.2]), &mut rng);
        let enc = ef.compress(&Tensor::from_slice(&[1.0, 0.4]), &mut rng);
        // Fresh-start behavior: identical to a wrapper with no residual.
        let mut fresh = ErrorFeedback::new(Box::new(TopKCompressor::new(0.5)));
        let fresh_enc = fresh.compress(&Tensor::from_slice(&[1.0, 0.4]), &mut rng);
        assert_eq!(enc.payload(), fresh_enc.payload());
        assert_eq!(ef.residual(0, 2).map(<[f32]>::len), Some(2));
        assert_eq!(ef.residual(0, 3).map(<[f32]>::len), Some(3));
    }
}
