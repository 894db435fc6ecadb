#![warn(missing_docs)]
//! QNCCL: quantized collectives at the communication-primitive level.
//!
//! The paper contributes QNCCL as a separate artefact — "we re-implemented
//! the NCCL communication library to support quantized reduction
//! operations" — precisely to demonstrate why that integration point is
//! the *wrong* one (Section 3):
//!
//! * the primitive layer sees only **raw fused byte buffers**: no layer
//!   boundaries, so compression parameters are uniform over the whole
//!   model and quantization buckets straddle layers with different
//!   gradient distributions (accuracy cost);
//! * small sensitive tensors (biases, norms) cannot be filtered to full
//!   precision (accuracy cost);
//! * communication happens on the library's terms: ring reduction with a
//!   re-quantization at every hop, and GPU resources for the compression
//!   kernels are capped by the library (performance cost).
//!
//! This crate reproduces that design faithfully on the threaded fabric:
//! [`FusedBuffer`] flattens a parameter set the way DDP hands NCCL a
//! bucket, and [`QncclRing`] runs a uniformly-quantized chunked ring
//! Allreduce over it. The tests demonstrate both the claimed behaviours:
//! it works, it speeds up the wire, and it measurably hurts gradient
//! fidelity relative to CGX's layer-wise compression with filters.
//!
//! # Examples
//!
//! ```
//! use cgx_collectives::ThreadCluster;
//! use cgx_qnccl::{FusedBuffer, QncclRing};
//! use cgx_tensor::{Rng, Tensor};
//!
//! let results = ThreadCluster::run(4, |t| {
//!     let mut rng = Rng::seed_from_u64(t.rank() as u64);
//!     let grads = vec![
//!         Tensor::randn(&mut rng, &[300]),
//!         Tensor::randn(&mut rng, &[40, 5]),
//!     ];
//!     let fused = FusedBuffer::pack(&grads);
//!     let mut ring = QncclRing::new(4, 128);
//!     let reduced = ring.allreduce(&t, &fused, &mut rng).unwrap();
//!     reduced.unpack()
//! })
//! .unwrap();
//! assert_eq!(results[0].len(), 2);
//! assert_eq!(results[0][1].shape().dims(), &[40, 5]);
//! ```

use cgx_collectives::reduce::{Algorithm, AllreduceStats};
use cgx_collectives::{CommEngine, CommError, Transport};
use cgx_compress::{QsgdCompressor, ScratchPool};
use cgx_tensor::{Rng, Shape, Tensor};

/// A DDP-style fused gradient bucket: one flat buffer plus the layer
/// layout needed to slice it back apart.
///
/// This is all the information the primitive layer has — element offsets,
/// not names, kinds, or distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBuffer {
    flat: Tensor,
    shapes: Vec<Shape>,
}

impl FusedBuffer {
    /// Flattens a set of gradients into one contiguous buffer.
    ///
    /// # Panics
    ///
    /// Panics if `grads` is empty.
    pub fn pack(grads: &[Tensor]) -> Self {
        assert!(!grads.is_empty(), "nothing to fuse");
        let total: usize = grads.iter().map(Tensor::len).sum();
        let mut flat = Vec::with_capacity(total);
        let mut shapes = Vec::with_capacity(grads.len());
        for g in grads {
            flat.extend_from_slice(g.as_slice());
            shapes.push(g.shape().clone());
        }
        FusedBuffer {
            flat: Tensor::from_vec(&[total], flat),
            shapes,
        }
    }

    /// The flat view (what the primitive layer operates on).
    pub fn flat(&self) -> &Tensor {
        &self.flat
    }

    /// Total fused elements.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Whether the buffer is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Number of fused tensors.
    pub fn tensor_count(&self) -> usize {
        self.shapes.len()
    }

    /// Slices the flat buffer back into the original tensor shapes.
    pub fn unpack(&self) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(self.shapes.len());
        let mut offset = 0;
        for shape in &self.shapes {
            let n = shape.len();
            out.push(Tensor::from_vec(
                shape.dims(),
                self.flat.as_slice()[offset..offset + n].to_vec(),
            ));
            offset += n;
        }
        out
    }

    /// Replaces the flat contents (same length), keeping the layout.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn with_flat(&self, flat: Tensor) -> Self {
        assert_eq!(flat.len(), self.flat.len(), "fused length mismatch");
        FusedBuffer {
            flat: flat.reshape(&[self.flat.len()]),
            shapes: self.shapes.clone(),
        }
    }
}

/// The QNCCL collective: a chunked ring Allreduce whose every transfer is
/// uniformly quantized, oblivious to the layer structure inside the buffer.
///
/// It runs as the one ring the stack has, a [`CommEngine`] collective
/// under [`Algorithm::Ring`] (which the engine runs at submit, as its
/// sequential reference), and owns a scratch pool, so repeated calls
/// reuse encode buffers instead of allocating per step.
#[derive(Debug, Clone)]
pub struct QncclRing {
    bits: u32,
    bucket_size: usize,
    comp: QsgdCompressor,
    pool: ScratchPool,
}

impl QncclRing {
    /// Creates the collective with uniform quantization parameters (the
    /// only kind the primitive layer can support).
    ///
    /// # Panics
    ///
    /// Panics on parameters [`QsgdCompressor::new`] rejects.
    pub fn new(bits: u32, bucket_size: usize) -> Self {
        QncclRing {
            bits,
            bucket_size,
            comp: QsgdCompressor::new(bits, bucket_size),
            pool: ScratchPool::new(),
        }
    }

    /// Quantization bit-width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Bucket size.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// All-reduces a fused buffer across the fabric, returning the *mean*
    /// buffer with the original layout.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn allreduce(
        &mut self,
        t: &dyn Transport,
        fused: &FusedBuffer,
        rng: &mut Rng,
    ) -> Result<FusedBuffer, CommError> {
        let (sum, _) = self.allreduce_with_stats(t, fused, rng)?;
        Ok(sum)
    }

    /// Like [`QncclRing::allreduce`], also returning traffic statistics.
    /// Draws one `next_u64` from `rng`, which seeds the collective's own
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn allreduce_with_stats(
        &mut self,
        t: &dyn Transport,
        fused: &FusedBuffer,
        rng: &mut Rng,
    ) -> Result<(FusedBuffer, AllreduceStats), CommError> {
        let mut eng = CommEngine::with_defaults(t, self.pool.clone());
        let comp = Box::new(self.comp.clone());
        let (mut sum, stats, _) = eng.allreduce(Algorithm::Ring, fused.flat(), comp, rng)?;
        sum.scale(1.0 / t.world() as f32);
        Ok((fused.with_flat(sum), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_collectives::ThreadCluster;
    use cgx_compress::{CompressionScheme, Compressor};

    fn layer_set(rng: &mut Rng) -> Vec<Tensor> {
        // Deliberately heterogeneous scales: a big quiet matrix, a loud
        // little bias, and a mid-size tensor — like real adjacent layers.
        // (1920 elements so blob buckets straddle the layer boundary.)
        let mut big = Tensor::randn(rng, &[60, 32]);
        big.scale(0.01);
        let mut bias = Tensor::randn(rng, &[16]);
        bias.scale(2.0);
        let mid = Tensor::randn(rng, &[128]);
        vec![big, bias, mid]
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let grads = layer_set(&mut rng);
        let fused = FusedBuffer::pack(&grads);
        assert_eq!(fused.len(), 60 * 32 + 16 + 128);
        assert_eq!(fused.tensor_count(), 3);
        let back = fused.unpack();
        for (a, b) in back.iter().zip(&grads) {
            assert_eq!(a.as_slice(), b.as_slice());
            assert_eq!(a.shape(), b.shape());
        }
    }

    #[test]
    fn ring_allreduce_produces_consistent_mean() {
        let results = ThreadCluster::run(4, |t| {
            let mut rng = Rng::seed_from_u64(10 + t.rank() as u64);
            let grads = layer_set(&mut rng);
            let fused = FusedBuffer::pack(&grads);
            let mut ring = QncclRing::new(8, 64); // high precision: near-exact
            let out = ring.allreduce(&t, &fused, &mut rng).unwrap();
            (fused, out)
        })
        .unwrap();
        // Consensus.
        for (_, out) in &results[1..] {
            assert_eq!(out.flat().as_slice(), results[0].1.flat().as_slice());
        }
        // Near the true mean at 8 bits.
        let mut mean = Tensor::zeros(&[results[0].0.len()]);
        for (inp, _) in &results {
            mean.add_assign(inp.flat());
        }
        mean.scale(0.25);
        let rel = results[0].1.flat().l2_distance(&mean) / mean.norm2();
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn uniform_blob_quantization_hurts_more_than_layerwise() {
        // The paper's accuracy argument: buckets that straddle layers mix
        // distributions; the loud bias drowns the quiet big matrix inside
        // shared buckets.
        let mut rng = Rng::seed_from_u64(3);
        let grads = layer_set(&mut rng);
        // QNCCL: one blob, buckets cross the layer boundary.
        let fused = FusedBuffer::pack(&grads);
        let mut blob_comp = QsgdCompressor::new(4, 2048);
        let enc = blob_comp.compress(fused.flat(), &mut rng);
        let blob_rt = fused.with_flat(blob_comp.decompress(&enc).unwrap()).unpack();
        // CGX: per-layer compression (and the bias filtered to fp32).
        let mut layer_rt = Vec::new();
        for (i, g) in grads.iter().enumerate() {
            if i == 1 {
                layer_rt.push(g.clone()); // filtered
                continue;
            }
            let mut c = CompressionScheme::cgx_default().build();
            let e = c.compress(g, &mut rng);
            layer_rt.push(c.decompress(&e).unwrap());
        }
        // Compare error on the quiet big matrix (layer 0).
        let blob_err = blob_rt[0].l2_distance(&grads[0]);
        let layer_err = layer_rt[0].l2_distance(&grads[0]);
        assert!(
            blob_err > 3.0 * layer_err,
            "blob {blob_err} vs layer-wise {layer_err}"
        );
        // And the bias is exact under CGX, lossy under QNCCL.
        assert_eq!(layer_rt[1].as_slice(), grads[1].as_slice());
        assert!(blob_rt[1].l2_distance(&grads[1]) > 0.0);
    }

    #[test]
    fn traffic_matches_uniform_quantized_ring() {
        let world = 4;
        let stats = ThreadCluster::run(world, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grads = vec![Tensor::randn(&mut rng, &[4096])];
            let fused = FusedBuffer::pack(&grads);
            let mut ring = QncclRing::new(4, 128);
            ring.allreduce_with_stats(&t, &fused, &mut rng).unwrap().1
        })
        .unwrap();
        let comp = QsgdCompressor::new(4, 128);
        let chunk_bytes = comp.compressed_bytes(4096 / world);
        for s in &stats {
            // Reduce-scatter: (n-1) chunk sends; allgather: (n-1) relays.
            assert_eq!(s.bytes_sent, 2 * (world - 1) * chunk_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "fused length mismatch")]
    fn with_flat_validates_length() {
        let fused = FusedBuffer::pack(&[Tensor::zeros(&[4])]);
        let _ = fused.with_flat(Tensor::zeros(&[5]));
    }

    #[test]
    #[should_panic(expected = "nothing to fuse")]
    fn empty_pack_panics() {
        FusedBuffer::pack(&[]);
    }
}
