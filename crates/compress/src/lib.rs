#![warn(missing_docs)]
//! Gradient compression operators with bit-exact wire formats.
//!
//! This crate implements the compression families surveyed in the CGX paper
//! (Section 2.3) behind one object-safe [`Compressor`] trait:
//!
//! * [`QsgdCompressor`] — stochastic codebook quantization with bucketing
//!   (the paper's default scheme; 4 bits + bucket 128 recovers accuracy),
//! * [`TopKCompressor`] — magnitude sparsification, usually wrapped in
//!   [`ErrorFeedback`],
//! * [`PowerSgdCompressor`] — low-rank decomposition via warm-started power
//!   iteration (Vogels et al.),
//! * [`NuqsgdCompressor`] — non-uniform (geometric-grid) quantization
//!   (Ramezani-Kebrya et al.), lower variance on concentrated gradients,
//! * [`OneBitCompressor`] — sign compression with per-bucket mean magnitude
//!   (Seide et al.),
//! * [`FakeCompressor`] — the synthetic "transmit the first `N/γ` elements"
//!   operator behind the paper's Figure 1 motivation experiment,
//! * [`NoneCompressor`] — lossless passthrough (the FP32 baseline).
//!
//! Compressed payloads are real byte buffers ([`Encoded`]); their lengths are
//! what the performance simulator charges to the network, so wire sizes are
//! exact rather than modeled.
//!
//! # Examples
//!
//! ```
//! use cgx_compress::{Compressor, QsgdCompressor};
//! use cgx_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let grad = Tensor::randn(&mut rng, &[1024]);
//! let mut q = QsgdCompressor::new(4, 128);
//! let enc = q.compress(&grad, &mut rng);
//! let restored = q.decompress(&enc);
//! assert_eq!(restored.len(), grad.len());
//! // ~4.25 bits/element instead of 32.
//! assert!((enc.payload_bytes() as f64) < 0.2 * 4.0 * 1024.0);
//! ```

pub mod bitpack;
pub mod error;
pub mod fake;
pub mod feedback;
pub mod none;
pub mod nuqsgd;
pub mod onebit;
pub mod powersgd;
pub mod qsgd;
pub mod scheme;
pub mod scratch;
mod simd;
pub mod topk;

pub use bitpack::{is_word_packable, pack_fixed, unpack_fixed, unpack_fixed_with};
pub use bitpack::{BitReader, BitWriter};
pub use error::{compression_error, relative_compression_error};
pub use fake::FakeCompressor;
pub use feedback::ErrorFeedback;
pub use none::NoneCompressor;
pub use nuqsgd::NuqsgdCompressor;
pub use onebit::OneBitCompressor;
pub use powersgd::PowerSgdCompressor;
pub use qsgd::{NormKind, QsgdCompressor};
pub use scheme::CompressionScheme;
pub use scratch::ScratchPool;
pub use topk::TopKCompressor;

use cgx_tensor::{Bytes, Rng, Shape, Tensor};

/// A compressed gradient chunk: the original shape plus an opaque payload in
/// the owning compressor's wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    shape: Shape,
    payload: Bytes,
}

impl Encoded {
    /// Creates an encoded chunk from its parts.
    pub fn new(shape: Shape, payload: Bytes) -> Self {
        Encoded { shape, payload }
    }

    /// Shape of the tensor this chunk encodes.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The raw payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Size of the payload in bytes — what a transport would transmit.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Consumes the chunk, returning the payload (e.g. for recycling its
    /// buffer through a [`ScratchPool`]).
    pub fn into_payload(self) -> Bytes {
        self.payload
    }
}

/// A lossy (or lossless) gradient codec.
///
/// Implementations must satisfy the round-trip contract: for every tensor
/// `g`, `decompress(compress(g))` has the same shape as `g`. Compressors may
/// be stateful across calls (PowerSGD warm-starts its `Q` factor), which is
/// why [`Compressor::compress`] takes `&mut self`; use one instance per layer.
pub trait Compressor: Send {
    /// A short human-readable name, e.g. `"qsgd(4b,128)"`.
    fn name(&self) -> String;

    /// Compresses a gradient into a wire chunk. Stochastic schemes draw from
    /// `rng`.
    fn compress(&mut self, grad: &Tensor, rng: &mut Rng) -> Encoded;

    /// Reconstructs a dense tensor from a wire chunk.
    ///
    /// # Panics
    ///
    /// Implementations may panic on payloads not produced by a compressor
    /// with identical parameters.
    fn decompress(&self, enc: &Encoded) -> Tensor;

    /// Exact payload size in bytes for an `n`-element tensor, without
    /// performing the compression. Used by the performance plane.
    fn compressed_bytes(&self, n: usize) -> usize;

    /// Whether decompression reproduces the input bit-exactly — on every
    /// call, whatever the calls before it were, and for every `f32`
    /// (signed zeros, infinities, NaN payloads). The engine relies on it:
    /// it skips decoding an aggregate it just encoded from its own output,
    /// and batches small lossless layers into one collective.
    fn is_lossless(&self) -> bool {
        false
    }

    /// Attempts to aggregate two encoded chunks directly (without a
    /// decompress/sum/re-compress round-trip). Only associative schemes
    /// (lossless float payloads, PowerSGD factors before orthogonalization)
    /// support this; the default is `None`, signalling non-associativity —
    /// the property that forces CGX to integrate at the communication-engine
    /// layer (paper Section 3).
    fn aggregate_encoded(&self, _a: &Encoded, _b: &Encoded) -> Option<Encoded> {
        None
    }

    /// Estimated extra compute seconds per element for compress+decompress on
    /// the reference GPU. Quantization runs "at line rate" (paper Appendix A:
    /// 1-3% of step time); decomposition is costlier.
    fn kernel_cost_per_element(&self) -> f64 {
        0.0
    }

    /// Compresses a flat `f32` slice (vector shape), drawing the encode
    /// buffer from `pool` when the implementation supports buffer reuse.
    /// The default ignores the pool and delegates to
    /// [`Compressor::compress`]; the wire format is identical either way.
    fn compress_slice(&mut self, data: &[f32], rng: &mut Rng, pool: &ScratchPool) -> Encoded {
        let _ = pool;
        self.compress(&Tensor::from_slice(data), rng)
    }

    /// Compresses a flat `f32` slice that is a window of a larger gradient,
    /// starting at element `offset` of the owning tensor. Chunked allreduce
    /// paths (segmented SRA, ring reduce-scatter) call this so *stateful*
    /// compressors can key their per-chunk state by position instead of
    /// conflating every chunk that happens to share a length —
    /// [`ErrorFeedback`] overrides it to keep one residual per
    /// `(offset, len)` window, which is what preserves EF-SGD semantics
    /// under segmentation. Stateless compressors ignore `offset`; the
    /// default delegates to [`Compressor::compress_slice`], so the wire
    /// format never depends on `offset`.
    fn compress_slice_at(
        &mut self,
        offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let _ = offset;
        self.compress_slice(data, rng, pool)
    }

    /// Compresses a tensor (preserving its shape), drawing the encode buffer
    /// from `pool` when supported. Default ignores the pool.
    fn compress_pooled(&mut self, grad: &Tensor, rng: &mut Rng, pool: &ScratchPool) -> Encoded {
        let _ = pool;
        self.compress(grad, rng)
    }

    /// Decodes a wire chunk into an existing slice, overwriting it. The
    /// default materializes a tensor via [`Compressor::decompress`] and
    /// copies; overrides decode in place without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the encoded element count.
    fn decompress_into(&self, enc: &Encoded, out: &mut [f32]) {
        let t = self.decompress(enc);
        assert_eq!(t.len(), out.len(), "decompress_into length mismatch");
        out.copy_from_slice(t.as_slice());
    }

    /// Fused decode-accumulate: adds the decoded values of `enc` into `out`
    /// element-wise. The default decompresses then adds; overrides must be
    /// arithmetically identical (`out[i] += decoded[i]` with the exact same
    /// decoded `f32` values, in the same element order), because allreduce
    /// consensus depends on every rank computing bit-equal sums.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the encoded element count.
    fn decompress_add_into(&self, enc: &Encoded, out: &mut [f32]) {
        let t = self.decompress(enc);
        assert_eq!(t.len(), out.len(), "decompress_add_into length mismatch");
        for (o, v) in out.iter_mut().zip(t.as_slice()) {
            *o += *v;
        }
    }
}

/// Convenience: compress then immediately decompress, returning the lossy
/// reconstruction. Useful for measuring compression error.
pub fn round_trip(c: &mut dyn Compressor, grad: &Tensor, rng: &mut Rng) -> Tensor {
    let enc = c.compress(grad, rng);
    c.decompress(&enc)
}

/// Writes `xs` little-endian over `out` in one pass (on a little-endian
/// target the loop is a plain copy).
///
/// # Panics
///
/// Panics if `out` is not exactly four bytes per element.
pub(crate) fn write_f32s_le(xs: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), xs.len() * 4, "f32 payload size");
    for (dst, x) in out.chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Serializes an `f32` slice little-endian into bytes (shared helper for
/// float-payload compressors).
pub(crate) fn f32s_to_bytes(xs: &[f32]) -> Bytes {
    let mut buf = vec![0u8; xs.len() * 4];
    write_f32s_le(xs, &mut buf);
    Bytes::from(buf)
}

/// Reads little-endian `f32`s from `b` over `out`, the inverse of
/// [`write_f32s_le`].
///
/// # Panics
///
/// Panics if `b` is not exactly four bytes per element.
pub(crate) fn read_f32s_le(b: &[u8], out: &mut [f32]) {
    assert_eq!(b.len(), out.len() * 4, "f32 payload size");
    for (o, src) in out.iter_mut().zip(b.chunks_exact(4)) {
        *o = f32::from_le_bytes(src.try_into().expect("4-byte chunk"));
    }
}

/// Deserializes little-endian bytes into `f32`s.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 4.
pub(crate) fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
    assert!(b.len().is_multiple_of(4), "payload not f32-aligned");
    let mut out = vec![0.0; b.len() / 4];
    read_f32s_le(b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_bytes_roundtrip() {
        let xs = [1.0f32, -2.5, 3.25e-8, f32::MAX];
        let b = f32s_to_bytes(&xs);
        assert_eq!(bytes_to_f32s(&b), xs.to_vec());
    }

    #[test]
    #[should_panic(expected = "not f32-aligned")]
    fn misaligned_bytes_panic() {
        bytes_to_f32s(&[1, 2, 3]);
    }

    #[test]
    fn lossless_means_bit_exact_twice() {
        // A compressor that says it is lossless returns its input by
        // `to_bits` through `compress_slice_at` → `decompress_into`, the
        // engine's calls, on the second round trip of a window as on the
        // first — special values included.
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            1.5,
            -3.25e-3,
        ];
        let input: Vec<f32> = specials.iter().cycle().take(64).copied().collect();
        let candidates: Vec<Box<dyn Compressor>> = vec![
            Box::new(NoneCompressor::new()),
            Box::new(ErrorFeedback::new(Box::new(NoneCompressor::new()))),
            Box::new(ErrorFeedback::new(Box::new(TopKCompressor::new(1.0)))),
            Box::new(TopKCompressor::new(1.0)),
            Box::new(QsgdCompressor::new(8, 64)),
            Box::new(NuqsgdCompressor::new(8, 64)),
            Box::new(OneBitCompressor::new(64)),
            Box::new(PowerSgdCompressor::new(1)),
            Box::new(FakeCompressor::new(1.0)),
        ];
        let (pool, mut rng) = (ScratchPool::new(), Rng::seed_from_u64(3));
        let mut lossless = Vec::new();
        for mut c in candidates.into_iter().filter(|c| c.is_lossless()) {
            for round in 0..2 {
                let enc = c.compress_slice_at(8, &input, &mut rng, &pool);
                let mut out = vec![7.0f32; input.len()];
                c.decompress_into(&enc, &mut out);
                for (i, (a, b)) in input.iter().zip(&out).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} round {round} [{i}]", c.name());
                }
            }
            lossless.push(c.name());
        }
        assert_eq!(lossless, ["none(fp32)"]);
    }

    #[test]
    fn encoded_accessors() {
        let e = Encoded::new(Shape::vector(3), Bytes::copy_from_slice(&[1, 2]));
        assert_eq!(e.shape().len(), 3);
        assert_eq!(e.payload_bytes(), 2);
        assert_eq!(e.payload().as_ref(), &[1, 2]);
    }
}
