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
//! * `FakeCompressor` — the synthetic "transmit the first `N/γ` elements"
//!   operator behind the paper's Figure 1 motivation experiment,
//! * [`NoneCompressor`] — lossless passthrough (the FP32 baseline).
//!
//! Compressed payloads are real byte buffers ([`Encoded`]); their lengths are
//! what the performance simulator charges to the network, so wire sizes are
//! exact rather than modeled.
//!
//! A codec implements one encoder, [`Compressor::encode`], and one decoder,
//! [`Compressor::decode`]; whole-tensor, slice and windowed compression and
//! the three decompressions are provided over those two. The decoder is the
//! one definition of a valid payload: bytes it does not accept are a
//! [`PayloadError`], never a panic.
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
//! let restored = q.decompress(&enc).unwrap();
//! assert_eq!(restored.len(), grad.len());
//! // ~4.25 bits/element instead of 32.
//! assert!((enc.payload_bytes() as f64) < 0.2 * 4.0 * 1024.0);
//! ```

pub(crate) mod bitpack;
pub mod error;
pub(crate) mod fake;
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

pub use error::compression_error;
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
use std::cmp::Ordering;
use std::fmt;

/// Why a decoder refused a payload. A receiver turns it into a failed
/// collective: no byte off a socket may panic a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload ends before the fields it declares.
    Short,
    /// Bytes are left after the payload's last field.
    Trailing,
    /// A header field is not what the codec writes for the chunk (TopK's
    /// `k`, PowerSGD's `[m, n, r]`).
    BadHeader,
    /// A stored index is not an element of the chunk.
    IndexOutOfRange,
    /// The slice to decode into does not hold the chunk's element count.
    WrongCount,
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PayloadError::Short => "payload shorter than its fields",
            PayloadError::Trailing => "bytes after the payload's last field",
            PayloadError::BadHeader => "payload header is not the codec's for the chunk",
            PayloadError::IndexOutOfRange => "payload index outside the chunk",
            PayloadError::WrongCount => "element count differs from the chunk's",
        })
    }
}

impl std::error::Error for PayloadError {}

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
    pub(crate) fn into_payload(self) -> Bytes {
        self.payload
    }
}

/// A lossy (or lossless) gradient codec.
///
/// A codec writes one encoder, [`Compressor::encode`], and one decoder,
/// [`Compressor::decode`]. Every other way in — [`compress`],
/// [`compress_slice`], [`compress_slice_at`], [`decompress`],
/// [`decompress_into`] and [`decompress_add_into`] — is a provided method
/// over those two that no codec overrides, so the entry points cannot
/// disagree. Decoding a chunk gives back its shape, or the
/// [`PayloadError`] that says why its payload is not one this codec writes
/// for it. Compressors may be stateful across calls (PowerSGD warm-starts
/// its `Q` factor, error feedback keeps a residual per window), which is
/// why encoding takes `&mut self`; use one instance per layer.
///
/// [`compress`]: Compressor::compress
/// [`compress_slice`]: Compressor::compress_slice
/// [`compress_slice_at`]: Compressor::compress_slice_at
/// [`decompress`]: Compressor::decompress
/// [`decompress_into`]: Compressor::decompress_into
/// [`decompress_add_into`]: Compressor::decompress_add_into
pub trait Compressor: Send {
    /// A short human-readable name, e.g. `"qsgd(4b,128)"`.
    fn name(&self) -> String;

    /// Encodes `data`, the elements of a chunk of shape `shape`, into a
    /// wire chunk of that shape, drawing the payload buffer from `pool`;
    /// stochastic schemes draw from `rng`. The chunk starts at element
    /// `offset` of the gradient it belongs to: a stateful codec keys its
    /// per-chunk state by `(offset, data.len())` — [`ErrorFeedback`] keeps
    /// one residual per window, which is what preserves EF-SGD under
    /// segmentation — and the wire format never depends on `offset`.
    fn encode(
        &mut self,
        shape: Shape,
        offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded;

    /// Decodes `enc` over `out` (`add` false), or adds its values onto
    /// `out` (`add` true). The add is `out[i] += decoded[i]` with the very
    /// `f32`s the overwrite writes, in element order, because allreduce
    /// consensus depends on every rank computing bit-equal sums; a sparse
    /// codec may leave the slots it stores nothing for untouched. The
    /// element count is `out.len()`; the provided decoders hold it to the
    /// chunk's shape.
    ///
    /// # Errors
    ///
    /// A [`PayloadError`] for any payload that is not what a codec with
    /// identical parameters writes for `out.len()` elements: `decode` is
    /// the one definition of a valid payload, and no payload panics it.
    /// After an `Err`, `out` is unspecified (a decode-add may have added
    /// part of the chunk): the caller aborts its collective, so a chunk
    /// half added is never used.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError>;

    /// Payload size in bytes for an `n`-element tensor, without
    /// performing the compression: the largest a payload can be (QSGD
    /// writes no codes for a bucket of zeros). Used by the performance
    /// plane and to size encode buffers.
    fn compressed_bytes(&self, n: usize) -> usize;

    /// How many leading bytes of `bytes` one payload of this codec for
    /// `n` elements takes: what lets a receiver split a frame that packs
    /// several payloads end to end. An answer past `bytes.len()` says the
    /// frame ends inside the payload; whether the bytes are a valid
    /// payload is [`Compressor::decode`]'s to say. `None` from a codec
    /// that cannot tell — for every `bytes` or for none, so an empty
    /// slice asks whether its payloads may be packed at all. The default
    /// is [`Compressor::compressed_bytes`], which is what a codec whose
    /// payload size `n` fixes writes.
    fn extent(&self, n: usize, bytes: &[u8]) -> Option<usize> {
        let _ = bytes;
        Some(self.compressed_bytes(n))
    }

    /// Whether decompression reproduces the input bit-exactly — on every
    /// call, whatever the calls before it were, and for every `f32`
    /// (signed zeros, infinities, NaN payloads). The provided
    /// [`Compressor::compress_committed_at`] skips its decode on it.
    fn is_lossless(&self) -> bool {
        false
    }

    /// Estimated extra compute seconds per element for compress+decompress on
    /// the reference GPU. Quantization runs "at line rate" (paper Appendix A:
    /// 1-3% of step time); decomposition is costlier.
    fn kernel_cost_per_element(&self) -> f64 {
        0.0
    }

    /// [`Compressor::compress_slice_at`], and then `data` holds exactly
    /// what every receiver's [`Compressor::decompress_into`] of the
    /// returned chunk writes — how an allreduce rank keeps the aggregate
    /// it broadcasts without decoding its own chunk back. The payload and
    /// the draws from `rng` are `compress_slice_at`'s. The default decodes
    /// into `data` after encoding, unless the codec is lossless and the
    /// decode would change no bit; overrides produce the values while
    /// they encode.
    fn compress_committed_at(
        &mut self,
        offset: usize,
        data: &mut [f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let enc = self.compress_slice_at(offset, data, rng, pool);
        if !self.is_lossless() {
            own_payload(self.decompress_into(&enc, data));
        }
        enc
    }

    /// Compresses a whole gradient, keeping its shape: the window at
    /// element 0, through a pool of its own.
    fn compress(&mut self, grad: &Tensor, rng: &mut Rng) -> Encoded {
        let pool = ScratchPool::new();
        self.encode(grad.shape().clone(), 0, grad.as_slice(), rng, &pool)
    }

    /// Compresses a flat `f32` slice (vector shape), the window at element
    /// 0.
    fn compress_slice(&mut self, data: &[f32], rng: &mut Rng, pool: &ScratchPool) -> Encoded {
        self.compress_slice_at(0, data, rng, pool)
    }

    /// Compresses a flat `f32` slice (vector shape) that is the window at
    /// element `offset` of a larger gradient: the entry point of the
    /// chunked paths (segmented SRA, ring reduce-scatter).
    fn compress_slice_at(
        &mut self,
        offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        self.encode(Shape::vector(data.len()), offset, data, rng, pool)
    }

    /// Reconstructs a dense tensor of the chunk's shape.
    ///
    /// # Errors
    ///
    /// As [`Compressor::decode`].
    fn decompress(&self, enc: &Encoded) -> Result<Tensor, PayloadError> {
        let mut out = vec![0.0; enc.shape().len()];
        self.decode(enc, &mut out, false)?;
        Ok(Tensor::from_vec(enc.shape().dims(), out))
    }

    /// Decodes a wire chunk over an existing slice.
    ///
    /// # Errors
    ///
    /// [`PayloadError::WrongCount`] if `out.len()` differs from the
    /// encoded element count, and as [`Compressor::decode`].
    fn decompress_into(&self, enc: &Encoded, out: &mut [f32]) -> Result<(), PayloadError> {
        self.decode(enc, chunk_sized(enc, out)?, false)
    }

    /// Fused decode-accumulate: adds the decoded values of `enc` onto
    /// `out`, bit for bit what decoding and then adding would give.
    ///
    /// # Errors
    ///
    /// As [`Compressor::decompress_into`].
    fn decompress_add_into(&self, enc: &Encoded, out: &mut [f32]) -> Result<(), PayloadError> {
        self.decode(enc, chunk_sized(enc, out)?, true)
    }
}

/// `out`, if it holds `enc`'s element count.
fn chunk_sized<'a>(enc: &Encoded, out: &'a mut [f32]) -> Result<&'a mut [f32], PayloadError> {
    match enc.shape().len() == out.len() {
        true => Ok(out),
        false => Err(PayloadError::WrongCount),
    }
}

/// The decode of a payload the codec has just written, which is one it
/// writes: an encoder commits what its receivers will decode.
pub(crate) fn own_payload<T>(decoded: Result<T, PayloadError>) -> T {
    decoded.expect("a codec decodes the payload it wrote")
}

/// `Ok` if `payload` is `len` bytes long, else why not.
pub(crate) fn exact_len(payload: &[u8], len: usize) -> Result<(), PayloadError> {
    match payload.len().cmp(&len) {
        Ordering::Less => Err(PayloadError::Short),
        Ordering::Equal => Ok(()),
        Ordering::Greater => Err(PayloadError::Trailing),
    }
}

/// Convenience: compress then immediately decompress, returning the lossy
/// reconstruction. Useful for measuring compression error.
#[cfg(test)]
pub(crate) fn round_trip(c: &mut dyn Compressor, grad: &Tensor, rng: &mut Rng) -> Tensor {
    let enc = c.compress(grad, rng);
    own_payload(c.decompress(&enc))
}

/// `xs` little-endian, in a buffer from `pool` (the payload of every
/// codec that ships raw `f32`s); on a little-endian target the write is
/// a plain copy.
pub(crate) fn f32s_to_bytes(xs: &[f32], pool: &ScratchPool) -> Bytes {
    let mut buf = pool.take_buf(xs.len() * 4);
    buf.resize(xs.len() * 4, 0);
    for (dst, x) in buf.chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Reads little-endian `f32`s from `b` over `out`, the inverse of
/// [`f32s_to_bytes`].
///
/// # Errors
///
/// Unless `b` is exactly four bytes per element.
pub(crate) fn read_f32s_le(b: &[u8], out: &mut [f32]) -> Result<(), PayloadError> {
    exact_len(b, out.len() * 4)?;
    for (o, c) in out.iter_mut().zip(b.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_bytes_roundtrip() {
        let xs = [1.0f32, -2.5, 3.25e-8, f32::MAX];
        let b = f32s_to_bytes(&xs, &ScratchPool::new());
        let mut back = [0.0f32; 4];
        assert_eq!(read_f32s_le(&b, &mut back), Ok(()));
        assert_eq!(back, xs);
        assert_eq!(read_f32s_le(&b[1..], &mut back), Err(PayloadError::Short));
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
            Box::new(fake::FakeCompressor::new(1.0)),
        ];
        let (pool, mut rng) = (ScratchPool::new(), Rng::seed_from_u64(3));
        let mut lossless = Vec::new();
        for mut c in candidates.into_iter().filter(|c| c.is_lossless()) {
            for round in 0..2 {
                let enc = c.compress_slice_at(8, &input, &mut rng, &pool);
                let mut out = vec![7.0f32; input.len()];
                c.decompress_into(&enc, &mut out).unwrap();
                for (i, (a, b)) in input.iter().zip(&out).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} round {round} [{i}]", c.name());
                }
            }
            lossless.push(c.name());
        }
        assert_eq!(lossless, ["none(fp32)"]);
    }

    /// A fresh codec of every kind an allreduce can hand a chunk to:
    /// every [`CompressionScheme`], error feedback over FP32, and QSGD at
    /// both norms, every width and bucket sizes whole in bytes or not.
    fn every_codec() -> Vec<Box<dyn Fn() -> Box<dyn Compressor>>> {
        let schemes = [
            CompressionScheme::None,
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::Nuqsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::TopK { ratio: 0.25 },
            CompressionScheme::PowerSgd { rank: 2 },
            CompressionScheme::OneBit { bucket_size: 64 },
            CompressionScheme::Fake { gamma: 4.0 },
        ];
        let mut codecs: Vec<Box<dyn Fn() -> Box<dyn Compressor>>> = Vec::new();
        for scheme in schemes {
            codecs.push(Box::new(move || scheme.build()));
        }
        codecs.push(Box::new(|| {
            Box::new(ErrorFeedback::new(Box::new(NoneCompressor::new())))
        }));
        for norm in [NormKind::L2, NormKind::Max] {
            for bits in 2..=8 {
                for bucket_size in [10, 63, 64, 128, 512] {
                    codecs.push(Box::new(move || {
                        Box::new(QsgdCompressor::with_norm(bits, bucket_size, norm))
                    }));
                }
            }
        }
        codecs
    }

    /// `n` elements: ordinary values, the first 120 with ±0, ±∞, NaN and
    /// subnormals among them, and two all-zero stretches that hold whole
    /// buckets of every size up to 512.
    fn committed_input(n: usize, rng: &mut Rng) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            1.0e-39,
        ];
        (0..n)
            .map(|i| match i {
                256..512 | 1024..1536 => 0.0,
                0..120 if i % 7 == 3 => specials[i / 7 % specials.len()],
                _ => rng.normal() as f32,
            })
            .collect()
    }

    #[test]
    fn compress_committed_matches_compress_then_decompress() {
        // What a commit leaves in `data` is what a receiver decodes from
        // the chunk it returns, to the bit, with the payload and the
        // draws of `compress_slice_at`: one codec takes the two calls,
        // an identical one the commit, two rounds each so that stateful
        // codecs (residuals, warm starts) are compared on their second.
        let pool = ScratchPool::new();
        let bits_of = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for build in every_codec() {
            for n in [1usize, 7, 127, 128, 129, 1000, 32773] {
                let (mut plain, mut committing) = (build(), build());
                let what = format!("{} n={n}", plain.name());
                let data = committed_input(n, &mut Rng::seed_from_u64(n as u64));
                let (mut rng_a, mut rng_b) = (Rng::seed_from_u64(7), Rng::seed_from_u64(7));
                for round in 0..2 {
                    let enc = plain.compress_slice_at(8, &data, &mut rng_a, &pool);
                    let mut decoded = vec![7.0f32; n];
                    plain.decompress_into(&enc, &mut decoded).unwrap();
                    let mut kept = data.clone();
                    let committed =
                        committing.compress_committed_at(8, &mut kept, &mut rng_b, &pool);
                    assert_eq!(enc.payload(), committed.payload(), "{what} round {round}");
                    assert_eq!(bits_of(&kept), bits_of(&decoded), "{what} round {round}");
                    assert_eq!(rng_a.clone().next_u64(), rng_b.clone().next_u64(), "{what}");
                }
            }
        }
    }

    #[test]
    fn every_decoder_refuses_or_decodes() {
        // The decoder is a receiver's one check. Every payload a codec
        // writes, through every compress entry point, decodes through
        // every decompress entry point, and one a byte longer is refused;
        // random bytes, of the honest length or of any, decode or are
        // refused, and never panic. No payload exceeds `compressed_bytes`
        // but PowerSGD's, whose length is its matrix's, which `n` alone
        // does not give; only QSGD writes less (its buckets of zeros).
        let (pool, mut rng) = (ScratchPool::new(), Rng::seed_from_u64(5));
        let mut shorter = Vec::new();
        for build in every_codec() {
            let mut c = build();
            for n in [1usize, 7, 127, 128, 129, 1000, 4099] {
                let data = committed_input(n, &mut rng);
                let encs = [
                    c.compress(&Tensor::from_slice(&data), &mut rng),
                    c.compress_slice_at(3, &data, &mut rng, &pool),
                    c.compress_committed_at(3, &mut data.clone(), &mut rng, &pool),
                ];
                for (enc, call) in encs.iter().zip(["compress", "slice_at", "committed_at"]) {
                    let what = format!("{} n={n}: {call}", c.name());
                    let mut out = vec![0.5f32; n];
                    assert!(c.decompress(enc).is_ok(), "{what}");
                    assert_eq!(c.decompress_into(enc, &mut out), Ok(()), "{what}");
                    assert_eq!(c.decompress_add_into(enc, &mut out), Ok(()), "{what}");
                    let extended = [enc.payload().as_ref(), &[0]].concat();
                    let extended = Encoded::new(enc.shape().clone(), extended.into());
                    assert!(c.decompress(&extended).is_err(), "{what}: extended");
                    let len = enc.payload_bytes();
                    if c.name().starts_with("powersgd") {
                        continue;
                    }
                    assert!(len <= c.compressed_bytes(n), "{what}");
                    if len < c.compressed_bytes(n) && !shorter.contains(&c.name()) {
                        shorter.push(c.name());
                    }
                }
                let honest = encs[0].payload_bytes();
                let mut random_len = || rng.index(2 * honest + 16);
                for len in [honest, honest, random_len(), random_len()] {
                    let payload: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                    let enc = Encoded::new(Shape::vector(n), payload.into());
                    for add in [false, true] {
                        let mut out = vec![0.5f32; n];
                        let decode = || c.decode(&enc, &mut out, add).is_ok();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode));
                        let what = format!("{} n={n}: {len} random bytes, add={add}", c.name());
                        assert!(outcome.is_ok(), "{what}: panicked");
                    }
                }
            }
        }
        assert!(
            shorter.iter().all(|name| name.starts_with("qsgd")),
            "{shorter:?}"
        );
        assert_eq!(shorter.len(), 2 * 7 * 5, "every QSGD layout skips a bucket");
    }

    #[test]
    fn extent_is_what_encode_wrote() {
        // A packed frame is split by each codec's extent. For every scheme
        // a layer can be given, on inputs with NaNs, ±∞ and whole buckets
        // of zeros, the extent of a payload with junk after it is the
        // payload's length; one byte short, the extent runs past the
        // bytes. PowerSGD alone states none, for any bytes.
        let schemes = [
            CompressionScheme::None,
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 64,
            },
            CompressionScheme::Qsgd {
                bits: 3,
                bucket_size: 63,
            },
            CompressionScheme::Qsgd {
                bits: 8,
                bucket_size: 10,
            },
            CompressionScheme::Nuqsgd {
                bits: 4,
                bucket_size: 128,
            },
            CompressionScheme::TopK { ratio: 0.25 },
            CompressionScheme::PowerSgd { rank: 2 },
            CompressionScheme::OneBit { bucket_size: 64 },
            CompressionScheme::Fake { gamma: 4.0 },
        ];
        let pool = ScratchPool::new();
        cgx_testkit::cases(48, |rng| {
            let n = 1 + rng.index(3000);
            let mut data = committed_input(n, rng);
            if rng.index(2) == 0 {
                data.fill(0.0);
            }
            let junk: Vec<u8> = (0..rng.index(40)).map(|_| rng.next_u32() as u8).collect();
            for scheme in schemes {
                let mut c = scheme.build();
                let enc = c.compress_slice_at(0, &data, rng, &pool);
                let framed = [enc.payload().as_ref(), &junk].concat();
                let what = format!("{} n={n} junk={}", c.name(), junk.len());
                let Some(extent) = c.extent(n, &framed) else {
                    assert!(
                        matches!(scheme, CompressionScheme::PowerSgd { .. }),
                        "{what}"
                    );
                    assert_eq!(c.extent(n, &[]), None, "{what}");
                    continue;
                };
                assert_eq!(extent, enc.payload_bytes(), "{what}");
                let short = &framed[..extent - 1];
                assert!(
                    c.extent(n, short).is_some_and(|e| e > short.len()),
                    "{what}"
                );
            }
        });
    }

    #[test]
    fn encoded_accessors() {
        let e = Encoded::new(Shape::vector(3), Bytes::copy_from_slice(&[1, 2]));
        assert_eq!(e.shape().len(), 3);
        assert_eq!(e.payload_bytes(), 2);
        assert_eq!(e.payload().as_ref(), &[1, 2]);
    }
}
