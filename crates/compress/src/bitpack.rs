//! Bit-level packing for quantized payloads.
//!
//! QSGD with `b` bits per component must ship exactly `b` bits per component
//! (plus per-bucket norms) — shipping whole bytes would forfeit most of the
//! compression for `b < 8`. [`BitWriter`] and [`BitReader`] provide an
//! LSB-first bit stream over a byte buffer.
//!
//! # Word-wide fast path
//!
//! The general writer/reader move one element at a time and flush byte by
//! byte — correct for any width 1..=32, but far from "line rate" (paper
//! Appendix A). For any width dividing 64 — what NUQSGD and OneBit write
//! at 1, 2, 4 and 8 bits, and the readers read there; QSGD's walk packs
//! its own payload, at every width, in `simd.rs` — [`pack_fixed`] and
//! [`unpack_fixed_with`] process
//! a whole `u64` word per iteration. Because the stream is LSB-first and
//! words are emitted little-endian, the fast path is **bit-identical** to
//! the scalar path; [`BitWriter::write_run`] and [`BitReader::read_run`]
//! dispatch between them automatically based on width and alignment.

use crate::PayloadError;
use cgx_tensor::Bytes;

/// Whether `width` is handled by the word-wide kernels ([`pack_fixed`] /
/// [`unpack_fixed_with`]): a whole number of values must fit in a `u64`.
#[inline]
pub(crate) fn is_word_packable(width: u32) -> bool {
    matches!(width, 1 | 2 | 4 | 8 | 16 | 32)
}

/// Appends `values` (each `width` bits, LSB-first) to `out`, packing one
/// `u64` word at a time. Produces exactly the bytes `BitWriter::write_bits`
/// would, provided the stream is byte-aligned at entry.
///
/// # Panics
///
/// Panics if `width` is not word-packable. Debug builds also check that
/// every value fits in `width` bits.
pub(crate) fn pack_fixed(values: &[u32], width: u32, out: &mut Vec<u8>) {
    assert!(is_word_packable(width), "width {width} not word-packable");
    let per_word = (64 / width) as usize;
    out.reserve((values.len() * width as usize).div_ceil(8));
    let mut chunks = values.chunks_exact(per_word);
    for chunk in &mut chunks {
        let mut acc = 0u64;
        let mut shift = 0u32;
        for &v in chunk {
            debug_assert!(
                width == 32 || v < (1u32 << width),
                "value {v} does not fit in {width} bits"
            );
            acc |= (v as u64) << shift;
            shift += width;
        }
        out.extend_from_slice(&acc.to_le_bytes());
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut acc = 0u64;
        let mut shift = 0u32;
        for &v in rem {
            debug_assert!(
                width == 32 || v < (1u32 << width),
                "value {v} does not fit in {width} bits"
            );
            acc |= (v as u64) << shift;
            shift += width;
        }
        let nbytes = (rem.len() * width as usize).div_ceil(8);
        out.extend_from_slice(&acc.to_le_bytes()[..nbytes]);
    }
}

/// Decodes `count` values of `width` bits from `bytes` (LSB-first, starting
/// byte-aligned), invoking `f` once per value in stream order. Reads whole
/// `u64` words where possible; bit-identical to `BitReader::read_bits`.
///
/// # Panics
///
/// Panics if `width` is not word-packable or `bytes` is too short.
#[inline]
pub(crate) fn unpack_fixed_with(bytes: &[u8], width: u32, count: usize, mut f: impl FnMut(u32)) {
    assert!(is_word_packable(width), "width {width} not word-packable");
    let needed = (count * width as usize).div_ceil(8);
    assert!(bytes.len() >= needed, "bit stream exhausted");
    let per_word = (64 / width) as usize;
    let mask = if width == 32 {
        u32::MAX as u64
    } else {
        (1u64 << width) - 1
    };
    let mut remaining = count;
    let mut chunks = bytes[..needed].chunks_exact(8);
    for word in &mut chunks {
        let mut acc = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let take = per_word.min(remaining);
        for _ in 0..take {
            f((acc & mask) as u32);
            acc >>= width;
        }
        remaining -= take;
    }
    if remaining > 0 {
        let mut acc = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            acc |= (b as u64) << (8 * i as u32);
        }
        for _ in 0..remaining {
            f((acc & mask) as u32);
            acc >>= width;
        }
    }
}

/// Appends values of arbitrary bit width (1..=32) to a byte buffer.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated but not yet flushed to `buf`.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 between calls).
    acc_bits: u32,
}

impl BitWriter {
    /// Creates a writer over a caller-provided buffer (e.g. one recycled
    /// through a [`ScratchPool`](crate::ScratchPool)), clearing any
    /// previous contents but keeping the allocation.
    pub(crate) fn from_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            buf,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 32, or if `value` has bits set above
    /// `width`.
    #[inline]
    pub(crate) fn write_bits(&mut self, value: u32, width: u32) {
        assert!((1..=32).contains(&width), "invalid width {width}");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value} does not fit in {width} bits"
        );
        self.acc |= (value as u64) << self.acc_bits;
        self.acc_bits += width;
        while self.acc_bits >= 8 {
            self.buf.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.acc_bits -= 8;
        }
    }

    /// Appends a run of equal-width values, using the word-wide
    /// [`pack_fixed`] kernel when the stream is byte-aligned, the width is
    /// word-packable, and the run covers whole bytes (a partial trailing
    /// byte must stay in the accumulator for the *next* write, which the
    /// fixed kernel cannot do). Falls back to [`BitWriter::write_bits`]
    /// otherwise. The payload is bit-identical either way.
    pub(crate) fn write_run(&mut self, values: &[u32], width: u32) {
        let run_bits = values.len() * width as usize;
        if self.acc_bits == 0 && is_word_packable(width) && run_bits.is_multiple_of(8) {
            pack_fixed(values, width, &mut self.buf);
        } else {
            for &v in values {
                self.write_bits(v, width);
            }
        }
    }

    /// Appends a full `f32` (bit pattern, byte-aligned within the stream's
    /// bit order).
    pub(crate) fn write_f32(&mut self, value: f32) {
        self.write_bits(value.to_bits(), 32);
    }

    /// Appends a `u32`.
    pub(crate) fn write_u32(&mut self, value: u32) {
        self.write_bits(value, 32);
    }

    /// Number of complete bytes the stream would occupy if finished now.
    pub(crate) fn byte_len(&self) -> usize {
        self.buf.len() + self.acc_bits.div_ceil(8) as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the payload.
    /// The result's length always equals [`BitWriter::byte_len`].
    pub fn finish(mut self) -> Bytes {
        // write_bits flushes whole bytes eagerly, so at most one partial
        // byte (< 8 bits) can remain — exactly what byte_len() accounts for.
        debug_assert!(self.acc_bits < 8, "unflushed whole byte in accumulator");
        let expected = self.byte_len();
        if self.acc_bits > 0 {
            self.buf.push((self.acc & 0xFF) as u8);
        }
        debug_assert_eq!(self.buf.len(), expected, "finish/byte_len asymmetry");
        Bytes::from(self.buf)
    }
}

/// Reads values of arbitrary bit width from a payload written by
/// [`BitWriter`]. A read that the payload cannot satisfy is a
/// [`PayloadError`], not a panic: the bytes are a receiver's, off a
/// socket.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    acc_bits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// `Ok` if `bits` more bits are left to read.
    #[inline]
    fn fits(&self, bits: usize) -> Result<(), PayloadError> {
        let left = (self.bytes.len() - self.pos) * 8 + self.acc_bits as usize;
        match bits <= left {
            true => Ok(()),
            false => Err(PayloadError::Short),
        }
    }

    /// The next `width` (at most 32) bits, which [`BitReader::fits`] has
    /// found left.
    #[inline]
    fn take(&mut self, width: u32) -> u32 {
        while self.acc_bits < width {
            self.acc |= (self.bytes[self.pos] as u64) << self.acc_bits;
            self.pos += 1;
            self.acc_bits += 8;
        }
        let value = (self.acc & (u32::MAX as u64 >> (32 - width))) as u32;
        self.acc >>= width;
        self.acc_bits -= width;
        value
    }

    /// Reads `width` bits; a width above 32 reads 32.
    ///
    /// # Errors
    ///
    /// [`PayloadError::Short`] if fewer bits are left.
    #[inline]
    pub(crate) fn read_bits(&mut self, width: u32) -> Result<u32, PayloadError> {
        let width = width.min(32);
        self.fits(width as usize)?;
        Ok(self.take(width))
    }

    /// Reads a run of `count` equal-width values, invoking `f` once per
    /// value in stream order. The run is checked to fit once, before any
    /// value is read. Dispatches to the word-wide [`unpack_fixed_with`]
    /// kernel when the reader is byte-aligned, the width is word-packable,
    /// and the run covers whole bytes; reads value by value otherwise.
    /// Decoded values are identical either way.
    ///
    /// # Errors
    ///
    /// [`PayloadError::Short`], with `f` never called, if the run does
    /// not fit in what is left.
    #[inline]
    pub(crate) fn read_run(
        &mut self,
        width: u32,
        count: usize,
        mut f: impl FnMut(u32),
    ) -> Result<(), PayloadError> {
        let width = width.min(32);
        let run_bits = count.saturating_mul(width as usize);
        self.fits(run_bits)?;
        if self.acc_bits == 0 && is_word_packable(width) && run_bits.is_multiple_of(8) {
            unpack_fixed_with(&self.bytes[self.pos..], width, count, f);
            self.pos += run_bits / 8;
        } else {
            for _ in 0..count {
                f(self.take(width));
            }
        }
        Ok(())
    }

    /// Reads an `f32` bit pattern: [`BitReader::read_bits`]`(32)`.
    pub(crate) fn read_f32(&mut self) -> Result<f32, PayloadError> {
        self.read_bits(32).map(f32::from_bits)
    }

    /// Reads a `u32`: [`BitReader::read_bits`]`(32)`.
    pub(crate) fn read_u32(&mut self) -> Result<u32, PayloadError> {
        self.read_bits(32)
    }

    /// Ends a decode: `Ok` if the reader has reached the payload's last
    /// byte, whose bits past the last read are padding.
    ///
    /// # Errors
    ///
    /// [`PayloadError::Trailing`] if whole bytes are left unread.
    pub fn finish(self) -> Result<(), PayloadError> {
        match self.pos == self.bytes.len() {
            true => Ok(()),
            false => Err(PayloadError::Trailing),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::Rng;
    use cgx_testkit::cases;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::default();
        w.write_bits(0b101, 3);
        w.write_bits(0b1, 1);
        w.write_bits(0xABCD, 16);
        w.write_bits(7, 5);
        let b = w.finish();
        let mut r = BitReader::new(&b);
        assert_eq!(r.read_bits(3), Ok(0b101));
        assert_eq!(r.read_bits(1), Ok(0b1));
        assert_eq!(r.read_bits(16), Ok(0xABCD));
        assert_eq!(r.read_bits(5), Ok(7));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn byte_len_counts_partial_bytes() {
        let mut w = BitWriter::default();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0x7F, 7);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn finish_len_equals_byte_len_for_every_partial_state() {
        // 0..8 leftover bits beyond a byte boundary: every partial-byte
        // state the accumulator can be in.
        for extra_bits in 0..8u32 {
            let mut w = BitWriter::default();
            w.write_bits(0xA5, 8);
            for _ in 0..extra_bits {
                w.write_bits(1, 1);
            }
            let predicted = w.byte_len();
            let payload = w.finish();
            assert_eq!(payload.len(), predicted, "extra_bits={extra_bits}");
        }
        // And the empty writer.
        let w = BitWriter::default();
        assert_eq!(w.byte_len(), 0);
        assert_eq!(w.finish().len(), 0);
    }

    #[test]
    fn f32_special_values_roundtrip() {
        let vals = [0.0f32, -0.0, 1.5, f32::INFINITY, f32::MIN_POSITIVE];
        let mut w = BitWriter::default();
        // Offset by 3 bits so floats straddle byte boundaries.
        w.write_bits(5, 3);
        for v in vals {
            w.write_f32(v);
        }
        let b = w.finish();
        let mut r = BitReader::new(&b);
        assert_eq!(r.read_bits(3), Ok(5));
        for v in vals {
            assert_eq!(r.read_f32().map(f32::to_bits), Ok(v.to_bits()));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::default().write_bits(8, 3);
    }

    #[test]
    fn reading_past_end_is_an_error() {
        let b = BitWriter::default().finish();
        assert_eq!(BitReader::new(&b).read_bits(1), Err(PayloadError::Short));
        // A run that does not fit calls nothing, and the reader keeps its
        // place; bytes left unread make the payload too long.
        let b = [0xA5u8, 0x0F];
        let mut r = BitReader::new(&b);
        assert_eq!(
            r.read_run(4, 5, |_| panic!("read")),
            Err(PayloadError::Short)
        );
        assert_eq!(r.read_bits(4), Ok(5));
        assert_eq!(r.finish(), Err(PayloadError::Trailing));
    }

    #[test]
    fn random_sequences_roundtrip() {
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..50 {
            let items: Vec<(u32, u32)> = (0..200)
                .map(|_| {
                    let width = 1 + rng.index(32) as u32;
                    let value = if width == 32 {
                        rng.next_u32()
                    } else {
                        rng.next_u32() & ((1 << width) - 1)
                    };
                    (value, width)
                })
                .collect();
            let mut w = BitWriter::default();
            for (v, wd) in &items {
                w.write_bits(*v, *wd);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (v, wd) in &items {
                assert_eq!(r.read_bits(*wd), Ok(*v));
            }
            assert_eq!(r.finish(), Ok(()));
        }
    }

    fn random_values(rng: &mut Rng, width: u32, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| {
                if width == 32 {
                    rng.next_u32()
                } else {
                    rng.next_u32() & ((1 << width) - 1)
                }
            })
            .collect()
    }

    #[test]
    fn pack_fixed_is_bit_identical_to_bitwriter() {
        let mut rng = Rng::seed_from_u64(7);
        for width in [1u32, 2, 4, 8, 16, 32] {
            for n in [0usize, 1, 3, 15, 16, 17, 63, 64, 65, 1000] {
                let values = random_values(&mut rng, width, n);
                let mut scalar = BitWriter::default();
                for &v in &values {
                    scalar.write_bits(v, width);
                }
                let mut packed = Vec::new();
                pack_fixed(&values, width, &mut packed);
                assert_eq!(Bytes::from(packed), scalar.finish(), "width={width} n={n}");
            }
        }
    }

    #[test]
    fn unpack_fixed_with_roundtrips_pack_fixed() {
        let mut rng = Rng::seed_from_u64(11);
        for width in [1u32, 2, 4, 8, 16, 32] {
            for n in [0usize, 1, 5, 64, 129, 777] {
                let values = random_values(&mut rng, width, n);
                let mut packed = Vec::new();
                pack_fixed(&values, width, &mut packed);
                let mut back = Vec::with_capacity(n);
                unpack_fixed_with(&packed, width, n, |v| back.push(v));
                assert_eq!(back, values, "width={width} n={n}");
            }
        }
    }

    #[test]
    fn write_run_falls_back_when_misaligned() {
        // A 3-bit prefix leaves the stream misaligned; write_run must still
        // produce the same payload as scalar writes.
        let mut rng = Rng::seed_from_u64(13);
        for width in [2u32, 4, 8] {
            let values = random_values(&mut rng, width, 37);
            let mut a = BitWriter::default();
            a.write_bits(5, 3);
            a.write_run(&values, width);
            let mut b = BitWriter::default();
            b.write_bits(5, 3);
            for &v in &values {
                b.write_bits(v, width);
            }
            assert_eq!(a.finish(), b.finish(), "width={width}");
        }
    }

    #[test]
    fn read_run_matches_scalar_reads_with_trailing_data() {
        // A run followed by more data: read_run must leave the reader
        // positioned exactly where scalar reads would.
        let mut rng = Rng::seed_from_u64(17);
        for width in [1u32, 2, 4, 8] {
            for n in [8usize, 16, 24, 120] {
                let values = random_values(&mut rng, width, n);
                let mut w = BitWriter::default();
                w.write_run(&values, width);
                w.write_f32(1.25);
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                let mut got = Vec::with_capacity(n);
                assert_eq!(r.read_run(width, n, |v| got.push(v)), Ok(()));
                assert_eq!(got, values, "width={width} n={n}");
                assert_eq!(r.read_f32(), Ok(1.25));
                assert_eq!(r.finish(), Ok(()));
            }
        }
    }

    #[test]
    fn write_run_partial_byte_run_carries_bits_into_next_write() {
        // 3 values of 2 bits leave 6 bits in the accumulator; the next
        // write must share that byte, exactly as scalar writes would.
        let mut a = BitWriter::default();
        a.write_run(&[1, 2, 3], 2);
        a.write_f32(0.5);
        let mut b = BitWriter::default();
        for v in [1u32, 2, 3] {
            b.write_bits(v, 2);
        }
        b.write_f32(0.5);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn read_run_partial_byte_run_falls_back() {
        // 3 values of 2 bits = 6 bits: not a whole number of bytes, so the
        // fast path is skipped, but results must be identical.
        let mut w = BitWriter::default();
        for v in [1u32, 2, 3] {
            w.write_bits(v, 2);
        }
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut got = Vec::new();
        assert_eq!(r.read_run(2, 3, |v| got.push(v)), Ok(()));
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(r.read_bits(2), Ok(0b11));
    }

    #[test]
    #[should_panic(expected = "not word-packable")]
    fn pack_fixed_rejects_odd_width() {
        pack_fixed(&[1, 2], 3, &mut Vec::new());
    }

    /// Up to `max_len` values that fit `width` bits, as the kernels require.
    fn masked_values(rng: &mut Rng, width: u32, max_len: usize) -> Vec<u32> {
        let mask = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        (0..rng.range(0..max_len))
            .map(|_| rng.next_u32() & mask)
            .collect()
    }

    #[test]
    fn run_writes_match_scalar_writes_for_all_widths() {
        cases(64, |rng| {
            // write_run (which internally dispatches to pack_fixed when the
            // alignment conditions hold) must always produce the same stream as
            // element-at-a-time write_bits, for every width — not just the
            // word-packable ones.
            let width = rng.range(1..=32) as u32;
            let values = masked_values(rng, width, 600);

            let mut scalar = BitWriter::default();
            for &v in &values {
                scalar.write_bits(v, width);
            }
            // Trailing f32 exercises the post-run partial-byte state.
            scalar.write_f32(1.5);
            let scalar_bytes = scalar.finish();

            let mut run = BitWriter::default();
            run.write_run(&values, width);
            run.write_f32(1.5);
            let run_bytes = run.finish();
            assert_eq!(&scalar_bytes[..], &run_bytes[..]);

            // And read_run recovers the exact values plus the trailer.
            let mut r = BitReader::new(&run_bytes);
            let mut got = Vec::with_capacity(values.len());
            assert_eq!(r.read_run(width, values.len(), |v| got.push(v)), Ok(()));
            assert_eq!(got, values);
            assert_eq!(r.read_f32(), Ok(1.5));
            assert_eq!(r.finish(), Ok(()));
        });
    }

    #[test]
    fn pack_fixed_roundtrips_and_matches_bitwriter() {
        cases(64, |rng| {
            let width = [1u32, 2, 4, 8, 16, 32][rng.index(6)];
            assert!(is_word_packable(width));
            let values = masked_values(rng, width.min(8), 600);

            let mut packed = Vec::new();
            pack_fixed(&values, width, &mut packed);

            let mut w = BitWriter::default();
            for &v in &values {
                w.write_bits(v, width);
            }
            let scalar = w.finish();
            // pack_fixed zero-pads the final partial byte exactly like finish().
            assert_eq!(&packed[..], &scalar[..]);

            let mut back = Vec::with_capacity(values.len());
            let mut r = BitReader::new(&packed);
            assert_eq!(r.read_run(width, values.len(), |v| back.push(v)), Ok(()));
            assert_eq!(back, values);
        });
    }
}
