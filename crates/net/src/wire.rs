//! The TCP wire format: every byte a mesh socket carries.
//!
//! One frame per tagged message:
//!
//! ```text
//! [len: u32 LE]                      length of everything after this field
//! [tag: u64 LE]                      demux tag (collective lane / control)
//! [ndims: u8][dims: u32 LE x ndims]  tensor geometry of the payload
//! [magic: u16 LE][seq: u32 LE]       the envelope: FRAME_MAGIC, link seq,
//! [checksum: u32 LE]                 and the checksum of what follows
//! [payload]
//! ```
//!
//! Every frame is written as `append_frame_header` plus the payload and
//! read by `parse_frame`, which copies the payload out of the staging
//! ring and verifies the checksum in the copying pass. TCP already
//! guarantees ordered reliable delivery; the checksum is the end-to-end
//! integrity check (paper: datacenter links do corrupt). It is an
//! FNV-style multiply-xor over `(tag, seq, len, payload)`, so it binds the
//! payload to its lane: a frame replayed under a different tag or sequence
//! number fails verification, and any single-bit corruption of the body is
//! caught. The sequence number counts frames per (sender, receiver) pair
//! across every tag: the cheap assertion that the demux never reorders a
//! link.
//!
//! # Control frames
//!
//! Bootstrap speaks frames on `CTRL_TAG` at seq 0 whose payload is an op
//! byte and its fields: HELLO, ROSTER and PEER (see
//! [`rendezvous`](mod@crate::rendezvous)). `send_ctrl` writes one and
//! `recv_ctrl` reads one, never past its end and within one deadline.
//!
//! # Multi-tenant tags
//!
//! Under a `cgx-serve` daemon the tag field's top byte is a job
//! namespace: `[job:8][op:24][segment:16][phase:8][epoch:8]` (see
//! [`cgx_collectives::namespace_tag`]). Namespace 0x00 is single-job
//! traffic — bit-identical to the historical layout, since collective
//! ids stay below `cgx_collectives::MAX_NAMESPACED_OP` — so the frame
//! format itself is unchanged; only the tag's interpretation widens.

use crate::boot_err;
use cgx_collectives::transport::{Tag, CTRL_TAG};
use cgx_collectives::CommError;
use cgx_compress::Encoded;
use cgx_tensor::Shape;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Hard cap on a frame's post-length size: a parter that hands us garbage
/// for a length must not look like a 4 GiB allocation request.
pub(crate) const MAX_FRAME_BYTES: usize = 1 << 30;

/// Maximum tensor rank encodable in the geometry header.
pub(crate) const MAX_DIMS: usize = 255;

/// Envelope header: `[magic:u16][seq:u32][checksum:u32]`, little-endian.
pub const HEADER_LEN: usize = 10;

/// Sentinel distinguishing framed traffic from raw payloads.
const FRAME_MAGIC: u16 = 0xC6FA;

/// A decoded inbound frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Demux tag.
    pub tag: Tag,
    /// Link sequence number (per sender, across tags), verified by the
    /// checksum.
    pub seq: u32,
    /// Payload with its tensor geometry.
    pub enc: Encoded,
}

/// Serialized size of a frame carrying `payload_len` payload bytes with
/// `ndims` dimensions — the number that goes over the wire, used by the
/// transport's byte accounting.
pub(crate) fn frame_wire_bytes(ndims: usize, payload_len: usize) -> usize {
    4 + 8 + 1 + 4 * ndims + HEADER_LEN + payload_len
}

/// Serializes everything that precedes the payload — length prefix, tag,
/// geometry, and the envelope — into `dst`, returning the number of
/// header bytes appended. The payload itself is *not* copied: the
/// zero-copy send path hands `(header, payload)` to a vectored socket
/// write, so the payload's only copy is the kernel's.
///
/// # Panics
///
/// Panics if the shape has more than [`MAX_DIMS`] dimensions (no real
/// tensor comes close).
pub(crate) fn append_frame_header(
    dst: &mut Vec<u8>,
    tag: Tag,
    seq: u32,
    shape: &Shape,
    payload: &[u8],
) -> usize {
    let dims = shape.dims();
    assert!(
        dims.len() <= MAX_DIMS,
        "tensor rank {} too large",
        dims.len()
    );
    let before = dst.len();
    let after_len = frame_wire_bytes(dims.len(), payload.len()) - 4;
    dst.extend_from_slice(&(after_len as u32).to_le_bytes());
    dst.extend_from_slice(&tag.to_le_bytes());
    dst.push(dims.len() as u8);
    for &d in dims {
        dst.extend_from_slice(&(d as u32).to_le_bytes());
    }
    append_header(dst, tag, seq, payload);
    dst.len() - before
}

/// Decodes the tag and geometry after the length prefix, returning them
/// and where the envelope starts in `frame`. A geometry that `Shape`
/// cannot hold — a zero dimension, or an element count past `usize` — is
/// refused before a `Shape` is built.
fn decode_header(frame: &[u8]) -> io::Result<(Tag, Shape, usize)> {
    let invalid = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidData, why.to_string()));
    let tag = Tag::from_le_bytes(frame[0..8].try_into().expect("8 bytes"));
    let geom_end = 9 + 4 * frame[8] as usize;
    if frame.len() < geom_end + HEADER_LEN {
        return invalid("frame shorter than its declared geometry");
    }
    let dims: Vec<usize> = frame[9..geom_end]
        .chunks_exact(4)
        .map(|d| u32::from_le_bytes([d[0], d[1], d[2], d[3]]) as usize)
        .collect();
    let count = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d).filter(|_| d > 0));
    if count.is_none() {
        return invalid("a zero dimension or an element count past usize");
    }
    Ok((tag, Shape::new(dims), geom_end))
}

/// Attempts to decode one frame from the *front* of `buf` without
/// consuming a reader: `Ok(None)` means the buffer does not yet hold a
/// complete frame (read more), `Ok(Some((frame, consumed)))` hands back
/// the decoded frame and how many bytes it occupied. The event loop's
/// staging buffers parse arrivals in place with this — the payload is
/// read exactly once, by `open_copy`, which copies it out of the
/// staging ring into its own allocation and verifies the copy in the
/// same pass.
///
/// # Errors
///
/// `InvalidData` for an implausible length, malformed geometry, or a
/// checksum mismatch.
pub(crate) fn parse_frame(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    // No frame is shorter than a tag, a dimension count and an envelope
    // header, and garbage must not look like a 4 GiB allocation request.
    if !(8 + 1 + HEADER_LEN..=MAX_FRAME_BYTES).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let frame = &buf[4..4 + len];
    let (tag, shape, envelope) = decode_header(frame)?;
    let (seq, payload) = open_copy(tag, &frame[envelope..])?;
    Ok(Some((
        Frame {
            tag,
            seq,
            enc: Encoded::new(shape, payload.into()),
        },
        4 + len,
    )))
}

/// Independent multiply-xor chains [`checksum`] runs side by side. One
/// chain retires a word per multiply *latency*; 32 are eight 4-lane AVX2
/// registers, enough to keep the vector multipliers busy every cycle.
const LANES: usize = 32;

/// Payload bytes one round of the lanes reads: a word per lane.
const BLOCK: usize = 8 * LANES;

/// Bytes [`open_copy`] copies before it folds them: a whole number of
/// blocks, small enough that the copy is still in L1 when the lanes read
/// it back.
const SUB_CHUNK: usize = 64 * BLOCK;

const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x0100_0000_01B3;

fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME)
}

/// The body that folds whole blocks into the lanes. Both compute the same
/// function; [`Body::detect`] is the one place this module asks the CPU
/// what it has, so holding [`Body::Avx2`] outside the tests is the proof
/// that the CPU can run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Body {
    /// The fastest body this CPU can run.
    fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Body::Avx2;
        }
        Body::Portable
    }
}

/// A [`checksum`] part way through its payload: the `(tag, seq, len)`
/// prefix and the lanes seeded from it.
struct Sum {
    body: Body,
    prefix: u64,
    lanes: [u64; LANES],
}

impl Sum {
    fn new(body: Body, tag: Tag, seq: u32, len: usize) -> Sum {
        let mut h = step(OFFSET, tag);
        h = step(h, u64::from(seq));
        h = step(h, len as u64);
        Sum {
            body,
            prefix: h,
            lanes: std::array::from_fn(|i| step(h, i as u64)),
        }
    }

    /// Folds `blocks`, a whole number of [`BLOCK`]s, into the lanes.
    fn blocks(&mut self, blocks: &[u8]) {
        debug_assert!(blocks.len().is_multiple_of(BLOCK));
        match self.body {
            Body::Portable => {
                for block in blocks.chunks_exact(BLOCK) {
                    for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                        *lane = step(*lane, u64::from_le_bytes(w.try_into().expect("8 bytes")));
                    }
                }
            }
            // SAFETY: `Body::detect` names AVX2 only on a CPU that has it.
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => unsafe { blocks_avx2(&mut self.lanes, blocks) },
        }
    }

    /// Deals the `tail` (under one block) onto the first lanes, the last
    /// word zero-padded, then chains the lanes into the prefix in order.
    fn finish(mut self, tail: &[u8]) -> u32 {
        for (lane, w) in self.lanes.iter_mut().zip(tail.chunks(8)) {
            let mut padded = [0u8; 8];
            padded[..w.len()].copy_from_slice(w);
            *lane = step(*lane, u64::from_le_bytes(padded));
        }
        let h = self.lanes.into_iter().fold(self.prefix, step);
        (h ^ (h >> 32)) as u32
    }
}

/// AVX2 body of [`Sum::blocks`]: lanes `4j..4j + 4` live in register `j`
/// and take bytes `32j..32j + 32` of every block. AVX2 has no 64-bit
/// multiply, but [`PRIME`] is `2^40 + 0x1B3`, so `x * PRIME` is
/// `lo(x)·0x1B3 + (hi(x)·0x1B3 + (x << 8)) << 32` with two 32×32→64-bit
/// `vpmuludq`s — the portable `wrapping_mul`, bit for bit.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocks_avx2(lanes: &mut [u64; LANES], blocks: &[u8]) {
    use std::arch::x86_64::*;
    let low = _mm256_set1_epi64x((PRIME & 0xFFFF_FFFF) as i64);
    let mut acc: [__m256i; LANES / 4] =
        std::array::from_fn(|j| _mm256_loadu_si256(lanes[4 * j..].as_ptr().cast()));
    for block in blocks.chunks_exact(BLOCK) {
        for (j, a) in acc.iter_mut().enumerate() {
            let x = _mm256_xor_si256(*a, _mm256_loadu_si256(block[32 * j..].as_ptr().cast()));
            let lo = _mm256_mul_epu32(x, low);
            let hi = _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), low);
            let top = _mm256_add_epi64(hi, _mm256_slli_epi64::<8>(x));
            *a = _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(top));
        }
    }
    for (j, a) in acc.iter().enumerate() {
        _mm256_storeu_si256(lanes[4 * j..].as_mut_ptr().cast(), *a);
    }
}

/// FNV-style multiply-xor checksum over the tag, the sequence number, the
/// payload length, and the payload, folded to 32 bits. The payload is
/// read as 64-bit words dealt round-robin onto `LANES` independent
/// chains (word `k` lands on lane `k % LANES`; the last word is
/// zero-padded), each seeded from the `(tag, seq, len)` prefix and its
/// lane index, and the lanes are then chained into the prefix in lane
/// order. It runs over every wire byte twice — once at send, once where
/// the receiver copies the body out (`open_copy`) — so on the hot path
/// its throughput matters, and it runs on the widest body the CPU has.
/// Every step is a bijection of the running value, so any single-bit flip
/// changes its lane and therefore the fold, and the bound length tells a
/// short tail from the same bytes sent as zeros. Cheap and
/// dependency-free.
pub fn checksum(tag: Tag, seq: u32, payload: &[u8]) -> u32 {
    checksum_on(Body::detect(), tag, seq, payload)
}

fn checksum_on(body: Body, tag: Tag, seq: u32, payload: &[u8]) -> u32 {
    let mut sum = Sum::new(body, tag, seq, payload.len());
    let (blocks, tail) = payload.split_at(payload.len() - payload.len() % BLOCK);
    sum.blocks(blocks);
    sum.finish(tail)
}

/// Appends only the [`HEADER_LEN`]-byte envelope header for `body` to
/// `dst`, without copying the body. The zero-copy wire path hands
/// `(header, body)` to a vectored write instead of materializing the
/// concatenation.
pub fn append_header(dst: &mut Vec<u8>, tag: Tag, seq: u32, body: &[u8]) {
    dst.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    dst.extend_from_slice(&seq.to_le_bytes());
    dst.extend_from_slice(&checksum(tag, seq, body).to_le_bytes());
}

/// Opens one envelope — at least [`HEADER_LEN`] bytes, which
/// [`decode_header`] has checked — into an allocation of its own:
/// `(seq, copy)` when it bears [`FRAME_MAGIC`] and its stated checksum
/// matches the body under `(tag, seq)`. A mismatch is *observed* (fatal
/// to the link or the boot, as the caller decides), never masked. The
/// copy and the verification are one pass over the wire bytes — each
/// [`SUB_CHUNK`] is copied, then the lanes fold the bytes just written
/// while they are still in L1. What is verified is the copy the caller
/// gets.
fn open_copy(tag: Tag, bytes: &[u8]) -> io::Result<(u32, Vec<u8>)> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let (seq, stated, body) = (word(2), word(6), &bytes[HEADER_LEN..]);
    let mut sum = Sum::new(Body::detect(), tag, seq, body.len());
    let mut copy = Vec::with_capacity(body.len());
    for part in body.chunks(SUB_CHUNK) {
        let at = copy.len();
        copy.extend_from_slice(part);
        sum.blocks(&copy[at..at + part.len() - part.len() % BLOCK]);
    }
    // Every part but the last is whole blocks, so the tail is the copy's.
    let tail = &copy[copy.len() - copy.len() % BLOCK..];
    if bytes[..2] != FRAME_MAGIC.to_le_bytes() || sum.finish(tail) != stated {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checksum/header mismatch on tag {tag:#x}"),
        ));
    }
    Ok((seq, copy))
}

/// The control ops, each the first byte of its body: a joining rank's
/// HELLO `{rank, world, node, listen address}`, the root's ROSTER `{world,
/// (node, address) per rank}`, and a meshing rank's PEER `{rank}`.
pub(crate) const MSG_HELLO: u8 = 0x01;
pub(crate) const MSG_ROSTER: u8 = 0x02;
pub(crate) const MSG_PEER: u8 = 0x03;

/// Cap on a control frame's length prefix: a ROSTER entry is a node id and
/// an address, tens of bytes, so this holds tens of thousands of ranks,
/// and a hostile prefix costs at most this much memory.
pub(crate) const MAX_CTRL_BYTES: usize = 1 << 20;

/// Writes one control frame carrying `body` (op byte first).
pub(crate) fn send_ctrl<W: Write>(w: &mut W, body: &[u8]) -> Result<(), CommError> {
    let mut frame = Vec::with_capacity(frame_wire_bytes(1, body.len()));
    append_frame_header(&mut frame, CTRL_TAG, 0, &Shape::new(vec![body.len()]), body);
    frame.extend_from_slice(body);
    w.write_all(&frame)
        .map_err(|e| boot_err(format!("control send failed: {e}")))
}

/// Reads one control frame whose op is `expect` and returns its body: the
/// length prefix, then exactly the bytes that prefix states (at most
/// [`MAX_CTRL_BYTES`]), through [`parse_frame`]. It never reads past the
/// frame, because the stream goes on as a mesh link. The whole read ends
/// by `deadline`: before each read the socket's timeout is set to the time
/// left, so a peer that drips bytes cannot stretch it.
pub(crate) fn recv_ctrl(
    stream: &TcpStream,
    expect: u8,
    what: &str,
    deadline: Instant,
) -> Result<Vec<u8>, CommError> {
    let mut buf = vec![0; 4];
    read_by(stream, &mut buf, deadline, what)?;
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_CTRL_BYTES {
        return Err(boot_err(format!(
            "{what} states {len} bytes, more than a control frame holds"
        )));
    }
    buf.resize(4 + len, 0);
    read_by(stream, &mut buf[4..], deadline, what)?;
    // The buffer holds the whole stated frame, so the parse never asks for
    // more.
    let (frame, _) = parse_frame(&buf)
        .and_then(|f| f.ok_or_else(|| io::ErrorKind::UnexpectedEof.into()))
        .map_err(|e| boot_err(format!("bad control frame for {what}: {e}")))?;
    if frame.tag != CTRL_TAG {
        return Err(boot_err(format!(
            "expected control frame ({what}), got tag {:#x}",
            frame.tag
        )));
    }
    let body = frame.enc.payload().to_vec();
    if body.first() != Some(&expect) {
        return Err(boot_err(format!(
            "expected {what} (op {expect:#x}), got op {:?}",
            body.first()
        )));
    }
    Ok(body)
}

/// Fills `buf` from `stream` by `deadline`.
fn read_by(
    mut stream: &TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
    what: &str,
) -> Result<(), CommError> {
    let failed = |e: io::Error| boot_err(format!("control recv failed while awaiting {what}: {e}"));
    while !buf.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(boot_err(format!("timed out awaiting {what}")));
        }
        stream.set_read_timeout(Some(left)).map_err(failed)?;
        match stream.read(buf) {
            Ok(0) => return Err(boot_err(format!("peer closed while awaiting {what}"))),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(failed(e)),
        }
    }
    Ok(())
}

/// Appends `s` to a control body, behind its `u16` length.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Reads the `u32` at `*at` of a control body and moves `at` past it.
pub(crate) fn get_u32(body: &[u8], at: &mut usize) -> Result<u32, CommError> {
    let end = *at + 4;
    let bytes = body
        .get(*at..end)
        .ok_or_else(|| boot_err("truncated control message"))?;
    *at = end;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Reads the string [`put_str`] wrote at `*at` and moves `at` past it.
pub(crate) fn get_str(body: &[u8], at: &mut usize) -> Result<String, CommError> {
    let len_bytes = body
        .get(*at..*at + 2)
        .ok_or_else(|| boot_err("truncated control message"))?;
    let len = u16::from_le_bytes(len_bytes.try_into().expect("2 bytes")) as usize;
    *at += 2;
    let s = body
        .get(*at..*at + len)
        .ok_or_else(|| boot_err("truncated control string"))?;
    *at += len;
    String::from_utf8(s.to_vec()).map_err(|_| boot_err("control string is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    /// Appends one frame to `buf`: its header, then the payload.
    fn push_frame(buf: &mut Vec<u8>, tag: Tag, seq: u32, dims: Vec<usize>, payload: &[u8]) {
        append_frame_header(buf, tag, seq, &Shape::new(dims), payload);
        buf.extend_from_slice(payload);
    }

    fn roundtrip(tag: Tag, seq: u32, dims: Vec<usize>, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        push_frame(&mut buf, tag, seq, dims, payload);
        let (frame, used) = parse_frame(&buf).expect("parse").expect("whole");
        assert_eq!(used, buf.len(), "trailing bytes");
        frame
    }

    #[test]
    fn frames_roundtrip_bytes_and_geometry() {
        let f = roundtrip(42, 7, vec![3, 4], &[1, 2, 3, 4, 5]);
        assert_eq!(f.tag, 42);
        assert_eq!(f.seq, 7);
        assert_eq!(f.enc.shape().dims(), &[3, 4]);
        assert_eq!(f.enc.payload().as_ref(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_payload_and_scalar_shape_roundtrip() {
        let f = roundtrip(Tag::MAX, 0, vec![], &[]);
        assert_eq!(f.enc.shape().dims(), &[] as &[usize]);
        assert!(f.enc.payload().is_empty());
    }

    #[test]
    fn wire_byte_accounting_matches_serialization() {
        let mut buf = Vec::new();
        let n = append_frame_header(&mut buf, 9, 1, &Shape::new(vec![2, 2]), &[0u8; 16]);
        assert_eq!(n, buf.len(), "the header length it reports");
        assert_eq!(n + 16, frame_wire_bytes(2, 16));
    }

    #[test]
    fn hostile_geometry_is_invalid_data() {
        // A frame whose one dimension is 0, and one whose dimensions
        // multiply past `usize`, each with a well-formed envelope after
        // them: the parse refuses the geometry instead of handing it to
        // `Shape`, whose constructor asserts and whose element count
        // overflows.
        let overflowing = vec![u32::MAX as usize; usize::BITS as usize / 32 + 1];
        for dims in [vec![0usize], vec![3, 0, 2], overflowing] {
            let mut frame = 7u64.to_le_bytes().to_vec();
            frame.push(dims.len() as u8);
            for d in &dims {
                frame.extend_from_slice(&(*d as u32).to_le_bytes());
            }
            append_header(&mut frame, 7, 0, &[]);
            let buf = [&(frame.len() as u32).to_le_bytes()[..], &frame].concat();
            let err = parse_frame(&buf).expect_err("parse");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{dims:?}");
        }
    }

    #[test]
    fn parse_frame_is_incremental_and_reports_consumed() {
        let mut buf = Vec::new();
        push_frame(&mut buf, 33, 2, vec![4], &[1, 2, 3, 4]);
        push_frame(&mut buf, 34, 0, vec![1], &[9]);
        // Every strict prefix of the first frame is "need more bytes".
        let first_len = buf.len() - frame_wire_bytes(1, 1);
        for cut in 0..first_len {
            assert!(
                parse_frame(&buf[..cut])
                    .expect("prefix parses clean")
                    .is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (f1, used1) = parse_frame(&buf).expect("parse").expect("complete");
        assert_eq!(used1, first_len);
        assert_eq!((f1.tag, f1.seq), (33, 2));
        assert_eq!(f1.enc.payload().as_ref(), &[1, 2, 3, 4]);
        let (f2, used2) = parse_frame(&buf[used1..])
            .expect("parse")
            .expect("complete");
        assert_eq!(used1 + used2, buf.len());
        assert_eq!((f2.tag, f2.seq), (34, 0));
    }

    #[test]
    fn parse_frame_rejects_corruption_in_place() {
        let mut buf = Vec::new();
        push_frame(&mut buf, 5, 3, vec![1], &[7, 7, 7, 7]);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = parse_frame(&buf).expect_err("corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let giant = (u32::MAX).to_le_bytes();
        let err = parse_frame(&giant).expect_err("giant length");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn one_flipped_bit_in_a_mebibyte_frame_fails_the_parse() {
        // The parse verifies while it copies, a sub-chunk at a time: a
        // flip in the first block, at a sub-chunk boundary and in the
        // last byte must each fail it, and the clean frame's payload is
        // the bytes sent.
        let payload: Vec<u8> = (0..1usize << 20)
            .map(|i| (i * 131 + i / 4093) as u8)
            .collect();
        let mut buf = Vec::new();
        push_frame(&mut buf, 0x77, 5, vec![1 << 18], &payload);
        let (frame, used) = parse_frame(&buf).expect("clean").expect("whole");
        assert_eq!(used, buf.len());
        assert_eq!(frame.enc.payload().as_ref(), payload.as_slice());
        let body = buf.len() - payload.len();
        for at in [
            body + 3,
            body + 16 * 1024,
            body + 16 * 1024 - 1,
            buf.len() - 1,
        ] {
            let mut flipped = buf.clone();
            flipped[at] ^= 0x10;
            let err = parse_frame(&flipped).expect_err("flipped");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}");
        }
    }

    /// The framed bytes for `body`: its header, then the body.
    fn framed(tag: Tag, seq: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
        append_header(&mut buf, tag, seq, body);
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn checksum_binds_tag_seq_and_body() {
        let body = [1u8, 2, 3];
        let sum = checksum(7, 1, &body);
        assert_ne!(checksum(8, 1, &body), sum, "tag not bound");
        assert_ne!(checksum(7, 2, &body), sum, "seq not bound");
        assert_ne!(checksum(7, 1, &[1, 2, 4]), sum, "body not bound");
    }

    /// Payload bytes that differ at every position and in every word (the
    /// `i / 256` term keeps one block's words from repeating the last's).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11 + i / 256) as u8).collect()
    }

    /// Payload lengths for the bit-level checks: empty, tail-only, every
    /// length up to and past the first and second 256-byte blocks, and a
    /// tail after two.
    fn short_lengths() -> impl Iterator<Item = usize> {
        (0..=80).chain(240..=272).chain(500..=520).chain([600, 760])
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        for len in short_lengths() {
            let body = pattern(len);
            let sum = checksum(5, 9, &body);
            for bit in 0..len * 8 {
                let mut flipped = body.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(5, 9, &flipped), sum, "len {len} bit {bit}");
            }
        }
    }

    #[test]
    fn checksum_binds_length_and_word_position() {
        for len in short_lengths() {
            let body = pattern(len);
            // A zero-padded tail is not the same bytes sent as payload.
            let mut padded = body.clone();
            padded.push(0);
            assert_ne!(checksum(1, 0, &padded), checksum(1, 0, &body), "len {len}");
        }
        // Equal words must still be told apart by where they sit. 600
        // bytes are two blocks (words 0..64) and an 11-word tail: swap
        // two words within a lane, across lanes (0 and 31 among them),
        // between blocks, and into the tail.
        let body = pattern(600);
        let sum = checksum(1, 0, &body);
        let pairs = [
            (0usize, 32usize),
            (0, 31),
            (31, 63),
            (0, 1),
            (3, 40),
            (31, 64),
            (0, 64),
            (63, 74),
            (70, 74),
        ];
        for (a, b) in pairs {
            let mut swapped = body.clone();
            for k in 0..8 {
                swapped.swap(8 * a + k, 8 * b + k);
            }
            assert_ne!(checksum(1, 0, &swapped), sum, "words {a} <-> {b}");
        }
    }

    /// Every body this CPU can run, the portable one first.
    fn bodies() -> Vec<Body> {
        let mut all = vec![Body::Portable];
        if Body::detect() != Body::Portable {
            all.push(Body::detect());
        }
        all
    }

    #[test]
    fn every_body_computes_the_portable_checksum() {
        // Under --nocapture a CI log says which bodies its runner ran.
        let names: Vec<String> = bodies()
            .iter()
            .map(|b| format!("{b:?}").to_lowercase())
            .collect();
        println!("cgx-net checksum bodies exercised: {names:?}");
        let lengths = (0..=3 * BLOCK + 8).chain([SUB_CHUNK + 5, 64 * 1024 + 3]);
        for len in lengths {
            let body = pattern(len);
            let want = checksum_on(Body::Portable, 3, 7, &body);
            for b in bodies() {
                assert_eq!(checksum_on(b, 3, 7, &body), want, "{b:?} len {len}");
            }
        }
        // Arbitrary words and prefixes, all-ones among them.
        let mut rng = cgx_tensor::Rng::seed_from_u64(29);
        for len in [2 * BLOCK + 40, 9000] {
            let mut body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            body[..BLOCK].fill(0xFF);
            for (tag, seq) in [
                (u64::MAX, u32::MAX),
                (rng.next_u64(), rng.next_u64() as u32),
            ] {
                let want = checksum_on(Body::Portable, tag, seq, &body);
                for b in bodies() {
                    assert_eq!(checksum_on(b, tag, seq, &body), want, "{b:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn open_copy_verifies_what_it_copies() {
        let around = |n: usize| n.saturating_sub(1)..=n + 1;
        let lengths = [
            0,
            8,
            BLOCK,
            2 * BLOCK,
            SUB_CHUNK,
            SUB_CHUNK + BLOCK,
            2 * SUB_CHUNK,
        ]
        .into_iter()
        .flat_map(around)
        .chain([SUB_CHUNK - 7, 3 * SUB_CHUNK + 300]);
        for len in lengths {
            let body = pattern(len);
            let mut frame = framed(0x51, 4, &body);
            let (seq, copy) = open_copy(0x51, &frame).expect("verifies");
            assert_eq!((seq, copy.as_slice()), (4, &body[..]), "len {len}");
            assert!(open_copy(0x52, &frame).is_err(), "len {len}: tag bound");
            // A header stating any other value fails: the copying pass
            // computes exactly `checksum`'s.
            frame[6] ^= 1;
            assert!(open_copy(0x51, &frame).is_err(), "len {len}: stated");
            frame[6] ^= 1;
            if let Some(last) = frame.len().checked_sub(1).filter(|&l| l >= HEADER_LEN) {
                frame[last] ^= 0x80;
                assert!(open_copy(0x51, &frame).is_err(), "len {len}: body");
            }
        }
    }

    /// The single multiply chain [`checksum`] replaced, kept as the
    /// yardstick for the throughput floor below.
    fn single_chain(tag: Tag, seq: u32, payload: &[u8]) -> u32 {
        const PRIME: u64 = 0x0100_0000_01B3;
        let mut h = (0xCBF2_9CE4_8422_2325 ^ tag).wrapping_mul(PRIME);
        h = (h ^ u64::from(seq)).wrapping_mul(PRIME);
        h = (h ^ payload.len() as u64).wrapping_mul(PRIME);
        for w in payload.chunks_exact(8) {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
        }
        (h ^ (h >> 32)) as u32
    }

    #[test]
    fn lanes_outrun_the_single_chain() {
        // A ratio of two loops timed alternately in this process, each
        // at its best of several rounds, over a cache-resident buffer:
        // host speed and neighbours cancel. Measured 3.6-4x optimised.
        // An unoptimised build measures per-word call overhead, not the
        // multiplier (0.6x, by iterator depth), so it asserts nothing.
        let body = pattern(64 * 1024);
        let best = |f: fn(Tag, u32, &[u8]) -> u32| {
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for seq in 0..32 {
                        std::hint::black_box(f(7, seq, std::hint::black_box(&body)));
                    }
                    t0.elapsed()
                })
                .min()
                .expect("five rounds")
        };
        let (mut chain, mut lanes) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..4 {
            chain = chain.min(best(single_chain));
            lanes = lanes.min(best(checksum));
        }
        let ratio = chain.as_secs_f64() / lanes.as_secs_f64();
        println!("checksum lanes: {ratio:.2}x the single chain");
        assert!(
            cfg!(debug_assertions) || ratio >= 2.0,
            "lanes only {ratio:.2}x the single chain"
        );
    }

    #[test]
    fn open_copy_rejects_short_and_unmagical_buffers() {
        // An envelope shorter than its header never reaches `open_copy`:
        // the length check refuses a frame with no room for one, and the
        // geometry check one whose dimensions leave none.
        let short = [&(8 + HEADER_LEN as u32).to_le_bytes()[..], &[0; 18]].concat();
        assert_eq!(
            parse_frame(&short).expect_err("short").kind(),
            io::ErrorKind::InvalidData
        );
        let mut crowded = vec![0u8; 4 + 8 + 1 + HEADER_LEN];
        crowded[..4].copy_from_slice(&(8 + 1 + HEADER_LEN as u32).to_le_bytes());
        crowded[12] = 1; // one dimension: four bytes the envelope needed
        assert_eq!(
            parse_frame(&crowded).expect_err("short").kind(),
            io::ErrorKind::InvalidData
        );
        let mut raw = framed(1, 0, &[5]);
        assert!(open_copy(1, &raw).is_ok());
        raw[0] ^= 0xFF; // break the magic
        assert!(open_copy(1, &raw).is_err());
    }

    /// Feeds `bytes` to [`recv_ctrl`] over a loopback socket whose writer
    /// then closes: what it returned, and how many bytes it read.
    fn fed(
        listener: &TcpListener,
        bytes: &[u8],
        expect: u8,
    ) -> (Result<Vec<u8>, CommError>, usize) {
        let mut w = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (r, _) = listener.accept().expect("accept");
        w.write_all(bytes).expect("write");
        w.shutdown(Shutdown::Write).expect("close");
        let deadline = Instant::now() + Duration::from_secs(10);
        let got = recv_ctrl(&r, expect, "a test frame", deadline);
        let mut rest = Vec::new();
        (&r).read_to_end(&mut rest).expect("the rest");
        (got, bytes.len() - rest.len())
    }

    /// One control frame carrying `body`, as [`send_ctrl`] writes it.
    fn ctrl(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        send_ctrl(&mut frame, body).expect("into a Vec");
        frame
    }

    /// A HELLO, a three-rank ROSTER and a PEER, as boot builds them, with
    /// their ops.
    fn valid_bodies() -> Vec<(u8, Vec<u8>)> {
        let mut hello = vec![MSG_HELLO];
        for word in [2u32, 3, 1] {
            hello.extend_from_slice(&word.to_le_bytes());
        }
        put_str(&mut hello, "127.0.0.1:40001");
        let mut roster = vec![MSG_ROSTER];
        roster.extend_from_slice(&3u32.to_le_bytes());
        for (node, addr) in [(0u32, ""), (0, "10.0.0.2:5001"), (1, "[fe80::1]:5002")] {
            roster.extend_from_slice(&node.to_le_bytes());
            put_str(&mut roster, addr);
        }
        let mut peer = vec![MSG_PEER];
        peer.extend_from_slice(&2u32.to_le_bytes());
        vec![(MSG_HELLO, hello), (MSG_ROSTER, roster), (MSG_PEER, peer)]
    }

    /// Asserts `got` is a typed error and that the read stopped within the
    /// frame `bytes` states (after its length prefix, when there is one).
    fn refused(bytes: &[u8], (got, read): (Result<Vec<u8>, CommError>, usize), what: &str) {
        assert!(
            matches!(got, Err(CommError::Bootstrap { .. })),
            "{what}: {got:?}"
        );
        if let Some(prefix) = bytes.get(..4) {
            let stated = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
            let bound = if stated > MAX_CTRL_BYTES {
                4
            } else {
                4 + stated
            };
            assert!(
                read <= bound,
                "{what}: read {read} bytes of a {bound}-byte frame"
            );
        }
    }

    #[test]
    fn recv_ctrl_refuses_hostile_bytes_and_never_reads_past_the_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        for (op, body) in valid_bodies() {
            // The whole frame, then bytes of the link that follows it.
            let frame = ctrl(&body);
            let mut stream = frame.clone();
            stream.extend_from_slice(&[0xAB; 9]);
            let (got, read) = fed(&listener, &stream, op);
            assert_eq!(got.expect("valid"), body, "op {op:#x}");
            assert_eq!(read, frame.len(), "op {op:#x}: read into the link");
            // Every truncation of it.
            for cut in 0..frame.len() {
                let bytes = &frame[..cut];
                refused(
                    bytes,
                    fed(&listener, bytes, op),
                    &format!("op {op:#x} cut {cut}"),
                );
            }
            // Every truncation of its body is a typed error for its
            // fields' readers, never a panic.
            for cut in 1..body.len() {
                let mut at = 1;
                let fields = (0..16).try_for_each(|_| {
                    get_u32(&body[..cut], &mut at)?;
                    get_str(&body[..cut], &mut at).map(drop)
                });
                assert!(fields.is_err(), "op {op:#x} body cut {cut}");
            }
        }
        cgx_testkit::cases(96, |rng| {
            let mut bytes: Vec<u8> = (0..rng.range(0..=80))
                .map(|_| rng.next_u64() as u8)
                .collect();
            match rng.index(3) {
                // A length prefix the bytes after it can hold.
                0 if bytes.len() >= 4 => {
                    let len = rng.range(0..=bytes.len() - 4) as u32;
                    bytes[..4].copy_from_slice(&len.to_le_bytes());
                }
                // One above the cap, however many bytes follow.
                1 if bytes.len() >= 4 => {
                    let len = MAX_CTRL_BYTES as u32
                        + 1
                        + rng.next_u32() % (u32::MAX - MAX_CTRL_BYTES as u32);
                    bytes[..4].copy_from_slice(&len.to_le_bytes());
                }
                _ => {}
            }
            refused(&bytes, fed(&listener, &bytes, MSG_HELLO), "random bytes");
        });
    }
}
