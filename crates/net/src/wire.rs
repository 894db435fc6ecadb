//! The TCP wire format.
//!
//! One frame per tagged message:
//!
//! ```text
//! [len: u32 LE]                      length of everything after this field
//! [tag: u64 LE]                      demux tag (collective lane / control)
//! [ndims: u8][dims: u32 LE x ndims]  tensor geometry of the payload
//! [framing body]                     magic + seq + FNV checksum + payload
//! ```
//!
//! The framing body is byte-for-byte the format of
//! [`cgx_collectives::framing`], read by [`framing::open_copy`]. Every
//! frame is written as [`append_frame_header`] plus the payload and read by
//! [`parse_frame`]. TCP already guarantees ordered
//! reliable delivery; the checksum is the end-to-end integrity check
//! (paper: datacenter links do corrupt), and the per-link sequence
//! number — frames counted per (sender, receiver) pair across every tag
//! — is the cheap assertion that the demux never reorders a link, and
//! the one number a reconnect resumes from.
//!
//! # Multi-tenant tags
//!
//! Under a `cgx-serve` daemon the tag field's top byte is a job
//! namespace: `[job:8][op:24][segment:16][phase:8][epoch:8]` (see
//! [`cgx_collectives::namespace_tag`]). Namespace 0x00 is single-job
//! traffic — bit-identical to the historical layout, since collective
//! ids stay below [`cgx_collectives::MAX_NAMESPACED_OP`] — so the frame
//! format itself is unchanged; only the tag's interpretation widens.

use cgx_collectives::framing;
use cgx_collectives::transport::Tag;
use cgx_compress::Encoded;
use cgx_tensor::Shape;
use std::io;

/// Hard cap on a frame's post-length size: a parter that hands us garbage
/// for a length must not look like a 4 GiB allocation request.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Maximum tensor rank encodable in the geometry header.
pub const MAX_DIMS: usize = 255;

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
pub fn frame_wire_bytes(ndims: usize, payload_len: usize) -> usize {
    4 + 8 + 1 + 4 * ndims + framing::HEADER_LEN + payload_len
}

/// Serializes everything that precedes the payload — length prefix, tag,
/// geometry, and the seq+checksum framing envelope — into `dst`,
/// returning the number of header bytes appended. The payload itself is
/// *not* copied: the zero-copy send path hands `(header, payload)` to a
/// vectored socket write, so the payload's only copy is the kernel's.
///
/// # Panics
///
/// Panics if the shape has more than [`MAX_DIMS`] dimensions (no real
/// tensor comes close).
pub fn append_frame_header(
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
    let after_len = 8 + 1 + 4 * dims.len() + framing::HEADER_LEN + payload.len();
    dst.extend_from_slice(&(after_len as u32).to_le_bytes());
    dst.extend_from_slice(&tag.to_le_bytes());
    dst.push(dims.len() as u8);
    for &d in dims {
        dst.extend_from_slice(&(d as u32).to_le_bytes());
    }
    framing::append_header(dst, tag, seq, payload);
    dst.len() - before
}

/// Refuses a length prefix no frame can have: shorter than a tag, a
/// dimension count and an envelope header, or past [`MAX_FRAME_BYTES`] —
/// garbage must not look like a 4 GiB allocation request.
fn check_len(len: usize) -> io::Result<()> {
    if !(8 + 1 + framing::HEADER_LEN..=MAX_FRAME_BYTES).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    Ok(())
}

/// Decodes the tag and geometry after the length prefix, returning them
/// and where the framing envelope starts in `frame`. A geometry that
/// `Shape` cannot hold — a zero dimension, or an element count past
/// `usize` — is refused before a `Shape` is built.
fn decode_header(frame: &[u8]) -> io::Result<(Tag, Shape, usize)> {
    let invalid = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidData, why.to_string()));
    let tag = Tag::from_le_bytes(frame[0..8].try_into().expect("8 bytes"));
    let geom_end = 9 + 4 * frame[8] as usize;
    if frame.len() < geom_end + framing::HEADER_LEN {
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

/// The error an envelope that fails [`framing::open_copy`] becomes.
fn mismatch(tag: Tag) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checksum/header mismatch on tag {tag:#x}"),
    )
}

/// Attempts to decode one frame from the *front* of `buf` without
/// consuming a reader: `Ok(None)` means the buffer does not yet hold a
/// complete frame (read more), `Ok(Some((frame, consumed)))` hands back
/// the decoded frame and how many bytes it occupied. The event loop's
/// staging buffers parse arrivals in place with this — the payload is
/// read exactly once, by [`framing::open_copy`], which copies it out of
/// the staging ring into its own allocation and verifies the copy in
/// the same pass.
///
/// # Errors
///
/// `InvalidData` for an implausible length, malformed geometry, or a
/// checksum mismatch.
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    check_len(len)?;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let frame = &buf[4..4 + len];
    let (tag, shape, envelope) = decode_header(frame)?;
    let (seq, payload) =
        framing::open_copy(tag, &frame[envelope..]).ok_or_else(|| mismatch(tag))?;
    Ok(Some((
        Frame {
            tag,
            seq,
            enc: Encoded::new(shape, payload.into()),
        },
        4 + len,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            framing::append_header(&mut frame, 7, 0, &[]);
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
}
