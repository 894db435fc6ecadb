//! Seq + FNV-checksummed payload framing, shared by the chaos/reliability
//! layer ([`crate::fault::ChaosTransport`]) and the TCP wire format
//! (`cgx-net`).
//!
//! A frame wraps one [`Encoded`] payload with a magic sentinel, a
//! per-`(peer, tag)` sequence number, and an FNV-style multiply-xor
//! checksum over `(tag, seq, len, payload)`. The checksum binds the payload to its lane:
//! a frame replayed under a different tag or sequence number fails
//! verification, so frames can never alias across collectives, and any
//! single-bit corruption of the body is caught. Both consumers use the
//! identical header layout, which is the point — the reliability protocol
//! debugged under deterministic chaos injection is byte-for-byte the
//! protocol that runs on real sockets.

use crate::transport::Tag;
use cgx_compress::Encoded;
use cgx_tensor::Bytes;

/// Frame header: `[magic:u16][seq:u32][checksum:u32]`, little-endian.
pub const HEADER_LEN: usize = 10;

/// Sentinel distinguishing framed traffic from raw payloads.
pub const FRAME_MAGIC: u16 = 0xC6FA;

/// Independent multiply-xor chains [`checksum`] runs side by side. One
/// chain retires a word per multiply *latency*; four keep the multiplier
/// busy every cycle, which is as fast as scalar code goes.
const LANES: usize = 4;

/// FNV-style multiply-xor checksum over the tag, the sequence number, the
/// payload length, and the payload, folded to 32 bits. The payload is
/// read as 64-bit words dealt round-robin onto [`LANES`] independent
/// chains (word `k` lands on lane `k % LANES`; the last word is
/// zero-padded), each seeded from the `(tag, seq, len)` prefix and its
/// lane index, and the lanes are then chained into the prefix in lane
/// order. This runs over every wire byte twice (send and receive), so on
/// the hot path its throughput matters; every step is a bijection of the
/// running value, so any single-bit flip changes its lane and therefore
/// the fold, and the bound length tells a short tail from the same bytes
/// sent as zeros. Cheap and dependency-free.
pub fn checksum(tag: Tag, seq: u32, payload: &[u8]) -> u32 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x1_0000_0001_B3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut h = step(OFFSET, tag);
    h = step(h, u64::from(seq));
    h = step(h, payload.len() as u64);
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = step(h, i as u64);
    }
    let mut blocks = payload.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        *lane = step(*lane, word(&padded));
    }
    h = lanes.into_iter().fold(h, step);
    (h ^ (h >> 32)) as u32
}

/// Wraps `payload` in a checksummed frame carrying `seq`, preserving the
/// payload's shape.
pub fn frame(tag: Tag, seq: u32, payload: &Encoded) -> Encoded {
    let body = payload.payload();
    Encoded::new(
        payload.shape().clone(),
        frame_bytes(tag, seq, body),
    )
}

/// The raw framed bytes for `body`: header plus payload, ready for a wire.
pub fn frame_bytes(tag: Tag, seq: u32, body: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
    append_header(&mut buf, tag, seq, body);
    buf.extend_from_slice(body);
    buf.into()
}

/// Appends only the [`HEADER_LEN`]-byte framing header for `body` to
/// `dst`, without copying the body. The zero-copy wire path hands
/// `(header, body)` to a vectored write instead of materializing the
/// concatenation [`frame_bytes`] builds.
pub fn append_header(dst: &mut Vec<u8>, tag: Tag, seq: u32, body: &[u8]) {
    dst.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    dst.extend_from_slice(&seq.to_le_bytes());
    dst.extend_from_slice(&checksum(tag, seq, body).to_le_bytes());
}

/// Splits a framed buffer into `(seq, stated checksum, body)`.
///
/// The caller re-checks the checksum via [`checksum`] so corruption is
/// *observed* (and can be counted / NACKed / rejected), not silently
/// masked at parse time. Returns `None` for buffers too short to hold a
/// header or not bearing the [`FRAME_MAGIC`] sentinel.
pub fn parse(bytes: &Bytes) -> Option<(u32, u32, Bytes)> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
    if magic != FRAME_MAGIC {
        return None;
    }
    let seq = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
    let sum = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    Some((seq, sum, bytes.slice(HEADER_LEN..)))
}

/// Parses and verifies in one step: `Some(body)` only when the stated
/// checksum matches the recomputed one under `(tag, seq)`. The strict
/// entry point for wire formats that treat corruption as fatal (TCP
/// already guarantees transport integrity, so a mismatch there means a
/// protocol bug, not line noise).
pub fn parse_verified(tag: Tag, bytes: &Bytes) -> Option<(u32, Bytes)> {
    let (seq, stated, body) = parse(bytes)?;
    if checksum(tag, seq, &body) != stated {
        return None;
    }
    Some((seq, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::Shape;

    fn enc(bytes: &[u8]) -> Encoded {
        Encoded::new(Shape::vector(bytes.len().max(1)), Bytes::copy_from_slice(bytes))
    }

    #[test]
    fn frame_parse_roundtrip_preserves_everything() {
        let original = enc(&[9, 8, 7, 6]);
        let framed = frame(0xAB, 3, &original);
        assert_eq!(framed.shape(), original.shape());
        let (seq, stated, body) = parse(framed.payload()).expect("parses");
        assert_eq!(seq, 3);
        assert_eq!(body.as_ref(), &[9, 8, 7, 6]);
        assert_eq!(checksum(0xAB, 3, &body), stated);
        // The body is the frame's own bytes past the header, not a copy.
        assert_eq!(body.as_ptr(), framed.payload()[HEADER_LEN..].as_ptr());
    }

    #[test]
    fn checksum_binds_tag_seq_and_body() {
        let body = [1u8, 2, 3];
        let sum = checksum(7, 1, &body);
        assert_ne!(checksum(8, 1, &body), sum, "tag not bound");
        assert_ne!(checksum(7, 2, &body), sum, "seq not bound");
        assert_ne!(checksum(7, 1, &[1, 2, 4]), sum, "body not bound");
    }

    /// Payload bytes that differ at every position and in every word.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // 0..=80 bytes covers empty, tail-only, every lane of a full
        // 32-byte block, a second block and every tail length after it.
        for len in 0..=80usize {
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
        for len in 0..=80usize {
            let body = pattern(len);
            // A zero-padded tail is not the same bytes sent as payload.
            let mut padded = body.clone();
            padded.push(0);
            assert_ne!(checksum(1, 0, &padded), checksum(1, 0, &body), "len {len}");
        }
        // Equal words must still be told apart by where they sit: swap
        // two words within a lane, across lanes, and into the tail.
        let body = pattern(80);
        let sum = checksum(1, 0, &body);
        for (a, b) in [(0usize, 4usize), (0, 1), (3, 8), (7, 9), (1, 6)] {
            let mut swapped = body.clone();
            for k in 0..8 {
                swapped.swap(8 * a + k, 8 * b + k);
            }
            assert_ne!(checksum(1, 0, &swapped), sum, "words {a} <-> {b}");
        }
    }

    /// The single multiply chain [`checksum`] replaced, kept as the
    /// yardstick for the throughput floor below.
    fn single_chain(tag: Tag, seq: u32, payload: &[u8]) -> u32 {
        const PRIME: u64 = 0x1_0000_0001_B3;
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
        assert!(
            cfg!(debug_assertions) || ratio >= 2.0,
            "lanes only {ratio:.2}x the single chain"
        );
    }

    #[test]
    fn append_header_matches_frame_bytes_prefix() {
        let body = [4u8, 5, 6, 7, 8];
        let framed = frame_bytes(0xBEEF, 12, &body);
        let mut hdr = Vec::new();
        append_header(&mut hdr, 0xBEEF, 12, &body);
        assert_eq!(hdr.len(), HEADER_LEN);
        assert_eq!(&framed[..HEADER_LEN], hdr.as_slice());
    }

    #[test]
    fn parse_rejects_short_and_unmagical_buffers() {
        assert!(parse(&Bytes::copy_from_slice(&[1, 2, 3])).is_none());
        let mut raw = frame_bytes(1, 0, &[5]).to_vec();
        raw[0] ^= 0xFF; // break the magic
        assert!(parse(&Bytes::from(raw)).is_none());
    }

    #[test]
    fn parse_verified_is_strict() {
        let framed = frame_bytes(42, 7, &[10, 20, 30]);
        let (seq, body) = parse_verified(42, &framed).expect("verifies");
        assert_eq!((seq, body.as_ref()), (7, &[10u8, 20, 30][..]));
        // Wrong lane: same bytes fail under another tag.
        assert!(parse_verified(43, &framed).is_none());
        // A flipped body bit fails too.
        let mut raw = framed.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        assert!(parse_verified(42, &Bytes::from(raw)).is_none());
    }
}
