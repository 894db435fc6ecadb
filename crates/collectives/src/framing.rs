//! Seq + FNV-checksummed payload framing, and the retention that resends
//! from it: the envelope of the TCP wire format (`cgx-net`).
//!
//! A frame wraps one [`Encoded`] payload with a magic sentinel, a
//! per-link sequence number — frames counted per (sender, receiver) pair
//! across every tag — and an FNV-style multiply-xor checksum over
//! `(tag, seq, len, payload)`. The checksum binds the payload to its lane:
//! a frame replayed under a different tag or sequence number fails
//! verification, so frames can never alias across collectives, and any
//! single-bit corruption of the body is caught. [`open_copy`] is the one
//! reader of the envelope: it copies the body out, and verifies in the
//! copying pass.
//!
//! A receiver accepts exactly the next link seq it expects, so "what I
//! have" is one number, and a sender keeps one byte-bounded [`Retention`]
//! of the frames it handed to the link. A TCP reconnect reads "from `s`
//! on" out of it: the receiver names its next-expected seq, and the sender
//! resends the whole suffix from there.

use crate::error::CommError;
use crate::transport::Tag;
use cgx_compress::Encoded;
use std::collections::VecDeque;

/// Frame header: `[magic:u16][seq:u32][checksum:u32]`, little-endian.
pub const HEADER_LEN: usize = 10;

/// Sentinel distinguishing framed traffic from raw payloads.
pub const FRAME_MAGIC: u16 = 0xC6FA;

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
/// read as 64-bit words dealt round-robin onto [`LANES`] independent
/// chains (word `k` lands on lane `k % LANES`; the last word is
/// zero-padded), each seeded from the `(tag, seq, len)` prefix and its
/// lane index, and the lanes are then chained into the prefix in lane
/// order. It runs over every wire byte twice — once at send, once where
/// the receiver copies the body out ([`open_copy`]) — so on the hot path
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

/// Appends only the [`HEADER_LEN`]-byte framing header for `body` to
/// `dst`, without copying the body. The zero-copy wire path hands
/// `(header, body)` to a vectored write instead of materializing the
/// concatenation.
pub fn append_header(dst: &mut Vec<u8>, tag: Tag, seq: u32, body: &[u8]) {
    dst.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    dst.extend_from_slice(&seq.to_le_bytes());
    dst.extend_from_slice(&checksum(tag, seq, body).to_le_bytes());
}

/// Opens one envelope into an allocation of its own: `Some((seq, copy))`
/// when `bytes` holds a header bearing [`FRAME_MAGIC`] whose stated
/// checksum matches the body under `(tag, seq)`; `None` for anything
/// shorter than a header, unmagical, or corrupted. The one reader of the
/// format: the TCP demux and the bootstrap reader both parse through it,
/// so a mismatch is *observed* (fatal to the link or the boot, as the
/// caller decides), never masked. The copy and the verification are one
/// pass over the wire bytes — each [`SUB_CHUNK`] is copied, then the lanes
/// fold the bytes just written while they are still in L1. What is
/// verified is the copy the caller gets.
pub fn open_copy(tag: Tag, bytes: &[u8]) -> Option<(u32, Vec<u8>)> {
    let (seq, stated, body) = envelope(bytes)?;
    let mut sum = Sum::new(Body::detect(), tag, seq, body.len());
    let mut copy = Vec::with_capacity(body.len());
    for part in body.chunks(SUB_CHUNK) {
        let at = copy.len();
        copy.extend_from_slice(part);
        sum.blocks(&copy[at..at + part.len() - part.len() % BLOCK]);
    }
    // Every part but the last is whole blocks, so the tail is the copy's.
    let tail = &copy[copy.len() - copy.len() % BLOCK..];
    (sum.finish(tail) == stated).then_some((seq, copy))
}

/// `(seq, stated checksum, body)` of a magical envelope, unverified.
fn envelope(bytes: &[u8]) -> Option<(u32, u32, &[u8])> {
    if bytes.len() < HEADER_LEN || bytes[..2] != FRAME_MAGIC.to_le_bytes() {
        return None;
    }
    let seq = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
    let stated = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
    Some((seq, stated, &bytes[HEADER_LEN..]))
}

/// Bytes one link may hold for resending, on either fabric (TCP holds
/// them only with a reconnect policy armed; without one it keeps none).
pub const RETAIN_BYTES: usize = 8 << 20;

/// The frames a sender has handed to one link, kept for resending: a
/// contiguous suffix of everything the link ever carried, oldest first,
/// at most `cap` bytes of it. Frames are numbered by link seq, so the
/// store is an index — [`Retention::end`] is the seq the next frame gets.
/// Link seqs wrap (a busy link carries 2^32 frames in hours): a seq is
/// placed relative to the frames held, the nearer way round.
#[derive(Debug)]
pub struct Retention {
    /// `(tag, frame, bytes it cost)`, the first at link seq `start`.
    frames: VecDeque<(Tag, Encoded, usize)>,
    start: u32,
    bytes: usize,
    cap: usize,
}

impl Retention {
    /// An empty store at link seq 0 holding at most `cap` bytes (0 keeps
    /// nothing, but still counts).
    pub fn new(cap: usize) -> Self {
        Retention {
            frames: VecDeque::new(),
            start: 0,
            bytes: 0,
            cap,
        }
    }

    /// The link seq of the next frame handed over: how many ever were.
    pub fn end(&self) -> u32 {
        self.start.wrapping_add(self.frames.len() as u32)
    }

    /// Keeps `frame` — which cost `bytes` on the wire — at link seq
    /// [`Retention::end`], dropping the oldest frames past the cap.
    pub fn push(&mut self, tag: Tag, frame: Encoded, bytes: usize) {
        self.bytes += bytes;
        self.frames.push_back((tag, frame, bytes));
        while self.bytes > self.cap {
            let (_, _, old) = self.frames.pop_front().expect("bytes are the frames'");
            self.bytes -= old;
            self.start = self.start.wrapping_add(1);
        }
    }

    /// Where link seq `s` sits in the store, or why it cannot be served
    /// (see [`Retention::suffix`]).
    fn index(&self, s: u32, peer: usize) -> Result<usize, CommError> {
        let at = s.wrapping_sub(self.start) as usize;
        if at <= self.frames.len() {
            return Ok(at);
        }
        if s.wrapping_sub(self.end()) < 1 << 31 {
            return Err(CommError::Corrupted {
                peer,
                detail: format!(
                    "peer expects link seq {s}, only {} frames were ever sent",
                    self.end()
                ),
            });
        }
        Err(CommError::PeerDead { rank: peer })
    }

    /// The retained frames from link seq `s` on, oldest first; empty when
    /// `s` is [`Retention::end`].
    ///
    /// # Errors
    ///
    /// [`CommError::Corrupted`] naming `peer` when `s` claims frames that
    /// were never handed over (the peer is lying about shared history);
    /// [`CommError::PeerDead`] when frames from `s` on are no longer all
    /// here (the gap outgrew the cap and cannot be healed).
    pub fn suffix(
        &self,
        s: u32,
        peer: usize,
    ) -> Result<impl Iterator<Item = (Tag, &Encoded)>, CommError> {
        let at = self.index(s, peer)?;
        Ok(self.frames.range(at..).map(|(tag, frame, _)| (*tag, frame)))
    }

    /// Resumes the link at `s`: frames below it are acknowledged and
    /// dropped, the suffix from it is handed back for resending, and the
    /// store restarts empty at `s`.
    ///
    /// # Errors
    ///
    /// As [`Retention::suffix`]; the store is left as it was.
    pub fn resume(&mut self, s: u32, peer: usize) -> Result<Vec<(Tag, Encoded)>, CommError> {
        let at = self.index(s, peer)?;
        let resend = self.frames.split_off(at);
        self.frames.clear();
        self.bytes = 0;
        self.start = s;
        Ok(resend
            .into_iter()
            .map(|(tag, frame, _)| (tag, frame))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::{Bytes, Shape};

    /// The framed bytes for `body`: its header, then the body.
    fn framed(tag: Tag, seq: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
        append_header(&mut buf, tag, seq, body);
        buf.extend_from_slice(body);
        buf
    }

    fn enc(bytes: &[u8]) -> Encoded {
        Encoded::new(
            Shape::vector(bytes.len().max(1)),
            Bytes::copy_from_slice(bytes),
        )
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
        println!("cgx-collectives checksum bodies exercised: {names:?}");
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
            assert!(open_copy(0x52, &frame).is_none(), "len {len}: tag bound");
            // A header stating any other value fails: the copying pass
            // computes exactly `checksum`'s.
            frame[6] ^= 1;
            assert!(open_copy(0x51, &frame).is_none(), "len {len}: stated");
            frame[6] ^= 1;
            if let Some(last) = frame.len().checked_sub(1).filter(|&l| l >= HEADER_LEN) {
                frame[last] ^= 0x80;
                assert!(open_copy(0x51, &frame).is_none(), "len {len}: body");
            }
        }
        assert!(open_copy(1, &[0xFA, 0xC6, 0, 0]).is_none(), "short");
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
        assert!(open_copy(1, &[1, 2, 3]).is_none());
        let mut raw = framed(1, 0, &[5]);
        assert!(open_copy(1, &raw).is_some());
        raw[0] ^= 0xFF; // break the magic
        assert!(open_copy(1, &raw).is_none());
    }

    /// A store holding link seqs `0..n`, frame `i` tagged `100 + i`,
    /// carrying byte `i` and costing 10 bytes, capped at `cap`.
    fn retention(n: u8, cap: usize) -> Retention {
        let mut r = Retention::new(cap);
        for i in 0..n {
            r.push(100 + Tag::from(i), enc(&[i]), 10);
        }
        r
    }

    fn bytes_from(r: &Retention, s: u32) -> Vec<u8> {
        r.suffix(s, 1)
            .expect("held")
            .map(|(_, f)| f.payload()[0])
            .collect()
    }

    #[test]
    fn eviction_under_the_byte_bound_keeps_a_contiguous_suffix() {
        // 35 bytes hold three 10-byte frames: pushing seven keeps 4, 5, 6.
        let r = retention(7, 35);
        assert_eq!(r.end(), 7);
        assert_eq!(bytes_from(&r, 4), [4, 5, 6]);
        assert_eq!(bytes_from(&r, 5), [5, 6]);
        let tags: Vec<Tag> = r.suffix(4, 1).expect("held").map(|(t, _)| t).collect();
        assert_eq!(tags, [104, 105, 106]);
        // A cap of zero keeps nothing and still numbers the link.
        let none = retention(3, 0);
        assert_eq!(none.end(), 3);
        assert_eq!(none.suffix(3, 1).expect("at the end").count(), 0);
    }

    #[test]
    fn asking_below_the_oldest_frame_is_a_dead_peer() {
        let r = retention(7, 35);
        assert_eq!(r.suffix(3, 2).err(), Some(CommError::PeerDead { rank: 2 }));
        let mut r = r;
        assert_eq!(r.resume(0, 2).err(), Some(CommError::PeerDead { rank: 2 }));
        assert_eq!(r.end(), 7, "a refused resume changes nothing");
    }

    #[test]
    fn asking_beyond_the_end_is_corruption() {
        let mut r = retention(3, RETAIN_BYTES);
        assert!(matches!(
            r.suffix(4, 5),
            Err(CommError::Corrupted { peer: 5, .. })
        ));
        assert!(matches!(
            r.resume(99, 5),
            Err(CommError::Corrupted { peer: 5, .. })
        ));
    }

    #[test]
    fn asking_at_the_end_returns_nothing() {
        let mut r = retention(3, RETAIN_BYTES);
        assert_eq!(bytes_from(&r, 3), Vec::<u8>::new());
        assert!(r.resume(3, 1).expect("in range").is_empty());
        assert_eq!(r.end(), 3);
    }

    #[test]
    fn link_seqs_wrap_around() {
        // Two frames before the wrap, two after: seqs MAX-1, MAX, 0, 1.
        let mut r = Retention {
            start: u32::MAX - 1,
            ..Retention::new(RETAIN_BYTES)
        };
        for i in 0..4u8 {
            r.push(100, enc(&[i]), 10);
        }
        assert_eq!(r.end(), 2);
        assert_eq!(bytes_from(&r, u32::MAX), [1, 2, 3]);
        assert_eq!(bytes_from(&r, 1), [3]);
        assert_eq!(bytes_from(&r, 2), Vec::<u8>::new());
        assert!(matches!(r.suffix(3, 1), Err(CommError::Corrupted { .. })));
        assert_eq!(
            r.suffix(u32::MAX - 2, 1).err(),
            Some(CommError::PeerDead { rank: 1 })
        );
        let resend = r.resume(0, 1).expect("held");
        assert_eq!(resend.len(), 2);
        assert_eq!(r.end(), 0);
    }

    #[test]
    fn resume_hands_back_the_suffix_and_restarts_there() {
        let mut r = retention(5, RETAIN_BYTES);
        let resend: Vec<u8> = r
            .resume(2, 1)
            .expect("held")
            .iter()
            .map(|(_, f)| f.payload()[0])
            .collect();
        assert_eq!(resend, [2, 3, 4]);
        // The resent frames come back through `push`, at seqs 2, 3, 4.
        assert_eq!(r.end(), 2);
        assert_eq!(r.suffix(1, 1).err(), Some(CommError::PeerDead { rank: 1 }));
    }
}
