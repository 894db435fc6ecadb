//! The sequential reference for the compressed Allreduce algorithms (paper
//! Section 3, "Reduction Schemes") and the subject of Figure 10.
//!
//! Production code reduces through [`crate::engine::CommEngine`], which runs
//! SRA as a nonblocking machine. [`allreduce_scratch`] is every scheme
//! written straight down, one blocking collective at a time: what
//! `engine_matches_sequential_loop_bitwise` and the stress and property
//! suites hold the engine's SRA to, bit for bit, and what
//! `fig10_reduction_schemes` counts kernels on. The Ring, Tree and
//! Allgather bodies are also the engine's own eager path — it has no
//! machine for them. Every chunk received here or by the engine passes
//! `check_chunk`, then its codec's decode: either refusal is a typed error.
//!
//! All schemes are generic over the [`Compressor`], and each performs the
//! decompress-sum-recompress dance exactly where a real implementation
//! must, so the *number of lossy re-quantizations* per scheme is faithful:
//!
//! | scheme | quantizations on the critical path | consensus |
//! |---|---|---|
//! | SRA | 2 (once before aggregation, once after) | bit-exact |
//! | Ring | N-1 during reduce-scatter + 1 relay | bit-exact |
//! | Tree | up to log2(N)+1 up the tree | bit-exact |
//! | Allgather | 1 | bit-exact |
//!
//! "Consensus" means every rank reconstructs the identical result tensor,
//! because final values always travel as (relayed) encoded chunks that all
//! ranks decode identically. Error magnitude differs by scheme — the basis
//! of Figure 10's finding that SRA is preferable.
//!
//! # Fused fast path
//!
//! Peer payloads are summed straight into one accumulator slice via
//! [`Compressor::decompress_add_into`] — no intermediate `Tensor` per
//! payload — and every encode buffer and `f32` accumulator is drawn from a
//! [`ScratchPool`], so steady-state rounds allocate nothing in the
//! compression path. Decode order is unchanged from the scalar path (global
//! rank/range order, one `+=` per element in index order), which keeps
//! `f32` sums — and therefore cross-rank consensus — bit-identical to the
//! unfused implementation.

use crate::error::CommError;
use crate::transport::{Tag, Transport, LEGACY_TAG};
use cgx_compress::{Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{Rng, Tensor};
use std::ops::Range;

/// Per-rank traffic accounting for one Allreduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllreduceStats {
    /// Payload bytes this rank transmitted.
    pub bytes_sent: usize,
    /// Number of compression-kernel invocations on this rank.
    pub compress_calls: usize,
    /// Number of decompression-kernel invocations on this rank.
    pub(crate) decompress_calls: usize,
    /// Wall time spent inside compression kernels, nanoseconds.
    pub compress_ns: u64,
    /// Wall time spent blocked on the transport (waiting for peer
    /// payloads), nanoseconds. Under the communication engine this is idle
    /// time attributed to the collective being waited on — the quantity
    /// layer-parallelism exists to hide.
    pub wait_ns: u64,
    /// Wall time spent inside decode / decode-accumulate kernels,
    /// nanoseconds.
    pub decode_ns: u64,
    /// Maximum number of collectives simultaneously in flight on this rank
    /// while this one ran. Always 1 for the sequential entry points; > 1
    /// indicates the communication engine actually overlapped layers.
    pub max_in_flight: usize,
}

impl AllreduceStats {
    /// Folds another collective's stats into this one (used when a step
    /// aggregates per-layer stats). `max_in_flight` takes the maximum;
    /// everything else sums. Timing fields saturate instead of wrapping:
    /// long-run aggregations (a whole training job's layer × step matrix)
    /// must degrade to "pinned at max" rather than silently overflow into
    /// a small number.
    pub fn merge(&mut self, other: &AllreduceStats) {
        self.bytes_sent = self.bytes_sent.saturating_add(other.bytes_sent);
        self.compress_calls = self.compress_calls.saturating_add(other.compress_calls);
        self.decompress_calls = self.decompress_calls.saturating_add(other.decompress_calls);
        self.compress_ns = self.compress_ns.saturating_add(other.compress_ns);
        self.wait_ns = self.wait_ns.saturating_add(other.wait_ns);
        self.decode_ns = self.decode_ns.saturating_add(other.decode_ns);
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

/// Runs `f`, adding its wall time in nanoseconds to `slot`.
#[inline]
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as u64;
    out
}

/// The reduction algorithm to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Scatter-Reduce-Allgather (CGX's choice).
    #[default]
    ScatterReduceAllgather,
    /// Chunked ring.
    Ring,
    /// Binomial tree (hierarchical parameter server).
    Tree,
    /// Broadcast-everything allgather (the GRACE strategy).
    AllgatherBroadcast,
}

impl Algorithm {
    /// All algorithms in Figure 10 order.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::ScatterReduceAllgather,
            Algorithm::Ring,
            Algorithm::Tree,
            Algorithm::AllgatherBroadcast,
        ]
    }
}

/// Splits `len` elements into `n` near-equal contiguous ranges (first
/// `len % n` ranges get the extra element; ranges may be empty for tiny
/// inputs).
pub fn chunk_ranges(len: usize, n: usize) -> Vec<Range<usize>> {
    assert!(n > 0, "need at least one chunk");
    let base = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let sz = base + usize::from(i < rem);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// The check every received chunk passes, in the engine and in the
/// reference alike: `enc`, from `peer` on `tag`, must carry the `want`
/// elements of its slot. What its payload may hold is its codec's decode
/// to say, whose [`PayloadError`] the receiver passes to [`refused`].
///
/// # Errors
///
/// [`CommError::ShapeMismatch`] naming the tag, the peer and the counts.
pub(crate) fn check_chunk(
    enc: Encoded,
    want: usize,
    peer: usize,
    tag: Tag,
) -> Result<Encoded, CommError> {
    match enc.shape().len() {
        got if got == want => Ok(enc),
        got => Err(refused(
            tag,
            peer,
            format!("expected {want} elements, got {got}"),
        )),
    }
}

/// The error that fails a collective over a chunk from `peer` on `tag`:
/// socket bytes must fail the collective, not panic the rank.
pub(crate) fn refused(tag: Tag, peer: usize, why: impl std::fmt::Display) -> CommError {
    let detail = format!("tag {tag:#x} from rank {peer}: {why}");
    CommError::ShapeMismatch { detail }
}

/// The reference's receive: the next legacy-lane chunk from `peer`,
/// through [`check_chunk`] for `want` elements.
fn recv_chunk(t: &dyn Transport, peer: usize, want: usize) -> Result<Encoded, CommError> {
    check_chunk(t.recv(peer)?, want, peer, LEGACY_TAG)
}

/// The refusal of a payload that `peer` sent on the legacy lane.
fn sent_by(peer: usize) -> impl Fn(PayloadError) -> CommError {
    move |e| refused(LEGACY_TAG, peer, e)
}

/// One blocking allreduce of `grad` by `alg` — the sequential reference
/// (see the module docs) — drawing all encode buffers and accumulator
/// scratch from `pool`. Returns the *sum*. `rng` is the collective's own
/// stream: the engine seeds one per submission from a single `next_u64` of
/// its caller's, so a loop that reproduces an engine round passes
/// `Rng::seed_from_u64(caller_rng.next_u64())` here.
///
/// # Errors
///
/// Propagates transport failures ([`CommError`]).
pub fn allreduce_scratch(
    alg: Algorithm,
    t: &dyn Transport,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    match alg {
        Algorithm::ScatterReduceAllgather => sra(t, grad, comp, rng, pool),
        Algorithm::Ring => ring(t, grad, comp, rng, pool),
        Algorithm::Tree => tree(t, grad, comp, rng, pool),
        Algorithm::AllgatherBroadcast => gather(t, grad, comp, rng, pool),
    }
}

/// Scatter-Reduce-Allgather: two rounds, one aggregation point per chunk.
fn sra(
    t: &dyn Transport,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    let n = t.world();
    let ranges = chunk_ranges(grad.len(), n);
    let me = t.rank();
    let mut stats = AllreduceStats::default();
    if n == 1 {
        return Ok((grad.clone(), stats));
    }
    stats.max_in_flight = 1;
    let gslice = grad.as_slice();
    // Phase 1: send each peer its chunk of my gradient.
    for (j, range) in ranges.iter().enumerate() {
        if j == me || range.is_empty() {
            continue;
        }
        let enc = timed(&mut stats.compress_ns, || {
            comp.compress_slice_at(range.start, &gslice[range.clone()], rng, pool)
        });
        stats.compress_calls += 1;
        stats.bytes_sent += enc.payload_bytes();
        t.send(j, enc)?;
    }
    // Aggregate my chunk: peers' payloads decode-accumulate straight into
    // pooled scratch, in strict global rank order *including my own
    // contribution* (float addition is not associative — the fixed order
    // keeps every rank's sums bit-equal). Because the order is purely
    // rank-indexed and never depends on which rank owns the chunk, the
    // per-element sum is invariant under re-chunking — the property that
    // lets the communication engine coalesce small layers and segment
    // large ones without perturbing lossless results.
    // The ranges partition the gradient and every non-empty range is
    // overwritten by a decompress below, so `out` needs no copy of the
    // input — zeros (one memset) instead of a clone (read + write).
    let mut out = Tensor::zeros(grad.shape().dims());
    if !ranges[me].is_empty() {
        let mut mine = pool.take_f32(ranges[me].len());
        for j in 0..n {
            if j == me {
                let own = &gslice[ranges[me].clone()];
                if j == 0 {
                    mine.copy_from_slice(own);
                } else {
                    for (m, g) in mine.iter_mut().zip(own) {
                        *m += *g;
                    }
                }
                continue;
            }
            let enc = timed(&mut stats.wait_ns, || recv_chunk(t, j, mine.len()))?;
            timed(&mut stats.decode_ns, || match j {
                0 => comp.decompress_into(&enc, &mut mine),
                _ => comp.decompress_add_into(&enc, &mut mine),
            })
            .map_err(sent_by(j))?;
            stats.decompress_calls += 1;
            pool.recycle(enc);
        }
        // Phase 2: broadcast the aggregate; decode my own encoding so
        // every rank holds bit-identical values (consensus).
        let enc = timed(&mut stats.compress_ns, || {
            comp.compress_slice_at(ranges[me].start, &mine, rng, pool)
        });
        stats.compress_calls += 1;
        stats.bytes_sent += enc.payload_bytes() * (n - 1);
        t.broadcast(&enc)?;
        timed(&mut stats.decode_ns, || {
            comp.decompress_into(&enc, &mut out.as_mut_slice()[ranges[me].clone()])
        })
        .map_err(sent_by(me))?;
        stats.decompress_calls += 1;
        pool.recycle(enc);
        pool.put_f32(mine);
    }
    for (j, range) in ranges.iter().enumerate() {
        if j == me || range.is_empty() {
            continue;
        }
        let enc = timed(&mut stats.wait_ns, || recv_chunk(t, j, range.len()))?;
        timed(&mut stats.decode_ns, || {
            comp.decompress_into(&enc, &mut out.as_mut_slice()[range.clone()])
        })
        .map_err(sent_by(j))?;
        stats.decompress_calls += 1;
        pool.recycle(enc);
    }
    Ok((out, stats))
}

/// Chunked Ring-Allreduce: the reduce-scatter phase re-quantizes at every
/// hop; the allgather phase relays immutable encoded chunks.
fn ring(
    t: &dyn Transport,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    let n = t.world();
    let ranges = chunk_ranges(grad.len(), n);
    let me = t.rank();
    let mut stats = AllreduceStats::default();
    if n == 1 {
        return Ok((grad.clone(), stats));
    }
    stats.max_in_flight = 1;
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let gslice = grad.as_slice();
    let mut chunks: Vec<Option<Vec<f32>>> = ranges
        .iter()
        .map(|r| {
            (!r.is_empty()).then(|| {
                let mut v = pool.take_f32(r.len());
                v.copy_from_slice(&gslice[r.clone()]);
                v
            })
        })
        .collect();
    // Reduce-scatter: after step s, chunk (me - s) has absorbed s+1 inputs.
    for s in 0..n - 1 {
        let send_idx = (me + n - s) % n;
        let recv_idx = (me + n - s - 1) % n;
        if let Some(c) = &chunks[send_idx] {
            let enc = timed(&mut stats.compress_ns, || {
                comp.compress_slice_at(ranges[send_idx].start, c, rng, pool)
            });
            stats.compress_calls += 1;
            stats.bytes_sent += enc.payload_bytes();
            t.send(right, enc)?;
        }
        if let Some(c) = chunks[recv_idx].as_mut() {
            let enc = timed(&mut stats.wait_ns, || recv_chunk(t, left, c.len()))?;
            timed(&mut stats.decode_ns, || comp.decompress_add_into(&enc, c))
                .map_err(sent_by(left))?;
            stats.decompress_calls += 1;
            pool.recycle(enc);
        }
    }
    // I now own the fully-reduced chunk (me + 1) % n. Compress it once and
    // relay: every rank decodes identical bytes per chunk.
    let owned_idx = (me + 1) % n;
    let mut encs: Vec<Option<Encoded>> = vec![None; n];
    if let Some(c) = &chunks[owned_idx] {
        let enc = timed(&mut stats.compress_ns, || {
            comp.compress_slice_at(ranges[owned_idx].start, c, rng, pool)
        });
        stats.compress_calls += 1;
        encs[owned_idx] = Some(enc);
    }
    for s in 0..n - 1 {
        let send_idx = (me + 1 + n - s) % n;
        let recv_idx = (me + n - s) % n;
        if let Some(enc) = &encs[send_idx] {
            stats.bytes_sent += enc.payload_bytes();
            t.send(right, enc.clone())?;
        } else if !ranges[send_idx].is_empty() {
            unreachable!("chunk {send_idx} should have an encoding by step {s}");
        }
        let want = ranges[recv_idx].len();
        if want > 0 {
            let enc = timed(&mut stats.wait_ns, || recv_chunk(t, left, want))?;
            encs[recv_idx] = Some(enc);
        }
    }
    let mut out = grad.clone();
    for (i, r) in ranges.iter().enumerate() {
        if r.is_empty() {
            continue;
        }
        let enc = encs[i].as_ref().expect("all chunks gathered");
        timed(&mut stats.decode_ns, || {
            comp.decompress_into(enc, &mut out.as_mut_slice()[r.clone()])
        })
        .map_err(sent_by(left))?;
        stats.decompress_calls += 1;
    }
    for enc in encs.into_iter().flatten() {
        pool.recycle(enc);
    }
    for c in chunks.into_iter().flatten() {
        pool.put_f32(c);
    }
    Ok((out, stats))
}

/// Binomial-tree Allreduce (hierarchical parameter server): reduce to rank
/// 0 with a re-quantization per level, then relay rank 0's encoding down.
fn tree(
    t: &dyn Transport,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    let n = t.world();
    let me = t.rank();
    let mut stats = AllreduceStats::default();
    if n == 1 {
        return Ok((grad.clone(), stats));
    }
    stats.max_in_flight = 1;
    // Whole-tensor encodes (the tensor's shape, not a slice's) so
    // shape-sensitive codecs see the original tensor geometry.
    let mut acc = grad.clone();
    // Reduce up the tree.
    let mut span = 1;
    while span < n {
        if me % (2 * span) == span {
            let enc = timed(&mut stats.compress_ns, || {
                comp.encode(acc.shape().clone(), 0, acc.as_slice(), rng, pool)
            });
            stats.compress_calls += 1;
            stats.bytes_sent += enc.payload_bytes();
            t.send(me - span, enc)?;
            break;
        }
        if me.is_multiple_of(2 * span) && me + span < n {
            let enc = timed(&mut stats.wait_ns, || recv_chunk(t, me + span, acc.len()))?;
            timed(&mut stats.decode_ns, || {
                comp.decompress_add_into(&enc, acc.as_mut_slice())
            })
            .map_err(sent_by(me + span))?;
            stats.decompress_calls += 1;
            pool.recycle(enc);
        }
        span *= 2;
    }
    // Broadcast the root's single encoding down the same tree.
    let mut top = 1usize;
    while top < n {
        top *= 2;
    }
    let root_enc: Encoded = if me == 0 {
        let enc = timed(&mut stats.compress_ns, || {
            comp.encode(acc.shape().clone(), 0, acc.as_slice(), rng, pool)
        });
        stats.compress_calls += 1;
        enc
    } else {
        // Find the span at which I will receive: the lowest set bit of me.
        let recv_span = me & me.wrapping_neg();
        let mut enc = None;
        let mut s = top / 2;
        while s >= 1 {
            if s == recv_span {
                enc = Some(timed(&mut stats.wait_ns, || {
                    recv_chunk(t, me - s, grad.len())
                })?);
                break;
            }
            s /= 2;
        }
        enc.expect("every non-root rank has a parent")
    };
    // Relay downward.
    let mut s = if me == 0 {
        top / 2
    } else {
        (me & me.wrapping_neg()) / 2
    };
    while s >= 1 {
        if me + s < n {
            stats.bytes_sent += root_enc.payload_bytes();
            t.send(me + s, root_enc.clone())?;
        }
        s /= 2;
    }
    let parent = me - (me & me.wrapping_neg());
    let out =
        timed(&mut stats.decode_ns, || comp.decompress(&root_enc)).map_err(sent_by(parent))?;
    stats.decompress_calls += 1;
    pool.recycle(root_enc);
    Ok((out, stats))
}

/// Allgather-broadcast (the GRACE implementation strategy): every rank
/// broadcasts its compressed gradient; everyone decodes and sums all `n`.
fn gather(
    t: &dyn Transport,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    let n = t.world();
    let me = t.rank();
    let mut stats = AllreduceStats::default();
    if n == 1 {
        return Ok((grad.clone(), stats));
    }
    stats.max_in_flight = 1;
    let enc = timed(&mut stats.compress_ns, || {
        comp.encode(grad.shape().clone(), 0, grad.as_slice(), rng, pool)
    });
    stats.compress_calls += 1;
    stats.bytes_sent += enc.payload_bytes() * (n - 1);
    t.broadcast(&enc)?;
    // Decode all n encodings (own included, for consensus) and sum them in
    // global rank order — float addition is not associative, so a fixed
    // order is required for bit-identical results across ranks.
    let mut encs: Vec<Option<Encoded>> = vec![None; n];
    encs[me] = Some(enc);
    for (j, slot) in encs.iter_mut().enumerate() {
        if j != me {
            *slot = Some(timed(&mut stats.wait_ns, || recv_chunk(t, j, grad.len()))?);
        }
    }
    let mut out = Tensor::zeros(grad.shape().dims());
    for (j, e) in encs.iter().flatten().enumerate() {
        timed(&mut stats.decode_ns, || {
            comp.decompress_add_into(e, out.as_mut_slice())
        })
        .map_err(sent_by(j))?;
        stats.decompress_calls += 1;
    }
    for e in encs.into_iter().flatten() {
        pool.recycle(e);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ThreadCluster;
    use cgx_compress::{NoneCompressor, QsgdCompressor};

    /// `allreduce_scratch` over a pool of its own: the sum and the stats.
    fn reduce(
        alg: Algorithm,
        t: &dyn Transport,
        grad: &Tensor,
        comp: &mut dyn Compressor,
        rng: &mut Rng,
    ) -> (Tensor, AllreduceStats) {
        allreduce_scratch(alg, t, grad, comp, rng, &ScratchPool::new()).unwrap()
    }

    fn run_exact(alg: Algorithm, n: usize, len: usize) {
        let results = ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(100 + t.rank() as u64);
            let grad = Tensor::from_vec(&[len], (0..len).map(|i| (t.rank() + i) as f32).collect());
            let mut c = NoneCompressor::new();
            reduce(alg, &t, &grad, &mut c, &mut rng).0
        })
        .unwrap();
        let expected: Vec<f32> = (0..len)
            .map(|i| (0..n).map(|r| (r + i) as f32).sum())
            .collect();
        for (rank, r) in results.iter().enumerate() {
            assert_eq!(r.as_slice(), expected.as_slice(), "{alg:?} rank {rank}");
        }
    }

    #[test]
    fn sra_exact_with_lossless_codec() {
        run_exact(Algorithm::ScatterReduceAllgather, 4, 37);
    }

    #[test]
    fn ring_exact_with_lossless_codec() {
        run_exact(Algorithm::Ring, 4, 37);
        run_exact(Algorithm::Ring, 5, 101);
    }

    #[test]
    fn tree_exact_with_lossless_codec() {
        run_exact(Algorithm::Tree, 4, 37);
        run_exact(Algorithm::Tree, 8, 64);
        // Non-power-of-two world sizes.
        run_exact(Algorithm::Tree, 5, 23);
        run_exact(Algorithm::Tree, 7, 40);
        run_exact(Algorithm::Tree, 3, 8);
    }

    #[test]
    fn gather_exact_with_lossless_codec() {
        run_exact(Algorithm::AllgatherBroadcast, 6, 50);
    }

    #[test]
    fn tiny_tensors_with_more_ranks_than_elements() {
        for alg in Algorithm::all() {
            run_exact(alg, 6, 3);
        }
    }

    #[test]
    fn two_rank_world() {
        for alg in Algorithm::all() {
            run_exact(alg, 2, 16);
        }
    }

    fn consensus_and_error(alg: Algorithm, n: usize) -> (bool, f64) {
        let len = 2048usize;
        let results = ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(500 + t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            let mut c = QsgdCompressor::new(4, 128);
            let (out, _) = reduce(alg, &t, &grad, &mut c, &mut rng);
            (grad, out)
        })
        .unwrap();
        let mut true_sum = Tensor::zeros(&[len]);
        for (g, _) in &results {
            true_sum.add_assign(g);
        }
        let consensus = results
            .iter()
            .all(|(_, out)| out.as_slice() == results[0].1.as_slice());
        let err = results[0].1.l2_distance(&true_sum) / true_sum.norm2();
        (consensus, err)
    }

    #[test]
    fn quantized_reductions_reach_consensus() {
        for alg in Algorithm::all() {
            let (consensus, err) = consensus_and_error(alg, 4);
            assert!(consensus, "{alg:?} ranks disagree");
            assert!(err < 0.5, "{alg:?} relative error {err}");
        }
    }

    #[test]
    fn ring_requantization_hurts_more_than_sra() {
        // Average over a few worlds: the ring's per-hop re-quantization
        // must produce at least as much error as SRA's single aggregation.
        let mut ring_err = 0.0;
        let mut sra_err = 0.0;
        for _ in 0..3 {
            ring_err += consensus_and_error(Algorithm::Ring, 8).1;
            sra_err += consensus_and_error(Algorithm::ScatterReduceAllgather, 8).1;
        }
        assert!(
            ring_err > sra_err,
            "ring {ring_err} should exceed sra {sra_err}"
        );
    }

    #[test]
    fn gather_bandwidth_cost_scales_with_world() {
        let n = 6;
        let stats = ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[1200]);
            let mut c = NoneCompressor::new();
            reduce(Algorithm::AllgatherBroadcast, &t, &grad, &mut c, &mut rng).1
        })
        .unwrap();
        for s in &stats {
            assert_eq!(s.bytes_sent, 1200 * 4 * (n - 1));
            assert_eq!(s.compress_calls, 1);
        }
    }

    #[test]
    fn sra_bandwidth_cost_is_two_passes_over_the_data() {
        let n = 4;
        let len = 4096;
        let stats = ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            let mut c = NoneCompressor::new();
            let sra = Algorithm::ScatterReduceAllgather;
            reduce(sra, &t, &grad, &mut c, &mut rng).1
        })
        .unwrap();
        for s in &stats {
            // (n-1) chunks out + (n-1) copies of my aggregated chunk.
            assert_eq!(s.bytes_sent, 2 * (n - 1) * (len / n) * 4);
        }
    }

    #[test]
    fn kernel_call_counts_are_analytic() {
        // The fused path must invoke compress/decompress exactly as often
        // as the unfused implementation did.
        let n = 4usize;
        let len = 4096usize;
        for (alg, compress, decompress) in [
            // SRA: (n-1) chunk sends + 1 aggregate; (n-1) peer chunks +
            // 1 own consensus decode + (n-1) gathered chunks.
            (Algorithm::ScatterReduceAllgather, n, 2 * n - 1),
            // Ring: (n-1) reduce-scatter hops + 1 relay encode; (n-1)
            // reduce-scatter decodes + n final chunk decodes.
            (Algorithm::Ring, n, 2 * n - 1),
            // Gather: 1 broadcast; all n encodings decoded.
            (Algorithm::AllgatherBroadcast, 1, n),
        ] {
            let stats = ThreadCluster::run(n, |t| {
                let mut rng = Rng::seed_from_u64(40 + t.rank() as u64);
                let grad = Tensor::randn(&mut rng, &[len]);
                let mut c = QsgdCompressor::new(4, 128);
                reduce(alg, &t, &grad, &mut c, &mut rng).1
            })
            .unwrap();
            for s in &stats {
                assert_eq!(s.compress_calls, compress, "{alg:?}");
                assert_eq!(s.decompress_calls, decompress, "{alg:?}");
            }
        }
    }

    #[test]
    fn steady_state_sra_is_allocation_free() {
        // With a sufficiently prewarmed shared pool, multiple allreduce
        // steps across 4 ranks must never allocate an encode buffer or f32
        // accumulator: the allocation counter stays at zero.
        let n = 4usize;
        let len = 1024usize;
        let pool = ScratchPool::new();
        let cap = QsgdCompressor::new(4, 128).compressed_bytes(len);
        // Generous margin over the worst-case number of simultaneously
        // outstanding buffers (ranks overlap by at most ~2 steps).
        pool.prewarm(128, cap);
        pool.prewarm_f32(16, len / n);
        let shared = pool.clone();
        ThreadCluster::run(n, move |t| {
            let pool = shared.clone();
            let mut rng = Rng::seed_from_u64(700 + t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            let mut c = QsgdCompressor::new(4, 128);
            for _ in 0..5 {
                allreduce_scratch(
                    Algorithm::ScatterReduceAllgather,
                    &t,
                    &grad,
                    &mut c,
                    &mut rng,
                    &pool,
                )
                .unwrap();
            }
        })
        .unwrap();
        assert_eq!(
            pool.allocations(),
            0,
            "steady-state allreduce allocated in the compression path"
        );
        assert!(pool.reuses() > 0, "pool was never used");
    }

    #[test]
    fn pooled_and_unpooled_allreduce_agree_bitwise() {
        // Same seeds, same gradients: the fused/pooled path must decode to
        // exactly the bytes the per-call-pool path does.
        for alg in Algorithm::all() {
            let shared = ScratchPool::new();
            let pooled = ThreadCluster::run(4, move |t| {
                let pool = shared.clone();
                let mut rng = Rng::seed_from_u64(60 + t.rank() as u64);
                let grad = Tensor::randn(&mut rng, &[513]);
                let mut c = QsgdCompressor::new(4, 128);
                allreduce_scratch(alg, &t, &grad, &mut c, &mut rng, &pool)
                    .unwrap()
                    .0
            })
            .unwrap();
            let plain = ThreadCluster::run(4, move |t| {
                let mut rng = Rng::seed_from_u64(60 + t.rank() as u64);
                let grad = Tensor::randn(&mut rng, &[513]);
                let mut c = QsgdCompressor::new(4, 128);
                reduce(alg, &t, &grad, &mut c, &mut rng).0
            })
            .unwrap();
            for (a, b) in pooled.iter().zip(&plain) {
                assert_eq!(a.as_slice(), b.as_slice(), "{alg:?}");
            }
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (len, n) in [(10usize, 3usize), (3, 5), (0, 4), (100, 1), (7, 7)] {
            let rs = chunk_ranges(len, n);
            assert_eq!(rs.len(), n);
            let mut covered = 0;
            let mut next = 0;
            for r in &rs {
                assert_eq!(r.start, next);
                next = r.end;
                covered += r.len();
            }
            assert_eq!(covered, len, "len={len} n={n}");
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        let rs = chunk_ranges(10, 3);
        let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn chunk_ranges_len_below_n_yields_singletons_then_empties() {
        // Exhaustive over the len < n edge: the first `len` ranges are
        // singletons i..i+1 and the remaining n-len ranges are empty,
        // pinned at `len` so starts stay monotone.
        for n in 1usize..12 {
            for len in 0..n {
                let rs = chunk_ranges(len, n);
                assert_eq!(rs.len(), n);
                for (i, r) in rs.iter().enumerate() {
                    if i < len {
                        assert_eq!(r.clone(), i..i + 1, "len={len} n={n} i={i}");
                    } else {
                        assert!(r.is_empty(), "len={len} n={n} i={i}");
                        assert_eq!(r.start, len, "len={len} n={n} i={i}");
                    }
                }
            }
        }
    }
}
