//! Analytic cost models for the reduction schemes of paper Section 3.
//!
//! All times follow the α-β convention: a round costs a fixed latency α plus
//! transmitted bytes divided by the per-GPU stream bandwidth. Payload sizes
//! are *wire* (compressed) bytes, so compression enters the model exactly.

use std::fmt;

/// The Allreduce algorithms CGX implements (paper Section 3, Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReductionScheme {
    /// Scatter-Reduce-Allgather: two rounds, bandwidth cost `O(d(N-1)/N)`
    /// per GPU, and only **one** compress/decompress round-trip — the
    /// scheme CGX selects (lowest compression error, chunk streams can be
    /// parallelized).
    #[default]
    ScatterReduceAllgather,
    /// Ring-Allreduce: bandwidth-optimal but `2(N-1)` latency rounds, and a
    /// compressed payload is re-quantized at every hop.
    Ring,
    /// Tree/hierarchical parameter-server: `2 log N` rounds shipping the
    /// full buffer, with re-quantization at each level.
    Tree,
    /// Broadcast-everything Allgather (the GRACE implementation strategy):
    /// one round but `(N-1)` full payloads per GPU.
    AllgatherBroadcast,
}

impl ReductionScheme {
    /// All schemes, in Figure 10 order.
    pub fn all() -> [ReductionScheme; 4] {
        [
            ReductionScheme::ScatterReduceAllgather,
            ReductionScheme::Ring,
            ReductionScheme::Tree,
            ReductionScheme::AllgatherBroadcast,
        ]
    }

    /// Number of sequential compress-decompress round-trips a gradient
    /// suffers end to end. Determines compression-error accumulation (why
    /// SRA wins accuracy-wise) and kernel-time accounting.
    pub(crate) fn requantization_rounds(self, n: usize) -> usize {
        match self {
            ReductionScheme::ScatterReduceAllgather => 2,
            ReductionScheme::Ring => n.max(2), // re-quantized at each of N-1 hops
            ReductionScheme::Tree => 2 * (n.max(2)).ilog2() as usize,
            ReductionScheme::AllgatherBroadcast => 1,
        }
    }
}

impl fmt::Display for ReductionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReductionScheme::ScatterReduceAllgather => "SRA",
            ReductionScheme::Ring => "Ring",
            ReductionScheme::Tree => "Tree",
            ReductionScheme::AllgatherBroadcast => "Allgather",
        };
        f.write_str(s)
    }
}

/// α-β parameters of one communication domain (intra-node bus or the
/// inter-node network).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Per-GPU (or per-node) concurrent stream bandwidth, bytes/s.
    pub(crate) stream_bw: f64,
    /// Per-round latency, seconds.
    pub alpha: f64,
}

impl CommCost {
    /// Creates a cost domain.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive or alpha is negative.
    pub fn new(stream_bw: f64, alpha: f64) -> Self {
        assert!(stream_bw > 0.0, "bandwidth must be positive");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        CommCost { stream_bw, alpha }
    }
}

/// Time for one Allreduce of a message whose *full compressed* payload is
/// `full_bytes`, across `n` ranks in a single domain.
///
/// Chunked schemes (SRA, Ring) operate on per-rank chunks of
/// `full_bytes / n` (compression is asymptotically linear in elements, so
/// the chunk wire size is the full wire size divided by `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn allreduce_time(scheme: ReductionScheme, n: usize, full_bytes: usize, cost: CommCost) -> f64 {
    assert!(n > 0, "need at least one rank");
    if n == 1 {
        return 0.0;
    }
    let d = full_bytes as f64;
    let chunk = d / n as f64;
    let bw = cost.stream_bw;
    let a = cost.alpha;
    match scheme {
        ReductionScheme::ScatterReduceAllgather => {
            // Two rounds; each GPU ships (N-1) chunks per round.
            2.0 * a + 2.0 * (n as f64 - 1.0) * chunk / bw
        }
        ReductionScheme::Ring => {
            // 2(N-1) rounds of one chunk each.
            2.0 * (n as f64 - 1.0) * (a + chunk / bw)
        }
        ReductionScheme::Tree => {
            // 2 log2(N) rounds shipping the full payload up/down the tree.
            let rounds = 2.0 * (n as f64).log2().ceil();
            rounds * (a + d / bw)
        }
        ReductionScheme::AllgatherBroadcast => {
            // One round; each GPU broadcasts its full payload to N-1 peers.
            a + (n as f64 - 1.0) * d / bw
        }
    }
}

/// Hierarchical Allreduce for multi-node clusters: an intra-node phase over
/// `gpus_per_node` ranks followed by an inter-node phase over `nodes` node
/// leaders (then the intra-node broadcast, folded into the first term).
///
/// This models CGX's heterogeneous transport (SHM within a node, NCCL/MPI
/// across nodes).
pub(crate) fn hierarchical_allreduce_time(
    scheme: ReductionScheme,
    gpus_per_node: usize,
    nodes: usize,
    full_bytes: usize,
    intra: CommCost,
    inter: CommCost,
) -> f64 {
    let intra_t = allreduce_time(scheme, gpus_per_node, full_bytes, intra);
    let inter_t = allreduce_time(scheme, nodes, full_bytes, inter);
    intra_t + inter_t
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1_000_000;

    fn c(bw_gbps: f64) -> CommCost {
        CommCost::new(bw_gbps * 1e9, 10e-6)
    }

    #[test]
    fn single_rank_is_free() {
        for s in ReductionScheme::all() {
            assert_eq!(allreduce_time(s, 1, 100 * MB, c(1.0)), 0.0);
        }
    }

    #[test]
    fn sra_matches_closed_form() {
        // 8 ranks, 80 MB, 2 GB/s: 2 * 7 * 10MB / 2e9 + 2a = 70 ms + 20 us.
        let t = allreduce_time(ReductionScheme::ScatterReduceAllgather, 8, 80 * MB, c(2.0));
        assert!((t - (0.07 + 2.0 * 10e-6)).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn sra_and_ring_share_bandwidth_term() {
        // With zero latency the two are identical; Ring only loses on α.
        let free = CommCost::new(1e9, 0.0);
        let sra = allreduce_time(ReductionScheme::ScatterReduceAllgather, 8, 10 * MB, free);
        let ring = allreduce_time(ReductionScheme::Ring, 8, 10 * MB, free);
        assert!((sra - ring).abs() < 1e-12);
        // With latency, Ring pays 2(N-1) rounds vs 2.
        let sra_l = allreduce_time(ReductionScheme::ScatterReduceAllgather, 8, 10 * MB, c(1.0));
        let ring_l = allreduce_time(ReductionScheme::Ring, 8, 10 * MB, c(1.0));
        assert!(ring_l > sra_l);
        assert!((ring_l - sra_l - 12.0 * 10e-6).abs() < 1e-9);
    }

    #[test]
    fn tree_pays_full_payload_per_round() {
        let tree = allreduce_time(ReductionScheme::Tree, 8, 10 * MB, c(1.0));
        let sra = allreduce_time(ReductionScheme::ScatterReduceAllgather, 8, 10 * MB, c(1.0));
        // Tree: 6 rounds x 10 MB = 60 MB vs SRA 17.5 MB.
        assert!(tree > 3.0 * sra);
    }

    #[test]
    fn allgather_scales_linearly_with_ranks() {
        let t4 = allreduce_time(ReductionScheme::AllgatherBroadcast, 4, 10 * MB, c(1.0));
        let t8 = allreduce_time(ReductionScheme::AllgatherBroadcast, 8, 10 * MB, c(1.0));
        assert!(t8 > 2.0 * t4 * 0.95);
    }

    #[test]
    fn time_monotone_in_bytes_and_inverse_in_bandwidth() {
        for s in ReductionScheme::all() {
            let small = allreduce_time(s, 8, 10 * MB, c(1.0));
            let big = allreduce_time(s, 8, 100 * MB, c(1.0));
            assert!(big > small, "{s}: bytes monotonicity");
            let fast = allreduce_time(s, 8, 10 * MB, c(10.0));
            assert!(fast < small, "{s}: bandwidth monotonicity");
        }
    }

    #[test]
    fn requantization_rounds_ordering() {
        // SRA's low requantization count is why it has the lowest
        // compression error (Figure 10 discussion).
        let n = 8;
        let sra = ReductionScheme::ScatterReduceAllgather.requantization_rounds(n);
        let ring = ReductionScheme::Ring.requantization_rounds(n);
        let tree = ReductionScheme::Tree.requantization_rounds(n);
        assert!(sra < ring);
        assert!(sra <= tree);
        assert_eq!(
            ReductionScheme::AllgatherBroadcast.requantization_rounds(n),
            1
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn invalid_cost_panics() {
        CommCost::new(0.0, 0.0);
    }
}
