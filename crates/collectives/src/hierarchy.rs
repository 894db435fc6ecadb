//! Node-aware hierarchical allreduce.
//!
//! The paper's multi-node deployments (Table 5) never run the compressed
//! collective flat across every GPU: intra-node links (NVLink/SHM) are an
//! order of magnitude faster than the inter-node network, so the reduction
//! is staged — GPUs on one node first combine locally at full precision,
//! one *leader* per node then runs the compressed scatter-reduce-allgather
//! against the other leaders over the slow links, and the consensus result
//! fans back out locally. Compression is spent exactly where bandwidth is
//! scarce; the cheap links carry raw floats and contribute no extra
//! quantization error.
//!
//! [`Topology`] describes which rank lives on which node;
//! [`allreduce_hierarchical`] executes the three stages over any
//! [`Transport`] (thread-backed SHM, TCP sockets, or a mix — the
//! transport's rank space is flat; the topology is what layers it).
//! Consensus is preserved: the leader exchange is the bit-exact SRA, and
//! both intra-node hops move raw little-endian `f32`s, so every rank in
//! the world finishes with byte-identical output.

use crate::error::CommError;
use crate::membership::{Membership, MembershipView};
use crate::reduce::{allreduce_sra_scratch, AllreduceStats};
use crate::transport::{collective_tag, Tag, Transport};
use cgx_compress::{Compressor, Encoded, ScratchPool};
use cgx_tensor::{Rng, Tensor};

/// Phase byte for the intra-node member -> leader gather. Engine
/// collectives only emit phases 1 and 2 and membership gossip uses
/// [`crate::transport::MEMBERSHIP_PHASE`], so these lanes never alias.
const UP_PHASE: u8 = 0xA1;
/// Phase byte for the intra-node leader -> member result broadcast.
const DOWN_PHASE: u8 = 0xA2;

fn up_tag() -> Tag {
    collective_tag(0, 0, UP_PHASE)
}

fn down_tag() -> Tag {
    collective_tag(0, 0, DOWN_PHASE)
}

/// Which node each rank lives on: `node_of[rank]` is an arbitrary node id.
/// The lowest rank on each node is its leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    node_of: Vec<usize>,
}

impl Topology {
    /// Builds a topology from a per-rank node assignment.
    ///
    /// # Panics
    ///
    /// Panics if `node_of` is empty.
    pub fn new(node_of: Vec<usize>) -> Self {
        assert!(!node_of.is_empty(), "topology needs at least one rank");
        Topology { node_of }
    }

    /// Every rank on one node — hierarchical reduce degenerates to the
    /// intra-node gather/broadcast with no leader exchange.
    pub fn single_node(world: usize) -> Self {
        Topology::new(vec![0; world])
    }

    /// `nodes` nodes of `per_node` consecutive ranks each (the layout of
    /// a homogeneous cluster launched rank-major).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn grouped(nodes: usize, per_node: usize) -> Self {
        assert!(nodes > 0 && per_node > 0, "need at least one rank");
        Topology::new((0..nodes * per_node).map(|r| r / per_node).collect())
    }

    /// Number of ranks described.
    pub fn world(&self) -> usize {
        self.node_of.len()
    }

    /// The node id of `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// The leader (lowest rank) of `rank`'s node.
    pub fn leader_of(&self, rank: usize) -> usize {
        let node = self.node_of[rank];
        (0..self.node_of.len())
            .find(|&r| self.node_of[r] == node)
            .expect("rank's own node always has a member")
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// All leaders in ascending rank order — the inter-node subgroup.
    pub fn leaders(&self) -> Vec<usize> {
        (0..self.node_of.len())
            .filter(|&r| self.is_leader(r))
            .collect()
    }

    /// The ranks sharing `rank`'s node, ascending (including `rank`).
    pub fn node_peers(&self, rank: usize) -> Vec<usize> {
        let node = self.node_of[rank];
        (0..self.node_of.len())
            .filter(|&r| self.node_of[r] == node)
            .collect()
    }

    /// Number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.leaders().len()
    }
}

/// Serializes a float slice as raw little-endian bytes for the lossless
/// intra-node hops.
fn raw_encode(shape: &cgx_tensor::Shape, data: &[f32]) -> Encoded {
    let mut buf = Vec::with_capacity(data.len() * 4);
    for v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Encoded::new(shape.clone(), buf.into())
}

/// Decodes a raw little-endian float payload into `out`.
fn raw_decode(bytes: &[u8], out: &mut [f32]) -> Result<(), CommError> {
    if bytes.len() != out.len() * 4 {
        return Err(CommError::ShapeMismatch {
            detail: format!(
                "raw intra-node payload: expected {} bytes, got {}",
                out.len() * 4,
                bytes.len()
            ),
        });
    }
    for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    Ok(())
}

/// Three-stage node-aware allreduce: intra-node raw gather to the node
/// leader, compressed SRA across the leaders, raw intra-node broadcast of
/// the consensus result.
///
/// The intra-node sum is accumulated in strict ascending rank order
/// (including the leader's own contribution at its rank position), and
/// the leader exchange is the bit-exact SRA, so all ranks return
/// byte-identical tensors. `comp` is only invoked on leaders — members of
/// a multi-rank node never touch the compressor (paper: compression lives
/// on the inter-node links).
///
/// # Errors
///
/// Propagates transport failures; [`CommError::ShapeMismatch`] if a peer
/// delivers a geometry that disagrees with `grad`.
///
/// # Panics
///
/// Panics if `topo.world()` differs from the transport's world.
pub fn allreduce_hierarchical(
    t: &dyn Transport,
    topo: &Topology,
    grad: &Tensor,
    comp: &mut dyn Compressor,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    assert_eq!(
        topo.world(),
        t.world(),
        "topology describes a different world than the transport"
    );
    let me = t.rank();
    let mut stats = AllreduceStats::default();
    if t.world() == 1 {
        return Ok((grad.clone(), stats));
    }
    stats.max_in_flight = 1;
    let leader = topo.leader_of(me);
    if me != leader {
        // Member: raw gradient up, consensus result down.
        let enc = raw_encode(grad.shape(), grad.as_slice());
        stats.bytes_sent += enc.payload_bytes();
        t.send_tagged(leader, up_tag(), enc)?;
        let down = t.recv_tagged(leader, down_tag())?;
        let mut out = grad.clone();
        raw_decode(down.payload(), out.as_mut_slice())?;
        return Ok((out, stats));
    }
    // Leader: accumulate the node's gradients in ascending rank order.
    let peers = topo.node_peers(me);
    let mut sum = pool.take_f32(grad.len());
    sum.iter_mut().for_each(|v| *v = 0.0);
    for &r in &peers {
        if r == me {
            for (s, g) in sum.iter_mut().zip(grad.as_slice()) {
                *s += *g;
            }
        } else {
            let enc = t.recv_tagged(r, up_tag())?;
            if enc.shape().len() != grad.len() {
                return Err(CommError::ShapeMismatch {
                    detail: format!(
                        "intra-node gather from rank {r}: expected {} elements, got {}",
                        grad.len(),
                        enc.shape().len()
                    ),
                });
            }
            let payload = enc.payload();
            if payload.len() != grad.len() * 4 {
                return Err(CommError::ShapeMismatch {
                    detail: format!(
                        "intra-node gather from rank {r}: expected {} bytes, got {}",
                        grad.len() * 4,
                        payload.len()
                    ),
                });
            }
            for (s, chunk) in sum.iter_mut().zip(payload.chunks_exact(4)) {
                *s += f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
    }
    let node_sum = Tensor::from_vec(grad.shape().dims(), sum);
    // Compressed exchange across the leader subgroup (skipped when this
    // node is alone in the world).
    let leaders = topo.leaders();
    let reduced = if leaders.len() > 1 {
        let subgroup = Membership::of_ranks(t.world(), &leaders);
        let view = MembershipView::new(t, &subgroup);
        let (reduced, sra) = allreduce_sra_scratch(&view, &node_sum, comp, rng, pool)?;
        stats.merge(&sra);
        reduced
    } else {
        node_sum
    };
    // Fan the consensus result back out, raw.
    let down = raw_encode(reduced.shape(), reduced.as_slice());
    for &r in &peers {
        if r != me {
            stats.bytes_sent += down.payload_bytes();
            t.send_tagged(r, down_tag(), down.clone())?;
        }
    }
    Ok((reduced, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ThreadCluster;
    use crate::reduce::allreduce_sra;
    use cgx_compress::{CompressionScheme, NoneCompressor};

    #[test]
    fn raw_hop_payload_is_little_endian_f32s() {
        let enc = raw_encode(&cgx_tensor::Shape::vector(2), &[1.0, -2.5]);
        assert_eq!(enc.payload()[..], [0, 0, 0x80, 0x3f, 0, 0, 0x20, 0xc0]);
        let mut back = [0.0; 2];
        raw_decode(enc.payload(), &mut back).expect("sizes match");
        assert_eq!(back, [1.0, -2.5]);
    }

    #[test]
    fn topology_maps_are_consistent() {
        let topo = Topology::new(vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(topo.world(), 6);
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.leaders(), vec![0, 2, 5]);
        assert!(topo.is_leader(2) && !topo.is_leader(3));
        assert_eq!(topo.leader_of(4), 2);
        assert_eq!(topo.node_peers(3), vec![2, 3, 4]);
        let grouped = Topology::grouped(2, 2);
        assert_eq!(grouped, Topology::new(vec![0, 0, 1, 1]));
        assert_eq!(Topology::single_node(4).leaders(), vec![0]);
    }

    #[test]
    fn hierarchical_sum_is_exact_on_integer_tensors() {
        // Integer-valued grads: float addition is exact, so the staged
        // sum must equal the flat sum regardless of association order.
        let topo = Topology::grouped(2, 2);
        let results = ThreadCluster::run(4, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grad = Tensor::full(&[33], (t.rank() + 1) as f32);
            let mut c = NoneCompressor::new();
            allreduce_hierarchical(&t, &topo, &grad, &mut c, &mut rng, &ScratchPool::new())
                .unwrap()
                .0
        })
        .unwrap();
        for r in &results {
            assert!(r.as_slice().iter().all(|&v| v == 10.0), "1+2+3+4 = 10");
        }
    }

    #[test]
    fn all_ranks_reach_byte_identical_consensus_under_compression() {
        let topo = Topology::new(vec![0, 0, 0, 1, 1, 1]);
        let results = ThreadCluster::run(6, |t| {
            let mut rng = Rng::seed_from_u64(7 + t.rank() as u64);
            let data: Vec<f32> = (0..257)
                .map(|i| ((i * (t.rank() + 3)) as f32).sin())
                .collect();
            let grad = Tensor::from_vec(&[257], data);
            let mut c = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 64,
            }
            .build();
            allreduce_hierarchical(&t, &topo, &grad, c.as_mut(), &mut rng, &ScratchPool::new())
                .unwrap()
                .0
        })
        .unwrap();
        for r in &results[1..] {
            assert_eq!(
                r.as_slice(),
                results[0].as_slice(),
                "hierarchical consensus broke"
            );
        }
    }

    #[test]
    fn single_node_topology_skips_the_leader_exchange() {
        let topo = Topology::single_node(3);
        let results = ThreadCluster::run(3, |t| {
            let mut rng = Rng::seed_from_u64(3);
            let grad = Tensor::full(&[8], t.rank() as f32);
            let mut c = NoneCompressor::new();
            let (out, stats) =
                allreduce_hierarchical(&t, &topo, &grad, &mut c, &mut rng, &ScratchPool::new())
                    .unwrap();
            (out, stats.compress_calls)
        })
        .unwrap();
        for (out, compress_calls) in &results {
            assert!(out.as_slice().iter().all(|&v| v == 3.0), "0+1+2 = 3");
            // No inter-node hop anywhere: the compressor never ran.
            assert_eq!(*compress_calls, 0);
        }
    }

    #[test]
    fn members_never_invoke_the_compressor() {
        let topo = Topology::grouped(2, 2);
        let calls = ThreadCluster::run(4, |t| {
            let mut rng = Rng::seed_from_u64(1);
            let grad = Tensor::full(&[64], 1.0);
            let mut c = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 64,
            }
            .build();
            let (_, stats) =
                allreduce_hierarchical(&t, &topo, &grad, c.as_mut(), &mut rng, &ScratchPool::new())
                    .unwrap();
            (t.rank(), stats.compress_calls)
        })
        .unwrap();
        for (rank, compress_calls) in &calls {
            if topo.is_leader(*rank) {
                assert!(*compress_calls > 0, "leader {rank} never compressed");
            } else {
                assert_eq!(*compress_calls, 0, "member {rank} compressed");
            }
        }
    }

    #[test]
    fn hierarchical_matches_flat_when_one_rank_per_node() {
        // One rank per node makes the intra-node stages identity and the
        // leader set the whole world: hierarchical must be bit-identical
        // to flat SRA (same compressor, same rng stream).
        let topo = Topology::new(vec![0, 1, 2, 3]);
        let results = ThreadCluster::run(4, |t| {
            let grad = Tensor::from_vec(
                &[65],
                (0..65).map(|i| (i as f32 * 0.37) - t.rank() as f32).collect(),
            );
            let scheme = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 32,
            };
            let mut rng_h = Rng::seed_from_u64(11 + t.rank() as u64);
            let mut c_h = scheme.build();
            let h = allreduce_hierarchical(
                &t,
                &topo,
                &grad,
                c_h.as_mut(),
                &mut rng_h,
                &ScratchPool::new(),
            )
            .unwrap()
            .0;
            let mut rng_f = Rng::seed_from_u64(11 + t.rank() as u64);
            let mut c_f = scheme.build();
            let f = allreduce_sra(&t, &grad, c_f.as_mut(), &mut rng_f).unwrap().0;
            (h, f)
        })
        .unwrap();
        for (h, f) in &results {
            assert_eq!(h.as_slice(), f.as_slice(), "degenerate hierarchy diverged");
        }
    }
}
