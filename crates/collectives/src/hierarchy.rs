//! Node-aware hierarchical reduction: the two raw intra-node hops.
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
//! [`Topology`] describes which rank lives on which node. The leader
//! exchange is the [`CommEngine`](crate::engine::CommEngine) round a flat
//! world runs, over a [`MembershipView`](crate::membership::MembershipView)
//! of [`Topology::leaders`]; here are the hops around it, each over all of
//! a round's layers and any [`Transport`] (its rank space is flat; the
//! topology is what layers it): [`gather_up`] before the exchange,
//! [`fan_down`] on a leader as the engine redeems each layer,
//! [`receive_down`] on a member. The exchange is bit-exact and both hops
//! move raw little-endian `f32`s through [`NoneCompressor`], so every rank
//! ends byte-identical.

use crate::error::CommError;
use crate::reduce::{check_chunk, refused};
use crate::transport::{collective_tag, Tag, Transport};
use cgx_compress::{Compressor, Encoded, NoneCompressor};
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
    pub(crate) fn leader_of(&self, rank: usize) -> usize {
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
    pub(crate) fn node_peers(&self, rank: usize) -> Vec<usize> {
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

/// A hop's frame: `tensor` in its own shape, as FP32 (which draws nothing
/// from the RNG).
fn fp32(tensor: &Tensor) -> Encoded {
    NoneCompressor.compress(tensor, &mut Rng::seed_from_u64(0))
}

/// Receives `peer`'s next frame on `tag` and decodes it into `out`, added
/// on the way up and assigned on the way down.
fn recv_fp32(
    t: &dyn Transport,
    peer: usize,
    tag: Tag,
    out: &mut [f32],
    add: bool,
) -> Result<(), CommError> {
    let frame = check_chunk(t.recv_tagged(peer, tag)?, out.len(), peer, tag)?;
    match add {
        true => NoneCompressor.decompress_add_into(&frame, out),
        false => NoneCompressor.decompress_into(&frame, out),
    }
    .map_err(|e| refused(tag, peer, e))
}

/// The up hop, every layer of a round. A member ships each tensor raw to
/// its node's leader and keeps its own; a leader turns each tensor into
/// its node's sum, accumulated from `+0.0` in strict ascending rank order
/// (its own contribution first: the leader is the node's lowest rank), so
/// every leader adds the same floats in the same order whichever member's
/// frames land first. No compressor is involved — compression lives on the
/// leader exchange. Returns the payload bytes this rank sent.
///
/// # Errors
///
/// Propagates transport failures; [`CommError::ShapeMismatch`] on a leader
/// if a member's frame is not the length of the layer it is summed into.
///
/// # Panics
///
/// Panics if `topo.world()` differs from the transport's world.
pub fn gather_up(
    t: &dyn Transport,
    topo: &Topology,
    tensors: &mut [Tensor],
) -> Result<usize, CommError> {
    assert_eq!(
        topo.world(),
        t.world(),
        "topology describes a different world than the transport"
    );
    let me = t.rank();
    let leader = topo.leader_of(me);
    if me != leader {
        let mut sent = 0;
        for g in tensors.iter() {
            let enc = fp32(g);
            sent += enc.payload_bytes();
            t.send_tagged(leader, up_tag(), enc)?;
        }
        return Ok(sent);
    }
    let peers = topo.node_peers(me);
    for g in tensors.iter_mut() {
        let sum = g.as_mut_slice();
        // The sum starts at +0.0, not at the leader's own float: an own
        // -0.0 becomes +0.0, as in an accumulator that began zeroed.
        sum.iter_mut().for_each(|s| *s += 0.0);
        for &r in &peers[1..] {
            recv_fp32(t, r, up_tag(), sum, true)?;
        }
    }
    Ok(0)
}

/// The down hop on a leader, one layer: `result` raw to every member of
/// this node. Successive calls reach a member in call order, so a leader
/// fans each layer out as soon as the leader exchange hands it back.
/// Returns the payload bytes sent.
///
/// # Errors
///
/// Propagates transport failures.
pub fn fan_down(t: &dyn Transport, topo: &Topology, result: &Tensor) -> Result<usize, CommError> {
    let me = t.rank();
    let down = fp32(result);
    let mut sent = 0;
    for r in topo.node_peers(me) {
        if r != me {
            sent += down.payload_bytes();
            t.send_tagged(r, down_tag(), down.clone())?;
        }
    }
    Ok(sent)
}

/// The down hop on a member, every layer of a round: each tensor becomes
/// what the leader fanned out for it — the bytes the leader itself holds.
///
/// # Errors
///
/// Propagates transport failures; [`CommError::ShapeMismatch`] if a frame
/// is not the length of the layer it replaces.
pub fn receive_down(
    t: &dyn Transport,
    topo: &Topology,
    tensors: &mut [Tensor],
) -> Result<(), CommError> {
    let leader = topo.leader_of(t.rank());
    for g in tensors.iter_mut() {
        recv_fp32(t, leader, down_tag(), g.as_mut_slice(), false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ThreadCluster;
    use crate::engine::CommEngine;
    use crate::membership::{Membership, MembershipView};
    use crate::reduce::{allreduce_scratch, Algorithm, AllreduceStats};
    use cgx_compress::{CompressionScheme, ScratchPool};
    use cgx_tensor::Rng;

    /// One round staged as the trainers' `reduce_mean` stages it — up hop,
    /// the leaders' engine exchange, down hop per redeemed layer — every
    /// layer through a fresh `scheme` compressor. Returns the sums and what
    /// this rank put on the wire and through its kernels.
    fn round(
        t: &dyn Transport,
        topo: &Topology,
        mut tensors: Vec<Tensor>,
        scheme: CompressionScheme,
        rng: &mut Rng,
    ) -> (Vec<Tensor>, AllreduceStats) {
        let mut stats = AllreduceStats {
            bytes_sent: gather_up(t, topo, &mut tensors).unwrap(),
            ..AllreduceStats::default()
        };
        if !topo.is_leader(t.rank()) {
            receive_down(t, topo, &mut tensors).unwrap();
            return (tensors, stats);
        }
        let leaders = Membership::of_ranks(t.world(), &topo.leaders());
        let view = MembershipView::new(t, &leaders);
        let mut eng = CommEngine::with_defaults(&view, ScratchPool::new());
        let handles: Vec<_> = tensors
            .drain(..)
            .map(|g| eng.submit_owned(Algorithm::ScatterReduceAllgather, g, scheme.build(), rng))
            .collect();
        for h in handles {
            let (sum, exchanged, _) = eng.wait(h).unwrap();
            stats.merge(&exchanged);
            stats.bytes_sent += fan_down(t, topo, &sum).unwrap();
            tensors.push(sum);
        }
        (tensors, stats)
    }

    const Q4: CompressionScheme = CompressionScheme::Qsgd {
        bits: 4,
        bucket_size: 64,
    };

    #[test]
    fn hop_payload_is_little_endian_f32s_in_the_tensors_shape() {
        let enc = fp32(&Tensor::from_vec(&[1, 2], vec![1.0, -2.5]));
        assert_eq!(enc.payload()[..], [0, 0, 0x80, 0x3f, 0, 0, 0x20, 0xc0]);
        assert_eq!(enc.shape().dims(), [1, 2]);
    }

    #[test]
    fn a_wrong_length_frame_on_either_hop_is_a_typed_error_not_a_panic() {
        // One node of two: the member ships 5 floats where the leader sums
        // into 4, then the leader fans 4 down where the member holds 5.
        // Each receiving rank gets `ShapeMismatch` naming the sender.
        let topo = Topology::grouped(1, 2);
        let outcomes = ThreadCluster::run(2, |t| {
            let leader = topo.is_leader(t.rank());
            let mut held = vec![Tensor::full(&[if leader { 4 } else { 5 }], 1.0)];
            let up = gather_up(&t, &topo, &mut held);
            if leader {
                fan_down(&t, &topo, &held[0]).unwrap();
                up.map(|_| ())
            } else {
                up.unwrap();
                receive_down(&t, &topo, &mut held)
            }
        })
        .unwrap();
        for (rank, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Err(CommError::ShapeMismatch { detail }) => {
                    let sender = format!("from rank {}", 1 - rank);
                    assert!(detail.contains(&sender), "{detail}");
                }
                other => panic!("rank {rank}: expected ShapeMismatch, got {other:?}"),
            }
        }
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
        assert_eq!(Topology::grouped(1, 4).leaders(), vec![0]);
    }

    #[test]
    fn hierarchical_sum_is_exact_on_integer_tensors() {
        // Integer-valued grads: float addition is exact, so the staged
        // sum must equal the flat sum regardless of association order —
        // layer by layer, the frames of a round's layers never crossing.
        let topo = Topology::grouped(2, 2);
        let results = ThreadCluster::run(4, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grads = vec![
                Tensor::full(&[33], (t.rank() + 1) as f32),
                Tensor::full(&[5], 10.0 * (t.rank() + 1) as f32),
            ];
            round(&t, &topo, grads, CompressionScheme::None, &mut rng).0
        })
        .unwrap();
        for r in &results {
            assert!(r[0].as_slice().iter().all(|&v| v == 10.0), "1+2+3+4 = 10");
            assert!(r[1].as_slice().iter().all(|&v| v == 100.0), "10+..+40");
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
            let grads = vec![Tensor::from_vec(&[257], data)];
            round(&t, &topo, grads, Q4, &mut rng).0
        })
        .unwrap();
        for r in &results[1..] {
            assert_eq!(
                r[0].as_slice(),
                results[0][0].as_slice(),
                "hierarchical consensus broke"
            );
        }
    }

    #[test]
    fn single_node_topology_skips_the_leader_exchange() {
        let topo = Topology::grouped(1, 3);
        let results = ThreadCluster::run(3, |t| {
            let mut rng = Rng::seed_from_u64(3);
            let grads = vec![Tensor::full(&[8], t.rank() as f32)];
            let (out, stats) = round(&t, &topo, grads, CompressionScheme::None, &mut rng);
            (out, stats.compress_calls)
        })
        .unwrap();
        for (out, compress_calls) in &results {
            assert!(out[0].as_slice().iter().all(|&v| v == 3.0), "0+1+2 = 3");
            // No inter-node hop anywhere: the compressor never ran.
            assert_eq!(*compress_calls, 0);
        }
    }

    #[test]
    fn members_never_invoke_the_compressor() {
        let topo = Topology::grouped(2, 2);
        let calls = ThreadCluster::run(4, |t| {
            let mut rng = Rng::seed_from_u64(1);
            let grads = vec![Tensor::full(&[64], 1.0)];
            let (_, stats) = round(&t, &topo, grads, Q4, &mut rng);
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
        // One rank per node makes both hops identity and the leader set
        // the whole world: the round must be bit-identical to the flat
        // sequential SRA (same compressor, same rng stream — one draw per
        // layer seeds its private stream, as the engine derives it).
        let topo = Topology::new(vec![0, 1, 2, 3]);
        let results = ThreadCluster::run(4, |t| {
            let grad = Tensor::from_vec(
                &[65],
                (0..65)
                    .map(|i| (i as f32 * 0.37) - t.rank() as f32)
                    .collect(),
            );
            let scheme = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 32,
            };
            let mut rng_h = Rng::seed_from_u64(11 + t.rank() as u64);
            let h = round(&t, &topo, vec![grad.clone()], scheme, &mut rng_h)
                .0
                .remove(0);
            let mut rng_f = Rng::seed_from_u64(11 + t.rank() as u64);
            let f = allreduce_scratch(
                Algorithm::ScatterReduceAllgather,
                &t,
                &grad,
                scheme.build().as_mut(),
                &mut Rng::seed_from_u64(rng_f.next_u64()),
                &ScratchPool::new(),
            )
            .unwrap()
            .0;
            (h, f)
        })
        .unwrap();
        for (h, f) in &results {
            assert_eq!(h.as_slice(), f.as_slice(), "degenerate hierarchy diverged");
        }
    }
}
