//! Membership epochs and elastic shrink-and-continue.
//!
//! When a peer is unrecoverably lost mid-collective the engine surfaces
//! [`CommError::PeerLost`] instead of a
//! terminal poison. Survivors then run [`agree`] — a fixed-round
//! all-to-all gossip over the surviving fabric — to converge on a new
//! [`Membership`]: a monotonically-growing dead set (a union is
//! order-free, so any gossip schedule reaches the same fixpoint), a bumped
//! epoch number, and the maximum step any survivor had reached (so nobody
//! replays steps a faster rank already applied).
//!
//! [`MembershipView`] then re-maps the surviving physical ranks onto a
//! dense `0..alive` virtual rank space over the *same* fabric — no new
//! channels, no re-wiring — so the collectives and the engine run
//! unchanged on the shrunken world. The averaging denominator shrinks with
//! the world (the trainers divide by `view.world()`), which is the elastic
//! semantics: losing a rank loses its share of the global batch.
//!
//! Agreement is best-effort by design: a rank that cannot be reached
//! within the round deadline is treated as dead. Two survivors whose
//! suspect sets differ converge because each round re-broadcasts the
//! running union; a rank falsely condemned by a pathologically slow link
//! is equivalent to a real death (it will observe `PeerLost` itself and
//! shrink symmetrically, or time out and exit). If concurrent deaths
//! leave two survivors with different epochs, the next collective between
//! them fails and triggers another recovery epoch — the protocol is
//! self-healing rather than atomic.

use crate::error::CommError;
use crate::transport::{membership_tag, Tag, Transport};
use cgx_compress::Encoded;
use cgx_tensor::Shape;
use std::time::Duration;

/// Gossip rounds per agreement. Two rounds propagate any suspicion to
/// every survivor (suspect -> all, then re-broadcast of the union); the
/// third absorbs stragglers that entered the epoch late.
const ROUNDS: u16 = 3;

/// The ranks that ranks agree are still alive, under an epoch number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u32,
    alive: Vec<bool>,
}

impl Membership {
    /// Epoch 0: everybody alive.
    pub fn full(world: usize) -> Self {
        Membership {
            epoch: 0,
            alive: vec![true; world],
        }
    }

    /// A membership naming an explicit subset of `world` as alive, under
    /// epoch 0. This is the subgroup constructor used by the hierarchical
    /// allreduce to carve the per-node leader set out of the full fabric
    /// (a [`MembershipView`] over it densely renumbers the leaders).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty, unsorted/duplicated, or names a rank
    /// outside `0..world`.
    pub fn of_ranks(world: usize, ranks: &[usize]) -> Self {
        assert!(!ranks.is_empty(), "subgroup needs at least one rank");
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "subgroup ranks must be strictly ascending"
        );
        assert!(
            *ranks.last().expect("non-empty") < world,
            "rank out of range"
        );
        let mut alive = vec![false; world];
        for &r in ranks {
            alive[r] = true;
        }
        Membership { epoch: 0, alive }
    }

    /// The agreement epoch (0 = initial, bumped once per recovery).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The original (physical) world size.
    pub fn world(&self) -> usize {
        self.alive.len()
    }

    /// Surviving rank count.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Surviving physical ranks in ascending order — the virtual->physical
    /// rank map.
    pub fn physical_ranks(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&r| self.alive[r]).collect()
    }

    /// The dense virtual rank of physical rank `rank`, if alive.
    pub(crate) fn virtual_rank(&self, rank: usize) -> Option<usize> {
        if !self.alive[rank] {
            return None;
        }
        Some(self.alive[..rank].iter().filter(|a| **a).count())
    }

    fn dead_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (r, alive) in self.alive.iter().enumerate() {
            if !alive {
                mask |= 1 << r;
            }
        }
        mask
    }

    fn from_mask(epoch: u32, world: usize, mask: u64) -> Self {
        Membership {
            epoch,
            alive: (0..world).map(|r| mask & (1 << r) == 0).collect(),
        }
    }
}

fn encode_round(mask: u64, step: u64) -> Encoded {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&mask.to_le_bytes());
    buf.extend_from_slice(&step.to_le_bytes());
    Encoded::new(Shape::vector(1), buf.into())
}

fn decode_round(e: &Encoded) -> Option<(u64, u64)> {
    let b = e.payload();
    if b.len() != 16 {
        return None;
    }
    Some((
        u64::from_le_bytes(b[..8].try_into().ok()?),
        u64::from_le_bytes(b[8..16].try_into().ok()?),
    ))
}

/// Runs one membership-agreement epoch over the *physical* fabric.
///
/// Every survivor calls this with its previous consensus membership, the
/// physical ranks it suspects dead, and the next step it intends to run.
/// Returns the new membership (epoch bumped by one, dead set unioned over
/// every reachable survivor) and the agreed resume step (the max of every
/// survivor's — ranks that were mid-step further along win, so parameter
/// state re-synced after agreement is never rewound).
///
/// `round_timeout` must cover a peer's worst-case lag in *noticing* the
/// failure (typically the transport timeout plus one step of compute);
/// a peer that stays silent longer is condemned as dead.
pub fn agree(
    t: &dyn Transport,
    prev: &Membership,
    suspects: &[usize],
    next_step: u64,
    round_timeout: Duration,
) -> (Membership, u64) {
    let me = t.rank();
    let world = t.world();
    assert!(world <= 64, "membership masks support at most 64 ranks");
    assert_eq!(world, prev.world(), "membership/world mismatch");
    let epoch = prev.epoch + 1;
    let mut mask = prev.dead_mask();
    for &s in suspects {
        if s != me {
            mask |= 1 << s;
        }
    }
    let mut step = next_step;
    for round in 0..ROUNDS {
        let tag: Tag = membership_tag(epoch, round);
        let msg = encode_round(mask, step);
        for p in 0..world {
            if p == me || mask & (1 << p) != 0 {
                continue;
            }
            if t.send_tagged(p, tag, msg.clone()).is_err() {
                mask |= 1 << p;
            }
        }
        for p in 0..world {
            if p == me || mask & (1 << p) != 0 {
                continue;
            }
            match t.recv_tagged_deadline(p, tag, round_timeout) {
                Ok(enc) => {
                    if let Some((m, s)) = decode_round(&enc) {
                        mask |= m;
                        step = step.max(s);
                    } else {
                        mask |= 1 << p;
                    }
                }
                Err(_) => {
                    mask |= 1 << p;
                }
            }
        }
        // Self-suspicion can arrive via a peer's union; never adopt it.
        mask &= !(1u64 << me);
    }
    (Membership::from_mask(epoch, world, mask), step)
}

/// A dense virtual-rank window onto the surviving subset of a fabric.
///
/// Implements [`Transport`] by translating virtual peer ranks to physical
/// ones on the way in and the ranks errors name back to virtual ones on
/// the way out, so the engine and the blocking collectives run on the
/// shrunken world without knowing a recovery happened. The identity view
/// (full membership) is byte-transparent.
pub struct MembershipView<'a> {
    inner: &'a dyn Transport,
    phys: Vec<usize>,
    vrank: usize,
}

impl<'a> MembershipView<'a> {
    /// Builds the view for this endpoint's rank.
    ///
    /// # Panics
    ///
    /// Panics if this rank is not alive in `membership`, or if the
    /// membership's world differs from the fabric's.
    pub fn new(inner: &'a dyn Transport, membership: &Membership) -> Self {
        assert_eq!(
            membership.world(),
            inner.world(),
            "membership/world mismatch"
        );
        let vrank = membership
            .virtual_rank(inner.rank())
            .expect("this rank is not a member");
        MembershipView {
            inner,
            phys: membership.physical_ranks(),
            vrank,
        }
    }

    /// The physical rank behind virtual rank `v`.
    pub fn physical(&self, v: usize) -> usize {
        self.phys[v]
    }

    /// Errors leave the view in its own rank space, like everything else
    /// does: the fabric beneath names physical ranks, the callers above —
    /// the engine's `PeerLost`, its own `Timeout`, the trainers' recovery —
    /// read virtual ones.
    fn in_view<T>(&self, outcome: Result<T, CommError>) -> Result<T, CommError> {
        outcome.map_err(|e| match e.peer().map(|p| self.phys.binary_search(&p)) {
            Some(Ok(v)) => e.with_peer(v),
            // No rank implicated; and every call below but
            // `flush_outbound` addresses a member, which its error names.
            _ => e,
        })
    }
}

impl Transport for MembershipView<'_> {
    fn rank(&self) -> usize {
        self.vrank
    }

    fn world(&self) -> usize {
        self.phys.len()
    }

    fn timeout(&self) -> Duration {
        self.inner.timeout()
    }

    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
        self.in_view(self.inner.send_tagged(self.phys[peer], tag, payload))
    }

    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.in_view(self.inner.try_send_tagged(self.phys[peer], tag, payload))
    }

    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.in_view(self.inner.try_recv_tagged(self.phys[peer], tag))
    }

    fn drain_inbound(&self) -> usize {
        self.inner.drain_inbound()
    }

    fn arrivals(&self) -> u64 {
        self.inner.arrivals()
    }

    fn park(&self, seen: u64, timeout: Duration) {
        self.inner.park(seen, timeout);
    }

    fn flush_outbound(&self) -> Result<(), CommError> {
        match self.inner.flush_outbound() {
            // Frames still queued for a rank outside the view were
            // written off with it.
            Err(e) if e.peer().is_some_and(|p| !self.phys.contains(&p)) => Ok(()),
            outcome => self.in_view(outcome),
        }
    }

    fn drive_within(&self) -> Option<Duration> {
        self.inner.drive_within()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ShmFabric, LEGACY_TAG};

    #[test]
    fn agreement_round_is_little_endian_mask_then_step() {
        let round = encode_round(0x0102_0304_0506_0708, 9);
        assert_eq!(
            round.payload()[..],
            [8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(decode_round(&round), Some((0x0102_0304_0506_0708, 9)));
    }

    #[test]
    fn membership_rank_maps_are_consistent() {
        let m = Membership::from_mask(2, 5, 0b01010); // ranks 1 and 3 dead
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.num_alive(), 3);
        assert_eq!(m.physical_ranks(), vec![0, 2, 4]);
        assert_eq!(m.virtual_rank(0), Some(0));
        assert_eq!(m.virtual_rank(1), None);
        assert_eq!(m.virtual_rank(2), Some(1));
        assert_eq!(m.virtual_rank(4), Some(2));
        assert_eq!(m.dead_mask(), 0b01010);
    }

    #[test]
    fn identity_view_is_transparent() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let m = Membership::full(2);
        let va = MembershipView::new(&a, &m);
        let vb = MembershipView::new(&b, &m);
        assert_eq!(va.rank(), 0);
        assert_eq!(vb.world(), 2);
        va.send(1, Encoded::new(Shape::vector(1), vec![7].into()))
            .unwrap();
        assert_eq!(vb.recv(0).unwrap().payload().as_ref(), &[7]);
    }

    #[test]
    fn shrunken_view_remaps_peers_onto_the_same_fabric() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let _b = eps.pop().unwrap(); // rank 1 "died"
        let a = eps.pop().unwrap();
        let m = Membership::from_mask(1, 3, 0b010);
        let va = MembershipView::new(&a, &m);
        let vc = MembershipView::new(&c, &m);
        assert_eq!((va.rank(), va.world()), (0, 2));
        assert_eq!((vc.rank(), vc.world()), (1, 2));
        assert_eq!(vc.physical(0), 0);
        // Virtual peer 1 on the view is physical rank 2.
        va.send(1, Encoded::new(Shape::vector(1), vec![9].into()))
            .unwrap();
        assert_eq!(vc.recv(0).unwrap().payload().as_ref(), &[9]);
    }

    #[test]
    fn errors_leave_the_view_naming_virtual_ranks() {
        // World 4, rank 1 long gone; now physical rank 3 drops. To the view
        // over [0, 2, 3] that is virtual peer 2, on every path an error
        // can take — and `physical` of what the error names is rank 3.
        let mut eps = ShmFabric::build(4);
        let d = eps.pop().unwrap();
        let a = eps.swap_remove(0);
        let m = Membership::of_ranks(4, &[0, 2, 3]);
        let view = MembershipView::new(&a, &m);
        drop(d);
        let gone = CommError::Disconnected { peer: 2 };
        assert_eq!(view.try_recv_tagged(2, 5), Err(gone.clone()));
        assert_eq!(
            view.recv_tagged_deadline(2, 5, Duration::from_secs(5)),
            Err(gone.clone())
        );
        assert_eq!(view.recv(2), Err(gone.clone()));
        let frame = || Encoded::new(Shape::vector(1), vec![1].into());
        assert_eq!(view.send_tagged(2, 5, frame()), Err(gone.clone()));
        assert_eq!(view.try_send_tagged(2, 5, frame()), Err(gone.clone()));
        assert_eq!(view.physical(gone.peer().unwrap()), 3);
        // A live but silent member times out under its virtual name too.
        match view.recv_tagged_deadline(1, 5, Duration::from_millis(10)) {
            Err(CommError::Timeout { from: 1, .. }) => {}
            other => panic!("expected a timeout naming virtual rank 1, got {other:?}"),
        }
    }

    #[test]
    fn survivors_agree_on_union_and_max_step() {
        // 4 ranks; rank 3 is dead. Ranks 0 and 2 each suspect it (rank 1
        // suspects nothing and learns via gossip); steps differ.
        let eps = ShmFabric::build(4);
        let prev = Membership::full(4);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let prev = prev.clone();
                std::thread::spawn(move || {
                    if rank == 3 {
                        drop(t); // dead before the epoch starts
                        return None;
                    }
                    let suspects: &[usize] = if rank == 1 { &[] } else { &[3] };
                    let step = [5u64, 7, 6, 0][rank];
                    Some(agree(&t, &prev, suspects, step, Duration::from_millis(500)))
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(results.len(), 3);
        for (m, step) in &results {
            assert_eq!(m.epoch(), 1);
            assert_eq!(m.physical_ranks(), vec![0, 1, 2], "union must converge");
            assert_eq!(*step, 7, "max step wins");
        }
    }

    #[test]
    fn sequential_epochs_compose() {
        let m = Membership::full(4);
        let m1 = Membership::from_mask(m.epoch() + 1, 4, 0b1000);
        let m2 = Membership::from_mask(m1.epoch() + 1, 4, m1.dead_mask() | 0b0010);
        assert_eq!(m2.epoch(), 2);
        assert_eq!(m2.physical_ranks(), vec![0, 2]);
        assert_eq!(m2.virtual_rank(2), Some(1));
        // Legacy-tag traffic and membership tags never collide.
        assert_ne!(membership_tag(1, 0), LEGACY_TAG);
    }
}
