//! The per-(peer, tag) stash every fabric's receive side keeps.
//!
//! What has reached an endpoint and what its owner asks for next rarely
//! coincide: several collectives are in flight, so a payload waits under
//! its `(peer, tag)` until a receive names it. [`TagStash`] is that waiting
//! room — the state behind the shared-memory mailbox and the TCP endpoint
//! alike — together with the two facts every receive path
//! needs beside it: how much has ever arrived ([`TagStash::arrivals`], the
//! eventcount behind [`Transport::park`](crate::Transport::park)) and
//! whether a peer can still send more ([`TagStash::closed`]).
//!
//! A `cgx-serve` tenant receives straight from this stash, on tags widened
//! into its job's namespace ([`crate::namespace_tag`]), so the stash keeps
//! the namespace rules. A [`DETACH_TAG`] frame from `peer` in job `j`'s
//! namespace closes `(peer, j)` behind what `peer` filed before it. A
//! namespace no receive has asked for yet holds at most [`ORPHAN_BYTES`]
//! (one frame is always admitted): the frame that would pass that closes
//! its `(peer, j)` with [`CommError::Lost`] and frees what the lane held,
//! never delivering a stream with a gap. A closed lane files nothing more.

use crate::error::CommError;
use crate::transport::{split_tag, tag_namespace, Tag, DETACH_TAG, NATIVE_JOB};
use cgx_compress::Encoded;
use std::collections::{HashMap, VecDeque};

/// What a tenant namespace that no receive has asked for yet may hold.
pub const ORPHAN_BYTES: u64 = 32 << 20;

/// One filed payload and its place in its peer's stream.
#[derive(Debug)]
struct Filed {
    /// Its number among what its peer filed here.
    nth_of_peer: u64,
    payload: Encoded,
}

/// Payloads filed per `(peer, tag)` in arrival order, FIFO within a key,
/// with per-peer and total arrival counts and one terminal error per peer
/// and per closed tenant lane.
///
/// The stash always wins over the error: [`TagStash::receive`] takes first
/// and consults the errors only on a miss, so what a peer sent before it
/// went away, or detached, stays receivable.
#[derive(Debug)]
pub struct TagStash {
    /// `queues[peer][tag]`, oldest first. Tags are single-use (one per
    /// collective/segment/phase): an emptied queue is removed so the maps
    /// do not grow with training steps.
    queues: Vec<HashMap<Tag, VecDeque<Filed>>>,
    /// `filed[peer]`: payloads `peer` has filed so far.
    filed: Vec<u64>,
    /// `seen[peer]`: how far down `peer`'s stream the owner has looked.
    seen: Vec<u64>,
    /// Payloads ever filed plus peers and `(peer, job)` lanes ever closed.
    arrivals: u64,
    closed: Vec<Option<CommError>>,
    /// Closed `(peer, job)` lanes of tenant namespaces.
    lanes_closed: HashMap<(usize, u8), CommError>,
    /// Namespaces a receive has asked for, a bit each: they hold no orphans.
    claimed: [u64; 4],
    /// Bytes held per tenant namespace no receive has asked for yet.
    orphans: HashMap<u8, u64>,
}

impl TagStash {
    /// An empty stash for an endpoint with `world` peers (itself included).
    pub fn new(world: usize) -> Self {
        TagStash {
            queues: (0..world).map(|_| HashMap::new()).collect(),
            filed: vec![0; world],
            seen: vec![0; world],
            arrivals: 0,
            closed: vec![None; world],
            lanes_closed: HashMap::new(),
            claimed: [0; 4],
            orphans: HashMap::new(),
        }
    }

    /// Files `payload` behind everything `peer` sent under `tag` before —
    /// unless, in a tenant namespace, it is a DETACH or meets a closed lane
    /// or a full orphan namespace (module docs).
    pub fn file(&mut self, peer: usize, tag: Tag, payload: Encoded) {
        let (job, local) = split_tag(tag);
        if job != NATIVE_JOB {
            if self.lanes_closed.contains_key(&(peer, job)) {
                return;
            }
            if local == DETACH_TAG {
                return self.close_lane(peer, job, CommError::Disconnected { peer });
            }
            if self.claimed[usize::from(job / 64)] & 1 << (job % 64) == 0 {
                let held = self.orphans.entry(job).or_default();
                let size = payload.payload_bytes() as u64;
                if *held > 0 && *held + size > ORPHAN_BYTES {
                    return self.drop_orphan_lane(peer, job);
                }
                *held += size;
            }
        }
        let filed = Filed {
            nth_of_peer: self.filed[peer],
            payload,
        };
        self.arrivals += 1;
        self.filed[peer] += 1;
        self.queues[peer].entry(tag).or_default().push_back(filed);
    }

    /// The oldest payload under `(peer, tag)`. Taking one looks past
    /// everything `peer` filed before it; finding none looks at all of it
    /// (see [`TagStash::unseen`]). Either way `tag`'s namespace has now
    /// been asked for, and is no orphan.
    pub fn take(&mut self, peer: usize, tag: Tag) -> Option<Encoded> {
        let job = tag_namespace(tag);
        self.claimed[usize::from(job / 64)] |= 1 << (job % 64);
        let Some(queue) = self.queues[peer].get_mut(&tag) else {
            self.seen[peer] = self.filed[peer];
            return None;
        };
        let filed = queue.pop_front().expect("empty queues are removed");
        if queue.is_empty() {
            self.queues[peer].remove(&tag);
        }
        self.seen[peer] = self.seen[peer].max(filed.nth_of_peer + 1);
        Some(filed.payload)
    }

    /// A receive against the stash: the oldest payload under `(peer,
    /// tag)` ([`TagStash::take`]) and, only when there is none, the error
    /// that closed `peer`'s lane in `tag`'s namespace, or `peer` itself.
    pub fn receive(&mut self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        if let Some(payload) = self.take(peer, tag) {
            return Ok(Some(payload));
        }
        let lane = self.lanes_closed.get(&(peer, tag_namespace(tag)));
        lane.or(self.closed(peer))
            .map_or(Ok(None), |e| Err(e.clone()))
    }

    /// Payloads ever filed plus peers ever closed: it moves exactly when
    /// something a parked receiver could be waiting for has happened.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Payloads `peer` filed that the owner has not looked at: neither
    /// taken, nor passed over by a later take or a miss on that peer, nor
    /// covered by [`TagStash::look`]. The shared-memory fabric bounds this
    /// per pair; fabrics with their own flow control ignore it.
    pub fn unseen(&self, peer: usize) -> usize {
        (self.filed[peer] - self.seen[peer]) as usize
    }

    /// Looks at everything filed so far; returns how much of it was new.
    pub fn look(&mut self) -> usize {
        let new = (0..self.filed.len()).map(|peer| self.unseen(peer)).sum();
        self.seen.copy_from_slice(&self.filed);
        new
    }

    /// Records that `peer` will file nothing more, and why. The first
    /// error stands; it counts as one arrival so that a parked receiver
    /// wakes to find it.
    pub fn close(&mut self, peer: usize, err: CommError) {
        if self.closed[peer].is_none() {
            self.closed[peer] = Some(err);
            self.arrivals += 1;
        }
    }

    /// Why `peer` will file nothing more, once that is so.
    pub fn closed(&self, peer: usize) -> Option<&CommError> {
        self.closed[peer].as_ref()
    }

    /// [`TagStash::close`] for `peer`'s lane in tenant namespace `job`.
    fn close_lane(&mut self, peer: usize, job: u8, err: CommError) {
        self.lanes_closed.insert((peer, job), err);
        self.arrivals += 1;
    }

    /// Closes `peer`'s lane in orphan namespace `job` as lost and frees
    /// what it held, which counts as looked at, as after a miss on `peer`.
    fn drop_orphan_lane(&mut self, peer: usize, job: u8) {
        let held = self.orphans.get_mut(&job).expect("an orphan");
        self.queues[peer].retain(|&tag, queue| {
            let lane = tag_namespace(tag) == job;
            for filed in queue.iter().filter(|_| lane) {
                *held -= filed.payload.payload_bytes() as u64;
            }
            !lane
        });
        self.seen[peer] = self.filed[peer];
        self.close_lane(peer, job, CommError::Lost { peer });
    }

    /// Drops every filed payload (the owner is going away).
    pub fn clear(&mut self) {
        self.queues.iter_mut().for_each(HashMap::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::namespace_tag;
    use cgx_tensor::{Bytes, Shape};

    fn payload(byte: u8) -> Encoded {
        Encoded::new(Shape::vector(1), Bytes::copy_from_slice(&[byte]))
    }

    fn byte(e: &Encoded) -> u8 {
        e.payload()[0]
    }

    #[test]
    fn keys_are_fifo_and_independent() {
        let mut s = TagStash::new(3);
        s.file(1, 7, payload(1));
        s.file(2, 7, payload(2));
        s.file(1, 8, payload(3));
        s.file(1, 7, payload(4));
        assert_eq!(s.take(1, 8).map(|e| byte(&e)), Some(3));
        assert_eq!(s.take(1, 7).map(|e| byte(&e)), Some(1));
        assert_eq!(s.take(1, 7).map(|e| byte(&e)), Some(4));
        assert!(s.take(1, 7).is_none());
        assert_eq!(s.take(2, 7).map(|e| byte(&e)), Some(2));
        assert_eq!(s.arrivals(), 4, "taking is not an arrival");
    }

    #[test]
    fn unseen_counts_what_the_owner_has_not_looked_past() {
        let mut s = TagStash::new(2);
        for i in 0..4 {
            s.file(1, 10 + i, payload(i as u8));
        }
        assert_eq!(s.unseen(1), 4);
        // Taking the third looks past the first two.
        assert!(s.take(1, 12).is_some());
        assert_eq!(s.unseen(1), 1);
        // Taking an older one does not look back.
        assert!(s.take(1, 10).is_some());
        assert_eq!(s.unseen(1), 1);
        // A miss looks at everything.
        assert!(s.take(1, 99).is_none());
        assert_eq!(s.unseen(1), 0);
        s.file(1, 20, payload(9));
        assert_eq!(s.look(), 1);
        assert_eq!(s.look(), 0);
    }

    #[test]
    fn close_keeps_the_first_error_and_counts_once() {
        let mut s = TagStash::new(2);
        s.file(1, 5, payload(1));
        s.close(1, CommError::Disconnected { peer: 1 });
        s.close(1, CommError::PeerDead { rank: 1 });
        assert_eq!(s.closed(1), Some(&CommError::Disconnected { peer: 1 }));
        assert_eq!(s.arrivals(), 2);
        // What was filed before stays receivable; then the error shows.
        let mut receive = |peer| s.receive(peer, 5).map(|got| got.map(|e| byte(&e)));
        assert_eq!(receive(1), Ok(Some(1)));
        assert_eq!(receive(1), Err(CommError::Disconnected { peer: 1 }));
        assert_eq!(receive(0), Ok(None));
        assert!(s.closed(0).is_none());
    }

    /// A job's frames that arrive before any receive asks for its
    /// namespace wait there, and are received in order once one does.
    #[test]
    fn an_orphan_namespace_is_received_in_order_by_a_late_receiver() {
        let mut s = TagStash::new(3);
        for i in 0..12u8 {
            s.file(
                1 + usize::from(i % 2),
                namespace_tag(7, u64::from(i % 3)),
                payload(i),
            );
        }
        assert_eq!(s.orphans[&7], 12);
        for tag in 0..3u8 {
            for peer in 1..3 {
                let want = (0..12u8).filter(|i| i % 3 == tag && 1 + usize::from(i % 2) == peer);
                for i in want {
                    let got = s.receive(peer, namespace_tag(7, u64::from(tag)));
                    assert_eq!(got.map(|e| e.map(|e| byte(&e))), Ok(Some(i)));
                }
            }
        }
        assert_ne!(s.claimed[0] & 1 << 7, 0, "asked for, it is no orphan");
    }

    /// Past `ORPHAN_BYTES` the lane that would pass it reads a typed error
    /// and what it held is freed; one oversized frame is always admitted,
    /// and a namespace a receive has asked for has no bound.
    #[test]
    fn an_orphan_namespace_past_its_bound_loses_the_lane_and_frees_it() {
        let big = || {
            Encoded::new(
                Shape::vector(1),
                vec![0u8; ORPHAN_BYTES as usize + 1].into(),
            )
        };
        let (orphan, claimed) = (namespace_tag(3, 8), namespace_tag(4, 8));
        let mut s = TagStash::new(3);
        s.file(1, orphan, big());
        assert_eq!(s.orphans[&3], ORPHAN_BYTES + 1, "one frame is admitted");
        s.file(1, orphan, payload(1));
        assert_eq!(s.orphans[&3], 0, "lane (1, 3) is freed");
        assert!(s.queues[1].is_empty());
        assert_eq!(s.unseen(1), 0);
        s.file(2, orphan, payload(2));
        s.file(1, orphan, payload(9));
        assert_eq!(s.orphans[&3], 1, "a closed lane files nothing");
        assert_eq!(s.receive(1, orphan), Err(CommError::Lost { peer: 1 }));
        assert_eq!(
            s.receive(2, orphan).map(|e| e.map(|e| byte(&e))),
            Ok(Some(2))
        );
        assert_eq!(s.receive(2, orphan), Ok(None), "peer 2's lane is open");
        assert_eq!(s.receive(1, claimed), Ok(None));
        s.file(1, claimed, big());
        s.file(1, claimed, big());
        assert!(
            s.receive(1, claimed).unwrap().is_some() && s.receive(1, claimed).unwrap().is_some()
        );
    }

    /// A DETACH filed after data: the data is received first, then
    /// `Disconnected`, and what the lane files later is dropped. Other
    /// namespaces, other peers and native tags are untouched.
    #[test]
    fn a_detach_closes_its_lane_after_the_data_filed_before_it() {
        let mut s = TagStash::new(3);
        let (lane, other_job, native) = (namespace_tag(3, 5), namespace_tag(4, 5), 5);
        for i in 0..4 {
            s.file(1, lane, payload(i));
            s.file(1, native, payload(10 + i));
            s.file(1, other_job, payload(20 + i));
            s.file(2, lane, payload(30 + i));
        }
        let before = s.arrivals();
        s.file(1, namespace_tag(3, DETACH_TAG), payload(0x44));
        assert_eq!(s.arrivals(), before + 1, "a detach wakes a parked receiver");
        s.file(1, lane, payload(99));
        let mut drain = |peer, tag| -> Vec<Result<u8, CommError>> {
            std::iter::from_fn(|| s.receive(peer, tag).transpose())
                .take(6)
                .map(|r| r.map(|e| byte(&e)))
                .collect()
        };
        let gone = Err(CommError::Disconnected { peer: 1 });
        let lane_got = drain(1, lane);
        assert_eq!(lane_got[..4], [Ok(0), Ok(1), Ok(2), Ok(3)]);
        assert!(lane_got[4..].iter().all(|r| *r == gone), "{lane_got:?}");
        assert_eq!(drain(1, native), [Ok(10), Ok(11), Ok(12), Ok(13)]);
        assert_eq!(drain(1, other_job), [Ok(20), Ok(21), Ok(22), Ok(23)]);
        assert_eq!(drain(2, lane), [Ok(30), Ok(31), Ok(32), Ok(33)]);
    }
}
