//! The per-(peer, tag) stash every fabric's receive side keeps.
//!
//! What has reached an endpoint and what its owner asks for next rarely
//! coincide: several collectives are in flight, so a payload waits under
//! its `(peer, tag)` until a receive names it. [`TagStash`] is that waiting
//! room — the state behind the shared-memory mailbox, the TCP demux and a
//! `cgx-serve` job inbox alike — together with the two facts every receive
//! path needs beside it: how much has ever arrived
//! ([`TagStash::arrivals`], the eventcount behind
//! [`Transport::park`](crate::Transport::park)) and whether a peer can
//! still send more ([`TagStash::closed`]).

use crate::error::CommError;
use crate::transport::Tag;
use cgx_compress::Encoded;
use std::collections::{HashMap, VecDeque};

/// One filed payload and its place in the order of arrival.
#[derive(Debug)]
struct Filed {
    /// Its number among everything filed here.
    nth: u64,
    /// Its number among what its peer filed here.
    nth_of_peer: u64,
    payload: Encoded,
}

/// Payloads filed per `(peer, tag)` in arrival order, FIFO within a key,
/// with per-peer and total arrival counts and one terminal error per peer.
///
/// The stash always wins over the error: [`TagStash::receive`] takes first
/// and consults [`TagStash::closed`] only on a miss, so what a peer sent
/// before it went away stays receivable.
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
    /// Payloads ever filed plus peers ever closed.
    arrivals: u64,
    closed: Vec<Option<CommError>>,
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
        }
    }

    /// Files `payload` behind everything `peer` sent under `tag` before.
    pub fn file(&mut self, peer: usize, tag: Tag, payload: Encoded) {
        let filed = Filed {
            nth: self.arrivals,
            nth_of_peer: self.filed[peer],
            payload,
        };
        self.arrivals += 1;
        self.filed[peer] += 1;
        self.queues[peer].entry(tag).or_default().push_back(filed);
    }

    /// The oldest payload under `(peer, tag)`. Taking one looks past
    /// everything `peer` filed before it; finding none looks at all of it
    /// (see [`TagStash::unseen`]).
    pub fn take(&mut self, peer: usize, tag: Tag) -> Option<Encoded> {
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
    /// `peer` closed with.
    pub fn receive(&mut self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        match self.take(peer, tag) {
            Some(payload) => Ok(Some(payload)),
            None => self.closed(peer).map_or(Ok(None), |e| Err(e.clone())),
        }
    }

    /// Removes every payload whose tag passes `keep`, as `(peer, tag,
    /// payload)` in the order they arrived — a peer's frame on one tag
    /// never overtakes what it sent first on another. The one harvest of
    /// the stash: the serve router takes tenant traffic with it (tags
    /// outside the native namespace, see [`crate::split_tag`]), the chaos
    /// layer everything its peers framed.
    pub fn take_where(&mut self, keep: impl Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)> {
        let mut out = Vec::new();
        for (peer, queues) in self.queues.iter_mut().enumerate() {
            let tags: Vec<Tag> = queues.keys().copied().filter(|&t| keep(t)).collect();
            for tag in tags {
                for filed in queues.remove(&tag).expect("key just listed") {
                    self.seen[peer] = self.seen[peer].max(filed.nth_of_peer + 1);
                    out.push((filed.nth, peer, tag, filed.payload));
                }
            }
        }
        out.sort_unstable_by_key(|&(nth, ..)| nth);
        out.into_iter()
            .map(|(_, peer, tag, p)| (peer, tag, p))
            .collect()
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

    /// Drops every filed payload (the owner is going away).
    pub fn clear(&mut self) {
        self.queues.iter_mut().for_each(HashMap::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{collective_tag, namespace_tag, tag_namespace, NATIVE_JOB};
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

    #[test]
    fn take_where_is_in_arrival_order_and_leaves_what_it_passes_over() {
        let tenant = |t: Tag| tag_namespace(t) != NATIVE_JOB;
        let mut s = TagStash::new(3);
        let native = collective_tag(5, 0, 1);
        let mut sent = Vec::new();
        for i in 0..24u8 {
            let peer = 1 + usize::from(i % 2);
            let tag = namespace_tag(1 + i % 3, u64::from(i % 8));
            s.file(peer, tag, payload(i));
            sent.push((peer, tag, i));
            s.file(peer, native, payload(100 + i));
        }
        let got: Vec<(usize, Tag, u8)> = s
            .take_where(tenant)
            .iter()
            .map(|(p, t, e)| (*p, *t, byte(e)))
            .collect();
        assert_eq!(got, sent);
        assert!(s.take_where(tenant).is_empty());
        assert_eq!(s.take(1, native).map(|e| byte(&e)), Some(100));
        assert_eq!(s.take(2, native).map(|e| byte(&e)), Some(101));
    }
}
