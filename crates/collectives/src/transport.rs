//! The [`Transport`] contract and the in-process shared-memory fabric.
//!
//! The paper's SHM backend registers a UNIX shared-memory segment per GPU
//! pair and synchronizes with CUDA IPC primitives. Collapsed into one
//! process, that becomes: one **mailbox** per receiving rank — a mutex, two
//! condition variables and an `Arc` — into which every other rank files
//! [`Encoded`] payloads (which are reference-counted `Bytes`, so a
//! "transfer" is a pointer hand-off, exactly like mapping a shared segment).
//!
//! # Tag multiplexing
//!
//! A stream that is ordered per pair is correct for one collective at a
//! time but wrong the moment several collectives are in flight on the same
//! rank (the communication engine's layer-parallel reductions): a receiver
//! expecting layer *k*'s chunk could pull layer *k+1*'s instead. Every
//! message therefore carries a **tag** — the header a real implementation
//! would prepend: collective id + pipeline segment + phase, packed by
//! `collective_tag` — and a send files its payload straight under its
//! `(sender, tag)` in the receiver's mailbox (a [`TagStash`]). A receive
//! for tag *t* looks only there, so traffic for other tags is never in its
//! way and there is no second place a payload could be waiting.
//! Per-(peer, tag) FIFO order is preserved, which is the only ordering the
//! collectives rely on.
//!
//! # Flow control
//!
//! Each ordered pair may have `SLOT_CAPACITY` payloads filed that the
//! receiver has not yet *looked at*. A payload counts as looked at once the
//! receiver takes it, takes a later one from the same sender, comes up
//! empty on that sender, or calls [`Transport::drain_inbound`]; beyond the
//! bound a send blocks ([`Transport::send_tagged`]) or hands the payload
//! back ([`Transport::try_send_tagged`]).
//!
//! The pre-engine entry points ([`Transport::send`] / [`Transport::recv`])
//! are tag `LEGACY_TAG` and interoperate with tagged traffic on the same
//! fabric.

use crate::error::CommError;
use crate::stash::TagStash;
use cgx_compress::Encoded;
use cgx_obs::{Counter, MetricsRegistry};
use cgx_tensor::{Bytes, Shape};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-pair capacity. Sized so a full model's worth of small compressed
/// layer chunks (one phase-1 message per layer per peer, a few hundred
/// layers) streams without stalling the submitting rank — a mid-submit
/// stall re-serializes the ranks into exactly the per-layer convoy the
/// engine exists to remove. The bound still exists: the engine tolerates a
/// full pair by draining its own inbound traffic and retrying
/// ([`Transport::try_send_tagged`]), keeping memory flat and surfacing
/// deadlocks under pathological load.
const SLOT_CAPACITY: usize = 256;

/// Default receive timeout; long enough for debug-mode compression of large
/// tensors, short enough to fail tests promptly on deadlock.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Message tag: collective id + segment + phase, or `LEGACY_TAG`.
pub type Tag = u64;

/// The tag used by the untagged [`Transport::send`] /
/// [`Transport::recv`] API (one collective at a time, as before tag
/// multiplexing existed).
pub(crate) const LEGACY_TAG: Tag = u64::MAX;

/// Control lane of a fabric's own protocol, never a collective's: the TCP
/// endpoint's liveness heartbeats and the rendezvous handshake ride it.
pub const CTRL_TAG: Tag = u64::MAX - 1;

/// End-of-run quiesce lane (see [`exchange_quiesce_markers`]).
pub(crate) const QUIESCE_TAG: Tag = u64::MAX - 2;

/// A tenant's orderly detach, sent by `cgx-serve` to every peer of its job.
/// Only meaningful inside a job namespace ([`namespace_tag`]): the
/// [`TagStash`] that files one closes that `(peer, job)`.
pub const DETACH_TAG: Tag = u64::MAX - 3;

/// Packs a collective id, pipeline segment and phase into a wire tag.
///
/// Layout: `[op:32][segment:16][phase:8][epoch:8]`. Collective ids are
/// issued by rank-local counters, so they match across ranks exactly when
/// every rank starts collectives in the same order — the standard ordering
/// requirement of MPI/NCCL communicators, which the engine upholds.
#[inline]
pub(crate) fn collective_tag(op: u32, segment: u16, phase: u8) -> Tag {
    ((op as u64) << 32) | ((segment as u64) << 16) | ((phase as u64) << 8)
}

/// [`collective_tag`] with the membership epoch stamped into the low byte.
///
/// After an elastic recovery the surviving ranks restart their collective
/// counters; the epoch byte keeps a straggler's pre-recovery frames from
/// aliasing post-recovery tags. Epoch 0 is bit-identical to
/// [`collective_tag`], so fault-free runs keep their historical wire tags.
#[inline]
pub(crate) fn collective_tag_in_epoch(op: u32, segment: u16, phase: u8, epoch: u8) -> Tag {
    collective_tag(op, segment, phase) | (epoch as u64)
}

/// Phase byte reserved for membership-agreement gossip rounds; no
/// collective ever emits it ([`crate::engine`] uses phases 1 and 2).
pub(crate) const MEMBERSHIP_PHASE: u8 = 0xEE;

/// Tag for one round of membership-epoch agreement.
#[inline]
pub(crate) fn membership_tag(epoch: u32, round: u16) -> Tag {
    ((epoch as u64) << 32) | ((round as u64) << 16) | ((MEMBERSHIP_PHASE as u64) << 8)
}

// ---------------------------------------------------------------------------
// Tag namespacing: the `(job, lane)` wire tag space of the `cgx-serve`
// multi-tenant daemon.
//
// The daemon multiplexes many independent jobs over one physical fabric by
// widening the tag layout to `[job:8][op:24][segment:16][phase:8][epoch:8]`:
// the collective id's top byte becomes a job namespace. Byte 0x00 is the
// *native* namespace — a fabric with no daemon in front of it, whose tags
// are bit-identical to the historical single-job layout (ops stay below
// [`MAX_NAMESPACED_OP`], so their top byte was always zero). Bytes
// 0x01..=0xFD address tenant jobs, 0xFE is reserved, and 0xFF is never
// sent as a namespace: it is the top byte of the reserved special tags
// ([`LEGACY_TAG`], [`CTRL_TAG`], [`QUIESCE_TAG`], [`DETACH_TAG`]), which
// [`namespace_tag`] relocates into each job's low-56-bit space so per-job
// special lanes stay distinct.
// ---------------------------------------------------------------------------

/// Exclusive upper bound on collective ids once a job namespace rides the
/// tag's top byte. The engine allocates op ids per instance from zero and
/// wraps here, so the bound is unreachable in practice (2^24 concurrent
/// collectives) while keeping every engine tag namespace-clean.
pub(crate) const MAX_NAMESPACED_OP: u32 = 1 << 24;

/// The native (daemon-less) job namespace: tags map through unchanged.
pub(crate) const NATIVE_JOB: u8 = 0;

/// Highest namespace byte assignable to a tenant job (0xFE is reserved,
/// 0xFF belongs to the special tags).
pub const MAX_TENANT_NS: u8 = 0xFD;

const LOW56: u64 = (1 << 56) - 1;
/// Low-56-bit values at or above this floor are relocated special tags
/// (the specials are `u64::MAX - k` for small `k`, so their low 56 bits
/// land in the top 256 values of the low-56 space — unreachable by any
/// collective/membership tag, whose phase byte caps far below all-ones).
const SPECIAL_LOW_FLOOR: u64 = 0x00FF_FFFF_FFFF_FF00;

/// Maps a job-local tag into job `job`'s slice of the wire tag space.
///
/// Identity for `NATIVE_JOB`; for every other namespace the job byte is
/// stamped into the top byte, with the reserved special tags
/// (`LEGACY_TAG` and friends) folded into the top of the job's low-56
/// space so they round-trip through `split_tag`.
///
/// # Panics
///
/// Panics if a non-special tag already carries a namespace byte (op ids
/// must stay below `MAX_NAMESPACED_OP`).
#[inline]
#[must_use]
pub fn namespace_tag(job: u8, tag: Tag) -> Tag {
    if job == NATIVE_JOB {
        return tag;
    }
    if tag >> 56 == 0xFF && tag & LOW56 >= SPECIAL_LOW_FLOOR {
        // LEGACY/CTRL/QUIESCE/DETACH: relocate into this job's low-56 space.
        return ((job as u64) << 56) | (tag & LOW56);
    }
    assert!(
        tag >> 56 == 0,
        "tag {tag:#x} already carries a namespace byte \
         (ops and membership epochs must stay below 2^24 under a daemon)"
    );
    ((job as u64) << 56) | tag
}

/// Splits a wire tag into `(job, job-local tag)`, inverting
/// [`namespace_tag`]. Native traffic — namespace byte 0x00, plus the
/// special tags whose top byte is 0xFF — decodes as [`NATIVE_JOB`] with
/// the tag unchanged.
#[inline]
#[must_use]
pub(crate) fn split_tag(wire: Tag) -> (u8, Tag) {
    let ns = (wire >> 56) as u8;
    if ns == NATIVE_JOB || ns == 0xFF {
        return (NATIVE_JOB, wire);
    }
    let low = wire & LOW56;
    if low >= SPECIAL_LOW_FLOOR {
        // A relocated special: restore its all-ones top byte.
        (ns, (0xFFu64 << 56) | low)
    } else {
        (ns, low)
    }
}

/// The namespace byte a wire tag is addressed to; [`NATIVE_JOB`] for
/// daemon-less traffic (including the 0xFF-prefixed special tags).
#[inline]
#[must_use]
pub(crate) fn tag_namespace(wire: Tag) -> u8 {
    split_tag(wire).0
}

/// Object-safe transport abstraction: one rank's endpoint into a fabric of
/// tag-multiplexed, per-`(peer, tag)`-FIFO point-to-point lanes.
///
/// **Nine required, receives provided.** A fabric owes nine methods, none
/// of which loops over a deadline: its geometry
/// ([`rank`](Transport::rank), [`world`](Transport::world),
/// [`timeout`](Transport::timeout)), the two sends, the non-blocking
/// receive ([`try_recv_tagged`](Transport::try_recv_tagged)),
/// [`drain_inbound`](Transport::drain_inbound), and the eventcount pair
/// [`arrivals`](Transport::arrivals) / [`park`](Transport::park).
/// Everything else is provided on top of those, once: every blocking
/// receive ([`recv_tagged_deadline`](Transport::recv_tagged_deadline),
/// [`recv_tagged`](Transport::recv_tagged), [`recv`](Transport::recv)),
/// the legacy-lane conveniences, and a no-op
/// [`flush_outbound`](Transport::flush_outbound) for fabrics that send
/// eagerly. What belongs to one layer above stays there: the kill
/// schedule in the trainer's config, teardown in
/// [`exchange_quiesce_markers`]; a
/// `cgx-serve` tenant's receives are the fabric's own, on the tag widened
/// by [`namespace_tag`].
///
/// **Waiting** is always the same three steps — sample
/// [`arrivals`](Transport::arrivals), poll, then
/// [`park`](Transport::park) on the sample — so a frame that lands between
/// the poll and the park cannot be slept through on any fabric. `park` may
/// return for no reason at all and blocks at most once per call: it must
/// never be the only thing between a caller and its deadline, and a caller
/// must poll again after it rather than trust that something arrived.
///
/// [`ShmTransport`] is the in-process fabric, and
/// [`crate::membership::MembershipView`] re-maps ranks after an elastic
/// shrink. The engine, the blocking collectives and both trainers are
/// written against `&dyn Transport`, so all of them compose. Endpoints are
/// usually single-owner — one rank drives its own transport from its own
/// thread — so no auto-trait bound is imposed here. The exception is the
/// endpoint under a `cgx-serve` daemon, on which every tenant thread and
/// the pump thread receive and park at once: `ServeNode::new` asks for a
/// `Send + Sync` endpoint, which [`ShmTransport`] and the TCP endpoint are
/// (a test beside each type says so at compile time), and each wakes every
/// thread parked on it when it takes a frame in.
pub trait Transport {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the fabric.
    fn world(&self) -> usize;

    /// The configured receive timeout.
    fn timeout(&self) -> Duration;

    /// Sends a tagged payload to `peer`, blocking while the pair is full.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if the peer's endpoint was dropped.
    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError>;

    /// Attempts a tagged send without blocking; `Ok(Some(payload))` hands
    /// the payload back when the pair is full.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if the peer's endpoint was dropped.
    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError>;

    /// Polls for a payload with `tag` from `peer` without blocking. What
    /// has already arrived is delivered before the peer's terminal error
    /// is reported.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] / [`CommError::PeerDead`] /
    /// [`CommError::Lost`] once the peer is gone and nothing with `tag`
    /// remains.
    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError>;

    /// Takes in everything that has arrived from any peer, so that it no
    /// longer counts against the senders' flow control, without blocking;
    /// returns the number of messages that were new.
    fn drain_inbound(&self) -> usize;

    /// Frames ever taken into this endpoint's stash, a peer's terminal
    /// error counting as one. Only ever compared for equality with an
    /// earlier sample, by [`Transport::park`].
    fn arrivals(&self) -> u64;

    /// Returns at once if [`Transport::arrivals`] is no longer `seen`;
    /// otherwise blocks — once, in the fabric's native wait, for at most
    /// `timeout` — until it may have moved. May return early or for
    /// nothing (see the trait docs).
    fn park(&self, seen: u64, timeout: Duration);

    /// Pushes any transport-internal queued outbound traffic onto the
    /// fabric. Transports that coalesce small nonblocking sends (the TCP
    /// wire path batches them into one vectored write) override this;
    /// fabrics that transmit eagerly need nothing, so the default is a
    /// no-op. The engine calls it before parking so deferred frames never
    /// outlive the step that produced them.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if a queued frame's peer is gone.
    fn flush_outbound(&self) -> Result<(), CommError> {
        Ok(())
    }

    /// How often some thread must call into this endpoint
    /// ([`Transport::drain_inbound`] will do) while its owners compute,
    /// for the fabric to stay live: a fabric whose heartbeats and redials
    /// go out only from inside its calls says so here. `None`, the
    /// default: the fabric needs no caller to stay live. Fixed for the
    /// endpoint's life once it is shared. A wrapper must forward it, as it
    /// forwards [`Transport::flush_outbound`]: left at the default, it
    /// hides the wrapped fabric's cadence, and a serve daemon over it
    /// stops driving heartbeats and redials while its tenants compute.
    fn drive_within(&self) -> Option<Duration> {
        None
    }

    /// Receives the next payload with `tag` from `peer` within `timeout`.
    /// A payload that is already here is delivered even on an expired
    /// deadline. The one deadline loop of the receive side.
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`], naming `peer` and the `timeout` asked for,
    /// if nothing with `tag` arrives in time; otherwise as
    /// [`Transport::try_recv_tagged`].
    fn recv_tagged_deadline(
        &self,
        peer: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Encoded, CommError> {
        let mut deadline = None;
        loop {
            let seen = self.arrivals();
            if let Some(payload) = self.try_recv_tagged(peer, tag)? {
                return Ok(payload);
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(CommError::Timeout {
                    from: peer,
                    waited: timeout,
                    in_flight: 0,
                });
            }
            self.park(seen, left);
        }
    }

    /// Receives the next payload with `tag` from `peer`, waiting up to the
    /// configured timeout.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv_tagged_deadline`].
    fn recv_tagged(&self, peer: usize, tag: Tag) -> Result<Encoded, CommError> {
        self.recv_tagged_deadline(peer, tag, self.timeout())
    }

    /// Sends a payload to `peer` on the legacy (untagged) lane.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_tagged`].
    fn send(&self, peer: usize, payload: Encoded) -> Result<(), CommError> {
        self.send_tagged(peer, LEGACY_TAG, payload)
    }

    /// Receives the next legacy-lane payload from `peer`.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv_tagged_deadline`].
    fn recv(&self, peer: usize) -> Result<Encoded, CommError> {
        self.recv_tagged(peer, LEGACY_TAG)
    }

    /// Sends `payload` to every other rank on the legacy lane.
    ///
    /// # Errors
    ///
    /// Propagates the first send failure.
    fn broadcast(&self, payload: &Encoded) -> Result<(), CommError> {
        for peer in 0..self.world() {
            if peer != self.rank() {
                self.send(peer, payload.clone())?;
            }
        }
        Ok(())
    }
}

/// The teardown barrier, on every fabric: a marker to every one of `peers`
/// (ranks of `t`; self is skipped) on the `QUIESCE_TAG` lane, then one
/// from each, so that nobody drops its endpoint while a peer's final frames
/// are still on their way — in a socket, in a coalescing queue, or behind a
/// daemon's scheduler. Best-effort: a peer that fails or stays silent past the
/// timeout is skipped rather than failing a finished run.
pub fn exchange_quiesce_markers(t: &dyn Transport, peers: &[usize]) {
    let marker = Encoded::new(Shape::vector(1), Bytes::copy_from_slice(&[0x51]));
    let others = || {
        peers
            .iter()
            .copied()
            .filter(|&p| p != t.rank() && p < t.world())
    };
    for p in others() {
        let _ = t.send_tagged(p, QUIESCE_TAG, marker.clone());
    }
    for p in others() {
        let _ = t.recv_tagged_deadline(p, QUIESCE_TAG, t.timeout());
    }
}

/// Everything in flight towards one rank: the state behind its [`Mailbox`].
#[derive(Debug)]
struct Inbox {
    /// What the peers filed; `stash.unseen(peer)` is the pair's depth,
    /// bounded by [`SLOT_CAPACITY`], and a peer is closed once its
    /// endpoint is gone.
    stash: TagStash,
    /// The owning endpoint still exists, so filing here is not futile.
    open: bool,
    /// Threads waiting on [`Mailbox::arrived`] / [`Mailbox::space`]: a
    /// notify is a system call, skipped when nobody would hear it.
    parked: usize,
    blocked: usize,
}

/// One rank's mailbox, shared by the whole fabric. Senders lock it to file
/// a payload and signal `arrived`; the owner locks it to take one and
/// signals `space` when a pair's depth falls.
#[derive(Debug)]
struct Mailbox {
    inbox: Mutex<Inbox>,
    arrived: Condvar,
    space: Condvar,
}

impl Mailbox {
    /// Locks the inbox, recovering from poisoning: every update above is a
    /// push, a pop or a counter step that cannot be observed half-done, so
    /// a panic elsewhere must not take down this rank's receive path too
    /// (the panicking worker is reported by the cluster).
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes senders blocked on a full pair, after the owner looked further.
    fn note_space(&self, inbox: &Inbox) {
        if inbox.blocked > 0 {
            self.space.notify_all();
        }
    }
}

/// Pre-resolved metric handles for one endpoint (`transport.*` namespace).
/// Resolved once in [`ShmTransport::set_obs`] so the per-message cost is a
/// relaxed atomic add, not a registry lookup.
#[derive(Debug, Clone)]
struct TransportMetrics {
    msgs_sent: Counter,
    bytes_sent: Counter,
    msgs_recv: Counter,
    bytes_recv: Counter,
}

/// A rank's endpoint into the shared-memory fabric; everything it does is
/// its [`Transport`] impl.
///
/// Cheap to move into a worker thread. An endpoint is only ever driven by
/// its own rank's thread; its mailbox is contended only by the peers
/// filing into it. Dropping the endpoint disconnects it: peers' sends to
/// it fail, and their receives from it fail once they have taken what it
/// had already filed.
#[derive(Debug)]
pub struct ShmTransport {
    rank: usize,
    world: usize,
    /// `boxes[r]` is rank r's mailbox; `boxes[self.rank]` is this one's.
    boxes: Arc<[Mailbox]>,
    timeout: Duration,
    /// Message counters, populated by [`ShmTransport::set_obs`]. `None`
    /// (the default) keeps the hot path untouched.
    obs: Option<TransportMetrics>,
}

impl ShmTransport {
    /// This endpoint's rank: [`Transport::rank`], and the one method also
    /// kept inherent, so that a worker closure handed its endpoint by
    /// [`crate::ThreadCluster::run`] can seed itself without importing the
    /// trait (`benchmark/` does).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Overrides the receive timeout (default [`DEFAULT_TIMEOUT`]).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Enables message accounting on this endpoint: every delivered send
    /// and every payload handed to the caller bumps the shared
    /// `transport.msgs_sent` / `transport.bytes_sent` /
    /// `transport.msgs_recv` / `transport.bytes_recv` counters in
    /// `registry`. Call before moving the endpoint into its worker thread;
    /// endpoints without it pay nothing.
    pub fn set_obs(&mut self, registry: &MetricsRegistry) {
        use cgx_obs::names;
        self.obs = Some(TransportMetrics {
            msgs_sent: registry.counter(names::TRANSPORT_MSGS_SENT),
            bytes_sent: registry.counter(names::TRANSPORT_BYTES_SENT),
            msgs_recv: registry.counter(names::TRANSPORT_MSGS_RECV),
            bytes_recv: registry.counter(names::TRANSPORT_BYTES_RECV),
        });
    }

    fn mailbox(&self) -> &Mailbox {
        &self.boxes[self.rank]
    }

    fn check_peer(&self, peer: usize) {
        assert!(peer < self.world && peer != self.rank, "bad peer {peer}");
    }

    /// Files `payload` in `peer`'s mailbox, or hands it back when the pair
    /// is full and `block` is off.
    fn deliver(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
        block: bool,
    ) -> Result<Option<Encoded>, CommError> {
        self.check_peer(peer);
        let dest = &self.boxes[peer];
        let mut inbox = dest.lock();
        loop {
            if !inbox.open {
                return Err(CommError::Disconnected { peer });
            }
            if inbox.stash.unseen(self.rank) < SLOT_CAPACITY {
                break;
            }
            if !block {
                return Ok(Some(payload));
            }
            inbox.blocked += 1;
            inbox = dest
                .space
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
            inbox.blocked -= 1;
        }
        let bytes = payload.payload_bytes();
        inbox.stash.file(self.rank, tag, payload);
        let wake = inbox.parked > 0;
        drop(inbox);
        if wake {
            dest.arrived.notify_all();
        }
        if let Some(m) = &self.obs {
            m.msgs_sent.inc();
            m.bytes_sent.add(bytes as u64);
        }
        Ok(None)
    }
}

impl Drop for ShmTransport {
    /// Disconnects: what this rank already filed elsewhere stays
    /// receivable, what was filed here is dropped, and everyone parked on
    /// either is woken to find out.
    fn drop(&mut self) {
        for (rank, mailbox) in self.boxes.iter().enumerate() {
            let mut inbox = mailbox.lock();
            if rank == self.rank {
                inbox.open = false;
                inbox.stash.clear();
                mailbox.space.notify_all();
            } else {
                let gone = CommError::Disconnected { peer: self.rank };
                inbox.stash.close(self.rank, gone);
                mailbox.arrived.notify_all();
            }
        }
    }
}

/// # Panics
///
/// Every method that names a peer panics if it is out of range or this
/// rank itself.
impl Transport for ShmTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Blocks while the pair is full (see the module docs on flow control);
    /// fails if the peer's endpoint is dropped before or meanwhile.
    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
        self.deliver(peer, tag, payload, true).map(|_| ())
    }

    /// `Ok(Some(payload))` hands the payload back when the pair is full
    /// (the engine then drains its own inbound lanes and retries).
    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.deliver(peer, tag, payload, false)
    }

    /// Looks only under `(peer, tag)`: messages bearing other tags stay
    /// filed under their own.
    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.check_peer(peer);
        let mailbox = self.mailbox();
        let mut inbox = mailbox.lock();
        let taken = inbox.stash.receive(peer, tag);
        mailbox.note_space(&inbox);
        drop(inbox);
        let Some(payload) = taken? else {
            return Ok(None);
        };
        if let Some(m) = &self.obs {
            m.msgs_recv.inc();
            m.bytes_recv.add(payload.payload_bytes() as u64);
        }
        Ok(Some(payload))
    }

    /// Looks at everything filed so far, which frees every sender's pair
    /// of its depth. Disconnected peers are not reported here — the
    /// collective polling that peer's tag surfaces the error.
    fn drain_inbound(&self) -> usize {
        let mailbox = self.mailbox();
        let mut inbox = mailbox.lock();
        let new = inbox.stash.look();
        mailbox.note_space(&inbox);
        new
    }

    fn arrivals(&self) -> u64 {
        self.mailbox().lock().stash.arrivals()
    }

    /// Sleeps on the mailbox's condition variable: a sender's (or a
    /// dropping peer's) notify wakes it directly, like a blocking `recv`.
    fn park(&self, seen: u64, timeout: Duration) {
        let mailbox = self.mailbox();
        let mut inbox = mailbox.lock();
        if inbox.stash.arrivals() == seen {
            inbox.parked += 1;
            let (mut inbox, _) = mailbox
                .arrived
                .wait_timeout(inbox, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inbox.parked -= 1;
        }
    }
}

/// Factory for a fully-connected fabric of `n` transports.
#[derive(Debug)]
pub struct ShmFabric;

impl ShmFabric {
    /// Builds endpoints for `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize) -> Vec<ShmTransport> {
        assert!(n > 0, "fabric needs at least one rank");
        let boxes: Arc<[Mailbox]> = (0..n)
            .map(|_| Mailbox {
                inbox: Mutex::new(Inbox {
                    stash: TagStash::new(n),
                    open: true,
                    parked: 0,
                    blocked: 0,
                }),
                arrived: Condvar::new(),
                space: Condvar::new(),
            })
            .collect();
        (0..n)
            .map(|rank| ShmTransport {
                rank,
                world: n,
                boxes: Arc::clone(&boxes),
                timeout: DEFAULT_TIMEOUT,
                obs: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::{Bytes, Shape};
    use std::time::Duration;

    fn payload(tag: u8) -> Encoded {
        Encoded::new(Shape::vector(1), Bytes::copy_from_slice(&[tag]))
    }

    /// `cgx_serve::ServeNode::new` takes a `Send + Sync` endpoint: its
    /// tenant threads and its pump thread share the one endpoint.
    #[test]
    fn endpoint_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShmTransport>();
    }

    #[test]
    fn pairwise_delivery() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, payload(7)).unwrap();
        assert_eq!(b.recv(0).unwrap().payload().as_ref(), &[7]);
        b.send(2, payload(9)).unwrap();
        assert_eq!(c.recv(1).unwrap().payload().as_ref(), &[9]);
    }

    #[test]
    fn per_peer_channels_do_not_interleave() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(2, payload(1)).unwrap();
        b.send(2, payload(2)).unwrap();
        // Receives are addressed by peer, so order across peers is free.
        assert_eq!(c.recv(1).unwrap().payload().as_ref(), &[2]);
        assert_eq!(c.recv(0).unwrap().payload().as_ref(), &[1]);
    }

    #[test]
    fn timeout_on_silent_peer() {
        let mut eps = ShmFabric::build(2);
        let mut b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        b.set_timeout(Duration::from_millis(20));
        match b.recv(0) {
            Err(CommError::Timeout { from: 0, .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_peer_detected() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(a);
        match b.recv(0) {
            Err(CommError::Disconnected { peer: 0 }) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut eps = ShmFabric::build(4);
        let d = eps.pop().unwrap();
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.broadcast(&payload(5)).unwrap();
        for t in [&b, &c, &d] {
            assert_eq!(t.recv(0).unwrap().payload().as_ref(), &[5]);
        }
    }

    #[test]
    #[should_panic(expected = "bad peer")]
    fn sending_to_self_panics() {
        let mut eps = ShmFabric::build(2);
        let _b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let _ = a.send(0, payload(1));
    }

    #[test]
    fn tags_demultiplex_out_of_order_receives() {
        // Two collectives interleave on one pair; the receiver asks for
        // them in the opposite order and still gets the right payloads.
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t1 = collective_tag(1, 0, 0);
        let t2 = collective_tag(2, 0, 0);
        a.send_tagged(1, t1, payload(11)).unwrap();
        a.send_tagged(1, t2, payload(22)).unwrap();
        assert_eq!(b.recv_tagged(0, t2).unwrap().payload().as_ref(), &[22]);
        assert_eq!(b.recv_tagged(0, t1).unwrap().payload().as_ref(), &[11]);
    }

    #[test]
    fn per_tag_fifo_order_is_preserved() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ta = collective_tag(7, 0, 1);
        let tb = collective_tag(7, 1, 1);
        // Interleave two tags; each tag's stream must stay FIFO.
        a.send_tagged(1, ta, payload(1)).unwrap();
        a.send_tagged(1, tb, payload(10)).unwrap();
        a.send_tagged(1, ta, payload(2)).unwrap();
        a.send_tagged(1, tb, payload(20)).unwrap();
        assert_eq!(b.recv_tagged(0, ta).unwrap().payload().as_ref(), &[1]);
        assert_eq!(b.recv_tagged(0, ta).unwrap().payload().as_ref(), &[2]);
        assert_eq!(b.recv_tagged(0, tb).unwrap().payload().as_ref(), &[10]);
        assert_eq!(b.recv_tagged(0, tb).unwrap().payload().as_ref(), &[20]);
    }

    #[test]
    fn legacy_and_tagged_traffic_share_the_fabric() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = collective_tag(3, 2, 1);
        a.send_tagged(1, t, payload(9)).unwrap();
        a.send(1, payload(4)).unwrap();
        // The legacy receive looks only under its own tag; the tagged
        // message stays filed under `t`.
        assert_eq!(b.recv(0).unwrap().payload().as_ref(), &[4]);
        assert_eq!(
            b.try_recv_tagged(0, t).unwrap().unwrap().payload().as_ref(),
            &[9]
        );
    }

    #[test]
    fn try_recv_returns_none_when_nothing_pending() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        assert!(b
            .try_recv_tagged(0, collective_tag(0, 0, 0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn try_send_reports_full_channel_and_hands_payload_back() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let tag = collective_tag(1, 0, 0);
        let mut sent = 0usize;
        loop {
            match a.try_send_tagged(1, tag, payload(1)).unwrap() {
                None => sent += 1,
                Some(returned) => {
                    assert_eq!(returned.payload().as_ref(), &[1]);
                    break;
                }
            }
            assert!(sent < 10_000, "channel never filled");
        }
        assert_eq!(sent, SLOT_CAPACITY);
        // Draining one slot makes room again.
        assert!(b.try_recv_tagged(0, tag).unwrap().is_some());
        assert!(a.try_send_tagged(1, tag, payload(2)).unwrap().is_none());
    }

    #[test]
    fn stashed_messages_survive_peer_disconnect() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t1 = collective_tag(1, 0, 0);
        let t2 = collective_tag(2, 0, 0);
        a.send_tagged(1, t1, payload(1)).unwrap();
        a.send_tagged(1, t2, payload(2)).unwrap();
        drop(a);
        // Both were filed before the sender went: each is still deliverable
        // after the disconnect, then the error surfaces.
        assert_eq!(b.recv_tagged(0, t1).unwrap().payload().as_ref(), &[1]);
        assert_eq!(b.recv_tagged(0, t2).unwrap().payload().as_ref(), &[2]);
        assert!(matches!(
            b.try_recv_tagged(0, t1),
            Err(CommError::Disconnected { peer: 0 })
        ));
    }

    #[test]
    fn drain_inbound_moves_everything_to_inboxes() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send_tagged(2, collective_tag(1, 0, 0), payload(1))
            .unwrap();
        b.send_tagged(2, collective_tag(2, 0, 0), payload(2))
            .unwrap();
        b.send_tagged(2, collective_tag(2, 1, 0), payload(3))
            .unwrap();
        assert_eq!(c.drain_inbound(), 3);
        assert_eq!(c.drain_inbound(), 0);
        assert!(c
            .try_recv_tagged(0, collective_tag(1, 0, 0))
            .unwrap()
            .is_some());
        assert!(c
            .try_recv_tagged(1, collective_tag(2, 1, 0))
            .unwrap()
            .is_some());
    }

    #[test]
    fn recv_with_already_expired_deadline_returns_timeout_immediately() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        let t0 = Instant::now();
        match b.recv_tagged_deadline(0, collective_tag(1, 0, 0), Duration::ZERO) {
            Err(CommError::Timeout {
                from: 0,
                in_flight: 0,
                ..
            }) => {}
            other => panic!("expected immediate timeout, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "did not return promptly"
        );
    }

    #[test]
    fn expired_deadline_still_delivers_stashed_payload() {
        // A payload that is already filed must win over an expired
        // deadline — the data exists, only the clock ran out.
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let tag = collective_tag(4, 0, 1);
        a.send_tagged(1, tag, payload(42)).unwrap();
        b.drain_inbound();
        let got = b.recv_tagged_deadline(0, tag, Duration::ZERO).unwrap();
        assert_eq!(got.payload().as_ref(), &[42]);
    }

    #[test]
    fn stash_integrity_after_mid_stream_disconnect() {
        // Peer sends an interleaved multi-tag stream then dies; every
        // already-sent payload must remain deliverable, per-tag FIFO order
        // intact, before the disconnect error surfaces on each tag.
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let ta = collective_tag(1, 0, 1);
        let tb = collective_tag(1, 1, 1);
        a.send_tagged(1, ta, payload(1)).unwrap();
        a.send_tagged(1, tb, payload(10)).unwrap();
        a.send_tagged(1, ta, payload(2)).unwrap();
        drop(a);
        assert_eq!(b.recv_tagged(0, tb).unwrap().payload().as_ref(), &[10]);
        assert_eq!(b.recv_tagged(0, ta).unwrap().payload().as_ref(), &[1]);
        assert_eq!(b.recv_tagged(0, ta).unwrap().payload().as_ref(), &[2]);
        assert!(matches!(
            b.recv_tagged(0, ta),
            Err(CommError::Disconnected { peer: 0 })
        ));
        assert!(matches!(
            b.recv_tagged(0, tb),
            Err(CommError::Disconnected { peer: 0 })
        ));
    }

    /// `park` until `arrivals` has left `seen` or `timeout` has passed;
    /// whether it has. (What `wait_any_inbound` was before the eventcount.)
    fn arrived_since(t: &ShmTransport, seen: u64, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while t.arrivals() == seen && t0.elapsed() < timeout {
            t.park(seen, timeout.saturating_sub(t0.elapsed()));
        }
        t.arrivals() != seen
    }

    #[test]
    fn park_wakes_on_any_peer_and_the_arrival_stays_filed() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        let tag = collective_tag(9, 0, 1);
        let seen = c.arrivals();
        b.send_tagged(2, tag, payload(5)).unwrap();
        assert!(arrived_since(&c, seen, Duration::from_secs(5)));
        // The arrival was stashed, not dropped.
        assert_eq!(
            c.try_recv_tagged(1, tag)
                .unwrap()
                .unwrap()
                .payload()
                .as_ref(),
            &[5]
        );
        assert!(!arrived_since(&c, c.arrivals(), Duration::from_millis(5)));
    }

    #[test]
    fn park_skips_closed_channels_without_spinning() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(a);
        // Observe the disconnect so the channel is marked closed.
        assert!(matches!(
            c.try_recv_tagged(0, LEGACY_TAG),
            Err(CommError::Disconnected { peer: 0 })
        ));
        // The park must now wait out the timeout on the live peer
        // rather than returning instantly-ready on the closed one.
        let seen = c.arrivals();
        let t0 = Instant::now();
        assert!(!arrived_since(&c, seen, Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(15));
        // And a live arrival still wakes it.
        b.send_tagged(2, LEGACY_TAG, payload(3)).unwrap();
        assert!(arrived_since(&c, seen, Duration::from_secs(5)));
    }

    /// Spins until `cond` holds: how a test sees that another thread has
    /// reached the wait it is about to be woken from.
    fn until(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(20), "never saw: {what}");
            std::thread::yield_now();
        }
    }

    /// Well inside every timeout below, far beyond a wake-up.
    const PROMPT: Duration = Duration::from_secs(10);

    #[test]
    fn a_parked_rank_returns_on_the_first_send() {
        let mut eps = ShmFabric::build(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let _a = eps.pop().unwrap();
        let seen = c.arrivals();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = Instant::now();
                c.park(seen, Duration::from_secs(30));
                (c.arrivals() != seen, t0.elapsed())
            });
            until("rank 2 parked", || c.mailbox().lock().parked == 1);
            b.send_tagged(2, collective_tag(3, 0, 1), payload(8))
                .unwrap();
            let (arrived, waited) = waiter.join().unwrap();
            assert!(arrived, "woken by the send, not by the timeout");
            assert!(waited < PROMPT, "took {waited:?}");
        });
        assert_eq!(c.mailbox().lock().parked, 0);
    }

    #[test]
    fn a_sender_blocked_on_a_full_pair_wakes_when_one_frame_is_taken() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let tag = collective_tag(1, 0, 0);
        for _ in 0..SLOT_CAPACITY {
            a.send_tagged(1, tag, payload(1)).unwrap();
        }
        std::thread::scope(|s| {
            let sender = s.spawn(|| a.send_tagged(1, tag, payload(2)));
            until("rank 0 blocked", || b.mailbox().lock().blocked == 1);
            assert_eq!(b.recv_tagged(0, tag).unwrap().payload().as_ref(), &[1]);
            sender.join().unwrap().expect("room for one more");
        });
        // The pair is full again, and nothing was lost or reordered.
        assert!(a.try_send_tagged(1, tag, payload(3)).unwrap().is_some());
        for _ in 1..SLOT_CAPACITY {
            assert_eq!(b.recv_tagged(0, tag).unwrap().payload().as_ref(), &[1]);
        }
        assert_eq!(b.recv_tagged(0, tag).unwrap().payload().as_ref(), &[2]);
    }

    #[test]
    fn a_sender_blocked_on_a_full_pair_errors_when_the_receiver_drops() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for _ in 0..SLOT_CAPACITY {
            a.send(1, payload(1)).unwrap();
        }
        std::thread::scope(|s| {
            let sender = s.spawn(|| a.send(1, payload(2)));
            until("rank 0 blocked", || b.mailbox().lock().blocked == 1);
            drop(b);
            assert!(matches!(
                sender.join().unwrap(),
                Err(CommError::Disconnected { peer: 1 })
            ));
        });
    }

    #[test]
    fn a_receiver_parked_on_a_tag_learns_of_the_peer_dropping() {
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let (wanted, other) = (collective_tag(1, 0, 1), collective_tag(2, 0, 1));
        std::thread::scope(|s| {
            let receiver = s.spawn(|| b.recv_tagged_deadline(0, wanted, Duration::from_secs(30)));
            until("rank 1 parked", || b.mailbox().lock().parked == 1);
            // Traffic for another tag is not what it waits for; the wanted
            // payload is, even though its sender is gone by the time it looks.
            a.send_tagged(1, other, payload(7)).unwrap();
            a.send_tagged(1, wanted, payload(9)).unwrap();
            drop(a);
            assert_eq!(receiver.join().unwrap().unwrap().payload().as_ref(), &[9]);
        });
        assert_eq!(b.recv_tagged(0, other).unwrap().payload().as_ref(), &[7]);
        // With nothing filed, the same park ends in the disconnect itself.
        let mut eps = ShmFabric::build(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        std::thread::scope(|s| {
            let t0 = Instant::now();
            let receiver = s.spawn(|| b.recv_tagged_deadline(0, wanted, Duration::from_secs(30)));
            until("rank 1 parked", || b.mailbox().lock().parked == 1);
            drop(a);
            assert!(matches!(
                receiver.join().unwrap(),
                Err(CommError::Disconnected { peer: 0 })
            ));
            assert!(t0.elapsed() < PROMPT, "woken by the drop, not the timeout");
        });
    }

    #[test]
    fn namespace_tag_round_trips_and_is_native_transparent() {
        // Native job: identity, including the reserved specials.
        for t in [
            collective_tag(7, 3, 1),
            membership_tag(2, 1),
            LEGACY_TAG,
            CTRL_TAG,
            QUIESCE_TAG,
        ] {
            assert_eq!(namespace_tag(NATIVE_JOB, t), t);
            assert_eq!(split_tag(t), (NATIVE_JOB, t));
        }
        // Tenant jobs: every (job, tag) pair round-trips, and distinct
        // jobs never alias each other or native traffic.
        for job in [1u8, 7, MAX_TENANT_NS, 0xFE] {
            for t in [
                collective_tag(0, 0, 0),
                collective_tag_in_epoch(MAX_NAMESPACED_OP - 1, u16::MAX, 0xEE, 0xFF),
                membership_tag(MAX_NAMESPACED_OP - 1, u16::MAX),
                LEGACY_TAG,
                CTRL_TAG,
                QUIESCE_TAG,
                DETACH_TAG,
            ] {
                let wire = namespace_tag(job, t);
                assert_eq!(split_tag(wire), (job, t), "job {job} tag {t:#x}");
                assert_ne!(wire, t, "job {job} tag {t:#x} aliases native");
                assert_eq!(tag_namespace(wire), job);
            }
        }
        // Same tag under different jobs stays distinct.
        let t = collective_tag(9, 1, 2);
        assert_ne!(namespace_tag(1, t), namespace_tag(2, t));
    }

    #[test]
    #[should_panic(expected = "already carries a namespace byte")]
    fn namespacing_an_already_namespaced_tag_panics() {
        let wire = namespace_tag(3, collective_tag(1, 0, 1));
        let _ = namespace_tag(4, wire);
    }

    #[test]
    fn epoch_tags_namespace_cleanly() {
        // Epoch 0 is the historical wire format; other epochs and the
        // membership/control lanes never collide with collective tags.
        assert_eq!(collective_tag_in_epoch(7, 3, 1, 0), collective_tag(7, 3, 1));
        assert_ne!(
            collective_tag_in_epoch(7, 3, 1, 1),
            collective_tag_in_epoch(7, 3, 1, 2)
        );
        let m = membership_tag(1, 0);
        assert_ne!(m & 0xFF00, collective_tag(1, 0, 1) & 0xFF00);
        assert_ne!(CTRL_TAG, LEGACY_TAG);
    }
}
