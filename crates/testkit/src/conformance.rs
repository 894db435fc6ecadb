//! Transport conformance suite.
//!
//! The [`Transport`] trait has a contract that is easy to satisfy
//! accidentally on one implementation and violate on the next: per-tag
//! FIFO within a peer lane, out-of-order delivery *across* tags, stashed
//! payloads outliving both expired deadlines and disconnected peers, and
//! wakeup semantics for the engine's parking model. This module states
//! that contract once as executable checks, parameterized over a fabric
//! builder, so every transport (shared-memory threads, TCP sockets,
//! `cgx-serve` tenant handles) is held to the same behavior.
//!
//! Each check builds a fresh fabric via the supplied closure, so state
//! never leaks between checks. [`run_all`] runs the full battery;
//! individual checks are public for finer-grained test reporting. Beside
//! it run [`check_silent_tag_parks_boundedly`], with the fabric's own park
//! slice, and [`check_many_receivers`] on the fabrics whose endpoint serves
//! many receiving threads (shm, TCP and serve handles).

use cgx_collectives::transport::{exchange_quiesce_markers, Tag, Transport};
use cgx_collectives::CommError;
use cgx_compress::Encoded;
use cgx_tensor::Shape;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// A boxed endpoint as handed out by a fabric builder.
pub type BoxTransport = Box<dyn Transport + Send + Sync>;

/// Builds an `n`-rank fabric: element `i` is the endpoint for rank `i`.
pub type FabricBuilder = dyn Fn(usize) -> Vec<BoxTransport> + Sync;

const WAIT: Duration = Duration::from_secs(10);
const SHORT: Duration = Duration::from_millis(50);
/// Well inside [`WAIT`], far beyond a wake-up.
const PROMPT: Duration = Duration::from_secs(5);

fn payload(seed: u32) -> Encoded {
    let mut buf = Vec::with_capacity(16);
    for i in 0..4u32 {
        buf.extend_from_slice(&((seed * 10 + i) as f32).to_le_bytes());
    }
    Encoded::new(Shape::vector(4), buf.into())
}

fn assert_same(a: &Encoded, b: &Encoded, what: &str) {
    assert_eq!(a.payload(), b.payload(), "{what}: payload differs");
    assert_eq!(a.shape(), b.shape(), "{what}: shape differs");
}

/// Parks `t` until it has taken something in since `seen`, which must be
/// [`PROMPT`]: each park is asked to sleep for all of [`WAIT`], so one that
/// sleeps through the arrival fails here.
fn await_arrival(t: &dyn Transport, seen: u64) {
    let start = Instant::now();
    while t.arrivals() == seen {
        t.park(seen, WAIT);
        assert!(start.elapsed() < PROMPT, "parked through an arrival");
    }
}

/// Polls `t` with `poll` until it hands back a frame, parking between
/// polls, and returns it, which must be [`PROMPT`]. The arrival that ends a
/// park may be another job's frame on an endpoint that tenants share, so a
/// poll before this frame lands must come up empty — never an error.
fn await_frame(
    t: &dyn Transport,
    mut poll: impl FnMut() -> Result<Option<Encoded>, CommError>,
) -> Encoded {
    let start = Instant::now();
    loop {
        let seen = t.arrivals();
        if let Some(got) = poll().expect("a poll before the frame lands is empty") {
            return got;
        }
        t.park(seen, WAIT);
        assert!(start.elapsed() < PROMPT, "parked through an arrival");
    }
}

/// Endpoints report the rank/world geometry they were built with, and a
/// nonzero receive timeout.
pub fn check_identity(build: &FabricBuilder) {
    for n in [1usize, 2, 4] {
        let eps = build(n);
        assert_eq!(eps.len(), n, "builder returned wrong endpoint count");
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i, "endpoint {i} reports wrong rank");
            assert_eq!(ep.world(), n, "endpoint {i} reports wrong world");
            assert!(ep.timeout() > Duration::ZERO, "timeout must be nonzero");
        }
    }
}

/// Messages on different tags are delivered independently of send order:
/// receiving the later-sent tag first must not consume or reorder the
/// earlier one.
pub fn check_tag_demux_out_of_order(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    a.send_tagged(1, 101, payload(1)).expect("send tag 101");
    a.send_tagged(1, 202, payload(2)).expect("send tag 202");
    let second = b.recv_tagged_deadline(0, 202, WAIT).expect("recv tag 202");
    assert_same(&second, &payload(2), "tag 202");
    let first = b.recv_tagged_deadline(0, 101, WAIT).expect("recv tag 101");
    assert_same(&first, &payload(1), "tag 101");
}

/// Within one `(peer, tag)` lane, delivery order is send order.
pub fn check_per_tag_fifo(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    for i in 0..3u32 {
        a.send_tagged(1, 7, payload(i)).expect("send");
    }
    for i in 0..3u32 {
        let got = b.recv_tagged_deadline(0, 7, WAIT).expect("recv");
        assert_same(&got, &payload(i), "FIFO position");
    }
}

/// A receive against a silent (but live) peer times out with
/// [`CommError::Timeout`] naming that peer.
pub fn check_timeout_names_the_peer(build: &FabricBuilder) {
    let eps = build(2);
    // Keep rank 0 alive for the duration so the failure is a timeout,
    // not a disconnect.
    let err = eps[1]
        .recv_tagged_deadline(0, 9, SHORT)
        .expect_err("nothing was sent");
    match err {
        CommError::Timeout { from, .. } => assert_eq!(from, 0, "timeout blames wrong peer"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    drop(eps);
}

/// A zero deadline with nothing pending fails fast rather than blocking.
pub fn check_zero_deadline_times_out(build: &FabricBuilder) {
    let eps = build(2);
    let start = std::time::Instant::now();
    let err = eps[0]
        .recv_tagged_deadline(1, 3, Duration::ZERO)
        .expect_err("nothing pending");
    assert!(matches!(err, CommError::Timeout { .. }), "got {err:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "zero deadline blocked"
    );
}

/// A payload that already reached this endpoint is delivered even when
/// the caller's deadline has expired: staleness of the deadline must not
/// drop data that is already here.
pub fn check_stashed_payload_beats_expired_deadline(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    a.send_tagged(1, 40, payload(4)).expect("send");
    // Until the frame lands, an expired deadline is a timeout.
    let got = await_frame(&*b, || {
        match b.recv_tagged_deadline(0, 40, Duration::ZERO) {
            Ok(got) => Ok(Some(got)),
            Err(CommError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    });
    assert_same(&got, &payload(4), "stashed payload");
}

/// `try_recv_tagged` is `Ok(None)` when idle and surfaces a pending
/// payload after the transport has observed it.
pub fn check_try_recv(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    assert!(
        b.try_recv_tagged(0, 5).expect("idle try_recv").is_none(),
        "phantom payload"
    );
    a.send_tagged(1, 5, payload(5)).expect("send");
    let got = await_frame(&*b, || b.try_recv_tagged(0, 5));
    assert_same(&got, &payload(5), "try_recv payload");
}

/// The legacy (untagged) lane and tagged lanes share the fabric without
/// interfering.
pub fn check_legacy_and_tagged_coexist(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    a.send(1, payload(6)).expect("legacy send");
    a.send_tagged(1, 60, payload(7)).expect("tagged send");
    let tagged = b.recv_tagged_deadline(0, 60, WAIT).expect("tagged recv");
    assert_same(&tagged, &payload(7), "tagged lane");
    let legacy = b.recv(0).expect("legacy recv");
    assert_same(&legacy, &payload(6), "legacy lane");
}

/// `broadcast` reaches every other rank on the legacy lane.
pub fn check_broadcast(build: &FabricBuilder) {
    let mut eps = build(3);
    let c = eps.pop().expect("rank 2");
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    a.broadcast(&payload(8)).expect("broadcast");
    assert_same(&b.recv(0).expect("rank 1 recv"), &payload(8), "rank 1");
    assert_same(&c.recv(0).expect("rank 2 recv"), &payload(8), "rank 2");
}

/// Payloads sent before a peer goes away remain receivable; only after
/// the lane is drained does [`CommError::Disconnected`] surface.
pub fn check_stash_survives_disconnect(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    a.send_tagged(1, 11, payload(9)).expect("send tag 11");
    a.send_tagged(1, 12, payload(10)).expect("send tag 12");
    drop(a);
    // Out-of-order drain across tags, after the sender is gone.
    let t12 = b
        .recv_tagged_deadline(0, 12, WAIT)
        .expect("tag 12 outlives sender");
    assert_same(&t12, &payload(10), "tag 12 after disconnect");
    let t11 = b
        .recv_tagged_deadline(0, 11, WAIT)
        .expect("tag 11 outlives sender");
    assert_same(&t11, &payload(9), "tag 11 after disconnect");
    let err = b
        .recv_tagged_deadline(0, 11, WAIT)
        .expect_err("lane is drained and the peer is gone");
    match err {
        CommError::Disconnected { peer } => assert_eq!(peer, 0),
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

/// A closed/killed peer surfaces a *typed*, peer-scoped error within the
/// caller's deadline — never a panic, never an indefinite block. Both
/// the clean-shutdown error ([`CommError::Disconnected`]) and the
/// process-death error ([`CommError::PeerDead`]) satisfy the contract;
/// which one surfaces depends on how much of the failure the fabric can
/// see. The write path is held to the same standard: sending into the
/// dead lane either buffers or fails naming the peer — it must not
/// panic.
pub fn check_peer_death_is_typed_and_bounded(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    drop(a);
    let budget = Duration::from_secs(5);
    let start = std::time::Instant::now();
    let err = b
        .recv_tagged_deadline(0, 77, budget)
        .expect_err("peer is gone, nothing was sent");
    let elapsed = start.elapsed();
    assert!(
        matches!(
            err,
            CommError::Disconnected { .. } | CommError::PeerDead { .. }
        ),
        "death must be typed, got {err:?}"
    );
    assert_eq!(err.peer(), Some(0), "error must name the dead peer");
    assert!(
        elapsed < budget,
        "death took {elapsed:?} to surface — slower than waiting out the deadline"
    );
    match b.send_tagged(0, 78, payload(1)) {
        Ok(()) => {}
        Err(e) => assert_eq!(
            e.peer(),
            Some(0),
            "send into a dead lane must name the peer, got {e:?}"
        ),
    }
}

/// No lost wake-up: a frame that lands after the poll came up empty ends
/// the park — which is on the sample taken *before* the poll, not on
/// whatever the fabric last looked at — and once it is stashed a park on
/// that sample returns at once, leaving it receivable.
pub fn check_no_lost_wakeup(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    let seen = b.arrivals();
    assert!(b.try_recv_tagged(0, 21).expect("poll").is_none());
    a.send_tagged(1, 21, payload(11)).expect("send");
    await_arrival(&*b, seen);
    let start = Instant::now();
    b.park(seen, WAIT);
    assert!(start.elapsed() < PROMPT, "pending traffic not observed");
    let got = b
        .recv_tagged_deadline(0, 21, WAIT)
        .expect("recv after park");
    assert_same(&got, &payload(11), "post-park payload");
}

/// Forwards the nine required methods — a whole [`Transport`] — and the
/// two provided hooks, and counts the parks; the blocking receives it
/// inherits are the provided ones.
struct CountingParks<'a> {
    inner: &'a dyn Transport,
    parks: Cell<u64>,
}

impl Transport for CountingParks<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world(&self) -> usize {
        self.inner.world()
    }
    fn timeout(&self) -> Duration {
        self.inner.timeout()
    }
    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
        self.inner.send_tagged(peer, tag, payload)
    }
    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.inner.try_send_tagged(peer, tag, payload)
    }
    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.inner.try_recv_tagged(peer, tag)
    }
    fn drain_inbound(&self) -> usize {
        self.inner.drain_inbound()
    }
    fn arrivals(&self) -> u64 {
        self.inner.arrivals()
    }
    fn park(&self, seen: u64, timeout: Duration) {
        self.parks.set(self.parks.get() + 1);
        self.inner.park(seen, timeout);
    }
    fn flush_outbound(&self) -> Result<(), CommError> {
        self.inner.flush_outbound()
    }
    fn drive_within(&self) -> Option<Duration> {
        self.inner.drive_within()
    }
}

/// No spin on an unrelated stash: with a frame for another tag stashed, a
/// blocking receive on a silent tag sleeps its deadline away in parks of
/// the fabric's `slice` (the longest one park of it blocks) — about
/// `deadline / slice` of them, not thousands — and then reports a
/// [`CommError::Timeout`] naming the peer and the deadline it was given.
pub fn check_silent_tag_parks_boundedly(build: &FabricBuilder, slice: Duration) {
    const DEADLINE: Duration = Duration::from_millis(200);
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    let seen = b.arrivals();
    a.send_tagged(1, 51, payload(13)).expect("send");
    await_arrival(&*b, seen);
    let counted = CountingParks {
        inner: &*b,
        parks: Cell::new(0),
    };
    let start = Instant::now();
    let err = counted
        .recv_tagged_deadline(0, 50, DEADLINE)
        .expect_err("nothing was sent on tag 50");
    assert!(
        start.elapsed() >= DEADLINE,
        "gave up early: {:?}",
        start.elapsed()
    );
    assert_eq!(
        err,
        CommError::Timeout {
            from: 0,
            waited: DEADLINE,
            in_flight: 0
        }
    );
    let allowed = (DEADLINE.as_nanos() / slice.as_nanos()) as u64 + 8;
    let parks = counted.parks.get();
    assert!(parks >= 1, "a receive that waited never parked");
    assert!(
        parks <= allowed,
        "{parks} parks in {DEADLINE:?}, slice {slice:?}"
    );
    // The stashed frame sat through all of it.
    let got = b
        .recv_tagged_deadline(0, 51, Duration::ZERO)
        .expect("still stashed");
    assert_same(&got, &payload(13), "unrelated stash");
}

/// Many receivers on one endpoint, beside a sibling probing a tag nobody
/// sends on: five threads block on a tag each, and frames sent one at a
/// time, last thread first, each reach their own thread within a few bare
/// ping-pongs on the same endpoints — though the thread that was polling
/// may just have left with its own frame: a waiter that sleeps out its
/// park slice then fails here.
pub fn check_many_receivers(build: &FabricBuilder) {
    const K: u64 = 5;
    let mut readings = Vec::new();
    for _attempt in 0..3 {
        let mut eps = build(2);
        let b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        let (a, b, done, start) = (&*a, &*b, AtomicBool::new(false), Instant::now());
        let (rtt, delay) = std::thread::scope(|s| {
            let echo = || b.send(0, b.recv(0).expect("ping")).expect("pong");
            s.spawn(move || (0..100).for_each(|_| echo()));
            let trip = || {
                let start = Instant::now();
                a.send(1, payload(1)).expect("ping");
                a.recv(1).expect("pong");
                start.elapsed()
            };
            let mut trips: Vec<Duration> = (0..100).map(|_| trip()).collect();
            trips.sort();
            let rtt = trips[trips.len() / 2];
            // Bounded, so that a failing receiver ends the check.
            s.spawn(|| {
                while !done.load(Relaxed) && start.elapsed() < WAIT {
                    assert!(b.try_recv_tagged(0, 99).expect("probe").is_none());
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            let wait = move |tag| (b.recv_tagged_deadline(0, tag, WAIT), Instant::now());
            let mut receivers: Vec<_> = (0..K).map(|k| s.spawn(move || wait(70 + k))).collect();
            let delays = (0..K)
                .rev()
                .map(|k| {
                    // Time for every thread to park, short of a slice, and
                    // never the same twice, so no slice ends on a send.
                    std::thread::sleep(Duration::from_millis(2 + k));
                    let sent = Instant::now();
                    a.send_tagged(1, 70 + k, payload(k as u32)).expect("send");
                    let receiver = receivers.pop().expect("one per tag");
                    let (got, at) = receiver.join().expect("receiver");
                    assert_same(&got.expect("its own frame"), &payload(k as u32), "receiver");
                    at.duration_since(sent)
                })
                .max();
            done.store(true, Relaxed);
            (rtt, delays.expect("five frames"))
        });
        if delay <= 20 * rtt {
            return;
        }
        readings.push((rtt, delay));
    }
    panic!("no attempt was prompt: (round trip, slowest wake-up) = {readings:?}");
}

/// The teardown barrier, [`exchange_quiesce_markers`], completes when all
/// peers take part — no deadlock, no panic, and promptly: each rank's
/// receive finds the other's marker instead of waiting out the timeout —
/// and the endpoints tear down cleanly afterwards.
pub fn check_quiesce_completes(build: &FabricBuilder) {
    let eps = build(2);
    let start = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for ep in eps {
            handles.push(s.spawn(move || exchange_quiesce_markers(&*ep, &[0, 1])));
        }
        for h in handles {
            h.join().expect("quiesce panicked");
        }
    });
    assert!(start.elapsed() < PROMPT, "a marker never arrived");
}

/// Concurrent bidirectional traffic under threads: each rank sends a
/// burst to every other rank and receives every burst intact. Exercises
/// the locking/wakeup paths that single-threaded checks cannot.
pub fn check_concurrent_all_pairs(build: &FabricBuilder) {
    let n = 4;
    let eps = build(n);
    let outputs: Vec<Vec<(usize, Encoded)>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for ep in eps {
            handles.push(s.spawn(move || {
                let me = ep.rank();
                for peer in 0..n {
                    if peer != me {
                        for i in 0..3u32 {
                            let tag: Tag = 1000 + i as Tag;
                            ep.send_tagged(peer, tag, payload(me as u32 * 100 + i))
                                .expect("send burst");
                        }
                    }
                }
                let mut got = Vec::new();
                for peer in 0..n {
                    if peer != me {
                        // Receive the burst in reverse tag order to force
                        // demux under concurrency.
                        for i in (0..3u32).rev() {
                            let tag: Tag = 1000 + i as Tag;
                            let enc = ep
                                .recv_tagged_deadline(peer, tag, WAIT)
                                .expect("recv burst");
                            assert_same(&enc, &payload(peer as u32 * 100 + i), "burst");
                            got.push((peer, enc));
                        }
                    }
                }
                got
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for (rank, got) in outputs.iter().enumerate() {
        assert_eq!(got.len(), (n - 1) * 3, "rank {rank} missed messages");
    }
}

/// A payload far larger than any single socket write must arrive intact
/// and in order: exercises partial/short-write handling (vectored writes
/// that land fewer bytes than offered) and staged multi-read reassembly
/// on the receive side. A small trailer frame after the bulk one proves
/// the lane realigns at the next frame boundary.
pub fn check_partial_short_writes(build: &FabricBuilder) {
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    // Big enough to overflow loopback socket buffers several times over,
    // with content that makes any splice/offset error visible.
    const LEN: usize = 6 << 20;
    let mut buf = Vec::with_capacity(LEN);
    let mut x: u32 = 0x9E37_79B9;
    for _ in 0..LEN {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        buf.push((x >> 24) as u8);
    }
    let bulk = Encoded::new(Shape::vector(LEN), buf.into());
    let expect = bulk.clone();
    std::thread::scope(|s| {
        // The sender must run on its own thread: a payload this size
        // cannot fit in kernel buffers, so the send only completes once
        // the receiver is draining.
        s.spawn(move || {
            a.send_tagged(1, 31, bulk).expect("bulk send");
            a.send_tagged(1, 32, payload(1)).expect("trailer send");
        });
        let got = b.recv_tagged_deadline(0, 31, WAIT).expect("bulk recv");
        assert_same(&got, &expect, "bulk payload");
        let tail = b.recv_tagged_deadline(0, 32, WAIT).expect("trailer recv");
        assert_same(&tail, &payload(1), "frame after bulk");
    });
}

/// Many small frames sent through the nonblocking path with interleaved
/// tags, then flushed: transports that coalesce small sends must preserve
/// per-tag FIFO across batching, and the receive side must demux a burst
/// of back-to-back frames landing in one read. `flush_outbound` is the
/// contract point that makes deferred frames visible without a receive.
pub fn check_interleaved_small_frame_bursts(build: &FabricBuilder) {
    const ROUNDS: u32 = 50;
    const TAGS: u64 = 4;
    let mut eps = build(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    for round in 0..ROUNDS {
        for t in 0..TAGS {
            let tag: Tag = 500 + t;
            let p = payload(round * TAGS as u32 + t as u32);
            match a.try_send_tagged(1, tag, p).expect("try_send") {
                None => {}
                // A full channel hands the payload back; the blocking
                // lane must still deliver it in order.
                Some(returned) => a.send_tagged(1, tag, returned).expect("fallback send"),
            }
        }
    }
    a.flush_outbound().expect("flush");
    for t in 0..TAGS {
        let tag: Tag = 500 + t;
        for round in 0..ROUNDS {
            let got = b.recv_tagged_deadline(0, tag, WAIT).expect("burst recv");
            assert_same(&got, &payload(round * TAGS as u32 + t as u32), "burst FIFO");
        }
    }
}

/// Runs the entire battery. Panics (with a check-specific message) on the
/// first violation.
pub fn run_all(build: &FabricBuilder) {
    check_identity(build);
    check_tag_demux_out_of_order(build);
    check_per_tag_fifo(build);
    check_timeout_names_the_peer(build);
    check_zero_deadline_times_out(build);
    check_stashed_payload_beats_expired_deadline(build);
    check_try_recv(build);
    check_legacy_and_tagged_coexist(build);
    check_broadcast(build);
    check_stash_survives_disconnect(build);
    check_peer_death_is_typed_and_bounded(build);
    check_no_lost_wakeup(build);
    check_partial_short_writes(build);
    check_interleaved_small_frame_bursts(build);
    check_quiesce_completes(build);
    check_concurrent_all_pairs(build);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_collectives::{ShmFabric, ShmTransport};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;

    fn shm_builder(n: usize) -> Vec<BoxTransport> {
        ShmFabric::build(n)
            .into_iter()
            .map(|t| Box::new(t) as BoxTransport)
            .collect()
    }

    #[test]
    fn shm_transport_conforms() {
        run_all(&shm_builder);
    }

    /// An shm endpoint on which another job's frame arrives first: rank 0's
    /// sends count as an arrival at once and land 30 ms later, as on a
    /// tenant handle whose neighbour's frame beats the checked one.
    struct Lagged {
        inner: Arc<ShmTransport>,
        ghosts: Arc<AtomicU64>,
        sends: Mutex<Vec<JoinHandle<Result<(), CommError>>>>,
    }

    impl Drop for Lagged {
        fn drop(&mut self) {
            let sends = self.sends.get_mut().unwrap_or_else(|e| e.into_inner());
            for send in sends.drain(..) {
                // The peer may be gone by now; only the join matters.
                let _ = send.join();
            }
        }
    }

    impl Transport for Lagged {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn world(&self) -> usize {
            self.inner.world()
        }
        fn timeout(&self) -> Duration {
            self.inner.timeout()
        }
        fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
            if self.inner.rank() != 0 {
                return self.inner.send_tagged(peer, tag, payload);
            }
            self.ghosts.fetch_add(1, Relaxed);
            let inner = Arc::clone(&self.inner);
            let send = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                inner.send_tagged(peer, tag, payload)
            });
            self.sends.lock().expect("no send thread panics").push(send);
            Ok(())
        }
        fn try_send_tagged(
            &self,
            peer: usize,
            tag: Tag,
            payload: Encoded,
        ) -> Result<Option<Encoded>, CommError> {
            self.inner.try_send_tagged(peer, tag, payload)
        }
        fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
            self.inner.try_recv_tagged(peer, tag)
        }
        fn drain_inbound(&self) -> usize {
            self.inner.drain_inbound()
        }
        fn arrivals(&self) -> u64 {
            self.inner.arrivals() + self.ghosts.load(Relaxed)
        }
        fn park(&self, seen: u64, timeout: Duration) {
            let (start, slice) = (Instant::now(), Duration::from_millis(1));
            while self.arrivals() == seen && start.elapsed() < timeout {
                self.inner.park(self.inner.arrivals(), slice);
            }
        }
        fn drive_within(&self) -> Option<Duration> {
            self.inner.drive_within()
        }
    }

    fn lagged_builder(n: usize) -> Vec<BoxTransport> {
        let ghosts = Arc::new(AtomicU64::new(0));
        ShmFabric::build(n)
            .into_iter()
            .map(|t| {
                let (inner, ghosts) = (Arc::new(t), Arc::clone(&ghosts));
                let sends = Mutex::new(Vec::new());
                Box::new(Lagged {
                    inner,
                    ghosts,
                    sends,
                }) as BoxTransport
            })
            .collect()
    }

    /// The receive checks wait for their own frame, not for any arrival.
    #[test]
    fn an_arrival_that_is_not_the_frame_fools_no_receive_check() {
        check_try_recv(&lagged_builder);
        check_stashed_payload_beats_expired_deadline(&lagged_builder);
    }
}
