//! Deterministic fault injection and checksummed retransmission.
//!
//! CGX targets commodity clusters where links flake and workers stall; a
//! compressed payload that is *silently* corrupted is worse than an
//! uncompressed one, because non-associative lossy decoding turns one
//! flipped bit into garbage gradients with no crash. This module supplies
//! both halves of the answer:
//!
//! * [`FaultPlan`] — a seeded, purely-functional fault schedule. Whether a
//!   given frame is dropped, delayed, duplicated or bit-flipped is a hash
//!   of `(seed, src, dst, tag, seq, attempt)`, so every failure mode is
//!   reproducible in `cargo test` with no real flaky network required.
//! * [`ChaosTransport`] — a [`Transport`] wrapper that injects the plan on
//!   the receive side and *recovers from it*: every payload is framed with
//!   its link sequence number — frames counted per (sender, receiver) pair
//!   across every tag — and an FNV-1a checksum ([`crate::framing`]). The
//!   receiver takes its peers' frames in arrival order, accepts exactly
//!   the next seq of each link, holds frames past a gap, discards
//!   duplicates, and files what is in order into one [`TagStash`]. A
//!   corrupted or missing frame is re-requested over a fault-exempt
//!   control lane ([`CTRL_TAG`]) with backoff: the NACK is the receiver's
//!   next-expected seq, and the sender resends that frame from its
//!   [`Retention`]. Callers see byte-identical traffic in the original
//!   per-tag order — transient faults only show up in
//!   [`ChaosTransport::fault_stats`] — until the *bounded* retry budget is
//!   exhausted, at which point [`CommError::Lost`] surfaces. The price of
//!   one sequence space per link is head-of-line blocking: a frame lost on
//!   one tag holds back the peer's later frames on every tag until it is
//!   resent, as a TCP stream does.
//!
//! A plan also carries the one-shot fail-stop **kill** the elastic-recovery
//! tests schedule ([`FaultPlan::kill`]). The transport does nothing with
//! it: the trainers read it from their config on any fabric and return
//! on the scheduled step, and the rank's endpoint drops with them.

use crate::error::CommError;
use crate::framing::{frame, open, Retention, HEADER_LEN, RETAIN_BYTES};
use crate::stash::TagStash;
use crate::transport::{ShmTransport, Tag, Transport, CTRL_TAG, QUIESCE_TAG};
use cgx_compress::Encoded;
use cgx_tensor::{Bytes, Shape};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cumulative fault and recovery counters for one endpoint.
///
/// `injected_*` counts what the [`FaultPlan`] did to the wire;
/// the remaining fields count what the reliability layer did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames discarded in flight by injection.
    pub injected_drops: usize,
    /// Frames bit-flipped in flight by injection.
    pub injected_corruptions: usize,
    /// Frames delivered twice by injection.
    pub injected_duplicates: usize,
    /// Frames held back by injection before delivery.
    pub injected_delays: usize,
    /// Corrupted frames caught by the checksum (and re-requested).
    pub corruptions_caught: usize,
    /// Duplicate frames discarded by sequence-number dedup.
    pub duplicates_discarded: usize,
    /// Retransmission requests (NACKs) issued.
    pub retransmit_requests: usize,
    /// Frames successfully delivered on a retransmission.
    pub frames_redelivered: usize,
    /// Membership epochs completed after an unrecoverable peer loss.
    pub recovery_epochs: usize,
}

impl FaultStats {
    /// Total faults injected on the wire.
    pub fn injected_total(&self) -> usize {
        self.injected_drops
            + self.injected_corruptions
            + self.injected_duplicates
            + self.injected_delays
    }

    /// Publishes every counter as a gauge in `registry` under the
    /// `fault.*` namespace, so fault-injection and recovery activity show
    /// up in the same metrics snapshot as the engine and pool counters.
    /// Gauges are last-write-wins: call at a quiescent point with the
    /// merged per-run stats.
    pub fn publish(&self, registry: &cgx_obs::MetricsRegistry) {
        registry
            .gauge("fault.injected_drops")
            .set(self.injected_drops as u64);
        registry
            .gauge("fault.injected_corruptions")
            .set(self.injected_corruptions as u64);
        registry
            .gauge("fault.injected_duplicates")
            .set(self.injected_duplicates as u64);
        registry
            .gauge("fault.injected_delays")
            .set(self.injected_delays as u64);
        registry
            .gauge("fault.corruptions_caught")
            .set(self.corruptions_caught as u64);
        registry
            .gauge("fault.duplicates_discarded")
            .set(self.duplicates_discarded as u64);
        registry
            .gauge("fault.retransmit_requests")
            .set(self.retransmit_requests as u64);
        registry
            .gauge("fault.frames_redelivered")
            .set(self.frames_redelivered as u64);
        registry
            .gauge("fault.recovery_epochs")
            .set(self.recovery_epochs as u64);
    }
}

/// What the plan decided to do to one frame arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Pass the frame through untouched.
    Deliver,
    /// Discard the frame in flight.
    Drop,
    /// Flip one payload bit in flight.
    Corrupt,
    /// Hold the frame back for [`FaultPlan::delay`] before delivery.
    Delay,
    /// Deliver the frame twice.
    Duplicate,
}

/// A seeded, deterministic fault schedule.
///
/// Rates are probabilities in `[0, 1]` evaluated per frame arrival from a
/// single hash roll, so a plan is a pure function of its seed: the same
/// `(seed, src, dst, tag, seq, attempt)` always yields the same
/// [`FaultKind`], and retransmitted frames (higher `attempt`) get fresh
/// rolls — a retransmission is not doomed to the original frame's fate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-frame fault hash.
    pub seed: u64,
    /// Probability a frame is dropped in flight.
    pub drop_rate: f64,
    /// Probability a frame has one bit flipped in flight.
    pub corrupt_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame is held back by [`FaultPlan::delay`].
    pub delay_rate: f64,
    /// How long a delayed frame is held.
    pub delay: Duration,
    /// Evidence-based retransmission requests allowed per stalled link
    /// before [`CommError::Lost`] surfaces.
    pub retry_budget: u32,
    /// Minimum spacing between retransmission requests for one link.
    pub retry_backoff: Duration,
    /// `(rank, step)`: that rank dies at the top of that step — fail-stop.
    /// Read by the trainers (`cgx_engine::train_rank` and its local-SGD
    /// twin) on whatever fabric they run over; the transport ignores it.
    pub kill: Option<(usize, usize)>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed and default recovery tuning.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
            retry_budget: 64,
            retry_backoff: Duration::from_millis(2),
            kill: None,
        }
    }

    /// Sets the drop rate.
    pub fn with_drop(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the corruption rate.
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets the duplication rate.
    pub fn with_duplicate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Sets the delay rate and hold duration.
    pub fn with_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Sets the retransmission budget and backoff.
    pub fn with_retry(mut self, budget: u32, backoff: Duration) -> Self {
        self.retry_budget = budget;
        self.retry_backoff = backoff;
        self
    }

    /// Schedules `rank` to die (fail-stop) at the top of `step`.
    pub fn with_kill(mut self, rank: usize, step: usize) -> Self {
        self.kill = Some((rank, step));
        self
    }

    /// The plan's verdict for one frame arrival. Pure: same inputs, same
    /// verdict — this is what makes chaos runs replayable from a seed.
    pub fn decide(&self, src: usize, dst: usize, tag: Tag, seq: u32, attempt: u32) -> FaultKind {
        let total = self.drop_rate + self.corrupt_rate + self.duplicate_rate + self.delay_rate;
        if total <= 0.0 {
            return FaultKind::Deliver;
        }
        let mut h = self.seed;
        for word in [src as u64, dst as u64, tag, seq as u64, attempt as u64] {
            h = splitmix64(h ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // 53 uniform bits -> [0, 1).
        let r = (h >> 11) as f64 / (1u64 << 53) as f64;
        if r < self.drop_rate {
            FaultKind::Drop
        } else if r < self.drop_rate + self.corrupt_rate {
            FaultKind::Corrupt
        } else if r < self.drop_rate + self.corrupt_rate + self.duplicate_rate {
            FaultKind::Duplicate
        } else if r < total {
            FaultKind::Delay
        } else {
            FaultKind::Deliver
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Jittered exponential backoff schedule for transport reconnection.
///
/// Like [`FaultPlan`], the schedule is purely functional: attempt `k`'s
/// delay is a hash of `(seed, k)`, so a reconnect storm replays exactly
/// from its seed. Delays start at `base`, grow exponentially with up to
/// +50% deterministic jitter (de-synchronizing peers that lost the same
/// link at the same instant), and clamp at `cap`; the sequence is
/// strictly monotone until the clamp. After `max_attempts` failed dials
/// the peer is condemned as [`CommError::PeerDead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// First-attempt delay and the schedule's lower bound.
    pub base: Duration,
    /// Upper clamp on any single delay.
    pub cap: Duration,
    /// Dial attempts before the peer is condemned.
    pub max_attempts: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl ReconnectPolicy {
    /// A schedule of `max_attempts` dials backing off from `base` to `cap`.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32, seed: u64) -> Self {
        assert!(base > Duration::ZERO, "backoff base must be positive");
        assert!(cap >= base, "backoff cap must be >= base");
        ReconnectPolicy {
            base,
            cap,
            max_attempts,
            seed,
        }
    }

    /// Defaults tuned for loopback/cluster fabrics: 5 attempts backing
    /// off from 20ms toward a 1s cap.
    pub fn default_for(seed: u64) -> Self {
        ReconnectPolicy::new(Duration::from_millis(20), Duration::from_secs(1), 5, seed)
    }

    /// Delay before dial attempt `attempt` (0-based). Pure integer math:
    /// `min(cap, base * 2^attempt * (1 + jitter/2))` with
    /// `jitter in [0, 1)` drawn from `splitmix64(seed ^ attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos();
        let cap_ns = self.cap.as_nanos();
        let exp_ns = base_ns.saturating_mul(1u128 << attempt.min(64));
        // 16 jitter bits -> multiplier in [65536, 98304) / 65536, i.e.
        // [1.0, 1.5): attempt k's maximum (1.5 * 2^k) stays strictly
        // below attempt k+1's minimum (2^(k+1)), keeping the schedule
        // monotone until it clamps at the cap.
        let jitter = (splitmix64(self.seed ^ attempt as u64) >> 48) as u128;
        let jittered = exp_ns.saturating_add(exp_ns.saturating_mul(jitter) / (2 * 65536));
        let ns = jittered.clamp(base_ns, cap_ns);
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Worst-case total time the schedule can spend before condemning a
    /// peer: the sum of every attempt's delay.
    pub fn budget(&self) -> Duration {
        (0..self.max_attempts).map(|k| self.delay(k)).sum()
    }
}

/// Lanes that bypass framing and injection: the NACKs themselves and the
/// end-of-run markers must not be lost to the faults they recover from.
fn raw_lane(tag: Tag) -> bool {
    tag == CTRL_TAG || tag == QUIESCE_TAG
}

/// The receiving half of one link: reassembly of the peer's frames into
/// link order.
#[derive(Default)]
struct Inbound {
    /// Next link seq owed to the stash.
    expected: u32,
    /// `(tag, payload)` of frames past a gap, by link seq, held until it
    /// fills.
    reorder: BTreeMap<u32, (Tag, Encoded)>,
    /// Per-seq count of injected losses (drop/corrupt) — the evidence
    /// that a retransmission is owed, and the `attempt` fed to the plan.
    lossy_attempts: HashMap<u32, u32>,
    /// When the last NACK on this link was sent.
    last_nack: Option<Instant>,
    /// Evidence-based NACKs since the link last advanced; exceeding the
    /// retry budget surfaces [`CommError::Lost`].
    counted_nacks: u32,
}

struct ChaosState {
    /// `sent[peer]`: framed payloads handed to that link, for serving
    /// NACKs; its end is the link seq the next frame gets.
    sent: Vec<Retention>,
    /// `links[peer]`: the receiving half of that link.
    links: Vec<Inbound>,
    /// Payloads reassembled in link order, awaiting a receive, and why a
    /// peer will file nothing more.
    stash: TagStash,
    /// Frames held back by delay injection: `(due, peer, tag, framed)`.
    delayed: Vec<(Instant, usize, Tag, Encoded)>,
    /// Retransmissions that hit a full channel, awaiting a retry.
    backlog: VecDeque<(usize, Tag, Encoded)>,
    stats: FaultStats,
}

impl ChaosState {
    /// Sequence admission of one verified frame: duplicates are
    /// discarded, a frame past a gap waits for it, and everything in link
    /// order is filed for its receiver — so a loss on one tag holds back
    /// the peer's later frames on every tag until it is resent.
    fn accept(&mut self, peer: usize, tag: Tag, seq: u32, payload: Encoded) {
        let link = &mut self.links[peer];
        // Behind `expected` — more than half the (wrapping) seq space
        // ahead of it — or already held: a duplicate.
        if seq.wrapping_sub(link.expected) >= 1 << 31 || link.reorder.contains_key(&seq) {
            self.stats.duplicates_discarded += 1;
            return;
        }
        if link.lossy_attempts.contains_key(&seq) {
            self.stats.frames_redelivered += 1;
        }
        link.reorder.insert(seq, (tag, payload));
        while let Some((tag, p)) = link.reorder.remove(&link.expected) {
            self.stash.file(peer, tag, p);
            link.lossy_attempts.remove(&link.expected);
            link.expected = link.expected.wrapping_add(1);
            link.counted_nacks = 0;
            link.last_nack = None;
        }
    }
}

/// A [`Transport`] decorator that injects a [`FaultPlan`] on the receive
/// side and masks what it injects with checksums, link sequence numbers
/// and NACK-driven retransmission. See the module docs for the protocol.
///
/// Determinism contract: because recovery restores both the bytes and the
/// per-`(peer, tag)` order of every transient-faulted frame, any
/// computation driven through a `ChaosTransport` whose results depend only
/// on delivered payloads (true of the engine and the blocking collectives)
/// is byte-identical to the fault-free run.
pub struct ChaosTransport {
    inner: ShmTransport,
    plan: FaultPlan,
    state: Mutex<ChaosState>,
}

impl ChaosTransport {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: ShmTransport, plan: FaultPlan) -> Self {
        let world = inner.world();
        ChaosTransport {
            inner,
            plan,
            state: Mutex::new(ChaosState {
                sent: (0..world).map(|_| Retention::new(RETAIN_BYTES)).collect(),
                links: (0..world).map(|_| Inbound::default()).collect(),
                stash: TagStash::new(world),
                delayed: Vec::new(),
                backlog: VecDeque::new(),
                stats: FaultStats::default(),
            }),
        }
    }

    /// Overrides the receive timeout on the wrapped fabric endpoint.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.inner.set_timeout(timeout);
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the plan has done to this endpoint's inbound frames so far,
    /// and what the reliability layer did about it. `recovery_epochs` is
    /// the trainer's to count and stays zero here.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        // A panic elsewhere while holding the lock leaves counters and
        // stashes in a consistent-enough state (every mutation is a single
        // push/insert); recover rather than cascade the panic into every
        // surviving rank's receive path.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// How long receive paths park between polls: short enough that NACK
    /// backoff timers and delayed-frame due times are observed promptly.
    fn park_slice(&self) -> Duration {
        self.plan.retry_backoff.min(Duration::from_millis(1))
    }

    /// Asks `peer` for its frame at link seq `seq`: the receiver's
    /// next-expected, one `u32` on the control lane.
    fn nack(&self, peer: usize, seq: u32) {
        let body = Bytes::copy_from_slice(&seq.to_le_bytes());
        let _ = self
            .inner
            .try_send_tagged(peer, CTRL_TAG, Encoded::new(Shape::vector(1), body));
    }

    /// Services the control lane (incoming NACKs -> retransmissions),
    /// takes in everything the peers framed, releases due delayed frames,
    /// and retries the send backlog. Returns how many frames it took in.
    fn pump(&self) -> usize {
        let mut state = self.lock();
        // Incoming NACKs: resend the retained frame at the seq asked for.
        // A seq the store no longer (or never) holds is ignored — the
        // receiver's budget or timeout bounds the stall. A peer whose
        // control lane reports it gone has filed all it ever will, so the
        // harvest below still takes its last frames in.
        for peer in 0..self.inner.world() {
            if peer == self.inner.rank() {
                continue;
            }
            loop {
                let msg = match self.inner.try_recv_tagged(peer, CTRL_TAG) {
                    Ok(Some(msg)) => msg,
                    Ok(None) => break,
                    Err(gone) => {
                        state.stash.close(peer, gone);
                        break;
                    }
                };
                let Ok(seq) = <[u8; 4]>::try_from(msg.payload().as_ref()) else {
                    continue;
                };
                let hit = state.sent[peer]
                    .suffix(u32::from_le_bytes(seq), peer)
                    .ok()
                    .and_then(|mut from| from.next())
                    .map(|(tag, framed)| (tag, framed.clone()));
                if let Some((tag, framed)) = hit {
                    state.backlog.push_back((peer, tag, framed));
                }
            }
        }
        // Everything framed, in the order it reached the fabric.
        let arrived = self.inner.take_where(|tag| !raw_lane(tag));
        let taken = arrived.len();
        for (peer, tag, framed) in arrived {
            self.admit(&mut state, peer, tag, framed, true);
        }
        // Due delayed frames re-enter fault-free (their fault already
        // happened); the admit path dedups if a retransmission won the race.
        if !state.delayed.is_empty() {
            let now = Instant::now();
            let mut due = Vec::new();
            state.delayed.retain(|(when, peer, tag, framed)| {
                if *when <= now {
                    due.push((*peer, *tag, framed.clone()));
                    false
                } else {
                    true
                }
            });
            for (peer, tag, framed) in due {
                self.admit(&mut state, peer, tag, framed, false);
            }
        }
        // Backlogged retransmissions: best-effort, keep order per attempt.
        for _ in 0..state.backlog.len() {
            let Some((peer, tag, framed)) = state.backlog.pop_front() else {
                break;
            };
            match self.inner.try_send_tagged(peer, tag, framed) {
                Ok(None) | Err(_) => {}
                Ok(Some(returned)) => {
                    state.backlog.push_front((peer, tag, returned));
                    break;
                }
            }
        }
        taken
    }

    /// Runs one inbound frame through injection, checksum verification and
    /// sequence reassembly. `allow_faults` is false for frames re-entering
    /// from the delay queue or mangled by injection.
    fn admit(
        &self,
        state: &mut ChaosState,
        peer: usize,
        tag: Tag,
        framed: Encoded,
        allow_faults: bool,
    ) {
        let Some((seq, _)) = open(tag, framed.payload()) else {
            // Caught by the checksum: ask for the link's next frame again,
            // now.
            state.stats.corruptions_caught += 1;
            state.stats.retransmit_requests += 1;
            let link = &mut state.links[peer];
            link.last_nack = Some(Instant::now());
            self.nack(peer, link.expected);
            return;
        };
        let mut copies = 1;
        if allow_faults {
            let link = &mut state.links[peer];
            let attempt = link.lossy_attempts.get(&seq).copied().unwrap_or(0);
            match self.plan.decide(peer, self.inner.rank(), tag, seq, attempt) {
                FaultKind::Deliver => {}
                FaultKind::Drop => {
                    *link.lossy_attempts.entry(seq).or_insert(0) += 1;
                    state.stats.injected_drops += 1;
                    return;
                }
                FaultKind::Corrupt => {
                    *link.lossy_attempts.entry(seq).or_insert(0) += 1;
                    state.stats.injected_corruptions += 1;
                    let mut raw = framed.payload().to_vec();
                    let body = raw.len() - HEADER_LEN;
                    if body == 0 {
                        return; // nothing to flip: degrade to a drop
                    }
                    raw[HEADER_LEN + seq as usize % body] ^= 1 << (seq % 8);
                    // The flip is silent in flight: the reader catches it.
                    let mangled = Encoded::new(framed.shape().clone(), raw.into());
                    return self.admit(state, peer, tag, mangled, false);
                }
                FaultKind::Delay => {
                    state.stats.injected_delays += 1;
                    state
                        .delayed
                        .push((Instant::now() + self.plan.delay, peer, tag, framed));
                    return;
                }
                FaultKind::Duplicate => {
                    state.stats.injected_duplicates += 1;
                    copies = 2;
                }
            }
        }
        let body = framed.payload().slice(HEADER_LEN..);
        for _ in 0..copies {
            let payload = Encoded::new(framed.shape().clone(), body.clone());
            state.accept(peer, tag, seq, payload);
        }
    }

    /// Issues a retransmission request for a stalled link when there is
    /// loss evidence, respecting the backoff; surfaces
    /// [`CommError::Lost`] once the evidence-based budget is exhausted.
    ///
    /// Evidence means we *know* the sender sent the missing frame: either
    /// a later frame of the link is parked in the reorder buffer, or
    /// injection logged a drop/corruption at exactly the missing seq.
    /// Without evidence no NACK is sent — a peer that is merely slow must
    /// never be condemned as lossy.
    fn maybe_nack(&self, state: &mut ChaosState, peer: usize) -> Result<(), CommError> {
        let link = &mut state.links[peer];
        let evidence = !link.reorder.is_empty() || link.lossy_attempts.contains_key(&link.expected);
        if !evidence
            || link
                .last_nack
                .is_some_and(|t| t.elapsed() < self.plan.retry_backoff)
        {
            return Ok(());
        }
        link.counted_nacks += 1;
        link.last_nack = Some(Instant::now());
        if link.counted_nacks > self.plan.retry_budget {
            return Err(CommError::Lost {
                peer,
                retries: link.counted_nacks - 1,
            });
        }
        state.stats.retransmit_requests += 1;
        self.nack(peer, link.expected);
        Ok(())
    }

    /// Non-blocking receive against the reassembled link. A link whose
    /// retry budget runs out is closed with [`CommError::Lost`]: nothing
    /// behind its gap can ever be delivered.
    fn poll(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.pump();
        if raw_lane(tag) {
            return self.inner.try_recv_tagged(peer, tag);
        }
        let mut state = self.lock();
        if let Some(p) = state.stash.receive(peer, tag)? {
            return Ok(Some(p));
        }
        if let Err(lost) = self.maybe_nack(&mut state, peer) {
            state.stash.close(peer, lost.clone());
            return Err(lost);
        }
        Ok(None)
    }
}

impl Transport for ChaosTransport {
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
        if raw_lane(tag) {
            return self.inner.send_tagged(peer, tag, payload);
        }
        self.pump();
        let framed = {
            let mut state = self.lock();
            let sent = &mut state.sent[peer];
            let framed = frame(tag, sent.end(), &payload);
            sent.push(tag, framed.clone(), framed.payload_bytes());
            framed
        };
        self.inner.send_tagged(peer, tag, framed)
    }

    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        if raw_lane(tag) {
            return self.inner.try_send_tagged(peer, tag, payload);
        }
        self.pump();
        let mut state = self.lock();
        let framed = frame(tag, state.sent[peer].end(), &payload);
        match self.inner.try_send_tagged(peer, tag, framed.clone())? {
            None => {
                let bytes = framed.payload_bytes();
                state.sent[peer].push(tag, framed, bytes);
                Ok(None)
            }
            // Hand back the caller's original (unframed) payload.
            Some(_) => Ok(Some(payload)),
        }
    }

    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.poll(peer, tag)
    }

    fn drain_inbound(&self) -> usize {
        self.pump() + self.inner.drain_inbound()
    }

    fn arrivals(&self) -> u64 {
        self.inner.arrivals()
    }

    /// A frame held back by delay injection or owed a NACK fires no event
    /// on the inner fabric, so no park outlasts [`Self::park_slice`]: the
    /// caller's next poll, which pumps, is what moves those along.
    fn park(&self, seen: u64, timeout: Duration) {
        self.inner.park(seen, timeout.min(self.park_slice()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{collective_tag, ShmFabric};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn enc(bytes: &[u8]) -> Encoded {
        Encoded::new(Shape::vector(bytes.len().max(1)), Bytes::copy_from_slice(bytes))
    }

    #[test]
    fn decide_is_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::new(42).with_drop(0.3).with_corrupt(0.2);
        for seq in 0..64u32 {
            assert_eq!(
                plan.decide(0, 1, 7, seq, 0),
                plan.decide(0, 1, 7, seq, 0),
                "same inputs must give the same verdict"
            );
        }
        // Retransmissions get fresh rolls: across many seqs, attempt 1
        // must not always repeat attempt 0's verdict.
        let differs = (0..256u32)
            .any(|seq| plan.decide(0, 1, 7, seq, 0) != plan.decide(0, 1, 7, seq, 1));
        assert!(differs, "attempt must reseed the roll");
    }

    #[test]
    fn decide_rates_are_roughly_honored() {
        let plan = FaultPlan::new(7).with_drop(0.25);
        let drops = (0..4000u32)
            .filter(|&seq| plan.decide(0, 1, 3, seq, 0) == FaultKind::Drop)
            .count();
        assert!(
            (800..1200).contains(&drops),
            "25% drop rate produced {drops}/4000"
        );
    }

    #[test]
    fn backoff_schedule_is_bounded_monotone_and_deterministic() {
        let p = ReconnectPolicy::new(Duration::from_millis(10), Duration::from_secs(2), 8, 99);
        let delays: Vec<_> = (0..p.max_attempts).map(|k| p.delay(k)).collect();
        for (k, d) in delays.iter().enumerate() {
            assert!(*d >= p.base, "attempt {k} below base: {d:?}");
            assert!(*d <= p.cap, "attempt {k} above cap: {d:?}");
        }
        for w in delays.windows(2) {
            assert!(
                w[1] > w[0] || w[1] == p.cap,
                "schedule must grow until the cap: {delays:?}"
            );
        }
        let replay: Vec<_> = (0..p.max_attempts).map(|k| p.delay(k)).collect();
        assert_eq!(delays, replay, "same seed must replay the same schedule");
        let other = ReconnectPolicy { seed: 100, ..p };
        assert!(
            (0..p.max_attempts).any(|k| other.delay(k) != p.delay(k)),
            "different seeds must jitter differently"
        );
        assert_eq!(p.budget(), delays.iter().sum());
    }

    #[test]
    fn frame_roundtrip_and_checksum_catches_bit_flip() {
        let original = enc(&[1, 2, 3, 4, 5]);
        let tag = collective_tag(3, 1, 2);
        let framed = frame(tag, 9, &original);
        let (seq, body) = open(tag, framed.payload()).expect("opens");
        assert_eq!(seq, 9);
        assert_eq!(body, &[1, 2, 3, 4, 5]);
        // Any single-bit flip in the body must be caught.
        for byte in HEADER_LEN..framed.payload_bytes() {
            for bit in 0..8 {
                let mut raw = framed.payload().to_vec();
                raw[byte] ^= 1 << bit;
                assert!(open(tag, &raw).is_none(), "flip at {byte}:{bit} not caught");
            }
        }
        // A wrong tag or seq also fails: frames cannot alias across lanes.
        assert!(open(tag + 1, framed.payload()).is_none());
        let mut reseq = framed.payload().to_vec();
        reseq[2] ^= 1;
        assert!(open(tag, &reseq).is_none());
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut eps = ShmFabric::build(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), FaultPlan::new(1));
        let a = ChaosTransport::new(eps.pop().unwrap(), FaultPlan::new(1));
        let tag = collective_tag(1, 0, 1);
        for i in 0..10u8 {
            Transport::send_tagged(&a, 1, tag, enc(&[i])).unwrap();
        }
        for i in 0..10u8 {
            let got = Transport::recv_tagged(&b, 0, tag).unwrap();
            assert_eq!(got.payload().as_ref(), &[i]);
        }
        assert_eq!(b.fault_stats(), FaultStats::default());
    }

    #[test]
    fn transient_faults_are_masked_in_order() {
        // Aggressive transient fault rates; the stream must still come out
        // complete, in order, byte-identical.
        let plan = FaultPlan::new(0xC0DE)
            .with_drop(0.15)
            .with_corrupt(0.1)
            .with_duplicate(0.1)
            .with_delay(0.1, Duration::from_millis(1));
        let mut eps = ShmFabric::build(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), plan.clone());
        let a = ChaosTransport::new(eps.pop().unwrap(), plan);
        let tag = collective_tag(2, 0, 1);
        let n = 200u8;
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let done_tx = done.clone();
        let sender = std::thread::spawn(move || {
            for i in 0..n {
                Transport::send_tagged(&a, 1, tag, enc(&[i, i.wrapping_mul(3)])).unwrap();
            }
            // Keep servicing retransmission requests until the receiver
            // confirms the stream is complete.
            while !done_tx.load(Ordering::Relaxed) {
                a.pump();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        for i in 0..n {
            let got = Transport::recv_tagged_deadline(&b, 0, tag, Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("frame {i}: {e}"));
            assert_eq!(got.payload().as_ref(), &[i, i.wrapping_mul(3)]);
        }
        done.store(true, Ordering::Relaxed);
        sender.join().unwrap();
        let stats = b.fault_stats();
        assert!(stats.injected_total() > 0, "plan injected nothing");
        assert!(
            stats.injected_drops == 0 || stats.frames_redelivered > 0,
            "drops happened but nothing was redelivered: {stats:?}"
        );
    }

    #[test]
    fn duplicates_are_discarded_idempotently() {
        let plan = FaultPlan::new(0xD0B1E).with_duplicate(1.0);
        let mut eps = ShmFabric::build(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), plan.clone());
        let a = ChaosTransport::new(eps.pop().unwrap(), plan);
        let tag = collective_tag(5, 0, 1);
        for i in 0..20u8 {
            Transport::send_tagged(&a, 1, tag, enc(&[i])).unwrap();
        }
        for i in 0..20u8 {
            let got = Transport::recv_tagged(&b, 0, tag).unwrap();
            assert_eq!(got.payload().as_ref(), &[i]);
        }
        // Every frame was duplicated; every duplicate was discarded, and
        // nothing further is deliverable.
        let stats = b.fault_stats();
        assert_eq!(stats.injected_duplicates, 20);
        assert_eq!(stats.duplicates_discarded, 20);
        assert!(Transport::try_recv_tagged(&b, 0, tag).unwrap().is_none());
    }

    #[test]
    fn a_loss_on_one_lane_holds_back_the_links_other_lanes_until_resent() {
        // Rank 0 sends A0, B0, A1, B1 (link seqs 0..4) on two tags. Find
        // the first seed whose schedule drops exactly A0, once: everything
        // else is delivered on its first attempt, A0 on its second.
        let (lane_a, lane_b) = (collective_tag(8, 0, 1), collective_tag(9, 0, 1));
        let sends = [(lane_a, 10u8), (lane_b, 20), (lane_a, 11), (lane_b, 21)];
        let plan = (0u64..)
            .map(|seed| FaultPlan::new(seed).with_drop(0.5))
            .find(|p| {
                p.decide(0, 1, lane_a, 0, 0) == FaultKind::Drop
                    && p.decide(0, 1, lane_a, 0, 1) == FaultKind::Deliver
                    && (1..4u32).all(|seq| {
                        p.decide(0, 1, sends[seq as usize].0, seq, 0) == FaultKind::Deliver
                    })
            })
            .expect("some seed drops only A0");
        let mut eps = ShmFabric::build(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), plan.clone());
        let a = ChaosTransport::new(eps.pop().unwrap(), plan);
        for (tag, byte) in sends {
            Transport::send_tagged(&a, 1, tag, enc(&[byte])).unwrap();
        }
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let done_tx = done.clone();
        let sender = std::thread::spawn(move || {
            // The sender serves the NACK for A0 from its retention.
            while !done_tx.load(Ordering::Relaxed) {
                a.pump();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let recv = |tag| {
            let got = Transport::recv_tagged_deadline(&b, 0, tag, Duration::from_secs(10))
                .expect("delivered");
            got.payload()[0]
        };
        // B0 arrived whole, but it sits behind A0's gap on the link: it is
        // handed over only once A0 has been resent.
        assert_eq!(recv(lane_b), 20);
        let stats = b.fault_stats();
        assert_eq!((stats.injected_drops, stats.frames_redelivered), (1, 1));
        assert!(stats.retransmit_requests >= 1);
        // Per-tag order holds on both lanes.
        assert_eq!(recv(lane_b), 21);
        assert_eq!(recv(lane_a), 10);
        assert_eq!(recv(lane_a), 11);
        done.store(true, Ordering::Relaxed);
        sender.join().unwrap();
    }

    #[test]
    fn exhausted_retry_budget_surfaces_lost() {
        // Every attempt is dropped, retransmissions included: the
        // receiver must give up with Lost, not hang.
        let plan = FaultPlan::new(0)
            .with_drop(1.0)
            .with_retry(3, Duration::from_millis(1));
        let mut eps = ShmFabric::build(2);
        let b = ChaosTransport::new(eps.pop().unwrap(), plan.clone());
        let a = ChaosTransport::new(eps.pop().unwrap(), plan);
        let tag = collective_tag(6, 0, 1);
        Transport::send_tagged(&a, 1, tag, enc(&[9])).unwrap();
        match Transport::recv_tagged_deadline(&b, 0, tag, Duration::from_secs(10)) {
            Err(CommError::Lost { peer: 0, retries }) => assert!(retries >= 3),
            other => panic!("expected Lost, got {other:?}"),
        }
    }
}
