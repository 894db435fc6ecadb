//! Weighted deficit-round-robin (DRR) scheduling over per-job outbound
//! queues, with optional per-job token-bucket rate caps.
//!
//! This is the daemon's QoS engine: every tenant job owns one FIFO of
//! outbound frames, and every outbound turn asks the scheduler which frame
//! goes on the wire next. Classic DRR [Shreedhar & Varghese '96] gives each
//! backlogged job a *deficit* that grows by `quantum × weight` once per
//! round-robin visit and shrinks by the bytes it sends, so long-run byte
//! shares converge to the weight ratio regardless of frame sizes. A job
//! may additionally carry a token-bucket cap (bytes/second plus a burst
//! allowance) for hard bandwidth isolation.
//!
//! The scheduler is deliberately *pure*: it never reads a clock or touches
//! a socket. Callers pass `now_ns` into [`DrrScheduler::next`] and perform
//! the physical send themselves (refunding on backpressure via
//! `DrrScheduler::refund`). That keeps every scheduling decision
//! deterministic and unit-testable — the property tests drive it with a
//! simulated clock.
//!
//! Invariants the property tests pin down:
//!
//! * **Work-conserving**: if any job has backlog and no rate cap blocks
//!   it, [`DrrScheduler::next`] returns a frame — bandwidth is never left
//!   idle to enforce shares.
//! * **No starvation**: every backlogged job is served within one full
//!   round of the active list (deficit accrual is per-visit, so a
//!   huge-framed job cannot lock out a small-framed one).
//! * **Weight convergence**: over a long busy period, per-job byte shares
//!   approach `weight_i / Σ weight_j` within one max-frame per round.

use std::collections::{HashMap, VecDeque};

/// Token-bucket state for one rate-capped job.
#[derive(Debug, Clone)]
struct RateState {
    /// Sustained rate in bytes per second.
    bytes_per_sec: u64,
    /// Bucket capacity: bytes that may be sent in one burst.
    burst: u64,
    /// Current token balance (bytes).
    tokens: u64,
    /// Timestamp of the last refill, nanoseconds.
    last_refill_ns: u64,
}

impl RateState {
    /// Adds tokens for the elapsed time since the last refill, capping at
    /// `cap` (normally `burst`, but lifted to the head frame size so an
    /// oversized frame can eventually pass — liveness over strictness).
    fn refill(&mut self, now_ns: u64, cap: u64) {
        if now_ns <= self.last_refill_ns {
            return;
        }
        let dt = now_ns - self.last_refill_ns;
        // bytes = rate * dt / 1e9, in u128 to dodge overflow on long gaps.
        let add = (self.bytes_per_sec as u128 * dt as u128 / 1_000_000_000) as u64;
        if add > 0 {
            self.tokens = (self.tokens + add).min(cap.max(self.tokens));
            self.last_refill_ns = now_ns;
        }
    }

    /// Nanosecond timestamp at which `need` tokens will be available.
    fn ready_at(&self, need: u64) -> u64 {
        let missing = need.saturating_sub(self.tokens);
        if missing == 0 || self.bytes_per_sec == 0 {
            return self.last_refill_ns;
        }
        let wait = (missing as u128 * 1_000_000_000).div_ceil(self.bytes_per_sec as u128) as u64;
        self.last_refill_ns + wait
    }
}

/// One job's queue plus its DRR accounting.
#[derive(Debug)]
struct JobQ<T> {
    /// DRR weight (≥ 1): long-run byte share is proportional to this.
    weight: u64,
    /// Optional hard bandwidth cap.
    rate: Option<RateState>,
    /// Unspent deficit in bytes; grows by `quantum × weight` per visit.
    deficit: u64,
    /// Pending frames as `(size_bytes, item)` in submission order.
    queue: VecDeque<(u64, T)>,
    /// Total bytes currently queued.
    queued_bytes: u64,
    /// Total bytes ever dequeued for this job (share accounting).
    sent_bytes: u64,
    /// Whether the job currently sits on the active round-robin list.
    active: bool,
    /// Whether the current front-of-round visit has already received its
    /// quantum grant. A visit ends (and the flag clears) when the job
    /// rotates away; until then no further grants accrue, which is what
    /// bounds any job's per-round service to `quantum × weight` plus one
    /// frame and prevents a deep queue from monopolising the wire.
    visited: bool,
}

/// Outcome of one scheduling decision.
#[derive(Debug)]
pub enum Dequeue<T> {
    /// A frame was dequeued for transmission.
    Frame {
        /// The job the frame belongs to.
        job: u8,
        /// Frame size in bytes (as accounted at enqueue).
        size: u64,
        /// The frame itself.
        item: T,
    },
    /// No job has backlog; the caller may park.
    Idle,
    /// Every backlogged job is rate-capped; nothing may be sent before
    /// `ready_ns` (earliest token availability across blocked jobs).
    Throttled {
        /// Nanosecond timestamp at which some job becomes eligible.
        ready_ns: u64,
    },
}

/// Weighted deficit-round-robin scheduler over per-job frame queues.
///
/// Generic over the queued item `T` (the daemon queues
/// `(peer, wire_tag, payload)` triples; the tests queue labels).
#[derive(Debug)]
pub struct DrrScheduler<T> {
    /// Base quantum in bytes: one visit grants `quantum × weight`.
    quantum: u64,
    jobs: HashMap<u8, JobQ<T>>,
    /// Round-robin order over jobs with backlog.
    active: VecDeque<u8>,
}

impl<T> DrrScheduler<T> {
    /// Creates a scheduler with the given per-visit byte quantum.
    ///
    /// # Panics
    ///
    /// If `quantum` is zero (a zero quantum never accrues deficit).
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "DRR quantum must be positive");
        DrrScheduler {
            quantum,
            jobs: HashMap::new(),
            active: VecDeque::new(),
        }
    }

    /// Registers a job with a DRR `weight` and an optional
    /// `(bytes_per_sec, burst)` rate cap.
    ///
    /// # Panics
    ///
    /// If `weight` is zero or the job id is already registered.
    pub fn register(&mut self, job: u8, weight: u64, rate: Option<(u64, u64)>) {
        assert!(weight >= 1, "job {job}: DRR weight must be >= 1");
        let rate = rate.map(|(bps, burst)| RateState {
            bytes_per_sec: bps,
            burst: burst.max(1),
            tokens: burst.max(1),
            last_refill_ns: 0,
        });
        let prev = self.jobs.insert(
            job,
            JobQ {
                weight,
                rate,
                deficit: 0,
                queue: VecDeque::new(),
                queued_bytes: 0,
                sent_bytes: 0,
                active: false,
                visited: false,
            },
        );
        assert!(prev.is_none(), "job {job} already registered");
    }

    /// Removes a job, returning any frames still queued (in order).
    pub(crate) fn deregister(&mut self, job: u8) -> Vec<T> {
        self.active.retain(|&j| j != job);
        match self.jobs.remove(&job) {
            Some(q) => q.queue.into_iter().map(|(_, item)| item).collect(),
            None => Vec::new(),
        }
    }

    /// Queues a frame of `size` bytes for `job`.
    ///
    /// # Panics
    ///
    /// If the job is not registered.
    pub fn enqueue(&mut self, job: u8, size: u64, item: T) {
        let q = self.jobs.get_mut(&job).expect("enqueue to unknown job");
        q.queue.push_back((size, item));
        q.queued_bytes += size;
        if !q.active {
            q.active = true;
            self.active.push_back(job);
        }
    }

    /// Returns a frame to the *front* of its job's queue after a failed or
    /// backpressured physical send, restoring the deficit, tokens and byte
    /// accounting consumed when it was dequeued.
    pub(crate) fn refund(&mut self, job: u8, size: u64, item: T) {
        let Some(q) = self.jobs.get_mut(&job) else {
            return;
        };
        q.queue.push_front((size, item));
        q.queued_bytes += size;
        q.deficit += size;
        q.sent_bytes = q.sent_bytes.saturating_sub(size);
        if let Some(r) = &mut q.rate {
            r.tokens += size;
        }
        if !q.active {
            q.active = true;
            // Front of the round so the refunded frame retries first.
            self.active.push_front(job);
        }
    }

    /// Bytes currently queued for `job` (0 for unknown jobs).
    pub fn queued_bytes(&self, job: u8) -> u64 {
        self.jobs.get(&job).map_or(0, |q| q.queued_bytes)
    }

    /// Cumulative bytes dequeued for `job` (0 for unknown jobs).
    pub fn sent_bytes(&self, job: u8) -> u64 {
        self.jobs.get(&job).map_or(0, |q| q.sent_bytes)
    }

    /// True when no job has any queued frame.
    pub fn is_empty(&self) -> bool {
        self.jobs.values().all(|q| q.queue.is_empty())
    }

    /// Picks the next frame to transmit at time `now_ns`.
    ///
    /// Serves at most **one** frame per call so the caller interleaves
    /// scheduling with its sends. Work-conserving: whenever some
    /// backlogged job is not rate-blocked, a frame IS returned — the round
    /// loop repeats, banking deficit, until one covers its head frame.
    /// [`Dequeue::Throttled`] is only possible when *every* backlogged job
    /// is held back by its token bucket.
    pub fn next(&mut self, now_ns: u64) -> Dequeue<T> {
        loop {
            if self.active.is_empty() {
                return Dequeue::Idle;
            }
            let round = self.active.len();
            let mut min_ready: Option<u64> = None;
            let mut rate_blocked = 0usize;
            for _ in 0..round {
                let Some(&job) = self.active.front() else {
                    break;
                };
                let q = self.jobs.get_mut(&job).expect("active list out of sync");
                let Some(&(head_size, _)) = q.queue.front() else {
                    // Drained while active: drop from the round and reset
                    // its deficit so idle jobs never bank credit.
                    q.active = false;
                    q.deficit = 0;
                    q.visited = false;
                    self.active.pop_front();
                    continue;
                };
                // Token bucket first: a capped job that cannot afford its
                // head frame is rotated without accruing deficit.
                if let Some(r) = &mut q.rate {
                    r.refill(now_ns, r.burst.max(head_size));
                    if r.tokens < head_size {
                        let ready = r.ready_at(head_size);
                        min_ready = Some(min_ready.map_or(ready, |m| m.min(ready)));
                        rate_blocked += 1;
                        q.visited = false;
                        self.active.rotate_left(1);
                        continue;
                    }
                }
                if q.deficit < head_size {
                    if q.visited {
                        // Visit over: this job already got its grant and
                        // served what the deficit covered. Rotate with the
                        // remainder banked (an oversized frame accumulates
                        // it across rounds until covered).
                        q.visited = false;
                        self.active.rotate_left(1);
                        continue;
                    }
                    q.visited = true;
                    q.deficit += self.quantum * q.weight;
                    if q.deficit < head_size {
                        q.visited = false;
                        self.active.rotate_left(1);
                        continue;
                    }
                }
                let (size, item) = q.queue.pop_front().expect("head vanished");
                q.queued_bytes -= size;
                q.deficit -= size;
                q.sent_bytes += size;
                if let Some(r) = &mut q.rate {
                    r.tokens -= size;
                }
                if q.queue.is_empty() {
                    q.active = false;
                    q.deficit = 0;
                    q.visited = false;
                    self.active.pop_front();
                }
                return Dequeue::Frame { job, size, item };
            }
            if rate_blocked == round {
                // Every backlogged job is token-starved: report the
                // earliest time one becomes eligible.
                let ready_ns = min_ready.expect("blocked round implies a readiness time");
                return Dequeue::Throttled { ready_ns };
            }
            // Some job was merely deficit-short: loop and grant again.
        }
    }
}

/// Jain's fairness index over per-job throughput samples:
/// `(Σx)² / (n · Σx²)`. 1.0 means perfectly equal shares; `1/n` means one
/// job monopolised the resource. Returns 1.0 for empty or all-zero input.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(s: &mut DrrScheduler<&'static str>, now: u64) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        loop {
            match s.next(now) {
                Dequeue::Frame { job, size, .. } => out.push((job, size)),
                _ => return out,
            }
        }
    }

    #[test]
    fn single_job_fifo_order() {
        let mut s = DrrScheduler::new(1024);
        s.register(1, 1, None);
        s.enqueue(1, 10, "a");
        s.enqueue(1, 20, "b");
        s.enqueue(1, 30, "c");
        let mut got = Vec::new();
        while let Dequeue::Frame { item, .. } = s.next(0) {
            got.push(item);
        }
        assert_eq!(got, vec!["a", "b", "c"]);
        assert!(s.is_empty());
        assert_eq!(s.sent_bytes(1), 60);
    }

    #[test]
    fn weights_drive_byte_shares() {
        let mut s = DrrScheduler::new(1000);
        s.register(1, 3, None);
        s.register(2, 1, None);
        // Deep equal backlogs of 500-byte frames.
        for _ in 0..400 {
            s.enqueue(1, 500, "x");
            s.enqueue(2, 500, "x");
        }
        // Serve a budget of 100 frames, then compare shares.
        for _ in 0..100 {
            match s.next(0) {
                Dequeue::Frame { .. } => {}
                other => panic!("expected frame, got {other:?}"),
            }
        }
        let a = s.sent_bytes(1) as f64;
        let b = s.sent_bytes(2) as f64;
        let ratio = a / b;
        assert!(
            (2.0..=4.0).contains(&ratio),
            "weight-3 job should get ~3x the bytes of weight-1, got {ratio}"
        );
    }

    #[test]
    fn oversized_frame_banks_deficit_and_eventually_sends() {
        let mut s = DrrScheduler::new(100);
        s.register(1, 1, None);
        s.register(2, 1, None);
        s.enqueue(1, 950, "big"); // needs ~10 visits at quantum 100
        s.enqueue(2, 50, "small");
        let order = drain_all(&mut s, 0);
        assert!(order.contains(&(1, 950)), "big frame must eventually send");
        assert!(order.contains(&(2, 50)));
        // Small job must not have been starved until after the big frame.
        assert_eq!(
            order[0],
            (2, 50),
            "small frame goes first while big banks deficit"
        );
    }

    #[test]
    fn rate_cap_throttles_and_recovers() {
        let mut s = DrrScheduler::new(1 << 16);
        // 1000 bytes/sec, burst 100.
        s.register(1, 1, Some((1000, 100)));
        s.enqueue(1, 100, "a");
        s.enqueue(1, 100, "b");
        // First frame rides the initial burst.
        match s.next(0) {
            Dequeue::Frame { size: 100, .. } => {}
            other => panic!("expected burst frame, got {other:?}"),
        }
        // Second must throttle: 100 bytes at 1000 B/s = 100 ms.
        let ready = match s.next(0) {
            Dequeue::Throttled { ready_ns } => ready_ns,
            other => panic!("expected throttle, got {other:?}"),
        };
        assert_eq!(ready, 100_000_000);
        // Still blocked halfway.
        assert!(matches!(s.next(50_000_000), Dequeue::Throttled { .. }));
        // Ready at the reported time.
        match s.next(ready) {
            Dequeue::Frame { size: 100, .. } => {}
            other => panic!("expected frame after refill, got {other:?}"),
        }
        assert!(matches!(s.next(ready), Dequeue::Idle));
    }

    #[test]
    fn capped_job_never_blocks_uncapped_one() {
        let mut s = DrrScheduler::new(1 << 16);
        s.register(1, 1, Some((10, 10))); // ~frozen
        s.register(2, 1, None);
        s.enqueue(1, 1000, "capped");
        for _ in 0..50 {
            s.enqueue(2, 100, "free");
        }
        // Work conservation: all 50 free frames flow while job 1 waits.
        let mut free = 0;
        loop {
            match s.next(0) {
                Dequeue::Frame { job: 2, .. } => free += 1,
                Dequeue::Frame { job: 1, .. } => panic!("capped frame cannot afford to send"),
                _ => break,
            }
        }
        assert_eq!(free, 50);
        assert!(matches!(s.next(0), Dequeue::Throttled { .. }));
    }

    #[test]
    fn refund_restores_accounting_and_order() {
        let mut s = DrrScheduler::new(1024);
        s.register(1, 1, None);
        s.enqueue(1, 10, "a");
        s.enqueue(1, 20, "b");
        let (size, item) = match s.next(0) {
            Dequeue::Frame { size, item, .. } => (size, item),
            other => panic!("expected frame, got {other:?}"),
        };
        assert_eq!(item, "a");
        s.refund(1, size, item);
        assert_eq!(s.queued_bytes(1), 30);
        assert_eq!(s.sent_bytes(1), 0);
        // Refunded frame comes back first.
        match s.next(0) {
            Dequeue::Frame { item: "a", .. } => {}
            other => panic!("expected refunded frame first, got {other:?}"),
        }
    }

    #[test]
    fn deregister_returns_pending_frames() {
        let mut s = DrrScheduler::new(1024);
        s.register(1, 1, None);
        s.register(2, 1, None);
        s.enqueue(1, 10, "a");
        s.enqueue(1, 10, "b");
        s.enqueue(2, 10, "c");
        let left = s.deregister(1);
        assert_eq!(left, vec!["a", "b"]);
        // Job 2 unaffected.
        assert!(matches!(s.next(0), Dequeue::Frame { job: 2, .. }));
        assert!(s.is_empty());
    }

    #[test]
    fn idle_when_empty() {
        let mut s: DrrScheduler<u8> = DrrScheduler::new(64);
        s.register(1, 1, None);
        assert!(matches!(s.next(0), Dequeue::Idle));
        assert!(s.is_empty());
    }

    #[test]
    fn jain_index_basics() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        let mild = jain_index(&[4.0, 6.0]);
        assert!(mild > 0.9 && mild < 1.0);
    }
}
