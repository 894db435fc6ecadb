//! The per-rank communication engine: layer-parallel, chunk-pipelined
//! compressed allreduce (paper Section 4, Fig. 2).
//!
//! Every production reduction runs here — the trainers' rounds, flat or
//! as the leader exchange of a [`crate::hierarchy::Topology`], and the
//! PowerSGD factors. Only SRA, the paper's scheme, is pipelined;
//! the comparison schemes run their sequential reference at submit
//! ([`CommEngine::submit_owned`]). One blocking
//! [`crate::reduce::allreduce_scratch`] call per layer (the sequential
//! reference) makes every layer pay the full SRA round-trip latency before
//! the next layer's chunks even hit the wire, and every tiny filtered FP32
//! layer a whole per-message latency alone. The engine removes both
//! serializations while keeping the results byte-identical to that loop:
//!
//! * **Nonblocking submit/wait.** [`CommEngine::submit`] enqueues a
//!   reduction and returns a [`Handle`]; [`CommEngine::wait`] drives *all*
//!   in-flight reductions cooperatively from the worker thread until the
//!   requested one completes. While one collective is blocked on a peer,
//!   others keep compressing, sending and decoding.
//! * **Chunk pipelining.** Layers larger than `SEGMENT_ELEMS` (65,536
//!   elements) are split into pipeline segments; decode-accumulate of
//!   segment *k−1* overlaps compress/send of segment *k* (and of other
//!   layers). At most `MAX_LIVE` (8) machines run at once.
//! * **Small-layer coalescing.** Lossless (FP32) submissions of at most
//!   `COALESCE_ELEMS` (4,096) elements are batched into one concatenated
//!   SRA collective of up to `COALESCE_BUDGET` (2²⁰) elements, amortizing
//!   per-message latency across the dozens of norm/bias layers of a real
//!   model.
//!
//! # Why consensus and byte-equality survive
//!
//! Cross-rank bit-exact consensus needs every rank to perform the same
//! float additions in the same order and decode the same bytes. The engine
//! guarantees this with three invariants:
//!
//! 1. **Deterministic compression order.** Each submission derives a
//!    private RNG from one `next_u64()` draw of the caller's RNG and owns
//!    its compressor, so no interleaving of *other* collectives can perturb
//!    its stochastic rounding. Within a collective, phase-1 chunks are
//!    compressed eagerly at submit in fixed (segment, peer) order, and
//!    phase-2 aggregate compressions run in strict segment order — the
//!    exact call sequence of the sequential loop.
//! 2. **Fixed accumulation order.** Peer contributions decode-accumulate in
//!    global rank order 0..n (the same order [`crate::reduce`] uses), never
//!    in arrival order. Because that order is rank-indexed — independent of
//!    chunk boundaries — re-chunking by segmentation or coalescing leaves
//!    every lossless per-element sum bit-identical. The accumulator is the
//!    own chunk of the tensor the caller gets back, already holding this
//!    rank's gradient `g`; `g` enters at its rank's position by
//!    commutation (rank 1 adds `d0` onto `g`, the reference `g` onto
//!    `d0`), and ranks ≥ 2 stage the prefix `d0 + … + d(me−1)` in one
//!    pooled buffer that is then added onto `g`.
//! 3. **Tag isolation.** Every message carries a
//!    `crate::transport::collective_tag` (collective id + segment +
//!    phase); per-tag demux inboxes mean concurrent collectives cannot
//!    steal each other's payloads. Collective ids are issued by a rank-local
//!    counter, which stays rank-aligned because all ranks submit in the
//!    same order (the standard communicator-ordering requirement).
//!
//! Deadlock freedom: sends go through per-collective output queues flushed
//! with nonblocking `try_send`, receives never wait on sends, and a
//! collective does not complete until its queue drains — so any rank that
//! finished waiting on collective *k* has pushed everything its peers need
//! for *k*, and the slowest rank always makes progress.
//!
//! Any transport failure (peer death, timeout) **poisons** the engine:
//! every in-flight and subsequent `wait` returns the same [`CommError`]
//! instead of hanging, so a mid-pipeline worker crash surfaces on all
//! peers' handles.

use crate::error::CommError;
use crate::reduce::{allreduce_scratch, check_chunk, chunk_ranges, Algorithm, AllreduceStats};
use crate::transport::{collective_tag_in_epoch, Tag, Transport};
use cgx_compress::{Compressor, Encoded, NoneCompressor, ScratchPool};
use cgx_obs::{pack_meta, Counter, EventRecorder, Gauge, Histogram, ObsHandle, SpanKind};
use cgx_tensor::{Rng, Tensor};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Layers larger than this many elements are cut into pipeline segments
/// of at most this size. Segment boundaries are lossy codecs' bucket
/// geometry, so this is part of the wire format.
const SEGMENT_ELEMS: usize = 1 << 16;
/// Lossless SRA submissions of at most this many elements are coalesced
/// into one concatenated collective.
const COALESCE_ELEMS: usize = 4096;
/// The pending coalesce group is flushed before it would exceed this many
/// elements.
const COALESCE_BUDGET: usize = 1 << 20;
/// At most this many pipelined machines run at once (a coalesce group
/// may add one); later submissions launch FIFO as earlier ones finish.
/// This keeps the progress scan O(`MAX_LIVE`) when a whole model's layers
/// are submitted at once, and since launch order is the (rank-invariant)
/// submit order it changes timing only, never bytes.
const MAX_LIVE: usize = 8;

/// What a caller chooses for an engine: the lane epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Membership epoch stamped into every wire tag
    /// (`crate::transport::collective_tag_in_epoch`). Elastic trainers
    /// bump it after each recovery so a straggler's pre-recovery frames
    /// cannot alias post-recovery collectives. Epoch 0 keeps the
    /// historical wire format byte-identical.
    pub epoch: u8,
}

/// Packs a membership epoch and a compression-plan epoch into the 8-bit
/// lane-epoch field of [`EngineOptions::epoch`]: membership in the low
/// nibble, plan in the high nibble (both modulo 16 — collision would
/// need 16 live re-plans or recoveries *in flight at once*, while the
/// engine drains every collective between steps).
///
/// With `plan_epoch == 0` this reproduces the historical
/// `(membership & 0xFF) as u8` stamping for memberships below 16, so
/// non-adaptive runs keep their wire format byte-identical. Adaptive
/// trainers stamp both so a rank that somehow committed a different
/// plan (or missed one) fails fast with a tag mismatch instead of
/// silently reducing payloads encoded under different schemes.
pub fn lane_epoch(membership_epoch: u64, plan_epoch: u64) -> u8 {
    ((membership_epoch & 0x0F) | ((plan_epoch & 0x0F) << 4)) as u8
}

/// Identifies one submitted reduction; redeem with [`CommEngine::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(usize);

/// An entry in a machine's output queue: destination rank, wire tag,
/// payload.
type Outgoing = (usize, Tag, Encoded);

/// Member of a coalesced group: which op it redeems, its slice of the
/// concatenated buffer, and the tensor it submitted, which takes the
/// reduced slice back.
struct Member {
    op: usize,
    range: Range<usize>,
    tensor: Tensor,
}

/// A submission parked behind [`MAX_LIVE`]: everything
/// needed to build its machine when a live slot frees up. The op id is
/// already allocated (at submit), so tags stay rank-aligned no matter
/// when the launch happens.
struct QueuedLaunch {
    grad: Tensor,
    comp: Box<dyn Compressor>,
    rng: Rng,
    op_id: u32,
}

/// Per-submission bookkeeping.
struct OpState {
    /// Finished result, parked until `wait` collects it.
    result: Option<(Tensor, AllreduceStats)>,
    /// The caller's compressor, returned at `wait`. For machine-driven ops
    /// it lives inside the machine while running.
    comp: Option<Box<dyn Compressor>>,
    machine: Option<SraMachine>,
    /// Submission parked behind the live-machine cap.
    queued: Option<QueuedLaunch>,
    /// Set on coalesce-group driver ops (which have no external handle).
    members: Option<Vec<Member>>,
    /// Its [`CommEngine::note_in_flight`] number, for [`CommEngine::peak_since`].
    noted: usize,
    /// True once the op produced (or delivered) its result.
    completed: bool,
}

impl OpState {
    fn new() -> Self {
        OpState {
            result: None,
            comp: None,
            machine: None,
            queued: None,
            members: None,
            noted: 0,
            completed: false,
        }
    }
}

/// The per-rank communication engine. Borrows the rank's transport; create
/// one per worker (they are not `Sync` — a rank drives its own engine).
pub struct CommEngine<'a> {
    t: &'a dyn Transport,
    pool: ScratchPool,
    opts: EngineOptions,
    ops: Vec<OpState>,
    next_op_id: u32,
    /// The pending coalesce group in submit order, and its members'
    /// gradients concatenated (copied once, straight from the caller).
    pending: Vec<Member>,
    group: Vec<f32>,
    /// Op indices waiting for a live-machine slot, in submit order.
    launch_queue: VecDeque<usize>,
    /// Ops whose machine is live, in launch order: all a progress round,
    /// a park or a timeout report scans.
    active: Vec<usize>,
    poisoned: Option<CommError>,
    in_flight: usize,
    /// `(note, in_flight)` of each [`CommEngine::note_in_flight`] call no
    /// later call has matched: notes ascending, values descending, so the
    /// peak since note `k` is the first entry at or after `k`.
    peaks: Vec<(usize, usize)>,
    notes: usize,
    /// Observability handle: disabled by default ([`CommEngine::with_obs`]
    /// turns it on). Recording never draws RNG or changes control flow, so
    /// enabling it cannot perturb byte-identical determinism.
    obs: ObsHandle,
    /// Registry handles pre-resolved at [`CommEngine::with_obs`] so the
    /// wait-completion path pays atomic adds, not name lookups.
    em: Option<EngineMetrics>,
}

/// Pre-resolved metric handles for the engine's per-wait accounting, all
/// under the `engine.*` namespace of the shared registry.
struct EngineMetrics {
    submitted: Counter,
    completed: Counter,
    bytes_sent: Counter,
    compress_ns: Counter,
    decode_ns: Counter,
    idle_ns: Counter,
    wait_ns: Histogram,
    max_in_flight: Gauge,
}

impl EngineMetrics {
    fn new(obs: &ObsHandle) -> Self {
        let reg = obs.registry();
        EngineMetrics {
            submitted: reg.counter("engine.collectives_submitted"),
            completed: reg.counter("engine.collectives_completed"),
            bytes_sent: reg.counter("engine.bytes_sent"),
            compress_ns: reg.counter("engine.compress_ns"),
            decode_ns: reg.counter("engine.decode_ns"),
            idle_ns: reg.counter("engine.idle_ns"),
            wait_ns: reg.histogram("engine.wait_ns"),
            max_in_flight: reg.gauge("engine.max_in_flight"),
        }
    }
}

impl<'a> CommEngine<'a> {
    /// Creates an engine over `transport`, drawing scratch from `pool`.
    pub fn new(transport: &'a dyn Transport, pool: ScratchPool, opts: EngineOptions) -> Self {
        CommEngine {
            t: transport,
            pool,
            opts,
            ops: Vec::new(),
            next_op_id: 0,
            pending: Vec::new(),
            group: Vec::new(),
            launch_queue: VecDeque::new(),
            active: Vec::new(),
            poisoned: None,
            in_flight: 0,
            peaks: Vec::new(),
            notes: 0,
            obs: ObsHandle::disabled(),
            em: None,
        }
    }

    /// Engine with default options.
    pub fn with_defaults(transport: &'a dyn Transport, pool: ScratchPool) -> Self {
        Self::new(transport, pool, EngineOptions::default())
    }

    /// Attaches an observability handle (builder-style). Every collective's
    /// lifecycle (submit → compress → wire → decode → complete, plus idle
    /// parks) is recorded into `obs`'s per-rank [`EventRecorder`], and
    /// per-wait totals feed the shared registry's `engine.*` metrics. A
    /// disabled handle (the default) reduces all of this to single
    /// branches.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.em = obs.enabled().then(|| EngineMetrics::new(&obs));
        self.obs = obs;
        self
    }

    /// The engine's observability handle (disabled unless
    /// [`CommEngine::with_obs`] was called).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Number of collectives currently in flight (submitted, not finished).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// [`CommEngine::submit_owned`] on a copy of `grad`, for a caller that
    /// keeps its gradient.
    pub fn submit(
        &mut self,
        alg: Algorithm,
        grad: &Tensor,
        comp: Box<dyn Compressor>,
        rng: &mut Rng,
    ) -> Handle {
        self.submit_owned(alg, grad.clone(), comp, rng)
    }

    /// Enqueues an allreduce of `grad` and returns immediately. All ranks
    /// must submit (and later wait) their collectives in the same order.
    /// The compressor is owned by the collective until [`CommEngine::wait`]
    /// returns it; exactly one `next_u64` is drawn from `rng` to seed the
    /// collective's private RNG (the sequential reference loop can
    /// reproduce the stream by deriving per-layer RNGs the same way).
    ///
    /// The engine reduces in `grad`'s own buffer: the tensor `wait`
    /// returns is the one moved in here (a coalesced member's takes its
    /// slice of the group's sum back; a one-rank world's is untouched).
    /// An engine that is or becomes poisoned drops it with the rest of
    /// the collective.
    ///
    /// Only [`Algorithm::ScatterReduceAllgather`] has a pipelined machine.
    /// [`Algorithm::Ring`], [`Algorithm::Tree`] and
    /// [`Algorithm::AllgatherBroadcast`] run their sequential reference
    /// ([`crate::reduce::allreduce_scratch`]) eagerly (blocking) at submit,
    /// on the legacy lane, which is safe because every rank reaches the
    /// same submit in program order; they return a tensor of their own
    /// and record no engine spans.
    pub fn submit_owned(
        &mut self,
        alg: Algorithm,
        grad: Tensor,
        comp: Box<dyn Compressor>,
        rng: &mut Rng,
    ) -> Handle {
        let mut op_rng = Rng::seed_from_u64(rng.next_u64());
        let idx = self.ops.len();
        let mut op = OpState::new();

        if self.t.world() == 1 || grad.is_empty() {
            op.result = Some((grad, AllreduceStats::default()));
            op.comp = Some(comp);
            op.completed = true;
            self.ops.push(op);
            return Handle(idx);
        }
        if self.poisoned.is_some() {
            // Park the compressor; wait() will surface the poison.
            op.comp = Some(comp);
            self.ops.push(op);
            return Handle(idx);
        }

        let coalescible = alg == Algorithm::ScatterReduceAllgather
            && grad.len() <= COALESCE_ELEMS
            && comp.is_lossless();
        if coalescible {
            if self.group.len() + grad.len() > COALESCE_BUDGET {
                self.flush_pending();
            }
            if self.pending.is_empty() {
                self.group = self.pool.take_f32(0);
            }
            // The flush may have appended the group-driver op, so this
            // op's slot is re-derived here, not taken from `idx` above.
            let idx = self.ops.len();
            let at = self.group.len();
            self.group.extend_from_slice(grad.as_slice());
            self.pending.push(Member {
                op: idx,
                range: at..self.group.len(),
                tensor: grad,
            });
            op.comp = Some(comp);
            op.noted = self.note_in_flight();
            self.ops.push(op);
            if let Some(em) = &self.em {
                em.submitted.inc();
            }
            return Handle(idx);
        }

        if let Some(em) = &self.em {
            em.submitted.inc();
        }
        match alg {
            Algorithm::ScatterReduceAllgather => {
                // The op id is claimed now (submit order is rank-aligned);
                // the machine itself launches when a live slot is free.
                let op_id = self.alloc_op_id();
                let rec = self.obs.recorder();
                rec.instant(
                    SpanKind::Submit,
                    pack_meta(op_id, 0, 0, self.opts.epoch),
                    rec.now_ns(),
                    grad.len() as u64,
                );
                op.queued = Some(QueuedLaunch {
                    grad,
                    comp,
                    rng: op_rng,
                    op_id,
                });
                op.noted = self.note_in_flight();
                self.ops.push(op);
                self.launch_queue.push_back(idx);
                // Launching pumps the new machine's sends; a full
                // progress round would rescan every live machine on every
                // submit, which is pure overhead — receives drain in
                // `wait`, and submit never blocks on them.
                self.pump_launch_queue();
            }
            Algorithm::Ring | Algorithm::Tree | Algorithm::AllgatherBroadcast => {
                // Eager path: these run one-at-a-time on the legacy lane.
                op.noted = self.note_in_flight();
                self.ops.push(op);
                let mut comp = comp;
                match allreduce_scratch(alg, self.t, &grad, &mut *comp, &mut op_rng, &self.pool) {
                    Ok((out, mut stats)) => {
                        stats.max_in_flight = self.peak_since(self.ops[idx].noted);
                        self.ops[idx].result = Some((out, stats));
                        self.ops[idx].comp = Some(comp);
                        self.ops[idx].completed = true;
                        self.in_flight -= 1;
                    }
                    Err(e) => {
                        self.ops[idx].comp = Some(comp);
                        self.poison(e);
                    }
                }
            }
        }
        Handle(idx)
    }

    /// Blocks until the collective behind `h` completes, driving every
    /// in-flight collective meanwhile. Returns the reduced tensor, its
    /// stats and the compressor lent at submit.
    ///
    /// # Errors
    ///
    /// Returns the poisoning [`CommError`] if any collective on this
    /// engine failed (peer death, timeout) — once poisoned, every wait
    /// returns that same error.
    ///
    /// # Panics
    ///
    /// Panics if `h` was already waited on.
    pub fn wait(
        &mut self,
        h: Handle,
    ) -> Result<(Tensor, AllreduceStats, Box<dyn Compressor>), CommError> {
        self.flush_pending();
        let was_busy = self.in_flight > 0;
        let mut idle_ns: u64 = 0;
        let mut last_progress = Instant::now();
        loop {
            if self.ops[h.0].result.is_some() {
                // This wait drove the last collective home: the caller may
                // now go quiet, so nothing of ours may stay behind in the
                // transport's coalescing queue for a peer to wait on. The
                // result in hand is complete whatever the flush says; a
                // peer that can no longer be written to fails the next
                // collective, on every rank alike.
                if was_busy && self.in_flight == 0 {
                    let _ = self.t.flush_outbound();
                }
                let (tensor, mut stats) = self.ops[h.0].result.take().expect("checked above");
                stats.wait_ns = stats.wait_ns.saturating_add(idle_ns);
                let comp = self.ops[h.0].comp.take().expect("compressor present");
                if let Some(em) = &self.em {
                    em.completed.inc();
                    em.bytes_sent.add(stats.bytes_sent as u64);
                    em.compress_ns.add(stats.compress_ns);
                    em.decode_ns.add(stats.decode_ns);
                    em.idle_ns.add(idle_ns);
                    em.wait_ns.record(stats.wait_ns);
                    em.max_in_flight.raise(stats.max_in_flight as u64);
                }
                return Ok((tensor, stats, comp));
            }
            if let Some(e) = &self.poisoned {
                return Err(e.clone());
            }
            assert!(!self.ops[h.0].completed, "handle {h:?} waited twice");
            // Sampled before anything is polled: what lands after this is
            // what the park below must not sleep through.
            let seen = self.t.arrivals();
            match self.progress_all() {
                Ok(true) => {
                    last_progress = Instant::now();
                    continue;
                }
                Ok(false) => {}
                Err(e) => return Err(e),
            }
            if self.t.drain_inbound() > 0 {
                last_progress = Instant::now();
                continue;
            }
            // One sample serves both the deadline check and the error
            // report: re-sampling after the comparison used to let the
            // reported `waited` drift past the value that actually tripped
            // the deadline.
            let waited = last_progress.elapsed();
            if waited >= self.t.timeout() {
                let e = CommError::Timeout {
                    from: self.blocked_peer(),
                    waited,
                    in_flight: self.in_flight,
                };
                return Err(self.poison(e));
            }
            // About to park: push any transport-coalesced frames onto the
            // wire first, or the peers we are waiting on may in turn be
            // waiting on bytes still sitting in our outbound queue.
            if let Err(e) = self.t.flush_outbound() {
                return Err(self.poison(e));
            }
            // Nothing to do anywhere: park until the transport has taken
            // something in since `seen` — any arrival, from any peer, most
            // likely unblocks some machine, and a peer's death is one too
            // (the machine polling it reports the error). The sender's
            // handoff wakes us directly, as it would a blocking recv; the
            // short cap keeps send retries and the engine timeout live.
            let park_start = self.obs.recorder().now_ns();
            let t0 = Instant::now();
            self.t.park(seen, Duration::from_millis(1));
            let parked = t0.elapsed().as_nanos() as u64;
            idle_ns += parked;
            self.obs
                .recorder()
                .record(SpanKind::Idle, 0, park_start, park_start + parked, 0);
        }
    }

    /// Submits then immediately waits — the engine equivalent of one
    /// sequential `allreduce_scratch` call.
    ///
    /// # Errors
    ///
    /// As [`CommEngine::wait`].
    pub fn allreduce(
        &mut self,
        alg: Algorithm,
        grad: &Tensor,
        comp: Box<dyn Compressor>,
        rng: &mut Rng,
    ) -> Result<(Tensor, AllreduceStats, Box<dyn Compressor>), CommError> {
        let h = self.submit(alg, grad, comp, rng);
        self.wait(h)
    }

    fn alloc_op_id(&mut self) -> u32 {
        let id = self.next_op_id;
        // Wrap below the job-namespace boundary so the tag's top byte
        // stays free for `cgx-serve` multiplexing (2^24 collectives can
        // never be simultaneously in flight, so reuse is safe).
        self.next_op_id = (self.next_op_id + 1) % crate::transport::MAX_NAMESPACED_OP;
        id
    }

    /// Counts a newly in-flight collective; returns the call's number.
    fn note_in_flight(&mut self) -> usize {
        self.in_flight += 1;
        while self.peaks.last().is_some_and(|&(_, v)| v <= self.in_flight) {
            self.peaks.pop();
        }
        let note = self.notes;
        self.notes += 1;
        self.peaks.push((note, self.in_flight));
        note
    }

    /// The most collectives in flight at once since note `noted` — an
    /// op's `AllreduceStats::max_in_flight` when read as it completes.
    fn peak_since(&self, noted: usize) -> usize {
        self.peaks[self.peaks.partition_point(|&(k, _)| k < noted)].1
    }

    /// Builds one SRA collective over the concatenation of all pending
    /// coalesced layers. Called at deterministic program points only
    /// (budget overflow at submit, entry to wait), so the flush — and the
    /// collective id it consumes — lines up across ranks.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() || self.poisoned.is_some() {
            return;
        }
        let members = std::mem::take(&mut self.pending);
        let total = self.group.len();
        let concat = Tensor::from_vec(&[total], std::mem::take(&mut self.group));
        let op_id = self.alloc_op_id();
        // Members are all lossless, so the group travels as raw FP32; the
        // RNG is never consulted but the seed is rank-invariant anyway.
        let rec = self.obs.recorder();
        rec.instant(
            SpanKind::Submit,
            pack_meta(op_id, 0, 0, self.opts.epoch),
            rec.now_ns(),
            total as u64,
        );
        let m = SraMachine::new(
            self.t,
            op_id,
            self.opts.epoch,
            concat,
            Box::new(NoneCompressor::new()),
            Rng::seed_from_u64(0xC0A1_E5CE ^ u64::from(op_id)),
            &self.pool,
            rec.clone(),
        );
        let mut driver = OpState::new();
        driver.members = Some(members);
        self.ops.push(driver);
        // The driver launches immediately (the flush point is where the
        // caller starts blocking), even if it briefly overshoots the
        // live-machine cap; pumping it puts the group's chunks on the
        // wire before the wait loop takes over.
        self.launch(self.ops.len() - 1, m);
    }

    /// Makes `m` op `idx`'s live machine and pumps it once, so its phase-1
    /// sends reach the peers; the rest is the next `progress_all` round's.
    fn launch(&mut self, idx: usize, mut m: SraMachine) {
        let pumped = m.progress(self.t, &self.pool);
        self.ops[idx].machine = Some(m);
        self.active.push(idx);
        if let Err(e) = pumped {
            self.poison(e);
        }
    }

    /// Launches queued machines FIFO while live slots are available.
    fn pump_launch_queue(&mut self) {
        while self.poisoned.is_none() && self.active.len() < MAX_LIVE {
            let Some(idx) = self.launch_queue.pop_front() else {
                return;
            };
            let q = self.ops[idx].queued.take().expect("queued launch");
            let m = SraMachine::new(
                self.t,
                q.op_id,
                self.opts.epoch,
                q.grad,
                q.comp,
                q.rng,
                &self.pool,
                self.obs.recorder().clone(),
            );
            self.launch(idx, m);
        }
    }

    /// Drives every active machine one round, those a finished one makes
    /// room for included; returns whether anything moved.
    ///
    /// # Errors
    ///
    /// The first transport failure poisons the engine and is returned.
    fn progress_all(&mut self) -> Result<bool, CommError> {
        let mut progressed = false;
        let mut k = 0;
        while k < self.active.len() {
            let i = self.active[k];
            let m = self.ops[i].machine.as_mut().expect("active machine");
            match m.progress(self.t, &self.pool) {
                Ok(p) => progressed |= p,
                Err(e) => return Err(self.poison(e)),
            }
            if m.finished() {
                self.active.remove(k);
                self.finalize(i);
                progressed = true;
            } else {
                k += 1;
            }
        }
        Ok(progressed)
    }

    /// Turns op `i`'s finished machine (already off `active`) into results.
    fn finalize(&mut self, i: usize) {
        let m = self.ops[i].machine.take().expect("finished machine");
        let rec = self.obs.recorder();
        rec.instant(
            SpanKind::Complete,
            pack_meta(m.op_id, 0, 0, self.opts.epoch),
            rec.now_ns(),
            0,
        );
        let (out, mut stats, comp) = (m.out, m.stats, m.comp);
        if let Some(members) = self.ops[i].members.take() {
            // Coalesce-group driver: scatter slices back to the members.
            // Wire traffic is attributed to the first member (the group
            // was one collective; double-counting would inflate totals).
            let data = out.as_slice();
            for (k, mut mb) in members.into_iter().enumerate() {
                mb.tensor.as_mut_slice().copy_from_slice(&data[mb.range]);
                let mut s = if k == 0 {
                    stats
                } else {
                    AllreduceStats::default()
                };
                s.max_in_flight = self.peak_since(self.ops[mb.op].noted);
                self.ops[mb.op].result = Some((mb.tensor, s));
                self.ops[mb.op].completed = true;
                self.in_flight -= 1;
            }
            self.pool.put_f32(out.into_vec());
            self.ops[i].completed = true;
        } else {
            stats.max_in_flight = self.peak_since(self.ops[i].noted);
            self.ops[i].result = Some((out, stats));
            self.ops[i].comp = Some(comp);
            self.ops[i].completed = true;
            self.in_flight -= 1;
        }
        self.pump_launch_queue();
    }

    /// Best guess at which peer the engine is stalled on, for timeout
    /// reporting.
    fn blocked_peer(&self) -> usize {
        self.active
            .first()
            .and_then(|&i| self.ops[i].machine.as_ref())
            .map_or(0, SraMachine::blocked_on)
    }

    /// Records the first failure, promoting peer-scoped transport faults
    /// to the recoverable [`CommError::PeerLost`] shape so elastic
    /// callers can tell "a peer is gone, shrink and continue" apart from
    /// programming errors. Returns the (possibly promoted) stored poison
    /// so error paths surface exactly what later waits will see.
    fn poison(&mut self, e: CommError) -> CommError {
        if self.poisoned.is_none() {
            let promoted = match e {
                CommError::Disconnected { peer }
                | CommError::Timeout { from: peer, .. }
                | CommError::Lost { peer, .. } => CommError::PeerLost {
                    peer,
                    cause: Box::new(e),
                },
                other => other,
            };
            self.poisoned = Some(promoted);
        }
        self.poisoned.clone().expect("just set")
    }
}

impl std::fmt::Debug for CommEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommEngine")
            .field("rank", &self.t.rank())
            .field("ops", &self.ops.len())
            .field("in_flight", &self.in_flight)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// Flushes as much of an output queue as the channels accept, preserving
/// per-peer FIFO order (an entry to a blocked peer blocks later entries to
/// that peer only). Each payload that actually reaches the transport is
/// recorded as a `Wire` event carrying the wire tag and payload size.
fn pump_outq(
    outq: &mut VecDeque<Outgoing>,
    t: &dyn Transport,
    rec: &EventRecorder,
) -> Result<bool, CommError> {
    let mut progressed = false;
    let mut blocked: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < outq.len() {
        let peer = outq[i].0;
        if blocked.contains(&peer) {
            i += 1;
            continue;
        }
        let (p, tag, enc) = outq.remove(i).expect("index in bounds");
        let bytes = enc.payload_bytes() as u64;
        match t.try_send_tagged(p, tag, enc)? {
            None => {
                rec.instant(SpanKind::Wire, tag, rec.now_ns(), bytes);
                progressed = true;
            }
            Some(enc) => {
                outq.insert(i, (p, tag, enc));
                blocked.push(p);
                i += 1;
            }
        }
    }
    Ok(progressed)
}

/// Adds `f`'s wall time to `slot` (mirroring the sequential paths' timing)
/// and emits a span event into `rec` when recording is enabled. The single
/// `Instant` sample serves both the stats slot and the span, so
/// instrumentation adds no extra clock reads to the hot path beyond the
/// recorder's own epoch offset.
#[inline]
fn timed_obs<T>(
    slot: &mut u64,
    rec: &EventRecorder,
    kind: SpanKind,
    meta: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = rec.now_ns();
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed().as_nanos() as u64;
    *slot += dur;
    rec.record(kind, meta, start, start + dur, 0);
    out
}

const PHASE_SCATTER: u8 = 1;
const PHASE_BCAST: u8 = 2;

/// The next frame on `(peer, tag)`, if one has arrived, through
/// [`check_chunk`] for the `want` elements of its slot.
fn try_recv_chunk(
    t: &dyn Transport,
    peer: usize,
    tag: Tag,
    want: usize,
) -> Result<Option<Encoded>, CommError> {
    t.try_recv_tagged(peer, tag)?
        .map(|enc| check_chunk(enc, want, peer, tag))
        .transpose()
}

/// One pipeline segment of an SRA collective. My chunk accumulates in my
/// range of the output, which holds my gradient chunk `g` at launch;
/// phase 2 compresses from there and commits the aggregate over it
/// (`Compressor::compress_committed_at`): what is left is what every
/// peer decodes, and no decode of my own chunk is needed.
struct Seg {
    /// Absolute offset of this segment in the flat gradient.
    base: usize,
    /// Per-rank chunk ranges, relative to `base`.
    ranges: Vec<Range<usize>>,
    /// Ranks ≥ 2 only: the pooled prefix `d0 + … + d(me−1)`, taken when
    /// rank 0's chunk arrives and returned once it is added onto `g`.
    prefix: Option<Vec<f32>>,
    /// Next rank (0..n) whose contribution my chunk absorbs.
    next_acc: usize,
    phase2_done: bool,
    gathered: Vec<bool>,
    gather_left: usize,
}

/// Incremental Scatter-Reduce-Allgather over tagged messages. Mirrors
/// [`crate::reduce::allreduce_scratch`]'s SRA arithmetic step for step; the
/// only new freedom is segment-level interleaving, constrained so the
/// compressor and RNG observe the sequential call order.
///
/// It reduces in the tensor it returns ([`Seg`]). Rank 1's `g + d0` is
/// the reference's `d0 + g` bit for bit but in two cases no pin relies
/// on: of two NaN payloads the other may survive, and a `-0.0` in `g`
/// that top-k's sparse decode-add skips stays `-0.0`, not `0.0 + -0.0`.
struct SraMachine {
    op_id: u32,
    epoch: u8,
    me: usize,
    n: usize,
    out: Tensor,
    comp: Box<dyn Compressor>,
    rng: Rng,
    segs: Vec<Seg>,
    /// Phase-2 (aggregate) compressions must run in segment order so the
    /// stateful compressor/RNG stream is interleaving-invariant.
    next_phase2: usize,
    outq: VecDeque<Outgoing>,
    stats: AllreduceStats,
    rec: EventRecorder,
}

impl SraMachine {
    #[allow(clippy::too_many_arguments)]
    fn new(
        t: &dyn Transport,
        op_id: u32,
        epoch: u8,
        grad: Tensor,
        mut comp: Box<dyn Compressor>,
        mut rng: Rng,
        pool: &ScratchPool,
        rec: EventRecorder,
    ) -> Self {
        let n = t.world();
        let me = t.rank();
        let len = grad.len();
        let nsegs = len.div_ceil(SEGMENT_ELEMS).clamp(1, usize::from(u16::MAX));
        let seg_ranges = chunk_ranges(len, nsegs);
        let mut stats = AllreduceStats {
            max_in_flight: 1,
            ..AllreduceStats::default()
        };
        let mut outq = VecDeque::new();
        let mut segs = Vec::with_capacity(nsegs);
        {
            let gslice = grad.as_slice();
            for (s, seg_range) in seg_ranges.iter().enumerate() {
                let base = seg_range.start;
                let ranges = chunk_ranges(seg_range.len(), n);
                // Phase 1, eagerly at submit: compress each peer's chunk in
                // (segment, peer) order — the deterministic RNG/compressor
                // call sequence every rank shares regardless of how
                // collectives later interleave.
                for (j, r) in ranges.iter().enumerate() {
                    if j == me || r.is_empty() {
                        continue;
                    }
                    let abs = base + r.start..base + r.end;
                    let enc = timed_obs(
                        &mut stats.compress_ns,
                        &rec,
                        SpanKind::Compress,
                        pack_meta(op_id, s as u16, PHASE_SCATTER, epoch),
                        || comp.compress_slice_at(base + r.start, &gslice[abs], &mut rng, pool),
                    );
                    stats.compress_calls += 1;
                    stats.bytes_sent += enc.payload_bytes();
                    outq.push_back((
                        j,
                        collective_tag_in_epoch(op_id, s as u16, PHASE_SCATTER, epoch),
                        enc,
                    ));
                }
                let my_empty = ranges[me].is_empty();
                let gathered: Vec<bool> = ranges
                    .iter()
                    .enumerate()
                    .map(|(j, r)| j == me || r.is_empty())
                    .collect();
                let gather_left = gathered.iter().filter(|g| !**g).count();
                segs.push(Seg {
                    base,
                    ranges,
                    prefix: None,
                    // An empty own chunk skips accumulation and phase 2
                    // entirely (matching the sequential path).
                    next_acc: if my_empty { n } else { 0 },
                    phase2_done: my_empty,
                    gathered,
                    gather_left,
                });
            }
        }
        SraMachine {
            op_id,
            epoch,
            me,
            n,
            out: grad,
            comp,
            rng,
            segs,
            next_phase2: 0,
            outq,
            stats,
            rec,
        }
    }

    fn progress(&mut self, t: &dyn Transport, pool: &ScratchPool) -> Result<bool, CommError> {
        let mut progressed = pump_outq(&mut self.outq, t, &self.rec)?;
        let (n, me, op_id, epoch) = (self.n, self.me, self.op_id, self.epoch);

        // Decode-accumulate arriving phase-1 chunks into my own chunk of
        // the output, strictly in global rank order per segment (float
        // sums must be rank-order-exact; see the module docs' invariant 2).
        let out_slice = self.out.as_mut_slice();
        for (s, seg) in self.segs.iter_mut().enumerate() {
            let own =
                &mut out_slice[seg.base + seg.ranges[me].start..seg.base + seg.ranges[me].end];
            while seg.next_acc < n {
                let j = seg.next_acc;
                if j == me {
                    if let Some(prefix) = seg.prefix.take() {
                        for (g, p) in own.iter_mut().zip(&prefix) {
                            *g += *p;
                        }
                        pool.put_f32(prefix);
                    }
                    seg.next_acc += 1;
                    progressed = true;
                    continue;
                }
                let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_SCATTER, epoch);
                let Some(enc) = try_recv_chunk(t, j, tag, own.len())? else {
                    break;
                };
                // Ranks 0 and 1 decode-add every peer onto `g` (rank 1's
                // `g + d0` is the reference's `d0 + g`: one IEEE addition
                // commutes); later ranks stage the prefix below them.
                let staged = me >= 2 && j < me;
                let acc: &mut [f32] = if staged {
                    seg.prefix.get_or_insert_with(|| pool.take_f32(own.len()))
                } else {
                    own
                };
                timed_obs(
                    &mut self.stats.decode_ns,
                    &self.rec,
                    SpanKind::Decode,
                    pack_meta(op_id, s as u16, PHASE_SCATTER, epoch),
                    || match j {
                        0 if staged => self.comp.decompress_into(&enc, acc),
                        _ => self.comp.decompress_add_into(&enc, acc),
                    },
                )
                .map_err(|e| crate::reduce::refused(tag, j, e))?;
                self.stats.decompress_calls += 1;
                pool.recycle(enc);
                seg.next_acc += 1;
                progressed = true;
            }
        }

        // Phase 2 in segment order: compress the aggregate and broadcast
        // it, keeping in my chunk what the peers decode (consensus).
        while self.next_phase2 < self.segs.len() {
            let s = self.next_phase2;
            let seg = &mut self.segs[s];
            if seg.phase2_done {
                self.next_phase2 += 1;
                continue;
            }
            if seg.next_acc < n {
                break;
            }
            let abs = seg.base + seg.ranges[me].start..seg.base + seg.ranges[me].end;
            let (off, c) = (abs.start, &mut self.out.as_mut_slice()[abs]);
            let enc = timed_obs(
                &mut self.stats.compress_ns,
                &self.rec,
                SpanKind::Compress,
                pack_meta(op_id, s as u16, PHASE_BCAST, epoch),
                || self.comp.compress_committed_at(off, c, &mut self.rng, pool),
            );
            self.stats.compress_calls += 1;
            self.stats.bytes_sent += enc.payload_bytes() * (n - 1);
            let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_BCAST, epoch);
            for j in 0..n {
                if j != me {
                    self.outq.push_back((j, tag, enc.clone()));
                }
            }
            pool.recycle(enc);
            seg.phase2_done = true;
            self.next_phase2 += 1;
            progressed = true;
        }

        // Gather peers' broadcast aggregates into their chunks of the
        // output (stateless decode — arrival order is free).
        for (s, seg) in self.segs.iter_mut().enumerate() {
            if seg.gather_left == 0 {
                continue;
            }
            let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_BCAST, epoch);
            for j in 0..n {
                if seg.gathered[j] {
                    continue;
                }
                let r = &seg.ranges[j];
                let Some(enc) = try_recv_chunk(t, j, tag, r.len())? else {
                    continue;
                };
                let abs = seg.base + r.start..seg.base + r.end;
                timed_obs(
                    &mut self.stats.decode_ns,
                    &self.rec,
                    SpanKind::Decode,
                    pack_meta(op_id, s as u16, PHASE_BCAST, epoch),
                    || {
                        self.comp
                            .decompress_into(&enc, &mut self.out.as_mut_slice()[abs])
                    },
                )
                .map_err(|e| crate::reduce::refused(tag, j, e))?;
                self.stats.decompress_calls += 1;
                pool.recycle(enc);
                seg.gathered[j] = true;
                seg.gather_left -= 1;
                progressed = true;
            }
        }

        progressed |= pump_outq(&mut self.outq, t, &self.rec)?;
        Ok(progressed)
    }

    fn finished(&self) -> bool {
        self.outq.is_empty()
            && self
                .segs
                .iter()
                .all(|s| s.next_acc >= self.n && s.phase2_done && s.gather_left == 0)
    }

    fn blocked_on(&self) -> usize {
        for seg in &self.segs {
            if seg.next_acc < self.n {
                return if seg.next_acc == self.me {
                    (self.me + 1) % self.n
                } else {
                    seg.next_acc
                };
            }
            if seg.gather_left > 0 {
                if let Some(j) = seg.gathered.iter().position(|g| !*g) {
                    return j;
                }
            }
        }
        if let Some(&(p, _, _)) = self.outq.front() {
            return p;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ThreadCluster;

    #[test]
    fn lane_epoch_packs_and_preserves_legacy_format() {
        // plan 0 reproduces the historical membership stamping.
        for m in 0..16u64 {
            assert_eq!(lane_epoch(m, 0), (m & 0xFF) as u8);
        }
        // Nibble packing: membership low, plan high, both mod 16.
        assert_eq!(lane_epoch(3, 5), 0x53);
        assert_eq!(lane_epoch(0x13, 0x25), 0x53);
        // Any change in either nibble changes the lane tag.
        assert_ne!(lane_epoch(1, 2), lane_epoch(1, 3));
        assert_ne!(lane_epoch(1, 2), lane_epoch(2, 2));
    }
    use crate::reduce::allreduce_scratch;
    use cgx_compress::CompressionScheme;
    use cgx_tensor::{Bytes, Shape};
    use std::time::Duration;

    /// The mixed-scheme inventory the equality tests reduce: odd lengths,
    /// stochastic + sparsifying + lossless codecs side by side.
    fn layer_specs() -> Vec<(usize, CompressionScheme)> {
        vec![
            (
                513,
                CompressionScheme::Qsgd {
                    bits: 4,
                    bucket_size: 128,
                },
            ),
            (37, CompressionScheme::None),
            (
                1023,
                CompressionScheme::Nuqsgd {
                    bits: 4,
                    bucket_size: 64,
                },
            ),
            (129, CompressionScheme::None),
            (771, CompressionScheme::TopK { ratio: 0.25 }),
            (
                255,
                CompressionScheme::Qsgd {
                    bits: 2,
                    bucket_size: 256,
                },
            ),
            (63, CompressionScheme::None),
        ]
    }

    /// [`layer_specs`] three times over: 12 lossy layers, more than
    /// [`MAX_LIVE`] machines.
    fn three_inventories() -> Vec<(usize, CompressionScheme)> {
        let specs = layer_specs();
        specs
            .iter()
            .cycle()
            .take(3 * specs.len())
            .copied()
            .collect()
    }

    /// A layer the 65,536-element segment cut splits in three.
    const THREE_SEGMENTS: usize = 2 * 65_536 + 3;

    fn rank_grads(rank: usize, specs: &[(usize, CompressionScheme)]) -> Vec<Tensor> {
        let mut grng = Rng::seed_from_u64(9000 + rank as u64);
        specs
            .iter()
            .map(|(len, _)| Tensor::randn(&mut grng, &[*len]))
            .collect()
    }

    /// Sequential reference: per-layer blocking allreduce with the same
    /// per-layer RNG derivation the engine uses at submit.
    fn run_sequential(
        alg: Algorithm,
        n: usize,
        specs: &[(usize, CompressionScheme)],
    ) -> Vec<Vec<Tensor>> {
        let specs = specs.to_vec();
        ThreadCluster::run(n, move |t| {
            let pool = ScratchPool::new();
            let grads = rank_grads(t.rank(), &specs);
            let mut master = Rng::seed_from_u64(777);
            let mut outs = Vec::new();
            for (g, (_, scheme)) in grads.iter().zip(&specs) {
                let mut comp = scheme.build();
                let mut layer_rng = Rng::seed_from_u64(master.next_u64());
                let (out, _) =
                    allreduce_scratch(alg, &t, g, &mut *comp, &mut layer_rng, &pool).unwrap();
                outs.push(out);
            }
            outs
        })
        .unwrap()
    }

    fn run_engine(
        alg: Algorithm,
        n: usize,
        specs: &[(usize, CompressionScheme)],
    ) -> Vec<Vec<Tensor>> {
        let strip = |rank: Vec<(Tensor, usize)>| rank.into_iter().map(|(out, _)| out).collect();
        run_engine_sent(alg, n, specs, false)
            .into_iter()
            .map(strip)
            .collect()
    }

    /// Every rank's `(output, bytes_sent)` per layer. With `clobber` each
    /// gradient is overwritten and dropped the moment `submit` returns.
    fn run_engine_sent(
        alg: Algorithm,
        n: usize,
        specs: &[(usize, CompressionScheme)],
        clobber: bool,
    ) -> Vec<Vec<(Tensor, usize)>> {
        let specs = specs.to_vec();
        ThreadCluster::run(n, move |t| {
            let mut master = Rng::seed_from_u64(777);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let handles: Vec<Handle> = rank_grads(t.rank(), &specs)
                .into_iter()
                .zip(&specs)
                .map(|(mut g, (_, scheme))| {
                    let h = eng.submit(alg, &g, scheme.build(), &mut master);
                    if clobber {
                        g.as_mut_slice().fill(f32::NAN);
                    }
                    h
                })
                .collect();
            handles
                .into_iter()
                .map(|h| eng.wait(h).unwrap())
                .map(|(out, stats, _)| (out, stats.bytes_sent))
                .collect::<Vec<_>>()
        })
        .unwrap()
    }

    #[test]
    fn engine_matches_sequential_loop_bitwise() {
        // The acceptance property: N concurrent tagged allreduces over
        // mixed schemes == the sequential per-layer loop, byte for byte,
        // on every rank — including the coalesced lossless layers. The
        // inventory three times over is 12 SRA machines, so four of them
        // wait for a live slot: the cap moves launches, not bytes.
        let specs = three_inventories();
        for n in [2usize, 3, 4, 5, 8] {
            for alg in [Algorithm::ScatterReduceAllgather, Algorithm::Ring] {
                let seq = run_sequential(alg, n, &specs);
                let eng = run_engine(alg, n, &specs);
                for (rank, (s, e)) in seq.iter().zip(&eng).enumerate() {
                    for (l, (a, b)) in s.iter().zip(e).enumerate() {
                        assert_eq!(
                            a.as_slice(),
                            b.as_slice(),
                            "{alg:?} n={n} rank={rank} layer={l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn submit_is_done_with_the_gradient_when_it_returns() {
        // The caller may reuse or free a gradient as soon as `submit`
        // returns — also while the op still waits for a live slot (the
        // last five of 13 machines), is cut into segments (the last
        // layer, which waits too), or sits in a coalesce group: outputs
        // and wire bytes are those of the untouched run.
        let mut specs = three_inventories();
        specs.push((THREE_SEGMENTS, Q4));
        for alg in [Algorithm::ScatterReduceAllgather, Algorithm::Ring] {
            for n in [2usize, 3] {
                let kept = run_engine_sent(alg, n, &specs, false);
                let clobbered = run_engine_sent(alg, n, &specs, true);
                for (rank, (k, c)) in kept.iter().zip(&clobbered).enumerate() {
                    for (l, (a, b)) in k.iter().zip(c).enumerate() {
                        let at = format!("{alg:?} n={n} rank={rank} layer={l}");
                        assert_eq!(a.0.as_slice(), b.0.as_slice(), "{at}");
                        assert_eq!(a.1, b.1, "{at}: bytes_sent");
                    }
                }
            }
        }
    }

    #[test]
    fn submit_owned_is_submit_without_the_copy() {
        // Same sums, same traffic, same draws from the caller's RNG,
        // whether the engine is lent a gradient or given it — and a
        // gradient given comes back at `wait` in the allocation it went
        // in with: reduced in place by a machine (the last layer cut into
        // segments), refilled from its coalesce group's sum (the three
        // small FP32 layers), or untouched in a world of one.
        let mut specs = layer_specs();
        specs.push((THREE_SEGMENTS, Q4));
        let counts = |s: &AllreduceStats| {
            [
                s.bytes_sent,
                s.compress_calls,
                s.decompress_calls,
                s.max_in_flight,
            ]
        };
        let alg = Algorithm::ScatterReduceAllgather;
        for n in [1usize, 4] {
            let run = |owned: bool| {
                let specs = specs.clone();
                ThreadCluster::run(n, move |t| {
                    let mut master = Rng::seed_from_u64(777);
                    let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
                    let mut moved_in = Vec::new();
                    let handles: Vec<Handle> = rank_grads(t.rank(), &specs)
                        .into_iter()
                        .zip(&specs)
                        .map(|(g, (_, scheme))| {
                            moved_in.push(g.as_slice().as_ptr() as usize);
                            match owned {
                                true => eng.submit_owned(alg, g, scheme.build(), &mut master),
                                false => eng.submit(alg, &g, scheme.build(), &mut master),
                            }
                        })
                        .collect();
                    let outs: Vec<_> = handles
                        .into_iter()
                        .map(|h| eng.wait(h).unwrap())
                        .map(|(out, stats, _)| (out, counts(&stats)))
                        .collect();
                    (outs, moved_in, master.next_u64())
                })
                .unwrap()
            };
            for (rank, (lent, given)) in run(false).iter().zip(&run(true)).enumerate() {
                let at = format!("{alg:?} n={n} rank={rank}");
                assert_eq!(lent.2, given.2, "{at}: rng draws");
                for (l, (a, b)) in lent.0.iter().zip(&given.0).enumerate() {
                    let bits = |t: &Tensor| -> Vec<u32> {
                        t.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&a.0), bits(&b.0), "{at} layer={l}");
                    assert_eq!(a.0.shape(), b.0.shape(), "{at} layer={l}");
                    assert_eq!(a.1, b.1, "{at} layer={l}: stats");
                    let back = b.0.as_slice().as_ptr() as usize;
                    assert_eq!(back, given.1[l], "{at} layer={l}: another buffer");
                }
            }
        }
    }

    #[test]
    fn a_machine_reduces_in_the_tensor_it_returns() {
        // Lossy layers, cut into three, two and two segments, each on a
        // machine of its own. SRA sums into its own chunk of the tensor
        // it returns: ranks 0 and 1 take no `f32` vector from the pool,
        // ranks ≥ 2 one per segment for the prefix below them.
        let qsgd = |bits, bucket_size| CompressionScheme::Qsgd { bits, bucket_size };
        let specs = vec![
            (THREE_SEGMENTS, qsgd(4, 128)),
            (SEGMENT_ELEMS + 1, qsgd(3, 64)),
            (2 * SEGMENT_ELEMS - 1, qsgd(2, 256)),
        ];
        let alg = Algorithm::ScatterReduceAllgather;
        for n in [2usize, 4] {
            let specs = specs.clone();
            let idle = ThreadCluster::run(n, move |t| {
                let pool = ScratchPool::new();
                let mut eng = CommEngine::with_defaults(&t, pool.clone());
                let mut master = Rng::seed_from_u64(777);
                let handles: Vec<Handle> = rank_grads(t.rank(), &specs)
                    .into_iter()
                    .zip(&specs)
                    .map(|(g, (_, scheme))| eng.submit_owned(alg, g, scheme.build(), &mut master))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        eng.wait(h).unwrap();
                        pool.idle_f32s()
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap();
            for (rank, after) in idle.iter().enumerate() {
                // A rank that stages may have every vector it took out in
                // machines still in flight at any wait but the last, after
                // which every prefix has come back.
                let holds = if rank >= 2 {
                    after.last().is_some_and(|&k| k >= 1)
                } else {
                    after.iter().all(|&k| k == 0)
                };
                assert!(
                    holds,
                    "n={n} rank={rank}: idle f32 vectors after each wait {after:?}"
                );
            }
        }
    }

    /// Rank `rank`'s gradient for the commutation pins: its first 7⁴
    /// elements walk every combination of the seven `specials` over
    /// ranks 0..4, the rest are ordinary.
    fn special_grad(rank: usize, specials: [f32; 7]) -> Tensor {
        let mut g = Tensor::randn(&mut Rng::seed_from_u64(50 + rank as u64), &[THREE_SEGMENTS]);
        let stride = 7usize.pow(rank as u32);
        for (i, v) in g.as_mut_slice()[..7usize.pow(4)].iter_mut().enumerate() {
            *v = specials[i / stride % 7];
        }
        g
    }

    /// One lossless [`special_grad`] layer, big enough for a machine of
    /// its own and cut into three segments, reduced by `alg` at world `n`:
    /// per rank, the bits of the reference's sum, the bits of the
    /// engine's, and the engine's decode count.
    fn special_runs(
        alg: Algorithm,
        n: usize,
        specials: [f32; 7],
    ) -> Vec<(Vec<u32>, Vec<u32>, usize)> {
        let grad = |rank| special_grad(rank, specials);
        let seq = reference_run(alg, n, &|| CompressionScheme::None.build(), &grad);
        let eng = engine_run(alg, n, &|| CompressionScheme::None.build(), &grad);
        seq.into_iter()
            .zip(eng)
            .map(|(s, (e, calls))| (s, e, calls))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Per rank, the bits of `allreduce_scratch`'s sum of layer
    /// `grad(rank)` under `comp()` at world `n`.
    fn reference_run(
        alg: Algorithm,
        n: usize,
        comp: &(dyn Fn() -> Box<dyn Compressor> + Sync),
        grad: &(dyn Fn(usize) -> Tensor + Sync),
    ) -> Vec<Vec<u32>> {
        ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(Rng::seed_from_u64(777).next_u64());
            let (g, pool) = (grad(t.rank()), ScratchPool::new());
            bits(
                &allreduce_scratch(alg, &t, &g, &mut *comp(), &mut rng, &pool)
                    .unwrap()
                    .0,
            )
        })
        .unwrap()
    }

    /// Per rank, the bits of the engine's sum of the same layer and the
    /// engine's decode count.
    fn engine_run(
        alg: Algorithm,
        n: usize,
        comp: &(dyn Fn() -> Box<dyn Compressor> + Sync),
        grad: &(dyn Fn(usize) -> Tensor + Sync),
    ) -> Vec<(Vec<u32>, usize)> {
        ThreadCluster::run(n, |t| {
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let h = eng.submit_owned(alg, grad(t.rank()), comp(), &mut Rng::seed_from_u64(777));
            let (out, stats, _) = eng.wait(h).unwrap();
            (bits(&out), stats.decompress_calls)
        })
        .unwrap()
    }

    /// A codec with the provided `compress_committed_at` — encode, then
    /// decode back — over `0`: what phase 2 did before it committed.
    struct DecodeBack(Box<dyn Compressor>);

    impl Compressor for DecodeBack {
        fn name(&self) -> String {
            self.0.name()
        }
        fn encode(
            &mut self,
            shape: Shape,
            offset: usize,
            data: &[f32],
            rng: &mut Rng,
            pool: &ScratchPool,
        ) -> Encoded {
            self.0.encode(shape, offset, data, rng, pool)
        }
        fn decode(
            &self,
            enc: &Encoded,
            out: &mut [f32],
            add: bool,
        ) -> Result<(), cgx_compress::PayloadError> {
            self.0.decode(enc, out, add)
        }
        fn compressed_bytes(&self, n: usize) -> usize {
            self.0.compressed_bytes(n)
        }
    }

    #[test]
    fn in_place_accumulation_commutes_bit_for_bit() {
        // Signed zeros, subnormals and ±f32::MAX (whose sums overflow to
        // ±∞) at the same indices on every rank: the engine's `g + d0`
        // and `g + prefix` must be the reference's `d0 + g` and
        // `prefix + g` to the bit. NaN is left out: which of two NaN
        // payloads a sum keeps is unspecified, and no pin relies on it.
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            -f32::MAX,
        ];
        for n in [2usize, 3, 4] {
            for alg in [Algorithm::ScatterReduceAllgather, Algorithm::Ring] {
                for (rank, (s, e, _)) in special_runs(alg, n, specials).iter().enumerate() {
                    assert_eq!(s, e, "{alg:?} n={n} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn lossless_phase_two_decodes_nothing_it_encoded() {
        // A lossless decode of the aggregate a rank just encoded would
        // write back the bits already in its output. Per segment a rank
        // decodes its n − 1 peers' contributions and their n − 1
        // aggregates and nothing else, and the sum is
        // still the reference's to the bit — ±∞ at shared indices too,
        // and the one NaN their opposite sums make.
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.5,
        ];
        let alg = Algorithm::ScatterReduceAllgather;
        for n in 2..=4 {
            for (rank, (s, e, calls)) in special_runs(alg, n, specials).iter().enumerate() {
                assert_eq!(s, e, "n={n} rank={rank}");
                assert_eq!(*calls, 3 * 2 * (n - 1), "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn lossy_phase_two_decodes_nothing_it_encoded() {
        // Phase 2 commits the aggregate a rank encodes into its own
        // chunk: per segment it decodes its n − 1 peers' contributions
        // and their n − 1 aggregates and nothing
        // else, and what it keeps is what decoding its chunk back would
        // write, to the bit — a whole bucket of zeros and one holding ±∞
        // included. Uncut, that is the reference's sum; cut into three
        // segments, which the reference has no notion of, it is the sum
        // of the same engine with phase 2 decoding back.
        let qsgd = || CompressionScheme::cgx_default().build();
        let decode_back = || -> Box<dyn Compressor> { Box::new(DecodeBack(qsgd())) };
        let grad = |len: usize| {
            move |rank: usize| {
                let mut g = Tensor::randn(&mut Rng::seed_from_u64(60 + rank as u64), &[len]);
                g.as_mut_slice()[1024..1152].fill(0.0);
                g.as_mut_slice()[2000 + rank] = [f32::INFINITY, f32::NEG_INFINITY][rank % 2];
                g
            }
        };
        let alg = Algorithm::ScatterReduceAllgather;
        for (segments, n, len) in (2..=4).flat_map(|n| [(1, n, 5000), (3, n, THREE_SEGMENTS)]) {
            let what = format!("n={n} segments={segments}");
            let committed = engine_run(alg, n, &qsgd, &grad(len));
            let decoded = engine_run(alg, n, &decode_back, &grad(len));
            for (rank, ((bits, calls), (back, _))) in committed.iter().zip(&decoded).enumerate() {
                assert_eq!(bits, back, "{what} rank={rank}");
                assert_eq!(*calls, segments * 2 * (n - 1), "{what} rank={rank}");
            }
            if segments == 1 {
                let reference = reference_run(alg, n, &qsgd, &grad(len));
                for (rank, (bits, _)) in committed.iter().enumerate() {
                    assert_eq!(bits, &reference[rank], "{what} rank={rank}: reference");
                }
            }
        }
    }

    #[test]
    fn peak_since_is_the_swept_high_water_mark() {
        // The model `peaks` replaces: on every submit, raise the mark of
        // every op still in flight. Completions in any order, bursts of
        // submits between them.
        ThreadCluster::run(1, |t| {
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let mut rng = Rng::seed_from_u64(11);
            let mut live: Vec<(usize, usize)> = Vec::new(); // (noted, swept mark)
            for _ in 0..400 {
                if live.is_empty() || !rng.next_u64().is_multiple_of(3) {
                    let noted = eng.note_in_flight();
                    live.push((noted, 0));
                    for op in &mut live {
                        op.1 = op.1.max(eng.in_flight);
                    }
                } else {
                    let (noted, mark) = live.swap_remove(rng.next_u64() as usize % live.len());
                    assert_eq!(eng.peak_since(noted), mark, "op noted {noted}");
                    eng.in_flight -= 1;
                }
            }
        })
        .unwrap();
    }

    /// A frame of `elems` FP32 elements, as a peer outside any engine
    /// would put it on the wire.
    fn stray_frame(elems: usize) -> Encoded {
        CompressionScheme::None
            .build()
            .compress(&Tensor::zeros(&[elems]), &mut Rng::seed_from_u64(0))
    }

    #[test]
    fn wrong_length_scatter_frame_poisons_every_rank_without_a_panic() {
        // Rank 2 answers op 0's scatter phase with 7 elements where a
        // 200-element chunk belongs. Both honest ranks must see
        // `ShapeMismatch` on wait — a typed error, not the decoder's
        // length assertion.
        let gate = std::sync::Barrier::new(3);
        let errs = ThreadCluster::run(3, |t| {
            let tag = collective_tag_in_epoch(0, 0, PHASE_SCATTER, 0);
            if t.rank() == 2 {
                for peer in 0..2 {
                    t.send_tagged(peer, tag, stray_frame(7)).unwrap();
                }
                gate.wait();
                return None;
            }
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let g = Tensor::randn(&mut Rng::seed_from_u64(t.rank() as u64), &[600]);
            let scheme = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 64,
            };
            let h = eng.submit(
                Algorithm::ScatterReduceAllgather,
                &g,
                scheme.build(),
                &mut Rng::seed_from_u64(1),
            );
            let err = eng.wait(h).err();
            gate.wait();
            err
        })
        .unwrap();
        for (rank, err) in errs.iter().take(2).enumerate() {
            assert!(
                matches!(err, Some(CommError::ShapeMismatch { .. })),
                "rank {rank}: {err:?}"
            );
        }
    }

    /// QSGD 4-bit / 64, whose payload size is exact.
    const Q4: CompressionScheme = CompressionScheme::Qsgd {
        bits: 4,
        bucket_size: 64,
    };

    /// A frame of `elems` elements whose payload is `delta` bytes off the
    /// `Q4` payload those take: the right element count, the wrong size.
    fn resized_frame(elems: usize, delta: isize) -> Encoded {
        let bytes = Q4
            .build()
            .compressed_bytes(elems)
            .saturating_add_signed(delta);
        Encoded::new(Shape::vector(elems), Bytes::from(vec![0u8; bytes]))
    }

    /// `f()`, or `Err` if it panicked.
    fn caught<T>(f: impl FnOnce() -> T) -> Result<T, &'static str> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| "panicked")
    }

    /// A `Q4` frame of 200 elements whose second bucket is zeros, so its
    /// norm field says no codes follow, padded to the length it would
    /// have with that bucket's codes: what a check by `compressed_bytes`
    /// alone would let through.
    fn padded_zero_bucket_frame() -> Encoded {
        let mut g = Tensor::randn(&mut Rng::seed_from_u64(3), &[200]);
        g.as_mut_slice()[64..128].fill(0.0);
        let honest = Q4.build().compress(&g, &mut Rng::seed_from_u64(4));
        let mut payload = honest.payload().to_vec();
        payload.resize(Q4.build().compressed_bytes(200), 0);
        Encoded::new(Shape::vector(200), Bytes::from(payload))
    }

    /// TopK at 25 %, whose payload for 200 elements is `k = 50` and 50
    /// (index, value) pairs.
    const TOP_QUARTER: CompressionScheme = CompressionScheme::TopK { ratio: 0.25 };

    /// A `TOP_QUARTER` frame of 200 elements, of the right length and `k`,
    /// whose last pair's index is 200: one past the chunk.
    fn index_past_the_chunk_frame() -> Encoded {
        let g = Tensor::randn(&mut Rng::seed_from_u64(6), &[200]);
        let honest = TOP_QUARTER.build().compress(&g, &mut Rng::seed_from_u64(7));
        let mut payload = honest.payload().to_vec();
        let last = payload.len() - 8;
        payload[last..last + 4].copy_from_slice(&200u32.to_le_bytes());
        Encoded::new(Shape::vector(200), Bytes::from(payload))
    }

    #[test]
    fn wrong_size_scatter_payload_poisons_every_rank_without_a_panic() {
        // Rank 2 answers op 0's scatter phase with a frame of the 200
        // elements its slot holds, but a payload short of them (10 bytes,
        // of which QSGD would read far more), longer than QSGD writes
        // for them, or as long as it would be if the bucket of zeros its
        // norm fields skip had codes; or, under TopK, a payload of the
        // right length with an index past the chunk. Both honest ranks
        // must see `ShapeMismatch` on wait, not a panic of the decoder (a
        // panic still reaches the gate, and the long frame's decode a
        // timeout).
        let short = 10 - Q4.build().compressed_bytes(200) as isize;
        let frames = [
            (Q4, resized_frame(200, short)),
            (Q4, resized_frame(200, 1)),
            (Q4, padded_zero_bucket_frame()),
            (TOP_QUARTER, index_past_the_chunk_frame()),
        ];
        for (case, (codec, frame)) in frames.iter().enumerate() {
            let gate = std::sync::Barrier::new(3);
            let errs = ThreadCluster::run(3, |mut t| {
                t.set_timeout(Duration::from_secs(2));
                let tag = collective_tag_in_epoch(0, 0, PHASE_SCATTER, 0);
                if t.rank() == 2 {
                    for peer in 0..2 {
                        t.send_tagged(peer, tag, frame.clone()).unwrap();
                    }
                    gate.wait();
                    return Ok(None);
                }
                let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
                let g = Tensor::randn(&mut Rng::seed_from_u64(t.rank() as u64), &[600]);
                let h = eng.submit(
                    Algorithm::ScatterReduceAllgather,
                    &g,
                    codec.build(),
                    &mut Rng::seed_from_u64(1),
                );
                let err = caught(|| eng.wait(h).err());
                gate.wait();
                err
            })
            .unwrap();
            for (rank, err) in errs.iter().take(2).enumerate() {
                assert!(
                    matches!(err, Ok(Some(CommError::ShapeMismatch { .. }))),
                    "frame {case}, rank {rank}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn wrong_frames_on_the_eager_paths_are_typed_errors() {
        // Rank 0 of two submits 600 elements by a scheme the engine runs
        // at submit, and rank 1 answers on the legacy lane with a frame of
        // 7 elements, or of the count rank 0 receives first (the ring's
        // 300-element chunk, the others' whole tensor) in half the payload
        // the codec writes for it. Rank 0 must see `ShapeMismatch`, not
        // the decoder's length assertion or "bit stream exhausted" (a
        // panic still reaches the gate).
        for alg in [
            Algorithm::Ring,
            Algorithm::Tree,
            Algorithm::AllgatherBroadcast,
        ] {
            let want = if alg == Algorithm::Ring { 300 } else { 600 };
            for scheme in [CompressionScheme::None, Q4] {
                let bytes = |elems| scheme.build().compressed_bytes(elems);
                for (elems, size) in [(7, bytes(7)), (want, bytes(want) / 2)] {
                    let frame = Encoded::new(Shape::vector(elems), Bytes::from(vec![0u8; size]));
                    let gate = std::sync::Barrier::new(2);
                    let errs = ThreadCluster::run(2, |mut t| {
                        t.set_timeout(Duration::from_secs(2));
                        if t.rank() == 1 {
                            t.send(0, frame.clone()).unwrap();
                            gate.wait();
                            return Ok(None);
                        }
                        let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
                        let g = Tensor::randn(&mut Rng::seed_from_u64(5), &[600]);
                        let err = caught(|| {
                            let h = eng.submit(alg, &g, scheme.build(), &mut Rng::seed_from_u64(1));
                            eng.wait(h).err()
                        });
                        gate.wait();
                        err
                    })
                    .unwrap();
                    assert!(
                        matches!(errs[0], Ok(Some(CommError::ShapeMismatch { .. }))),
                        "{alg:?} {scheme:?}, {elems} elements in {size} bytes: {:?}",
                        errs[0]
                    );
                }
            }
        }
    }

    #[test]
    fn zero_buckets_keep_engine_equal_to_sequential() {
        // A row-sparse embedding layer — untouched rows `+0.0`, some
        // `-0.0`, rows touched on one rank or several, and a NaN among
        // zeros on rank 0 — at every QSGD width, in buckets whole in
        // bytes and not: buckets of zeros travel as their norm field
        // alone, and the engine still sums what the reference does, to the
        // bit, and sends fewer bytes than a payload with every code would
        // take.
        let grad = |rank: usize| {
            let mut rng = Rng::seed_from_u64(80 + rank as u64);
            let mut g: Vec<f32> = (0..96 * 40)
                .map(|i| match i / 40 {
                    r if r % 9 == rank || r % 13 == 0 => rng.normal() as f32,
                    r if r % 4 == 1 => -0.0,
                    _ => 0.0,
                })
                .collect();
            if rank == 0 {
                g[40 * 7 + 3] = f32::NAN;
            }
            Tensor::from_slice(&g)
        };
        for bits in 2..=8u32 {
            for bucket_size in [128usize, 63] {
                let comp = || CompressionScheme::Qsgd { bits, bucket_size }.build();
                for (alg, n) in [(Algorithm::ScatterReduceAllgather, 3), (Algorithm::Ring, 2)] {
                    let what = format!("{alg:?} n={n} bits={bits} bucket={bucket_size}");
                    let reference = reference_run(alg, n, &comp, &grad);
                    let engine = engine_run(alg, n, &comp, &grad);
                    for (rank, (s, (e, _))) in reference.iter().zip(&engine).enumerate() {
                        assert_eq!(s, e, "{what} rank={rank}");
                    }
                }
            }
        }
        let q4 = CompressionScheme::cgx_default();
        let sent = ThreadCluster::run(3, |t| {
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let sra = Algorithm::ScatterReduceAllgather;
            let h = eng.submit_owned(sra, grad(t.rank()), q4.build(), &mut Rng::seed_from_u64(7));
            eng.wait(h).unwrap().1.bytes_sent
        })
        .unwrap();
        // Two chunks out in each phase, of 1280 elements each.
        let full = 2 * 2 * q4.build().compressed_bytes(96 * 40 / 3);
        assert!(sent.iter().all(|&bytes| bytes < full), "{sent:?} of {full}");
    }

    #[test]
    fn eager_algorithms_match_sequential_through_engine() {
        let specs = layer_specs();
        for alg in [
            Algorithm::Ring,
            Algorithm::Tree,
            Algorithm::AllgatherBroadcast,
        ] {
            let seq = run_sequential(alg, 4, &specs);
            let eng = run_engine(alg, 4, &specs);
            assert_eq!(seq, eng, "{alg:?}");
        }
    }

    #[test]
    fn all_ranks_reach_consensus_through_engine() {
        let specs = layer_specs();
        let results = run_engine(Algorithm::ScatterReduceAllgather, 8, &specs);
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn coalescing_batches_small_lossless_layers() {
        // Five small FP32 layers must travel as ONE collective: only the
        // first member carries wire stats, and results still match the
        // sequential per-layer loop exactly.
        let specs: Vec<(usize, CompressionScheme)> = vec![
            (64, CompressionScheme::None),
            (33, CompressionScheme::None),
            (128, CompressionScheme::None),
            (7, CompressionScheme::None),
            (255, CompressionScheme::None),
        ];
        let n = 4;
        let seq = run_sequential(Algorithm::ScatterReduceAllgather, n, &specs);
        let specs2 = specs.clone();
        let engine_out = ThreadCluster::run(n, move |t| {
            let grads = rank_grads(t.rank(), &specs2);
            let mut master = Rng::seed_from_u64(777);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let handles: Vec<Handle> = grads
                .iter()
                .zip(&specs2)
                .map(|(g, (_, s))| {
                    eng.submit(Algorithm::ScatterReduceAllgather, g, s.build(), &mut master)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| eng.wait(h).unwrap())
                .map(|(out, stats, _)| (out, stats))
                .collect::<Vec<_>>()
        })
        .unwrap();
        for (rank, per_rank) in engine_out.iter().enumerate() {
            let carriers = per_rank.iter().filter(|(_, s)| s.bytes_sent > 0).count();
            assert_eq!(carriers, 1, "rank {rank}: group should be one collective");
            for (l, ((out, _), expect)) in per_rank.iter().zip(&seq[rank]).enumerate() {
                assert_eq!(out.as_slice(), expect.as_slice(), "rank {rank} layer {l}");
                assert_eq!(out.shape(), expect.shape());
            }
        }
    }

    #[test]
    fn budget_overflow_flush_mid_submit_matches_sequential() {
        // More small lossless layers than `COALESCE_BUDGET` holds force a
        // flush *during* submit, so they travel as two groups. Each flush
        // appends the group-driver op, so a member submitted right after
        // one must not alias the driver's slot (regression: the member's
        // handle used to point at the driver, leaving a stale index in
        // the next pending group).
        let specs: Vec<(usize, CompressionScheme)> = (0..300)
            .map(|i| match i % 50 {
                3 => (257, Q4),
                _ => (COALESCE_ELEMS - (i % 7) * 33, CompressionScheme::None),
            })
            .collect();
        let sra = Algorithm::ScatterReduceAllgather;
        let seq = run_sequential(sra, 4, &specs);
        let eng = run_engine_sent(sra, 4, &specs, false);
        for (rank, (s, e)) in seq.iter().zip(&eng).enumerate() {
            for (l, (a, b)) in s.iter().zip(e).enumerate() {
                assert_eq!(a.as_slice(), b.0.as_slice(), "rank={rank} layer={l}");
            }
            let leaders = (e.iter().zip(&specs))
                .filter(|((_, sent), (_, scheme))| *sent > 0 && *scheme == CompressionScheme::None)
                .count();
            assert_eq!(leaders, 2, "rank={rank}: coalesce groups");
        }
    }

    #[test]
    fn segmented_reduction_is_interleaving_invariant() {
        // A layer large enough to split into many pipeline segments must
        // produce identical bytes whether it runs alone or interleaved
        // with other collectives — the determinism invariant that makes
        // pipelining safe for stochastic codecs.
        let run = |batched: bool| {
            ThreadCluster::run(4, move |t| {
                let mut grng = Rng::seed_from_u64(40 + t.rank() as u64);
                let big = Tensor::randn(&mut grng, &[THREE_SEGMENTS]);
                let other = Tensor::randn(&mut grng, &[333]);
                let mut master = Rng::seed_from_u64(5);
                let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
                let scheme = CompressionScheme::Qsgd {
                    bits: 4,
                    bucket_size: 64,
                };
                if batched {
                    let h1 = eng.submit(
                        Algorithm::ScatterReduceAllgather,
                        &big,
                        scheme.build(),
                        &mut master,
                    );
                    let h2 = eng.submit(
                        Algorithm::ScatterReduceAllgather,
                        &other,
                        scheme.build(),
                        &mut master,
                    );
                    let a = eng.wait(h1).unwrap().0;
                    let b = eng.wait(h2).unwrap().0;
                    (a, b)
                } else {
                    let a = eng
                        .allreduce(
                            Algorithm::ScatterReduceAllgather,
                            &big,
                            scheme.build(),
                            &mut master,
                        )
                        .unwrap()
                        .0;
                    let b = eng
                        .allreduce(
                            Algorithm::ScatterReduceAllgather,
                            &other,
                            scheme.build(),
                            &mut master,
                        )
                        .unwrap()
                        .0;
                    (a, b)
                }
            })
            .unwrap()
        };
        let batched = run(true);
        let serial = run(false);
        for (rank, (b, s)) in batched.iter().zip(&serial).enumerate() {
            assert_eq!(b.0.as_slice(), s.0.as_slice(), "big layer, rank {rank}");
            assert_eq!(b.1.as_slice(), s.1.as_slice(), "other layer, rank {rank}");
        }
    }

    #[test]
    fn batch_submission_overlaps_collectives() {
        // With several layers submitted before any wait, the recorded
        // in-flight depth must exceed 1 — layers genuinely overlapped.
        let stats = ThreadCluster::run(4, |t| {
            let mut grng = Rng::seed_from_u64(t.rank() as u64);
            // Too long to coalesce: each layer is its own collective.
            let grads: Vec<Tensor> = (0..6)
                .map(|_| Tensor::randn(&mut grng, &[COALESCE_ELEMS + 1]))
                .collect();
            let mut master = Rng::seed_from_u64(3);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let handles: Vec<Handle> = grads
                .iter()
                .map(|g| {
                    eng.submit(
                        Algorithm::ScatterReduceAllgather,
                        g,
                        CompressionScheme::None.build(),
                        &mut master,
                    )
                })
                .collect();
            handles
                .into_iter()
                .map(|h| eng.wait(h).unwrap().1)
                .collect::<Vec<_>>()
        })
        .unwrap();
        for per_rank in &stats {
            let depth = per_rank.iter().map(|s| s.max_in_flight).max().unwrap();
            assert_eq!(depth, 6, "all six layers should have been in flight");
        }
    }

    #[test]
    fn single_rank_world_short_circuits() {
        let out = ThreadCluster::run(1, |t| {
            let mut master = Rng::seed_from_u64(1);
            let g = Tensor::from_slice(&[1.0, 2.0, 3.0]);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            eng.allreduce(
                Algorithm::ScatterReduceAllgather,
                &g,
                CompressionScheme::None.build(),
                &mut master,
            )
            .unwrap()
            .0
        })
        .unwrap();
        assert_eq!(out[0].as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn compressor_is_returned_at_wait() {
        let names = ThreadCluster::run(2, |t| {
            let mut master = Rng::seed_from_u64(1);
            let mut grng = Rng::seed_from_u64(t.rank() as u64);
            let g = Tensor::randn(&mut grng, &[512]);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let scheme = CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128,
            };
            let (_, _, comp) = eng
                .allreduce(
                    Algorithm::ScatterReduceAllgather,
                    &g,
                    scheme.build(),
                    &mut master,
                )
                .unwrap();
            comp.name()
        })
        .unwrap();
        assert_eq!(names[0], names[1]);
        assert!(names[0].contains("qsgd"));
    }

    #[test]
    fn dead_peer_poisons_all_in_flight_handles() {
        // Rank 1 vanishes before participating; rank 0's in-flight handles
        // must all surface the same CommError instead of hanging, and the
        // engine must stay poisoned for later submissions.
        let observed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = observed.clone();
        let _ = ThreadCluster::run(2, move |mut t| {
            if t.rank() == 1 {
                return; // drops the transport: rank 0 sees Disconnected
            }
            t.set_timeout(Duration::from_secs(5));
            let mut master = Rng::seed_from_u64(1);
            let mut grng = Rng::seed_from_u64(7);
            // Too long to coalesce: h1 is a machine of its own.
            let g = Tensor::randn(&mut grng, &[COALESCE_ELEMS + 1]);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let h1 = eng.submit(
                Algorithm::ScatterReduceAllgather,
                &g,
                CompressionScheme::None.build(),
                &mut master,
            );
            let h2 = eng.submit(
                Algorithm::Ring,
                &g,
                CompressionScheme::None.build(),
                &mut master,
            );
            let e1 = eng.wait(h1).err().expect("h1 should fail");
            let e2 = eng.wait(h2).err().expect("h2 should fail");
            // Submitting after poisoning still yields the error, not a hang.
            let h3 = eng.submit(
                Algorithm::ScatterReduceAllgather,
                &g,
                CompressionScheme::None.build(),
                &mut master,
            );
            let e3 = eng.wait(h3).err().expect("h3 should fail");
            sink.lock().unwrap().push((e1, e2, e3));
        });
        let seen = observed.lock().unwrap();
        assert_eq!(seen.len(), 1, "rank 0 should have recorded its errors");
        let (e1, e2, e3) = &seen[0];
        assert!(
            matches!(e1, CommError::PeerLost { peer: 1, .. }),
            "unexpected first error {e1:?}"
        );
        assert_eq!(e1, e2, "all in-flight handles surface the same poison");
        assert_eq!(e1, e3, "engine stays poisoned for later submissions");
    }

    #[test]
    fn a_layer_past_the_segment_cut_reaches_consensus_in_three_segments() {
        // Each segment compresses its n − 1 peer chunks and one aggregate.
        for n in [3usize, 4] {
            let out = ThreadCluster::run(n, |t| {
                let mut grng = Rng::seed_from_u64(70 + t.rank() as u64);
                let g = Tensor::randn(&mut grng, &[THREE_SEGMENTS]);
                let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
                let sra = Algorithm::ScatterReduceAllgather;
                let (sum, stats, _) = eng
                    .allreduce(sra, &g, Q4.build(), &mut Rng::seed_from_u64(3))
                    .unwrap();
                (bits(&sum), stats.compress_calls)
            })
            .unwrap();
            for (rank, (sum, calls)) in out.iter().enumerate() {
                assert_eq!(sum, &out[0].0, "n={n} rank={rank}");
                assert_eq!(*calls, 3 * n, "n={n} rank={rank}: compress calls");
            }
        }
    }

    #[test]
    fn a_lossless_layer_at_the_coalesce_cut_joins_the_group_and_one_more_does_not() {
        // The small layer after it carries no traffic in a group it does
        // not lead (the group's first member carries it all).
        for (len, joins) in [(4096, true), (4097, false)] {
            let specs = [
                (len, CompressionScheme::None),
                (64, CompressionScheme::None),
            ];
            let sra = Algorithm::ScatterReduceAllgather;
            for (rank, layers) in run_engine_sent(sra, 3, &specs, false).iter().enumerate() {
                assert_eq!(layers[1].1 == 0, joins, "len={len} rank={rank}");
            }
        }
    }

    #[test]
    fn no_more_than_eight_machines_run_at_once() {
        // Twelve lossy layers submitted before any wait: eight machines
        // launch, four queue, and the waits still reach consensus.
        let sums = ThreadCluster::run(3, |t| {
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let (mut grng, mut master) =
                (Rng::seed_from_u64(t.rank() as u64), Rng::seed_from_u64(5));
            let sra = Algorithm::ScatterReduceAllgather;
            let handles: Vec<Handle> = (0..12)
                .map(|_| {
                    let g = Tensor::randn(&mut grng, &[300]);
                    let h = eng.submit_owned(sra, g, Q4.build(), &mut master);
                    assert!(eng.active.len() <= MAX_LIVE);
                    h
                })
                .collect();
            assert_eq!((eng.active.len(), eng.launch_queue.len()), (8, 4));
            handles
                .into_iter()
                .map(|h| {
                    let sum = eng.wait(h).unwrap().0;
                    assert!(eng.active.len() <= MAX_LIVE);
                    bits(&sum)
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
        for (rank, s) in sums.iter().enumerate() {
            assert_eq!(s, &sums[0], "rank {rank}");
        }
    }
}
