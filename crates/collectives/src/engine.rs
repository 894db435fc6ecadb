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
//! * **Small-layer packing.** An SRA submission whose payload is at most
//!   `PACK_BYTES` (16 KiB, by [`Compressor::compressed_bytes`]) joins the
//!   pending pack, which is flushed before it would pass `SEGMENT_ELEMS`
//!   elements and at `wait`. A pack is one collective — one id, one
//!   machine, one frame per (peer, phase) — over layers that each keep
//!   their own tensor, compressor, RNG and chunk ranges; a frame's payload
//!   is its layers' payloads end to end, which receivers split by each
//!   codec's [`Compressor::extent`]. This amortizes per-message latency
//!   across the dozens of small layers of a real model.
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
//!    compressed eagerly at launch in fixed (segment, peer, layer) order,
//!    and phase-2 aggregate compressions run in strict segment order — per
//!    layer, the exact call sequence of the sequential loop. A pack keeps
//!    every layer's own chunk ranges (its bucket geometry) and RNG stream,
//!    so each layer's bytes are those of a collective of its own.
//! 2. **Fixed accumulation order.** Peer contributions decode-accumulate in
//!    global rank order 0..n (the same order [`crate::reduce`] uses), never
//!    in arrival order. Because that order is rank-indexed — independent of
//!    chunk boundaries — re-chunking by segmentation leaves every lossless
//!    per-element sum bit-identical, and packing re-chunks nothing. The
//!    accumulator is the own chunk of the tensor the caller gets back,
//!    already holding this rank's gradient `g`; `g` enters at its rank's
//!    position by commutation (rank 1 adds `d0` onto `g`, the reference
//!    `g` onto `d0`), and ranks ≥ 2 stage the prefix `d0 + … + d(me−1)`
//!    in one pooled buffer that is then added onto `g`.
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
use cgx_compress::{Compressor, Encoded, ScratchPool};
use cgx_obs::{pack_meta, Counter, EventRecorder, Gauge, Histogram, ObsHandle, SpanKind};
use cgx_tensor::{Bytes, Rng, Shape, Tensor};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Layers larger than this many elements are cut into pipeline segments
/// of at most this size, and a pack is flushed before it would hold more.
/// Segment boundaries are lossy codecs' bucket geometry, so this is part
/// of the wire format.
const SEGMENT_ELEMS: usize = 1 << 16;
/// SRA submissions whose payload ([`Compressor::compressed_bytes`]) is at
/// most this many bytes join the pending pack: 4,096 FP32 elements, which
/// keeps large FP32 layers out of the packed frame's copy.
const PACK_BYTES: usize = 16 << 10;
/// At most this many pipelined machines run at once; later submissions
/// and packs launch FIFO as earlier ones finish.
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

/// One submission inside a machine: what a collective of its own would
/// hold. It reduces in `tensor`, encodes with `comp`, draws from `rng`
/// and is charged what it does in `stats`.
struct Layer {
    /// The op it redeems.
    op: usize,
    tensor: Tensor,
    comp: Box<dyn Compressor>,
    rng: Rng,
    stats: AllreduceStats,
}

impl Layer {
    fn new(op: usize, tensor: Tensor, comp: Box<dyn Compressor>, rng: Rng) -> Self {
        let stats = AllreduceStats::default();
        Layer {
            op,
            tensor,
            comp,
            rng,
            stats,
        }
    }
}

/// A machine parked behind [`MAX_LIVE`], on its first layer's op. The op
/// id is already allocated (at submit, or at the pack's flush), so tags
/// stay rank-aligned no matter when the launch happens.
struct QueuedLaunch {
    layers: Vec<Layer>,
    op_id: u32,
}

/// Per-submission bookkeeping.
struct OpState {
    /// Finished result, parked until `wait` collects it.
    result: Option<(Tensor, AllreduceStats)>,
    /// The caller's compressor, returned at `wait`. For machine-driven ops
    /// it lives inside the machine while running.
    comp: Option<Box<dyn Compressor>>,
    /// The live machine this op's first layer is in.
    machine: Option<SraMachine>,
    /// The machine this op's first layer waits in for a live slot.
    queued: Option<QueuedLaunch>,
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
    /// The pending pack in submit order, and its elements.
    pack: Vec<Layer>,
    pack_elems: usize,
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
            pack: Vec::new(),
            pack_elems: 0,
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
    /// returns is the one moved in here (a one-rank world's untouched).
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

        if let Some(em) = &self.em {
            em.submitted.inc();
        }
        match alg {
            Algorithm::ScatterReduceAllgather => {
                let packs = comp.compressed_bytes(grad.len()) <= PACK_BYTES
                    && comp.extent(grad.len(), &[]).is_some();
                if packs && self.pack_elems + grad.len() > SEGMENT_ELEMS {
                    self.flush_pack();
                }
                op.noted = self.note_in_flight();
                self.ops.push(op);
                let layer = Layer::new(idx, grad, comp, op_rng);
                if packs {
                    self.pack_elems += layer.tensor.len();
                    self.pack.push(layer);
                } else {
                    // The op id is claimed now (submit order is
                    // rank-aligned); the machine launches when a live
                    // slot is free.
                    let op_id = self.alloc_op_id();
                    self.queue_launch(op_id, vec![layer]);
                }
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
        self.flush_pack();
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

    /// Queues one SRA collective over the pending pack. Called at
    /// deterministic program points only (a submit the pack cannot take,
    /// entry to wait), so the flush — and the collective id it consumes —
    /// lines up across ranks.
    fn flush_pack(&mut self) {
        if self.pack.is_empty() || self.poisoned.is_some() {
            return;
        }
        let layers = std::mem::take(&mut self.pack);
        self.pack_elems = 0;
        let op_id = self.alloc_op_id();
        self.queue_launch(op_id, layers);
    }

    /// Queues a machine over `layers` as collective `op_id`, on its first
    /// layer's op, and launches what the live-machine cap lets through.
    /// Launching pumps the new machine's sends; a full progress round
    /// would rescan every live machine on every submit, which is pure
    /// overhead — receives drain in `wait`, and submit never blocks on
    /// them.
    fn queue_launch(&mut self, op_id: u32, layers: Vec<Layer>) {
        let rec = self.obs.recorder();
        let elems = layers.iter().map(|l| l.tensor.len()).sum::<usize>();
        let meta = pack_meta(op_id, 0, 0, self.opts.epoch);
        rec.instant(SpanKind::Submit, meta, rec.now_ns(), elems as u64);
        let idx = layers[0].op;
        self.ops[idx].queued = Some(QueuedLaunch { layers, op_id });
        self.launch_queue.push_back(idx);
        self.pump_launch_queue();
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
            let rec = self.obs.recorder().clone();
            let m = SraMachine::new(self.t, q.op_id, self.opts.epoch, q.layers, &self.pool, rec);
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

    /// Turns op `i`'s finished machine (already off `active`) into the
    /// results of its layers' ops.
    fn finalize(&mut self, i: usize) {
        let m = self.ops[i].machine.take().expect("finished machine");
        let rec = self.obs.recorder();
        rec.instant(
            SpanKind::Complete,
            pack_meta(m.op_id, 0, 0, self.opts.epoch),
            rec.now_ns(),
            0,
        );
        for mut layer in m.layers {
            layer.stats.max_in_flight = self.peak_since(self.ops[layer.op].noted);
            let op = &mut self.ops[layer.op];
            op.result = Some((layer.tensor, layer.stats));
            op.comp = Some(layer.comp);
            op.completed = true;
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

/// The frame of `encs`: a lone payload as it is, several end to end in a
/// buffer from `pool`, to which their own go back. `None` for none.
fn packed(mut encs: Vec<Encoded>, pool: &ScratchPool) -> Option<Encoded> {
    if encs.len() < 2 {
        return encs.pop();
    }
    let elems = encs.iter().map(|e| e.shape().len()).sum();
    let mut buf = pool.take_buf(encs.iter().map(Encoded::payload_bytes).sum());
    for enc in encs {
        buf.extend_from_slice(enc.payload());
        pool.recycle(enc);
    }
    Some(Encoded::new(Shape::vector(elems), Bytes::from(buf)))
}

/// Encodes rank `rank`'s chunk of every part that holds one, each by its
/// layer's codec and RNG, in part order — committing the chunk in place
/// when `commit` (phase 2) — and packs the payloads into one frame. Each
/// layer is charged its call and `copies` times its payload; the frame's
/// encode time, one span, goes to its first layer.
#[allow(clippy::too_many_arguments)]
fn encode_frame(
    parts: &[Part],
    layers: &mut [Layer],
    rank: usize,
    commit: bool,
    copies: usize,
    pool: &ScratchPool,
    rec: &EventRecorder,
    meta: u64,
) -> Option<Encoded> {
    let first = holding(parts, rank).next()?.layer;
    let mut ns = 0;
    let encs = timed_obs(&mut ns, rec, SpanKind::Compress, meta, || {
        let encode = |p: &Part| {
            let l = &mut layers[p.layer];
            let chunk = p.chunk(rank);
            let at = chunk.start;
            let enc = match commit {
                true => {
                    let data = &mut l.tensor.as_mut_slice()[chunk];
                    l.comp.compress_committed_at(at, data, &mut l.rng, pool)
                }
                false => {
                    let data = &l.tensor.as_slice()[chunk];
                    l.comp.compress_slice_at(at, data, &mut l.rng, pool)
                }
            };
            l.stats.compress_calls += 1;
            l.stats.bytes_sent += enc.payload_bytes() * copies;
            enc
        };
        holding(parts, rank).map(encode).collect()
    });
    layers[first].stats.compress_ns += ns;
    packed(encs, pool)
}

/// Decodes `frame`, from `peer` on `tag`, into rank `rank`'s chunk of
/// every part that holds one, in part order: added onto it when `add`,
/// else over it, and into `prefix` at each part's offset instead of the
/// layer when given (a rank ≥ 2 staging the ranks below it). The frame's
/// decode time, one span, goes to its first layer, and the frame to
/// `pool`.
#[allow(clippy::too_many_arguments)]
fn decode_frame(
    frame: Encoded,
    parts: &[Part],
    layers: &mut [Layer],
    rank: usize,
    add: bool,
    mut prefix: Option<&mut Vec<f32>>,
    (tag, peer): (Tag, usize),
    pool: &ScratchPool,
    rec: &EventRecorder,
    meta: u64,
) -> Result<(), CommError> {
    let first = holding(parts, rank).next().map_or(0, |p| p.layer);
    let mut cut = Cutter {
        frame,
        at: 0,
        parts: holding(parts, rank).count(),
        tag,
        peer,
    };
    let mut ns = 0;
    timed_obs(&mut ns, rec, SpanKind::Decode, meta, || {
        for p in holding(parts, rank) {
            let l = &mut layers[p.layer];
            let chunk = p.chunk(rank);
            let piece = cut.next(&*l.comp, chunk.len())?;
            let out = match prefix.as_deref_mut() {
                Some(prefix) => &mut prefix[p.at..p.at + chunk.len()],
                None => &mut l.tensor.as_mut_slice()[chunk],
            };
            match add {
                true => l.comp.decompress_add_into(&piece, out),
                false => l.comp.decompress_into(&piece, out),
            }
            .map_err(|e| crate::reduce::refused(tag, peer, e))?;
            l.stats.decompress_calls += 1;
        }
        Ok(())
    })?;
    layers[first].stats.decode_ns += ns;
    // Every part's payload is dropped: the frame is unshared.
    pool.recycle(cut.frame);
    Ok(())
}

/// Cuts a received frame, front to back, into the payloads of the parts it
/// packs: each part's codec says how long its payload is
/// ([`Compressor::extent`]), and the last part takes the rest, so a
/// frame's every byte is some part's, which that part's decode judges.
struct Cutter {
    frame: Encoded,
    at: usize,
    parts: usize,
    tag: Tag,
    peer: usize,
}

impl Cutter {
    /// The next part's payload, of `elems` elements under `comp`.
    ///
    /// # Errors
    ///
    /// [`CommError::ShapeMismatch`] if that payload would end past the
    /// frame.
    fn next(&mut self, comp: &dyn Compressor, elems: usize) -> Result<Encoded, CommError> {
        let rest = &self.frame.payload()[self.at..];
        self.parts -= 1;
        let len = match self.parts {
            0 => Some(rest.len()),
            _ => comp.extent(elems, rest),
        };
        let Some(len) = len.filter(|&len| len <= rest.len()) else {
            let why = "a packed payload runs past its frame";
            return Err(crate::reduce::refused(self.tag, self.peer, why));
        };
        let payload = self.frame.payload().slice(self.at..self.at + len);
        self.at += len;
        Ok(Encoded::new(Shape::vector(elems), payload))
    }
}

/// One layer's share of a pipeline segment.
struct Part {
    /// Index of the layer in its machine.
    layer: usize,
    /// Offset of the segment in the layer.
    base: usize,
    /// Per-rank chunk ranges, relative to `base`.
    ranges: Vec<Range<usize>>,
    /// Where my chunk of it starts in the segment's prefix.
    at: usize,
}

impl Part {
    /// Rank `rank`'s chunk, as a range of the layer.
    fn chunk(&self, rank: usize) -> Range<usize> {
        let r = &self.ranges[rank];
        self.base + r.start..self.base + r.end
    }
}

/// The parts of `parts` in which rank `rank` has a chunk: what a frame it
/// sends (phase 1 to it, phase 2 from it) packs, in order.
fn holding(parts: &[Part], rank: usize) -> impl Iterator<Item = &Part> {
    parts.iter().filter(move |p| !p.ranges[rank].is_empty())
}

/// One pipeline segment of an SRA collective: segment `s` of every layer
/// in the machine, which travels in one frame per (peer, phase). My
/// chunks accumulate in my ranges of the layers, which hold my gradient
/// chunks `g` at launch; phase 2 compresses from there and commits the
/// aggregate over them (`Compressor::compress_committed_at`): what is left
/// is what every peer decodes, and no decode of my own chunks is needed.
struct Seg {
    parts: Vec<Part>,
    /// Elements of my chunks, over every part.
    own: usize,
    /// Ranks ≥ 2 only: the pooled prefix `d0 + … + d(me−1)` of my chunks,
    /// taken when rank 0's frame arrives and returned once it is added
    /// onto `g`.
    prefix: Option<Vec<f32>>,
    /// Next rank (0..n) whose contribution my chunks absorb.
    next_acc: usize,
    phase2_done: bool,
    gathered: Vec<bool>,
    gather_left: usize,
}

impl Seg {
    fn new(mut parts: Vec<Part>, me: usize, n: usize) -> Self {
        let mut own = 0;
        for p in &mut parts {
            p.at = own;
            own += p.ranges[me].len();
        }
        let gathered: Vec<bool> = (0..n)
            .map(|j| j == me || holding(&parts, j).next().is_none())
            .collect();
        let gather_left = gathered.iter().filter(|g| !**g).count();
        Seg {
            parts,
            own,
            prefix: None,
            // Empty own chunks skip accumulation and phase 2 entirely
            // (matching the sequential path).
            next_acc: if own == 0 { n } else { 0 },
            phase2_done: own == 0,
            gathered,
            gather_left,
        }
    }
}

/// Incremental Scatter-Reduce-Allgather over tagged messages, of one layer
/// cut into segments or of a pack of small layers in one. Mirrors
/// [`crate::reduce::allreduce_scratch`]'s SRA arithmetic step for step for
/// every layer; the only new freedom is segment-level interleaving,
/// constrained so each layer's compressor and RNG observe the sequential
/// call order.
///
/// It reduces in the tensors it returns ([`Seg`]). Rank 1's `g + d0` is
/// the reference's `d0 + g` bit for bit but in two cases no pin relies
/// on: of two NaN payloads the other may survive, and a `-0.0` in `g`
/// that top-k's sparse decode-add skips stays `-0.0`, not `0.0 + -0.0`.
struct SraMachine {
    op_id: u32,
    epoch: u8,
    me: usize,
    n: usize,
    layers: Vec<Layer>,
    segs: Vec<Seg>,
    /// Phase-2 (aggregate) compressions must run in segment order so the
    /// stateful compressor/RNG stream is interleaving-invariant.
    next_phase2: usize,
    outq: VecDeque<Outgoing>,
    rec: EventRecorder,
}

impl SraMachine {
    fn new(
        t: &dyn Transport,
        op_id: u32,
        epoch: u8,
        mut layers: Vec<Layer>,
        pool: &ScratchPool,
        rec: EventRecorder,
    ) -> Self {
        let (n, me) = (t.world(), t.rank());
        let mut parts: Vec<Vec<Part>> = Vec::new();
        for (layer, l) in layers.iter().enumerate() {
            let len = l.tensor.len();
            let nsegs = len.div_ceil(SEGMENT_ELEMS).clamp(1, usize::from(u16::MAX));
            for (s, seg) in chunk_ranges(len, nsegs).into_iter().enumerate() {
                if s == parts.len() {
                    parts.push(Vec::new());
                }
                let ranges = chunk_ranges(seg.len(), n);
                let base = seg.start;
                parts[s].push(Part {
                    layer,
                    base,
                    ranges,
                    at: 0,
                });
            }
        }
        let segs: Vec<Seg> = parts.into_iter().map(|p| Seg::new(p, me, n)).collect();
        // Phase 1, eagerly at launch: compress each peer's chunk of every
        // layer in (segment, peer, layer) order — per layer, the
        // deterministic RNG/compressor call sequence every rank shares
        // regardless of how collectives later interleave.
        let mut outq = VecDeque::new();
        for (s, seg) in segs.iter().enumerate() {
            let meta = pack_meta(op_id, s as u16, PHASE_SCATTER, epoch);
            let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_SCATTER, epoch);
            for j in (0..n).filter(|&j| j != me) {
                let frame = encode_frame(&seg.parts, &mut layers, j, false, 1, pool, &rec, meta);
                if let Some(enc) = frame {
                    outq.push_back((j, tag, enc));
                }
            }
        }
        SraMachine {
            op_id,
            epoch,
            me,
            n,
            layers,
            segs,
            next_phase2: 0,
            outq,
            rec,
        }
    }

    fn progress(&mut self, t: &dyn Transport, pool: &ScratchPool) -> Result<bool, CommError> {
        let mut progressed = pump_outq(&mut self.outq, t, &self.rec)?;
        let (n, me, op_id, epoch) = (self.n, self.me, self.op_id, self.epoch);
        let (layers, rec) = (&mut self.layers, &self.rec);

        // Decode-accumulate arriving phase-1 frames into my own chunks,
        // strictly in global rank order per segment (float sums must be
        // rank-order-exact; see the module docs' invariant 2).
        for (s, seg) in self.segs.iter_mut().enumerate() {
            let meta = pack_meta(op_id, s as u16, PHASE_SCATTER, epoch);
            while seg.next_acc < n {
                let j = seg.next_acc;
                if j == me {
                    if let Some(prefix) = seg.prefix.take() {
                        for p in &seg.parts {
                            let own = &mut layers[p.layer].tensor.as_mut_slice()[p.chunk(me)];
                            for (g, q) in own.iter_mut().zip(&prefix[p.at..]) {
                                *g += *q;
                            }
                        }
                        pool.put_f32(prefix);
                    }
                    seg.next_acc += 1;
                    progressed = true;
                    continue;
                }
                let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_SCATTER, epoch);
                let Some(enc) = try_recv_chunk(t, j, tag, seg.own)? else {
                    break;
                };
                // Ranks 0 and 1 decode-add every peer onto `g` (rank 1's
                // `g + d0` is the reference's `d0 + g`: one IEEE addition
                // commutes); later ranks stage the prefix below them.
                let staged = me >= 2 && j < me;
                let prefix = match staged {
                    true => Some(seg.prefix.get_or_insert_with(|| pool.take_f32(seg.own))),
                    false => None,
                };
                let add = !(staged && j == 0);
                let from = (tag, j);
                decode_frame(
                    enc, &seg.parts, layers, me, add, prefix, from, pool, rec, meta,
                )?;
                seg.next_acc += 1;
                progressed = true;
            }
        }

        // Phase 2 in segment order: compress the aggregates and broadcast
        // them, keeping in my chunks what the peers decode (consensus).
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
            let meta = pack_meta(op_id, s as u16, PHASE_BCAST, epoch);
            let frame = encode_frame(&seg.parts, layers, me, true, n - 1, pool, rec, meta);
            if let Some(enc) = frame {
                let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_BCAST, epoch);
                for j in (0..n).filter(|&j| j != me) {
                    self.outq.push_back((j, tag, enc.clone()));
                }
                pool.recycle(enc);
            }
            seg.phase2_done = true;
            self.next_phase2 += 1;
            progressed = true;
        }

        // Gather peers' broadcast aggregates into their chunks of the
        // layers (stateless decode — arrival order is free).
        for (s, seg) in self.segs.iter_mut().enumerate() {
            if seg.gather_left == 0 {
                continue;
            }
            let meta = pack_meta(op_id, s as u16, PHASE_BCAST, epoch);
            let tag = collective_tag_in_epoch(op_id, s as u16, PHASE_BCAST, epoch);
            for j in 0..n {
                if seg.gathered[j] {
                    continue;
                }
                let want = seg.parts.iter().map(|p| p.ranges[j].len()).sum();
                let Some(enc) = try_recv_chunk(t, j, tag, want)? else {
                    continue;
                };
                decode_frame(
                    enc,
                    &seg.parts,
                    layers,
                    j,
                    false,
                    None,
                    (tag, j),
                    pool,
                    rec,
                    meta,
                )?;
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

    /// [`layer_specs`] three times over, each time after three layers too
    /// large to pack: with the packs, more than [`MAX_LIVE`] machines.
    fn three_inventories() -> Vec<(usize, CompressionScheme)> {
        let unpacked = [
            (UNPACKED_Q4, Q4),
            (PACK_FP32 + 1, CompressionScheme::None),
            (UNPACKED_TOP_QUARTER, TOP_QUARTER),
        ];
        let packs =
            |(len, s): &(usize, CompressionScheme)| s.build().compressed_bytes(*len) <= PACK_BYTES;
        assert!(!unpacked.iter().any(packs));
        let specs = [&unpacked[..], &layer_specs()].concat();
        specs
            .iter()
            .cycle()
            .take(3 * specs.len())
            .copied()
            .collect()
    }

    /// A Q4 layer whose 16,877-byte payload is too large to pack.
    const UNPACKED_Q4: usize = 30_001;
    /// A [`TOP_QUARTER`] layer whose payload is too large to pack.
    const UNPACKED_TOP_QUARTER: usize = 8_193;

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
        let strip = |rank: Vec<(Tensor, usize)>| rank.into_iter().map(|(out, _)| out).collect();
        let grads = |rank| rank_grads(rank, specs);
        sequential_sent(alg, n, specs, &grads)
            .into_iter()
            .map(strip)
            .collect()
    }

    /// Every rank's `(output, bytes_sent)` per layer of `grads(rank)`
    /// through the sequential reference.
    fn sequential_sent(
        alg: Algorithm,
        n: usize,
        specs: &[(usize, CompressionScheme)],
        grads: &(dyn Fn(usize) -> Vec<Tensor> + Sync),
    ) -> Vec<Vec<(Tensor, usize)>> {
        ThreadCluster::run(n, |t| {
            let pool = ScratchPool::new();
            let mut master = Rng::seed_from_u64(777);
            let mut outs = Vec::new();
            for (g, (_, scheme)) in grads(t.rank()).iter().zip(specs) {
                let mut comp = scheme.build();
                let mut layer_rng = Rng::seed_from_u64(master.next_u64());
                let (out, stats) =
                    allreduce_scratch(alg, &t, g, &mut *comp, &mut layer_rng, &pool).unwrap();
                outs.push((out, stats.bytes_sent));
            }
            outs
        })
        .unwrap()
    }

    /// Every rank's `(output, bytes_sent)` per layer of `grads(rank)`
    /// through the engine's SRA, and the frames the rank sent.
    fn engine_frames(
        n: usize,
        specs: &[(usize, CompressionScheme)],
        grads: &(dyn Fn(usize) -> Vec<Tensor> + Sync),
    ) -> Vec<(Vec<(Tensor, usize)>, u64)> {
        ThreadCluster::run(n, |mut t| {
            let registry = cgx_obs::MetricsRegistry::new();
            t.set_obs(&registry);
            let mut master = Rng::seed_from_u64(777);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let sra = Algorithm::ScatterReduceAllgather;
            let handles: Vec<Handle> = grads(t.rank())
                .into_iter()
                .zip(specs)
                .map(|(g, (_, scheme))| eng.submit_owned(sra, g, scheme.build(), &mut master))
                .collect();
            let outs = handles
                .into_iter()
                .map(|h| eng.wait(h).unwrap())
                .map(|(out, stats, _)| (out, stats.bytes_sent))
                .collect();
            let frames = registry.counter(cgx_obs::names::TRANSPORT_MSGS_SENT).get();
            (outs, frames)
        })
        .unwrap()
    }

    /// The packs the engine makes of `specs` if every layer packs: a pack
    /// is flushed before it would pass [`SEGMENT_ELEMS`] elements.
    fn packs_of(specs: &[(usize, CompressionScheme)]) -> u64 {
        let (mut packs, mut held) = (1, 0);
        for (len, _) in specs {
            if held + len > SEGMENT_ELEMS {
                (packs, held) = (packs + 1, 0);
            }
            held += len;
        }
        packs
    }

    /// Engine ≡ sequential for `specs` at world `n`, per rank and layer:
    /// the same bits and the same bytes sent. Returns each rank's frames.
    fn assert_packed_run_is_sequential(
        n: usize,
        specs: &[(usize, CompressionScheme)],
        grads: &(dyn Fn(usize) -> Vec<Tensor> + Sync),
    ) -> Vec<u64> {
        let sra = Algorithm::ScatterReduceAllgather;
        let seq = sequential_sent(sra, n, specs, grads);
        let eng = engine_frames(n, specs, grads);
        for (rank, (s, (e, _))) in seq.iter().zip(&eng).enumerate() {
            for (l, (a, b)) in s.iter().zip(e).enumerate() {
                let at = format!("n={n} rank={rank} layer={l} {:?}", specs[l]);
                assert_eq!(bits(&a.0), bits(&b.0), "{at}");
                assert_eq!(a.1, b.1, "{at}: bytes_sent");
            }
        }
        eng.into_iter().map(|(_, frames)| frames).collect()
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
        // on every rank — packed layers included. The inventory is 9 SRA
        // machines of a layer each and one pack, so the pack and the last
        // layers wait for a live slot: the cap moves launches, not bytes.
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
        // last of 10 machines), is cut into segments (the last layer,
        // which waits too), or sits in a pack: outputs and wire bytes are
        // those of the untouched run.
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
        // in with: reduced in place by a machine of its own (the last
        // layer, cut into segments) or by a pack (the small layers), or
        // untouched in a world of one.
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

    /// The longest FP32 layer that packs: 16 KiB of payload.
    const PACK_FP32: usize = PACK_BYTES / 4;

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

    /// A pack's phase-1 frame for a rank's 200-element chunk of a Q4
    /// layer and its 1-element chunk of an FP32 one, the Q4 chunk all
    /// zeros or not.
    fn packed_frame(zeros: bool) -> Vec<u8> {
        let mut g = Tensor::randn(&mut Rng::seed_from_u64(8), &[201]);
        if zeros {
            g.as_mut_slice()[..200].fill(0.0);
        }
        let (mut rng, pool) = (Rng::seed_from_u64(9), ScratchPool::new());
        let q4 = Q4
            .build()
            .compress_slice(&g.as_slice()[..200], &mut rng, &pool);
        let fp32 =
            CompressionScheme::None
                .build()
                .compress_slice(&g.as_slice()[200..], &mut rng, &pool);
        [q4.payload().as_ref(), fp32.payload().as_ref()].concat()
    }

    #[test]
    fn hostile_packed_frames_poison_every_rank_without_a_panic() {
        // Three ranks reduce a pack of a 600-element Q4 layer and a
        // 3-element FP32 one. Rank 2 answers op 0's scatter phase with
        // the packed frame of the 201 elements each slot holds, one byte
        // short or one byte long, or with the norm fields of its bucket
        // of zeros rewritten so that the walk to the FP32 payload runs
        // past the frame. Both honest ranks must see `ShapeMismatch`,
        // not a panic or a timeout.
        let short = packed_frame(false)[..packed_frame(false).len() - 1].to_vec();
        let long = [packed_frame(false), vec![0]].concat();
        let mut past = packed_frame(true);
        assert_eq!(past.len(), 4 * 4 + 4, "four norm fields, one float");
        for norm in past[..16].chunks_exact_mut(4) {
            norm.copy_from_slice(&1.0f32.to_le_bytes());
        }
        let specs = [(600, Q4), (3, CompressionScheme::None)];
        for (case, payload) in [short, long, past].into_iter().enumerate() {
            let frame = Encoded::new(Shape::vector(201), Bytes::from(payload));
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
                let mut master = Rng::seed_from_u64(1);
                let sra = Algorithm::ScatterReduceAllgather;
                let handles: Vec<Handle> = rank_grads(t.rank(), &specs)
                    .into_iter()
                    .zip(&specs)
                    .map(|(g, (_, scheme))| eng.submit_owned(sra, g, scheme.build(), &mut master))
                    .collect();
                let err = caught(|| eng.wait(handles[0]).err());
                gate.wait();
                err
            })
            .unwrap();
            for (rank, err) in errs.iter().take(2).enumerate() {
                let Ok(Some(CommError::ShapeMismatch { detail })) = err else {
                    panic!("frame {case}, rank {rank}: {err:?}");
                };
                assert_eq!(detail.contains("runs past"), case == 2, "{detail}");
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

    /// Small layers of every packable codec: QSGD at 2, 4 and 8 bits,
    /// NUQSGD, TopK with error feedback and FP32, 1-element layers among
    /// them, whose chunk is empty on every rank but rank 0.
    fn pack_specs() -> Vec<(usize, CompressionScheme)> {
        let qsgd = |bits| CompressionScheme::Qsgd {
            bits,
            bucket_size: 64,
        };
        let nuqsgd = CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        };
        let topk = CompressionScheme::TopK { ratio: 0.25 };
        vec![
            (1, qsgd(4)),
            (700, qsgd(2)),
            (1, CompressionScheme::None),
            (513, qsgd(8)),
            (2, nuqsgd),
            (333, nuqsgd),
            (1, topk),
            (901, topk),
            (257, CompressionScheme::None),
            (1000, qsgd(4)),
            (3, qsgd(8)),
        ]
    }

    /// [`rank_grads`] with whole QSGD buckets of zeros in every layer long
    /// enough for them, and a NaN in rank 0's sixth layer.
    fn sparse_grads(rank: usize, specs: &[(usize, CompressionScheme)]) -> Vec<Tensor> {
        let mut grads = rank_grads(rank, specs);
        for g in grads.iter_mut().filter(|g| g.len() >= 256) {
            g.as_mut_slice()[64..256].fill(0.0);
        }
        if rank == 0 {
            grads[5].as_mut_slice()[300] = f32::NAN;
        }
        grads
    }

    #[test]
    fn packs_of_every_codec_match_sequential_bitwise() {
        // One pack of eleven layers: each layer's sum and bytes sent are
        // its sequential collective's, and the pack is one frame per
        // (peer, phase).
        let specs = pack_specs();
        for n in [2usize, 3, 4] {
            let frames = assert_packed_run_is_sequential(n, &specs, &|r| sparse_grads(r, &specs));
            assert_eq!(frames, vec![2 * (n as u64 - 1); n], "n={n}");
        }
    }

    #[test]
    fn a_pack_full_at_the_segment_cut_flushes_mid_submit_and_matches_sequential() {
        // Small layers of more than 64 Ki elements in all: the pending
        // pack is flushed by the submit that would take it past the
        // segment cut, and each pack is one frame per (peer, phase).
        let specs: Vec<(usize, CompressionScheme)> = (0..40)
            .map(|i| match i % 5 {
                3 => (257 + i, Q4),
                _ => (PACK_FP32 - (i % 7) * 33, CompressionScheme::None),
            })
            .collect();
        let packs = packs_of(&specs);
        assert!(packs >= 2, "{packs}");
        let n = 4;
        let frames = assert_packed_run_is_sequential(n, &specs, &|r| rank_grads(r, &specs));
        assert_eq!(frames, vec![packs * 2 * (n as u64 - 1); n]);
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
            // Too long to pack: each layer is its own collective.
            let grads: Vec<Tensor> = (0..6)
                .map(|_| Tensor::randn(&mut grng, &[PACK_FP32 + 1]))
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
            // Too long to pack: h1 is a machine of its own.
            let g = Tensor::randn(&mut grng, &[PACK_FP32 + 1]);
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
    fn a_layer_at_16_kib_joins_the_pack_and_one_element_more_does_not() {
        // A layer whose payload is at most `PACK_BYTES` shares its frames
        // with the small layer after it: 2 × 2 frames per rank of three
        // for one collective, 4 × 2 for two.
        let q4 = (1..).take_while(|&n| Q4.build().compressed_bytes(n) <= PACK_BYTES);
        let q4 = q4.last().expect("a Q4 layer fits");
        for (len, scheme, joins) in [
            (PACK_FP32, CompressionScheme::None, true),
            (PACK_FP32 + 1, CompressionScheme::None, false),
            (q4, Q4, true),
            (q4 + 1, Q4, false),
        ] {
            let specs = [(len, scheme), (64, CompressionScheme::None)];
            let frames = assert_packed_run_is_sequential(3, &specs, &|r| rank_grads(r, &specs));
            let want = if joins { 4 } else { 8 };
            assert_eq!(frames, vec![want; 3], "{len} elements of {scheme:?}");
        }
    }

    #[test]
    fn no_more_than_eight_machines_run_at_once() {
        // Twelve lossy layers too large to pack, submitted before any
        // wait: eight machines launch, four queue, and the waits still
        // give the sequential loop's sums.
        let specs = vec![(UNPACKED_Q4, Q4); 12];
        let sums = ThreadCluster::run(3, |t| {
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            let mut master = Rng::seed_from_u64(777);
            let sra = Algorithm::ScatterReduceAllgather;
            let handles: Vec<Handle> = rank_grads(t.rank(), &specs)
                .into_iter()
                .map(|g| {
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
                    sum
                })
                .collect::<Vec<_>>()
        })
        .unwrap();
        let seq = run_sequential(Algorithm::ScatterReduceAllgather, 3, &specs);
        assert_eq!(sums, seq);
    }
}
