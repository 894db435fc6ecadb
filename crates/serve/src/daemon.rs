//! The per-node collectives daemon: one physical transport shared by many
//! tenant jobs attached through [`NamespacedTransport`] handles.
//!
//! A [`ServeNode`] owns one physical [`Transport`] endpoint (the node's
//! slot in a TCP or shared-memory mesh), which every tenant thread and the
//! daemon's pump thread use at once.
//!
//! * **Receives are the fabric's.** A handle's receive side is the
//!   endpoint's own, on tags widened into the job's namespace
//!   ([`cgx_collectives::namespace_tag`]): nothing is routed or filed
//!   twice. The endpoint serves many receiving threads, and its stash
//!   keeps the namespace rules ([`cgx_collectives::stash`]).
//! * **Sends are scheduled.** A send is enqueued into its job's queue in a
//!   [`DrrScheduler`]; the sender then try-locks `out` and, holding it from
//!   dequeue to fabric send, transmits in weighted deficit-round-robin
//!   order under the per-job rate caps. A thread that finds `out` taken
//!   leaves its frame queued: the holder, however its turn ended, goes
//!   round again after letting go if a frame came in since it last read
//!   the scheduler. Lock order: `out → state`; `state` is never held across
//!   a fabric call.
//! * **The pump** stands in for idle tenants, and sleeps until it owes
//!   the fabric something: a throttled frame coming due, a back-pressured
//!   backlog or an unretired detach (looked at again every `PARK`,
//!   200 µs), a detach or the shutdown drain, and the fabric's own
//!   liveness cadence ([`Transport::drive_within`]: the TCP fabric's
//!   heartbeats and redials while tenants compute, DESIGN.md §12.1). Then
//!   it takes the outbound turn and flushes and drains the fabric, never
//!   blocking in it. A tenant whose turn leaves frames behind wakes it.
//!
//! [`ServeNode::attach`] admits a job, or rejects it with a typed
//! [`ServeError`], and returns a full [`Transport`]. Dropping the handle
//! sends a DETACH frame to every peer through the job's own queue, behind
//! its queued data: remote ranks of the job then read
//! [`CommError::Disconnected`], and other jobs notice nothing.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use cgx_collectives::transport::{Tag, DETACH_TAG};
use cgx_collectives::{namespace_tag, CommError, Transport, MAX_TENANT_NS};
use cgx_compress::Encoded;
use cgx_obs::metrics::{names, Counter, MetricsRegistry};
use cgx_tensor::Shape;

use crate::qos::{Dequeue, DrrScheduler};

/// Recovers the permit for one mutex acquisition; the daemon holds no lock
/// across a panic-capable region, so poisoning only ever reflects a caller
/// panic — propagate the inner state rather than deadlocking.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// [`Condvar::wait_timeout`] that, like [`lock`], looks through poisoning.
fn nap<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(|p| p.into_inner())
        .0
}

/// Longest a sender on a full queue sleeps before it looks at the
/// terminal conditions again.
const SLICE: Duration = Duration::from_millis(20);

/// DRR quantum in bytes: byte credit granted per scheduler visit per
/// unit weight.
const QUANTUM: u64 = 64 << 10;
/// How soon the pump looks again at a back-pressured backlog, an
/// unretired detach or the shutdown drain.
const PARK: Duration = Duration::from_micros(200);
/// Shutdown drain budget: how long the pump keeps flushing queued frames
/// after shutdown is requested.
const DRAIN: Duration = Duration::from_millis(2000);
/// Per-job outbound queue cap in bytes. A single frame larger than the
/// cap is still admitted when the queue is empty, so one oversized send
/// can never wedge a tenant.
const QUEUE_BYTES: u64 = 32 << 20;

/// Per-daemon limits: attached jobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently attached jobs.
    pub max_jobs: usize,
    /// Metrics registry for `serve.*` counters, if observability is on.
    obs: Option<MetricsRegistry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_jobs: 64,
            obs: None,
        }
    }
}

impl ServeConfig {
    /// Attaches a metrics registry; the daemon then maintains the
    /// `serve.*` counters on it.
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> Self {
        self.obs = Some(registry.clone());
        self
    }
}

/// Typed admission-control rejection from [`ServeNode::attach`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The node already hosts its configured maximum of concurrent jobs.
    JobLimit {
        /// The configured `max_jobs` that was hit.
        limit: usize,
    },
    /// The job id is outside the tenant namespace range `1..=0xFD`.
    BadJobId {
        /// The rejected id.
        id: u8,
    },
    /// The job id is attached or was already used on this node (ids are
    /// single-use per daemon lifetime so late frames from a finished job
    /// can never leak into a successor).
    DuplicateJob {
        /// The conflicting id.
        id: u8,
    },
    /// The daemon is draining for shutdown and admits no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::JobLimit { limit } => {
                write!(f, "admission rejected: node is at its {limit}-job limit")
            }
            ServeError::BadJobId { id } => write!(
                f,
                "job id {id} outside tenant namespace 1..={MAX_TENANT_NS}"
            ),
            ServeError::DuplicateJob { id } => {
                write!(f, "job id {id} is already attached or was used before")
            }
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a tenant asks for at [`ServeNode::attach`] time.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id, `1..=0xFD`; must match on every node of the mesh.
    pub id: u8,
    /// DRR weight (≥ 1): relative long-run byte share under contention.
    pub weight: u64,
    /// Optional `(bytes_per_sec, burst_bytes)` hard bandwidth cap.
    pub rate: Option<(u64, u64)>,
}

impl JobSpec {
    /// A weight-1, uncapped job.
    pub fn new(id: u8) -> Self {
        JobSpec {
            id,
            weight: 1,
            rate: None,
        }
    }

    /// Sets the DRR weight.
    pub fn weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets a `(bytes_per_sec, burst)` rate cap.
    pub fn rate(mut self, bytes_per_sec: u64, burst: u64) -> Self {
        self.rate = Some((bytes_per_sec, burst));
        self
    }
}

/// One queued outbound frame: physical peer, full wire tag, payload.
#[derive(Debug)]
struct QueuedFrame {
    peer: usize,
    tag: Tag,
    payload: Encoded,
}

/// Everything the node mutex guards.
struct NodeState {
    sched: DrrScheduler<QueuedFrame>,
    /// Jobs attached and not yet retired.
    jobs: HashSet<u8>,
    /// Ids ever attached — single-use per daemon lifetime.
    used_ids: HashSet<u8>,
    /// Physical peers a send found gone: later sends to them fail at once.
    peer_dead: Vec<Option<CommError>>,
    /// Jobs whose handles dropped; deregistered once their queue drains.
    detaching: HashSet<u8>,
    /// Senders parked on [`NodeShared::space_cv`]: a notify is a system
    /// call, skipped when nobody would hear it.
    blocked: usize,
    shutdown: bool,
    /// When the pump next owes the fabric a turn, on the node clock;
    /// `u64::MAX` while nothing is owed ([`NodeShared::owe`]).
    wake_ns: u64,
    /// Frames ever enqueued: a turn that sees it move after its last
    /// scheduler read goes round again ([`let_go`]).
    enqueued: u64,
}

impl NodeState {
    fn enqueue(&mut self, job: u8, size: u64, frame: QueuedFrame) {
        self.sched.enqueue(job, size, frame);
        self.enqueued += 1;
    }
}

/// Pre-resolved `serve.*` counters.
#[derive(Clone)]
struct ServeMetrics {
    jobs_attached: Counter,
    jobs_detached: Counter,
    jobs_rejected: Counter,
    frames_out: Counter,
    bytes_out: Counter,
}

impl ServeMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        ServeMetrics {
            jobs_attached: reg.counter(names::SERVE_JOBS_ATTACHED),
            jobs_detached: reg.counter(names::SERVE_JOBS_DETACHED),
            jobs_rejected: reg.counter(names::SERVE_JOBS_REJECTED),
            frames_out: reg.counter(names::SERVE_FRAMES_OUT),
            bytes_out: reg.counter(names::SERVE_BYTES_OUT),
        }
    }
}

/// State shared between the pump thread and every tenant handle.
struct NodeShared {
    cfg: ServeConfig,
    /// Monotonic origin for the scheduler's nanosecond clock.
    epoch: Instant,
    /// The physical endpoint, used by every thread at once (module docs).
    phys: Box<dyn Transport + Send + Sync>,
    /// Outbound turn: held from `sched.next` to the fabric send, so DRR
    /// order is wire order.
    out: Mutex<()>,
    state: Mutex<NodeState>,
    /// The pump sleeps on this; signalled when its next turn is owed
    /// sooner than it would wake ([`NodeShared::owe`]).
    work_cv: Condvar,
    /// Tenants blocked on a full queue park on this; signalled once per
    /// outbound turn that dequeued, and on terminal conditions.
    space_cv: Condvar,
    metrics: Option<ServeMetrics>,
}

impl NodeShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Owes the pump a turn at `at_ns`, waking it if it would sleep past
    /// that: a notify is a system call, made only then.
    fn owe(&self, st: &mut NodeState, at_ns: u64) {
        if at_ns < st.wake_ns {
            st.wake_ns = at_ns;
            self.work_cv.notify_one();
        }
    }
}

/// A per-node collectives daemon (see the [module docs](self)).
///
/// Owns the pump thread; dropping the node requests shutdown, drains
/// queued frames within the configured budget, and joins the pump. The
/// physical endpoint closes with the last holder of the node's state: the
/// node itself or a tenant handle that outlives it.
pub struct ServeNode {
    shared: Arc<NodeShared>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl ServeNode {
    /// Boots a daemon over `phys`, which it owns from here on. `Sync`,
    /// because tenant threads and the pump thread use the one endpoint at
    /// once.
    pub fn new(phys: Box<dyn Transport + Send + Sync>, cfg: ServeConfig) -> Self {
        let (rank, world) = (phys.rank(), phys.world());
        let metrics = cfg.obs.as_ref().map(ServeMetrics::resolve);
        let shared = Arc::new(NodeShared {
            epoch: Instant::now(),
            phys,
            out: Mutex::new(()),
            state: Mutex::new(NodeState {
                sched: DrrScheduler::new(QUANTUM),
                jobs: HashSet::new(),
                used_ids: HashSet::new(),
                peer_dead: vec![None; world],
                detaching: HashSet::new(),
                blocked: 0,
                shutdown: false,
                wake_ns: u64::MAX,
                enqueued: 0,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            metrics,
            cfg,
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name(format!("cgx-serve-pump-{rank}"))
            .spawn(move || pump_loop(&pump_shared))
            .expect("spawn serve pump thread");
        ServeNode {
            shared,
            pump: Some(pump),
        }
    }

    /// Admits a job and returns its transport handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadJobId`] for ids outside `1..=0xFD`;
    /// [`ServeError::DuplicateJob`] for an id attached before (ids are
    /// single-use per daemon); [`ServeError::JobLimit`] when `max_jobs`
    /// jobs are already attached; [`ServeError::ShuttingDown`] during
    /// drain.
    pub fn attach(&self, spec: JobSpec) -> Result<NamespacedTransport, ServeError> {
        let reject = |m: &Option<ServeMetrics>, e: ServeError| {
            if let Some(m) = m {
                m.jobs_rejected.inc();
            }
            Err(e)
        };
        if spec.id < 1 || spec.id > MAX_TENANT_NS {
            return reject(&self.shared.metrics, ServeError::BadJobId { id: spec.id });
        }
        let mut st = lock(&self.shared.state);
        if st.shutdown {
            return reject(&self.shared.metrics, ServeError::ShuttingDown);
        }
        if st.used_ids.contains(&spec.id) {
            return reject(
                &self.shared.metrics,
                ServeError::DuplicateJob { id: spec.id },
            );
        }
        if st.jobs.len() >= self.shared.cfg.max_jobs {
            return reject(
                &self.shared.metrics,
                ServeError::JobLimit {
                    limit: self.shared.cfg.max_jobs,
                },
            );
        }
        st.used_ids.insert(spec.id);
        st.jobs.insert(spec.id);
        st.sched.register(spec.id, spec.weight.max(1), spec.rate);
        drop(st);
        if let Some(m) = &self.shared.metrics {
            m.jobs_attached.inc();
        }
        let tenant = NamespacedTransport {
            node: Arc::clone(&self.shared),
            id: spec.id,
            keepalive: None,
        };
        // Claim the namespace in the fabric's stash now, through the miss
        // a first receive makes (a DETACH is never filed, so this one always
        // misses): what peers send the tenant before its first receive is
        // then its own, not an orphan under the stash's orphan bound.
        let (rank, world) = (self.shared.phys.rank(), self.shared.phys.world());
        if world > 1 {
            let _ = tenant.try_recv_tagged((rank + 1) % world, DETACH_TAG);
        }
        Ok(tenant)
    }

    /// Cumulative bytes the daemon dequeued for `job` — the QoS share
    /// accounting benchmarks read.
    pub fn job_sent_bytes(&self, job: u8) -> u64 {
        lock(&self.shared.state).sched.sent_bytes(job)
    }
}

impl Drop for ServeNode {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.shutdown = true;
        self.shared.owe(&mut st, 0);
        drop(st);
        self.shared.space_cv.notify_all();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl std::fmt::Debug for ServeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeNode")
            .field("rank", &self.shared.phys.rank())
            .field("world", &self.shared.phys.world())
            .finish_non_exhaustive()
    }
}

/// Max frames one outbound turn transmits: a tenant pays for at most this
/// much of its neighbours' backlog.
const OUT_BATCH: usize = 64;

/// One outbound turn, if `out` is free: dequeues in DRR order and sends
/// until the scheduler is idle or throttled, the fabric pushes back, or
/// [`OUT_BATCH`] frames went. Frames it leaves behind are owed to the
/// pump: when the first comes due, in a [`PARK`] when the fabric pushed
/// back, and at once after a full batch.
fn outbound_turn(node: &NodeShared) {
    loop {
        let turn = match node.out.try_lock() {
            Ok(turn) => turn,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            // The holder sees our frame when it lets go (`let_go`).
            Err(TryLockError::WouldBlock) => return,
        };
        let batch = send_batch(node);
        if !let_go(node, turn, &batch) {
            return;
        }
    }
}

/// What one batch of an outbound turn left behind.
struct Batch {
    sent_any: bool,
    /// When the pump owes the fabric a turn for the frames left behind:
    /// `u64::MAX` when the scheduler read idle, 0 after a full batch.
    owed: u64,
    /// [`NodeState::enqueued`] at the batch's last scheduler read.
    seen: u64,
}

/// The sending half of an outbound turn; the caller holds `out`.
fn send_batch(node: &NodeShared) -> Batch {
    let mut batch = Batch {
        sent_any: false,
        owed: 0,
        seen: 0,
    };
    for _ in 0..OUT_BATCH {
        let decision = {
            let mut st = lock(&node.state);
            batch.seen = st.enqueued;
            st.sched.next(node.now_ns())
        };
        match decision {
            Dequeue::Frame { job, size, item } => {
                match node.phys.try_send_tagged(item.peer, item.tag, item.payload) {
                    Ok(None) => {
                        batch.sent_any = true;
                        if let Some(m) = &node.metrics {
                            m.frames_out.inc();
                            m.bytes_out.add(size);
                        }
                    }
                    Ok(Some(payload)) => {
                        // Fabric backpressure: put the frame back at the
                        // front of its queue; the pump retries.
                        let frame = QueuedFrame { payload, ..item };
                        lock(&node.state).sched.refund(job, size, frame);
                        batch.owed = node.now_ns() + PARK.as_nanos() as u64;
                        return batch;
                    }
                    // Physical peer is gone; the frame is undeliverable.
                    // Fail later sends to the peer and drop the frame.
                    Err(err) => mark_peer_dead(node, item.peer, err),
                }
            }
            Dequeue::Throttled { ready_ns } => {
                batch.owed = ready_ns;
                return batch;
            }
            Dequeue::Idle => {
                batch.owed = u64::MAX;
                return batch;
            }
        }
    }
    batch
}

/// Lets go of `out` after `batch`, wakes senders waiting for queue space
/// and owes the pump what the batch left behind. Returns whether to go
/// round again: a frame enqueued since the batch last read the scheduler
/// may be a sender's that found `out` taken, and is ours to send, unless
/// a full batch left it to the pump.
fn let_go(node: &NodeShared, turn: MutexGuard<'_, ()>, batch: &Batch) -> bool {
    drop(turn);
    let mut st = lock(&node.state);
    if batch.sent_any && st.blocked > 0 {
        node.space_cv.notify_all();
    }
    node.owe(&mut st, batch.owed);
    batch.owed != 0 && st.enqueued != batch.seen
}

/// Pushes the fabric's coalesced wire buffers (and TCP heartbeats) out.
fn flush_fabric(node: &NodeShared) {
    if let Err(err) = node.phys.flush_outbound() {
        if let Some(peer) = err.peer() {
            mark_peer_dead(node, peer, err);
        }
    }
}

/// The pump thread: sleeps until a turn is owed ([`NodeState::wake_ns`]),
/// then takes the outbound turn, flushes, takes in what the fabric holds
/// and retires drained detaches, never blocking in the fabric. Besides
/// what tenants leave it, it owes an unretired detach and the shutdown
/// drain a look every [`PARK`], and the fabric a call within its
/// [`Transport::drive_within`]. With none of these owed it makes no call.
fn pump_loop(node: &NodeShared) {
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let cadence = node.phys.drive_within().map(nanos);
    let mut drain_deadline: Option<Instant> = None;
    let mut st = lock(&node.state);
    st.wake_ns = st.wake_ns.min(cadence.unwrap_or(u64::MAX));
    loop {
        let now = node.now_ns();
        if st.wake_ns > now {
            // Owed nothing (`u64::MAX`), it sleeps for centuries, that is
            // until notified.
            let timeout = Duration::from_nanos(st.wake_ns - now);
            st = nap(&node.work_cv, st, timeout);
            continue;
        }
        st.wake_ns = u64::MAX;
        drop(st);
        outbound_turn(node);
        flush_fabric(node);
        node.phys.drain_inbound();
        retire_detached(node);
        st = lock(&node.state);
        let now = node.now_ns();
        if st.shutdown {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if st.sched.is_empty() || Instant::now() >= deadline {
                drop(st);
                // Last push so the final frames leave the process
                // before the socket closes.
                let _ = node.phys.flush_outbound();
                return;
            }
        }
        let mut next = cadence.map_or(u64::MAX, |c| now.saturating_add(c));
        if st.shutdown || !st.detaching.is_empty() {
            next = next.min(now + PARK.as_nanos() as u64);
        }
        st.wake_ns = st.wake_ns.min(next);
    }
}

/// Records a terminal physical-peer error once, so that later sends to the
/// peer fail at once. Receives need no such record: the fabric's own
/// closed peer reads the same in every namespace.
fn mark_peer_dead(node: &NodeShared, peer: usize, err: CommError) {
    lock(&node.state).peer_dead[peer].get_or_insert(err);
    // Senders blocked on a full queue to the dead peer must wake and fail.
    node.space_cv.notify_all();
}

/// Deregisters detaching jobs whose outbound queues have fully drained.
fn retire_detached(node: &NodeShared) {
    let mut st = lock(&node.state);
    if st.detaching.is_empty() {
        return;
    }
    let done: Vec<u8> = st
        .detaching
        .iter()
        .copied()
        .filter(|&id| st.sched.queued_bytes(id) == 0)
        .collect();
    let mut detached = 0;
    for id in done {
        st.detaching.remove(&id);
        st.sched.deregister(id);
        st.jobs.remove(&id);
        detached += 1;
    }
    drop(st);
    if detached > 0 {
        if let Some(m) = &node.metrics {
            m.jobs_detached.add(detached);
        }
    }
}

/// A tenant job's endpoint into the shared daemon: a complete
/// [`Transport`] whose traffic is tag-namespaced and QoS-scheduled by its
/// [`ServeNode`]. Rank and world mirror the physical mesh; tags are
/// job-local (the handle widens them into the job's namespace both ways).
pub struct NamespacedTransport {
    node: Arc<NodeShared>,
    id: u8,
    /// Optional owning reference that keeps the daemon alive as long as
    /// any tenant handle is: lets a test or trainer thread own "its"
    /// endpoint without separately managing the node's lifetime.
    keepalive: Option<Arc<ServeNode>>,
}

impl NamespacedTransport {
    /// Ties the daemon's lifetime to this handle (and any clones of the
    /// `Arc`): the node shuts down once the last holder drops.
    pub fn with_keepalive(mut self, node: Arc<ServeNode>) -> Self {
        self.keepalive = Some(node);
        self
    }

    fn wire(&self, tag: Tag) -> Tag {
        namespace_tag(self.id, tag)
    }

    /// Queues one outbound frame, blocking while the job's queue is over
    /// its byte cap, then takes the outbound turn. `block` = false gives
    /// try-send semantics: like `TcpTransport`'s, it leaves small frames
    /// in the fabric's coalescing queue and the blocking send flushes it.
    fn enqueue(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
        block: bool,
    ) -> Result<Option<Encoded>, CommError> {
        assert!(peer < self.world(), "peer {peer} out of range");
        let wire = self.wire(tag);
        let size = payload.payload_bytes() as u64;
        let mut st = lock(&self.node.state);
        loop {
            if st.shutdown || st.detaching.contains(&self.id) {
                return Err(CommError::Disconnected { peer });
            }
            if let Some(err) = &st.peer_dead[peer] {
                return Err(err.clone());
            }
            let queued = st.sched.queued_bytes(self.id);
            // An empty queue admits any single frame so an oversized send
            // can always make progress.
            if queued == 0 || queued + size <= QUEUE_BYTES {
                st.enqueue(
                    self.id,
                    size,
                    QueuedFrame {
                        peer,
                        tag: wire,
                        payload,
                    },
                );
                drop(st);
                outbound_turn(&self.node);
                if block {
                    flush_fabric(&self.node);
                }
                return Ok(None);
            }
            if !block {
                return Ok(Some(payload));
            }
            st.blocked += 1;
            st = nap(&self.node.space_cv, st, SLICE);
            st.blocked -= 1;
        }
    }
}

impl std::fmt::Debug for NamespacedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamespacedTransport")
            .field("job", &self.id)
            .field("rank", &self.rank())
            .field("world", &self.world())
            .finish_non_exhaustive()
    }
}

/// The receive side forwards to the physical endpoint, on the widened tag.
impl Transport for NamespacedTransport {
    fn rank(&self) -> usize {
        self.node.phys.rank()
    }

    fn world(&self) -> usize {
        self.node.phys.world()
    }

    fn timeout(&self) -> Duration {
        self.node.phys.timeout()
    }

    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
        self.enqueue(peer, tag, payload, true).map(|_| ())
    }

    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.enqueue(peer, tag, payload, false)
    }

    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        self.node.phys.try_recv_tagged(peer, self.wire(tag))
    }

    fn drain_inbound(&self) -> usize {
        self.node.phys.drain_inbound()
    }

    fn flush_outbound(&self) -> Result<(), CommError> {
        // A physical error is recorded for later sends
        // (`mark_peer_dead`); it is not this tenant's to report.
        outbound_turn(&self.node);
        flush_fabric(&self.node);
        Ok(())
    }

    fn arrivals(&self) -> u64 {
        self.node.phys.arrivals()
    }

    fn park(&self, seen: u64, timeout: Duration) {
        self.node.phys.park(seen, timeout);
    }
}

impl Drop for NamespacedTransport {
    fn drop(&mut self) {
        let marker = Encoded::new(
            Shape::new(vec![1]),
            cgx_tensor::Bytes::copy_from_slice(&[0x44]),
        );
        // (0x44 = 'D' — inert; DETACH is recognised by tag, not payload.)
        let mut st = lock(&self.node.state);
        if !st.shutdown {
            // Orderly detach: a control frame to every live peer, riding
            // this job's own queue so it lands *after* all queued data
            // (per-peer FIFO ⇒ delivery-safe).
            for peer in 0..self.world() {
                if peer != self.rank() && st.peer_dead[peer].is_none() {
                    st.enqueue(
                        self.id,
                        1,
                        QueuedFrame {
                            peer,
                            tag: self.wire(DETACH_TAG),
                            payload: marker.clone(),
                        },
                    );
                }
            }
            st.detaching.insert(self.id);
            self.node.owe(&mut st, 0);
        }
        drop(st);
        // `keepalive` (if any) drops after self, possibly shutting the
        // daemon down once the last handle is gone.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_collectives::ShmFabric;
    use std::sync::atomic::AtomicU64;
    use std::sync::atomic::Ordering::Relaxed;

    fn payload(byte: u8) -> Encoded {
        Encoded::new(
            Shape::new(vec![1]),
            cgx_tensor::Bytes::copy_from_slice(&[byte]),
        )
    }

    fn two_nodes() -> Vec<ServeNode> {
        ShmFabric::build(2)
            .into_iter()
            .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
            .collect()
    }

    #[test]
    fn admission_rejects_bad_duplicate_and_overflow() {
        let fabric = ShmFabric::build(1);
        let cfg = ServeConfig {
            max_jobs: 2,
            ..ServeConfig::default()
        };
        let node = ServeNode::new(Box::new(fabric.into_iter().next().unwrap()), cfg);
        assert_eq!(
            node.attach(JobSpec::new(0)).unwrap_err(),
            ServeError::BadJobId { id: 0 }
        );
        assert_eq!(
            node.attach(JobSpec::new(0xFE)).unwrap_err(),
            ServeError::BadJobId { id: 0xFE }
        );
        let _a = node.attach(JobSpec::new(1)).unwrap();
        assert_eq!(
            node.attach(JobSpec::new(1)).unwrap_err(),
            ServeError::DuplicateJob { id: 1 }
        );
        let _b = node.attach(JobSpec::new(2)).unwrap();
        assert_eq!(
            node.attach(JobSpec::new(3)).unwrap_err(),
            ServeError::JobLimit { limit: 2 }
        );
        assert_eq!(lock(&node.shared.state).jobs.len(), 2);
    }

    #[test]
    fn job_ids_are_single_use() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(5)).unwrap();
        drop(a);
        // Even after the job detaches and drains, its id cannot be reused.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            nodes[0].attach(JobSpec::new(5)).unwrap_err(),
            ServeError::DuplicateJob { id: 5 }
        );
    }

    #[test]
    fn send_recv_round_trip_across_jobs() {
        let nodes = two_nodes();
        let a1 = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b1 = nodes[1].attach(JobSpec::new(1)).unwrap();
        let a2 = nodes[0].attach(JobSpec::new(2)).unwrap();
        let b2 = nodes[1].attach(JobSpec::new(2)).unwrap();
        // Same job-local tag on both jobs: namespaces keep them apart.
        a1.send_tagged(1, 7, payload(0x11)).unwrap();
        a2.send_tagged(1, 7, payload(0x22)).unwrap();
        let got2 = b2.recv_tagged(0, 7).unwrap();
        let got1 = b1.recv_tagged(0, 7).unwrap();
        assert_eq!(got1.payload().as_ref(), &[0x11]);
        assert_eq!(got2.payload().as_ref(), &[0x22]);
    }

    #[test]
    fn orphaned_frames_replay_on_attach() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(9)).unwrap();
        a.send_tagged(1, 3, payload(0x33)).unwrap();
        a.send_tagged(1, 3, payload(0x34)).unwrap();
        // Give the pumps time to take them into node 1's stash.
        std::thread::sleep(Duration::from_millis(50));
        let b = nodes[1].attach(JobSpec::new(9)).unwrap();
        assert_eq!(b.recv_tagged(0, 3).unwrap().payload().as_ref(), &[0x33]);
        assert_eq!(b.recv_tagged(0, 3).unwrap().payload().as_ref(), &[0x34]);
    }

    #[test]
    fn detach_disconnects_peers_of_that_job_only() {
        let nodes = two_nodes();
        let a1 = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b1 = nodes[1].attach(JobSpec::new(1)).unwrap();
        let a2 = nodes[0].attach(JobSpec::new(2)).unwrap();
        let b2 = nodes[1].attach(JobSpec::new(2)).unwrap();
        a1.send_tagged(1, 4, payload(0x55)).unwrap();
        drop(a1);
        // Stashed traffic from before the detach stays receivable...
        assert_eq!(b1.recv_tagged(0, 4).unwrap().payload().as_ref(), &[0x55]);
        // ...then the peer reads as disconnected.
        match b1.recv_tagged(0, 4) {
            Err(CommError::Disconnected { peer: 0 }) => {}
            other => panic!("expected Disconnected from rank 0, got {other:?}"),
        }
        // Job 2 is untouched in both directions.
        a2.send_tagged(1, 4, payload(0x66)).unwrap();
        b2.send_tagged(0, 4, payload(0x77)).unwrap();
        assert_eq!(b2.recv_tagged(0, 4).unwrap().payload().as_ref(), &[0x66]);
        assert_eq!(a2.recv_tagged(1, 4).unwrap().payload().as_ref(), &[0x77]);
    }

    #[test]
    fn shutdown_rejects_new_jobs_and_fails_sends() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        // Request shutdown on node 0 out from under the handle.
        {
            let mut st = lock(&nodes[0].shared.state);
            st.shutdown = true;
        }
        assert_eq!(
            nodes[0].attach(JobSpec::new(2)).unwrap_err(),
            ServeError::ShuttingDown
        );
        match a.send_tagged(1, 1, payload(1)) {
            Err(CommError::Disconnected { .. }) => {}
            other => panic!("expected Disconnected on shutdown send, got {other:?}"),
        }
    }

    /// The bound `ServeNode::new` puts on the physical endpoint holds for
    /// the handle too, so a daemon can itself be a tenant's fabric.
    #[test]
    fn namespaced_transport_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NamespacedTransport>();
    }

    fn numbered(i: u32) -> Encoded {
        Encoded::new(Shape::new(vec![4]), i.to_le_bytes().to_vec().into())
    }

    fn number(frame: &Encoded) -> u32 {
        u32::from_le_bytes(frame.payload().as_ref().try_into().expect("four bytes"))
    }

    /// Frames for a job stream in from a peer's fabric while the job
    /// attaches and starts receiving: on whichever side of the attach a
    /// frame lands, it is received exactly once, in per-(peer, tag) order.
    #[test]
    fn frames_racing_an_attach_are_delivered_once_in_order() {
        const FRAMES: u32 = 300;
        const TAGS: u32 = 3;
        // The shm pair's capacity: until the attached job receives, nobody
        // on the node looks at the fabric, and the peer's sends block
        // past this many frames, so the attach comes no later.
        const ADMITTED: usize = 256;
        cgx_testkit::cases(64, |rng| {
            let mut fabric = ShmFabric::build(2);
            let peer = fabric.pop().expect("rank 1");
            let node = ServeNode::new(Box::new(fabric.pop().unwrap()), ServeConfig::default());
            let attach_after = rng.range(0..ADMITTED + 1) as u32;
            let sent = AtomicU64::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..FRAMES {
                        let wire = namespace_tag(7, u64::from(i % TAGS));
                        peer.send_tagged(0, wire, numbered(i)).expect("send");
                        sent.store(u64::from(i) + 1, Relaxed);
                    }
                });
                while sent.load(Relaxed) < u64::from(attach_after) {
                    std::hint::spin_loop();
                }
                let job = node.attach(JobSpec::new(7)).unwrap();
                for i in 0..FRAMES {
                    let got = job
                        .recv_tagged_deadline(1, u64::from(i % TAGS), Duration::from_secs(10))
                        .unwrap_or_else(|e| panic!("frame {i} never delivered: {e:?}"));
                    assert_eq!(number(&got), i, "per-(peer, tag) order");
                }
                for tag in 0..TAGS {
                    let extra = job.try_recv_tagged(1, u64::from(tag)).unwrap();
                    assert!(extra.is_none(), "a frame was delivered twice");
                }
            });
        });
    }

    /// One outbound turn as [`outbound_turn`] takes it, with `during` run
    /// between the turn's last scheduler read and its letting go of `out`.
    fn turn_racing(node: &NodeShared, during: impl FnOnce()) -> Batch {
        let turn = lock(&node.out);
        let batch = send_batch(node);
        during();
        if let_go(node, turn, &batch) {
            outbound_turn(node);
        }
        batch
    }

    /// A send that finds `out` taken leaves its frame queued and returns,
    /// owing the pump nothing: the holder, whose turn had read the
    /// scheduler idle, goes round again after it lets go and sends it.
    #[test]
    fn a_frame_enqueued_while_out_is_taken_is_not_stranded() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        let batch = turn_racing(&nodes[0].shared, || {
            a.send_tagged(1, 5, payload(0x5A)).unwrap();
            let st = lock(&nodes[0].shared.state);
            assert!(!st.sched.is_empty());
            assert_eq!(st.wake_ns, u64::MAX, "the pump is owed a turn");
        });
        assert_eq!(batch.owed, u64::MAX, "the turn read the scheduler idle");
        let got = b.recv_tagged_deadline(0, 5, Duration::from_secs(5));
        assert_eq!(got.unwrap().payload().as_ref(), &[0x5A]);
    }

    /// An uncapped job's frame that comes in while a turn holds `out`
    /// and reads every backlogged job throttled does not wait for the
    /// capped job's due time: the holder goes round again and sends it.
    #[test]
    fn a_throttled_turn_does_not_strand_an_uncapped_frame() {
        let nodes = two_nodes();
        // 100 B/s with a 100-byte burst: the second 100-byte frame is due
        // a second after the first.
        let capped = nodes[0].attach(JobSpec::new(1).rate(100, 100)).unwrap();
        let free = nodes[0].attach(JobSpec::new(2)).unwrap();
        let free_peer = nodes[1].attach(JobSpec::new(2)).unwrap();
        let hundred = || Encoded::new(Shape::new(vec![100]), vec![7; 100].into());
        capped.send_tagged(1, 6, hundred()).unwrap();
        capped.send_tagged(1, 6, hundred()).unwrap();
        let start = Instant::now();
        let batch = turn_racing(&nodes[0].shared, || {
            free.send_tagged(1, 6, payload(0xF4)).unwrap();
        });
        let due = Duration::from_nanos(batch.owed.saturating_sub(nodes[0].shared.now_ns()));
        assert!(
            due > Duration::from_millis(500),
            "capped frame due in {due:?}"
        );
        let got = free_peer.recv_tagged_deadline(0, 6, Duration::from_millis(400));
        assert_eq!(got.unwrap().payload().as_ref(), &[0xF4]);
        assert!(start.elapsed() < Duration::from_millis(400));
    }

    /// A fabric on which nothing ever happens; it counts the calls made
    /// on it and, apart, the parks, and a park sleeps out its timeout, as
    /// a fabric's native wait does when nothing arrives. It declares no
    /// liveness cadence.
    #[derive(Default, Clone)]
    struct Hollow {
        calls: Arc<AtomicU64>,
        parks: Arc<AtomicU64>,
    }

    impl Hollow {
        fn call(&self) {
            self.calls.fetch_add(1, Relaxed);
        }
    }

    impl Transport for Hollow {
        fn rank(&self) -> usize {
            0
        }
        fn world(&self) -> usize {
            2
        }
        fn timeout(&self) -> Duration {
            Duration::from_secs(1)
        }
        fn send_tagged(&self, _: usize, _: Tag, _: Encoded) -> Result<(), CommError> {
            self.call();
            Ok(())
        }
        fn try_send_tagged(
            &self,
            _: usize,
            _: Tag,
            _: Encoded,
        ) -> Result<Option<Encoded>, CommError> {
            self.call();
            Ok(None)
        }
        fn try_recv_tagged(&self, _: usize, _: Tag) -> Result<Option<Encoded>, CommError> {
            self.call();
            Ok(None)
        }
        fn drain_inbound(&self) -> usize {
            self.call();
            0
        }
        fn flush_outbound(&self) -> Result<(), CommError> {
            self.call();
            Ok(())
        }
        fn arrivals(&self) -> u64 {
            self.call();
            0
        }
        fn park(&self, _: u64, timeout: Duration) {
            self.parks.fetch_add(1, Relaxed);
            std::thread::sleep(timeout);
        }
    }

    /// No thread spins on the fabric: an attached daemon that owes the
    /// fabric nothing makes no call on it, and a tenant blocked in a
    /// receive waits in the fabric's own park, once per wait.
    #[test]
    fn an_idle_daemon_makes_no_fabric_call_and_a_tenant_waits_in_the_fabric() {
        let fabric = Hollow::default();
        let node = ServeNode::new(Box::new(fabric.clone()), ServeConfig::default());
        let tenant = node.attach(JobSpec::new(1)).unwrap();
        let attached = fabric.calls.load(Relaxed);
        assert_eq!(attached, 1, "attaching claims the namespace in one receive");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            fabric.calls.load(Relaxed),
            attached,
            "the idle pump called the fabric"
        );
        let blocked = tenant.recv_tagged_deadline(1, 7, Duration::from_millis(100));
        assert!(matches!(blocked, Err(CommError::Timeout { from: 1, .. })));
        assert_eq!(fabric.parks.load(Relaxed), 1, "the pump never parks");
    }

    /// Frames a rate cap holds back leave as they come due, though their
    /// tenant makes no call after its sends: they are owed to the pump.
    #[test]
    fn throttled_frames_leave_while_their_tenant_is_silent() {
        const FRAMES: u32 = 5;
        // 10 kB/s with a 100-byte burst: 100-byte frame `k` is due no
        // sooner than `k` × 10 ms after the first.
        let step = Duration::from_millis(10);
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1).rate(10_000, 100)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        let start = Instant::now();
        for i in 0..FRAMES {
            let frame = Encoded::new(Shape::new(vec![100]), vec![i as u8; 100].into());
            a.send_tagged(1, 6, frame).unwrap();
        }
        for i in 0..FRAMES {
            let got = b
                .recv_tagged_deadline(0, 6, Duration::from_secs(10))
                .unwrap();
            assert_eq!(got.payload()[0], i as u8, "order");
            assert!(start.elapsed() >= step * i, "frame {i} beat its due time");
        }
    }

    /// Frames the fabric pushes back leave as its pair frees, though their
    /// tenant makes no call after its sends: the shm pair takes 256 frames
    /// until its receiver looks, and the pump retries the rest.
    #[test]
    fn back_pressured_frames_leave_while_their_tenant_is_silent() {
        const FRAMES: u32 = 300;
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        for i in 0..FRAMES {
            a.send_tagged(1, 8, numbered(i)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        // Under `out`, no retry holds a frame between dequeue and refund.
        let turn = lock(&nodes[0].shared.out);
        let held = lock(&nodes[0].shared.state).sched.queued_bytes(1);
        drop(turn);
        assert_eq!(held, 4 * 44, "the fabric pushed 44 frames back");
        for i in 0..FRAMES {
            let got = b
                .recv_tagged_deadline(0, 8, Duration::from_secs(10))
                .unwrap();
            assert_eq!(number(&got), i, "order");
        }
    }

    #[test]
    fn per_job_queue_cap_gives_backpressure_not_failure() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        // Every frame exceeds the cap and relies on the empty-queue escape
        // hatch; the clones share one buffer.
        let len = QUEUE_BYTES as usize + 4;
        let big = Encoded::new(Shape::new(vec![len]), vec![0xAB; len].into());
        for _ in 0..3 {
            a.send_tagged(1, 2, big.clone()).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(b.recv_tagged(0, 2).unwrap().payload().len(), len);
        }
    }

    #[test]
    fn an_attached_tenant_owns_its_namespace_before_its_first_receive() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        // Four frames, 36 MiB in all, reach b's stash before b receives
        // anything: past what a namespace nobody has claimed may hold.
        let len = 9 << 20;
        let frame = |k: u8| Encoded::new(Shape::new(vec![len]), vec![k; len].into());
        let before = b.arrivals();
        for k in 0..4 {
            a.send_tagged(1, 2, frame(k)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.arrivals() < before + 4 {
            assert!(Instant::now() < deadline, "the frames never reached b");
            b.park(b.arrivals(), Duration::from_millis(50));
        }
        for k in 0..4 {
            let got = b.recv_tagged(0, 2).expect("every frame arrives");
            assert!(got.payload() == frame(k).payload(), "frame {k} intact");
        }
    }
}
