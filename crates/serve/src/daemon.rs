//! The per-node collectives daemon: one physical transport shared by many
//! tenant jobs attached through [`NamespacedTransport`] handles, and driven
//! by whichever thread needs it.
//!
//! # Architecture
//!
//! A [`ServeNode`] takes ownership of one physical [`Transport`] endpoint
//! (the node's slot in a TCP or shared-memory mesh). No thread owns it
//! after that: the fabric is used in *turns*, each with one implementation
//! that tenant threads and the daemon's pump thread call alike.
//!
//! * **Outbound turn** — a tenant's send is enqueued (its wire tag widened
//!   into the job's namespace via [`cgx_collectives::namespace_tag`]) into
//!   a per-job queue inside a [`DrrScheduler`]; the sender then try-locks
//!   `out` and, holding it from dequeue to fabric send, transmits in
//!   weighted deficit-round-robin order under the per-job rate caps — its
//!   own frame and whatever the scheduler ranks ahead of it. A thread that
//!   finds `out` taken leaves its frame queued: the holder looks at the
//!   backlog again *after* letting go, so nothing is stranded.
//! * **Inbound turn** — under `inb`, held from the fabric read to the last
//!   inbox push: the fabric's [`Transport::park`] (a blocking turn) or its
//!   [`Transport::drain_inbound`], then its [`Harvest::take_where`] of
//!   every frame outside the native namespace, then each of them, in the
//!   order it arrived, to the owning job's inbox
//!   (a [`TagStash`] + condvar). Traffic for a job id not yet attached on
//!   this node is parked in a bounded orphan buffer and replayed on attach.
//! * **Who drives** — a handle's own [`Transport::park`] is the election:
//!   a tenant whose receive finds its inbox empty stands for driver *with
//!   the inbox still locked*; the winner of `inb.try_lock()` lets the
//!   inbox go and blocks in the fabric's park, a loser sleeps on the job
//!   condvar — the holder cannot have routed to it in between — for at
//!   most [`ServeConfig::park`]. Lock order: `inbox → try inb`;
//!   `inb`/`out` `→ state → inbox`; `state` is never held across a fabric
//!   call.
//! * **The pump** is the fallback driver: every `park` it takes both turns
//!   without blocking in the fabric. That covers what no tenant call
//!   would: heartbeats and liveness while tenants compute (a tenant that
//!   computes for seconds between collectives does not starve heartbeat
//!   emission, the failure mode of DESIGN.md §12.1), rate-throttled frames
//!   coming due, fabric back-pressure retries, detach retirement and the
//!   shutdown drain.
//!
//! # Tenant lifecycle
//!
//! [`ServeNode::attach`] admits a job (typed [`ServeError`] rejection when
//! the node is full, the id is taken, or the daemon is shutting down) and
//! returns a [`NamespacedTransport`] — a full [`Transport`] implementation,
//! so trainers, the collectives engine, the adaptive controller and the
//! conformance battery run over it unmodified. Dropping the handle sends a
//! `DETACH` control frame to every peer **through the job's own DRR
//! queue**, after any still-queued frames (per-peer FIFO makes this
//! delivery-safe): remote ranks of the same job observe
//! [`CommError::Disconnected`] rather than a hang, and other jobs never
//! notice.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use cgx_collectives::transport::Tag;
use cgx_collectives::{
    namespace_tag, split_tag, tag_namespace, CommError, ShmTransport, TagStash, Transport,
    MAX_TENANT_NS, NATIVE_JOB,
};
use cgx_compress::Encoded;
use cgx_net::workload::read;
use cgx_net::TcpTransport;
use cgx_obs::metrics::{names, Counter, MetricsRegistry};
use cgx_tensor::Shape;

use crate::qos::{Dequeue, DrrScheduler};

/// Job-local control tag announcing a tenant's orderly detach. Lives in
/// the reserved-special region (`u64::MAX - 3`) so [`namespace_tag`]
/// relocates it into each job's wire namespace alongside the legacy,
/// control and quiesce lanes.
pub const DETACH_TAG: Tag = u64::MAX - 3;

/// Recovers the permit for one mutex acquisition; the daemon holds no lock
/// across a panic-capable region, so poisoning only ever reflects a caller
/// panic — propagate the inner state rather than deadlocking.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Takes a turn lock (`out` / `inb`) if no thread holds it; never waits.
fn try_turn<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(turn) => Some(turn),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// [`Condvar::wait_timeout`] that, like [`lock`], looks through poisoning.
fn nap<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(|p| p.into_inner())
        .0
}

/// Longest a driver sits in the fabric's park, or a sender on a full
/// queue, before its caller looks at the deadline and at the terminal
/// conditions again.
const SLICE: Duration = Duration::from_millis(20);

/// The physical endpoint a [`ServeNode`] wraps: a [`Transport`] that
/// tenant threads and the pump drive in turns, plus the one read a router
/// needs that no collective does — taking frames out of the stash by tag.
pub trait Harvest: Transport + Send + Sync {
    /// Removes every stashed frame whose wire tag passes `keep`, as
    /// `(peer, wire_tag, payload)` in the order the frames arrived.
    fn take_where(&self, keep: &dyn Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)>;
}

impl Harvest for ShmTransport {
    fn take_where(&self, keep: &dyn Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)> {
        ShmTransport::take_where(self, keep)
    }
}

impl Harvest for TcpTransport {
    fn take_where(&self, keep: &dyn Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)> {
        TcpTransport::take_where(self, keep)
    }
}

// ---------------------------------------------------------------------------
// Configuration & errors
// ---------------------------------------------------------------------------

/// Daemon tuning knobs, all overridable from the environment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently attached jobs (`CGX_SERVE_MAX_JOBS`).
    pub max_jobs: usize,
    /// Per-job outbound queue cap in bytes (`CGX_SERVE_QUEUE_BYTES`). A
    /// single frame larger than the cap is still admitted when the queue
    /// is empty, so one oversized send can never wedge a tenant.
    pub queue_bytes: u64,
    /// DRR quantum in bytes (`CGX_SERVE_QUANTUM`): byte credit granted per
    /// scheduler visit per unit weight.
    pub quantum: u64,
    /// Cadence of the pump's fallback turns, and the longest a tenant
    /// thread that lost the driver election sleeps before it stands again
    /// (`CGX_SERVE_PARK_US`, microseconds).
    pub park: Duration,
    /// Shutdown drain budget (`CGX_SERVE_DRAIN_MS`): how long the pump
    /// keeps flushing queued frames after shutdown is requested.
    pub drain: Duration,
    /// Metrics registry for `serve.*` counters, if observability is on.
    obs: Option<MetricsRegistry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_jobs: 64,
            queue_bytes: 32 << 20,
            quantum: 64 << 10,
            park: Duration::from_micros(200),
            drain: Duration::from_millis(2000),
            obs: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by the `CGX_SERVE_*` limits, read through `get`
    /// so the parse is pure and testable.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] naming the variable when a value is
    /// malformed, as in every other `CGX_*` parser.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Self, CommError> {
        let count = |key| {
            read(&get, key, "a non-negative integer", |v| {
                v.parse::<u64>().ok()
            })
        };
        let mut cfg = ServeConfig::default();
        if let Some(v) = count("CGX_SERVE_MAX_JOBS")? {
            cfg.max_jobs = usize::try_from(v).unwrap_or(usize::MAX).max(1);
        }
        if let Some(v) = count("CGX_SERVE_QUEUE_BYTES")? {
            cfg.queue_bytes = v.max(1);
        }
        if let Some(v) = count("CGX_SERVE_QUANTUM")? {
            cfg.quantum = v.max(1);
        }
        if let Some(v) = count("CGX_SERVE_PARK_US")? {
            cfg.park = Duration::from_micros(v.max(1));
        }
        if let Some(v) = count("CGX_SERVE_DRAIN_MS")? {
            cfg.drain = Duration::from_millis(v);
        }
        Ok(cfg)
    }

    /// [`Self::parse`] over the real process environment.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn from_env() -> Result<Self, CommError> {
        Self::parse(|k| std::env::var(k).ok())
    }

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

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// One queued outbound frame: physical peer, full wire tag, payload.
#[derive(Debug)]
struct QueuedFrame {
    peer: usize,
    tag: Tag,
    payload: Encoded,
}

/// Per-job inbound state, in *job-local* tag space.
#[derive(Debug)]
struct JobInbox {
    /// Routed payloads, and each peer's terminal condition once it has
    /// one: its process died, its daemon disconnected, or its tenant
    /// detached.
    stash: TagStash,
    /// Threads parked on [`JobShared::cv`]: a notify is a system call,
    /// skipped when nobody would hear it.
    parked: usize,
    /// This job's last inbound turn came back early with nothing: its
    /// next park sleeps on the condvar instead of taking another.
    dry: bool,
}

/// Handle-side shared state for one job.
#[derive(Debug)]
struct JobShared {
    inbox: Mutex<JobInbox>,
    /// Signalled, when somebody is parked, once per routed batch and on
    /// death marks.
    cv: Condvar,
}

/// Frames that arrived for a job id nobody attached yet.
#[derive(Debug, Default)]
struct Orphan {
    frames: Vec<(usize, Tag, Encoded)>,
    bytes: u64,
    /// Death marks observed while orphaned (peer, error).
    dead: Vec<(usize, CommError)>,
}

/// Everything the node mutex guards.
struct NodeState {
    sched: DrrScheduler<QueuedFrame>,
    jobs: HashMap<u8, Arc<JobShared>>,
    /// Ids ever attached — single-use per daemon lifetime.
    used_ids: HashSet<u8>,
    orphans: HashMap<u8, Orphan>,
    /// Physical-peer terminal errors, propagated to every job.
    peer_dead: Vec<Option<CommError>>,
    /// Jobs whose handles dropped; deregistered once their queue drains.
    detaching: HashSet<u8>,
    /// Senders parked on [`NodeShared::space_cv`] (as [`JobInbox::parked`]).
    blocked: usize,
    shutdown: bool,
}

/// Pre-resolved `serve.*` counters.
#[derive(Clone)]
struct ServeMetrics {
    jobs_attached: Counter,
    jobs_detached: Counter,
    jobs_rejected: Counter,
    frames_out: Counter,
    bytes_out: Counter,
    frames_routed: Counter,
    bytes_routed: Counter,
    orphan_dropped: Counter,
    turns_tenant: Counter,
    turns_pump: Counter,
}

impl ServeMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        ServeMetrics {
            jobs_attached: reg.counter(names::SERVE_JOBS_ATTACHED),
            jobs_detached: reg.counter(names::SERVE_JOBS_DETACHED),
            jobs_rejected: reg.counter(names::SERVE_JOBS_REJECTED),
            frames_out: reg.counter(names::SERVE_FRAMES_OUT),
            bytes_out: reg.counter(names::SERVE_BYTES_OUT),
            frames_routed: reg.counter(names::SERVE_FRAMES_ROUTED),
            bytes_routed: reg.counter(names::SERVE_BYTES_ROUTED),
            orphan_dropped: reg.counter(names::SERVE_ORPHAN_DROPPED),
            turns_tenant: reg.counter(names::SERVE_TURNS_TENANT),
            turns_pump: reg.counter(names::SERVE_TURNS_PUMP),
        }
    }
}

/// State shared between the pump thread and every tenant handle.
struct NodeShared {
    rank: usize,
    world: usize,
    timeout: Duration,
    cfg: ServeConfig,
    /// Monotonic origin for the scheduler's nanosecond clock.
    epoch: Instant,
    /// The physical endpoint, used in turns (module docs).
    phys: Box<dyn Harvest>,
    /// Outbound turn: held from `sched.next` to the fabric send, so DRR
    /// order is wire order.
    out: Mutex<()>,
    /// Inbound turn: held from the fabric read to the last inbox push, so
    /// arrival order — per-(peer, tag) FIFO, DETACH after data — holds
    /// whoever routes. Guards the fabric's [`Transport::arrivals`] as of
    /// the last harvest, which is what the next blocking turn parks on.
    inb: Mutex<u64>,
    state: Mutex<NodeState>,
    /// The pump parks on this; signalled on detach and shutdown only.
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
}

// ---------------------------------------------------------------------------
// ServeNode
// ---------------------------------------------------------------------------

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
    /// because tenant threads and the pump thread take their turns on the
    /// one endpoint.
    pub fn new(phys: Box<dyn Harvest>, cfg: ServeConfig) -> Self {
        let rank = phys.rank();
        let world = phys.world();
        let timeout = phys.timeout();
        let metrics = cfg.obs.as_ref().map(ServeMetrics::resolve);
        let shared = Arc::new(NodeShared {
            rank,
            world,
            timeout,
            epoch: Instant::now(),
            phys,
            out: Mutex::new(()),
            inb: Mutex::new(0),
            state: Mutex::new(NodeState {
                sched: DrrScheduler::new(cfg.quantum),
                jobs: HashMap::new(),
                used_ids: HashSet::new(),
                orphans: HashMap::new(),
                peer_dead: vec![None; world],
                detaching: HashSet::new(),
                blocked: 0,
                shutdown: false,
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

    /// This node's rank in the physical mesh.
    pub fn rank(&self) -> usize {
        self.shared.rank
    }

    /// Number of nodes in the physical mesh.
    pub fn world(&self) -> usize {
        self.shared.world
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
            return reject(&self.shared.metrics, ServeError::DuplicateJob { id: spec.id });
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
        st.sched
            .register(spec.id, spec.weight.max(1), spec.rate);
        let job = Arc::new(JobShared {
            inbox: Mutex::new(JobInbox {
                stash: TagStash::new(self.shared.world),
                parked: 0,
                dry: false,
            }),
            cv: Condvar::new(),
        });
        // Frames (and death marks) that raced ahead of this attach.
        if let Some(orphan) = st.orphans.remove(&spec.id) {
            let mut inbox = lock(&job.inbox);
            for (peer, local, payload) in orphan.frames {
                inbox.stash.file(peer, local, payload);
            }
            for (peer, err) in orphan.dead {
                inbox.stash.close(peer, err);
            }
        }
        // Peers already condemned at the physical level are dead for this
        // job from birth.
        for (peer, err) in st.peer_dead.iter().enumerate() {
            if let Some(err) = err {
                lock(&job.inbox).stash.close(peer, err.clone());
            }
        }
        st.jobs.insert(spec.id, Arc::clone(&job));
        drop(st);
        if let Some(m) = &self.shared.metrics {
            m.jobs_attached.inc();
        }
        Ok(NamespacedTransport {
            node: Arc::clone(&self.shared),
            job,
            id: spec.id,
            keepalive: None,
            detached: false,
        })
    }

    /// Number of currently attached jobs.
    pub fn attached_jobs(&self) -> usize {
        lock(&self.shared.state).jobs.len()
    }

    /// Cumulative bytes the daemon dequeued for `job` — the QoS share
    /// accounting benchmarks read.
    pub fn job_sent_bytes(&self, job: u8) -> u64 {
        lock(&self.shared.state).sched.sent_bytes(job)
    }
}

impl Drop for ServeNode {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl std::fmt::Debug for ServeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeNode")
            .field("rank", &self.shared.rank)
            .field("world", &self.shared.world)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// The two turns, and the pump that falls back on them
// ---------------------------------------------------------------------------

/// Max frames one outbound turn transmits: the pump services inbound in
/// between, and a tenant pays for at most this much of its neighbours'
/// backlog.
const OUT_BATCH: usize = 64;

/// Probe tag in the daemon control namespace: never sent, polled with
/// [`Transport::try_recv_tagged`] purely to surface per-peer terminal
/// errors from the physical transport.
fn probe_tag() -> Tag {
    namespace_tag(cgx_collectives::SERVE_CTRL_NS, 1)
}

/// One outbound turn, if `out` is free: dequeues in DRR order and sends
/// until the scheduler is idle or throttled, the fabric pushes back, or
/// [`OUT_BATCH`] frames went. Returns whether anything was sent and, when
/// every backlogged job is rate-capped, when the first comes due.
fn outbound_turn(node: &NodeShared) -> (bool, Option<u64>) {
    let mut sent_any = false;
    loop {
        let Some(turn) = try_turn(&node.out) else {
            // The holder sees our frame when it lets go (below).
            return (sent_any, None);
        };
        let (mut idle, mut ready) = (false, None);
        for _ in 0..OUT_BATCH {
            let decision = lock(&node.state).sched.next(node.now_ns());
            match decision {
                Dequeue::Frame { job, size, item } => {
                    match node.phys.try_send_tagged(item.peer, item.tag, item.payload) {
                        Ok(None) => {
                            sent_any = true;
                            if let Some(m) = &node.metrics {
                                m.frames_out.inc();
                                m.bytes_out.add(size);
                            }
                        }
                        Ok(Some(payload)) => {
                            // Fabric backpressure: put the frame back at
                            // the front of its queue; the pump retries.
                            let frame = QueuedFrame { payload, ..item };
                            lock(&node.state).sched.refund(job, size, frame);
                            break;
                        }
                        // Physical peer is gone; the frame is
                        // undeliverable. Condemn the peer for every job
                        // and drop the frame.
                        Err(err) => mark_peer_dead(node, item.peer, err),
                    }
                }
                Dequeue::Throttled { ready_ns } => {
                    ready = Some(ready_ns);
                    break;
                }
                Dequeue::Idle => {
                    idle = true;
                    break;
                }
            }
        }
        drop(turn);
        let st = lock(&node.state);
        if sent_any && st.blocked > 0 {
            node.space_cv.notify_all();
        }
        // A frame enqueued by a thread that found `out` taken since the
        // scheduler last read idle is ours to send: go round again.
        if !(idle && st.sched.has_backlog()) {
            return (sent_any, ready);
        }
    }
}

/// Pushes the fabric's coalesced wire buffers (and TCP heartbeats) out.
fn flush_fabric(node: &NodeShared) {
    if let Err(err) = node.phys.flush_outbound() {
        if let Some(peer) = err.peer() {
            mark_peer_dead(node, peer, err);
        }
    }
}

/// Takes every tenant frame the fabric holds — everything outside the
/// native namespace, whose traffic stays for the endpoint's own
/// collectives — in the order the frames arrived.
fn harvest(node: &NodeShared) -> Vec<(usize, Tag, Encoded)> {
    node.phys
        .take_where(&|wire| tag_namespace(wire) != NATIVE_JOB)
}

/// One inbound turn under `turn`, the `inb` lock: takes in what the fabric
/// holds — first sitting in the fabric's own park for up to `wait`, unless
/// that is zero — and routes it; returns the number of frames routed. The
/// liveness probe is one `read(2)` per peer on TCP, so it runs on the
/// pump's cadence and when a wait came back empty, not on every turn.
fn inbound_turn(
    node: &NodeShared,
    mut turn: MutexGuard<'_, u64>,
    wait: Duration,
    pump: bool,
) -> usize {
    if wait.is_zero() {
        node.phys.drain_inbound();
    } else {
        node.phys.park(*turn, wait);
    }
    // Sampled before the harvest: what the fabric takes in from here on
    // ends the next park at once.
    *turn = node.phys.arrivals();
    let harvested = harvest(node);
    let routed = harvested.len();
    if let Some(m) = node.metrics.as_ref().filter(|_| routed > 0) {
        (if pump { &m.turns_pump } else { &m.turns_tenant }).inc();
    }
    route_frames(node, harvested);
    if pump || (routed == 0 && !wait.is_zero()) {
        let live = |p: &usize| *p != node.rank && lock(&node.state).peer_dead[*p].is_none();
        for peer in (0..node.world).filter(live) {
            if let Err(err) = node.phys.try_recv_tagged(peer, probe_tag()) {
                // What the probe's own read took in was sent before the
                // peer went: it is delivered before the death is.
                route_frames(node, harvest(node));
                mark_peer_dead(node, peer, err);
            }
        }
    }
    drop(turn);
    routed
}

/// The fallback driver: takes both turns every [`ServeConfig::park`], or
/// sooner while frames move or a throttled one comes due. It never blocks
/// in the fabric: a pump asleep holding `inb` measured no faster than the
/// hand-off this design replaced (DESIGN.md §14.1).
fn pump_loop(node: &NodeShared) {
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let (sent, ready_ns) = outbound_turn(node);
        flush_fabric(node);
        let routed =
            try_turn(&node.inb).map_or(0, |turn| inbound_turn(node, turn, Duration::ZERO, true));
        retire_detached(node);
        let st = lock(&node.state);
        if st.shutdown {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + node.cfg.drain);
            if st.sched.is_empty() || Instant::now() >= deadline {
                drop(st);
                // Last push so the final frames leave the process
                // before the socket closes.
                let _ = node.phys.flush_outbound();
                return;
            }
        }
        if !sent && routed == 0 {
            let due = ready_ns.map_or(u64::MAX, |at| at.saturating_sub(node.now_ns()).max(1));
            let park = node.cfg.park.min(Duration::from_nanos(due));
            drop(nap(&node.work_cv, st, park));
        }
    }
}

/// Records a terminal physical-peer error once and fans it out to every
/// attached job's inbox (and to orphan buffers, so jobs that attach later
/// still observe it).
fn mark_peer_dead(node: &NodeShared, peer: usize, err: CommError) {
    let jobs: Vec<Arc<JobShared>> = {
        let mut st = lock(&node.state);
        if st.peer_dead[peer].is_some() {
            return;
        }
        st.peer_dead[peer] = Some(err.clone());
        st.jobs.values().cloned().collect()
    };
    for job in jobs {
        let mut inbox = lock(&job.inbox);
        inbox.stash.close(peer, err.clone());
        if inbox.parked > 0 {
            job.cv.notify_all();
        }
    }
    // Senders blocked on a full queue to the dead peer must wake and fail.
    node.space_cv.notify_all();
}

/// Routes harvested namespaced frames to job inboxes / orphan buffers,
/// then wakes each job that had a thread parked, once.
///
/// The batch is routed as it comes. The wire is per-peer FIFO and the
/// harvest is in arrival order ([`Harvest::take_where`]), so a DETACH
/// control frame is met after every data frame its sender queued ahead of
/// it: a receive never observes the disconnect while delivered-but-unrouted
/// data still exists.
fn route_frames(node: &NodeShared, frames: Vec<(usize, Tag, Encoded)>) {
    let mut routed_bytes = 0u64;
    let mut routed_frames = 0u64;
    let mut wake: Vec<Arc<JobShared>> = Vec::new();
    for (peer, wire, payload) in frames {
        let (ns, local) = split_tag(wire);
        let size = payload.payload_bytes() as u64;
        // The peer's tenant for this job detached in an orderly way: from
        // this job's perspective that peer is disconnected.
        let detach = (local == DETACH_TAG).then_some(CommError::Disconnected { peer });
        if detach.is_none() {
            routed_frames += 1;
            routed_bytes += size;
        }
        // Lookup-or-orphan under one acquisition: an `attach` racing this
        // frame either finds it among the orphans or is found here.
        let mut st = lock(&node.state);
        let Some(job) = st.jobs.get(&ns).cloned() else {
            let orphan = st.orphans.entry(ns).or_default();
            if let Some(err) = detach {
                orphan.dead.push((peer, err));
                continue;
            }
            if orphan.bytes + size > node.cfg.queue_bytes && !orphan.frames.is_empty() {
                // Bounded buffer: drop the oldest frame.
                let (_, _, old) = orphan.frames.remove(0);
                orphan.bytes -= old.payload_bytes() as u64;
                if let Some(m) = &node.metrics {
                    m.orphan_dropped.inc();
                }
            }
            orphan.bytes += size;
            orphan.frames.push((peer, local, payload));
            continue;
        };
        drop(st);
        let mut inbox = lock(&job.inbox);
        match detach {
            // Like a frame, an arrival: parked receivers wake to find it.
            Some(err) => inbox.stash.close(peer, err),
            None => inbox.stash.file(peer, local, payload),
        }
        if inbox.parked > 0 && !wake.iter().any(|j| Arc::ptr_eq(j, &job)) {
            wake.push(Arc::clone(&job));
        }
    }
    for job in wake {
        job.cv.notify_all();
    }
    if routed_frames > 0 {
        if let Some(m) = &node.metrics {
            m.frames_routed.add(routed_frames);
            m.bytes_routed.add(routed_bytes);
        }
    }
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

// ---------------------------------------------------------------------------
// NamespacedTransport
// ---------------------------------------------------------------------------

/// A tenant job's endpoint into the shared daemon: a complete
/// [`Transport`] whose traffic is tag-namespaced, QoS-scheduled and
/// liveness-monitored by its [`ServeNode`]. Rank and world mirror the
/// physical mesh; tags are job-local (the handle widens them on the way
/// out and whoever routes narrows them on the way in).
pub struct NamespacedTransport {
    node: Arc<NodeShared>,
    job: Arc<JobShared>,
    id: u8,
    /// Optional owning reference that keeps the daemon alive as long as
    /// any tenant handle is: lets a test or trainer thread own "its"
    /// endpoint without separately managing the node's lifetime.
    keepalive: Option<Arc<ServeNode>>,
    detached: bool,
}

impl NamespacedTransport {
    /// Ties the daemon's lifetime to this handle (and any clones of the
    /// `Arc`): the node shuts down once the last holder drops.
    pub fn with_keepalive(mut self, node: Arc<ServeNode>) -> Self {
        self.keepalive = Some(node);
        self
    }

    /// The job id this handle is namespaced under.
    pub fn job_id(&self) -> u8 {
        self.id
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
        assert!(peer < self.node.world, "peer {peer} out of range");
        let wire = self.wire(tag);
        let size = payload.payload_bytes() as u64;
        let cap = self.node.cfg.queue_bytes;
        let mut st = lock(&self.node.state);
        loop {
            if st.shutdown || self.detached || st.detaching.contains(&self.id) {
                return Err(CommError::Disconnected { peer });
            }
            if let Some(err) = &st.peer_dead[peer] {
                return Err(err.clone());
            }
            let queued = st.sched.queued_bytes(self.id);
            // An empty queue admits any single frame so an oversized send
            // can always make progress.
            if queued == 0 || queued + size <= cap {
                st.sched.enqueue(
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
            .field("rank", &self.node.rank)
            .field("world", &self.node.world)
            .finish_non_exhaustive()
    }
}

impl Transport for NamespacedTransport {
    fn rank(&self) -> usize {
        self.node.rank
    }

    fn world(&self) -> usize {
        self.node.world
    }

    fn timeout(&self) -> Duration {
        self.node.timeout
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
        assert!(peer < self.node.world, "peer {peer} out of range");
        let look = || lock(&self.job.inbox).stash.receive(peer, tag);
        // A miss takes one non-blocking inbound turn and looks again (the
        // analogue of `TcpTransport`'s targeted probe).
        match look()? {
            None if self.drain_inbound() > 0 => look(),
            found => Ok(found),
        }
    }

    fn drain_inbound(&self) -> usize {
        try_turn(&self.node.inb).map_or(0, |turn| {
            inbound_turn(&self.node, turn, Duration::ZERO, false)
        })
    }

    fn flush_outbound(&self) -> Result<(), CommError> {
        // A physical error condemns its peer for every job
        // (`mark_peer_dead`); it is not this tenant's to report.
        outbound_turn(&self.node);
        flush_fabric(&self.node);
        Ok(())
    }

    fn arrivals(&self) -> u64 {
        lock(&self.job.inbox).stash.arrivals()
    }

    /// Drives the fabric meanwhile if no other thread does. The election
    /// is the `inb` try-lock *with the inbox still locked*: the holder
    /// needs this inbox to route here, so it cannot between a lost
    /// election and the sleep.
    fn park(&self, seen: u64, timeout: Duration) {
        let mut inbox = lock(&self.job.inbox);
        if inbox.stash.arrivals() != seen {
            return;
        }
        // No second turn straight after one that came back early with
        // nothing: a fabric whose park returns at once must not make this
        // spin.
        let dry = std::mem::take(&mut inbox.dry);
        if let Some(turn) = (!dry).then(|| try_turn(&self.node.inb)).flatten() {
            drop(inbox);
            let (wait, start) = (timeout.min(SLICE), Instant::now());
            let dry = inbound_turn(&self.node, turn, wait, false) == 0 && start.elapsed() < wait;
            lock(&self.job.inbox).dry = dry;
        } else {
            inbox.parked += 1;
            inbox = nap(&self.job.cv, inbox, timeout.min(self.node.cfg.park));
            inbox.parked -= 1;
        }
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
        if !st.shutdown && !self.detached {
            // Orderly detach: a control frame to every live peer, riding
            // this job's own queue so it lands *after* all queued data
            // (per-peer FIFO ⇒ delivery-safe).
            for peer in 0..self.node.world {
                if peer != self.node.rank && st.peer_dead[peer].is_none() {
                    st.sched.enqueue(
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
        }
        drop(st);
        self.node.work_cv.notify_all();
        // `keepalive` (if any) drops after self, possibly shutting the
        // daemon down once the last handle is gone.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_collectives::ShmFabric;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
    use std::sync::atomic::{AtomicU32, AtomicU64};

    #[test]
    fn config_parse_overrides_floors_and_names_the_malformed_variable() {
        let none = ServeConfig::parse(|_| None).unwrap();
        let d = ServeConfig::default();
        assert_eq!(
            (
                none.max_jobs,
                none.queue_bytes,
                none.quantum,
                none.park,
                none.drain
            ),
            (d.max_jobs, d.queue_bytes, d.quantum, d.park, d.drain)
        );
        let set = |pairs: &'static [(&str, &str)]| {
            ServeConfig::parse(move |k| {
                pairs
                    .iter()
                    .find(|(key, _)| *key == k)
                    .map(|(_, v)| v.to_string())
            })
        };
        let cfg = set(&[
            ("CGX_SERVE_MAX_JOBS", "8"),
            ("CGX_SERVE_QUEUE_BYTES", " 4096 "),
            ("CGX_SERVE_QUANTUM", "0"),
            ("CGX_SERVE_PARK_US", "0"),
            ("CGX_SERVE_DRAIN_MS", "0"),
        ])
        .unwrap();
        assert_eq!((cfg.max_jobs, cfg.queue_bytes, cfg.quantum), (8, 4096, 1));
        assert_eq!(
            (cfg.park, cfg.drain),
            (Duration::from_micros(1), Duration::ZERO)
        );
        assert_eq!(set(&[("CGX_SERVE_MAX_JOBS", "0")]).unwrap().max_jobs, 1);
        for (key, value) in [
            ("CGX_SERVE_MAX_JOBS", "many"),
            ("CGX_SERVE_QUEUE_BYTES", "32M"),
            ("CGX_SERVE_QUANTUM", "-1"),
            ("CGX_SERVE_PARK_US", "2OO"),
            ("CGX_SERVE_DRAIN_MS", "2s"),
        ] {
            let get = move |k: &str| (k == key).then(|| value.to_string());
            match ServeConfig::parse(get) {
                Err(CommError::InvalidConfig { detail }) => {
                    assert!(detail.contains(key), "{key}={value}: {detail}");
                }
                other => panic!("{key}={value}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

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
        let mut cfg = ServeConfig::default();
        cfg.max_jobs = 2;
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
        assert_eq!(node.attached_jobs(), 2);
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
        // Give the pumps time to route into node 1's orphan buffer.
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

    /// Frames for a job stream in while its `attach` races them: on
    /// whichever side of the attach a frame lands — orphan buffer or inbox
    /// — it is received exactly once, in per-(peer, tag) order. (The
    /// lookup and the orphan insert used to take `state` twice; an attach
    /// between them drained the orphans before the frame got there.)
    #[test]
    fn frames_racing_an_attach_are_delivered_once_in_order() {
        const FRAMES: u32 = 300;
        const TAGS: u32 = 3;
        cgx_tensor::cases(256, |rng| {
            let mut fabric = ShmFabric::build(2);
            let _peer = fabric.pop().expect("rank 1 stays alive");
            let node = ServeNode::new(Box::new(fabric.pop().unwrap()), ServeConfig::default());
            let attach_after = rng.range(0..FRAMES as usize) as u32;
            let routed = AtomicU32::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..FRAMES {
                        let wire = namespace_tag(7, u64::from(i % TAGS));
                        route_frames(&node.shared, vec![(1, wire, numbered(i))]);
                        routed.store(i + 1, Release);
                    }
                });
                while routed.load(Acquire) < attach_after {
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

    /// What lets `route_frames` route a batch as it comes: both physical
    /// fabrics hand the harvest back in the order the frames were sent,
    /// however many tags they are spread over — so a frame sent last (where
    /// a DETACH sits) is met last.
    #[test]
    fn the_harvest_is_in_send_order_on_both_fabrics() {
        fn ends<T: Harvest + 'static>(mut fabric: Vec<T>) -> [Box<dyn Harvest>; 2] {
            let to = fabric.pop().expect("rank 1");
            [Box::new(fabric.pop().expect("rank 0")), Box::new(to)]
        }
        let fabrics = [
            ends(ShmFabric::build(2)),
            ends(cgx_net::TcpFabric::build_local(2)),
        ];
        for [from, to] in fabrics {
            let mut sent: Vec<Tag> = (0..16).map(|i| namespace_tag(3, i % 8)).collect();
            sent.push(namespace_tag(3, DETACH_TAG));
            for (i, &wire) in sent.iter().enumerate() {
                from.send_tagged(1, wire, payload(i as u8)).unwrap();
            }
            let start = Instant::now();
            while to.arrivals() < sent.len() as u64 {
                to.drain_inbound();
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "frames never arrived"
                );
            }
            let got: Vec<(usize, Tag, u8)> = to
                .take_where(&|wire| tag_namespace(wire) != NATIVE_JOB)
                .iter()
                .map(|(peer, wire, frame)| (*peer, *wire, frame.payload()[0]))
                .collect();
            let want: Vec<(usize, Tag, u8)> = sent
                .iter()
                .enumerate()
                .map(|(i, &wire)| (0, wire, i as u8))
                .collect();
            assert_eq!(got, want);
        }
    }

    /// A send that finds `out` taken leaves its frame queued and returns;
    /// the frame still reaches the peer once the turn is free again.
    #[test]
    fn a_frame_enqueued_while_out_is_taken_is_not_stranded() {
        let nodes = two_nodes();
        let a = nodes[0].attach(JobSpec::new(1)).unwrap();
        let b = nodes[1].attach(JobSpec::new(1)).unwrap();
        let turn = lock(&nodes[0].shared.out);
        a.send_tagged(1, 5, payload(0x5A)).unwrap();
        assert!(lock(&nodes[0].shared.state).sched.has_backlog());
        drop(turn);
        assert_eq!(b.recv_tagged(0, 5).unwrap().payload().as_ref(), &[0x5A]);
    }

    /// A receiver that loses the driver election sleeps on its condvar and
    /// is woken by whoever routes to it — here the test thread, which
    /// holds `inb` the way a driving tenant would.
    #[test]
    fn a_loser_of_the_election_is_woken_by_the_router() {
        let nodes = two_nodes();
        let b = nodes[1].attach(JobSpec::new(3)).unwrap();
        let turn = lock(&nodes[1].shared.inb);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| b.recv_tagged_deadline(0, 9, Duration::from_secs(10)));
            while lock(&b.job.inbox).parked == 0 {
                std::hint::spin_loop();
            }
            route_frames(
                &nodes[1].shared,
                vec![(0, namespace_tag(3, 9), payload(0x77))],
            );
            let got = receiver.join().unwrap().expect("routed frame");
            assert_eq!(got.payload().as_ref(), &[0x77]);
        });
        drop(turn);
    }

    /// Hand-over: job A drives the fabric and leaves; job B, asleep on its
    /// condvar since it lost the election, is sent a frame afterwards and
    /// has it within a few `park`s — not one 20 ms slice later.
    #[test]
    fn a_waiting_job_takes_over_when_the_driver_leaves() {
        const WAIT: Duration = Duration::from_secs(10);
        let nodes: Vec<ServeNode> = cgx_net::TcpFabric::build_local(2)
            .into_iter()
            .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
            .collect();
        let [a0, a1] = [0, 1].map(|n: usize| nodes[n].attach(JobSpec::new(1)).unwrap());
        let [b0, b1] = [0, 1].map(|n: usize| nodes[n].attach(JobSpec::new(2)).unwrap());
        let mut delays: Vec<Duration> = (0..5u64)
            .map(|round| {
                std::thread::scope(|s| {
                    let a = s.spawn(|| a1.recv_tagged_deadline(0, round, WAIT));
                    // `inb` is taken: A is in the fabric's wait (or, for a
                    // few microseconds in each `park`, the pump looks in).
                    while nodes[1].shared.inb.try_lock().is_ok() {
                        std::hint::spin_loop();
                    }
                    let b = s.spawn(|| (b1.recv_tagged_deadline(0, round, WAIT), Instant::now()));
                    while lock(&b1.job.inbox).parked == 0 {
                        std::hint::spin_loop();
                    }
                    a0.send_tagged(1, round, payload(1)).unwrap();
                    a.join().unwrap().expect("A's frame");
                    let sent = Instant::now();
                    b0.send_tagged(1, round, payload(2)).unwrap();
                    let (got, at) = b.join().unwrap();
                    got.expect("B's frame");
                    at.duration_since(sent)
                })
            })
            .collect();
        delays.sort();
        assert!(delays[2] <= Duration::from_millis(5), "B waited {delays:?}");
    }

    /// A fabric on which nothing ever happens and whose park returns at
    /// once, as it may; it counts the inbound turns taken on it, by the
    /// fabric call that opens each.
    #[derive(Default, Clone)]
    struct Hollow {
        drains: Arc<AtomicU64>,
        waits: Arc<AtomicU64>,
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
            Ok(())
        }
        fn try_send_tagged(
            &self,
            _: usize,
            _: Tag,
            _: Encoded,
        ) -> Result<Option<Encoded>, CommError> {
            Ok(None)
        }
        fn try_recv_tagged(&self, _: usize, _: Tag) -> Result<Option<Encoded>, CommError> {
            Ok(None)
        }
        fn drain_inbound(&self) -> usize {
            self.drains.fetch_add(1, Relaxed);
            0
        }
        fn arrivals(&self) -> u64 {
            0
        }
        fn park(&self, _: u64, _: Duration) {
            self.waits.fetch_add(1, Relaxed);
        }
    }

    impl Harvest for Hollow {
        fn take_where(&self, _: &dyn Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)> {
            Vec::new()
        }
    }

    /// No thread spins on the fabric: an attached but idle daemon takes at
    /// most one (pump) turn per `park`, and a tenant blocked in a receive
    /// on a fabric whose park returns early takes at most one more.
    #[test]
    fn nobody_takes_more_than_one_inbound_turn_per_park() {
        let fabric = Hollow::default();
        let node = ServeNode::new(Box::new(fabric.clone()), ServeConfig::default());
        let tenant = node.attach(JobSpec::new(1)).unwrap();
        let window = Duration::from_millis(100);
        // One more for the turn under way when the window opens, one for
        // a condvar that wakes unasked.
        let parks = |since: Instant| {
            (since.elapsed().as_nanos() / node.shared.cfg.park.as_nanos()) as u64 + 2
        };

        let (start, before) = (Instant::now(), fabric.drains.load(Relaxed));
        std::thread::sleep(window);
        let (turns, allowed) = (fabric.drains.load(Relaxed) - before, parks(start));
        assert!(turns > 0, "the fallback driver is not running");
        assert!(
            turns <= allowed,
            "idle: {turns} pump turns in {allowed} parks"
        );
        assert_eq!(
            fabric.waits.load(Relaxed),
            0,
            "a tenant that calls nothing takes no turn"
        );

        let start = Instant::now();
        let blocked = tenant.recv_tagged_deadline(1, 7, window);
        assert!(matches!(blocked, Err(CommError::Timeout { from: 1, .. })));
        let (turns, allowed) = (fabric.waits.load(Relaxed), parks(start));
        assert!(turns > 0, "nobody else drives: the tenant must");
        assert!(
            turns <= allowed,
            "blocked: {turns} tenant turns in {allowed} parks"
        );
    }

    #[test]
    fn per_job_queue_cap_gives_backpressure_not_failure() {
        let fabric = ShmFabric::build(2);
        let mut cfg = ServeConfig::default();
        cfg.queue_bytes = 8; // tiny: every frame over 8 bytes relies on the
                             // empty-queue escape hatch
        let mut it = fabric.into_iter();
        let n0 = ServeNode::new(Box::new(it.next().unwrap()), cfg.clone());
        let n1 = ServeNode::new(Box::new(it.next().unwrap()), cfg);
        let a = n0.attach(JobSpec::new(1)).unwrap();
        let b = n1.attach(JobSpec::new(1)).unwrap();
        let big = Encoded::new(
            Shape::new(vec![32]),
            vec![0xAB; 32].into(),
        );
        // 32-byte frame exceeds the 8-byte cap but an empty queue admits it.
        a.send_tagged(1, 2, big.clone()).unwrap();
        a.send_tagged(1, 2, big.clone()).unwrap();
        a.send_tagged(1, 2, big.clone()).unwrap();
        for _ in 0..3 {
            assert_eq!(b.recv_tagged(0, 2).unwrap().payload().len(), 32);
        }
    }
}
