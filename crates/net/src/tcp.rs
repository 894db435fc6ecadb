//! The TCP-backed [`Transport`].
//!
//! Same tag-multiplexed, deadline-aware semantics as the in-process
//! [`cgx_collectives::ShmTransport`], over real sockets: one full-mesh
//! TCP connection per peer pair, driven by a readiness event loop instead
//! of threads. The [`Transport`] contract — per-tag FIFO, cross-tag
//! out-of-order delivery, stashed payloads outliving expired deadlines
//! and dead peers — is enforced by the shared conformance suite
//! (`cgx_collectives::conformance`), instantiated for this type in this
//! crate's tests.
//!
//! Design notes:
//!
//! * **Caller-driven event loop.** Every socket is nonblocking; the
//!   endpoint's single demux loop ([`poll(2)`] over all peer sockets,
//!   then in-place frame parsing out of per-peer staging buffers) runs on
//!   whichever thread is inside a transport call. Receives *are* the
//!   event loop: [`Transport::park`] sleeps in `poll` until a socket turns
//!   readable and parses frames directly on the waiting thread. This
//!   replaces the previous one-eager-reader-thread-per-peer design —
//!   `world - 1` threads, a condvar handoff (two context switches) per
//!   frame — with zero extra threads and zero handoffs, which is what
//!   makes an 8-rank loopback mesh cheap on small-core hosts.
//! * **Ring-staged reads.** Each peer has a staging buffer
//!   ([`READ_BUF_BYTES`]); one `read` syscall pulls an entire burst of
//!   back-to-back frames, which are parsed in place
//!   ([`wire::parse_frame`]) — header fields are decoded from the
//!   staging bytes directly, and the payload is copied exactly once, out
//!   of the ring into its own allocation, its checksum verified over the
//!   copy in the same pass. Leftover
//!   partial frames stay staged; the buffer compacts and grows on demand.
//! * **Vectored zero-copy writes.** A send serializes only the frame
//!   *header* into a per-peer arena and hands `(header, payload)` pairs
//!   to `write_vectored` — the payload's only copy is the kernel's.
//!   Partial (short) writes advance a byte cursor across the queued
//!   frames and resume where the socket stopped.
//! * **Small-frame coalescing.** Nonblocking sends of small frames
//!   (≤ 16 KiB) are queued per peer and flushed as one vectored write at
//!   a budget overflow (256 KiB queued, mirroring the engine's
//!   coalescer), at any receive/park, at [`Transport::flush_outbound`]
//!   (the engine calls it before parking), and on drop. Blocking sends
//!   flush the queue plus the new frame in a single `writev`, so a link's
//!   frames leave in the order their sequence numbers were assigned.
//! * **One sequence space per link.** Every frame to a peer — any tag,
//!   heartbeats included — carries the next link seq; the demux accepts
//!   exactly the one it expects (TCP delivers in order, so anything else
//!   is a peer-side bug, surfaced as corruption). With reconnect armed,
//!   flushed frames stay in a [`Retention`] and a redial resumes from the
//!   receiver's one next-expected number.
//! * **Deadlock freedom without readers.** A blocking flush that hits a
//!   full socket drains its own inbound traffic (`pump`) between
//!   `POLLOUT` waits, so a cycle of ranks all mid-send keeps consuming
//!   bytes and someone's write always completes.
//! * **Byte-accurate accounting.** Every frame's full serialized size
//!   (length prefix, tag, geometry, checksum envelope, payload) is
//!   counted in [`TcpTransport::wire_bytes_sent`] — the benchmark's
//!   `wire_bytes_per_step` — and [`TcpTransport::wire_stats`] breaks the
//!   wall time into serialize / syscall / park for its `net.tcp.*`
//!   per-layer metrics.

use crate::fault::{NetFaultPlan, ResetPlan};
use crate::wire;
use crate::workload::read;
use cgx_collectives::framing::{Retention, RETAIN_BYTES};
use cgx_collectives::transport::{Tag, CTRL_TAG};
use cgx_collectives::{CommError, ReconnectPolicy, TagStash, Transport};
use cgx_compress::Encoded;
use cgx_obs::MetricsRegistry;
use cgx_tensor::Shape;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Environment variable enabling liveness heartbeats: the interval in
/// milliseconds between CTRL-lane probes (`0` disables).
pub const ENV_HEARTBEAT_MS: &str = "CGX_NET_HEARTBEAT_MS";
/// Environment variable overriding the liveness deadline in milliseconds
/// (a peer silent for longer is declared [`CommError::PeerDead`]).
pub const ENV_HEARTBEAT_TIMEOUT_MS: &str = "CGX_NET_HEARTBEAT_TIMEOUT_MS";
/// Environment variable enabling the reconnect path: the number of
/// redial attempts before a dropped peer is condemned (`0` disables). The
/// backoff is [`ReconnectPolicy::default_for`]'s, 20 ms toward 1 s.
pub const ENV_RECONNECT_ATTEMPTS: &str = "CGX_NET_RECONNECT_ATTEMPTS";

/// Per-peer read staging buffer; it grows past this only while a single
/// frame is larger.
pub const READ_BUF_BYTES: usize = 256 * 1024;
/// Coalescing budget: queued-but-unflushed outbound bytes per peer above
/// which the queue is flushed at once.
const COALESCE_BUDGET_BYTES: usize = 256 * 1024;
/// Largest payload the nonblocking send path defers into the coalescing
/// queue; bigger frames flush right away.
const COALESCE_FRAME_BYTES: usize = 16 * 1024;

/// The failure handling of the TCP wire path: liveness probing and
/// redialing, both off by default. Each can be armed per-process through
/// `CGX_NET_*` environment variables ([`NetOptions::from_env`]) or
/// per-fabric by handing a value to
/// [`rendezvous_with_options`](crate::rendezvous_with_options) or
/// [`TcpFabric::build_local_with`](crate::TcpFabric::build_local_with).
/// Every mesh socket has Nagle's algorithm off: collective frames are
/// latency-sensitive and already batched into single vectored writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Liveness probing: interval between heartbeat frames on the CTRL
    /// lane. `None` (the default) disables both emission and the
    /// silence deadline — a quiet peer is then only discovered through
    /// socket errors.
    ///
    /// Emission is **caller-driven**: this transport has no background
    /// threads, so heartbeats go out from inside transport calls
    /// (receives, waits, sends, flushes). A rank that spends longer
    /// than the silence deadline in pure compute between transport
    /// calls emits nothing during that gap and will be falsely
    /// condemned by its peers — size `heartbeat_timeout` above the
    /// longest inter-collective gap the workload can produce.
    pub heartbeat_interval: Option<Duration>,
    /// Silence deadline: with heartbeats on, a peer not heard from for
    /// this long is declared [`CommError::PeerDead`]. Only enforced when
    /// `heartbeat_interval` is set, and floored at
    /// [`HB_TIMEOUT_FLOOR_INTERVALS`] emission intervals by every
    /// constructor — a deadline at or below the interval would
    /// guarantee false deaths.
    pub heartbeat_timeout: Duration,
    /// Redial policy for transient socket drops. `None` (the default)
    /// fails fast: any socket error condemns the peer immediately. Armed,
    /// every link keeps its last [`RETAIN_BYTES`] of flushed frames so
    /// that the undelivered suffix of a dropped link can be resent; a gap
    /// that outgrew them condemns the peer instead of healing into
    /// silently misaligned payloads.
    pub reconnect: Option<ReconnectPolicy>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            heartbeat_interval: None,
            heartbeat_timeout: Duration::from_secs(1),
            reconnect: None,
        }
    }
}

/// Minimum ratio of liveness deadline to heartbeat interval. Below ~2
/// intervals a single delayed emission round trips the deadline; three
/// leaves margin for scheduling jitter on loaded hosts.
pub const HB_TIMEOUT_FLOOR_INTERVALS: u32 = 3;

impl NetOptions {
    /// Defaults overridden by the `CGX_NET_*` keys, read through `get` so
    /// the parse is pure and testable; with every key absent this is
    /// [`NetOptions::default`].
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] naming the variable when a value is
    /// malformed: a mistyped heartbeat interval must fail the launch, not
    /// leave it running without liveness detection.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Self, CommError> {
        let millis = |key| {
            read(&get, key, "a count of milliseconds", |v| {
                v.parse::<u64>().ok()
            })
        };
        let mut o = NetOptions::default();
        if let Some(ms) = millis(ENV_HEARTBEAT_MS)? {
            o.heartbeat_interval = (ms > 0).then(|| Duration::from_millis(ms));
            o.heartbeat_timeout = Duration::from_millis(ms.saturating_mul(5).max(250));
        }
        if let Some(ms) = millis(ENV_HEARTBEAT_TIMEOUT_MS)? {
            o.heartbeat_timeout = Duration::from_millis(ms);
        }
        if let Some(interval) = o.heartbeat_interval {
            o.heartbeat_timeout = o
                .heartbeat_timeout
                .max(interval * HB_TIMEOUT_FLOOR_INTERVALS);
        }
        let attempts = read(&get, ENV_RECONNECT_ATTEMPTS, "an attempt count", |v| {
            v.parse::<u32>().ok()
        })?;
        if let Some(attempts) = attempts {
            o.reconnect = (attempts > 0).then(|| ReconnectPolicy {
                max_attempts: attempts,
                ..ReconnectPolicy::default_for(0x5EED_C0DE)
            });
        }
        Ok(o)
    }

    /// [`Self::parse`] over the real process environment.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn from_env() -> Result<Self, CommError> {
        Self::parse(|k| std::env::var(k).ok())
    }

    /// Returns `self` with liveness heartbeats every `interval` and a
    /// silence deadline of `timeout`, floored at
    /// [`HB_TIMEOUT_FLOOR_INTERVALS`] intervals (a deadline at or below
    /// the emission interval would condemn every healthy peer).
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration, timeout: Duration) -> Self {
        self.heartbeat_interval = Some(interval);
        self.heartbeat_timeout = timeout.max(interval * HB_TIMEOUT_FLOOR_INTERVALS);
        self
    }

    /// Returns `self` with the given redial policy for transient drops.
    #[must_use]
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }
}

/// Readiness primitives: `poll(2)` through a direct FFI declaration (std
/// already links libc on unix), so the event loop needs no new crate
/// dependency.
#[cfg(unix)]
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long`; `usize` matches its width on every
        // supported unix target.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    pub fn raw_fd(stream: &TcpStream) -> i32 {
        stream.as_raw_fd()
    }

    pub fn raw_listener_fd(listener: &std::net::TcpListener) -> i32 {
        listener.as_raw_fd()
    }

    /// `poll(2)` retrying `EINTR`. Nonzero sub-millisecond timeouts round
    /// up to 1 ms so they actually sleep; zero stays a nonblocking probe.
    /// Returns how many entries have events.
    pub fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms: i32 = if timeout.is_zero() {
            0
        } else {
            timeout.as_millis().clamp(1, i32::MAX as u128) as i32
        };
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len(), ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Portable fallback: no readiness notification, so report every socket
/// as ready after a short sleep and let the nonblocking reads/writes
/// discover the truth. Correct, just less efficient.
#[cfg(not(unix))]
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn raw_fd(_stream: &TcpStream) -> i32 {
        0
    }

    pub fn raw_listener_fd(_listener: &std::net::TcpListener) -> i32 {
        0
    }

    pub fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        if !timeout.is_zero() {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
        }
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

/// Cumulative wire-path cost breakdown for one endpoint — the numbers
/// behind the benchmark's `net.tcp.{serialize,syscall,park}_ms_per_step`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Header serialization, checksumming and in-place frame parsing.
    pub serialize_ns: u64,
    /// Time inside `read`/`write_vectored` syscalls.
    pub syscall_ns: u64,
    /// Time parked in `poll` waiting for readiness.
    pub park_ns: u64,
    /// `read` syscalls issued.
    pub read_syscalls: u64,
    /// `write_vectored` syscalls issued.
    pub write_syscalls: u64,
    /// `poll` syscalls issued.
    pub poll_syscalls: u64,
    /// Frames that crossed the wire via vectored writes.
    pub writev_frames: u64,
}

impl WireStats {
    /// All syscalls (read + write + poll).
    pub fn syscalls(&self) -> u64 {
        self.read_syscalls + self.write_syscalls + self.poll_syscalls
    }

    /// Element-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, base: &WireStats) -> WireStats {
        WireStats {
            serialize_ns: self.serialize_ns - base.serialize_ns,
            syscall_ns: self.syscall_ns - base.syscall_ns,
            park_ns: self.park_ns - base.park_ns,
            read_syscalls: self.read_syscalls - base.read_syscalls,
            write_syscalls: self.write_syscalls - base.write_syscalls,
            poll_syscalls: self.poll_syscalls - base.poll_syscalls,
            writev_frames: self.writev_frames - base.writev_frames,
        }
    }
}

#[derive(Default)]
struct WireClocks {
    serialize_ns: AtomicU64,
    syscall_ns: AtomicU64,
    park_ns: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    poll_syscalls: AtomicU64,
    writev_frames: AtomicU64,
}

/// Per-peer read staging: a contiguous buffer with a live `[start, end)`
/// window. Frames parse in place from the front; free space refills at
/// the back; compaction slides the window home when the tail runs out.
struct Staging {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Staging {
    fn new() -> Self {
        Staging {
            buf: vec![0u8; READ_BUF_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// Guarantees free space at the tail, compacting first and growing
    /// (doubling) only when the buffer is genuinely full — which happens
    /// exactly when a single staged frame exceeds [`READ_BUF_BYTES`].
    fn ensure_space(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end < self.buf.len() {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end < self.buf.len() {
                return;
            }
        }
        self.buf.resize(self.buf.len() * 2, 0);
    }

    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

/// One queued outbound frame: header bytes live in the slot's arena, the
/// payload is the caller's reference-counted buffer — nothing is
/// concatenated. Tag and payload move on into the slot's retention once
/// the frame is written.
struct QueuedFrame {
    hdr_start: usize,
    hdr_len: usize,
    tag: Tag,
    enc: Encoded,
}

impl QueuedFrame {
    /// Serializes the header of `enc` at link seq `seq` into `hdrs`.
    fn new(hdrs: &mut Vec<u8>, tag: Tag, seq: u32, enc: Encoded) -> Self {
        let hdr_start = hdrs.len();
        let hdr_len = wire::append_frame_header(hdrs, tag, seq, enc.shape(), enc.payload());
        QueuedFrame {
            hdr_start,
            hdr_len,
            tag,
            enc,
        }
    }

    fn wire_len(&self) -> usize {
        self.hdr_len + self.enc.payload_bytes()
    }
}

/// Outbound half of one peer link.
struct WriterSlot {
    stream: TcpStream,
    /// Serialized headers for queued frames (cleared when the queue
    /// drains).
    hdrs: Vec<u8>,
    /// Frames not yet fully written, at link seqs `retained.end()` on.
    queue: VecDeque<QueuedFrame>,
    queued_bytes: usize,
    /// Bytes of the front frame already written (partial-write cursor).
    front_written: usize,
    /// Frames fully written to the socket, by link seq. The kernel can
    /// accept bytes it never puts on the wire (and an RST discards a
    /// receiver's undrained buffer), so with reconnect armed the last
    /// [`RETAIN_BYTES`] of them are kept until a reconnect handshake
    /// names the receiver's next-expected seq; without it none are, and
    /// the store only counts.
    retained: Retention,
}

/// Demux state: per-peer staging, sequence verification, and the
/// tag-demuxed stash, all advanced by whichever thread runs the event
/// loop.
struct Demux {
    /// Read-side clones of the peer sockets (`None` for self and for
    /// peers whose lane has closed).
    streams: Vec<Option<TcpStream>>,
    staging: Vec<Staging>,
    /// Per-peer next-expected link seq: TCP already delivers in order,
    /// so a gap means a peer-side logic error — surfaced as corruption
    /// rather than delivered out of order.
    expected: Vec<u32>,
    /// Frames awaiting a receiver, and why a peer's lane is closed once
    /// it is (EOF, I/O error, or checksum/sequence mismatch).
    stash: TagStash,
    /// When each peer was last heard from (any successful read). Drives
    /// the liveness deadline when heartbeats are enabled.
    last_heard: Vec<Instant>,
    /// Per-peer link state machine for the reconnect path.
    reconn: Vec<PeerLink>,
}

/// Link state for one peer: healthy, mid-reconnect, or condemned.
#[derive(Clone, Copy)]
enum PeerLink {
    /// Connected and flowing.
    Up,
    /// The socket dropped but the redial budget is not exhausted. The
    /// dialing side (the rank that dialed this link at bootstrap) redials
    /// per the backoff schedule; the accepting side just waits for the
    /// redial until `give_up`.
    Pending {
        attempts: u32,
        next_at: Instant,
        give_up: Instant,
    },
    /// Condemned; `closed` carries the error. Final for this
    /// incarnation: a later redial from a condemned peer is refused —
    /// the error may already have driven an elastic-membership decision
    /// that a resurrected lane would contradict.
    Down,
}

/// Reconnect support: the retained bootstrap listener plus the dialable
/// address of every peer this rank originally dialed (`None` for peers
/// that dial *us* on a drop).
struct Mesh {
    listener: TcpListener,
    addrs: Vec<Option<String>>,
}

/// Outcome of one vectored write attempt.
enum WriteProgress {
    /// Bytes moved (or the queue drained).
    Sent,
    /// The socket would block; the queue is intact.
    Full,
    /// The link failed into the reconnect state; the queue was
    /// re-sequenced and parked until the link heals.
    Deferred,
}

/// Preamble identifying a redial on the mesh listener: magic + rank +
/// the dialer's next-expected link seq from the acceptor, 12 bytes; the
/// acceptor answers with its own next-expected seq, 4 bytes, before
/// either side installs the link. Note the preamble is unauthenticated —
/// the mesh listener trusts its network, which for this fabric means the
/// single-run rendezvous scope.
const RECON_MAGIC: [u8; 4] = *b"CGXR";
/// Bound on either blocking read of the reconnect handshake. Runs on
/// the pump path, so it also bounds how long one malformed or stalled
/// redial can stall an endpoint's receive loop.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);
/// Heartbeat payload on the CTRL lane (intercepted by the demux, never
/// stashed).
const HB_PAYLOAD: [u8; 1] = [0x48];

/// Reads the peer's next-expected link seq — the whole of its answer in
/// the reconnect handshake — off a blocking stream.
fn read_resume(stream: &mut impl Read) -> std::io::Result<u32> {
    let mut seq = [0u8; 4];
    stream.read_exact(&mut seq)?;
    Ok(u32::from_le_bytes(seq))
}

/// A rank's endpoint into a TCP full mesh. Built by
/// [`crate::rendezvous::rendezvous`] (multi-process) or
/// [`crate::rendezvous::TcpFabric::build_local`] (in-process loopback).
pub struct TcpTransport {
    rank: usize,
    world: usize,
    timeout: Duration,
    opts: NetOptions,
    writers: Vec<Option<Mutex<WriterSlot>>>,
    demux: Mutex<Demux>,
    /// Frames queued in writer slots but not yet on the wire — the cheap
    /// "anything to flush?" probe.
    pending_frames: AtomicU64,
    wire_bytes_out: AtomicU64,
    wire_bytes_in: AtomicU64,
    clocks: WireClocks,
    obs: Option<TcpMetrics>,
    /// Endpoint birth, the epoch for the heartbeat emission clock.
    born: Instant,
    /// Nanoseconds after `born` when the last heartbeat round was
    /// emitted (CAS-claimed so only one pumping thread emits per
    /// interval).
    hb_last_ns: AtomicU64,
    /// Re-entrancy guard: a flush inside heartbeat emission pumps, and
    /// that pump must not recurse into emission.
    hb_guard: AtomicBool,
    heartbeats_out: AtomicU64,
    peer_deaths: AtomicU64,
    reconnects_done: AtomicU64,
    mesh: Option<Mesh>,
    reset: Option<ResetPlan>,
    fault_frames: AtomicU64,
    fault_fired: AtomicBool,
}

#[derive(Clone)]
struct TcpMetrics {
    msgs_sent: cgx_obs::Counter,
    bytes_sent: cgx_obs::Counter,
    wire_bytes_sent: cgx_obs::Counter,
    msgs_recv: cgx_obs::Counter,
    bytes_recv: cgx_obs::Counter,
    writev_frames: cgx_obs::Counter,
    syscalls: cgx_obs::Counter,
    peer_dead: cgx_obs::Counter,
    reconnects: cgx_obs::Counter,
    heartbeats: cgx_obs::Counter,
}

/// How long one `poll` may park: long enough that waiting is cheap,
/// short enough that a wakeup consumed by a sibling thread on the same
/// endpoint cannot stall a deadline by more than this.
const PARK_SLICE: Duration = Duration::from_millis(50);

impl TcpTransport {
    /// Assembles an endpoint from connected per-peer streams
    /// (`streams[p]` talks to rank `p`; the self entry must be `None`),
    /// switching every socket to nonblocking readiness-driven I/O.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] if a stream cannot be cloned for the
    /// demux side or configured (nonblocking, `TCP_NODELAY`).
    ///
    /// # Panics
    ///
    /// Panics if the stream vector disagrees with `world` or a peer
    /// entry is missing.
    pub fn new(
        rank: usize,
        world: usize,
        mut streams: Vec<Option<TcpStream>>,
        timeout: Duration,
        opts: NetOptions,
    ) -> Result<Self, CommError> {
        assert_eq!(streams.len(), world, "need one stream slot per rank");
        assert!(streams[rank].is_none(), "self entry must be empty");
        let boot = |peer: usize, what: &str, e: std::io::Error| CommError::Bootstrap {
            detail: format!("configuring link to rank {peer}: {what}: {e}"),
        };
        let retain = if opts.reconnect.is_some() { RETAIN_BYTES } else { 0 };
        let mut writers: Vec<Option<Mutex<WriterSlot>>> = Vec::with_capacity(world);
        let mut read_streams: Vec<Option<TcpStream>> = Vec::with_capacity(world);
        for (peer, slot) in streams.iter_mut().enumerate() {
            let Some(stream) = slot.take() else {
                assert_eq!(peer, rank, "missing stream for peer {peer}");
                writers.push(None);
                read_streams.push(None);
                continue;
            };
            stream
                .set_nodelay(true)
                .map_err(|e| boot(peer, "TCP_NODELAY", e))?;
            // The clone shares the open file description, so one
            // O_NONBLOCK covers both halves.
            stream
                .set_nonblocking(true)
                .map_err(|e| boot(peer, "nonblocking mode", e))?;
            let read_half = stream.try_clone().map_err(|e| boot(peer, "demux clone", e))?;
            read_streams.push(Some(read_half));
            writers.push(Some(Mutex::new(WriterSlot {
                stream,
                hdrs: Vec::new(),
                queue: VecDeque::new(),
                queued_bytes: 0,
                front_written: 0,
                retained: Retention::new(retain),
            })));
        }
        let now = Instant::now();
        Ok(TcpTransport {
            rank,
            world,
            timeout,
            opts,
            writers,
            demux: Mutex::new(Demux {
                streams: read_streams,
                staging: (0..world).map(|_| Staging::new()).collect(),
                expected: vec![0; world],
                stash: TagStash::new(world),
                last_heard: vec![now; world],
                reconn: vec![PeerLink::Up; world],
            }),
            pending_frames: AtomicU64::new(0),
            wire_bytes_out: AtomicU64::new(0),
            wire_bytes_in: AtomicU64::new(0),
            clocks: WireClocks::default(),
            obs: None,
            born: now,
            hb_last_ns: AtomicU64::new(0),
            hb_guard: AtomicBool::new(false),
            heartbeats_out: AtomicU64::new(0),
            peer_deaths: AtomicU64::new(0),
            reconnects_done: AtomicU64::new(0),
            mesh: None,
            reset: None,
            fault_frames: AtomicU64::new(0),
            fault_fired: AtomicBool::new(false),
        })
    }

    /// Arms the reconnect path: retains the mesh `listener` (for redials
    /// from peers that originally dialed us) and records the dialable
    /// address of every peer we originally dialed (`addrs[p]`; `None`
    /// for peers that redial us). Used by the rendezvous when
    /// [`NetOptions::reconnect`] is set.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] if the listener cannot be switched to
    /// nonblocking accepts.
    pub fn with_mesh(
        mut self,
        listener: TcpListener,
        addrs: Vec<Option<String>>,
    ) -> Result<Self, CommError> {
        assert_eq!(addrs.len(), self.world, "need one addr slot per rank");
        listener.set_nonblocking(true).map_err(|e| CommError::Bootstrap {
            detail: format!("nonblocking mesh listener: {e}"),
        })?;
        self.mesh = Some(Mesh { listener, addrs });
        Ok(self)
    }

    /// Arms the plan's socket reset (tests and the chaos harness only);
    /// its kill is the trainer's to read, not the transport's. Must be
    /// called before the endpoint is shared.
    pub fn set_fault(&mut self, plan: NetFaultPlan) {
        self.reset = plan.reset;
    }

    /// Socket-level drop injection: once the configured number of frames
    /// has been enqueued toward the planned peer, shut the socket down
    /// under the wire path's feet — exactly what a mid-run RST or cable
    /// pull looks like to the rest of the stack. One-shot.
    fn maybe_inject_reset(&self, peer: usize, slot: &WriterSlot) {
        let Some(reset) = &self.reset else {
            return;
        };
        if reset.rank != self.rank || reset.peer != peer {
            return;
        }
        let n = self.fault_frames.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= reset.after_frames && !self.fault_fired.swap(true, Ordering::Relaxed) {
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
    }

    /// Overrides the receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Whether the mesh sockets have `TCP_NODELAY` set (false for a
    /// world of one, which has no sockets).
    pub fn nodelay(&self) -> bool {
        self.writers.iter().flatten().next().is_some_and(|m| {
            lock(m).stream.nodelay().unwrap_or(false)
        })
    }

    /// Enables message accounting into `registry`, mirroring
    /// [`cgx_collectives::ShmTransport::set_obs`] (`transport.*`
    /// counters) plus `transport.wire_bytes_sent` for the full on-wire
    /// size including framing overhead, `transport.writev_frames` for
    /// frames moved by vectored writes, and `transport.syscalls` for
    /// every read/write/poll issued by the wire path.
    pub fn set_obs(&mut self, registry: &MetricsRegistry) {
        use cgx_obs::names;
        self.obs = Some(TcpMetrics {
            msgs_sent: registry.counter(names::TRANSPORT_MSGS_SENT),
            bytes_sent: registry.counter(names::TRANSPORT_BYTES_SENT),
            wire_bytes_sent: registry.counter(names::TRANSPORT_WIRE_BYTES_SENT),
            msgs_recv: registry.counter(names::TRANSPORT_MSGS_RECV),
            bytes_recv: registry.counter(names::TRANSPORT_BYTES_RECV),
            writev_frames: registry.counter(names::TRANSPORT_WRITEV_FRAMES),
            syscalls: registry.counter(names::TRANSPORT_SYSCALLS),
            peer_dead: registry.counter(names::TRANSPORT_PEER_DEAD),
            reconnects: registry.counter(names::TRANSPORT_RECONNECTS),
            heartbeats: registry.counter(names::TRANSPORT_HEARTBEATS),
        });
    }

    /// Peers this endpoint has declared dead (socket failure past the
    /// redial budget, or liveness deadline elapsed).
    pub fn peer_deaths(&self) -> u64 {
        self.peer_deaths.load(Ordering::Relaxed)
    }

    /// Links this endpoint has successfully re-established after a drop.
    pub fn reconnects(&self) -> u64 {
        self.reconnects_done.load(Ordering::Relaxed)
    }

    /// Heartbeat frames this endpoint has emitted on the CTRL lane.
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_out.load(Ordering::Relaxed)
    }

    /// Total serialized bytes this endpoint has committed to its sockets,
    /// including all framing overhead.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.wire_bytes_out.load(Ordering::Relaxed)
    }

    /// Total serialized bytes this endpoint's demux has consumed.
    pub fn wire_bytes_received(&self) -> u64 {
        self.wire_bytes_in.load(Ordering::Relaxed)
    }

    /// Snapshot of the wire-path cost breakdown.
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            serialize_ns: self.clocks.serialize_ns.load(Ordering::Relaxed),
            syscall_ns: self.clocks.syscall_ns.load(Ordering::Relaxed),
            park_ns: self.clocks.park_ns.load(Ordering::Relaxed),
            read_syscalls: self.clocks.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.clocks.write_syscalls.load(Ordering::Relaxed),
            poll_syscalls: self.clocks.poll_syscalls.load(Ordering::Relaxed),
            writev_frames: self.clocks.writev_frames.load(Ordering::Relaxed),
        }
    }

    /// Takes every payload the demux has stashed whose tag passes `keep`,
    /// as `(peer, tag, payload)` in arrival order
    /// ([`cgx_collectives::TagStash::take_where`]): how a `cgx-serve`
    /// daemon routes what this endpoint took in.
    pub fn take_where(&self, keep: impl Fn(Tag) -> bool) -> Vec<(usize, Tag, Encoded)> {
        lock(&self.demux).stash.take_where(keep)
    }

    /// The writer slot for `peer`. A missing slot is a fault condition
    /// (the lane was torn down), not a caller bug — surfaced as a typed
    /// [`CommError::PeerDead`] instead of a panic so fault paths stay
    /// recoverable. Out-of-range/self peers are still caller bugs.
    fn writer(&self, peer: usize) -> Result<MutexGuard<'_, WriterSlot>, CommError> {
        assert!(peer < self.world && peer != self.rank, "bad peer {peer}");
        match self.writers[peer].as_ref() {
            Some(m) => Ok(lock(m)),
            None => Err(CommError::PeerDead { rank: peer }),
        }
    }

    fn note_syscall(&self, counter: &AtomicU64, elapsed: Duration) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.clocks
            .syscall_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if let Some(m) = &self.obs {
            m.syscalls.inc();
        }
    }

    fn note_recv(&self, payload: &Encoded) {
        if let Some(m) = &self.obs {
            m.msgs_recv.inc();
            m.bytes_recv.add(payload.payload_bytes() as u64);
        }
    }

    // ---- the event loop -------------------------------------------------

    /// One turn of the event loop: wait up to `timeout` for readable peer
    /// sockets, then drain and parse every burst. Returns the number of
    /// frames stashed. `Duration::ZERO` is a nonblocking probe.
    fn pump(&self, timeout: Duration) -> usize {
        self.maybe_emit_heartbeats();
        self.mesh_service();
        // usize::MAX marks the mesh listener's slot in the poll set: a
        // redialing peer must wake a parked receiver immediately.
        const LISTENER: usize = usize::MAX;
        let mut fds: Vec<(usize, i32)> = Vec::with_capacity(self.world);
        {
            let d = lock(&self.demux);
            for (peer, stream) in d.streams.iter().enumerate() {
                if let Some(s) = stream {
                    if d.stash.closed(peer).is_none() {
                        fds.push((peer, sys::raw_fd(s)));
                    }
                }
            }
        }
        if let Some(mesh) = &self.mesh {
            fds.push((LISTENER, sys::raw_listener_fd(&mesh.listener)));
        }
        if fds.is_empty() {
            if !timeout.is_zero() {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
            }
            return 0;
        }
        let mut pollfds: Vec<sys::PollFd> = fds
            .iter()
            .map(|&(_, fd)| sys::PollFd {
                fd,
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        // Poll outside the demux lock so a sibling thread on this
        // endpoint can still receive while we park.
        let t0 = Instant::now();
        let ready = sys::poll_wait(&mut pollfds, timeout).unwrap_or(0);
        let waited = t0.elapsed();
        self.clocks.poll_syscalls.fetch_add(1, Ordering::Relaxed);
        if timeout.is_zero() {
            self.clocks
                .syscall_ns
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.clocks
                .park_ns
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        }
        if let Some(m) = &self.obs {
            m.syscalls.inc();
        }
        let mut stashed = 0;
        let mut accept_ready = false;
        if ready > 0 {
            let mut d = lock(&self.demux);
            for (i, &(peer, _)) in fds.iter().enumerate() {
                if pollfds[i].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                    if peer == LISTENER {
                        accept_ready = true;
                    } else {
                        stashed += self.read_peer(&mut d, peer);
                    }
                }
            }
        }
        self.check_liveness();
        if accept_ready {
            self.mesh_accept();
        }
        stashed
    }

    /// Condemns any peer silent past the heartbeat deadline. A frozen
    /// process keeps its sockets open, so this is the only way it is
    /// ever detected. No-op unless heartbeats are enabled.
    fn check_liveness(&self) {
        let Some(_) = self.opts.heartbeat_interval else {
            return;
        };
        let deadline = self.opts.heartbeat_timeout;
        let mut d = lock(&self.demux);
        for peer in 0..self.world {
            if peer == self.rank || d.stash.closed(peer).is_some() || d.streams[peer].is_none() {
                continue;
            }
            if !matches!(d.reconn[peer], PeerLink::Up) {
                continue;
            }
            if d.last_heard[peer].elapsed() > deadline {
                self.condemn(&mut d, peer, CommError::PeerDead { rank: peer });
            }
        }
    }

    /// Marks `peer` permanently gone: records the error (first one
    /// wins), tears down its read lane, and bumps the death counters.
    fn condemn(&self, d: &mut Demux, peer: usize, err: CommError) {
        d.streams[peer] = None;
        d.reconn[peer] = PeerLink::Down;
        if d.stash.closed(peer).is_none() && matches!(err, CommError::PeerDead { .. }) {
            self.peer_deaths.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.obs {
                m.peer_dead.inc();
            }
        }
        d.stash.close(peer, err);
    }

    /// Routes a detected link failure: transient classes enter the
    /// reconnect state machine when one is armed, everything else (and
    /// every failure past the budget) condemns the peer. Called with the
    /// demux lock held.
    fn fail_link(&self, d: &mut Demux, peer: usize, err: CommError) {
        d.streams[peer] = None;
        if d.stash.closed(peer).is_some() {
            return;
        }
        // Corruption (checksum/sequence damage) is not healed by a
        // redial: the stream itself is lying. Everything socket-shaped
        // is worth one backoff schedule.
        let transient = !matches!(err, CommError::Corrupted { .. });
        if transient && self.mesh.is_some() {
            if let Some(policy) = self.opts.reconnect {
                match d.reconn[peer] {
                    PeerLink::Pending { .. } => return,
                    PeerLink::Down => {}
                    PeerLink::Up => {
                        let now = Instant::now();
                        d.reconn[peer] = PeerLink::Pending {
                            attempts: 0,
                            next_at: now,
                            // The accepting side has no dial schedule to
                            // exhaust; it waits out the dialer's whole
                            // budget plus slack for the dials themselves.
                            give_up: now + policy.budget() + 2 * policy.cap,
                        };
                        return;
                    }
                }
            }
        }
        self.condemn(d, peer, err);
    }

    /// Drains one readable peer socket into its staging buffer and
    /// parses every complete frame. Called with the demux lock held.
    fn read_peer(&self, d: &mut Demux, peer: usize) -> usize {
        if d.stash.closed(peer).is_some() {
            return 0;
        }
        let mut stashed = 0;
        let outcome: Option<CommError> = loop {
            d.staging[peer].ensure_space();
            let Some(stream) = d.streams[peer].as_ref() else {
                break None;
            };
            let stg = &mut d.staging[peer];
            let t0 = Instant::now();
            let res = Read::read(&mut &*stream, &mut stg.buf[stg.end..]);
            self.note_syscall(&self.clocks.read_syscalls, t0.elapsed());
            match res {
                Ok(0) => {
                    // Clean EOF on a frame boundary is an orderly
                    // shutdown (the peer dropped its endpoint); EOF with
                    // a partial frame staged means the process died
                    // mid-write.
                    break Some(if d.staging[peer].start == d.staging[peer].end {
                        CommError::Disconnected { peer }
                    } else {
                        CommError::PeerDead { rank: peer }
                    });
                }
                Ok(n) => {
                    let space = stg.buf.len() - stg.end;
                    stg.end += n;
                    d.last_heard[peer] = Instant::now();
                    match self.parse_staged(d, peer, &mut stashed) {
                        Ok(()) => {}
                        Err(e) => break Some(e),
                    }
                    // A short read means the kernel buffer is (almost
                    // certainly) drained; a full one means more awaits.
                    if n < space {
                        break None;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // ECONNRESET and friends: the peer's process is gone (or
                // its host is), not merely done sending.
                Err(_) => break Some(CommError::PeerDead { rank: peer }),
            }
        };
        if let Some(err) = outcome {
            self.fail_link(d, peer, err);
        }
        stashed
    }

    /// Parses every complete frame staged for `peer`, verifying checksum
    /// and link sequence, and stashes the payloads.
    fn parse_staged(&self, d: &mut Demux, peer: usize, stashed: &mut usize) -> Result<(), CommError> {
        let t0 = Instant::now();
        let result = loop {
            let (frame, used) = match wire::parse_frame(d.staging[peer].window()) {
                Ok(Some(x)) => x,
                Ok(None) => break Ok(()),
                Err(e) => {
                    break Err(CommError::Corrupted {
                        peer,
                        detail: e.to_string(),
                    })
                }
            };
            let stg = &mut d.staging[peer];
            stg.start += used;
            if stg.start == stg.end {
                stg.start = 0;
                stg.end = 0;
            }
            let want = d.expected[peer];
            if frame.seq != want {
                break Err(CommError::Corrupted {
                    peer,
                    detail: format!(
                        "expected link seq {want}, got {} (tag {:#x})",
                        frame.seq, frame.tag
                    ),
                });
            }
            d.expected[peer] = want.wrapping_add(1);
            self.wire_bytes_in.fetch_add(used as u64, Ordering::Relaxed);
            // Heartbeats are liveness signal only: sequence-checked like
            // any CTRL frame (above), but never stashed — receivers must
            // not observe them as traffic.
            if frame.tag == CTRL_TAG && frame.enc.payload().as_ref() == HB_PAYLOAD {
                continue;
            }
            d.stash.file(peer, frame.tag, frame.enc);
            *stashed += 1;
        };
        self.clocks
            .serialize_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    // ---- the write path -------------------------------------------------

    /// Serializes a frame header into the slot's arena and queues the
    /// `(header, payload)` pair. Accounting happens here: the frame is
    /// committed to the wire from the caller's point of view.
    fn enqueue_frame(&self, slot: &mut WriterSlot, tag: Tag, payload: Encoded) {
        let t0 = Instant::now();
        let payload_bytes = payload.payload_bytes();
        let seq = slot.retained.end().wrapping_add(slot.queue.len() as u32);
        let frame = QueuedFrame::new(&mut slot.hdrs, tag, seq, payload);
        let wire_len = frame.wire_len();
        slot.queued_bytes += wire_len;
        slot.queue.push_back(frame);
        self.pending_frames.fetch_add(1, Ordering::Relaxed);
        let wire_len = wire_len as u64;
        self.wire_bytes_out.fetch_add(wire_len, Ordering::Relaxed);
        self.clocks
            .serialize_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(m) = &self.obs {
            m.msgs_sent.inc();
            m.bytes_sent.add(payload_bytes as u64);
            m.wire_bytes_sent.add(wire_len);
        }
    }

    /// Whether `peer`'s link is mid-reconnect (outbound frames are
    /// parked in the writer queue until the link heals).
    fn link_pending(&self, peer: usize) -> bool {
        matches!(lock(&self.demux).reconn[peer], PeerLink::Pending { .. })
    }

    /// One vectored write attempt over the front of the queue. `Sent`
    /// means bytes moved; `Full` means the socket would block;
    /// `Deferred` means the link failed but entered the reconnect state
    /// (the queue was re-sequenced and parked).
    fn writev_slot(&self, peer: usize, slot: &mut WriterSlot) -> Result<WriteProgress, CommError> {
        // Cap the slices per writev well under IOV_MAX.
        const MAX_FRAMES_PER_WRITE: usize = 64;
        loop {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(
                2 * slot.queue.len().min(MAX_FRAMES_PER_WRITE),
            );
            let mut skip = slot.front_written;
            for qf in slot.queue.iter().take(MAX_FRAMES_PER_WRITE) {
                let hdr = &slot.hdrs[qf.hdr_start..qf.hdr_start + qf.hdr_len];
                if skip < hdr.len() {
                    slices.push(IoSlice::new(&hdr[skip..]));
                    skip = 0;
                } else {
                    skip -= hdr.len();
                }
                let pay = qf.enc.payload().as_ref();
                if skip < pay.len() {
                    slices.push(IoSlice::new(&pay[skip..]));
                    skip = 0;
                } else {
                    skip -= pay.len();
                }
            }
            let t0 = Instant::now();
            let res = Write::write_vectored(&mut &slot.stream, &slices);
            match res {
                Ok(0) => {
                    self.note_syscall(&self.clocks.write_syscalls, t0.elapsed());
                    return self.fail_writer(slot, peer);
                }
                Ok(n) => {
                    self.note_syscall(&self.clocks.write_syscalls, t0.elapsed());
                    slot.front_written += n;
                    // A fully-written frame is only *kernel*-accepted, not
                    // delivered: it moves to the retention, which keeps it
                    // (with reconnect armed) until a reconnect handshake
                    // acknowledges it or newer frames push it out.
                    while let Some(front) = slot.queue.front() {
                        let total = front.wire_len();
                        if slot.front_written < total {
                            break;
                        }
                        slot.front_written -= total;
                        slot.queued_bytes -= total;
                        let sent = slot.queue.pop_front().expect("front exists");
                        slot.retained.push(sent.tag, sent.enc, total);
                        self.pending_frames.fetch_sub(1, Ordering::Relaxed);
                        self.clocks.writev_frames.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &self.obs {
                            m.writev_frames.inc();
                        }
                    }
                    return Ok(WriteProgress::Sent);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(WriteProgress::Full);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.fail_writer(slot, peer),
            }
        }
    }

    /// Writes the slot's whole queue with vectored writes, handling
    /// partial writes by cursor and `WouldBlock` by waiting for
    /// `POLLOUT` — draining our own inbound between waits so a mesh of
    /// mutually-blocked senders cannot deadlock. Bounded: a socket that
    /// stays full past the endpoint timeout surfaces
    /// [`CommError::Timeout`] instead of parking forever on a peer that
    /// stopped reading.
    fn flush_slot(&self, peer: usize, slot: &mut WriterSlot) -> Result<(), CommError> {
        if !slot.queue.is_empty() && self.link_pending(peer) {
            // Mid-reconnect: frames wait for the link to heal.
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        while !slot.queue.is_empty() {
            match self.writev_slot(peer, slot)? {
                WriteProgress::Sent => {}
                WriteProgress::Deferred => return Ok(()),
                WriteProgress::Full => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            from: peer,
                            waited: self.timeout,
                            in_flight: 0,
                        });
                    }
                    // Socket full: drain our own inbound (the peer may be
                    // blocked sending to us), then wait for writability.
                    self.pump(Duration::ZERO);
                    let mut pfd = [sys::PollFd {
                        fd: sys::raw_fd(&slot.stream),
                        events: sys::POLLOUT,
                        revents: 0,
                    }];
                    let t1 = Instant::now();
                    let _ = sys::poll_wait(&mut pfd, Duration::from_millis(2));
                    self.clocks.poll_syscalls.fetch_add(1, Ordering::Relaxed);
                    self.clocks
                        .park_ns
                        .fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if let Some(m) = &self.obs {
                        m.syscalls.inc();
                    }
                }
            }
        }
        slot.hdrs.clear();
        slot.front_written = 0;
        slot.queued_bytes = 0;
        Ok(())
    }

    /// A write error: the socket is gone. With a reconnect policy armed
    /// the queued frames keep their sequence numbers and park until the
    /// link heals (the link's sequence space survives a socket swap); only
    /// the partial-write cursor resets, so the front frame is resent whole.
    /// Without one the queue is discarded and the peer condemned as
    /// [`CommError::PeerDead`].
    fn fail_writer(
        &self,
        slot: &mut WriterSlot,
        peer: usize,
    ) -> Result<WriteProgress, CommError> {
        let mut d = lock(&self.demux);
        self.fail_link(&mut d, peer, CommError::PeerDead { rank: peer });
        if matches!(d.reconn[peer], PeerLink::Pending { .. }) {
            drop(d);
            slot.front_written = 0;
            return Ok(WriteProgress::Deferred);
        }
        drop(d);
        self.pending_frames
            .fetch_sub(slot.queue.len() as u64, Ordering::Relaxed);
        slot.queue.clear();
        slot.hdrs.clear();
        slot.front_written = 0;
        slot.queued_bytes = 0;
        Err(CommError::PeerDead { rank: peer })
    }

    /// Rebuilds the writer queue from `theirs`, the receiver's
    /// next-expected link seq from the reconnect handshake: the retained
    /// suffix from it, re-headered with its original seqs, goes back on
    /// the queue ahead of the unsent frames, and everything below it is
    /// acknowledged away. The healed link resumes exactly where the
    /// receiver stands.
    ///
    /// # Errors
    ///
    /// As [`Retention::resume`]: a claim beyond what was ever flushed is
    /// [`CommError::Corrupted`], a gap the retention no longer covers is
    /// [`CommError::PeerDead`] — the caller condemns the peer rather than
    /// heal into silently misaligned payloads.
    fn rebuild_for_delivery(
        &self,
        slot: &mut WriterSlot,
        peer: usize,
        theirs: u32,
    ) -> Result<(), CommError> {
        let resend = slot.retained.resume(theirs, peer)?;
        for (i, (tag, enc)) in resend.into_iter().enumerate().rev() {
            let frame = QueuedFrame::new(&mut slot.hdrs, tag, theirs.wrapping_add(i as u32), enc);
            slot.queued_bytes += frame.wire_len();
            slot.queue.push_front(frame);
            self.pending_frames.fetch_add(1, Ordering::Relaxed);
        }
        slot.front_written = 0;
        Ok(())
    }

    // ---- liveness and reconnect -----------------------------------------

    /// Emits one heartbeat round on the CTRL lane when the interval has
    /// elapsed. Never blocks: busy writer slots are skipped (their
    /// traffic is itself proof of life) and a full socket leaves the
    /// frame queued for the next flush.
    fn maybe_emit_heartbeats(&self) {
        let Some(interval) = self.opts.heartbeat_interval else {
            return;
        };
        let interval_ns = interval.as_nanos() as u64;
        let now_ns = self.born.elapsed().as_nanos() as u64;
        if now_ns.saturating_sub(self.hb_last_ns.load(Ordering::Relaxed)) < interval_ns {
            return;
        }
        // Take the guard *before* advancing the interval clock: a round
        // that loses to a concurrent (or re-entrant) emitter is retried
        // on the next pump instead of being skipped with its timestamp
        // already consumed, which would stretch emission gaps toward
        // 2x the interval and erode the liveness margin.
        if self.hb_guard.swap(true, Ordering::Acquire) {
            return;
        }
        if now_ns.saturating_sub(self.hb_last_ns.load(Ordering::Relaxed)) < interval_ns {
            self.hb_guard.store(false, Ordering::Release);
            return;
        }
        self.hb_last_ns.store(now_ns, Ordering::Relaxed);
        let up: Vec<usize> = {
            let d = lock(&self.demux);
            (0..self.world)
                .filter(|&p| {
                    p != self.rank
                        && d.stash.closed(p).is_none()
                        && d.streams[p].is_some()
                        && matches!(d.reconn[p], PeerLink::Up)
                })
                .collect()
        };
        for peer in up {
            let Some(m) = self.writers[peer].as_ref() else {
                continue;
            };
            // try_lock: a slot busy flushing is already proving this
            // rank alive, and blocking here could deadlock with a flush
            // that pumps on this same thread.
            let mut slot = match m.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => continue,
            };
            let hb = Encoded::new(
                Shape::new(vec![1]),
                cgx_tensor::Bytes::copy_from_slice(&HB_PAYLOAD),
            );
            self.enqueue_frame(&mut slot, CTRL_TAG, hb);
            self.heartbeats_out.fetch_add(1, Ordering::Relaxed);
            if let Some(mm) = &self.obs {
                mm.heartbeats.inc();
            }
            // One nonblocking attempt; a full socket keeps it queued.
            let _ = self.writev_slot(peer, &mut slot);
        }
        self.hb_guard.store(false, Ordering::Release);
    }

    /// Advances the reconnect state machine: condemns links past their
    /// budget and redials every due peer we originally dialed. Cheap
    /// no-op without a mesh. Takes no locks across the dials themselves.
    fn mesh_service(&self) {
        let Some(mesh) = &self.mesh else {
            return;
        };
        let Some(policy) = self.opts.reconnect else {
            return;
        };
        let now = Instant::now();
        let mut dials: Vec<(usize, String)> = Vec::new();
        {
            let mut d = lock(&self.demux);
            for peer in 0..self.world {
                if peer == self.rank {
                    continue;
                }
                if let PeerLink::Pending {
                    attempts,
                    next_at,
                    give_up,
                    ..
                } = d.reconn[peer]
                {
                    if now >= give_up || attempts >= policy.max_attempts {
                        self.condemn(&mut d, peer, CommError::PeerDead { rank: peer });
                        continue;
                    }
                    if now >= next_at {
                        if let Some(addr) = mesh.addrs[peer].clone() {
                            dials.push((peer, addr));
                        }
                    }
                }
            }
        }
        for (peer, addr) in dials {
            self.try_dial(peer, &addr, policy);
        }
    }

    /// One redial attempt toward `peer`: connect, announce ourselves
    /// with the reconnect preamble carrying our next-expected link seq,
    /// read the acceptor's back, and install the fresh link. Failures
    /// advance the backoff schedule; exhausting it condemns the peer.
    ///
    /// Our next-expected seq is stable across the handshake: the read
    /// lane to `peer` was detached when the link entered `Pending`
    /// ([`Self::fail_link`]), so no sibling thread can advance
    /// `expected[peer]` between the snapshot and the install.
    fn try_dial(&self, peer: usize, addr: &str, policy: ReconnectPolicy) {
        let mine = lock(&self.demux).expected[peer];
        let dialed = TcpStream::connect(addr).and_then(|mut s| {
            let mut hello = [0u8; 12];
            hello[..4].copy_from_slice(&RECON_MAGIC);
            hello[4..8].copy_from_slice(&(self.rank as u32).to_le_bytes());
            hello[8..].copy_from_slice(&mine.to_le_bytes());
            s.write_all(&hello)?;
            // The acceptor answers with its own next-expected seq; bound
            // the wait so a wedged acceptor just advances the backoff.
            s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let theirs = read_resume(&mut &s)?;
            s.set_read_timeout(None)?;
            Ok((s, theirs))
        });
        match dialed {
            Ok((s, theirs)) => {
                let _ = self.install_link(peer, s, theirs);
            }
            Err(_) => {
                let mut d = lock(&self.demux);
                if let PeerLink::Pending {
                    attempts, next_at, ..
                } = &mut d.reconn[peer]
                {
                    *attempts += 1;
                    let n = *attempts;
                    if n >= policy.max_attempts {
                        self.condemn(&mut d, peer, CommError::PeerDead { rank: peer });
                    } else {
                        *next_at = Instant::now() + policy.delay(n);
                    }
                }
            }
        }
    }

    /// Drains the mesh listener: every pending connection must open with
    /// the reconnect preamble naming a valid, un-condemned peer and the
    /// dialer's next-expected link seq; we answer with ours and then
    /// replace the peer's link. Anything else is dropped.
    fn mesh_accept(&self) {
        let Some(mesh) = &self.mesh else {
            return;
        };
        loop {
            match mesh.listener.accept() {
                Ok((stream, _)) => {
                    // Sockets accepted from a nonblocking listener
                    // inherit O_NONBLOCK on some platforms (macOS/BSD);
                    // force blocking mode so the bounded read timeout —
                    // not an instant WouldBlock — governs the handshake.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let mut hello = [0u8; 12];
                    let handshake = stream
                        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
                        .and_then(|()| (&stream).read_exact(&mut hello));
                    if handshake.is_err() || hello[..4] != RECON_MAGIC {
                        continue;
                    }
                    let word = |at: usize| {
                        u32::from_le_bytes(hello[at..at + 4].try_into().expect("4 bytes"))
                    };
                    let (peer, theirs) = (word(4) as usize, word(8));
                    if peer >= self.world || peer == self.rank {
                        continue;
                    }
                    let mine = {
                        let mut d = lock(&self.demux);
                        // Once condemned, the verdict is final: the
                        // error may already have been surfaced and
                        // acted on. Refuse the redial.
                        if matches!(d.reconn[peer], PeerLink::Down)
                            || d.stash.closed(peer).is_some()
                        {
                            continue;
                        }
                        // Quiesce the old lane before declaring our
                        // next-expected seq: drain whatever the dead
                        // socket still holds, then detach it so no
                        // sibling thread advances `expected[peer]`
                        // between this reply and the install.
                        self.read_peer(&mut d, peer);
                        if matches!(d.reconn[peer], PeerLink::Down)
                            || d.stash.closed(peer).is_some()
                        {
                            continue;
                        }
                        d.streams[peer] = None;
                        d.expected[peer]
                    };
                    if (&stream).write_all(&mine.to_le_bytes()).is_err() {
                        continue;
                    }
                    let _ = stream.set_read_timeout(None);
                    let _ = self.install_link(peer, stream, theirs);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Replaces `peer`'s link with a fresh stream (either side of a
    /// reconnect). The link's sequence space survives the swap: the
    /// receive side keeps its next-expected seq (only partial staging
    /// from the old socket is discarded), and the writer queue is
    /// rebuilt from `theirs` — the peer's next-expected seq from the
    /// handshake — retransmitting the flushed-but-undelivered suffix
    /// from retention ([`Self::rebuild_for_delivery`]). Stashed frames from
    /// the old connection stay deliverable. A condemned peer is
    /// refused: the [`CommError::PeerDead`] verdict is final for this
    /// incarnation, and a gap retention cannot cover condemns here
    /// rather than heal into misaligned payloads.
    fn install_link(&self, peer: usize, stream: TcpStream, theirs: u32) -> Result<(), CommError> {
        let boot = |what: &str, e: std::io::Error| CommError::Bootstrap {
            detail: format!("reconnecting link to rank {peer}: {what}: {e}"),
        };
        if matches!(lock(&self.demux).reconn[peer], PeerLink::Down) {
            return Err(CommError::PeerDead { rank: peer });
        }
        stream
            .set_nodelay(true)
            .map_err(|e| boot("TCP_NODELAY", e))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| boot("nonblocking mode", e))?;
        let read_half = stream.try_clone().map_err(|e| boot("demux clone", e))?;
        let Some(m) = self.writers[peer].as_ref() else {
            return Err(CommError::PeerDead { rank: peer });
        };
        // try_lock, never block: this can run inside a flush's own pump
        // (possibly already holding this very slot), and a blocking lock
        // would deadlock. A persistently busy slot aborts the install —
        // the dialing side simply redials on its backoff schedule.
        let mut slot = 'acquire: {
            for _ in 0..5 {
                match m.try_lock() {
                    Ok(g) => break 'acquire g,
                    Err(std::sync::TryLockError::Poisoned(p)) => break 'acquire p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
            return Err(CommError::Timeout {
                from: peer,
                waited: Duration::from_millis(10),
                in_flight: 0,
            });
        };
        {
            let mut d = lock(&self.demux);
            // Re-check under the lock: the peer may have been condemned
            // (budget exhausted, liveness expiry) while the handshake
            // ran, and a condemned verdict must stay final. A lane that
            // is already live again means a racing install won — drop
            // this connection rather than double-install.
            if matches!(d.reconn[peer], PeerLink::Down) || d.stash.closed(peer).is_some() {
                return Err(CommError::PeerDead { rank: peer });
            }
            if d.streams[peer].is_some() {
                return Err(CommError::Bootstrap {
                    detail: format!("link to rank {peer} is already live"),
                });
            }
            if let Err(e) = self.rebuild_for_delivery(&mut slot, peer, theirs) {
                self.condemn(&mut d, peer, e.clone());
                return Err(e);
            }
            slot.stream = stream;
            d.streams[peer] = Some(read_half);
            // Partial staging from the old socket is discarded; the
            // sender retransmits that frame whole. The next-expected
            // seq is *kept* — the handshake advertised it, and the
            // rebuilt writer queue resumes exactly there.
            d.staging[peer].start = 0;
            d.staging[peer].end = 0;
            d.reconn[peer] = PeerLink::Up;
            d.last_heard[peer] = Instant::now();
        }
        self.reconnects_done.fetch_add(1, Ordering::Relaxed);
        if let Some(mm) = &self.obs {
            mm.reconnects.inc();
        }
        // One nonblocking push of anything parked during the outage —
        // the peer is likely blocked waiting on it; leftovers go out on
        // the next flush. (No blocking flush here: it could pump, and
        // this may already be running inside a pump.)
        if !slot.queue.is_empty() {
            let _ = self.writev_slot(peer, &mut slot)?;
        }
        Ok(())
    }

    /// Flushes every peer's coalescing queue. Fast no-op when nothing is
    /// pending (one atomic load).
    fn flush_all(&self) -> Result<(), CommError> {
        if self.pending_frames.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let mut first_err = None;
        for peer in 0..self.world {
            let Some(m) = self.writers.get(peer).and_then(|w| w.as_ref()) else {
                continue;
            };
            let mut slot = lock(m);
            if slot.queue.is_empty() {
                continue;
            }
            if let Err(e) = self.flush_slot(peer, &mut slot) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // State mutations are small pushes/pops; recover from a poisoned
    // lock rather than cascading a panic across the mesh.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn timeout(&self) -> Duration {
        self.timeout
    }

    fn send_tagged(&self, peer: usize, tag: Tag, payload: Encoded) -> Result<(), CommError> {
        // Send-side emission too, not just pump(): a rank that only
        // sends for a while must still prove itself alive to peers it
        // is not currently sending to.
        self.maybe_emit_heartbeats();
        let mut slot = self.writer(peer)?;
        self.enqueue_frame(&mut slot, tag, payload);
        self.maybe_inject_reset(peer, &slot);
        // One vectored write covers any coalesced backlog plus this
        // frame, preserving per-peer submission order.
        let r = self.flush_slot(peer, &mut slot);
        drop(slot);
        if r.is_ok() && self.mesh.is_some() && self.link_pending(peer) {
            // The frame parked behind a reconnect: drive the redial now
            // (with the slot released so the install can take it) so a
            // pure sender still heals its own links.
            self.pump(Duration::ZERO);
        }
        r
    }

    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.maybe_emit_heartbeats();
        let defer = payload.payload_bytes() <= COALESCE_FRAME_BYTES;
        let mut slot = self.writer(peer)?;
        self.enqueue_frame(&mut slot, tag, payload);
        self.maybe_inject_reset(peer, &slot);
        // Small frames coalesce until the budget overflows (mirroring
        // the engine's coalescer); large ones go out now — kernel socket
        // buffers absorb collective-sized frames, so the blocking flush
        // is the nonblocking path's slow lane, not a deadlock (the flush
        // drains inbound while it waits).
        if !defer || slot.queued_bytes >= COALESCE_BUDGET_BYTES {
            self.flush_slot(peer, &mut slot)?;
        }
        drop(slot);
        if self.mesh.is_some() && self.link_pending(peer) {
            self.pump(Duration::ZERO);
        }
        Ok(None)
    }

    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        assert!(peer < self.world && peer != self.rank, "bad peer {peer}");
        let _ = self.flush_all();
        let mut d = lock(&self.demux);
        let mut taken = d.stash.take(peer, tag);
        if taken.is_none() {
            // Targeted probe: the frame usually already sits in this
            // peer's kernel buffer, and one nonblocking read on that
            // socket is cheaper than a full poll-all turn. Misses are left
            // to `park`, whose pump drains everyone.
            self.read_peer(&mut d, peer);
            taken = d.stash.take(peer, tag);
        }
        let Some(payload) = taken else {
            // Stash drained first: a payload that arrived before the
            // peer died must still be delivered.
            return d.stash.closed(peer).map_or(Ok(None), |e| Err(e.clone()));
        };
        drop(d);
        self.note_recv(&payload);
        Ok(Some(payload))
    }

    fn drain_inbound(&self) -> usize {
        let _ = self.flush_all();
        self.pump(Duration::ZERO)
    }

    fn flush_outbound(&self) -> Result<(), CommError> {
        self.flush_all()
    }

    fn arrivals(&self) -> u64 {
        lock(&self.demux).stash.arrivals()
    }

    /// One turn of the event loop: parked in `poll(2)` until a socket
    /// turns readable, then parsing what it holds on this thread.
    fn park(&self, seen: u64, timeout: Duration) {
        let _ = self.flush_all();
        if lock(&self.demux).stash.arrivals() == seen {
            self.pump(timeout.min(PARK_SLICE));
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Flush any coalesced frames (best effort), then shut the
        // sockets down so every peer's event loop observes EOF. No
        // threads to reap: the event loop dies with its callers.
        let _ = self.flush_all();
        for slot in self.writers.iter().flatten() {
            let _ = lock(slot).stream.shutdown(Shutdown::Both);
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("timeout", &self.timeout)
            .field("wire_bytes_out", &self.wire_bytes_out.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::TcpFabric;
    use crate::workload::tests::{assert_names, env};
    use cgx_obs::MetricsRegistry;

    /// `cgx_serve::ServeNode::new` takes a `Send + Sync` endpoint: its
    /// tenant threads and its pump thread share the one endpoint.
    #[test]
    fn endpoint_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TcpTransport>();
    }

    #[test]
    fn obs_counters_track_messages_and_wire_bytes() {
        let mut eps = TcpFabric::build_local(2);
        let registry = MetricsRegistry::new();
        for ep in &mut eps {
            ep.set_obs(&registry);
        }
        let payload = Encoded::new(
            Shape::new(vec![8]),
            vec![3u8; 32].into(),
        );
        let wire = wire::frame_wire_bytes(1, 32) as u64;
        std::thread::scope(|s| {
            let mut it = eps.into_iter();
            let a = it.next().expect("rank 0");
            let b = it.next().expect("rank 1");
            s.spawn(move || a.send_tagged(1, 9, payload).expect("send"));
            s.spawn(move || {
                b.recv_tagged(0, 9).expect("recv");
            });
        });
        let snap = registry.snapshot();
        assert_eq!(snap.get("transport.msgs_sent"), Some(1));
        assert_eq!(snap.get("transport.bytes_sent"), Some(32));
        assert_eq!(snap.get("transport.wire_bytes_sent"), Some(wire));
        assert_eq!(snap.get("transport.msgs_recv"), Some(1));
        assert_eq!(snap.get("transport.bytes_recv"), Some(32));
        assert_eq!(snap.get("transport.writev_frames"), Some(1));
        assert!(
            snap.get("transport.syscalls").unwrap_or(0) >= 2,
            "at least one write and one read syscall"
        );
    }

    #[test]
    fn dropping_an_endpoint_disconnects_its_peers() {
        let mut eps = TcpFabric::build_local(2);
        let b = eps.pop().expect("rank 1");
        drop(eps); // rank 0's Drop shuts the sockets down
        let err = b
            .recv_tagged_deadline(0, 4, Duration::from_secs(5))
            .expect_err("peer is gone");
        assert!(matches!(err, CommError::Disconnected { peer: 0 }), "got {err:?}");
    }

    #[test]
    fn mesh_sockets_have_nodelay_set() {
        let eps = TcpFabric::build_local(2);
        for ep in &eps {
            assert!(ep.nodelay(), "rank {} socket is Nagle-delayed", ep.rank());
        }
    }

    #[test]
    fn frames_larger_than_the_read_buffer_still_arrive() {
        // A frame several staging buffers long forces the compaction +
        // growth path on its receive.
        let eps = TcpFabric::build_local(2);
        let len = 3 * READ_BUF_BYTES + 17;
        let big = Encoded::new(
            Shape::new(vec![len]),
            cgx_tensor::Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
        );
        let expect = big.clone();
        std::thread::scope(|s| {
            let mut it = eps.into_iter();
            let a = it.next().expect("rank 0");
            let b = it.next().expect("rank 1");
            s.spawn(move || a.send_tagged(1, 8, big).expect("send"));
            let got = b.recv_tagged(0, 8).expect("recv");
            assert_eq!(got.payload(), expect.payload());
        });
    }

    #[test]
    fn deferred_small_sends_flush_on_flush_outbound() {
        let eps = TcpFabric::build_local(2);
        let mut it = eps.into_iter();
        let a = it.next().expect("rank 0");
        let b = it.next().expect("rank 1");
        for i in 0..10u32 {
            let p = Encoded::new(
                Shape::new(vec![4]),
                vec![i as u8; 4].into(),
            );
            assert!(a.try_send_tagged(1, 77, p).expect("try_send").is_none());
        }
        a.flush_outbound().expect("flush");
        for i in 0..10u32 {
            let got = b.recv_tagged(0, 77).expect("recv");
            assert_eq!(got.payload().as_ref(), &[i as u8; 4]);
        }
    }

    #[test]
    fn net_options_parse_overrides_the_defaults() {
        // Nothing set is the defaults, exactly: the benchmark harness
        // clears every CGX_* and builds its fabrics through this path.
        assert_eq!(NetOptions::parse(env(&[])).unwrap(), NetOptions::default());
        let o = NetOptions::parse(env(&[(ENV_HEARTBEAT_TIMEOUT_MS, "700")])).unwrap();
        assert_eq!(
            o,
            NetOptions {
                heartbeat_timeout: Duration::from_millis(700),
                ..NetOptions::default()
            }
        );
    }

    #[test]
    fn net_options_parse_arms_heartbeats_and_reconnect() {
        let o = NetOptions::parse(env(&[
            (ENV_HEARTBEAT_MS, "40"),
            (ENV_RECONNECT_ATTEMPTS, "3"),
        ]))
        .unwrap();
        assert_eq!(o.heartbeat_interval, Some(Duration::from_millis(40)));
        assert_eq!(o.heartbeat_timeout, Duration::from_millis(250));
        let policy = o.reconnect.expect("reconnect armed");
        assert_eq!(policy.max_attempts, 3);
        // The backoff is the default schedule's: 20 ms toward 1 s.
        assert_eq!(policy.base, Duration::from_millis(20));
        assert_eq!(policy.cap, Duration::from_secs(1));
        // Zero switches either off.
        let off = NetOptions::parse(env(&[
            (ENV_HEARTBEAT_MS, "0"),
            (ENV_RECONNECT_ATTEMPTS, "0"),
        ]))
        .unwrap();
        assert_eq!((off.heartbeat_interval, off.reconnect), (None, None));

        // A deadline at or below the interval guarantees false deaths:
        // both the env path and the builder floor it at
        // HB_TIMEOUT_FLOOR_INTERVALS emission intervals.
        let clamped = NetOptions::parse(env(&[
            (ENV_HEARTBEAT_MS, "100"),
            (ENV_HEARTBEAT_TIMEOUT_MS, "50"),
        ]))
        .unwrap();
        assert_eq!(clamped.heartbeat_timeout, Duration::from_millis(300));
        let built = NetOptions::default()
            .with_heartbeat(Duration::from_millis(50), Duration::from_millis(50));
        assert_eq!(built.heartbeat_timeout, Duration::from_millis(150));
    }

    #[test]
    fn net_options_parse_names_the_malformed_variable() {
        // `2OO` is not "no heartbeats": every key fails the typed way.
        for (key, value) in [
            (ENV_HEARTBEAT_MS, "2OO"),
            (ENV_HEARTBEAT_TIMEOUT_MS, "1s"),
            (ENV_RECONNECT_ATTEMPTS, "three"),
        ] {
            let get = move |k: &str| (k == key).then(|| value.to_string());
            assert_names(NetOptions::parse(get), key, value);
        }
    }

    #[test]
    fn heartbeats_flow_and_detect_a_frozen_peer() {
        // 2 ranks with aggressive liveness settings. Rank 1 "freezes":
        // it never pumps, so it stops emitting heartbeats, and rank 0
        // must condemn it as PeerDead within the deadline — even though
        // the socket stays open (the case plain EOF detection misses).
        let opts = NetOptions::default()
            .with_heartbeat(Duration::from_millis(20), Duration::from_millis(150));
        let mut eps = TcpFabric::build_local_with(2, opts);
        let frozen = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        let t0 = Instant::now();
        let err = a
            .recv_tagged_deadline(1, 5, Duration::from_secs(10))
            .expect_err("frozen peer must be detected");
        assert!(
            matches!(err, CommError::PeerDead { rank: 1 }),
            "got {err:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "detection took {:?}, deadline was 150ms",
            t0.elapsed()
        );
        assert!(a.heartbeats_sent() > 0, "rank 0 emitted heartbeats");
        assert_eq!(a.peer_deaths(), 1);
        drop(frozen);
    }

    #[test]
    fn heartbeats_are_invisible_to_receivers() {
        // With heartbeats far faster than the traffic, real payloads
        // must still arrive unperturbed and in order.
        let opts = NetOptions::default()
            .with_heartbeat(Duration::from_millis(5), Duration::from_secs(5));
        let eps = TcpFabric::build_local_with(2, opts);
        std::thread::scope(|s| {
            let mut it = eps.into_iter();
            let a = it.next().expect("rank 0");
            let b = it.next().expect("rank 1");
            s.spawn(move || {
                for i in 0..20u8 {
                    std::thread::sleep(Duration::from_millis(2));
                    let p = Encoded::new(
                        Shape::new(vec![1]),
                        vec![i].into(),
                    );
                    a.send_tagged(1, 13, p).expect("send");
                }
            });
            for i in 0..20u8 {
                let got = b.recv_tagged(0, 13).expect("recv");
                assert_eq!(got.payload().as_ref(), &[i]);
            }
        });
    }

    #[test]
    fn injected_socket_reset_heals_through_reconnect() {
        // Rank 1 (the dialer of the 0<->1 link) has its socket shut down
        // after 3 outbound frames. With a reconnect policy armed the
        // link must heal transparently: all 10 payloads arrive, in
        // order, and the transports record a reconnect.
        let policy = ReconnectPolicy::new(
            Duration::from_millis(5),
            Duration::from_millis(100),
            8,
            7,
        );
        let opts = NetOptions::default().with_reconnect(policy);
        let mut eps = crate::rendezvous::TcpFabric::build_local_with(2, opts);
        let mut b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        b.set_fault(NetFaultPlan::new(7).with_reset(1, 0, 3));
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..10u8 {
                    let p = Encoded::new(
                        Shape::new(vec![1]),
                        vec![i].into(),
                    );
                    b.send_tagged(0, 21, p).expect("send survives the reset");
                }
                assert!(b.reconnects() >= 1, "rank 1 redialed");
            });
            for i in 0..10u8 {
                let got = a
                    .recv_tagged_deadline(1, 21, Duration::from_secs(10))
                    .expect("recv across the reset");
                assert_eq!(got.payload().as_ref(), &[i]);
            }
            assert!(a.reconnects() >= 1, "rank 0 accepted the redial");
        });
    }

    #[test]
    fn reconnect_budget_exhaustion_condemns_the_peer() {
        // Rank 1 vanishes entirely (endpoint dropped, listener gone).
        // Rank 0's redials must all fail and surface a typed PeerDead
        // once the budget is spent — bounded, no hang.
        let policy = ReconnectPolicy::new(
            Duration::from_millis(2),
            Duration::from_millis(10),
            3,
            11,
        );
        let opts = NetOptions::default().with_reconnect(policy);
        let mut eps = crate::rendezvous::TcpFabric::build_local_with(2, opts);
        let b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        drop(b);
        let t0 = Instant::now();
        let err = a
            .recv_tagged_deadline(1, 9, Duration::from_secs(10))
            .expect_err("peer never comes back");
        assert!(
            matches!(err, CommError::PeerDead { rank: 1 }),
            "got {err:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "budget exhaustion took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn resume_point_roundtrips_and_a_truncated_read_fails() {
        // The handshake body is one fixed-size number each way.
        for seq in [0u32, 12, 0x0A0B_0C0D, u32::MAX] {
            assert_eq!(
                read_resume(&mut &seq.to_le_bytes()[..]).expect("4 bytes"),
                seq
            );
        }
        let err = read_resume(&mut &[1u8, 2, 3][..]).expect_err("truncated");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Builds a 2-rank mesh where rank 0 has flushed 3 frames (now in
    /// retention, link seqs 0..3) and still queues 2 unsent ones (seqs 3,
    /// 4); frame `i` carries byte `i`.
    fn retention_fixture() -> Vec<TcpTransport> {
        let policy = ReconnectPolicy::new(
            Duration::from_millis(5),
            Duration::from_millis(50),
            4,
            3,
        );
        let opts = NetOptions::default().with_reconnect(policy);
        let eps = TcpFabric::build_local_with(2, opts);
        for i in 0..3u8 {
            let p = Encoded::new(Shape::new(vec![1]), vec![i].into());
            eps[0].send_tagged(1, 7, p).expect("flushed send");
        }
        for i in 3..5u8 {
            let p = Encoded::new(Shape::new(vec![1]), vec![i].into());
            assert!(eps[0].try_send_tagged(1, 7, p).expect("deferred").is_none());
        }
        {
            let slot = lock(eps[0].writers[1].as_ref().expect("slot"));
            assert_eq!(slot.retained.end(), 3, "flushed frames are retained");
            assert_eq!(slot.retained.suffix(0, 1).expect("all held").count(), 3);
            assert_eq!(slot.queue.len(), 2, "small frames coalesce unsent");
        }
        eps
    }

    /// `(link seq, payload byte)` of every queued frame, as its header
    /// would put it on the wire.
    fn queued(slot: &WriterSlot) -> Vec<(u32, u8)> {
        slot.queue
            .iter()
            .map(|q| {
                let mut bytes = slot.hdrs[q.hdr_start..q.hdr_start + q.hdr_len].to_vec();
                bytes.extend_from_slice(q.enc.payload());
                let (frame, _) = wire::parse_frame(&bytes).expect("valid").expect("whole");
                (frame.seq, frame.enc.payload()[0])
            })
            .collect()
    }

    #[test]
    fn rebuild_resumes_at_the_receivers_delivery_state() {
        // Everything flushed was delivered: retention is acknowledged
        // away and only the unsent frames remain, seqs untouched.
        let eps = retention_fixture();
        let mut slot = lock(eps[0].writers[1].as_ref().expect("slot"));
        eps[0]
            .rebuild_for_delivery(&mut slot, 1, 3)
            .expect("no gap");
        assert_eq!(slot.retained.end(), 3);
        assert_eq!(slot.retained.suffix(3, 1).expect("empty").count(), 0);
        assert_eq!(queued(&slot), [(3, 3), (4, 4)]);
    }

    #[test]
    fn rebuild_retransmits_the_undelivered_suffix_from_retention() {
        // The receiver only got seq 0: seqs 1 and 2 come back out of
        // retention ahead of the unsent frames, original numbering.
        let eps = retention_fixture();
        let mut slot = lock(eps[0].writers[1].as_ref().expect("slot"));
        eps[0]
            .rebuild_for_delivery(&mut slot, 1, 1)
            .expect("retention covers the gap");
        assert_eq!(
            slot.retained.end(),
            1,
            "resent frames are retained again when written"
        );
        assert_eq!(queued(&slot), [(1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(slot.front_written, 0, "front frame resent whole");
    }

    #[test]
    fn rebuild_condemns_when_the_gap_outgrew_retention() {
        // Retention no longer holds seq 1 (pruned): healing would skip
        // a frame the receiver never got — refuse with a typed error.
        let eps = retention_fixture();
        let mut slot = lock(eps[0].writers[1].as_ref().expect("slot"));
        // The same three flushes into a store with room for one frame.
        let mut pruned = Retention::new(1);
        for i in 0..3u8 {
            pruned.push(7, Encoded::new(Shape::new(vec![1]), vec![i].into()), 1);
        }
        slot.retained = pruned;
        let err = eps[0]
            .rebuild_for_delivery(&mut slot, 1, 1)
            .expect_err("gap not covered");
        assert!(matches!(err, CommError::PeerDead { rank: 1 }), "got {err:?}");
    }

    #[test]
    fn rebuild_rejects_contradictory_delivery_state() {
        // A peer claiming more frames than were ever flushed is lying
        // about shared history.
        let eps = retention_fixture();
        let mut slot = lock(eps[0].writers[1].as_ref().expect("slot"));
        assert!(matches!(
            eps[0].rebuild_for_delivery(&mut slot, 1, 99),
            Err(CommError::Corrupted { peer: 1, .. })
        ));
        // Not even the queued frames count: they never reached a socket.
        assert!(matches!(
            eps[0].rebuild_for_delivery(&mut slot, 1, 4),
            Err(CommError::Corrupted { peer: 1, .. })
        ));
    }

    #[test]
    fn a_condemned_peer_cannot_be_resurrected_by_a_late_redial() {
        // Once PeerDead has been decided (and possibly surfaced to the
        // elastic layer), install_link must refuse the fresh socket and
        // leave the verdict in place.
        let policy = ReconnectPolicy::new(
            Duration::from_millis(2),
            Duration::from_millis(10),
            2,
            5,
        );
        let opts = NetOptions::default().with_reconnect(policy);
        let eps = TcpFabric::build_local_with(2, opts);
        {
            let mut d = lock(&eps[0].demux);
            eps[0].condemn(&mut d, 1, CommError::PeerDead { rank: 1 });
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dial = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (late, _) = listener.accept().expect("accept");
        let _ = dial.join().expect("dialer");
        let err = eps[0]
            .install_link(1, late, 0)
            .expect_err("condemned is final");
        assert!(matches!(err, CommError::PeerDead { rank: 1 }), "got {err:?}");
        let d = lock(&eps[0].demux);
        assert!(matches!(d.reconn[1], PeerLink::Down), "verdict stands");
        assert!(d.stash.closed(1).is_some(), "error stays recorded");
    }
}
