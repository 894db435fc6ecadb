//! The TCP-backed [`Transport`].
//!
//! Same tag-multiplexed, deadline-aware semantics as the in-process
//! [`cgx_collectives::ShmTransport`], over real sockets: one full-mesh
//! TCP connection per peer pair, driven by a readiness event loop instead
//! of threads. The [`Transport`] contract — per-tag FIFO, cross-tag
//! out-of-order delivery, stashed payloads outliving expired deadlines
//! and dead peers — is enforced by the shared conformance suite
//! (`cgx_testkit::conformance`), instantiated for this type in this
//! crate's tests.
//!
//! Design notes:
//!
//! * **One lock, one link per peer.** All of an endpoint's mutable state
//!   sits behind one mutex. Each peer is one `Link`: its socket (one
//!   descriptor, never cloned), its read staging and next-expected link
//!   seq, when it was last heard, its outbound queue with the header
//!   arena, partial-write cursor and `wire::Retention`, and its redial
//!   state. Beside the links sit the tag stash — which also holds a
//!   condemned peer's error, the one record of that verdict — and the
//!   counters. The lock is never held across a `poll(2)` wait and every
//!   socket is nonblocking, so a thread parked, or blocked on a full
//!   socket, never stalls a sibling thread's receive on the same endpoint.
//! * **Caller-driven event loop.** The event loop (`poll(2)` over every
//!   live peer socket, then in-place frame parsing out of per-peer staging
//!   buffers) runs on whichever thread is inside a transport call.
//!   Receives *are* the event loop: [`Transport::park`] sleeps in `poll`
//!   until a socket turns readable (or, with frames queued, writable) and
//!   parses frames directly on the waiting thread. No reader threads and
//!   no handoffs, which is what makes an 8-rank loopback mesh cheap on
//!   small-core hosts.
//! * **Many receivers, one poller.** Of the threads parked on one endpoint
//!   one polls and the others wait on its condvar. No other call reads a
//!   socket meanwhile, so every arrival wakes the poll; whoever stashes or
//!   stops polling wakes the waiters.
//! * **Ring-staged reads.** Each peer has a staging buffer
//!   (`READ_BUF_BYTES`); one `read` syscall pulls an entire burst of
//!   back-to-back frames, which are parsed in place
//!   (`wire::parse_frame`) — header fields are decoded from the
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
//!   coalescer), at [`Transport::flush_outbound`] (the engine calls it
//!   before parking), and on drop; every receive that misses, and every
//!   park, also pushes what the sockets take without waiting. Blocking
//!   sends flush the queue through the new frame in one `writev`, so a
//!   link's frames leave in the order their sequence numbers were assigned.
//! * **One sequence space per link.** Every frame to a peer — any tag,
//!   heartbeats included — carries the next link seq; the demux accepts
//!   exactly the one it expects (TCP delivers in order, so anything else
//!   is a peer-side bug, surfaced as corruption). With reconnect armed,
//!   flushed frames stay in a `wire::Retention` and a redial resumes from
//!   the receiver's one next-expected number.
//! * **Deadlock freedom without readers.** A blocking flush that hits a
//!   full socket drains its own inbound traffic between `POLLOUT` waits
//!   (or leaves it to the poller), and a parked receiver wakes when a
//!   socket with frames queued turns writable, so a cycle of ranks all
//!   mid-send keeps consuming bytes and someone's write always completes.
//! * **Byte-accurate accounting.** Every frame's full serialized size
//!   (length prefix, tag, geometry, checksum envelope, payload) is
//!   counted in [`TcpTransport::wire_bytes_sent`] — the benchmark's
//!   `wire_bytes_per_step` — and [`TcpTransport::wire_stats`] breaks the
//!   wall time into serialize / syscall / park for its `net.tcp.*`
//!   per-layer metrics.

use crate::boot_err;
use crate::fault::{ReconnectPolicy, ResetPlan};
use crate::wire::{self, get_u32, recv_ctrl, send_ctrl, Retention, RETAIN_BYTES};
use crate::wire::{MSG_REDIAL, MSG_RESUME};
use cgx_collectives::transport::{Tag, CTRL_TAG, DEFAULT_TIMEOUT};
use cgx_collectives::{CommError, TagStash, Transport};
use cgx_compress::Encoded;
use cgx_obs::MetricsRegistry;
use cgx_tensor::Shape;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-peer read staging buffer; it grows past this only while a single
/// frame is larger.
pub(crate) const READ_BUF_BYTES: usize = 256 * 1024;
/// Coalescing budget: queued-but-unflushed outbound bytes per peer above
/// which the queue is flushed at once.
const COALESCE_BUDGET_BYTES: usize = 256 * 1024;
/// Largest payload the nonblocking send path defers into the coalescing
/// queue; bigger frames flush right away.
const COALESCE_FRAME_BYTES: usize = 16 * 1024;

/// The failure handling of the TCP wire path: liveness probing and
/// redialing, both off by default. Each is armed per fabric by handing a
/// value to [`rendezvous`](crate::rendezvous()) or
/// [`TcpFabric::build_local_with`](crate::TcpFabric::build_local_with)
/// (`cgx-launch` runs on the default).
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
    pub(crate) heartbeat_interval: Option<Duration>,
    /// Silence deadline: with heartbeats on, a peer not heard from for
    /// this long is declared [`CommError::PeerDead`]. Only enforced when
    /// `heartbeat_interval` is set, and floored at
    /// [`HB_TIMEOUT_FLOOR_INTERVALS`] emission intervals by every
    /// constructor — a deadline at or below the interval would
    /// guarantee false deaths.
    pub(crate) heartbeat_timeout: Duration,
    /// Redial policy for transient socket drops. `None` (the default)
    /// fails fast: any socket error condemns the peer immediately. Armed,
    /// every link keeps its last `RETAIN_BYTES` of flushed frames so
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
pub(crate) const HB_TIMEOUT_FLOOR_INTERVALS: u32 = 3;

impl NetOptions {
    /// Returns `self` with liveness heartbeats every `interval` and a
    /// silence deadline of `timeout`, floored at
    /// `HB_TIMEOUT_FLOOR_INTERVALS` intervals (a deadline at or below
    /// the emission interval would condemn every healthy peer).
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration, timeout: Duration) -> Self {
        self.heartbeat_interval = Some(interval);
        self.heartbeat_timeout = timeout.max(interval * HB_TIMEOUT_FLOOR_INTERVALS);
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

    pub(crate) const POLLIN: i16 = 0x001;
    pub(crate) const POLLOUT: i16 = 0x004;
    pub(crate) const POLLERR: i16 = 0x008;
    pub(crate) const POLLHUP: i16 = 0x010;

    #[repr(C)]
    pub(crate) struct PollFd {
        pub(crate) fd: i32,
        pub events: i16,
        pub(crate) revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long`; `usize` matches its width on every
        // supported unix target.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }

    pub(crate) fn raw_fd(stream: &TcpStream) -> i32 {
        stream.as_raw_fd()
    }

    pub(crate) fn raw_listener_fd(listener: &std::net::TcpListener) -> i32 {
        listener.as_raw_fd()
    }

    /// `poll(2)` retrying `EINTR`. Nonzero sub-millisecond timeouts round
    /// up to 1 ms so they actually sleep; zero stays a nonblocking probe.
    /// Returns how many entries have events.
    pub(crate) fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
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

    pub(crate) const POLLIN: i16 = 0x001;
    pub(crate) const POLLOUT: i16 = 0x004;
    pub(crate) const POLLERR: i16 = 0x008;
    pub(crate) const POLLHUP: i16 = 0x010;

    pub(crate) struct PollFd {
        pub(crate) fd: i32,
        pub events: i16,
        pub(crate) revents: i16,
    }

    pub(crate) fn raw_fd(_stream: &TcpStream) -> i32 {
        0
    }

    pub(crate) fn raw_listener_fd(_listener: &std::net::TcpListener) -> i32 {
        0
    }

    pub(crate) fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
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
    pub(crate) read_syscalls: u64,
    /// `write_vectored` syscalls issued.
    pub(crate) write_syscalls: u64,
    /// `poll` syscalls issued.
    pub(crate) poll_syscalls: u64,
    /// Frames that crossed the wire via vectored writes.
    pub writev_frames: u64,
}

impl WireStats {
    /// All syscalls (read + write + poll).
    pub fn syscalls(&self) -> u64 {
        self.read_syscalls + self.write_syscalls + self.poll_syscalls
    }
}

/// What an endpoint counts: the wire-path cost breakdown, byte and fault
/// totals, and their mirror in an attached metrics registry.
#[derive(Default)]
struct Meter {
    stats: WireStats,
    bytes_out: u64,
    reconnects: u64,
    obs: Option<TcpMetrics>,
}

impl Meter {
    /// A `read` or `write_vectored` that took `took` (its own count is the
    /// caller's to bump).
    fn syscall(&mut self, took: Duration) {
        self.stats.syscall_ns += took.as_nanos() as u64;
        if let Some(m) = &self.obs {
            m.syscalls.inc();
        }
    }

    /// A `poll` that took `took`: parked time when it could wait, syscall
    /// time when it was a probe.
    fn poll(&mut self, took: Duration, could_wait: bool) {
        self.stats.poll_syscalls += 1;
        let ns = took.as_nanos() as u64;
        if could_wait {
            self.stats.park_ns += ns;
        } else {
            self.stats.syscall_ns += ns;
        }
        if let Some(m) = &self.obs {
            m.syscalls.inc();
        }
    }
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

/// One queued outbound frame: header bytes live in the link's arena, the
/// payload is the caller's reference-counted buffer — nothing is
/// concatenated. Tag and payload move on into the link's retention once
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

/// Where a link stands in the reconnect cycle. Condemned is not a state
/// here: that verdict is `stash.closed(peer)`, final for this
/// incarnation — the error may already have driven an elastic-membership
/// decision that a resurrected link would contradict.
#[derive(Clone, Copy)]
enum Redial {
    /// Connected and flowing.
    Up,
    /// The socket dropped but the redial budget is not exhausted. The
    /// dialing side (the rank that dialed this link at bootstrap) redials
    /// per the backoff schedule; the accepting side just waits for the
    /// redial until `give_up`. Outbound frames wait in the queue.
    Pending {
        attempts: u32,
        next_at: Instant,
        give_up: Instant,
    },
}

/// One peer's link: its one socket and both directions' state.
struct Link {
    /// Kept open while the link is condemned or pending, until the
    /// endpoint drops or a redial replaces it: a peer sees EOF only then.
    stream: TcpStream,
    staging: Staging,
    /// Next-expected link seq from the peer: TCP already delivers in
    /// order, so a gap means a peer-side logic error — surfaced as
    /// corruption rather than delivered out of order.
    expected: u32,
    /// When the peer was last heard from (any successful read). Drives
    /// the liveness deadline when heartbeats are enabled.
    last_heard: Instant,
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
    redial: Redial,
}

impl Link {
    fn new(stream: TcpStream, retain: usize, now: Instant) -> Self {
        Link {
            stream,
            staging: Staging::new(),
            expected: 0,
            last_heard: now,
            hdrs: Vec::new(),
            queue: VecDeque::new(),
            queued_bytes: 0,
            front_written: 0,
            retained: Retention::new(retain),
            redial: Redial::Up,
        }
    }

    /// The link seq the next queued frame gets.
    fn next_seq(&self) -> u32 {
        self.retained.end().wrapping_add(self.queue.len() as u32)
    }

    /// Whether a frame below link seq `upto` is still queued (the queue's
    /// front is at `retained.end()`).
    fn owes(&self, upto: u32) -> bool {
        !self.queue.is_empty() && (upto.wrapping_sub(self.retained.end()) as i32) > 0
    }

    /// One vectored write over the front of the queue: `Ok(true)` when
    /// bytes moved, `Ok(false)` when the socket would block. A frame fully
    /// written is only *kernel*-accepted, not delivered: it moves to the
    /// retention, which keeps it (with reconnect armed) until a reconnect
    /// handshake acknowledges it or newer frames push it out.
    fn write_some(&mut self, meter: &mut Meter) -> std::io::Result<bool> {
        // Cap the slices per writev well under IOV_MAX.
        const MAX_FRAMES_PER_WRITE: usize = 64;
        let mut slices: Vec<IoSlice<'_>> =
            Vec::with_capacity(2 * self.queue.len().min(MAX_FRAMES_PER_WRITE));
        let mut skip = self.front_written;
        for qf in self.queue.iter().take(MAX_FRAMES_PER_WRITE) {
            let hdr = &self.hdrs[qf.hdr_start..qf.hdr_start + qf.hdr_len];
            let pay = qf.enc.payload().as_ref();
            for part in [hdr, pay] {
                if skip < part.len() {
                    slices.push(IoSlice::new(&part[skip..]));
                    skip = 0;
                } else {
                    skip -= part.len();
                }
            }
        }
        let n = loop {
            let t0 = Instant::now();
            match (&self.stream).write_vectored(&slices) {
                Ok(n) => {
                    meter.stats.write_syscalls += 1;
                    meter.syscall(t0.elapsed());
                    break n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        self.front_written += n;
        while let Some(front) = self.queue.front() {
            let total = front.wire_len();
            if self.front_written < total {
                break;
            }
            self.front_written -= total;
            self.queued_bytes -= total;
            let sent = self.queue.pop_front().expect("front exists");
            self.retained.push(sent.tag, sent.enc, total);
            meter.stats.writev_frames += 1;
            if let Some(m) = &meter.obs {
                m.writev_frames.inc();
            }
        }
        if self.queue.is_empty() {
            self.hdrs.clear();
        }
        Ok(true)
    }

    /// Parses every complete staged frame, verifying checksum and link
    /// seq, and files the payloads in `stash` (heartbeats end here).
    fn parse_staged(
        &mut self,
        peer: usize,
        stash: &mut TagStash,
        meter: &mut Meter,
        stashed: &mut usize,
    ) -> Result<(), CommError> {
        let t0 = Instant::now();
        let result = loop {
            let (frame, used) = match wire::parse_frame(self.staging.window()) {
                Ok(Some(x)) => x,
                Ok(None) => break Ok(()),
                Err(e) => {
                    break Err(CommError::Corrupted {
                        peer,
                        detail: e.to_string(),
                    })
                }
            };
            let stg = &mut self.staging;
            stg.start += used;
            if stg.start == stg.end {
                stg.start = 0;
                stg.end = 0;
            }
            if frame.seq != self.expected {
                break Err(CommError::Corrupted {
                    peer,
                    detail: format!(
                        "expected link seq {}, got {} (tag {:#x})",
                        self.expected, frame.seq, frame.tag
                    ),
                });
            }
            self.expected = self.expected.wrapping_add(1);
            // Heartbeats are liveness signal only: sequence-checked like
            // any CTRL frame (above), but never stashed — receivers must
            // not observe them as traffic.
            if frame.tag == CTRL_TAG && frame.enc.payload().as_ref() == HB_PAYLOAD {
                continue;
            }
            stash.file(peer, frame.tag, frame.enc);
            *stashed += 1;
        };
        meter.stats.serialize_ns += t0.elapsed().as_nanos() as u64;
        result
    }

    /// Rebuilds the queue from `theirs`, the receiver's next-expected
    /// link seq from the reconnect handshake: the retained suffix from
    /// it, re-headered with its original seqs, goes back on the queue
    /// ahead of the unsent frames, and everything below it is
    /// acknowledged away. The healed link resumes exactly where the
    /// receiver stands.
    ///
    /// # Errors
    ///
    /// As [`Retention::resume`]: a claim beyond what was ever flushed is
    /// [`CommError::Corrupted`], a gap the retention no longer covers is
    /// [`CommError::PeerDead`] — the caller condemns the peer rather than
    /// heal into silently misaligned payloads.
    fn rebuild_for_delivery(&mut self, peer: usize, theirs: u32) -> Result<(), CommError> {
        let resend = self.retained.resume(theirs, peer)?;
        for (i, (tag, enc)) in resend.into_iter().enumerate().rev() {
            let frame = QueuedFrame::new(&mut self.hdrs, tag, theirs.wrapping_add(i as u32), enc);
            self.queued_bytes += frame.wire_len();
            self.queue.push_front(frame);
        }
        self.front_written = 0;
        Ok(())
    }
}

/// Reconnect support: the retained bootstrap listener plus the dialable
/// address of every peer this rank originally dialed (`None` for peers
/// that dial *us* on a drop).
pub(crate) struct Mesh {
    pub(crate) listener: TcpListener,
    pub(crate) addrs: Vec<Option<String>>,
}

/// Deadline of either side's read in the reconnect handshake: the
/// dialer's REDIAL `{rank, next-expected}` and the acceptor's RESUME
/// `{next-expected}`, both control frames. The accepting side reads under
/// the endpoint's lock, so this also bounds how long one malformed or
/// stalled redial can stall the endpoint. Note the handshake is
/// unauthenticated — the mesh listener trusts its network, which for this
/// fabric means the single-run rendezvous scope.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Puts a mesh socket toward `peer` in the mode the event loop drives:
/// nonblocking, Nagle off.
fn configure(stream: &TcpStream, peer: usize) -> Result<(), CommError> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| boot_err(format!("configuring link to rank {peer}: {e}")))
}

/// Heartbeat payload on the CTRL lane (intercepted by the demux, never
/// stashed).
const HB_PAYLOAD: [u8; 1] = [0x48];
/// The mesh listener's entry in a poll set, where peers stand for links.
const LISTENER: usize = usize::MAX;

/// Everything mutable about an endpoint, behind its one lock. The event
/// loop's steps are methods here; only the waits — and the redial's
/// connect — run with the lock released, in [`TcpTransport`]'s methods.
struct Endpoint {
    /// `links[p]` talks to rank `p`; `None` for this rank itself.
    links: Vec<Option<Link>>,
    /// Frames awaiting a receiver and, once a peer is condemned, why (EOF,
    /// I/O error, checksum/sequence mismatch, silence past the deadline,
    /// or a spent redial budget).
    stash: TagStash,
    opts: NetOptions,
    mesh: Option<Mesh>,
    /// The planned socket reset, until it fires.
    reset: Option<ResetPlan>,
    /// When the last heartbeat round went out (endpoint birth before the
    /// first).
    last_heartbeat: Instant,
    meter: Meter,
    /// A thread holds the poller role: it alone reads the sockets.
    poller: bool,
    /// Threads waiting on [`TcpTransport`]'s condvar for the poller.
    parked: usize,
}

impl Endpoint {
    fn link(&mut self, peer: usize) -> &mut Link {
        self.links[peer].as_mut().expect("every peer has a link")
    }

    /// `peer`'s redial state, or `None` once it is condemned.
    fn redial(&self, peer: usize) -> Option<Redial> {
        match (&self.links[peer], self.stash.closed(peer)) {
            (Some(link), None) => Some(link.redial),
            _ => None,
        }
    }

    fn live(&self, peer: usize) -> bool {
        matches!(self.redial(peer), Some(Redial::Up))
    }

    fn parked(&self, peer: usize) -> bool {
        matches!(self.redial(peer), Some(Redial::Pending { .. }))
    }

    /// Serializes a frame header into `peer`'s arena and queues the
    /// `(header, payload)` pair; returns its link seq. Accounting happens
    /// here: the frame is committed to the wire from the caller's point
    /// of view.
    fn enqueue(&mut self, peer: usize, tag: Tag, payload: Encoded) -> u32 {
        let t0 = Instant::now();
        let payload_bytes = payload.payload_bytes() as u64;
        let link = self.link(peer);
        let seq = link.next_seq();
        let frame = QueuedFrame::new(&mut link.hdrs, tag, seq, payload);
        let wire_len = frame.wire_len() as u64;
        link.queued_bytes += frame.wire_len();
        link.queue.push_back(frame);
        let m = &mut self.meter;
        m.bytes_out += wire_len;
        m.stats.serialize_ns += t0.elapsed().as_nanos() as u64;
        if let Some(o) = &m.obs {
            o.msgs_sent.inc();
            o.bytes_sent.add(payload_bytes);
            o.wire_bytes_sent.add(wire_len);
        }
        seq
    }

    /// Socket-level drop injection: once the planned number of frames has
    /// been enqueued toward the planned peer, shut its socket down under
    /// the wire path's feet — exactly what a mid-run RST or cable pull
    /// looks like to the rest of the stack. One-shot.
    fn inject_reset(&mut self, peer: usize) {
        let Some(plan) = self.reset.as_mut().filter(|p| p.peer == peer) else {
            return;
        };
        if plan.after_frames > 1 {
            plan.after_frames -= 1;
            return;
        }
        self.reset = None;
        let _ = self.link(peer).stream.shutdown(Shutdown::Both);
    }

    /// Writes `peer`'s queue until it drains or the socket would block,
    /// never waiting. A socket error fails the link: the frames park for
    /// the redial when one is armed, or are dropped with
    /// [`CommError::PeerDead`].
    fn push(&mut self, peer: usize) -> Result<(), CommError> {
        loop {
            if self.parked(peer) {
                return Ok(());
            }
            let link = self.links[peer].as_mut().expect("every peer has a link");
            if link.queue.is_empty() {
                return Ok(());
            }
            match link.write_some(&mut self.meter) {
                Ok(true) => {}
                Ok(false) => return Ok(()),
                Err(_) => return self.fail_writer(peer),
            }
        }
    }

    /// [`Self::push`] on every link; a failure stays with its link, for
    /// that peer's next send or receive to surface.
    fn push_all(&mut self) {
        for peer in 0..self.links.len() {
            if self.links[peer].is_some() {
                let _ = self.push(peer);
            }
        }
    }

    /// A write error: the socket is gone. With a reconnect policy armed
    /// the queued frames keep their sequence numbers and park until the
    /// link heals (the link's sequence space survives a socket swap); only
    /// the partial-write cursor resets, so the front frame is resent whole.
    /// Without one the queue is discarded and the peer condemned as
    /// [`CommError::PeerDead`].
    fn fail_writer(&mut self, peer: usize) -> Result<(), CommError> {
        self.fail_link(peer, CommError::PeerDead { rank: peer });
        let parked = self.parked(peer);
        let link = self.link(peer);
        link.front_written = 0;
        if parked {
            return Ok(());
        }
        link.queue.clear();
        link.hdrs.clear();
        link.queued_bytes = 0;
        Err(CommError::PeerDead { rank: peer })
    }

    /// Routes a detected link failure: transient classes enter the
    /// reconnect state machine when one is armed, everything else (and
    /// every failure past the budget) condemns the peer.
    fn fail_link(&mut self, peer: usize, err: CommError) {
        if self.stash.closed(peer).is_some() {
            return;
        }
        // Corruption (checksum/sequence damage) is not healed by a
        // redial: the stream itself is lying. Everything socket-shaped
        // is worth one backoff schedule.
        let transient = !matches!(err, CommError::Corrupted { .. });
        let policy = self
            .opts
            .reconnect
            .filter(|_| transient && self.mesh.is_some());
        if let Some(policy) = policy {
            let link = self.link(peer);
            if matches!(link.redial, Redial::Up) {
                let now = Instant::now();
                link.redial = Redial::Pending {
                    attempts: 0,
                    next_at: now,
                    // The accepting side has no dial schedule to
                    // exhaust; it waits out the dialer's whole budget
                    // plus slack for the dials themselves.
                    give_up: now + policy.budget() + 2 * policy.cap,
                };
            }
            return;
        }
        self.condemn(peer, err);
    }

    /// Marks `peer` permanently gone: records the error (the first one
    /// wins) and bumps `transport.peer_dead`. Its socket stays open.
    fn condemn(&mut self, peer: usize, err: CommError) {
        if self.stash.closed(peer).is_none() && matches!(err, CommError::PeerDead { .. }) {
            if let Some(m) = &self.meter.obs {
                m.peer_dead.inc();
            }
        }
        self.stash.close(peer, err);
    }

    /// Drains `peer`'s socket, when its link is live, into its staging
    /// buffer and parses every complete frame; returns the frames stashed.
    fn read_peer(&mut self, peer: usize) -> usize {
        if !self.live(peer) {
            return 0;
        }
        let link = self.links[peer].as_mut().expect("live links exist");
        let (stash, meter) = (&mut self.stash, &mut self.meter);
        let mut stashed = 0;
        let failed = loop {
            link.staging.ensure_space();
            let stg = &mut link.staging;
            let t0 = Instant::now();
            let res = link.stream.read(&mut stg.buf[stg.end..]);
            meter.stats.read_syscalls += 1;
            meter.syscall(t0.elapsed());
            match res {
                Ok(0) => {
                    // Clean EOF on a frame boundary is an orderly
                    // shutdown (the peer dropped its endpoint); EOF with
                    // a partial frame staged means the process died
                    // mid-write.
                    break Some(if stg.start == stg.end {
                        CommError::Disconnected { peer }
                    } else {
                        CommError::PeerDead { rank: peer }
                    });
                }
                Ok(n) => {
                    let space = stg.buf.len() - stg.end;
                    stg.end += n;
                    link.last_heard = Instant::now();
                    if let Err(e) = link.parse_staged(peer, stash, meter, &mut stashed) {
                        break Some(e);
                    }
                    // A short read means the kernel buffer is (almost
                    // certainly) drained; a full one means more awaits.
                    if n < space {
                        break None;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // ECONNRESET and friends: the peer's process is gone (or
                // its host is), not merely done sending.
                Err(_) => break Some(CommError::PeerDead { rank: peer }),
            }
        };
        if let Some(err) = failed {
            self.fail_link(peer, err);
        }
        stashed
    }

    /// Emits one heartbeat round on the CTRL lane when the interval has
    /// elapsed. Never waits: a full socket leaves the frame queued for
    /// the next flush.
    fn emit_heartbeats(&mut self) {
        let Some(interval) = self.opts.heartbeat_interval else {
            return;
        };
        if self.last_heartbeat.elapsed() < interval {
            return;
        }
        self.last_heartbeat = Instant::now();
        for peer in 0..self.links.len() {
            if !self.live(peer) {
                continue;
            }
            let hb = Encoded::new(
                Shape::new(vec![1]),
                cgx_tensor::Bytes::copy_from_slice(&HB_PAYLOAD),
            );
            self.enqueue(peer, CTRL_TAG, hb);
            if let Some(m) = &self.meter.obs {
                m.heartbeats.inc();
            }
            let _ = self.push(peer);
        }
    }

    /// Condemns any live peer silent past the heartbeat deadline. A frozen
    /// process keeps its sockets open, so this is the only way it is
    /// ever detected. No-op unless heartbeats are enabled.
    fn check_liveness(&mut self) {
        if self.opts.heartbeat_interval.is_none() {
            return;
        }
        for peer in 0..self.links.len() {
            let silent = self.links[peer]
                .as_ref()
                .is_some_and(|l| l.last_heard.elapsed() > self.opts.heartbeat_timeout);
            if silent && self.live(peer) {
                self.condemn(peer, CommError::PeerDead { rank: peer });
            }
        }
    }

    /// Advances the reconnect state machine: condemns links past their
    /// budget and returns every due redial toward a peer this rank
    /// originally dialed, as `(peer, address, our next-expected seq)`.
    /// Each one returned is marked in flight (next attempt at `give_up`),
    /// so one thread dials it. Our next-expected seq holds until the
    /// install: a pending link is never read.
    fn due_redials(&mut self) -> Vec<(usize, String, u32)> {
        let (Some(mesh), Some(policy)) = (&self.mesh, self.opts.reconnect) else {
            return Vec::new();
        };
        let now = Instant::now();
        let (mut dials, mut spent) = (Vec::new(), Vec::new());
        for (peer, link) in self.links.iter_mut().enumerate() {
            let Some(link) = link.as_mut().filter(|_| self.stash.closed(peer).is_none()) else {
                continue;
            };
            let Redial::Pending {
                attempts,
                next_at,
                give_up,
            } = &mut link.redial
            else {
                continue;
            };
            if now >= *give_up || *attempts >= policy.max_attempts {
                spent.push(peer);
            } else if now >= *next_at {
                if let Some(addr) = &mesh.addrs[peer] {
                    *next_at = *give_up;
                    dials.push((peer, addr.clone(), link.expected));
                }
            }
        }
        for peer in spent {
            self.condemn(peer, CommError::PeerDead { rank: peer });
        }
        dials
    }

    /// A redial toward `peer` failed: advance its backoff schedule, and
    /// condemn it once the schedule is exhausted.
    fn back_off(&mut self, peer: usize) {
        let Some(policy) = self.opts.reconnect else {
            return;
        };
        if !self.parked(peer) {
            return;
        }
        let Redial::Pending {
            attempts, next_at, ..
        } = &mut self.link(peer).redial
        else {
            return;
        };
        *attempts += 1;
        if *attempts < policy.max_attempts {
            *next_at = Instant::now() + policy.delay(*attempts);
        } else {
            self.condemn(peer, CommError::PeerDead { rank: peer });
        }
    }

    /// Drains the mesh listener, answering every redial on it.
    fn mesh_accept(&mut self) {
        while let Some(Ok((stream, _))) = self.mesh.as_ref().map(|m| m.listener.accept()) {
            let _ = self.accept_redial(stream);
        }
    }

    /// One connection on the mesh listener: it must open with a REDIAL
    /// naming a valid, un-condemned peer and the dialer's next-expected
    /// link seq; we answer with a RESUME carrying ours and then replace the
    /// peer's link. Anything else is dropped.
    fn accept_redial(&mut self, stream: TcpStream) -> Option<()> {
        // Sockets accepted from a nonblocking listener inherit O_NONBLOCK
        // on some platforms (macOS/BSD); force blocking mode so the
        // deadline — not an instant WouldBlock — governs the handshake.
        stream.set_nonblocking(false).ok()?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let body = recv_ctrl(&stream, MSG_REDIAL, "REDIAL", deadline).ok()?;
        let mut at = 1;
        let peer = get_u32(&body, &mut at).ok()? as usize;
        let theirs = get_u32(&body, &mut at).ok()?;
        // Once condemned, the verdict is final: the error may already
        // have been surfaced and acted on. Refuse the redial.
        if self.links.get(peer)?.is_none() || self.stash.closed(peer).is_some() {
            return None;
        }
        // Drain whatever the old socket still holds before declaring our
        // next-expected seq.
        self.read_peer(peer);
        if self.stash.closed(peer).is_some() {
            return None;
        }
        let mut resume = vec![MSG_RESUME];
        resume.extend_from_slice(&self.link(peer).expected.to_le_bytes());
        send_ctrl(&mut &stream, &resume).ok()?;
        self.install_link(peer, stream, theirs).ok()
    }

    /// Replaces `peer`'s socket with a fresh one (either side of a
    /// reconnect). The link's sequence space survives the swap: the
    /// receive side keeps its next-expected seq (only partial staging
    /// from the old socket is discarded), and the queue is rebuilt from
    /// `theirs` — the peer's next-expected seq from the handshake —
    /// retransmitting the flushed-but-undelivered suffix from retention
    /// ([`Link::rebuild_for_delivery`]). Stashed frames from the old
    /// connection stay deliverable. A condemned peer is refused, and a
    /// gap retention cannot cover condemns here rather than heal into
    /// misaligned payloads.
    fn install_link(
        &mut self,
        peer: usize,
        stream: TcpStream,
        theirs: u32,
    ) -> Result<(), CommError> {
        if self.stash.closed(peer).is_some() {
            return Err(CommError::PeerDead { rank: peer });
        }
        configure(&stream, peer)?;
        let link = self.link(peer);
        if let Err(e) = link.rebuild_for_delivery(peer, theirs) {
            self.condemn(peer, e.clone());
            return Err(e);
        }
        link.stream = stream;
        // Partial staging from the old socket is discarded; the sender
        // retransmits that frame whole. The next-expected seq is *kept* —
        // the handshake advertised it, and the rebuilt queue resumes
        // exactly there.
        link.staging.start = 0;
        link.staging.end = 0;
        link.redial = Redial::Up;
        link.last_heard = Instant::now();
        self.meter.reconnects += 1;
        if let Some(m) = &self.meter.obs {
            m.reconnects.inc();
        }
        // Push what was parked during the outage — the peer is likely
        // waiting on it; leftovers go out on the next flush.
        let _ = self.push(peer);
        Ok(())
    }

    /// The `poll(2)` set: every live link — readable, and writable too
    /// while it has frames queued — and the mesh listener, beside the
    /// peer each entry stands for ([`LISTENER`] for the listener).
    fn poll_set(&self) -> (Vec<usize>, Vec<sys::PollFd>) {
        let mut peers = Vec::with_capacity(self.links.len());
        let mut fds = Vec::with_capacity(self.links.len());
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link.as_ref().filter(|_| self.live(peer)) else {
                continue;
            };
            let out = if link.queue.is_empty() {
                0
            } else {
                sys::POLLOUT
            };
            peers.push(peer);
            fds.push(sys::PollFd {
                fd: sys::raw_fd(&link.stream),
                events: sys::POLLIN | out,
                revents: 0,
            });
        }
        if let Some(mesh) = &self.mesh {
            peers.push(LISTENER);
            fds.push(sys::PollFd {
                fd: sys::raw_listener_fd(&mesh.listener),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        (peers, fds)
    }
}

/// A rank's endpoint into a TCP full mesh. Built by
/// [`crate::rendezvous::rendezvous`] (multi-process) or
/// [`crate::rendezvous::TcpFabric::build_local`] (in-process loopback).
pub struct TcpTransport {
    rank: usize,
    world: usize,
    timeout: Duration,
    ep: Mutex<Endpoint>,
    /// Signalled when the poller stashes or gives its role up.
    arrived: Condvar,
}

type Guard<'a> = MutexGuard<'a, Endpoint>;

/// How long one park may block, in `poll` or on the condvar: waiting is
/// cheap, and a wake-up that goes astray stalls a deadline no longer.
const PARK_SLICE: Duration = Duration::from_millis(50);

impl TcpTransport {
    /// Assembles an endpoint from connected per-peer streams
    /// (`streams[p]` talks to rank `p`; the self entry must be `None`),
    /// switching every socket to nonblocking readiness-driven I/O. With
    /// [`NetOptions::reconnect`] set it keeps the rendezvous's `mesh`:
    /// the listener, for redials from peers that originally dialed us,
    /// and the dialable address of every peer we originally dialed.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] if a stream or the listener cannot be
    /// configured (nonblocking, `TCP_NODELAY`).
    ///
    /// # Panics
    ///
    /// Panics if the self entry is not `None` or a peer entry is missing.
    pub(crate) fn new(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        mesh: Option<Mesh>,
        opts: NetOptions,
    ) -> Result<Self, CommError> {
        let world = streams.len();
        assert!(streams[rank].is_none(), "self entry must be empty");
        let mesh = mesh.filter(|_| opts.reconnect.is_some());
        if let Some(m) = &mesh {
            m.listener
                .set_nonblocking(true)
                .map_err(|e| boot_err(format!("nonblocking mesh listener: {e}")))?;
        }
        let retain = if opts.reconnect.is_some() {
            RETAIN_BYTES
        } else {
            0
        };
        let now = Instant::now();
        let mut links = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                assert_eq!(peer, rank, "missing stream for peer {peer}");
                links.push(None);
                continue;
            };
            configure(&stream, peer)?;
            links.push(Some(Link::new(stream, retain, now)));
        }
        Ok(TcpTransport {
            rank,
            world,
            timeout: DEFAULT_TIMEOUT,
            ep: Mutex::new(Endpoint {
                links,
                stash: TagStash::new(world),
                opts,
                mesh,
                reset: None,
                last_heartbeat: now,
                meter: Meter::default(),
                poller: false,
                parked: 0,
            }),
            arrived: Condvar::new(),
        })
    }

    /// The endpoint's state. State mutations are small pushes and pops:
    /// a poisoned lock is recovered rather than cascading a panic across
    /// the mesh.
    fn lock(&self) -> Guard<'_> {
        self.ep.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The endpoint's state while it is not yet shared.
    fn state(&mut self) -> &mut Endpoint {
        self.ep.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Overrides the receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Enables message accounting into `registry`, mirroring
    /// [`cgx_collectives::ShmTransport::set_obs`] (`transport.*`
    /// counters) plus `transport.wire_bytes_sent` for the full on-wire
    /// size including framing overhead, `transport.writev_frames` for
    /// frames moved by vectored writes, and `transport.syscalls` for
    /// every read/write/poll issued by the wire path.
    pub fn set_obs(&mut self, registry: &MetricsRegistry) {
        use cgx_obs::names;
        self.state().meter.obs = Some(TcpMetrics {
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

    /// Links this endpoint has successfully re-established after a drop.
    pub fn reconnects(&self) -> u64 {
        self.lock().meter.reconnects
    }

    /// Total serialized bytes this endpoint has committed to its sockets,
    /// including all framing overhead.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.lock().meter.bytes_out
    }

    /// Snapshot of the wire-path cost breakdown.
    pub fn wire_stats(&self) -> WireStats {
        self.lock().meter.stats
    }

    /// Lets the endpoint go, first waking the parked threads if anything
    /// arrived since `seen`.
    fn release(&self, ep: Guard<'_>, seen: u64) {
        let wake = ep.parked > 0 && ep.stash.arrivals() != seen;
        drop(ep);
        if wake {
            self.arrived.notify_all();
        }
    }

    // ---- the event loop -------------------------------------------------

    /// One turn of the event loop by the thread that has just taken the
    /// poller role in `ep`: wait up to `timeout` (zero: not at all) for
    /// readable peer sockets, and writable ones with frames queued, parse
    /// every burst, then give the role up. Returns the frames stashed.
    fn turn<'a>(&'a self, mut ep: Guard<'a>, timeout: Duration) -> usize {
        ep.emit_heartbeats();
        let redials = ep.due_redials();
        if !redials.is_empty() {
            drop(ep);
            for (peer, addr, mine) in redials {
                self.redial(peer, &addr, mine);
            }
            ep = self.lock();
        }
        let (peers, mut fds) = ep.poll_set();
        drop(ep);
        // Poll with the lock released, so a sibling thread on this
        // endpoint can still send and receive while we park.
        let t0 = Instant::now();
        let ready = sys::poll_wait(&mut fds, timeout).unwrap_or(0);
        let took = t0.elapsed();
        let mut ep = self.lock();
        ep.meter.poll(took, !timeout.is_zero());
        let mut stashed = 0;
        let mut accept_ready = false;
        for (&peer, fd) in peers.iter().zip(&fds).filter(|_| ready > 0) {
            if fd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                if peer == LISTENER {
                    accept_ready = true;
                } else {
                    stashed += ep.read_peer(peer);
                }
            }
            if peer != LISTENER && fd.revents & sys::POLLOUT != 0 {
                let _ = ep.push(peer);
            }
        }
        ep.check_liveness();
        if accept_ready {
            ep.mesh_accept();
        }
        // Giving the role up wakes every parked thread: one of them may
        // have its frame now, and another polls next.
        ep.poller = false;
        let wake = ep.parked > 0;
        drop(ep);
        if wake {
            self.arrived.notify_all();
        }
        stashed
    }

    /// A nonblocking [`Self::turn`] if no thread holds the poller role.
    /// While one does, it reads the sockets itself, and this caller only
    /// pushes writes, emits heartbeats and checks liveness.
    fn drain(&self) -> usize {
        let mut ep = self.lock();
        let seen = ep.stash.arrivals();
        ep.push_all();
        if !ep.poller {
            ep.poller = true;
            return self.turn(ep, Duration::ZERO);
        }
        ep.emit_heartbeats();
        ep.check_liveness();
        self.release(ep, seen);
        0
    }

    /// One redial attempt toward `peer`: connect, send a REDIAL carrying
    /// `mine`, our next-expected link seq, read the acceptor's RESUME, and
    /// install the fresh link. The connect and handshake run with the
    /// lock released. Failures advance the backoff schedule; exhausting
    /// it condemns the peer.
    fn redial(&self, peer: usize, addr: &str, mine: u32) {
        let dialed = TcpStream::connect(addr)
            .map_err(|e| boot_err(format!("redialing rank {peer}: {e}")))
            .and_then(|mut s| {
                let mut redial = vec![MSG_REDIAL];
                redial.extend_from_slice(&(self.rank as u32).to_le_bytes());
                redial.extend_from_slice(&mine.to_le_bytes());
                send_ctrl(&mut s, &redial)?;
                // A wedged acceptor just advances the backoff.
                let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
                let resume = recv_ctrl(&s, MSG_RESUME, "RESUME", deadline)?;
                Ok((s, get_u32(&resume, &mut 1)?))
            });
        let mut ep = self.lock();
        let installed = dialed.is_ok_and(|(s, theirs)| ep.install_link(peer, s, theirs).is_ok());
        if !installed {
            ep.back_off(peer);
        }
    }

    // ---- the write path -------------------------------------------------

    /// Queues one frame toward `peer` and, when `block` is set, the frame
    /// is large or the queue is over its budget, flushes the queue
    /// through it. The one send path: blocking and nonblocking sends
    /// differ only in whether a small frame may wait in the queue.
    fn send(&self, peer: usize, tag: Tag, payload: Encoded, block: bool) -> Result<(), CommError> {
        assert!(peer < self.world && peer != self.rank, "bad peer {peer}");
        // Small frames coalesce until the budget overflows (mirroring the
        // engine's coalescer); large ones go out now — kernel socket
        // buffers absorb collective-sized frames, so the blocking flush is
        // the nonblocking path's slow lane, not a deadlock (the flush
        // drains inbound while it waits).
        let flush = block || payload.payload_bytes() > COALESCE_FRAME_BYTES;
        let mut ep = self.lock();
        // Send-side emission too, not just the turn's: a rank that only
        // sends for a while must still prove itself alive to peers it is
        // not currently sending to.
        ep.emit_heartbeats();
        let seq = ep.enqueue(peer, tag, payload);
        ep.inject_reset(peer);
        let (ep, r) = if flush || ep.link(peer).queued_bytes >= COALESCE_BUDGET_BYTES {
            self.flush(ep, peer, seq.wrapping_add(1))
        } else {
            (ep, Ok(()))
        };
        let heal = r.is_ok() && ep.mesh.is_some() && ep.parked(peer);
        drop(ep);
        if heal {
            // The frame parked behind a reconnect: drive the redial now,
            // so a pure sender still heals its own links.
            self.drain();
        }
        r
    }

    /// Writes `peer`'s queue through link seq `upto` (exclusive), handling
    /// partial writes by cursor and a full socket by waiting for
    /// `POLLOUT` with the lock released — draining our own inbound
    /// between waits, so a mesh of mutually-blocked senders cannot
    /// deadlock. A link mid-reconnect keeps its frames for the redial.
    /// Bounded: a socket that stays full past the endpoint timeout
    /// surfaces [`CommError::Timeout`] instead of parking forever on a
    /// peer that stopped reading.
    fn flush<'a>(
        &'a self,
        mut ep: Guard<'a>,
        peer: usize,
        upto: u32,
    ) -> (Guard<'a>, Result<(), CommError>) {
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Err(e) = ep.push(peer) {
                return (ep, Err(e));
            }
            if !ep.link(peer).owes(upto) || ep.parked(peer) {
                return (ep, Ok(()));
            }
            if Instant::now() >= deadline {
                let err = CommError::Timeout {
                    from: peer,
                    waited: self.timeout,
                    in_flight: 0,
                };
                return (ep, Err(err));
            }
            let fd = sys::raw_fd(&ep.link(peer).stream);
            drop(ep);
            // Socket full: drain our own inbound (the peer may be blocked
            // sending to us), then wait for writability.
            self.drain();
            let mut pfd = [sys::PollFd {
                fd,
                events: sys::POLLOUT,
                revents: 0,
            }];
            let t0 = Instant::now();
            let _ = sys::poll_wait(&mut pfd, Duration::from_millis(2));
            let took = t0.elapsed();
            ep = self.lock();
            ep.meter.poll(took, true);
        }
    }

    /// Flushes every link's queue through what it holds now.
    fn flush_all<'a>(&'a self, mut ep: Guard<'a>) -> (Guard<'a>, Result<(), CommError>) {
        let mut first_err = None;
        for peer in 0..self.world {
            let Some(link) = ep.links[peer].as_ref().filter(|l| !l.queue.is_empty()) else {
                continue;
            };
            let upto = link.next_seq();
            let r;
            (ep, r) = self.flush(ep, peer, upto);
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        (ep, first_err.map_or(Ok(()), Err))
    }
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
        self.send(peer, tag, payload, true)
    }

    fn try_send_tagged(
        &self,
        peer: usize,
        tag: Tag,
        payload: Encoded,
    ) -> Result<Option<Encoded>, CommError> {
        self.send(peer, tag, payload, false).map(|()| None)
    }

    fn try_recv_tagged(&self, peer: usize, tag: Tag) -> Result<Option<Encoded>, CommError> {
        assert!(peer < self.world && peer != self.rank, "bad peer {peer}");
        let mut ep = self.lock();
        let seen = ep.stash.arrivals();
        let mut got = ep.stash.receive(peer, tag);
        // Only a miss pushes queued sends: pushing on every receive cuts
        // coalesced bursts short (DESIGN.md §10.4).
        if matches!(got, Ok(None)) {
            ep.push_all();
            // Targeted probe: the frame usually already sits in this
            // peer's kernel buffer, and one nonblocking read on that
            // socket is cheaper than a full poll-all turn. Misses are left
            // to `park`, whose turn drains everyone.
            if !ep.poller {
                ep.read_peer(peer);
                got = ep.stash.receive(peer, tag);
            }
        }
        if let (Ok(Some(payload)), Some(m)) = (&got, &ep.meter.obs) {
            m.msgs_recv.inc();
            m.bytes_recv.add(payload.payload_bytes() as u64);
        }
        self.release(ep, seen);
        got
    }

    fn drain_inbound(&self) -> usize {
        self.drain()
    }

    fn flush_outbound(&self) -> Result<(), CommError> {
        self.flush_all(self.lock()).1
    }

    fn arrivals(&self) -> u64 {
        self.lock().stash.arrivals()
    }

    /// Heartbeats, liveness checks and redials run only inside calls: a
    /// heartbeat interval, and with reconnect armed at most a
    /// `PARK_SLICE`, so a dropped link is redialed while its owners
    /// compute.
    fn drive_within(&self) -> Option<Duration> {
        let opts = self.lock().opts;
        let redial = opts.reconnect.map(|_| PARK_SLICE);
        opts.heartbeat_interval.into_iter().chain(redial).min()
    }

    /// As the poller, one turn of the event loop: parked in `poll(2)`
    /// until a socket turns readable, then parsing what it holds on this
    /// thread. While another thread polls, a wait on the condvar instead.
    fn park(&self, seen: u64, timeout: Duration) {
        let mut ep = self.lock();
        ep.push_all();
        if ep.stash.arrivals() != seen {
            return;
        }
        let slice = timeout.min(PARK_SLICE);
        if !ep.poller {
            ep.poller = true;
            self.turn(ep, slice);
            return;
        }
        ep.parked += 1;
        let (mut ep, _) = self
            .arrived
            .wait_timeout(ep, slice)
            .unwrap_or_else(PoisonError::into_inner);
        ep.parked -= 1;
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Flush any coalesced frames (best effort), then shut the
        // sockets down so every peer's event loop observes EOF. No
        // threads to reap: the event loop dies with its callers.
        let (ep, _) = self.flush_all(self.lock());
        for link in ep.links.iter().flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("timeout", &self.timeout)
            .field("wire_bytes_out", &self.wire_bytes_sent())
            .finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// Arms a socket reset, if `plan` names `t`'s rank. Must be called
    /// before the endpoint is shared.
    pub(crate) fn set_reset(t: &mut TcpTransport, plan: ResetPlan) {
        let rank = t.rank;
        t.state().reset = Some(plan).filter(|r| r.rank == rank);
    }
    use crate::rendezvous::TcpFabric;
    use cgx_collectives::{Membership, MembershipView};
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
        let payload = Encoded::new(Shape::new(vec![8]), vec![3u8; 32].into());
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
        assert!(
            matches!(err, CommError::Disconnected { peer: 0 }),
            "got {err:?}"
        );
    }

    #[test]
    fn mesh_sockets_have_nodelay_set() {
        let eps = TcpFabric::build_local(2);
        for ep in &eps {
            let state = ep.lock();
            let link = state.links.iter().flatten().next().expect("a mesh socket");
            let nodelay = link.stream.nodelay().expect("nodelay");
            assert!(nodelay, "rank {} socket is Nagle-delayed", ep.rank());
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
            let p = Encoded::new(Shape::new(vec![4]), vec![i as u8; 4].into());
            assert!(a.try_send_tagged(1, 77, p).expect("try_send").is_none());
        }
        a.flush_outbound().expect("flush");
        for i in 0..10u32 {
            let got = b.recv_tagged(0, 77).expect("recv");
            assert_eq!(got.payload().as_ref(), &[i as u8; 4]);
        }
    }

    #[test]
    fn a_heartbeat_deadline_is_floored_at_three_intervals() {
        // A deadline at or below the interval guarantees false deaths.
        let built = NetOptions::default()
            .with_heartbeat(Duration::from_millis(50), Duration::from_millis(50));
        assert_eq!(built.heartbeat_timeout, Duration::from_millis(150));
    }

    /// An endpoint asks to be called into as often as its heartbeats go
    /// out, and with reconnect armed at least every park slice; with
    /// neither it needs no caller. A membership view over it asks the same.
    #[test]
    fn drive_within_is_the_heartbeat_interval_capped_by_reconnect() {
        let drive = |opts: NetOptions| TcpFabric::build_local_with(2, opts)[0].drive_within();
        let ms = Duration::from_millis;
        let policy = ReconnectPolicy::new(ms(5), ms(100), 8, 7);
        assert_eq!(drive(NetOptions::default()), None);
        let beats = NetOptions::default().with_heartbeat(ms(5), ms(15));
        assert_eq!(drive(beats), Some(ms(5)));
        let beating = TcpFabric::build_local_with(2, beats);
        let view = MembershipView::new(&beating[0], &Membership::full(2));
        assert_eq!(view.drive_within(), Some(ms(5)), "the view hides it");
        assert_eq!(
            drive(NetOptions {
                reconnect: Some(policy),
                ..beats
            }),
            Some(ms(5))
        );
        let slow_beats = NetOptions::default().with_heartbeat(ms(500), ms(1500));
        assert_eq!(
            drive(NetOptions {
                reconnect: Some(policy),
                ..slow_beats
            }),
            Some(PARK_SLICE)
        );
        let redials = NetOptions {
            reconnect: Some(policy),
            ..Default::default()
        };
        assert_eq!(drive(redials), Some(PARK_SLICE));
    }

    #[test]
    fn heartbeats_flow_and_detect_a_frozen_peer() {
        // 2 ranks with aggressive liveness settings. Rank 1 "freezes":
        // it never pumps, so it stops emitting heartbeats, and rank 0
        // must condemn it as PeerDead within the deadline — even though
        // the socket stays open (the case plain EOF detection misses) —
        // and not before it, or a live peer could be condemned early.
        let deadline = Duration::from_millis(150);
        let opts = NetOptions::default().with_heartbeat(Duration::from_millis(20), deadline);
        let mut eps = TcpFabric::build_local_with(2, opts);
        let frozen = eps.pop().expect("rank 1");
        let mut a = eps.pop().expect("rank 0");
        let registry = MetricsRegistry::new();
        a.set_obs(&registry);
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
        assert!(
            t0.elapsed() >= deadline.mul_f64(0.9),
            "detection took {:?}, before the 150ms deadline",
            t0.elapsed()
        );
        let snap = registry.snapshot();
        let heartbeats = snap.get("transport.heartbeats").unwrap_or(0);
        assert!(heartbeats > 0, "rank 0 emitted heartbeats");
        assert_eq!(snap.get("transport.peer_dead"), Some(1));
        drop(frozen);
    }

    #[test]
    fn heartbeats_are_invisible_to_receivers() {
        // With heartbeats far faster than the traffic, real payloads
        // must still arrive unperturbed and in order.
        let opts =
            NetOptions::default().with_heartbeat(Duration::from_millis(5), Duration::from_secs(5));
        let eps = TcpFabric::build_local_with(2, opts);
        std::thread::scope(|s| {
            let mut it = eps.into_iter();
            let a = it.next().expect("rank 0");
            let b = it.next().expect("rank 1");
            s.spawn(move || {
                for i in 0..20u8 {
                    std::thread::sleep(Duration::from_millis(2));
                    let p = Encoded::new(Shape::new(vec![1]), vec![i].into());
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
        let policy =
            ReconnectPolicy::new(Duration::from_millis(5), Duration::from_millis(100), 8, 7);
        let opts = NetOptions {
            reconnect: Some(policy),
            ..Default::default()
        };
        let mut eps = crate::rendezvous::TcpFabric::build_local_with(2, opts);
        let mut b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        set_reset(
            &mut b,
            ResetPlan {
                rank: 1,
                peer: 0,
                after_frames: 3,
            },
        );
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..10u8 {
                    let p = Encoded::new(Shape::new(vec![1]), vec![i].into());
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
        let policy =
            ReconnectPolicy::new(Duration::from_millis(2), Duration::from_millis(10), 3, 11);
        let opts = NetOptions {
            reconnect: Some(policy),
            ..Default::default()
        };
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

    /// Builds a 2-rank mesh where rank 0 has flushed 3 frames (now in
    /// retention, link seqs 0..3) and still queues 2 unsent ones (seqs 3,
    /// 4); frame `i` carries byte `i`.
    fn retention_fixture() -> Vec<TcpTransport> {
        let policy =
            ReconnectPolicy::new(Duration::from_millis(5), Duration::from_millis(50), 4, 3);
        let opts = NetOptions {
            reconnect: Some(policy),
            ..Default::default()
        };
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
            let mut ep = eps[0].lock();
            let link = ep.link(1);
            assert_eq!(link.retained.end(), 3, "flushed frames are retained");
            assert_eq!(link.retained.held(), 3);
            assert_eq!(link.queue.len(), 2, "small frames coalesce unsent");
        }
        eps
    }

    /// `(link seq, payload byte)` of every queued frame, as its header
    /// would put it on the wire.
    fn queued(link: &Link) -> Vec<(u32, u8)> {
        link.queue
            .iter()
            .map(|q| {
                let mut bytes = link.hdrs[q.hdr_start..q.hdr_start + q.hdr_len].to_vec();
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
        let mut ep = eps[0].lock();
        let link = ep.link(1);
        link.rebuild_for_delivery(1, 3).expect("no gap");
        assert_eq!(link.retained.end(), 3);
        assert_eq!(link.retained.held(), 0);
        assert_eq!(queued(link), [(3, 3), (4, 4)]);
    }

    #[test]
    fn rebuild_retransmits_the_undelivered_suffix_from_retention() {
        // The receiver only got seq 0: seqs 1 and 2 come back out of
        // retention ahead of the unsent frames, original numbering.
        let eps = retention_fixture();
        let mut ep = eps[0].lock();
        let link = ep.link(1);
        link.rebuild_for_delivery(1, 1)
            .expect("retention covers the gap");
        assert_eq!(
            link.retained.end(),
            1,
            "resent frames are retained again when written"
        );
        assert_eq!(queued(link), [(1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(link.front_written, 0, "front frame resent whole");
    }

    #[test]
    fn rebuild_condemns_when_the_gap_outgrew_retention() {
        // Retention no longer holds seq 1 (pruned): healing would skip
        // a frame the receiver never got — refuse with a typed error.
        let eps = retention_fixture();
        let mut ep = eps[0].lock();
        let link = ep.link(1);
        // The same three flushes into a store with room for one frame.
        let mut pruned = Retention::new(1);
        for i in 0..3u8 {
            pruned.push(7, Encoded::new(Shape::new(vec![1]), vec![i].into()), 1);
        }
        link.retained = pruned;
        let err = link
            .rebuild_for_delivery(1, 1)
            .expect_err("gap not covered");
        assert!(
            matches!(err, CommError::PeerDead { rank: 1 }),
            "got {err:?}"
        );
    }

    #[test]
    fn rebuild_rejects_contradictory_delivery_state() {
        // A peer claiming more frames than were ever flushed is lying
        // about shared history.
        let eps = retention_fixture();
        let mut ep = eps[0].lock();
        let link = ep.link(1);
        assert!(matches!(
            link.rebuild_for_delivery(1, 99),
            Err(CommError::Corrupted { peer: 1, .. })
        ));
        // Not even the queued frames count: they never reached a socket.
        assert!(matches!(
            link.rebuild_for_delivery(1, 4),
            Err(CommError::Corrupted { peer: 1, .. })
        ));
    }

    #[test]
    fn a_condemned_peer_cannot_be_resurrected_by_a_late_redial() {
        // Once PeerDead has been decided (and possibly surfaced to the
        // elastic layer), install_link must refuse the fresh socket and
        // leave the verdict in place.
        let policy =
            ReconnectPolicy::new(Duration::from_millis(2), Duration::from_millis(10), 2, 5);
        let opts = NetOptions {
            reconnect: Some(policy),
            ..Default::default()
        };
        let eps = TcpFabric::build_local_with(2, opts);
        let mut ep = eps[0].lock();
        ep.condemn(1, CommError::PeerDead { rank: 1 });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let late = || {
            let dial = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
            let (late, _) = listener.accept().expect("accept");
            let _ = dial.join().expect("dialer");
            late
        };
        let err = ep
            .install_link(1, late(), 0)
            .expect_err("condemned is final");
        assert!(
            matches!(err, CommError::PeerDead { rank: 1 }),
            "got {err:?}"
        );
        assert_eq!(
            ep.stash.closed(1),
            Some(&CommError::PeerDead { rank: 1 }),
            "verdict stands"
        );
        assert!(ep.stash.closed(1).is_some(), "error stays recorded");
        assert!(!ep.live(1) && !ep.parked(1));
        assert!(ep.install_link(1, late(), 0).is_err(), "and stays final");
    }

    #[test]
    fn a_sender_blocked_on_a_full_socket_does_not_stall_a_receive_on_the_same_endpoint() {
        // Serve's shape: two threads share rank 0's endpoint. S blocks on
        // a 64 MiB frame that rank 1 leaves unread for 300 ms; meanwhile R
        // receives a small frame rank 1 sent on another tag.
        const BIG: Tag = 1;
        const SMALL: Tag = 2;
        let len = 64 << 20;
        let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let big = Encoded::new(Shape::new(vec![len]), bytes.into());
        let small = Encoded::new(Shape::new(vec![4]), vec![7u8; 4].into());
        let expect = big.clone();
        let mut eps = TcpFabric::build_local(2);
        let b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        b.send_tagged(0, SMALL, small).expect("small frame");
        // Counted at enqueue, which S does under the lock it then keeps
        // until the socket is full: nonzero means S is waiting.
        let s_waits = || {
            while a.wire_bytes_sent() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| a.send_tagged(1, BIG, big).expect("big frame"));
            s.spawn(|| {
                s_waits();
                let t0 = Instant::now();
                let got = a.recv_tagged(1, SMALL).expect("small frame");
                let took = t0.elapsed();
                assert_eq!(got.payload().as_ref(), &[7u8; 4]);
                assert!(
                    took < Duration::from_millis(100),
                    "the receive waited {took:?} behind the blocked sender"
                );
            });
            s_waits();
            std::thread::sleep(Duration::from_millis(300));
            let got = b.recv_tagged(0, BIG).expect("big frame");
            assert!(got.payload() == expect.payload());
        });
        let (big_wire, small_wire) = (wire::frame_wire_bytes(1, len), wire::frame_wire_bytes(1, 4));
        assert_eq!(a.wire_bytes_sent(), big_wire as u64);
        assert_eq!(b.wire_bytes_sent(), small_wire as u64);
    }

    /// Frames one byte short of the read buffer, exactly it, one byte over
    /// and far beyond (1 MiB, split across many reads and growing the
    /// buffer), each between small frames on other tags: every tag's frames
    /// arrive in order with their bytes intact, and the sender counts every
    /// frame's wire bytes.
    #[test]
    fn frames_around_and_beyond_the_read_window_arrive_whole_and_counted() {
        const BIG: u64 = 1;
        const BEFORE: u64 = 2;
        const AFTER: u64 = 3;
        let frame = |len: usize, salt: usize| {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + salt) as u8).collect();
            Encoded::new(Shape::vector(len), bytes.into())
        };
        let overhead = wire::frame_wire_bytes(1, 0);
        let sizes = [
            READ_BUF_BYTES - overhead - 1,
            READ_BUF_BYTES - overhead,
            READ_BUF_BYTES - overhead + 1,
            1 << 20,
        ];
        let mut ends = TcpFabric::build_local(2);
        let to = ends.pop().expect("rank 1");
        let from = ends.pop().expect("rank 0");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (k, &len) in sizes.iter().enumerate() {
                    from.send_tagged(1, BEFORE, frame(5, k))
                        .expect("small frame ahead");
                    from.send_tagged(1, BIG, frame(len, k))
                        .expect("large frame");
                    from.send_tagged(1, AFTER, frame(9, k))
                        .expect("small frame behind");
                }
            });
            // One lane at a time, so the other two lanes' frames are
            // stashed around the large ones and claimed afterwards.
            let lanes = [(BIG, None), (BEFORE, Some(5)), (AFTER, Some(9))];
            for (tag, small) in lanes {
                for (k, &len) in sizes.iter().enumerate() {
                    let got = to.recv_tagged(0, tag).expect("frame arrives");
                    let want = frame(small.unwrap_or(len), k);
                    assert_eq!(got.shape(), want.shape(), "tag {tag} frame {k}");
                    assert!(got.payload() == want.payload(), "tag {tag} frame {k}");
                }
            }
        });
        let wire: usize = sizes
            .iter()
            .map(|&len| wire::frame_wire_bytes(1, len))
            .sum();
        let wire = (wire
            + sizes.len() * (wire::frame_wire_bytes(1, 5) + wire::frame_wire_bytes(1, 9)))
            as u64;
        assert_eq!(from.wire_bytes_sent(), wire);
    }

    /// A link reset heals: rank 1's socket toward rank 0 is shut down
    /// partway through an engine run, the reconnect path redials and
    /// resends the retained suffix, and every rank's results equal the
    /// shared-memory run's byte for byte.
    mod socket_reset {
        use super::*;
        use cgx_collectives::reduce::Algorithm;
        use cgx_collectives::transport::exchange_quiesce_markers;
        use cgx_collectives::{CommEngine, EngineOptions, ThreadCluster};
        use cgx_compress::{CompressionScheme, ScratchPool};
        use cgx_tensor::{Rng, Tensor};

        const WORLD: usize = 4;
        const LAYERS: usize = 12;
        /// Rank 1's frames toward rank 0 before its socket is shut down: it sends
        /// 21 over the run (the engine's 20, then the teardown marker), so the
        /// reset lands partway through the layers.
        const RESET_AFTER: u64 = 8;

        /// Twelve layers of odd lengths, cycling through four schemes: two lossy
        /// quantizers, the lossless path and a sparsifier.
        fn layer_specs() -> Vec<(usize, CompressionScheme)> {
            let schemes = [
                CompressionScheme::Qsgd {
                    bits: 4,
                    bucket_size: 128,
                },
                CompressionScheme::None,
                CompressionScheme::Nuqsgd {
                    bits: 4,
                    bucket_size: 64,
                },
                CompressionScheme::TopK { ratio: 0.25 },
            ];
            let mut lens = Rng::seed_from_u64(0xC4A0);
            (0..LAYERS)
                .map(|i| {
                    let len = (lens.next_u64() % 3000 + 16) as usize | 1;
                    (len, schemes[i % schemes.len()])
                })
                .collect()
        }

        fn rank_grads(specs: &[(usize, CompressionScheme)], rank: usize) -> Vec<Tensor> {
            let mut rng = Rng::seed_from_u64(0xD1CE + rank as u64 * 31);
            specs
                .iter()
                .map(|(len, _)| Tensor::randn(&mut rng, &[*len]))
                .collect()
        }

        /// Reduces every layer through one SRA engine on `t`, then runs the
        /// teardown barrier; returns the rank's results.
        fn reduce_layers(t: &dyn Transport) -> Vec<Tensor> {
            let specs = layer_specs();
            let grads = rank_grads(&specs, t.rank());
            let mut master = Rng::seed_from_u64(0xAB5);
            let mut eng = CommEngine::new(t, ScratchPool::new(), EngineOptions::default());
            let handles: Vec<_> = grads
                .iter()
                .zip(&specs)
                .map(|(g, (_, scheme))| {
                    eng.submit(
                        Algorithm::ScatterReduceAllgather,
                        g,
                        scheme.build(),
                        &mut master,
                    )
                })
                .collect();
            let results = handles
                .into_iter()
                .map(|h| eng.wait(h).expect("layer reduces").0)
                .collect();
            drop(eng);
            let all: Vec<usize> = (0..t.world()).collect();
            exchange_quiesce_markers(t, &all);
            results
        }

        #[test]
        fn engine_results_are_byte_identical_to_shm_across_a_socket_reset() {
            let reference = ThreadCluster::run(WORLD, |t| reduce_layers(&t)).expect("shm run");
            let policy =
                ReconnectPolicy::new(Duration::from_millis(5), Duration::from_millis(100), 8, 7);
            let opts = NetOptions {
                reconnect: Some(policy),
                ..Default::default()
            };
            let mut eps = TcpFabric::build_local_with(WORLD, opts);
            set_reset(
                &mut eps[1],
                ResetPlan {
                    rank: 1,
                    peer: 0,
                    after_frames: RESET_AFTER,
                },
            );
            let runs: Vec<(Vec<Tensor>, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = eps
                    .into_iter()
                    .map(|t| s.spawn(move || (reduce_layers(&t), t.reconnects())))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rank panicked"))
                    .collect()
            });
            for (rank, (got, _)) in runs.iter().enumerate() {
                assert_eq!(got.len(), LAYERS, "rank {rank}");
                for (i, (a, b)) in got.iter().zip(&reference[rank]).enumerate() {
                    assert_eq!(
                        a.as_slice(),
                        b.as_slice(),
                        "rank {rank} layer {i} differs from the shm run"
                    );
                }
            }
            let (healed, redialed) = (runs[0].1, runs[1].1);
            assert!(
                healed >= 1 && redialed >= 1,
                "the reset was not healed by a reconnect: rank 0 {healed}, rank 1 {redialed}"
            );
        }
    }
}
