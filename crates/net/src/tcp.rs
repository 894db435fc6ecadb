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
//!   seq, when it was last heard, and its outbound queue with the header
//!   arena, partial-write cursor and next link seq. Beside the links sit
//!   the tag stash — which also holds a condemned peer's error, the one
//!   record of that verdict — and the counters. The lock is never held
//!   across a `poll(2)` wait and every socket is nonblocking, so a thread
//!   parked, or blocked on a full socket, never stalls a sibling thread's
//!   receive on the same endpoint.
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
//!   is a peer-side bug, surfaced as corruption).
//! * **One failure path per link.** EOF, a socket error, a bad checksum or
//!   seq, and silence past the heartbeat deadline each condemn the peer
//!   for good with a typed [`CommError`]; nothing is retained or redialed.
//!   Frames already stashed from it are still delivered first, and the
//!   elastic layer shrinks the membership around it.
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
use crate::wire;
use cgx_collectives::transport::{Tag, CTRL_TAG, DEFAULT_TIMEOUT};
use cgx_collectives::{CommError, TagStash, Transport};
use cgx_compress::Encoded;
use cgx_obs::MetricsRegistry;
use cgx_tensor::Shape;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
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

/// Liveness probing on the TCP wire path, off by default: heartbeats on
/// the CTRL lane and a silence deadline, the one way a frozen peer (its
/// sockets still open) is detected. Armed per fabric by handing a value to
/// [`rendezvous`](crate::rendezvous()) or
/// [`TcpFabric::build_local_with`](crate::TcpFabric::build_local_with)
/// (`cgx-launch` runs on the default). Every other failure is detected
/// on the socket itself and condemns the peer at once.
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
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            heartbeat_interval: None,
            heartbeat_timeout: Duration::from_secs(1),
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

/// What an endpoint counts: the wire-path cost breakdown, the byte total,
/// and their mirror in an attached metrics registry.
#[derive(Default)]
struct Meter {
    stats: WireStats,
    bytes_out: u64,
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
/// concatenated.
struct QueuedFrame {
    hdr_start: usize,
    hdr_len: usize,
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
            enc,
        }
    }

    fn wire_len(&self) -> usize {
        self.hdr_len + self.enc.payload_bytes()
    }
}

/// One peer's link: its one socket and both directions' state.
struct Link {
    /// Kept open while the link is condemned, until the endpoint drops: a
    /// peer sees EOF only then.
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
    /// Frames not yet fully written, the last at link seq `next_seq - 1`.
    queue: VecDeque<QueuedFrame>,
    queued_bytes: usize,
    /// Bytes of the front frame already written (partial-write cursor).
    front_written: usize,
    /// The link seq the next queued frame gets (wrapping).
    next_seq: u32,
}

impl Link {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Link {
            stream,
            staging: Staging::new(),
            expected: 0,
            last_heard: now,
            hdrs: Vec::new(),
            queue: VecDeque::new(),
            queued_bytes: 0,
            front_written: 0,
            next_seq: 0,
        }
    }

    /// Whether a frame below link seq `upto` is still queued.
    fn owes(&self, upto: u32) -> bool {
        let front = self.next_seq.wrapping_sub(self.queue.len() as u32);
        !self.queue.is_empty() && (upto.wrapping_sub(front) as i32) > 0
    }

    /// One vectored write over the front of the queue: `Ok(true)` when
    /// bytes moved, `Ok(false)` when the socket would block.
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
            self.queue.pop_front();
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
}

/// Puts a mesh socket toward `peer` in the mode the event loop drives:
/// nonblocking, and Nagle off — collective frames are latency-sensitive
/// and already batched into single vectored writes.
fn configure(stream: &TcpStream, peer: usize) -> Result<(), CommError> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| boot_err(format!("configuring link to rank {peer}: {e}")))
}

/// Heartbeat payload on the CTRL lane (intercepted by the demux, never
/// stashed).
const HB_PAYLOAD: [u8; 1] = [0x48];

/// Everything mutable about an endpoint, behind its one lock. The event
/// loop's steps are methods here; only the waits run with the lock
/// released, in [`TcpTransport`]'s methods.
struct Endpoint {
    /// `links[p]` talks to rank `p`; `None` for this rank itself.
    links: Vec<Option<Link>>,
    /// Frames awaiting a receiver and, once a peer is condemned, why (EOF,
    /// I/O error, checksum/sequence mismatch, or silence past the
    /// deadline).
    stash: TagStash,
    opts: NetOptions,
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

    /// Whether `peer` has a link and is not condemned.
    fn live(&self, peer: usize) -> bool {
        self.links[peer].is_some() && self.stash.closed(peer).is_none()
    }

    /// Serializes a frame header into `peer`'s arena and queues the
    /// `(header, payload)` pair; returns its link seq. Accounting happens
    /// here: the frame is committed to the wire from the caller's point
    /// of view.
    fn enqueue(&mut self, peer: usize, tag: Tag, payload: Encoded) -> u32 {
        let t0 = Instant::now();
        let payload_bytes = payload.payload_bytes() as u64;
        let link = self.link(peer);
        let seq = link.next_seq;
        link.next_seq = seq.wrapping_add(1);
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

    /// Writes `peer`'s queue until it drains or the socket would block,
    /// never waiting. A socket error condemns the peer as
    /// [`CommError::PeerDead`] and drops the queued frames.
    fn push(&mut self, peer: usize) -> Result<(), CommError> {
        loop {
            let link = self.links[peer].as_mut().expect("every peer has a link");
            if link.queue.is_empty() {
                return Ok(());
            }
            match link.write_some(&mut self.meter) {
                Ok(true) => {}
                Ok(false) => return Ok(()),
                Err(_) => {
                    link.queue.clear();
                    link.hdrs.clear();
                    link.queued_bytes = 0;
                    link.front_written = 0;
                    self.condemn(peer, CommError::PeerDead { rank: peer });
                    return Err(CommError::PeerDead { rank: peer });
                }
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
            self.condemn(peer, err);
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

    /// The `poll(2)` set: every live link — readable, and writable too
    /// while it has frames queued — beside the peer each entry stands for.
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
    /// switching every socket to nonblocking readiness-driven I/O.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] if a stream cannot be configured
    /// (nonblocking, `TCP_NODELAY`).
    ///
    /// # Panics
    ///
    /// Panics if the self entry is not `None` or a peer entry is missing.
    pub(crate) fn new(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        opts: NetOptions,
    ) -> Result<Self, CommError> {
        let world = streams.len();
        assert!(streams[rank].is_none(), "self entry must be empty");
        let now = Instant::now();
        let mut links = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                assert_eq!(peer, rank, "missing stream for peer {peer}");
                links.push(None);
                continue;
            };
            configure(&stream, peer)?;
            links.push(Some(Link::new(stream, now)));
        }
        Ok(TcpTransport {
            rank,
            world,
            timeout: DEFAULT_TIMEOUT,
            ep: Mutex::new(Endpoint {
                links,
                stash: TagStash::new(world),
                opts,
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
            heartbeats: registry.counter(names::TRANSPORT_HEARTBEATS),
        });
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
        for (&peer, fd) in peers.iter().zip(&fds).filter(|_| ready > 0) {
            if fd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                stashed += ep.read_peer(peer);
            }
            if fd.revents & sys::POLLOUT != 0 {
                let _ = ep.push(peer);
            }
        }
        ep.check_liveness();
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
        if flush || ep.link(peer).queued_bytes >= COALESCE_BUDGET_BYTES {
            self.flush(ep, peer, seq.wrapping_add(1)).1
        } else {
            Ok(())
        }
    }

    /// Writes `peer`'s queue through link seq `upto` (exclusive), handling
    /// partial writes by cursor and a full socket by waiting for
    /// `POLLOUT` with the lock released — draining our own inbound
    /// between waits, so a mesh of mutually-blocked senders cannot
    /// deadlock. Bounded: a socket that stays full past the endpoint timeout
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
            if !ep.link(peer).owes(upto) {
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

    /// Flushes every link's queue through what it holds now. A peer
    /// condemned as [`CommError::PeerDead`] fails the flush with nothing
    /// queued too: a socket error that condemned it dropped what was.
    fn flush_all<'a>(&'a self, mut ep: Guard<'a>) -> (Guard<'a>, Result<(), CommError>) {
        let mut first_err = None;
        for peer in 0..self.world {
            let Some(link) = ep.links[peer].as_ref() else {
                continue;
            };
            if link.queue.is_empty() {
                if let Some(dead @ CommError::PeerDead { .. }) = ep.stash.closed(peer) {
                    first_err.get_or_insert_with(|| dead.clone());
                }
                continue;
            }
            let upto = link.next_seq;
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

    /// Heartbeats and liveness checks run only inside calls: once a
    /// heartbeat interval.
    fn drive_within(&self) -> Option<Duration> {
        self.lock().opts.heartbeat_interval
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
    fn link_seqs_wrap_around() {
        // Seqs MAX-1, MAX, 0, 1, the middle two larger than the socket
        // buffers, so each blocking send waits for its frame through the
        // wrap; every frame is accepted in order.
        let mut eps = TcpFabric::build_local(2);
        eps[0].state().link(1).next_seq = u32::MAX - 1;
        eps[1].state().link(0).expected = u32::MAX - 1;
        eps[1].set_timeout(Duration::from_secs(10));
        let lens = [1, 8 << 20, 8 << 20, 1];
        let frame = |i: usize| {
            let bytes = vec![i as u8; lens[i]];
            Encoded::new(Shape::new(vec![lens[i]]), bytes.into())
        };
        {
            // The first frame waits in the queue at seq MAX-1: it is owed
            // below every seq after it, across the wrap too.
            let mut ep = eps[0].lock();
            ep.enqueue(1, 3, frame(0));
            let link = ep.link(1);
            assert!(link.owes(u32::MAX) && link.owes(0) && link.owes(1));
            assert!(!link.owes(u32::MAX - 1), "nothing is owed below it");
        }
        std::thread::scope(|s| {
            let (a, b) = (&eps[0], &eps[1]);
            s.spawn(move || {
                for i in 1..lens.len() {
                    a.send_tagged(1, 3, frame(i)).expect("send");
                }
            });
            for i in 0..lens.len() {
                let got = b.recv_tagged(0, 3).expect("recv");
                assert!(got.payload() == frame(i).payload(), "frame {i}");
            }
        });
        assert_eq!(eps[0].lock().link(1).next_seq, 2);
    }

    #[test]
    fn a_heartbeat_deadline_is_floored_at_three_intervals() {
        // A deadline at or below the interval guarantees false deaths.
        let built = NetOptions::default()
            .with_heartbeat(Duration::from_millis(50), Duration::from_millis(50));
        assert_eq!(built.heartbeat_timeout, Duration::from_millis(150));
    }

    /// An endpoint asks to be called into as often as its heartbeats go
    /// out; without them it needs no caller. A membership view over it
    /// asks the same.
    #[test]
    fn drive_within_is_the_heartbeat_interval() {
        let ms = Duration::from_millis;
        assert_eq!(TcpFabric::build_local(2)[0].drive_within(), None);
        let beats = NetOptions::default().with_heartbeat(ms(5), ms(15));
        let beating = TcpFabric::build_local_with(2, beats);
        assert_eq!(beating[0].drive_within(), Some(ms(5)));
        let view = MembershipView::new(&beating[0], &Membership::full(2));
        assert_eq!(view.drive_within(), Some(ms(5)), "the view hides it");
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

    /// Shuts `t`'s socket toward `peer` down under the wire path: what a
    /// mid-run reset or a pulled cable looks like to the rest of the stack.
    fn shut_link(t: &TcpTransport, peer: usize) {
        let _ = t.lock().link(peer).stream.shutdown(Shutdown::Both);
    }

    #[test]
    fn a_socket_reset_fails_both_ends_fast_after_the_stashed_frames() {
        // Rank 0 flushes four frames, which rank 1 stashes unread, and
        // queues two more; then rank 0's socket toward rank 1 is shut
        // down. Nothing is redialed: each end surfaces a typed error
        // inside the endpoint timeout, the queued frames are dropped, and
        // rank 1, though it has seen the EOF, still delivers the four it
        // holds before its error.
        const TAG: Tag = 21;
        let timeout = Duration::from_secs(2);
        let mut eps = TcpFabric::build_local(2);
        for ep in &mut eps {
            ep.set_timeout(timeout);
        }
        let b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        let frame = |i: u8| Encoded::new(Shape::new(vec![1]), vec![i].into());
        for i in 0..4 {
            a.send_tagged(1, TAG, frame(i)).expect("flushed send");
        }
        for i in 4..6 {
            assert!(a
                .try_send_tagged(1, TAG, frame(i))
                .expect("queued")
                .is_none());
        }
        let t0 = Instant::now();
        while b.arrivals() < 4 {
            assert!(t0.elapsed() < timeout, "rank 1 never stashed the frames");
            b.park(b.arrivals(), Duration::from_millis(10));
        }
        shut_link(&a, 1);
        // Rank 1 sees the EOF (a close counts as an arrival) before it
        // receives anything.
        let t0 = Instant::now();
        while b.arrivals() < 5 {
            assert!(t0.elapsed() < timeout, "rank 1 never saw the reset");
            b.park(b.arrivals(), Duration::from_millis(10));
        }
        let typed = |r: Result<(), CommError>, what: &str| {
            let e = r.expect_err(what);
            let dead = matches!(
                e,
                CommError::PeerDead { .. } | CommError::Disconnected { .. }
            );
            assert!(dead, "{what}: {e:?}");
        };
        let t0 = Instant::now();
        typed(a.flush_outbound(), "rank 0 flushes its queue");
        typed(a.recv_tagged(1, TAG).map(drop), "rank 0 receives");
        typed(a.send_tagged(1, TAG, frame(6)).map(drop), "rank 0 sends");
        for i in 0..4 {
            let got = b.recv_tagged(0, TAG).expect("a stashed frame");
            assert_eq!(got.payload().as_ref(), &[i]);
        }
        typed(b.recv_tagged(0, TAG).map(drop), "rank 1 receives past them");
        assert!(t0.elapsed() < timeout, "failing took {:?}", t0.elapsed());
    }

    #[test]
    fn a_flush_after_a_dropped_frame_fails_with_its_peer() {
        // A frame is queued; the link is cut; a receive that misses pushes
        // the queue, meets the write error and drops the frame. The flush
        // after it has nothing queued, and still owes the caller the loss.
        let mut eps = TcpFabric::build_local(2);
        let _b = eps.pop().expect("rank 1");
        let a = eps.pop().expect("rank 0");
        let frame = Encoded::new(Shape::new(vec![1]), vec![7u8].into());
        assert!(a.try_send_tagged(1, 5, frame).expect("queued").is_none());
        shut_link(&a, 1);
        let _ = a.try_recv_tagged(1, 5);
        assert!(a.lock().link(1).queue.is_empty(), "the frame was dropped");
        assert_eq!(a.flush_outbound(), Err(CommError::PeerDead { rank: 1 }));
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
}
