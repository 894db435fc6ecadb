//! cgx-net: a real socket fabric for the CGX collectives.
//!
//! Everything below `crates/net` exists so the compression-aware
//! collectives stop being a thread-only simulation: the same
//! [`Transport`](cgx_collectives::Transport) contract the in-process
//! [`ShmTransport`](cgx_collectives::ShmTransport) implements, backed by
//! TCP sockets between real OS processes.
//!
//! - [`wire`] — every byte format on a socket: the length-prefixed
//!   frame and its seq+checksum envelope, the control frames boot and
//!   redial speak, and the retention a reconnect resends from.
//! - [`tcp`] — [`TcpTransport`]: a caller-driven readiness event loop
//!   (nonblocking sockets, `poll(2)`, in-place frame parsing, vectored
//!   coalesced writes) feeding the tag-demuxed, deadline-aware stash
//!   model with zero extra threads.
//! - [`rendezvous`](mod@rendezvous) — bootstrap from "N processes and one address" to a
//!   full mesh plus a node [`Topology`](cgx_collectives::Topology), and
//!   [`TcpFabric`] for in-process loopback meshes.
//! - [`cluster`] — [`ProcessCluster`]: spawn-and-wait of one OS process
//!   per rank, each told its identity through `CGX_RANK`, `CGX_WORLD`,
//!   `CGX_RENDEZVOUS` and `CGX_NODE`, with supervised mode reporting
//!   per-rank deaths.
//! - [`workload`] — the deterministic training workload behind the
//!   `cgx-launch` binary and the Shm/TCP parity test, and the one reader
//!   ([`workload::read`] over [`workload::flags`]) the binaries parse
//!   their flags with.
//! - [`fault`] — socket resets (`ResetPlan`), the [`ReconnectPolicy`]
//!   that redials after one, and [`fault::raise_sigkill`].

#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod rendezvous;
pub mod tcp;
pub mod wire;
pub mod workload;

pub use cluster::{ClusterReport, ProcessCluster, RankExit};
pub use fault::ReconnectPolicy;
pub use rendezvous::{rendezvous, TcpFabric, DEFAULT_BOOT_TIMEOUT};
pub use tcp::{NetOptions, TcpTransport, WireStats};

use cgx_collectives::CommError;

/// A failure to form or re-form the mesh.
fn boot_err(detail: impl Into<String>) -> CommError {
    CommError::Bootstrap {
        detail: detail.into(),
    }
}
