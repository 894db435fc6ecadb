#![warn(missing_docs)]
//! Threaded shared-memory collective communication with compressed,
//! non-associative reductions.
//!
//! This is the *functional plane* of the CGX reproduction: where
//! `cgx_simnet` models how long communication takes, this crate actually
//! performs it. N worker threads stand in for N GPUs and exchange real
//! compressed payloads through an in-process shared-memory fabric — the
//! same mechanism as the paper's SHM backend (UNIX shared memory between
//! processes), collapsed into one address space.
//!
//! It provides:
//!
//! * [`ShmFabric`] / [`ShmTransport`] — the rendezvous transport, and the
//!   [`Transport`] contract every fabric implements,
//! * [`TagStash`] — the one per-(peer, tag) stash behind every fabric's
//!   receive side,
//! * [`ThreadCluster`] — spawn-and-join harness with panic containment,
//! * [`engine`] — the one allreduce production code runs: the
//!   layer-parallel communication engine, nonblocking submit/wait over
//!   tag-multiplexed channels, a chunk-pipelined SRA machine, and
//!   small-layer packing (paper Section 4), parameterized by any
//!   [`cgx_compress::Compressor`],
//! * [`reduce`] — the sequential reference the engine's SRA is held to
//!   bit for bit: Scatter-Reduce-Allgather, Ring, Tree and
//!   Allgather-broadcast written straight down, faithfully reproducing
//!   where each scheme re-quantizes (the compression-error differences of
//!   paper Figure 10); the engine runs the last three at submit, and every
//!   chunk either receives passes one check ([`reduce`]'s `check_chunk`),
//! * [`membership`] — membership-epoch agreement and the shrunken-world
//!   [`membership::MembershipView`] behind elastic recovery,
//! * [`hierarchy`] — the node [`Topology`] and the two raw intra-node
//!   hops staged around an engine round between node leaders.
//!
//! The executable [`Transport`] contract every fabric is held to is the
//! dev-only `cgx-testkit` crate's `conformance` battery.
//!
//! # Examples
//!
//! ```
//! use cgx_collectives::{reduce::Algorithm, CommEngine, ThreadCluster};
//! use cgx_compress::{NoneCompressor, ScratchPool};
//! use cgx_tensor::{Rng, Tensor};
//!
//! let results = ThreadCluster::run(4, |t| {
//!     let mut rng = Rng::seed_from_u64(t.rank() as u64);
//!     let grad = Tensor::full(&[32], t.rank() as f32);
//!     let mut engine = CommEngine::with_defaults(&t, ScratchPool::new());
//!     let sra = Algorithm::ScatterReduceAllgather;
//!     let c = Box::new(NoneCompressor::new());
//!     engine.allreduce(sra, &grad, c, &mut rng).unwrap().0
//! })
//! .unwrap();
//! // 0 + 1 + 2 + 3 = 6 everywhere.
//! for r in &results {
//!     assert_eq!(r.as_slice()[0], 6.0);
//! }
//! ```

pub mod cluster;
pub mod engine;
pub mod error;
pub mod hierarchy;
pub mod membership;
pub mod reduce;
pub mod stash;
pub mod transport;

pub use cluster::ThreadCluster;
pub use engine::{lane_epoch, CommEngine, EngineOptions, Handle};
pub use error::CommError;
pub use hierarchy::Topology;
pub use membership::{agree, Membership, MembershipView};
pub use reduce::{allreduce_scratch, AllreduceStats};
pub use stash::TagStash;
pub use transport::{namespace_tag, ShmFabric, ShmTransport, Transport, MAX_TENANT_NS};
