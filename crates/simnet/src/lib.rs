#![warn(missing_docs)]
//! Discrete-event performance simulator of multi-GPU machines.
//!
//! The CGX paper's throughput results are produced on real 8-GPU servers;
//! this crate is the substitute substrate: an α-β cost model of the same
//! machines (Table 2), its constants set to the paper's published
//! bandwidths, their interconnect topologies (Figure 8), the reduction
//! schemes of Section 3, and a step simulator that overlaps per-layer
//! gradient communication with the backward pass. The step simulator does
//! not model the real communication engine's 65,536-element segment cut,
//! its packing of small layers or its cap of eight live collectives
//! (`MAX_LIVE`): each message it is given, a layer or a fused bucket, is
//! one collective, never cut and never queued behind a cap.
//!
//! Layering:
//!
//! * `hardware` — GPU spec sheets and single-GPU throughput envelopes
//!   (Table 1);
//! * [`topology`] — device graphs, p2p bandwidth matrices, ring contention
//!   analysis (Figure 8 and the "1 GB/s Allreduce on a 16 GB/s bus" effect);
//! * [`machine`] — the calibrated evaluation systems (Table 2, Table 4
//!   cloud instances, the Table 5 cluster);
//! * [`backend`] — SHM / NCCL / MPI transport profiles (Figure 11);
//! * `collective` ([`allreduce_time`], [`ReductionScheme`]) — α-β cost of
//!   SRA / Ring / Tree / Allgather reductions (Figure 10);
//! * [`des`] — a first-principles discrete-event network simulation that
//!   cross-validates the closed forms (lane contention, dependency stalls);
//! * [`step`] — the per-step overlap simulator behind Figures 1 and 3 and
//!   Tables 4-8.
//!
//! # Examples
//!
//! ```
//! use cgx_simnet::{
//!     ComputeProfile, LayerMsg, MachineSpec, StepConfig, simulate_step,
//! };
//!
//! // 25M-parameter model, fp32 wire, on the 8x RTX 3090 box.
//! let layers = vec![LayerMsg::new("all", 25_000_000, 100_000_000, 0.0)];
//! let cfg = StepConfig::nccl_baseline(MachineSpec::rtx3090());
//! let r = simulate_step(&cfg, &layers, ComputeProfile::new(0.0376));
//! assert!(r.scaling_efficiency() < 0.5); // the paper's bandwidth wall
//! ```

pub mod backend;
pub(crate) mod collective;
pub mod des;
pub(crate) mod hardware;
pub mod machine;
pub mod memory;
pub mod schedule;
pub mod step;
pub mod topology;

pub use backend::CommBackend;
pub use collective::{allreduce_time, CommCost, ReductionScheme};
pub use des::{
    build_hierarchical, build_ring, build_sra, build_tree, run, DesScratch, Fabric, NetworkDes,
    OpGraph, RunStats, SimError, SimWorkspace,
};
pub use hardware::{GpuModel, GpuSpec};
pub use machine::MachineSpec;
pub use memory::{max_batch, training_memory_mb, OptimizerKind};
pub use schedule::{cross_barrier_step, simulate_step_ordered, MessageOrder};
pub use step::{
    fuse_messages, simulate_step, simulate_step_traced, ComputeProfile, Lane, LayerMsg, StepConfig,
    StepReport, SyncMode, TraceEvent, TransportQuality,
};
pub use topology::{Link, LinkKind, Topology};
