#![warn(missing_docs)]
//! # CGX (Rust reproduction)
//!
//! A from-scratch reproduction of *"Project CGX: Algorithmic and System
//! Support for Scalable Deep Learning on a Budget"* (MIDDLEWARE 2022):
//! communication-compressed data-parallel training that removes the
//! bandwidth bottleneck of commodity multi-GPU servers, plus the paper's
//! *adaptive layer-wise compression* algorithm.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tensor`] — dense tensors, deterministic RNG, math kernels;
//! * [`compress`] — QSGD / TopK / PowerSGD / 1-bit compressors with
//!   bit-exact wire formats;
//! * [`collectives`] — real threaded shared-memory collectives carrying
//!   compressed payloads: one communication engine (SRA, Ring, Tree,
//!   Allgather) and its sequential reference;
//! * [`models`] — the six evaluation models' layer inventories and
//!   synthetic gradient sources;
//! * [`engine`] — an NN training substrate with compressed data-parallel
//!   SGD (the accuracy-recovery experiments);
//! * [`simnet`] — the calibrated performance simulator of the paper's
//!   machines (throughput experiments);
//! * [`adaptive`] — Algorithm 1 (k-means bit-width assignment) and its
//!   baselines;
//! * [`net`] — the TCP fabric: socket-backed transport, rendezvous
//!   bootstrap, the `cgx-launch` multi-process launcher, and node-aware
//!   hierarchical reduction topologies;
//! * [`serve`] — CGX as a service: the `cgx-serve` multi-tenant daemon
//!   that shares one transport mesh between many jobs with per-job tag
//!   namespaces, weighted-DRR QoS shaping, and admission control;
//! * [`bench`] — the paper's experiments (`cgx experiments`) and the
//!   estimator they stand on: the CGX session API, the baseline setups
//!   (QNCCL, GRACE, PowerSGD), and the end-to-end performance model.
//!
//! # Quickstart
//!
//! ```
//! use cgx::bench::api::CgxBuilder;
//! use cgx::bench::estimate::{estimate, SystemSetup};
//! use cgx::models::ModelId;
//! use cgx::simnet::MachineSpec;
//!
//! // How much does CGX speed up Transformer-XL on an 8x RTX 3090 box?
//! let machine = MachineSpec::rtx3090();
//! let baseline = estimate(&machine, ModelId::TransformerXl, &SystemSetup::BaselineNccl);
//! let cgx = estimate(&machine, ModelId::TransformerXl, &SystemSetup::cgx());
//! assert!(cgx.throughput > 2.0 * baseline.throughput);
//! let _ = CgxBuilder::new().build();
//! ```

/// Convenient single-import surface for the most common types.
///
/// ```
/// use cgx::prelude::*;
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::randn(&mut rng, &[128]);
/// let mut q = QsgdCompressor::new(4, 128);
/// let enc = q.compress(&g, &mut rng);
/// assert!(enc.payload_bytes() < 128 * 4);
/// ```
pub mod prelude {
    pub use cgx_adaptive::{assign_bits, AdaptiveOptions, AdaptivePolicy, LayerProfile};
    pub use cgx_bench::api::{Cgx, CgxBuilder};
    pub use cgx_bench::estimate::{estimate, SystemSetup};
    pub use cgx_collectives::{reduce::Algorithm, CommEngine, ThreadCluster};
    pub use cgx_compress::{CompressionScheme, Compressor, QsgdCompressor, ScratchPool};
    pub use cgx_engine::{train_data_parallel, LayerCompression, TrainConfig};
    pub use cgx_models::{ModelId, ModelSpec};
    pub use cgx_simnet::{CommBackend, MachineSpec, ReductionScheme};
    pub use cgx_tensor::{Rng, Tensor};
}

pub use cgx_adaptive as adaptive;
pub use cgx_bench as bench;
pub use cgx_collectives as collectives;
pub use cgx_compress as compress;
pub use cgx_engine as engine;
pub use cgx_models as models;
pub use cgx_net as net;
pub use cgx_serve as serve;
pub use cgx_simnet as simnet;
pub use cgx_tensor as tensor;
