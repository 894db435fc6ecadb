#![warn(missing_docs)]
//! # CGX (Rust reproduction)
//!
//! A from-scratch reproduction of *"Project CGX: Algorithmic and System
//! Support for Scalable Deep Learning on a Budget"* (MIDDLEWARE 2022):
//! communication-compressed data-parallel training that removes the
//! bandwidth bottleneck of commodity multi-GPU servers, plus the paper's
//! *adaptive layer-wise compression* algorithm.
//!
//! This package is the `cgx` command-line binary. The system is the
//! workspace's crates, each named directly:
//!
//! * `cgx_tensor` — dense tensors, deterministic RNG, math kernels;
//! * `cgx_compress` — QSGD / TopK / PowerSGD / 1-bit compressors with
//!   bit-exact wire formats;
//! * `cgx_collectives` — real threaded shared-memory collectives carrying
//!   compressed payloads: one communication engine (SRA, Ring, Tree,
//!   Allgather) and its sequential reference;
//! * `cgx_models` — the six evaluation models' layer inventories and
//!   synthetic gradient sources;
//! * `cgx_engine` — an NN training substrate with compressed data-parallel
//!   SGD (the accuracy-recovery experiments);
//! * `cgx_simnet` — the performance simulator of the paper's machines
//!   (throughput experiments); its step simulator does not model the
//!   engine's segment cut, coalescing or live-collective cap;
//! * `cgx_adaptive` — Algorithm 1 (k-means bit-width assignment) and its
//!   baselines;
//! * `cgx_net` — the TCP fabric: socket-backed transport, rendezvous
//!   bootstrap, the `cgx-launch` multi-process launcher, and node-aware
//!   hierarchical reduction topologies;
//! * `cgx_serve` — CGX as a service: the `cgx-serve` multi-tenant daemon
//!   that shares one transport mesh between many jobs with per-job tag
//!   namespaces, weighted-DRR QoS shaping, and admission control;
//! * `cgx_bench` — the paper's experiments (`cgx experiments`) and the
//!   estimator they stand on: the CGX session API, the baseline setups
//!   (QNCCL, GRACE, PowerSGD), and the end-to-end performance model.
//!
//! # Quickstart
//!
//! ```
//! use cgx_bench::api::CgxBuilder;
//! use cgx_bench::estimate::{estimate, SystemSetup};
//! use cgx_models::ModelId;
//! use cgx_simnet::MachineSpec;
//!
//! // How much does CGX speed up Transformer-XL on an 8x RTX 3090 box?
//! let machine = MachineSpec::rtx3090();
//! let baseline = estimate(&machine, ModelId::TransformerXl, &SystemSetup::BaselineNccl);
//! let cgx = estimate(&machine, ModelId::TransformerXl, &SystemSetup::cgx());
//! assert!(cgx.throughput > 2.0 * baseline.throughput);
//! let _ = CgxBuilder::new().build();
//! ```
