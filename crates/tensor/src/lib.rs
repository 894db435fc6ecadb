#![warn(missing_docs)]
//! Dense tensors, deterministic pseudo-random number generation, and the
//! small set of math kernels the CGX reproduction needs.
//!
//! This crate is the dependency-free foundation of the workspace. Everything
//! above it (compression operators, collectives, the training engine, the
//! performance simulator) manipulates [`Tensor`] values and draws randomness
//! from [`Rng`], a bespoke xoshiro256** generator seeded via SplitMix64.
//! Using our own generator keeps every experiment bit-reproducible across
//! platforms and independent of external crate version churn.
//!
//! # Examples
//!
//! ```
//! use cgx_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let g = Tensor::randn(&mut rng, &[4, 8]);
//! assert_eq!(g.len(), 32);
//! assert!(g.norm2() > 0.0);
//! ```

pub mod bytes;
pub mod exp;
pub mod linalg;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use bytes::Bytes;
pub use exp::exp;
pub use linalg::{matmul, matmul_nt, matmul_tn, orthogonalize_columns};
pub use rng::Rng;
pub use shape::Shape;
pub use stats::RunningStat;
pub use tensor::Tensor;
