#![warn(missing_docs)]
//! Neural-network training substrate with compressed data-parallel SGD.
//!
//! The paper's accuracy-recovery claims (Table 3, Figure 4) are properties
//! of the *training dynamics* under compressed gradients: unbiased
//! stochastic quantization preserves convergence; biased compressors need
//! error feedback; over-aggressive compression slows or breaks training.
//! To reproduce those dynamics for real — not merely assert them — this
//! crate implements, from scratch:
//!
//! * [`nn`] — dense layers, softmax cross-entropy, MLP classifiers and an
//!   embedding language model with exact manual backpropagation;
//! * [`data`] — deterministic synthetic tasks (Gaussian-mixture
//!   classification, Markov-chain language modelling) standing in for
//!   ImageNet / WikiText / SQuAD;
//! * [`optimizer`] — SGD with momentum, weight decay, and global-norm
//!   gradient clipping (the compression interaction of paper
//!   Technical Issue 3);
//! * [`trainer`] — the data-parallel training loop: N worker threads, real
//!   compressed Allreduce per layer through `cgx_collectives`, CGX-style
//!   layer filters, replica-consistency guarantees.
//!
//! # Examples
//!
//! ```
//! use cgx_engine::data::GaussianMixture;
//! use cgx_engine::nn::Mlp;
//! use cgx_tensor::Rng;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let task = GaussianMixture::new(4, 8, 1.5);
//! let model = Mlp::new(&mut rng, &[8, 16, 4]);
//! let (x, y) = task.sample_batch(&mut rng, 32);
//! let (loss, grads) = model.loss_and_grads(&x, &y);
//! assert!(loss > 0.0);
//! assert_eq!(grads.len(), model.params().len());
//! ```

pub mod attention;
pub mod data;
pub(crate) mod local_sgd;
pub mod nn;
pub mod optimizer;
mod sync;
pub mod trainer;

pub use attention::AttentionLm;
pub use data::{GaussianMixture, MarkovChainLm};
pub use local_sgd::{local_sgd_rank, train_local_sgd};
pub use nn::{EmbeddingLm, Mlp};
pub use optimizer::{clip_global_norm, Adam, LrSchedule, SgdMomentum};
pub use trainer::{
    train_data_parallel, train_rank, LayerCompression, PerLayerMismatch, RankOutput, TrainConfig,
    TrainReport, TrainableModel,
};
// The adaptive knobs a `TrainConfig` carries, re-exported so trainer
// callers need not depend on `cgx-adaptive` directly.
pub use cgx_adaptive::{AdaptivePlanTrace, AdaptiveTrainConfig};
