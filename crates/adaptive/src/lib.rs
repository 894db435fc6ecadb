#![warn(missing_docs)]
//! Adaptive layer-wise compression (paper Section 5).
//!
//! The *adaptive compression problem*: choose per-layer bit-widths
//! `b_1..b_L` minimizing the transmitted size `Σ b_ℓ · size(L_ℓ)` subject
//! to the total compression error staying below `α · E₄`, where `E₄` is the
//! error of the uniform 4-bit assignment known to recover accuracy.
//!
//! Three solvers, as evaluated in the paper's Table 7 / Figure 5:
//!
//! * [`AdaptivePolicy::KMeans`] — Algorithm 1: 2-D k-means over
//!   `(size(L_ℓ), ‖G_ℓ‖)`, centroids sorted by `norm − size`, bit-widths
//!   mapped to clusters (the winner);
//! * [`AdaptivePolicy::Linear`] — sort layers by `‖G_ℓ‖ / size(L_ℓ)` and
//!   interpolate bit-widths linearly along that order;
//! * [`AdaptivePolicy::BayesOpt`] — black-box search over assignments (a
//!   seeded random-search surrogate standing in for the Bayesian optimizer
//!   the paper found "unstable across models").
//!
//! All solvers enforce the error budget by promoting the most sensitive
//! under-provisioned layers until the constraint holds.
//!
//! # Examples
//!
//! ```
//! use cgx_adaptive::{assign_bits, AdaptiveOptions, AdaptivePolicy, LayerProfile};
//!
//! let profiles = vec![
//!     LayerProfile::new("embedding", 10_000_000, 3.0),
//!     LayerProfile::new("attn", 1_000_000, 5.0),
//!     LayerProfile::new("head", 1_000_000, 9.0),
//! ];
//! let a = assign_bits(AdaptivePolicy::KMeans, &profiles, &AdaptiveOptions::default());
//! // The huge low-norm embedding gets the fewest bits.
//! assert!(a.bits[0] <= a.bits[2]);
//! ```

pub mod controller;
pub mod kmeans;
pub mod policy;

pub use controller::{
    AdaptiveController, AdaptivePlanTrace, AdaptiveTrainConfig, ControlledLayer, PlanRecord,
    PlanUpdate,
};
pub use kmeans::{kmeans, KMeansResult};
pub use policy::{
    assign_bits, uniform_assignment, AdaptiveOptions, AdaptivePolicy, BitAssignment, LayerProfile,
};
