//! Synthetic gradient generation with layer-kind-aware statistics.
//!
//! Compression error profiles — the input to the adaptive compression
//! problem — depend on per-layer gradient statistics, which differ
//! systematically by layer role:
//!
//! * **embedding** gradients are row-sparse (only tokens present in the
//!   batch receive gradient) with small total norm relative to the huge
//!   parameter count;
//! * **norm/bias** gradients have few elements but comparatively large
//!   per-element magnitudes (hence their compression sensitivity);
//! * **conv/linear** gradients are dense, roughly Gaussian with a heavy
//!   tail, with per-element scale shrinking as `1/sqrt(fan_in)`.
//!
//! [`GradientSynth`] reproduces these regularities deterministically, and
//! models the slow decay of gradient magnitude over training steps.

use crate::spec::{LayerKind, LayerSpec, ModelSpec};
use cgx_tensor::{Rng, Tensor};

/// Deterministic synthetic-gradient source for a model.
///
/// # Examples
///
/// ```
/// use cgx_models::{GradientSynth, ModelId, ModelSpec};
/// use cgx_tensor::Rng;
/// let model = ModelSpec::build(ModelId::ResNet50);
/// let mut synth = GradientSynth::new(&model, 42);
/// let grads = synth.step_gradients();
/// assert_eq!(grads.len(), model.layers().len());
/// ```
#[derive(Debug)]
pub struct GradientSynth {
    layers: Vec<LayerSpec>,
    rng: Rng,
    step: u64,
}

impl GradientSynth {
    /// Creates a generator for `model` seeded with `seed`.
    pub fn new(model: &ModelSpec, seed: u64) -> Self {
        GradientSynth {
            layers: model.layers().to_vec(),
            rng: Rng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// The current training step (increments per [`Self::step_gradients`]).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Per-element gradient standard deviation for a layer at a given step.
    ///
    /// Magnitude decays with training progress, and the decay *rate* is
    /// layer-kind-dependent — embeddings converge early (rare-token
    /// gradients vanish first) while normalization layers stay active —
    /// matching the premise of the adaptive-compression literature that
    /// "the model needs a different accuracy of gradient estimation at
    /// different stages of the training". The shifting per-layer profile is
    /// what makes *online* re-assignment (paper Section 5) worthwhile.
    pub fn layer_sigma(layer: &LayerSpec, step: u64) -> f64 {
        let fan_in = match layer.shape().rank() {
            0 | 1 => 1.0,
            _ => layer.shape().dims()[1..].iter().product::<usize>() as f64,
        };
        let t = step as f64;
        match layer.kind() {
            LayerKind::Conv | LayerKind::Linear => (1.0 / fan_in.sqrt()) / (1.0 + t / 200.0).sqrt(),
            // Embedding rows are mostly untouched; active rows carry
            // moderate gradient that decays fastest as the table settles.
            LayerKind::Embedding => {
                (0.5 / (layer.shape().dim(1) as f64).sqrt()) / (1.0 + t / 120.0)
            }
            // Small layers accumulate gradient from every activation and
            // keep adapting late into training.
            LayerKind::Norm | LayerKind::Bias | LayerKind::Other => {
                0.05 / (1.0 + t / 600.0).powf(0.25)
            }
        }
    }

    /// Fraction of rows receiving gradient for an embedding layer (1.0 for
    /// everything else).
    pub(crate) fn embedding_density(layer: &LayerSpec) -> f64 {
        if layer.kind() != LayerKind::Embedding {
            return 1.0;
        }
        let rows = layer.shape().dim(0) as f64;
        // A batch touches a few thousand distinct tokens.
        (4096.0 / rows).min(1.0)
    }

    /// Generates one layer's gradient for the current step.
    pub fn layer_gradient(&mut self, index: usize) -> Tensor {
        let layer = self.layers[index].clone();
        let sigma = Self::layer_sigma(&layer, self.step) as f32;
        let mut t = Tensor::zeros(layer.shape().dims());
        match layer.kind() {
            LayerKind::Embedding => {
                let rows = layer.shape().dim(0);
                let dim = layer.shape().dim(1);
                let density = Self::embedding_density(&layer);
                let active = ((rows as f64 * density).round() as usize).max(1);
                let picked = self.rng.sample_indices(rows, active);
                for r in picked {
                    for c in 0..dim {
                        t[r * dim + c] = sigma * self.rng.normal() as f32;
                    }
                }
            }
            _ => {
                // Gaussian bulk with a 1% heavy tail (5x scale) — gradient
                // distributions in practice have excess kurtosis.
                for i in 0..t.len() {
                    let scale = if self.rng.bernoulli(0.01) { 5.0 } else { 1.0 };
                    t[i] = sigma * scale * self.rng.normal() as f32;
                }
            }
        }
        t
    }

    /// Generates gradients for every layer and advances the step counter.
    pub fn step_gradients(&mut self) -> Vec<Tensor> {
        let grads = (0..self.layers.len())
            .map(|i| self.layer_gradient(i))
            .collect();
        self.step += 1;
        grads
    }

    /// Advances the training-step counter without materializing gradients
    /// (fast-forward for session-level simulations).
    pub fn skip_steps(&mut self, n: usize) {
        self.step += n as u64;
    }

    /// Analytic expectation of the accumulated-gradient L2 norm over
    /// `steps` steps starting at the current step, per layer — the same
    /// statistic as [`GradientSynth::accumulated_norms`] but in closed
    /// form (independent zero-mean samples accumulate as
    /// `sigma * sqrt(steps * active_elements)`), so 100M+-parameter models
    /// can be profiled without generating gradients. Advances the step
    /// counter.
    pub fn expected_accumulated_norms(&mut self, steps: usize) -> Vec<f64> {
        let start = self.step;
        let out = self
            .layers
            .iter()
            .map(|l| {
                // Average sigma over the window (it decays slowly).
                let sigma = (0..steps)
                    .map(|k| Self::layer_sigma(l, start + k as u64))
                    .sum::<f64>()
                    / steps.max(1) as f64;
                // Heavy-tail mixture inflates variance by 1 + 0.01*(25-1).
                let tail_factor = (1.0 + 0.01 * 24.0f64).sqrt();
                let active = l.elements() as f64 * Self::embedding_density(l);
                sigma * tail_factor * (steps as f64 * active).sqrt()
            })
            .collect();
        self.step += steps as u64;
        out
    }

    /// L2 norms of each layer's gradient accumulated over `steps` steps —
    /// the statistic Algorithm 1 clusters on.
    pub fn accumulated_norms(&mut self, steps: usize) -> Vec<f64> {
        let n = self.layers.len();
        let mut acc: Vec<Tensor> = self
            .layers
            .iter()
            .map(|l| Tensor::zeros(l.shape().dims()))
            .collect();
        for _ in 0..steps {
            for (i, a) in acc.iter_mut().enumerate().take(n) {
                let g = self.layer_gradient(i);
                a.add_assign(&g);
            }
            self.step += 1;
        }
        acc.iter().map(Tensor::norm2).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelId;

    #[test]
    fn deterministic_for_same_seed() {
        let model = ModelSpec::build(ModelId::VitBase);
        let mut a = GradientSynth::new(&model, 7);
        let mut b = GradientSynth::new(&model, 7);
        let ga = a.layer_gradient(5);
        let gb = b.layer_gradient(5);
        assert_eq!(ga.as_slice(), gb.as_slice());
    }

    #[test]
    fn embedding_gradients_are_row_sparse() {
        let model = ModelSpec::build(ModelId::TransformerXl);
        let emb_idx = model
            .layers()
            .iter()
            .position(|l| l.kind() == LayerKind::Embedding)
            .expect("TXL has an embedding");
        let mut synth = GradientSynth::new(&model, 1);
        let g = synth.layer_gradient(emb_idx);
        let dim = model.layers()[emb_idx].shape().dim(1);
        let rows = model.layers()[emb_idx].shape().dim(0);
        let nonzero_rows = (0..rows)
            .filter(|r| (0..dim).any(|c| g[r * dim + c] != 0.0))
            .count();
        assert!(nonzero_rows <= 4096 + 10);
        assert!(nonzero_rows > 1000);
    }

    #[test]
    fn sigma_decays_with_steps() {
        let l = LayerSpec::new("w", LayerKind::Linear, &[64, 64]);
        assert!(GradientSynth::layer_sigma(&l, 0) > GradientSynth::layer_sigma(&l, 1000));
    }

    #[test]
    fn norm_layers_have_larger_per_element_scale() {
        let norm = LayerSpec::new("bn", LayerKind::Norm, &[512]);
        let conv = LayerSpec::new("c", LayerKind::Conv, &[512, 512, 3, 3]);
        assert!(GradientSynth::layer_sigma(&norm, 0) > 3.0 * GradientSynth::layer_sigma(&conv, 0));
    }

    #[test]
    fn step_gradients_cover_all_layers_and_advance() {
        let model = ModelSpec::build(ModelId::ResNet50);
        let mut synth = GradientSynth::new(&model, 3);
        let g = synth.step_gradients();
        assert_eq!(g.len(), model.layers().len());
        assert_eq!(synth.step(), 1);
        for (grad, layer) in g.iter().zip(model.layers()) {
            assert_eq!(grad.shape(), layer.shape());
        }
    }

    #[test]
    fn expected_norms_match_sampled_norms() {
        // Analytic expectation tracks the Monte-Carlo accumulation within
        // sampling error on a small model.
        let model = ModelSpec::build(ModelId::VitBase);
        let mut a = GradientSynth::new(&model, 8);
        let mut b = GradientSynth::new(&model, 8);
        let sampled = a.accumulated_norms(3);
        let expected = b.expected_accumulated_norms(3);
        assert_eq!(a.step(), b.step());
        let mut checked = 0;
        for ((s, e), layer) in sampled.iter().zip(&expected).zip(model.layers()) {
            if layer.elements() < 10_000 {
                continue; // small layers: large sampling variance
            }
            let ratio = s / e;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{}: sampled {s:.2} vs expected {e:.2}",
                layer.name()
            );
            checked += 1;
        }
        assert!(checked > 20);
    }

    #[test]
    fn skip_steps_advances_counter() {
        let model = ModelSpec::build(ModelId::ResNet50);
        let mut synth = GradientSynth::new(&model, 1);
        synth.skip_steps(100);
        assert_eq!(synth.step(), 100);
    }

    #[test]
    fn accumulated_norms_positive_and_sized() {
        let model = ModelSpec::build(ModelId::ResNet50);
        let mut synth = GradientSynth::new(&model, 4);
        let norms = synth.accumulated_norms(2);
        assert_eq!(norms.len(), model.layers().len());
        assert!(norms.iter().all(|n| *n > 0.0));
    }
}
