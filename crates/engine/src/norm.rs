//! Layer normalization and a normalized MLP.
//!
//! The paper's filter story centers on norm layers ("empirically, it is
//! known that layers like batch/layer normalization and bias layers are
//! sensitive to gradient compression, while being small"). [`MlpNorm`]
//! puts real LayerNorm parameters into the training loop — gain and bias
//! vectors with exact manual backprop — so the filter's effect is exercised
//! functionally, not just on synthetic statistics.

use crate::nn::{add_to_rows, column_sums, softmax_cross_entropy, ParamSpec};
use cgx_models::LayerKind;
use cgx_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};

/// Forward layer normalization over the last dimension of a `b x d` batch:
/// `y = gain * (x - mean) / sqrt(var + eps) + bias`.
///
/// Returns `(y, x_hat, inv_std)` where `x_hat` is the normalized input and
/// `inv_std` the per-row `1/sqrt(var+eps)` (both needed for backward).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn layer_norm_forward(
    x: &Tensor,
    gain: &Tensor,
    bias: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let (b, d) = x.shape().as_matrix();
    assert_eq!(gain.len(), d, "gain width mismatch");
    assert_eq!(bias.len(), d, "bias width mismatch");
    let mut y = Tensor::zeros(&[b, d]);
    let mut x_hat = Tensor::zeros(&[b, d]);
    let mut inv_std = Vec::with_capacity(b);
    for i in 0..b {
        let row = &x.as_slice()[i * d..(i + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std.push(istd);
        for j in 0..d {
            let xh = (row[j] - mean) * istd;
            x_hat[i * d + j] = xh;
            y[i * d + j] = gain[j] * xh + bias[j];
        }
    }
    (y, x_hat, inv_std)
}

/// Backward pass of layer normalization.
///
/// Given `dy` and the cached `(x_hat, inv_std)`, returns
/// `(dx, dgain, dbias)` using the standard closed form
/// `dx = istd/d * (d*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))`.
pub fn layer_norm_backward(
    dy: &Tensor,
    x_hat: &Tensor,
    inv_std: &[f32],
    gain: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, d) = dy.shape().as_matrix();
    let mut dx = Tensor::zeros(&[b, d]);
    let mut dgain = Tensor::zeros(&[d]);
    let mut dbias = Tensor::zeros(&[d]);
    for i in 0..b {
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for j in 0..d {
            let dyj = dy[i * d + j];
            let xh = x_hat[i * d + j];
            dgain[j] += dyj * xh;
            dbias[j] += dyj;
            let dxhat = dyj * gain[j];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xh;
        }
        let istd = inv_std[i];
        for j in 0..d {
            let dxhat = dy[i * d + j] * gain[j];
            dx[i * d + j] = istd / d as f32
                * (d as f32 * dxhat - sum_dxhat - x_hat[i * d + j] * sum_dxhat_xhat);
        }
    }
    (dx, dgain, dbias)
}

/// A two-block classifier with layer normalization:
/// `x -> fc0 -> LN -> ReLU -> fc1 -> logits`.
///
/// Parameter order: `[fc0.w, fc0.b, ln.gain, ln.bias, fc1.w, fc1.b]` —
/// with `ln.gain` classified as [`LayerKind::Norm`], the tensor kind CGX's
/// filter protects.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpNorm {
    input: usize,
    hidden: usize,
    classes: usize,
    params: Vec<Tensor>,
}

impl MlpNorm {
    /// Creates the model (He init for weights, unit gains, zero biases).
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(rng: &mut Rng, input: usize, hidden: usize, classes: usize) -> Self {
        assert!(input > 0 && hidden > 0 && classes > 0, "zero dimension");
        let mk_w = |rng: &mut Rng, out: usize, inp: usize| {
            let mut w = Tensor::randn(rng, &[out, inp]);
            w.scale((2.0 / inp as f64).sqrt() as f32);
            w
        };
        let params = vec![
            mk_w(rng, hidden, input),
            Tensor::zeros(&[hidden]),
            Tensor::full(&[hidden], 1.0), // ln.gain
            Tensor::zeros(&[hidden]),     // ln.bias
            mk_w(rng, classes, hidden),
            Tensor::zeros(&[classes]),
        ];
        MlpNorm {
            input,
            hidden,
            classes,
            params,
        }
    }

    /// Parameter tensors.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable parameter tensors.
    pub fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    /// Names and kinds aligned with [`MlpNorm::params`].
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec {
                name: "fc0.weight".into(),
                kind: LayerKind::Linear,
            },
            ParamSpec {
                name: "fc0.bias".into(),
                kind: LayerKind::Bias,
            },
            ParamSpec {
                name: "ln.gain".into(),
                kind: LayerKind::Norm,
            },
            ParamSpec {
                name: "ln.bias".into(),
                kind: LayerKind::Bias,
            },
            ParamSpec {
                name: "fc1.weight".into(),
                kind: LayerKind::Linear,
            },
            ParamSpec {
                name: "fc1.bias".into(),
                kind: LayerKind::Bias,
            },
        ]
    }

    fn affine(w: &Tensor, b: &Tensor, x: &Tensor) -> Tensor {
        let mut out = matmul_nt(x, w);
        add_to_rows(&mut out, b);
        out
    }

    /// Logits for a `batch x input` tensor.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let h0 = Self::affine(&self.params[0], &self.params[1], x);
        let (mut h1, _, _) = layer_norm_forward(&h0, &self.params[2], &self.params[3], 1e-5);
        for v in h1.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Self::affine(&self.params[4], &self.params[5], &h1)
    }

    /// Mean loss and gradients for a labelled batch.
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches.
    pub fn loss_and_grads(&self, x: &Tensor, labels: &[usize]) -> (f64, Vec<Tensor>) {
        let h0 = Self::affine(&self.params[0], &self.params[1], x);
        let (ln_out, x_hat, inv_std) =
            layer_norm_forward(&h0, &self.params[2], &self.params[3], 1e-5);
        let mut relu_out = ln_out.clone();
        for v in relu_out.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let logits = Self::affine(&self.params[4], &self.params[5], &relu_out);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        // fc1 backward.
        let d_w1 = matmul_tn(&dlogits, &relu_out);
        let d_b1 = column_sums(&dlogits);
        let mut d_relu = matmul(&dlogits, &self.params[4]);
        for (g, a) in d_relu.as_mut_slice().iter_mut().zip(ln_out.as_slice()) {
            if *a <= 0.0 {
                *g = 0.0;
            }
        }
        // LayerNorm backward.
        let (d_h0, d_gain, d_ln_bias) =
            layer_norm_backward(&d_relu, &x_hat, &inv_std, &self.params[2]);
        // fc0 backward.
        let d_w0 = matmul_tn(&d_h0, x);
        let d_b0 = column_sums(&d_h0);
        (loss, vec![d_w0, d_b0, d_gain, d_ln_bias, d_w1, d_b1])
    }

    /// Classification accuracy on a labelled batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        let logits = self.forward(x);
        let (b, c) = logits.shape().as_matrix();
        labels
            .iter()
            .enumerate()
            .filter(|(i, &y)| {
                let row = &logits.as_slice()[i * c..(i + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(j, _)| j)
                    .expect("non-empty");
                pred == y
            })
            .count() as f64
            / b as f64
    }
}

impl crate::trainer::TrainableModel for MlpNorm {
    type Batch = (Tensor, Vec<usize>);

    fn params(&self) -> &[Tensor] {
        MlpNorm::params(self)
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        MlpNorm::params_mut(self)
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        MlpNorm::param_specs(self)
    }

    fn loss_and_grads(&self, (x, y): &Self::Batch) -> (f64, Vec<Tensor>) {
        MlpNorm::loss_and_grads(self, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::GaussianMixture;
    use crate::trainer::{train_data_parallel, LayerCompression, TrainConfig};

    #[test]
    fn layer_norm_forward_normalizes() {
        let x = Tensor::from_vec(&[2, 4], vec![1.0, 2.0, 3.0, 4.0, -2.0, 0.0, 2.0, 4.0]);
        let gain = Tensor::full(&[4], 1.0);
        let bias = Tensor::zeros(&[4]);
        let (y, _, _) = layer_norm_forward(&x, &gain, &bias, 1e-6);
        for i in 0..2 {
            let row = &y.as_slice()[i * 4..(i + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {i} var {var}");
        }
    }

    #[test]
    fn gain_and_bias_apply() {
        let x = Tensor::from_vec(&[1, 2], vec![0.0, 2.0]);
        let gain = Tensor::from_slice(&[3.0, 3.0]);
        let bias = Tensor::from_slice(&[1.0, 1.0]);
        let (y, _, _) = layer_norm_forward(&x, &gain, &bias, 1e-9);
        // x_hat = [-1, 1] -> y = [-2, 4].
        assert!((y[0] + 2.0).abs() < 1e-4);
        assert!((y[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn mlp_norm_gradients_pass_numeric_check() {
        let mut rng = Rng::seed_from_u64(1);
        // The second case's products (13 x 37 x 5, 13 x 7 x 37, ...) cover
        // whole register tiles of `cgx_tensor`'s kernel and every edge.
        let cases: [([usize; 3], Vec<usize>); 2] = [
            ([4, 6, 3], vec![0, 1, 2, 1, 0]),
            ([5, 37, 7], (0..13).map(|i| i % 7).collect()),
        ];
        for ([input, hidden, classes], y) in cases {
            let model = MlpNorm::new(&mut rng, input, hidden, classes);
            let x = Tensor::randn(&mut rng, &[y.len(), input]);
            let (_, grads) = model.loss_and_grads(&x, &y);
            let eps = 1e-3f32;
            let mut check_rng = Rng::seed_from_u64(7);
            for (p, grad) in grads.iter().enumerate() {
                for _ in 0..3 {
                    let i = check_rng.index(model.params()[p].len());
                    let mut mp = model.clone();
                    mp.params_mut()[p][i] += eps;
                    let (lp, _) = mp.loss_and_grads(&x, &y);
                    let mut mm = model.clone();
                    mm.params_mut()[p][i] -= eps;
                    let (lm, _) = mm.loss_and_grads(&x, &y);
                    let numeric = (lp - lm) / (2.0 * eps as f64);
                    let analytic = grad[i] as f64;
                    assert!(
                        (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                        "{hidden} hidden, param {p} idx {i}: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn norm_gain_is_filtered_by_cgx_default() {
        let mut rng = Rng::seed_from_u64(2);
        let model = MlpNorm::new(&mut rng, 4, 6, 3);
        let lc = LayerCompression::cgx_default();
        let specs = model.param_specs();
        let gain_idx = specs.iter().position(|s| s.name == "ln.gain").unwrap();
        assert_eq!(
            lc.scheme_for(gain_idx, &specs[gain_idx]),
            cgx_compress::CompressionScheme::None
        );
    }

    #[test]
    fn trains_under_compressed_data_parallel_sgd() {
        let task = GaussianMixture::new(4, 8, 1.3);
        let mut rng = Rng::seed_from_u64(3);
        let model = MlpNorm::new(&mut rng, 8, 24, 4);
        let cfg = TrainConfig {
            lr: 0.15,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 250)
        };
        let t = task.clone();
        let (trained, _) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        let mut eval_rng = Rng::seed_from_u64(99);
        let (x, y) = task.sample_batch(&mut eval_rng, 1024);
        assert!(trained.accuracy(&x, &y) > 0.85);
    }
}
