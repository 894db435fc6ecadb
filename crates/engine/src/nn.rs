//! Minimal neural networks with exact manual backpropagation.
//!
//! Two model families cover the paper's task spectrum:
//!
//! * [`Mlp`] — ReLU multilayer perceptron with softmax cross-entropy, the
//!   stand-in for the classification workloads (ResNet50/VGG/ViT on
//!   ImageNet);
//! * [`EmbeddingLm`] — embedding + output-projection language model over a
//!   discrete vocabulary, the stand-in for the language-modelling workloads
//!   (Transformer-XL/GPT-2 perplexity); its large embedding table exercises
//!   the sparse-gradient, adaptive-compression-friendly layer profile.

use cgx_models::LayerKind;
use cgx_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};

/// Softmax cross-entropy over a batch of logits.
///
/// Returns the mean loss and the gradient w.r.t. the logits (already
/// divided by the batch size).
///
/// Each row's exponentials are taken in `f64` of the `f32` difference to
/// the row's maximum, by [`cgx_tensor::exp`], which returns the bits of
/// `f64::exp` in vector lanes.
///
/// # Panics
///
/// Panics if `logits` is not `batch x classes` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    let (b, c) = logits.shape().as_matrix();
    assert_eq!(b, labels.len(), "batch size mismatch");
    let mut dlogits = Tensor::zeros(&[b, c]);
    let mut loss = 0.0f64;
    // One row's exponentials, reused from row to row.
    let mut exp = vec![0.0f64; c];
    let rows = logits.as_slice().chunks_exact(c);
    let d_rows = dlogits.as_mut_slice().chunks_exact_mut(c);
    for ((row, d_row), &y) in rows.zip(d_rows).zip(labels) {
        assert!(y < c, "label {y} out of range for {c} classes");
        let max = row.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x));
        for (e, x) in exp.iter_mut().zip(row) {
            *e = f64::from(x - max);
        }
        cgx_tensor::exp(&mut exp);
        let z: f64 = exp.iter().sum();
        // A target far below the row's maximum underflows its probability
        // to 0: its loss is then `ln z - (x_y - max)`, finite, and every
        // loss that was finite keeps its bits.
        let p_y = exp[y] / z;
        loss += if p_y > 0.0 {
            -p_y.ln()
        } else {
            z.ln() - f64::from(row[y] - max)
        };
        for (j, (d, e)) in d_row.iter_mut().zip(&exp).enumerate() {
            let p = e / z;
            *d = ((p - f64::from(u8::from(j == y))) / b as f64) as f32;
        }
    }
    (loss / b as f64, dlogits)
}

/// Adds `bias` to every row of the matrix `out`.
pub(crate) fn add_to_rows(out: &mut Tensor, bias: &Tensor) {
    for row in out.as_mut_slice().chunks_exact_mut(bias.len()) {
        for (o, b) in row.iter_mut().zip(bias.as_slice()) {
            *o += b;
        }
    }
}

/// The sum of the rows of the matrix `t`, each column added top to bottom.
pub(crate) fn column_sums(t: &Tensor) -> Tensor {
    let (_, cols) = t.shape().as_matrix();
    let mut sums = Tensor::zeros(&[cols]);
    for row in t.as_slice().chunks_exact(cols) {
        for (s, x) in sums.as_mut_slice().iter_mut().zip(row) {
            *s += x;
        }
    }
    sums
}

/// A named parameter with its CGX layer classification.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name (e.g. `"fc1.weight"`).
    pub name: String,
    /// Layer role, used by CGX's filters.
    pub kind: LayerKind,
}

/// ReLU multilayer perceptron classifier.
///
/// Parameters are stored as interleaved (weight, bias) pairs per layer, in
/// forward order — the same convention the CGX registration API expects.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    dims: Vec<usize>,
    /// `[w0, b0, w1, b1, ...]`; `wi` is `out x in`.
    params: Vec<Tensor>,
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions
    /// (`[input, hidden..., classes]`), He-initialized.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new(rng: &mut Rng, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut params = Vec::new();
        for w in dims.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / fan_in as f64).sqrt() as f32;
            let mut weight = Tensor::randn(rng, &[fan_out, fan_in]);
            weight.scale(scale);
            params.push(weight);
            params.push(Tensor::zeros(&[fan_out]));
        }
        Mlp {
            dims: dims.to_vec(),
            params,
        }
    }

    /// Layer dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Parameter tensors in forward order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable parameter tensors.
    pub fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    /// Names and kinds of the parameters, aligned with [`Mlp::params`].
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        (0..self.dims.len() - 1)
            .flat_map(|i| {
                [
                    ParamSpec {
                        name: format!("fc{i}.weight"),
                        kind: LayerKind::Linear,
                    },
                    ParamSpec {
                        name: format!("fc{i}.bias"),
                        kind: LayerKind::Bias,
                    },
                ]
            })
            .collect()
    }

    /// Forward pass returning logits for a `batch x input` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have `input` columns.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let layers = self.dims.len() - 1;
        for l in 0..layers {
            h = self.affine(l, &h);
            if l + 1 < layers {
                relu_inplace(&mut h);
            }
        }
        h
    }

    fn affine(&self, l: usize, h: &Tensor) -> Tensor {
        let w = &self.params[2 * l];
        let b = &self.params[2 * l + 1];
        let mut out = matmul_nt(h, w);
        add_to_rows(&mut out, b);
        out
    }

    /// Mean loss and per-parameter gradients for a labelled batch.
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches.
    pub fn loss_and_grads(&self, x: &Tensor, labels: &[usize]) -> (f64, Vec<Tensor>) {
        let layers = self.dims.len() - 1;
        // Forward, caching post-activation values.
        let mut acts: Vec<Tensor> = Vec::with_capacity(layers + 1);
        acts.push(x.clone());
        for l in 0..layers {
            let mut h = self.affine(l, acts.last().expect("non-empty"));
            if l + 1 < layers {
                relu_inplace(&mut h);
            }
            acts.push(h);
        }
        let (loss, mut delta) = softmax_cross_entropy(acts.last().expect("logits"), labels);
        // Backward.
        let mut grads: Vec<Tensor> = vec![Tensor::zeros(&[1]); self.params.len()];
        for l in (0..layers).rev() {
            let input = &acts[l];
            // dW = deltaᵀ · input, db = column sums of delta.
            grads[2 * l] = matmul_tn(&delta, input);
            grads[2 * l + 1] = column_sums(&delta);
            if l > 0 {
                // dx = delta · W, masked by the ReLU derivative.
                let mut dx = matmul(&delta, &self.params[2 * l]);
                for (g, a) in dx.as_mut_slice().iter_mut().zip(acts[l].as_slice()) {
                    if *a <= 0.0 {
                        *g = 0.0;
                    }
                }
                delta = dx;
            }
        }
        (loss, grads)
    }

    /// Classification accuracy on a labelled batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        let logits = self.forward(x);
        let (b, c) = logits.shape().as_matrix();
        let correct = labels
            .iter()
            .enumerate()
            .filter(|(i, &y)| {
                let row = &logits.as_slice()[i * c..(i + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(j, _)| j)
                    .expect("non-empty row");
                pred == y
            })
            .count();
        correct as f64 / b as f64
    }
}

fn relu_inplace(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Embedding language model: `logits = E[x] · Wᵀ`, trained with softmax
/// cross-entropy on next-token prediction.
///
/// Deliberately shaped like the paper's Transformer workloads in the one
/// respect that matters to CGX: a vocabulary-sized embedding table that
/// dwarfs the rest of the model and receives sparse gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingLm {
    vocab: usize,
    dim: usize,
    /// `[embedding (V x d), output weight (V x d), output bias (V)]`.
    params: Vec<Tensor>,
}

impl EmbeddingLm {
    /// Creates a model over `vocab` tokens with embedding width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rng: &mut Rng, vocab: usize, dim: usize) -> Self {
        assert!(vocab > 0 && dim > 0, "empty model");
        let scale = (1.0 / dim as f64).sqrt() as f32;
        let mut emb = Tensor::randn(rng, &[vocab, dim]);
        emb.scale(scale);
        let mut out_w = Tensor::randn(rng, &[vocab, dim]);
        out_w.scale(scale);
        EmbeddingLm {
            vocab,
            dim,
            params: vec![emb, out_w, Tensor::zeros(&[vocab])],
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Parameter tensors: embedding, output weight, output bias.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable parameter tensors.
    pub fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    /// Names and kinds aligned with [`EmbeddingLm::params`].
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec {
                name: "word_emb.weight".into(),
                kind: LayerKind::Embedding,
            },
            ParamSpec {
                name: "out.weight".into(),
                kind: LayerKind::Linear,
            },
            ParamSpec {
                name: "out.bias".into(),
                kind: LayerKind::Bias,
            },
        ]
    }

    /// Mean next-token loss and gradients for (context, target) pairs.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or a token is out of range.
    pub fn loss_and_grads(&self, context: &[usize], target: &[usize]) -> (f64, Vec<Tensor>) {
        assert_eq!(context.len(), target.len(), "context/target mismatch");
        let b = context.len();
        let d = self.dim;
        let emb = &self.params[0];
        let out_w = &self.params[1];
        let out_b = &self.params[2];
        // Gather embeddings.
        let mut h = Tensor::zeros(&[b, d]);
        for (i, &tok) in context.iter().enumerate() {
            assert!(tok < self.vocab, "token {tok} out of range");
            h.as_mut_slice()[i * d..(i + 1) * d]
                .copy_from_slice(&emb.as_slice()[tok * d..(tok + 1) * d]);
        }
        // Logits = h Wᵀ + b.
        let mut logits = matmul_nt(&h, out_w);
        add_to_rows(&mut logits, out_b);
        let (loss, delta) = softmax_cross_entropy(&logits, target);
        // Gradients.
        let d_w = matmul_tn(&delta, &h); // V x d
        let d_b = column_sums(&delta);
        let dh = matmul(&delta, out_w); // b x d
        let mut d_emb = Tensor::zeros(&[self.vocab, d]);
        for (dh_row, &tok) in dh.as_slice().chunks_exact(d).zip(context) {
            let emb_row = &mut d_emb.as_mut_slice()[tok * d..(tok + 1) * d];
            for (g, x) in emb_row.iter_mut().zip(dh_row) {
                *g += x;
            }
        }
        (loss, vec![d_emb, d_w, d_b])
    }

    /// Perplexity on (context, target) pairs.
    pub fn perplexity(&self, context: &[usize], target: &[usize]) -> f64 {
        let (loss, _) = self.loss_and_grads(context, target);
        loss.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_ce_matches_hand_computation() {
        let logits = Tensor::from_vec(&[1, 2], vec![0.0, 0.0]);
        let (loss, d) = softmax_cross_entropy(&logits, &[0]);
        assert!((loss - (2.0f64).ln()).abs() < 1e-6);
        assert!((d[0] - (-0.5)).abs() < 1e-6);
        assert!((d[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(&[1, 3], vec![1000.0, 0.0, -1000.0]);
        let (loss, d) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(d.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_ce_is_finite_when_the_target_probability_underflows() {
        let logits = Tensor::from_vec(&[1, 2], vec![0.0, -1000.0]);
        let (loss, d) = softmax_cross_entropy(&logits, &[1]);
        assert!((loss - 1000.0).abs() < 1e-9, "loss {loss}");
        assert!(d.as_slice().iter().all(|g| g.is_finite()));
    }

    fn numeric_grad_check<F>(params_len: usize, mut f: F)
    where
        F: FnMut(Option<(usize, usize, f32)>) -> (f64, Vec<Tensor>),
    {
        let (base_loss, grads) = f(None);
        assert!(base_loss.is_finite());
        let eps = 1e-3f32;
        let mut rng = Rng::seed_from_u64(77);
        for (p, grad) in grads.iter().enumerate().take(params_len) {
            let len = grad.len();
            // Probe a few random coordinates.
            for _ in 0..3.min(len) {
                let i = rng.index(len);
                let (lp, _) = f(Some((p, i, eps)));
                let (lm, _) = f(Some((p, i, -eps)));
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let analytic = grad[i] as f64;
                assert!(
                    (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                    "param {p} idx {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn mlp_gradients_pass_numeric_check() {
        let mut rng = Rng::seed_from_u64(1);
        // The second case's products (13 x 37 x 5, 37 x 5 x 13, ...) cover
        // whole register tiles of `cgx_tensor`'s kernel and every edge.
        let cases: [(&[usize], Vec<usize>); 2] = [
            (&[4, 6, 3], vec![0, 1, 2, 1, 0]),
            (&[5, 37, 7], (0..13).map(|i| i % 7).collect()),
        ];
        for (dims, y) in cases {
            let model = Mlp::new(&mut rng, dims);
            let x = Tensor::randn(&mut rng, &[y.len(), dims[0]]);
            let n_params = model.params().len();
            numeric_grad_check(n_params, |perturb| {
                let mut m = model.clone();
                if let Some((p, i, eps)) = perturb {
                    m.params_mut()[p][i] += eps;
                }
                m.loss_and_grads(&x, &y)
            });
        }
    }

    #[test]
    fn embedding_lm_gradients_pass_numeric_check() {
        let mut rng = Rng::seed_from_u64(2);
        let cases: [(usize, usize, Vec<usize>, Vec<usize>); 2] = [
            (7, 5, vec![0, 3, 6, 3], vec![1, 2, 0, 4]),
            // 9 x 37 x 13 and its two transposes: tiles and edges.
            (
                37,
                13,
                (0..9).map(|i| i * 5 % 37).collect(),
                (0..9).map(|i| (i * 11 + 3) % 37).collect(),
            ),
        ];
        for (vocab, dim, ctx, tgt) in cases {
            let model = EmbeddingLm::new(&mut rng, vocab, dim);
            numeric_grad_check(3, |perturb| {
                let mut m = model.clone();
                if let Some((p, i, eps)) = perturb {
                    m.params_mut()[p][i] += eps;
                }
                m.loss_and_grads(&ctx, &tgt)
            });
        }
    }

    #[test]
    fn embedding_gradient_is_row_sparse() {
        let mut rng = Rng::seed_from_u64(3);
        let model = EmbeddingLm::new(&mut rng, 50, 4);
        let (_, grads) = model.loss_and_grads(&[3, 3, 9], &[1, 2, 3]);
        let demb = &grads[0];
        for row in 0..50 {
            let touched = row == 3 || row == 9;
            let nonzero = (0..4).any(|k| demb[row * 4 + k] != 0.0);
            assert_eq!(nonzero, touched, "row {row}");
        }
    }

    #[test]
    fn sgd_on_mlp_learns_a_separable_task() {
        let mut rng = Rng::seed_from_u64(4);
        let mut model = Mlp::new(&mut rng, &[2, 16, 2]);
        // Class = sign of x0.
        for _ in 0..300 {
            let x = Tensor::randn(&mut rng, &[32, 2]);
            let y: Vec<usize> = (0..32).map(|i| usize::from(x[i * 2] > 0.0)).collect();
            let (_, grads) = model.loss_and_grads(&x, &y);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.axpy(-0.5, g);
            }
        }
        let x = Tensor::randn(&mut rng, &[256, 2]);
        let y: Vec<usize> = (0..256).map(|i| usize::from(x[i * 2] > 0.0)).collect();
        assert!(model.accuracy(&x, &y) > 0.95);
    }

    #[test]
    fn lm_learns_a_deterministic_bigram() {
        let mut rng = Rng::seed_from_u64(5);
        let mut model = EmbeddingLm::new(&mut rng, 6, 8);
        // Deterministic successor: t -> (t + 1) % 6.
        let ctx: Vec<usize> = (0..60).map(|i| i % 6).collect();
        let tgt: Vec<usize> = ctx.iter().map(|t| (t + 1) % 6).collect();
        let ppl_before = model.perplexity(&ctx, &tgt);
        for _ in 0..400 {
            let (_, grads) = model.loss_and_grads(&ctx, &tgt);
            for (p, g) in model.params_mut().iter_mut().zip(&grads) {
                p.axpy(-1.0, g);
            }
        }
        let ppl_after = model.perplexity(&ctx, &tgt);
        assert!(
            ppl_after < 1.2 && ppl_before > 3.0,
            "{ppl_before} -> {ppl_after}"
        );
    }

    #[test]
    fn param_specs_align_with_params() {
        let mut rng = Rng::seed_from_u64(6);
        let mlp = Mlp::new(&mut rng, &[3, 4, 2]);
        assert_eq!(mlp.param_specs().len(), mlp.params().len());
        let lm = EmbeddingLm::new(&mut rng, 10, 3);
        assert_eq!(lm.param_specs().len(), lm.params().len());
        assert_eq!(lm.param_specs()[0].kind, LayerKind::Embedding);
    }
}
