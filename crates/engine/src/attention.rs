//! A single-head causal self-attention language model with exact manual
//! backpropagation.
//!
//! The paper's headline workloads are Transformers; this model brings the
//! defining computation — scaled dot-product attention with a causal mask,
//! residual connection, learned positional embeddings — into the functional
//! plane, so compressed data-parallel training is exercised on attention
//! gradients (Q/K/V projections behave like the paper's `qkv_net` layers,
//! the embedding like `word_emb`).
//!
//! Architecture per sequence of length `L` over vocabulary `V`, width `d`:
//!
//! ```text
//! X = E[tokens] + P[positions]                  (L x d)
//! Q = X Wq,  K = X Wk,  V' = X Wv               (L x d each)
//! S = mask(Q Kᵀ / sqrt(d)),  A = softmax(S)     (L x L, causal)
//! Z = X + A V'                                  (residual)
//! logits = Z Eoᵀ + b                            (L x V)
//! ```
//!
//! Parameters: `[E (VxD, Embedding), P (LxD, Other), Wq, Wk, Wv (DxD,
//! Linear), Eo (VxD, Linear), b (V, Bias)]`.

use crate::nn::{add_to_rows, softmax_cross_entropy, ParamSpec};
use cgx_models::LayerKind;
use cgx_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};

/// Single-head causal attention language model.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionLm {
    vocab: usize,
    dim: usize,
    max_len: usize,
    /// `[emb, pos, wq, wk, wv, out_w, out_b]`.
    params: Vec<Tensor>,
}

impl AttentionLm {
    /// Creates a model over `vocab` tokens, width `dim`, sequences up to
    /// `max_len`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(rng: &mut Rng, vocab: usize, dim: usize, max_len: usize) -> Self {
        assert!(vocab > 0 && dim > 0 && max_len > 0, "zero dimension");
        let scale = (1.0 / dim as f64).sqrt() as f32;
        let mk = |rng: &mut Rng, r: usize, c: usize, s: f32| {
            let mut t = Tensor::randn(rng, &[r, c]);
            t.scale(s);
            t
        };
        let params = vec![
            mk(rng, vocab, dim, scale),   // emb
            mk(rng, max_len, dim, scale), // pos
            mk(rng, dim, dim, scale),     // wq
            mk(rng, dim, dim, scale),     // wk
            mk(rng, dim, dim, scale),     // wv
            mk(rng, vocab, dim, scale),   // out_w
            Tensor::zeros(&[vocab]),      // out_b
        ];
        AttentionLm {
            vocab,
            dim,
            max_len,
            params,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Maximum sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Parameter tensors.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Mutable parameter tensors.
    pub fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    /// Names and kinds aligned with [`AttentionLm::params`].
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        let spec = |name: &str, kind: LayerKind| ParamSpec {
            name: name.into(),
            kind,
        };
        vec![
            spec("word_emb.weight", LayerKind::Embedding),
            spec("pos_emb.weight", LayerKind::Other),
            spec("attn.q_net.weight", LayerKind::Linear),
            spec("attn.k_net.weight", LayerKind::Linear),
            spec("attn.v_net.weight", LayerKind::Linear),
            spec("out.weight", LayerKind::Linear),
            spec("out.bias", LayerKind::Bias),
        ]
    }

    /// Embeds one token sequence (adds positional rows).
    ///
    /// # Panics
    ///
    /// Panics if the sequence exceeds `max_len` or a token is out of range.
    fn embed(&self, tokens: &[usize]) -> Tensor {
        let l = tokens.len();
        assert!(l <= self.max_len, "sequence longer than max_len");
        let d = self.dim;
        let emb = &self.params[0];
        let pos = &self.params[1];
        let mut x = Tensor::zeros(&[l, d]);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.vocab, "token {t} out of range");
            for k in 0..d {
                x[i * d + k] = emb[t * d + k] + pos[i * d + k];
            }
        }
        x
    }

    /// Forward pass for one sequence: returns `(logits, cache)` where the
    /// cache holds every intermediate needed for backward.
    fn forward_seq(&self, tokens: &[usize]) -> (Tensor, SeqCache) {
        let l = tokens.len();
        let d = self.dim;
        let x = self.embed(tokens);
        let q = matmul(&x, &self.params[2]);
        let k = matmul(&x, &self.params[3]);
        let v = matmul(&x, &self.params[4]);
        // Causal scaled scores + row softmax.
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let mut a = Tensor::zeros(&[l, l]);
        for i in 0..l {
            let mut row = vec![f32::NEG_INFINITY; l];
            let mut max = f32::NEG_INFINITY;
            for (j, r) in row.iter_mut().enumerate().take(i + 1) {
                let mut s = 0.0f32;
                for t in 0..d {
                    s += q[i * d + t] * k[j * d + t];
                }
                *r = s * inv_sqrt_d;
                max = max.max(*r);
            }
            // The row keeps its exponentials for the division.
            let mut z = 0.0f32;
            for r in row.iter_mut().take(i + 1) {
                *r = (*r - max).exp();
                z += *r;
            }
            for (j, e) in row.iter().enumerate().take(i + 1) {
                a[i * l + j] = e / z;
            }
        }
        let h = matmul(&a, &v);
        let mut zres = x.clone();
        zres.add_assign(&h);
        // logits = Z Eoᵀ + b.
        let mut logits = matmul_nt(&zres, &self.params[5]);
        add_to_rows(&mut logits, &self.params[6]);
        (
            logits,
            SeqCache {
                x,
                q,
                k,
                v,
                a,
                zres,
            },
        )
    }

    /// Mean next-token loss and per-parameter gradients over a batch of
    /// sequences. For sequence `s`, position `i` predicts `targets[s][i]`.
    ///
    /// # Panics
    ///
    /// Panics on empty batches, length mismatches, or out-of-range tokens.
    pub fn loss_and_grads(
        &self,
        sequences: &[Vec<usize>],
        targets: &[Vec<usize>],
    ) -> (f64, Vec<Tensor>) {
        assert!(!sequences.is_empty(), "empty batch");
        assert_eq!(sequences.len(), targets.len(), "batch mismatch");
        let d = self.dim;
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let mut grads: Vec<Tensor> = self
            .params
            .iter()
            .map(|p| Tensor::zeros(p.shape().dims()))
            .collect();
        let mut total_loss = 0.0f64;
        let batch = sequences.len() as f64;
        for (tokens, tgt) in sequences.iter().zip(targets) {
            assert_eq!(tokens.len(), tgt.len(), "target length mismatch");
            let l = tokens.len();
            let (logits, cache) = self.forward_seq(tokens);
            let (loss, mut dlogits) = softmax_cross_entropy(&logits, tgt);
            total_loss += loss;
            // softmax_cross_entropy averages over positions; keep that and
            // average over the batch too.
            dlogits.scale(1.0 / batch as f32);
            // Output projection.
            // dEo += dlogitsᵀ Z ; db += column sums ; dZ = dlogits Eo.
            grads[5].add_assign(&matmul_tn(&dlogits, &cache.zres));
            for i in 0..l {
                for c in 0..self.vocab {
                    grads[6][c] += dlogits[i * self.vocab + c];
                }
            }
            let dz = matmul(&dlogits, &self.params[5]);
            // Residual: dX accumulates dz directly; attention path gets dz.
            let mut dx = dz.clone();
            // H = A V: dA = dH Vᵀ ; dV = Aᵀ dH.
            let da = matmul_nt(&dz, &cache.v);
            let dv = matmul_tn(&cache.a, &dz);
            // Softmax backward per row (masked entries have A=0 already).
            let mut ds = Tensor::zeros(&[l, l]);
            for i in 0..l {
                let mut dot = 0.0f32;
                for j in 0..=i {
                    dot += da[i * l + j] * cache.a[i * l + j];
                }
                for j in 0..=i {
                    ds[i * l + j] = cache.a[i * l + j] * (da[i * l + j] - dot) * inv_sqrt_d;
                }
            }
            // S = Q Kᵀ: dQ = dS K ; dK = dSᵀ Q.
            let dq = matmul(&ds, &cache.k);
            let dk = matmul_tn(&ds, &cache.q);
            // Projections: Q = X Wq etc.
            grads[2].add_assign(&matmul_tn(&cache.x, &dq));
            grads[3].add_assign(&matmul_tn(&cache.x, &dk));
            grads[4].add_assign(&matmul_tn(&cache.x, &dv));
            dx.add_assign(&matmul_nt(&dq, &self.params[2]));
            dx.add_assign(&matmul_nt(&dk, &self.params[3]));
            dx.add_assign(&matmul_nt(&dv, &self.params[4]));
            // Embeddings: scatter dX into token rows and positional rows.
            for (i, &t) in tokens.iter().enumerate() {
                for kk in 0..d {
                    grads[0][t * d + kk] += dx[i * d + kk];
                    grads[1][i * d + kk] += dx[i * d + kk];
                }
            }
        }
        (total_loss / batch, grads)
    }

    /// Perplexity over a batch of (sequence, target) pairs.
    pub fn perplexity(&self, sequences: &[Vec<usize>], targets: &[Vec<usize>]) -> f64 {
        let mut total = 0.0f64;
        for (tokens, tgt) in sequences.iter().zip(targets) {
            let (logits, _) = self.forward_seq(tokens);
            let (loss, _) = softmax_cross_entropy(&logits, tgt);
            total += loss;
        }
        (total / sequences.len() as f64).exp()
    }
}

#[derive(Debug)]
struct SeqCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    a: Tensor,
    zres: Tensor,
}

impl crate::trainer::TrainableModel for AttentionLm {
    type Batch = (Vec<Vec<usize>>, Vec<Vec<usize>>);

    fn params(&self) -> &[Tensor] {
        AttentionLm::params(self)
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        AttentionLm::params_mut(self)
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        AttentionLm::param_specs(self)
    }

    fn loss_and_grads(&self, (seqs, tgts): &Self::Batch) -> (f64, Vec<Tensor>) {
        AttentionLm::loss_and_grads(self, seqs, tgts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MarkovChainLm;
    use crate::trainer::{train_data_parallel, LayerCompression, TrainConfig};

    fn toy_batch() -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        (
            vec![vec![0, 3, 1, 4], vec![2, 2, 0, 1]],
            vec![vec![3, 1, 4, 0], vec![2, 0, 1, 3]],
        )
    }

    #[test]
    fn attention_rows_are_causal_distributions() {
        let mut rng = Rng::seed_from_u64(1);
        let m = AttentionLm::new(&mut rng, 5, 8, 6);
        let (_, cache) = m.forward_seq(&[0, 1, 2, 3]);
        let l = 4;
        for i in 0..l {
            let mut z = 0.0f32;
            for j in 0..l {
                let a = cache.a[i * l + j];
                if j > i {
                    assert_eq!(a, 0.0, "future position attended");
                } else {
                    assert!(a >= 0.0);
                    z += a;
                }
            }
            assert!((z - 1.0).abs() < 1e-5, "row {i} sums to {z}");
        }
    }

    #[test]
    fn gradients_pass_numeric_check() {
        let mut rng = Rng::seed_from_u64(2);
        // The second case's products (5 x 37 x 37, 5 x 7 x 37, ...) cover
        // whole register tiles of `cgx_tensor`'s kernel and every edge.
        let wide = (
            vec![vec![0, 3, 1, 4, 6], vec![2, 2, 0, 1, 5]],
            vec![vec![3, 1, 4, 6, 0], vec![2, 0, 1, 5, 3]],
        );
        for ((vocab, dim), (seqs, tgts)) in [((5, 6), toy_batch()), ((7, 37), wide)] {
            let model = AttentionLm::new(&mut rng, vocab, dim, 6);
            let (_, grads) = model.loss_and_grads(&seqs, &tgts);
            let eps = 1e-3f32;
            let mut check_rng = Rng::seed_from_u64(7);
            for (p, grad) in grads.iter().enumerate() {
                for _ in 0..4 {
                    let i = check_rng.index(model.params()[p].len());
                    let mut mp = model.clone();
                    mp.params_mut()[p][i] += eps;
                    let (lp, _) = mp.loss_and_grads(&seqs, &tgts);
                    let mut mm = model.clone();
                    mm.params_mut()[p][i] -= eps;
                    let (lm, _) = mm.loss_and_grads(&seqs, &tgts);
                    let numeric = (lp - lm) / (2.0 * eps as f64);
                    let analytic = grad[i] as f64;
                    assert!(
                        (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                        "width {dim}, param {p} idx {i}: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn learns_a_deterministic_successor_pattern() {
        // Token t is always followed by (t + 1) % V: attention to the
        // previous token plus the output head can represent this exactly.
        let v = 6;
        let mut rng = Rng::seed_from_u64(3);
        let mut model = AttentionLm::new(&mut rng, v, 12, 8);
        let make_batch = |rng: &mut Rng| {
            let mut seqs = Vec::new();
            let mut tgts = Vec::new();
            for _ in 0..8 {
                let start = rng.index(v);
                let seq: Vec<usize> = (0..8).map(|i| (start + i) % v).collect();
                let tgt: Vec<usize> = (0..8).map(|i| (start + i + 1) % v).collect();
                seqs.push(seq);
                tgts.push(tgt);
            }
            (seqs, tgts)
        };
        let mut opt = crate::optimizer::SgdMomentum::new(0.5, 0.9, 0.0);
        for _ in 0..200 {
            let (seqs, tgts) = make_batch(&mut rng);
            let (_, grads) = model.loss_and_grads(&seqs, &tgts);
            opt.step(model.params_mut(), &grads);
        }
        let (seqs, tgts) = make_batch(&mut rng);
        let ppl = model.perplexity(&seqs, &tgts);
        assert!(ppl < 1.3, "perplexity {ppl}");
    }

    #[test]
    fn trains_under_compressed_data_parallel_sgd() {
        // Markov-chain sequences, 2 workers, CGX 4-bit with filters: the
        // attention LM must beat the uniform-perplexity baseline clearly.
        let chain = MarkovChainLm::new(20, 5.0, 9);
        let mut rng = Rng::seed_from_u64(4);
        let model = AttentionLm::new(&mut rng, 20, 12, 8);
        let sample = move |r: &mut Rng| {
            let mut seqs = Vec::new();
            let mut tgts = Vec::new();
            for _ in 0..6 {
                let (ctx, tgt) = chain.sample_batch(r, 8);
                seqs.push(ctx);
                tgts.push(tgt);
            }
            (seqs, tgts)
        };
        let cfg = TrainConfig {
            lr: 0.4,
            clip: Some(5.0),
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(2, 150)
        };
        let (trained, _) = train_data_parallel(&model, sample, &cfg).unwrap();
        let eval_chain = MarkovChainLm::new(20, 5.0, 9);
        let mut eval_rng = Rng::seed_from_u64(55);
        let mut seqs = Vec::new();
        let mut tgts = Vec::new();
        for _ in 0..20 {
            let (c, t) = eval_chain.sample_batch(&mut eval_rng, 8);
            seqs.push(c);
            tgts.push(t);
        }
        let ppl = trained.perplexity(&seqs, &tgts);
        assert!(ppl < 14.0, "perplexity {ppl} vs uniform 20");
    }

    #[test]
    fn embedding_param_is_classified_for_adaptive_compression() {
        let mut rng = Rng::seed_from_u64(5);
        let m = AttentionLm::new(&mut rng, 10, 4, 4);
        let specs = m.param_specs();
        assert_eq!(specs[0].kind, LayerKind::Embedding);
        assert_eq!(specs.len(), m.params().len());
    }

    #[test]
    #[should_panic(expected = "sequence longer than max_len")]
    fn overlong_sequence_rejected() {
        let mut rng = Rng::seed_from_u64(6);
        let m = AttentionLm::new(&mut rng, 5, 4, 3);
        let _ = m.forward_seq(&[0, 1, 2, 3]);
    }
}
