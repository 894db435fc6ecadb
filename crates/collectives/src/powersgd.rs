//! Factored PowerSGD Allreduce (the associative path).
//!
//! PowerSGD's factors sum linearly, so — unlike quantization — it composes
//! with a plain Allreduce: all-reduce `P = M·Q`, orthogonalize (identical
//! deterministic result on every rank), compute `Q = Mᵀ·P`, all-reduce `Q`,
//! reconstruct `P·Qᵀ`. This is how PyTorch DDP integrates it, and the
//! comparison point for Table 6 / Figure 7.

use crate::engine::CommEngine;
use crate::error::CommError;
use crate::reduce::{Algorithm, AllreduceStats};
use crate::transport::Transport;
use cgx_compress::{NoneCompressor, ScratchPool};
use cgx_tensor::{matmul, matmul_tn, orthogonalize_columns, Rng, Tensor};

/// Per-layer PowerSGD state: the warm-started right factor.
#[derive(Debug, Clone, Default)]
pub struct PowerSgdState {
    q: Option<Tensor>,
}

impl PowerSgdState {
    /// Fresh state (Q initialized on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Distributed PowerSGD Allreduce of `grad` across all ranks; returns the
/// *mean* low-rank approximation of the summed gradient.
///
/// All ranks must seed `Q` identically, which is guaranteed here by
/// deriving it from a rank-independent RNG stream (`seed`). Both factors
/// reduce losslessly through a [`CommEngine`], which draws one `next_u64`
/// from `rng` per factor and its encode buffers from `pool`.
///
/// # Errors
///
/// Propagates transport failures.
pub fn allreduce_powersgd(
    t: &dyn Transport,
    grad: &Tensor,
    rank_r: usize,
    state: &mut PowerSgdState,
    seed: u64,
    rng: &mut Rng,
    pool: &ScratchPool,
) -> Result<(Tensor, AllreduceStats), CommError> {
    let n = t.world() as f32;
    let (m, ncols) = grad.shape().as_matrix();
    let r = rank_r.min(m).min(ncols).max(1);
    let mat = grad.clone().reshape(&[m, ncols]);
    let q_ok = state
        .q
        .as_ref()
        .map(|q| q.shape().dims() == [ncols, r])
        .unwrap_or(false);
    if !q_ok {
        // Rank-independent init so every worker starts from the same Q.
        let mut shared = Rng::seed_from_u64(seed);
        state.q = Some(Tensor::randn(&mut shared, &[ncols, r]));
    }
    let q_prev = state.q.as_ref().expect("initialized Q");

    let mut eng = CommEngine::with_defaults(t, pool.clone());
    let sra = Algorithm::ScatterReduceAllgather;
    // P = M Q, all-reduced and averaged.
    let p_local = matmul(&mat, q_prev);
    let (mut p, s1, raw) = eng.allreduce(sra, &p_local, Box::new(NoneCompressor::new()), rng)?;
    p.scale(1.0 / n);
    orthogonalize_columns(&mut p);
    // Q = Mᵀ P, all-reduced and averaged.
    let q_local = matmul_tn(&mat, &p);
    let (mut q, s2, _) = eng.allreduce(sra, &q_local, raw, rng)?;
    q.scale(1.0 / n);
    state.q = Some(q.clone());
    // Reconstruct mean gradient = P Qᵀ.
    let mut qt = Tensor::zeros(&[r, ncols]);
    for i in 0..ncols {
        for j in 0..r {
            qt[j * ncols + i] = q[i * r + j];
        }
    }
    let out = matmul(&p, &qt).reshape(grad.shape().dims());
    let mut stats = s1;
    stats.merge(&s2);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ThreadCluster;

    #[test]
    fn recovers_mean_of_shared_low_rank_gradient() {
        // All ranks hold the same rank-2 matrix; the mean equals it, and
        // rank-2 PowerSGD should recover it almost exactly.
        let pool = ScratchPool::new();
        let results = ThreadCluster::run(4, |t| {
            let mut shared = Rng::seed_from_u64(42);
            let u = Tensor::randn(&mut shared, &[12, 2]);
            let v = Tensor::randn(&mut shared, &[2, 10]);
            let grad = matmul(&u, &v);
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let mut st = PowerSgdState::new();
            let mut out = Tensor::zeros(&[12, 10]);
            for _ in 0..4 {
                out = allreduce_powersgd(&t, &grad, 2, &mut st, 7, &mut rng, &pool)
                    .unwrap()
                    .0;
            }
            (grad, out)
        })
        .unwrap();
        for (grad, out) in &results {
            let rel = out.l2_distance(grad) / grad.norm2();
            assert!(rel < 1e-2, "relative error {rel}");
        }
    }

    #[test]
    fn all_ranks_agree_bitwise() {
        let pool = ScratchPool::new();
        let results = ThreadCluster::run(3, |t| {
            let mut rng = Rng::seed_from_u64(900 + t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[16, 8]);
            let mut st = PowerSgdState::new();
            allreduce_powersgd(&t, &grad, 4, &mut st, 11, &mut rng, &pool)
                .unwrap()
                .0
        })
        .unwrap();
        assert_eq!(results[0].as_slice(), results[1].as_slice());
        assert_eq!(results[0].as_slice(), results[2].as_slice());
    }

    #[test]
    fn traffic_is_rank_r_factors_not_full_matrix() {
        let (m, ncols, r) = (64usize, 48usize, 4usize);
        let pool = ScratchPool::new();
        let stats = ThreadCluster::run(2, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[m, ncols]);
            let mut st = PowerSgdState::new();
            allreduce_powersgd(&t, &grad, r, &mut st, 3, &mut rng, &pool)
                .unwrap()
                .1
        })
        .unwrap();
        let full = m * ncols * 4;
        for s in &stats {
            assert!(
                s.bytes_sent < full / 2,
                "factored traffic {} vs dense {full}",
                s.bytes_sent
            );
        }
    }
}
