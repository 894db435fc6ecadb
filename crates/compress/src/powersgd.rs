//! PowerSGD: low-rank gradient decomposition via power iteration.
//!
//! Decomposes the gradient matrix `M (m x n)` into `P (m x r)` and
//! `Q (n x r)` with `M ≈ P·Qᵀ`, using one step of subspace (power) iteration
//! warm-started from the previous step's `Q` (Vogels et al., 2019). The
//! compressed payload carries `P` and `Q` as raw `f32`s, so compression is
//! `(m·n) / (r·(m+n))` — up to ~100x for large square layers.
//!
//! Unlike quantization, the `P`/`Q` factors sum linearly *before*
//! orthogonalization, so the scheme is associative and works with plain
//! MPI/NCCL Allreduce — the property the paper credits for PowerSGD's
//! adoption in PyTorch DDP. Here it runs through the engine like every
//! other codec: each rank's payload is decoded and summed.

use crate::{f32s_to_bytes, read_f32s_le, Compressor, Encoded, PayloadError, ScratchPool};
use cgx_tensor::{matmul, matmul_tn, orthogonalize_columns, Rng, Shape, Tensor};

/// Warm-started rank-`r` PowerSGD compressor.
///
/// One instance per layer: the warm-start factor `Q` persists across calls
/// and must track a single tensor shape.
///
/// # Examples
///
/// ```
/// use cgx_compress::{Compressor, PowerSgdCompressor};
/// use cgx_tensor::{Rng, Tensor};
/// let mut rng = Rng::seed_from_u64(0);
/// let g = Tensor::randn(&mut rng, &[32, 16]);
/// let mut p = PowerSgdCompressor::new(4);
/// let enc = p.compress(&g, &mut rng);
/// assert_eq!(p.decompress(&enc).unwrap().shape(), g.shape());
/// ```
#[derive(Debug)]
pub struct PowerSgdCompressor {
    rank: usize,
    /// Warm-started right factor from the previous step (n x r).
    q_state: Option<Tensor>,
}

impl PowerSgdCompressor {
    /// Creates a rank-`rank` compressor.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        PowerSgdCompressor {
            rank,
            q_state: None,
        }
    }

    /// The decomposition rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn effective_rank(&self, m: usize, n: usize) -> usize {
        self.rank.min(m).min(n)
    }
}

impl Compressor for PowerSgdCompressor {
    fn name(&self) -> String {
        format!("powersgd(r{})", self.rank)
    }

    fn encode(
        &mut self,
        shape: Shape,
        _offset: usize,
        data: &[f32],
        rng: &mut Rng,
        pool: &ScratchPool,
    ) -> Encoded {
        let (m, n) = shape.as_matrix();
        let r = self.effective_rank(m, n);
        let mat = Tensor::from_vec(&[m, n], data.to_vec());
        // Reuse warm-started Q if the shape still matches; otherwise init.
        let q_ok = self
            .q_state
            .as_ref()
            .map(|q| q.shape().dims() == [n, r])
            .unwrap_or(false);
        if !q_ok {
            self.q_state = Some(Tensor::randn(rng, &[n, r]));
        }
        let q_prev = self.q_state.as_ref().expect("q_state initialized");
        // Power iteration step: P = M Q; orthogonalize P; Q = Mᵀ P.
        let mut p = matmul(&mat, q_prev);
        orthogonalize_columns(&mut p);
        let q = {
            // Mᵀ P computed as matmul_tn(M, P) with M as (m x n): Mᵀ is n x m.
            matmul_tn(&mat, &p)
        };
        self.q_state = Some(q.clone());
        // Payload: [m, n, r] dims then P then Q, all f32.
        let mut floats = Vec::with_capacity(3 + (m + n) * r);
        floats.push(m as f32);
        floats.push(n as f32);
        floats.push(r as f32);
        floats.extend_from_slice(p.as_slice());
        floats.extend_from_slice(q.as_slice());
        Encoded::new(shape, f32s_to_bytes(&floats, pool))
    }

    /// The 12-byte header `[m, n, r]` must hold positive integers with
    /// `m·n = out.len()` and `r` the rank this codec uses for them, and
    /// the factors after it `(m + n)·r` floats.
    fn decode(&self, enc: &Encoded, out: &mut [f32], add: bool) -> Result<(), PayloadError> {
        let (mut header, payload) = ([0.0f32; 3], enc.payload());
        read_f32s_le(payload.get(..12).ok_or(PayloadError::Short)?, &mut header)?;
        let dim = |d: f32| (d.is_finite() && d >= 1.0 && d.fract() == 0.0).then_some(d as usize);
        let (m, n) = match (dim(header[0]), dim(header[1])) {
            (Some(m), Some(n)) if m.checked_mul(n) == Some(out.len()) => (m, n),
            _ => return Err(PayloadError::BadHeader),
        };
        let r = self.effective_rank(m, n);
        if dim(header[2]) != Some(r) {
            return Err(PayloadError::BadHeader);
        }
        let mut floats = vec![0.0f32; (m + n) * r];
        read_f32s_le(&payload[12..], &mut floats)?;
        let p = Tensor::from_vec(&[m, r], floats[..m * r].to_vec());
        let q = Tensor::from_vec(&[n, r], floats[m * r..].to_vec());
        // M = P Qᵀ. Compute via matmul with Q transposed: (m x r)·(r x n).
        let mut qt = Tensor::zeros(&[r, n]);
        for i in 0..n {
            for j in 0..r {
                qt[j * n + i] = q[i * r + j];
            }
        }
        let rec = matmul(&p, &qt);
        for (o, v) in out.iter_mut().zip(rec.as_slice()) {
            *o = if add { *o + v } else { *v };
        }
        Ok(())
    }

    fn compressed_bytes(&self, n_elems: usize) -> usize {
        // Approximates the matrix as square-ish; exact size depends on shape,
        // so prefer measuring the Encoded when the shape is known.
        let side = (n_elems as f64).sqrt().round() as usize;
        let m = side.max(1);
        let n = n_elems.div_ceil(m);
        let r = self.effective_rank(m, n);
        (3 + (m + n) * r) * 4
    }

    /// Unknown: the payload's length is its matrix's, which `n` alone
    /// does not give, so PowerSGD payloads are never packed.
    fn extent(&self, _n: usize, _bytes: &[u8]) -> Option<usize> {
        None
    }

    fn kernel_cost_per_element(&self) -> f64 {
        // Two GEMMs + orthogonalization per step: several times more than
        // a quantization pass (paper Section 2.3, Technical Issue 1).
        6.0e-11 * self.rank as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_recovers_rank_1_matrix() {
        let mut rng = Rng::seed_from_u64(1);
        // Outer product u vᵀ has rank 1.
        let u = Tensor::randn(&mut rng, &[8, 1]);
        let v = Tensor::randn(&mut rng, &[1, 6]);
        let m = matmul(&u, &v);
        let mut c = PowerSgdCompressor::new(1);
        let enc = c.compress(&m, &mut rng);
        let rt = c.decompress(&enc).unwrap();
        assert!(rt.l2_distance(&m) / m.norm2() < 1e-4);
    }

    #[test]
    fn warm_start_improves_approximation() {
        let mut rng = Rng::seed_from_u64(2);
        // A fixed low-rank-plus-noise matrix compressed repeatedly: the
        // warm-started subspace converges, shrinking the error.
        let u = Tensor::randn(&mut rng, &[30, 2]);
        let v = Tensor::randn(&mut rng, &[2, 20]);
        let mut base = matmul(&u, &v);
        // Without the noise both errors would be f32 rounding alone, and
        // their order an accident of where the products round.
        base.axpy(1e-4, &Tensor::randn(&mut rng, &[30, 20]));
        let mut c = PowerSgdCompressor::new(2);
        let mut first_err = None;
        let mut last_err = 0.0;
        for _ in 0..8 {
            let enc = c.compress(&base, &mut rng);
            let rt = c.decompress(&enc).unwrap();
            last_err = rt.l2_distance(&base);
            first_err.get_or_insert(last_err);
        }
        assert!(
            last_err <= first_err.unwrap(),
            "warm start should not hurt: {first_err:?} -> {last_err}"
        );
        assert!(last_err / base.norm2() < 1e-3);
    }

    #[test]
    fn payload_shrinks_vs_dense() {
        let mut rng = Rng::seed_from_u64(3);
        let g = Tensor::randn(&mut rng, &[256, 256]);
        let mut c = PowerSgdCompressor::new(4);
        let enc = c.compress(&g, &mut rng);
        let dense = 256 * 256 * 4;
        assert!(enc.payload_bytes() * 20 < dense, "{}", enc.payload_bytes());
    }

    #[test]
    fn vector_gradients_fold_to_row() {
        let mut rng = Rng::seed_from_u64(4);
        let g = Tensor::randn(&mut rng, &[100]);
        let mut c = PowerSgdCompressor::new(4);
        let enc = c.compress(&g, &mut rng);
        let rt = c.decompress(&enc).unwrap();
        assert_eq!(rt.shape(), g.shape());
        // Rank >= 1 on a 1 x 100 matrix is exact.
        assert!(rt.l2_distance(&g) / g.norm2() < 1e-4);
    }

    #[test]
    fn rank_capped_by_matrix_dims() {
        let mut rng = Rng::seed_from_u64(6);
        let g = Tensor::randn(&mut rng, &[3, 50]);
        let mut c = PowerSgdCompressor::new(16);
        let enc = c.compress(&g, &mut rng);
        // Effective rank 3 => payload = (3 + (3+50)*3) * 4 bytes.
        assert_eq!(enc.payload_bytes(), (3 + 53 * 3) * 4);
        // Full-rank factorization reconstructs exactly (up to fp error).
        let rt = c.decompress(&enc).unwrap();
        assert!(rt.l2_distance(&g) / g.norm2() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        PowerSgdCompressor::new(0);
    }

    #[test]
    fn name_shows_rank() {
        assert_eq!(PowerSgdCompressor::new(8).name(), "powersgd(r8)");
    }
}
