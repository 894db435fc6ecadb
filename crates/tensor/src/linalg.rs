//! Small dense linear-algebra kernels.
//!
//! PowerSGD (gradient decomposition) needs `M·Q`, `Mᵀ·P`, and a Gram-Schmidt
//! orthogonalization of a tall matrix's columns. The training engine needs
//! plain matrix multiplication for dense layers. These routines operate on
//! row-major [`Tensor`] matrices.
//!
//! The three products are one register-tiled kernel run at the CPU's vector
//! width, and every element they return is nevertheless one scalar loop:
//! its `k` products, each fused with the running sum in one rounding
//! (`sum = a.mul_add(b, sum)`), in ascending `k` starting from `+0.0` — on
//! every CPU, bit for bit. Where the CPU has no fused multiply-add the
//! portable build still computes exactly that, through libm's `fmaf`, and
//! is several times slower. No term is skipped, so a zero factor does not
//! hide an infinite or NaN one: `0 · ∞` makes the sum NaN, as IEEE 754
//! says. (For finite operands skipping zero terms would change no bit: a
//! sum that starts at `+0.0` can never become `-0.0`, and fusing `±0.0`
//! into it is the identity.)
//!
//! Under AVX-512F a register tile is 8 rows of 32 columns, sixteen
//! accumulators; under AVX2 and in the portable build 4 rows of 16. A
//! transposed right operand (`matmul_nt`) is first packed row-major, in
//! 8 x 8 blocks read as runs of eight consecutive elements.

use crate::Tensor;

/// `C = A · B` where `A` is `m x k` and `B` is `k x n`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or either input is not a matrix.
///
/// # Examples
///
/// ```
/// use cgx_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::from_vec(&[2, 1], vec![1.0, 1.0]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.as_slice(), &[3.0, 7.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a);
    let (kb, n) = dims2(b);
    assert_eq!(ka, kb, "inner dimensions disagree: {ka} vs {kb}");
    product(m, n, ka, Strided::of(a), Strided::of(b))
}

/// `C = Aᵀ · B` where `A` is `k x m` and `B` is `k x n`.
///
/// # Panics
///
/// Panics if the row counts disagree or either input is not a matrix.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2(a);
    let (kb, n) = dims2(b);
    assert_eq!(ka, kb, "row counts disagree: {ka} vs {kb}");
    product(m, n, ka, Strided::of(a).transposed(), Strided::of(b))
}

/// `C = A · Bᵀ` where `A` is `m x k` and `B` is `n x k`.
///
/// # Panics
///
/// Panics if the column counts disagree or either input is not a matrix.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a);
    let (n, kb) = dims2(b);
    assert_eq!(ka, kb, "column counts disagree: {ka} vs {kb}");
    product(m, n, ka, Strided::of(a), Strided::of(b).transposed())
}

fn product(m: usize, n: usize, k: usize, a: Strided, b: Strided) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    gemm(m, n, k, a, b, out.as_mut_slice());
    out
}

/// A matrix operand of [`gemm`]: element `(i, j)` is `data[i * row + j * col]`,
/// so that a transpose is the same memory with the two strides exchanged.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    row: usize,
    col: usize,
}

impl<'a> Strided<'a> {
    /// The row-major matrix `t`.
    fn of(t: &'a Tensor) -> Self {
        Strided {
            data: t.as_slice(),
            row: t.shape().dim(1),
            col: 1,
        }
    }

    fn transposed(self) -> Self {
        Strided {
            row: self.col,
            col: self.row,
            ..self
        }
    }

    /// The rows from `i` on.
    fn rows_from(self, i: usize) -> Self {
        Strided {
            data: &self.data[i * self.row..],
            ..self
        }
    }
}

/// Rows of `C` finished before the strips start over. Walking a strip down
/// all of a tall `C` touches one page per row and comes back to each for
/// every strip; 64 rows are what the first-level TLB still maps.
const MC: usize = 64;

/// `C = A · B` into the row-major `m x n` `c`, `A` being `m x k` and `B`
/// `k x n` — the one product behind [`matmul`], [`matmul_tn`] and
/// [`matmul_nt`], compiled three times and run at the widest vector width
/// the CPU fuses multiply-adds at.
///
/// It keeps the module's promise — each `C[i][j]` the fused multiply-adds
/// of its products in ascending `k` — by running the vector lanes across
/// `j`: a lane performs exactly that sequence for one element, so the
/// register width changes no bit, and a tile of several rows cannot skip a
/// term for one of them.
fn gemm(m: usize, n: usize, k: usize, a: Strided, b: Strided, c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F and FMA support were just verified at runtime.
                return unsafe { gemm_avx512(m, n, k, a, b, c) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 and FMA support were just verified at runtime.
                return unsafe { gemm_avx2(m, n, k, a, b, c) };
            }
        }
    }
    gemm_portable(m, n, k, a, b, c)
}

/// [`gemm_tiled`] with tiles of 8 rows of two 16-lane registers: sixteen
/// of the 32 registers accumulate, the rest hold the operands.
///
/// # Safety
///
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn gemm_avx512(m: usize, n: usize, k: usize, a: Strided, b: Strided, c: &mut [f32]) {
    gemm_tiled::<8, 32>(m, n, k, a, b, c)
}

/// [`gemm_tiled`] with tiles of 4 rows of two 8-lane registers: eight of
/// the sixteen registers accumulate.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(m: usize, n: usize, k: usize, a: Strided, b: Strided, c: &mut [f32]) {
    gemm_tiled::<4, 16>(m, n, k, a, b, c)
}

/// [`gemm_tiled`] for a CPU without the two routes above. Its multiply-adds
/// are `f32::mul_add`, correctly rounded on every target; where the build
/// target has no fused instruction each one is a call into libm's `fmaf`,
/// several times slower than a multiply and an add.
fn gemm_portable(m: usize, n: usize, k: usize, a: Strided, b: Strided, c: &mut [f32]) {
    gemm_tiled::<4, 16>(m, n, k, a, b, c)
}

/// Covers `C` with register tiles, [`MC`] rows at a time: strips of `NR`
/// columns, then of each smaller power of two for what is left of `n` (so
/// a narrow `C` — PowerSGD's rank-wide factors — is tiled like any other);
/// down a strip, tiles of `MR` rows, then one of 4 rows if `MR` is larger
/// and 4 are left, then single rows for what is left of `m`.
#[inline(always)]
fn gemm_tiled<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: Strided,
    b: Strided,
    c: &mut [f32],
) {
    assert_eq!(c.len(), m * n, "gemm output size");
    if k == 0 {
        // Empty sums, and operands with no element to start a tile at.
        return c.fill(0.0);
    }
    // Where `B`'s columns are strided (`matmul_nt`), each strip of it is
    // packed row-major here first: `k x NR` stays in the first-level cache
    // while every tile of the strip reads it. A strip is packed again for
    // each `MC` rows.
    let mut panel = vec![0.0f32; if b.col == 1 { 0 } else { k * NR }];
    for (a_rows, c) in (0..m).step_by(MC).zip(c.chunks_mut(MC * n.max(1))) {
        let a = a.rows_from(a_rows);
        let mut j = 0;
        j = strips::<MR, NR>(j, n, k, a, b, c, &mut panel);
        j = strips::<MR, 16>(j, n, k, a, b, c, &mut panel);
        j = strips::<MR, 8>(j, n, k, a, b, c, &mut panel);
        j = strips::<MR, 4>(j, n, k, a, b, c, &mut panel);
        j = strips::<MR, 2>(j, n, k, a, b, c, &mut panel);
        strips::<MR, 1>(j, n, k, a, b, c, &mut panel);
    }
}

/// The strips of `W` columns that fit in `n` from column `j` on, down all
/// the rows of `c`; returns the first column they leave.
#[inline(always)]
fn strips<const MR: usize, const W: usize>(
    mut j: usize,
    n: usize,
    k: usize,
    a: Strided,
    b: Strided,
    c: &mut [f32],
    panel: &mut [f32],
) -> usize {
    while j + W <= n {
        let (b, b_row) = if b.col == 1 {
            (&b.data[j..], b.row)
        } else {
            pack::<W>(k, b, j, &mut panel[..k * W]);
            (&*panel, W)
        };
        let m = c.len() / n;
        let mut i = 0;
        while i + MR <= m {
            tile::<MR, W>(k, a.rows_from(i), b, b_row, &mut c[i * n + j..], n);
            i += MR;
        }
        if MR > 4 && i + 4 <= m {
            tile::<4, W>(k, a.rows_from(i), b, b_row, &mut c[i * n + j..], n);
            i += 4;
        }
        while i < m {
            tile::<1, W>(k, a.rows_from(i), b, b_row, &mut c[i * n + j..], n);
            i += 1;
        }
        j += W;
    }
    j
}

/// Columns `j..j + W` of `b` row-major into the `k x W` `panel`, where
/// `b` is a transpose (its rows 1 apart, so that each of its columns is
/// `k` consecutive elements). The panel fills in 8 x 8 blocks: eight runs
/// of eight elements, each contiguous in `b`, become eight runs contiguous
/// in the panel. What the blocks leave, the last `k % 8` rows and a strip
/// narrower than 8, is moved one element at a time.
#[inline(always)]
fn pack<const W: usize>(k: usize, b: Strided, j: usize, panel: &mut [f32]) {
    assert_eq!(b.row, 1, "a packed operand is a transpose");
    let (blocks_k, blocks_w) = (k / 8 * 8, W / 8 * 8);
    for l0 in (0..blocks_w).step_by(8) {
        for p0 in (0..blocks_k).step_by(8) {
            let mut block = [[0.0f32; 8]; 8];
            for (l, run) in block.iter_mut().enumerate() {
                run.copy_from_slice(&b.data[(j + l0 + l) * b.col + p0..][..8]);
            }
            for p in 0..8 {
                let row = &mut panel[(p0 + p) * W + l0..][..8];
                for l in 0..8 {
                    row[l] = block[l][p];
                }
            }
        }
    }
    for l in 0..W {
        let from = if l < blocks_w { blocks_k } else { 0 };
        for p in from..k {
            panel[p * W + l] = b.data[(j + l) * b.col + p];
        }
    }
}

/// One `R x W` tile of `C`, its rows `c_row` apart from `c[0]` on, from the
/// first `R` rows of `a` and the first `W` columns of the row-major `b` —
/// the only accumulation in this module, in the order its first page
/// promises: `k` innermost, ascending, one fused multiply-add each.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    k: usize,
    a: Strided,
    b: &[f32],
    b_row: usize,
    c: &mut [f32],
    c_row: usize,
) {
    // The last element of each operand the loop reads, checked once here
    // instead of at every `k` step (`k` is at least 1).
    let last = |rows: usize, row: usize, cols: usize, col: usize| {
        (rows - 1)
            .checked_mul(row)?
            .checked_add((cols - 1).checked_mul(col)?)
    };
    let (a_last, b_last) = (last(R, a.row, k, a.col), last(k, b_row, W, 1));
    assert!(
        a_last.is_some_and(|at| at < a.data.len()) && b_last.is_some_and(|at| at < b.len()),
        "tile bounds"
    );
    // The tile is rebuilt whole at each `k` step: written as an update in
    // place, LLVM leaves an 8 x 32 one in memory and fuses one lane at a
    // time.
    let mut acc = [[0.0f32; W]; R];
    for p in 0..k {
        // SAFETY: `p * b_row + W - 1 <= b_last`, in bounds by the check above.
        let b_p = unsafe { &*b.as_ptr().add(p * b_row).cast::<[f32; W]>() };
        let mut next = [[0.0f32; W]; R];
        for r in 0..R {
            // SAFETY: `r * a.row + p * a.col <= a_last`, in bounds likewise.
            let x = unsafe { *a.data.get_unchecked(r * a.row + p * a.col) };
            for l in 0..W {
                next[r][l] = x.mul_add(b_p[l], acc[r][l]);
            }
        }
        acc = next;
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * c_row..][..W].copy_from_slice(acc_r);
    }
}

/// Orthonormalizes the columns of an `m x r` matrix in place via modified
/// Gram-Schmidt (the orthogonalization step of PowerSGD's power iteration).
///
/// Columns that collapse to (near-)zero norm are replaced by a deterministic
/// unit basis vector so the factor matrix never degenerates.
///
/// # Panics
///
/// Panics if the input is not a matrix.
pub fn orthogonalize_columns(mat: &mut Tensor) {
    let (m, r) = dims2(mat);
    let data = mat.as_mut_slice();
    for j in 0..r {
        // Subtract projections onto previous columns.
        for p in 0..j {
            let mut dot = 0.0f64;
            for i in 0..m {
                dot += data[i * r + j] as f64 * data[i * r + p] as f64;
            }
            for i in 0..m {
                data[i * r + j] -= (dot as f32) * data[i * r + p];
            }
        }
        let mut norm = 0.0f64;
        for i in 0..m {
            norm += (data[i * r + j] as f64).powi(2);
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            // Degenerate column: substitute e_{j mod m}.
            for i in 0..m {
                data[i * r + j] = if i == j % m { 1.0 } else { 0.0 };
            }
        } else {
            let inv = (1.0 / norm) as f32;
            for i in 0..m {
                data[i * r + j] *= inv;
            }
        }
    }
}

fn dims2(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "expected a matrix, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use cgx_testkit::cases;

    type Gemm = fn(usize, usize, usize, Strided, Strided, &mut [f32]);

    /// Every compiled body of [`gemm`] this CPU can run, not only the one
    /// it would pick.
    fn variants() -> Vec<(&'static str, Gemm)> {
        let mut all: Vec<(&'static str, Gemm)> = vec![("portable", gemm_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                // SAFETY: AVX2 and FMA support were just verified at runtime.
                all.push(("avx2+fma", |m, n, k, a, b, c| unsafe {
                    gemm_avx2(m, n, k, a, b, c)
                }));
            }
            if has!("avx512f") && has!("fma") {
                // SAFETY: AVX-512F and FMA support were just verified at runtime.
                all.push(("avx512", |m, n, k, a, b, c| unsafe {
                    gemm_avx512(m, n, k, a, b, c)
                }));
            }
        }
        all
    }

    /// Mostly unit Gaussians; one element in eight is a signed zero, a
    /// subnormal or `f32::MAX`, whose products overflow and cancel to NaN.
    fn operand(rng: &mut Rng, len: usize) -> Vec<f32> {
        const SPECIAL: [f32; 6] = [0.0, -0.0, 1e-41, -1e-41, f32::MAX, -f32::MAX];
        (0..len)
            .map(|_| match rng.index(8) {
                0 => SPECIAL[rng.index(SPECIAL.len())],
                _ => rng.normal() as f32,
            })
            .collect()
    }

    #[test]
    fn every_variant_equals_the_scalar_sum_bit_for_bit() {
        const DIMS: [usize; 18] = [
            0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 64, 70,
        ];
        let variants = variants();
        let names: Vec<_> = variants.iter().map(|(name, _)| *name).collect();
        println!("gemm routes run: {names:?}");
        // The testkit links its own build of this crate, so its generator
        // only seeds this one: no testkit value reaches this crate's types.
        cases(400, |case| {
            let rng = &mut Rng::seed_from_u64(case.next_u64());
            let [m, n, k] = [(); 3].map(|_| DIMS[rng.index(DIMS.len())]);
            let (a, b) = (operand(rng, m * k), operand(rng, k * n));
            // The same numbers read as `m x k` or as the transpose of
            // `k x m`, as `k x n` or as the transpose of `n x k`: every
            // pairing the three products use, and the fourth.
            let rows = |data, row| Strided { data, row, col: 1 };
            let (a_nn, a_t) = (rows(&a, k), rows(&a, m).transposed());
            let (b_nn, b_t) = (rows(&b, n), rows(&b, k).transposed());
            for (a, b) in [(a_nn, b_nn), (a_t, b_nn), (a_nn, b_t), (a_t, b_t)] {
                let mut want = vec![0.0f32; m * n];
                for (at, sum) in want.iter_mut().enumerate() {
                    let (i, j) = (at / n, at % n);
                    for p in 0..k {
                        let (x, y) = (a.data[i * a.row + p * a.col], b.data[p * b.row + j * b.col]);
                        *sum = x.mul_add(y, *sum);
                    }
                }
                for (name, gemm) in &variants {
                    // Poisoned: the product must write every element.
                    let mut got = vec![1234.5f32; m * n];
                    gemm(m, n, k, a, b, &mut got);
                    for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "{name} {m}x{n}x{k} strides a {}/{} b {}/{}: element {at} is {g:e}, the scalar mul_add sum {w:e}",
                            a.row, a.col, b.row, b.col
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(matmul(&a, &b).as_slice(), b.as_slice());
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_dim_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn(&mut rng, &[5, 3]);
        let b = Tensor::randn(&mut rng, &[5, 4]);
        let c = matmul_tn(&a, &b);
        // Build Aᵀ explicitly and compare.
        let mut at = Tensor::zeros(&[3, 5]);
        for i in 0..5 {
            for j in 0..3 {
                at[j * 5 + i] = a[i * 3 + j];
            }
        }
        let c2 = matmul(&at, &b);
        assert!(c.l2_distance(&c2) < 1e-5);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(7);
        let a = Tensor::randn(&mut rng, &[5, 3]);
        let b = Tensor::randn(&mut rng, &[4, 3]);
        let c = matmul_nt(&a, &b);
        let mut bt = Tensor::zeros(&[3, 4]);
        for i in 0..4 {
            for j in 0..3 {
                bt[j * 4 + i] = b[i * 3 + j];
            }
        }
        let c2 = matmul(&a, &bt);
        assert!(c.l2_distance(&c2) < 1e-5);
    }

    #[test]
    fn orthogonalize_produces_orthonormal_columns() {
        let mut rng = Rng::seed_from_u64(5);
        let mut m = Tensor::randn(&mut rng, &[10, 4]);
        orthogonalize_columns(&mut m);
        let gram = matmul_tn(&m, &m);
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (gram[i * 4 + j] - expected).abs() < 1e-4,
                    "gram[{i},{j}] = {}",
                    gram[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn orthogonalize_handles_rank_deficiency() {
        // Two identical columns: the second must be replaced, not NaN.
        let mut m = Tensor::from_vec(&[3, 2], vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        orthogonalize_columns(&mut m);
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
        let gram = matmul_tn(&m, &m);
        assert!((gram[0] - 1.0).abs() < 1e-5);
        assert!((gram[3] - 1.0).abs() < 1e-5);
        assert!(gram[1].abs() < 1e-5);
    }
}
