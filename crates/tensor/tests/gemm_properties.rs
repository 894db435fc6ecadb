//! The three matrix products against a scalar loop, bit for bit. Every
//! `C[i][j]` must be its `k` fused multiply-adds in ascending `k` from
//! `+0.0` — the contract that lets the vectorised kernel behind `matmul` /
//! `matmul_tn` / `matmul_nt` stand in for a scalar loop on every CPU,
//! whatever its vector width. The per-variant half of this (every compiled
//! body the CPU can run, and the zero-sized dimensions a `Shape` cannot
//! express) is `linalg::tests`, which can reach the private entries.

use cgx_tensor::{matmul, matmul_nt, matmul_tn, Rng, Tensor};
use cgx_testkit::cases;

/// Tile multiples of every variant (4 or 8 rows; 16 or 32 columns; packed
/// blocks of 8), their neighbours, and sizes that are all edge.
const DIMS: [usize; 17] = [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 64, 70];

/// Mostly unit Gaussians; one element in eight is a signed zero, a
/// subnormal or `f32::MAX`, whose products overflow and cancel to NaN.
fn operand(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    const SPECIAL: [f32; 6] = [0.0, -0.0, 1e-41, -1e-41, f32::MAX, -f32::MAX];
    let data = (0..rows * cols)
        .map(|_| match rng.index(8) {
            0 => SPECIAL[rng.index(SPECIAL.len())],
            _ => rng.normal() as f32,
        })
        .collect();
    Tensor::from_vec(&[rows, cols], data)
}

fn transposed(t: &Tensor) -> Tensor {
    let (rows, cols) = t.shape().as_matrix();
    let mut out = Tensor::zeros(&[cols, rows]);
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = t[i * cols + j];
        }
    }
    out
}

/// `A · B` as a scalar loop of fused multiply-adds: ascending `k`, from
/// `+0.0`, no term skipped.
fn reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let ((m, k), (_, n)) = (a.shape().as_matrix(), b.shape().as_matrix());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] = a[i * k + p].mul_add(b[p * n + j], c[i * n + j]);
            }
        }
    }
    c
}

#[track_caller]
fn assert_same_bits(what: &str, got: &Tensor, want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: size");
    for (at, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what} {}: element {at} is {g:e}, the scalar mul_add sum {w:e}",
            got.shape()
        );
    }
}

#[test]
fn products_equal_the_scalar_sums_bit_for_bit() {
    cases(300, |rng| {
        let [m, n, k] = [(); 3].map(|_| DIMS[rng.index(DIMS.len())]);
        let (a, b) = (operand(rng, m, k), operand(rng, k, n));
        let want = reference(&a, &b);
        assert_same_bits("matmul", &matmul(&a, &b), &want);
        assert_same_bits("matmul_tn", &matmul_tn(&transposed(&a), &b), &want);
        assert_same_bits("matmul_nt", &matmul_nt(&a, &transposed(&b)), &want);
    });
}

/// A zero factor does not hide an overflowed or NaN one. Until v0.17.0
/// `matmul` and `matmul_tn` skipped every term whose left factor was zero
/// and answered 2 here where `matmul_nt` answered NaN.
#[test]
fn a_zero_factor_does_not_mask_infinity_or_nan() {
    for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        for zero in [0.0f32, -0.0] {
            // 5 x 3 · 3 x 2, one `zero · poison` term in every sum.
            let a = Tensor::from_vec(&[5, 3], [1.0, zero, 1.0].repeat(5));
            let b = Tensor::from_vec(&[3, 2], vec![1.0, 1.0, poison, poison, 1.0, 1.0]);
            for (name, c) in [
                ("matmul", matmul(&a, &b)),
                ("matmul_tn", matmul_tn(&transposed(&a), &b)),
                ("matmul_nt", matmul_nt(&a, &transposed(&b))),
            ] {
                assert!(
                    c.as_slice().iter().all(|x| x.is_nan()),
                    "{name}: {zero:?} · {poison:?} gave {:?}",
                    c.as_slice()
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "row counts disagree: 3 vs 2")]
fn matmul_tn_row_mismatch_panics() {
    matmul_tn(&Tensor::zeros(&[3, 4]), &Tensor::zeros(&[2, 4]));
}

#[test]
#[should_panic(expected = "column counts disagree: 3 vs 4")]
fn matmul_nt_column_mismatch_panics() {
    matmul_nt(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 4]));
}

#[test]
#[should_panic(expected = "expected a matrix")]
fn a_vector_operand_panics() {
    matmul(&Tensor::zeros(&[3]), &Tensor::zeros(&[3, 1]));
}

/// `cargo test --release -p cgx-tensor --test gemm_properties -- --ignored
/// --nocapture`: throughput of the three products at the embedding LM's
/// shapes (`benchmark/`'s `train_lm_adaptive`) and at PowerSGD's, whose
/// rank-wide factors never fill a tile.
#[test]
#[ignore = "timing, not a check"]
fn timing() {
    let mut rng = Rng::seed_from_u64(1);
    let shapes = [(64, 512, 128), (512, 128, 64), (64, 128, 512)];
    let skinny = [(1024, 2, 1024), (1024, 4, 1024), (1024, 1024, 4)];
    for (m, n, k) in shapes.into_iter().chain(skinny) {
        let a = Tensor::randn(&mut rng, &[m, k]);
        let b = Tensor::randn(&mut rng, &[k, n]);
        let (a_t, b_t) = (transposed(&a), transposed(&b));
        let products: [(&str, &dyn Fn() -> Tensor); 3] = [
            ("matmul", &|| matmul(&a, &b)),
            ("matmul_tn", &|| matmul_tn(&a_t, &b)),
            ("matmul_nt", &|| matmul_nt(&a, &b_t)),
        ];
        for (name, product) in products {
            let reps = 20_000_000 / (m * n * k) + 1;
            let best = (0..7)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(product());
                    }
                    start.elapsed().as_secs_f64() / reps as f64
                })
                .fold(f64::INFINITY, f64::min);
            println!(
                "{name:9} {m:4} x {n:4} x {k:4}: {:8.1} us, {:5.1} MACs/ns",
                best * 1e6,
                (m * n * k) as f64 / best / 1e9
            );
        }
    }
}
