//! Property-based tests over the training substrate: loss/gradient
//! identities that must hold for arbitrary shapes, batches, and seeds.

use cgx::engine::nn::{softmax_cross_entropy, Mlp};
use cgx::engine::{clip_global_norm, EmbeddingLm, LrSchedule, SgdMomentum};
use cgx::tensor::Tensor;
use cgx_testkit::cases;

#[test]
fn softmax_ce_gradient_rows_sum_to_zero() {
    cases(48, |rng| {
        let (batch, classes) = (rng.range(1..12), rng.range(2..10));
        let logits = Tensor::randn(rng, &[batch, classes]);
        let labels: Vec<usize> = (0..batch).map(|_| rng.index(classes)).collect();
        let (loss, d) = softmax_cross_entropy(&logits, &labels);
        assert!(loss >= 0.0 && loss.is_finite());
        for i in 0..batch {
            let row_sum: f32 = (0..classes).map(|j| d[i * classes + j]).sum();
            assert!(row_sum.abs() < 1e-5, "row {i} sums to {row_sum}");
            // The label entry is the only negative direction of the row's
            // dominant mass: p_y - 1 <= 0.
            assert!(d[i * classes + labels[i]] <= 1e-6);
        }
    });
}

#[test]
fn mlp_gradients_are_finite_for_random_architectures() {
    cases(48, |rng| {
        let (input, hidden, classes) = (rng.range(1..8), rng.range(1..12), rng.range(2..6));
        let batch = rng.range(1..8);
        let model = Mlp::new(rng, &[input, hidden, classes]);
        let x = Tensor::randn(rng, &[batch, input]);
        let y: Vec<usize> = (0..batch).map(|_| rng.index(classes)).collect();
        let (loss, grads) = model.loss_and_grads(&x, &y);
        assert!(loss.is_finite());
        assert_eq!(grads.len(), model.params().len());
        for (g, p) in grads.iter().zip(model.params()) {
            assert_eq!(g.shape(), p.shape());
            assert!(g.as_slice().iter().all(|v| v.is_finite()));
        }
    });
}

#[test]
fn clip_global_norm_enforces_the_bound() {
    cases(48, |rng| {
        let max_norm = rng.uniform_range(0.1, 10.0);
        let mut grads: Vec<Tensor> = (0..rng.range(1..6))
            .map(|_| {
                let len = rng.range(1..50);
                Tensor::randn(rng, &[len])
            })
            .collect();
        let before: f64 = grads.iter().map(Tensor::norm2_sq).sum::<f64>().sqrt();
        let reported = clip_global_norm(&mut grads, max_norm);
        assert!((reported - before).abs() < 1e-6 * before.max(1.0));
        let after: f64 = grads.iter().map(Tensor::norm2_sq).sum::<f64>().sqrt();
        assert!(after <= max_norm * (1.0 + 1e-4));
        if before <= max_norm {
            assert!((after - before).abs() < 1e-9, "no-op expected");
        }
    });
}

#[test]
fn sgd_with_zero_gradient_only_decays() {
    cases(48, |rng| {
        let lr = rng.uniform_range(0.001, 0.5) as f32;
        let wd = rng.uniform_range(0.0, 0.5) as f32;
        let start = Tensor::randn(rng, &[16]);
        let mut params = vec![start.clone()];
        let grads = vec![Tensor::zeros(&[16])];
        let mut opt = SgdMomentum::new(lr, 0.9, wd);
        opt.step(&mut params, &grads);
        for (a, b) in params[0].as_slice().iter().zip(start.as_slice()) {
            let expected = b * (1.0 - lr * wd);
            assert!((a - expected).abs() < 1e-6);
        }
    });
}

fn assert_lr_positive_and_bounded(base: f32, step: usize) {
    for sched in [
        LrSchedule::Constant,
        LrSchedule::StepDecay {
            every: 100,
            gamma: 0.9,
        },
        LrSchedule::Cosine {
            total: 10_000,
            min_lr: base * 0.01,
        },
        LrSchedule::WarmupInvSqrt { warmup: 500 },
    ] {
        let lr = sched.lr_at(base, step);
        assert!(lr > 0.0, "{sched:?} at {base}, {step}");
        assert!(
            lr <= base * (1.0 + 1e-6),
            "{sched:?} at {step}: {lr} > {base}"
        );
    }
}

#[test]
fn lr_schedules_stay_positive_and_bounded() {
    // The one case proptest ever saved for this property: 0.001 * 0.9^922
    // underflows an f32, which `lr_at` clamps to the smallest positive rate.
    assert_lr_positive_and_bounded(0.001, 92_200);
    cases(48, |rng| {
        assert_lr_positive_and_bounded(
            rng.uniform_range(0.001, 10.0) as f32,
            rng.range(0..100_000),
        );
    });
}

#[test]
fn embedding_lm_gradient_sparsity_matches_batch_tokens() {
    cases(48, |rng| {
        let (vocab, dim, batch) = (rng.range(4..30), rng.range(1..8), rng.range(1..10));
        let model = EmbeddingLm::new(rng, vocab, dim);
        let ctx: Vec<usize> = (0..batch).map(|_| rng.index(vocab)).collect();
        let tgt: Vec<usize> = (0..batch).map(|_| rng.index(vocab)).collect();
        let (_, grads) = model.loss_and_grads(&ctx, &tgt);
        let demb = &grads[0];
        for row in (0..vocab).filter(|row| !ctx.contains(row)) {
            // Untouched rows must be exactly zero; touched rows are almost
            // surely nonzero but could vanish numerically — only assert the
            // safe direction.
            let nonzero = (0..dim).any(|k| demb[row * dim + k] != 0.0);
            assert!(!nonzero, "row {row} should be zero");
        }
    });
}

/// `softmax_cross_entropy` as it was computed one element at a time,
/// before its `exp` ran in vector lanes.
fn scalar_softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    let (b, c) = logits.shape().as_matrix();
    let mut dlogits = Tensor::zeros(&[b, c]);
    let mut loss = 0.0f64;
    let mut exp = vec![0.0f64; c];
    let rows = logits.as_slice().chunks_exact(c);
    let d_rows = dlogits.as_mut_slice().chunks_exact_mut(c);
    for ((row, d_row), &y) in rows.zip(d_rows).zip(labels) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x));
        for (e, x) in exp.iter_mut().zip(row) {
            *e = ((x - max) as f64).exp();
        }
        let z: f64 = exp.iter().sum();
        loss += -(exp[y] / z).ln();
        for (j, (d, e)) in d_row.iter_mut().zip(&exp).enumerate() {
            let p = e / z;
            *d = ((p - f64::from(u8::from(j == y))) / b as f64) as f32;
        }
    }
    (loss / b as f64, dlogits)
}

#[test]
fn softmax_ce_equals_its_scalar_form_bit_for_bit() {
    // Widths off and on the kernel's 4 lanes, up to past the LM's 512
    // classes; batches up to the LM's 64.
    const WIDTHS: [usize; 10] = [1, 2, 3, 7, 8, 9, 15, 17, 64, 515];
    const BATCHES: [usize; 7] = [1, 3, 7, 8, 9, 17, 64];
    cases(60, |rng| {
        let c = WIDTHS[rng.index(WIDTHS.len())];
        let b = BATCHES[rng.index(BATCHES.len())];
        let mut logits = Tensor::randn(rng, &[b, c]);
        logits.scale([0.1, 3.0, 30.0][rng.index(3)]);
        // A NaN or `+∞` makes the loss NaN, which would hide every other
        // row's rounding from the comparison: one case in four has them.
        let non_finite = rng.index(4) == 0;
        for row in logits.as_mut_slice().chunks_exact_mut(c) {
            let at = rng.index(c);
            match rng.index(6) {
                0 => row[at] = f32::NEG_INFINITY,
                // Tied maxima.
                1 => {
                    let max = row.iter().fold(f32::NEG_INFINITY, |m, x| m.max(*x));
                    row.iter_mut().step_by(2).for_each(|x| *x = max);
                }
                // Every logit but one 600 below the maximum: below the
                // kernel's lanes, which hand them to `f64::exp`.
                2 => {
                    row.iter_mut().for_each(|x| *x = -600.0 + *x * 1e-3);
                    row[at] = 0.0;
                }
                // A NaN, which the maximum passes over, or `+∞`.
                3 if non_finite => row[at] = f32::from_bits(0x7fc0_1234),
                4 if non_finite => row[at] = f32::INFINITY,
                _ => {}
            }
        }
        let labels: Vec<usize> = (0..b).map(|_| rng.index(c)).collect();
        let (loss, d) = softmax_cross_entropy(&logits, &labels);
        let (want_loss, want_d) = scalar_softmax_cross_entropy(&logits, &labels);
        // Bit for bit; a NaN's payload is not a value.
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        assert!(
            same(loss, want_loss),
            "{b}x{c}: loss {loss:e}, scalar {want_loss:e}"
        );
        for (at, (g, w)) in d.as_slice().iter().zip(want_d.as_slice()).enumerate() {
            assert!(
                same(f64::from(*g), f64::from(*w)),
                "{b}x{c}: dlogits[{at}] is {g:e}, scalar {w:e}"
            );
        }
    });
}
