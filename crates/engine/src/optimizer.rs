//! Optimizers and gradient clipping.

use cgx_tensor::Tensor;

/// SGD with classical momentum and optional decoupled weight decay.
///
/// # Examples
///
/// ```
/// use cgx_engine::SgdMomentum;
/// use cgx_tensor::Tensor;
/// let mut opt = SgdMomentum::new(0.1, 0.9, 0.0);
/// let mut params = vec![Tensor::from_slice(&[1.0])];
/// let grads = vec![Tensor::from_slice(&[1.0])];
/// opt.step(&mut params, &grads);
/// assert!((params[0][0] - 0.9).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl SgdMomentum {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum` is outside `[0, 1)`, or
    /// `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        SgdMomentum {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update: `v = m*v + g`, `p -= lr * (v + wd * p)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` disagree in length or shapes change
    /// between calls.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads mismatch");
        if self.velocity.is_empty() {
            self.velocity = grads
                .iter()
                .map(|g| Tensor::zeros(g.shape().dims()))
                .collect();
        }
        assert_eq!(self.velocity.len(), params.len(), "parameter count changed");
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            v.scale(self.momentum);
            v.add_assign(g);
            if self.weight_decay > 0.0 {
                p.scale(1.0 - self.lr * self.weight_decay);
            }
            p.axpy(-self.lr, v);
        }
    }
}

/// Adam optimizer (Kingma & Ba) — the workhorse for the paper's
/// Transformer recipes, with bias correction and decoupled weight decay
/// (AdamW-style).
///
/// # Examples
///
/// ```
/// use cgx_engine::optimizer::Adam;
/// use cgx_tensor::Tensor;
/// let mut opt = Adam::new(0.01);
/// let mut params = vec![Tensor::from_slice(&[1.0])];
/// let grads = vec![Tensor::from_slice(&[10.0])];
/// opt.step(&mut params, &grads);
/// assert!(params[0][0] < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard betas (0.9, 0.999) and eps 1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Creates Adam with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub(crate) fn with_params(
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas in [0,1)"
        );
        assert!(eps > 0.0, "eps must be positive");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one bias-corrected Adam update.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` disagree in length or shapes change
    /// between calls.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads mismatch");
        if self.m.is_empty() {
            self.m = grads
                .iter()
                .map(|g| Tensor::zeros(g.shape().dims()))
                .collect();
            self.v = grads
                .iter()
                .map(|g| Tensor::zeros(g.shape().dims()))
                .collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            if self.weight_decay > 0.0 {
                p.scale(1.0 - self.lr * self.weight_decay);
            }
            for i in 0..p.len() {
                let gi = g[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * gi;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * gi * gi;
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

/// Learning-rate schedules used by the training recipes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `gamma` every `every` steps.
    StepDecay {
        /// Decay interval in steps.
        every: usize,
        /// Multiplicative factor per interval.
        gamma: f32,
    },
    /// Cosine annealing from the base LR to `min_lr` over `total` steps.
    Cosine {
        /// Total schedule length.
        total: usize,
        /// Floor learning rate.
        min_lr: f32,
    },
    /// Linear warmup over `warmup` steps, then inverse-sqrt decay
    /// (the Transformer recipe).
    WarmupInvSqrt {
        /// Warmup length in steps.
        warmup: usize,
    },
}

impl LrSchedule {
    /// The learning rate at `step` (0-based) for a base rate `base`.
    ///
    /// The result is clamped to `f32::MIN_POSITIVE` so that geometric
    /// decays cannot underflow to an (invalid) zero rate at extreme step
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's parameters are degenerate (zero interval,
    /// zero total, zero warmup).
    pub fn lr_at(&self, base: f32, step: usize) -> f32 {
        let lr = match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, gamma } => {
                assert!(every > 0, "zero decay interval");
                base * gamma.powi((step / every) as i32)
            }
            LrSchedule::Cosine { total, min_lr } => {
                assert!(total > 0, "zero schedule length");
                let t = (step.min(total)) as f32 / total as f32;
                min_lr + 0.5 * (base - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
            LrSchedule::WarmupInvSqrt { warmup } => {
                assert!(warmup > 0, "zero warmup");
                let s = (step + 1) as f32;
                let w = warmup as f32;
                base * (s / w).min((w / s).sqrt())
            }
        };
        lr.max(f32::MIN_POSITIVE)
    }
}

/// Clips gradients so their *global* L2 norm does not exceed `max_norm`
/// (paper Technical Issue 3: clipping requires the full synchronized
/// gradient before the update). Returns the pre-clip norm.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_global_norm(grads: &mut [Tensor], max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total: f64 = grads.iter().map(Tensor::norm2_sq).sum::<f64>().sqrt();
    if total > max_norm {
        let scale = (max_norm / total) as f32;
        for g in grads.iter_mut() {
            g.scale(scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = SgdMomentum::new(1.0, 0.5, 0.0);
        let mut p = vec![Tensor::from_slice(&[0.0])];
        let g = vec![Tensor::from_slice(&[1.0])];
        opt.step(&mut p, &g); // v=1, p=-1
        opt.step(&mut p, &g); // v=1.5, p=-2.5
        assert!((p[0][0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = SgdMomentum::new(0.1, 0.0, 1.0);
        let mut p = vec![Tensor::from_slice(&[10.0])];
        let g = vec![Tensor::from_slice(&[0.0])];
        opt.step(&mut p, &g);
        assert!((p[0][0] - 9.0).abs() < 1e-5);
    }

    #[test]
    fn clip_rescales_only_when_needed() {
        let mut g = vec![Tensor::from_slice(&[3.0]), Tensor::from_slice(&[4.0])];
        let norm = clip_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-9);
        let after: f64 = g.iter().map(Tensor::norm2_sq).sum::<f64>();
        assert!((after.sqrt() - 1.0).abs() < 1e-5);
        // Already small: untouched.
        let mut g2 = vec![Tensor::from_slice(&[0.1])];
        clip_global_norm(&mut g2, 1.0);
        assert_eq!(g2[0][0], 0.1);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        SgdMomentum::new(0.0, 0.9, 0.0);
    }

    #[test]
    fn adam_moves_against_gradient_with_unit_scale() {
        // Adam's first step is ~lr in the gradient direction regardless of
        // gradient magnitude.
        let mut opt = Adam::new(0.1);
        let mut p = vec![Tensor::from_slice(&[0.0, 0.0])];
        let g = vec![Tensor::from_slice(&[1000.0, -0.001])];
        opt.step(&mut p, &g);
        assert!((p[0][0] + 0.1).abs() < 1e-3, "{}", p[0][0]);
        assert!((p[0][1] - 0.1).abs() < 1e-2, "{}", p[0][1]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x - 3)^2.
        let mut opt = Adam::new(0.2);
        let mut p = vec![Tensor::from_slice(&[0.0])];
        for _ in 0..300 {
            let g = vec![Tensor::from_slice(&[2.0 * (p[0][0] - 3.0)])];
            opt.step(&mut p, &g);
        }
        assert!((p[0][0] - 3.0).abs() < 0.05, "{}", p[0][0]);
    }

    #[test]
    fn adam_weight_decay_shrinks_params() {
        let mut opt = Adam::with_params(0.1, 0.9, 0.999, 1e-8, 1.0);
        let mut p = vec![Tensor::from_slice(&[10.0])];
        let g = vec![Tensor::from_slice(&[0.0])];
        opt.step(&mut p, &g);
        assert!(p[0][0] < 10.0 && p[0][0] > 8.5);
    }

    #[test]
    fn schedules_have_expected_shapes() {
        let base = 1.0;
        assert_eq!(LrSchedule::Constant.lr_at(base, 1000), 1.0);
        let sd = LrSchedule::StepDecay {
            every: 10,
            gamma: 0.5,
        };
        assert_eq!(sd.lr_at(base, 0), 1.0);
        assert_eq!(sd.lr_at(base, 10), 0.5);
        assert_eq!(sd.lr_at(base, 25), 0.25);
        let cos = LrSchedule::Cosine {
            total: 100,
            min_lr: 0.1,
        };
        assert!((cos.lr_at(base, 0) - 1.0).abs() < 1e-6);
        assert!((cos.lr_at(base, 100) - 0.1).abs() < 1e-6);
        assert!(cos.lr_at(base, 50) < 1.0 && cos.lr_at(base, 50) > 0.1);
        let wu = LrSchedule::WarmupInvSqrt { warmup: 100 };
        assert!(wu.lr_at(base, 9) < wu.lr_at(base, 99));
        assert!((wu.lr_at(base, 99) - 1.0).abs() < 1e-5);
        assert!(wu.lr_at(base, 399) < 0.51);
    }

    #[test]
    fn cosine_is_monotone_decreasing() {
        let cos = LrSchedule::Cosine {
            total: 50,
            min_lr: 0.0,
        };
        let mut last = f32::INFINITY;
        for s in 0..=50 {
            let lr = cos.lr_at(1.0, s);
            assert!(lr <= last + 1e-7);
            last = lr;
        }
    }
}
