//! The live adaptive controller: online re-planning of per-layer
//! bit-widths during real training (ROADMAP item 1, paper §5 made
//! runtime).
//!
//! # Determinism contract
//!
//! The controller is *per-rank but rank-replicated*: every rank owns an
//! instance, and every instance must transition through byte-identical
//! states without exchanging a single control message. That works
//! because the inputs are already replicated —
//!
//! * the observed statistics are L2 norms of the **post-allreduce mean
//!   gradients**, which the collectives guarantee byte-identical on
//!   every rank (and across thread/TCP fabrics — launch parity);
//! * norms are accumulated in `f64` in fixed layer order;
//! * the re-plan schedule (`replan_interval`, `warmup`) counts the same
//!   replicated step counter everywhere;
//! * [`assign_bits`] is deterministic given `(profiles, options)`, and
//!   the per-plan seed is derived from `(cfg.seed, plan_epoch)` alone.
//!
//! Consequently the *plan epoch* — a counter of committed re-plans — is
//! itself replicated shared state: no plan id needs to ride the wire,
//! and all ranks swap schemes at the same step by construction. The
//! engine still stamps the plan epoch into its collective lane tags
//! (see `cgx_collectives::lane_epoch`) so a rank that somehow diverged
//! would fail fast with a tag mismatch instead of silently mixing
//! payloads from different plans.
//!
//! # Measured bandwidth is advisory only
//!
//! Wire-byte counters and wall-clock are *per-rank, per-fabric* values:
//! folding them into the assignment would break the replicated-state
//! argument above (rank 0's NIC hiccup would change rank 0's plan
//! only). The controller therefore keeps measured bandwidth in a
//! strictly advisory role — an EWMA estimate used to *price* each plan
//! (predicted step-time saving in [`PlanRecord`], `adaptive.*` gauges)
//! — while the plan bits remain a pure function of replicated state.

use crate::policy::{
    assign_bits, uniform_assignment, AdaptiveOptions, AdaptivePolicy, LayerProfile,
};
use cgx_compress::CompressionScheme;
use std::time::Duration;

/// Controller knobs carried by `TrainConfig::adaptive`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveTrainConfig {
    /// Which solver re-plans the bit-widths.
    pub policy: AdaptivePolicy,
    /// Error-budget multiplier `α` relative to uniform 4-bit error.
    pub alpha: f64,
    /// Steps between re-plans (counted in observed sync rounds).
    pub replan_interval: usize,
    /// Steps before the first re-plan may commit (statistics warmup).
    pub warmup: usize,
    /// Available bit-widths (1-bit is first-class: it maps to sign
    /// compression).
    pub bit_choices: Vec<u32>,
    /// Base seed for the per-plan solver seeds.
    pub seed: u64,
}

impl Default for AdaptiveTrainConfig {
    fn default() -> Self {
        AdaptiveTrainConfig {
            policy: AdaptivePolicy::KMeans,
            alpha: 2.0,
            replan_interval: 8,
            warmup: 4,
            bit_choices: vec![2, 3, 4, 8],
            seed: 7,
        }
    }
}

impl AdaptiveTrainConfig {
    /// Checks the knobs, including everything
    /// [`AdaptiveOptions::validate`] enforces.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violation.
    pub fn validate(&self) {
        assert!(self.replan_interval >= 1, "replan_interval must be >= 1");
        self.options_for_epoch(0).validate();
    }

    /// The solver options for one committed plan: the seed mixes the
    /// base seed with the plan epoch so consecutive plans explore
    /// independently yet identically on every rank.
    fn options_for_epoch(&self, plan_epoch: u64) -> AdaptiveOptions {
        AdaptiveOptions {
            bit_choices: self.bit_choices.clone(),
            alpha: self.alpha,
            seed: splitmix(self.seed ^ plan_epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One model parameter as the controller sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledLayer {
    /// Parameter name (diagnostics only).
    pub name: String,
    /// Element count.
    pub elements: usize,
    /// Whether the controller may re-plan this layer's scheme. Layers
    /// the compression policy filters (norms, biases) stay on their
    /// base scheme forever.
    pub compressible: bool,
    /// Overlap exposure weight for the time-aware policy (see
    /// [`LayerProfile::exposure`]).
    pub exposure: f64,
}

/// One committed plan, with everything a report needs to judge it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// Plan epoch (1-based: epoch 0 is the base/warmup plan).
    pub plan_epoch: u64,
    /// First training step the plan applies to.
    pub start_step: usize,
    /// Membership epoch the plan was committed under.
    pub membership_epoch: u64,
    /// Bits per *compressible* layer, in layer order.
    pub bits: Vec<u32>,
    /// Modelled compression error of the plan.
    pub estimated_error: f64,
    /// The `α·E₄` budget the plan was solved under.
    pub budget: f64,
    /// Compressed size relative to uniform 4-bit.
    pub size_ratio_vs_static4: f64,
    /// Nominal wire bits per compressible element.
    pub nominal_bits_per_element: f64,
    /// Advisory: measured wire bandwidth (bytes/s EWMA) at commit time,
    /// if any observation arrived. Never affects the plan bits.
    pub measured_bandwidth_bps: Option<f64>,
    /// Advisory: predicted step-time saving vs uniform 4-bit at the
    /// measured bandwidth, in seconds (0 when bandwidth is unknown).
    pub(crate) predicted_step_saving_s: f64,
}

/// The scheme swap a committed re-plan asks the trainer to perform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanUpdate {
    /// The new plan epoch (stamp it into the engine lane tags).
    pub plan_epoch: u64,
    /// Full per-layer scheme list (length = layer count).
    pub schemes: Vec<CompressionScheme>,
    /// Which layer indices actually changed scheme (only these need
    /// their compressors rebuilt).
    pub changed: Vec<bool>,
    /// The committed plan's record.
    pub record: PlanRecord,
}

/// The full re-plan history of one training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptivePlanTrace {
    /// Committed plans, in commit order.
    pub records: Vec<PlanRecord>,
    /// Sync rounds that were not observed because a norm was not finite
    /// (see [`AdaptiveController::observe_norms`]).
    pub skipped_rounds: usize,
}

impl AdaptivePlanTrace {
    /// Number of committed re-plans.
    pub fn replans(&self) -> usize {
        self.records.len()
    }

    /// FNV-1a digest over the decision-relevant fields (epochs, start
    /// steps, bits) — byte-identical traces across ranks and fabrics
    /// hash equal; advisory bandwidth fields are deliberately excluded,
    /// and skipped rounds show in the start steps they delay.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01B3);
            }
        };
        for r in &self.records {
            eat(r.plan_epoch);
            eat(r.start_step as u64);
            eat(r.membership_epoch);
            eat(r.bits.len() as u64);
            for &b in &r.bits {
                eat(b as u64);
            }
        }
        h
    }
}

/// The per-rank live controller. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveTrainConfig,
    layers: Vec<ControlledLayer>,
    schemes: Vec<CompressionScheme>,
    /// Per-layer sum of squared observed norms since the last re-plan.
    sumsq: Vec<f64>,
    /// Sync rounds observed since the last re-plan.
    observed: usize,
    plan_epoch: u64,
    /// Membership epoch of the last committed plan.
    membership_epoch: u64,
    trace: AdaptivePlanTrace,
    /// Advisory EWMA of measured wire bandwidth, bytes/s.
    bw_ewma: Option<f64>,
}

impl AdaptiveController {
    /// Creates a controller over `layers`, starting from `base_schemes`
    /// (the plan-epoch-0 schemes the trainer built from its static
    /// compression policy).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, the lists disagree in length,
    /// or no layer is compressible.
    pub fn new(
        cfg: AdaptiveTrainConfig,
        layers: Vec<ControlledLayer>,
        base_schemes: Vec<CompressionScheme>,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            layers.len(),
            base_schemes.len(),
            "layer/scheme length mismatch"
        );
        assert!(
            layers.iter().any(|l| l.compressible && l.elements > 0),
            "no compressible layers to control"
        );
        let n = layers.len();
        AdaptiveController {
            cfg,
            layers,
            schemes: base_schemes,
            sumsq: vec![0.0; n],
            observed: 0,
            plan_epoch: 0,
            membership_epoch: 0,
            trace: AdaptivePlanTrace::default(),
            bw_ewma: None,
        }
    }

    /// The schemes of the current plan (full layer list).
    pub fn current_schemes(&self) -> &[CompressionScheme] {
        &self.schemes
    }

    /// The current plan epoch (0 until the first re-plan commits).
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// The re-plan history so far.
    pub fn trace(&self) -> &AdaptivePlanTrace {
        &self.trace
    }

    /// Consumes the controller, returning its re-plan history.
    pub fn into_trace(self) -> AdaptivePlanTrace {
        self.trace
    }

    /// The advisory bandwidth estimate, bytes/s.
    pub fn bandwidth_bps(&self) -> Option<f64> {
        self.bw_ewma
    }

    /// Feeds one sync round's per-layer L2 norms. **Must** be the norms
    /// of the post-allreduce mean gradients (or mean deltas, for local
    /// SGD) — the rank-replicated values — in layer order.
    ///
    /// A round in which any norm is not finite — a diverged step, or a
    /// peer's payload whose bucket norm decodes to NaN or infinity, which
    /// the decoders accept — is not observed: the statistics and the
    /// round count stay as they were, the current plan holds, and the
    /// trace counts the skip. The norms are replicated, so every rank
    /// skips the same rounds. Returns whether the round was observed.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch or a negative norm.
    pub fn observe_norms(&mut self, norms: &[f64]) -> bool {
        assert_eq!(norms.len(), self.layers.len(), "norm count mismatch");
        if !norms.iter().all(|n| n.is_finite()) {
            self.trace.skipped_rounds += 1;
            return false;
        }
        for (acc, &n) in self.sumsq.iter_mut().zip(norms) {
            assert!(n >= 0.0, "bad observed norm {n}");
            *acc += n * n;
        }
        self.observed += 1;
        true
    }

    /// Feeds an advisory wire-bandwidth observation: `bytes` moved over
    /// `elapsed`. Zero-byte or zero-time samples are ignored.
    pub fn observe_bandwidth(&mut self, bytes: u64, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if bytes == 0 || secs <= 0.0 {
            return;
        }
        let sample = bytes as f64 / secs;
        self.bw_ewma = Some(match self.bw_ewma {
            Some(prev) => 0.5 * prev + 0.5 * sample,
            None => sample,
        });
    }

    /// Commits a re-plan if one is due before `next_step` runs: either
    /// `replan_interval` rounds were observed past warmup, or the
    /// membership epoch changed since the last plan (elastic shrink —
    /// the bandwidth picture changed) and at least one round was
    /// observed. Returns the scheme swap to apply, or `None`.
    pub fn maybe_replan(&mut self, next_step: usize, membership_epoch: u64) -> Option<PlanUpdate> {
        if self.observed == 0 {
            return None;
        }
        let membership_changed = membership_epoch != self.membership_epoch;
        let due = self.observed >= self.cfg.replan_interval && next_step >= self.cfg.warmup;
        if !due && !membership_changed {
            return None;
        }

        // Profiles over the compressible layers, RMS norms.
        let idx: Vec<usize> = (0..self.layers.len())
            .filter(|&i| self.layers[i].compressible && self.layers[i].elements > 0)
            .collect();
        let profiles: Vec<LayerProfile> = idx
            .iter()
            .map(|&i| {
                let l = &self.layers[i];
                LayerProfile::new(
                    l.name.clone(),
                    l.elements,
                    (self.sumsq[i] / self.observed as f64).sqrt(),
                )
                .with_exposure(l.exposure)
            })
            .collect();

        let next_epoch = self.plan_epoch + 1;
        let opts = self.cfg.options_for_epoch(next_epoch);
        let assignment = assign_bits(self.cfg.policy, &profiles, &opts);

        let uniform4 = uniform_assignment(&profiles, 4);
        let budget = self.cfg.alpha * uniform4.estimated_error(&profiles);
        let elements: f64 = profiles.iter().map(|p| p.size as f64).sum();
        let plan_bits = assignment.compressed_bits_total(&profiles);
        let uniform_bits = uniform4.compressed_bits_total(&profiles);
        let predicted_step_saving_s = self
            .bw_ewma
            .map(|bw| (uniform_bits - plan_bits) / 8.0 / bw)
            .unwrap_or(0.0);

        let record = PlanRecord {
            plan_epoch: next_epoch,
            start_step: next_step,
            membership_epoch,
            bits: assignment.bits.clone(),
            estimated_error: assignment.estimated_error(&profiles),
            budget,
            size_ratio_vs_static4: plan_bits / uniform_bits,
            nominal_bits_per_element: plan_bits / elements,
            measured_bandwidth_bps: self.bw_ewma,
            predicted_step_saving_s,
        };

        let new_schemes_for_idx = assignment.to_schemes();
        let mut schemes = self.schemes.clone();
        for (slot, scheme) in idx.iter().zip(new_schemes_for_idx) {
            schemes[*slot] = scheme;
        }
        let changed: Vec<bool> = schemes
            .iter()
            .zip(&self.schemes)
            .map(|(new, old)| new != old)
            .collect();

        self.plan_epoch = next_epoch;
        self.membership_epoch = membership_epoch;
        self.schemes = schemes.clone();
        self.sumsq.iter_mut().for_each(|s| *s = 0.0);
        self.observed = 0;
        self.trace.records.push(record.clone());

        Some(PlanUpdate {
            plan_epoch: next_epoch,
            schemes,
            changed,
            record,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BitAssignment;

    fn layers() -> Vec<ControlledLayer> {
        vec![
            ControlledLayer {
                name: "emb".into(),
                elements: 1_000_000,
                compressible: true,
                exposure: 1.0,
            },
            ControlledLayer {
                name: "body".into(),
                elements: 100_000,
                compressible: true,
                exposure: 0.5,
            },
            ControlledLayer {
                name: "norm".into(),
                elements: 64,
                compressible: false,
                exposure: 0.0,
            },
        ]
    }

    fn base_schemes() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::cgx_default(),
            CompressionScheme::cgx_default(),
            CompressionScheme::None,
        ]
    }

    fn controller(interval: usize, warmup: usize) -> AdaptiveController {
        let cfg = AdaptiveTrainConfig {
            replan_interval: interval,
            warmup,
            ..AdaptiveTrainConfig::default()
        };
        AdaptiveController::new(cfg, layers(), base_schemes())
    }

    #[test]
    fn no_replan_before_warmup_or_interval() {
        let mut c = controller(4, 10);
        assert!(c.maybe_replan(0, 0).is_none(), "no observations yet");
        for step in 0..4 {
            c.observe_norms(&[3.0, 1.0, 0.1]);
            assert!(
                c.maybe_replan(step + 1, 0).is_none(),
                "warmup must gate the replan"
            );
        }
        // Interval satisfied but warmup not: still nothing at step 5..9.
        c.observe_norms(&[3.0, 1.0, 0.1]);
        assert!(c.maybe_replan(9, 0).is_none());
        let up = c.maybe_replan(10, 0).expect("due at warmup");
        assert_eq!(up.plan_epoch, 1);
        assert_eq!(up.record.start_step, 10);
    }

    #[test]
    fn replans_periodically_and_traces() {
        let mut c = controller(2, 0);
        let mut epochs = Vec::new();
        for step in 0..8 {
            c.observe_norms(&[3.0 + step as f64, 1.0, 0.1]);
            if let Some(up) = c.maybe_replan(step + 1, 0) {
                epochs.push(up.plan_epoch);
            }
        }
        assert_eq!(epochs, vec![1, 2, 3, 4]);
        assert_eq!(c.trace().replans(), 4);
        assert_eq!(c.plan_epoch(), 4);
    }

    #[test]
    fn uncontrolled_layers_never_change() {
        let mut c = controller(1, 0);
        for step in 0..5 {
            c.observe_norms(&[9.0, 0.01, 5.0]);
            if let Some(up) = c.maybe_replan(step + 1, 0) {
                assert_eq!(up.schemes[2], CompressionScheme::None);
                assert!(!up.changed[2]);
                assert_eq!(up.record.bits.len(), 2, "only compressible layers planned");
            }
        }
    }

    #[test]
    fn identical_observations_give_identical_plan_sequences() {
        let mut a = controller(2, 0);
        let mut b = controller(2, 0);
        // b sees wildly different (per-rank) bandwidth — plans must not move.
        b.observe_bandwidth(1 << 30, Duration::from_millis(1));
        for step in 0..10 {
            let norms = [2.0 + (step % 3) as f64, 0.5, 0.1];
            a.observe_norms(&norms);
            b.observe_norms(&norms);
            let ua = a.maybe_replan(step + 1, 0);
            let ub = b.maybe_replan(step + 1, 0);
            assert_eq!(
                ua.as_ref().map(|u| (&u.record.bits, u.plan_epoch)),
                ub.as_ref().map(|u| (&u.record.bits, u.plan_epoch)),
            );
            b.observe_bandwidth(1024, Duration::from_secs(1));
        }
        assert_eq!(a.trace().digest(), b.trace().digest());
        assert_ne!(
            a.bandwidth_bps(),
            b.bandwidth_bps(),
            "advisory state genuinely differed"
        );
    }

    #[test]
    fn a_round_with_a_non_finite_norm_is_not_observed() {
        // NaN or infinity in one layer's norm: no panic, no credit toward
        // the re-plan interval, no trace in the statistics — and two
        // controllers fed the same rounds stay in the same state.
        let mut a = controller(2, 0);
        let mut b = controller(2, 0);
        let mut clean = controller(2, 0);
        let rounds = [
            [3.0, 1.0, 0.1],
            [f64::NAN, 1.0, 0.1],
            [3.0, f64::INFINITY, 0.1],
            [2.0, 1.5, f64::NEG_INFINITY],
            [4.0, 0.5, 0.2],
            [1.0, 1.0, 0.1],
            [2.0, 2.0, 0.3],
        ];
        let (mut step, mut clean_step) = (0, 0);
        for norms in rounds {
            let finite = norms.iter().all(|n| n.is_finite());
            assert_eq!(a.observe_norms(&norms), finite);
            assert_eq!(b.observe_norms(&norms), finite);
            step += 1;
            let (ua, ub) = (a.maybe_replan(step, 0), b.maybe_replan(step, 0));
            assert_eq!(ua, ub, "round {step}");
            if finite {
                // The controller that never saw the bad rounds commits
                // the same bits, one re-plan per two finite rounds.
                clean.observe_norms(&norms);
                clean_step += 1;
                let uc = clean.maybe_replan(clean_step, 0);
                assert_eq!(
                    ua.as_ref().map(|u| (&u.record.bits, u.plan_epoch)),
                    uc.as_ref().map(|u| (&u.record.bits, u.plan_epoch)),
                    "round {step}"
                );
            } else {
                assert!(ua.is_none(), "round {step}: a skipped round re-planned");
            }
        }
        assert_eq!(a.trace(), b.trace());
        assert_eq!((a.trace().replans(), a.trace().skipped_rounds), (2, 3));
        assert_eq!(clean.trace().skipped_rounds, 0);
    }

    #[test]
    fn default_plans_stay_on_the_vector_kernels() {
        // `cgx-compress` packs any width in registers, and decodes up to
        // 4 bits by table lookup in registers, where a bucket is a whole
        // number of bytes (its `whole_byte_buckets_take_the_kernels`);
        // anything else goes a code at a time through the bit writer and
        // reader at a third to a sixth of the speed. Every layout the
        // default controller can commit must be one of the former, and a
        // width below the table decoder's 2 bits would be `OneBit`, which
        // has no kernel at all.
        for bits in AdaptiveTrainConfig::default().bit_choices {
            let bucket = BitAssignment::bucket_for_bits(bits);
            assert_eq!(bucket * bits as usize % 8, 0, "{bits} bits / {bucket}");
            assert!(bits >= 2, "{bits} bits");
        }
    }

    #[test]
    fn membership_change_forces_replan() {
        let mut c = controller(100, 0);
        c.observe_norms(&[1.0, 1.0, 0.1]);
        assert!(c.maybe_replan(1, 0).is_none(), "interval 100 not reached");
        c.observe_norms(&[1.0, 1.0, 0.1]);
        let up = c.maybe_replan(2, 1).expect("membership epoch moved");
        assert_eq!(up.record.membership_epoch, 1);
        // Same epoch again: back to waiting on the interval.
        c.observe_norms(&[1.0, 1.0, 0.1]);
        assert!(c.maybe_replan(3, 1).is_none());
    }

    #[test]
    fn plans_respect_budget() {
        let mut c = controller(1, 0);
        for step in 0..6 {
            c.observe_norms(&[4.0, 8.0, 0.1]);
            if let Some(up) = c.maybe_replan(step + 1, 0) {
                assert!(up.record.estimated_error <= up.record.budget * (1.0 + 1e-9));
                assert!(up.record.nominal_bits_per_element > 0.0);
            }
        }
    }

    #[test]
    fn bandwidth_prices_the_plan() {
        let mut c = controller(1, 0);
        c.observe_bandwidth(1_000_000, Duration::from_secs(1));
        c.observe_norms(&[0.5, 0.5, 0.1]);
        let up = c.maybe_replan(1, 0).expect("due");
        assert!(up.record.measured_bandwidth_bps.is_some());
        if up.record.size_ratio_vs_static4 < 1.0 {
            assert!(up.record.predicted_step_saving_s > 0.0);
        }
    }
}
