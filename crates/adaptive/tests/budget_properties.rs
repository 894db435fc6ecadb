//! Property tests for the adaptive bit-assignment solver: every plan any
//! policy produces either respects the `α · E₄` error budget or has
//! saturated at the largest available bit-width; assignments only use
//! bits from the caller's choice set; the solver is a pure function of
//! its inputs (the foundation of the live controller's byte-identical
//! cross-rank determinism); and 1-bit choices are first-class — the
//! historical `s(1) = 0` bug made them infinitely lossy and panicked the
//! budget repair loop.

use cgx_adaptive::{
    assign_bits, quant_levels, uniform_assignment, AdaptiveOptions, AdaptivePolicy, LayerProfile,
};
use cgx_compress::CompressionScheme;
use cgx_tensor::Rng;
use cgx_testkit::cases;

/// The bit-widths any sampled choice set draws from.
const CHOICE_POOL: [u32; 6] = [1, 2, 3, 4, 6, 8];

fn policy(rng: &mut Rng) -> AdaptivePolicy {
    match rng.index(4) {
        0 => AdaptivePolicy::KMeans,
        1 => AdaptivePolicy::Linear,
        2 => AdaptivePolicy::TimeAware,
        _ => AdaptivePolicy::BayesOpt { trials: 24 },
    }
}

/// Up to nine layer profiles; norms are kept strictly positive because a
/// zero gradient norm is rejected input.
fn profiles(rng: &mut Rng) -> Vec<LayerProfile> {
    (0..rng.range(1..10))
        .map(|i| {
            let (size, norm_milli) = (rng.range(1..4000), rng.range(1..50_000));
            LayerProfile::new(format!("layer{i}"), size, norm_milli as f64 / 1000.0 + 1e-3)
        })
        .collect()
}

/// A non-empty subset of [`CHOICE_POOL`], `alpha` in 1.0..=6.0 by tenths,
/// and any seed.
fn options(rng: &mut Rng) -> AdaptiveOptions {
    let mask = rng.range(1..=63);
    AdaptiveOptions {
        bit_choices: (0..6)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| CHOICE_POOL[i])
            .collect(),
        alpha: rng.range(10..=60) as f64 / 10.0,
        seed: rng.next_u64(),
    }
}

#[test]
fn every_plan_respects_the_budget_or_saturates() {
    cases(256, |rng| {
        let (profiles, opts) = (profiles(rng), options(rng));
        let choices = &opts.bit_choices;
        let a = assign_bits(policy(rng), &profiles, &opts);
        let budget = opts.alpha * uniform_assignment(&profiles, 4).estimated_error(&profiles);
        let err = a.estimated_error(&profiles);
        let max_bits = *choices.iter().max().unwrap();
        assert!(err.is_finite(), "estimated error must be finite, got {err}");
        assert!(
            err <= budget * (1.0 + 1e-9) || a.bits.iter().all(|&b| b == max_bits),
            "error {err} over budget {budget} without saturating at {max_bits} bits: {:?}",
            a.bits
        );
        for &b in &a.bits {
            assert!(
                choices.contains(&b),
                "assigned bit-width {b} outside the choice set {choices:?}"
            );
        }
    });
}

#[test]
fn assignment_is_a_pure_function_of_its_inputs() {
    cases(256, |rng| {
        let (profiles, opts, policy) = (profiles(rng), options(rng), policy(rng));
        let a = assign_bits(policy, &profiles, &opts);
        let b = assign_bits(policy, &profiles, &opts);
        assert_eq!(a.bits, b.bits, "bit assignment is nondeterministic");
        assert_eq!(
            a.bucket_sizes, b.bucket_sizes,
            "bucket assignment is nondeterministic"
        );
    });
}

#[test]
fn one_bit_plans_are_finite_and_panic_free() {
    cases(256, |rng| {
        // With `[1]` as the only choice the budget is usually infeasible;
        // the repair loop must saturate gracefully instead of chasing the
        // old `s(1) = 0` infinite error.
        let profiles = profiles(rng);
        let opts = AdaptiveOptions {
            bit_choices: vec![1],
            alpha: 2.0,
            seed: rng.next_u64(),
        };
        let a = assign_bits(policy(rng), &profiles, &opts);
        assert!(a.bits.iter().all(|&b| b == 1));
        let err = a.estimated_error(&profiles);
        assert!(
            err.is_finite(),
            "1-bit plan error must be finite, got {err}"
        );
        assert!(quant_levels(1) >= 1.0);
        for s in a.to_schemes() {
            assert!(
                matches!(s, CompressionScheme::OneBit { .. }),
                "1-bit layers must map to the sign codec, got {s:?}"
            );
        }
    });
}
