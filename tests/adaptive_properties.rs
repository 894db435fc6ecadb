//! Property-based tests over the adaptive compression solvers: budget
//! feasibility, bit-choice validity, determinism, and dominance relations
//! for randomized layer profiles.

use cgx_adaptive::{
    assign_bits, kmeans, uniform_assignment, AdaptiveOptions, AdaptivePolicy, LayerProfile,
};
use cgx_tensor::Rng;
use cgx_testkit::cases;

fn profiles(rng: &mut Rng) -> Vec<LayerProfile> {
    (0..rng.range(1..60))
        .map(|i| {
            let (size, norm) = (rng.range(1..50_000_000), rng.uniform_range(0.01, 100.0));
            LayerProfile::new(format!("l{i}"), size, norm)
        })
        .collect()
}

#[test]
fn every_policy_is_feasible_and_valid() {
    cases(48, |rng| {
        let profiles = profiles(rng);
        let alpha = rng.uniform_range(1.1, 3.0);
        let opts = AdaptiveOptions {
            alpha,
            seed: rng.below(500),
            ..AdaptiveOptions::default()
        };
        let budget = alpha * uniform_assignment(&profiles, 4).estimated_error(&profiles);
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::Linear,
            AdaptivePolicy::BayesOpt { trials: 60 },
            AdaptivePolicy::TimeAware,
        ] {
            let a = assign_bits(policy, &profiles, &opts);
            assert_eq!(a.bits.len(), profiles.len());
            // Valid bit choices and matching bucket sizes.
            for (b, bucket) in a.bits.iter().zip(&a.bucket_sizes) {
                assert!(opts.bit_choices.contains(b), "{policy:?}: bits {b}");
                assert!(*bucket > 0);
            }
            // The error budget holds (or every layer saturated at max bits,
            // in which case the problem was infeasible to begin with).
            let max_bits = *opts.bit_choices.iter().max().unwrap();
            let feasible = a.estimated_error(&profiles) <= budget * (1.0 + 1e-9);
            let saturated = a.bits.iter().all(|b| *b == max_bits);
            assert!(feasible || saturated, "{policy:?} violates budget");
        }
    });
}

#[test]
fn assignments_are_deterministic() {
    cases(48, |rng| {
        let profiles = profiles(rng);
        let opts = AdaptiveOptions {
            seed: rng.below(500),
            ..AdaptiveOptions::default()
        };
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::BayesOpt { trials: 40 },
        ] {
            let a = assign_bits(policy, &profiles, &opts);
            let b = assign_bits(policy, &profiles, &opts);
            assert_eq!(a, b, "{policy:?} not deterministic");
        }
    });
}

#[test]
fn looser_budget_never_increases_size() {
    cases(48, |rng| {
        let profiles = profiles(rng);
        let kmeans_at = |alpha| {
            let opts = AdaptiveOptions {
                alpha,
                ..AdaptiveOptions::default()
            };
            assign_bits(AdaptivePolicy::KMeans, &profiles, &opts).compressed_bits_total(&profiles)
        };
        assert!(kmeans_at(2.8) <= kmeans_at(1.2) * (1.0 + 1e-9));
    });
}

#[test]
fn kmeans_clusters_are_valid_partitions() {
    cases(48, |rng| {
        let points: Vec<(f64, f64)> = (0..rng.range(2..80))
            .map(|_| (rng.uniform(), rng.uniform()))
            .collect();
        let k = rng.range(1..6).min(points.len());
        let r = kmeans(&points, k, rng, 60);
        assert_eq!(r.assignment.len(), points.len());
        assert!(r.assignment.iter().all(|a| *a < k));
        assert_eq!(r.centroids.len(), k);
        // Each point is at least as close to its own centroid as to the
        // others (Lloyd fixed point after convergence or cap).
        if r.iterations < 60 {
            for (p, &a) in points.iter().zip(&r.assignment) {
                let d = |c: (f64, f64)| (p.0 - c.0).powi(2) + (p.1 - c.1).powi(2);
                let own = d(r.centroids[a]);
                for c in &r.centroids {
                    assert!(own <= d(*c) + 1e-9);
                }
            }
        }
    });
}
