//! Bit-width assignment policies (Algorithm 1 and baselines).

use crate::kmeans::kmeans;
use cgx_compress::CompressionScheme;
use cgx_tensor::Rng;

/// Per-layer statistics the policies consume: size and the L2 norm of the
/// accumulated gradient (collected periodically during training).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer name (diagnostics only).
    pub name: String,
    /// Parameter count.
    pub size: usize,
    /// `‖G_ℓ‖` of the accumulated gradient.
    pub grad_norm: f64,
    /// Fraction of this layer's transfer that cannot be overlapped with
    /// backward compute (1.0 = fully exposed, e.g. the embedding, which is
    /// produced last; 0.0 = fully hidden). Used only by the time-aware
    /// policy; defaults to 1.0.
    pub exposure: f64,
}

impl LayerProfile {
    /// Creates a profile entry (full exposure by default).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the norm is negative/not finite.
    pub fn new(name: impl Into<String>, size: usize, grad_norm: f64) -> Self {
        assert!(size > 0, "empty layer");
        assert!(grad_norm.is_finite() && grad_norm >= 0.0, "bad norm");
        LayerProfile {
            name: name.into(),
            size,
            grad_norm,
            exposure: 1.0,
        }
    }

    /// Sets the overlap exposure weight (clamped to `[0, 1]`).
    pub fn with_exposure(mut self, exposure: f64) -> Self {
        self.exposure = exposure.clamp(0.0, 1.0);
        self
    }
}

/// The adaptive solvers of paper Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptivePolicy {
    /// Algorithm 1: k-means clustering over (size, norm).
    KMeans,
    /// Sort by `norm/size`, interpolate bit-widths linearly.
    Linear,
    /// Randomized black-box search over assignments with the given trial
    /// budget (the paper's Bayesian-optimization baseline).
    BayesOpt {
        /// Number of sampled assignments.
        trials: usize,
    },
    /// The paper's suggested improvement ("the approach can still be
    /// improved by taking into account the runtime speedups due to
    /// compressing layers"): k-means structure, but budget headroom is
    /// spent where it buys *time* — on layers whose transfers are exposed
    /// on the critical path (weighted by [`LayerProfile::exposure`]).
    TimeAware,
}

/// The policy names [`AdaptivePolicy`]'s `FromStr` reads.
const POLICY_NAMES: &str = "kmeans, linear, timeaware, bayes, bayesopt:TRIALS";

impl std::str::FromStr for AdaptivePolicy {
    type Err = String;

    /// Reads a policy name in any case: `kmeans` (or `k-means`), `linear`,
    /// `timeaware` (or `time-aware`), `bayes` (or `bayesopt`) for 300
    /// trials — the count Fig. 4 and Fig. 5 use — or `bayesopt:TRIALS`;
    /// the error names the choices.
    fn from_str(s: &str) -> Result<Self, String> {
        let name = s.trim().to_ascii_lowercase();
        match name.as_str() {
            "kmeans" | "k-means" => Ok(AdaptivePolicy::KMeans),
            "linear" => Ok(AdaptivePolicy::Linear),
            "timeaware" | "time-aware" => Ok(AdaptivePolicy::TimeAware),
            "bayes" | "bayesopt" => Ok(AdaptivePolicy::BayesOpt { trials: 300 }),
            _ => name
                .strip_prefix("bayesopt:")
                .and_then(|t| t.parse().ok())
                .filter(|&trials| trials > 0)
                .map(|trials| AdaptivePolicy::BayesOpt { trials })
                .ok_or_else(|| format!("unknown policy {s:?}: one of {POLICY_NAMES}")),
        }
    }
}

/// Tunables of the assignment problem.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Available bit-widths, ascending (default `{2, 3, 4, 8}`).
    pub bit_choices: Vec<u32>,
    /// Error-budget multiplier `α` relative to uniform 4-bit error
    /// (paper: between 1.5 and 3.0).
    pub alpha: f64,
    /// RNG seed for k-means init / search.
    pub seed: u64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            bit_choices: vec![2, 3, 4, 8],
            alpha: 2.0,
            seed: 7,
        }
    }
}

impl AdaptiveOptions {
    /// Checks the options for degenerate values that would otherwise
    /// surface as NaN scores or shift overflows deep inside the repair
    /// loops: empty/duplicate/out-of-range `bit_choices` and a
    /// non-positive or non-finite `alpha`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first violation.
    pub fn validate(&self) {
        assert!(!self.bit_choices.is_empty(), "bit_choices is empty");
        for &b in &self.bit_choices {
            assert!(
                (1..=32).contains(&b),
                "bit choice {b} out of range (want 1..=32)"
            );
        }
        let mut sorted = self.bit_choices.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0] != w[1], "duplicate bit choice {} in bit_choices", w[0]);
        }
        assert!(
            self.alpha.is_finite() && self.alpha > 0.0,
            "alpha must be finite and > 0, got {}",
            self.alpha
        );
    }
}

/// Quantization levels `s(b)` for a `b`-bit scheme: `2^(b-1) - 1`, floored
/// at one level so 1-bit (sign) compression yields a finite error model
/// instead of a division by zero.
///
/// # Panics
///
/// Panics if `bits` is 0 (no such scheme) or above 32.
pub fn quant_levels(bits: u32) -> f64 {
    assert!(
        (1..=32).contains(&bits),
        "bit width {bits} out of range (want 1..=32)"
    );
    (((1u64 << (bits - 1)) - 1) as f64).max(1.0)
}

/// A per-layer bit-width and bucket-size assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct BitAssignment {
    /// Bits per layer, aligned with the input profiles.
    pub bits: Vec<u32>,
    /// Bucket sizes per layer (lower precision pairs with larger buckets).
    pub bucket_sizes: Vec<usize>,
}

impl BitAssignment {
    /// Bucket size CGX pairs with a bit-width (lower precision tolerates —
    /// and wants — larger buckets to amortize the scale overhead).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 — there is no zero-bit scheme.
    pub fn bucket_for_bits(bits: u32) -> usize {
        assert!(bits > 0, "no zero-bit scheme");
        match bits {
            1..=2 => 1024,
            3 => 512,
            4 => 128,
            _ => 64,
        }
    }

    fn from_bits(bits: Vec<u32>) -> Self {
        let bucket_sizes = bits.iter().map(|b| Self::bucket_for_bits(*b)).collect();
        BitAssignment { bits, bucket_sizes }
    }

    /// Total compressed payload in bits for the profiled layers. Matches
    /// the nominal cost of the scheme [`to_schemes`](Self::to_schemes)
    /// emits: QSGD carries one `f32` scale per bucket; 1-bit sign
    /// compression carries two (scale + mean magnitude).
    pub fn compressed_bits_total(&self, profiles: &[LayerProfile]) -> f64 {
        self.bits
            .iter()
            .zip(&self.bucket_sizes)
            .zip(profiles)
            .map(|((b, bucket), p)| {
                let overhead = if *b == 1 { 64.0 } else { 32.0 };
                p.size as f64 * (*b as f64 + overhead / *bucket as f64)
            })
            .sum()
    }

    /// Modelled total compression error: per layer, quantization error
    /// scales as `‖G_ℓ‖ / s(b)` with `s(b) = max(2^(b-1) - 1, 1)` levels
    /// (see [`quant_levels`]); errors add in quadrature.
    pub fn estimated_error(&self, profiles: &[LayerProfile]) -> f64 {
        self.bits
            .iter()
            .zip(profiles)
            .map(|(b, p)| {
                let e = p.grad_norm / quant_levels(*b);
                e * e
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Compressed size relative to another assignment (e.g. uniform 4-bit).
    pub fn size_ratio_vs(&self, other: &BitAssignment, profiles: &[LayerProfile]) -> f64 {
        self.compressed_bits_total(profiles) / other.compressed_bits_total(profiles)
    }

    /// Converts to per-layer [`CompressionScheme`]s: QSGD for 2+ bits,
    /// sign compression ([`CompressionScheme::OneBit`]) for 1-bit layers.
    pub fn to_schemes(&self) -> Vec<CompressionScheme> {
        self.bits
            .iter()
            .zip(&self.bucket_sizes)
            .map(|(b, bucket)| {
                if *b == 1 {
                    CompressionScheme::OneBit {
                        bucket_size: *bucket,
                    }
                } else {
                    CompressionScheme::Qsgd {
                        bits: *b,
                        bucket_size: *bucket,
                    }
                }
            })
            .collect()
    }
}

/// The uniform static assignment (the paper's 4-bit accuracy baseline).
pub fn uniform_assignment(profiles: &[LayerProfile], bits: u32) -> BitAssignment {
    BitAssignment::from_bits(vec![bits; profiles.len()])
}

/// Solves the adaptive compression problem with the chosen policy, then
/// enforces the `α · E₄` error budget by promoting the largest error
/// contributors until feasible.
///
/// # Panics
///
/// Panics if `profiles` is empty or the options are degenerate (see
/// [`AdaptiveOptions::validate`]).
pub fn assign_bits(
    policy: AdaptivePolicy,
    profiles: &[LayerProfile],
    opts: &AdaptiveOptions,
) -> BitAssignment {
    assert!(!profiles.is_empty(), "no layers to assign");
    opts.validate();
    let mut choices = opts.bit_choices.clone();
    choices.sort_unstable();
    let budget = opts.alpha * uniform_assignment(profiles, 4).estimated_error(profiles);
    let mut assignment = match policy {
        AdaptivePolicy::KMeans | AdaptivePolicy::TimeAware => {
            kmeans_bits(profiles, &choices, opts.seed)
        }
        AdaptivePolicy::Linear => linear_bits(profiles, &choices),
        AdaptivePolicy::BayesOpt { trials } => {
            search_bits(profiles, &choices, opts.seed, trials, budget)
        }
    };
    match policy {
        AdaptivePolicy::TimeAware => {
            enforce_budget(
                &mut assignment,
                profiles,
                &choices,
                budget,
                Repair::SizeAware,
            );
            exploit_budget_time_aware(&mut assignment, profiles, &choices, budget);
        }
        AdaptivePolicy::KMeans | AdaptivePolicy::BayesOpt { .. } => {
            // Sensitivity-aware repair: promote the layer with the best
            // error reduction *per transmitted bit* — huge insensitive
            // layers (embeddings) keep their low bit-widths, and small
            // noisy layers absorb the promotions. This is why the k-means
            // method "tends to compress large layers more".
            enforce_budget(
                &mut assignment,
                profiles,
                &choices,
                budget,
                Repair::SizeAware,
            );
            if policy == AdaptivePolicy::KMeans {
                exploit_budget_by_groups(&mut assignment, profiles, &choices, budget);
            }
        }
        AdaptivePolicy::Linear => {
            // The linear heuristic repairs along its own ranking: promote
            // the largest error contributor outright. It recovers accuracy
            // but surrenders exactly the layers (embeddings) whose
            // compression buys speedup — the paper's "performance gains
            // are minor" observation.
            enforce_budget(
                &mut assignment,
                profiles,
                &choices,
                budget,
                Repair::ErrorGreedy,
            );
        }
    }
    assignment
}

/// How budget violations are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// Promote the layer with the largest error contribution.
    ErrorGreedy,
    /// Promote the layer with the largest error contribution per
    /// additional transmitted bit (knapsack-style cost effectiveness).
    SizeAware,
}

/// Greedily demotes whole bit-width groups (all layers currently sharing a
/// bit-width, largest total size first) to the next lower choice while the
/// error budget still holds.
fn exploit_budget_by_groups(
    assignment: &mut BitAssignment,
    profiles: &[LayerProfile],
    choices: &[u32],
    budget: f64,
) {
    loop {
        // Candidate groups: distinct bit values above the minimum choice.
        let mut groups: Vec<u32> = assignment.bits.clone();
        groups.sort_unstable();
        groups.dedup();
        let mut best: Option<(f64, u32, u32)> = None; // (size gain, from, to)
        for &from in &groups {
            let Some(to) = choices.iter().rev().copied().find(|b| *b < from) else {
                continue;
            };
            let mut trial = assignment.clone();
            for (i, b) in trial.bits.iter_mut().enumerate() {
                if *b == from {
                    *b = to;
                    trial.bucket_sizes[i] = BitAssignment::bucket_for_bits(to);
                }
            }
            if trial.estimated_error(profiles) > budget {
                continue;
            }
            let gain =
                assignment.compressed_bits_total(profiles) - trial.compressed_bits_total(profiles);
            if gain > 0.0 && best.as_ref().map(|(g, _, _)| gain > *g).unwrap_or(true) {
                best = Some((gain, from, to));
            }
        }
        match best {
            Some((_, from, to)) => {
                for (i, b) in assignment.bits.iter_mut().enumerate() {
                    if *b == from {
                        *b = to;
                        assignment.bucket_sizes[i] = BitAssignment::bucket_for_bits(to);
                    }
                }
            }
            None => break,
        }
    }
}

/// Algorithm 1: cluster (size, norm) points, sort centroids by
/// `norm − size` (both min-max normalized), map bit-widths so the most
/// sensitive cluster (high norm, small size) gets the most bits.
fn kmeans_bits(profiles: &[LayerProfile], choices: &[u32], seed: u64) -> BitAssignment {
    let k = choices.len().min(profiles.len());
    // Min-max normalize each dimension (log-scale sizes: they span orders
    // of magnitude).
    let xs: Vec<f64> = profiles.iter().map(|p| (p.size as f64).ln()).collect();
    let ys: Vec<f64> = profiles
        .iter()
        .map(|p| (p.grad_norm + 1e-12).ln())
        .collect();
    let norm = |v: &[f64]| -> Vec<f64> {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        v.iter().map(|x| (x - lo) / span).collect()
    };
    let xs = norm(&xs);
    let ys = norm(&ys);
    let points: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
    let mut rng = Rng::seed_from_u64(seed);
    let result = kmeans(&points, k, &mut rng, 100);
    // Adaptation moves *down* from the static 4-bit reference (that is
    // where the speedup lives); bit-widths above the reference are only
    // introduced afterwards by the budget-repair pass when needed.
    let ladder: Vec<u32> = {
        let below: Vec<u32> = choices.iter().copied().filter(|b| *b <= 4).collect();
        if below.is_empty() {
            choices.to_vec()
        } else {
            below
        }
    };
    let choices = ladder.as_slice();
    // Sort clusters by sensitivity score norm(C) - size(C), ascending: the
    // least sensitive cluster maps to the fewest bits.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let sa = result.centroids[a].1 - result.centroids[a].0;
        let sb = result.centroids[b].1 - result.centroids[b].0;
        sa.partial_cmp(&sb).expect("finite scores")
    });
    // cluster -> bit width (linear map over sorted order).
    let mut cluster_bits = vec![choices[0]; k];
    for (pos, &cluster) in order.iter().enumerate() {
        let choice_idx = if k == 1 {
            choices.len() - 1
        } else {
            pos * (choices.len() - 1) / (k - 1)
        };
        cluster_bits[cluster] = choices[choice_idx];
    }
    BitAssignment::from_bits(result.assignment.iter().map(|&c| cluster_bits[c]).collect())
}

/// The linear heuristic: sort by `norm/size` ascending and interpolate
/// bit-widths along the sorted order.
fn linear_bits(profiles: &[LayerProfile], choices: &[u32]) -> BitAssignment {
    let l = profiles.len();
    let mut order: Vec<usize> = (0..l).collect();
    order.sort_by(|&a, &b| {
        let ra = profiles[a].grad_norm / profiles[a].size as f64;
        let rb = profiles[b].grad_norm / profiles[b].size as f64;
        ra.partial_cmp(&rb).expect("finite ratios")
    });
    let mut bits = vec![choices[0]; l];
    for (pos, &layer) in order.iter().enumerate() {
        let choice_idx = if l == 1 {
            choices.len() - 1
        } else {
            pos * (choices.len() - 1) / (l - 1)
        };
        bits[layer] = choices[choice_idx];
    }
    BitAssignment::from_bits(bits)
}

/// Randomized search: sample assignments biased toward fewer bits for
/// larger layers, keep the feasible one with the smallest size.
fn search_bits(
    profiles: &[LayerProfile],
    choices: &[u32],
    seed: u64,
    trials: usize,
    budget: f64,
) -> BitAssignment {
    let mut rng = Rng::seed_from_u64(seed);
    let mut best: Option<(f64, BitAssignment)> = None;
    let max_size = profiles.iter().map(|p| p.size).max().expect("non-empty") as f64;
    for _ in 0..trials.max(1) {
        let bits: Vec<u32> = profiles
            .iter()
            .map(|p| {
                // Bias: big layers draw from the low end.
                let bias = (p.size as f64 / max_size).sqrt();
                let idx_f = rng.uniform() * (1.0 - 0.7 * bias) * choices.len() as f64;
                choices[(idx_f as usize).min(choices.len() - 1)]
            })
            .collect();
        let mut cand = BitAssignment::from_bits(bits);
        // Constraint handling: repair infeasible samples (standard in
        // constrained BO loops), size-aware like the k-means path.
        enforce_budget(&mut cand, profiles, choices, budget, Repair::SizeAware);
        if cand.estimated_error(profiles) > budget {
            continue;
        }
        let size = cand.compressed_bits_total(profiles);
        if best.as_ref().map(|(s, _)| size < *s).unwrap_or(true) {
            best = Some((size, cand));
        }
    }
    // No feasible sample: saturate at the largest *available* width and
    // let the caller's repair pass do what it can. Falling back to a
    // literal 4 bits here would smuggle an out-of-set width into the
    // plan whenever 4 ∉ choices (e.g. a pure sign-SGD ladder).
    best.map(|(_, a)| a)
        .unwrap_or_else(|| uniform_assignment(profiles, *choices.last().expect("non-empty")))
}

/// Promotes layers to the next bit-width until the estimated error fits
/// the budget (or everything saturates), picking victims per the repair
/// strategy.
fn enforce_budget(
    assignment: &mut BitAssignment,
    profiles: &[LayerProfile],
    choices: &[u32],
    budget: f64,
    repair: Repair,
) {
    let max_bits = *choices.last().expect("non-empty choices");
    while assignment.estimated_error(profiles) > budget {
        let score = |i: usize| -> f64 {
            let e = layer_error(profiles, assignment, i);
            match repair {
                Repair::ErrorGreedy => e,
                // Error-variance removed per extra transmitted bit.
                Repair::SizeAware => e * e / profiles[i].size as f64,
            }
        };
        let worst = (0..profiles.len())
            .filter(|&i| assignment.bits[i] < max_bits)
            .max_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("finite scores"));
        match worst {
            Some(i) => {
                let cur = assignment.bits[i];
                let next = choices
                    .iter()
                    .copied()
                    .find(|b| *b > cur)
                    .unwrap_or(max_bits);
                assignment.bits[i] = next;
                assignment.bucket_sizes[i] = BitAssignment::bucket_for_bits(next);
            }
            None => break,
        }
    }
}

fn layer_error(profiles: &[LayerProfile], a: &BitAssignment, i: usize) -> f64 {
    profiles[i].grad_norm / quant_levels(a.bits[i])
}

/// Greedy per-layer demotion maximizing *exposure-weighted* wire savings
/// per unit of added error variance, while the budget holds. Exposed
/// layers (embeddings, first convolutions) are where wire savings become
/// wall-clock savings.
fn exploit_budget_time_aware(
    assignment: &mut BitAssignment,
    profiles: &[LayerProfile],
    choices: &[u32],
    budget: f64,
) {
    loop {
        let mut best: Option<(f64, usize, u32)> = None;
        for (i, p) in profiles.iter().enumerate() {
            let cur = assignment.bits[i];
            let Some(to) = choices.iter().rev().copied().find(|b| *b < cur) else {
                continue;
            };
            // Error variance added by the demotion.
            let s_cur = quant_levels(cur);
            let s_to = quant_levels(to);
            let added = (p.grad_norm / s_to).powi(2) - (p.grad_norm / s_cur).powi(2);
            // Does the whole assignment stay feasible?
            let total_sq = assignment.estimated_error(profiles).powi(2) + added;
            if total_sq.sqrt() > budget {
                continue;
            }
            let saved_bits = (cur - to) as f64 * p.size as f64;
            let value = p.exposure * saved_bits / (1.0 + added);
            if best.as_ref().map(|(v, _, _)| value > *v).unwrap_or(true) {
                best = Some((value, i, to));
            }
        }
        match best {
            Some((_, i, to)) => {
                assignment.bits[i] = to;
                assignment.bucket_sizes[i] = BitAssignment::bucket_for_bits(to);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_parse() {
        let bayes = AdaptivePolicy::BayesOpt { trials: 300 };
        for (name, want) in [
            ("kmeans", AdaptivePolicy::KMeans),
            ("K-Means", AdaptivePolicy::KMeans),
            ("linear", AdaptivePolicy::Linear),
            ("TimeAware", AdaptivePolicy::TimeAware),
            (" time-aware ", AdaptivePolicy::TimeAware),
            ("bayes", bayes),
            ("BayesOpt", bayes),
            ("bayesopt:50", AdaptivePolicy::BayesOpt { trials: 50 }),
        ] {
            assert_eq!(name.parse(), Ok(want), "{name:?}");
        }
        for bad in ["bayesopt:0", "bayes:50", "nope", ""] {
            let err = bad.parse::<AdaptivePolicy>().expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")) && err.contains(POLICY_NAMES));
        }
    }

    /// A Transformer-XL-like profile: one huge low-norm embedding, a body
    /// of medium layers, a few small high-norm layers.
    fn txl_like() -> Vec<LayerProfile> {
        let mut p = vec![LayerProfile::new("word_emb", 137_000_000, 2.0)];
        for i in 0..16 {
            p.push(LayerProfile::new(format!("attn{i}"), 786_432, 4.0));
            p.push(LayerProfile::new(format!("ff{i}"), 2_097_152, 3.5));
        }
        for i in 0..4 {
            p.push(LayerProfile::new(format!("proj{i}"), 262_144, 8.0));
        }
        p
    }

    #[test]
    fn kmeans_gives_embedding_the_fewest_bits() {
        let profiles = txl_like();
        let a = assign_bits(
            AdaptivePolicy::KMeans,
            &profiles,
            &AdaptiveOptions::default(),
        );
        let emb_bits = a.bits[0];
        let max_bits = *a.bits.iter().max().unwrap();
        assert!(
            emb_bits < max_bits,
            "embedding bits {emb_bits} vs max {max_bits}"
        );
        assert_eq!(emb_bits, *a.bits.iter().min().unwrap());
    }

    #[test]
    fn all_policies_respect_the_error_budget() {
        let profiles = txl_like();
        let opts = AdaptiveOptions::default();
        let budget = opts.alpha * uniform_assignment(&profiles, 4).estimated_error(&profiles);
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::Linear,
            AdaptivePolicy::BayesOpt { trials: 200 },
        ] {
            let a = assign_bits(policy, &profiles, &opts);
            assert!(
                a.estimated_error(&profiles) <= budget * (1.0 + 1e-9),
                "{policy:?} violates budget"
            );
        }
    }

    #[test]
    fn kmeans_compresses_more_than_uniform_4bit() {
        let profiles = txl_like();
        let a = assign_bits(
            AdaptivePolicy::KMeans,
            &profiles,
            &AdaptiveOptions::default(),
        );
        let uniform = uniform_assignment(&profiles, 4);
        let ratio = a.size_ratio_vs(&uniform, &profiles);
        // Paper Table 7: ~0.68 relative size for KMEANS.
        assert!(ratio < 0.9, "size ratio {ratio}");
    }

    #[test]
    fn table7_kmeans_compresses_more_than_linear_within_budget() {
        // Paper Table 7: the k-means method achieves the best average
        // compression and speedup at equal error budget — its
        // sensitivity-group structure lets it keep huge insensitive layers
        // at low bit-widths, where the linear interpolation's naive repair
        // surrenders them.
        let profiles = txl_like();
        let opts = AdaptiveOptions::default();
        let km = assign_bits(AdaptivePolicy::KMeans, &profiles, &opts);
        let lin = assign_bits(AdaptivePolicy::Linear, &profiles, &opts);
        let uniform = uniform_assignment(&profiles, 4);
        let budget = opts.alpha * uniform.estimated_error(&profiles);
        assert!(km.estimated_error(&profiles) <= budget * (1.0 + 1e-9));
        assert!(
            km.size_ratio_vs(&uniform, &profiles) <= lin.size_ratio_vs(&uniform, &profiles) + 1e-9,
            "kmeans {} vs linear {}",
            km.size_ratio_vs(&uniform, &profiles),
            lin.size_ratio_vs(&uniform, &profiles)
        );
        assert!(km.size_ratio_vs(&uniform, &profiles) < 0.8);
    }

    #[test]
    fn tight_alpha_forces_promotion() {
        let profiles = txl_like();
        let loose = assign_bits(
            AdaptivePolicy::KMeans,
            &profiles,
            &AdaptiveOptions {
                alpha: 3.0,
                ..AdaptiveOptions::default()
            },
        );
        let tight = assign_bits(
            AdaptivePolicy::KMeans,
            &profiles,
            &AdaptiveOptions {
                alpha: 1.01,
                ..AdaptiveOptions::default()
            },
        );
        assert!(tight.estimated_error(&profiles) <= loose.estimated_error(&profiles) + 1e-9);
        assert!(
            tight.compressed_bits_total(&profiles) >= loose.compressed_bits_total(&profiles) - 1e-9
        );
    }

    #[test]
    fn bucket_sizes_pair_with_bits() {
        assert_eq!(BitAssignment::bucket_for_bits(2), 1024);
        assert_eq!(BitAssignment::bucket_for_bits(4), 128);
        assert_eq!(BitAssignment::bucket_for_bits(8), 64);
    }

    #[test]
    fn to_schemes_roundtrip() {
        let a = BitAssignment::from_bits(vec![2, 8]);
        let schemes = a.to_schemes();
        assert_eq!(
            schemes[0],
            CompressionScheme::Qsgd {
                bits: 2,
                bucket_size: 1024
            }
        );
        assert_eq!(
            schemes[1],
            CompressionScheme::Qsgd {
                bits: 8,
                bucket_size: 64
            }
        );
    }

    #[test]
    fn time_aware_prefers_exposed_layers() {
        // Two equal layers, one fully exposed, one fully hidden: with a
        // budget that permits exactly one demotion, the exposed layer must
        // get it.
        let profiles = vec![
            LayerProfile::new("exposed", 1_000_000, 4.0).with_exposure(1.0),
            LayerProfile::new("hidden", 1_000_000, 4.0).with_exposure(0.0),
        ];
        let opts = AdaptiveOptions {
            alpha: 1.7,
            ..AdaptiveOptions::default()
        };
        let a = assign_bits(AdaptivePolicy::TimeAware, &profiles, &opts);
        assert!(
            a.bits[0] <= a.bits[1],
            "exposed layer should get fewer bits: {:?}",
            a.bits
        );
    }

    #[test]
    fn time_aware_respects_budget_and_beats_kmeans_nowhere_on_error() {
        let profiles = txl_like();
        let opts = AdaptiveOptions::default();
        let budget = opts.alpha * uniform_assignment(&profiles, 4).estimated_error(&profiles);
        let a = assign_bits(AdaptivePolicy::TimeAware, &profiles, &opts);
        assert!(a.estimated_error(&profiles) <= budget * (1.0 + 1e-9));
    }

    #[test]
    fn exposure_clamps_to_unit_interval() {
        let p = LayerProfile::new("x", 10, 1.0).with_exposure(7.0);
        assert_eq!(p.exposure, 1.0);
        let p = LayerProfile::new("x", 10, 1.0).with_exposure(-3.0);
        assert_eq!(p.exposure, 0.0);
    }

    #[test]
    fn single_layer_model_works() {
        let profiles = vec![LayerProfile::new("only", 1000, 1.0)];
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::Linear,
            AdaptivePolicy::BayesOpt { trials: 50 },
            AdaptivePolicy::TimeAware,
        ] {
            let a = assign_bits(policy, &profiles, &AdaptiveOptions::default());
            assert_eq!(a.bits.len(), 1);
        }
    }

    #[test]
    fn bayes_search_is_deterministic_per_seed() {
        let profiles = txl_like();
        let opts = AdaptiveOptions::default();
        let a = assign_bits(AdaptivePolicy::BayesOpt { trials: 100 }, &profiles, &opts);
        let b = assign_bits(AdaptivePolicy::BayesOpt { trials: 100 }, &profiles, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn one_bit_levels_floor_at_one() {
        assert_eq!(quant_levels(1), 1.0);
        assert_eq!(quant_levels(2), 1.0);
        assert_eq!(quant_levels(4), 7.0);
        let profiles = txl_like();
        let e1 = uniform_assignment(&profiles, 1).estimated_error(&profiles);
        assert!(e1.is_finite(), "1-bit error must be finite, got {e1}");
    }

    #[test]
    fn one_bit_choices_assign_finite_error_and_repair_without_panic() {
        // Regression: s(1) = 2^0 - 1 = 0 used to make grad_norm / s(b)
        // infinite (NaN for zero-norm layers), which panicked
        // enforce_budget's partial_cmp on the first repair pass.
        let profiles = txl_like();
        let opts = AdaptiveOptions {
            bit_choices: vec![1, 2, 4, 8],
            ..AdaptiveOptions::default()
        };
        let budget = opts.alpha * uniform_assignment(&profiles, 4).estimated_error(&profiles);
        let max_bits = *opts.bit_choices.iter().max().unwrap();
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::Linear,
            AdaptivePolicy::BayesOpt { trials: 100 },
            AdaptivePolicy::TimeAware,
        ] {
            let a = assign_bits(policy, &profiles, &opts);
            let e = a.estimated_error(&profiles);
            assert!(e.is_finite(), "{policy:?} produced non-finite error");
            assert!(
                e <= budget * (1.0 + 1e-9) || a.bits.iter().all(|&b| b == max_bits),
                "{policy:?} violates budget without saturating: {e} > {budget}"
            );
        }
    }

    #[test]
    fn one_bit_assignment_maps_to_sign_compression() {
        let a = BitAssignment::from_bits(vec![1, 4]);
        let schemes = a.to_schemes();
        assert_eq!(schemes[0], CompressionScheme::OneBit { bucket_size: 1024 });
        assert_eq!(
            schemes[1],
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128
            }
        );
        // The size model matches the emitted schemes' nominal bit cost.
        let profiles = vec![
            LayerProfile::new("a", 4096, 1.0),
            LayerProfile::new("b", 4096, 1.0),
        ];
        let expect: f64 = schemes
            .iter()
            .zip(&profiles)
            .map(|(s, p)| s.nominal_bits_per_element() * p.size as f64)
            .sum();
        assert!((a.compressed_bits_total(&profiles) - expect).abs() < 1e-6);
    }

    #[test]
    fn zero_norm_layers_are_benign() {
        // Frozen/converged layers report grad_norm == 0.0 (allowed by
        // LayerProfile::new); every policy must keep scores finite.
        let mut profiles = txl_like();
        profiles.push(LayerProfile::new("frozen", 1024, 0.0));
        for policy in [
            AdaptivePolicy::KMeans,
            AdaptivePolicy::Linear,
            AdaptivePolicy::BayesOpt { trials: 50 },
            AdaptivePolicy::TimeAware,
        ] {
            let a = assign_bits(policy, &profiles, &AdaptiveOptions::default());
            assert!(a.estimated_error(&profiles).is_finite());
            assert_eq!(a.bits.len(), profiles.len());
        }
    }

    #[test]
    #[should_panic(expected = "bit_choices is empty")]
    fn empty_bit_choices_rejected() {
        let profiles = vec![LayerProfile::new("x", 10, 1.0)];
        let opts = AdaptiveOptions {
            bit_choices: vec![],
            ..AdaptiveOptions::default()
        };
        assign_bits(AdaptivePolicy::KMeans, &profiles, &opts);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_bit_choice_rejected() {
        let profiles = vec![LayerProfile::new("x", 10, 1.0)];
        let opts = AdaptiveOptions {
            bit_choices: vec![0, 4],
            ..AdaptiveOptions::default()
        };
        assign_bits(AdaptivePolicy::KMeans, &profiles, &opts);
    }

    #[test]
    #[should_panic(expected = "duplicate bit choice")]
    fn duplicate_bit_choices_rejected() {
        let profiles = vec![LayerProfile::new("x", 10, 1.0)];
        let opts = AdaptiveOptions {
            bit_choices: vec![4, 2, 4],
            ..AdaptiveOptions::default()
        };
        assign_bits(AdaptivePolicy::Linear, &profiles, &opts);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and > 0")]
    fn non_positive_alpha_rejected() {
        let profiles = vec![LayerProfile::new("x", 10, 1.0)];
        let opts = AdaptiveOptions {
            alpha: 0.0,
            ..AdaptiveOptions::default()
        };
        assign_bits(AdaptivePolicy::KMeans, &profiles, &opts);
    }

    #[test]
    fn infeasible_search_saturates_within_the_choice_set() {
        // Regression: when no randomized-search sample met the budget,
        // `search_bits` fell back to a literal uniform 4-bit plan — an
        // out-of-set width whenever 4 ∉ bit_choices. It must saturate at
        // the largest available choice instead.
        let profiles = txl_like();
        let opts = AdaptiveOptions {
            bit_choices: vec![1, 2],
            alpha: 1.0, // tight budget: nothing in {1,2} bits is feasible
            ..AdaptiveOptions::default()
        };
        let a = assign_bits(AdaptivePolicy::BayesOpt { trials: 8 }, &profiles, &opts);
        assert!(
            a.bits.iter().all(|&b| b == 1 || b == 2),
            "out-of-set bit-widths: {:?}",
            a.bits
        );
    }

    #[test]
    fn uniform_assignment_error_scales_with_levels() {
        let profiles = txl_like();
        let e2 = uniform_assignment(&profiles, 2).estimated_error(&profiles);
        let e4 = uniform_assignment(&profiles, 4).estimated_error(&profiles);
        let e8 = uniform_assignment(&profiles, 8).estimated_error(&profiles);
        assert!(e2 > e4 && e4 > e8);
        // s doubles roughly per bit: 1, 7, 127.
        assert!((e2 / e4 - 7.0).abs() < 1e-9);
    }
}
