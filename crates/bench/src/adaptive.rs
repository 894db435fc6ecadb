//! Adaptive layer-wise compression wired to a registered model.
//!
//! Periodically (paper: every few hundred steps) CGX collects accumulated
//! gradient statistics per layer, runs one of the assignment policies, and
//! re-parameterizes the per-layer compressors. This module performs one
//! such re-assignment round for a zoo model using the synthetic gradient
//! source.

use cgx_adaptive::{
    assign_bits, uniform_assignment, AdaptiveController, AdaptiveOptions, AdaptivePlanTrace,
    AdaptivePolicy, AdaptiveTrainConfig, BitAssignment, ControlledLayer, LayerProfile,
};
use cgx_compress::CompressionScheme;
use cgx_models::{GradientSynth, ModelSpec};

/// Result of one adaptive re-assignment round.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Indices (into the model's layer list) of the compressible layers the
    /// assignment covers.
    pub layer_indices: Vec<usize>,
    /// The bit assignment over those layers.
    pub assignment: BitAssignment,
    /// The profiles the policy saw.
    pub profiles: Vec<LayerProfile>,
    /// Compressed-size ratio vs the uniform static 4-bit assignment
    /// (Figure 5b / Table 7 "Compression").
    pub size_ratio_vs_static4: f64,
    /// Estimated-error ratio vs the uniform static 4-bit assignment
    /// (Figure 5a).
    pub error_ratio_vs_static4: f64,
    /// Per-model-layer schemes (full precision for filtered layers).
    pub schemes: Vec<CompressionScheme>,
}

/// Runs one adaptive round for `model`: accumulate `stat_steps` synthetic
/// gradients, profile the compressible layers, and solve the assignment
/// problem with `policy`.
///
/// # Panics
///
/// Panics if `stat_steps` is zero.
pub fn adaptive_compression_for(
    model: &ModelSpec,
    policy: AdaptivePolicy,
    opts: &AdaptiveOptions,
    stat_steps: usize,
    seed: u64,
) -> AdaptiveOutcome {
    assert!(stat_steps > 0, "need at least one statistics step");
    let mut synth = GradientSynth::new(model, seed);
    let norms = synth.accumulated_norms(stat_steps);
    let mut layer_indices = Vec::new();
    let mut profiles = Vec::new();
    let total = model.layers().len().max(1) as f64;
    for (i, layer) in model.layers().iter().enumerate() {
        if layer.kind().is_filtered_by_default() {
            continue; // full precision anyway
        }
        layer_indices.push(i);
        // Exposure: gradients are produced output-to-input during backward,
        // so layers early in forward order surface last and their transfers
        // cannot hide behind remaining compute.
        let exposure = 1.0 - i as f64 / total;
        profiles.push(
            LayerProfile::new(layer.name(), layer.elements(), norms[i]).with_exposure(exposure),
        );
    }
    let assignment = assign_bits(policy, &profiles, opts);
    let static4 = uniform_assignment(&profiles, 4);
    let size_ratio = assignment.size_ratio_vs(&static4, &profiles);
    let error_ratio =
        assignment.estimated_error(&profiles) / static4.estimated_error(&profiles).max(1e-12);
    // Expand to per-model-layer schemes.
    let adaptive_schemes = assignment.to_schemes();
    let mut schemes = vec![CompressionScheme::None; model.layers().len()];
    for (slot, scheme) in layer_indices.iter().zip(adaptive_schemes) {
        schemes[*slot] = scheme;
    }
    AdaptiveOutcome {
        layer_indices,
        assignment,
        profiles,
        size_ratio_vs_static4: size_ratio,
        error_ratio_vs_static4: error_ratio,
        schemes,
    }
}

/// What a [`live_adaptive_session`] run produced.
#[derive(Debug, Clone)]
pub struct LiveSessionReport {
    /// Every plan the controller committed, in order.
    pub trace: AdaptivePlanTrace,
    /// Total wire bits the run transmitted per gradient exchange,
    /// integrated over all steps under whichever plan was live.
    pub adaptive_wire_bits: f64,
    /// The same integral under the static uniform 4-bit plan.
    pub static4_wire_bits: f64,
}

impl LiveSessionReport {
    /// Wire-traffic ratio of the live-adaptive run vs static 4-bit
    /// (< 1.0 means the controller saved bytes).
    pub fn wire_ratio_vs_static4(&self) -> f64 {
        self.adaptive_wire_bits / self.static4_wire_bits.max(1e-12)
    }
}

/// Drives the *live* [`AdaptiveController`] — the same component the
/// real trainers embed — over a zoo model for `total_steps`, feeding it
/// the synthetic per-step gradient norms. Unlike
/// [`crate::session_sim::simulate_adaptive_session`], which re-solves
/// the assignment problem from scratch each period, this exercises the
/// production control loop: warm-up, periodic re-plans, plan epochs, and
/// the trace the trainers export.
///
/// # Panics
///
/// Panics if `total_steps` is zero or the config is invalid.
pub fn live_adaptive_session(
    model: &ModelSpec,
    cfg: &AdaptiveTrainConfig,
    total_steps: usize,
    seed: u64,
) -> LiveSessionReport {
    assert!(total_steps > 0, "need at least one step");
    let n = model.layers().len();
    let total = n.max(1) as f64;
    let layers: Vec<ControlledLayer> = model
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| ControlledLayer {
            name: l.name().to_string(),
            elements: l.elements(),
            compressible: !l.kind().is_filtered_by_default(),
            exposure: 1.0 - i as f64 / total,
        })
        .collect();
    let base: Vec<CompressionScheme> = layers
        .iter()
        .map(|l| {
            if l.compressible {
                CompressionScheme::cgx_default()
            } else {
                CompressionScheme::None
            }
        })
        .collect();
    let static4_step_bits: f64 = layers
        .iter()
        .zip(&base)
        .map(|(l, s)| s.nominal_bits_per_element() * l.elements as f64)
        .sum();
    let mut controller = AdaptiveController::new(cfg.clone(), layers.clone(), base);
    let mut synth = GradientSynth::new(model, seed);
    let mut adaptive_wire_bits = 0.0;
    for step in 0..total_steps {
        // The closed-form norm statistic: byte-exact across repeated
        // sessions and free of 100M-element gradient materialization.
        let norms = synth.expected_accumulated_norms(1);
        adaptive_wire_bits += layers
            .iter()
            .zip(controller.current_schemes())
            .map(|(l, s)| s.nominal_bits_per_element() * l.elements as f64)
            .sum::<f64>();
        controller.observe_norms(&norms);
        controller.maybe_replan(step + 1, 0);
    }
    LiveSessionReport {
        trace: controller.into_trace(),
        adaptive_wire_bits,
        static4_wire_bits: static4_step_bits * total_steps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_models::{LayerKind, ModelId};

    fn txl_outcome(policy: AdaptivePolicy) -> AdaptiveOutcome {
        adaptive_compression_for(
            &ModelSpec::build(ModelId::TransformerXl),
            policy,
            &AdaptiveOptions::default(),
            2,
            99,
        )
    }

    #[test]
    fn kmeans_assigns_large_insensitive_layers_below_static() {
        // Paper: "the automated procedure identifies large layers with low
        // performance sensitivity (e.g. fully-connected or embedding
        // layers) for lower bit-widths". The 137M-row embedding must sit
        // below the static 4-bit baseline (and below the most sensitive
        // cluster).
        let model = ModelSpec::build(ModelId::TransformerXl);
        let out = txl_outcome(AdaptivePolicy::KMeans);
        let emb_pos = out
            .layer_indices
            .iter()
            .position(|&i| model.layers()[i].kind() == LayerKind::Embedding)
            .expect("embedding profiled");
        let emb_bits = out.assignment.bits[emb_pos];
        assert!(emb_bits < 4, "embedding bits {emb_bits}");
        assert!(emb_bits < *out.assignment.bits.iter().max().unwrap());
    }

    #[test]
    fn figure5_ratios_in_paper_range() {
        // Table 7: compression ~0.5-0.8 of static 4-bit; error within the
        // alpha budget.
        let out = txl_outcome(AdaptivePolicy::KMeans);
        assert!(
            out.size_ratio_vs_static4 > 0.3 && out.size_ratio_vs_static4 < 0.9,
            "size ratio {}",
            out.size_ratio_vs_static4
        );
        assert!(
            out.error_ratio_vs_static4 <= AdaptiveOptions::default().alpha + 1e-9,
            "error ratio {}",
            out.error_ratio_vs_static4
        );
    }

    #[test]
    fn filtered_layers_stay_full_precision() {
        let model = ModelSpec::build(ModelId::TransformerXl);
        let out = txl_outcome(AdaptivePolicy::Linear);
        for (i, layer) in model.layers().iter().enumerate() {
            if layer.kind().is_filtered_by_default() {
                assert_eq!(out.schemes[i], CompressionScheme::None, "{}", layer.name());
            } else {
                assert!(matches!(out.schemes[i], CompressionScheme::Qsgd { .. }));
            }
        }
    }

    #[test]
    fn schemes_align_with_model_layers() {
        let model = ModelSpec::build(ModelId::TransformerXl);
        let out = txl_outcome(AdaptivePolicy::BayesOpt { trials: 50 });
        assert_eq!(out.schemes.len(), model.layers().len());
        assert_eq!(out.layer_indices.len(), out.assignment.bits.len());
    }

    #[test]
    fn live_session_replans_and_saves_wire_traffic_on_txl() {
        // The live controller over Transformer-XL: several committed
        // plans, every one within budget, and the integrated wire
        // traffic at least a fifth below static 4-bit (0.632 today).
        let cfg = AdaptiveTrainConfig::default();
        let report = live_adaptive_session(&ModelSpec::build(ModelId::TransformerXl), &cfg, 64, 7);
        assert!(
            report.trace.replans() >= 2,
            "only {} re-plans",
            report.trace.replans()
        );
        let max_bits = *cfg.bit_choices.iter().max().unwrap();
        for rec in &report.trace.records {
            assert!(
                rec.estimated_error <= rec.budget * (1.0 + 1e-9)
                    || rec.bits.iter().all(|&b| b == max_bits),
                "plan epoch {} violates its budget",
                rec.plan_epoch
            );
        }
        let ratio = report.wire_ratio_vs_static4();
        assert!(
            ratio <= 0.8,
            "live adaptation saved under 20% of the wire traffic: ratio {ratio}"
        );
    }

    #[test]
    fn live_session_is_deterministic() {
        let cfg = AdaptiveTrainConfig::default();
        let model = ModelSpec::build(ModelId::ResNet50);
        let a = live_adaptive_session(&model, &cfg, 40, 11);
        let b = live_adaptive_session(&model, &cfg, 40, 11);
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.adaptive_wire_bits, b.adaptive_wire_bits);
    }
}
