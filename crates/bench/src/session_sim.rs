//! Online adaptive compression over a training run.
//!
//! Paper Section 5: "In addition, these parameters can be adapted during
//! training. ... We periodically collect gradient statistics and then
//! re-assign bit-widths and bucket-size to each layer." This module
//! simulates that control loop over a full training session: gradient
//! statistics evolve (magnitudes decay and layer profiles shift as
//! training progresses), the controller re-profiles every `period` steps,
//! re-solves the assignment problem, and the step time tracks the current
//! assignment.

use crate::estimate::{estimate, estimate_with_schemes, SystemSetup};
use cgx_adaptive::{
    assign_bits, uniform_assignment, AdaptiveOptions, AdaptivePolicy, BitAssignment, LayerProfile,
};
use cgx_compress::CompressionScheme;
use cgx_models::{GradientSynth, ModelId, ModelSpec};
use cgx_simnet::MachineSpec;

/// One re-assignment epoch of the online controller.
#[derive(Debug, Clone)]
pub struct AdaptationEpoch {
    /// First training step this assignment was active for.
    pub start_step: usize,
    /// The assignment over compressible layers.
    pub assignment: BitAssignment,
    /// Compressed-size ratio vs static uniform 4-bit.
    pub size_ratio: f64,
    /// Estimated-error ratio vs static uniform 4-bit (same statistics).
    pub(crate) error_ratio: f64,
    /// Simulated step seconds under this assignment.
    pub step_seconds: f64,
}

/// Result of simulating a training session under online adaptation.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-epoch controller decisions.
    pub epochs: Vec<AdaptationEpoch>,
    /// Total simulated wall-clock of the adaptive run, seconds.
    pub(crate) adaptive_seconds: f64,
    /// Total simulated wall-clock of the static 4-bit run, seconds.
    pub(crate) static_seconds: f64,
}

impl SessionReport {
    /// End-to-end speedup of online adaptation over static 4-bit.
    pub fn speedup(&self) -> f64 {
        self.static_seconds / self.adaptive_seconds
    }
}

/// Simulates `total_steps` of training on `machine`, re-running the
/// adaptive policy every `period` steps on freshly accumulated gradient
/// statistics (which evolve with training progress).
///
/// # Panics
///
/// Panics if `period` or `total_steps` is zero.
pub fn simulate_adaptive_session(
    machine: &MachineSpec,
    model_id: ModelId,
    policy: AdaptivePolicy,
    opts: &AdaptiveOptions,
    total_steps: usize,
    period: usize,
    seed: u64,
) -> SessionReport {
    assert!(period > 0 && total_steps > 0, "degenerate session");
    let model = ModelSpec::build(model_id);
    let static_step = estimate(machine, model_id, &SystemSetup::cgx())
        .report
        .step_seconds;
    let mut synth = GradientSynth::new(&model, seed);
    let mut epochs = Vec::new();
    let mut adaptive_seconds = 0.0;
    let mut step = 0;
    while step < total_steps {
        // Collect statistics with the synthetic source at the *current*
        // training progress (GradientSynth decays magnitudes with step).
        // The analytic expectation is used so 100M+-parameter models can
        // be profiled per epoch without materializing gradients.
        let norms = synth.expected_accumulated_norms(2);
        let total_layers = model.layers().len().max(1) as f64;
        let mut layer_indices = Vec::new();
        let mut profiles = Vec::new();
        for (i, layer) in model.layers().iter().enumerate() {
            if layer.kind().is_filtered_by_default() {
                continue;
            }
            layer_indices.push(i);
            profiles.push(
                LayerProfile::new(layer.name(), layer.elements(), norms[i])
                    .with_exposure(1.0 - i as f64 / total_layers),
            );
        }
        let assignment = assign_bits(policy, &profiles, opts);
        let static4 = uniform_assignment(&profiles, 4);
        let size_ratio = assignment.size_ratio_vs(&static4, &profiles);
        let error_ratio =
            assignment.estimated_error(&profiles) / static4.estimated_error(&profiles).max(1e-12);
        // Expand to the full layer list and price the step.
        let mut schemes = vec![CompressionScheme::None; model.layers().len()];
        for (slot, scheme) in layer_indices.iter().zip(assignment.to_schemes()) {
            schemes[*slot] = scheme;
        }
        let step_seconds = estimate_with_schemes(machine, model_id, &schemes)
            .report
            .step_seconds;
        let steps_this_epoch = period.min(total_steps - step);
        adaptive_seconds += step_seconds * steps_this_epoch as f64;
        epochs.push(AdaptationEpoch {
            start_step: step,
            assignment,
            size_ratio,
            error_ratio,
            step_seconds,
        });
        step += steps_this_epoch;
        // Advance the gradient source to the end of the epoch so the next
        // profile reflects training progress.
        synth.skip_steps(steps_this_epoch.saturating_sub(2));
    }
    SessionReport {
        epochs,
        adaptive_seconds,
        static_seconds: static_step * total_steps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_session(policy: AdaptivePolicy) -> SessionReport {
        simulate_adaptive_session(
            &MachineSpec::genesis_cluster(),
            ModelId::TransformerXl,
            policy,
            &AdaptiveOptions::default(),
            24,
            8,
            7,
        )
    }

    #[test]
    fn session_produces_one_epoch_per_period() {
        let r = quick_session(AdaptivePolicy::KMeans);
        assert_eq!(r.epochs.len(), 3);
        assert_eq!(r.epochs[0].start_step, 0);
        assert_eq!(r.epochs[1].start_step, 8);
        assert_eq!(r.epochs[2].start_step, 16);
    }

    #[test]
    fn online_adaptation_beats_static_multinode() {
        let r = quick_session(AdaptivePolicy::KMeans);
        assert!(
            r.speedup() > 1.1,
            "online adaptive speedup {:.2}",
            r.speedup()
        );
    }

    #[test]
    fn every_epoch_respects_the_budget() {
        let r = quick_session(AdaptivePolicy::TimeAware);
        for e in &r.epochs {
            assert!(
                e.error_ratio <= AdaptiveOptions::default().alpha + 1e-9,
                "epoch at step {} exceeds budget: {}",
                e.start_step,
                e.error_ratio
            );
            assert!(e.size_ratio < 1.0, "no compression gain");
            assert!(e.step_seconds > 0.0);
        }
    }

    #[test]
    fn assignments_can_change_across_epochs() {
        // Gradient statistics decay with progress; the controller is free
        // to re-assign. We only require that re-profiling happened (epochs
        // recorded with possibly-equal assignments) and that wall-clock
        // accounting is consistent.
        let r = quick_session(AdaptivePolicy::KMeans);
        let total: f64 = r.epochs.iter().map(|e| e.step_seconds * 8.0).sum();
        assert!((total - r.adaptive_seconds).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate session")]
    fn zero_period_panics() {
        simulate_adaptive_session(
            &MachineSpec::rtx3090(),
            ModelId::ResNet50,
            AdaptivePolicy::KMeans,
            &AdaptiveOptions::default(),
            10,
            0,
            1,
        );
    }
}
