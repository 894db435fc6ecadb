//! Figure 6 (Appendix A): compression overhead — time per iteration with
//! real quantization kernels vs identical communication with free ("fake")
//! compression, on Transformer-XL and ViT.
//!
//! Paper shape: the overhead of the fused quantization kernels is 1-3% of
//! the step — negligible, contradicting Agarwal et al.'s pessimism.
//!
//! Both steps simulate the same CGX session's messages on the same stack;
//! the free one prices their kernels at zero. The host's kernel rates are
//! the benchmark's `compress.*_melem_s` probes.

use crate::{cgx_step_inputs, fmt_ms, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::{simulate_step, LayerMsg, MachineSpec, StepConfig, StepReport};

/// One CGX step of `model` on `machine`, with its quantization kernels and
/// with the same messages' kernels free.
fn steps(machine: &MachineSpec, model: ModelId) -> (StepReport, StepReport) {
    let (msgs, compute) = cgx_step_inputs(machine, model);
    let free: Vec<LayerMsg> = msgs
        .iter()
        .map(|m| LayerMsg {
            kernel_seconds: 0.0,
            ..m.clone()
        })
        .collect();
    let cfg = StepConfig::cgx(machine.clone());
    (
        simulate_step(&cfg, &msgs, compute),
        simulate_step(&cfg, &free, compute),
    )
}

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let rows: Vec<Vec<String>> = [ModelId::TransformerXl, ModelId::VitBase]
        .into_iter()
        .map(|model| {
            let (quantized, free) = steps(&rtx, model);
            vec![
                model.to_string(),
                fmt_ms(quantized.step_seconds),
                fmt_ms(free.step_seconds),
                fmt_ms(quantized.kernel_seconds),
                format!(
                    "{:.1}%",
                    100.0 * quantized.kernel_seconds / quantized.step_seconds
                ),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 6: quantization vs fake compression, 8x RTX 3090",
        &[
            "model",
            "step (quantize)",
            "step (fake, same messages)",
            "kernel time",
            "kernel % of step",
        ],
        &rows,
    );
    note(
        &mut out,
        "paper: the impact of the compression function is negligible (1-3%).",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_kernels_never_slow_a_step() {
        for machine in [MachineSpec::rtx3090(), MachineSpec::rtx2080()] {
            for model in ModelId::all() {
                let (quantized, free) = steps(&machine, model);
                assert!(
                    free.step_seconds <= quantized.step_seconds,
                    "{model} on {}: free {} s > quantized {} s",
                    machine.name(),
                    free.step_seconds,
                    quantized.step_seconds
                );
                assert_eq!(free.kernel_seconds, 0.0, "{model}");
            }
        }
    }
}
