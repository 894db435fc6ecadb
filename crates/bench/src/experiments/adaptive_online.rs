//! Online adaptation over a training session (paper Section 5: "these
//! parameters can be adapted during training"): the controller re-profiles
//! gradient statistics periodically and re-solves the assignment problem;
//! as gradient magnitudes decay, the feasible region widens and the
//! controller can compress harder. A second table drives the *live*
//! controller — the component the trainers embed — over the model zoo
//! (closed-form gradient statistics, so every cell is deterministic).

use crate::adaptive::live_adaptive_session;
use crate::session_sim::simulate_adaptive_session;
use crate::{bit_histogram, fmt_ms, note, render_table};
use cgx_adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx_engine::AdaptiveTrainConfig;
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let cluster = MachineSpec::genesis_cluster();
    let report = simulate_adaptive_session(
        &cluster,
        ModelId::TransformerXl,
        AdaptivePolicy::KMeans,
        &AdaptiveOptions::default(),
        2000,
        250,
        7,
    );
    let rows: Vec<Vec<String>> = report
        .epochs
        .iter()
        .map(|e| {
            vec![
                e.start_step.to_string(),
                format!("{:.2}", e.size_ratio),
                format!("{:.2}", e.error_ratio),
                fmt_ms(e.step_seconds),
                bit_histogram(&e.assignment.bits),
            ]
        })
        .collect();
    let mut out = render_table(
        "Online adaptive compression: Transformer-XL on the 4x4x3090 cluster (KMEANS, period 250)",
        &[
            "step",
            "size vs 4-bit",
            "error vs 4-bit",
            "step time",
            "bit histogram",
        ],
        &rows,
    );
    outln!(
        out,
        "\nend-to-end: adaptive {:.1} s vs static 4-bit {:.1} s -> {:.2}x speedup over the whole run",
        report.adaptive_seconds,
        report.static_seconds,
        report.speedup()
    );
    note(&mut out, "re-profiling is cheap (closed-form statistics) and keeps every epoch inside the alpha error budget.");

    let zoo: Vec<Vec<String>> = ModelId::all()
        .into_iter()
        .map(|id| {
            let report = live_adaptive_session(
                &ModelSpec::build(id),
                &AdaptiveTrainConfig::default(),
                64,
                7,
            );
            let last = report.trace.records.last();
            vec![
                id.name().to_string(),
                report.trace.replans().to_string(),
                format!("{:.3}", report.wire_ratio_vs_static4()),
                last.map_or("-".into(), |r| format!("{:.2}", r.nominal_bits_per_element)),
            ]
        })
        .collect();
    out += "\n";
    out += &render_table(
        "Live controller over the model zoo (64 steps, default AdaptiveTrainConfig, seed 7)",
        &[
            "model",
            "re-plans",
            "wire vs static 4-bit",
            "final bits/elem",
        ],
        &zoo,
    );
    note(&mut out, "integrated wire traffic of the plans the live controller commits, against uniform 4-bit over the same steps.");
    out
}
