//! Figure 1: compression ratio vs average step time on the 8x RTX 3090
//! machine, with the per-model ideal (linear-scaling) step time as the
//! reference line.
//!
//! Paper shape: for all models, step time approaches ideal as γ grows;
//! ResNet50 saturates around one order of magnitude of compression while
//! Transformer-class models keep benefiting up to two orders.

use crate::{fmt_ms, note, render_table};
use cgx_core::estimate::{estimate, SystemSetup};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let machine = MachineSpec::rtx3090();
    let gammas: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
    let step = |model, gamma| {
        estimate(&machine, model, &SystemSetup::Fake { gamma })
            .report
            .step_seconds
    };
    let mut headers: Vec<String> = vec!["model".into(), "ideal".into()];
    headers.extend(gammas.iter().map(|g| format!("x{g}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for model in ModelId::all() {
        let ideal = estimate(&machine, model, &SystemSetup::Ideal);
        let mut row = vec![model.to_string(), fmt_ms(ideal.report.step_seconds)];
        row.extend(gammas.iter().map(|&gamma| fmt_ms(step(model, gamma))));
        rows.push(row);
    }
    let mut out = render_table(
        "Figure 1: step time vs synthetic compression ratio (8x RTX 3090)",
        &header_refs,
        &rows,
    );
    note(
        &mut out,
        "dotted-line equivalent: the 'ideal' column (single-GPU time).",
    );
    note(
        &mut out,
        "bandwidth is the bottleneck: time falls toward ideal as gamma grows.",
    );

    // Where does each model saturate: within 5% of the bandwidth-free
    // ceiling (the Table 8 limit), i.e. where more compression stops
    // paying.
    let sat_rows: Vec<Vec<String>> = ModelId::all()
        .into_iter()
        .map(|model| {
            let ceiling = step(model, 1_000_000.0);
            let sat = gammas.iter().find(|&&g| step(model, g) < ceiling * 1.05);
            vec![
                model.to_string(),
                sat.map(|g| format!("x{g}")).unwrap_or("> x256".into()),
            ]
        })
        .collect();
    out += &render_table(
        "compression needed to exhaust the bandwidth savings (within 5% of ceiling)",
        &["model", "gamma"],
        &sat_rows,
    );
    out
}
