//! Figure 11: time per iteration for CGX's communication backends — the
//! bespoke shared-memory transport (SHM) vs NCCL p2p vs GPU-aware MPI.
//!
//! Paper shape: SHM outperforms the other backends by up to 33% (single
//! memory transfer through the copy engine, minimal synchronization).

use crate::{cgx_step_inputs, fmt_ms, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::{simulate_step, CommBackend, MachineSpec, StepConfig};

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let mut rows = Vec::new();
    for model in [ModelId::ResNet50, ModelId::TransformerXl, ModelId::VitBase] {
        let (msgs, compute) = cgx_step_inputs(&rtx, model);
        let mut row = vec![model.to_string()];
        let mut times = Vec::new();
        for backend in CommBackend::all() {
            let mut cfg = StepConfig::cgx(rtx.clone());
            cfg.backend = backend;
            let r = simulate_step(&cfg, &msgs, compute);
            times.push(r.step_seconds);
            row.push(fmt_ms(r.step_seconds));
        }
        row.push(format!("+{:.0}%", 100.0 * (times[2] / times[0] - 1.0)));
        rows.push(row);
    }
    let mut out = render_table(
        "Figure 11: time per iteration by backend (4-bit CGX, 8x RTX 3090)",
        &["model", "SHM", "NCCL", "MPI", "MPI vs SHM"],
        &rows,
    );
    note(
        &mut out,
        "paper: the SHM backend outperforms other communication libraries by up to 33%.",
    );
    out
}
