//! Scheduling ablations (paper Section 4, "Improved Scheduling"):
//! FIFO vs forward-priority message ordering, and cross-barrier training —
//! including the paper's two findings: cross-barrier buys little on a
//! single node once compression removes the bottleneck, and gradient
//! clipping (Transformers) forbids it outright.

use crate::{cgx_step_inputs, fmt_ms, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::{
    cross_barrier_step, simulate_step_ordered, MachineSpec, MessageOrder, StepConfig,
};

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let mut rows = Vec::new();
    for (model, clipping) in [
        (ModelId::ResNet50, false),
        (ModelId::Vgg16, false),
        (ModelId::TransformerXl, true), // clipping required
        (ModelId::BertBase, true),
    ] {
        let (msgs, compute) = cgx_step_inputs(&rtx, model);
        let cfg = StepConfig::cgx(rtx.clone());
        let fifo = simulate_step_ordered(&cfg, &msgs, compute, MessageOrder::Fifo);
        let prio = simulate_step_ordered(&cfg, &msgs, compute, MessageOrder::Priority);
        let cross = cross_barrier_step(&cfg, &msgs, compute, clipping);
        rows.push(vec![
            model.to_string(),
            fmt_ms(fifo.step_seconds),
            fmt_ms(prio.step_seconds),
            match cross {
                Some(r) => fmt_ms(r.step_seconds),
                None => "n/a (clipping)".into(),
            },
        ]);
    }
    let mut out = render_table(
        "Scheduling ablations: CGX 4-bit on 8x RTX 3090",
        &["model", "FIFO", "priority", "cross-barrier"],
        &rows,
    );
    note(&mut out, "paper: 'cross-barrier optimization does not provide significant performance in a single node setup'.");
    note(&mut out, "gradient clipping requires the global gradient before the update (Technical Issue 3) -> n/a for Transformers.");
    out
}
