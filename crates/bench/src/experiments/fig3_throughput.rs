//! Figure 3: training throughput for ResNet50, Transformer-XL, ViT and
//! BERT across the four Table 2 machines, at 1/2/4/8 GPUs, for the vanilla
//! NCCL baseline, QNCCL, CGX, and ideal linear scaling.
//!
//! Paper shape: commodity machines scale < 50% of linear with NCCL; CGX
//! reaches 80-90% (a 2-3x self-speedup) and matches/outperforms the DGX-1
//! on Transformer-class models; QNCCL improves on NCCL but trails CGX.

use crate::estimate::{estimate, Estimate, SystemSetup};
use crate::{fmt_items, fmt_pct, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let models = [
        ModelId::ResNet50,
        ModelId::TransformerXl,
        ModelId::VitBase,
        ModelId::BertBase,
    ];
    let cell = |e: &Estimate| format!("{} ({})", fmt_items(e.throughput), fmt_pct(e.scaling));
    let qnccl = SystemSetup::Qnccl {
        bits: 4,
        bucket_size: 128,
    };
    let mut out = String::new();
    for model in models {
        let mut rows = Vec::new();
        for machine in &MachineSpec::table2_systems() {
            for n in [1usize, 2, 4, 8] {
                let m = machine.with_gpus(n);
                rows.push(vec![
                    format!("{} x{n}", machine.name()),
                    cell(&estimate(&m, model, &SystemSetup::BaselineNccl)),
                    cell(&estimate(&m, model, &qnccl)),
                    cell(&estimate(&m, model, &SystemSetup::cgx())),
                    fmt_items(estimate(&m, model, &SystemSetup::Ideal).throughput),
                ]);
            }
        }
        out += &render_table(
            &format!("Figure 3: {model} throughput ({})", model.unit()),
            &["machine", "NCCL", "QNCCL(4b)", "CGX", "ideal"],
            &rows,
        );
    }
    note(
        &mut out,
        "percentages are fractions of ideal linear scaling on that machine.",
    );

    // The headline claims, verified numerically.
    let rtx = MachineSpec::rtx3090();
    let dgx = MachineSpec::dgx1();
    let mut claims = Vec::new();
    for model in models {
        let base = estimate(&rtx, model, &SystemSetup::BaselineNccl);
        let cgx = estimate(&rtx, model, &SystemSetup::cgx());
        let dgx_b = estimate(&dgx, model, &SystemSetup::BaselineNccl);
        claims.push(vec![
            model.to_string(),
            format!("{:.2}x", cgx.throughput / base.throughput),
            fmt_pct(cgx.scaling),
            format!("{:.2}", cgx.throughput / dgx_b.throughput),
        ]);
    }
    out += &render_table(
        "headline claims on 8x RTX 3090",
        &[
            "model",
            "CGX self-speedup vs NCCL",
            "CGX % of linear",
            "CGX-3090 / DGX-1-NCCL",
        ],
        &claims,
    );
    note(&mut out, "paper: 2-3x self-speedup, 80-90% of linear, matching or surpassing DGX-1 (ratio >= ~1 on transformers).");
    out
}
