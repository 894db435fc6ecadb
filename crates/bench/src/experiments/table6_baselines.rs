//! Table 6: CGX vs PowerSGD vs GRACE (and the uncompressed baseline) on a
//! single 8x RTX 3090 machine, FP32 where the comparison requires it
//! (PowerSGD cannot train in FP16).
//!
//! Paper shape: CGX > PowerSGD > baseline > GRACE.

use crate::{fmt_items, note, render_table};
use cgx_core::api::CgxBuilder;
use cgx_core::estimate::{estimate_fp32, SystemSetup};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let models = [ModelId::ResNet50, ModelId::TransformerXl, ModelId::BertBase];
    let setups: Vec<(&str, SystemSetup)> = vec![
        ("Baseline", SystemSetup::BaselineNccl),
        (
            "CGX",
            SystemSetup::Cgx {
                session: Box::new(CgxBuilder::new().build()),
                fp32: true,
            },
        ),
        ("PowerSGD", SystemSetup::PowerSgd { rank: 4 }),
        ("Grace", SystemSetup::Grace { bits: 4 }),
    ];
    let rows: Vec<Vec<String>> = setups
        .iter()
        .map(|(name, setup)| {
            // Everything runs FP32: PowerSGD cannot train in FP16, so the
            // paper pins the whole comparison to full precision.
            let cells = models.map(|model| fmt_items(estimate_fp32(&rtx, model, setup).throughput));
            std::iter::once(name.to_string()).chain(cells).collect()
        })
        .collect();
    let mut out = render_table(
        "Table 6: items/s, single 8x RTX 3090 node",
        &["", "ResNet50", "Transformer-XL-base", "BERT"],
        &rows,
    );
    note(&mut out, "paper: baseline 1900/170k/17.5k; CGX 2900/260k/38.7k; PowerSGD 2600/220k*/38.3k; Grace 1000/30k/14.3k.");
    note(
        &mut out,
        "expected ordering: CGX > PowerSGD > baseline > Grace.",
    );
    out
}
