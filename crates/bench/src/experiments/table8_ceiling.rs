//! Table 8 (Appendix E): the bandwidth-optimization ceiling — the maximal
//! fraction of linear scaling achievable on the 8x RTX 3090 machine when
//! the bandwidth term is artificially removed (extreme fake compression).
//!
//! Paper shape: 88-95%; the residue is latency, framework overhead, and the
//! non-overlappable first layers (embeddings), which CGX's real numbers
//! approach.

use crate::estimate::{estimate, SystemSetup};
use crate::{fmt_pct, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let models = [
        ModelId::ResNet50,
        ModelId::Vgg16,
        ModelId::TransformerXl,
        ModelId::BertBase,
        ModelId::VitBase,
    ];
    let row = |label: &str, setup: &SystemSetup| -> Vec<String> {
        let cells = models.map(|model| fmt_pct(estimate(&rtx, model, setup).scaling));
        std::iter::once(label.to_string()).chain(cells).collect()
    };
    let mut out = render_table(
        "Table 8: maximal % of linear scaling with bandwidth removed (8x RTX 3090)",
        &["", "ResNet50", "VGG16", "TXL", "BERT", "ViT"],
        &[
            row("ceiling (fake x4096)", &SystemSetup::Fake { gamma: 4096.0 }),
            row("CGX actual", &SystemSetup::cgx()),
        ],
    );
    note(&mut out, "paper ceiling: 92 / 91 / 95 / 88 / 95 %; CGX reaches the ceiling for CNNs/ViT and approaches it for TXL/BERT.");
    out
}
