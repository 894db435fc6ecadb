//! Figure 9 (Appendix D): CNN throughput under a second framework frontend
//! (TensorFlow via the Horovod integration) — CGX vs the NCCL backend vs
//! ideal scaling, for ResNet50 and VGG16.
//!
//! The frontend only changes framework overhead constants (graph-mode
//! TensorFlow schedules collectives slightly differently); the CGX
//! communication engine underneath is identical, which is the point of the
//! Horovod-level integration. Paper shape: CGX outperforms the NCCL backend
//! by up to 130% (VGG16, whose 138M parameters are the most
//! bandwidth-hungry).

use crate::estimate::{estimate, SystemSetup};
use crate::{fmt_items, fmt_pct, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let mut rows = Vec::new();
    for model in [ModelId::ResNet50, ModelId::Vgg16] {
        for n in [2usize, 4, 8] {
            let m = rtx.with_gpus(n);
            let base = estimate(&m, model, &SystemSetup::BaselineNccl);
            let cgx = estimate(&m, model, &SystemSetup::cgx());
            let ideal = estimate(&m, model, &SystemSetup::Ideal);
            rows.push(vec![
                format!("{model} x{n}"),
                format!("{} ({})", fmt_items(base.throughput), fmt_pct(base.scaling)),
                format!("{} ({})", fmt_items(cgx.throughput), fmt_pct(cgx.scaling)),
                fmt_items(ideal.throughput),
                format!("+{:.0}%", 100.0 * (cgx.throughput / base.throughput - 1.0)),
            ]);
        }
    }
    let mut out = render_table(
        "Figure 9: TensorFlow-frontend CNN throughput, 8x RTX 3090 (imgs/s)",
        &["model", "NCCL", "CGX", "ideal", "CGX gain"],
        &rows,
    );
    note(
        &mut out,
        "paper: CGX outperforms the NCCL backend by up to 130% (largest for VGG16).",
    );
    out
}
