//! Figure 7 (Appendix B): time per iteration, CGX 4-bit quantization vs
//! PowerSGD (rank 8), on ViT/ImageNet and BERT/SQuAD at FP32.
//!
//! Paper shape: QSGD-CGX beats PowerSGD on both benchmarks despite lower
//! nominal compression, because decomposition pays GEMM + orthogonalization
//! per step and its higher-rank settings (needed for Transformers) erode
//! the wire savings.

use crate::{fmt_ms, note, render_table};
use cgx_core::api::CgxBuilder;
use cgx_core::estimate::{estimate, SystemSetup};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let rtx = MachineSpec::rtx3090();
    let cgx_fp32 = SystemSetup::Cgx {
        session: Box::new(CgxBuilder::new().build()),
        fp32: true,
    };
    let rows: Vec<Vec<String>> = [ModelId::VitBase, ModelId::BertBase]
        .into_iter()
        .map(|model| {
            let cgx = estimate(&rtx, model, &cgx_fp32).report.step_seconds;
            let psgd = estimate(&rtx, model, &SystemSetup::PowerSgd { rank: 8 })
                .report
                .step_seconds;
            vec![
                model.to_string(),
                fmt_ms(cgx),
                fmt_ms(psgd),
                format!("{:.2}x", psgd / cgx),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 7: time per iteration, CGX (4-bit) vs PowerSGD (rank 8), FP32, 8x RTX 3090",
        &["model", "CGX", "PowerSGD(r8)", "PowerSGD/CGX"],
        &rows,
    );
    note(
        &mut out,
        "paper: QSGD outperforms PowerSGD on both; PowerSGD diverges on TXL entirely.",
    );
    out
}
