//! Table 1: server-grade vs consumer-grade NVIDIA GPUs — spec sheet plus
//! single-GPU throughput anchors.

use crate::{fmt_items, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::GpuModel;

pub fn run() -> String {
    let rows: Vec<Vec<String>> = GpuModel::all()
        .iter()
        .map(|gpu| {
            let s = gpu.spec();
            let anchor = |model| fmt_items(gpu.single_gpu_throughput(model));
            vec![
                s.name.to_string(),
                s.arch.to_string(),
                s.sm_count.to_string(),
                s.tensor_cores.to_string(),
                if s.gpu_direct { "Yes" } else { "No" }.to_string(),
                s.ram_gb.to_string(),
                format!("{} W", s.tdp_watts),
                format!("{} imgs/s", anchor(ModelId::ResNet50)),
                format!("{} tok/s", anchor(ModelId::TransformerXl)),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table 1: server-grade (first 2) vs consumer-grade NVIDIA GPUs",
        &[
            "GPU type",
            "Arch.",
            "SM",
            "TensorCores",
            "GPU Direct",
            "RAM (GB)",
            "TDP",
            "ResNet50",
            "Transformer-XL",
        ],
        &rows,
    );
    note(&mut out, "ResNet50/TXL columns are the paper's measured anchors; other workloads are extrapolated (DESIGN.md).");
    out
}
