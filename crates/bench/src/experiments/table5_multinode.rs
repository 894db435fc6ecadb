//! Table 5: multi-node cloud training — 4 nodes x 4 RTX 3090, vanilla NCCL
//! vs CGX.
//!
//! Paper shape: the slow inter-node links make the uncompressed baseline
//! collapse; CGX's hierarchical compressed reduction recovers up to 10x.

use crate::estimate::{estimate, SystemSetup};
use crate::{fmt_items, note, render_table};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let cluster = MachineSpec::genesis_cluster();
    let models = [
        ModelId::ResNet50,
        ModelId::VitBase,
        ModelId::TransformerXl,
        ModelId::BertBase,
    ];
    let mut base_row = vec!["Baseline".to_string()];
    let mut cgx_row = vec!["CGX".to_string()];
    let mut speedup_row = vec!["speedup".to_string()];
    let mut exposed = Vec::new();
    for model in models {
        let base = estimate(&cluster, model, &SystemSetup::BaselineNccl);
        let cgx = estimate(&cluster, model, &SystemSetup::cgx());
        base_row.push(fmt_items(base.throughput));
        cgx_row.push(fmt_items(cgx.throughput));
        speedup_row.push(format!("{:.1}x", cgx.throughput / base.throughput));
        exposed.push(format!(
            "{:.0} -> {:.0}",
            base.report.exposed_comm_seconds * 1000.0,
            cgx.report.exposed_comm_seconds * 1000.0
        ));
    }
    let mut out = render_table(
        "Table 5: items/s on 4 nodes x 4x RTX 3090 (10 GB/s intra, 5 Gb/s-class inter)",
        &["", "ResNet50", "ViT-base", "TXL-base", "BERT"],
        &[base_row, cgx_row, speedup_row],
    );
    note(
        &mut out,
        "paper: baseline 564 / 34 / 32k / 1.4k; CGX 2.3k / 235 / 85k / 12k (4-10x).",
    );
    note(
        &mut out,
        &format!(
            "exposed communication per step, baseline -> CGX: {} ms.",
            exposed.join(" / ")
        ),
    );
    note(
        &mut out,
        &format!(
            "{} nodes x {} GPUs; the inter-node links give {:.2} GB/s effective.",
            cluster.nodes(),
            cluster.gpus_per_node(),
            cluster.inter_node_bandwidth().unwrap_or(0.0) / 1e9
        ),
    );
    out
}
