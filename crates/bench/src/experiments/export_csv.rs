//! Plot-ready CSV for the headline data series: Figure 1, Figure 3 and
//! Table 5, each under a `# section` header.

use cgx_core::estimate::{estimate, SystemSetup};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let mut out = String::new();
    outln!(
        out,
        "# fig1: step_seconds vs compression gamma, 8x RTX 3090"
    );
    outln!(out, "model,gamma,step_seconds,ideal_seconds");
    let machine = MachineSpec::rtx3090();
    for model in ModelId::all() {
        let ideal = estimate(&machine, model, &SystemSetup::Ideal)
            .report
            .step_seconds;
        for gamma in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0] {
            let e = estimate(&machine, model, &SystemSetup::Fake { gamma });
            outln!(
                out,
                "{model},{gamma},{:.6},{:.6}",
                e.report.step_seconds,
                ideal
            );
        }
    }

    outln!(
        out,
        "# fig3: throughput (items/s) per machine/model/setup/gpus"
    );
    outln!(out, "machine,model,setup,gpus,throughput,scaling");
    let fig3 = [
        ModelId::ResNet50,
        ModelId::TransformerXl,
        ModelId::VitBase,
        ModelId::BertBase,
    ];
    for machine in MachineSpec::table2_systems() {
        for model in fig3 {
            for gpus in [1usize, 2, 4, 8] {
                let m = machine.with_gpus(gpus);
                for (name, setup) in [
                    ("nccl", SystemSetup::BaselineNccl),
                    (
                        "qnccl",
                        SystemSetup::Qnccl {
                            bits: 4,
                            bucket_size: 128,
                        },
                    ),
                    ("cgx", SystemSetup::cgx()),
                    ("ideal", SystemSetup::Ideal),
                ] {
                    let e = estimate(&m, model, &setup);
                    outln!(
                        out,
                        "{},{model},{name},{gpus},{:.1},{:.4}",
                        machine.name(),
                        e.throughput,
                        e.scaling
                    );
                }
            }
        }
    }

    outln!(out, "# table5: multi-node throughput (items/s)");
    outln!(out, "model,setup,throughput");
    let cluster = MachineSpec::genesis_cluster();
    for model in [
        ModelId::ResNet50,
        ModelId::VitBase,
        ModelId::TransformerXl,
        ModelId::BertBase,
    ] {
        for (name, setup) in [
            ("nccl", SystemSetup::BaselineNccl),
            ("cgx", SystemSetup::cgx()),
        ] {
            let e = estimate(&cluster, model, &setup);
            outln!(out, "{model},{name},{:.1}", e.throughput);
        }
    }
    out
}
