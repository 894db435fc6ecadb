//! Figure 8: the PCIe topology of the RTX machines (and, for contrast, the
//! DGX-1 NVLink hypercube mesh), with the measured-style GPU-to-GPU
//! bandwidth matrix and the ring-contention analysis that explains the
//! Allreduce bandwidth collapse.

use crate::{note, render_table};
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let mut out = String::new();
    for machine in [MachineSpec::rtx3090(), MachineSpec::dgx1()] {
        let topo = machine.topology();
        outln!(out, "{}", topo.render_ascii());
        let matrix = topo.bandwidth_matrix();
        let n = matrix.len();
        let headers: Vec<String> = std::iter::once("GB/s".to_string())
            .chain((0..n).map(|j| format!("GPU{j}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = (0..n)
            .map(|i| {
                std::iter::once(format!("GPU{i}"))
                    .chain((0..n).map(|j| {
                        if i == j {
                            "-".to_string()
                        } else {
                            format!("{:.0}", matrix[i][j] / 1e9)
                        }
                    }))
                    .collect()
            })
            .collect();
        out += &render_table(
            &format!("{}: pairwise GPU bandwidth matrix", machine.name()),
            &header_refs,
            &rows,
        );
        outln!(
            out,
            "ring contention: per-flow {:.2} GB/s -> Allreduce algbw {:.2} GB/s\n",
            topo.ring_flow_bandwidth() / 1e9,
            topo.ring_allreduce_algbw() / 1e9,
        );
    }
    note(
        &mut out,
        "paper: 13-16 GB/s pairwise on the 3090 box, ~1 GB/s Allreduce; NVLink machines ~100 GB/s.",
    );
    out
}
