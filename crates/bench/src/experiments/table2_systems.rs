//! Table 2: system characteristics of the evaluation workstations, plus the
//! calibrated effective bandwidths the simulator derives from them.

use crate::{note, render_table};
use cgx_simnet::{CommBackend, MachineSpec};

pub fn run() -> String {
    let gbs = |bw: f64| format!("{:.1} GB/s", bw / 1e9);
    let rows: Vec<Vec<String>> = MachineSpec::table2_systems()
        .iter()
        .map(|m| {
            let n = m.gpus_per_node() as f64;
            let algbw = |stream: f64| gbs(stream * n / (2.0 * (n - 1.0)));
            vec![
                m.name().to_string(),
                format!("{}x{}", m.gpus_per_node(), m.gpu()),
                m.topology().name().to_string(),
                gbs(m.topology().p2p_bandwidth(0, 1)),
                algbw(m.baseline_stream_bandwidth()),
                algbw(m.stream_bandwidth(CommBackend::Shm)),
                gbs(m.topology().ring_allreduce_algbw()),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table 2: evaluation systems",
        &[
            "System",
            "GPUs",
            "Interconnect",
            "p2p BW (adjacent)",
            "NCCL Allreduce algbw",
            "CGX/SHM algbw",
            "topology ring algbw",
        ],
        &rows,
    );
    note(&mut out, "paper: DGX-1/A6000 ~100 GB/s Allreduce; RTX boxes 13-16 GB/s p2p but ~1-1.5 GB/s Allreduce.");
    note(&mut out, "'topology ring algbw' is derived structurally from the device graph (contention analysis).");
    out
}
