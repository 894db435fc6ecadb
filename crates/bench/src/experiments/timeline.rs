//! Step-timeline visualization: an ASCII Gantt chart of one training step,
//! showing how CGX overlaps per-layer compressed transfers with the
//! backward pass — and why the embedding (produced last) is the residual
//! bottleneck (Table 8's "embedding gap").

use crate::cgx_step_inputs;
use cgx_models::ModelId;
use cgx_simnet::{fuse_messages, simulate_step_traced, Lane, MachineSpec, StepConfig};

const WIDTH: usize = 100;

/// The `timeline` experiment for `model`: an ASCII Gantt chart of one CGX
/// step on the 8x RTX 3090 machine.
pub fn run(model: ModelId) -> String {
    let machine = MachineSpec::rtx3090();
    let (msgs, compute) = cgx_step_inputs(&machine, model);
    // Fuse for readability: the chart gets one bar per ~2 MB bucket.
    let msgs = fuse_messages(&msgs, 2 * 1024 * 1024);
    let cfg = StepConfig::cgx(machine);
    let (report, trace) = simulate_step_traced(&cfg, &msgs, compute);

    let mut out = String::new();
    outln!(
        out,
        "{model} on 8x RTX 3090 with CGX: step {:.1} ms (compute {:.1} ms, exposed comm {:.1} ms, {:.0}% of linear)\n",
        report.step_seconds * 1000.0,
        report.compute_seconds * 1000.0,
        report.exposed_comm_seconds * 1000.0,
        report.scaling_efficiency() * 100.0,
    );
    let scale = WIDTH as f64 / report.step_seconds;
    outln!(out, "{:<26} |{}|", "", "-".repeat(WIDTH));
    for lane in [Lane::Compute, Lane::Link] {
        for e in trace.iter().filter(|e| e.lane == lane) {
            let start = (e.start * scale).round() as usize;
            let mut len = ((e.end - e.start) * scale).round() as usize;
            if len == 0 && e.duration() > 0.0 {
                len = 1;
            }
            let start = start.min(WIDTH);
            let len = len.min(WIDTH - start);
            let ch = match lane {
                Lane::Compute => '#',
                Lane::Link => '=',
            };
            let mut bar = String::new();
            bar.push_str(&" ".repeat(start));
            bar.push_str(
                &ch.to_string()
                    .repeat(len.max(1).min(WIDTH - start.min(WIDTH - 1))),
            );
            let name: String = e.name.chars().take(25).collect();
            outln!(out, "{name:<26} |{bar:<WIDTH$}|");
        }
    }
    outln!(
        out,
        "\n  # = GPU compute (forward/backward/kernels)   = = link transfer"
    );
    outln!(out, "  the last transfers (first forward layers, e.g. embeddings) extend past backward: the residual gap.");
    out
}
