#![warn(missing_docs)]
//! The paper's experiments: every table and figure of the CGX evaluation,
//! regenerated from closed forms, the simulator and real compressed
//! training.
//!
//! [`EXPERIMENTS`] lists them in `EXPERIMENTS.md`'s order; each computes
//! the text it prints, and each is deterministic. `cgx experiments <id>`
//! runs one, `cgx experiments all` every one. Nothing here times a
//! training step: wall-clock numbers come from `benchmark/`
//! (`BENCHMARK.json`).
//!
//! The experiments stand on the paper's estimator:
//!
//! * [`api`] — the user-facing registration/configuration API mirroring the
//!   paper's Listing 1 (`register_model`, `exclude_layer`, per-layer
//!   compression parameters, backend selection);
//! * [`estimate`] — the end-to-end performance estimator: combines the
//!   model zoo, compression wire formats, and the machine simulator to
//!   predict step time and throughput for CGX and for every baseline the
//!   paper compares against (vanilla NCCL, QNCCL, GRACE, PowerSGD, ideal
//!   linear scaling);
//! * [`adaptive`] — periodic adaptive layer-wise compression wired to the
//!   gradient statistics of a registered model;
//! * [`cloud`] — the cost-efficiency arithmetic of Table 4;
//! * [`session_sim`] — the online adaptive session on the simulator.
//!
//! # Examples
//!
//! ```
//! use cgx_bench::api::CgxBuilder;
//! use cgx_bench::estimate::{estimate, SystemSetup};
//! use cgx_models::ModelId;
//! use cgx_simnet::MachineSpec;
//!
//! // Listing-1-style registration.
//! let mut cgx = CgxBuilder::new().build();
//! cgx.register_model_spec(&cgx_models::ModelSpec::build(ModelId::ResNet50));
//! cgx.exclude_layer("bn");
//! cgx.exclude_layer("bias");
//!
//! // How fast does this run on the 8x RTX 3090 box?
//! let est = estimate(&MachineSpec::rtx3090(), ModelId::ResNet50, &SystemSetup::cgx());
//! let base = estimate(
//!     &MachineSpec::rtx3090(),
//!     ModelId::ResNet50,
//!     &SystemSetup::BaselineNccl,
//! );
//! assert!(est.throughput > base.throughput);
//! ```

pub mod adaptive;
pub mod api;
pub mod cloud;
pub mod estimate;
pub mod session_sim;

use api::CgxBuilder;
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::{ComputeProfile, LayerMsg, MachineSpec};
use std::fmt::Write as _;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

mod experiments {
    pub mod ablations;
    pub mod adaptive_online;
    pub mod export_csv;
    pub mod fig10_reduction_schemes;
    pub mod fig11_backends;
    pub mod fig1_compression_sweep;
    pub mod fig3_throughput;
    pub mod fig4_adaptive_convergence;
    pub mod fig5_table7_adaptive;
    pub mod fig6_overhead;
    pub mod fig7_powersgd;
    pub mod fig8_topology;
    pub mod fig9_tensorflow;
    pub mod heterogeneous;
    pub mod hybrid_sync;
    pub mod scheduling;
    pub mod table1_gpus;
    pub mod table2_systems;
    pub mod table3_accuracy;
    pub mod table4_cloud;
    pub mod table5_multinode;
    pub mod table6_baselines;
    pub mod table8_ceiling;
    pub mod timeline;
}

use experiments::*;

/// What computes one experiment's text.
pub type Experiment = fn() -> String;

/// Every experiment in `EXPERIMENTS.md`'s order: its id, which
/// `EXPERIMENTS.md` and `DESIGN.md` §5 cite, and what computes its text.
pub const EXPERIMENTS: [(&str, Experiment); 24] = [
    ("fig1_compression_sweep", fig1_compression_sweep::run),
    ("table1_gpus", table1_gpus::run),
    ("table2_systems", table2_systems::run),
    ("fig3_throughput", fig3_throughput::run),
    ("table3_accuracy", table3_accuracy::run),
    ("table4_cloud", table4_cloud::run),
    ("table5_multinode", table5_multinode::run),
    ("table6_baselines", table6_baselines::run),
    ("fig4_adaptive_convergence", fig4_adaptive_convergence::run),
    ("fig5_table7_adaptive", fig5_table7_adaptive::run),
    ("fig6_overhead", fig6_overhead::run),
    ("fig7_powersgd", fig7_powersgd::run),
    ("table8_ceiling", table8_ceiling::run),
    ("fig8_topology", fig8_topology::run),
    ("fig9_tensorflow", fig9_tensorflow::run),
    ("fig10_reduction_schemes", fig10_reduction_schemes::run),
    ("fig11_backends", fig11_backends::run),
    ("ablations", ablations::run),
    ("heterogeneous", heterogeneous::run),
    ("adaptive_online", adaptive_online::run),
    ("hybrid_sync", hybrid_sync::run),
    ("scheduling", scheduling::run),
    ("timeline", || timeline(ModelId::TransformerXl)),
    ("export_csv", export_csv::run),
];

pub use experiments::timeline::run as timeline;

/// Renders an ASCII table with a title, headers, and rows.
///
/// # Panics
///
/// Panics on a row whose width differs from the headers'.
fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch in table '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |widths: &[usize]| {
        let mut s = String::from("+");
        for w in widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let _ = writeln!(out, "{}", line(&widths));
    let mut header = String::from("|");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(header, " {h:<w$} |");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", line(&widths));
    for row in rows {
        let mut r = String::from("|");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(r, " {cell:<w$} |");
        }
        let _ = writeln!(out, "{r}");
    }
    let _ = writeln!(out, "{}", line(&widths));
    out
}

/// Formats a throughput value compactly (`1.23k`, `45.6k`, `789`).
fn fmt_items(v: f64) -> String {
    if v >= 100_000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else if v >= 1000.0 {
        format!("{:.2}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats seconds as milliseconds with 1 decimal.
fn fmt_ms(seconds: f64) -> String {
    format!("{:.1} ms", seconds * 1000.0)
}

/// Formats a 0..1 fraction as a percentage.
fn fmt_pct(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

/// Appends a free-form note line under a table.
fn note(out: &mut String, text: &str) {
    outln!(out, "   note: {text}");
}

/// A bit assignment as a histogram: `2b x1, 4b x12`.
fn bit_histogram(bits: &[u32]) -> String {
    let mut hist = std::collections::BTreeMap::new();
    for b in bits {
        *hist.entry(*b).or_insert(0usize) += 1;
    }
    let cells: Vec<String> = hist.iter().map(|(b, c)| format!("{b}b x{c}")).collect();
    cells.join(", ")
}

/// What one simulated CGX step on `machine` reduces: the default
/// session's per-layer messages for `model`, and the step's compute on
/// `machine`'s GPU.
fn cgx_step_inputs(machine: &MachineSpec, model: ModelId) -> (Vec<LayerMsg>, ComputeProfile) {
    let spec = ModelSpec::build(model);
    let mut session = CgxBuilder::new().build();
    session.register_model_spec(&spec);
    let compute = ComputeProfile::new(machine.gpu().step_compute_seconds(&spec));
    (session.layer_messages(spec.precision()), compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_pads_cells() {
        let t = render_table(
            "t",
            &["a", "long-header"],
            &[
                vec!["xxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // All body lines have identical width.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn table_shows_title_headers_and_cells() {
        let t = render_table("demo", &["a", "b"], &[vec!["xxxxxx".into(), "1".into()]]);
        assert!(t.starts_with("== demo ==\n"), "{t}");
        assert!(t.contains("| a      | b |"), "{t}");
        assert!(t.contains("| xxxxxx | 1 |"), "{t}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        render_table("t", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_items(850.0), "850");
        assert_eq!(fmt_items(2900.0), "2.90k");
        assert_eq!(fmt_items(38_700.0), "38.7k");
        assert_eq!(fmt_items(260_000.0), "260k");
        assert_eq!(fmt_ms(0.0376), "37.6 ms");
        assert_eq!(fmt_pct(0.895), "90%");
        assert_eq!(bit_histogram(&[4, 2, 4]), "2b x1, 4b x2");
    }
}
