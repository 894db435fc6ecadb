//! Figure 5 and Table 7: the adaptive compression approaches on the
//! Transformer-XL layer profile, each policy run once.
//!
//! Figure 5 compares (a) compression error and (b) compressed size, both
//! relative to the uniform static 4-bit assignment. Paper shape: KMEANS
//! shows the lowest error with the best compression; Bayes is stable but
//! slightly worse; Linear compresses blindly.
//!
//! Table 7 adds the speedup over static 4-bit, single-node (8x RTX 3090)
//! and multi-node (4x 4x RTX 3090). Paper shape: KMEANS wins (paper: 1.05x
//! single-node, 1.39x multi-node); Linear trails (1.02x / 1.13x); adaptive
//! gains are far larger multi-node, where bandwidth is scarcer.

use crate::adaptive::adaptive_compression_for;
use crate::estimate::{estimate, estimate_with_schemes, SystemSetup};
use crate::{bit_histogram, fmt_items, note, render_table};
use cgx_adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::MachineSpec;

pub fn run() -> String {
    let txl = ModelId::TransformerXl;
    let model = ModelSpec::build(txl);
    let policies = [
        ("KMEANS", AdaptivePolicy::KMeans),
        ("Bayes", AdaptivePolicy::BayesOpt { trials: 300 }),
        ("Linear", AdaptivePolicy::Linear),
        // Beyond the paper: its suggested "take runtime speedups into
        // account" improvement, implemented as the time-aware policy.
        // Table 7 only.
        ("TimeAware*", AdaptivePolicy::TimeAware),
    ];
    let outcomes: Vec<_> = policies
        .iter()
        .map(|(name, policy)| {
            let options = AdaptiveOptions::default();
            (
                *name,
                adaptive_compression_for(&model, *policy, &options, 2, 7),
            )
        })
        .collect();

    let fig5: Vec<Vec<String>> = outcomes[..3]
        .iter()
        .map(|(name, out)| {
            vec![
                name.to_string(),
                format!("{:.2}", out.error_ratio_vs_static4),
                format!("{:.2}", out.size_ratio_vs_static4),
                bit_histogram(&out.assignment.bits),
            ]
        })
        .collect();
    let mut text = render_table(
        "Figure 5: adaptive schemes vs static 4-bit (Transformer-XL profile)",
        &[
            "scheme",
            "error ratio (5a)",
            "size ratio (5b)",
            "bit assignment",
        ],
        &fig5,
    );
    note(
        &mut text,
        "ratios are relative to uniform static 4-bit; error stays within the alpha=2 budget.",
    );
    note(
        &mut text,
        "paper Table 7 compression column: KMEANS 0.68, Bayes 0.65, Linear 0.53.",
    );

    let (single, multi) = (MachineSpec::rtx3090(), MachineSpec::genesis_cluster());
    let static_single = estimate(&single, txl, &SystemSetup::cgx()).throughput;
    let static_multi = estimate(&multi, txl, &SystemSetup::cgx()).throughput;
    let table7: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(name, out)| {
            let speedup = |machine, base| {
                let e = estimate_with_schemes(machine, txl, &out.schemes);
                format!("{:.2}", e.throughput / base)
            };
            vec![
                name.to_string(),
                format!("{:.2}", out.size_ratio_vs_static4),
                speedup(&single, static_single),
                speedup(&multi, static_multi),
            ]
        })
        .collect();
    text += &render_table(
        "Table 7: adaptive methods vs static 4-bit (Transformer-XL)",
        &["", "Compression", "Speedup 1-Node", "Speedup Multi-Node"],
        &table7,
    );
    note(
        &mut text,
        "paper: KMEANS 0.68 / 1.05 / 1.39; Bayes 0.65 / 1.03 / 1.3; Linear 0.53 / 1.02 / 1.13.",
    );
    note(
        &mut text,
        "the multi-node speedup dwarfs the single-node one; KMEANS leads.",
    );
    note(&mut text, "*TimeAware is the paper's future-work extension (exposure-weighted assignment), not a paper row.");
    note(
        &mut text,
        &format!(
            "static 4-bit: {} tok/s 1-node, {} tok/s multi-node; the speedups are against these.",
            fmt_items(static_single),
            fmt_items(static_multi)
        ),
    );

    // Which layers Algorithm 1 (KMEANS) sends at which width.
    let kmeans = &outcomes[0].1;
    let mut by_bits: std::collections::BTreeMap<u32, Vec<&str>> = Default::default();
    for (&layer, &bits) in kmeans.layer_indices.iter().zip(&kmeans.assignment.bits) {
        by_bits
            .entry(bits)
            .or_default()
            .push(model.layers()[layer].name());
    }
    let rows: Vec<Vec<String>> = by_bits
        .iter()
        .map(|(bits, names)| {
            let sample: Vec<&str> = names.iter().take(3).copied().collect();
            vec![bits.to_string(), names.len().to_string(), sample.join(", ")]
        })
        .collect();
    text += &render_table(
        &format!(
            "KMEANS bit widths on {txl}: {} layers, {:.1}M parameters ({:.1}M in the embedding)",
            model.layers().len(),
            model.param_count() as f64 / 1e6,
            model.largest_layer().elements() as f64 / 1e6,
        ),
        &["bits", "layers", "e.g."],
        &rows,
    );
    text
}
