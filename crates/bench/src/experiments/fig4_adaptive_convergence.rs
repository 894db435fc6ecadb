//! Figure 4: Transformer-XL-style training — perplexity against (simulated)
//! wall-clock time for the static 4-bit baseline and the adaptive schemes.
//!
//! Functional plane: a real embedding LM is trained with the exact
//! per-layer bit-widths each policy assigns (the embedding is the layer the
//! policies act on). Performance plane: each scheme's step *time* comes
//! from the estimator on the multi-node cluster, so lower transmitted size
//! translates into a faster time axis — exactly how the paper's Figure 4 is
//! constructed.

use crate::adaptive::adaptive_compression_for;
use crate::estimate::{estimate, estimate_with_schemes, SystemSetup};
use crate::{note, render_table};
use cgx_adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx_engine::data::MarkovChainLm;
use cgx_engine::nn::EmbeddingLm;
use cgx_engine::{train_data_parallel, LayerCompression, TrainConfig};
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::MachineSpec;
use cgx_tensor::Rng;

const STEPS: usize = 640;
const CHECK_EVERY: usize = 80;

fn train_ppl_curve(compression: LayerCompression, seed: u64) -> Vec<f64> {
    // Real LM with a vocabulary-heavy profile; per-layer compression as
    // assigned.
    let chain = MarkovChainLm::new(60, 6.0, 5);
    let mut rng = Rng::seed_from_u64(seed);
    let model = EmbeddingLm::new(&mut rng, 60, 16);
    let mut curve = Vec::new();
    let mut current = model;
    for chunk in 0..(STEPS / CHECK_EVERY) {
        // Step-decayed learning rate (the paper trains with the original
        // recipes' schedules); decay also shrinks quantization variance.
        let lr = 0.9 * 0.65f32.powi(chunk as i32);
        let cfg = TrainConfig {
            lr,
            clip: Some(5.0),
            compression: compression.clone(),
            seed: seed + chunk as u64,
            ..TrainConfig::new(4, CHECK_EVERY)
        };
        let c = chain.clone();
        let (trained, _) =
            train_data_parallel(&current, move |r| c.sample_batch(r, 48), &cfg).unwrap();
        current = trained;
        let mut eval_rng = Rng::seed_from_u64(4242);
        let (ctx, tgt) = chain.sample_batch(&mut eval_rng, 3000);
        curve.push(current.perplexity(&ctx, &tgt));
    }
    curve
}

fn lm_compression(bits_emb: u32) -> LayerCompression {
    // Bucket scaled to the proxy's embedding row width (16): quantization
    // grids are per-row, as they effectively are on the real 512-wide
    // embedding with bucket 1024.
    LayerCompression::cgx_default().with_override(
        "word_emb",
        cgx_compress::CompressionScheme::Qsgd {
            bits: bits_emb,
            bucket_size: 16,
        },
    )
}

pub fn run() -> String {
    let cluster = MachineSpec::genesis_cluster();
    let model = ModelSpec::build(ModelId::TransformerXl);
    // Step time per scheme from the performance plane (multi-node TXL).
    let static4 = estimate(&cluster, ModelId::TransformerXl, &SystemSetup::cgx())
        .report
        .step_seconds;
    let schemes: Vec<(&str, AdaptivePolicy)> = vec![
        ("KMEANS", AdaptivePolicy::KMeans),
        ("Linear", AdaptivePolicy::Linear),
        ("Bayes", AdaptivePolicy::BayesOpt { trials: 300 }),
    ];
    // (label, step_seconds, ppl curve)
    let mut results: Vec<(String, f64, Vec<f64>)> = Vec::new();
    results.push((
        "static-4bit".into(),
        static4,
        train_ppl_curve(LayerCompression::cgx_default(), 1000),
    ));
    for (name, policy) in schemes {
        let outcome = adaptive_compression_for(&model, policy, &AdaptiveOptions::default(), 2, 7);
        let step = estimate_with_schemes(&cluster, ModelId::TransformerXl, &outcome.schemes)
            .report
            .step_seconds;
        // Map the policy's embedding assignment onto the real LM.
        let emb_pos = outcome
            .layer_indices
            .iter()
            .position(|&i| model.layers()[i].name().contains("word_emb"))
            .expect("embedding assigned");
        let bits = outcome.assignment.bits[emb_pos];
        results.push((
            name.into(),
            step,
            train_ppl_curve(lm_compression(bits), 1000),
        ));
    }
    let mut rows = Vec::new();
    for (name, step, curve) in &results {
        for (i, ppl) in curve.iter().enumerate() {
            rows.push(vec![
                name.clone(),
                format!("{:.2} s", step * ((i + 1) * CHECK_EVERY) as f64),
                format!("{:.3}", ppl),
            ]);
        }
    }
    let mut out = render_table(
        "Figure 4: perplexity vs simulated wall-clock (TXL proxy, adaptive schemes)",
        &["scheme", "wall-clock", "perplexity"],
        &rows,
    );
    // Final comparison: perplexity reached per unit time.
    let horizon = results
        .iter()
        .map(|(_, step, _)| step * STEPS as f64)
        .fold(f64::INFINITY, f64::min);
    let mut finals = Vec::new();
    for (name, step, curve) in &results {
        let steps_in_horizon = ((horizon / step) as usize / CHECK_EVERY).clamp(1, curve.len());
        finals.push(vec![
            name.clone(),
            format!("{:.1} ms", step * 1000.0),
            format!("{:.3}", curve[steps_in_horizon - 1]),
            format!("{:.3}", curve[curve.len() - 1]),
        ]);
    }
    out += &render_table(
        "perplexity at the shared time horizon (faster schemes fit more steps)",
        &["scheme", "step time", "ppl @ horizon", "ppl @ end"],
        &finals,
    );
    note(&mut out, "paper shape: adaptive schemes reach a given perplexity sooner; all converge to the same level.");
    out
}
