//! Table 3: accuracy recovery — baseline (FP32) vs CGX (4-bit quantization
//! with layer filters) end-to-end training.
//!
//! Substitution (DESIGN.md): ImageNet/WikiText/SQuAD become synthetic
//! Gaussian-mixture classification and Markov-chain language modelling, and
//! the models become MLP classifiers / embedding LMs — but the training is
//! *real*: 4 worker threads exchanging genuinely compressed gradients
//! through the threaded collectives. The Table 3 criterion carries over
//! directly: CGX accuracy within 1% (perplexity within ~2%) of baseline.

use crate::{note, render_table};
use cgx_engine::data::{GaussianMixture, MarkovChainLm};
use cgx_engine::nn::{EmbeddingLm, Mlp};
use cgx_engine::{train_data_parallel, AttentionLm, LayerCompression, TrainConfig};
use cgx_tensor::Rng;

const WORKERS: usize = 4;

/// One row: `train(compression, seed)` returns the trained model's metric
/// and the wire bytes each worker sent, for three seeds (the paper's ±
/// reporting) under fp32 and under CGX's default. A perplexity's delta
/// reads relative, an accuracy's absolute.
fn row(
    name: &str,
    perplexity: bool,
    train: impl Fn(LayerCompression, u64) -> (f64, usize),
) -> Vec<String> {
    let runs = |compression: fn() -> LayerCompression| {
        let runs: Vec<(f64, usize)> = [1234u64, 5678, 9012]
            .into_iter()
            .map(|s| train(compression(), s))
            .collect();
        let metric: Vec<f64> = runs.iter().map(|r| r.0).collect();
        (metric, runs.iter().map(|r| r.1).sum::<usize>() as f64)
    };
    let (base, base_bytes) = runs(LayerCompression::none);
    let (cgx, cgx_bytes) = runs(LayerCompression::cgx_default);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let spread = |v: &[f64]| {
        let m = mean(v);
        v.iter().map(|x| (x - m).abs()).fold(0.0f64, f64::max)
    };
    let (metric, digits, delta) = if perplexity {
        let rel = 100.0 * (mean(&cgx) - mean(&base)) / mean(&base);
        ("perplexity", 2, format!("{rel:+.2}%"))
    } else {
        ("top-1 %", 1, format!("{:+.2}", mean(&cgx) - mean(&base)))
    };
    vec![
        name.to_string(),
        metric.into(),
        format!("{:.digits$} ± {:.digits$}", mean(&base), spread(&base)),
        format!("{:.digits$} ± {:.digits$}", mean(&cgx), spread(&cgx)),
        delta,
        format!("{:.1}x less", base_bytes / cgx_bytes),
    ]
}

#[allow(clippy::too_many_arguments)]
fn classification_row(
    name: &str,
    dims: &[usize],
    classes: usize,
    feat: usize,
    sep: f64,
    steps: usize,
    lr: f32,
    seed: u64,
) -> Vec<String> {
    let task = GaussianMixture::new(classes, feat, sep);
    let mut rng = Rng::seed_from_u64(seed);
    let model = Mlp::new(&mut rng, dims);
    row(name, false, |compression, cfg_seed| {
        let cfg = TrainConfig {
            lr,
            compression,
            seed: cfg_seed,
            ..TrainConfig::new(WORKERS, steps)
        };
        let t = task.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        let mut eval_rng = Rng::seed_from_u64(777);
        let (x, y) = task.sample_batch(&mut eval_rng, 2048);
        (
            trained.accuracy(&x, &y) * 100.0,
            report.bytes_sent_per_worker,
        )
    })
}

fn lm_row(name: &str, vocab: usize, dim: usize, skew: f64, steps: usize, seed: u64) -> Vec<String> {
    let chain = MarkovChainLm::new(vocab, skew, seed);
    let mut rng = Rng::seed_from_u64(seed + 1);
    let model = EmbeddingLm::new(&mut rng, vocab, dim);
    row(name, true, |compression, cfg_seed| {
        let cfg = TrainConfig {
            lr: 0.5,
            clip: Some(5.0),
            compression,
            seed: cfg_seed,
            ..TrainConfig::new(WORKERS, steps)
        };
        let c = chain.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| c.sample_batch(r, 32), &cfg).unwrap();
        let mut eval_rng = Rng::seed_from_u64(777);
        let (ctx, tgt) = chain.sample_batch(&mut eval_rng, 4000);
        (trained.perplexity(&ctx, &tgt), report.bytes_sent_per_worker)
    })
}

/// Transformer stand-in with real self-attention: trained on Markov-chain
/// sequences, reported as perplexity. Also returns a note on the model:
/// its parameter count and its perplexity before training.
fn attention_row(name: &str, vocab: usize, steps: usize, seed: u64) -> (Vec<String>, String) {
    let chain = MarkovChainLm::new(vocab, 5.0, seed);
    let mut rng = Rng::seed_from_u64(seed + 1);
    let model = AttentionLm::new(&mut rng, vocab, 12, 8);
    let sequences = |r: &mut Rng, n: usize| -> (Vec<_>, Vec<_>) {
        (0..n).map(|_| chain.sample_batch(r, 8)).unzip()
    };
    let eval = |m: &AttentionLm| {
        let (seqs, tgts) = sequences(&mut Rng::seed_from_u64(777), 40);
        m.perplexity(&seqs, &tgts)
    };
    let trained_row = row(name, true, |compression, cfg_seed| {
        let cfg = TrainConfig {
            lr: 0.4,
            clip: Some(5.0),
            compression,
            seed: cfg_seed,
            ..TrainConfig::new(WORKERS, steps)
        };
        let c = chain.clone();
        let sample =
            move |r: &mut Rng| -> (Vec<_>, Vec<_>) { (0..6).map(|_| c.sample_batch(r, 8)).unzip() };
        let (trained, report) = train_data_parallel(&model, sample, &cfg).unwrap();
        (eval(&trained), report.bytes_sent_per_worker)
    });
    let params: usize = model.params().iter().map(|p| p.len()).sum();
    let about = format!(
        "the attention LM has {params} parameters (vocab {vocab}, width 12, context 8); untrained perplexity {:.2} (uniform: {vocab}).",
        eval(&model)
    );
    (trained_row, about)
}

pub fn run() -> String {
    let (attention, about_attention) =
        attention_row("Transformer-XL stand-in (attention LM)", 30, 350, 19);
    let rows = vec![
        classification_row(
            "ResNet50 stand-in (MLP/mixture)",
            &[16, 48, 24, 8],
            8,
            16,
            1.1,
            400,
            0.15,
            11,
        ),
        classification_row(
            "VGG16 stand-in (wide MLP/mixture)",
            &[24, 96, 10],
            10,
            24,
            1.0,
            400,
            0.1,
            13,
        ),
        classification_row(
            "ViT stand-in (deep MLP/mixture)",
            &[12, 32, 32, 32, 6],
            6,
            12,
            1.2,
            400,
            0.1,
            17,
        ),
        attention,
        lm_row("GPT-2 stand-in (LM/Markov)", 40, 12, 3.0, 400, 23),
        classification_row(
            "BERT-QA stand-in (MLP/mixture)",
            &[20, 64, 4],
            4,
            20,
            1.3,
            400,
            0.1,
            29,
        ),
    ];
    let mut out = render_table(
        "Table 3: accuracy recovery, baseline vs CGX (4-bit, bucket 128, layer filters)",
        &["task", "metric", "baseline", "CGX", "delta", "traffic"],
        &rows,
    );
    note(
        &mut out,
        "acceptance: every delta within the paper's 1% tolerance (perplexity within ~2%).",
    );
    note(
        &mut out,
        "real data-parallel training over 4 workers with genuinely compressed collectives.",
    );
    note(
        &mut out,
        "traffic: CGX's wire bytes per worker against fp32's, summed over the three seeds.",
    );
    note(&mut out, &about_attention);
    out
}
