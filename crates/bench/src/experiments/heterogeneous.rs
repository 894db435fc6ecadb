//! Heterogeneous compression (paper Section 6, "Heterogeneous
//! compression"): apply TopK-with-error-feedback (1% density) to the
//! naturally sparse Transformer embeddings while quantizing everything
//! else.
//!
//! Paper finding: only a modest ~3% additional speedup over uniform
//! quantization — the system is already close to ideal bandwidth-wise, and
//! TopK's selection kernel is costlier.
//!
//! Also demonstrated functionally: EF-TopK on a real embedding gradient is
//! lossless *in aggregate* (the residual re-injects dropped rows).

use crate::api::CgxBuilder;
use crate::estimate::{estimate, SystemSetup};
use crate::{fmt_ms, note, render_table};
use cgx_compress::CompressionScheme;
use cgx_models::{GradientSynth, ModelId, ModelSpec};
use cgx_simnet::MachineSpec;
use cgx_tensor::{Rng, Tensor};

pub fn run() -> String {
    let machine = MachineSpec::rtx3090();
    // Uniform 4-bit CGX.
    let uniform = estimate(&machine, ModelId::TransformerXl, &SystemSetup::cgx());
    // Heterogeneous: TopK(1%) + EF on the embedding, 4-bit elsewhere.
    let mut session = CgxBuilder::new().build();
    session.set_layer_scheme("word_emb", CompressionScheme::TopK { ratio: 0.01 });
    let hetero = estimate(
        &machine,
        ModelId::TransformerXl,
        &SystemSetup::Cgx {
            session: Box::new(session),
            fp32: false,
        },
    );
    let rows = vec![
        vec![
            "uniform 4-bit".to_string(),
            fmt_ms(uniform.report.step_seconds),
            format!("{:.1} MB", uniform.wire_bytes as f64 / 1e6),
            "1.00x".to_string(),
        ],
        vec![
            "TopK(1%)+EF embedding, 4-bit rest".to_string(),
            fmt_ms(hetero.report.step_seconds),
            format!("{:.1} MB", hetero.wire_bytes as f64 / 1e6),
            format!(
                "{:.2}x",
                uniform.report.step_seconds / hetero.report.step_seconds
            ),
        ],
    ];
    let mut out = render_table(
        "Heterogeneous compression on Transformer-XL (8x RTX 3090)",
        &["configuration", "step time", "wire", "speedup"],
        &rows,
    );
    note(
        &mut out,
        "paper: 'we only obtain a modest additional 3% speedup over quantization'.",
    );

    // Functional check: EF-TopK transmits the sparse embedding gradient's
    // full mass over repeated steps.
    let model = ModelSpec::build(ModelId::TransformerXl);
    let emb_idx = model
        .layers()
        .iter()
        .position(|l| l.name().contains("word_emb"))
        .expect("embedding layer");
    let mut synth = GradientSynth::new(&model, 3);
    // Work with a slice of the embedding for speed.
    let full = synth.layer_gradient(emb_idx);
    let sub = Tensor::from_slice(&full.as_slice()[..262_144]);
    let mut ef = CompressionScheme::TopK { ratio: 0.01 }.build();
    let mut rng = Rng::seed_from_u64(9);
    let mut transmitted = Tensor::zeros(&[262_144]);
    let steps = 20;
    for _ in 0..steps {
        let enc = ef.compress(&sub, &mut rng);
        transmitted.add_assign(&ef.decompress(&enc).expect("own payload"));
    }
    transmitted.scale(1.0 / steps as f32);
    let rel = transmitted.l2_distance(&sub) / sub.norm2().max(1e-9);
    outln!(
        out,
        "EF-TopK(1%) on a 256k-element embedding slice: long-run transmitted mean within {:.1}% of the true gradient",
        rel * 100.0
    );
    note(
        &mut out,
        "error feedback makes 1%-density sparsification faithful over time on sparse embeddings.",
    );
    out
}
