//! Figure 10: time per iteration for the reduction schemes (SRA, Ring,
//! Tree, Allgather-broadcast) under 4-bit compression — plus the
//! compression-error comparison measured on the *real* threaded
//! collectives, which is the second half of the paper's argument for SRA.
//!
//! Paper shape: SRA is fastest; repeated compression/decompression (Ring,
//! Tree) additionally inflates the compression error.

use cgx_bench::{fmt_ms, note, render_table};
use cgx_collectives::reduce::{allreduce_scratch, Algorithm};
use cgx_collectives::ThreadCluster;
use cgx_compress::{QsgdCompressor, ScratchPool};
use cgx_core::api::CgxBuilder;
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::{simulate_step, ComputeProfile, MachineSpec, ReductionScheme, StepConfig};
use cgx_tensor::{Rng, Tensor};

fn scheme_label(s: ReductionScheme) -> String {
    s.to_string()
}

fn main() {
    let rtx = MachineSpec::rtx3090();
    // --- Performance plane: step time per scheme ---
    let mut rows = Vec::new();
    for model in [ModelId::ResNet50, ModelId::TransformerXl, ModelId::VitBase] {
        let spec = ModelSpec::build(model);
        let mut session = CgxBuilder::new().build();
        session.register_model_spec(&spec);
        let msgs = session.layer_messages(spec.precision());
        let compute = ComputeProfile::new(rtx.gpu().step_compute_seconds(&spec));
        let mut row = vec![model.to_string()];
        for scheme in ReductionScheme::all() {
            let mut cfg = StepConfig::cgx(rtx.clone());
            cfg.scheme = scheme;
            let r = simulate_step(&cfg, &msgs, compute);
            row.push(fmt_ms(r.step_seconds));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain(ReductionScheme::all().iter().map(|s| scheme_label(*s)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print!(
        "{}",
        render_table(
            "Figure 10a: time per iteration by reduction scheme (4-bit, 8x RTX 3090)",
            &header_refs,
            &rows,
        )
    );

    // --- Functional plane: end-to-end compression error per scheme, on the
    // sequential reference (one unsegmented collective: the per-scheme
    // kernel counts are the textbook ones) ---
    let n = 8;
    let len = 1 << 16;
    let mut err_rows = Vec::new();
    for alg in Algorithm::all() {
        let results = ThreadCluster::run(n, |t| {
            let mut rng = Rng::seed_from_u64(100 + t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            let mut comp = QsgdCompressor::new(4, 128);
            let pool = ScratchPool::new();
            let (out, stats) =
                allreduce_scratch(alg, &t, &grad, &mut comp, &mut rng, &pool).unwrap();
            (grad, out, stats)
        })
        .unwrap();
        let mut true_sum = Tensor::zeros(&[len]);
        for (g, _, _) in &results {
            true_sum.add_assign(g);
        }
        let rel_err = results[0].1.l2_distance(&true_sum) / true_sum.norm2();
        let bytes = results[0].2.bytes_sent;
        let kernels = results[0].2.compress_calls;
        err_rows.push(vec![
            format!("{alg:?}"),
            format!("{:.4}", rel_err),
            format!("{:.1} KiB", bytes as f64 / 1024.0),
            kernels.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Figure 10b: measured compression error by scheme (8 ranks, 64k floats, 4-bit)",
            &[
                "scheme",
                "relative error",
                "bytes sent/rank",
                "compress calls/rank",
            ],
            &err_rows,
        )
    );
    note("paper: SRA is fastest and has the lowest error (one aggregation round-trip).");
}
