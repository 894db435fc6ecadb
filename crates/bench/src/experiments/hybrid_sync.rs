//! Hybrid synchronization (the paper's stated future work): local SGD with
//! periodic compressed model averaging vs per-step gradient
//! synchronization — accuracy against communication volume.
//!
//! Expected shape: traffic falls roughly with the sync period while
//! accuracy degrades gracefully; compression composes with period-based
//! savings (they are orthogonal axes).

use crate::{note, render_table};
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{train_data_parallel, train_local_sgd, LayerCompression, TrainConfig};
use cgx_tensor::Rng;

const WORKERS: usize = 4;
const STEPS: usize = 300;

pub fn run() -> String {
    let task = GaussianMixture::new(6, 12, 1.2);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[12, 32, 6]);
    let eval = |m: &Mlp| {
        let mut r = Rng::seed_from_u64(777);
        let (x, y) = task.sample_batch(&mut r, 2048);
        m.accuracy(&x, &y) * 100.0
    };

    let mut rows = Vec::new();
    for compression in ["fp32", "cgx-4bit"] {
        let policy = || {
            if compression == "fp32" {
                LayerCompression::none()
            } else {
                LayerCompression::cgx_default()
            }
        };
        // Per-step gradient synchronization (the CGX default).
        let cfg = TrainConfig {
            lr: 0.2,
            compression: policy(),
            ..TrainConfig::new(WORKERS, STEPS)
        };
        let t = task.clone();
        let (g_model, g_rep) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        rows.push(vec![
            format!("gradient sync ({compression})"),
            "every step".into(),
            format!("{:.1}", eval(&g_model)),
            format!("{:.1} MB", g_rep.bytes_sent_per_worker as f64 / 1e6),
        ]);
        // Local SGD at increasing periods.
        for period in [4usize, 16, 64] {
            let cfg = TrainConfig {
                lr: 0.2,
                compression: policy(),
                ..TrainConfig::new(WORKERS, STEPS)
            };
            let t = task.clone();
            let (m, rep) =
                train_local_sgd(&model, move |r| t.sample_batch(r, 16), &cfg, period).unwrap();
            rows.push(vec![
                format!("local SGD ({compression})"),
                format!("every {period} steps"),
                format!("{:.1}", eval(&m)),
                format!("{:.1} MB", rep.bytes_sent_per_worker as f64 / 1e6),
            ]);
        }
    }
    let mut out = render_table(
        "Hybrid synchronization: accuracy vs communication (4 workers, 300 steps)",
        &["strategy", "sync period", "top-1 %", "traffic/worker"],
        &rows,
    );
    note(
        &mut out,
        "local SGD trades synchronization frequency for traffic; compression stacks on top.",
    );
    note(&mut out, "paper conclusion: 'extending our results to hybrid synchronization setups' — implemented here.");
    out
}
