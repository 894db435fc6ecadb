//! Chaos robustness report: data-parallel training throughput and
//! delivered-byte fidelity as a function of injected fault rate, plus one
//! fail-stop scenario exercising elastic shrink-and-continue recovery.
//!
//! Emits `BENCH_chaos.json`. The headline claims:
//!
//! - At every transient fault rate the run converges to the *same losses,
//!   byte for byte*, as the fault-free run — the checksummed
//!   retransmission layer masks chaos completely, it only costs time.
//! - Killing a rank mid-run shrinks the world by one and training
//!   finishes on the survivors (one recovery epoch, full loss history).
//!
//! Fault rates are per-frame probabilities applied independently to
//! drop, corruption and duplication (so "1%" is ~3% of frames touched).

use cgx_bench::{note, render_table};
use cgx_collectives::FaultPlan;
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{train_data_parallel, LayerCompression, TrainConfig};
use cgx_tensor::Rng;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const STEPS: usize = 120;
const SEED: u64 = 0xC4A0_5EED;

struct Row {
    rate: f64,
    wall_ms: f64,
    steps_per_s: f64,
    injected: usize,
    caught: usize,
    redelivered: usize,
    identical: bool,
    accuracy: f64,
}

fn run(task: &GaussianMixture, model: &Mlp, chaos: Option<FaultPlan>) -> (Vec<f64>, f64, Mlp, cgx_collectives::FaultStats) {
    let cfg = TrainConfig {
        lr: 0.2,
        compression: LayerCompression::cgx_default(),
        chaos,
        comm_timeout: Some(Duration::from_millis(500)),
        ..TrainConfig::new(WORKERS, STEPS)
    };
    let t = task.clone();
    let start = Instant::now();
    let (m, rep) = train_data_parallel(model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1e3;
    (rep.losses, wall, m, rep.faults)
}

fn main() {
    let task = GaussianMixture::new(6, 12, 1.2);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[12, 32, 6]);
    let eval = |m: &Mlp| {
        let mut r = Rng::seed_from_u64(777);
        let (x, y) = task.sample_batch(&mut r, 2048);
        m.accuracy(&x, &y) * 100.0
    };

    let (clean_losses, clean_ms, clean_model, _) = run(&task, &model, None);
    let mut rows = vec![Row {
        rate: 0.0,
        wall_ms: clean_ms,
        steps_per_s: STEPS as f64 / (clean_ms / 1e3),
        injected: 0,
        caught: 0,
        redelivered: 0,
        identical: true,
        accuracy: eval(&clean_model),
    }];

    for rate in [0.005, 0.01, 0.02, 0.05] {
        let plan = FaultPlan::new(SEED)
            .with_drop(rate)
            .with_corrupt(rate)
            .with_duplicate(rate);
        let (losses, wall_ms, m, faults) = run(&task, &model, Some(plan));
        rows.push(Row {
            rate,
            wall_ms,
            steps_per_s: STEPS as f64 / (wall_ms / 1e3),
            injected: faults.injected_total(),
            caught: faults.corruptions_caught,
            redelivered: faults.frames_redelivered,
            identical: losses == clean_losses,
            accuracy: eval(&m),
        });
    }

    // Fail-stop scenario: rank 2 dies a third of the way in; elastic
    // recovery shrinks the world and the survivors finish the run.
    let kill_cfg = TrainConfig {
        lr: 0.2,
        compression: LayerCompression::cgx_default(),
        chaos: Some(FaultPlan::new(SEED).with_kill(2, STEPS / 3)),
        elastic: true,
        comm_timeout: Some(Duration::from_millis(500)),
        ..TrainConfig::new(WORKERS, STEPS)
    };
    let t = task.clone();
    let start = Instant::now();
    let (km, krep) = train_data_parallel(&model, move |r| t.sample_batch(r, 16), &kill_cfg).unwrap();
    let kill_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(krep.final_world, WORKERS - 1, "kill must shrink the world");
    assert_eq!(krep.losses.len(), STEPS, "survivors must finish every step");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"steps\": {STEPS},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str("  \"transient\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"fault_rate\": {}, \"wall_ms\": {:.1}, \"steps_per_s\": {:.1}, \
             \"injected\": {}, \"corruptions_caught\": {}, \"frames_redelivered\": {}, \
             \"byte_identical_to_clean\": {}, \"accuracy\": {:.1}}}{sep}\n",
            r.rate,
            r.wall_ms,
            r.steps_per_s,
            r.injected,
            r.caught,
            r.redelivered,
            r.identical,
            r.accuracy,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fail_stop\": {{\"killed_rank\": 2, \"kill_step\": {}, \"wall_ms\": {:.1}, \
         \"final_world\": {}, \"recovery_epochs\": {}, \"steps_completed\": {}, \
         \"accuracy\": {:.1}}}\n",
        STEPS / 3,
        kill_ms,
        krep.final_world,
        krep.faults.recovery_epochs,
        krep.losses.len(),
        eval(&km),
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    print!("{json}");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}%", r.rate * 100.0),
                format!("{:.0}", r.steps_per_s),
                format!("{}", r.injected),
                format!("{}", r.redelivered),
                if r.identical { "yes".into() } else { "NO".into() },
                format!("{:.1}", r.accuracy),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Training under chaos (4 workers, 120 steps, cgx-4bit compression)",
            &["fault rate", "steps/s", "injected", "redelivered", "byte-identical", "top-1 %"],
            &table,
        )
    );
    println!(
        "fail-stop: rank 2 killed at step {}, world {} -> {}, {} recovery epoch(s), accuracy {:.1}%",
        STEPS / 3,
        WORKERS,
        krep.final_world,
        krep.faults.recovery_epochs,
        eval(&km),
    );
    note("transient chaos is masked byte-for-byte by checksummed retransmission; it costs only wall time.");
    note("a fail-stop rank triggers membership agreement and the run finishes on the shrunken world.");
}
