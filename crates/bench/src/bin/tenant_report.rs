//! Multi-tenant daemon report: throughput, fairness, and churn recovery
//! for `cgx-serve` sharing one mesh across many training jobs.
//!
//! Emits `BENCH_tenant.json`. Three measured scenarios:
//!
//! - **Tenant throughput** — 8 concurrent 2-rank local-SGD jobs through
//!   one daemon pair over shm. Reports wall time, node-0 tenant bytes,
//!   aggregate MiB/s, and the Jain fairness index over per-job byte
//!   shares (equal weights, equal workloads ⇒ index should be ≈ 1).
//! - **Weighted shares under saturation** — the DRR scheduler itself,
//!   driven with deep equal backlogs and weights 1:2:4. Over a long busy
//!   period each job's byte share must land within 10% of its weight
//!   share (the PR's QoS acceptance bound).
//! - **Churn recovery** — a victim job's rank dies mid-conversation; the
//!   report measures how long its peer takes to observe the typed
//!   disconnect, and how long a *fresh* job takes to attach and complete
//!   a round-trip on the same daemons immediately after the churn.
//!
//! Regression-guard mode: when `CGX_TENANT_GUARD` names a baseline
//! `BENCH_tenant.json`, the run fails if throughput wall time or churn
//! recovery regress beyond `CGX_TENANT_GUARD_TOLERANCE` (default 1.5x),
//! or if fairness/share-error ever leave their absolute bounds.

use cgx_collectives::{ShmFabric, Transport};
use cgx_compress::{Encoded, ScratchPool};
use cgx_engine::{local_sgd_rank, GaussianMixture, Mlp, TrainConfig};
use cgx_serve::{jain_index, Dequeue, DrrScheduler, JobSpec, ServeConfig, ServeNode};
use cgx_tensor::{Rng, Shape};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);

fn shm_nodes(n: usize) -> Vec<Arc<ServeNode>> {
    ShmFabric::build(n)
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(Box::new(t), ServeConfig::default())))
        .collect()
}

struct ThroughputOutcome {
    jobs: u8,
    wall_ms: f64,
    node0_bytes: u64,
    mib_per_s: f64,
    jain: f64,
}

/// 8 concurrent local-SGD tenants over one shm daemon pair.
fn measure_throughput() -> ThroughputOutcome {
    const JOBS: u8 = 8;
    const STEPS: usize = 10;
    const PERIOD: usize = 2;
    let nodes = shm_nodes(2);
    let total_ranks = JOBS as usize * 2;
    // Read per-job counters after every tenant finishes but before any
    // handle detaches (detachment retires the job's scheduler state).
    let done = Arc::new(Barrier::new(total_ranks + 1));
    let release = Arc::new(Barrier::new(total_ranks + 1));
    let start = Instant::now();
    let mut runners = Vec::new();
    for j in 1..=JOBS {
        for node in &nodes {
            let handle = node
                .attach(JobSpec::new(j))
                .expect("attach")
                .with_keepalive(Arc::clone(node));
            let (done, release) = (Arc::clone(&done), Arc::clone(&release));
            let cfg = TrainConfig {
                seed: 3000 + j as u64,
                ..TrainConfig::new(2, STEPS)
            };
            runners.push(std::thread::spawn(move || {
                let task = GaussianMixture::new(4, 6, 1.3);
                let mut rng = Rng::seed_from_u64(500 + j as u64);
                let model = Mlp::new(&mut rng, &[6, 10, 4]);
                let pool = ScratchPool::new();
                let sampler = move |r: &mut Rng| task.sample_batch(r, 8);
                let out = local_sgd_rank(&handle, &model, &sampler, &cfg, PERIOD, &pool);
                done.wait();
                release.wait();
                drop(handle);
                out.expect("job failed").is_some()
            }));
        }
    }
    done.wait();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let per_job: Vec<u64> = (1..=JOBS).map(|j| nodes[0].job_sent_bytes(j)).collect();
    release.wait();
    for r in runners {
        assert!(r.join().expect("tenant thread"), "a rank was killed");
    }
    let node0_bytes: u64 = per_job.iter().sum();
    let shares: Vec<f64> = per_job.iter().map(|&b| b as f64).collect();
    ThroughputOutcome {
        jobs: JOBS,
        wall_ms,
        node0_bytes,
        mib_per_s: node0_bytes as f64 / (1 << 20) as f64 / (wall_ms / 1e3),
        jain: jain_index(&shares),
    }
}

/// DRR under saturation: byte shares vs weight shares, worst error in %.
fn measure_weighted_shares() -> (Vec<u64>, f64) {
    const QUANTUM: u64 = 4096;
    const FRAME: u64 = 1024;
    let weights = [1u64, 2, 4];
    let mut s = DrrScheduler::new(QUANTUM);
    for (i, &w) in weights.iter().enumerate() {
        s.register(i as u8 + 1, w, None);
    }
    // Deep equal backlogs so every job stays busy for the whole drain.
    for i in 0..16_384u32 {
        for j in 0..3u8 {
            s.enqueue(j + 1, FRAME, i);
        }
    }
    let budget = 16_384usize; // well below total backlog: always saturated
    for _ in 0..budget {
        match s.next(0) {
            Dequeue::Frame { .. } => {}
            other => panic!("scheduler stalled under saturation: {other:?}"),
        }
    }
    let wsum: u64 = weights.iter().sum();
    let total: u64 = (1..=3u8).map(|j| s.sent_bytes(j)).sum();
    let mut worst_err_pct = 0f64;
    for (i, &w) in weights.iter().enumerate() {
        let got = s.sent_bytes(i as u8 + 1) as f64 / total as f64;
        let want = w as f64 / wsum as f64;
        worst_err_pct = worst_err_pct.max((got - want).abs() / want * 100.0);
    }
    (weights.to_vec(), worst_err_pct)
}

struct ChurnOutcome {
    detect_ms: f64,
    fresh_job_ms: f64,
}

/// Rank death inside one job; a fresh job attaches right after.
fn measure_churn() -> ChurnOutcome {
    let nodes = shm_nodes(2);
    let v0 = nodes[0]
        .attach(JobSpec::new(1))
        .expect("attach victim 0")
        .with_keepalive(Arc::clone(&nodes[0]));
    let v1 = nodes[1]
        .attach(JobSpec::new(1))
        .expect("attach victim 1")
        .with_keepalive(Arc::clone(&nodes[1]));
    let payload = Encoded::new(Shape::new(vec![4]), vec![9u8; 4].into());
    v0.send_tagged(1, 7, payload.clone()).expect("warmup send");
    v1.recv_tagged_deadline(0, 7, WAIT).expect("warmup recv");
    let start = Instant::now();
    drop(v0); // rank death
    let err = v1
        .recv_tagged_deadline(0, 8, WAIT)
        .expect_err("dead peer must surface");
    let detect_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(err.peer(), Some(0), "disconnect must name the dead rank");

    // A brand-new job on the churned daemons: attach + round-trip.
    let start = Instant::now();
    let f0 = nodes[0]
        .attach(JobSpec::new(2))
        .expect("attach fresh 0")
        .with_keepalive(Arc::clone(&nodes[0]));
    let f1 = nodes[1]
        .attach(JobSpec::new(2))
        .expect("attach fresh 1")
        .with_keepalive(Arc::clone(&nodes[1]));
    f0.send_tagged(1, 1, payload.clone()).expect("fresh send");
    f1.recv_tagged_deadline(0, 1, WAIT).expect("fresh recv");
    f1.send_tagged(0, 2, payload).expect("fresh reply");
    f0.recv_tagged_deadline(1, 2, WAIT).expect("fresh ack");
    let fresh_job_ms = start.elapsed().as_secs_f64() * 1e3;
    ChurnOutcome {
        detect_ms,
        fresh_job_ms,
    }
}

fn baseline_field(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\": "))?;
    let rest = &json[at + key.len() + 4..];
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

fn main() {
    // Snapshot the guard baseline before this run overwrites it.
    let guard = std::env::var("CGX_TENANT_GUARD").ok().map(|path| {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("CGX_TENANT_GUARD baseline {path}: {e}"));
        (path, baseline)
    });

    let tp = measure_throughput();
    let (weights, share_err_pct) = measure_weighted_shares();
    let churn = measure_churn();

    // Absolute bounds — these hold regardless of machine speed.
    assert!(
        tp.jain > 0.9,
        "equal-weight tenants must be near-fair, Jain={:.4}",
        tp.jain
    );
    assert!(
        share_err_pct <= 10.0,
        "byte shares must land within 10% of QoS weights, worst error {share_err_pct:.2}%"
    );
    assert!(
        churn.detect_ms < 5_000.0,
        "rank death must surface promptly, took {:.1}ms",
        churn.detect_ms
    );

    let json = format!(
        "{{\n  \"throughput\": {{\"jobs\": {}, \"wall_ms\": {:.1}, \
         \"node0_tx_bytes\": {}, \"mib_per_s\": {:.2}, \"jain\": {:.4}}},\n  \
         \"qos\": {{\"weights\": {:?}, \"share_err_pct\": {:.2}, \"bound_pct\": 10.0}},\n  \
         \"churn\": {{\"detect_ms\": {:.2}, \"fresh_job_ms\": {:.2}}}\n}}\n",
        tp.jobs,
        tp.wall_ms,
        tp.node0_bytes,
        tp.mib_per_s,
        tp.jain,
        weights,
        share_err_pct,
        churn.detect_ms,
        churn.fresh_job_ms,
    );
    std::fs::write("BENCH_tenant.json", &json).expect("write BENCH_tenant.json");
    print!("{json}");
    println!(
        "throughput: {} jobs in {:.1}ms, {:.2} MiB/s node-0 tx, Jain {:.4}",
        tp.jobs, tp.wall_ms, tp.mib_per_s, tp.jain
    );
    println!("qos: weights {weights:?}, worst share error {share_err_pct:.2}% (bound 10%)");
    println!(
        "churn: death observed in {:.2}ms, fresh job attached + round-tripped in {:.2}ms",
        churn.detect_ms, churn.fresh_job_ms
    );

    if let Some((path, baseline)) = guard {
        let tolerance: f64 = std::env::var("CGX_TENANT_GUARD_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.5);
        // Churn detection can legitimately baseline at tens of
        // microseconds, where a multiplicative tolerance turns scheduler
        // jitter into a "regression". Grant an absolute grace floor well
        // above jitter yet far below the 5s liveness bound.
        const GRACE_MS: f64 = 50.0;
        for (key, measured) in [("wall_ms", tp.wall_ms), ("detect_ms", churn.detect_ms)] {
            let Some(base) = baseline_field(&baseline, key) else {
                panic!("baseline {path} has no {key}");
            };
            let limit = (base * tolerance).max(GRACE_MS);
            assert!(
                measured <= limit,
                "{key} regressed: {measured:.1} > {limit:.1} ({base:.1} x{tolerance})"
            );
        }
        println!("guard: within {tolerance}x of {path}");
    }
}
