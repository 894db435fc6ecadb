//! `cgx-serve` — the multi-tenant collectives daemon, self-driving demo.
//!
//! Boots one [`ServeNode`] per rank of a local mesh, attaches `--jobs`
//! concurrent local-SGD tenants through the job API, trains them all to
//! completion over the shared fabric, and prints a per-job byte/fairness
//! summary.
//!
//! Flags (all optional; a value that does not parse ends the process with
//! status 2 and a message naming the flag):
//!
//! | flag       | default | meaning                                                         |
//! |------------|---------|-----------------------------------------------------------------|
//! | `--fabric` | `tcp`   | physical mesh: `tcp` or `shm`                                   |
//! | `--world`  | `2`     | ranks in the mesh (one daemon each)                             |
//! | `--jobs`   | `8`     | concurrent tenant jobs, 1 to 253 (each daemon admits that many) |
//! | `--steps`  | `8`     | local-SGD steps per job                                         |
//! | `--period` | `4`     | steps between synchronisations                                  |

use cgx_collectives::{CommError, ShmFabric, Transport};
use cgx_compress::ScratchPool;
use cgx_engine::{local_sgd_rank, GaussianMixture, Mlp, TrainConfig};
use cgx_net::workload::{flags, read};
use cgx_net::TcpFabric;
use cgx_obs::MetricsRegistry;
use cgx_serve::{jain_index, JobSpec, ServeConfig, ServeNode};
use cgx_tensor::Rng;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const USAGE: &str =
    "usage: cgx-serve [--fabric tcp|shm] [--world N] [--jobs 1..253] [--steps N] [--period N]";

/// The demo's flags (the table above): fabric, world, jobs, steps, period.
fn knobs(
    args: impl IntoIterator<Item = String>,
) -> Result<(&'static str, usize, u8, usize, usize), CommError> {
    let get = flags(
        args,
        &["--fabric", "--world", "--jobs", "--steps", "--period"],
        &[],
    )?;
    let count = |key, default| {
        read(&get, key, "a positive integer", |v| {
            v.parse::<usize>().ok().filter(|&n| n > 0)
        })
        .map(|v| v.unwrap_or(default))
    };
    let fabric = read(&get, "--fabric", "`tcp` or `shm`", |v| {
        ["tcp", "shm"].into_iter().find(|&f| f == v)
    })?;
    let jobs = read(&get, "--jobs", "a job count from 1 to 253", |v| {
        v.parse::<u8>().ok().filter(|j| (1..=0xFD).contains(j))
    })?;
    Ok((
        fabric.unwrap_or("tcp"),
        count("--world", 2)?,
        jobs.unwrap_or(8),
        count("--steps", 8)?,
        count("--period", 4)?,
    ))
}

fn main() -> ExitCode {
    let (fabric, world, jobs, steps, period) = match knobs(std::env::args().skip(1)) {
        Ok(demo) => demo,
        Err(e) => {
            eprintln!("cgx-serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = MetricsRegistry::new();
    let mut cfg = ServeConfig::default().with_obs(&registry);
    cfg.max_jobs = usize::from(jobs);
    let phys: Vec<Box<dyn Transport + Send + Sync>> = match fabric {
        "shm" => ShmFabric::build(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport + Send + Sync>)
            .collect(),
        _ => TcpFabric::build_local(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport + Send + Sync>)
            .collect(),
    };
    let nodes: Vec<Arc<ServeNode>> = phys
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(t, cfg.clone())))
        .collect();
    eprintln!(
        "cgx-serve: {} daemon(s) up over {} fabric, admitting {} job(s)",
        world, fabric, jobs
    );

    // Two barriers let the main thread read per-job byte counters after
    // every tenant finishes but before any handle detaches (detachment
    // retires the job's scheduler state).
    let total_ranks = jobs as usize * world;
    let done = Arc::new(Barrier::new(total_ranks + 1));
    let release = Arc::new(Barrier::new(total_ranks + 1));
    let t0 = Instant::now();
    let mut runners = Vec::new();
    for j in 1..=jobs {
        for node in &nodes {
            let handle = node
                .attach(JobSpec::new(j))
                .expect("admission rejected a job within the configured limit")
                .with_keepalive(Arc::clone(node));
            let (done, release) = (Arc::clone(&done), Arc::clone(&release));
            let cfg = TrainConfig {
                seed: 9000 + j as u64,
                ..TrainConfig::new(world, steps)
            };
            runners.push(std::thread::spawn(move || {
                let task = GaussianMixture::new(4, 6, 1.3);
                let mut rng = Rng::seed_from_u64(100 + j as u64);
                let model = Mlp::new(&mut rng, &[6, 10, 4]);
                let pool = ScratchPool::new();
                let sampler = move |r: &mut Rng| task.sample_batch(r, 8);
                let out = local_sgd_rank(&handle, &model, &sampler, &cfg, period, &pool);
                done.wait();
                release.wait();
                drop(handle);
                out.expect("job failed").is_some()
            }));
        }
    }

    done.wait();
    let elapsed = t0.elapsed();
    let per_job: Vec<u64> = (1..=jobs).map(|j| nodes[0].job_sent_bytes(j)).collect();
    release.wait();
    for r in runners {
        assert!(r.join().expect("tenant thread panicked"), "rank was killed");
    }
    drop(nodes);

    let shares: Vec<f64> = per_job.iter().map(|&b| b as f64).collect();
    let total: u64 = per_job.iter().sum();
    println!("cgx-serve summary");
    println!("  fabric          : {fabric} x{world}");
    println!("  jobs            : {jobs} (steps {steps}, period {period})");
    println!("  wall time       : {:.3} s", elapsed.as_secs_f64());
    println!("  node-0 tx bytes : {total}");
    println!(
        "  per-job bytes   : min {} max {}",
        per_job.iter().min().unwrap(),
        per_job.iter().max().unwrap()
    );
    println!("  jain fairness   : {:.4}", jain_index(&shares));
    println!(
        "  throughput      : {:.1} MiB/s (node-0 tenant tx)",
        total as f64 / (1 << 20) as f64 / elapsed.as_secs_f64()
    );
    let snap = registry.snapshot();
    for name in [
        cgx_obs::names::SERVE_JOBS_ATTACHED,
        cgx_obs::names::SERVE_JOBS_DETACHED,
        cgx_obs::names::SERVE_JOBS_REJECTED,
        cgx_obs::names::SERVE_FRAMES_OUT,
        cgx_obs::names::SERVE_BYTES_OUT,
    ] {
        println!("  {name:<24}: {}", snap.get(name).unwrap_or(0));
    }
    ExitCode::SUCCESS
}
