//! `cgx-launch`: run the standard CGX workload as real OS processes over
//! TCP.
//!
//! Two modes, selected by the environment:
//!
//! - **Worker** (`CGX_RANK` set): rendezvous with the mesh, train, and —
//!   when `CGX_OUT_DIR` is set — write this replica's final parameters
//!   to `<dir>/params_rank<rank>.bin` as little-endian `f32` bytes plus
//!   a `report_rank<rank>.txt` sidecar (final world, recovery epochs).
//! - **Coordinator** (`CGX_RANK` unset): spawn one copy of this binary
//!   per rank via [`ProcessCluster`], wait for all of them, and verify
//!   every written replica is byte-identical.
//!
//! ```text
//! cgx-launch --world 4 --out-dir /tmp/cgx [--nodes 0,0,1,1] [--steps 40] [--seed 4242]
//! ```
//!
//! Chaos mode (`--kill rank@step`, optionally `--sigkill`) arms the
//! fault plan in every worker's environment, supervises the cluster
//! instead of requiring unanimous success, and verifies that the
//! *survivors* converged to byte-identical parameters on the shrunken
//! world:
//!
//! ```text
//! cgx-launch --world 4 --out-dir /tmp/cgx --kill 2@20 --sigkill --comm-timeout-ms 2000
//! ```

use cgx_collectives::CommError;
use cgx_net::cluster::{ProcessCluster, WorkerEnv};
use cgx_net::fault::{raise_sigkill, ENV_NET_KILL, ENV_NET_SIGKILL};
use cgx_net::rendezvous::{rendezvous_with_options, DEFAULT_BOOT_TIMEOUT};
use cgx_net::workload::{
    read, RunOptions, Workload, ENV_ADAPTIVE, ENV_ADAPTIVE_ALPHA, ENV_ADAPTIVE_INTERVAL,
    ENV_ADAPTIVE_WARMUP, ENV_COMM_TIMEOUT_MS, ENV_ELASTIC,
};
use cgx_net::{NetFaultPlan, NetOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const ENV_OUT_DIR: &str = "CGX_OUT_DIR";
const ENV_STEPS: &str = "CGX_STEPS";
const ENV_SEED: &str = "CGX_SEED";

fn workload(world: usize) -> Result<Workload, CommError> {
    let get = |key: &str| std::env::var(key).ok();
    let mut w = Workload::standard(world);
    if let Some(steps) = read(&get, ENV_STEPS, "a step count", |v| v.parse().ok())? {
        w.steps = steps;
    }
    if let Some(seed) = read(&get, ENV_SEED, "a u64", |v| v.parse().ok())? {
        w.seed = seed;
    }
    Ok(w)
}

fn rank_file(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("params_rank{rank}.bin"))
}

fn report_file(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("report_rank{rank}.txt"))
}

fn run_worker(env: WorkerEnv) -> Result<(), String> {
    let bad_env = |e| format!("rank {}: {e}", env.rank);
    let work = workload(env.world).map_err(bad_env)?;
    let opts = RunOptions::from_env().map_err(bad_env)?;
    let net = NetOptions::from_env().map_err(bad_env)?;
    let fault = NetFaultPlan::from_env().map_err(bad_env)?;
    let (mut transport, topo) = rendezvous_with_options(
        env.rank,
        env.world,
        &env.rendezvous,
        env.node,
        DEFAULT_BOOT_TIMEOUT,
        net,
    )
    .map_err(|e| format!("rank {}: bootstrap failed: {e}", env.rank))?;
    if let Some(timeout) = opts.comm_timeout {
        transport.set_timeout(timeout);
    }
    if let Some(plan) = fault {
        transport.set_fault(plan);
    }
    // A flat cluster (every rank on one node) runs the flat collective —
    // identical semantics to the thread-backed reference; a multi-node
    // roster switches on the hierarchical path.
    let topology = (topo.num_nodes() > 1).then(|| topo.clone());
    let run = work
        .run_rank(
            &transport,
            topology,
            &opts,
            fault.and_then(|plan| plan.kill),
        )
        .map_err(|e| format!("rank {}: training failed: {e}", env.rank))?;
    let Some(params) = run.params else {
        if fault.is_some_and(|plan| plan.sigkill) {
            // Hard death, the endpoint still open: no destructor runs,
            // the kernel tears the sockets down.
            raise_sigkill();
        }
        // Scheduled orderly death: the endpoint drops on return and the
        // survivors shrink around us. Exiting zero is the contract — this
        // rank did exactly what the plan asked.
        println!("rank {}/{} died on schedule", env.rank, env.world);
        return Ok(());
    };
    if let Ok(dir) = std::env::var(ENV_OUT_DIR) {
        // Hand-launched workers (no coordinator) may point at a directory
        // nobody has created yet.
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("rank {}: creating {dir}: {e}", env.rank))?;
        let path = rank_file(Path::new(&dir), env.rank);
        std::fs::write(&path, &params)
            .map_err(|e| format!("rank {}: writing {}: {e}", env.rank, path.display()))?;
        let report = report_file(Path::new(&dir), env.rank);
        let mut body = format!(
            "final_world={}\nrecovery_epochs={}\n",
            run.final_world, run.recovery_epochs
        );
        if let Some(digest) = run.plan_digest {
            body.push_str(&format!("plan_digest={digest}\n"));
        }
        std::fs::write(&report, body)
            .map_err(|e| format!("rank {}: writing {}: {e}", env.rank, report.display()))?;
    }
    println!(
        "rank {}/{} done: {} param bytes, {} wire bytes sent, final world {}",
        env.rank,
        env.world,
        params.len(),
        transport.wire_bytes_sent(),
        run.final_world,
    );
    Ok(())
}

struct Cli {
    world: usize,
    nodes: Option<Vec<u32>>,
    out_dir: Option<PathBuf>,
    steps: Option<String>,
    seed: Option<String>,
    kill: Option<(usize, usize)>,
    sigkill: bool,
    comm_timeout_ms: Option<String>,
    adaptive: Option<String>,
    adaptive_alpha: Option<String>,
    adaptive_interval: Option<String>,
    adaptive_warmup: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cgx-launch [--world N] [--nodes 0,0,1,1] [--out-dir DIR] [--steps N] [--seed N] \
         [--kill RANK@STEP] [--sigkill] [--comm-timeout-ms N] \
         [--adaptive POLICY] [--adaptive-alpha A] [--adaptive-interval N] [--adaptive-warmup N]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        world: 4,
        nodes: None,
        out_dir: None,
        steps: None,
        seed: None,
        kill: None,
        sigkill: false,
        comm_timeout_ms: None,
        adaptive: None,
        adaptive_alpha: None,
        adaptive_interval: None,
        adaptive_warmup: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--world" => cli.world = value().parse().unwrap_or_else(|_| usage()),
            "--nodes" => {
                cli.nodes = Some(
                    value()
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                        .collect(),
                )
            }
            "--out-dir" => cli.out_dir = Some(PathBuf::from(value())),
            "--steps" => cli.steps = Some(value()),
            "--seed" => cli.seed = Some(value()),
            "--kill" => {
                let v = value();
                let Some((r, s)) = v.split_once('@') else {
                    usage()
                };
                let rank = r.trim().parse().unwrap_or_else(|_| usage());
                let step = s.trim().parse().unwrap_or_else(|_| usage());
                cli.kill = Some((rank, step));
            }
            "--sigkill" => cli.sigkill = true,
            "--comm-timeout-ms" => cli.comm_timeout_ms = Some(value()),
            "--adaptive" => cli.adaptive = Some(value()),
            "--adaptive-alpha" => cli.adaptive_alpha = Some(value()),
            "--adaptive-interval" => cli.adaptive_interval = Some(value()),
            "--adaptive-warmup" => cli.adaptive_warmup = Some(value()),
            _ => usage(),
        }
    }
    cli
}

/// Verifies that every rank in `ranks` wrote a byte-identical replica
/// and returns `(replica bytes, consensus final_world)` from the
/// sidecars.
fn check_consensus(dir: &Path, ranks: &[usize]) -> Result<(Vec<u8>, usize), String> {
    let first_rank = *ranks.first().ok_or("no survivors to compare")?;
    let first = std::fs::read(rank_file(dir, first_rank))
        .map_err(|e| format!("reading rank {first_rank} replica: {e}"))?;
    let mut final_world = None;
    let mut plan_digest: Option<Option<u64>> = None;
    for &rank in ranks {
        let other = std::fs::read(rank_file(dir, rank))
            .map_err(|e| format!("reading rank {rank} replica: {e}"))?;
        if other != first {
            return Err(format!("rank {rank} replica diverged from rank {first_rank}"));
        }
        let report = std::fs::read_to_string(report_file(dir, rank))
            .map_err(|e| format!("reading rank {rank} report: {e}"))?;
        let fw: usize = report
            .lines()
            .find_map(|l| l.strip_prefix("final_world="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("rank {rank} report lacks final_world"))?;
        match final_world {
            None => final_world = Some(fw),
            Some(prev) if prev != fw => {
                return Err(format!(
                    "rank {rank} finished with world {fw}, others with {prev}"
                ))
            }
            Some(_) => {}
        }
        // Adaptive runs also write their plan-trace digest; every rank
        // must have committed the identical plan sequence.
        let pd: Option<u64> = report
            .lines()
            .find_map(|l| l.strip_prefix("plan_digest="))
            .and_then(|v| v.parse().ok());
        match plan_digest {
            None => plan_digest = Some(pd),
            Some(prev) if prev != pd => {
                return Err(format!(
                    "rank {rank} plan digest {pd:?} disagrees with {prev:?}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok((first, final_world.expect("at least one rank")))
}

fn run_coordinator() -> Result<(), String> {
    let cli = parse_cli();
    let bin = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cluster = ProcessCluster::new(bin, cli.world);
    if let Some(nodes) = &cli.nodes {
        if nodes.len() != cli.world {
            return Err(format!(
                "--nodes names {} ranks but --world is {}",
                nodes.len(),
                cli.world
            ));
        }
        cluster = cluster.nodes(nodes);
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        cluster = cluster.env(ENV_OUT_DIR, dir.display().to_string());
    }
    if let Some(steps) = &cli.steps {
        cluster = cluster.env(ENV_STEPS, steps);
    }
    if let Some(seed) = &cli.seed {
        cluster = cluster.env(ENV_SEED, seed);
    }
    if let Some(policy) = &cli.adaptive {
        cluster = cluster.env(ENV_ADAPTIVE, policy);
    } else if cli.adaptive_alpha.is_some()
        || cli.adaptive_interval.is_some()
        || cli.adaptive_warmup.is_some()
    {
        return Err("--adaptive-alpha/--adaptive-interval/--adaptive-warmup require --adaptive".into());
    }
    if let Some(v) = &cli.adaptive_alpha {
        cluster = cluster.env(ENV_ADAPTIVE_ALPHA, v);
    }
    if let Some(v) = &cli.adaptive_interval {
        cluster = cluster.env(ENV_ADAPTIVE_INTERVAL, v);
    }
    if let Some(v) = &cli.adaptive_warmup {
        cluster = cluster.env(ENV_ADAPTIVE_WARMUP, v);
    }
    let Some((krank, kstep)) = cli.kill else {
        if cli.sigkill || cli.comm_timeout_ms.is_some() {
            return Err("--sigkill/--comm-timeout-ms require --kill".into());
        }
        cluster.run().map_err(|e| e.to_string())?;
        if let Some(dir) = &cli.out_dir {
            let ranks: Vec<usize> = (0..cli.world).collect();
            let (first, _) = check_consensus(dir, &ranks)?;
            println!(
                "launch ok: {} ranks, replicas byte-identical ({} param bytes)",
                cli.world,
                first.len()
            );
        } else {
            println!("launch ok: {} ranks", cli.world);
        }
        return Ok(());
    };
    // Chaos mode: arm the fault plan in every worker, supervise, and
    // require the *survivors* to agree on a shrunken world.
    if krank >= cli.world {
        return Err(format!(
            "--kill names rank {krank} but --world is {}",
            cli.world
        ));
    }
    cluster = cluster
        .env(ENV_NET_KILL, format!("{krank}@{kstep}"))
        .env(ENV_ELASTIC, "1");
    if cli.sigkill {
        cluster = cluster.env(ENV_NET_SIGKILL, "1");
    }
    if let Some(ms) = &cli.comm_timeout_ms {
        cluster = cluster.env(ENV_COMM_TIMEOUT_MS, ms);
    }
    let report = cluster.run_supervised().map_err(|e| e.to_string())?;
    for exit in &report.exits {
        if exit.rank != krank && !exit.success {
            return Err(format!("survivor failed: {}", exit.detail));
        }
    }
    let doomed = &report.exits[krank];
    if cli.sigkill && doomed.success {
        return Err(format!("rank {krank} was SIGKILL-scheduled but exited clean"));
    }
    if !cli.sigkill && !doomed.success {
        return Err(format!(
            "rank {krank} should have died an orderly death: {}",
            doomed.detail
        ));
    }
    let Some(dir) = &cli.out_dir else {
        println!(
            "chaos launch ok: {}/{} survivors (rank {krank} killed at step {kstep})",
            cli.world - 1,
            cli.world
        );
        return Ok(());
    };
    let survivors: Vec<usize> = (0..cli.world).filter(|&r| r != krank).collect();
    let (first, final_world) = check_consensus(dir, &survivors)?;
    if final_world != cli.world - 1 {
        return Err(format!(
            "survivors finished with world {final_world}, expected {}",
            cli.world - 1
        ));
    }
    println!(
        "chaos launch ok: rank {krank} killed at step {kstep}, {} survivors byte-identical \
         on world {final_world} ({} param bytes)",
        survivors.len(),
        first.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = match WorkerEnv::from_env() {
        Ok(Some(env)) => run_worker(env),
        Ok(None) => run_coordinator(),
        Err(e) => Err(format!("bad worker environment: {e}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cgx-launch: {msg}");
            ExitCode::FAILURE
        }
    }
}
