//! `cgx-launch`: run the standard CGX workload as real OS processes over
//! TCP.
//!
//! Two modes, one command line:
//!
//! - **Coordinator** (`CGX_RANK` unset): spawn one copy of this binary
//!   per rank via [`ProcessCluster`], handing each its own arguments,
//!   wait for all of them, and verify every written replica is
//!   byte-identical.
//! - **Worker** (`CGX_RANK` set, with `CGX_WORLD`, `CGX_RENDEZVOUS` and
//!   `CGX_NODE`: the identity the coordinator gives each rank, and the
//!   only variables this binary reads): rendezvous with the mesh, train,
//!   and — with `--out-dir` — write this replica's final parameters to
//!   `<dir>/params_rank<rank>.bin` as little-endian `f32` bytes plus a
//!   `report_rank<rank>.txt` sidecar (final world, recovery epochs).
//!
//! Both parse the same arguments with [`parse`]:
//!
//! ```text
//! cgx-launch --world 4 --out-dir /tmp/cgx [--nodes 0,0,1,1] [--steps 40] [--seed 4242]
//! ```
//!
//! Chaos mode (`--kill rank@step`, optionally `--sigkill`) kills that
//! rank at that step, trains elastically, supervises the cluster instead
//! of requiring unanimous success, and verifies that the *survivors*
//! converged to byte-identical parameters on the shrunken world:
//!
//! ```text
//! cgx-launch --world 4 --out-dir /tmp/cgx --kill 2@20 --sigkill --comm-timeout-ms 2000
//! ```

use cgx_collectives::CommError;
use cgx_engine::AdaptiveTrainConfig;
use cgx_net::cluster::{ProcessCluster, WorkerEnv};
use cgx_net::fault::raise_sigkill;
use cgx_net::rendezvous::{rendezvous, DEFAULT_BOOT_TIMEOUT};
use cgx_net::workload::{flags, read, RunOptions, Workload};
use cgx_net::NetOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: cgx-launch [--world N] [--nodes 0,0,1,1] [--out-dir DIR] [--steps N] \
     [--seed N] [--kill RANK@STEP] [--sigkill] [--comm-timeout-ms N] [--adaptive POLICY] \
     [--adaptive-alpha A] [--adaptive-interval N] [--adaptive-warmup N]";

/// Everything a launch is told. The coordinator and every worker parse
/// the same arguments into it.
#[derive(Debug)]
struct Cli {
    world: usize,
    nodes: Option<Vec<u32>>,
    out_dir: Option<PathBuf>,
    steps: usize,
    seed: u64,
    kill: Option<(usize, usize)>,
    sigkill: bool,
    run: RunOptions,
}

/// Parses `cgx-launch`'s arguments. A worker passes the world its
/// identity names (`CGX_WORLD`): that is its world, and `--nodes` and
/// `--kill` are checked against it.
///
/// # Errors
///
/// [`CommError::InvalidConfig`] naming the flag and quoting its value when
/// a value is malformed, and naming the flags when two disagree: a
/// mistyped launch fails before anything is spawned, never on a default.
fn parse(
    args: impl IntoIterator<Item = String>,
    identity_world: Option<usize>,
) -> Result<Cli, CommError> {
    let get = flags(
        args,
        &[
            "--world",
            "--nodes",
            "--out-dir",
            "--steps",
            "--seed",
            "--kill",
            "--comm-timeout-ms",
            "--adaptive",
            "--adaptive-alpha",
            "--adaptive-interval",
            "--adaptive-warmup",
        ],
        &["--sigkill"],
    )?;
    let invalid = |detail: String| CommError::InvalidConfig { detail };
    let number = |key, want| read(&get, key, want, |v| v.parse::<u64>().ok());
    let world = read(&get, "--world", "a world size above 0", |v| {
        v.parse().ok().filter(|&n: &usize| n > 0)
    })?;
    let world = match (identity_world, world) {
        (Some(env), Some(flag)) if env != flag => {
            return Err(invalid(format!("--world is {flag} but CGX_WORLD is {env}")))
        }
        (Some(env), _) => env,
        (None, flag) => flag.unwrap_or(4),
    };
    let nodes = read(&get, "--nodes", "a comma-separated list of node ids", |v| {
        v.split(',')
            .map(|s| s.trim().parse().ok())
            .collect::<Option<Vec<u32>>>()
    })?;
    if let Some(nodes) = nodes.as_ref().filter(|n| n.len() != world) {
        return Err(invalid(format!(
            "--nodes names {} ranks but --world is {world}",
            nodes.len()
        )));
    }
    let kill = read(&get, "--kill", "rank@step", |v| {
        let (rank, step) = v.split_once('@')?;
        Some((rank.trim().parse().ok()?, step.trim().parse().ok()?))
    })?;
    if let Some((rank, _)) = kill.filter(|&(rank, _)| rank >= world) {
        return Err(invalid(format!(
            "--kill names rank {rank} but --world is {world}"
        )));
    }
    let sigkill = get("--sigkill").is_some();
    if sigkill && kill.is_none() {
        return Err(invalid("--sigkill requires --kill".into()));
    }
    let base = Workload::standard(world);
    let policy = get("--adaptive")
        .map(|v| v.parse().map_err(|e| invalid(format!("--adaptive: {e}"))))
        .transpose()?;
    let adaptive_base = AdaptiveTrainConfig::default();
    let adaptive = match policy {
        Some(policy) => Some(AdaptiveTrainConfig {
            policy,
            alpha: read(&get, "--adaptive-alpha", "a float above 0", |v| {
                v.parse().ok().filter(|a: &f64| a.is_finite() && *a > 0.0)
            })?
            .unwrap_or(adaptive_base.alpha),
            replan_interval: read(&get, "--adaptive-interval", "a step count above 0", |v| {
                v.parse().ok().filter(|&n: &usize| n > 0)
            })?
            .unwrap_or(adaptive_base.replan_interval),
            warmup: read(&get, "--adaptive-warmup", "a step count", |v| {
                v.parse().ok()
            })?
            .unwrap_or(adaptive_base.warmup),
            ..adaptive_base
        }),
        None if [
            "--adaptive-alpha",
            "--adaptive-interval",
            "--adaptive-warmup",
        ]
        .iter()
        .any(|key| get(key).is_some()) =>
        {
            return Err(invalid(
                "--adaptive-alpha/--adaptive-interval/--adaptive-warmup require --adaptive".into(),
            ))
        }
        None => None,
    };
    Ok(Cli {
        world,
        nodes,
        out_dir: get("--out-dir").map(PathBuf::from),
        steps: read(&get, "--steps", "a step count", |v| v.parse().ok())?.unwrap_or(base.steps),
        seed: number("--seed", "a u64")?.unwrap_or(base.seed),
        kill,
        sigkill,
        run: RunOptions {
            // A kill trains elastically: the survivors shrink around it.
            elastic: kill.is_some(),
            comm_timeout: number("--comm-timeout-ms", "a count of milliseconds")?
                .map(Duration::from_millis),
            adaptive,
        },
    })
}

fn rank_file(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("params_rank{rank}.bin"))
}

fn report_file(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("report_rank{rank}.txt"))
}

fn run_worker(env: WorkerEnv, cli: &Cli) -> Result<(), String> {
    let work = Workload {
        workers: env.world,
        steps: cli.steps,
        seed: cli.seed,
    };
    let (mut transport, topo) = rendezvous(
        env.rank,
        env.world,
        &env.rendezvous,
        env.node,
        DEFAULT_BOOT_TIMEOUT,
        NetOptions::default(),
    )
    .map_err(|e| format!("rank {}: bootstrap failed: {e}", env.rank))?;
    if let Some(timeout) = cli.run.comm_timeout {
        transport.set_timeout(timeout);
    }
    // A flat cluster (every rank on one node) runs the flat collective —
    // identical semantics to the thread-backed reference; a multi-node
    // roster switches on the hierarchical path.
    let topology = (topo.num_nodes() > 1).then(|| topo.clone());
    let run = work
        .run_rank(&transport, topology, &cli.run, cli.kill)
        .map_err(|e| format!("rank {}: training failed: {e}", env.rank))?;
    let Some(params) = run.params else {
        if cli.sigkill {
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
    if let Some(dir) = &cli.out_dir {
        // Hand-launched workers (no coordinator) may point at a directory
        // nobody has created yet.
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("rank {}: creating {}: {e}", env.rank, dir.display()))?;
        let path = rank_file(dir, env.rank);
        std::fs::write(&path, &params)
            .map_err(|e| format!("rank {}: writing {}: {e}", env.rank, path.display()))?;
        let report = report_file(dir, env.rank);
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
            return Err(format!(
                "rank {rank} replica diverged from rank {first_rank}"
            ));
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

fn run_coordinator(cli: &Cli, args: Vec<String>) -> Result<(), String> {
    let bin = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cluster = ProcessCluster::new(bin, cli.world);
    for arg in args {
        cluster = cluster.arg(arg);
    }
    if let Some(nodes) = &cli.nodes {
        cluster = cluster.nodes(nodes);
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let Some((krank, kstep)) = cli.kill else {
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
    // Chaos mode: supervise, and require the *survivors* to agree on a
    // shrunken world.
    let report = cluster.run_supervised().map_err(|e| e.to_string())?;
    for exit in &report.exits {
        if exit.rank != krank && !exit.success {
            return Err(format!("survivor failed: {}", exit.detail));
        }
    }
    let doomed = &report.exits[krank];
    if cli.sigkill && doomed.success {
        return Err(format!(
            "rank {krank} was SIGKILL-scheduled but exited clean"
        ));
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = match WorkerEnv::from_env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("cgx-launch: bad worker environment: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cli = match parse(args.iter().cloned(), env.as_ref().map(|env| env.world)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cgx-launch: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match env {
        Some(env) => run_worker(env, &cli),
        None => run_coordinator(&cli, args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cgx-launch: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, CommError> {
        parse(args.iter().map(|a| a.to_string()), None)
    }

    /// What a worker whose identity names a world of `world` parses.
    fn worker(world: usize, args: &[&str]) -> Result<Cli, CommError> {
        parse(args.iter().map(|a| a.to_string()), Some(world))
    }

    /// `args` must fail as the [`CommError::InvalidConfig`] that names
    /// the flag and quotes the value it refused.
    fn assert_names(args: &[&str], flag: &str, value: &str) {
        match cli(args) {
            Err(CommError::InvalidConfig { detail }) => {
                assert!(detail.contains(flag), "{args:?}: {detail}");
                assert!(detail.contains(&format!("{value:?}")), "{args:?}: {detail}");
            }
            other => panic!("{args:?}: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn no_flags_is_the_standard_static_run() {
        let c = cli(&[]).unwrap();
        let standard = Workload::standard(4);
        assert_eq!(
            (c.world, c.steps, c.seed),
            (4, standard.steps, standard.seed)
        );
        assert_eq!(
            (c.nodes, c.out_dir, c.kill, c.sigkill),
            (None, None, None, false)
        );
        assert_eq!(c.run, RunOptions::default());
    }

    #[test]
    fn flags_set_the_run_options() {
        // A kill trains elastically: the survivors shrink around it.
        let c = cli(&["--kill", " 1 @ 4 ", "--sigkill"]).unwrap();
        assert_eq!(
            (c.kill, c.sigkill, c.run.elastic),
            (Some((1, 4)), true, true)
        );
        let c = cli(&["--kill", "2@20"]).unwrap();
        assert_eq!(
            (c.kill, c.sigkill, c.run.elastic),
            (Some((2, 20)), false, true)
        );
        let c = cli(&["--adaptive", "kmeans"]).unwrap();
        assert_eq!(c.run.adaptive, Some(AdaptiveTrainConfig::default()));
        let c = cli(&[
            "--comm-timeout-ms",
            "2000",
            "--adaptive",
            "linear",
            "--adaptive-alpha",
            "3.5",
            "--adaptive-interval",
            "16",
            "--adaptive-warmup",
            "2",
        ])
        .unwrap();
        assert_eq!(c.run.comm_timeout, Some(Duration::from_secs(2)));
        let cfg = c.run.adaptive.expect("enabled");
        assert_eq!(cfg.policy, "linear".parse().unwrap());
        assert_eq!((cfg.alpha, cfg.replan_interval, cfg.warmup), (3.5, 16, 2));
        let c = cli(&[
            "--world", "4", "--nodes", "0, 0,1,1", "--steps", "24", "--seed", "7",
        ])
        .unwrap();
        assert_eq!((c.nodes, c.steps, c.seed), (Some(vec![0, 0, 1, 1]), 24, 7));
    }

    #[test]
    fn a_malformed_flag_is_named_never_a_default() {
        // `2s` is not "no timeout override", `2@l2` is not "no kill":
        // every flag fails the same typed way.
        for (args, flag, value) in [
            (&["--comm-timeout-ms", "2s"][..], "--comm-timeout-ms", "2s"),
            (&["--comm-timeout-ms", "1s"][..], "--comm-timeout-ms", "1s"),
            (&["--sigkill", "hard"][..], "--sigkill", "hard"),
            (
                &["--adaptive", "quantum-annealing"][..],
                "--adaptive",
                "quantum-annealing",
            ),
            (&["--adaptive", "1"][..], "--adaptive", "1"),
            (
                &["--adaptive", "kmeans", "--adaptive-alpha", "big"][..],
                "--adaptive-alpha",
                "big",
            ),
            (
                &["--adaptive", "kmeans", "--adaptive-alpha", "-1"][..],
                "--adaptive-alpha",
                "-1",
            ),
            (
                &["--adaptive", "kmeans", "--adaptive-interval", "0"][..],
                "--adaptive-interval",
                "0",
            ),
            (
                &["--adaptive", "kmeans", "--adaptive-warmup", "-3"][..],
                "--adaptive-warmup",
                "-3",
            ),
            (&["--kill", "2@l2"][..], "--kill", "2@l2"),
            (&["--kill", "not-a-plan"][..], "--kill", "not-a-plan"),
            (&["--kill", "1-0@3"][..], "--kill", "1-0@3"),
            (&["--world", "0"][..], "--world", "0"),
            (&["--world", "four"][..], "--world", "four"),
            (&["--nodes", "0,x"][..], "--nodes", "0,x"),
            (&["--steps", "2O"][..], "--steps", "2O"),
            (&["--seed", "-1"][..], "--seed", "-1"),
        ] {
            assert_names(args, flag, value);
        }
    }

    #[test]
    fn flags_that_disagree_are_refused_naming_both() {
        for (args, names) in [
            (
                &["--world", "2", "--nodes", "0,0,1"][..],
                "--nodes names 3 ranks but --world is 2",
            ),
            (
                &["--kill", "4@1"][..],
                "--kill names rank 4 but --world is 4",
            ),
            (&["--sigkill"][..], "--sigkill requires --kill"),
            (&["--adaptive-alpha", "3"][..], "require --adaptive"),
            (&["--steps"][..], "--steps needs a value"),
            (&["--wrold", "2"][..], "unknown argument \"--wrold\""),
        ] {
            match cli(args) {
                Err(CommError::InvalidConfig { detail }) => {
                    assert!(detail.contains(names), "{args:?}: {detail}")
                }
                other => panic!("{args:?}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_worker_checks_its_flags_against_the_world_it_was_given() {
        // A hand-launched worker of a world of 8 may kill rank 6 and name
        // eight nodes without repeating `--world`.
        let c = worker(8, &["--kill", "6@5", "--nodes", "0,0,0,0,1,1,1,1"]).unwrap();
        assert_eq!((c.world, c.kill), (8, Some((6, 5))));
        assert_eq!(worker(8, &["--world", "8"]).unwrap().world, 8);
        for (args, names) in [
            (&["--world", "2"][..], "--world is 2 but CGX_WORLD is 8"),
            (
                &["--kill", "8@5"][..],
                "--kill names rank 8 but --world is 8",
            ),
            (
                &["--nodes", "0,0,1,1"][..],
                "--nodes names 4 ranks but --world is 8",
            ),
        ] {
            match worker(8, args) {
                Err(CommError::InvalidConfig { detail }) => {
                    assert!(detail.contains(names), "{args:?}: {detail}")
                }
                other => panic!("{args:?}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
