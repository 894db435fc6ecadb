//! Fault tolerance over real sockets, end to end.
//!
//! The two faults a production fabric has:
//!
//! * **A link reset** heals: rank 1's socket toward rank 0 is shut down
//!   partway through an engine run, the reconnect path redials and resends
//!   the retained suffix, and every rank's results equal the
//!   shared-memory run's byte for byte.
//! * **A death** shrinks the world. A 4-rank TCP training run loses rank 2
//!   mid-run and the survivors finish with byte-identical replicas —
//!   in-process, the death an orderly endpoint drop at the kill the trainer
//!   reads from its config; cross-process, four `cgx-launch` workers with a
//!   real `SIGKILL` (no destructors, no flushes, the kernel tears the
//!   sockets down).

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::transport::exchange_quiesce_markers;
use cgx_collectives::{CommEngine, EngineOptions, ThreadCluster, Transport};
use cgx_compress::{CompressionScheme, ScratchPool};
use cgx_net::cluster::ProcessCluster;
use cgx_net::rendezvous::{rendezvous, DEFAULT_BOOT_TIMEOUT};
use cgx_net::workload::{RunOptions, Workload};
use cgx_net::{NetOptions, ReconnectPolicy, ResetPlan, TcpFabric};
use cgx_tensor::{Rng, Tensor};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The `cgx-launch` binary, which cargo builds for this test.
const LAUNCH_BIN: &str = env!("CARGO_BIN_EXE_cgx-launch");

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cgx_{label}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORLD: usize = 4;
const LAYERS: usize = 12;
/// Rank 1's frames toward rank 0 before its socket is shut down: it sends
/// 21 over the run (the engine's 20, then the teardown marker), so the
/// reset lands partway through the layers.
const RESET_AFTER: u64 = 8;

/// Twelve layers of odd lengths, cycling through four schemes: two lossy
/// quantizers, the lossless path and a sparsifier.
fn layer_specs() -> Vec<(usize, CompressionScheme)> {
    let schemes = [
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::None,
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        },
        CompressionScheme::TopK { ratio: 0.25 },
    ];
    let mut lens = Rng::seed_from_u64(0xC4A0);
    (0..LAYERS)
        .map(|i| {
            let len = (lens.next_u64() % 3000 + 16) as usize | 1;
            (len, schemes[i % schemes.len()])
        })
        .collect()
}

fn rank_grads(specs: &[(usize, CompressionScheme)], rank: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(0xD1CE + rank as u64 * 31);
    specs
        .iter()
        .map(|(len, _)| Tensor::randn(&mut rng, &[*len]))
        .collect()
}

/// Reduces every layer through one SRA engine on `t`, then runs the
/// teardown barrier; returns the rank's results.
fn reduce_layers(t: &dyn Transport) -> Vec<Tensor> {
    let specs = layer_specs();
    let grads = rank_grads(&specs, t.rank());
    let mut master = Rng::seed_from_u64(0xAB5);
    let mut eng = CommEngine::new(t, ScratchPool::new(), EngineOptions::default());
    let handles: Vec<_> = grads
        .iter()
        .zip(&specs)
        .map(|(g, (_, scheme))| {
            eng.submit(
                Algorithm::ScatterReduceAllgather,
                g,
                scheme.build(),
                &mut master,
            )
        })
        .collect();
    let results = handles
        .into_iter()
        .map(|h| eng.wait(h).expect("layer reduces").0)
        .collect();
    drop(eng);
    let all: Vec<usize> = (0..t.world()).collect();
    exchange_quiesce_markers(t, &all);
    results
}

#[test]
fn engine_results_are_byte_identical_to_shm_across_a_socket_reset() {
    let reference = ThreadCluster::run(WORLD, |t| reduce_layers(&t)).expect("shm run");
    let policy = ReconnectPolicy::new(Duration::from_millis(5), Duration::from_millis(100), 8, 7);
    let mut eps = TcpFabric::build_local_with(WORLD, NetOptions::default().with_reconnect(policy));
    eps[1].set_reset(ResetPlan {
        rank: 1,
        peer: 0,
        after_frames: RESET_AFTER,
    });
    let runs: Vec<(Vec<Tensor>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|t| s.spawn(move || (reduce_layers(&t), t.reconnects())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    });
    for (rank, (got, _)) in runs.iter().enumerate() {
        assert_eq!(got.len(), LAYERS, "rank {rank}");
        for (i, (a, b)) in got.iter().zip(&reference[rank]).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "rank {rank} layer {i} differs from the shm run"
            );
        }
    }
    let (healed, redialed) = (runs[0].1, runs[1].1);
    assert!(
        healed >= 1 && redialed >= 1,
        "the reset was not healed by a reconnect: rank 0 {healed}, rank 1 {redialed}"
    );
}

#[test]
fn in_process_tcp_run_shrinks_around_an_orderly_death() {
    let world = 4;
    let victim = 2;
    let work = Workload::standard(world);
    let opts = RunOptions {
        elastic: true,
        comm_timeout: Some(Duration::from_secs(2)),
        adaptive: None,
    };
    let endpoints = TcpFabric::build_local(world);
    let runs: Vec<_> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in endpoints {
            let work = &work;
            let opts = &opts;
            handles.push(s.spawn(move || {
                work.run_rank(&t, None, opts, Some((victim, 8)))
                    .expect("rank run")
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert!(runs[victim].params.is_none(), "victim must die on schedule");
    let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
    let first = runs[survivors[0]]
        .params
        .as_ref()
        .expect("survivor has a replica");
    assert!(!first.is_empty());
    for &rank in &survivors {
        let run = &runs[rank];
        assert_eq!(
            run.params.as_ref().expect("survivor replica"),
            first,
            "rank {rank} replica diverged after the shrink"
        );
        assert_eq!(run.final_world, world - 1, "rank {rank} world");
        assert!(run.recovery_epochs >= 1, "rank {rank} recorded no recovery");
    }
}

#[cfg(unix)]
#[test]
fn four_process_tcp_run_survives_a_sigkill() {
    let world = 4;
    let victim = 2;
    let dir = ScratchDir::new("net_chaos_sigkill");
    let report = ProcessCluster::new(LAUNCH_BIN, world)
        .arg("--world")
        .arg(world.to_string())
        .arg("--out-dir")
        .arg(dir.0.display().to_string())
        .arg("--steps")
        .arg("24")
        .arg("--kill")
        .arg(format!("{victim}@12"))
        .arg("--sigkill")
        .arg("--comm-timeout-ms")
        .arg("2000")
        .run_supervised()
        .expect("all ranks spawn");
    assert_eq!(report.deaths(), 1, "exactly the victim dies: {report:?}");
    let dead: Vec<usize> = report
        .exits
        .iter()
        .filter(|e| !e.success)
        .map(|e| e.rank)
        .collect();
    assert_eq!(dead, vec![victim]);
    assert_eq!(
        report.exits[victim].code, None,
        "SIGKILL leaves no exit code: {:?}",
        report.exits[victim]
    );
    let first = std::fs::read(dir.0.join("params_rank0.bin")).expect("rank 0 replica");
    assert!(!first.is_empty());
    for rank in (0..world).filter(|&r| r != victim) {
        let other = std::fs::read(dir.0.join(format!("params_rank{rank}.bin")))
            .unwrap_or_else(|e| panic!("rank {rank} replica: {e}"));
        assert_eq!(other, first, "rank {rank} replica diverged after SIGKILL");
        let sidecar = std::fs::read_to_string(dir.0.join(format!("report_rank{rank}.txt")))
            .unwrap_or_else(|e| panic!("rank {rank} report: {e}"));
        assert!(
            sidecar.contains(&format!("final_world={}", world - 1)),
            "rank {rank} finished on the wrong world: {sidecar}"
        );
    }
    assert!(
        !dir.0.join(format!("params_rank{victim}.bin")).exists(),
        "a SIGKILLed rank cannot have written a replica"
    );
}

#[test]
fn launched_worker_times_out_on_a_silent_peer_within_its_comm_timeout() {
    // Rank 1 is a real `cgx-launch` worker; this test is rank 0, which
    // joins the mesh and then never sends. The worker's first receive
    // must give up after its --comm-timeout-ms, not the fabric's 30 s.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free loopback port")
        .to_string();
    // Rank 0 starts binding before the worker is spawned: the freed port
    // is then open to other processes for a thread start, not a process
    // start.
    let rank0 = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            rendezvous(0, 2, &addr, 0, DEFAULT_BOOT_TIMEOUT, NetOptions::default())
        })
    };
    let worker = Command::new(LAUNCH_BIN)
        .env("CGX_RANK", "1")
        .env("CGX_WORLD", "2")
        .env("CGX_RENDEZVOUS", &addr)
        .args(["--comm-timeout-ms", "200"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let (silent, _) = rank0.join().expect("rank 0 runs").expect("mesh forms");
    let formed = Instant::now();
    let out = worker.wait_with_output().expect("worker exits");
    let took = formed.elapsed();
    drop(silent);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a timed-out run must fail: {stderr}");
    // `CommError::Timeout` prints the wait it measured, e.g. `200.3ms`.
    let waited = stderr
        .split_once("timed out after ")
        .and_then(|(_, rest)| rest.split_once(" waiting for rank 0"))
        .unwrap_or_else(|| panic!("no timeout on rank 0 in: {stderr}"))
        .0;
    let ms: f64 = waited
        .strip_suffix("ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("waited {waited}, not milliseconds"));
    assert!((200.0..1000.0).contains(&ms), "waited {waited}");
    assert!(took < Duration::from_secs(10), "worker took {took:?}");
}
