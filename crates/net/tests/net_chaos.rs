//! Fault tolerance over real sockets, end to end.
//!
//! A death shrinks the world. A 4-rank TCP training run loses rank 2
//! mid-run and the survivors finish with byte-identical replicas —
//! in-process, the death an orderly endpoint drop at the kill the trainer
//! reads from its config; cross-process, four `cgx-launch` workers with a
//! real `SIGKILL` (no destructors, no flushes, the kernel tears the
//! sockets down). The other fault, a link reset that heals, is
//! `tcp::tests::socket_reset`.

use cgx_net::cluster::ProcessCluster;
use cgx_net::rendezvous::{rendezvous, DEFAULT_BOOT_TIMEOUT};
use cgx_net::workload::{RunOptions, Workload};
use cgx_net::{NetOptions, TcpFabric};
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
    assert_eq!(
        report.survivors(),
        world - 1,
        "exactly the victim dies: {report:?}"
    );
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
