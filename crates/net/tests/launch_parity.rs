//! The PR's acceptance test: a multi-process TCP run of the standard
//! workload produces **byte-identical** final parameters to the same
//! seed/config on the thread-backed shared-memory fabric.
//!
//! Real OS processes are spawned through [`ProcessCluster`] running the
//! `cgx-launch` binary in worker mode; each rank writes its replica to a
//! scratch directory and the test compares every file against the
//! in-process reference.

use cgx_collectives::Topology;
use cgx_net::cluster::ProcessCluster;
use cgx_net::workload::{RunOptions, Workload};
use std::path::PathBuf;

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

fn read_replicas(dir: &ScratchDir, world: usize) -> Vec<Vec<u8>> {
    (0..world)
        .map(|rank| {
            let path = dir.0.join(format!("params_rank{rank}.bin"));
            std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        })
        .collect()
}

fn run_cluster(label: &str, world: usize, nodes: Option<&[u32]>) -> Vec<Vec<u8>> {
    let dir = ScratchDir::new(label);
    let mut cluster = ProcessCluster::new(LAUNCH_BIN, world)
        .arg("--world")
        .arg(world.to_string())
        .arg("--out-dir")
        .arg(dir.0.display().to_string());
    if let Some(nodes) = nodes {
        cluster = cluster.nodes(nodes);
    }
    cluster.run().expect("process cluster");
    read_replicas(&dir, world)
}

#[test]
fn four_process_tcp_run_matches_the_shm_reference_byte_for_byte() {
    let world = 4;
    let replicas = run_cluster("parity_flat", world, None);
    for (rank, r) in replicas.iter().enumerate().skip(1) {
        assert_eq!(*r, replicas[0], "rank {rank} replica diverged");
    }
    let reference = Workload::standard(world)
        .run_reference_shm(None, &RunOptions::default())
        .expect("shm reference")
        .params
        .expect("every rank survives");
    assert!(!reference.is_empty());
    assert_eq!(
        replicas[0], reference,
        "TCP replicas differ from the thread-backed reference"
    );
}

#[test]
fn hierarchical_process_run_matches_the_shm_reference_byte_for_byte() {
    // 2 nodes x 2 ranks: workers derive the topology from their CGX_NODE
    // ids through rendezvous; the reference pins the identical layout.
    let world = 4;
    let replicas = run_cluster("parity_hier", world, Some(&[0, 0, 1, 1]));
    for (rank, r) in replicas.iter().enumerate().skip(1) {
        assert_eq!(*r, replicas[0], "rank {rank} replica diverged");
    }
    let reference = Workload::standard(world)
        .run_reference_shm(Some(Topology::grouped(2, 2)), &RunOptions::default())
        .expect("shm reference")
        .params
        .expect("every rank survives");
    assert_eq!(
        replicas[0], reference,
        "hierarchical TCP replicas differ from the thread-backed reference"
    );
}

/// `--steps` and `--seed` go through the one flag reader: a value that
/// does not parse fails the worker before it opens a socket, with the
/// flag's name and the value on stderr — never a default.
#[test]
fn a_malformed_step_count_or_seed_fails_the_worker_naming_the_flag() {
    for (flag, value) in [("--steps", "2O"), ("--seed", "-1")] {
        let out = std::process::Command::new(LAUNCH_BIN)
            .env("CGX_RANK", "0")
            .env("CGX_WORLD", "1")
            .env("CGX_RENDEZVOUS", "127.0.0.1:1")
            .args([flag, value])
            .output()
            .expect("cgx-launch runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be")) && stderr.contains(value),
            "{flag} {value}: {stderr}"
        );
    }
}

/// A world of no ranks is refused by the parser, naming the flag and the
/// value, before the coordinator spawns anything.
#[test]
fn a_world_of_zero_is_a_typed_error_not_a_panic() {
    let out = std::process::Command::new(LAUNCH_BIN)
        .args(["--world", "0"])
        .output()
        .expect("cgx-launch runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--world must be") && stderr.contains("\"0\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
