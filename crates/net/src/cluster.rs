//! Multi-process launching: one OS process per rank.
//!
//! [`ProcessCluster`] is the process-backed sibling of
//! [`ThreadCluster`](cgx_collectives::ThreadCluster): it spawns `world`
//! copies of a worker binary, wires each one's identity through the
//! `CGX_*` environment (rank, world size, rendezvous address, node id),
//! waits for all of them, and folds any failure into a
//! [`CommError::Bootstrap`]. The worker side reads the same variables
//! back with [`WorkerEnv::from_env`] — `cgx-launch` is exactly that
//! round trip.
//!
//! The identity is all a worker reads from its environment. Everything
//! else it is told on its command line: [`ProcessCluster::arg`] hands
//! every rank the same arguments, and `cgx-launch` passes its own.

use crate::boot_err;
use crate::workload::read;
use cgx_collectives::CommError;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Environment variable carrying this process's rank.
pub const ENV_RANK: &str = "CGX_RANK";
/// Environment variable carrying the world size.
pub const ENV_WORLD: &str = "CGX_WORLD";
/// Environment variable carrying the rank-0 rendezvous address.
pub const ENV_RENDEZVOUS: &str = "CGX_RENDEZVOUS";
/// Environment variable carrying this rank's node id (default `0`).
pub const ENV_NODE: &str = "CGX_NODE";

/// A rank's identity as read from the `CGX_*` environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerEnv {
    /// This process's rank.
    pub rank: usize,
    /// World size.
    pub world: usize,
    /// Rank-0 rendezvous address.
    pub rendezvous: String,
    /// This rank's node id.
    pub node: u32,
}

impl WorkerEnv {
    /// The worker identity described by `CGX_RANK`, `CGX_WORLD`,
    /// `CGX_RENDEZVOUS` and `CGX_NODE` (default `0`), read through `get`.
    /// Returns `None` when [`ENV_RANK`] is unset (i.e. this process is a
    /// coordinator, not a spawned worker).
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] naming the variable when a value is
    /// malformed; [`CommError::Bootstrap`] when a worker's world or
    /// rendezvous address is missing or its rank is outside its world.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Option<Self>, CommError> {
        let Some(rank) = read(&get, ENV_RANK, "a rank", |v| v.parse().ok())? else {
            return Ok(None);
        };
        let unset = |key: &str| boot_err(format!("{key} unset"));
        let world = read(&get, ENV_WORLD, "a world size", |v| v.parse().ok())?
            .ok_or_else(|| unset(ENV_WORLD))?;
        if world == 0 || rank >= world {
            return Err(boot_err(format!(
                "rank {rank} out of range for world {world}"
            )));
        }
        let rendezvous = read(&get, ENV_RENDEZVOUS, "an address", |v| Some(v.to_string()))?
            .ok_or_else(|| unset(ENV_RENDEZVOUS))?;
        let node = read(&get, ENV_NODE, "a node id", |v| v.parse().ok())?.unwrap_or(0);
        Ok(Some(WorkerEnv {
            rank,
            world,
            rendezvous,
            node,
        }))
    }

    /// [`Self::parse`] over the real process environment — what a spawned
    /// worker calls.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn from_env() -> Result<Option<Self>, CommError> {
        Self::parse(|k| std::env::var(k).ok())
    }
}

/// Spawns and supervises one worker process per rank.
#[derive(Debug)]
pub struct ProcessCluster {
    bin: PathBuf,
    world: usize,
    rendezvous: String,
    nodes: Vec<u32>,
    args: Vec<String>,
}

impl ProcessCluster {
    /// A cluster of `world` copies of `bin`, rendezvousing on a freshly
    /// reserved loopback address (an ephemeral port bound and released at
    /// once), all ranks on node 0.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero or the loopback interface cannot bind.
    pub fn new(bin: impl Into<PathBuf>, world: usize) -> Self {
        assert!(world > 0, "need at least one rank");
        let rendezvous = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind loopback");
        ProcessCluster {
            bin: bin.into(),
            world,
            rendezvous: rendezvous.to_string(),
            nodes: vec![0; world],
            args: Vec::new(),
        }
    }

    /// Overrides the rendezvous address (e.g. a routable one for a
    /// multi-host launch).
    #[must_use]
    pub fn rendezvous(mut self, addr: impl Into<String>) -> Self {
        self.rendezvous = addr.into();
        self
    }

    /// Assigns per-rank node ids (drives the hierarchical topology).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not name exactly `world` ranks.
    #[must_use]
    pub fn nodes(mut self, nodes: &[u32]) -> Self {
        assert_eq!(nodes.len(), self.world, "one node id per rank");
        self.nodes = nodes.to_vec();
        self
    }

    /// Adds a command-line argument passed to every worker.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    fn spawn_rank(&self, rank: usize) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(&self.args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_WORLD, self.world.to_string())
            .env(ENV_RENDEZVOUS, &self.rendezvous)
            .env(ENV_NODE, self.nodes[rank].to_string())
            .stdin(Stdio::null());
        cmd.spawn()
    }

    /// Spawns all ranks and waits for them. Succeeds only when every
    /// worker exits zero.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] naming every rank that failed to spawn
    /// or exited nonzero.
    pub fn run(&self) -> Result<(), CommError> {
        let report = self.run_supervised()?;
        let failures: Vec<&str> = report
            .exits
            .iter()
            .filter(|e| !e.success)
            .map(|e| e.detail.as_str())
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(boot_err(failures.join("; ")))
        }
    }

    /// Spawns all ranks, supervises them to completion, and reports each
    /// rank's fate instead of folding deaths into an error — the entry
    /// point for chaos runs, where a worker dying is the *plan*. A dead
    /// rank is not respawned: rendezvous is one-shot, so a new worker
    /// could not rejoin the formed mesh; the survivors shrink instead.
    ///
    /// # Errors
    ///
    /// [`CommError::Bootstrap`] only when a rank cannot be *spawned* at
    /// all (the mesh can then never form, so every spawned rank is
    /// killed rather than left to wait out its boot timeout). Deaths
    /// after a successful spawn are data, not errors.
    pub fn run_supervised(&self) -> Result<ClusterReport, CommError> {
        let mut children: Vec<(usize, Child)> = Vec::with_capacity(self.world);
        let mut spawn_failures: Vec<String> = Vec::new();
        for rank in 0..self.world {
            match self.spawn_rank(rank) {
                Ok(child) => children.push((rank, child)),
                Err(e) => spawn_failures.push(format!("rank {rank} failed to spawn: {e}")),
            }
        }
        if !spawn_failures.is_empty() {
            for (_, child) in &mut children {
                let _ = child.kill();
            }
            for (_, mut child) in children {
                let _ = child.wait();
            }
            return Err(boot_err(spawn_failures.join("; ")));
        }
        let exits = children
            .into_iter()
            .map(|(rank, mut child)| match child.wait() {
                Ok(status) => RankExit {
                    rank,
                    success: status.success(),
                    code: status.code(),
                    detail: if status.success() {
                        format!("rank {rank} ok")
                    } else {
                        format!("rank {rank} exited with {status}")
                    },
                },
                Err(e) => RankExit {
                    rank,
                    success: false,
                    code: None,
                    detail: format!("rank {rank} could not be awaited: {e}"),
                },
            })
            .collect();
        Ok(ClusterReport { exits })
    }
}

/// One rank's fate under [`ProcessCluster::run_supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankExit {
    /// The rank.
    pub rank: usize,
    /// Whether the worker exited zero.
    pub success: bool,
    /// The worker's exit code; `None` when the process was killed by a
    /// signal (e.g. `SIGKILL`) or could not be awaited.
    pub code: Option<i32>,
    /// Human-readable description of the outcome.
    pub detail: String,
}

/// Per-rank outcomes of a supervised cluster run: which processes lived,
/// which died, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// One entry per rank, in rank order.
    pub exits: Vec<RankExit>,
}

impl ClusterReport {
    /// Ranks whose worker exited zero.
    pub fn survivors(&self) -> usize {
        self.exits.iter().filter(|e| e.success).count()
    }

    /// Ranks whose worker died (nonzero exit, signal, or unawaitable).
    pub fn deaths(&self) -> usize {
        self.exits.len() - self.survivors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{assert_names, env};

    #[test]
    fn spawn_failure_is_a_bootstrap_error() {
        let err = ProcessCluster::new("/definitely/not/a/binary", 2)
            .run()
            .expect_err("must fail");
        match err {
            CommError::Bootstrap { detail } => {
                assert!(detail.contains("rank 0"), "got: {detail}");
                assert!(detail.contains("rank 1"), "got: {detail}");
            }
            other => panic!("expected Bootstrap, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn supervised_run_reports_deaths_instead_of_erroring() {
        // Ranks 1 and 2 die (exit = rank); the supervisor records that
        // rather than failing the whole cluster.
        let report = ProcessCluster::new("/bin/sh", 3)
            .arg("-c")
            .arg("exit $CGX_RANK")
            .run_supervised()
            .expect("all ranks spawn");
        assert_eq!(report.survivors(), 1);
        assert_eq!(report.deaths(), 2);
        assert!(!report.exits[1].success && !report.exits[2].success);
        assert_eq!(report.exits[1].code, Some(1));
        assert_eq!(report.exits[2].code, Some(2));
    }

    #[test]
    fn worker_env_roundtrip_parses_what_the_cluster_sets() {
        // What ProcessCluster::run exports, read through a table: the
        // process environment is never touched.
        let parsed = WorkerEnv::parse(env(&[
            (ENV_RANK, "2"),
            (ENV_WORLD, "4"),
            (ENV_RENDEZVOUS, "127.0.0.1:9"),
            (ENV_NODE, "1"),
        ]))
        .expect("parse")
        .expect("worker mode");
        assert_eq!(
            parsed,
            WorkerEnv {
                rank: 2,
                world: 4,
                rendezvous: "127.0.0.1:9".into(),
                node: 1,
            }
        );
        assert!(WorkerEnv::parse(env(&[])).expect("parse").is_none());
        // A value that does not parse fails naming its variable.
        for (key, value) in [(ENV_RANK, "two"), (ENV_WORLD, "4x"), (ENV_NODE, "-1")] {
            let get = move |k: &str| {
                let valid = [(ENV_RANK, "2"), (ENV_WORLD, "4"), (ENV_RENDEZVOUS, "h:1")];
                let v = if k == key {
                    Some(value)
                } else {
                    valid.iter().find(|(set, _)| *set == k).map(|(_, v)| *v)
                };
                v.map(str::to_string)
            };
            assert_names(WorkerEnv::parse(get), key, value);
        }
    }
}
