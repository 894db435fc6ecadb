//! Socket-level fault injection for the TCP fabric.
//!
//! Mirrors [`cgx_collectives::FaultPlan`] one layer down: where the chaos
//! transport perturbs frames in process, [`NetFaultPlan`] kills real
//! processes and resets real sockets, so the recovery machinery is
//! exercised against the operating system rather than a simulation of it.
//!
//! Two fault shapes:
//!
//! * **Kill** — `(rank, step)`: that rank dies at the top of that step.
//!   The trainer reads it (as `TrainConfig::chaos`'s kill, where
//!   `cgx-launch` and [`Workload::run_rank`](crate::workload::Workload::run_rank)
//!   put it) and returns; by default the worker then drops its endpoint
//!   (orderly FIN, the thread-cluster analogue); with
//!   [`NetFaultPlan::with_sigkill`] the process raises `SIGKILL` on itself
//!   instead, endpoint still open — no destructors, no flushes, the kernel
//!   tears the sockets down. That is the honest model of an OOM kill or a
//!   preempted spot instance.
//! * **Reset** — `(rank, peer, after_frames)`: that rank's socket toward
//!   `peer` is shut down under the wire path after N outbound frames — a
//!   transient link drop the reconnect path should heal. This half is the
//!   transport's ([`TcpTransport::set_fault`](crate::TcpTransport::set_fault)).
//!
//! Plans come from the builder API in tests and from `CGX_NET_*`
//! environment variables in spawned workers (see [`NetFaultPlan::from_env`]).

use crate::workload::{read, switch};
use cgx_collectives::CommError;

/// Environment variable carrying the kill plan as `rank@step`
/// (for example `2@20`: rank 2 dies at the top of step 20).
pub const ENV_NET_KILL: &str = "CGX_NET_KILL";
/// Environment variable: when set truthy, the kill is a real `SIGKILL`
/// instead of an orderly return.
pub const ENV_NET_SIGKILL: &str = "CGX_NET_SIGKILL";
/// Environment variable carrying the reset plan as `rank:peer@frames`
/// (for example `1:0@3`: rank 1's socket to rank 0 drops after 3 frames).
pub const ENV_NET_RESET: &str = "CGX_NET_RESET";
/// Environment variable carrying the fault seed (defaults to 0).
pub const ENV_NET_FAULT_SEED: &str = "CGX_NET_FAULT_SEED";

/// A transient socket drop: `rank`'s connection toward `peer` is shut
/// down once `after_frames` outbound frames have been enqueued to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetPlan {
    /// The rank whose socket is sabotaged.
    pub rank: usize,
    /// The peer whose link drops.
    pub peer: usize,
    /// Outbound frames to that peer before the drop fires (one-shot).
    pub after_frames: u64,
}

/// Deterministic process/socket-level fault schedule for a TCP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed identifying the schedule (recorded in reports so chaos runs
    /// are replayable).
    pub seed: u64,
    /// `(rank, step)`: that rank dies at the top of that step.
    pub kill: Option<(usize, usize)>,
    /// Kill by raising `SIGKILL` instead of an orderly return.
    pub sigkill: bool,
    /// Transient socket drop to inject.
    pub reset: Option<ResetPlan>,
}

impl NetFaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            kill: None,
            sigkill: false,
            reset: None,
        }
    }

    /// Returns `self` scheduling `rank` to die at the top of `step`.
    #[must_use]
    pub fn with_kill(mut self, rank: usize, step: usize) -> Self {
        self.kill = Some((rank, step));
        self
    }

    /// Returns `self` with kills escalated to `SIGKILL`.
    #[must_use]
    pub fn with_sigkill(mut self) -> Self {
        self.sigkill = true;
        self
    }

    /// Returns `self` scheduling a socket reset: `rank`'s link to `peer`
    /// drops after `after_frames` outbound frames.
    #[must_use]
    pub fn with_reset(mut self, rank: usize, peer: usize, after_frames: u64) -> Self {
        self.reset = Some(ResetPlan {
            rank,
            peer,
            after_frames,
        });
        self
    }

    /// The plan described by `CGX_NET_KILL` / `CGX_NET_SIGKILL` /
    /// `CGX_NET_RESET` / `CGX_NET_FAULT_SEED`, read through `get`, or
    /// `None` when neither a kill nor a reset is scheduled.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] naming the variable when a value is
    /// malformed: a chaos worker whose schedule cannot be read must not
    /// run fault-free.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Option<Self>, CommError> {
        let kill = read(&get, ENV_NET_KILL, "rank@step", parse_at)?;
        let reset = read(&get, ENV_NET_RESET, "rank:peer@frames", |v| {
            let (pair, frames) = v.split_once('@')?;
            let (rank, peer) = pair.split_once(':')?;
            Some(ResetPlan {
                rank: rank.trim().parse().ok()?,
                peer: peer.trim().parse().ok()?,
                after_frames: frames.trim().parse().ok()?,
            })
        })?;
        let sigkill = read(&get, ENV_NET_SIGKILL, "a switch (1/0)", switch)?.unwrap_or(false);
        let seed = read(&get, ENV_NET_FAULT_SEED, "a u64 seed", |v| v.parse().ok())?.unwrap_or(0);
        if kill.is_none() && reset.is_none() {
            return Ok(None);
        }
        Ok(Some(NetFaultPlan {
            seed,
            kill,
            sigkill,
            reset,
        }))
    }

    /// [`Self::parse`] over the real process environment — how spawned
    /// workers inherit the coordinator's chaos schedule.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn from_env() -> Result<Option<Self>, CommError> {
        Self::parse(|k| std::env::var(k).ok())
    }
}

/// `rank@step` → `(rank, step)`.
fn parse_at(v: &str) -> Option<(usize, usize)> {
    let (rank, step) = v.split_once('@')?;
    Some((rank.trim().parse().ok()?, step.trim().parse().ok()?))
}

/// Kills the current process with `SIGKILL` — no unwinding, no `Drop`,
/// no socket shutdown beyond what the kernel does. Falls back to a bare
/// `exit(137)` (the conventional SIGKILL exit code) off unix.
pub fn raise_sigkill() -> ! {
    #[cfg(unix)]
    {
        extern "C" {
            fn getpid() -> i32;
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGKILL: i32 = 9;
        unsafe {
            kill(getpid(), SIGKILL);
        }
        // Unreachable on unix; the loop satisfies the `!` return if the
        // signal is somehow delayed.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    #[cfg(not(unix))]
    {
        std::process::exit(137);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{assert_names, env};

    #[test]
    fn builder_covers_the_schedule() {
        let plan = NetFaultPlan::new(42).with_kill(2, 20).with_reset(1, 0, 3);
        assert!(!plan.sigkill);
        assert_eq!(plan.kill, Some((2, 20)));
        assert!(plan.with_sigkill().sigkill);
        assert_eq!(
            plan.reset,
            Some(ResetPlan {
                rank: 1,
                peer: 0,
                after_frames: 3
            })
        );
    }

    #[test]
    fn parse_reads_kill_reset_seed_and_sigkill() {
        let plan = NetFaultPlan::parse(env(&[
            (ENV_NET_KILL, "2@20"),
            (ENV_NET_RESET, "1:0@3"),
            (ENV_NET_FAULT_SEED, "7"),
        ]))
        .unwrap()
        .expect("plan armed");
        assert_eq!(
            plan,
            NetFaultPlan::new(7).with_kill(2, 20).with_reset(1, 0, 3)
        );
        let hard = NetFaultPlan::parse(env(&[(ENV_NET_KILL, " 1 @ 4 "), (ENV_NET_SIGKILL, "1")]))
            .unwrap()
            .expect("plan armed");
        assert_eq!(hard, NetFaultPlan::new(0).with_kill(1, 4).with_sigkill());
        // No kill and no reset is no plan, whatever else is set.
        assert_eq!(NetFaultPlan::parse(env(&[])).unwrap(), None);
        assert_eq!(
            NetFaultPlan::parse(env(&[(ENV_NET_FAULT_SEED, "7")])).unwrap(),
            None
        );
    }

    #[test]
    fn parse_names_the_malformed_variable() {
        // `2@l2` is not "no fault plan": every key fails the typed way.
        for (key, value) in [
            (ENV_NET_KILL, "2@l2"),
            (ENV_NET_KILL, "not-a-plan"),
            (ENV_NET_RESET, "1-0@3"),
            (ENV_NET_SIGKILL, "hard"),
            (ENV_NET_FAULT_SEED, "0x7"),
        ] {
            let get = move |k: &str| (k == key).then(|| value.to_string());
            assert_names(NetFaultPlan::parse(get), key, value);
        }
    }
}
