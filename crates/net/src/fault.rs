//! The one fault this crate injects: a process killed mid-run.
//!
//! `(rank, step)`: that rank dies at the top of that step. The trainer
//! reads it as `TrainConfig::kill` (where `cgx-launch --kill` and
//! [`Workload::run_rank`](crate::workload::Workload::run_rank) put it) and
//! returns; the worker then drops its endpoint (orderly FIN), or with
//! `--sigkill` calls [`raise_sigkill`], endpoint still open — no
//! destructors, no flushes, the kernel tears the sockets down. That is the
//! honest model of an OOM kill or a preempted spot instance. Either way the
//! peers' TCP endpoints condemn the dead rank with a typed error and the
//! elastic layer shrinks around it.

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
