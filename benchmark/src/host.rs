//! What the harness reads about the host and about its own process, all
//! from `/proc` and two child commands — no `libc`, no `unsafe`.

use crate::json::{obj, Json};
use std::fs;
use std::process::Command;

/// The value of `key: value` in the text of a `/proc` file.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line[key.len()..]
            .trim_start()
            .trim_start_matches(':')
            .trim(),
    )
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    field(&fs::read_to_string(path).ok()?, key).map(str::to_string)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time and context switches of every live thread of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessClock {
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

impl ProcessClock {
    /// Sums `/proc/self/task/*/{schedstat,status}`. Threads that have
    /// exited are gone from the sum, so take both readings of a
    /// difference while the same threads are alive.
    pub fn now() -> Self {
        let mut clock = ProcessClock::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return clock;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let on_cpu = fs::read_to_string(dir.join("schedstat")).ok();
            clock.cpu_ns += on_cpu
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
            let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
            for key in ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"] {
                clock.ctx_switches += field(&status, key)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        clock
    }

    pub fn since(&self, earlier: &ProcessClock) -> ProcessClock {
        ProcessClock {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `build_path` and `build_s` as `run.sh` left them next to the binary.
pub fn build_info() -> (String, f64) {
    let info = std::env::current_exe()
        .ok()
        .and_then(|exe| fs::read_to_string(exe.with_file_name("build_info")).ok())
        .unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::to_string)
    };
    (
        field("build_path=").unwrap_or_else(|| "unknown".to_string()),
        field("build_s=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
    )
}

/// Everything a reader needs to decide whether two result files are
/// comparable.
pub fn fingerprint() -> Json {
    let (build_path, build_s) = build_info();
    obj([
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("build_path", build_path.into()),
        ("build_s", build_s.into()),
        ("nproc", cores().into()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("kernel", command_line("uname", &["-sr"]).into()),
    ])
}
