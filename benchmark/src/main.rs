//! The cgx benchmark harness. `benchmark/run.sh` builds it and passes its
//! arguments through; `benchmark/README.md` says what it measures and why.
//!
//! Two ways to run it, both from the repository root:
//!
//! * one run — `--workload W --seed N --seconds S --trace 0|1` — measures
//!   one workload in this process and prints, as the last line of standard
//!   output, `{"correct", "attempted", "failed", "metrics"}`;
//! * the suite — no `--workload` — runs every workload untraced and traced,
//!   each in a child process of this binary, and writes
//!   `benchmark/out/results.json`.

mod calm;
mod host;
mod inventory;
mod json;
mod prng;
mod probes;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod train;

use json::{obj, Json};
use std::process::ExitCode;

/// Where traces and `results.json` go, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";
/// A step that takes longer than this fails (it is the transports' receive
/// deadline), so a hang costs seconds, not the run.
pub const STEP_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

const USAGE: &str =
    "usage: bash benchmark/run.sh [--seed N] [--quick] [--only WORKLOAD] [--check] [--selftest]
       bash benchmark/run.sh --workload WORKLOAD --seed N --seconds S --trace 0|1";

#[derive(Debug, Default, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub only: Option<String>,
    pub check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--only" => out.only = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            "--check" => out.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in out.workload.iter().chain(&out.only) {
        if spec::workload(name).is_none() {
            let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; the workloads are {}",
                known.join(", ")
            ));
        }
    }
    Ok(out)
}

/// Measures one workload here and prints the result line last.
fn one_run(name: &str, args: &Args) -> ExitCode {
    let w = spec::workload(name).expect("checked by parse_args");
    let Some(seconds) = args.seconds else {
        eprintln!("--workload needs --seconds\n{USAGE}");
        return ExitCode::from(2);
    };
    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}",
        args.seed, args.trace as u8
    );
    let outcome = match run::run(w, args.seed, seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    if outcome.metrics.is_empty() {
        eprintln!("benchmark: {name} did not finish; no metrics");
        return ExitCode::FAILURE;
    }
    let print = |(metric, unit, s): &run::Metric, note: &str| {
        print!("  {metric:<46} {:>16.6} {unit:<10}", s.value);
        if s.iqr > 0.0 {
            print!(" iqr {:.6}", s.iqr);
        }
        if s.samples > 1 {
            print!("  n={}", s.samples);
        }
        println!("{note}");
    };
    let applies = |m: &&run::Metric| !outcome.not_applicable.contains(&m.0);
    outcome
        .metrics
        .iter()
        .filter(applies)
        .for_each(|m| print(m, ""));
    for m in &outcome.reported {
        print(m, "  (reported, not bounded)");
    }
    if !outcome.not_applicable.is_empty() {
        println!(
            "  not on this workload's path, 0 in the result line: {}",
            outcome.not_applicable.join(" ")
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    let value_rows = |metrics: &[run::Metric]| {
        let row = |(m, unit, s): &run::Metric| {
            let value = obj([("value", s.value.into()), ("unit", (*unit).into())]);
            (m.to_string(), value)
        };
        Json::Obj(metrics.iter().map(row).collect())
    };
    let dispersion = outcome
        .metrics
        .iter()
        .chain(&outcome.reported)
        .filter(|(_, _, s)| s.samples > 1)
        .map(|(m, _, s)| {
            (
                m.to_string(),
                obj([("iqr", s.iqr.into()), ("samples", s.samples.into())]),
            )
        })
        .collect();
    let pools = outcome
        .pools
        .iter()
        .map(|(m, values)| {
            let values = values.iter().map(|v| Json::from(*v)).collect();
            (m.to_string(), Json::Arr(values))
        })
        .collect();
    let not_applicable = outcome
        .not_applicable
        .iter()
        .map(|m| Json::from(*m))
        .collect();
    println!(
        "detail {}",
        obj([
            ("run", outcome.detail),
            ("reported", value_rows(&outcome.reported)),
            ("dispersion", Json::Obj(dispersion)),
            ("pools", Json::Obj(pools)),
            ("not_applicable", Json::Arr(not_applicable)),
        ])
        .compact()
    );
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let line = obj([
        ("correct", correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", value_rows(&outcome.metrics)),
    ]);
    println!("{}", line.compact());
    // The result line is out either way: the suite reads it before it
    // looks at the exit status.
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // `TcpFabric::build_local` and `ServeConfig` read `CGX_*` knobs; a run
    // must not depend on the caller's shell. No thread exists yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CGX_") {
            std::env::remove_var(key);
        }
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if host::cores() < inventory::WORLD {
        eprintln!(
            "benchmark: {} rank threads need as many cores; this host offers {}",
            inventory::WORLD,
            host::cores()
        );
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => one_run(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "bert_tcp_q4",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("bert_tcp_q4"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), true));
    }

    #[test]
    fn suite_flags_parse_and_seed_defaults_to_one() {
        let a = args(&["--quick", "--only", "resnet_shm_q4", "--check"]).unwrap();
        assert_eq!((a.seed, a.quick, a.check), (1, true, true));
        assert_eq!(a.only.as_deref(), Some("resnet_shm_q4"));
        assert_eq!(
            args(&[]).unwrap(),
            Args {
                seed: 1,
                ..Args::default()
            }
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
