//! The suite: every workload in [`ROUNDS`] untraced rounds and one traced
//! run, each run a child process of this binary so that peak memory and
//! thread counts are the workload's own. The rounds go round-robin over
//! the workloads, so that a workload's runs are spread over the whole
//! suite and sample whatever states the host goes through; a timing is
//! the median over the pooled windows (of calm steps) of its rounds. `--check`
//! measures two sets of the same code, alternating them run by run, and
//! holds them against the bounds in `BENCHMARK.json`.

use crate::json::{obj, parse, Json};
use crate::spec::{Across, Workload, END_TO_END, STEP_MS_P95, WORKLOADS};
use crate::stats::{median, Summary};
use crate::{host, Args, OUT_DIR};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Untraced runs per workload and set.
const ROUNDS: usize = 3;

/// One child run, as parsed from its standard output.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    set: usize,
    round: usize,
    wall_s: f64,
    /// The result line; `None` when the child printed none.
    result: Option<Json>,
    detail: Json,
}

impl ChildRun {
    fn correct(&self) -> bool {
        self.result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true))
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    /// The values a pooled metric was picked from, and how many samples
    /// stood behind them.
    fn pool(&self, name: &str) -> Option<(Vec<f64>, usize)> {
        let values = self.detail.get("pools")?.get(name)?.as_array()?;
        let samples = self.detail.get("dispersion")?.get(name)?.get("samples")?;
        Some((
            values.iter().map(Json::as_f64).collect::<Option<_>>()?,
            samples.as_f64()? as usize,
        ))
    }

    fn step_ms_p95(&self) -> Option<f64> {
        let reported = self.detail.get("reported")?.get(STEP_MS_P95.0)?;
        reported.get("value")?.as_f64()
    }
}

fn child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    set: usize,
    round: usize,
) -> ChildRun {
    let start = Instant::now();
    let exe = std::env::current_exe().expect("the harness knows its own path");
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the harness can start itself");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        workload: w.name,
        traced,
        set,
        round,
        wall_s: 0.0,
        result: None,
        detail: Json::Null,
    };
    for line in text.lines() {
        if let Some(detail) = line.strip_prefix("detail ") {
            run.detail = parse(detail).unwrap_or(Json::Null);
        } else if line.starts_with('{') {
            run.result = parse(line).ok();
        } else {
            println!("{line}");
        }
    }
    // A run that failed a check prints its result line (`correct: false`)
    // and exits non-zero; one that died prints none.
    if !output.status.success() {
        println!(
            "FAILED: {} (trace {}) exited with {}",
            w.name, traced as u8, output.status
        );
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// One end-to-end metric of one workload over the rounds of one set.
fn combine(name: &str, across: Across, rounds: &[&ChildRun]) -> Result<Summary, String> {
    let (values, samples) = match across {
        Across::Pooled => {
            let pools: Vec<_> = rounds.iter().filter_map(|r| r.pool(name)).collect();
            (
                pools.iter().flat_map(|(v, _)| v.clone()).collect(),
                pools.iter().map(|(_, n)| n).sum(),
            )
        }
        Across::Exact | Across::Median => {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.metric(name)).collect();
            let n = values.len();
            (values, n)
        }
    };
    if values.is_empty() {
        return Err("missing".into());
    }
    across.combine(&values, samples)
}

/// One end-to-end row of `BENCHMARK.json`.
struct Bound {
    metric: String,
    lower_is_better: bool,
    /// Share of the better value by which the other may be worse.
    share: f64,
}

impl Bound {
    /// How much worse the worse of two values is than the better one, as
    /// a share of the better. Neither set is "the change", so the sets
    /// agree when this stays within the bound.
    fn distance(&self, x: f64, y: f64) -> f64 {
        if x == y {
            // Also where both read 0, which no ratio survives.
            0.0
        } else if self.lower_is_better {
            x.max(y) / x.min(y) - 1.0
        } else {
            1.0 - x.min(y) / x.max(y)
        }
    }
}

/// The end-to-end bounds and `run_seconds` from `BENCHMARK.json` in the
/// current directory.
fn contract() -> Result<(Vec<Bound>, f64), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let bounds = rows
        .iter()
        .map(|r| {
            Some(Bound {
                metric: r.get("name")?.as_str()?.to_string(),
                lower_is_better: r.get("better")?.as_str()? == "lower",
                share: r.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end row")?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    Ok((bounds, seconds))
}

/// Every child run of the suite, in the order they ran.
fn measure(chosen: &[&Workload], seed: u64, seconds: f64, sets: usize) -> Vec<ChildRun> {
    let mut runs = Vec::new();
    for round in 0..ROUNDS {
        println!("==== round {} of {ROUNDS}", round + 1);
        for w in chosen {
            // Sets alternate run by run and take turns going first, so
            // that a change of the host's speed lands on both.
            let mut order: Vec<usize> = (0..sets).collect();
            order.rotate_left(round % sets);
            for set in order {
                if sets > 1 {
                    println!("-- set {}", set + 1);
                }
                runs.push(child(w, seed, seconds, false, set, round));
            }
        }
    }
    println!("==== traced");
    for w in chosen {
        runs.push(child(w, seed, seconds, true, 0, 0));
    }
    runs
}

/// Prints one workload's end-to-end metrics over the rounds of one set
/// and returns their row for `results.json`, or `None` when a metric is
/// missing or an exact one did not repeat.
fn summarise(w: &Workload, rounds: &[&ChildRun]) -> Option<Json> {
    let mut whole = true;
    let mut row = Vec::new();
    for (name, unit, across) in END_TO_END {
        match combine(name, across, rounds) {
            Ok(s) => {
                print!("  {name:<24} {:>16.6} {unit:<6}", s.value);
                if s.samples > 1 {
                    print!(" iqr {:.6}  n={}", s.iqr, s.samples);
                }
                println!();
                row.push((
                    name.to_string(),
                    obj([
                        ("value", s.value.into()),
                        ("unit", unit.into()),
                        ("iqr", s.iqr.into()),
                        ("samples", s.samples.into()),
                    ]),
                ));
            }
            Err(e) => {
                println!("FAILED CHECK: {} {name}: {e}", w.name);
                whole = false;
            }
        }
    }
    let p95: Vec<f64> = rounds.iter().filter_map(|r| r.step_ms_p95()).collect();
    if !p95.is_empty() {
        let (name, unit) = STEP_MS_P95;
        println!(
            "  {name:<24} {:>16.6} {unit:<6} (median of the rounds; reported, not bounded)",
            median(&p95)
        );
        row.push((
            name.to_string(),
            obj([("value", median(&p95).into()), ("unit", unit.into())]),
        ));
    }
    whole.then_some(Json::Obj(row))
}

/// What `--check` says about one (metric, workload) pair.
#[derive(Debug, PartialEq)]
enum Verdict {
    Pass,
    /// The sets are further apart than the bound, and so are the runs of
    /// one set among themselves: the host moved by more than the bound
    /// while the check ran, so the check cannot tell (choosing-metrics §6).
    Unresolved,
    Fail,
}

/// How far apart the two sets are on one metric, and what that means.
/// `a[i]` and `b[i]` ran back to back in round `i`, so each round is a
/// pair that met the same host; the sets are as far apart as the median
/// pair (choosing-metrics §8: compare by alternating, never two sittings).
fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let pairs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| bound.distance(*x, *y))
        .collect();
    let apart = median(&pairs);
    let within = |set: &[f64]| {
        let least = set.iter().copied().fold(f64::INFINITY, f64::min);
        let most = set.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        bound.distance(least, most)
    };
    let verdict = if apart <= bound.share {
        Verdict::Pass
    } else if within(a).max(within(b)) > bound.share {
        Verdict::Unresolved
    } else {
        Verdict::Fail
    };
    (apart, verdict)
}

/// Holds the two sets against the bounds; `true` when every pair passes.
fn check(chosen: &[&Workload], runs: &[ChildRun], bounds: &[Bound], quick: bool) -> bool {
    println!("==== check: two sets of the same code against the bounds of BENCHMARK.json");
    println!("     (per round: set 1, set 2; apart = the median round)");
    let mut agree = true;
    for w in chosen {
        for (name, _, _) in END_TO_END {
            let bound = bounds
                .iter()
                .find(|b| b.metric == name)
                .expect("a selftest holds BENCHMARK.json against the harness");
            let of_set = |set: usize| -> Vec<f64> {
                let mut rounds: Vec<&ChildRun> = runs
                    .iter()
                    .filter(|r| !r.traced && r.set == set && r.workload == w.name)
                    .collect();
                rounds.sort_by_key(|r| r.round);
                rounds.iter().filter_map(|r| r.metric(name)).collect()
            };
            let (a, b) = (of_set(0), of_set(1));
            if a.len() != ROUNDS || b.len() != ROUNDS {
                println!("  {:<18} {name:<20} missing  FAIL", w.name);
                agree = false;
                continue;
            }
            let (apart, verdict) = judge(bound, &a, &b);
            agree &= quick || verdict == Verdict::Pass;
            let rounds: Vec<String> = a
                .iter()
                .zip(&b)
                .map(|(x, y)| format!("{x:.6} {y:.6}"))
                .collect();
            println!(
                "  {:<18} {name:<20} apart {:>7.3}%  bound {:>5.1}%  {:<10}  {}",
                w.name,
                apart * 100.0,
                bound.share * 100.0,
                if quick {
                    "(quick: not judged)".to_string()
                } else {
                    format!("{verdict:?}").to_uppercase()
                },
                rounds.join(" | "),
            );
        }
    }
    agree
}

pub fn run(args: &Args) -> ExitCode {
    let (bounds, run_seconds) = match contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e} (run from the repository root, as run.sh does)");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(run_seconds) * if args.quick { 0.1 } else { 1.0 };
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.only.as_deref().is_none_or(|o| o == w.name))
        .collect();
    let sets = if args.check { 2 } else { 1 };
    let runs = measure(&chosen, args.seed, seconds, sets);

    println!("==== end to end, over {ROUNDS} rounds");
    let mut all_correct = runs.iter().all(ChildRun::correct);
    let mut combined_rows = Vec::new();
    for set in 0..sets {
        for w in &chosen {
            let rounds: Vec<&ChildRun> = runs
                .iter()
                .filter(|r| !r.traced && r.set == set && r.workload == w.name)
                .collect();
            match sets {
                1 => println!("{}", w.name),
                _ => println!("{}  set {}", w.name, set + 1),
            }
            let row = summarise(w, &rounds);
            all_correct &= row.is_some();
            combined_rows.push(obj([
                ("set", set.into()),
                ("workload", w.name.into()),
                ("metrics", row.unwrap_or(Json::Null)),
            ]));
        }
    }
    let agree = !args.check || check(&chosen, &runs, &bounds, args.quick);

    let step_counts = chosen
        .iter()
        .map(|w| {
            (
                w.name.to_string(),
                obj([
                    ("warmup", w.warmup_steps.into()),
                    ("timed", w.steps(seconds).into()),
                ]),
            )
        })
        .collect();
    let rows = runs
        .iter()
        .map(|r| {
            obj([
                ("set", r.set.into()),
                ("round", r.round.into()),
                ("workload", r.workload.into()),
                ("trace", (r.traced as usize).into()),
                ("wall_s", r.wall_s.into()),
                ("result", r.result.clone().unwrap_or(Json::Null)),
                ("detail", r.detail.clone()),
            ])
        })
        .collect();
    let results = obj([
        ("schema", "cgx-benchmark-v2".into()),
        ("seed", args.seed.into()),
        ("seconds", seconds.into()),
        ("rounds", ROUNDS.into()),
        ("quick", args.quick.into()),
        ("host", host::fingerprint()),
        ("step_counts", Json::Obj(step_counts)),
        ("end_to_end", Json::Arr(combined_rows)),
        ("runs", Json::Arr(rows)),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, results.pretty()))
    {
        eprintln!("benchmark: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} and one trace per workload in {OUT_DIR}/");
    if all_correct && agree {
        ExitCode::SUCCESS
    } else {
        println!(
            "FAILED: {}",
            if all_correct {
                "the two sets are not within every bound (UNRESOLVED: the host changed speed by more than the bound during the check; repeat it in a quieter hour)"
            } else {
                "a run failed a check or did not finish"
            }
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            metric: "m".into(),
            lower_is_better,
            share: 0.1,
        }
    }

    #[test]
    fn distance_is_symmetric_and_follows_the_direction() {
        let (lower, higher) = (bound(true), bound(false));
        assert!((lower.distance(10.0, 12.0) - 0.2).abs() < 1e-12);
        assert_eq!(lower.distance(10.0, 12.0), lower.distance(12.0, 10.0));
        assert!((higher.distance(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert_eq!(higher.distance(100.0, 80.0), higher.distance(80.0, 100.0));
        assert_eq!(lower.distance(5.0, 5.0), 0.0);
    }

    #[test]
    fn equal_values_are_no_distance_apart_even_at_zero() {
        for b in [bound(true), bound(false)] {
            assert_eq!(b.distance(0.0, 0.0), 0.0);
            // A lone zero is as far as a ratio can say: beyond any bound.
            assert!(b.distance(0.0, 1.0) > b.share);
        }
    }

    #[test]
    fn sets_are_judged_by_their_median_round() {
        let b = bound(true);
        // One round met a change of the host's speed; two did not.
        let (apart, verdict) = judge(&b, &[3.5, 5.6, 5.0], &[5.2, 5.7, 5.1]);
        assert!(apart < 0.03, "{apart}");
        assert_eq!(verdict, Verdict::Pass);
        // Two did: the runs of a set disagree among themselves.
        let (_, verdict) = judge(&b, &[3.5, 5.6, 3.6], &[5.2, 5.7, 5.1]);
        assert_eq!(verdict, Verdict::Unresolved);
        // Steady sets that differ: a real disagreement.
        let (apart, verdict) = judge(&b, &[3.5, 3.6, 3.5], &[5.2, 5.3, 5.1]);
        assert!(apart > 0.4);
        assert_eq!(verdict, Verdict::Fail);
    }

    fn untraced(result: &str, detail: &str) -> ChildRun {
        ChildRun {
            workload: "w",
            traced: false,
            set: 0,
            round: 0,
            wall_s: 0.0,
            result: Some(parse(result).unwrap()),
            detail: parse(detail).unwrap(),
        }
    }

    #[test]
    fn rounds_pool_their_windows_and_exact_values_must_repeat() {
        let run = |windows: &str, bytes: f64| {
            untraced(
                &format!(r#"{{"correct":true,"metrics":{{"b":{{"value":{bytes}}}}}}}"#),
                &format!(r#"{{"pools":{{"t":{windows}}},"dispersion":{{"t":{{"samples":40}}}}}}"#),
            )
        };
        let (calm, slow) = (run("[2,2,2,2]", 7.0), run("[5,5,5,5]", 7.0));
        let t = combine("t", Across::Pooled, &[&calm, &slow, &calm]).unwrap();
        assert_eq!((t.value, t.samples), (2.0, 120));
        assert_eq!(
            combine("b", Across::Exact, &[&calm, &slow]).unwrap().value,
            7.0
        );
        let drifted = run("[2,2,2,2]", 7.5);
        assert!(combine("b", Across::Exact, &[&calm, &drifted]).is_err());
        assert_eq!(
            combine("nope", Across::Median, &[&calm]).unwrap_err(),
            "missing"
        );
    }
}
