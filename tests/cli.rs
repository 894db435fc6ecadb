//! Smoke tests of the `cgx` CLI binary (exercised via `std::process`).

use std::process::Command;

fn cgx(args: &[&str]) -> (String, bool) {
    let exe = env!("CARGO_BIN_EXE_cgx");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("cli binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn estimate_prints_a_throughput_line() {
    let (out, ok) = cgx(&[
        "estimate",
        "--machine",
        "rtx3090",
        "--model",
        "txl",
        "--setup",
        "cgx",
    ]);
    assert!(ok);
    assert!(out.contains("RTX-3090"));
    assert!(out.contains("tokens/s"));
    assert!(out.contains("% of linear"));
}

#[test]
fn compare_lists_all_setups() {
    let (out, ok) = cgx(&["compare", "--machine", "rtx3090", "--model", "resnet50"]);
    assert!(ok);
    for label in ["ideal", "NCCL", "QNCCL", "Grace", "PowerSGD", "CGX"] {
        assert!(out.contains(label), "missing {label} in:\n{out}");
    }
}

#[test]
fn adaptive_reports_assignment_and_speedup() {
    let (out, ok) = cgx(&["adaptive", "--model", "txl", "--multinode"]);
    assert!(ok);
    assert!(out.contains("bits:"));
    assert!(out.contains("static"));
    assert!(out.contains("adaptive"));
}

#[test]
fn memory_flags_the_2080_vit_limit() {
    let (out, ok) = cgx(&["memory", "--model", "vit"]);
    assert!(ok);
    assert!(out.contains("recipe does not fit"), "{out}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, ok) = cgx(&["frobnicate"]);
    assert!(!ok);
}

#[test]
fn listing_commands_work() {
    let (machines, ok1) = cgx(&["machines"]);
    let (models, ok2) = cgx(&["models"]);
    assert!(ok1 && ok2);
    assert!(machines.contains("RTX-3090"));
    assert!(models.contains("Transformer-XL-base"));
}

/// Runs `cgx args`, which must fail; returns its stderr.
fn cgx_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cgx"))
        .args(args)
        .output()
        .expect("cli binary runs");
    assert!(!out.status.success(), "cgx {args:?} succeeded");
    assert!(out.stdout.is_empty(), "cgx {args:?} printed a result");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_mistyped_flag_or_value_is_an_error_not_a_default() {
    let err = cgx_fails(&["estimate", "--modle", "gpt2"]);
    assert!(err.contains("--modle"), "{err}");
    let err = cgx_fails(&["estimate", "--model", "gtp2"]);
    assert!(err.contains("\"gtp2\"") && err.contains("gpt2"), "{err}");
    cgx_fails(&["compare", "--setup", "cgx"]);
    cgx_fails(&["adaptive", "--multinode", "yes"]);
    cgx_fails(&["machines", "--model", "txl"]);
}

fn experiment_ids() -> Vec<String> {
    let (out, ok) = cgx(&["experiments", "list"]);
    assert!(ok);
    out.lines().map(str::to_string).collect()
}

#[test]
fn experiments_list_prints_every_id_once_in_experiments_md_order() {
    let ids = experiment_ids();
    let index = include_str!("../EXPERIMENTS.md");
    let mut last = 0;
    for id in &ids {
        assert_eq!(ids.iter().filter(|i| *i == id).count(), 1, "{id} twice");
        let at = index
            .find(&format!("`{id}`"))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md never names `{id}`"));
        assert!(at > last, "`{id}` is out of EXPERIMENTS.md's order");
        last = at;
    }
    assert_eq!(ids.len(), 24, "{ids:?}");
}

#[test]
fn an_unknown_experiment_fails_naming_the_ids() {
    let err = cgx_fails(&["experiments", "fig2_nothing"]);
    assert!(err.contains("\"fig2_nothing\""), "{err}");
    for id in experiment_ids() {
        assert!(err.contains(&id), "{id} missing from: {err}");
    }
    cgx_fails(&["experiments"]);
    cgx_fails(&["experiments", "fig1_compression_sweep", "--model", "txl"]);
}

#[test]
fn timeline_reads_the_model_like_every_other_subcommand() {
    let (out, ok) = cgx(&["experiments", "timeline", "--model", "resnet"]);
    assert!(ok);
    assert!(out.starts_with("ResNet50 on 8x RTX 3090"), "{out}");
    let (out, ok) = cgx(&["experiments", "timeline"]);
    assert!(ok);
    assert!(out.starts_with("Transformer-XL-base on"), "{out}");
    let err = cgx_fails(&["experiments", "timeline", "--model", "resnet5"]);
    assert!(
        err.contains("resnet50, vgg16, vit, txl, bert, gpt2"),
        "{err}"
    );
}

/// Every experiment but the four that train for long runs through the
/// debug binary and prints its tables (`render_table` panics on a ragged
/// row).
#[test]
fn every_quick_experiment_prints_its_tables() {
    let slow = [
        "table3_accuracy",
        "fig4_adaptive_convergence",
        "fig5_table7_adaptive",
        "ablations",
    ];
    let runs: Vec<(String, std::process::Child)> = experiment_ids()
        .into_iter()
        .filter(|id| !slow.contains(&id.as_str()))
        .map(|id| {
            let child = Command::new(env!("CARGO_BIN_EXE_cgx"))
                .args(["experiments", &id])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("cli binary runs");
            (id, child)
        })
        .collect();
    assert_eq!(runs.len(), 20);
    for (id, child) in runs {
        let out = child.wait_with_output().expect("experiment exits");
        assert!(out.status.success(), "{id} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        let expect = match id.as_str() {
            "timeline" => "= = link transfer",
            "export_csv" => "# table5: multi-node throughput",
            _ => "\n+-",
        };
        assert!(text.contains(expect), "{id} printed:\n{text}");
    }
}
