//! `cgx` — command-line front end to the reproduction.
//!
//! ```text
//! cgx estimate --machine rtx3090 --model txl --setup cgx
//! cgx compare  --machine rtx3090 --model resnet50
//! cgx adaptive --model txl [--policy kmeans|linear|bayes|timeaware] [--multinode]
//! cgx memory   --model vit
//! cgx machines
//! cgx models
//! cgx experiments <id> | all | list
//! ```
//!
//! Every flag has a default, so `cgx <subcommand>` alone always works. A
//! flag the subcommand does not take, or a value it cannot read, is an
//! error naming the choices (exit status 2). Flags are read by
//! `cgx_net::workload::{flags, read}`, as in `cgx-launch` and `cgx-serve`.

use cgx_adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx_bench::adaptive::adaptive_compression_for;
use cgx_bench::estimate::{estimate, estimate_with_schemes, SystemSetup};
use cgx_bench::EXPERIMENTS;
use cgx_collectives::CommError;
use cgx_models::{ModelId, ModelSpec};
use cgx_net::workload::{flags, read};
use cgx_simnet::{max_batch, training_memory_mb, GpuModel, MachineSpec, OptimizerKind};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cgx <subcommand> [flags]

subcommands:
  estimate  --machine <m> --model <id> --setup <s>   one throughput estimate
  compare   --machine <m> --model <id>               all setups side by side
  adaptive  --model <id> [--policy p] [--multinode]  adaptive bit assignment
  memory    --model <id>                             memory footprint per GPU
  machines                                           list machines
  models                                             list models
  experiments <id> | all | list                      regenerate a paper table or figure
                                                     (timeline takes --model)

machines: rtx3090 rtx2080 dgx1 a6000 aws genesis cluster
models:   resnet50 vgg16 vit txl bert gpt2
setups:   cgx nccl qnccl grace powersgd ideal
policies: kmeans linear timeaware bayes bayesopt:TRIALS";

fn invalid(detail: String) -> CommError {
    CommError::InvalidConfig { detail }
}

/// `--model`, read by `ModelId`'s parser, whose error names the choices.
fn model(get: &impl Fn(&str) -> Option<String>) -> Result<ModelId, CommError> {
    get("--model").map_or(Ok(ModelId::TransformerXl), |v| {
        v.trim().parse().map_err(invalid)
    })
}

fn parse_machine(s: &str) -> Option<MachineSpec> {
    match s.to_ascii_lowercase().as_str() {
        "rtx3090" | "3090" => Some(MachineSpec::rtx3090()),
        "rtx2080" | "2080" => Some(MachineSpec::rtx2080()),
        "dgx1" | "dgx-1" => Some(MachineSpec::dgx1()),
        "a6000" => Some(MachineSpec::a6000()),
        "aws" | "p3.8xlarge" => Some(MachineSpec::aws_p3_8xlarge()),
        "genesis" => Some(MachineSpec::genesis_3090()),
        "cluster" | "multinode" => Some(MachineSpec::genesis_cluster()),
        _ => None,
    }
}

fn parse_setup(s: &str) -> Option<SystemSetup> {
    match s.to_ascii_lowercase().as_str() {
        "cgx" => Some(SystemSetup::cgx()),
        "nccl" | "baseline" => Some(SystemSetup::BaselineNccl),
        "qnccl" => Some(SystemSetup::Qnccl {
            bits: 4,
            bucket_size: 128,
        }),
        "grace" => Some(SystemSetup::Grace { bits: 4 }),
        "powersgd" => Some(SystemSetup::PowerSgd { rank: 4 }),
        "ideal" => Some(SystemSetup::Ideal),
        _ => None,
    }
}

/// `cgx experiments <id> | all | list`: prints the experiment's text.
fn experiments(args: &[String]) -> Result<(), CommError> {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let choices = format!("all, list, {}", ids.join(", "));
    let Some((id, rest)) = args.split_first() else {
        return Err(invalid(format!("experiments needs one of {choices}")));
    };
    let valued: &[&str] = if id == "timeline" { &["--model"] } else { &[] };
    let get = flags(rest.iter().cloned(), valued, &[])?;
    match id.as_str() {
        "list" => ids.iter().for_each(|id| println!("{id}")),
        "all" => {
            for (id, run) in EXPERIMENTS {
                print!("### {id}\n{}", run());
            }
        }
        "timeline" => print!("{}", cgx_bench::timeline(model(&get)?)),
        _ => {
            let unknown = || invalid(format!("unknown experiment {id:?}: one of {choices}"));
            let (_, run) = EXPERIMENTS
                .iter()
                .find(|(known, _)| known == id)
                .ok_or_else(unknown)?;
            print!("{}", run());
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CommError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(invalid("no subcommand".into()));
    };
    let (valued, switches): (&[&str], &[&str]) = match cmd.as_str() {
        "estimate" => (&["--machine", "--model", "--setup"], &[]),
        "compare" => (&["--machine", "--model"], &[]),
        "adaptive" => (&["--model", "--policy"], &["--multinode"]),
        "memory" => (&["--model"], &[]),
        "machines" | "models" => (&[], &[]),
        "experiments" => return experiments(rest),
        _ => return Err(invalid(format!("unknown subcommand {cmd:?}"))),
    };
    let get = flags(rest.iter().cloned(), valued, switches)?;
    let model = model(&get)?;
    let machine = read(
        &get,
        "--machine",
        "one of rtx3090, rtx2080, dgx1, a6000, aws, genesis, cluster",
        parse_machine,
    )?
    .unwrap_or_else(MachineSpec::rtx3090);
    match cmd.as_str() {
        "estimate" => {
            let setup = read(
                &get,
                "--setup",
                "one of cgx, nccl, qnccl, grace, powersgd, ideal",
                parse_setup,
            )?
            .unwrap_or_else(SystemSetup::cgx);
            let e = estimate(&machine, model, &setup);
            println!(
                "{} | {} | {}: {:.0} {} ({:.0}% of linear), step {:.1} ms, exposed comm {:.1} ms, wire {:.1} MB",
                machine.name(),
                model,
                setup.label(),
                e.throughput,
                model.unit(),
                e.scaling * 100.0,
                e.report.step_seconds * 1000.0,
                e.report.exposed_comm_seconds * 1000.0,
                e.wire_bytes as f64 / 1e6,
            );
        }
        "compare" => {
            for setup in [
                SystemSetup::Ideal,
                SystemSetup::BaselineNccl,
                SystemSetup::Qnccl {
                    bits: 4,
                    bucket_size: 128,
                },
                SystemSetup::Grace { bits: 4 },
                SystemSetup::PowerSgd { rank: 4 },
                SystemSetup::cgx(),
            ] {
                let e = estimate(&machine, model, &setup);
                println!(
                    "{:<14} {:>10.0} {} ({:>3.0}%)",
                    setup.label(),
                    e.throughput,
                    model.unit(),
                    e.scaling * 100.0
                );
            }
        }
        "adaptive" => {
            let policy = get("--policy").map_or(Ok(AdaptivePolicy::KMeans), |v| {
                v.parse().map_err(|e| invalid(format!("--policy: {e}")))
            })?;
            let machine = if get("--multinode").is_some() {
                MachineSpec::genesis_cluster()
            } else {
                MachineSpec::rtx3090()
            };
            let spec = ModelSpec::build(model);
            let out = adaptive_compression_for(&spec, policy, &AdaptiveOptions::default(), 2, 7);
            let stat = estimate(&machine, model, &SystemSetup::cgx());
            let adapt = estimate_with_schemes(&machine, model, &out.schemes);
            let mut hist = std::collections::BTreeMap::new();
            for b in &out.assignment.bits {
                *hist.entry(*b).or_insert(0usize) += 1;
            }
            println!(
                "{model} on {}: size {:.2} of static-4bit, error {:.2} of static-4bit",
                machine.name(),
                out.size_ratio_vs_static4,
                out.error_ratio_vs_static4
            );
            for (bits, count) in hist {
                println!("  {bits} bits: {count} layers");
            }
            println!(
                "throughput: static {:.0} -> adaptive {:.0} {} ({:.2}x)",
                stat.throughput,
                adapt.throughput,
                model.unit(),
                adapt.throughput / stat.throughput
            );
        }
        "memory" => {
            let spec = ModelSpec::build(model);
            let opt = OptimizerKind::for_model(&spec);
            println!(
                "{model}: recipe batch {} / GPU, footprint {:.1} GB at recipe batch",
                spec.per_gpu_batch(),
                training_memory_mb(&spec, spec.per_gpu_batch(), opt) / 1024.0
            );
            for gpu in GpuModel::all() {
                let mb = max_batch(&spec, gpu);
                println!(
                    "  {:<12} ({:>2} GB): max batch {}{}",
                    gpu.to_string(),
                    gpu.spec().ram_gb,
                    mb,
                    if mb < spec.per_gpu_batch() {
                        "  <- recipe does not fit"
                    } else {
                        ""
                    }
                );
            }
        }
        "machines" => {
            for m in MachineSpec::table2_systems() {
                println!(
                    "{:<10} {}x{} ({})",
                    m.name(),
                    m.gpus_per_node(),
                    m.gpu(),
                    m.topology().name()
                );
            }
            println!("plus cloud: aws (4xV100), genesis (4x3090), cluster (4x4x3090)");
        }
        _ => {
            // models
            for id in ModelId::all() {
                let m = ModelSpec::build(id);
                println!(
                    "{:<22} {:>6.1}M params, {} layers, batch {}/GPU, {}",
                    id.to_string(),
                    m.param_count() as f64 / 1e6,
                    m.layers().len(),
                    m.per_gpu_batch(),
                    id.unit()
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cgx: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
