//! One run of one workload: set-up repeats, the timed steps, the checks,
//! and the metrics by name. Untraced runs give the end-to-end metrics;
//! traced runs give the per-layer ones and write the traces.

use crate::calm::{self, Around};
use crate::host::peak_rss_mib;
use crate::inventory::{run_instance, InstanceRun, Inventory, Plan, StepRec, VERIFY_STEPS};
use crate::json::{obj, Json};
use crate::prng::SplitMix64;
use crate::spec::{
    Across, Fabric, Kind, Workload, END_TO_END, PER_LAYER, QUALITY_FLOOR, STEP_MS_P95,
};
use crate::stats::{mean, median, quantile, step_windows, Summary, WINDOWS};
use crate::trace::{chrome_trace, Span};
use crate::train::{initial_model, param_digest, run_training, Task, TrainPlan, TrainRun};
use crate::{probes, OUT_DIR};
use cgx_compress::CompressionScheme;
use cgx_obs::chrome_trace_json;
use std::collections::BTreeMap;

/// Throw-away set-ups before and again after the timed phase of an
/// untraced run, so that the repeats behind `setup_s` meet two moments of
/// the host, several seconds apart.
const SETUP_REPS_EACH_SIDE: usize = 4;
/// Steps whose mean loss is the training workload's quality: enough of
/// them that ten seeds spread by under half the metric's 2 % bound (the
/// last 100 spread by 0.9–1.4 %, the last 400 by 0.4–0.8 %).
const QUALITY_STEPS: usize = 400;

/// `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, Summary);

#[derive(Default)]
pub struct Outcome {
    /// Every metric of the pass, in the order of `spec`.
    pub metrics: Vec<Metric>,
    /// Printed and kept in `results.json`, not in the result line.
    pub reported: Vec<Metric>,
    /// The values a pooled metric was picked from (window values, set-up
    /// repeats): the suite pools them over its rounds.
    pub pools: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer metrics whose layer this workload does not run; they read
    /// 0 in the result line.
    pub not_applicable: Vec<&'static str>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks by name; empty means the outputs are correct.
    pub problems: Vec<String>,
    pub detail: Json,
}

/// Per-layer values by metric name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every per-layer metric in `spec` order, and the names of those
    /// this workload did not set.
    fn into_metrics(self) -> (Vec<Metric>, Vec<&'static str>) {
        for name in self.0.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a per-layer metric"
            );
        }
        let unset = |name: &&str| !self.0.contains_key(name);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.0.get(name).copied().unwrap_or(0.0);
                (name, unit, Summary::exact(value))
            })
            .collect();
        let not_applicable = PER_LAYER.iter().map(|(n, _)| *n).filter(unset).collect();
        (metrics, not_applicable)
    }
}

/// What an untraced run measured, before it becomes the six metrics.
struct EndToEnd<'a> {
    /// Every set-up: its seconds, and what its warm-up's bursts say.
    setups: Vec<(f64, Around)>,
    /// Every timed step, and what the bursts around it say.
    step_ms: &'a [f64],
    around: &'a [Around],
    wire_bytes_per_step: f64,
    quality_err: f64,
}

impl EndToEnd<'_> {
    /// The metrics in `spec` order, the tail that is reported beside them,
    /// the pools behind the timing metrics, and how calm the host was.
    fn into_outcome(self) -> (Outcome, Vec<(String, Json)>) {
        let calm = calm::select(self.around, WINDOWS);
        let pick = |scaled: bool| -> Vec<f64> {
            let ms = |&i: &usize| self.step_ms[i] * if scaled { self.around[i].scale } else { 1.0 };
            calm.iter().map(ms).collect()
        };
        let calm_ms = pick(true);
        let (p50, rate) = step_windows(&calm_ms);
        let steps = calm_ms.len() / WINDOWS * WINDOWS;
        let setups = calm::calm_setups(&self.setups);
        let host = vec![
            ("calm_share".to_string(), calm::share(self.around).into()),
            ("steps_used".to_string(), calm_ms.len().into()),
            ("setups_used".to_string(), setups.len().into()),
            (
                "unscaled_step_ms_p50".to_string(),
                median(&pick(false)).into(),
            ),
        ];
        let values = [
            (setups.len(), setups),
            (steps, p50),
            (steps, rate),
            (1, vec![self.wire_bytes_per_step]),
            (1, vec![self.quality_err.max(QUALITY_FLOOR)]),
            (1, vec![peak_rss_mib()]),
        ];
        let mut out = Outcome::default();
        for (&(name, unit, across), (samples, values)) in END_TO_END.iter().zip(values) {
            let summary = across
                .combine(&values, samples)
                .expect("one run has one value of an exact metric");
            out.metrics.push((name, unit, summary));
            if matches!(across, Across::Pooled) {
                out.pools.push((name, values));
            }
        }
        let p95 = Summary {
            value: quantile(&calm_ms, 0.95),
            iqr: 0.0,
            samples: calm_ms.len(),
        };
        out.reported.push((STEP_MS_P95.0, STEP_MS_P95.1, p95));
        (out, host)
    }
}

/// The process's calm burst level over `bursts`, and the `detail` row
/// that records it.
fn burst_level<'a>(bursts: impl IntoIterator<Item = &'a u64>) -> (f64, (String, Json)) {
    let level = calm::level(bursts);
    (level, ("calm_burst_us".to_string(), (level / 1e3).into()))
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let timed = w.steps(seconds);
    match (w.kind, traced) {
        (Kind::Train, false) => Ok(train_end_to_end(w, seed, timed)),
        (Kind::Train, true) => Ok(train_per_layer(w, seed, timed)),
        (
            Kind::Inventory {
                model,
                shrink,
                scheme,
                fabric,
                layers,
                elements,
            },
            _,
        ) => {
            let inv = Inventory::build(model, shrink, scheme);
            if (inv.layers.len(), inv.elements()) != (layers, elements) {
                return Err(format!(
                    "{}: the zoo gives {} layers / {} elements, the workload is pinned to {layers} / {elements}",
                    w.name,
                    inv.layers.len(),
                    inv.elements()
                ));
            }
            Ok(if traced {
                inventory_per_layer(w, &inv, fabric, seed, timed)
            } else {
                inventory_end_to_end(w, &inv, fabric, seed, timed)
            })
        }
    }
}

/// Checks shared by both inventory passes; returns the failed ones.
fn inventory_checks(inv: &Inventory, main: &InstanceRun, reference: &InstanceRun) -> Vec<String> {
    let mut problems = main.errors();
    problems.extend(
        reference
            .errors()
            .into_iter()
            .map(|e| format!("shm reference: {e}")),
    );
    if !problems.is_empty() {
        return problems;
    }
    let digests: Vec<u64> = main.ranks.iter().map(|r| r.digest).collect();
    if digests.windows(2).any(|d| d[0] != d[1]) {
        problems.push(format!("ranks disagree on the reduced bytes: {digests:x?}"));
    }
    if reference.ranks[0].digest != digests[0] {
        problems.push(format!(
            "verification digest {:x} differs from the shm reference {:x}",
            digests[0], reference.ranks[0].digest
        ));
    }
    let lossy = inv
        .layers
        .iter()
        .any(|(_, s)| *s != CompressionScheme::None);
    let limit = if lossy { 0.5 } else { 1e-5 };
    let err = main.ranks[0].quality_err;
    if !(err.is_finite() && err < limit) {
        problems.push(format!("quality_err {err} is not below {limit}"));
    }
    problems
}

fn ops(main: &InstanceRun, timed: usize, problems: &[String]) -> (usize, usize) {
    let attempted = timed + VERIFY_STEPS;
    let done = main
        .ranks
        .iter()
        .map(|r| r.steps.len() + r.verified_steps)
        .min()
        .unwrap_or(0);
    (
        attempted,
        (attempted - done + problems.len()).min(attempted),
    )
}

fn inventory_detail(
    w: &Workload,
    inv: &Inventory,
    timed: usize,
    main: &InstanceRun,
) -> Vec<(String, Json)> {
    vec![
        ("layers".into(), inv.layers.len().into()),
        ("elements".into(), inv.elements().into()),
        ("warmup_steps".into(), w.warmup_steps.into()),
        ("timed_steps".into(), timed.into()),
        ("verify_steps".into(), VERIFY_STEPS.into()),
        (
            "verification_digest".into(),
            format!("{:016x}", main.ranks[0].digest).into(),
        ),
    ]
}

fn inventory_end_to_end(
    w: &Workload,
    inv: &Inventory,
    fabric: Fabric,
    seed: u64,
    timed: usize,
) -> Outcome {
    let grads = inv.gradients(seed);
    let plan = Plan {
        fabric,
        warmup: w.warmup_steps,
        timed: 0,
        verify: false,
        traced: false,
    };
    let mut problems = Vec::new();
    let mut reps = Vec::new();
    let mut set_up_only = |reps: &mut Vec<InstanceRun>| {
        for _ in 0..SETUP_REPS_EACH_SIDE {
            let rep = run_instance(inv, &grads, plan, seed);
            let named = |e| format!("set-up repeat: {e}");
            problems.extend(rep.errors().into_iter().map(named));
            reps.push(rep);
        }
    };
    set_up_only(&mut reps);
    let main = run_instance(
        inv,
        &grads,
        Plan {
            timed,
            verify: true,
            ..plan
        },
        seed,
    );
    set_up_only(&mut reps);
    let reference = run_instance(
        inv,
        &grads,
        Plan {
            fabric: Fabric::Shm,
            warmup: 0,
            verify: true,
            ..plan
        },
        seed,
    );
    problems.extend(inventory_checks(inv, &main, &reference));
    let (attempted, failed) = ops(&main, timed, &problems);

    let rank0 = &main.ranks[0];
    let step_ms = main.step_ms();
    let mut out = Outcome::default();
    let mut detail = inventory_detail(w, inv, timed, &main);
    if step_ms.len() == timed {
        let wire_bytes = match fabric {
            Fabric::Shm => rank0.steps.iter().map(|s| s.stats.bytes_sent as u64).sum(),
            Fabric::Tcp | Fabric::Serve => rank0.counters.wire_bytes,
        };
        let instances = || reps.iter().chain([&main]);
        let (level, row) = burst_level(instances().flat_map(InstanceRun::bursts));
        let host;
        (out, host) = EndToEnd {
            setups: instances().map(|i| i.setup(level)).collect(),
            step_ms: &step_ms,
            around: &main.around(level).1,
            wire_bytes_per_step: wire_bytes as f64 / timed as f64,
            quality_err: rank0.quality_err,
        }
        .into_outcome();
        detail.push(row);
        detail.extend(host);
    }
    Outcome {
        attempted,
        failed,
        problems,
        detail: Json::Obj(detail),
        ..out
    }
}

fn write_out(file: &str, text: &str) -> Option<String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .err()
        .map(|e| format!("cannot write {path}: {e}"))
}

fn inventory_per_layer(
    w: &Workload,
    inv: &Inventory,
    fabric: Fabric,
    seed: u64,
    timed: usize,
) -> Outcome {
    let grads = inv.gradients(seed);
    let mut v = Values::default();
    for (name, value) in probes::run(seed) {
        v.set(name, value);
    }

    // Untraced, traced, untraced, half the step budget each: the traced
    // median against the mean of its two neighbours cancels a drift of the
    // host across the run, and the neighbours together hold as many
    // untraced steps as an untraced run, for the tail.
    let half = (timed / 2).max(WINDOWS);
    let plan = Plan {
        fabric,
        warmup: w.warmup_steps,
        timed: half,
        verify: false,
        traced: false,
    };
    let before = run_instance(inv, &grads, plan, seed);
    let main = run_instance(
        inv,
        &grads,
        Plan {
            verify: true,
            traced: true,
            ..plan
        },
        seed,
    );
    let after = run_instance(inv, &grads, plan, seed);
    let reference = run_instance(
        inv,
        &grads,
        Plan {
            fabric: Fabric::Shm,
            warmup: 0,
            timed: 0,
            verify: true,
            ..plan
        },
        seed,
    );
    let mut problems: Vec<String> = [&before, &after]
        .iter()
        .flat_map(|r| r.errors())
        .map(|e| format!("untraced neighbour: {e}"))
        .collect();
    problems.extend(inventory_checks(inv, &main, &reference));
    let (attempted, failed) = ops(&main, half, &problems);
    if !problems.is_empty() {
        return Outcome {
            attempted,
            failed,
            problems,
            ..Outcome::default()
        };
    }

    // What a step's own record holds is averaged over the calm steps;
    // what only a counter of the whole phase holds, over all of them.
    let rank0 = &main.ranks[0];
    let (level, level_row) = burst_level(
        [&before, &main, &after]
            .into_iter()
            .flat_map(InstanceRun::bursts),
    );
    let calm = main.calm_steps(level);
    let per_step = |total: u64| total as f64 / rank0.steps.len() as f64;
    let ms_per_step = |total_ns: u64| per_step(total_ns) / 1e6;
    let per_calm = |f: &dyn Fn(&StepRec) -> u64| {
        mean(&calm.iter().map(|&(s, _)| f(s) as f64).collect::<Vec<_>>())
    };
    // A time is scaled to the reference burst step by step.
    let ms_per_calm = |f: &dyn Fn(&StepRec) -> u64| {
        mean(
            &calm
                .iter()
                .map(|&(s, scale)| f(s) as f64 * scale / 1e6)
                .collect::<Vec<_>>(),
        )
    };

    let step = ms_per_calm(&|s| s.total_ns);
    let encode = ms_per_calm(&|s| s.stats.compress_ns);
    let decode = ms_per_calm(&|s| s.stats.decode_ns);
    let park = ms_per_calm(&|s| s.stats.wait_ns);
    let payload = per_calm(&|s| s.stats.bytes_sent as u64);
    let c = rank0.counters;
    v.set("compress.encode_ms_per_step", encode);
    v.set("compress.decode_ms_per_step", decode);
    v.set(
        "compress.calls_per_step",
        per_calm(&|s| s.stats.compress_calls as u64),
    );
    v.set(
        "compress.pool_reuse_ratio",
        c.pool_reuses as f64 / (c.pool_reuses + c.pool_allocations).max(1) as f64,
    );
    v.set("compress.wire_ratio", inv.elements() as f64 * 4.0 / payload);
    v.set(
        "collectives.engine.submit_ms_per_step",
        ms_per_calm(&|s| s.submit_ns),
    );
    v.set(
        "collectives.engine.wait_ms_per_step",
        ms_per_calm(&|s| s.total_ns - s.submit_ns),
    );
    v.set("collectives.engine.park_ms_per_step", park);
    v.set(
        "collectives.engine.self_ms_per_step",
        step - encode - decode - park,
    );
    v.set(
        "collectives.engine.max_in_flight",
        rank0
            .steps
            .iter()
            .map(|s| s.stats.max_in_flight)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set(
        "collectives.engine.collectives_per_step",
        per_step(c.collectives),
    );
    v.set("collectives.transport.msgs_per_step", per_step(c.msgs));
    v.set("collectives.transport.payload_bytes_per_step", payload);
    if fabric != Fabric::Shm {
        v.set("net.tcp.syscalls_per_step", per_step(c.syscalls));
        v.set("net.tcp.writev_frames_per_step", per_step(c.writev_frames));
        // Under serve the transport is inside the daemon's pump, and its
        // `WireStats` clocks with it: only the registry's counts get out.
        if fabric == Fabric::Tcp {
            v.set("net.tcp.serialize_ms_per_step", ms_per_step(c.serialize_ns));
            v.set("net.tcp.syscall_ms_per_step", ms_per_step(c.syscall_ns));
            v.set("net.tcp.park_ms_per_step", ms_per_step(c.park_ns));
        }
        v.set(
            "net.tcp.frame_overhead_bytes_per_step",
            per_step(c.wire_bytes) - payload,
        );
        v.set(
            "net.rendezvous.mesh_build_ms",
            main.setup.mesh_build.as_secs_f64() * 1e3,
        );
    }
    let calm_p50 = |i: &InstanceRun| median(&i.calm_step_ms(level));
    let untraced = mean(&[calm_p50(&before), calm_p50(&after)]);
    if fabric == Fabric::Serve {
        v.set(
            "serve.daemon.attach_us",
            main.setup.attach.as_secs_f64() * 1e6,
        );
        v.set("serve.daemon.job_bytes_per_step", per_step(c.job_bytes));
        // The same inventory on the bare mesh: what the daemon adds.
        let bare = run_instance(
            inv,
            &grads,
            Plan {
                fabric: Fabric::Tcp,
                ..plan
            },
            seed,
        );
        problems.extend(
            bare.errors()
                .into_iter()
                .map(|e| format!("bare tcp side run: {e}")),
        );
        if bare.step_ms().len() == half {
            v.set(
                "serve.daemon.overhead_ms_per_step",
                untraced - calm_p50(&bare),
            );
        }
    }
    v.set(
        "obs.trace_overhead_pct",
        (calm_p50(&main) / untraced - 1.0) * 100.0,
    );
    v.set("obs.events_dropped", rank0.events_dropped as f64);
    v.set(
        "process.step_ms_p95",
        quantile(
            &[before.calm_step_ms(level), after.calm_step_ms(level)].concat(),
            0.95,
        ),
    );
    v.set("process.cpu_ms_per_step", ms_per_step(rank0.clock.cpu_ns));
    v.set(
        "process.ctx_switches_per_step",
        per_step(rank0.clock.ctx_switches),
    );

    let spans = main.spans();
    let engine: Vec<_> = main
        .ranks
        .iter()
        .enumerate()
        .map(|(r, run)| (r, run.engine_events.clone()))
        .collect();
    problems.extend(write_out(
        &format!("trace_{}.json", w.name),
        &chrome_trace(w.name, &spans).compact(),
    ));
    problems.extend(write_out(
        &format!("trace_{}.engine.json", w.name),
        &chrome_trace_json(&engine),
    ));

    let mut detail = inventory_detail(w, inv, half, &main);
    detail.push((
        "budget_ms_per_step".into(),
        obj([
            ("step", step.into()),
            ("encode", encode.into()),
            ("decode", decode.into()),
            ("park", park.into()),
            ("self", (step - encode - decode - park).into()),
        ]),
    ));
    detail.push(("untraced_step_ms_p50".into(), untraced.into()));
    detail.push(("traced_step_ms_p50".into(), calm_p50(&main).into()));
    detail.push(level_row);
    detail.push((
        "calm_share".into(),
        calm::share(&main.around(level).1).into(),
    ));
    let failed = (failed + problems.len()).min(attempted);
    let (metrics, not_applicable) = v.into_metrics();
    Outcome {
        metrics,
        not_applicable,
        attempted,
        failed,
        problems,
        detail: Json::Obj(detail),
        ..Outcome::default()
    }
}

/// What every training run must satisfy; returns the failed checks.
fn train_checks(run: &TrainRun, workers: usize) -> Vec<String> {
    let mut problems = run.errors.clone();
    let outs: Vec<_> = run.outputs.iter().flatten().collect();
    if outs.len() != workers {
        problems.push(format!("{} of {workers} ranks finished", outs.len()));
        return problems;
    }
    if outs.iter().any(|o| o.losses.iter().any(|l| !l.is_finite())) {
        problems.push("a loss is not finite".into());
    }
    if outs.iter().any(|o| o.final_world != workers) {
        problems.push("a rank finished in a shrunken world".into());
    }
    let params: Vec<u64> = outs.iter().map(|o| param_digest(&o.model)).collect();
    if params.windows(2).any(|d| d[0] != d[1]) {
        problems.push(format!(
            "ranks disagree on the final parameters: {params:x?}"
        ));
    }
    let plans: Vec<Option<u64>> = outs
        .iter()
        .map(|o| o.adaptive.as_ref().map(|a| a.digest()))
        .collect();
    if plans.windows(2).any(|d| d[0] != d[1]) {
        problems.push(format!("ranks disagree on the committed plans: {plans:x?}"));
    }
    problems
}

fn train_ops(run: &TrainRun, plan: TrainPlan, problems: &[String]) -> (usize, usize) {
    let attempted = plan.warmup + plan.timed + 1;
    let done = run
        .outputs
        .iter()
        .map(|o| o.as_ref().map_or(0, |o| o.losses.len()))
        .min()
        .unwrap_or(0);
    (
        attempted,
        (attempted - done.min(attempted) + problems.len()).min(attempted),
    )
}

fn train_detail(run: &TrainRun, plan: TrainPlan, task: &Task) -> Vec<(String, Json)> {
    let out0 = run.outputs.first().and_then(Option::as_ref);
    vec![
        ("warmup_steps".into(), plan.warmup.into()),
        ("timed_steps".into(), plan.timed.into()),
        ("entropy_rate".into(), task.entropy_rate.into()),
        (
            "final_param_digest".into(),
            out0.map_or(Json::Null, |o| {
                format!("{:016x}", param_digest(&o.model)).into()
            }),
        ),
        (
            "plan_digest".into(),
            out0.and_then(|o| o.adaptive.as_ref())
                .map_or(Json::Null, |a| format!("{:016x}", a.digest()).into()),
        ),
    ]
}

fn train_end_to_end(w: &Workload, seed: u64, timed: usize) -> Outcome {
    let task = Task::new(seed);
    let model = initial_model(seed);
    let plan = TrainPlan {
        workers: 2,
        warmup: w.warmup_steps,
        timed: 0,
        adaptive: true,
        traced: false,
    };
    let mut problems = Vec::new();
    let mut reps = Vec::new();
    let mut set_up_only = |reps: &mut Vec<TrainRun>| {
        for _ in 0..SETUP_REPS_EACH_SIDE {
            let rep = run_training(&task, &model, plan, seed);
            let named = |e| format!("set-up repeat: {e}");
            problems.extend(train_checks(&rep, 2).into_iter().map(named));
            reps.push(rep);
        }
    };
    set_up_only(&mut reps);
    let plan = TrainPlan { timed, ..plan };
    let main = run_training(&task, &model, plan, seed);
    set_up_only(&mut reps);
    problems.extend(train_checks(&main, 2));
    let (attempted, failed) = train_ops(&main, plan, &problems);
    let mut out = Outcome::default();
    let mut detail = train_detail(&main, plan, &task);
    if let (true, Some(out0)) = (problems.is_empty(), main.outputs[0].as_ref()) {
        let runs = || reps.iter().chain([&main]);
        let (level, row) = burst_level(runs().flat_map(TrainRun::all_bursts));
        let tail = &out0.losses[out0.losses.len().saturating_sub(QUALITY_STEPS)..];
        let host;
        (out, host) = EndToEnd {
            setups: runs().map(|r| r.setup(level)).collect(),
            step_ms: &main.step_ms(),
            around: &main.around(level).1,
            wire_bytes_per_step: out0.bytes as f64 / out0.losses.len() as f64,
            quality_err: mean(tail) - task.entropy_rate,
        }
        .into_outcome();
        detail.push(row);
        detail.extend(host);
    }
    Outcome {
        attempted,
        failed,
        problems,
        detail: Json::Obj(detail),
        ..out
    }
}

fn train_per_layer(w: &Workload, seed: u64, timed: usize) -> Outcome {
    let task = Task::new(seed);
    let model = initial_model(seed);
    let mut v = Values::default();
    for (name, value) in probes::run(seed) {
        v.set(name, value);
    }

    // Five runs of equal length: a run's step time follows the plans the
    // controller commits, so only runs of one length compare.
    let fifth = (timed / 5).max(WINDOWS);
    let side = TrainPlan {
        workers: 2,
        warmup: w.warmup_steps,
        timed: fifth,
        adaptive: true,
        traced: false,
    };
    let plan = TrainPlan {
        traced: true,
        ..side
    };
    let before = run_training(&task, &model, side, seed);
    let main = run_training(&task, &model, plan, seed);
    let after = run_training(&task, &model, side, seed);
    let fixed = run_training(
        &task,
        &model,
        TrainPlan {
            adaptive: false,
            ..side
        },
        seed,
    );
    let single = run_training(&task, &model, TrainPlan { workers: 1, ..side }, seed);

    let mut problems = train_checks(&main, 2);
    for (name, run, workers) in [
        ("untraced neighbour", &before, 2),
        ("untraced neighbour", &after, 2),
        ("static-compression side run", &fixed, 2),
        ("single-worker side run", &single, 1),
    ] {
        problems.extend(
            train_checks(run, workers)
                .into_iter()
                .map(|e| format!("{name}: {e}")),
        );
    }
    let (attempted, failed) = train_ops(&main, plan, &problems);
    let Some(out0) = main.outputs[0].as_ref().filter(|_| problems.is_empty()) else {
        return Outcome {
            attempted,
            failed,
            problems,
            ..Outcome::default()
        };
    };

    let runs = [&before, &main, &after, &fixed, &single];
    let (level, level_row) = burst_level(runs.into_iter().flat_map(TrainRun::all_bursts));
    let calm_p50 = |r: &TrainRun| median(&r.calm_step_ms(level));
    let steps = out0.losses.len() as f64;
    let reg = |name: &str| main.metrics.get(name).unwrap_or(0) as f64;
    let ms_per_step = |total_ns: f64| total_ns / steps / 1e6;
    let step = mean(&main.calm_step_ms(level));
    let compute = compute_ms(&task, &model, seed, level);
    let encode = ms_per_step(reg("engine.compress_ns"));
    let decode = ms_per_step(reg("engine.decode_ns"));
    let park = ms_per_step(reg("engine.wait_ns"));
    let payload = out0.bytes as f64 / steps;
    let elements: usize = model.params().iter().map(|p| p.len()).sum();
    v.set("compress.encode_ms_per_step", encode);
    v.set("compress.decode_ms_per_step", decode);
    v.set("compress.calls_per_step", out0.kernel_calls as f64 / steps);
    v.set("compress.wire_ratio", elements as f64 * 4.0 / payload);
    v.set("collectives.engine.park_ms_per_step", park);
    v.set(
        "collectives.engine.max_in_flight",
        reg("engine.max_in_flight"),
    );
    v.set(
        "collectives.engine.collectives_per_step",
        reg("engine.collectives_submitted") / steps,
    );
    v.set(
        "collectives.transport.msgs_per_step",
        reg(cgx_obs::names::TRANSPORT_MSGS_SENT) / steps,
    );
    v.set("collectives.transport.payload_bytes_per_step", payload);

    let untraced = mean(&[calm_p50(&before), calm_p50(&after)]);
    let single_ms = calm_p50(&single);
    if let Some(trace) = &out0.adaptive {
        v.set("adaptive.controller.replans", trace.replans() as f64);
        let bits: Vec<f64> = trace
            .records
            .iter()
            .map(|r| r.nominal_bits_per_element)
            .collect();
        v.set(
            "adaptive.controller.mean_bits",
            if bits.is_empty() { 0.0 } else { mean(&bits) },
        );
    }
    v.set(
        "adaptive.controller.overhead_ms_per_step",
        untraced - calm_p50(&fixed),
    );
    v.set("engine.nn.compute_ms_per_step", compute);
    v.set("engine.trainer.sync_ms_per_step", untraced - compute);
    v.set("engine.trainer.single_worker_step_ms", single_ms);
    // Samples per second of two workers over twice one worker's.
    v.set("engine.trainer.scaling_eff", single_ms / untraced);
    v.set(
        "obs.trace_overhead_pct",
        (calm_p50(&main) / untraced - 1.0) * 100.0,
    );
    v.set(
        "process.step_ms_p95",
        quantile(
            &[before.calm_step_ms(level), after.calm_step_ms(level)].concat(),
            0.95,
        ),
    );
    v.set(
        "process.cpu_ms_per_step",
        main.clock.cpu_ns as f64 / plan.timed as f64 / 1e6,
    );
    v.set(
        "process.ctx_switches_per_step",
        main.clock.ctx_switches as f64 / plan.timed as f64,
    );

    let starts = main.step_starts_ns();
    let mut spans = vec![Span::new("setup", 0, 0, starts[plan.warmup], None, "")];
    spans.extend(
        starts
            .windows(2)
            .enumerate()
            .map(|(i, s)| Span::new("step", 0, s[0], s[1] - s[0], Some(i as u64), "")),
    );
    problems.extend(write_out(
        &format!("trace_{}.json", w.name),
        &chrome_trace(w.name, &spans).compact(),
    ));

    let mut detail = train_detail(&main, plan, &task);
    detail.push((
        "budget_ms_per_step".into(),
        obj([
            ("step", step.into()),
            ("compute", compute.into()),
            ("encode", encode.into()),
            ("decode", decode.into()),
            ("park", park.into()),
        ]),
    ));
    detail.push(("untraced_step_ms_p50".into(), untraced.into()));
    detail.push(level_row);
    detail.push((
        "calm_share".into(),
        calm::share(&main.around(level).1).into(),
    ));
    let failed = (failed + problems.len()).min(attempted);
    let (metrics, not_applicable) = v.into_metrics();
    Outcome {
        metrics,
        not_applicable,
        attempted,
        failed,
        problems,
        detail: Json::Obj(detail),
        ..Outcome::default()
    }
}

/// Median wall time of one calm `loss_and_grads` call on a batch, in ms.
fn compute_ms(task: &Task, model: &cgx_engine::EmbeddingLm, seed: u64, level: f64) -> f64 {
    let mut g = SplitMix64::stream(seed, 0xC0_4B);
    let mut probe = calm::Probe::default();
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let (ctx, tgt) = task.sample_batch(&mut g);
            probe.burst();
            let start = std::time::Instant::now();
            std::hint::black_box(model.loss_and_grads(&ctx, &tgt));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    probe.burst();
    let around = calm::around(&[&probe.bursts], level);
    let calm = calm::select(&around, WINDOWS);
    let scaled = |i: usize| times[i] * around[i].scale;
    median(&calm.into_iter().map(scaled).collect::<Vec<_>>())
}
