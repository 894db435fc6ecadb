//! Cross-fabric determinism of the live adaptive controller: the plan a
//! rank commits is a pure function of rank-replicated state (the
//! post-allreduce mean-gradient norms), never of the fabric it trains
//! over — so a real-socket TCP run must produce byte-identical
//! parameters *and* the identical plan sequence to the thread-backed
//! shared-memory reference, even though the two fabrics measure wildly
//! different bandwidths (bandwidth is advisory, priced but never
//! planned on).

use cgx_engine::AdaptiveTrainConfig;
use cgx_net::workload::{RunOptions, Workload};
use cgx_net::TcpFabric;

/// A short adaptive run that still commits several re-plans: warmup 4,
/// interval 8 over 40 steps.
fn adaptive_cfg() -> AdaptiveTrainConfig {
    AdaptiveTrainConfig::default()
}

/// The shared-memory reference of `work` under controller `acfg`: rank
/// 0's `(params, plan digest)`, every rank having agreed on both.
fn reference(work: &Workload, acfg: &AdaptiveTrainConfig) -> (Vec<u8>, u64) {
    let run = work
        .run_reference_shm(None, &adaptive(acfg))
        .expect("shm adaptive reference");
    (
        run.params.expect("no fault plan, every rank survives"),
        run.plan_digest.expect("controller was enabled"),
    )
}

fn adaptive(acfg: &AdaptiveTrainConfig) -> RunOptions {
    RunOptions {
        adaptive: Some(acfg.clone()),
        ..RunOptions::default()
    }
}

#[test]
fn tcp_adaptive_run_matches_the_shm_reference_plans_and_bytes() {
    let world = 4;
    let work = Workload::standard(world);
    let acfg = adaptive_cfg();
    let (ref_params, ref_digest) = reference(&work, &acfg);

    let endpoints = TcpFabric::build_local(world);
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let opts = adaptive(&acfg);
            std::thread::spawn(move || {
                work.run_rank(&ep, None, &opts, None)
                    .expect("tcp adaptive rank")
            })
        })
        .collect();
    let runs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();

    for (rank, run) in runs.iter().enumerate() {
        let params = run.params.as_ref().expect("rank survived");
        assert_eq!(
            *params, ref_params,
            "rank {rank} TCP params diverged from the shm reference"
        );
        assert_eq!(
            run.plan_digest,
            Some(ref_digest),
            "rank {rank} TCP plan sequence diverged from the shm reference"
        );
    }
}

#[test]
fn adaptive_run_actually_replans_and_differs_from_static() {
    // Guard against the controller silently doing nothing: the adaptive
    // run's parameters must differ from the static 4-bit run of the
    // same workload once a re-plan changes a quantizer mid-run.
    let world = 2;
    let work = Workload::standard(world);
    let static_params = work
        .run_reference_shm(None, &RunOptions::default())
        .expect("static reference")
        .params
        .expect("every rank survives");
    // An interval longer than the run never re-plans: the controller's
    // base plan and wire stamping are byte-compatible with the static
    // path, so the trained parameters must match it exactly.
    let idle = AdaptiveTrainConfig {
        replan_interval: 10_000,
        ..AdaptiveTrainConfig::default()
    };
    let (idle_params, idle_digest) = reference(&work, &idle);
    assert_eq!(
        idle_params, static_params,
        "an idle controller must not perturb training"
    );
    // The default interval re-plans mid-run: a committed plan swaps at
    // least one quantizer, so the trajectory (and trace) must change.
    let (adaptive_params, digest) = reference(&work, &adaptive_cfg());
    assert_ne!(digest, idle_digest, "no plan was ever committed");
    assert_ne!(
        adaptive_params, static_params,
        "controller committed no plan that changed training"
    );
}
