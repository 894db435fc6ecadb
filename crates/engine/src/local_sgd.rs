//! Hybrid synchronization: local SGD with periodic model averaging.
//!
//! The paper's conclusion names "extending our results to hybrid
//! synchronization setups, e.g. Zhou et al.; Li et al." as future work.
//! This module implements the canonical member of that family — local SGD:
//! each worker takes `sync_period` optimizer steps on its own shard, then
//! the replicas all-reduce their *parameters* (not per-step gradients) and
//! continue from the average. Synchronization traffic drops by roughly the
//! sync period; compression composes on top of the parameter deltas.
//!
//! Only that schedule lives here: the steps are the data-parallel
//! trainer's (micro-batch averaging, clipping, optimizer) and the rounds
//! go through the same `RankSync` — engine or hierarchy, elastic
//! recovery, live controller — as its gradients do.

use crate::sync::RankSync;
use crate::trainer::{
    killed, run_threads, RankOutput, Replica, TrainConfig, TrainReport, TrainableModel,
};
use cgx_collectives::{CommError, Transport};
use cgx_compress::ScratchPool;
use cgx_tensor::{Rng, Tensor};

/// Runs one rank's share of a local-SGD run over an already-connected
/// endpoint: the transport-agnostic core of [`train_local_sgd`], equally
/// at home on a `ShmTransport` thread, a `cgx-net` TCP endpoint in its
/// own OS process, or a `cgx-serve` tenant handle multiplexed onto a
/// shared fabric. Every rank in the world must call this with identical
/// `model`, `cfg` and sampler semantics; determinism comes from the
/// rank-derived RNG streams, so runs over different fabrics with the same
/// seed produce byte-identical replicas.
///
/// With [`TrainConfig::adaptive`] set, the controller observes the norms
/// of each round's mean deltas (rank-replicated, like the trainer's mean
/// gradients) and counts rounds, not steps.
///
/// Returns `Ok(None)` when [`TrainConfig::kill`] kills this rank mid-run,
/// with `t` still open.
///
/// # Errors
///
/// As [`train_rank`](crate::train_rank).
///
/// # Panics
///
/// Panics if `sync_period` is zero.
pub fn local_sgd_rank<M, S>(
    t: &dyn Transport,
    model: &M,
    sampler: &S,
    cfg: &TrainConfig,
    sync_period: usize,
    pool: &ScratchPool,
) -> Result<Option<RankOutput<M>>, CommError>
where
    M: TrainableModel,
    S: Fn(&mut Rng) -> M::Batch,
{
    assert!(sync_period > 0, "sync period must be at least 1");
    let mut sync = RankSync::new(t, model, cfg, pool)?;
    let mut replica = Replica::new(model, cfg, t.rank());
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut sync_rounds = 0usize;
    // Parameters at the last synchronization point (identical across
    // replicas by construction).
    let mut anchor: Vec<Tensor> = replica.model.params().to_vec();
    for step in 1..=cfg.steps {
        if killed(cfg, t.rank(), step) {
            // Fail-stop injection: this rank dies here; survivors
            // notice at their next sync round and shrink around it.
            return Ok(None);
        }
        let (loss, mut grads) = replica.grads(sampler);
        losses.push(loss);
        replica.apply(&mut grads);
        if step % sync_period != 0 && step != cfg.steps {
            continue;
        }
        sync_rounds += 1;
        // Compressed model averaging: all-reduce the deltas from the
        // shared anchor, then rebuild params = anchor + mean.
        let params = replica.model.params_mut();
        let mut deltas: Vec<Tensor> = params.to_vec();
        for (d, a) in deltas.iter_mut().zip(&anchor) {
            d.sub_assign(a);
        }
        match sync.reduce_mean(&mut deltas) {
            Ok(()) => {
                for ((p, a), d) in params.iter_mut().zip(&anchor).zip(&deltas) {
                    *p = a.clone();
                    p.add_assign(d);
                }
                sync.observe(&deltas, (step < cfg.steps).then_some(sync_rounds));
            }
            // The recovery re-sync *is* a model-averaging round over the
            // survivors (lossless mean of raw parameters), so the
            // interrupted round is complete once it lands.
            Err(e) => {
                sync.recover(e, step, params)?;
            }
        }
        anchor = params.to_vec();
    }
    Ok(Some(sync.finish(replica.model, losses)))
}

/// Trains `model` with local SGD over a thread-per-rank shared-memory
/// fabric, averaging parameters every `sync_period` steps: the harness of
/// [`train_data_parallel`](crate::train_data_parallel) over
/// [`local_sgd_rank`].
///
/// # Errors
///
/// As [`train_rank`](crate::train_rank).
///
/// # Panics
///
/// Panics if `sync_period`, `cfg.workers` or `cfg.steps` is zero.
pub fn train_local_sgd<M, S>(
    model: &M,
    sampler: S,
    cfg: &TrainConfig,
    sync_period: usize,
) -> Result<(M, TrainReport), CommError>
where
    M: TrainableModel + Sync,
    S: Fn(&mut Rng) -> M::Batch + Send + Sync,
{
    assert!(sync_period > 0, "sync period must be at least 1");
    run_threads(cfg, |t, pool| {
        local_sgd_rank(t, model, &sampler, cfg, sync_period, pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::GaussianMixture;
    use crate::nn::Mlp;
    use crate::optimizer::SgdMomentum;
    use crate::trainer::LayerCompression;
    use cgx_collectives::ThreadCluster;
    use cgx_compress::{CompressionScheme, ScratchPool};

    fn setup() -> (GaussianMixture, Mlp) {
        let task = GaussianMixture::new(5, 10, 1.3);
        let mut rng = Rng::seed_from_u64(5);
        let model = Mlp::new(&mut rng, &[10, 24, 5]);
        (task, model)
    }

    fn eval(model: &Mlp, task: &GaussianMixture) -> f64 {
        let mut rng = Rng::seed_from_u64(999);
        let (x, y) = task.sample_batch(&mut rng, 1024);
        model.accuracy(&x, &y)
    }

    #[test]
    fn local_sgd_recovers_accuracy_at_moderate_periods() {
        let (task, model) = setup();
        let cfg = TrainConfig {
            lr: 0.2,
            compression: LayerCompression::none(),
            ..TrainConfig::new(4, 240)
        };
        let t = task.clone();
        let (trained, _) =
            train_local_sgd(&model, move |r| t.sample_batch(r, 16), &cfg, 8).unwrap();
        assert!(eval(&trained, &task) > 0.85);
    }

    #[test]
    fn longer_periods_cut_traffic_proportionally() {
        let (task, model) = setup();
        let run = |period: usize| {
            let cfg = TrainConfig {
                lr: 0.2,
                compression: LayerCompression::none(),
                ..TrainConfig::new(2, 64)
            };
            let t = task.clone();
            train_local_sgd(&model, move |r| t.sample_batch(r, 8), &cfg, period)
                .unwrap()
                .1
        };
        let every = run(1);
        let sparse = run(8);
        let ratio = every.bytes_sent_per_worker as f64 / sparse.bytes_sent_per_worker as f64;
        assert!((6.0..10.0).contains(&ratio), "traffic ratio {ratio}");
    }

    #[test]
    fn replicas_agree_after_final_sync() {
        let (task, model) = setup();
        let cfg = TrainConfig {
            lr: 0.1,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(3, 21)
        };
        let specs = model.param_specs();
        let pool = ScratchPool::new();
        let replicas = ThreadCluster::try_run(3, |t| {
            let pool = pool.clone();
            let mut local = model.clone();
            let mut data_rng = Rng::seed_from_u64(cfg.seed ^ (0xD00D + t.rank() as u64 * 7919));
            let mut comp_rng =
                Rng::seed_from_u64(cfg.seed ^ (0xC0FFEE + t.rank() as u64 * 104_729));
            let mut comps: Vec<_> = cfg
                .compression
                .schemes(&specs)
                .iter()
                .map(CompressionScheme::build)
                .collect();
            let mut opt = SgdMomentum::new(cfg.lr, cfg.momentum, 0.0);
            let mut anchor: Vec<Tensor> = local.params().to_vec();
            for step in 1..=cfg.steps {
                let (x, y) = task.sample_batch(&mut data_rng, 8);
                let (_, grads) = local.loss_and_grads(&x, &y);
                opt.step(local.params_mut(), &grads);
                if step % 7 == 0 || step == cfg.steps {
                    for (i, p) in local.params_mut().iter_mut().enumerate() {
                        let mut delta = p.clone();
                        delta.sub_assign(&anchor[i]);
                        let (mut mean, _) = cgx_collectives::reduce::allreduce_scratch(
                            cfg.algorithm,
                            &t,
                            &delta,
                            comps[i].as_mut(),
                            &mut comp_rng,
                            &pool,
                        )?;
                        mean.scale(1.0 / t.world() as f32);
                        *p = anchor[i].clone();
                        p.add_assign(&mean);
                    }
                    anchor = local.params().to_vec();
                }
            }
            Ok::<_, CommError>(local)
        })
        .unwrap();
        for r in &replicas[1..] {
            for (a, b) in r.params().iter().zip(replicas[0].params()) {
                assert_eq!(a.as_slice(), b.as_slice(), "replicas diverged at sync");
            }
        }
    }

    #[test]
    fn compressed_deltas_still_learn() {
        let (task, model) = setup();
        let cfg = TrainConfig {
            lr: 0.2,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 240)
        };
        let t = task.clone();
        let (trained, _) =
            train_local_sgd(&model, move |r| t.sample_batch(r, 16), &cfg, 8).unwrap();
        assert!(eval(&trained, &task) > 0.85);
    }

    #[test]
    fn killed_rank_recovers_at_next_sync_round() {
        // Fail-stop a rank between sync rounds: survivors only notice at
        // the next model-averaging barrier, shrink, and keep learning.
        let (task, model) = setup();
        let cfg = TrainConfig {
            lr: 0.2,
            kill: Some((3, 50)),
            elastic: true,
            comm_timeout: Some(std::time::Duration::from_millis(300)),
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 160)
        };
        let t = task.clone();
        let (trained, report) =
            train_local_sgd(&model, move |r| t.sample_batch(r, 16), &cfg, 8).unwrap();
        assert_eq!(report.final_world, 3, "world did not shrink to survivors");
        assert_eq!(report.recovery_epochs, 1);
        assert_eq!(report.losses.len(), cfg.steps);
        assert!(
            eval(&trained, &task) > 0.8,
            "survivors stopped learning after recovery"
        );
    }

    #[test]
    fn adaptive_local_sgd_replans_on_sync_rounds_and_stays_on_budget() {
        // The controller observes mean parameter *deltas* here (its
        // interval counts sync rounds, not steps): 240 steps at period 8
        // gives 30 rounds, so the default interval of 8 commits several
        // re-plans. The run must still learn and every plan must respect
        // its error budget.
        let (task, model) = setup();
        let cfg = TrainConfig {
            lr: 0.2,
            compression: LayerCompression::cgx_default(),
            adaptive: Some(cgx_adaptive::AdaptiveTrainConfig::default()),
            ..TrainConfig::new(4, 240)
        };
        let t = task.clone();
        let (trained, report) =
            train_local_sgd(&model, move |r| t.sample_batch(r, 16), &cfg, 8).unwrap();
        let trace = report.adaptive.as_ref().expect("adaptive trace present");
        assert!(
            trace.replans() >= 2,
            "only {} re-plans over 30 sync rounds",
            trace.replans()
        );
        for rec in &trace.records {
            let max_bits = 8;
            assert!(
                rec.estimated_error <= rec.budget * (1.0 + 1e-9)
                    || rec.bits.iter().all(|&b| b == max_bits),
                "plan epoch {} exceeds budget",
                rec.plan_epoch
            );
        }
        assert!(eval(&trained, &task) > 0.85);
    }

    /// Runs every rank of a local-SGD run and returns all replicas.
    fn all_ranks(model: &Mlp, task: &GaussianMixture, cfg: &TrainConfig) -> Vec<RankOutput<Mlp>> {
        let pool = ScratchPool::new();
        ThreadCluster::try_run(cfg.workers, |t| {
            let sampler = |r: &mut Rng| task.sample_batch(r, 8);
            local_sgd_rank(&t, model, &sampler, cfg, 7, &pool)
        })
        .unwrap()
        .into_iter()
        .map(|out| out.expect("rank survived"))
        .collect()
    }

    #[test]
    fn topology_is_honoured_not_ignored() {
        // The rounds go through the hierarchy: members send raw deltas to
        // their leader and nothing else, so they transmit less than it
        // does, the sum associates differently than the flat collective's,
        // and the replicas still agree to the bit.
        let (task, model) = setup();
        let flat = TrainConfig {
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 21)
        };
        let hier = TrainConfig {
            topology: Some(cgx_collectives::Topology::grouped(2, 2)),
            ..flat.clone()
        };
        let (flat, hier) = (
            all_ranks(&model, &task, &flat),
            all_ranks(&model, &task, &hier),
        );
        for out in &hier[1..] {
            for (a, b) in out.model.params().iter().zip(hier[0].model.params()) {
                assert_eq!(a.as_slice(), b.as_slice(), "hierarchical replicas diverged");
            }
        }
        assert!(
            hier[1].bytes < hier[0].bytes,
            "member out-transmitted its leader"
        );
        assert_ne!(
            hier[0].model.params()[0].as_slice(),
            flat[0].model.params()[0].as_slice(),
            "the topology changed nothing"
        );
    }

    #[test]
    fn accumulation_is_honoured_not_ignored() {
        // Every local step averages `accumulation` micro-batches: the
        // sampler is drawn that many times per step and per worker.
        let (task, model) = setup();
        let draws = std::sync::atomic::AtomicUsize::new(0);
        let cfg = TrainConfig {
            accumulation: 3,
            ..TrainConfig::new(2, 14)
        };
        let sampler = |r: &mut Rng| {
            draws.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            task.sample_batch(r, 8)
        };
        train_local_sgd(&model, sampler, &cfg, 7).unwrap();
        assert_eq!(draws.into_inner(), 2 * 14 * 3);
    }

    #[test]
    fn clip_is_honoured_not_ignored() {
        // Plain SGD with every local gradient clipped to norm `c` moves
        // the parameters at most `steps * lr * c` from where they began
        // (the mean over workers of such walks is no longer).
        let (task, model) = setup();
        let (steps, lr, clip) = (14, 0.5f32, 1e-3);
        let cfg = TrainConfig {
            lr,
            momentum: 0.0,
            clip: Some(clip),
            ..TrainConfig::new(2, steps)
        };
        let t = task.clone();
        let (trained, _) = train_local_sgd(&model, move |r| t.sample_batch(r, 8), &cfg, 7).unwrap();
        let moved: f64 = trained
            .params()
            .iter()
            .zip(model.params())
            .map(|(a, b)| a.l2_distance(b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(moved > 0.0, "nothing was learned");
        let bound = steps as f64 * lr as f64 * clip;
        assert!(
            moved <= bound * 1.001,
            "moved {moved}, clipping allows {bound}"
        );
    }

    #[test]
    #[should_panic(expected = "sync period must be at least 1")]
    fn zero_period_panics() {
        let (task, model) = setup();
        let cfg = TrainConfig::new(2, 4);
        let _ = train_local_sgd(&model, move |r| task.sample_batch(r, 4), &cfg, 0);
    }
}
