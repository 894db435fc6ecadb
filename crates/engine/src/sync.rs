//! The one synchronization path both trainers reduce through.
//!
//! [`train_rank`](crate::train_rank) and
//! [`local_sgd_rank`](crate::local_sgd_rank) differ in what a step
//! computes and in what it synchronizes (mean gradients every step, mean
//! parameter deltas every few). Everything else a rank does to keep its
//! replica in consensus is [`RankSync`]: the per-layer compressors and
//! their RNG stream, the live controller and its plan epoch, the
//! membership, the byte and kernel counters and the rank's event ring,
//! behind one [`reduce_mean`](RankSync::reduce_mean), one
//! [`recover`](RankSync::recover), one [`observe`](RankSync::observe) and
//! one [`finish`](RankSync::finish).

use crate::nn::ParamSpec;
use crate::trainer::{RankOutput, TrainConfig, TrainableModel};
use cgx_adaptive::{AdaptiveController, AdaptiveTrainConfig, ControlledLayer};
use cgx_collectives::hierarchy::{fan_down, gather_up, receive_down};
use cgx_collectives::membership::agree;
use cgx_collectives::reduce::{Algorithm, AllreduceStats};
use cgx_collectives::transport::exchange_quiesce_markers;
use cgx_collectives::{
    lane_epoch, CommEngine, CommError, EngineOptions, Membership, MembershipView, Transport,
};
use cgx_compress::{CompressionScheme, Compressor, ScratchPool};
use cgx_obs::ObsHandle;
use cgx_tensor::{Rng, Tensor};
use std::time::Instant;

/// One compressor per layer. The engine owns each for the duration of its
/// collective and hands it back at wait.
type Compressors = Vec<Box<dyn Compressor>>;

fn build_compressors(schemes: &[CompressionScheme]) -> Compressors {
    schemes.iter().map(CompressionScheme::build).collect()
}

/// Rejects configurations no rank could run, before any collective
/// starts: every rank sees the same `cfg`, so every rank returns the same
/// typed error instead of one of them panicking mid-run.
fn validate(cfg: &TrainConfig, n_params: usize, world: usize) -> Result<(), CommError> {
    let topo_world = cfg.topology.as_ref().map(|topo| topo.world());
    let detail = if let Err(e) = cfg.compression.validate(n_params) {
        e.to_string()
    } else if cfg.accumulation == 0 {
        "accumulation must be at least 1".into()
    } else if let Some(described) = topo_world.filter(|&w| w != world) {
        format!("topology describes {described} ranks but the fabric has {world}")
    } else if cfg.elastic && topo_world.is_some() {
        "hierarchical reduction has no membership path; disable elastic or topology".into()
    } else if cfg.elastic && cfg.algorithm != Algorithm::ScatterReduceAllgather {
        "elastic recovery needs the engine's epoch-scoped lanes, which only SRA runs on".into()
    } else {
        return Ok(());
    };
    Err(CommError::InvalidConfig { detail })
}

/// Builds the live controller for a model: the plan-epoch-0 schemes are
/// whatever the static policy resolves per layer (`base`), and a layer is
/// under adaptive control iff that policy compresses it at all (filtered
/// norm and bias layers stay lossless forever). Exposure decays with
/// forward position — early layers (embeddings) finish their backward
/// pass last, so their transfers sit exposed on the critical path.
fn build_controller(
    acfg: &AdaptiveTrainConfig,
    base: &[CompressionScheme],
    specs: &[ParamSpec],
    params: &[Tensor],
) -> AdaptiveController {
    let total = specs.len().max(1);
    let layers: Vec<ControlledLayer> = specs
        .iter()
        .zip(params)
        .enumerate()
        .map(|(i, (spec, p))| ControlledLayer {
            name: spec.name.clone(),
            elements: p.len(),
            compressible: base[i] != CompressionScheme::None,
            exposure: 1.0 - i as f64 / total as f64,
        })
        .collect();
    AdaptiveController::new(acfg.clone(), layers, base.to_vec())
}

/// Exports one committed re-plan into the run's metrics registry
/// (`adaptive.*` namespace). Counters count once per rank; the gauges are
/// last-write-wins over values identical on every rank (except the
/// advisory bandwidth, which is per-rank by nature).
fn publish_replan(obs: &ObsHandle, up: &cgx_adaptive::PlanUpdate) {
    if !obs.enabled() {
        return;
    }
    let reg = obs.registry();
    reg.counter(cgx_obs::names::ADAPTIVE_REPLANS).inc();
    reg.gauge(cgx_obs::names::ADAPTIVE_PLAN_EPOCH)
        .set(up.plan_epoch);
    reg.gauge(cgx_obs::names::ADAPTIVE_MILLIBITS_PER_ELEMENT)
        .set((up.record.nominal_bits_per_element * 1000.0) as u64);
    reg.gauge(cgx_obs::names::ADAPTIVE_SIZE_RATIO_PERMILLE)
        .set((up.record.size_ratio_vs_static4 * 1000.0) as u64);
    if let Some(bw) = up.record.measured_bandwidth_bps {
        reg.gauge(cgx_obs::names::ADAPTIVE_BANDWIDTH_BPS)
            .set(bw as u64);
    }
}

/// One engine round over `view`: every tensor moved into the engine up
/// front, redeemed in submit order, put back as its sum over the view's
/// world times `scale` — in the buffer it came in, the engine reduces in
/// place — and shown to `redeemed` (a leader's fan-out under a topology;
/// it returns the bytes it sent) while the later layers are still in
/// flight. The engine overlaps all in-flight reductions and coalesces
/// small lossless layers. On error every handle is still drained (later
/// waits fail fast on the poison) so nothing stays in flight; `tensors`
/// then holds only the layers that completed, and the rest, like the
/// compressors the poisoned engine kept, are gone: both callers discard
/// the round.
#[allow(clippy::too_many_arguments)]
fn engine_mean(
    view: &MembershipView<'_>,
    pool: &ScratchPool,
    opts: EngineOptions,
    obs: &ObsHandle,
    algorithm: Algorithm,
    scale: f32,
    tensors: &mut Vec<Tensor>,
    compressors: &mut Compressors,
    rng: &mut Rng,
    traffic: &mut AllreduceStats,
    mut redeemed: impl FnMut(&Tensor) -> Result<usize, CommError>,
) -> Result<(), CommError> {
    let mut eng = CommEngine::new(view, pool.clone(), opts).with_obs(obs.clone());
    let handles: Vec<_> = tensors
        .drain(..)
        .zip(compressors.drain(..))
        .map(|(t, comp)| eng.submit_owned(algorithm, t, comp, rng))
        .collect();
    let mut first_err = None;
    for h in handles {
        let sent = eng.wait(h).and_then(|(mut mean, stats, lent)| {
            compressors.push(lent);
            mean.scale(scale);
            traffic.merge(&stats);
            let sent = redeemed(&mean);
            tensors.push(mean);
            sent
        });
        match sent {
            Ok(sent) => traffic.bytes_sent += sent,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// A rank's synchronization state for one training run.
pub(crate) struct RankSync<'a> {
    t: &'a dyn Transport,
    cfg: &'a TrainConfig,
    pool: &'a ScratchPool,
    /// The static policy's scheme per layer: plan epoch 0.
    base: Vec<CompressionScheme>,
    compressors: Compressors,
    comp_rng: Rng,
    controller: Option<AdaptiveController>,
    plan_epoch: u64,
    membership: Membership,
    recoveries: usize,
    /// What this rank's counted rounds put on the wire.
    traffic: AllreduceStats,
    /// Byte counter and clock at the last bandwidth observation.
    bw_mark: (usize, Instant),
    /// Shared registry, this rank's own (single-writer) event ring; it
    /// spans the run, the per-round engines share it by clone.
    obs: ObsHandle,
}

impl<'a> RankSync<'a> {
    /// Checks `cfg` against `model` and the fabric, then builds the
    /// compressors and, when configured, the live controller — whose
    /// plan-epoch-0 schemes are the static policy's, so its warmup rounds
    /// are byte-identical to a non-adaptive run.
    pub(crate) fn new<M: TrainableModel>(
        t: &'a dyn Transport,
        model: &M,
        cfg: &'a TrainConfig,
        pool: &'a ScratchPool,
    ) -> Result<Self, CommError> {
        let specs = model.param_specs();
        validate(cfg, specs.len(), t.world())?;
        let base = cfg.compression.schemes(&specs);
        let controller = cfg
            .adaptive
            .as_ref()
            .map(|acfg| build_controller(acfg, &base, &specs, model.params()));
        Ok(RankSync {
            t,
            cfg,
            pool,
            compressors: build_compressors(&base),
            base,
            comp_rng: Rng::seed_from_u64(cfg.seed ^ (0xC0FFEE + t.rank() as u64 * 104_729)),
            controller,
            plan_epoch: 0,
            membership: Membership::full(t.world()),
            recoveries: 0,
            traffic: AllreduceStats::default(),
            bw_mark: (0, Instant::now()),
            obs: cfg.obs.fork_rank(cgx_obs::DEFAULT_RING_CAPACITY),
        })
    }

    /// Engine options for the current epochs: the lane tag carries the
    /// membership epoch, so frames abandoned by a failed attempt cannot
    /// alias with the shrunken world's, and the plan epoch (0 on static
    /// runs, where the stamp is the historical membership-only one), so a
    /// rank on a diverged plan fails fast with a tag mismatch instead of
    /// silently reducing differently-encoded payloads.
    fn engine_opts(&self) -> EngineOptions {
        EngineOptions {
            epoch: lane_epoch(self.membership.epoch() as u64, self.plan_epoch),
        }
    }

    /// Replaces every tensor by its mean over the live membership, layer
    /// `i` through compressor `i`: one engine round, all layers in flight
    /// at once. Under a [`TrainConfig::topology`] the round is the node
    /// leaders' and two raw intra-node hops stage it — members ship every
    /// layer up and take every mean back down, leaders sum their node
    /// first and fan each mean out as the engine redeems it. A flat world
    /// is the case with no hops and everyone in the exchange.
    ///
    /// # Errors
    ///
    /// The first failure of a hop or a collective; `tensors` is then partly
    /// reduced and, on a rank in the exchange, short of the layers that did
    /// not complete.
    pub(crate) fn reduce_mean(&mut self, tensors: &mut Vec<Tensor>) -> Result<(), CommError> {
        let (t, topo) = (self.t, self.cfg.topology.as_ref());
        let mut leaders = None;
        if let Some(topo) = topo {
            self.traffic.bytes_sent += gather_up(t, topo, tensors)?;
            if !topo.is_leader(t.rank()) {
                return receive_down(t, topo, tensors);
            }
            leaders = Some(Membership::of_ranks(t.world(), &topo.leaders()));
        }
        engine_mean(
            &MembershipView::new(t, leaders.as_ref().unwrap_or(&self.membership)),
            self.pool,
            self.engine_opts(),
            &self.obs,
            topo.map_or(self.cfg.algorithm, |_| Algorithm::ScatterReduceAllgather),
            1.0 / self.membership.num_alive() as f32,
            tensors,
            &mut self.compressors,
            &mut self.comp_rng,
            &mut self.traffic,
            |mean| topo.map_or(Ok(0), |topo| fan_down(t, topo, mean)),
        )
    }

    /// Shrink and continue after a failed [`reduce_mean`](Self::reduce_mean):
    /// condemn the physical rank behind the failed virtual peer, agree on
    /// the next membership epoch, rebuild the compressors the poisoned
    /// engine kept — from the live plan when adaptive, so recovery does not
    /// revert committed re-plans (the controller survives untouched; its
    /// next re-plan check sees the new membership epoch and forces one) —
    /// and bring `params` to the survivors' mean. That re-sync is one more
    /// engine round, so its traffic lives on the new epoch's lanes where
    /// frames abandoned by the failed attempt cannot alias with it;
    /// lossless, off the compression stream and uncounted, so survivors
    /// leave byte-identical and later rounds quantize as if nothing
    /// happened. It runs on a copy: `params` changes only once every
    /// layer's mean is in. Returns the agreed resume step.
    ///
    /// # Errors
    ///
    /// `err` itself unless the run is elastic and `err` names a peer;
    /// otherwise whatever fails the re-sync.
    pub(crate) fn recover(
        &mut self,
        err: CommError,
        step: usize,
        params: &mut [Tensor],
    ) -> Result<usize, CommError> {
        let Some(vpeer) = err.peer().filter(|_| self.cfg.elastic) else {
            return Err(err);
        };
        let dead = MembershipView::new(self.t, &self.membership).physical(vpeer);
        let (next, resume) = agree(
            self.t,
            &self.membership,
            &[dead],
            step as u64,
            self.t.timeout(),
        );
        self.membership = next;
        self.recoveries += 1;
        self.compressors = build_compressors(match &self.controller {
            Some(ctl) => ctl.current_schemes(),
            None => &self.base,
        });
        let mut synced = params.to_vec();
        engine_mean(
            &MembershipView::new(self.t, &self.membership),
            self.pool,
            self.engine_opts(),
            &self.obs,
            Algorithm::ScatterReduceAllgather,
            1.0 / self.membership.num_alive() as f32,
            &mut synced,
            &mut build_compressors(&vec![CompressionScheme::None; params.len()]),
            &mut Rng::seed_from_u64(self.membership.epoch() as u64),
            &mut AllreduceStats::default(),
            |_| Ok(0),
        )?;
        for (p, mean) in params.iter_mut().zip(synced) {
            *p = mean;
        }
        Ok(resume as usize)
    }

    /// Feeds the live controller one round's synchronized means and, when
    /// another round follows (`next_round`, its 1-based index), lets it
    /// re-plan: changed layers get new compressors and the plan epoch
    /// moves. `synced` is byte-identical on every rank, so this
    /// observation — and any re-plan it triggers, and the skip of a round
    /// whose norms are not all finite — takes every rank's controller
    /// through identical states with no control traffic. The
    /// bandwidth (this rank's byte counter over its own wall clock) is
    /// advisory and never feeds back into plan bits. A no-op on static
    /// runs.
    pub(crate) fn observe(&mut self, synced: &[Tensor], next_round: Option<usize>) {
        let Some(ctl) = self.controller.as_mut() else {
            return;
        };
        // `norm2` accumulates in `f64` in an order fixed in portable
        // code: the same value wherever the tensor is.
        let norms: Vec<f64> = synced.iter().map(Tensor::norm2).collect();
        if !ctl.observe_norms(&norms) && self.obs.enabled() {
            let reg = self.obs.registry();
            reg.counter(cgx_obs::names::ADAPTIVE_ROUNDS_SKIPPED).inc();
        }
        let now = Instant::now();
        ctl.observe_bandwidth(
            (self.traffic.bytes_sent - self.bw_mark.0) as u64,
            now.duration_since(self.bw_mark.1),
        );
        self.bw_mark = (self.traffic.bytes_sent, now);
        let Some(round) = next_round else {
            return;
        };
        if let Some(up) = ctl.maybe_replan(round, self.membership.epoch() as u64) {
            for (i, &changed) in up.changed.iter().enumerate() {
                if changed {
                    self.compressors[i] = up.schemes[i].build();
                }
            }
            self.plan_epoch = up.plan_epoch;
            publish_replan(&self.obs, &up);
        }
    }

    /// Teardown barrier with every survivor — nobody drops its endpoint
    /// while a peer's final frames, or a retransmission it owes, are still
    /// on their way — then the rank's result.
    pub(crate) fn finish<M>(self, model: M, losses: Vec<f64>) -> RankOutput<M> {
        exchange_quiesce_markers(self.t, &self.membership.physical_ranks());
        RankOutput {
            model,
            losses,
            bytes: self.traffic.bytes_sent,
            kernel_calls: self.traffic.compress_calls,
            recovery_epochs: self.recoveries,
            final_world: self.membership.num_alive(),
            adaptive: self.controller.map(AdaptiveController::into_trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::RankSync;
    use crate::data::GaussianMixture;
    use crate::nn::Mlp;
    use crate::trainer::{train_rank, LayerCompression, TrainConfig};
    use cgx_collectives::{ShmFabric, ThreadCluster, Topology};
    use cgx_compress::ScratchPool;
    use cgx_tensor::Rng;
    use std::time::Duration;

    /// Under a topology the leaders' exchange is an engine round like the
    /// flat world's: the four layers of the MLP are in flight together and
    /// its two lossless bias layers travel as one coalesced collective —
    /// three two-leader SRAs of two compress calls each, where one
    /// collective per layer makes eight. Members run no collective at all.
    #[test]
    fn a_leaders_round_under_a_topology_overlaps_and_coalesces() {
        let model = Mlp::new(&mut Rng::seed_from_u64(33), &[8, 16, 4]);
        let topo = Topology::grouped(2, 2);
        let cfg = TrainConfig {
            compression: LayerCompression::cgx_default(),
            topology: Some(topo.clone()),
            ..TrainConfig::new(4, 1)
        };
        let pool = ScratchPool::new();
        let traffic = ThreadCluster::run(4, |t| {
            let mut sync = RankSync::new(&t, &model, &cfg, &pool).expect("valid config");
            let mut grads = model.params().to_vec();
            sync.reduce_mean(&mut grads).expect("fault-free round");
            sync.traffic
        })
        .unwrap();
        for (rank, stats) in traffic.iter().enumerate() {
            if topo.is_leader(rank) {
                assert!(stats.max_in_flight > 1, "leader {rank} ran layer by layer");
                assert_eq!(stats.compress_calls, 3 * 2, "leader {rank}");
            } else {
                assert_eq!((stats.max_in_flight, stats.compress_calls), (0, 0));
            }
        }
    }

    /// The second loss of a run is reported through a shrunken view: the
    /// fabric says physical rank 3 disconnected, which the view over
    /// `[0, 2, 3]` must hand to `recover` as virtual rank 2 — read as a
    /// physical rank there is no such member (and in a larger world it
    /// would be a live one). A rank leaves by its own scheduled kill, which
    /// the trainer reads from its config on this bare fabric: it returns,
    /// and its endpoint drops.
    #[test]
    fn two_ranks_leave_at_different_steps_and_the_survivors_agree() {
        let task = GaussianMixture::new(4, 8, 1.5);
        let model = Mlp::new(&mut Rng::seed_from_u64(33), &[8, 16, 4]);
        let cfg = TrainConfig {
            lr: 0.2,
            elastic: true,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 12)
        };
        let kills = [None, Some(3), None, Some(6)];
        let pool = ScratchPool::new();
        let outputs: Vec<_> = std::thread::scope(|s| {
            let ranks: Vec<_> = ShmFabric::build(4)
                .into_iter()
                .zip(kills)
                .enumerate()
                .map(|(rank, (mut t, kill))| {
                    t.set_timeout(Duration::from_secs(5));
                    let (task, model, pool) = (&task, &model, &pool);
                    let cfg = TrainConfig {
                        kill: kill.map(|at| (rank, at)),
                        ..cfg.clone()
                    };
                    s.spawn(move || {
                        train_rank(
                            &t,
                            model,
                            &|r: &mut Rng| task.sample_batch(r, 16),
                            &cfg,
                            pool,
                        )
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|h| h.join().expect("no rank panics"))
                .map(|out| out.expect("no rank fails"))
                .collect()
        });
        assert!(
            outputs[1].is_none() && outputs[3].is_none(),
            "a rank outlived its kill"
        );
        let survivors = [&outputs[0], &outputs[2]].map(|out| out.as_ref().expect("survivor"));
        for out in survivors {
            assert_eq!(out.final_world, 2);
            assert_eq!(out.recovery_epochs, 2);
            assert_eq!(out.losses.len(), cfg.steps);
        }
        for (a, b) in survivors[0]
            .model
            .params()
            .iter()
            .zip(survivors[1].model.params())
        {
            assert_eq!(a.as_slice(), b.as_slice(), "survivors diverged");
        }
    }
}
