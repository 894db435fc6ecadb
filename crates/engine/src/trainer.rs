//! Data-parallel training with per-layer compressed Allreduce.
//!
//! The loop mirrors the CGX pipeline (paper Figure 2): each worker computes
//! gradients on its shard, every layer's gradient is all-reduced through a
//! compression-aware collective, small sensitive layers (norms, biases) are
//! filtered to full precision, gradient clipping — which needs the fully
//! synchronized gradient (Technical Issue 3) — runs after reduction, and
//! the optimizer applies the identical update on every replica.
//!
//! Because the collectives guarantee bit-exact consensus, replicas never
//! diverge; a test asserts this invariant.
//!
//! # Failure model
//!
//! The faults are the ones production fabrics have. Shared memory loses
//! nothing, and a TCP link heals a socket reset itself (the retained
//! suffix is resent on redial), so a transient fault never reaches the
//! trainer. What does is a fail-stop death: [`TrainConfig::kill`]
//! schedules one, on any fabric.
//!
//! With [`TrainConfig::elastic`] set, an unrecoverable peer loss
//! ([`CommError::PeerLost`] from the engine, or any peer-scoped transport
//! error) triggers shrink-and-continue recovery: survivors agree on a new
//! membership epoch, re-map ranks, re-synchronize parameters over the
//! shrunken world, rescale the averaging denominator, and retry the step.

use crate::nn::ParamSpec;
use crate::optimizer::{clip_global_norm, SgdMomentum};
use crate::sync::RankSync;
use cgx_adaptive::{AdaptivePlanTrace, AdaptiveTrainConfig};
use cgx_collectives::reduce::Algorithm;
use cgx_collectives::{CommError, ShmTransport, ThreadCluster, Topology, Transport};
use cgx_compress::{CompressionScheme, ScratchPool};
use cgx_obs::{MetricsSnapshot, ObsHandle};
use cgx_tensor::{Rng, Tensor};
use std::time::Duration;

/// A model trainable by [`train_data_parallel`].
pub trait TrainableModel: Clone + Send {
    /// One training batch.
    type Batch: Send;

    /// Parameter tensors in forward order.
    fn params(&self) -> &[Tensor];

    /// Mutable parameter tensors.
    fn params_mut(&mut self) -> &mut [Tensor];

    /// Names and kinds aligned with `params()`.
    fn param_specs(&self) -> Vec<ParamSpec>;

    /// Mean loss and per-parameter gradients for a batch.
    fn loss_and_grads(&self, batch: &Self::Batch) -> (f64, Vec<Tensor>);
}

impl TrainableModel for crate::nn::Mlp {
    type Batch = (Tensor, Vec<usize>);

    fn params(&self) -> &[Tensor] {
        crate::nn::Mlp::params(self)
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        crate::nn::Mlp::params_mut(self)
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        crate::nn::Mlp::param_specs(self)
    }

    fn loss_and_grads(&self, (x, y): &Self::Batch) -> (f64, Vec<Tensor>) {
        crate::nn::Mlp::loss_and_grads(self, x, y)
    }
}

impl TrainableModel for crate::nn::EmbeddingLm {
    type Batch = (Vec<usize>, Vec<usize>);

    fn params(&self) -> &[Tensor] {
        crate::nn::EmbeddingLm::params(self)
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        crate::nn::EmbeddingLm::params_mut(self)
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        crate::nn::EmbeddingLm::param_specs(self)
    }

    fn loss_and_grads(&self, (ctx, tgt): &Self::Batch) -> (f64, Vec<Tensor>) {
        crate::nn::EmbeddingLm::loss_and_grads(self, ctx, tgt)
    }
}

/// A per-layer compression list that does not cover the model: the list
/// holds `got` schemes but the model has `expected` parameters. Raised by
/// [`LayerCompression::validate`] when a [`TrainConfig`] is applied,
/// instead of schemes silently falling back to the default (too short) or
/// being ignored (too long) deep in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayerMismatch {
    /// The model's parameter count.
    pub expected: usize,
    /// The configured list's length.
    pub got: usize,
}

impl std::fmt::Display for PerLayerMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "per-layer compression list has {} schemes but the model has {} parameters",
            self.got, self.expected
        )
    }
}

impl std::error::Error for PerLayerMismatch {}

/// Per-layer compression policy: a default scheme, the CGX small-layer
/// filter, optional name-based overrides, and optional explicit per-layer
/// assignments (the adaptive algorithm's output).
#[derive(Debug, Clone)]
pub struct LayerCompression {
    default: CompressionScheme,
    filter_small_layers: bool,
    overrides: Vec<(String, CompressionScheme)>,
    per_layer: Option<Vec<CompressionScheme>>,
}

impl LayerCompression {
    /// Everything in FP32 — the uncompressed baseline.
    pub fn none() -> Self {
        Self::uniform(CompressionScheme::None)
    }

    /// One scheme for every layer, no filtering (the QNCCL behaviour).
    pub fn uniform(scheme: CompressionScheme) -> Self {
        LayerCompression {
            default: scheme,
            filter_small_layers: false,
            overrides: Vec::new(),
            per_layer: None,
        }
    }

    /// The CGX default: 4-bit QSGD (bucket 128) with norm/bias layers
    /// filtered to full precision.
    pub fn cgx_default() -> Self {
        Self::filtered(CompressionScheme::cgx_default())
    }

    /// A uniform scheme plus the small-layer filter.
    pub fn filtered(scheme: CompressionScheme) -> Self {
        LayerCompression {
            filter_small_layers: true,
            ..Self::uniform(scheme)
        }
    }

    /// Explicit per-layer assignment (indices aligned with the model's
    /// parameter order) — the output format of the adaptive policies.
    pub fn per_layer(schemes: Vec<CompressionScheme>) -> Self {
        LayerCompression {
            per_layer: Some(schemes),
            ..Self::none()
        }
    }

    /// Adds a name-substring override (the `exclude_layer` /
    /// per-layer-parameter API of Listing 1). Later overrides win.
    pub fn with_override(mut self, pattern: impl Into<String>, scheme: CompressionScheme) -> Self {
        self.overrides.push((pattern.into(), scheme));
        self
    }

    /// Resolves the scheme for parameter `index` with the given spec.
    pub fn scheme_for(&self, index: usize, spec: &ParamSpec) -> CompressionScheme {
        if let Some(per) = &self.per_layer {
            if let Some(s) = per.get(index) {
                return *s;
            }
        }
        for (pat, s) in self.overrides.iter().rev() {
            if spec.name.contains(pat.as_str()) {
                return *s;
            }
        }
        if self.filter_small_layers && spec.kind.is_filtered_by_default() {
            return CompressionScheme::None;
        }
        self.default
    }

    /// Checks this policy against a model with `n_params` parameters: an
    /// explicit per-layer list must cover every parameter exactly.
    /// Trainers run this when the config is applied, so a stale
    /// assignment (model edited after the adaptive plan was computed)
    /// fails fast with a typed error instead of compressing the wrong
    /// layers.
    ///
    /// # Errors
    ///
    /// [`PerLayerMismatch`] on a length disagreement.
    pub fn validate(&self, n_params: usize) -> Result<(), PerLayerMismatch> {
        match &self.per_layer {
            Some(list) if list.len() != n_params => Err(PerLayerMismatch {
                expected: n_params,
                got: list.len(),
            }),
            _ => Ok(()),
        }
    }

    /// Resolves one scheme per parameter.
    pub fn schemes(&self, specs: &[ParamSpec]) -> Vec<CompressionScheme> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| self.scheme_for(i, s))
            .collect()
    }
}

/// Data-parallel training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of worker threads ("GPUs").
    pub workers: usize,
    /// Optimization steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Global-norm gradient clipping threshold, if any. Applied to the
    /// gradient the optimizer is about to consume: the synchronized mean
    /// under [`train_rank`], the local one under
    /// [`local_sgd_rank`](crate::local_sgd_rank).
    pub clip: Option<f64>,
    /// Reduction algorithm of the round's engine exchange in the flat (no
    /// [`TrainConfig::topology`]) world; SRA runs as the engine's
    /// pipelined machine, Ring, Tree and Allgather as their sequential
    /// reference, eagerly at submit.
    pub algorithm: Algorithm,
    /// Per-layer compression policy.
    pub compression: LayerCompression,
    /// Base RNG seed (worker streams are derived from it).
    pub seed: u64,
    /// Gradient-accumulation micro-steps per optimization step (paper
    /// Section 2.2, batch scaling): local gradients of `accumulation`
    /// batches are averaged before the single update. 1 = off.
    pub accumulation: usize,
    /// `(rank, step)`: that rank dies (fail-stop) at the top of that step.
    /// Read by [`train_rank`] and [`local_sgd_rank`](crate::local_sgd_rank)
    /// themselves, on any fabric: the scheduled rank returns `Ok(None)`
    /// with its endpoint still open, and dropping it is what the survivors
    /// observe.
    pub kill: Option<(usize, usize)>,
    /// Shrink-and-continue recovery: when `true`, an unrecoverable peer
    /// loss triggers membership agreement and training continues on the
    /// surviving world instead of failing. Recovery relies on the engine's
    /// epoch-scoped message lanes, which only SRA runs on, so it requires
    /// the SRA `algorithm` and no `topology`.
    pub elastic: bool,
    /// Override for the transport receive timeout — the budget after
    /// which a silent peer is declared lost. `None` keeps the fabric
    /// default; kill tests set it low so recovery is prompt.
    pub comm_timeout: Option<Duration>,
    /// Node layout for hierarchical reduction. When set, the round's one
    /// engine exchange runs between the node leaders only (always SRA,
    /// ignoring `algorithm`), staged by two raw intra-node hops: members
    /// ship every layer to their leader and take every mean back, and
    /// never compress. Must describe exactly the fabric's world;
    /// incompatible with `elastic` (the hops have no membership path).
    /// `None` (the default) is the flat world: no hops, every rank in the
    /// exchange — as is a topology of one rank per node, to the byte.
    pub topology: Option<Topology>,
    /// Observability: when enabled, every worker's transport and engine
    /// publish counters into the handle's shared registry (snapshotted
    /// into [`TrainReport::metrics`]) and each worker records span events
    /// into its own forked ring. Disabled (the default) costs one branch
    /// per instrumented site and changes no delivered byte either way.
    pub obs: ObsHandle,
    /// Live adaptive compression: when set, every rank runs an
    /// `AdaptiveController` that accumulates the per-layer norms of the
    /// synchronized means and every `replan_interval` sync rounds
    /// re-solves the paper's bit-assignment problem, swapping the new
    /// per-layer schemes into the running engine without stopping it.
    /// Because the observed statistics are rank-replicated, all ranks
    /// commit identical plans at identical rounds and training stays
    /// byte-identical across ranks and fabrics. The starting (plan-epoch
    /// 0) schemes come from [`TrainConfig::compression`]; layers that
    /// policy leaves uncompressed stay uncompressed forever. `None` (the
    /// default) keeps the static policy for the whole run.
    pub adaptive: Option<AdaptiveTrainConfig>,
}

impl TrainConfig {
    /// A reasonable default configuration for the synthetic tasks.
    pub fn new(workers: usize, steps: usize) -> Self {
        TrainConfig {
            workers,
            steps,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            clip: None,
            algorithm: Algorithm::ScatterReduceAllgather,
            compression: LayerCompression::none(),
            seed: 1234,
            accumulation: 1,
            kill: None,
            elastic: false,
            comm_timeout: None,
            topology: None,
            obs: ObsHandle::disabled(),
            adaptive: None,
        }
    }
}

/// Per-rank result of a run ([`train_rank`] or
/// [`local_sgd_rank`](crate::local_sgd_rank) returning `Ok(None)` means
/// the rank was killed by [`TrainConfig::kill`]; survivors carry their
/// replica).
#[derive(Debug, Clone)]
pub struct RankOutput<M> {
    /// The trained replica (bit-identical across survivors).
    pub model: M,
    /// Training loss per step on this rank's shard.
    pub losses: Vec<f64>,
    /// Wire bytes this rank transmitted over the whole run.
    pub bytes: usize,
    /// Compression-kernel invocations on this rank.
    pub kernel_calls: usize,
    /// Shrink-and-continue recoveries this rank went through.
    pub recovery_epochs: usize,
    /// World size this rank finished with.
    pub final_world: usize,
    /// The live controller's re-plan history ([`TrainConfig::adaptive`]);
    /// `None` on static-compression runs. Byte-identical across ranks —
    /// the cross-fabric parity tests compare its digest.
    pub adaptive: Option<AdaptivePlanTrace>,
}

/// Result of a training run: the authoritative survivor's [`RankOutput`]
/// (less the model) plus the run's metrics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Rank-0 training loss per step.
    pub losses: Vec<f64>,
    /// Wire bytes transmitted per worker over the whole run.
    pub bytes_sent_per_worker: usize,
    /// Shrink-and-continue recoveries the reporting worker went through.
    pub recovery_epochs: usize,
    /// World size at the end of the run — smaller than `cfg.workers` if
    /// elastic recovery shrank the fleet.
    pub final_world: usize,
    /// Snapshot of the run's metrics registry ([`TrainConfig::obs`]):
    /// engine, transport and pool counters aggregated across all
    /// workers. Empty when observability is disabled.
    pub metrics: MetricsSnapshot,
    /// The live controller's re-plan history ([`TrainConfig::adaptive`]);
    /// `None` on static-compression runs. Under local SGD the controller
    /// observes the mean *parameter deltas* of each sync round, and
    /// `replan_interval`/`warmup` count sync rounds rather than steps.
    pub adaptive: Option<AdaptivePlanTrace>,
}

/// What a rank computes between synchronizations: its replica, its data
/// stream and its optimizer.
pub(crate) struct Replica<M> {
    pub(crate) model: M,
    data_rng: Rng,
    opt: SgdMomentum,
    accumulation: usize,
    clip: Option<f64>,
}

impl<M: TrainableModel> Replica<M> {
    pub(crate) fn new(model: &M, cfg: &TrainConfig, rank: usize) -> Self {
        Replica {
            model: model.clone(),
            data_rng: Rng::seed_from_u64(cfg.seed ^ (0xD00D + rank as u64 * 7919)),
            opt: SgdMomentum::new(cfg.lr, cfg.momentum, cfg.weight_decay),
            accumulation: cfg.accumulation,
            clip: cfg.clip,
        }
    }

    /// Mean loss and gradients over `accumulation` freshly drawn
    /// micro-batches.
    pub(crate) fn grads<S>(&mut self, sampler: &S) -> (f64, Vec<Tensor>)
    where
        S: Fn(&mut Rng) -> M::Batch,
    {
        let (mut loss, mut grads) = self.model.loss_and_grads(&sampler(&mut self.data_rng));
        for _ in 1..self.accumulation {
            let (l, g) = self.model.loss_and_grads(&sampler(&mut self.data_rng));
            loss += l;
            for (a, b) in grads.iter_mut().zip(&g) {
                a.add_assign(b);
            }
        }
        if self.accumulation > 1 {
            let inv = 1.0 / self.accumulation as f32;
            loss /= self.accumulation as f64;
            for g in grads.iter_mut() {
                g.scale(inv);
            }
        }
        (loss, grads)
    }

    /// Clips `grads` to the configured global norm — which under
    /// data-parallel training needs the fully synchronized gradient
    /// (Technical Issue 3), so callers reduce first — and takes the
    /// optimizer step.
    pub(crate) fn apply(&mut self, grads: &mut [Tensor]) {
        if let Some(max_norm) = self.clip {
            clip_global_norm(grads, max_norm);
        }
        self.opt.step(self.model.params_mut(), grads);
    }
}

/// Runs one rank's share of a data-parallel training run over an
/// already-connected endpoint: the transport-agnostic core of
/// [`train_data_parallel`], equally at home on a [`ShmTransport`] thread
/// or a `cgx-net` TCP endpoint in its own OS process. Every rank in the
/// world must call this with identical `model`, `cfg`, and sampler
/// semantics; determinism comes from the rank-derived RNG streams, so a
/// thread-backed run and a process-backed run with the same seed produce
/// byte-identical replicas.
///
/// Returns `Ok(None)` when [`TrainConfig::kill`] kills this rank mid-run,
/// with `t` still open: dropping it is what the survivors observe.
///
/// # Errors
///
/// [`CommError::InvalidConfig`] before any collective starts when `cfg`
/// disagrees with the model or the fabric (per-layer list length,
/// topology world, elastic without epoch-scoped lanes); otherwise
/// propagates collective-communication failures (after exhausting elastic
/// recovery, when enabled).
pub fn train_rank<M, S>(
    t: &dyn Transport,
    model: &M,
    sampler: &S,
    cfg: &TrainConfig,
    pool: &ScratchPool,
) -> Result<Option<RankOutput<M>>, CommError>
where
    M: TrainableModel,
    S: Fn(&mut Rng) -> M::Batch,
{
    let mut sync = RankSync::new(t, model, cfg, pool)?;
    let mut replica = Replica::new(model, cfg, t.rank());
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut step = 0usize;
    while step < cfg.steps {
        if killed(cfg, t.rank(), step) {
            // Fail-stop injection: this rank dies here. Dropping the
            // endpoint closes its channels, so survivors observe a
            // `Disconnected` and (if elastic) shrink around it.
            return Ok(None);
        }
        let (loss, mut grads) = replica.grads(sampler);
        if let Err(e) = sync.reduce_mean(&mut grads) {
            // Retry the step (with a fresh batch) on the shrunken world.
            let resume = sync.recover(e, step, replica.model.params_mut())?;
            step = step.max(resume);
            continue;
        }
        // Observed *before* clipping so the controller's statistics match
        // what the wire actually carried.
        sync.observe(&grads, (step + 1 < cfg.steps).then_some(step + 1));
        losses.push(loss);
        replica.apply(&mut grads);
        step += 1;
    }
    Ok(Some(sync.finish(replica.model, losses)))
}

/// Whether [`TrainConfig::kill`] kills `rank` at the top of `step`.
pub(crate) fn killed(cfg: &TrainConfig, rank: usize, step: usize) -> bool {
    cfg.kill == Some((rank, step))
}

/// The thread harness of both trainers: runs `rank` on `cfg.workers`
/// threads, each on its own [`ShmTransport`] endpoint (with the run's
/// timeout override and observability handle), and reports the
/// authoritative survivor — the one that finished with the largest world
/// (a rank the others condemned while it lived finishes with a smaller
/// one), lowest rank on ties.
pub(crate) fn run_threads<M, F>(cfg: &TrainConfig, rank: F) -> Result<(M, TrainReport), CommError>
where
    M: Send,
    F: Fn(&dyn Transport, &ScratchPool) -> Result<Option<RankOutput<M>>, CommError> + Sync,
{
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.steps > 0, "need at least one step");
    // One pool shared by all workers: encode buffers recycled by whichever
    // rank drops the last reference get reused fleet-wide.
    let pool = ScratchPool::new();
    let outputs = ThreadCluster::try_run(cfg.workers, |mut t: ShmTransport| {
        if let Some(d) = cfg.comm_timeout {
            t.set_timeout(d);
        }
        if cfg.obs.enabled() {
            t.set_obs(cfg.obs.registry());
        }
        rank(&t, &pool)
    })?;
    let out = outputs
        .into_iter()
        .flatten()
        .reduce(|best, cand| {
            if cand.final_world > best.final_world {
                cand
            } else {
                best
            }
        })
        .expect("at least one rank survived");
    if cfg.obs.enabled() {
        pool.publish(cfg.obs.registry());
    }
    Ok((
        out.model,
        TrainReport {
            losses: out.losses,
            bytes_sent_per_worker: out.bytes,
            recovery_epochs: out.recovery_epochs,
            final_world: out.final_world,
            metrics: cfg.obs.registry().snapshot(),
            adaptive: out.adaptive,
        },
    ))
}

/// Trains `model` data-parallel across `cfg.workers` threads; each worker
/// draws batches via `sampler` from its own RNG stream.
///
/// Returns the (consensus) trained model of rank 0 plus a [`TrainReport`].
/// With [`TrainConfig::elastic`] set, a killed rank does not fail the run:
/// survivors agree on a shrunken membership and finish without it, and the
/// returned model is the surviving consensus.
///
/// # Errors
///
/// As [`train_rank`].
///
/// # Panics
///
/// Panics if `cfg.workers` or `cfg.steps` is zero.
pub fn train_data_parallel<M, S>(
    model: &M,
    sampler: S,
    cfg: &TrainConfig,
) -> Result<(M, TrainReport), CommError>
where
    M: TrainableModel + Sync,
    S: Fn(&mut Rng) -> M::Batch + Send + Sync,
{
    run_threads(cfg, |t, pool| train_rank(t, model, &sampler, cfg, pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{GaussianMixture, MarkovChainLm};
    use crate::nn::{EmbeddingLm, Mlp};
    use cgx_models::LayerKind;

    fn mixture_eval(model: &Mlp, task: &GaussianMixture) -> f64 {
        let mut rng = Rng::seed_from_u64(99_999);
        let (x, y) = task.sample_batch(&mut rng, 1024);
        model.accuracy(&x, &y)
    }

    fn train_mixture(compression: LayerCompression, workers: usize) -> f64 {
        let task = GaussianMixture::new(6, 12, 1.2);
        let mut rng = Rng::seed_from_u64(5);
        let model = Mlp::new(&mut rng, &[12, 32, 6]);
        let mut cfg = TrainConfig::new(workers, 250);
        cfg.compression = compression;
        cfg.lr = 0.2;
        let t2 = task.clone();
        let (trained, _) =
            train_data_parallel(&model, move |r| t2.sample_batch(r, 16), &cfg).unwrap();
        mixture_eval(&trained, &task)
    }

    #[test]
    fn fp32_data_parallel_learns_the_task() {
        let acc = train_mixture(LayerCompression::none(), 4);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn quantized_training_recovers_accuracy() {
        // The Table 3 phenomenon at miniature scale: 4-bit QSGD with the
        // small-layer filter matches the FP32 baseline within 1%.
        let base = train_mixture(LayerCompression::none(), 4);
        let cgx = train_mixture(LayerCompression::cgx_default(), 4);
        assert!(cgx >= base - 0.01, "cgx accuracy {cgx} vs baseline {base}");
    }

    #[test]
    fn hierarchical_topology_trains_with_consensus_replicas() {
        // Node-aware path: 2 nodes x 2 ranks, compressed leader exchange.
        // The hierarchy associates the sum differently than the flat
        // collective, so accuracy (not bytes) is compared to baseline —
        // but replica consensus must still be exact, which
        // train_data_parallel's consensus_output asserts implicitly and
        // the direct train_rank runs below verify explicitly.
        let task = GaussianMixture::new(6, 12, 1.2);
        let mut rng = Rng::seed_from_u64(5);
        let model = Mlp::new(&mut rng, &[12, 32, 6]);
        let mut cfg = TrainConfig::new(4, 250);
        cfg.compression = LayerCompression::cgx_default();
        cfg.topology = Some(Topology::grouped(2, 2));
        cfg.lr = 0.2;
        let t2 = task.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| t2.sample_batch(r, 16), &cfg).unwrap();
        let acc = mixture_eval(&trained, &task);
        assert!(acc > 0.85, "hierarchical accuracy {acc}");
        assert!(report.bytes_sent_per_worker > 0);
        // All four replicas byte-identical, via the public train_rank entry.
        let pool = ScratchPool::new();
        let task3 = task.clone();
        let replicas = ThreadCluster::try_run(cfg.workers, |t| {
            let sampler = |r: &mut Rng| task3.sample_batch(r, 16);
            train_rank(&t, &model, &sampler, &cfg, &pool)
        })
        .unwrap();
        let reference = replicas[0].as_ref().expect("rank 0 survived");
        for out in replicas.iter().skip(1) {
            let out = out.as_ref().expect("rank survived");
            for (a, b) in out.model.params().iter().zip(reference.model.params()) {
                assert_eq!(a.as_slice(), b.as_slice(), "hierarchical replicas diverged");
            }
        }
        // Members send raw floats only; leaders carry the compressed
        // exchange on top — strictly more wire traffic.
        assert!(
            reference.bytes > replicas[1].as_ref().unwrap().bytes,
            "leader should out-transmit its member"
        );
    }

    #[test]
    fn obs_enabled_trainer_exports_metrics_without_changing_bytes() {
        // The trainer threads `TrainConfig::obs` through to the engine and
        // returns the registry snapshot; enabling it must not perturb
        // training (same seeds → byte-identical parameters).
        let task = GaussianMixture::new(4, 8, 1.5);
        let mut rng = Rng::seed_from_u64(17);
        let model = Mlp::new(&mut rng, &[8, 16, 4]);
        let run = |obs: ObsHandle| {
            let t2 = task.clone();
            let cfg = TrainConfig {
                compression: LayerCompression::cgx_default(),
                obs,
                ..TrainConfig::new(4, 20)
            };
            train_data_parallel(&model, move |r| t2.sample_batch(r, 8), &cfg).unwrap()
        };
        let (plain, plain_report) = run(ObsHandle::disabled());
        let (traced, report) = run(ObsHandle::new_enabled());
        for (a, b) in traced.params().iter().zip(plain.params()) {
            assert_eq!(a.as_slice(), b.as_slice(), "obs changed trained bytes");
        }
        // Disabled: nothing published. Enabled: engine, transport, and
        // pool families all present and non-trivial.
        assert!(plain_report
            .metrics
            .get("engine.collectives_submitted")
            .is_none());
        let submitted = report
            .metrics
            .get("engine.collectives_submitted")
            .expect("engine metrics published");
        assert!(submitted > 0, "no collectives counted");
        assert!(report.metrics.get("transport.msgs_sent").unwrap_or(0) > 0);
        assert!(report.metrics.get("pool.allocations").is_some());
    }

    #[test]
    fn replicas_never_diverge() {
        let task = GaussianMixture::new(4, 8, 1.5);
        let mut rng = Rng::seed_from_u64(6);
        let model = Mlp::new(&mut rng, &[8, 16, 4]);
        let specs = model.param_specs();
        let cfg = TrainConfig {
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 30)
        };
        // Re-run the loop manually to collect every replica.
        let pool = ScratchPool::new();
        let outputs = ThreadCluster::try_run(cfg.workers, |t| {
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
            let mut opt = SgdMomentum::new(cfg.lr, cfg.momentum, cfg.weight_decay);
            for _ in 0..cfg.steps {
                let batch = task.sample_batch(&mut data_rng, 8);
                let (_, mut grads) = local.loss_and_grads(&batch.0, &batch.1);
                for (i, g) in grads.iter_mut().enumerate() {
                    let (mut s, _) = cgx_collectives::reduce::allreduce_scratch(
                        cfg.algorithm,
                        &t,
                        g,
                        comps[i].as_mut(),
                        &mut comp_rng,
                        &pool,
                    )?;
                    s.scale(1.0 / t.world() as f32);
                    *g = s;
                }
                opt.step(local.params_mut(), &grads);
            }
            Ok::<_, CommError>(local)
        })
        .unwrap();
        for replica in &outputs[1..] {
            for (a, b) in replica.params().iter().zip(outputs[0].params()) {
                assert_eq!(a.as_slice(), b.as_slice(), "replicas diverged");
            }
        }
    }

    #[test]
    fn single_worker_equals_sequential_sgd() {
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(7);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        let cfg = TrainConfig::new(1, 40);
        let t2 = task.clone();
        let (par, _) = train_data_parallel(&model, move |r| t2.sample_batch(r, 8), &cfg).unwrap();
        // Sequential reference with the identical RNG stream.
        let mut seq = model.clone();
        let mut data_rng = Rng::seed_from_u64(cfg.seed ^ 0xD00D);
        let mut opt = SgdMomentum::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        for _ in 0..cfg.steps {
            let (x, y) = task.sample_batch(&mut data_rng, 8);
            let (_, grads) = seq.loss_and_grads(&x, &y);
            opt.step(seq.params_mut(), &grads);
        }
        for (a, b) in par.params().iter().zip(seq.params()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn compression_reduces_traffic() {
        let task = GaussianMixture::new(4, 16, 1.5);
        let mut rng = Rng::seed_from_u64(8);
        let model = Mlp::new(&mut rng, &[16, 64, 4]);
        let run = |compression: LayerCompression| {
            let cfg = TrainConfig {
                compression,
                ..TrainConfig::new(4, 5)
            };
            let t2 = task.clone();
            train_data_parallel(&model, move |r| t2.sample_batch(r, 8), &cfg)
                .unwrap()
                .1
                .bytes_sent_per_worker
        };
        let fp32 = run(LayerCompression::none());
        let q4 = run(LayerCompression::uniform(CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 64,
        }));
        assert!(
            (fp32 as f64) / (q4 as f64) > 5.0,
            "fp32 {fp32} vs 4-bit {q4}"
        );
    }

    #[test]
    fn layer_filter_keeps_biases_uncompressed() {
        let mut rng = Rng::seed_from_u64(9);
        let model = Mlp::new(&mut rng, &[4, 8, 2]);
        let lc = LayerCompression::cgx_default();
        for (i, spec) in model.param_specs().iter().enumerate() {
            let scheme = lc.scheme_for(i, spec);
            if spec.kind == LayerKind::Bias {
                assert_eq!(scheme, CompressionScheme::None, "{}", spec.name);
            } else {
                assert_eq!(scheme, CompressionScheme::cgx_default());
            }
        }
    }

    #[test]
    fn overrides_take_precedence() {
        let lc = LayerCompression::cgx_default().with_override(
            "word_emb",
            CompressionScheme::Qsgd {
                bits: 2,
                bucket_size: 1024,
            },
        );
        let spec = ParamSpec {
            name: "word_emb.weight".into(),
            kind: LayerKind::Embedding,
        };
        assert_eq!(
            lc.scheme_for(0, &spec),
            CompressionScheme::Qsgd {
                bits: 2,
                bucket_size: 1024
            }
        );
    }

    #[test]
    fn per_layer_assignment_wins_over_everything() {
        let lc = LayerCompression::per_layer(vec![
            CompressionScheme::None,
            CompressionScheme::Qsgd {
                bits: 8,
                bucket_size: 512,
            },
        ]);
        let spec = ParamSpec {
            name: "anything".into(),
            kind: LayerKind::Linear,
        };
        assert_eq!(lc.scheme_for(0, &spec), CompressionScheme::None);
        assert!(matches!(
            lc.scheme_for(1, &spec),
            CompressionScheme::Qsgd { bits: 8, .. }
        ));
    }

    #[test]
    fn accumulation_matches_equivalent_big_batch() {
        // With a lossless codec and one worker, accumulating 4 batches of 8
        // equals a single batch of 32 drawn from the same stream.
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(41);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        let accum_cfg = TrainConfig {
            accumulation: 4,
            ..TrainConfig::new(1, 30)
        };
        let t1 = task.clone();
        let (a, _) =
            train_data_parallel(&model, move |r| t1.sample_batch(r, 8), &accum_cfg).unwrap();
        // Reference: same RNG stream consumed in 4 draws of 8, concatenated.
        let big_cfg = TrainConfig::new(1, 30);
        let t2 = task.clone();
        let (b, _) = train_data_parallel(
            &model,
            move |r| {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for _ in 0..4 {
                    let (x, y) = t2.sample_batch(r, 8);
                    xs.extend_from_slice(x.as_slice());
                    ys.extend(y);
                }
                (cgx_tensor::Tensor::from_vec(&[32, 6], xs), ys)
            },
            &big_cfg,
        )
        .unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert!(
                pa.l2_distance(pb) < 1e-4,
                "accumulated and big-batch runs should coincide"
            );
        }
    }

    #[test]
    fn accumulation_reduces_traffic_per_sample() {
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(43);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        let run = |accumulation: usize, steps: usize| {
            let cfg = TrainConfig {
                accumulation,
                compression: LayerCompression::cgx_default(),
                ..TrainConfig::new(2, steps)
            };
            let t = task.clone();
            train_data_parallel(&model, move |r| t.sample_batch(r, 8), &cfg)
                .unwrap()
                .1
                .bytes_sent_per_worker
        };
        // Same number of samples: 20 steps x accum 1 vs 5 steps x accum 4.
        let no_accum = run(1, 20);
        let accum = run(4, 5);
        assert!(
            no_accum >= 4 * accum - 1,
            "accumulation syncs 4x less: {no_accum} vs {accum}"
        );
    }

    #[test]
    fn lm_trains_under_compression_with_clipping() {
        let chain = MarkovChainLm::new(40, 4.0, 11);
        let mut rng = Rng::seed_from_u64(10);
        let model = EmbeddingLm::new(&mut rng, 40, 12);
        let cfg = TrainConfig {
            lr: 0.5,
            clip: Some(5.0),
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 200)
        };
        let c2 = chain.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| c2.sample_batch(r, 32), &cfg).unwrap();
        let mut eval_rng = Rng::seed_from_u64(123);
        let (ctx, tgt) = chain.sample_batch(&mut eval_rng, 2000);
        let ppl = trained.perplexity(&ctx, &tgt);
        let floor = chain.entropy_rate().exp();
        assert!(
            ppl < 2.0 * floor,
            "perplexity {ppl} vs entropy floor {floor}"
        );
        assert!(report.losses.first().unwrap() > report.losses.last().unwrap());
    }

    #[test]
    fn killed_rank_shrinks_the_world_and_training_continues() {
        // Fail-stop a rank mid-run: survivors agree on a new membership
        // epoch, re-sync, and finish every remaining step on the
        // three-worker world with a finite, still-improving model.
        let task = GaussianMixture::new(4, 8, 1.5);
        let mut rng = Rng::seed_from_u64(33);
        let model = Mlp::new(&mut rng, &[8, 16, 4]);
        let cfg = TrainConfig {
            lr: 0.2,
            kill: Some((2, 40)),
            elastic: true,
            comm_timeout: Some(std::time::Duration::from_millis(300)),
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, 120)
        };
        let t = task.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        assert_eq!(report.final_world, 3, "world did not shrink to survivors");
        assert_eq!(report.recovery_epochs, 1);
        assert_eq!(report.losses.len(), cfg.steps);
        for p in trained.params() {
            assert!(p.as_slice().iter().all(|v| v.is_finite()));
        }
        let mut eval_rng = Rng::seed_from_u64(99_999);
        let (x, y) = task.sample_batch(&mut eval_rng, 1024);
        let acc = trained.accuracy(&x, &y);
        assert!(acc > 0.8, "survivors stopped learning: accuracy {acc}");
    }

    #[test]
    fn a_kill_in_the_config_fires_on_a_bare_fabric() {
        // A bare fabric under the ranks: `train_rank` reads the kill from
        // its config, so rank 1 returns at the top of step 5 — five batches
        // drawn — and the elastic survivors finish on the world without it.
        let task = GaussianMixture::new(4, 8, 1.5);
        let model = Mlp::new(&mut Rng::seed_from_u64(33), &[8, 16, 4]);
        let (victim, at) = (1, 5);
        let cfg = TrainConfig {
            kill: Some((victim, at)),
            elastic: true,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(3, 12)
        };
        let pool = ScratchPool::new();
        let runs = ThreadCluster::try_run(cfg.workers, |t: ShmTransport| {
            let drawn = std::cell::Cell::new(0);
            let sampler = |r: &mut Rng| {
                drawn.set(drawn.get() + 1);
                task.sample_batch(r, 16)
            };
            let out = train_rank(&t, &model, &sampler, &cfg, &pool)?;
            Ok::<_, CommError>((out, drawn.get()))
        })
        .unwrap();
        for (rank, (out, drawn)) in runs.iter().enumerate() {
            if rank == victim {
                assert!(out.is_none(), "rank {victim} outlived its kill");
                assert_eq!(*drawn, at, "rank {victim} died at the wrong step");
            } else {
                let out = out.as_ref().expect("a survivor was killed");
                assert_eq!(out.final_world, cfg.workers - 1, "rank {rank}");
                assert_eq!(out.recovery_epochs, 1, "rank {rank}");
                assert_eq!(out.losses.len(), cfg.steps, "rank {rank}");
            }
        }
    }

    #[test]
    fn adaptive_training_replans_and_replicas_stay_identical() {
        // The live controller's determinism contract on a real run: every
        // rank re-plans at least twice mid-training, all replicas remain
        // byte-identical, the plan traces agree digest-for-digest, and
        // every committed plan respects its α·E₄ error budget.
        let task = GaussianMixture::new(6, 12, 1.2);
        let mut rng = Rng::seed_from_u64(51);
        let model = Mlp::new(&mut rng, &[12, 32, 6]);
        let cfg = TrainConfig {
            lr: 0.2,
            compression: LayerCompression::cgx_default(),
            adaptive: Some(AdaptiveTrainConfig::default()),
            ..TrainConfig::new(4, 60)
        };
        let pool = ScratchPool::new();
        let t = task.clone();
        let outputs = ThreadCluster::try_run(cfg.workers, |ep| {
            let sampler = |r: &mut Rng| t.sample_batch(r, 16);
            train_rank(&ep, &model, &sampler, &cfg, &pool)
        })
        .unwrap();
        let reference = outputs[0].as_ref().expect("rank 0 survived");
        let trace = reference.adaptive.as_ref().expect("adaptive trace present");
        assert!(
            trace.replans() >= 2,
            "only {} re-plans in {} steps",
            trace.replans(),
            cfg.steps
        );
        let max_bits = *AdaptiveTrainConfig::default()
            .bit_choices
            .iter()
            .max()
            .unwrap();
        for rec in &trace.records {
            assert!(
                rec.estimated_error <= rec.budget * (1.0 + 1e-9)
                    || rec.bits.iter().all(|&b| b == max_bits),
                "plan epoch {} exceeds budget: {} > {}",
                rec.plan_epoch,
                rec.estimated_error,
                rec.budget
            );
        }
        for out in outputs.iter().skip(1) {
            let out = out.as_ref().expect("rank survived");
            for (a, b) in out.model.params().iter().zip(reference.model.params()) {
                assert_eq!(a.as_slice(), b.as_slice(), "adaptive replicas diverged");
            }
            let other = out.adaptive.as_ref().expect("adaptive trace present");
            assert_eq!(other.digest(), trace.digest(), "plan sequences diverged");
        }
    }

    #[test]
    fn a_diverged_adaptive_run_ends_like_its_static_twin() {
        // A learning rate that overflows the parameters within a few
        // steps: the synchronized gradients turn infinite, then NaN. The
        // static run carries on to its last step, and so must the
        // adaptive one — its controller sits those rounds out (counted,
        // in the trace and in the registry) instead of panicking the rank
        // from inside `observe`.
        let task = GaussianMixture::new(4, 16, 1.5);
        let model = Mlp::new(&mut Rng::seed_from_u64(57), &[16, 32, 4]);
        let run = |adaptive: Option<AdaptiveTrainConfig>| {
            let cfg = TrainConfig {
                lr: 1.0e30,
                compression: LayerCompression::cgx_default(),
                adaptive,
                obs: ObsHandle::new_enabled(),
                ..TrainConfig::new(2, 24)
            };
            let t = task.clone();
            train_data_parallel(&model, move |r| t.sample_batch(r, 8), &cfg)
                .expect("a diverged run is not a failed one")
                .1
        };
        let static_twin = run(None);
        let adaptive = run(Some(AdaptiveTrainConfig::default()));
        for report in [&static_twin, &adaptive] {
            assert_eq!(report.losses.len(), 24);
            assert!(!report.losses[23].is_finite(), "the run did not diverge");
        }
        let trace = adaptive.adaptive.as_ref().expect("adaptive trace present");
        assert!(trace.skipped_rounds > 0, "no round was skipped");
        assert_eq!(
            adaptive.metrics.get("adaptive.rounds_skipped"),
            Some(2 * trace.skipped_rounds as u64),
            "one count per rank"
        );
    }

    #[test]
    fn adaptive_training_cuts_wire_bytes_vs_static_4bit() {
        // With the 8-bit escape hatch removed from the choice set, every
        // committed plan is at most 4 bits per element, so the adaptive run
        // can only save wire bytes vs the static 4-bit baseline — and with
        // α = 2 the policy has room to actually demote layers. The obs
        // registry must report the re-plans it performed.
        let task = GaussianMixture::new(4, 16, 1.5);
        let mut rng = Rng::seed_from_u64(53);
        let model = Mlp::new(&mut rng, &[16, 64, 4]);
        let run = |adaptive: Option<AdaptiveTrainConfig>| {
            let cfg = TrainConfig {
                compression: LayerCompression::cgx_default(),
                adaptive,
                obs: ObsHandle::new_enabled(),
                ..TrainConfig::new(4, 60)
            };
            let t = task.clone();
            train_data_parallel(&model, move |r| t.sample_batch(r, 8), &cfg)
                .unwrap()
                .1
        };
        let static4 = run(None);
        let acfg = AdaptiveTrainConfig {
            bit_choices: vec![2, 3, 4],
            ..AdaptiveTrainConfig::default()
        };
        let adaptive = run(Some(acfg));
        let trace = adaptive.adaptive.as_ref().expect("adaptive trace present");
        assert!(trace.replans() >= 2, "no mid-run re-planning happened");
        assert!(
            adaptive.bytes_sent_per_worker < static4.bytes_sent_per_worker,
            "adaptive {} vs static 4-bit {}",
            adaptive.bytes_sent_per_worker,
            static4.bytes_sent_per_worker
        );
        // Every rank runs its own controller against the shared registry,
        // so the counter reads workers x the per-rank re-plan count.
        let replans = adaptive
            .metrics
            .get("adaptive.replans")
            .expect("adaptive metrics published");
        assert_eq!(
            replans as usize,
            4 * trace.replans(),
            "metric disagrees with trace"
        );
        assert!(adaptive.metrics.get("adaptive.plan_epoch").is_some());
        assert!(adaptive
            .metrics
            .get("adaptive.millibits_per_element")
            .is_some());
        assert!(static4.metrics.get("adaptive.replans").is_none());
    }

    #[test]
    fn adaptive_run_survives_elastic_shrink_and_forces_replan() {
        // A membership epoch must force a re-plan even when the periodic
        // interval is nowhere near due, and the committed plans must keep
        // flowing on the shrunken world.
        let task = GaussianMixture::new(4, 8, 1.5);
        let mut rng = Rng::seed_from_u64(57);
        let model = Mlp::new(&mut rng, &[8, 16, 4]);
        let cfg = TrainConfig {
            lr: 0.2,
            kill: Some((2, 40)),
            elastic: true,
            comm_timeout: Some(std::time::Duration::from_millis(300)),
            compression: LayerCompression::cgx_default(),
            adaptive: Some(AdaptiveTrainConfig {
                replan_interval: 10_000,
                ..AdaptiveTrainConfig::default()
            }),
            ..TrainConfig::new(4, 120)
        };
        let t = task.clone();
        let (trained, report) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        assert_eq!(report.final_world, 3, "world did not shrink to survivors");
        let trace = report.adaptive.as_ref().expect("adaptive trace present");
        assert!(
            trace.records.iter().any(|r| r.membership_epoch >= 1),
            "membership change did not force a re-plan: {:?}",
            trace.records
        );
        for p in trained.params() {
            assert!(p.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn per_layer_length_mismatch_is_rejected_up_front() {
        // Satellite bugfix: a per-layer list whose length disagrees with
        // the model surfaces as a typed InvalidConfig before any
        // collective starts, not as an index panic mid-loop.
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(55);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        let cfg = TrainConfig {
            compression: LayerCompression::per_layer(vec![CompressionScheme::None; 2]),
            ..TrainConfig::new(1, 5)
        };
        let t = task.clone();
        let err = train_data_parallel(&model, move |r| t.sample_batch(r, 8), &cfg).unwrap_err();
        match err {
            CommError::InvalidConfig { detail } => {
                assert!(detail.contains("2 schemes"), "detail: {detail}");
                assert!(detail.contains("4 parameters"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fabric_mismatches_are_typed_errors_not_panics() {
        // A topology that does not describe the fabric (reachable from
        // `cgx-launch --nodes`), an elastic run without epoch-scoped lanes
        // and a zero accumulation are the same class of mistake as the
        // per-layer list above and fail the same way: typed, up front, on
        // every rank of a two-rank world — not an `assert!` that takes one
        // rank down. An elastic Ring is refused like an elastic Tree: the
        // engine runs both at submit, on the legacy lane.
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(55);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        type Tweak = fn(&mut TrainConfig);
        let cases: [(Tweak, &str); 5] = [
            (
                |c| c.topology = Some(Topology::grouped(2, 2)),
                "topology describes 4 ranks but the fabric has 2",
            ),
            (
                |c| {
                    c.elastic = true;
                    c.algorithm = Algorithm::Tree;
                },
                "only SRA",
            ),
            (
                |c| {
                    c.elastic = true;
                    c.algorithm = Algorithm::Ring;
                },
                "only SRA",
            ),
            (
                |c| {
                    c.elastic = true;
                    c.topology = Some(Topology::grouped(1, 2));
                },
                "no membership path",
            ),
            (|c| c.accumulation = 0, "accumulation"),
        ];
        let sampler = |r: &mut Rng| task.sample_batch(r, 8);
        for (tweak, want) in cases {
            let mut cfg = TrainConfig::new(2, 5);
            tweak(&mut cfg);
            let errs = ThreadCluster::run(2, |t| {
                train_rank(&t, &model, &sampler, &cfg, &ScratchPool::new()).err()
            })
            .unwrap();
            for (rank, err) in errs.into_iter().enumerate() {
                match err {
                    Some(CommError::InvalidConfig { detail }) => {
                        assert!(detail.contains(want), "rank {rank}: {detail}")
                    }
                    other => panic!("rank {rank}: expected InvalidConfig ({want}), got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn non_elastic_run_surfaces_peer_loss_as_error() {
        let task = GaussianMixture::new(3, 6, 1.5);
        let mut rng = Rng::seed_from_u64(35);
        let model = Mlp::new(&mut rng, &[6, 10, 3]);
        let cfg = TrainConfig {
            kill: Some((1, 3)),
            comm_timeout: Some(std::time::Duration::from_millis(200)),
            // Two workers so exactly one survivor reports the loss (with
            // more, `try_run` aggregates into `MultipleFailures`).
            ..TrainConfig::new(2, 10)
        };
        let t = task.clone();
        let err = train_data_parallel(&model, move |r| t.sample_batch(r, 8), &cfg).unwrap_err();
        assert!(
            err.peer().is_some(),
            "expected a peer-scoped failure, got {err:?}"
        );
    }
}
