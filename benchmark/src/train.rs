//! The training workload: `train_rank` — the per-rank core that
//! `train_data_parallel` runs on each of its threads — driven on the
//! harness's own two threads over shm.
//!
//! `train_data_parallel` itself hides the rank from the sampler and
//! returns one replica, so it could give neither per-rank input streams,
//! nor rank-0 step timestamps, nor both ranks' final parameters to
//! compare. Everything it adds to `train_rank` is the thread spawn and
//! the fabric, which the harness does here.

use crate::calm::{self, Around, Probe};
use crate::host::ProcessClock;
use crate::inventory::{fnv1a, FNV_OFFSET};
use crate::prng::SplitMix64;
use crate::STEP_DEADLINE;
use cgx_collectives::ShmFabric;
use cgx_compress::ScratchPool;
use cgx_engine::{
    train_rank, AdaptiveTrainConfig, EmbeddingLm, LayerCompression, RankOutput, TrainConfig,
};
use cgx_obs::{MetricsSnapshot, ObsHandle};
use cgx_tensor::Rng;
use std::cell::RefCell;
use std::time::Instant;

pub const VOCAB: usize = 512;
pub const DIM: usize = 128;
pub const BATCH: usize = 64;
const SKEW: f64 = 5.0;
const LR: f32 = 0.5;

/// A first-order Markov chain over `VOCAB` tokens — the shape of
/// `cgx_engine::MarkovChainLm`, built from the harness's generator.
pub struct Task {
    /// Cumulative transition probabilities, one row per state.
    cdf: Vec<Vec<f64>>,
    /// Nats per token under a uniform state distribution: the loss a
    /// perfect bigram model would reach.
    pub entropy_rate: f64,
}

impl Task {
    pub fn new(seed: u64) -> Self {
        let mut g = SplitMix64::stream(seed, 0x7A5C);
        let mut entropy = 0.0;
        let cdf = (0..VOCAB)
            .map(|_| {
                let raw: Vec<f64> = (0..VOCAB).map(|_| g.uniform().powf(SKEW)).collect();
                let z: f64 = raw.iter().sum();
                let mut acc = 0.0;
                raw.iter()
                    .map(|w| {
                        let p = w / z;
                        if p > 0.0 {
                            entropy -= p * p.ln();
                        }
                        acc += p;
                        acc
                    })
                    .collect()
            })
            .collect();
        Task {
            cdf,
            entropy_rate: entropy / VOCAB as f64,
        }
    }

    /// `(context, target)` token pairs along a fresh random walk.
    pub fn sample_batch(&self, g: &mut SplitMix64) -> (Vec<usize>, Vec<usize>) {
        let mut state = g.below(VOCAB);
        (0..BATCH)
            .map(|_| {
                let u = g.uniform();
                let next = self.cdf[state].partition_point(|&c| c <= u).min(VOCAB - 1);
                (std::mem::replace(&mut state, next), next)
            })
            .unzip()
    }
}

/// The model every rank starts from; its weights come from `seed`.
pub fn initial_model(seed: u64) -> EmbeddingLm {
    // The constructor wants the program's generator; its draws are
    // overwritten so that the inputs stay the harness's.
    let mut model = EmbeddingLm::new(&mut Rng::seed_from_u64(0), VOCAB, DIM);
    let mut g = SplitMix64::stream(seed, 0x1417);
    let scale = (1.0 / DIM as f64).sqrt() as f32;
    for table in &mut model.params_mut()[..2] {
        g.fill_gaussian(table.as_mut_slice(), scale);
    }
    model
}

#[derive(Debug, Clone, Copy)]
pub struct TrainPlan {
    pub workers: usize,
    /// Steps before the first timed one.
    pub warmup: usize,
    /// Timed steps. One more step runs after them: a step's time is the
    /// gap to the next step's first sampler call.
    pub timed: usize,
    pub adaptive: bool,
    pub traced: bool,
}

pub struct TrainRun {
    pub began: Instant,
    /// Rank 0's sampler calls: `stamps[i]` is when step `i` began.
    pub stamps: Vec<Instant>,
    /// Per rank, the reference burst each sampler call ran right after its
    /// stamp, ns: `bursts[rank][i]` opens step `i` and closes step `i - 1`.
    pub bursts: Vec<Vec<u64>>,
    pub warmup: usize,
    /// Per rank; `None` where the rank failed.
    pub outputs: Vec<Option<RankOutput<EmbeddingLm>>>,
    pub errors: Vec<String>,
    /// Rank 0's registry when traced.
    pub metrics: MetricsSnapshot,
    /// CPU time and context switches of the timed steps when traced,
    /// read inside rank 0's sampler while both rank threads are alive.
    pub clock: ProcessClock,
}

impl TrainRun {
    /// Inputs ready → first timed step.
    pub fn setup_s(&self) -> f64 {
        (self.stamps[self.warmup] - self.began).as_secs_f64()
    }

    /// Wall time of each timed step in ms: the gap to the next step's
    /// stamp less the step's own opening burst.
    pub fn step_ms(&self) -> Vec<f64> {
        let gaps = self.stamps[self.warmup..].windows(2);
        gaps.zip(&self.bursts[0][self.warmup..])
            .map(|(w, burst)| (w[1] - w[0]).as_secs_f64() * 1e3 - *burst as f64 / 1e6)
            .collect()
    }

    /// Every reference burst of every rank.
    pub fn all_bursts(&self) -> impl Iterator<Item = &u64> {
        self.bursts.iter().flatten()
    }

    /// What the bursts say about `(each warm-up step, each timed step)`,
    /// against the process's fastest burst `level`.
    pub fn around(&self, level: f64) -> (Vec<Around>, Vec<Around>) {
        let bursts: Vec<&[u64]> = self.bursts.iter().map(|b| &b[..]).collect();
        let mut warmup = calm::around(&bursts, level);
        let timed = warmup.split_off(self.warmup.min(warmup.len()));
        (warmup, timed)
    }

    /// Inputs ready → first timed step, with what the warm-up steps'
    /// bursts say about it.
    pub fn setup(&self, level: f64) -> (f64, Around) {
        (self.setup_s(), calm::setup_around(&self.around(level).0))
    }

    /// Scaled wall time of each calm timed step in ms (see `calm`).
    pub fn calm_step_ms(&self, level: f64) -> Vec<f64> {
        let (ms, around) = (self.step_ms(), self.around(level).1);
        let calm = calm::select(&around, crate::stats::WINDOWS);
        calm.into_iter().map(|i| ms[i] * around[i].scale).collect()
    }

    /// Step start offsets (ns since `began`) for the trace.
    pub fn step_starts_ns(&self) -> Vec<u64> {
        self.stamps
            .iter()
            .map(|s| (*s - self.began).as_nanos() as u64)
            .collect()
    }
}

/// FNV-1a over every parameter bit.
pub fn param_digest(model: &EmbeddingLm) -> u64 {
    fnv1a(FNV_OFFSET, model.params())
}

pub fn run_training(task: &Task, model: &EmbeddingLm, plan: TrainPlan, seed: u64) -> TrainRun {
    let began = Instant::now();
    let steps = plan.warmup + plan.timed + 1;
    let obs: Vec<ObsHandle> = (0..plan.workers)
        .map(|_| {
            if plan.traced {
                ObsHandle::new_enabled()
            } else {
                ObsHandle::disabled()
            }
        })
        .collect();
    let pool = ScratchPool::new();
    let endpoints = ShmFabric::build(plan.workers);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(&obs)
            .map(|(mut t, obs)| {
                let pool = &pool;
                scope.spawn(move || {
                    t.set_timeout(STEP_DEADLINE);
                    if obs.enabled() {
                        t.set_obs(obs.registry());
                    }
                    let cfg = TrainConfig {
                        lr: LR,
                        compression: LayerCompression::cgx_default(),
                        seed,
                        adaptive: plan.adaptive.then(AdaptiveTrainConfig::default),
                        obs: obs.clone(),
                        ..TrainConfig::new(plan.workers, steps)
                    };
                    let stream = SplitMix64::stream(seed, 0xBA7C + t.rank() as u64);
                    let clocked = plan.traced && t.rank() == 0;
                    let stamps = Vec::with_capacity(steps);
                    let state = RefCell::new((stream, stamps, Vec::new(), Probe::default()));
                    let sampler = |_: &mut Rng| {
                        let (g, stamps, clocks, probe) = &mut *state.borrow_mut();
                        if clocked && (stamps.len() == plan.warmup || stamps.len() + 1 == steps) {
                            clocks.push(ProcessClock::now());
                        }
                        stamps.push(Instant::now());
                        probe.burst();
                        task.sample_batch(g)
                    };
                    let out = train_rank(&t, model, &sampler, &cfg, pool);
                    let (_, stamps, clocks, probe) = state.into_inner();
                    (out, stamps, clocks, probe.bursts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank thread panicked"))
            .collect()
    });
    let mut run = TrainRun {
        began,
        stamps: Vec::new(),
        bursts: Vec::new(),
        warmup: plan.warmup,
        outputs: Vec::new(),
        errors: Vec::new(),
        metrics: obs[0].registry().snapshot(),
        clock: ProcessClock::default(),
    };
    for (rank, (out, stamps, clocks, bursts)) in results.into_iter().enumerate() {
        run.bursts.push(bursts);
        if rank == 0 {
            run.stamps = stamps;
            if let [first, last] = clocks[..] {
                run.clock = last.since(&first);
            }
        }
        match out {
            Ok(out) => run.outputs.push(out),
            Err(e) => {
                run.errors.push(format!("rank {rank}: {e}"));
                run.outputs.push(None);
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_rows_are_distributions_and_batches_follow_the_chain() {
        let task = Task::new(3);
        for row in &task.cdf {
            assert!(row.windows(2).all(|w| w[0] <= w[1]));
            assert!((row[VOCAB - 1] - 1.0).abs() < 1e-9);
        }
        assert!(task.entropy_rate > 0.0 && task.entropy_rate < (VOCAB as f64).ln());
        let mut g = SplitMix64::new(1);
        let (ctx, tgt) = task.sample_batch(&mut g);
        assert_eq!((ctx.len(), tgt.len()), (BATCH, BATCH));
        assert_eq!(&ctx[1..], &tgt[..BATCH - 1]);
        assert!(tgt.iter().all(|&t| t < VOCAB));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let batch = |seed| Task::new(seed).sample_batch(&mut SplitMix64::stream(seed, 1));
        assert_eq!(batch(4), batch(4));
        assert_ne!(batch(4), batch(5));
        assert_eq!(
            param_digest(&initial_model(4)),
            param_digest(&initial_model(4))
        );
        assert_ne!(
            param_digest(&initial_model(4)),
            param_digest(&initial_model(5))
        );
    }

    #[test]
    fn a_short_run_trains_both_ranks_to_the_same_replica() {
        let task = Task::new(1);
        let model = initial_model(1);
        let plan = TrainPlan {
            workers: 2,
            warmup: 2,
            timed: 10,
            adaptive: true,
            traced: false,
        };
        let run = run_training(&task, &model, plan, 1);
        assert!(run.errors.is_empty(), "{:?}", run.errors);
        assert_eq!(run.stamps.len(), 13);
        assert_eq!(run.step_ms().len(), 10);
        let digests: Vec<u64> = run
            .outputs
            .iter()
            .map(|o| param_digest(&o.as_ref().expect("rank finished").model))
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_ne!(digests[0], param_digest(&model));
    }
}
