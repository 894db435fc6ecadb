//! Inventory workloads: a zoo model's layer list, shrunk, reduced once
//! per step by two rank threads the way `train_rank` synchronises —
//! `CommEngine::new` → `submit` every layer → `wait` in order.

use crate::calm::{self, Around, Probe};
use crate::host::ProcessClock;
use crate::prng::SplitMix64;
use crate::spec::Fabric;
use crate::trace::Span;
use crate::STEP_DEADLINE;
use cgx_collectives::reduce::{Algorithm, AllreduceStats};
use cgx_collectives::{CommEngine, CommError, EngineOptions, ShmFabric, ShmTransport, Transport};
use cgx_compress::{CompressionScheme, Compressor, ScratchPool};
use cgx_models::{ModelId, ModelSpec};
use cgx_net::{TcpFabric, TcpTransport};
use cgx_obs::{names, Event, EventRecorder, MetricsRegistry, ObsHandle};
use cgx_serve::{JobSpec, NamespacedTransport, ServeConfig, ServeNode};
use cgx_tensor::{Rng, Tensor};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const WORLD: usize = 2;
/// Reductions whose results are kept and checked after the timed steps.
pub const VERIFY_STEPS: usize = 3;
/// Gradient sets per rank; steps alternate between them.
const SETS: usize = 2;
/// The one job the serve workload attaches.
const JOB: u8 = 1;
/// Engine events kept per rank in the traced pass: the tail of the run,
/// small enough to load in a trace viewer.
const ENGINE_RING: usize = 1 << 14;

/// Per-layer element counts and schemes, in forward order.
#[derive(Debug, Clone)]
pub struct Inventory {
    pub layers: Vec<(usize, CompressionScheme)>,
}

impl Inventory {
    pub fn build(model: ModelId, shrink: usize, scheme: CompressionScheme) -> Self {
        let layers = ModelSpec::build(model)
            .layers()
            .iter()
            .map(|l| {
                if l.kind().is_filtered_by_default() {
                    (l.elements(), CompressionScheme::None)
                } else {
                    ((l.elements() / shrink).max(1), scheme)
                }
            })
            .collect();
        Inventory { layers }
    }

    pub fn elements(&self) -> usize {
        self.layers.iter().map(|(n, _)| n).sum()
    }

    /// `grads[rank][set][layer]`, Gaussian with the spread of a late-
    /// training gradient; every value comes from `seed`.
    pub fn gradients(&self, seed: u64) -> Vec<Vec<Vec<Tensor>>> {
        (0..WORLD)
            .map(|rank| {
                (0..SETS)
                    .map(|set| {
                        let mut g = SplitMix64::stream(seed, (rank * SETS + set) as u64);
                        self.layers
                            .iter()
                            .map(|&(n, _)| {
                                let mut v = vec![0f32; n];
                                g.fill_gaussian(&mut v, 0.01);
                                Tensor::from_vec(&[n], v)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
}

/// One rank's end of a fabric, with the concrete type kept so that its
/// public counters stay readable.
enum Endpoint {
    Shm(ShmTransport),
    Tcp(Box<TcpTransport>),
    /// Field order is drop order: the handle detaches before its node
    /// shuts the pump down.
    Serve {
        handle: NamespacedTransport,
        node: Arc<ServeNode>,
        /// The physical TCP transport lives inside the node's pump, so
        /// its byte and syscall counts are read through the registry it
        /// was given before it went in.
        physical: MetricsRegistry,
    },
}

/// Monotonic counters an endpoint exposes; differences are per phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub wire_bytes: u64,
    pub serialize_ns: u64,
    pub syscall_ns: u64,
    pub park_ns: u64,
    pub syscalls: u64,
    pub writev_frames: u64,
    pub job_bytes: u64,
    /// From the rank's registry; 0 unless the pass is traced.
    pub msgs: u64,
    pub collectives: u64,
    pub pool_allocations: u64,
    pub pool_reuses: u64,
}

impl Counters {
    fn since(&self, base: &Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes - base.wire_bytes,
            serialize_ns: self.serialize_ns - base.serialize_ns,
            syscall_ns: self.syscall_ns - base.syscall_ns,
            park_ns: self.park_ns - base.park_ns,
            syscalls: self.syscalls - base.syscalls,
            writev_frames: self.writev_frames - base.writev_frames,
            job_bytes: self.job_bytes - base.job_bytes,
            msgs: self.msgs - base.msgs,
            collectives: self.collectives - base.collectives,
            pool_allocations: self.pool_allocations - base.pool_allocations,
            pool_reuses: self.pool_reuses - base.pool_reuses,
        }
    }
}

impl Endpoint {
    fn transport(&self) -> &dyn Transport {
        match self {
            Endpoint::Shm(t) => t,
            Endpoint::Tcp(t) => t.as_ref(),
            Endpoint::Serve { handle, .. } => handle,
        }
    }

    fn counters(&self, obs: &ObsHandle, pool: &ScratchPool) -> Counters {
        let reg =
            |registry: &MetricsRegistry, name: &str| registry.snapshot().get(name).unwrap_or(0);
        let mut c = Counters {
            msgs: reg(obs.registry(), names::TRANSPORT_MSGS_SENT),
            collectives: reg(obs.registry(), "engine.collectives_submitted"),
            pool_allocations: pool.allocations(),
            pool_reuses: pool.reuses(),
            ..Counters::default()
        };
        match self {
            Endpoint::Shm(_) => {}
            Endpoint::Tcp(t) => {
                let w = t.wire_stats();
                c.wire_bytes = t.wire_bytes_sent();
                c.serialize_ns = w.serialize_ns;
                c.syscall_ns = w.syscall_ns;
                c.park_ns = w.park_ns;
                c.syscalls = w.syscalls();
                c.writev_frames = w.writev_frames;
            }
            Endpoint::Serve { node, physical, .. } => {
                // The pump sends on its own thread and a flush only kicks
                // it: read once what this rank handed over is on the wire,
                // i.e. when the byte count has stood still for a
                // millisecond (one run in thirty otherwise cut a phase a
                // few frames short and its bytes per step did not repeat).
                let wire = || physical.snapshot().get(names::TRANSPORT_WIRE_BYTES_SENT);
                let mut seen = wire();
                for _ in 0..100 {
                    std::thread::sleep(Duration::from_millis(1));
                    let now = wire();
                    if std::mem::replace(&mut seen, now) == now {
                        break;
                    }
                }
                let physical = physical.snapshot();
                let reg = |name: &str| physical.get(name).unwrap_or(0);
                c.wire_bytes = reg(names::TRANSPORT_WIRE_BYTES_SENT);
                c.syscalls = reg(names::TRANSPORT_SYSCALLS);
                c.writev_frames = reg(names::TRANSPORT_WRITEV_FRAMES);
                c.msgs = reg(names::TRANSPORT_MSGS_SENT);
                c.job_bytes = node.job_sent_bytes(JOB);
            }
        }
        c
    }
}

/// How long the two set-up calls into `net` and `serve` took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub mesh_build: Duration,
    pub attach: Duration,
}

/// Builds the fabric and, when `obs` handles are enabled, points every
/// transport's counters at its rank's registry.
fn connect(fabric: Fabric, obs: &[ObsHandle]) -> (Vec<Endpoint>, SetupSpans) {
    let mut spans = SetupSpans::default();
    let tcp_mesh = |spans: &mut SetupSpans| {
        let start = Instant::now();
        let mut mesh = TcpFabric::build_local(WORLD);
        spans.mesh_build = start.elapsed();
        for t in &mut mesh {
            t.set_timeout(STEP_DEADLINE);
        }
        mesh
    };
    let endpoints = match fabric {
        Fabric::Shm => ShmFabric::build(WORLD)
            .into_iter()
            .zip(obs)
            .map(|(mut t, obs)| {
                t.set_timeout(STEP_DEADLINE);
                if obs.enabled() {
                    t.set_obs(obs.registry());
                }
                Endpoint::Shm(t)
            })
            .collect(),
        Fabric::Tcp => tcp_mesh(&mut spans)
            .into_iter()
            .zip(obs)
            .map(|(mut t, obs)| {
                if obs.enabled() {
                    t.set_obs(obs.registry());
                }
                Endpoint::Tcp(Box::new(t))
            })
            .collect(),
        Fabric::Serve => {
            let nodes: Vec<(Arc<ServeNode>, MetricsRegistry)> = tcp_mesh(&mut spans)
                .into_iter()
                .zip(obs)
                .map(|(mut t, obs)| {
                    let physical = MetricsRegistry::new();
                    t.set_obs(&physical);
                    let mut cfg = ServeConfig::default();
                    if obs.enabled() {
                        cfg = cfg.with_obs(obs.registry());
                    }
                    (Arc::new(ServeNode::new(Box::new(t), cfg)), physical)
                })
                .collect();
            let start = Instant::now();
            let handles: Vec<NamespacedTransport> = nodes
                .iter()
                .map(|(node, _)| {
                    node.attach(JobSpec::new(JOB))
                        .expect("a fresh node admits job 1")
                })
                .collect();
            spans.attach = start.elapsed() / WORLD as u32;
            handles
                .into_iter()
                .zip(nodes)
                .map(|(handle, (node, physical))| Endpoint::Serve {
                    handle,
                    node,
                    physical,
                })
                .collect()
        }
    };
    (endpoints, spans)
}

/// What one step cost on one rank.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// Since the instance began.
    pub start_ns: u64,
    pub submit_ns: u64,
    pub total_ns: u64,
    pub stats: AllreduceStats,
}

struct RankState<'a> {
    t: &'a dyn Transport,
    pool: &'a ScratchPool,
    obs: &'a ObsHandle,
    epoch: Instant,
    comps: Vec<Option<Box<dyn Compressor>>>,
    rng: Rng,
    /// The witness of the host's state; it runs before every step.
    probe: &'a mut Probe,
}

impl RankState<'_> {
    /// One synchronisation of `grads`; the reduced tensors when `keep`.
    fn step(&mut self, grads: &[Tensor], keep: bool) -> Result<(StepRec, Vec<Tensor>), CommError> {
        self.probe.burst();
        let start = Instant::now();
        let mut eng = CommEngine::new(self.t, self.pool.clone(), EngineOptions::default())
            .with_obs(self.obs.clone());
        let handles: Vec<_> = grads
            .iter()
            .zip(&mut self.comps)
            .map(|(g, comp)| {
                let comp = comp.take().expect("compressor returned by the last wait");
                eng.submit(Algorithm::ScatterReduceAllgather, g, comp, &mut self.rng)
            })
            .collect();
        let submitted = Instant::now();
        let mut stats = AllreduceStats::default();
        let mut reduced = Vec::with_capacity(if keep { grads.len() } else { 0 });
        for (h, slot) in handles.into_iter().zip(&mut self.comps) {
            let (sum, s, comp) = eng.wait(h)?;
            *slot = Some(comp);
            stats.merge(&s);
            if keep {
                reduced.push(sum);
            }
        }
        let rec = StepRec {
            start_ns: (start - self.epoch).as_nanos() as u64,
            submit_ns: (submitted - start).as_nanos() as u64,
            total_ns: start.elapsed().as_nanos() as u64,
            stats,
        };
        Ok((rec, reduced))
    }
}

/// The phases of one fabric instance.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub fabric: Fabric,
    pub warmup: usize,
    pub timed: usize,
    pub verify: bool,
    /// Engine, transports and daemon record into per-rank `ObsHandle`s.
    pub traced: bool,
}

/// One rank's account of an instance.
pub struct RankRun {
    /// When this rank left the post-warm-up barrier.
    pub ready: Instant,
    pub steps: Vec<StepRec>,
    pub counters: Counters,
    pub clock: ProcessClock,
    /// FNV-1a over every reduced value of the verification steps.
    pub digest: u64,
    /// Mean relative L2 error of the verification steps (rank 0 only).
    pub quality_err: f64,
    pub verified_steps: usize,
    pub error: Option<String>,
    pub engine_events: Vec<Event>,
    pub events_dropped: usize,
    /// The reference burst before each step this rank ran — warm-up,
    /// timed, verification — and one after the last, ns.
    pub bursts: Vec<u64>,
}

pub struct InstanceRun {
    pub began: Instant,
    pub setup: SetupSpans,
    pub warmup: usize,
    pub ranks: Vec<RankRun>,
}

impl InstanceRun {
    /// Inputs ready → rank 0 past its warm-up.
    pub fn setup_s(&self) -> f64 {
        (self.ranks[0].ready - self.began).as_secs_f64()
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.ranks[0]
            .steps
            .iter()
            .map(|s| s.total_ns as f64 / 1e6)
            .collect()
    }

    /// Every reference burst of every rank.
    pub fn bursts(&self) -> impl Iterator<Item = &u64> {
        self.ranks.iter().flat_map(|r| &r.bursts)
    }

    /// What the bursts say about `(each warm-up step, each timed step)`,
    /// against the process's fastest burst `level`.
    pub fn around(&self, level: f64) -> (Vec<Around>, Vec<Around>) {
        let bursts: Vec<&[u64]> = self.ranks.iter().map(|r| &r.bursts[..]).collect();
        let mut warmup = calm::around(&bursts, level);
        let mut timed = warmup.split_off(self.warmup.min(warmup.len()));
        timed.truncate(self.ranks[0].steps.len());
        (warmup, timed)
    }

    /// Inputs ready → rank 0 past its warm-up, with what the warm-up
    /// steps' bursts say about it.
    pub fn setup(&self, level: f64) -> (f64, Around) {
        (self.setup_s(), calm::setup_around(&self.around(level).0))
    }

    /// The timed steps the timing metrics are taken over, each with what
    /// scales its times to the reference burst (see `calm`).
    pub fn calm_steps(&self, level: f64) -> Vec<(&StepRec, f64)> {
        let around = self.around(level).1;
        let calm = calm::select(&around, crate::stats::WINDOWS);
        let step = |i: usize| (&self.ranks[0].steps[i], around[i].scale);
        calm.into_iter().map(step).collect()
    }

    /// Scaled wall time of each calm timed step in ms.
    pub fn calm_step_ms(&self, level: f64) -> Vec<f64> {
        let ms = |(s, scale): (&StepRec, f64)| s.total_ns as f64 / 1e6 * scale;
        self.calm_steps(level).into_iter().map(ms).collect()
    }

    pub fn errors(&self) -> Vec<String> {
        let named =
            |(rank, r): (usize, &RankRun)| r.error.as_ref().map(|e| format!("rank {rank}: {e}"));
        self.ranks.iter().enumerate().filter_map(named).collect()
    }

    /// Harness spans of this instance for the Chrome trace.
    pub fn spans(&self) -> Vec<Span> {
        let setup_ns = (self.ranks[0].ready - self.began).as_nanos() as u64;
        let mut spans = vec![Span::new("setup", 0, 0, setup_ns, None, "")];
        let mut at = 0;
        for (name, d) in [
            ("mesh_build", self.setup.mesh_build),
            ("attach", self.setup.attach),
        ] {
            if !d.is_zero() {
                spans.push(Span::new(name, 0, at, d.as_nanos() as u64, None, "setup"));
                at += d.as_nanos() as u64;
            }
        }
        spans.push(Span::new(
            "warmup",
            0,
            at,
            setup_ns.saturating_sub(at),
            None,
            "setup",
        ));
        for (rank, run) in self.ranks.iter().enumerate() {
            for (i, s) in run.steps.iter().enumerate() {
                let id = Some(i as u64);
                spans.push(Span::new("step", rank, s.start_ns, s.total_ns, id, ""));
                spans.push(Span::new(
                    "submit",
                    rank,
                    s.start_ns,
                    s.submit_ns,
                    id,
                    "step",
                ));
                let wait = s.total_ns - s.submit_ns;
                spans.push(Span::new(
                    "wait",
                    rank,
                    s.start_ns + s.submit_ns,
                    wait,
                    id,
                    "step",
                ));
            }
        }
        spans
    }
}

/// Where an FNV-1a digest starts.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds every bit of `tensors` into an FNV-1a digest.
pub fn fnv1a(mut hash: u64, tensors: &[Tensor]) -> u64 {
    for t in tensors {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

/// ‖reduced − exact‖₂ / ‖exact‖₂ with the exact sum of both ranks'
/// inputs taken in `f64`.
fn relative_error(reduced: &[Tensor], inputs: [&[Tensor]; WORLD]) -> f64 {
    let (mut err, mut norm) = (0f64, 0f64);
    for (layer, out) in reduced.iter().enumerate() {
        let (a, b) = (inputs[0][layer].as_slice(), inputs[1][layer].as_slice());
        for ((o, x), y) in out.as_slice().iter().zip(a).zip(b) {
            let exact = *x as f64 + *y as f64;
            err += (*o as f64 - exact).powi(2);
            norm += exact * exact;
        }
    }
    (err / norm).sqrt()
}

/// Runs one fabric instance — connect, warm up, time, verify — on two
/// rank threads and returns each rank's account.
pub fn run_instance(
    inv: &Inventory,
    grads: &[Vec<Vec<Tensor>>],
    plan: Plan,
    seed: u64,
) -> InstanceRun {
    let began = Instant::now();
    let obs: Vec<ObsHandle> = (0..WORLD)
        .map(|_| {
            if plan.traced {
                ObsHandle::enabled_with(MetricsRegistry::new(), EventRecorder::new(ENGINE_RING))
            } else {
                ObsHandle::disabled()
            }
        })
        .collect();
    let (endpoints, setup) = connect(plan.fabric, &obs);
    // One pool for both ranks, as `train_data_parallel` shares one.
    let pool = ScratchPool::new();
    let barrier = Barrier::new(WORLD);
    let ranks = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(&obs)
            .enumerate()
            .map(|(rank, (ep, obs))| {
                let (pool, barrier) = (&pool, &barrier);
                scope.spawn(move || {
                    run_rank(rank, ep, inv, grads, plan, seed, began, pool, obs, barrier)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank thread panicked"))
            .collect()
    });
    InstanceRun {
        began,
        setup,
        warmup: plan.warmup,
        ranks,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    rank: usize,
    ep: Endpoint,
    inv: &Inventory,
    grads: &[Vec<Vec<Tensor>>],
    plan: Plan,
    seed: u64,
    epoch: Instant,
    pool: &ScratchPool,
    obs: &ObsHandle,
    barrier: &Barrier,
) -> RankRun {
    let mut probe = Probe::default();
    let mut run = run_phases(
        rank, ep, inv, grads, plan, seed, epoch, pool, obs, barrier, &mut probe,
    );
    probe.burst();
    run.bursts = probe.bursts;
    run
}

#[allow(clippy::too_many_arguments)]
fn run_phases(
    rank: usize,
    ep: Endpoint,
    inv: &Inventory,
    grads: &[Vec<Vec<Tensor>>],
    plan: Plan,
    seed: u64,
    epoch: Instant,
    pool: &ScratchPool,
    obs: &ObsHandle,
    barrier: &Barrier,
    probe: &mut Probe,
) -> RankRun {
    let build = || {
        inv.layers
            .iter()
            .map(|(_, scheme)| Some(scheme.build()))
            .collect()
    };
    // The stochastic-rounding stream is the program's own business; it is
    // seeded as `train_rank` seeds it.
    let mut state = RankState {
        t: ep.transport(),
        pool,
        obs,
        epoch,
        comps: build(),
        rng: Rng::seed_from_u64(seed ^ (0xC0FFEE + rank as u64 * 104_729)),
        probe,
    };
    let mut run = RankRun {
        ready: epoch,
        steps: Vec::with_capacity(plan.timed),
        counters: Counters::default(),
        clock: ProcessClock::default(),
        digest: FNV_OFFSET,
        quality_err: 0.0,
        verified_steps: 0,
        error: None,
        engine_events: Vec::new(),
        events_dropped: 0,
        bursts: Vec::new(),
    };
    let mine = &grads[rank];
    let mut step_no = 0usize;
    let mut next = |state: &mut RankState, keep: bool| {
        step_no += 1;
        state.step(&mine[step_no % SETS], keep)
    };

    // A finished `wait` may leave this rank's last frames in the TCP
    // transport's coalescing buffer; inside a training run the next step
    // pushes them out. Before this rank stops calling the transport — at
    // the barrier, and at the end of each phase below — it flushes, so
    // that the peer can finish its step and the byte counts are whole.
    let flush = |t: &dyn Transport| t.flush_outbound();
    let warm = (0..plan.warmup)
        .try_for_each(|_| next(&mut state, false).map(drop))
        .and_then(|()| flush(state.t));
    // Reached on failure too, or the peer would wait here for ever.
    barrier.wait();
    run.ready = Instant::now();
    if let Err(e) = warm {
        run.error = Some(format!("warm-up: {e}"));
        return run;
    }

    let counters = ep.counters(obs, pool);
    let clock = if rank == 0 {
        ProcessClock::now()
    } else {
        ProcessClock::default()
    };
    for i in 0..plan.timed {
        match next(&mut state, false) {
            Ok((rec, _)) => run.steps.push(rec),
            Err(e) => {
                run.error = Some(format!("timed step {i}: {e}"));
                return run;
            }
        }
    }
    if let Err(e) = flush(state.t) {
        run.error = Some(format!("flush after the timed steps: {e}"));
        return run;
    }
    if rank == 0 {
        run.clock = ProcessClock::now().since(&clock);
    }
    run.counters = ep.counters(obs, pool).since(&counters);

    if plan.verify {
        // Fresh compressors and a fixed stream: the reduced bytes depend
        // on the seed and the inputs only, not on how many steps ran
        // before or on which fabric.
        state.comps = build();
        state.rng = Rng::seed_from_u64(seed ^ (0x5EED_0F7E + rank as u64));
        for k in 0..VERIFY_STEPS {
            let set = k % SETS;
            match state
                .step(&mine[set], true)
                .and_then(|out| flush(state.t).map(|()| out))
            {
                Ok((_, reduced)) => {
                    run.digest = fnv1a(run.digest, &reduced);
                    if rank == 0 {
                        let inputs = [&grads[0][set][..], &grads[1][set][..]];
                        run.quality_err += relative_error(&reduced, inputs) / VERIFY_STEPS as f64;
                    }
                    run.verified_steps += 1;
                }
                Err(e) => {
                    run.error = Some(format!("verification step {k}: {e}"));
                    return run;
                }
            }
        }
    }
    run.engine_events = obs.recorder().events();
    run.events_dropped = obs.recorder().dropped();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_against_the_f64_sum() {
        let t = |v: &[f32]| Tensor::from_slice(v);
        let (a, b) = ([t(&[1.0, 2.0])], [t(&[3.0, 4.0])]);
        assert_eq!(relative_error(&[t(&[4.0, 6.0])], [&a, &b]), 0.0);
        let off = relative_error(&[t(&[4.0, 7.0])], [&a, &b]);
        assert!((off - 1.0 / 52f64.sqrt()).abs() < 1e-12, "{off}");
    }

    #[test]
    fn digest_depends_on_every_bit_and_on_order() {
        let t = |v: &[f32]| Tensor::from_slice(v);
        let base = fnv1a(7, &[t(&[1.0, 2.0])]);
        assert_eq!(base, fnv1a(7, &[t(&[1.0]), t(&[2.0])]));
        assert_ne!(base, fnv1a(7, &[t(&[2.0, 1.0])]));
        assert_ne!(base, fnv1a(7, &[t(&[1.0, 2.000_000_2])]));
        assert_ne!(fnv1a(7, &[t(&[0.0])]), fnv1a(7, &[t(&[-0.0])]));
    }

    #[test]
    fn inventories_match_the_pinned_totals_and_filter_small_layers() {
        for w in crate::spec::WORKLOADS {
            if let crate::spec::Kind::Inventory {
                model,
                shrink,
                scheme,
                layers,
                elements,
                ..
            } = w.kind
            {
                let inv = Inventory::build(model, shrink, scheme);
                assert_eq!(
                    (inv.layers.len(), inv.elements()),
                    (layers, elements),
                    "{}",
                    w.name
                );
                assert!(inv
                    .layers
                    .iter()
                    .any(|(_, s)| *s == CompressionScheme::None));
            }
        }
    }

    #[test]
    fn gradients_repeat_for_a_seed_and_differ_between_ranks_and_sets() {
        let inv = Inventory {
            layers: vec![(5, CompressionScheme::None), (3, CompressionScheme::None)],
        };
        let (a, b) = (inv.gradients(9), inv.gradients(9));
        assert_eq!(a, b);
        assert_ne!(a[0][0], a[1][0]);
        assert_ne!(a[0][0], a[0][1]);
        assert_ne!(a, inv.gradients(10));
        assert_eq!(a[1][1][1].len(), 3);
    }
}
