//! The deterministic training workload behind `cgx-launch`.
//!
//! One fixed task (Gaussian-mixture classification with a small MLP,
//! 4-bit CGX compression) that any rank can run over any
//! [`Transport`] via [`cgx_engine::train_rank`]. Because the trainer's
//! RNG streams are derived from `(seed, rank)` alone, a thread-backed
//! [`ShmTransport`](cgx_collectives::ShmTransport) run and a
//! process-backed TCP run of the same [`Workload`] produce
//! byte-identical parameters — which is exactly what the launch parity
//! test asserts.

use cgx_collectives::{CommError, ShmTransport, ThreadCluster, Topology, Transport};
use cgx_compress::ScratchPool;
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{train_rank, AdaptiveTrainConfig, LayerCompression, TrainConfig};
use cgx_tensor::Rng;
use std::time::Duration;

/// Environment variable: when truthy, workers train elastically — an
/// unrecoverable peer loss shrinks the world and training continues on
/// the survivors instead of failing the run.
pub const ENV_ELASTIC: &str = "CGX_ELASTIC";
/// Environment variable overriding the transport receive timeout, in
/// milliseconds — the budget after which a silent peer is declared lost.
pub const ENV_COMM_TIMEOUT_MS: &str = "CGX_COMM_TIMEOUT_MS";
/// Environment variable switching on the live adaptive-compression
/// controller. Truthy values enable the default policy; a policy name
/// (`kmeans`, `linear`, `timeaware`, `bayesopt`, `bayesopt:N`) selects
/// one explicitly.
pub const ENV_ADAPTIVE: &str = "CGX_ADAPTIVE";
/// Environment variable overriding the adaptive error-budget multiplier
/// α (error allowed relative to uniform 4-bit).
pub const ENV_ADAPTIVE_ALPHA: &str = "CGX_ADAPTIVE_ALPHA";
/// Environment variable overriding how many observed steps sit between
/// re-plans.
pub const ENV_ADAPTIVE_INTERVAL: &str = "CGX_ADAPTIVE_INTERVAL";
/// Environment variable overriding the warm-up steps before the first
/// re-plan may commit.
pub const ENV_ADAPTIVE_WARMUP: &str = "CGX_ADAPTIVE_WARMUP";

/// The one list of switch words, for every `CGX_*` on/off variable in
/// the workspace: `Some(on)` for a recognised one (case-insensitive; the
/// empty string is off), `None` for anything else.
pub fn switch(value: &str) -> Option<bool> {
    match value.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "" | "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// `key`'s value as `parse` reads it; absent is `None`, a value `parse`
/// turns down is an [`CommError::InvalidConfig`] naming `key`. Every
/// `CGX_*` parser ([`RunOptions`], [`NetOptions`](crate::NetOptions),
/// [`NetFaultPlan`](crate::NetFaultPlan), `cgx_serve::ServeConfig`) is
/// written over this one function.
///
/// # Errors
///
/// [`CommError::InvalidConfig`] as above; `want` completes the sentence
/// "`key` must be …".
pub fn read<T>(
    get: &impl Fn(&str) -> Option<String>,
    key: &str,
    want: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, CommError> {
    let Some(v) = get(key) else {
        return Ok(None);
    };
    match parse(v.trim()) {
        Some(x) => Ok(Some(x)),
        None => Err(CommError::InvalidConfig {
            detail: format!("{key} must be {want}, got {v:?}"),
        }),
    }
}

/// How a launch runs its [`Workload`]: the fault-tolerance and
/// adaptive-compression knobs spawned workers read from the `CGX_*`
/// environment, so the coordinator's flags reach every rank without
/// explicit plumbing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOptions {
    /// Shrink-and-continue on unrecoverable peer loss.
    pub elastic: bool,
    /// Receive-timeout override (`None` keeps the fabric default).
    pub comm_timeout: Option<Duration>,
    /// The live controller's configuration; `None` keeps the static plan.
    pub adaptive: Option<AdaptiveTrainConfig>,
}

impl RunOptions {
    /// The options described by `CGX_ELASTIC`, `CGX_COMM_TIMEOUT_MS` and
    /// the `CGX_ADAPTIVE*` keys, read through `get` so the parse is pure
    /// and testable.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] naming the variable when a value is
    /// malformed — a misconfigured launch must fail loudly, not train
    /// silently on the defaults.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Self, CommError> {
        let base = AdaptiveTrainConfig::default();
        // Off, on with the default policy, or on with a named one; the
        // overrides belong to the switch and are not read without it.
        let policy = read(
            &get,
            ENV_ADAPTIVE,
            "a switch or a policy name",
            |v| match switch(v) {
                Some(on) => Some(on.then_some(base.policy)),
                None => AdaptiveTrainConfig::parse_policy(v).map(Some),
            },
        )?;
        let adaptive = match policy.flatten() {
            None => None,
            Some(policy) => Some(AdaptiveTrainConfig {
                policy,
                alpha: read(&get, ENV_ADAPTIVE_ALPHA, "a float above 0", |v| {
                    v.parse().ok().filter(|a: &f64| a.is_finite() && *a > 0.0)
                })?
                .unwrap_or(base.alpha),
                replan_interval: read(&get, ENV_ADAPTIVE_INTERVAL, "a step count above 0", |v| {
                    v.parse().ok().filter(|n| *n > 0)
                })?
                .unwrap_or(base.replan_interval),
                warmup: read(&get, ENV_ADAPTIVE_WARMUP, "a step count", |v| {
                    v.parse().ok()
                })?
                .unwrap_or(base.warmup),
                ..base
            }),
        };
        Ok(RunOptions {
            elastic: read(&get, ENV_ELASTIC, "a switch (1/0)", switch)?.unwrap_or(false),
            comm_timeout: read(&get, ENV_COMM_TIMEOUT_MS, "a count of milliseconds", |v| {
                v.parse().ok()
            })?
            .map(Duration::from_millis),
            adaptive,
        })
    }

    /// [`Self::parse`] over the real process environment — what spawned
    /// workers call.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn from_env() -> Result<Self, CommError> {
        Self::parse(|k| std::env::var(k).ok())
    }
}

/// What one rank's run produced, fault-tolerant form: a rank scheduled
/// to die reports `params: None`; survivors report their final replica
/// plus how much world they finished with and how many recovery epochs
/// it took to get there.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankRun {
    /// Final parameters as little-endian `f32` bytes, or `None` when
    /// this rank died per its fault plan.
    pub params: Option<Vec<u8>>,
    /// World size this rank finished with (0 for a dead rank).
    pub final_world: usize,
    /// Membership epochs completed after unrecoverable peer losses.
    pub recovery_epochs: usize,
    /// Digest of the adaptive plan trace when the live controller ran —
    /// identical on every rank of a correct run, whatever the fabric.
    pub plan_digest: Option<u64>,
}

/// A fully-specified training run: every rank constructs the same model,
/// task, and config from this value, so the only cross-rank channel is
/// the transport itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// World size.
    pub workers: usize,
    /// Optimization steps.
    pub steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Workload {
    /// The standard launch workload: small enough that a 4-process
    /// loopback run finishes in seconds, long enough that divergence
    /// between fabrics could not hide.
    pub fn standard(workers: usize) -> Self {
        Workload {
            workers,
            steps: 40,
            seed: 4242,
        }
    }

    /// Runs this rank's share over an already-connected endpoint. `kill`
    /// (`CGX_NET_KILL`'s `(rank, step)`, the same on every rank) becomes
    /// the trainer's [`TrainConfig::kill`]: the rank it names
    /// returns `params: None` at the top of that step, its endpoint still
    /// open, and with `opts.elastic` the survivors shrink the world and
    /// finish. With `opts.adaptive` per-layer bit-widths re-plan mid-run
    /// from observed gradient norms, byte-identically on every rank (the
    /// returned [`RankRun::plan_digest`] is the proof).
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidConfig`] if `topology` disagrees with the
    /// endpoint's world size; otherwise propagates
    /// collective-communication failures that recovery could not mask.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's world is not `self.workers`.
    pub fn run_rank(
        &self,
        t: &dyn Transport,
        topology: Option<Topology>,
        opts: &RunOptions,
        kill: Option<(usize, usize)>,
    ) -> Result<RankRun, CommError> {
        assert_eq!(t.world(), self.workers, "endpoint world mismatch");
        let model = Mlp::new(&mut Rng::seed_from_u64(self.seed ^ 0xB00), &[8, 16, 4]);
        let task = GaussianMixture::new(4, 8, 1.5);
        let cfg = TrainConfig {
            seed: self.seed,
            compression: LayerCompression::cgx_default(),
            lr: 0.2,
            topology,
            elastic: opts.elastic,
            comm_timeout: opts.comm_timeout,
            adaptive: opts.adaptive.clone(),
            kill,
            ..TrainConfig::new(self.workers, self.steps)
        };
        let pool = ScratchPool::new();
        let sampler = |r: &mut Rng| task.sample_batch(r, 16);
        Ok(match train_rank(t, &model, &sampler, &cfg, &pool)? {
            Some(out) => RankRun {
                final_world: out.final_world,
                recovery_epochs: out.recovery_epochs,
                plan_digest: out.adaptive.as_ref().map(|t| t.digest()),
                params: Some(params_bytes(&out.model)),
            },
            None => RankRun::default(),
        })
    }

    /// Runs the same workload on the in-process shared-memory fabric and
    /// returns rank 0's run after asserting every rank produced the same
    /// one — byte-identical parameters *and*, when adaptive, the same plan
    /// sequence: the reference a TCP run must match byte for byte.
    ///
    /// # Errors
    ///
    /// As [`Self::run_rank`].
    ///
    /// # Panics
    ///
    /// Panics if any rank diverges from rank 0.
    pub fn run_reference_shm(
        &self,
        topology: Option<Topology>,
        opts: &RunOptions,
    ) -> Result<RankRun, CommError> {
        let runs = ThreadCluster::try_run(self.workers, |raw: ShmTransport| {
            self.run_rank(&raw, topology.clone(), opts, None)
        })?;
        for (rank, other) in runs.iter().enumerate().skip(1) {
            assert_eq!(runs[0], *other, "rank {rank} diverged from rank 0");
        }
        Ok(runs.into_iter().next().expect("at least one rank"))
    }
}

/// Serializes a model's parameters as little-endian `f32` bytes, in
/// forward order — the byte-comparable fingerprint of a replica.
pub fn params_bytes(model: &Mlp) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in model.params() {
        for v in p.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `get` over a literal table.
    pub(crate) fn env(map: &'static [(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        move |k| {
            map.iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.to_string())
        }
    }

    /// `parsed` must be the [`CommError::InvalidConfig`] that names the
    /// variable and quotes the value it refused.
    pub(crate) fn assert_names<T: std::fmt::Debug>(
        parsed: Result<T, CommError>,
        key: &str,
        value: &str,
    ) {
        match parsed {
            Err(CommError::InvalidConfig { detail }) => {
                assert!(detail.contains(key), "{key}={value}: {detail}");
                assert!(detail.contains(value), "{key}={value}: {detail}");
            }
            other => panic!("{key}={value}: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn shm_reference_is_deterministic_across_invocations() {
        let w = Workload::standard(2);
        let a = w
            .run_reference_shm(None, &RunOptions::default())
            .expect("run");
        let b = w
            .run_reference_shm(None, &RunOptions::default())
            .expect("run");
        assert!(!a.params.as_ref().expect("survived").is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn env_parser_handles_switches_policy_and_overrides() {
        // Nothing set: the static, non-elastic run on fabric defaults.
        assert_eq!(RunOptions::parse(env(&[])).unwrap(), RunOptions::default());
        // One switch list for both switches, either case.
        for (word, on) in [("1", true), ("on", true), ("TRUE", true), ("yes", true)]
            .into_iter()
            .chain([
                ("", false),
                ("0", false),
                ("off", false),
                ("No", false),
                ("false", false),
            ])
        {
            let get =
                move |k: &str| matches!(k, ENV_ELASTIC | ENV_ADAPTIVE).then(|| word.to_string());
            let opts = RunOptions::parse(get).unwrap();
            assert_eq!(opts.elastic, on, "CGX_ELASTIC={word:?}");
            assert_eq!(opts.adaptive.is_some(), on, "CGX_ADAPTIVE={word:?}");
        }
        // Truthy adaptive switch: defaults.
        let opts = RunOptions::parse(env(&[("CGX_ADAPTIVE", "1")])).unwrap();
        assert_eq!(opts.adaptive, Some(AdaptiveTrainConfig::default()));
        // Timeout, policy name and numeric overrides.
        let opts = RunOptions::parse(env(&[
            ("CGX_COMM_TIMEOUT_MS", "2000"),
            ("CGX_ADAPTIVE", "linear"),
            ("CGX_ADAPTIVE_ALPHA", "3.5"),
            ("CGX_ADAPTIVE_INTERVAL", "16"),
            ("CGX_ADAPTIVE_WARMUP", "2"),
        ]))
        .unwrap();
        assert_eq!(opts.comm_timeout, Some(Duration::from_secs(2)));
        let cfg = opts.adaptive.expect("enabled");
        assert_eq!(
            cfg.policy,
            AdaptiveTrainConfig::parse_policy("linear").unwrap()
        );
        assert_eq!(cfg.alpha, 3.5);
        assert_eq!(cfg.replan_interval, 16);
        assert_eq!(cfg.warmup, 2);
        // The overrides belong to the switch: without it they are not read.
        let opts = RunOptions::parse(env(&[("CGX_ADAPTIVE_ALPHA", "oops")])).unwrap();
        assert_eq!(opts.adaptive, None);
    }

    #[test]
    fn env_parser_names_the_malformed_variable() {
        // A value the parser cannot read is never a silent default (`"2s"`
        // is not "no timeout override", `"maybe"` is not "elastic on") and
        // never a panic: every key fails the same typed way.
        let cases: [&'static [(&str, &str)]; 7] = [
            &[("CGX_COMM_TIMEOUT_MS", "2s")],
            &[("CGX_ELASTIC", "maybe")],
            &[("CGX_ADAPTIVE", "quantum-annealing")],
            &[("CGX_ADAPTIVE", "1"), ("CGX_ADAPTIVE_ALPHA", "big")],
            &[("CGX_ADAPTIVE", "1"), ("CGX_ADAPTIVE_ALPHA", "-1")],
            &[("CGX_ADAPTIVE", "1"), ("CGX_ADAPTIVE_INTERVAL", "0")],
            &[("CGX_ADAPTIVE", "1"), ("CGX_ADAPTIVE_WARMUP", "-3")],
        ];
        for map in cases {
            let (key, value) = *map.last().unwrap();
            assert_names(RunOptions::parse(env(map)), key, value);
        }
    }

    #[test]
    fn topology_changes_the_reduction_but_keeps_consensus() {
        let w = Workload::standard(4);
        let opts = RunOptions::default();
        let flat = w.run_reference_shm(None, &opts).expect("flat");
        let hier = w
            .run_reference_shm(Some(Topology::grouped(2, 2)), &opts)
            .expect("hierarchical");
        // Consensus inside each run is asserted by run_reference_shm;
        // across association orders the floats legitimately differ.
        assert_eq!(flat.params.unwrap().len(), hier.params.unwrap().len());
    }
}
