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

/// `key`'s value as `parse` reads it; absent is `None`, a value `parse`
/// turns down is an [`CommError::InvalidConfig`] naming `key` and quoting
/// the value. `get` is the process environment for a worker's identity
/// ([`WorkerEnv`](crate::cluster::WorkerEnv)) and a binary's argv, through
/// [`flags`], for everything else.
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

/// `args` as a `get` for [`read`]: each of `valued` takes the next
/// argument as its value, each of `switches` stands alone (its value is
/// the empty string), and a flag given twice keeps its last value.
///
/// # Errors
///
/// [`CommError::InvalidConfig`] for an argument that is no flag, a valued
/// flag without a value, or a value after a switch (naming the switch).
pub fn flags(
    args: impl IntoIterator<Item = String>,
    valued: &[&str],
    switches: &[&str],
) -> Result<impl Fn(&str) -> Option<String>, CommError> {
    let invalid = |detail| CommError::InvalidConfig { detail };
    let mut given: Vec<(String, String)> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if switches.contains(&arg.as_str()) {
            given.push((arg, String::new()));
        } else if valued.contains(&arg.as_str()) {
            let value = args
                .next()
                .ok_or_else(|| invalid(format!("{arg} needs a value")))?;
            given.push((arg, value));
        } else {
            return Err(invalid(match given.last() {
                Some((last, _)) if switches.contains(&last.as_str()) && !arg.starts_with("--") => {
                    format!("{last} takes no value, got {arg:?}")
                }
                _ => format!("unknown argument {arg:?}"),
            }));
        }
    }
    Ok(move |key: &str| {
        given
            .iter()
            .rev()
            .find(|(flag, _)| flag == key)
            .map(|(_, v)| v.clone())
    })
}

/// How a launch runs its [`Workload`]: the fault-tolerance and
/// adaptive-compression settings, which `cgx-launch` reads from its flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOptions {
    /// Shrink-and-continue on unrecoverable peer loss.
    pub elastic: bool,
    /// Receive-timeout override (`None` keeps the fabric default).
    pub comm_timeout: Option<Duration>,
    /// The live controller's configuration; `None` keeps the static plan.
    pub adaptive: Option<AdaptiveTrainConfig>,
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
    /// (`cgx-launch --kill`'s `(rank, step)`, the same on every rank) becomes
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
    fn flags_take_values_stand_switches_alone_and_refuse_the_rest() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let get = flags(
            argv(&["--n", "1", "--on", "--n", "-2"]),
            &["--n"],
            &["--on"],
        )
        .unwrap();
        assert_eq!(get("--n").as_deref(), Some("-2"), "the last value wins");
        assert_eq!(get("--on").as_deref(), Some(""));
        assert_eq!(get("--off"), None);
        for (args, names) in [
            (&["--on", "maybe"][..], "--on takes no value, got \"maybe\""),
            (&["--n"][..], "--n needs a value"),
            (&["--m", "1"][..], "unknown argument \"--m\""),
        ] {
            match flags(argv(args), &["--n"], &["--on"]) {
                Err(CommError::InvalidConfig { detail }) => assert_eq!(detail, names),
                Ok(_) => panic!("{args:?} parsed"),
                Err(other) => panic!("{args:?}: {other:?}"),
            }
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
