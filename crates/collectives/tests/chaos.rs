//! Chaos integration suite: deterministic fault injection across a seed
//! matrix, checking the three robustness guarantees end to end at the
//! collectives layer:
//!
//! 1. **Transparency** — transient drops, corruption, duplication and
//!    delays are masked by the checksummed-retransmission layer without
//!    changing one delivered byte.
//! 2. **Bounded loss** — when retransmission cannot help (every attempt
//!    is lost), `CommError::Lost` surfaces within the retry budget instead
//!    of a hang.
//! 3. **Shrink and continue** — after a fail-stop peer death, survivors
//!    agree on a new membership epoch and the engine completes collectives
//!    on the shrunken world over epoch-scoped lanes.
//!
//! CI sweeps the `CHAOS_SEED` environment variable so every run replays a
//! different (but fully reproducible) fault schedule.

use cgx_collectives::reduce::{allreduce_scratch, Algorithm};
use cgx_collectives::transport::exchange_quiesce_markers;
use cgx_collectives::{
    agree, ChaosTransport, CommEngine, CommError, EngineOptions, FaultPlan, Membership,
    MembershipView, ShmTransport, ThreadCluster, Transport,
};
use cgx_compress::{CompressionScheme, ScratchPool};
use cgx_tensor::{Rng, Tensor};
use std::time::Duration;

const WORLD: usize = 4;
const LAYERS: usize = 12;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Every transient fault class at a few percent per frame.
fn transient_plan() -> FaultPlan {
    FaultPlan::new(chaos_seed())
        .with_drop(0.03)
        .with_corrupt(0.02)
        .with_duplicate(0.02)
        .with_delay(0.02, Duration::from_micros(200))
}

fn layer_specs() -> Vec<(usize, CompressionScheme)> {
    let schemes = [
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::None,
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        },
        CompressionScheme::TopK { ratio: 0.25 },
    ];
    let mut lens = Rng::seed_from_u64(0xC4A0);
    (0..LAYERS)
        .map(|i| {
            let len = (lens.next_u64() % 3000 + 16) as usize | 1;
            (len, schemes[i % schemes.len()])
        })
        .collect()
}

fn rank_grads(specs: &[(usize, CompressionScheme)], rank: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(0xD1CE + rank as u64 * 31);
    specs
        .iter()
        .map(|(len, _)| Tensor::randn(&mut rng, &[*len]))
        .collect()
}

/// Runs the engine over every layer on a (possibly chaotic) fabric and
/// returns each rank's results plus the total faults injected fleet-wide.
fn run_engine(plan: Option<FaultPlan>) -> (Vec<Vec<Tensor>>, usize) {
    let specs = layer_specs();
    let outs = ThreadCluster::try_run(WORLD, |raw: ShmTransport| {
        let mut chaos = None;
        let t: &dyn Transport = match &plan {
            Some(p) => chaos.insert(ChaosTransport::new(raw, p.clone())),
            None => &raw,
        };
        let grads = rank_grads(&specs, t.rank());
        let mut master = Rng::seed_from_u64(0xAB5);
        let mut eng = CommEngine::new(t, ScratchPool::new(), EngineOptions::default());
        let handles: Vec<_> = grads
            .iter()
            .zip(&specs)
            .map(|(g, (_, scheme))| {
                eng.submit(Algorithm::ScatterReduceAllgather, g, scheme.build(), &mut master)
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| eng.wait(h).map(|r| r.0))
            .collect::<Result<Vec<Tensor>, CommError>>()?;
        let all: Vec<usize> = (0..WORLD).collect();
        exchange_quiesce_markers(t, &all);
        let injected = chaos.map_or(0, |c| c.fault_stats().injected_total());
        Ok::<_, CommError>((results, injected))
    })
    .expect("chaos cluster");
    let injected = outs.iter().map(|(_, n)| n).sum();
    (outs.into_iter().map(|(r, _)| r).collect(), injected)
}

fn assert_consensus(by_rank: &[Vec<Tensor>]) {
    for (r, replica) in by_rank.iter().enumerate().skip(1) {
        for (i, (a, b)) in replica.iter().zip(&by_rank[0]).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "rank {r} disagrees with rank 0 on layer {i}"
            );
        }
    }
}

#[test]
fn transient_chaos_is_byte_transparent() {
    let (clean, zero) = run_engine(None);
    assert_eq!(zero, 0, "plain fabric reported injected faults");
    let (chaos, injected) = run_engine(Some(transient_plan()));
    assert!(
        injected > 0,
        "seed {} injected nothing over {LAYERS} layers",
        chaos_seed()
    );
    assert_consensus(&chaos);
    for (i, (a, b)) in chaos[0].iter().zip(&clean[0]).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "chaos changed delivered bytes on layer {i}"
        );
    }
}

#[test]
fn unrecoverable_loss_surfaces_within_budget() {
    // Every frame dropped, retransmissions included: the reliability
    // layer must give up with a peer-scoped error once the evidence-based
    // budget is spent — never hang, never deliver garbage.
    let plan = FaultPlan::new(chaos_seed())
        .with_drop(1.0)
        .with_retry(4, Duration::from_micros(100));
    let err = ThreadCluster::try_run(2, |mut raw: ShmTransport| {
        raw.set_timeout(Duration::from_millis(500));
        let t = ChaosTransport::new(raw, plan.clone());
        let g = Tensor::from_vec(&[64], vec![Transport::rank(&t) as f32 + 1.0; 64]);
        let mut rng = Rng::seed_from_u64(1);
        let mut comp = CompressionScheme::None.build();
        let pool = ScratchPool::new();
        allreduce_scratch(
            Algorithm::ScatterReduceAllgather,
            &t,
            &g,
            comp.as_mut(),
            &mut rng,
            &pool,
        )
        .map(|_| ())
    })
    .unwrap_err();
    // Both ranks starve, so the cluster aggregates; each underlying
    // failure must still be peer-scoped: Lost once the budget is spent,
    // Timeout if the deadline lands first, or Disconnected when the other
    // rank already gave up and dropped its endpoint.
    match &err {
        CommError::MultipleFailures { failures } => {
            assert!(!failures.is_empty());
            for (_, msg) in failures {
                assert!(
                    msg.contains("Lost") || msg.contains("Timeout") || msg.contains("Disconnected"),
                    "unexpected failure under total loss: {msg}"
                );
            }
        }
        other => assert!(
            other.peer().is_some(),
            "expected peer-scoped failure, got {other:?}"
        ),
    }
}

#[test]
fn survivors_agree_and_continue_on_shrunken_world() {
    // Rank 2 fail-stops before the collective; the other three detect it,
    // run membership agreement under transient chaos, and redo the
    // allreduce on the shrunken world over the next epoch's lanes.
    let outs = ThreadCluster::try_run(WORLD, |mut raw: ShmTransport| {
        raw.set_timeout(Duration::from_millis(400));
        let endpoint = ChaosTransport::new(raw, transient_plan());
        let t: &dyn Transport = &endpoint;
        if t.rank() == 2 {
            return Ok::<_, CommError>(None); // fail-stop: endpoint drops here
        }
        let pool = ScratchPool::new();
        let mut rng = Rng::seed_from_u64(7);
        let vals: Vec<f32> = (0..257).map(|i| (t.rank() * 1000 + i) as f32).collect();
        let g = Tensor::from_vec(&[257], vals);
        // First attempt: poisoned by the dead peer.
        let mut eng = CommEngine::new(t, pool.clone(), EngineOptions::default());
        let h = eng.submit(
            Algorithm::ScatterReduceAllgather,
            &g,
            CompressionScheme::None.build(),
            &mut rng,
        );
        let err = match eng.wait(h) {
            Ok(_) => panic!("dead peer must poison the op"),
            Err(e) => e,
        };
        let suspect = err.peer().expect("peer-scoped failure");
        drop(eng);
        // Membership agreement + epoch-scoped retry among survivors.
        let (membership, _) = agree(t, &Membership::full(WORLD), &[suspect], 1, t.timeout());
        assert_eq!(membership.epoch(), 1);
        assert_eq!(membership.num_alive(), WORLD - 1);
        assert!(!membership.is_alive(2));
        let view = MembershipView::new(t, &membership);
        let mut eng = CommEngine::new(
            &view,
            pool.clone(),
            EngineOptions {
                epoch: 1,
                ..EngineOptions::default()
            },
        );
        let h = eng.submit(
            Algorithm::ScatterReduceAllgather,
            &g,
            CompressionScheme::None.build(),
            &mut rng,
        );
        let (sum, stats, _) = eng.wait(h).expect("post-recovery allreduce");
        assert!(stats.bytes_sent > 0);
        exchange_quiesce_markers(t, &membership.physical_ranks());
        Ok(Some(sum))
    })
    .expect("survivors must not fail");
    let survivors: Vec<Tensor> = outs.into_iter().flatten().collect();
    assert_eq!(survivors.len(), WORLD - 1);
    // Exact expected sum over ranks {0, 1, 3}: all inputs are small
    // integers, so f32 addition is exact in any order.
    let expected: Vec<f32> = (0..257)
        .map(|i| [0usize, 1, 3].iter().map(|r| (r * 1000 + i) as f32).sum())
        .collect();
    for s in &survivors {
        assert_eq!(s.as_slice(), expected.as_slice(), "wrong shrunken-world sum");
    }
}
