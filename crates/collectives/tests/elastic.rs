//! Shrink and continue, at the collectives layer: after a fail-stop peer
//! death, the survivors agree on a new membership epoch and the engine
//! completes collectives on the shrunken world over epoch-scoped lanes.

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::transport::exchange_quiesce_markers;
use cgx_collectives::{
    agree, CommEngine, CommError, EngineOptions, Membership, MembershipView, ShmTransport,
    ThreadCluster, Transport,
};
use cgx_compress::{CompressionScheme, ScratchPool};
use cgx_tensor::{Rng, Tensor};
use std::time::Duration;

const WORLD: usize = 4;

#[test]
fn survivors_agree_and_continue_on_shrunken_world() {
    // Rank 2 fail-stops before the collective; the other three detect it,
    // run membership agreement, and redo the allreduce on the shrunken
    // world over the next epoch's lanes.
    let outs = ThreadCluster::try_run(WORLD, |mut t: ShmTransport| {
        t.set_timeout(Duration::from_millis(400));
        let t: &dyn Transport = &t;
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
        assert!(!membership.physical_ranks().contains(&2));
        let view = MembershipView::new(t, &membership);
        let mut eng = CommEngine::new(&view, pool.clone(), EngineOptions { epoch: 1 });
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
        assert_eq!(
            s.as_slice(),
            expected.as_slice(),
            "wrong shrunken-world sum"
        );
    }
}
