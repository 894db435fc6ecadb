//! Runs the generic [`cgx_collectives::conformance`] battery against the
//! TCP transport over loopback sockets — the same suite the in-process
//! `ShmTransport` passes. Tag demux, per-tag FIFO, deadline semantics,
//! stash-beats-disconnect, quiesce: one contract, two fabrics.

use cgx_collectives::conformance::{self, BoxTransport};
use cgx_collectives::reduce::Algorithm;
use cgx_collectives::{CommEngine, Transport};
use cgx_compress::{NoneCompressor, ScratchPool};
use cgx_net::TcpFabric;
use cgx_tensor::{Rng, Tensor};
use std::sync::Barrier;
use std::time::Duration;

fn tcp_builder(n: usize) -> Vec<BoxTransport> {
    TcpFabric::build_local(n)
        .into_iter()
        .map(|t| Box::new(t) as BoxTransport)
        .collect()
}

#[test]
fn tcp_transport_satisfies_the_transport_contract() {
    conformance::run_all(&tcp_builder);
}

/// A rank whose last `wait` has returned may stop calling its transport.
/// Its final small frames must not sit in the coalescing queue meanwhile:
/// the peer's own `wait` is still parked on them.
#[test]
fn finished_engine_leaves_no_frames_in_the_coalescer() {
    let mut ends = TcpFabric::build_local(2);
    for t in &mut ends {
        t.set_timeout(Duration::from_secs(3));
    }
    // Holds both endpoints open past the waits: dropping one flushes it.
    let both_done = Barrier::new(2);
    std::thread::scope(|scope| {
        for t in ends {
            let both_done = &both_done;
            scope.spawn(move || {
                let mine = t.rank() as f32 + 1.0;
                let mut rng = Rng::seed_from_u64(3);
                // Rank 1 starts once rank 0 is parked on it, so that rank 0
                // ends by finding all it needs already delivered and never
                // parks (and so never flushes) again.
                while t.rank() == 1 && !t.wait_any_inbound(Duration::from_millis(50)) {}
                let mut engine = CommEngine::with_defaults(&t, ScratchPool::new());
                let handles: Vec<_> = (16..21)
                    .map(|len| {
                        let grad = Tensor::from_vec(&[len], vec![mine; len]);
                        let codec = Box::new(NoneCompressor::new());
                        engine.submit(Algorithm::ScatterReduceAllgather, &grad, codec, &mut rng)
                    })
                    .collect();
                let sums: Result<Vec<_>, _> = handles.into_iter().map(|h| engine.wait(h)).collect();
                both_done.wait();
                for (sum, ..) in sums.expect("both ranks finish with no flush from the caller") {
                    assert!(sum.as_slice().iter().all(|v| *v == 3.0));
                }
            });
        }
    });
}
