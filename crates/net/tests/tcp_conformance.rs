//! Runs the generic [`cgx_testkit::conformance`] battery against the
//! TCP transport over loopback sockets — the same suite the in-process
//! `ShmTransport` passes. Tag demux, per-tag FIFO, deadline semantics,
//! stash-beats-disconnect, quiesce: one contract, two fabrics.

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::{CommEngine, Transport};
use cgx_compress::{CompressionScheme, Encoded, NoneCompressor, ScratchPool};
use cgx_net::tcp::READ_BUF_BYTES;
use cgx_net::wire::frame_wire_bytes;
use cgx_net::TcpFabric;
use cgx_tensor::{Rng, Shape, Tensor};
use cgx_testkit::conformance::{self, BoxTransport};
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

/// One `park` is one `poll(2)`, which wakes at least every 50 ms.
#[test]
fn a_receive_on_a_silent_tag_does_not_spin_on_an_unrelated_stash() {
    conformance::check_silent_tag_parks_boundedly(&tcp_builder, Duration::from_millis(50));
}

/// One receiving thread polls the sockets; the others wait on the
/// endpoint's condvar, and whoever takes a frame in wakes them.
#[test]
fn many_receivers_share_one_endpoint() {
    conformance::check_many_receivers(&tcp_builder);
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
                while t.rank() == 1 && t.arrivals() == 0 {
                    t.park(0, Duration::from_millis(50));
                }
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

/// Frames one byte short of the read buffer, exactly it, one byte over
/// and far beyond (1 MiB, split across many reads and growing the
/// buffer), each between small frames on other tags: every tag's frames
/// arrive in order with their bytes intact, and both ends count the same
/// wire bytes.
#[test]
fn frames_around_and_beyond_the_read_window_arrive_whole_and_counted() {
    const BIG: u64 = 1;
    const BEFORE: u64 = 2;
    const AFTER: u64 = 3;
    let frame = |len: usize, salt: usize| {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + salt) as u8).collect();
        Encoded::new(Shape::vector(len), bytes.into())
    };
    let overhead = frame_wire_bytes(1, 0);
    let sizes = [
        READ_BUF_BYTES - overhead - 1,
        READ_BUF_BYTES - overhead,
        READ_BUF_BYTES - overhead + 1,
        1 << 20,
    ];
    let mut ends = TcpFabric::build_local(2);
    let to = ends.pop().expect("rank 1");
    let from = ends.pop().expect("rank 0");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (k, &len) in sizes.iter().enumerate() {
                from.send_tagged(1, BEFORE, frame(5, k))
                    .expect("small frame ahead");
                from.send_tagged(1, BIG, frame(len, k))
                    .expect("large frame");
                from.send_tagged(1, AFTER, frame(9, k))
                    .expect("small frame behind");
            }
        });
        // One lane at a time, so the other two lanes' frames are
        // stashed around the large ones and claimed afterwards.
        let lanes = [(BIG, None), (BEFORE, Some(5)), (AFTER, Some(9))];
        for (tag, small) in lanes {
            for (k, &len) in sizes.iter().enumerate() {
                let got = to.recv_tagged(0, tag).expect("frame arrives");
                let want = frame(small.unwrap_or(len), k);
                assert_eq!(got.shape(), want.shape(), "tag {tag} frame {k}");
                assert!(got.payload() == want.payload(), "tag {tag} frame {k}");
            }
        }
    });
    let wire: usize = sizes.iter().map(|&len| frame_wire_bytes(1, len)).sum();
    let wire = (wire + sizes.len() * (frame_wire_bytes(1, 5) + frame_wire_bytes(1, 9))) as u64;
    assert_eq!(from.wire_bytes_sent(), wire);
    assert_eq!(to.wire_bytes_received(), wire);
}

/// The paper's claim as counted by the sockets: one scatter-reduce-
/// allgather of 65,536 elements sends at least 6× fewer bytes per rank
/// under 4-bit QSGD (bucket 128) than uncompressed, frame headers and
/// bucket norms included. Byte counts are deterministic; nothing is timed.
#[test]
fn four_bit_qsgd_cuts_socket_bytes_sixfold() {
    let sent_per_rank = |world: usize, scheme: CompressionScheme| -> u64 {
        let ends = TcpFabric::build_local(world);
        std::thread::scope(|s| {
            let ranks: Vec<_> = ends
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let grad =
                            Tensor::randn(&mut Rng::seed_from_u64(7 + t.rank() as u64), &[1 << 16]);
                        let mut rng = Rng::seed_from_u64(11 + t.rank() as u64);
                        let before = t.wire_bytes_sent();
                        CommEngine::with_defaults(&t, ScratchPool::new())
                            .allreduce(
                                Algorithm::ScatterReduceAllgather,
                                &grad,
                                scheme.build(),
                                &mut rng,
                            )
                            .expect("allreduce");
                        t.wire_bytes_sent() - before
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|r| r.join().expect("rank"))
                .max()
                .expect("ranks")
        })
    };
    // 262198 / 34870 B at world 2 and 393378 / 52386 at world 4: 7.5×.
    for world in [2, 4] {
        let fp32 = sent_per_rank(world, CompressionScheme::None);
        let q4 = sent_per_rank(
            world,
            CompressionScheme::Qsgd {
                bits: 4,
                bucket_size: 128,
            },
        );
        assert!(
            fp32 >= 6 * q4,
            "world {world}: {fp32} B uncompressed against {q4} B at 4 bits"
        );
    }
}
