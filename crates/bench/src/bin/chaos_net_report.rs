//! Net-level chaos report: how fast the TCP fabric notices a dead peer,
//! how it heals transient socket drops, and whether elastic recovery
//! over real sockets finishes the run on the survivors.
//!
//! Emits `BENCH_chaos_net.json`. Four measured scenarios:
//!
//! - **EOF detection** — a peer drops its endpoint (orderly FIN); the
//!   survivor's next receive must surface a typed peer error. Latency is
//!   socket-bound: expected well under a millisecond on loopback.
//! - **Frozen-peer detection** — the peer's socket stays open but its
//!   process stops making progress (the SIGSTOP/GC-pause shape a FIN
//!   never reports). With heartbeats armed the liveness deadline
//!   converts silence into [`CommError::PeerDead`]; latency lands just
//!   past the configured deadline.
//! - **Reconnect heal** — the wire path drops a socket mid-stream after
//!   N frames; the jittered-backoff redial resynchronizes sequence state
//!   and every queued frame is delivered in order.
//! - **Elastic shrink** — a 4-rank TCP training run loses rank 2 at step
//!   8; membership agreement shrinks the world and the survivors finish
//!   with consensus-identical replicas. A run that completes `Ok` is the
//!   proof of zero post-shrink step failures: any failed step would
//!   surface as an error.

use cgx_collectives::{CommError, Transport};
use cgx_compress::Encoded;
use cgx_net::workload::{RunOptions, Workload};
use cgx_net::{NetOptions, ReconnectPolicy, ResetPlan, TcpFabric};
use cgx_tensor::Shape;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(10);
/// Seed of the redial schedule's jitter.
const SEED: u64 = 7;

fn payload(seed: u8) -> Encoded {
    Encoded::new(Shape::vector(4), vec![seed; 4].into())
}

/// Orderly death: peer drops its endpoint, survivor's receive errors.
fn measure_eof_detection() -> f64 {
    let mut eps = TcpFabric::build_local(2);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    let start = Instant::now();
    drop(b);
    let err = a
        .recv_tagged_deadline(1, 9, WAIT)
        .expect_err("peer is gone");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(err.peer(), Some(1), "error must name the dead peer");
    ms
}

/// Frozen peer: socket open, process silent. Heartbeat deadline fires.
fn measure_frozen_detection(interval: Duration, deadline: Duration) -> f64 {
    let opts = NetOptions::default().with_heartbeat(interval, deadline);
    let mut eps = TcpFabric::build_local_with(2, opts);
    let b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    let (ms, err) = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        // The frozen rank holds its endpoint open but never pumps —
        // no heartbeats, no reads, no FIN.
        s.spawn(move || {
            let _ = rx.recv_timeout(WAIT);
            drop(b);
        });
        let start = Instant::now();
        let err = a
            .recv_tagged_deadline(1, 9, WAIT)
            .expect_err("frozen peer must miss its liveness deadline");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = tx.send(());
        (ms, err)
    });
    assert!(
        matches!(err, CommError::PeerDead { rank: 1 }),
        "silence past the deadline must be PeerDead, got {err:?}"
    );
    ms
}

/// Transient drop: socket dies after 3 frames, backoff redial heals it.
fn measure_reconnect_heal() -> (u64, u64, f64) {
    const FRAMES: u8 = 10;
    let policy = ReconnectPolicy::new(
        Duration::from_millis(5),
        Duration::from_millis(100),
        8,
        SEED,
    );
    let opts = NetOptions::default().with_reconnect(policy);
    let mut eps = TcpFabric::build_local_with(2, opts);
    let mut b = eps.pop().expect("rank 1");
    let a = eps.pop().expect("rank 0");
    b.set_reset(ResetPlan {
        rank: 1,
        peer: 0,
        after_frames: 3,
    });
    let start = Instant::now();
    let (reconnects, wall_ms) = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let sender = s.spawn(move || {
            for i in 0..FRAMES {
                b.send_tagged(0, 21, payload(i))
                    .expect("send through reset");
            }
            b.flush_outbound().expect("flush");
            // Hold the endpoint until the receiver drains everything.
            let _ = rx.recv_timeout(WAIT);
            b.reconnects()
        });
        for i in 0..FRAMES {
            let got = a
                .recv_tagged_deadline(1, 21, WAIT)
                .expect("frame survives the reset");
            assert_eq!(got.payload().as_ref(), &[i; 4], "frame {i} out of order");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = tx.send(());
        (sender.join().expect("sender thread"), wall_ms)
    });
    let total_reconnects = reconnects + a.reconnects();
    assert!(
        total_reconnects >= 1,
        "the reset must have forced at least one reconnect"
    );
    (u64::from(FRAMES), total_reconnects, wall_ms)
}

struct ElasticOutcome {
    final_world: usize,
    recovery_epochs: usize,
    wall_ms: f64,
}

/// 4-rank TCP run, rank 2 dies at step 8, survivors finish on world 3.
fn measure_elastic_shrink() -> ElasticOutcome {
    let world = 4;
    let victim = 2;
    let work = Workload::standard(world);
    let opts = RunOptions {
        elastic: true,
        comm_timeout: Some(Duration::from_secs(2)),
        adaptive: None,
    };
    let endpoints = TcpFabric::build_local(world);
    let start = Instant::now();
    let runs: Vec<_> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in endpoints {
            let work = &work;
            let opts = &opts;
            handles.push(s.spawn(move || {
                work.run_rank(&t, None, opts, Some((victim, 8)))
                    .expect("rank run")
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(runs[victim].params.is_none(), "victim must die on schedule");
    let survivors: Vec<usize> = (0..world).filter(|&r| r != victim).collect();
    let first = runs[survivors[0]].params.as_ref().expect("replica");
    for &rank in &survivors {
        assert_eq!(
            runs[rank].params.as_ref().expect("replica"),
            first,
            "rank {rank} replica diverged after the shrink"
        );
        assert_eq!(runs[rank].final_world, world - 1);
    }
    ElasticOutcome {
        final_world: runs[survivors[0]].final_world,
        recovery_epochs: runs[survivors[0]].recovery_epochs,
        wall_ms,
    }
}

fn main() {
    let hb_interval = Duration::from_millis(20);
    let hb_deadline = Duration::from_millis(200);

    let eof_ms = measure_eof_detection();
    let frozen_ms = measure_frozen_detection(hb_interval, hb_deadline);
    let (frames, reconnects, heal_ms) = measure_reconnect_heal();
    let elastic = measure_elastic_shrink();

    assert!(
        frozen_ms >= hb_deadline.as_secs_f64() * 1e3 * 0.9,
        "frozen-peer detection ({frozen_ms:.1}ms) cannot beat the deadline"
    );
    assert!(
        frozen_ms < 5_000.0,
        "frozen-peer detection took {frozen_ms:.1}ms — deadline not enforced"
    );
    assert!(elastic.recovery_epochs >= 1);

    let json = format!(
        "{{\n  \"seed\": {SEED},\n  \"detection\": {{\"eof_ms\": {eof_ms:.3}, \
         \"frozen_heartbeat_ms\": {frozen_ms:.1}, \"heartbeat_interval_ms\": {}, \
         \"heartbeat_deadline_ms\": {}}},\n  \"reconnect\": {{\"frames_sent\": {frames}, \
         \"reconnects\": {reconnects}, \"frames_delivered\": {frames}, \
         \"wall_ms\": {heal_ms:.1}}},\n  \"elastic\": {{\"world\": 4, \"killed_rank\": 2, \
         \"kill_step\": 8, \"final_world\": {}, \"recovery_epochs\": {}, \
         \"post_shrink_step_failures\": 0, \"wall_ms\": {:.1}}}\n}}\n",
        hb_interval.as_millis(),
        hb_deadline.as_millis(),
        elastic.final_world,
        elastic.recovery_epochs,
        elastic.wall_ms,
    );
    std::fs::write("BENCH_chaos_net.json", &json).expect("write BENCH_chaos_net.json");
    print!("{json}");
    println!(
        "detection: EOF {eof_ms:.3}ms, frozen-with-heartbeats {frozen_ms:.1}ms \
         (deadline {}ms)",
        hb_deadline.as_millis()
    );
    println!(
        "reconnect: {frames} frames through an injected reset, {reconnects} redial(s), \
         all delivered in order"
    );
    println!(
        "elastic: rank 2 killed at step 8, survivors finished on world {} \
         ({} recovery epoch(s), 0 post-shrink step failures)",
        elastic.final_world, elastic.recovery_epochs
    );
}
