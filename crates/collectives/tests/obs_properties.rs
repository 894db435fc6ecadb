//! Properties of the observability layer threaded through the engine.
//!
//! Three invariants from the obs design, checked over randomized layer
//! inventories (seeded `Rng` sweeps — the offline harness has no external
//! property-test crate):
//!
//! 1. **Accounting is bounded by the clock**: per collective,
//!    `compress_ns + wait_ns + decode_ns` never exceeds the wall time the
//!    run had available — the three components are disjoint slices of the
//!    same thread's time.
//! 2. **Concurrency respects the cap**: the live machines the event stream
//!    shows never outnumber the engine's eight.
//! 3. **Recording is free when off and invisible when on**: a disabled
//!    recorder stores exactly zero events across a full run, and enabling
//!    recording changes no delivered byte.

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::{AllreduceStats, CommEngine, ThreadCluster};
use cgx_compress::CompressionScheme;
use cgx_obs::{meta_op, Event, ObsHandle, SpanKind};
use cgx_tensor::{Rng, Tensor};
use std::time::Instant;

const WORLD: usize = 4;

/// The engine's segment cut, in elements.
const SEGMENT: usize = 1 << 16;

/// Mixed-scheme inventory: odd sizes past `min`, lossy and lossless
/// codecs, both pipelined algorithms.
fn layer_specs(seed: u64, layers: usize, min: usize) -> Vec<(usize, CompressionScheme, Algorithm)> {
    let schemes = [
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::None,
        CompressionScheme::TopK { ratio: 0.25 },
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        },
    ];
    let mut rng = Rng::seed_from_u64(seed);
    (0..layers)
        .map(|i| {
            let len = min + (rng.next_u64() % 3000 + 1) as usize;
            let alg = if i % 4 == 3 {
                Algorithm::Ring
            } else {
                Algorithm::ScatterReduceAllgather
            };
            (len, schemes[i % schemes.len()], alg)
        })
        .collect()
}

fn rank_grads(specs: &[(usize, CompressionScheme, Algorithm)], rank: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(0xFEED + rank as u64 * 31);
    specs
        .iter()
        .map(|(len, _, _)| Tensor::randn(&mut rng, &[*len]))
        .collect()
}

/// One rank's outputs, stats and recorded events.
type RankRun = (Vec<Tensor>, Vec<AllreduceStats>, Vec<Event>);

/// Runs one engine step on every rank, over layers of more than `min`
/// elements.
fn run_once(seed: u64, layers: usize, min: usize, obs: ObsHandle) -> Vec<RankRun> {
    let specs = layer_specs(seed, layers, min);
    ThreadCluster::run(WORLD, move |t| {
        let rank_obs = obs.fork_rank(1 << 14);
        let grads = rank_grads(&specs, t.rank());
        let mut master = Rng::seed_from_u64(0xAB5 ^ seed);
        let mut eng = CommEngine::with_defaults(&t, cgx_compress::ScratchPool::new())
            .with_obs(rank_obs.clone());
        let t0 = Instant::now();
        let handles: Vec<_> = grads
            .iter()
            .zip(&specs)
            .map(|(g, (_, scheme, alg))| eng.submit(*alg, g, scheme.build(), &mut master))
            .collect();
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for h in handles {
            let (out, s, _) = eng.wait(h).expect("engine wait");
            let wall = t0.elapsed().as_nanos() as u64;
            // Invariant 1: the three accounted components are disjoint
            // slices of this thread's time since the first submit.
            let accounted = s
                .compress_ns
                .saturating_add(s.wait_ns)
                .saturating_add(s.decode_ns);
            assert!(
                accounted <= wall,
                "rank {}: accounted {accounted}ns exceeds wall {wall}ns",
                t.rank()
            );
            outs.push(out);
            stats.push(s);
        }
        (outs, stats, rank_obs.recorder().events())
    })
    .expect("cluster")
}

/// The most pipelined machines one rank's event stream shows live at once.
/// A machine compresses its phase-1 chunks as it launches and records
/// `Complete` as it retires; the stream is in the rank's program order.
fn most_live(events: &[Event]) -> usize {
    let mut live = std::collections::BTreeSet::new();
    let mut most = 0;
    for e in events {
        match e.kind {
            SpanKind::Compress => {
                live.insert(meta_op(e.meta));
            }
            SpanKind::Complete => {
                live.remove(&meta_op(e.meta));
            }
            _ => {}
        }
        most = most.max(live.len());
    }
    most
}

#[test]
fn timing_components_never_exceed_wall_clock() {
    // Randomized sweep: the in-closure assertion does the work; three
    // seeds x two layer sizes cover unsegmented and segmented paths (past
    // twice the segment cut, every layer is three segments).
    for seed in [1u64, 7, 42] {
        run_once(seed, 12, 0, ObsHandle::disabled());
        run_once(seed, 4, 2 * SEGMENT, ObsHandle::new_enabled());
    }
}

#[test]
fn live_machines_never_exceed_the_cap() {
    // 32 layers, too long to pack (more than 16 KiB of payload under
    // every codec here): 24 SRA machines, three times the cap of eight.
    const CAP: usize = 8;
    for seed in [3u64, 5, 9] {
        let per_rank = run_once(seed, 32, 31_000, ObsHandle::new_enabled());
        for (rank, (_, stats, events)) in per_rank.iter().enumerate() {
            let live = most_live(events);
            assert!(
                live <= CAP,
                "rank {rank}: {live} live machines under cap {CAP}"
            );
            assert!(live >= 1, "rank {rank}: nothing ever launched");
            // Submitted-but-queued collectives may exceed the live cap,
            // but never the total submitted.
            for s in stats {
                assert!(s.max_in_flight <= 32);
            }
        }
    }
}

#[test]
fn disabled_recorder_stores_exactly_zero_events() {
    let per_rank = run_once(11, 10, 0, ObsHandle::disabled());
    for (rank, (_, _, events)) in per_rank.iter().enumerate() {
        assert!(
            events.is_empty(),
            "rank {rank} recorded events while disabled"
        );
    }
}

#[test]
fn enabling_the_recorder_changes_no_delivered_byte() {
    // The determinism acceptance check: identical inventory, identical
    // seeds, recorder off vs on — outputs must match bit for bit.
    let off = run_once(21, 14, 0, ObsHandle::disabled());
    let on = run_once(21, 14, 0, ObsHandle::new_enabled());
    for (rank, ((a, _, events_off), (b, _, events_on))) in off.iter().zip(on.iter()).enumerate() {
        assert!(events_off.is_empty());
        assert!(
            !events_on.is_empty(),
            "rank {rank} recorded nothing while enabled"
        );
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.as_slice(),
                y.as_slice(),
                "rank {rank} layer {i}: recording changed the bytes"
            );
        }
    }
}

#[test]
fn event_stream_is_structurally_sound() {
    // Submits and completes pair up per collective; compress/decode spans
    // have nonzero-capable ordering (end >= start); wire events carry the
    // payload size.
    let specs = layer_specs(31, 8, 0);
    let results = ThreadCluster::run(WORLD, move |t| {
        let obs = ObsHandle::new_enabled().fork_rank(1 << 14);
        let grads = rank_grads(&specs, t.rank());
        let mut master = Rng::seed_from_u64(0xAB5 ^ 31);
        let mut eng =
            CommEngine::with_defaults(&t, cgx_compress::ScratchPool::new()).with_obs(obs.clone());
        let handles: Vec<_> = grads
            .iter()
            .zip(&specs)
            .map(|(g, (_, scheme, alg))| eng.submit(*alg, g, scheme.build(), &mut master))
            .collect();
        for h in handles {
            eng.wait(h).expect("engine wait");
        }
        obs.recorder().events()
    })
    .expect("cluster");
    for (rank, events) in results.iter().enumerate() {
        let mut submits = std::collections::BTreeSet::new();
        let mut completes = std::collections::BTreeSet::new();
        for e in events {
            assert!(e.end_ns >= e.start_ns, "rank {rank}: negative span");
            match e.kind {
                SpanKind::Submit => {
                    submits.insert(meta_op(e.meta));
                }
                SpanKind::Complete => {
                    completes.insert(meta_op(e.meta));
                }
                SpanKind::Wire => {
                    assert!(e.extra > 0, "rank {rank}: wire event without bytes");
                }
                _ => {}
            }
        }
        assert_eq!(
            submits, completes,
            "rank {rank}: submit/complete op ids disagree"
        );
        assert!(!submits.is_empty(), "rank {rank}: no collectives traced");
    }
}
