//! Property tests for the daemon's weighted deficit-round-robin QoS
//! scheduler ([`DrrScheduler`]), pinning the three isolation invariants
//! the multi-tenant design rests on:
//!
//! 1. **Work conservation** — with backlog present and no rate caps in
//!    play, `next()` always yields a frame: shares are enforced by
//!    ordering, never by idling the wire.
//! 2. **No starvation** — every backlogged job is served within a bounded
//!    number of frame dequeues, regardless of how skewed the weights or
//!    frame sizes are.
//! 3. **Weight convergence** — over a long busy period with deep equal
//!    backlogs, each job's byte share converges to its weight share
//!    within one quantum-per-round of slack.
//!
//! The scheduler is pure (the caller supplies the clock), so every case
//! here is fully deterministic.

use cgx_serve::{jain_index, Dequeue, DrrScheduler};
use cgx_testkit::cases;

/// Drains until `Idle`/`Throttled`, returning `(job, size)` in order.
fn drain(s: &mut DrrScheduler<u32>, limit: usize) -> Vec<(u8, u64)> {
    let mut out = Vec::new();
    for _ in 0..limit {
        match s.next(0) {
            Dequeue::Frame { job, size, .. } => out.push((job, size)),
            _ => break,
        }
    }
    out
}

#[test]
fn work_conserving_without_rate_caps() {
    cases(256, |rng| {
        let (quantum, njobs) = (rng.range(1..=4096) as u64, rng.range(1..=6));
        let sizes: Vec<u64> = (0..rng.range(1..40))
            .map(|_| rng.range(1..=65536) as u64)
            .collect();
        let mut s = DrrScheduler::new(quantum);
        for j in 0..njobs {
            s.register(j as u8 + 1, (j as u64 % 5) + 1, None);
        }
        for (i, &size) in sizes.iter().enumerate() {
            s.enqueue((i % njobs) as u8 + 1, size, i as u32);
        }
        // Every queued frame must come out, with no Idle/Throttled gap in
        // between: uncapped DRR never leaves backlog unserved.
        let mut drained = 0u64;
        for _ in 0..sizes.len() {
            let Dequeue::Frame { size, .. } = s.next(0) else {
                panic!("scheduler stalled with backlog present");
            };
            drained += size;
        }
        assert_eq!(drained, sizes.iter().sum::<u64>());
        assert!(s.is_empty());
        assert!(matches!(s.next(0), Dequeue::Idle));
    });
}

#[test]
fn no_job_starves() {
    cases(256, |rng| {
        // A heavy job with a deep queue of large frames against a light
        // weight-1 job with one frame: the light job must be served within
        // a bounded number of dequeues (one round's worth, i.e. at most
        // the heavy job's burst allowance per round, repeated for however
        // many rounds the light frame needs to accrue deficit — bounded by
        // size/quantum + 1 rounds).
        let (quantum, heavy_weight) = (rng.range(1..=1024) as u64, rng.range(1..=64) as u64);
        let (heavy_size, light_size) = (rng.range(1..=65536) as u64, rng.range(1..=65536) as u64);
        let mut s = DrrScheduler::new(quantum);
        s.register(1, heavy_weight, None);
        s.register(2, 1, None);
        for i in 0..4096u32 {
            s.enqueue(1, heavy_size, i);
        }
        s.enqueue(2, light_size, 0);
        let rounds_needed = light_size / quantum + 1;
        // Per round the heavy job can move at most quantum*weight bytes
        // plus one full frame of overshoot.
        let heavy_frames_per_round = (quantum * heavy_weight) / heavy_size + 2;
        let bound = (rounds_needed * heavy_frames_per_round + 2) as usize;
        let mut served_light = false;
        for _ in 0..bound {
            match s.next(0) {
                Dequeue::Frame { job: 2, .. } => {
                    served_light = true;
                    break;
                }
                Dequeue::Frame { .. } => {}
                _ => panic!("scheduler stalled while the light job waited"),
            }
        }
        assert!(
            served_light,
            "light job not served within {bound} dequeues (quantum {quantum}, heavy weight \
             {heavy_weight}, heavy {heavy_size}B, light {light_size}B)"
        );
    });
}

#[test]
fn byte_shares_converge_to_weights() {
    cases(256, |rng| {
        let quantum = rng.range(64..=4096) as u64;
        let weights = [1, 2, 3].map(|_| rng.range(1..=8) as u64);
        let frame = rng.range(16..=2048) as u64;
        let mut s = DrrScheduler::new(quantum);
        for (i, &w) in weights.iter().enumerate() {
            s.register(i as u8 + 1, w, None);
        }
        // Deep equal backlogs, then serve a long busy period.
        let frames_per_job = 4096usize;
        for i in 0..frames_per_job {
            for j in 0..3u8 {
                s.enqueue(j + 1, frame, i as u32);
            }
        }
        let budget = frames_per_job; // far below total backlog: all busy
        let served = drain(&mut s, budget);
        assert_eq!(served.len(), budget, "work conservation during busy period");
        let wsum: u64 = weights.iter().sum();
        let total: u64 = served.iter().map(|&(_, b)| b).sum();
        for (i, &w) in weights.iter().enumerate() {
            let got: u64 = s.sent_bytes(i as u8 + 1);
            let want = total as f64 * w as f64 / wsum as f64;
            // One round of slack: each round a job may overshoot its grant
            // by at most one frame, and the busy period spans
            // total/(quantum*wsum) rounds minimum.
            let rounds = (total / (quantum * wsum) + 1) as f64;
            let slack = rounds * frame as f64 + (quantum * w) as f64 + frame as f64;
            assert!(
                (got as f64 - want).abs() <= slack,
                "job {} got {got} bytes, want {want:.0} ± {slack:.0} (weights {weights:?}, \
                 quantum {quantum}, frame {frame})",
                i + 1
            );
        }
    });
}

#[test]
fn equal_weights_are_jain_fair() {
    cases(256, |rng| {
        let (quantum, frame) = (rng.range(64..=4096) as u64, rng.range(16..=2048) as u64);
        let njobs = rng.range(2..=8);
        let mut s = DrrScheduler::new(quantum);
        for j in 0..njobs {
            s.register(j as u8 + 1, 1, None);
        }
        // Budget spans ~4 full rounds so a mid-round cut can skew any
        // job's share by at most one visit out of four.
        let per_visit = (quantum / frame) as usize + 1;
        let budget = njobs * per_visit * 4;
        let frames_per_job = per_visit * 8;
        for i in 0..frames_per_job {
            for j in 0..njobs {
                s.enqueue(j as u8 + 1, frame, i as u32);
            }
        }
        let served = drain(&mut s, budget);
        assert_eq!(served.len(), budget);
        let shares: Vec<f64> = (0..njobs)
            .map(|j| s.sent_bytes(j as u8 + 1) as f64)
            .collect();
        let jain = jain_index(&shares);
        assert!(
            jain > 0.95,
            "equal-weight shares should be near-perfectly fair, Jain={jain:.4} shares={shares:?}"
        );
    });
}
