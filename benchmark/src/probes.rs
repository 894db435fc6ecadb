//! Direct probes: one timed call sequence per layer primitive, run once
//! per traced process before the workload, on a 1 Mi-element buffer or a
//! 64 B / 1 MiB frame ping-pong. They say how fast a layer is on its own;
//! the workload's budget says how much of a step it is.

use crate::prng::SplitMix64;
use crate::stats::median;
use cgx_collectives::{ShmFabric, Transport};
use cgx_compress::{CompressionScheme, Compressor, Encoded, NoneCompressor, ScratchPool};
use cgx_net::TcpFabric;
use cgx_serve::{Dequeue, DrrScheduler, JobSpec, ServeConfig, ServeNode};
use cgx_tensor::Rng;
use std::hint::black_box;
use std::time::Instant;

const ELEMS: usize = 1 << 20;
const KERNEL_REPS: usize = 15;
const SMALL_FRAME_FLOATS: usize = 16; // 64 B
const LARGE_FRAME_FLOATS: usize = 1 << 18; // 1 MiB
const SMALL_TRIPS: usize = 2000;
const LARGE_TRIPS: usize = 60;

/// `(name, value)` for every direct per-layer metric.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut data = vec![0f32; ELEMS];
    SplitMix64::stream(seed, 0xD1_2EC7).fill_gaussian(&mut data, 0.01);

    let q4 = CompressionScheme::Qsgd {
        bits: 4,
        bucket_size: 128,
    };
    for (encode, decode, comp) in [
        (
            "compress.q4_encode_melem_s",
            "compress.q4_decode_add_melem_s",
            q4.build(),
        ),
        (
            "compress.fp32_encode_melem_s",
            "compress.fp32_decode_add_melem_s",
            CompressionScheme::None.build(),
        ),
    ] {
        let (enc_rate, dec_rate) = kernel_rates(comp, &data);
        out.push((encode, enc_rate));
        out.push((decode, dec_rate));
    }

    out.push(("tensor.rng_mu64_s", rng_rate()));

    let (rtt, rate) = ping_pong(ShmFabric::build(2));
    out.push(("collectives.transport.shm_rtt_us", rtt));
    out.push(("collectives.transport.shm_mib_s", rate));

    let (rtt, rate) = ping_pong(TcpFabric::build_local(2));
    out.push(("net.tcp.rtt_us", rtt));
    out.push(("net.tcp.mib_s", rate));

    let nodes: Vec<ServeNode> = TcpFabric::build_local(2)
        .into_iter()
        .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
        .collect();
    let handles = nodes
        .iter()
        .map(|n| {
            n.attach(JobSpec::new(1))
                .expect("a fresh node admits job 1")
        })
        .collect();
    out.push(("serve.daemon.rtt_us", ping_pong(handles).0));
    drop(nodes);

    out.push(("serve.qos.drr_mframes_s", drr_rate()));
    out
}

/// Median `(encode, decode-add)` throughput in Melem/s over 1 Mi elements.
fn kernel_rates(mut comp: Box<dyn Compressor>, data: &[f32]) -> (f64, f64) {
    let pool = ScratchPool::new();
    let mut rng = Rng::seed_from_u64(1);
    let mut acc = vec![0f32; data.len()];
    let (mut enc_s, mut dec_s) = (Vec::new(), Vec::new());
    for _ in 0..KERNEL_REPS {
        let start = Instant::now();
        let enc = comp.compress_slice(black_box(data), &mut rng, &pool);
        enc_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        comp.decompress_add_into(black_box(&enc), &mut acc);
        dec_s.push(start.elapsed().as_secs_f64());
        pool.recycle(enc);
    }
    black_box(&acc);
    let rate = |secs: &[f64]| data.len() as f64 / 1e6 / median(secs);
    (rate(&enc_s), rate(&dec_s))
}

/// `Rng::next_u64` draws per microsecond.
fn rng_rate() -> f64 {
    const DRAWS: usize = 4_000_000;
    let mut rng = Rng::seed_from_u64(1);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0u64;
            for _ in 0..DRAWS {
                x ^= rng.next_u64();
            }
            black_box(x);
            DRAWS as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

fn frame(floats: usize) -> Encoded {
    // The lossless codec is the one public way to make a frame of a given
    // size without naming the `bytes` crate.
    NoneCompressor::new().compress_slice(
        &vec![1.0; floats],
        &mut Rng::seed_from_u64(0),
        &ScratchPool::new(),
    )
}

/// Rank 0 sends a frame and waits for its echo. Returns the median round
/// trip of a 64 B frame in µs and the throughput of 1 MiB frames in MiB/s
/// (both directions carry the frame).
fn ping_pong<T: Transport + Send>(mut ends: Vec<T>) -> (f64, f64) {
    let echo = ends.pop().expect("two ends");
    let ping = ends.pop().expect("two ends");
    let plan = [
        (SMALL_FRAME_FLOATS, SMALL_TRIPS),
        (LARGE_FRAME_FLOATS, LARGE_TRIPS),
    ];
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (tag, (_, trips)) in plan.into_iter().enumerate() {
                for _ in 0..trips {
                    let got = echo.recv_tagged(0, tag as u64).expect("echo recv");
                    echo.send_tagged(0, tag as u64, got).expect("echo send");
                }
            }
        });
        let mut trip_s = plan.into_iter().enumerate().map(|(tag, (floats, trips))| {
            let payload = frame(floats);
            let times: Vec<f64> = (0..trips)
                .map(|_| {
                    let start = Instant::now();
                    ping.send_tagged(1, tag as u64, payload.clone())
                        .expect("ping send");
                    black_box(ping.recv_tagged(1, tag as u64).expect("ping recv"));
                    start.elapsed().as_secs_f64()
                })
                .collect();
            median(&times)
        });
        let small = trip_s.next().expect("small frames");
        let large = trip_s.next().expect("large frames");
        (small * 1e6, 2.0 / large)
    })
}

/// Frames per microsecond through `DrrScheduler::enqueue` + `next` with
/// three weighted jobs kept backlogged.
fn drr_rate() -> f64 {
    const FRAMES: u32 = 300_000;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let mut drr = DrrScheduler::new(64 << 10);
            for (job, weight) in [(1u8, 1u64), (2, 2), (3, 4)] {
                drr.register(job, weight, None);
            }
            let start = Instant::now();
            for i in 0..FRAMES {
                drr.enqueue((i % 3) as u8 + 1, 1024, i);
            }
            let mut served = 0u32;
            while let Dequeue::Frame { item, .. } = drr.next(0) {
                black_box(item);
                served += 1;
            }
            assert_eq!(served, FRAMES, "scheduler lost frames");
            FRAMES as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}
