//! A multi-rank compressed allreduce through the public API, the shape of
//! a driver to copy when checking a change by hand:
//!
//! ```sh
//! cargo run --release --example drive_allreduce
//! ```
//!
//! Every rank of a [`ThreadCluster`] reduces a gradient through its
//! [`CommEngine`] on the uniformly quantized ring (QNCCL's collective)
//! and divides by the world for the mean; all ranks must end bit-equal
//! (the repository's consensus invariant), on lengths and bit-widths the
//! word-wide kernels cannot take whole, and a rerun must reproduce the
//! digest.

use cgx_collectives::{reduce::Algorithm, CommEngine, ThreadCluster};
use cgx_compress::{QsgdCompressor, ScratchPool};
use cgx_tensor::{Rng, Tensor};

fn fnv(xs: &[f32]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `steps` allreduces of `n` elements on `world` ranks and returns the
/// digest of the last result, after checking that every rank holds it.
fn run_case(label: &str, world: usize, bits: u32, bucket: usize, n: usize, steps: usize) -> u64 {
    let results = ThreadCluster::run(world, move |t| {
        let mut rng = Rng::seed_from_u64(500 + t.rank() as u64);
        let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
        let mut last = None;
        for step in 0..steps {
            let mut g = Tensor::randn(&mut rng, &[n]);
            g.scale(1.0 / (step + 1) as f32);
            let comp = Box::new(QsgdCompressor::new(bits, bucket));
            let (mut mean, stats, _) = eng
                .allreduce(Algorithm::Ring, &g, comp, &mut rng)
                .expect("allreduce");
            mean.scale(1.0 / world as f32);
            last = Some((mean, stats));
        }
        last.expect("at least one step")
    })
    .expect("cluster");
    let (first, stats) = &results[0];
    for (rank, (r, _)) in results.iter().enumerate().skip(1) {
        assert_eq!(
            r.as_slice(),
            first.as_slice(),
            "rank {rank} diverged ({label})"
        );
    }
    let digest = fnv(first.as_slice());
    println!(
        "{label}: world={world} bits={bits} bucket={bucket} n={n} steps={steps} \
         consensus=OK digest={digest:016x} bytes_sent={}",
        stats.bytes_sent
    );
    digest
}

fn main() {
    let first = run_case("default-4bit", 4, 4, 128, 65_536, 4);
    run_case("odd-length", 8, 4, 128, 65_537, 2);
    run_case("3bit-generic-fallback", 4, 3, 128, 10_000, 2);
    run_case("2bit-1M", 4, 2, 64, 1 << 20, 2);
    run_case("8bit", 4, 8, 512, 4_096, 2);
    run_case("single-element", 2, 4, 128, 1, 1);
    let again = run_case("default-4bit-rerun", 4, 4, 128, 65_536, 4);
    assert_eq!(
        first, again,
        "a rerun must reproduce the result bit for bit"
    );
}
