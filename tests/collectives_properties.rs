//! Property-based tests over the threaded collectives, run as production
//! code runs them — through the communication engine: for arbitrary world
//! sizes and tensor lengths, every algorithm computes the exact sum under a
//! lossless codec, reaches bit-exact consensus under quantization, and
//! matches its analytic traffic accounting.

use cgx::collectives::reduce::{chunk_ranges, Algorithm, AllreduceStats};
use cgx::collectives::{CommEngine, ThreadCluster, Transport};
use cgx::compress::{Compressor, NoneCompressor, QsgdCompressor, ScratchPool};
use cgx::tensor::{Rng, Tensor};
use cgx_testkit::cases;

/// One collective on an engine of its own: the sum and the stats.
fn allreduce(
    alg: Algorithm,
    t: &dyn Transport,
    grad: &Tensor,
    comp: impl Compressor + 'static,
    rng: &mut Rng,
) -> (Tensor, AllreduceStats) {
    let (sum, stats, _) = CommEngine::with_defaults(t, ScratchPool::new())
        .allreduce(alg, grad, Box::new(comp), rng)
        .unwrap();
    (sum, stats)
}

#[test]
fn lossless_allreduce_is_exact_sum() {
    cases(24, |rng| {
        let (world, len, seed) = (rng.range(2..7), rng.range(1..300), rng.below(1000));
        let alg = Algorithm::all()[rng.index(4)];
        let results = ThreadCluster::run(world, |t| {
            let mut rng = Rng::seed_from_u64(seed * 100 + t.rank() as u64);
            let grad = Tensor::rand_uniform(&mut rng, &[len], -4.0, 4.0);
            let (out, _) = allreduce(alg, &t, &grad, NoneCompressor::new(), &mut rng);
            (grad, out)
        })
        .unwrap();
        let mut expected = Tensor::zeros(&[len]);
        for (g, _) in &results {
            expected.add_assign(g);
        }
        for (rank, (_, out)) in results.iter().enumerate() {
            let err = out.l2_distance(&expected);
            assert!(
                err < 1e-3 * expected.norm2().max(1.0),
                "{alg:?} rank {rank}: err {err}"
            );
        }
    });
}

#[test]
fn quantized_allreduce_reaches_bitwise_consensus() {
    cases(24, |rng| {
        let (world, len, seed) = (rng.range(2..6), rng.range(8..600), rng.below(1000));
        let alg = Algorithm::all()[rng.index(4)];
        let results = ThreadCluster::run(world, |t| {
            let mut rng = Rng::seed_from_u64(seed * 37 + t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            allreduce(alg, &t, &grad, QsgdCompressor::new(4, 64), &mut rng).0
        })
        .unwrap();
        for out in &results[1..] {
            assert_eq!(out.as_slice(), results[0].as_slice(), "{alg:?}");
        }
    });
}

#[test]
fn chunk_ranges_always_partition() {
    cases(24, |rng| {
        let (len, n) = (rng.range(0..10_000), rng.range(1..64));
        let rs = chunk_ranges(len, n);
        assert_eq!(rs.len(), n);
        let mut cursor = 0usize;
        let mut max_sz = 0usize;
        let mut min_sz = usize::MAX;
        for r in &rs {
            assert_eq!(r.start, cursor);
            cursor = r.end;
            max_sz = max_sz.max(r.len());
            min_sz = min_sz.min(r.len());
        }
        assert_eq!(cursor, len);
        assert!(max_sz - min_sz <= 1, "chunks must be balanced");
    });
}

#[test]
fn sra_traffic_matches_closed_form() {
    cases(24, |rng| {
        // Lengths divisible by world so the closed form is exact.
        let world = rng.range(2..6);
        let len = world * rng.range(1..50) * 4;
        let stats = ThreadCluster::run(world, |t| {
            let mut rng = Rng::seed_from_u64(t.rank() as u64);
            let grad = Tensor::randn(&mut rng, &[len]);
            let sra = Algorithm::ScatterReduceAllgather;
            allreduce(sra, &t, &grad, NoneCompressor::new(), &mut rng).1
        })
        .unwrap();
        for s in &stats {
            assert_eq!(s.bytes_sent, 2 * (world - 1) * (len / world) * 4);
        }
    });
}

#[test]
fn mean_of_quantized_allreduce_tracks_true_mean() {
    // Averaged over repetitions, the quantized sum is unbiased.
    let world = 4;
    let len = 256;
    let reps = 40;
    let mut acc = Tensor::zeros(&[len]);
    let mut expected = Tensor::zeros(&[len]);
    for rep in 0..reps {
        let results = ThreadCluster::run(world, |t| {
            let mut rng = Rng::seed_from_u64(5000 + rep * 10 + t.rank() as u64);
            // Same gradient per rank each rep (deterministic from seed).
            let mut base_rng = Rng::seed_from_u64(777 + t.rank() as u64);
            let grad = Tensor::randn(&mut base_rng, &[len]);
            let sra = Algorithm::ScatterReduceAllgather;
            let (out, _) = allreduce(sra, &t, &grad, QsgdCompressor::new(4, 64), &mut rng);
            (grad, out)
        })
        .unwrap();
        if rep == 0 {
            for (g, _) in &results {
                expected.add_assign(g);
            }
        }
        acc.add_assign(&results[0].1);
    }
    acc.scale(1.0 / reps as f32);
    let rel = acc.l2_distance(&expected) / expected.norm2();
    assert!(rel < 0.05, "bias {rel}");
}
