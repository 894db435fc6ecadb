//! Property tests for the communication engine: for arbitrary world
//! sizes, layer inventories, and compression schemes, driving all layers
//! concurrently through [`CommEngine`] must be bit-identical to the
//! blocking one-allreduce-per-layer reference, and every rank must agree.

use cgx_collectives::reduce::{allreduce_scratch, Algorithm};
use cgx_collectives::{CommEngine, EngineOptions, ThreadCluster};
use cgx_compress::{CompressionScheme, Compressor, ScratchPool};
use cgx_tensor::{Rng, Tensor};
use cgx_testkit::cases;

/// Between 1 and `max` layers, each an odd length (including lengths
/// smaller than the world size) plus a scheme.
fn layers(rng: &mut Rng, max: usize) -> Vec<(usize, CompressionScheme)> {
    let schemes = [
        CompressionScheme::None,
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::Qsgd {
            bits: 2,
            bucket_size: 64,
        },
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        },
        CompressionScheme::TopK { ratio: 0.25 },
    ];
    (0..rng.range(1..=max))
        .map(|_| (rng.range(1..700) | 1, schemes[rng.index(schemes.len())]))
        .collect()
}

fn run_engine(
    world: usize,
    seed: u64,
    layers: &[(usize, CompressionScheme)],
    alg: Algorithm,
) -> Vec<Vec<Tensor>> {
    ThreadCluster::run(world, |t| {
        let mut data = Rng::seed_from_u64(seed ^ (0x9E37 + t.rank() as u64));
        let grads: Vec<Tensor> = layers
            .iter()
            .map(|(n, _)| Tensor::randn(&mut data, &[*n]))
            .collect();
        let mut master = Rng::seed_from_u64(seed);
        let mut eng = CommEngine::new(&t, ScratchPool::new(), EngineOptions::default());
        let handles: Vec<_> = grads
            .iter()
            .zip(layers)
            .map(|(g, (_, s))| eng.submit(alg, g, s.build(), &mut master))
            .collect();
        handles
            .into_iter()
            .map(|h| eng.wait(h).expect("engine wait").0)
            .collect::<Vec<_>>()
    })
    .expect("engine cluster")
}

fn run_sequential(
    world: usize,
    seed: u64,
    layers: &[(usize, CompressionScheme)],
    alg: Algorithm,
) -> Vec<Vec<Tensor>> {
    ThreadCluster::run(world, |t| {
        let mut data = Rng::seed_from_u64(seed ^ (0x9E37 + t.rank() as u64));
        let grads: Vec<Tensor> = layers
            .iter()
            .map(|(n, _)| Tensor::randn(&mut data, &[*n]))
            .collect();
        let mut master = Rng::seed_from_u64(seed);
        grads
            .iter()
            .zip(layers)
            .map(|(g, (_, s))| {
                let mut lrng = Rng::seed_from_u64(master.next_u64());
                let mut comp: Box<dyn Compressor> = s.build();
                allreduce_scratch(alg, &t, g, comp.as_mut(), &mut lrng, &ScratchPool::new())
                    .expect("allreduce")
                    .0
            })
            .collect::<Vec<_>>()
    })
    .expect("sequential cluster")
}

fn check(rng: &mut Rng, max_layers: usize, alg: Algorithm) {
    let (world, seed) = (rng.range(2..=8), rng.below(1_000_000));
    let layers = layers(rng, max_layers);
    let eng = run_engine(world, seed, &layers, alg);
    let seq = run_sequential(world, seed, &layers, alg);
    for (r, replica) in eng.iter().enumerate() {
        for (i, (a, b)) in replica.iter().zip(&seq[0]).enumerate() {
            for (j, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {r} layer {i} elem {j}: engine {x} vs sequential {y}"
                );
            }
        }
    }
}

// Thread clusters are expensive; a couple dozen cases still explore world
// size x inventory x scheme space well because each case runs up to 9
// concurrent collectives.

#[test]
fn engine_is_bitwise_equal_to_sequential_sra() {
    cases(24, |rng| check(rng, 9, Algorithm::ScatterReduceAllgather));
}

#[test]
fn engine_is_bitwise_equal_to_sequential_ring() {
    cases(24, |rng| check(rng, 5, Algorithm::Ring));
}
