//! Release-mode stress test for the communication engine: 8 ranks driving
//! 50 concurrent collectives of mixed compression schemes and odd sizes,
//! checked bit-for-bit against the blocking per-layer loop, plus a
//! variant of layers past the segment cut checked for cross-rank
//! consensus.
//!
//! CI runs this with `--release` where the thread interleavings are
//! meaningfully different from debug builds (no debug-assert slowdowns, so
//! many more collectives genuinely overlap).

use cgx_collectives::reduce::{allreduce_scratch, Algorithm};
use cgx_collectives::{CommEngine, ThreadCluster};
use cgx_compress::{CompressionScheme, Compressor, ScratchPool};
use cgx_tensor::{Rng, Tensor};

const WORLD: usize = 8;
const LAYERS: usize = 50;
/// The engine's segment cut, in elements.
const SEGMENT: usize = 1 << 16;

/// Deterministic mixed-scheme inventory of `layers` layers: odd lengths
/// of at least `min` elements and at most `min + span`, cycling through
/// every quantizer family plus filtered FP32 layers.
fn layer_specs(layers: usize, min: usize, span: u64) -> Vec<(usize, CompressionScheme, Algorithm)> {
    let schemes = [
        CompressionScheme::Qsgd {
            bits: 4,
            bucket_size: 128,
        },
        CompressionScheme::None,
        CompressionScheme::Nuqsgd {
            bits: 4,
            bucket_size: 64,
        },
        CompressionScheme::TopK { ratio: 0.25 },
        CompressionScheme::Qsgd {
            bits: 2,
            bucket_size: 256,
        },
        CompressionScheme::None,
    ];
    let mut lens = Rng::seed_from_u64(0x57E55);
    (0..layers)
        .map(|i| {
            let len = (min + (lens.next_u64() % span) as usize) | 1;
            let alg = if i % 3 == 2 {
                Algorithm::Ring
            } else {
                Algorithm::ScatterReduceAllgather
            };
            (len, schemes[i % schemes.len()], alg)
        })
        .collect()
}

fn rank_grads(specs: &[(usize, CompressionScheme, Algorithm)], rank: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(0xD1CE + rank as u64 * 31);
    specs
        .iter()
        .map(|(len, _, _)| Tensor::randn(&mut rng, &[*len]))
        .collect()
}

fn run_engine(specs: &[(usize, CompressionScheme, Algorithm)]) -> Vec<Vec<Tensor>> {
    ThreadCluster::run(WORLD, |t| {
        let grads = rank_grads(specs, t.rank());
        let mut master = Rng::seed_from_u64(0xAB5);
        let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
        let handles: Vec<_> = grads
            .iter()
            .zip(specs)
            .map(|(g, (_, scheme, alg))| eng.submit(*alg, g, scheme.build(), &mut master))
            .collect();
        handles
            .into_iter()
            .map(|h| eng.wait(h).expect("engine wait").0)
            .collect::<Vec<_>>()
    })
    .expect("engine cluster")
}

fn run_sequential(specs: &[(usize, CompressionScheme, Algorithm)]) -> Vec<Vec<Tensor>> {
    ThreadCluster::run(WORLD, |t| {
        let grads = rank_grads(specs, t.rank());
        let mut master = Rng::seed_from_u64(0xAB5);
        grads
            .iter()
            .zip(specs)
            .map(|(g, (_, scheme, alg))| {
                // One draw per layer: the same stream the engine consumes.
                let mut lrng = Rng::seed_from_u64(master.next_u64());
                let mut comp: Box<dyn Compressor> = scheme.build();
                allreduce_scratch(*alg, &t, g, comp.as_mut(), &mut lrng, &ScratchPool::new())
                    .expect("allreduce")
                    .0
            })
            .collect::<Vec<_>>()
    })
    .expect("sequential cluster")
}

fn assert_consensus(by_rank: &[Vec<Tensor>]) {
    for (r, replica) in by_rank.iter().enumerate().skip(1) {
        for (i, (a, b)) in replica.iter().zip(&by_rank[0]).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "rank {r} disagrees with rank 0 on layer {i}"
            );
        }
    }
}

#[test]
fn stress_50_mixed_layers_match_sequential_bitwise() {
    // Coalescing on, no layer here reaches the segment cut, so engine and
    // sequential results must be byte-identical.
    let specs = layer_specs(LAYERS, 1, 4000);
    let eng = run_engine(&specs);
    let seq = run_sequential(&specs);
    assert_consensus(&eng);
    assert_consensus(&seq);
    for (i, (a, b)) in eng[0].iter().zip(&seq[0]).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "engine diverged from sequential on layer {i}"
        );
    }
}

#[test]
fn stress_segmented_pipeline_reaches_consensus() {
    // Every layer past the segment cut: 12 collectives, more than the
    // eight live machines, split into two or three pipeline segments
    // each, so their tagged segments interleave on the wire. Lossy codecs
    // see different bucket geometry than the unsegmented run, so the
    // check here is the consensus invariant (every rank byte-identical),
    // not equality to the sequential loop.
    let eng = run_engine(&layer_specs(12, SEGMENT + 1, 2 * SEGMENT as u64));
    assert_consensus(&eng);
}
