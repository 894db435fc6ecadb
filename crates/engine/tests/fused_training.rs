//! End-to-end QNCCL training: the full DDP-over-quantized-primitives loop
//! (fused buffer, uniform ring quantization) vs CGX's layer-wise path.
//!
//! Paper Section 6: QNCCL "has higher accuracy degradation because it
//! cannot perform layer-wise compression"; with the bucket size reduced to
//! 128 it recovers within 1%.
//!
//! QNCCL here is the paper's design on the one engine: every gradient
//! fused into one flat buffer (all the primitive layer sees — offsets, not
//! layers), reduced by [`Algorithm::Ring`] with a re-quantization at each
//! hop under one uniform QSGD width, then divided by the world.

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::{CommEngine, ThreadCluster, Transport};
use cgx_compress::{CompressionScheme, Compressor, QsgdCompressor, ScratchPool};
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{train_data_parallel, LayerCompression, SgdMomentum, TrainConfig};
use cgx_tensor::{Rng, Tensor};

const WORKERS: usize = 4;
const STEPS: usize = 300;

fn eval(model: &Mlp, task: &GaussianMixture) -> f64 {
    let mut rng = Rng::seed_from_u64(424_242);
    let (x, y) = task.sample_batch(&mut rng, 2048);
    model.accuracy(&x, &y)
}

/// Flattens `grads` into one buffer, the way DDP hands NCCL a bucket.
fn pack(grads: &[Tensor]) -> Tensor {
    let flat: Vec<f32> = grads.iter().flat_map(|g| g.as_slice()).copied().collect();
    Tensor::from_vec(&[flat.len()], flat)
}

/// Slices a packed buffer back into the shapes of `like`.
fn unpack(flat: &Tensor, like: &[Tensor]) -> Vec<Tensor> {
    let mut rest = flat.as_slice();
    like.iter()
        .map(|g| {
            let (head, tail) = rest.split_at(g.len());
            rest = tail;
            Tensor::from_vec(g.shape().dims(), head.to_vec())
        })
        .collect()
}

/// One QNCCL step: the mean of every rank's `grads`, fused and reduced on
/// the uniformly quantized ring.
fn qnccl_mean(
    t: &dyn Transport,
    grads: &[Tensor],
    bits: u32,
    bucket: usize,
    rng: &mut Rng,
) -> Vec<Tensor> {
    let comp = Box::new(QsgdCompressor::new(bits, bucket));
    let (mut sum, _, _) = CommEngine::with_defaults(t, ScratchPool::new())
        .allreduce(Algorithm::Ring, &pack(grads), comp, rng)
        .expect("qnccl allreduce");
    sum.scale(1.0 / t.world() as f32);
    unpack(&sum, grads)
}

/// Trains with the QNCCL pipeline: every step fuses all gradients into one
/// buffer and all-reduces it through the uniformly-quantized ring.
fn train_qnccl(task: &GaussianMixture, model: &Mlp, bits: u32, bucket: usize) -> Mlp {
    let outputs = ThreadCluster::run(WORKERS, |t| {
        let mut local = model.clone();
        let mut data_rng = Rng::seed_from_u64(0xD00D + t.rank() as u64 * 7919);
        let mut comp_rng = Rng::seed_from_u64(0xC0FFEE + t.rank() as u64 * 104_729);
        let mut opt = SgdMomentum::new(0.2, 0.9, 0.0);
        for _ in 0..STEPS {
            let (x, y) = task.sample_batch(&mut data_rng, 16);
            let (_, grads) = local.loss_and_grads(&x, &y);
            let mean_grads = qnccl_mean(&t, &grads, bits, bucket, &mut comp_rng);
            opt.step(local.params_mut(), &mean_grads);
        }
        local
    })
    .expect("cluster");
    outputs.into_iter().next().expect("rank 0")
}

#[test]
fn qnccl_with_small_buckets_recovers_accuracy() {
    let task = GaussianMixture::new(6, 12, 1.2);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[12, 32, 6]);
    // FP32 data-parallel reference via the engine.
    let cfg = TrainConfig {
        lr: 0.2,
        compression: LayerCompression::none(),
        ..TrainConfig::new(WORKERS, STEPS)
    };
    let t2 = task.clone();
    let (baseline, _) = train_data_parallel(&model, move |r| t2.sample_batch(r, 16), &cfg).unwrap();
    let base_acc = eval(&baseline, &task);
    let qnccl_acc = eval(&train_qnccl(&task, &model, 4, 128), &task);
    assert!(
        qnccl_acc > base_acc - 0.01,
        "qnccl(4b,128) {qnccl_acc} vs baseline {base_acc}"
    );
}

#[test]
fn qnccl_replicas_stay_consistent() {
    // The uniform ring still guarantees bit-exact consensus, so replicas
    // cannot drift even though accuracy suffers at coarse settings.
    let task = GaussianMixture::new(4, 8, 1.5);
    let mut rng = Rng::seed_from_u64(9);
    let model = Mlp::new(&mut rng, &[8, 16, 4]);
    let replicas = ThreadCluster::run(WORKERS, |t| {
        let mut local = model.clone();
        let mut data_rng = Rng::seed_from_u64(100 + t.rank() as u64);
        let mut comp_rng = Rng::seed_from_u64(200 + t.rank() as u64);
        let mut opt = SgdMomentum::new(0.1, 0.9, 0.0);
        for _ in 0..25 {
            let (x, y) = task.sample_batch(&mut data_rng, 8);
            let (_, grads) = local.loss_and_grads(&x, &y);
            let mean = qnccl_mean(&t, &grads, 4, 512, &mut comp_rng);
            opt.step(local.params_mut(), &mean);
        }
        local
    })
    .unwrap();
    for r in &replicas[1..] {
        for (a, b) in r.params().iter().zip(replicas[0].params()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }
}

#[test]
fn coarse_buckets_degrade_more_than_layerwise_cgx() {
    // Same bit-width, but a blob-level bucket (4096) that straddles layers
    // vs CGX's layer-wise 4-bit with filters: the layer-wise path must be
    // at least as accurate.
    let task = GaussianMixture::new(6, 12, 1.2);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[12, 32, 6]);
    let cfg = TrainConfig {
        lr: 0.2,
        compression: LayerCompression::cgx_default(),
        ..TrainConfig::new(WORKERS, STEPS)
    };
    let t2 = task.clone();
    let (cgx, _) = train_data_parallel(&model, move |r| t2.sample_batch(r, 16), &cfg).unwrap();
    let cgx_acc = eval(&cgx, &task);
    let coarse_acc = eval(&train_qnccl(&task, &model, 2, 4096), &task);
    assert!(
        cgx_acc >= coarse_acc,
        "layer-wise {cgx_acc} vs coarse blob {coarse_acc}"
    );
}

fn layer_set(rng: &mut Rng) -> Vec<Tensor> {
    // Deliberately heterogeneous scales: a big quiet matrix, a loud
    // little bias, and a mid-size tensor — like real adjacent layers.
    // (1920 elements so blob buckets straddle the layer boundary.)
    let mut big = Tensor::randn(rng, &[60, 32]);
    big.scale(0.01);
    let mut bias = Tensor::randn(rng, &[16]);
    bias.scale(2.0);
    let mid = Tensor::randn(rng, &[128]);
    vec![big, bias, mid]
}

#[test]
fn uniform_blob_quantization_hurts_more_than_layerwise() {
    // The paper's accuracy argument: buckets that straddle layers mix
    // distributions; the loud bias drowns the quiet big matrix inside
    // shared buckets.
    let mut rng = Rng::seed_from_u64(3);
    let grads = layer_set(&mut rng);
    // QNCCL: one blob, buckets cross the layer boundary.
    let fused = pack(&grads);
    let mut blob_comp = QsgdCompressor::new(4, 2048);
    let enc = blob_comp.compress(&fused, &mut rng);
    let blob_rt = unpack(&blob_comp.decompress(&enc).unwrap(), &grads);
    // CGX: per-layer compression (and the bias filtered to fp32).
    let mut layer_rt = Vec::new();
    for (i, g) in grads.iter().enumerate() {
        if i == 1 {
            layer_rt.push(g.clone()); // filtered
            continue;
        }
        let mut c = CompressionScheme::cgx_default().build();
        let e = c.compress(g, &mut rng);
        layer_rt.push(c.decompress(&e).unwrap());
    }
    // Compare error on the quiet big matrix (layer 0).
    let blob_err = blob_rt[0].l2_distance(&grads[0]);
    let layer_err = layer_rt[0].l2_distance(&grads[0]);
    assert!(
        blob_err > 3.0 * layer_err,
        "blob {blob_err} vs layer-wise {layer_err}"
    );
    // And the bias is exact under CGX, lossy under QNCCL.
    assert_eq!(layer_rt[1].as_slice(), grads[1].as_slice());
    assert!(blob_rt[1].l2_distance(&grads[1]) > 0.0);
}

#[test]
fn traffic_matches_uniform_quantized_ring() {
    let world = 4;
    let stats = ThreadCluster::run(world, |t| {
        let mut rng = Rng::seed_from_u64(t.rank() as u64);
        let grad = Tensor::randn(&mut rng, &[4096]);
        let comp = Box::new(QsgdCompressor::new(4, 128));
        CommEngine::with_defaults(&t, ScratchPool::new())
            .allreduce(Algorithm::Ring, &grad, comp, &mut rng)
            .unwrap()
            .1
    })
    .unwrap();
    let comp = QsgdCompressor::new(4, 128);
    let chunk_bytes = comp.compressed_bytes(4096 / world);
    for s in &stats {
        // Reduce-scatter: (n-1) chunk sends; allgather: (n-1) relays.
        assert_eq!(s.bytes_sent, 2 * (world - 1) * chunk_bytes);
    }
}
