//! Smoke tests pinning the extension results (beyond the paper's tables):
//! scheduling ablations, local SGD, online adaptation, QNCCL, memory
//! limits, the attention LM.

use cgx::adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx::bench::api::CgxBuilder;
use cgx::bench::session_sim::simulate_adaptive_session;
use cgx::engine::data::GaussianMixture;
use cgx::engine::nn::Mlp;
use cgx::engine::{train_data_parallel, train_local_sgd, LayerCompression, TrainConfig};
use cgx::models::{ModelId, ModelSpec};
use cgx::simnet::{
    cross_barrier_step, max_batch, simulate_step_ordered, ComputeProfile, GpuModel, MachineSpec,
    MessageOrder, StepConfig,
};
use cgx::tensor::Rng;

fn cgx_msgs(model: ModelId) -> (Vec<cgx::simnet::LayerMsg>, ComputeProfile) {
    let spec = ModelSpec::build(model);
    let mut session = CgxBuilder::new().build();
    session.register_model_spec(&spec);
    let msgs = session.layer_messages(spec.precision());
    let compute = ComputeProfile::new(MachineSpec::rtx3090().gpu().step_compute_seconds(&spec));
    (msgs, compute)
}

#[test]
fn cross_barrier_single_node_gain_is_insignificant_for_resnet() {
    // The paper's claim, verbatim, for the compressed single-node setup.
    let (msgs, compute) = cgx_msgs(ModelId::ResNet50);
    let cfg = StepConfig::cgx(MachineSpec::rtx3090());
    let within = simulate_step_ordered(&cfg, &msgs, compute, MessageOrder::Fifo);
    let cross = cross_barrier_step(&cfg, &msgs, compute, false).expect("no clipping");
    let gain = within.step_seconds / cross.step_seconds;
    assert!(gain < 1.03, "gain {gain:.3} should be insignificant");
}

#[test]
fn clipping_disables_cross_barrier() {
    let (msgs, compute) = cgx_msgs(ModelId::TransformerXl);
    let cfg = StepConfig::cgx(MachineSpec::rtx3090());
    assert!(cross_barrier_step(&cfg, &msgs, compute, true).is_none());
}

#[test]
fn priority_scheduling_is_a_safe_default() {
    for model in [ModelId::ResNet50, ModelId::TransformerXl, ModelId::Vgg16] {
        let (msgs, compute) = cgx_msgs(model);
        let cfg = StepConfig::cgx(MachineSpec::rtx3090());
        let fifo = simulate_step_ordered(&cfg, &msgs, compute, MessageOrder::Fifo);
        let prio = simulate_step_ordered(&cfg, &msgs, compute, MessageOrder::Priority);
        assert!(prio.step_seconds <= fifo.step_seconds + 1e-9, "{model}");
    }
}

#[test]
fn local_sgd_and_gradient_sync_reach_similar_accuracy() {
    let task = GaussianMixture::new(5, 10, 1.3);
    let mut rng = Rng::seed_from_u64(5);
    let model = Mlp::new(&mut rng, &[10, 24, 5]);
    let eval = |m: &Mlp| {
        let mut r = Rng::seed_from_u64(999);
        let (x, y) = task.sample_batch(&mut r, 1024);
        m.accuracy(&x, &y)
    };
    let cfg = TrainConfig {
        lr: 0.2,
        compression: LayerCompression::cgx_default(),
        ..TrainConfig::new(4, 200)
    };
    let t1 = task.clone();
    let (grad_sync, grad_rep) =
        train_data_parallel(&model, move |r| t1.sample_batch(r, 16), &cfg).unwrap();
    let t2 = task.clone();
    let (local, local_rep) =
        train_local_sgd(&model, move |r| t2.sample_batch(r, 16), &cfg, 8).unwrap();
    assert!(eval(&grad_sync) > 0.85);
    assert!(eval(&local) > 0.85);
    // Local SGD at period 8 cuts traffic by ~8x.
    let ratio = grad_rep.bytes_sent_per_worker as f64 / local_rep.bytes_sent_per_worker as f64;
    assert!(ratio > 5.0, "traffic ratio {ratio}");
}

#[test]
fn online_adaptation_compresses_harder_as_training_progresses() {
    let r = simulate_adaptive_session(
        &MachineSpec::genesis_cluster(),
        ModelId::TransformerXl,
        AdaptivePolicy::KMeans,
        &AdaptiveOptions::default(),
        1000,
        250,
        7,
    );
    let first = r.epochs.first().unwrap().size_ratio;
    let last = r.epochs.last().unwrap().size_ratio;
    assert!(last <= first + 1e-9, "size ratio {first} -> {last}");
    assert!(r.speedup() > 1.15, "whole-run speedup {:.2}", r.speedup());
}

#[test]
fn memory_model_reproduces_the_2080_batch_limit() {
    let vit = ModelSpec::build(ModelId::VitBase);
    assert!(max_batch(&vit, GpuModel::Rtx2080Ti) < vit.per_gpu_batch());
    assert!(max_batch(&vit, GpuModel::Rtx3090) >= vit.per_gpu_batch());
    // Every recipe fits the machines the paper ran it on (24 GB cards).
    for id in ModelId::all() {
        let m = ModelSpec::build(id);
        assert!(
            max_batch(&m, GpuModel::Rtx3090) >= m.per_gpu_batch(),
            "{id}"
        );
    }
}

#[test]
fn qnccl_fused_ring_reduces_exactly_like_a_mean() {
    use cgx::collectives::{reduce::Algorithm, CommEngine, ThreadCluster};
    use cgx::compress::{QsgdCompressor, ScratchPool};
    use cgx::tensor::Tensor;
    let results = ThreadCluster::run(4, |t| {
        let grad = Tensor::full(&[64], t.rank() as f32);
        let comp = Box::new(QsgdCompressor::new(8, 64));
        let mut rng = Rng::seed_from_u64(t.rank() as u64);
        let (mut mean, _, _) = CommEngine::with_defaults(&t, ScratchPool::new())
            .allreduce(Algorithm::Ring, &grad, comp, &mut rng)
            .unwrap();
        mean.scale(0.25);
        mean
    })
    .unwrap();
    // Mean of 0..=3 is 1.5; 8-bit quantization of a constant bucket is
    // near-exact.
    for r in &results {
        assert!((r[0] - 1.5).abs() < 0.05, "{}", r[0]);
    }
}
