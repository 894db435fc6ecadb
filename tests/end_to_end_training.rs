//! Cross-crate integration: the CGX session API driving the real training
//! engine, end to end — registration, filters, per-layer overrides,
//! compressed collectives, accuracy recovery.

use cgx_bench::api::CgxBuilder;
use cgx_compress::CompressionScheme;
use cgx_engine::data::{GaussianMixture, MarkovChainLm};
use cgx_engine::nn::{EmbeddingLm, Mlp};
use cgx_engine::{train_data_parallel, LayerCompression, TrainConfig};
use cgx_tensor::Rng;

#[test]
fn session_policy_drives_the_training_engine() {
    // Configure a session Listing-1 style and hand its policy to the
    // engine; training must work and compress the linear layers only.
    let mut session = CgxBuilder::new().build();
    let mut rng = Rng::seed_from_u64(3);
    let model = Mlp::new(&mut rng, &[10, 24, 5]);
    session.register_model(
        model
            .param_specs()
            .iter()
            .zip(model.params())
            .map(|(s, p)| (s.name.clone(), p.len())),
    );
    session.exclude_layer("bias");
    let policy = session.layer_compression();

    let task = GaussianMixture::new(5, 10, 1.4);
    let cfg = TrainConfig {
        lr: 0.2,
        compression: policy,
        ..TrainConfig::new(4, 200)
    };
    let t = task.clone();
    let (trained, report) =
        train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
    let mut eval_rng = Rng::seed_from_u64(99);
    let (x, y) = task.sample_batch(&mut eval_rng, 1024);
    assert!(trained.accuracy(&x, &y) > 0.85);
    // Compression actually happened: traffic well below fp32.
    let fp32_per_step: usize = model.params().iter().map(|p| p.len() * 4 * 2 * 3 / 4).sum();
    assert!(report.bytes_sent_per_worker < 200 * fp32_per_step / 2);
}

#[test]
fn per_layer_override_reduces_embedding_traffic() {
    let chain = MarkovChainLm::new(50, 4.0, 7);
    let mut rng = Rng::seed_from_u64(11);
    let model = EmbeddingLm::new(&mut rng, 50, 8);
    let run = |compression: LayerCompression| {
        let cfg = TrainConfig {
            lr: 0.4,
            clip: Some(5.0),
            compression,
            ..TrainConfig::new(2, 20)
        };
        let c = chain.clone();
        train_data_parallel(&model, move |r| c.sample_batch(r, 16), &cfg)
            .unwrap()
            .1
            .bytes_sent_per_worker
    };
    let four_bit = run(LayerCompression::cgx_default());
    let two_bit_emb = run(LayerCompression::cgx_default().with_override(
        "word_emb",
        CompressionScheme::Qsgd {
            bits: 2,
            bucket_size: 64,
        },
    ));
    assert!(
        two_bit_emb < four_bit,
        "2-bit embedding must shrink traffic: {two_bit_emb} vs {four_bit}"
    );
}

#[test]
fn compressed_and_uncompressed_reach_similar_loss() {
    let task = GaussianMixture::new(4, 8, 1.5);
    let mut rng = Rng::seed_from_u64(21);
    let model = Mlp::new(&mut rng, &[8, 16, 4]);
    let run = |compression: LayerCompression| {
        let cfg = TrainConfig {
            compression,
            ..TrainConfig::new(4, 250)
        };
        let t = task.clone();
        let (_, report) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        let tail = &report.losses[report.losses.len() - 20..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let base = run(LayerCompression::none());
    let cgx = run(LayerCompression::cgx_default());
    assert!(
        cgx < base + 0.15,
        "compressed loss {cgx} vs baseline {base}"
    );
}

#[test]
fn all_reduction_algorithms_train_successfully() {
    use cgx_collectives::reduce::Algorithm;
    let task = GaussianMixture::new(3, 6, 1.5);
    let mut rng = Rng::seed_from_u64(31);
    let model = Mlp::new(&mut rng, &[6, 12, 3]);
    for algorithm in Algorithm::all() {
        let cfg = TrainConfig {
            algorithm,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(3, 120)
        };
        let t = task.clone();
        let (trained, _) =
            train_data_parallel(&model, move |r| t.sample_batch(r, 16), &cfg).unwrap();
        let mut eval_rng = Rng::seed_from_u64(99);
        let (x, y) = task.sample_batch(&mut eval_rng, 512);
        assert!(
            trained.accuracy(&x, &y) > 0.8,
            "{algorithm:?} failed to train"
        );
    }
}
