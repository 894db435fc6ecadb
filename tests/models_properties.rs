//! Property/invariant tests over the model zoo and the synthetic gradient
//! source.

use cgx::models::{GradientSynth, LayerKind, ModelId, ModelSpec};
use cgx::tensor::Rng;
use cgx_testkit::cases;

#[test]
fn zoo_invariants_hold_for_every_model() {
    for id in ModelId::all() {
        let m = ModelSpec::build(id);
        // Non-degenerate.
        assert!(!m.layers().is_empty(), "{id}");
        assert!(m.per_gpu_batch() > 0 && m.items_per_sample() > 0, "{id}");
        // Layer names unique.
        let mut names: Vec<&str> = m.layers().iter().map(|l| l.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "{id}: duplicate layer names");
        // Param count equals the sum of layer elements; grad bytes are
        // elements x precision width.
        let total: usize = m.layers().iter().map(|l| l.elements()).sum();
        assert_eq!(total, m.param_count(), "{id}");
        assert_eq!(
            m.grad_bytes(),
            m.param_count() * m.precision().bytes_per_grad_element(),
            "{id}"
        );
        // The largest layer really is the max.
        let max = m.layers().iter().map(|l| l.elements()).max().unwrap();
        assert_eq!(m.largest_layer().elements(), max, "{id}");
        // Norm/bias share is small but present.
        let f = m.filtered_fraction();
        assert!(f > 0.0 && f < 0.02, "{id}: filtered fraction {f}");
        // Published parameter ranges (25M..200M).
        let millions = m.param_count() as f64 / 1e6;
        assert!((20.0..200.0).contains(&millions), "{id}: {millions}M");
    }
}

#[test]
fn gradient_decay_rates_are_kind_dependent() {
    // Embeddings cool fastest, norms slowest — the structure that makes
    // online adaptation worthwhile.
    let m = ModelSpec::build(ModelId::TransformerXl);
    let emb = m
        .layers()
        .iter()
        .find(|l| l.kind() == LayerKind::Embedding)
        .unwrap();
    let lin = m
        .layers()
        .iter()
        .find(|l| l.kind() == LayerKind::Linear)
        .unwrap();
    let norm = m
        .layers()
        .iter()
        .find(|l| l.kind() == LayerKind::Norm)
        .unwrap();
    let ratio = |l: &cgx::models::LayerSpec| {
        GradientSynth::layer_sigma(l, 1000) / GradientSynth::layer_sigma(l, 0)
    };
    assert!(ratio(emb) < ratio(lin), "embedding must decay fastest");
    assert!(ratio(lin) < ratio(norm), "norms must decay slowest");
}

#[test]
fn expected_norms_are_positive_and_monotone_in_steps() {
    cases(24, |rng| {
        // More accumulation steps => larger expected accumulated norm,
        // layer by layer (sigma decays slower than sqrt(steps) grows over
        // small windows).
        let (steps, extra, seed) = (rng.range(1..5), rng.range(1..5), rng.below(200));
        let m = ModelSpec::build(ModelId::ResNet50);
        let na = GradientSynth::new(&m, seed).expected_accumulated_norms(steps);
        let nb = GradientSynth::new(&m, seed).expected_accumulated_norms(steps + extra);
        for (x, y) in na.iter().zip(&nb) {
            assert!(*x > 0.0 && *y > 0.0);
            assert!(y >= x, "{y} < {x}");
        }
    });
}

#[test]
fn layer_gradients_are_deterministic_and_shaped() {
    cases(24, |rng| {
        let m = ModelSpec::build(ModelId::VitBase);
        let (idx, seed) = (rng.index(30) % m.layers().len(), rng.below(200));
        let ga = GradientSynth::new(&m, seed).layer_gradient(idx);
        let gb = GradientSynth::new(&m, seed).layer_gradient(idx);
        assert_eq!(ga.shape(), m.layers()[idx].shape());
        assert_eq!(ga.as_slice(), gb.as_slice());
        assert!(ga.as_slice().iter().all(|v| v.is_finite()));
    });
}

#[test]
fn sigma_is_positive_and_decreasing() {
    cases(24, |rng| {
        let step = rng.below(100_000);
        let m = ModelSpec::build(ModelId::BertBase);
        let mut check_rng = Rng::seed_from_u64(1);
        for _ in 0..5 {
            let l = &m.layers()[check_rng.index(m.layers().len())];
            let now = GradientSynth::layer_sigma(l, step);
            let later = GradientSynth::layer_sigma(l, step + 1000);
            assert!(now > 0.0);
            assert!(later < now);
        }
    });
}
