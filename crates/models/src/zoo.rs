//! Builders for the six evaluation models.
//!
//! Each builder reconstructs the published architecture's parameter
//! inventory layer by layer, in forward order, including the small norm and
//! bias tensors that CGX's layer filters act on. Parameter totals are
//! asserted against the published counts in tests.

use crate::spec::{LayerKind, LayerSpec, ModelId, ModelSpec, Precision};

/// Builds the layer inventory and training-recipe constants for `id`.
pub fn build(id: ModelId) -> ModelSpec {
    match id {
        ModelId::ResNet50 => resnet50(),
        ModelId::Vgg16 => vgg16(),
        ModelId::VitBase => vit_base(),
        ModelId::TransformerXl => transformer_xl_base(),
        ModelId::BertBase => bert_base(),
        ModelId::Gpt2 => gpt2_small(),
    }
}

struct LayerList(Vec<LayerSpec>);

impl LayerList {
    fn new() -> Self {
        LayerList(Vec::new())
    }

    fn push(&mut self, name: impl Into<String>, kind: LayerKind, dims: &[usize]) {
        self.0.push(LayerSpec::new(name, kind, dims));
    }

    /// Convolution weight.
    fn conv(&mut self, name: &str, out_c: usize, in_c: usize, k: usize) {
        self.push(
            format!("{name}.weight"),
            LayerKind::Conv,
            &[out_c, in_c, k, k],
        );
    }

    /// Batch/layer norm: weight + bias of width `c`.
    fn norm(&mut self, name: &str, c: usize) {
        self.push(format!("{name}.weight"), LayerKind::Norm, &[c]);
        self.push(format!("{name}.bias"), LayerKind::Bias, &[c]);
    }

    /// Dense layer with bias.
    fn linear(&mut self, name: &str, in_f: usize, out_f: usize) {
        self.push(format!("{name}.weight"), LayerKind::Linear, &[out_f, in_f]);
        self.push(format!("{name}.bias"), LayerKind::Bias, &[out_f]);
    }

    /// Dense layer without bias.
    fn linear_no_bias(&mut self, name: &str, in_f: usize, out_f: usize) {
        self.push(format!("{name}.weight"), LayerKind::Linear, &[out_f, in_f]);
    }

    /// Embedding table.
    fn embedding(&mut self, name: &str, vocab: usize, dim: usize) {
        self.push(
            format!("{name}.weight"),
            LayerKind::Embedding,
            &[vocab, dim],
        );
    }
}

/// ResNet50 (He et al.) — ~25.6 M parameters, ImageNet classification.
pub fn resnet50() -> ModelSpec {
    let mut l = LayerList::new();
    l.conv("conv1", 64, 3, 7);
    l.norm("bn1", 64);
    let stage_blocks = [3usize, 4, 6, 3];
    let mut in_c = 64;
    for (s, &blocks) in stage_blocks.iter().enumerate() {
        let mid = 64 << s; // 64, 128, 256, 512
        let out = mid * 4;
        for b in 0..blocks {
            let p = format!("layer{}.{b}", s + 1);
            l.conv(&format!("{p}.conv1"), mid, in_c, 1);
            l.norm(&format!("{p}.bn1"), mid);
            l.conv(&format!("{p}.conv2"), mid, mid, 3);
            l.norm(&format!("{p}.bn2"), mid);
            l.conv(&format!("{p}.conv3"), out, mid, 1);
            l.norm(&format!("{p}.bn3"), out);
            if b == 0 {
                l.conv(&format!("{p}.downsample.0"), out, in_c, 1);
                l.norm(&format!("{p}.downsample.1"), out);
            }
            in_c = out;
        }
    }
    l.linear("fc", 2048, 1000);
    ModelSpec::from_parts(ModelId::ResNet50, l.0, 32, 1, Precision::AmpLevel1)
}

/// VGG16 (configuration D) — ~138 M parameters, dominated by the FC head.
pub fn vgg16() -> ModelSpec {
    let mut l = LayerList::new();
    let cfg: [&[usize]; 5] = [
        &[64, 64],
        &[128, 128],
        &[256, 256, 256],
        &[512, 512, 512],
        &[512, 512, 512],
    ];
    let mut in_c = 3;
    let mut idx = 0;
    for stage in cfg {
        for &out_c in stage {
            l.conv(&format!("features.{idx}"), out_c, in_c, 3);
            l.push(format!("features.{idx}.bias"), LayerKind::Bias, &[out_c]);
            in_c = out_c;
            idx += 1;
        }
    }
    l.linear("classifier.0", 512 * 7 * 7, 4096);
    l.linear("classifier.3", 4096, 4096);
    l.linear("classifier.6", 4096, 1000);
    ModelSpec::from_parts(ModelId::Vgg16, l.0, 32, 1, Precision::AmpLevel1)
}

/// ViT-B/16 (Dosovitskiy et al.) — ~86 M parameters.
pub(crate) fn vit_base() -> ModelSpec {
    let d = 768;
    let mut l = LayerList::new();
    l.push("cls_token", LayerKind::Other, &[d]);
    l.push("pos_embed", LayerKind::Other, &[197, d]);
    l.push("patch_embed.proj.weight", LayerKind::Conv, &[d, 3, 16, 16]);
    l.push("patch_embed.proj.bias", LayerKind::Bias, &[d]);
    for b in 0..12 {
        let p = format!("blocks.{b}");
        l.norm(&format!("{p}.norm1"), d);
        l.linear(&format!("{p}.attn.qkv"), d, 3 * d);
        l.linear(&format!("{p}.attn.proj"), d, d);
        l.norm(&format!("{p}.norm2"), d);
        l.linear(&format!("{p}.mlp.fc1"), d, 4 * d);
        l.linear(&format!("{p}.mlp.fc2"), 4 * d, d);
    }
    l.norm("norm", d);
    l.linear("head", d, 1000);
    ModelSpec::from_parts(ModelId::VitBase, l.0, 72, 1, Precision::AmpLevel1)
}

/// Transformer-XL base on WikiText-103 — ~191 M parameters, of which
/// ~137 M sit in the vocabulary embedding. The paper calls this "the model
/// with the most non-uniform layer sizes" and uses it as the adaptive
/// compression case study. Sequence (target) length 192, per-GPU batch 32.
pub(crate) fn transformer_xl_base() -> ModelSpec {
    let d = 512;
    let d_inner = 2048;
    let vocab = 267_735; // WikiText-103 vocabulary
    let mut l = LayerList::new();
    l.embedding("word_emb", vocab, d);
    for b in 0..16 {
        let p = format!("layers.{b}");
        l.linear_no_bias(&format!("{p}.attn.qkv_net"), d, 3 * d);
        l.linear_no_bias(&format!("{p}.attn.o_net"), d, d);
        l.linear_no_bias(&format!("{p}.attn.r_net"), d, d);
        l.norm(&format!("{p}.attn.layer_norm"), d);
        l.linear(&format!("{p}.ff.CoreNet.0"), d, d_inner);
        l.linear(&format!("{p}.ff.CoreNet.3"), d_inner, d);
        l.norm(&format!("{p}.ff.layer_norm"), d);
    }
    ModelSpec::from_parts(ModelId::TransformerXl, l.0, 32, 192, Precision::AmpLevel2)
}

/// BERT base for SQuAD question answering — ~109 M parameters. Per-GPU
/// batch 3, sequence length 384, FP32 (paper Appendix C).
pub(crate) fn bert_base() -> ModelSpec {
    let d = 768;
    let mut l = LayerList::new();
    l.embedding("embeddings.word_embeddings", 30_522, d);
    l.embedding("embeddings.position_embeddings", 512, d);
    l.embedding("embeddings.token_type_embeddings", 2, d);
    l.norm("embeddings.LayerNorm", d);
    for b in 0..12 {
        let p = format!("encoder.layer.{b}");
        l.linear(&format!("{p}.attention.self.query"), d, d);
        l.linear(&format!("{p}.attention.self.key"), d, d);
        l.linear(&format!("{p}.attention.self.value"), d, d);
        l.linear(&format!("{p}.attention.output.dense"), d, d);
        l.norm(&format!("{p}.attention.output.LayerNorm"), d);
        l.linear(&format!("{p}.intermediate.dense"), d, 4 * d);
        l.linear(&format!("{p}.output.dense"), 4 * d, d);
        l.norm(&format!("{p}.output.LayerNorm"), d);
    }
    l.linear("pooler.dense", d, d);
    l.linear("qa_outputs", d, 2);
    ModelSpec::from_parts(ModelId::BertBase, l.0, 3, 384, Precision::Fp32)
}

/// GPT-2 small on WikiText-2 — ~124 M parameters. Per-GPU batch 3,
/// sequence length 1024, AMP level 2.
pub(crate) fn gpt2_small() -> ModelSpec {
    let d = 768;
    let mut l = LayerList::new();
    l.embedding("wte", 50_257, d);
    l.embedding("wpe", 1024, d);
    for b in 0..12 {
        let p = format!("h.{b}");
        l.norm(&format!("{p}.ln_1"), d);
        l.linear(&format!("{p}.attn.c_attn"), d, 3 * d);
        l.linear(&format!("{p}.attn.c_proj"), d, d);
        l.norm(&format!("{p}.ln_2"), d);
        l.linear(&format!("{p}.mlp.c_fc"), d, 4 * d);
        l.linear(&format!("{p}.mlp.c_proj"), 4 * d, d);
    }
    l.norm("ln_f", d);
    ModelSpec::from_parts(ModelId::Gpt2, l.0, 3, 1024, Precision::AmpLevel2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_params(id: ModelId, expected_m: f64, tol_m: f64) {
        let m = ModelSpec::build(id);
        let got = m.param_count() as f64 / 1e6;
        assert!(
            (got - expected_m).abs() < tol_m,
            "{id}: {got:.2}M params, expected ~{expected_m}M"
        );
    }

    #[test]
    fn resnet50_param_count() {
        assert_params(ModelId::ResNet50, 25.56, 0.5);
    }

    #[test]
    fn vgg16_param_count() {
        assert_params(ModelId::Vgg16, 138.36, 1.0);
    }

    #[test]
    fn vit_base_param_count() {
        assert_params(ModelId::VitBase, 86.6, 1.5);
    }

    #[test]
    fn transformer_xl_param_count() {
        assert_params(ModelId::TransformerXl, 191.9, 3.0);
    }

    #[test]
    fn bert_base_param_count() {
        assert_params(ModelId::BertBase, 109.5, 1.5);
    }

    #[test]
    fn gpt2_param_count() {
        assert_params(ModelId::Gpt2, 124.4, 1.5);
    }

    #[test]
    fn txl_embedding_dominates() {
        let m = ModelSpec::build(ModelId::TransformerXl);
        let big = m.largest_layer();
        assert_eq!(big.kind(), LayerKind::Embedding);
        assert!(big.elements() as f64 / m.param_count() as f64 > 0.6);
    }

    #[test]
    fn vgg_fc_head_dominates() {
        let m = ModelSpec::build(ModelId::Vgg16);
        let big = m.largest_layer();
        assert_eq!(big.kind(), LayerKind::Linear);
        assert!(big.elements() > 100_000_000 / 2 * 2 / 3); // fc6: 102.7M
    }

    #[test]
    fn filtered_fraction_is_small_everywhere() {
        for id in ModelId::all() {
            let m = ModelSpec::build(id);
            assert!(
                m.filtered_fraction() < 0.01,
                "{id}: norm/bias fraction {}",
                m.filtered_fraction()
            );
        }
    }

    #[test]
    fn all_models_have_unique_layer_names() {
        for id in ModelId::all() {
            let m = ModelSpec::build(id);
            let mut names: Vec<&str> = m.layers().iter().map(|l| l.name()).collect();
            let total = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), total, "{id} has duplicate layer names");
        }
    }

    #[test]
    fn grad_bytes_respects_precision() {
        let txl = ModelSpec::build(ModelId::TransformerXl);
        // AMP level 2 => 2 bytes per element.
        assert_eq!(txl.grad_bytes(), txl.param_count() * 2);
        let bert = ModelSpec::build(ModelId::BertBase);
        assert_eq!(bert.grad_bytes(), bert.param_count() * 4);
    }

    #[test]
    fn resnet_layer_structure() {
        let m = ModelSpec::build(ModelId::ResNet50);
        // 1 stem + 16 blocks x 3 convs + 4 downsamples + fc = 54 weight
        // tensors of kind Conv/Linear.
        let convs = m
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::Conv))
            .count();
        assert_eq!(convs, 1 + 16 * 3 + 4);
        let linears = m
            .layers()
            .iter()
            .filter(|l| matches!(l.kind(), LayerKind::Linear))
            .count();
        assert_eq!(linears, 1);
    }

    #[test]
    fn batch_recipe_totals_match_paper() {
        // Appendix C: total batches on 8 GPUs.
        assert_eq!(ModelSpec::build(ModelId::ResNet50).per_gpu_batch() * 8, 256);
        assert_eq!(ModelSpec::build(ModelId::Vgg16).per_gpu_batch() * 8, 256);
        assert_eq!(ModelSpec::build(ModelId::VitBase).per_gpu_batch() * 8, 576);
        assert_eq!(
            ModelSpec::build(ModelId::TransformerXl).per_gpu_batch() * 8,
            256
        );
        assert_eq!(ModelSpec::build(ModelId::Gpt2).per_gpu_batch() * 8, 24);
    }
}
