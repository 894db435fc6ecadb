//! Layer and model descriptors.

use cgx_tensor::Shape;
use std::fmt;

/// The role a parameter tensor plays in its network.
///
/// CGX's layer filters key on this: norm and bias parameters are small and
/// compression-sensitive, so they are transmitted in full precision;
/// embeddings are huge and compression-tolerant, so adaptive compression
/// assigns them the lowest bit-widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution weight.
    Conv,
    /// Dense / fully-connected weight (incl. attention projections).
    Linear,
    /// Token/position embedding table.
    Embedding,
    /// Batch-norm or layer-norm scale parameter.
    Norm,
    /// Additive bias vector.
    Bias,
    /// Miscellaneous small parameters (cls tokens, pooling, ...).
    Other,
}

impl LayerKind {
    /// Whether CGX's default filter sends this layer uncompressed
    /// ("empirically, layers like batch/layer normalization and bias layers
    /// are sensitive to gradient compression, while being small").
    pub fn is_filtered_by_default(self) -> bool {
        matches!(self, LayerKind::Norm | LayerKind::Bias | LayerKind::Other)
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::Linear => "linear",
            LayerKind::Embedding => "embedding",
            LayerKind::Norm => "norm",
            LayerKind::Bias => "bias",
            LayerKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One named parameter tensor of a model, in *forward* (input-to-output)
/// order within [`ModelSpec::layers`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    name: String,
    kind: LayerKind,
    shape: Shape,
}

impl LayerSpec {
    /// Creates a layer descriptor.
    pub fn new(name: impl Into<String>, kind: LayerKind, dims: &[usize]) -> Self {
        LayerSpec {
            name: name.into(),
            kind,
            shape: Shape::from(dims),
        }
    }

    /// Parameter name, e.g. `"layer3.2.conv1.weight"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's role.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Parameter tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of parameters.
    pub fn elements(&self) -> usize {
        self.shape.len()
    }

    /// Gradient size in bytes at the given precision.
    pub fn grad_bytes(&self, precision: Precision) -> usize {
        self.elements() * precision.bytes_per_grad_element()
    }
}

/// Training numeric precision (paper Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full FP32 training (BERT-SQuAD in the paper).
    #[default]
    Fp32,
    /// AMP level 1: FP16 activations, FP32 weights and gradients (ViT).
    AmpLevel1,
    /// AMP level 2: FP16 model, activations and gradients (TXL, GPT-2).
    AmpLevel2,
}

impl Precision {
    /// Bytes per transmitted gradient element for the uncompressed baseline.
    pub fn bytes_per_grad_element(self) -> usize {
        match self {
            Precision::Fp32 | Precision::AmpLevel1 => 4,
            Precision::AmpLevel2 => 2,
        }
    }
}

/// Identifier of a zoo model (the paper's six evaluation workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// ResNet50 on ImageNet.
    ResNet50,
    /// VGG16 on ImageNet.
    Vgg16,
    /// Vision Transformer base (ViT-B/16) on ImageNet.
    VitBase,
    /// Transformer-XL base on WikiText-103.
    TransformerXl,
    /// BERT base on SQuAD v1 (question answering).
    BertBase,
    /// GPT-2 small on WikiText-2.
    Gpt2,
}

impl ModelId {
    /// All six evaluation workloads.
    pub fn all() -> [ModelId; 6] {
        [
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::VitBase,
            ModelId::TransformerXl,
            ModelId::BertBase,
            ModelId::Gpt2,
        ]
    }

    /// Canonical display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::ResNet50 => "ResNet50",
            ModelId::Vgg16 => "VGG16",
            ModelId::VitBase => "ViT-base",
            ModelId::TransformerXl => "Transformer-XL-base",
            ModelId::BertBase => "BERT",
            ModelId::Gpt2 => "GPT-2",
        }
    }

    /// Throughput unit: images or tokens per second.
    pub fn unit(self) -> &'static str {
        match self {
            ModelId::ResNet50 | ModelId::Vgg16 | ModelId::VitBase => "imgs/s",
            _ => "tokens/s",
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The short names [`ModelId`]'s `FromStr` reads, one per model; it also
/// takes `resnet`, `vgg`, `vit-base`, `transformer-xl`, `bert-base` and
/// `gpt-2`, in any case.
const MODEL_NAMES: &str = "resnet50, vgg16, vit, txl, bert, gpt2";

impl std::str::FromStr for ModelId {
    type Err = String;

    /// Reads a model name; the error names the choices.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "resnet50" | "resnet" => Ok(ModelId::ResNet50),
            "vgg16" | "vgg" => Ok(ModelId::Vgg16),
            "vit" | "vit-base" => Ok(ModelId::VitBase),
            "txl" | "transformer-xl" | "transformerxl" => Ok(ModelId::TransformerXl),
            "bert" | "bert-base" => Ok(ModelId::BertBase),
            "gpt2" | "gpt-2" => Ok(ModelId::Gpt2),
            _ => Err(format!("unknown model {s:?}: one of {MODEL_NAMES}")),
        }
    }
}

/// A complete model description: ordered parameter tensors plus the training
/// recipe constants the paper uses (Appendix C).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    id: ModelId,
    layers: Vec<LayerSpec>,
    per_gpu_batch: usize,
    items_per_sample: usize,
    precision: Precision,
}

impl ModelSpec {
    /// Builds the zoo model for `id` (see [`crate::zoo`]).
    pub fn build(id: ModelId) -> Self {
        crate::zoo::build(id)
    }

    pub(crate) fn from_parts(
        id: ModelId,
        layers: Vec<LayerSpec>,
        per_gpu_batch: usize,
        items_per_sample: usize,
        precision: Precision,
    ) -> Self {
        assert!(!layers.is_empty(), "model without layers");
        ModelSpec {
            id,
            layers,
            per_gpu_batch,
            items_per_sample,
            precision,
        }
    }

    /// The model's identifier.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// Parameter tensors in forward order. During the backward pass,
    /// gradients are produced in *reverse* of this order — embeddings and
    /// first convolutions arrive last, which is why the paper notes they
    /// "cannot be overlapped with computation".
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Per-GPU minibatch size from the paper's recipes.
    pub fn per_gpu_batch(&self) -> usize {
        self.per_gpu_batch
    }

    /// Throughput items per sample: 1 for images, sequence length for
    /// token-based models.
    pub fn items_per_sample(&self) -> usize {
        self.items_per_sample
    }

    /// Throughput items processed per GPU per optimization step.
    pub fn items_per_gpu_step(&self) -> usize {
        self.per_gpu_batch * self.items_per_sample
    }

    /// Training precision recipe.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(LayerSpec::elements).sum()
    }

    /// Total gradient bytes per step for the uncompressed baseline.
    pub fn grad_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.grad_bytes(self.precision))
            .sum()
    }

    /// Largest single layer (by parameter count).
    pub fn largest_layer(&self) -> &LayerSpec {
        self.layers
            .iter()
            .max_by_key(|l| l.elements())
            .expect("non-empty model")
    }

    /// Approximate activation memory per sample in MB during training
    /// (documented calibration against the published per-GPU batch sizes;
    /// used by the simulator's memory model to reproduce the paper's
    /// "2080's lower memory limits its maximum batch size" effect).
    pub fn activation_mb_per_sample(&self) -> f64 {
        match self.id {
            ModelId::ResNet50 => 130.0,
            ModelId::Vgg16 => 190.0,
            ModelId::VitBase => 170.0,
            // Token models: per sample = per full sequence.
            ModelId::TransformerXl => 160.0,
            ModelId::BertBase => 900.0,
            ModelId::Gpt2 => 2200.0,
        }
    }

    /// Fraction of parameters in layers the default filter excludes from
    /// compression (norms, biases).
    pub fn filtered_fraction(&self) -> f64 {
        let filtered: usize = self
            .layers
            .iter()
            .filter(|l| l.kind().is_filtered_by_default())
            .map(LayerSpec::elements)
            .sum();
        filtered as f64 / self.param_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spec_accessors() {
        let l = LayerSpec::new("fc.weight", LayerKind::Linear, &[10, 20]);
        assert_eq!(l.name(), "fc.weight");
        assert_eq!(l.elements(), 200);
        assert_eq!(l.grad_bytes(Precision::Fp32), 800);
        assert_eq!(l.grad_bytes(Precision::AmpLevel2), 400);
    }

    #[test]
    fn default_filter_matches_paper() {
        assert!(LayerKind::Norm.is_filtered_by_default());
        assert!(LayerKind::Bias.is_filtered_by_default());
        assert!(!LayerKind::Conv.is_filtered_by_default());
        assert!(!LayerKind::Embedding.is_filtered_by_default());
    }

    #[test]
    fn model_id_units() {
        assert_eq!(ModelId::ResNet50.unit(), "imgs/s");
        assert_eq!(ModelId::BertBase.unit(), "tokens/s");
        assert_eq!(ModelId::all().len(), 6);
    }

    #[test]
    fn every_model_parses_from_its_short_name_and_nothing_else_does() {
        let names: Vec<&str> = MODEL_NAMES.split(", ").collect();
        for (name, id) in names.iter().zip(ModelId::all()) {
            assert_eq!(name.parse::<ModelId>(), Ok(id));
            assert_eq!(name.to_uppercase().parse::<ModelId>(), Ok(id));
        }
        assert_eq!("resnet".parse::<ModelId>(), Ok(ModelId::ResNet50));
        let err = "resnet5".parse::<ModelId>().unwrap_err();
        assert!(
            err.contains("\"resnet5\"") && err.contains(MODEL_NAMES),
            "{err}"
        );
    }

    #[test]
    fn items_per_gpu_step_multiplies() {
        let m = ModelSpec::from_parts(
            ModelId::Gpt2,
            vec![LayerSpec::new("w", LayerKind::Linear, &[2, 2])],
            3,
            1024,
            Precision::AmpLevel2,
        );
        assert_eq!(m.items_per_gpu_step(), 3072);
        assert_eq!(m.grad_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "model without layers")]
    fn empty_model_panics() {
        ModelSpec::from_parts(ModelId::Gpt2, Vec::new(), 1, 1, Precision::Fp32);
    }
}
