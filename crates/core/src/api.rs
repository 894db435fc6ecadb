//! The CGX user-facing API (paper Listing 1 and the Horovod extension).
//!
//! Users register their model's layer layout (names and sizes), exclude
//! sensitive layers from compression, and optionally pin per-layer
//! compression parameters. From that registration CGX derives both the
//! functional configuration (a [`LayerCompression`] driving the real
//! compressed collectives) and the performance-plane message list
//! ([`LayerMsg`]s for the step simulator).

use cgx_compress::CompressionScheme;
use cgx_engine::nn::ParamSpec;
use cgx_engine::LayerCompression;
use cgx_models::{LayerKind, LayerSpec, ModelSpec, Precision};
use cgx_simnet::{CommBackend, LayerMsg, ReductionScheme};

/// One registered layer: name, element count, and (if known) its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredLayer {
    /// Parameter name.
    pub name: String,
    /// Element count.
    pub elements: usize,
    /// Layer role when known (registration via raw `(name, numel)` pairs —
    /// the Torch-DDP path — does not know kinds and stores `None`).
    pub kind: Option<LayerKind>,
}

/// Builder for a [`Cgx`] session (mirrors `torch.distributed.init_process_group
/// (backend='qmpi')` plus the extension calls).
#[derive(Debug, Clone)]
pub struct CgxBuilder {
    backend: CommBackend,
    reduction: ReductionScheme,
    default_scheme: CompressionScheme,
    filter_small_layers: bool,
}

impl Default for CgxBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CgxBuilder {
    /// Starts from the CGX defaults: SHM backend, SRA reduction, 4-bit
    /// bucket-128 quantization, small-layer filtering on.
    pub fn new() -> Self {
        CgxBuilder {
            backend: CommBackend::Shm,
            reduction: ReductionScheme::ScatterReduceAllgather,
            default_scheme: CompressionScheme::cgx_default(),
            filter_small_layers: true,
        }
    }

    /// Selects the communication backend.
    pub fn backend(mut self, backend: CommBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the reduction scheme.
    pub fn reduction(mut self, scheme: ReductionScheme) -> Self {
        self.reduction = scheme;
        self
    }

    /// Sets the default compression scheme for non-excluded layers.
    pub fn default_scheme(mut self, scheme: CompressionScheme) -> Self {
        self.default_scheme = scheme;
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Cgx {
        Cgx {
            backend: self.backend,
            reduction: self.reduction,
            default_scheme: self.default_scheme,
            filter_small_layers: self.filter_small_layers,
            layers: Vec::new(),
            excludes: Vec::new(),
            overrides: Vec::new(),
        }
    }
}

/// A configured CGX session holding the registered model layout.
#[derive(Debug, Clone)]
pub struct Cgx {
    backend: CommBackend,
    reduction: ReductionScheme,
    default_scheme: CompressionScheme,
    filter_small_layers: bool,
    layers: Vec<RegisteredLayer>,
    excludes: Vec<String>,
    overrides: Vec<(String, CompressionScheme)>,
}

impl Cgx {
    /// Registers a model as `(name, numel)` pairs — exactly the Torch-DDP
    /// extension's `register_model` of Listing 1.
    pub fn register_model(&mut self, layers: impl IntoIterator<Item = (String, usize)>) {
        self.layers = layers
            .into_iter()
            .map(|(name, elements)| RegisteredLayer {
                name,
                elements,
                kind: None,
            })
            .collect();
    }

    /// Registers a zoo model with full layer-kind information (the Horovod
    /// integration path, which sees the framework's parameter metadata).
    pub fn register_model_spec(&mut self, model: &ModelSpec) {
        self.layers = model
            .layers()
            .iter()
            .map(|l| RegisteredLayer {
                name: l.name().to_string(),
                elements: l.elements(),
                kind: Some(l.kind()),
            })
            .collect();
    }

    /// Excludes layers whose name contains `pattern` from compression
    /// (Listing 1's `exclude_layer("bias")`).
    pub fn exclude_layer(&mut self, pattern: impl Into<String>) {
        self.excludes.push(pattern.into());
    }

    /// Pins a compression scheme for layers whose name contains `pattern`
    /// (the per-layer parameter API).
    pub fn set_layer_scheme(&mut self, pattern: impl Into<String>, scheme: CompressionScheme) {
        self.overrides.push((pattern.into(), scheme));
    }

    /// The configured backend.
    pub fn backend(&self) -> CommBackend {
        self.backend
    }

    /// The configured reduction scheme.
    pub fn reduction(&self) -> ReductionScheme {
        self.reduction
    }

    /// Registered layers.
    pub fn layers(&self) -> &[RegisteredLayer] {
        &self.layers
    }

    /// Resolves the effective compression scheme for one registered layer.
    pub fn scheme_for(&self, layer: &RegisteredLayer) -> CompressionScheme {
        if self
            .excludes
            .iter()
            .any(|p| layer.name.contains(p.as_str()))
        {
            return CompressionScheme::None;
        }
        for (p, s) in self.overrides.iter().rev() {
            if layer.name.contains(p.as_str()) {
                return *s;
            }
        }
        if self.filter_small_layers {
            if let Some(kind) = layer.kind {
                if kind.is_filtered_by_default() {
                    return CompressionScheme::None;
                }
            }
        }
        self.default_scheme
    }

    /// Derives the functional-plane policy for the training engine.
    pub fn layer_compression(&self) -> LayerCompression {
        let mut lc = if self.filter_small_layers {
            LayerCompression::filtered(self.default_scheme)
        } else {
            LayerCompression::uniform(self.default_scheme)
        };
        for p in &self.excludes {
            lc = lc.with_override(p.clone(), CompressionScheme::None);
        }
        for (p, s) in &self.overrides {
            lc = lc.with_override(p.clone(), *s);
        }
        lc
    }

    /// Derives the performance-plane message list: one [`LayerMsg`] per
    /// compressed layer (exact wire bytes, kernel cost), with all filtered
    /// layers fused into a single full-precision message scheduled with the
    /// earliest-produced layers (they are tiny; CGX batches them to avoid
    /// kernel launches).
    ///
    /// # Panics
    ///
    /// Panics if no model has been registered.
    pub fn layer_messages(&self, precision: Precision) -> Vec<LayerMsg> {
        assert!(!self.layers.is_empty(), "no model registered");
        let mut msgs = Vec::with_capacity(self.layers.len() + 1);
        let mut fused_fp = 0usize;
        for layer in &self.layers {
            let scheme = self.scheme_for(layer);
            if scheme == CompressionScheme::None {
                fused_fp += layer.elements;
                continue;
            }
            let comp = scheme.build();
            let wire = match scheme {
                CompressionScheme::PowerSgd { rank } => {
                    // Shape-exact factor size.
                    let (m, n) = shape_of(layer).as_matrix();
                    let r = rank.min(m).min(n);
                    (3 + (m + n) * r) * 4
                }
                _ => comp.compressed_bytes(layer.elements),
            };
            let kernel = comp.kernel_cost_per_element() * layer.elements as f64;
            msgs.push(LayerMsg::new(
                layer.name.clone(),
                layer.elements,
                wire,
                kernel,
            ));
        }
        if fused_fp > 0 {
            // Fused full-precision buffer, positioned first in forward
            // order (its members include the early norms/biases).
            msgs.insert(
                0,
                LayerMsg::new(
                    "fused-smalls(fp)",
                    fused_fp,
                    fused_fp * precision.bytes_per_grad_element(),
                    0.0,
                ),
            );
        }
        msgs
    }

    /// Param specs for the engine, synthesized from the registration.
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        self.layers
            .iter()
            .map(|l| ParamSpec {
                name: l.name.clone(),
                kind: l.kind.unwrap_or(LayerKind::Linear),
            })
            .collect()
    }
}

fn shape_of(layer: &RegisteredLayer) -> cgx_tensor::Shape {
    // Registration carries only element counts; approximate as square for
    // PowerSGD sizing, matching the compressor's own fallback.
    let side = (layer.elements as f64).sqrt().round().max(1.0) as usize;
    let rows = side;
    let cols = layer.elements.div_ceil(rows);
    cgx_tensor::Shape::matrix(rows, cols)
}

/// Convenience: `LayerSpec`-based registration entries.
impl From<&LayerSpec> for RegisteredLayer {
    fn from(l: &LayerSpec) -> Self {
        RegisteredLayer {
            name: l.name().to_string(),
            elements: l.elements(),
            kind: Some(l.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_models::ModelId;

    #[test]
    fn listing1_flow_matches_paper() {
        // The exact call sequence of Listing 1.
        let mut cgx = CgxBuilder::new().build();
        let model = ModelSpec::build(ModelId::ResNet50);
        let layers: Vec<(String, usize)> = model
            .layers()
            .iter()
            .map(|l| (l.name().to_string(), l.elements()))
            .collect();
        cgx.register_model(layers);
        cgx.exclude_layer("bn");
        cgx.exclude_layer("bias");
        // bn and bias layers resolve to full precision.
        let bn = cgx
            .layers()
            .iter()
            .find(|l| l.name.contains("bn"))
            .unwrap()
            .clone();
        assert_eq!(cgx.scheme_for(&bn), CompressionScheme::None);
        let conv = cgx
            .layers()
            .iter()
            .find(|l| l.name.contains("conv"))
            .unwrap()
            .clone();
        assert_eq!(cgx.scheme_for(&conv), CompressionScheme::cgx_default());
    }

    #[test]
    fn spec_registration_filters_by_kind_automatically() {
        let mut cgx = CgxBuilder::new().build();
        cgx.register_model_spec(&ModelSpec::build(ModelId::BertBase));
        let ln = cgx
            .layers()
            .iter()
            .find(|l| l.name.contains("LayerNorm"))
            .unwrap()
            .clone();
        assert_eq!(cgx.scheme_for(&ln), CompressionScheme::None);
    }

    #[test]
    fn per_layer_override_applies() {
        let mut cgx = CgxBuilder::new().build();
        cgx.register_model_spec(&ModelSpec::build(ModelId::TransformerXl));
        cgx.set_layer_scheme(
            "word_emb",
            CompressionScheme::Qsgd {
                bits: 2,
                bucket_size: 1024,
            },
        );
        let emb = cgx
            .layers()
            .iter()
            .find(|l| l.name.contains("word_emb"))
            .unwrap()
            .clone();
        assert!(matches!(
            cgx.scheme_for(&emb),
            CompressionScheme::Qsgd { bits: 2, .. }
        ));
    }

    #[test]
    fn messages_fuse_filtered_layers() {
        let mut cgx = CgxBuilder::new().build();
        let model = ModelSpec::build(ModelId::ResNet50);
        cgx.register_model_spec(&model);
        let msgs = cgx.layer_messages(model.precision());
        assert!(msgs[0].name.contains("fused"));
        // 54 weight tensors + 1 fused buffer.
        assert_eq!(msgs.len(), 55);
        // Total elements conserved.
        let total: usize = msgs.iter().map(|m| m.elements).sum();
        assert_eq!(total, model.param_count());
        // Wire is much smaller than fp32.
        let wire: usize = msgs.iter().map(|m| m.wire_bytes).sum();
        assert!((wire as f64) < 0.2 * (model.param_count() * 4) as f64);
    }

    #[test]
    fn explicit_excludes_shrink_compressed_set() {
        let mut cgx = CgxBuilder::new().build();
        let model = ModelSpec::build(ModelId::TransformerXl);
        cgx.register_model_spec(&model);
        let before = cgx.layer_messages(model.precision()).len();
        cgx.exclude_layer("r_net");
        let after = cgx.layer_messages(model.precision()).len();
        assert!(after < before);
    }

    #[test]
    fn builder_options_propagate() {
        let cgx = CgxBuilder::new()
            .backend(CommBackend::Mpi)
            .reduction(ReductionScheme::Ring)
            .default_scheme(CompressionScheme::OneBit { bucket_size: 64 })
            .build();
        assert_eq!(cgx.backend(), CommBackend::Mpi);
        assert_eq!(cgx.reduction(), ReductionScheme::Ring);
    }

    #[test]
    #[should_panic(expected = "no model registered")]
    fn messages_without_registration_panic() {
        CgxBuilder::new().build().layer_messages(Precision::Fp32);
    }
}
