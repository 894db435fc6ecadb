//! GPU memory accounting.
//!
//! The paper attributes part of the RTX 2080 Ti's throughput deficit to
//! memory: "The 2080 GPUs have lower throughput due to both lower memory,
//! limiting its maximum batch size, as well as lower computational power."
//! This module estimates the training footprint — weights, gradients,
//! optimizer state, activations — and the maximum per-GPU batch a model
//! fits at.

use crate::hardware::GpuModel;
use cgx_models::{ModelSpec, Precision};

/// Which optimizer's state is resident (paper recipes: SGD+momentum for
/// CNNs, Adam for Transformers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// One extra fp32 tensor (velocity).
    SgdMomentum,
    /// Two extra fp32 tensors (first/second moments).
    Adam,
}

impl OptimizerKind {
    /// The recipe optimizer for a model (Transformers train with Adam).
    pub fn for_model(model: &ModelSpec) -> Self {
        use cgx_models::ModelId::*;
        match model.id() {
            ResNet50 | Vgg16 => OptimizerKind::SgdMomentum,
            VitBase | TransformerXl | BertBase | Gpt2 => OptimizerKind::Adam,
        }
    }

    fn state_bytes_per_param(self) -> usize {
        match self {
            OptimizerKind::SgdMomentum => 4,
            OptimizerKind::Adam => 8,
        }
    }
}

/// Memory the framework and CUDA context reserve regardless of the model.
pub(crate) const FRAMEWORK_RESERVE_MB: f64 = 1500.0;

/// Estimated resident training memory in MB for a per-GPU batch size.
pub fn training_memory_mb(model: &ModelSpec, batch: usize, optimizer: OptimizerKind) -> f64 {
    let params = model.param_count() as f64;
    let weight_bytes = match model.precision() {
        // AMP keeps fp32 master weights plus an fp16 copy.
        Precision::AmpLevel1 | Precision::AmpLevel2 => 6.0,
        Precision::Fp32 => 4.0,
    };
    let grad_bytes = model.precision().bytes_per_grad_element() as f64;
    let opt_bytes = optimizer.state_bytes_per_param() as f64;
    let static_mb = params * (weight_bytes + grad_bytes + opt_bytes) / 1e6;
    static_mb + batch as f64 * model.activation_mb_per_sample() + FRAMEWORK_RESERVE_MB
}

/// The largest per-GPU batch that fits in `gpu`'s memory (0 if even the
/// static footprint does not fit).
pub fn max_batch(model: &ModelSpec, gpu: GpuModel) -> usize {
    let capacity_mb = gpu.spec().ram_gb as f64 * 1024.0;
    let optimizer = OptimizerKind::for_model(model);
    if training_memory_mb(model, 1, optimizer) > capacity_mb {
        return 0;
    }
    // Monotone in batch: binary search.
    let mut lo = 1usize;
    let mut hi = 65_536usize;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if training_memory_mb(model, mid, optimizer) <= capacity_mb {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_models::ModelId;

    #[test]
    fn memory_grows_linearly_with_batch() {
        let m = ModelSpec::build(ModelId::ResNet50);
        let a = training_memory_mb(&m, 8, OptimizerKind::SgdMomentum);
        let b = training_memory_mb(&m, 16, OptimizerKind::SgdMomentum);
        let c = training_memory_mb(&m, 24, OptimizerKind::SgdMomentum);
        assert!((c - b - (b - a)).abs() < 1e-6, "linear in batch");
        assert!(b > a);
    }

    #[test]
    fn adam_costs_more_than_sgd() {
        let m = ModelSpec::build(ModelId::VitBase);
        assert!(
            training_memory_mb(&m, 8, OptimizerKind::Adam)
                > training_memory_mb(&m, 8, OptimizerKind::SgdMomentum)
        );
    }

    #[test]
    fn recipe_batches_fit_on_their_evaluation_gpus() {
        // The paper ran all six models on the 3090 box (24 GB).
        for id in ModelId::all() {
            let m = ModelSpec::build(id);
            assert!(
                max_batch(&m, GpuModel::Rtx3090) >= m.per_gpu_batch(),
                "{id}: batch {} should fit 24 GB (max {})",
                m.per_gpu_batch(),
                max_batch(&m, GpuModel::Rtx3090),
            );
        }
    }

    #[test]
    fn the_2080_memory_limit_bites() {
        // Paper: "2080 GPUs have lower throughput due to ... lower memory,
        // limiting its maximum batch size". The 10 GB card cannot run the
        // ViT recipe batch the 24 GB card uses.
        let vit = ModelSpec::build(ModelId::VitBase);
        let on_2080 = max_batch(&vit, GpuModel::Rtx2080Ti);
        let on_3090 = max_batch(&vit, GpuModel::Rtx3090);
        assert!(
            on_2080 < vit.per_gpu_batch(),
            "2080 max {} vs recipe {}",
            on_2080,
            vit.per_gpu_batch()
        );
        assert!(on_3090 >= vit.per_gpu_batch());
    }

    #[test]
    fn max_batch_is_consistent_with_footprint() {
        let m = ModelSpec::build(ModelId::BertBase);
        for gpu in GpuModel::all() {
            let b = max_batch(&m, gpu);
            let cap = gpu.spec().ram_gb as f64 * 1024.0;
            let opt = OptimizerKind::for_model(&m);
            if b > 0 {
                assert!(training_memory_mb(&m, b, opt) <= cap);
                assert!(training_memory_mb(&m, b + 1, opt) > cap);
            }
        }
    }

    #[test]
    fn v100_16gb_is_tighter_than_a6000_48gb() {
        let gpt2 = ModelSpec::build(ModelId::Gpt2);
        assert!(max_batch(&gpt2, GpuModel::V100) < max_batch(&gpt2, GpuModel::A6000));
    }
}
