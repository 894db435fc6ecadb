//! GPU catalog: the paper's Table 1, plus single-GPU throughput envelopes.
//!
//! Throughputs for ResNet50 and Transformer-XL come directly from Table 1
//! (measured with the NVIDIA Deep Learning Examples benchmark); the other
//! four workloads are extrapolated from those anchors using each
//! architecture family's compute profile, and documented as substitutions in
//! `DESIGN.md`.

use cgx_models::ModelId;
use std::fmt;

/// GPU products used in the paper's evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA V100 (Volta, cloud-grade; DGX-1 and AWS p3 instances).
    V100,
    /// NVIDIA RTX A6000 (Ampere, cloud-grade).
    A6000,
    /// NVIDIA GeForce RTX 3090 (Ampere, consumer-grade).
    Rtx3090,
    /// NVIDIA GeForce RTX 2080 Ti (Turing, consumer-grade).
    Rtx2080Ti,
}

/// Static spec sheet for a GPU (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Product name.
    pub name: &'static str,
    /// Microarchitecture.
    pub arch: &'static str,
    /// Streaming multiprocessor count.
    pub sm_count: u32,
    /// Tensor core count.
    pub tensor_cores: u32,
    /// Whether GPUDirect peer-to-peer is supported (the cloud/consumer
    /// divide the paper is about).
    pub gpu_direct: bool,
    /// On-board memory in GB.
    pub ram_gb: u32,
    /// Thermal design power in watts.
    pub tdp_watts: u32,
}

impl GpuModel {
    /// All four catalog entries, server-grade first (Table 1 row order).
    pub fn all() -> [GpuModel; 4] {
        [
            GpuModel::V100,
            GpuModel::A6000,
            GpuModel::Rtx3090,
            GpuModel::Rtx2080Ti,
        ]
    }

    /// The Table 1 spec sheet.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuModel::V100 => GpuSpec {
                name: "V100",
                arch: "Volta",
                sm_count: 80,
                tensor_cores: 640,
                gpu_direct: true,
                ram_gb: 16,
                tdp_watts: 250,
            },
            GpuModel::A6000 => GpuSpec {
                name: "A6000",
                arch: "Ampere",
                sm_count: 84,
                tensor_cores: 336,
                gpu_direct: true,
                ram_gb: 48,
                tdp_watts: 300,
            },
            GpuModel::Rtx3090 => GpuSpec {
                name: "RTX 3090",
                arch: "Ampere",
                sm_count: 82,
                tensor_cores: 328,
                gpu_direct: false,
                ram_gb: 24,
                tdp_watts: 350,
            },
            GpuModel::Rtx2080Ti => GpuSpec {
                name: "RTX 2080 TI",
                arch: "Turing",
                sm_count: 68,
                tensor_cores: 544,
                gpu_direct: false,
                ram_gb: 10,
                tdp_watts: 250,
            },
        }
    }

    /// Single-GPU training throughput for a workload, in the workload's
    /// native unit (images/s or tokens/s), batch sizes per the paper's
    /// recipes. ResNet50 and Transformer-XL values are the paper's Table 1
    /// measurements; the rest are extrapolations.
    pub fn single_gpu_throughput(self, model: ModelId) -> f64 {
        use GpuModel::*;
        use ModelId::*;
        match (self, model) {
            // --- Table 1 anchors ---
            (V100, ResNet50) => 1226.0,
            (A6000, ResNet50) => 566.0,
            (Rtx3090, ResNet50) => 850.0,
            (Rtx2080Ti, ResNet50) => 484.0,
            (V100, TransformerXl) => 37_000.0,
            (A6000, TransformerXl) => 39_000.0,
            (Rtx3090, TransformerXl) => 39_000.0,
            (Rtx2080Ti, TransformerXl) => 13_000.0,
            // --- Extrapolations (documented in DESIGN.md) ---
            // VGG16 is ~1.8x heavier than ResNet50 per image.
            (V100, Vgg16) => 680.0,
            (A6000, Vgg16) => 320.0,
            (Rtx3090, Vgg16) => 470.0,
            (Rtx2080Ti, Vgg16) => 268.0,
            // ViT-B tracks the Transformer compute envelope.
            (V100, VitBase) => 330.0,
            (A6000, VitBase) => 345.0,
            (Rtx3090, VitBase) => 345.0,
            (Rtx2080Ti, VitBase) => 118.0,
            // BERT-SQuAD (FP32, batch 3 x 384 tokens).
            (V100, BertBase) => 5_200.0,
            (A6000, BertBase) => 5_450.0,
            (Rtx3090, BertBase) => 5_400.0,
            (Rtx2080Ti, BertBase) => 1_800.0,
            // GPT-2 small (AMP level 2, batch 3 x 1024 tokens).
            (V100, Gpt2) => 13_200.0,
            (A6000, Gpt2) => 14_000.0,
            (Rtx3090, Gpt2) => 14_000.0,
            (Rtx2080Ti, Gpt2) => 4_700.0,
        }
    }

    /// Single-GPU step compute time (seconds) for the paper's batch recipe.
    pub fn step_compute_seconds(self, model: &cgx_models::ModelSpec) -> f64 {
        model.items_per_gpu_step() as f64 / self.single_gpu_throughput(model.id())
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_models::ModelSpec;

    #[test]
    fn spec_sheet_matches_table_1() {
        let v100 = GpuModel::V100.spec();
        assert_eq!(v100.sm_count, 80);
        assert_eq!(v100.tensor_cores, 640);
        assert!(v100.gpu_direct);
        let rtx = GpuModel::Rtx3090.spec();
        assert!(!rtx.gpu_direct, "consumer GPUs lack GPUDirect");
        assert_eq!(rtx.ram_gb, 24);
    }

    #[test]
    fn table_1_throughput_anchors() {
        assert_eq!(
            GpuModel::V100.single_gpu_throughput(ModelId::ResNet50),
            1226.0
        );
        assert_eq!(
            GpuModel::Rtx3090.single_gpu_throughput(ModelId::TransformerXl),
            39_000.0
        );
    }

    #[test]
    fn consumer_and_cloud_envelopes_are_comparable() {
        // The paper's premise: RTX 3090 single-GPU performance rivals V100
        // on Transformer workloads.
        let r = GpuModel::Rtx3090.single_gpu_throughput(ModelId::TransformerXl);
        let v = GpuModel::V100.single_gpu_throughput(ModelId::TransformerXl);
        assert!(r >= v);
    }

    #[test]
    fn step_compute_matches_batch_recipe() {
        let m = ModelSpec::build(ModelId::ResNet50);
        let t = GpuModel::Rtx3090.step_compute_seconds(&m);
        assert!((t - 32.0 / 850.0).abs() < 1e-12);
        let txl = ModelSpec::build(ModelId::TransformerXl);
        let t = GpuModel::Rtx3090.step_compute_seconds(&txl);
        assert!((t - (32.0 * 192.0) / 39_000.0).abs() < 1e-12);
    }

    #[test]
    fn every_pair_has_a_throughput() {
        for gpu in GpuModel::all() {
            for model in ModelId::all() {
                assert!(gpu.single_gpu_throughput(model) > 0.0);
            }
        }
    }
}
