//! End-to-end throughput estimation for CGX and every baseline system the
//! paper compares against.
//!
//! The estimator composes three substrates: single-GPU compute envelopes
//! (`cgx_simnet::hardware`), exact compressed wire sizes
//! (`cgx_compress`), and the overlap-aware step simulator
//! (`cgx_simnet::step`). Each [`SystemSetup`] reproduces the corresponding
//! real system's integration point:
//!
//! | setup | integration | consequence |
//! |---|---|---|
//! | `BaselineNccl` | Horovod/DDP over vanilla NCCL | fp32 wire, ring protocol bandwidth |
//! | `Qnccl` | compression inside NCCL primitives | fused buffer, no overlap, uniform compression, kernel contention |
//! | `Cgx` | communication-engine integration | per-layer wire, SRA over SHM, filters |
//! | `Grace { .. }` | NCCL-Allgather framework | `(N-1)·c(d)` traffic, byte-aligned INT8 wire |
//! | `PowerSgd { .. }` | associative DDP hook | tiny factors, fp32-only compute, GEMM overhead |

use crate::api::{Cgx, CgxBuilder};
use cgx_compress::{CompressionScheme, Compressor, QsgdCompressor};
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::{
    fuse_messages, simulate_step, CommBackend, ComputeProfile, GpuModel, LayerMsg, MachineSpec,
    ReductionScheme, StepConfig, StepReport, SyncMode, TransportQuality,
};

/// PyTorch-DDP style gradient-bucket size for the uncompressed baseline.
const DDP_BUCKET_BYTES: usize = 25 * 1024 * 1024;

/// Relative throughput of forced-FP32 training on a GPU whose envelope was
/// measured with mixed precision (used by the PowerSGD comparison, which
/// cannot run FP16 — paper Section 6).
const FP32_FACTOR: f64 = 0.47;

/// The systems compared across the paper's figures and tables.
#[derive(Debug, Clone)]
pub enum SystemSetup {
    /// Perfect linear scaling of the single-GPU envelope.
    Ideal,
    /// Uncompressed Horovod/PyTorch-DDP over vanilla NCCL.
    BaselineNccl,
    /// The QNCCL artefact: quantization spliced into NCCL's primitives.
    Qnccl {
        /// Uniform bit-width over the fused buffer.
        bits: u32,
        /// Bucket size.
        bucket_size: usize,
    },
    /// CGX with an explicit session configuration.
    Cgx {
        /// The configured session (registration happens inside
        /// [`estimate`]).
        session: Box<Cgx>,
        /// Force FP32 compute (for apples-to-apples PowerSGD comparisons).
        fp32: bool,
    },
    /// GRACE-style compression: NCCL Allgather transport, byte-aligned
    /// integer wire format, no bucketing advantage.
    Grace {
        /// Nominal bit-width (transmitted as whole bytes — the paper notes
        /// GRACE ships INT8 even at 4-bit settings).
        bits: u32,
    },
    /// PowerSGD via the associative Allreduce hook (FP32 only).
    PowerSgd {
        /// Decomposition rank.
        rank: usize,
    },
    /// The "fake compression" of the motivation experiment (Figure 1) and
    /// the bandwidth-ceiling study (Table 8): transmit `1/gamma` of every
    /// buffer, no kernel cost.
    Fake {
        /// Compression ratio γ.
        gamma: f64,
    },
}

impl SystemSetup {
    /// CGX with its defaults (4-bit/128 QSGD, SHM, SRA, filters on).
    pub fn cgx() -> Self {
        SystemSetup::Cgx {
            session: Box::new(CgxBuilder::new().build()),
            fp32: false,
        }
    }

    /// Display label for tables.
    pub fn label(&self) -> String {
        match self {
            SystemSetup::Ideal => "ideal".into(),
            SystemSetup::BaselineNccl => "NCCL".into(),
            SystemSetup::Qnccl { bits, .. } => format!("QNCCL({bits}b)"),
            SystemSetup::Cgx { .. } => "CGX".into(),
            SystemSetup::Grace { bits } => format!("Grace({bits}b)"),
            SystemSetup::PowerSgd { rank } => format!("PowerSGD(r{rank})"),
            SystemSetup::Fake { gamma } => format!("fake(x{gamma})"),
        }
    }
}

/// Estimator output.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The simulated step breakdown.
    pub report: StepReport,
    /// Aggregate throughput, items/s (images or tokens).
    pub throughput: f64,
    /// Fraction of ideal linear scaling.
    pub scaling: f64,
    /// Total wire bytes per step per GPU-equivalent message list.
    pub wire_bytes: usize,
}

/// Estimates throughput of `model` on `machine` under `setup`.
pub fn estimate(machine: &MachineSpec, model: ModelId, setup: &SystemSetup) -> Estimate {
    estimate_impl(machine, model, setup, false)
}

/// Like [`estimate`] but forces FP32 compute and FP32 gradient wire for
/// every setup — the regime of the paper's Table 6, where PowerSGD's FP16
/// incompatibility pins all systems to full precision.
pub fn estimate_fp32(machine: &MachineSpec, model: ModelId, setup: &SystemSetup) -> Estimate {
    estimate_impl(machine, model, setup, true)
}

fn estimate_impl(
    machine: &MachineSpec,
    model: ModelId,
    setup: &SystemSetup,
    force_fp32: bool,
) -> Estimate {
    let spec = ModelSpec::build(model);
    let gpu = machine.gpu();
    let fp32 = force_fp32
        || matches!(
            setup,
            SystemSetup::PowerSgd { .. } | SystemSetup::Cgx { fp32: true, .. }
        );
    let mut step_s = gpu.step_compute_seconds(&spec);
    if fp32 && spec.precision() != cgx_models::Precision::Fp32 {
        step_s /= FP32_FACTOR;
    }
    let compute = ComputeProfile::new(step_s);
    let precision = if fp32 {
        cgx_models::Precision::Fp32
    } else {
        spec.precision()
    };
    let (cfg, msgs) = build_config(machine, &spec, setup, gpu, precision);
    let report = match setup {
        SystemSetup::Ideal => StepReport {
            compute_seconds: step_s,
            comm_seconds: 0.0,
            exposed_comm_seconds: 0.0,
            kernel_seconds: 0.0,
            step_seconds: step_s,
        },
        _ => simulate_step(&cfg, &msgs, compute),
    };
    let throughput = report.throughput(spec.items_per_gpu_step(), machine.total_gpus());
    Estimate {
        scaling: report.scaling_efficiency(),
        wire_bytes: msgs.iter().map(|m| m.wire_bytes).sum(),
        report,
        throughput,
    }
}

/// Estimates CGX throughput with an explicit per-layer scheme assignment
/// (the adaptive policies' output). Layers assigned
/// [`CompressionScheme::None`] are fused into one full-precision message,
/// exactly like the filter path.
///
/// # Panics
///
/// Panics if `schemes` is not aligned with the model's layer list.
pub fn estimate_with_schemes(
    machine: &MachineSpec,
    model: ModelId,
    schemes: &[CompressionScheme],
) -> Estimate {
    let spec = ModelSpec::build(model);
    assert_eq!(
        schemes.len(),
        spec.layers().len(),
        "scheme list misaligned with model layers"
    );
    let precision = spec.precision();
    let mut msgs: Vec<LayerMsg> = Vec::new();
    let mut fused_fp = 0usize;
    for (layer, scheme) in spec.layers().iter().zip(schemes) {
        if *scheme == CompressionScheme::None {
            fused_fp += layer.elements();
            continue;
        }
        let comp = scheme.build();
        let wire = comp.compressed_bytes(layer.elements());
        let kernel = comp.kernel_cost_per_element() * layer.elements() as f64;
        msgs.push(LayerMsg::new(
            layer.name().to_string(),
            layer.elements(),
            wire,
            kernel,
        ));
    }
    if fused_fp > 0 {
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
    let cfg = if machine.is_multi_node() {
        msgs = fuse_messages(&msgs, 4 * 1024 * 1024);
        StepConfig::cgx_multinode(machine.clone())
    } else {
        StepConfig::cgx(machine.clone())
    };
    let step_s = machine.gpu().step_compute_seconds(&spec);
    let report = simulate_step(&cfg, &msgs, ComputeProfile::new(step_s));
    Estimate {
        scaling: report.scaling_efficiency(),
        wire_bytes: msgs.iter().map(|m| m.wire_bytes).sum(),
        throughput: report.throughput(spec.items_per_gpu_step(), machine.total_gpus()),
        report,
    }
}

fn build_config(
    machine: &MachineSpec,
    spec: &ModelSpec,
    setup: &SystemSetup,
    _gpu: GpuModel,
    precision: cgx_models::Precision,
) -> (StepConfig, Vec<LayerMsg>) {
    match setup {
        SystemSetup::Ideal | SystemSetup::BaselineNccl => {
            let msgs: Vec<LayerMsg> = spec
                .layers()
                .iter()
                .map(|l| {
                    LayerMsg::new(
                        l.name().to_string(),
                        l.elements(),
                        l.grad_bytes(precision),
                        0.0,
                    )
                })
                .collect();
            // DDP/Horovod fuse gradients into buckets to amortize per-call
            // latency.
            let msgs = fuse_messages(&msgs, DDP_BUCKET_BYTES);
            (StepConfig::nccl_baseline(machine.clone()), msgs)
        }
        SystemSetup::Qnccl { bits, bucket_size } => {
            let comp = QsgdCompressor::new(*bits, *bucket_size);
            let msgs = spec
                .layers()
                .iter()
                .map(|l| {
                    LayerMsg::new(
                        l.name().to_string(),
                        l.elements(),
                        comp.compressed_bytes(l.elements()),
                        comp.kernel_cost_per_element() * l.elements() as f64,
                    )
                })
                .collect();
            (StepConfig::qnccl(machine.clone()), msgs)
        }
        SystemSetup::Cgx { session, .. } => {
            let mut s = (**session).clone();
            s.register_model_spec(spec);
            let mut msgs = s.layer_messages(precision);
            if machine.is_multi_node() {
                // Across slow TCP links the per-message round latency is
                // millisecond-class, so the engine batches layers into
                // ~4 MB wire buckets before the inter-node phase.
                msgs = fuse_messages(&msgs, 4 * 1024 * 1024);
            }
            let cfg = if machine.is_multi_node() {
                StepConfig::cgx_multinode(machine.clone())
            } else {
                StepConfig {
                    machine: machine.clone(),
                    backend: s.backend(),
                    scheme: s.reduction(),
                    sync_mode: SyncMode::PerLayerOverlap,
                    transport: TransportQuality::CgxPeerToPeer,
                }
            };
            (cfg, msgs)
        }
        SystemSetup::Grace { bits } => {
            // Byte-aligned wire: even 4-bit settings ship whole bytes.
            let bytes_per_elem = (*bits).div_ceil(8).max(1) as usize;
            let msgs = spec
                .layers()
                .iter()
                .map(|l| {
                    LayerMsg::new(
                        l.name().to_string(),
                        l.elements(),
                        l.elements() * bytes_per_elem + 8,
                        // Unfused compression kernels with no CUDA-graph
                        // batching: noticeably slower than CGX's.
                        6.0e-11 * l.elements() as f64,
                    )
                })
                .collect();
            // The GRACE DDP hook compresses, allgathers, and decompresses
            // bucket-by-bucket synchronously — no backward overlap.
            let cfg = StepConfig {
                machine: machine.clone(),
                backend: CommBackend::Nccl,
                scheme: ReductionScheme::AllgatherBroadcast,
                sync_mode: SyncMode::FusedAfterBackward,
                transport: TransportQuality::VanillaNccl,
            };
            (cfg, msgs)
        }
        SystemSetup::PowerSgd { rank } => {
            let msgs: Vec<LayerMsg> = spec
                .layers()
                .iter()
                .map(|l| {
                    let (m, n) = l.shape().as_matrix();
                    let r = (*rank).min(m).min(n);
                    let wire = (3 + (m + n) * r) * 4;
                    // Two GEMMs + orthogonalization per step.
                    let kernel = 3.0e-11 * *rank as f64 * l.elements() as f64;
                    LayerMsg::new(l.name().to_string(), l.elements(), wire, kernel)
                })
                .collect();
            // The DDP hook operates on fused gradient buckets.
            let msgs = fuse_messages(&msgs, DDP_BUCKET_BYTES / 64);
            // The DDP PowerSGD hook runs over stock NCCL (the payload is
            // tiny, so transport quality barely matters).
            let cfg = StepConfig {
                machine: machine.clone(),
                backend: CommBackend::Nccl,
                scheme: ReductionScheme::ScatterReduceAllgather,
                sync_mode: SyncMode::PerLayerOverlap,
                transport: TransportQuality::VanillaNccl,
            };
            (cfg, msgs)
        }
        SystemSetup::Fake { gamma } => {
            // The motivation benchmark (Section 2.1) truncates each fused
            // transmission buffer to its first N/gamma elements on top of
            // the *standard* Horovod-NCCL stack.
            let full: Vec<LayerMsg> = spec
                .layers()
                .iter()
                .map(|l| {
                    LayerMsg::new(
                        l.name().to_string(),
                        l.elements(),
                        l.grad_bytes(precision),
                        0.0,
                    )
                })
                .collect();
            let msgs = fuse_messages(&full, DDP_BUCKET_BYTES)
                .into_iter()
                .map(|mut m| {
                    m.wire_bytes = ((m.wire_bytes as f64 / gamma).round() as usize).max(4);
                    m
                })
                .collect();
            (StepConfig::nccl_baseline(machine.clone()), msgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtx() -> MachineSpec {
        MachineSpec::rtx3090()
    }

    #[test]
    fn figure3_shape_cgx_triples_nccl_on_rtx3090() {
        for model in [ModelId::TransformerXl, ModelId::VitBase, ModelId::BertBase] {
            let base = estimate(&rtx(), model, &SystemSetup::BaselineNccl);
            let cgx = estimate(&rtx(), model, &SystemSetup::cgx());
            let speedup = cgx.throughput / base.throughput;
            assert!(
                speedup > 1.8 && speedup < 5.0,
                "{model}: speedup {speedup:.2}"
            );
            assert!(
                base.scaling < 0.55,
                "{model}: baseline scaling {}",
                base.scaling
            );
            assert!(cgx.scaling > 0.7, "{model}: CGX scaling {}", cgx.scaling);
        }
    }

    #[test]
    fn figure3_shape_rtx3090_cgx_rivals_dgx1_on_transformers() {
        for model in [ModelId::TransformerXl, ModelId::VitBase] {
            let cgx = estimate(&rtx(), model, &SystemSetup::cgx());
            let dgx = estimate(&MachineSpec::dgx1(), model, &SystemSetup::BaselineNccl);
            assert!(
                cgx.throughput > 0.9 * dgx.throughput,
                "{model}: CGX-3090 {} vs DGX {}",
                cgx.throughput,
                dgx.throughput
            );
        }
    }

    #[test]
    fn dgx_scales_well_without_compression() {
        for model in ModelId::all() {
            let dgx = estimate(&MachineSpec::dgx1(), model, &SystemSetup::BaselineNccl);
            assert!(dgx.scaling > 0.75, "{model}: DGX scaling {}", dgx.scaling);
        }
    }

    #[test]
    fn qnccl_sits_between_nccl_and_cgx() {
        for model in [ModelId::ResNet50, ModelId::TransformerXl] {
            let base = estimate(&rtx(), model, &SystemSetup::BaselineNccl);
            let qn = estimate(
                &rtx(),
                model,
                &SystemSetup::Qnccl {
                    bits: 4,
                    bucket_size: 128,
                },
            );
            let cgx = estimate(&rtx(), model, &SystemSetup::cgx());
            assert!(qn.throughput > base.throughput, "{model}: QNCCL vs NCCL");
            assert!(cgx.throughput > qn.throughput, "{model}: CGX vs QNCCL");
        }
    }

    #[test]
    fn table6_ordering_cgx_powersgd_baseline_grace() {
        // Table 6 (FP32): CGX > PowerSGD > baseline > GRACE.
        let model = ModelId::ResNet50;
        let base = estimate(&rtx(), model, &SystemSetup::BaselineNccl);
        let cgx_fp32 = estimate(
            &rtx(),
            model,
            &SystemSetup::Cgx {
                session: Box::new(CgxBuilder::new().build()),
                fp32: true,
            },
        );
        let psgd = estimate(&rtx(), model, &SystemSetup::PowerSgd { rank: 4 });
        let grace = estimate(&rtx(), model, &SystemSetup::Grace { bits: 4 });
        assert!(cgx_fp32.throughput > psgd.throughput, "CGX > PowerSGD");
        assert!(psgd.throughput > grace.throughput, "PowerSGD > Grace");
        assert!(base.throughput > grace.throughput, "baseline > Grace");
    }

    #[test]
    fn fake_compression_sweep_is_monotone() {
        let mut last = 0.0;
        for gamma in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0] {
            let e = estimate(&rtx(), ModelId::TransformerXl, &SystemSetup::Fake { gamma });
            assert!(
                e.throughput >= last,
                "gamma {gamma}: {} < {last}",
                e.throughput
            );
            last = e.throughput;
        }
        // At extreme compression we approach (but cannot exceed) ideal.
        let ideal = estimate(&rtx(), ModelId::TransformerXl, &SystemSetup::Ideal);
        assert!(last <= ideal.throughput);
        assert!(last > 0.85 * ideal.throughput);
    }

    #[test]
    fn multinode_cgx_speedup_is_large() {
        let cluster = MachineSpec::genesis_cluster();
        for model in [ModelId::ResNet50, ModelId::BertBase] {
            let base = estimate(&cluster, model, &SystemSetup::BaselineNccl);
            let cgx = estimate(&cluster, model, &SystemSetup::cgx());
            let speedup = cgx.throughput / base.throughput;
            assert!(speedup > 3.0, "{model}: multi-node speedup {speedup:.1}");
        }
    }

    #[test]
    fn ideal_estimate_matches_linear_scaling() {
        let e = estimate(&rtx(), ModelId::ResNet50, &SystemSetup::Ideal);
        assert!((e.scaling - 1.0).abs() < 1e-12);
        assert!((e.throughput - 8.0 * 850.0).abs() < 1.0);
    }

    #[test]
    fn wire_bytes_reflect_compression() {
        let base = estimate(&rtx(), ModelId::ResNet50, &SystemSetup::BaselineNccl);
        let cgx = estimate(&rtx(), ModelId::ResNet50, &SystemSetup::cgx());
        let ratio = base.wire_bytes as f64 / cgx.wire_bytes as f64;
        assert!(ratio > 6.0 && ratio < 9.0, "wire ratio {ratio}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SystemSetup::BaselineNccl.label(), "NCCL");
        assert_eq!(SystemSetup::PowerSgd { rank: 4 }.label(), "PowerSGD(r4)");
    }
}
