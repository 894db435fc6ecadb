//! The training-step simulator.
//!
//! Walks one data-parallel optimization step on a simulated machine:
//! forward pass, then the backward pass layer by layer (output to input),
//! releasing each layer's gradient to the communication engine the moment it
//! is produced. Communication overlaps with the remaining backward compute;
//! whatever cannot be hidden — most notably the first layers' gradients,
//! embeddings in particular, which appear *last* — extends the step.
//!
//! This reproduces the mechanics behind every throughput number in the
//! paper: Figure 1's compression sweep, Figure 3's scaling bars, the
//! QNCCL-vs-CGX gap (fused, non-overlapped communication), and the Table 8
//! bandwidth-optimization ceiling.

use crate::backend::CommBackend;
use crate::collective::{allreduce_time, hierarchical_allreduce_time, CommCost, ReductionScheme};
use crate::machine::MachineSpec;

/// One gradient message: a layer (or a fused group of layers) to reduce.
///
/// Listed in **forward order**; the simulator walks them in reverse during
/// the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMsg {
    /// Display name.
    pub name: String,
    /// Gradient elements.
    pub elements: usize,
    /// Compressed wire bytes for the whole layer.
    pub wire_bytes: usize,
    /// Compression + decompression kernel seconds per requantization round
    /// for this message on the reference GPU.
    pub kernel_seconds: f64,
}

impl LayerMsg {
    /// Creates a message descriptor.
    pub fn new(
        name: impl Into<String>,
        elements: usize,
        wire_bytes: usize,
        kernel_seconds: f64,
    ) -> Self {
        LayerMsg {
            name: name.into(),
            elements,
            wire_bytes,
            kernel_seconds,
        }
    }
}

/// How gradients are handed to the communication engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// CGX / Horovod style: per-layer messages, overlapped with backward.
    #[default]
    PerLayerOverlap,
    /// QNCCL / naive DDP style: one fused buffer reduced after the whole
    /// backward pass (the primitive-level integration cannot see layers).
    FusedAfterBackward,
}

/// Split of single-GPU compute time across the step phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeProfile {
    /// Single-GPU fwd+bwd+optimizer time per step, seconds.
    pub step_seconds: f64,
    /// Fraction of `step_seconds` spent in the forward pass.
    pub(crate) forward_frac: f64,
    /// Fraction spent in the optimizer/update phase (after synchronization).
    pub(crate) optimizer_frac: f64,
}

impl ComputeProfile {
    /// Creates a profile with the default 35% forward / 60% backward / 5%
    /// optimizer split typical of DNN training.
    ///
    /// # Panics
    ///
    /// Panics if `step_seconds` is not positive.
    pub fn new(step_seconds: f64) -> Self {
        assert!(step_seconds > 0.0, "step time must be positive");
        ComputeProfile {
            step_seconds,
            forward_frac: 0.35,
            optimizer_frac: 0.05,
        }
    }

    /// Forward-pass seconds.
    pub(crate) fn forward_seconds(&self) -> f64 {
        self.step_seconds * self.forward_frac
    }

    /// Backward-pass seconds.
    pub(crate) fn backward_seconds(&self) -> f64 {
        self.step_seconds * (1.0 - self.forward_frac - self.optimizer_frac)
    }

    /// Optimizer seconds.
    pub(crate) fn optimizer_seconds(&self) -> f64 {
        self.step_seconds * self.optimizer_frac
    }
}

/// Which transport stack moves the bytes: CGX's peer-to-peer engine
/// (SHM-class effective bandwidth) or the vanilla NCCL library with its
/// ring protocol overheads. On commodity PCIe machines the two differ by
/// ~4x (paper Figure 11 and the 1 GB/s Allreduce measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportQuality {
    /// CGX's own point-to-point engine over the chosen backend.
    #[default]
    CgxPeerToPeer,
    /// The stock NCCL library (baseline, QNCCL, GRACE, DDP hooks).
    VanillaNccl,
}

/// Full configuration of one simulated step.
#[derive(Debug, Clone)]
pub struct StepConfig {
    /// The machine to run on.
    pub machine: MachineSpec,
    /// Intra-node transport.
    pub backend: CommBackend,
    /// Reduction algorithm.
    pub scheme: ReductionScheme,
    /// Layer-level vs fused synchronization.
    pub sync_mode: SyncMode,
    /// Transport stack quality.
    pub transport: TransportQuality,
}

impl StepConfig {
    /// CGX defaults: SHM backend, SRA reduction, per-layer overlap.
    pub fn cgx(machine: MachineSpec) -> Self {
        StepConfig {
            machine,
            backend: CommBackend::Shm,
            scheme: ReductionScheme::ScatterReduceAllgather,
            sync_mode: SyncMode::PerLayerOverlap,
            transport: TransportQuality::CgxPeerToPeer,
        }
    }

    /// CGX on a multi-node cluster: heterogeneous transport (shared-memory
    /// style intra-node, NCCL across nodes), SRA reduction, per-layer
    /// overlap. SHM itself is single-node only, hence the NCCL backend.
    pub fn cgx_multinode(machine: MachineSpec) -> Self {
        StepConfig {
            machine,
            backend: CommBackend::Nccl,
            scheme: ReductionScheme::ScatterReduceAllgather,
            sync_mode: SyncMode::PerLayerOverlap,
            transport: TransportQuality::CgxPeerToPeer,
        }
    }

    /// Vanilla-NCCL baseline: NCCL ring, per-layer overlap with DDP-style
    /// bucket fusion (callers should fuse messages), no compression
    /// expected in the messages.
    pub fn nccl_baseline(machine: MachineSpec) -> Self {
        StepConfig {
            machine,
            backend: CommBackend::Nccl,
            scheme: ReductionScheme::Ring,
            sync_mode: SyncMode::PerLayerOverlap,
            transport: TransportQuality::VanillaNccl,
        }
    }

    /// QNCCL: compression spliced into NCCL primitives — fused buffer,
    /// ring reduction, kernel contention from NCCL's SM budget.
    pub fn qnccl(machine: MachineSpec) -> Self {
        StepConfig {
            machine,
            backend: CommBackend::Nccl,
            scheme: ReductionScheme::Ring,
            sync_mode: SyncMode::FusedAfterBackward,
            transport: TransportQuality::VanillaNccl,
        }
    }
}

/// Fuses consecutive messages into buckets of at least `threshold` wire
/// bytes (PyTorch-DDP / Horovod tensor-fusion behaviour: per-bucket
/// collective calls amortize the per-call latency). The last bucket may be
/// smaller. Kernel costs add; element counts add.
pub fn fuse_messages(msgs: &[LayerMsg], threshold: usize) -> Vec<LayerMsg> {
    let mut out: Vec<LayerMsg> = Vec::new();
    let mut cur: Option<LayerMsg> = None;
    for m in msgs {
        match cur.as_mut() {
            None => cur = Some(m.clone()),
            Some(c) => {
                c.elements += m.elements;
                c.wire_bytes += m.wire_bytes;
                c.kernel_seconds += m.kernel_seconds;
                c.name = format!("bucket[..{}]", m.name);
            }
        }
        if cur
            .as_ref()
            .map(|c| c.wire_bytes >= threshold)
            .unwrap_or(false)
        {
            out.push(cur.take().expect("bucket present"));
        }
    }
    if let Some(c) = cur {
        out.push(c);
    }
    out
}

/// Where the time of one simulated step went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Single-GPU compute portion (fwd + bwd + optimizer), seconds.
    pub compute_seconds: f64,
    /// Total communication busy time, seconds.
    pub comm_seconds: f64,
    /// Communication that could not be hidden behind backward compute.
    pub exposed_comm_seconds: f64,
    /// Compression kernel time charged to the step.
    pub kernel_seconds: f64,
    /// End-to-end step time, seconds.
    pub step_seconds: f64,
}

impl StepReport {
    /// Cluster throughput in items/s given per-GPU items per step.
    pub fn throughput(&self, items_per_gpu_step: usize, total_gpus: usize) -> f64 {
        items_per_gpu_step as f64 * total_gpus as f64 / self.step_seconds
    }

    /// Fraction of ideal linear scaling achieved.
    pub fn scaling_efficiency(&self) -> f64 {
        self.compute_seconds / self.step_seconds
    }
}

/// Per-step overhead of the distribution framework: coordination
/// (negotiation, group formation — grows with rank count) plus the
/// distributed-pipeline tax proportional to compute (kernel-launch jitter,
/// stragglers, input-pipeline imbalance). This term is what caps scaling at
/// the paper's Table 8 ceiling of ~88-95% even with bandwidth removed.
pub(crate) fn framework_overhead(total_gpus: usize, compute_seconds: f64) -> f64 {
    if total_gpus <= 1 {
        0.0
    } else {
        1.0e-3 + 0.5e-3 * (total_gpus as f64).log2() + 0.03 * compute_seconds
    }
}

/// Time to allreduce one message on the configured machine/backend/scheme.
///
/// Multi-node machines use hierarchical reduction for CGX-style configs
/// (SHM/MPI/NCCL mixed transports) and flat reduction for the vanilla NCCL
/// baseline — matching how the respective systems actually behave.
pub(crate) fn message_time(cfg: &StepConfig, wire_bytes: usize) -> f64 {
    let m = &cfg.machine;
    let n_local = m.gpus_per_node();
    let intra_bw = match cfg.transport {
        // Vanilla NCCL protocol: calibrated baseline bandwidth.
        TransportQuality::VanillaNccl => m.baseline_stream_bandwidth(),
        TransportQuality::CgxPeerToPeer => m.stream_bandwidth(cfg.backend),
    };
    let intra = CommCost::new(intra_bw, cfg.backend.alpha());
    if !m.is_multi_node() {
        return allreduce_time(cfg.scheme, n_local, wire_bytes, intra);
    }
    // Across nodes both stacks reduce hierarchically (NCCL builds
    // node-aware rings/trees; CGX mixes SHM intra-node with NCCL/MPI
    // inter-node). The vanilla stack also pays its protocol-limited
    // intra-node bandwidth.
    let inter = CommCost::new(
        m.inter_node_bandwidth().expect("multi-node machine"),
        m.inter_alpha(),
    );
    hierarchical_allreduce_time(cfg.scheme, n_local, m.nodes(), wire_bytes, intra, inter)
}

/// Simulates one data-parallel step.
///
/// `layers` are in forward order; the backward pass emits gradients in
/// reverse. Per-layer backward time is apportioned by element count.
pub fn simulate_step(cfg: &StepConfig, layers: &[LayerMsg], compute: ComputeProfile) -> StepReport {
    simulate_step_traced(cfg, layers, compute).0
}

/// The execution lane an event occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// GPU compute stream (forward, backward, compression kernels, host
    /// sync stalls, optimizer).
    Compute,
    /// Interconnect/link timeline (collective transfers).
    Link,
}

/// One interval on the simulated step timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// What ran (layer/message or phase name).
    pub name: String,
    /// Which lane it occupied.
    pub lane: Lane,
    /// Interval start, seconds from step begin.
    pub start: f64,
    /// Interval end.
    pub end: f64,
}

impl TraceEvent {
    fn new(name: impl Into<String>, lane: Lane, start: f64, end: f64) -> Self {
        TraceEvent {
            name: name.into(),
            lane,
            start,
            end,
        }
    }

    /// Interval duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Like [`simulate_step`], also returning the full event timeline (one
/// interval per phase / message on each lane), for visualization and
/// debugging of overlap behaviour.
pub fn simulate_step_traced(
    cfg: &StepConfig,
    layers: &[LayerMsg],
    compute: ComputeProfile,
) -> (StepReport, Vec<TraceEvent>) {
    let total_gpus = cfg.machine.total_gpus();
    let mut trace = Vec::new();
    if total_gpus <= 1 {
        trace.push(TraceEvent::new(
            "compute",
            Lane::Compute,
            0.0,
            compute.step_seconds,
        ));
        return (
            StepReport {
                compute_seconds: compute.step_seconds,
                comm_seconds: 0.0,
                exposed_comm_seconds: 0.0,
                kernel_seconds: 0.0,
                step_seconds: compute.step_seconds,
            },
            trace,
        );
    }
    let total_elems: usize = layers.iter().map(|l| l.elements).sum::<usize>().max(1);
    let bwd = compute.backward_seconds();
    let kernel_rounds = cfg.scheme.requantization_rounds(total_gpus) as f64;
    let contention = cfg.backend.kernel_contention();

    let mut comm_busy = 0.0;
    let mut kernel_total = 0.0;
    let mut t_bwd = compute.forward_seconds();
    trace.push(TraceEvent::new("forward", Lane::Compute, 0.0, t_bwd));
    let mut link_free = t_bwd;
    let mut last_done = t_bwd;

    let stall = cfg.backend.host_sync_stall();
    let t_bwd_end;
    match cfg.sync_mode {
        SyncMode::PerLayerOverlap => {
            // Backward emits gradients output -> input. Compression kernels
            // and host-sync stalls run on the GPU/compute stream, so they
            // push the backward timeline (they compete with computation —
            // paper Appendix A); transfers run on the copy/link timeline.
            for l in layers.iter().rev() {
                let bwd_start = t_bwd;
                t_bwd += bwd * l.elements as f64 / total_elems as f64;
                trace.push(TraceEvent::new(
                    format!("bwd:{}", l.name),
                    Lane::Compute,
                    bwd_start,
                    t_bwd,
                ));
                let kernel = l.kernel_seconds * kernel_rounds * contention;
                kernel_total += kernel;
                if kernel + stall > 0.0 {
                    trace.push(TraceEvent::new(
                        format!("kernel:{}", l.name),
                        Lane::Compute,
                        t_bwd,
                        t_bwd + kernel + stall,
                    ));
                }
                t_bwd += kernel + stall;
                let start = t_bwd.max(link_free);
                let dur = message_time(cfg, l.wire_bytes);
                comm_busy += dur;
                link_free = start + dur;
                trace.push(TraceEvent::new(
                    format!("xfer:{}", l.name),
                    Lane::Link,
                    start,
                    link_free,
                ));
                last_done = last_done.max(link_free);
            }
            t_bwd_end = t_bwd;
        }
        SyncMode::FusedAfterBackward => {
            let bwd_start = t_bwd;
            t_bwd += bwd;
            trace.push(TraceEvent::new("backward", Lane::Compute, bwd_start, t_bwd));
            let wire: usize = layers.iter().map(|l| l.wire_bytes).sum();
            let kernel: f64 = layers
                .iter()
                .map(|l| l.kernel_seconds * kernel_rounds * contention)
                .sum();
            kernel_total = kernel;
            trace.push(TraceEvent::new(
                "kernel:fused",
                Lane::Compute,
                t_bwd,
                t_bwd + kernel + stall,
            ));
            let dur = message_time(cfg, wire);
            comm_busy = dur;
            trace.push(TraceEvent::new(
                "xfer:fused",
                Lane::Link,
                t_bwd + kernel + stall,
                t_bwd + kernel + stall + dur,
            ));
            last_done = t_bwd + kernel + stall + dur;
            t_bwd_end = t_bwd + kernel + stall;
        }
    }
    let sync_done = last_done.max(t_bwd_end);
    let step = sync_done
        + compute.optimizer_seconds()
        + framework_overhead(total_gpus, compute.step_seconds);
    trace.push(TraceEvent::new(
        "optimizer+framework",
        Lane::Compute,
        sync_done,
        step,
    ));
    let exposed = (sync_done - t_bwd_end).max(0.0);
    (
        StepReport {
            compute_seconds: compute.step_seconds,
            comm_seconds: comm_busy,
            exposed_comm_seconds: exposed,
            kernel_seconds: kernel_total,
            step_seconds: step,
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers_even(n: usize, elems: usize, wire: usize) -> Vec<LayerMsg> {
        (0..n)
            .map(|i| LayerMsg::new(format!("l{i}"), elems, wire, 0.0))
            .collect()
    }

    fn rtx_cgx() -> StepConfig {
        StepConfig::cgx(MachineSpec::rtx3090())
    }

    #[test]
    fn trace_covers_the_step_without_lane_overlap() {
        let cfg = rtx_cgx();
        let layers = layers_even(6, 1_000_000, 500_000);
        let (report, trace) = simulate_step_traced(&cfg, &layers, ComputeProfile::new(0.04));
        // Events are within [0, step]; per-lane events never overlap.
        for lane in [Lane::Compute, Lane::Link] {
            let mut evs: Vec<&TraceEvent> = trace.iter().filter(|e| e.lane == lane).collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in evs.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-12,
                    "{lane:?} overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            for e in evs {
                assert!(e.start >= 0.0 && e.end <= report.step_seconds + 1e-12);
                assert!(e.duration() >= 0.0);
            }
        }
        // Link busy time matches the report.
        let link_busy: f64 = trace
            .iter()
            .filter(|e| e.lane == Lane::Link)
            .map(TraceEvent::duration)
            .sum();
        assert!((link_busy - report.comm_seconds).abs() < 1e-9);
        // One transfer per message.
        assert_eq!(
            trace.iter().filter(|e| e.name.starts_with("xfer:")).count(),
            layers.len()
        );
    }

    #[test]
    fn traced_and_untraced_agree() {
        let cfg = StepConfig::qnccl(MachineSpec::rtx3090());
        let layers = layers_even(4, 100_000, 60_000);
        let a = simulate_step(&cfg, &layers, ComputeProfile::new(0.05));
        let (b, _) = simulate_step_traced(&cfg, &layers, ComputeProfile::new(0.05));
        assert_eq!(a, b);
    }

    #[test]
    fn single_gpu_has_no_comm() {
        let cfg = StepConfig::cgx(MachineSpec::rtx3090().with_gpus(1));
        let r = simulate_step(
            &cfg,
            &layers_even(10, 1000, 4000),
            ComputeProfile::new(0.04),
        );
        assert_eq!(r.step_seconds, 0.04);
        assert_eq!(r.exposed_comm_seconds, 0.0);
        assert_eq!(r.scaling_efficiency(), 1.0);
    }

    #[test]
    fn small_messages_fully_overlap() {
        let cfg = rtx_cgx();
        // 10 tiny layers: comm ends well before backward does.
        let r = simulate_step(&cfg, &layers_even(10, 1000, 400), ComputeProfile::new(0.04));
        assert!(r.exposed_comm_seconds < 1e-3, "{:?}", r);
        assert!(r.scaling_efficiency() > 0.9);
    }

    #[test]
    fn huge_messages_dominate_the_step() {
        let cfg = StepConfig::nccl_baseline(MachineSpec::rtx3090());
        // One 400 MB fp32 gradient on a ~1 GB/s fabric.
        let layers = vec![LayerMsg::new("blob", 100_000_000, 400_000_000, 0.0)];
        let r = simulate_step(&cfg, &layers, ComputeProfile::new(0.04));
        assert!(r.step_seconds > 0.3, "{:?}", r);
        assert!(r.scaling_efficiency() < 0.2);
    }

    #[test]
    fn compression_recovers_scaling() {
        // The Figure 1 effect: shrinking wire bytes approaches ideal time.
        let compute = ComputeProfile::new(0.04);
        let elems = 25_000_000usize;
        let mut last = f64::INFINITY;
        for gamma in [1usize, 4, 16, 64] {
            let cfg = rtx_cgx();
            let layers = vec![LayerMsg::new("g", elems, elems * 4 / gamma, 0.0)];
            let r = simulate_step(&cfg, &layers, compute);
            assert!(r.step_seconds <= last + 1e-9, "gamma={gamma}");
            last = r.step_seconds;
        }
        // At 64x the step is near the compute floor.
        assert!(last < 0.045, "step {last}");
    }

    #[test]
    fn first_layer_gradient_cannot_overlap() {
        // A model that is one giant embedding (first layer): its gradient
        // appears at the very end of backward, so the transfer is fully
        // exposed — the Table 8 "embedding gap".
        let cfg = rtx_cgx();
        let emb = 137_000_000usize;
        let layers = vec![
            LayerMsg::new("embedding", emb, emb / 2, 0.0), // first/fwd order
            LayerMsg::new("body", 1_000_000, 500_000, 0.0),
        ];
        let r = simulate_step(&cfg, &layers, ComputeProfile::new(0.16));
        let expected_tail = message_time(&cfg, emb / 2);
        assert!(
            r.exposed_comm_seconds > 0.9 * expected_tail,
            "exposed {} vs tail {}",
            r.exposed_comm_seconds,
            expected_tail
        );
    }

    #[test]
    fn fused_mode_exposes_all_communication() {
        let layers = layers_even(20, 1_000_000, 500_000);
        let compute = ComputeProfile::new(0.04);
        let overlap = simulate_step(&rtx_cgx(), &layers, compute);
        let mut fused_cfg = rtx_cgx();
        fused_cfg.sync_mode = SyncMode::FusedAfterBackward;
        let fused = simulate_step(&fused_cfg, &layers, compute);
        assert!(fused.step_seconds > overlap.step_seconds);
        assert!(fused.exposed_comm_seconds >= fused.comm_seconds * 0.99);
    }

    #[test]
    fn qnccl_beats_baseline_but_loses_to_cgx() {
        // 100 MB fp32 model; QNCCL compresses 8x but runs fused over NCCL;
        // CGX compresses ~7.5x with overlap over SHM.
        let elems = 25_000_000usize;
        let fp32 = layers_even(25, elems / 25, elems / 25 * 4);
        let q: Vec<LayerMsg> = fp32
            .iter()
            .map(|l| LayerMsg::new(l.name.clone(), l.elements, l.wire_bytes / 8, 1e-4))
            .collect();
        let compute = ComputeProfile::new(0.0376);
        let m = MachineSpec::rtx3090();
        let base = simulate_step(&StepConfig::nccl_baseline(m.clone()), &fp32, compute);
        let qn = simulate_step(&StepConfig::qnccl(m.clone()), &q, compute);
        let cgx = simulate_step(&StepConfig::cgx(m), &q, compute);
        assert!(
            qn.step_seconds < base.step_seconds,
            "QNCCL improves on NCCL"
        );
        assert!(cgx.step_seconds < qn.step_seconds, "CGX beats QNCCL");
    }

    #[test]
    fn report_throughput_and_scaling() {
        let r = StepReport {
            compute_seconds: 0.04,
            comm_seconds: 0.01,
            exposed_comm_seconds: 0.01,
            kernel_seconds: 0.0,
            step_seconds: 0.05,
        };
        assert!((r.throughput(32, 8) - 32.0 * 8.0 / 0.05).abs() < 1e-9);
        assert!((r.scaling_efficiency() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multinode_hierarchical_beats_flat_baseline() {
        let cluster = MachineSpec::genesis_cluster();
        let elems = 25_000_000usize;
        let fp32 = vec![LayerMsg::new("g", elems, elems * 4, 0.0)];
        let q = vec![LayerMsg::new("g", elems, elems * 4 / 8, 1e-4)];
        let compute = ComputeProfile::new(0.0376);
        let base = simulate_step(&StepConfig::nccl_baseline(cluster.clone()), &fp32, compute);
        let cgx = simulate_step(&StepConfig::cgx_multinode(cluster), &q, compute);
        assert!(
            base.step_seconds > 3.0 * cgx.step_seconds,
            "baseline {} vs cgx {}",
            base.step_seconds,
            cgx.step_seconds
        );
    }
}
