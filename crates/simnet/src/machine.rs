//! Machine catalog: the evaluation systems of Table 2 plus the cloud
//! instances of Table 4 and the multi-node cluster of Table 5.
//!
//! Each machine couples a physical [`Topology`] with *calibrated* effective
//! bandwidth constants. The topology explains the numbers structurally
//! (contention on PCIe/QPI vs dedicated NVLinks); the calibrated constants
//! match the paper's measurements (e.g. ~1 GB/s Allreduce bandwidth on the
//! 8x RTX 3090 box despite 13-16 GB/s pairwise links).

use crate::backend::CommBackend;
use crate::des::{Fabric, SimError};
use crate::hardware::GpuModel;
use crate::topology::{self, Topology};

/// A (possibly multi-node) GPU system.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    name: String,
    gpu: GpuModel,
    gpus_per_node: usize,
    nodes: usize,
    topology: Topology,
    /// Per-GPU sustained stream bandwidth (bytes/s) under CGX's SHM
    /// transport with all GPUs transmitting concurrently.
    shm_stream_bw: f64,
    /// Per-GPU stream bandwidth achieved by vanilla NCCL ring collectives
    /// (protocol overhead included): `algbw = nccl_stream_bw * n / (2(n-1))`.
    nccl_stream_bw: f64,
    /// Effective per-node inter-node stream bandwidth (bytes/s); `None` for
    /// single-node machines.
    inter_node_bw: Option<f64>,
    /// Inter-node per-round latency (seconds).
    inter_alpha: f64,
    /// Hourly price in USD, when the machine models a cloud instance.
    price_per_hour: Option<f64>,
}

impl MachineSpec {
    /// Machine name as used in tables.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// GPU product installed.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total GPU count across nodes.
    pub fn total_gpus(&self) -> usize {
        self.gpus_per_node * self.nodes
    }

    /// Whether this is a multi-node cluster.
    pub fn is_multi_node(&self) -> bool {
        self.nodes > 1
    }

    /// The physical interconnect graph of one node.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-GPU concurrent stream bandwidth for `backend` (bytes/s).
    pub fn stream_bandwidth(&self, backend: CommBackend) -> f64 {
        self.shm_stream_bw * backend.bandwidth_efficiency()
    }

    /// Per-GPU stream bandwidth of the *vanilla NCCL* baseline (used for
    /// uncompressed Horovod-NCCL / PyTorch-DDP runs).
    pub fn baseline_stream_bandwidth(&self) -> f64 {
        self.nccl_stream_bw
    }

    /// Effective inter-node stream bandwidth per node, if multi-node.
    pub fn inter_node_bandwidth(&self) -> Option<f64> {
        self.inter_node_bw
    }

    /// Inter-node round latency.
    pub fn inter_alpha(&self) -> f64 {
        self.inter_alpha
    }

    /// Hourly price (cloud instances).
    pub fn price_per_hour(&self) -> Option<f64> {
        self.price_per_hour
    }

    /// Restricts the machine to its first `n` GPUs (single node); used for
    /// the 1/2/4/8-GPU scaling sweeps of Figure 3.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds the GPUs of one node, or the machine
    /// is multi-node.
    pub fn with_gpus(&self, n: usize) -> MachineSpec {
        assert!(!self.is_multi_node(), "with_gpus applies to single nodes");
        assert!(
            n >= 1 && n <= self.gpus_per_node,
            "cannot select {n} of {} GPUs",
            self.gpus_per_node
        );
        let mut m = self.clone();
        m.gpus_per_node = n;
        m
    }

    /// Scales this machine out to `nodes` copies of itself joined by an
    /// interconnect of `inter_bw` bytes/s per node and `inter_alpha`
    /// seconds per round — the constructor behind the 512-rank
    /// heterogeneous sweeps (e.g. `rtx3090().scale_out(64, ..)`).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero, `inter_bw` is not positive, or
    /// `inter_alpha` is negative (catalog construction is programmer
    /// input, matching [`MachineSpec::with_gpus`]).
    pub fn scale_out(&self, nodes: usize, inter_bw: f64, inter_alpha: f64) -> MachineSpec {
        assert!(nodes >= 1, "need at least one node");
        assert!(
            inter_bw.is_finite() && inter_bw > 0.0,
            "inter-node bandwidth must be positive"
        );
        assert!(
            inter_alpha.is_finite() && inter_alpha >= 0.0,
            "inter-node alpha must be non-negative"
        );
        let mut m = self.clone();
        if nodes == 1 {
            m.nodes = 1;
            m.inter_node_bw = None;
            m.inter_alpha = 0.0;
            return m;
        }
        m.name = format!("{}x {}", nodes, self.name);
        m.nodes = nodes;
        m.inter_node_bw = Some(inter_bw);
        m.inter_alpha = inter_alpha;
        m.price_per_hour = self.price_per_hour.map(|p| p * nodes as f64);
        m
    }

    /// Lowers the machine onto a DES [`Fabric`]: one rank per GPU, with
    /// per-rank lane bandwidth shaped by the node topology's lane
    /// envelope (GPUs on slower switches get proportionally slower
    /// lanes around the calibrated per-GPU stream bandwidth), the
    /// backend's α, and — on multi-node machines — shared per-node
    /// uplink/downlink lanes at the calibrated inter-node bandwidth.
    pub fn fabric(&self, backend: CommBackend) -> Result<Fabric, SimError> {
        let ranks = self.total_gpus();
        let base_bw = self.stream_bandwidth(backend);
        let mut f = Fabric::uniform(ranks, base_bw, backend.alpha())?;
        let lanes = self.topology.gpu_lane_bandwidths();
        let peak = lanes.iter().copied().fold(0.0, f64::max);
        if peak > 0.0 {
            // Only the GPUs of one node appear in the topology; the
            // pattern repeats on every node.
            let gpn = self.gpus_per_node.min(lanes.len());
            for r in 0..ranks {
                let rel = lanes[r % gpn] / peak;
                if rel < 1.0 {
                    f.scale_rank_bandwidth(r, rel)?;
                }
            }
        }
        if let Some(inter_bw) = self.inter_node_bw {
            f.set_nodes(self.gpus_per_node, inter_bw, self.inter_alpha)?;
        }
        Ok(f)
    }

    // ----- Table 2 systems -----

    /// DGX-1: 8x V100 with NVLink, ~100 GB/s Allreduce bandwidth.
    pub fn dgx1() -> MachineSpec {
        MachineSpec {
            name: "DGX-1".into(),
            gpu: GpuModel::V100,
            gpus_per_node: 8,
            nodes: 1,
            topology: topology::dgx1_hypercube("dgx-1-nvlink", 25e9),
            shm_stream_bw: 175e9,
            nccl_stream_bw: 175e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: None,
        }
    }

    /// 8x A6000 with NVLink (Table 2 row 2).
    pub fn a6000() -> MachineSpec {
        MachineSpec {
            name: "A6000".into(),
            gpu: GpuModel::A6000,
            gpus_per_node: 8,
            nodes: 1,
            topology: topology::dgx1_hypercube("a6000-nvlink", 25e9),
            shm_stream_bw: 175e9,
            nccl_stream_bw: 175e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: None,
        }
    }

    /// 8x RTX 3090 over a dual-NUMA PCIe bus: 13-16 GB/s pairwise,
    /// ~1 GB/s NCCL Allreduce bandwidth (Table 2 row 3, Figure 8).
    pub fn rtx3090() -> MachineSpec {
        MachineSpec {
            name: "RTX-3090".into(),
            gpu: GpuModel::Rtx3090,
            gpus_per_node: 8,
            nodes: 1,
            topology: topology::rtx_dual_numa("rtx3090-pcie", 8, 16e9, 12e9),
            // SHM point-to-point avoids NCCL's ring protocol overhead:
            // ~4 GB/s effective Allreduce algbw.
            shm_stream_bw: 7e9,
            // NCCL ring: 1 GB/s algbw => stream = algbw * 2(n-1)/n = 1.75.
            nccl_stream_bw: 1.75e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: None,
        }
    }

    /// 8x RTX 2080 Ti (Table 2 row 4): 6-8 GB/s pairwise, ~1.5 GB/s
    /// Allreduce bandwidth.
    pub fn rtx2080() -> MachineSpec {
        MachineSpec {
            name: "RTX-2080".into(),
            gpu: GpuModel::Rtx2080Ti,
            gpus_per_node: 8,
            nodes: 1,
            topology: topology::rtx_dual_numa("rtx2080-pcie", 8, 8e9, 12e9),
            shm_stream_bw: 5e9,
            nccl_stream_bw: 2.6e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: None,
        }
    }

    // ----- Cloud instances (Table 4) -----

    /// AWS EC2 p3.8xlarge: 4x V100 with NVLink, $12.2/h.
    pub fn aws_p3_8xlarge() -> MachineSpec {
        MachineSpec {
            name: "AWS p3.8xlarge".into(),
            gpu: GpuModel::V100,
            gpus_per_node: 4,
            nodes: 1,
            topology: topology::single_root_pcie("p3-nvlink", 4, 50e9),
            shm_stream_bw: 120e9,
            nccl_stream_bw: 120e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: Some(12.2),
        }
    }

    /// Genesis Cloud 4x RTX 3090 instance, $6.8/h, ~10 GB/s intra-node bus.
    pub fn genesis_3090() -> MachineSpec {
        MachineSpec {
            name: "Genesis 4xRTX3090".into(),
            gpu: GpuModel::Rtx3090,
            gpus_per_node: 4,
            nodes: 1,
            topology: topology::single_root_pcie("genesis-pcie", 4, 10e9),
            shm_stream_bw: 5e9,
            nccl_stream_bw: 1.5e9,
            inter_node_bw: None,
            inter_alpha: 0.0,
            price_per_hour: Some(6.8),
        }
    }

    /// The Table 5 cluster: 4 nodes x 4 RTX 3090, 10 GB/s intra-node,
    /// 5 Gb/s-class inter-node Ethernet (effective ~0.6 GB/s per node,
    /// with millisecond-class per-round latency under TCP).
    pub fn genesis_cluster() -> MachineSpec {
        let mut m = Self::genesis_3090();
        m.name = "Genesis 4x4xRTX3090".into();
        m.nodes = 4;
        m.inter_node_bw = Some(0.625e9);
        m.inter_alpha = 1.5e-3;
        m.price_per_hour = Some(4.0 * 6.8);
        m
    }

    /// All four Table 2 single-node systems.
    pub fn table2_systems() -> [MachineSpec; 4] {
        [
            Self::dgx1(),
            Self::a6000(),
            Self::rtx3090(),
            Self::rtx2080(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_systems_have_8_gpus() {
        for m in MachineSpec::table2_systems() {
            assert_eq!(m.total_gpus(), 8, "{}", m.name());
            assert!(!m.is_multi_node());
        }
    }

    #[test]
    fn rtx3090_nccl_algbw_is_about_1gbps() {
        let m = MachineSpec::rtx3090();
        let n = m.gpus_per_node() as f64;
        let algbw = m.baseline_stream_bandwidth() * n / (2.0 * (n - 1.0));
        assert!((algbw - 1e9).abs() < 0.05e9, "algbw {algbw:.3e}");
    }

    #[test]
    fn dgx_nccl_algbw_is_about_100gbps() {
        let m = MachineSpec::dgx1();
        let n = m.gpus_per_node() as f64;
        let algbw = m.baseline_stream_bandwidth() * n / (2.0 * (n - 1.0));
        assert!((algbw - 100e9).abs() < 5e9, "algbw {algbw:.3e}");
    }

    #[test]
    fn topology_is_consistent_with_calibration() {
        // The topology-derived ring bandwidth should be within ~4x of the
        // calibrated NCCL stream bandwidth (topology ignores protocol
        // overheads).
        let m = MachineSpec::rtx3090();
        let structural = m.topology().ring_flow_bandwidth();
        let calibrated = m.baseline_stream_bandwidth();
        let ratio = structural / calibrated;
        assert!((1.0..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn with_gpus_restricts_count() {
        let m = MachineSpec::rtx3090().with_gpus(4);
        assert_eq!(m.total_gpus(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn with_gpus_over_capacity_panics() {
        MachineSpec::rtx3090().with_gpus(9);
    }

    #[test]
    fn cluster_is_multi_node_with_inter_link() {
        let c = MachineSpec::genesis_cluster();
        assert!(c.is_multi_node());
        assert_eq!(c.total_gpus(), 16);
        assert!(c.inter_node_bandwidth().unwrap() < c.stream_bandwidth(CommBackend::Shm));
    }

    #[test]
    fn cloud_instances_have_prices() {
        assert_eq!(MachineSpec::aws_p3_8xlarge().price_per_hour(), Some(12.2));
        assert_eq!(MachineSpec::genesis_3090().price_per_hour(), Some(6.8));
    }

    #[test]
    fn scale_out_multiplies_ranks_and_price() {
        let m = MachineSpec::rtx3090().scale_out(64, 1.25e9, 1e-3);
        assert_eq!(m.total_gpus(), 512);
        assert!(m.is_multi_node());
        assert_eq!(m.inter_node_bandwidth(), Some(1.25e9));
        assert_eq!(m.inter_alpha(), 1e-3);
        let single = MachineSpec::genesis_cluster().scale_out(1, 1.0, 0.0);
        assert!(!single.is_multi_node());
        assert_eq!(single.inter_node_bandwidth(), None);
    }

    #[test]
    fn fabric_reflects_scale_out_and_runs() {
        use crate::des::{build_sra, run, DesScratch, OpGraph};
        let m = MachineSpec::genesis_3090();
        let flat = m.fabric(CommBackend::Shm).unwrap();
        assert_eq!(flat.ranks(), 4);
        let cluster = m.scale_out(4, 0.625e9, 1.5e-3);
        let fat = cluster.fabric(CommBackend::Shm).unwrap();
        assert_eq!(fat.ranks(), 16);
        let mut g = OpGraph::new();
        let mut s = DesScratch::new();
        build_sra(&mut g, 16).unwrap();
        let bytes = 10_000_000.0;
        let t_clustered = run(&g, &fat, bytes, &mut s).unwrap().makespan_seconds();
        let wide = Fabric::uniform(16, m.stream_bandwidth(CommBackend::Shm), 0.0).unwrap();
        let t_flat = run(&g, &wide, bytes, &mut s).unwrap().makespan_seconds();
        // The shared 0.625 GB/s uplinks must slow the same graph down.
        assert!(t_clustered > 2.0 * t_flat, "{t_clustered} vs {t_flat}");
    }

    #[test]
    fn scale_out_to_512_ranks_is_simulable() {
        use crate::des::{build_hierarchical, build_ring, build_sra, build_tree, run};
        use crate::des::{DesScratch, OpGraph};
        let cluster = MachineSpec::rtx3090().scale_out(64, 1.25e9, 1.5e-3);
        let fabric = cluster.fabric(CommBackend::Shm).unwrap();
        assert_eq!(fabric.ranks(), 512);
        let (mut g, mut s) = (OpGraph::new(), DesScratch::new());
        // ResNet50's gradient, raw and at 4 bits.
        let (raw, q4) = (102e6, 102e6 / 7.5);
        let mut sra = [0.0; 2];
        for (i, bytes) in [raw, q4].into_iter().enumerate() {
            build_ring(&mut g, 512).unwrap();
            assert!(run(&g, &fabric, bytes, &mut s).unwrap().makespan_seconds() > 0.0);
            build_tree(&mut g, 512).unwrap();
            assert!(run(&g, &fabric, bytes, &mut s).unwrap().makespan_seconds() > 0.0);
            build_hierarchical(&mut g, 64, 8, bytes / raw).unwrap();
            assert!(run(&g, &fabric, raw, &mut s).unwrap().makespan_seconds() > 0.0);
            build_sra(&mut g, 512).unwrap();
            sra[i] = run(&g, &fabric, bytes, &mut s).unwrap().makespan_seconds();
        }
        assert!(sra[1] < sra[0], "q4 must beat fp32 on the wire: {sra:?}");
    }

    #[test]
    fn lane_envelope_shapes_per_rank_bandwidth() {
        // The dual-NUMA RTX box routes some GPUs over a slower bus; the
        // lane envelope must not be uniform.
        let m = MachineSpec::rtx3090();
        let lanes = m.topology().gpu_lane_bandwidths();
        assert_eq!(lanes.len(), 8);
        assert!(lanes.iter().all(|&b| b > 0.0));
        m.fabric(CommBackend::Shm).unwrap(); // must validate
    }

    #[test]
    fn backend_efficiency_orders_stream_bandwidth() {
        let m = MachineSpec::rtx3090();
        assert!(m.stream_bandwidth(CommBackend::Shm) > m.stream_bandwidth(CommBackend::Nccl));
        assert!(m.stream_bandwidth(CommBackend::Nccl) > m.stream_bandwidth(CommBackend::Mpi));
    }
}
