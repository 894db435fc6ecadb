//! Physical interconnect topology (paper Figure 8 and Section 6.1).
//!
//! Models a machine as a device graph: GPUs, PCIe switches, NUMA roots, a
//! QPI bridge, NVLink edges. From the graph we derive the peer-to-peer
//! bandwidth matrix (the Tartan-style measurement the paper cites) and a
//! contention analysis of ring collectives that explains why an 8x RTX 3090
//! box with 13-16 GB/s pairwise bandwidth delivers only ~1 GB/s of Allreduce
//! bandwidth.

use std::collections::VecDeque;
use std::fmt;

/// Kind of a device node in the interconnect graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Device {
    /// GPU with its rank id.
    Gpu(u32),
    /// PCIe switch.
    PcieSwitch(u32),
    /// CPU/NUMA root complex.
    NumaRoot(u32),
    /// Inter-socket bridge (QPI/UPI).
    QpiBridge,
}

impl Device {
    /// Whether this node is a GPU.
    pub(crate) fn is_gpu(self) -> bool {
        matches!(self, Device::Gpu(_))
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Gpu(i) => write!(f, "GPU{i}"),
            Device::PcieSwitch(i) => write!(f, "PLX{i}"),
            Device::NumaRoot(i) => write!(f, "NUMA{i}"),
            Device::QpiBridge => write!(f, "QPI"),
        }
    }
}

/// Physical link technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// PCIe lane bundle.
    Pcie,
    /// NVLink point-to-point.
    NvLink,
    /// Inter-socket (QPI/UPI) bridge.
    Qpi,
}

/// An undirected link between two device nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Endpoint device indices.
    pub a: usize,
    /// Endpoint device indices.
    pub b: usize,
    /// Bandwidth in bytes/second (full duplex per direction).
    pub bandwidth: f64,
    /// Technology.
    pub kind: LinkKind,
}

/// A machine interconnect graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    devices: Vec<Device>,
    links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            devices: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a device, returning its index.
    pub(crate) fn add_device(&mut self, d: Device) -> usize {
        self.devices.push(d);
        self.devices.len() - 1
    }

    /// Adds an undirected link.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint index is out of range or bandwidth is not
    /// positive.
    pub(crate) fn add_link(&mut self, a: usize, b: usize, bandwidth: f64, kind: LinkKind) {
        assert!(
            a < self.devices.len() && b < self.devices.len(),
            "bad endpoint"
        );
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        self.links.push(Link {
            a,
            b,
            bandwidth,
            kind,
        });
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of GPUs.
    pub(crate) fn gpu_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_gpu()).count()
    }

    /// Device index of GPU `rank`.
    ///
    /// # Panics
    ///
    /// Panics if no such GPU exists.
    pub(crate) fn gpu_index(&self, rank: u32) -> usize {
        self.devices
            .iter()
            .position(|d| *d == Device::Gpu(rank))
            .unwrap_or_else(|| panic!("no GPU{rank} in topology"))
    }

    /// Shortest path (by hop count, tie-broken by max bandwidth) between two
    /// devices, as a list of link indices. Returns `None` if disconnected.
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        // BFS over devices, remembering the incoming link. Links are
        // explored fastest-first so that among equal-hop paths the
        // highest-bandwidth route wins (NVLink over the PCIe fallback).
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by(|x, y| {
            self.links[*y]
                .bandwidth
                .total_cmp(&self.links[*x].bandwidth)
        });
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.devices.len()];
        let mut visited = vec![false; self.devices.len()];
        visited[from] = true;
        let mut q = VecDeque::new();
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for &li in &order {
                let l = &self.links[li];
                let v = if l.a == u {
                    l.b
                } else if l.b == u {
                    l.a
                } else {
                    continue;
                };
                if !visited[v] {
                    visited[v] = true;
                    prev[v] = Some((u, li));
                    if v == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let (p, li) = prev[cur].expect("path chain");
                            path.push(li);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Point-to-point bandwidth between two GPU ranks: the minimum link
    /// bandwidth along the routing path.
    ///
    /// # Panics
    ///
    /// Panics if either rank does not exist or the GPUs are disconnected.
    pub fn p2p_bandwidth(&self, rank_a: u32, rank_b: u32) -> f64 {
        let path = self
            .path(self.gpu_index(rank_a), self.gpu_index(rank_b))
            .expect("disconnected GPUs");
        path.iter()
            .map(|li| self.links[*li].bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Per-GPU lane envelope: for each GPU rank, the fastest link leaving
    /// its device — the physical ceiling of that GPU's egress/ingress lane
    /// regardless of routing. This is what seeds per-rank bandwidth
    /// heterogeneity when a topology is lowered onto a DES
    /// [`Fabric`](crate::des::Fabric): GPUs hanging off a slower PCIe
    /// switch get proportionally slower lanes.
    pub(crate) fn gpu_lane_bandwidths(&self) -> Vec<f64> {
        (0..self.gpu_count() as u32)
            .map(|r| {
                let di = self.gpu_index(r);
                self.links
                    .iter()
                    .filter(|l| l.a == di || l.b == di)
                    .map(|l| l.bandwidth)
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Full GPU-to-GPU bandwidth matrix (diagonal is 0).
    pub fn bandwidth_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.gpu_count() as u32;
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            self.p2p_bandwidth(i, j)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Contention analysis of a ring collective: every GPU `i` streams to
    /// GPU `(i+1) % n` simultaneously. Each link's bandwidth is divided by
    /// the number of flows routed over it; the ring is paced by its slowest
    /// flow. Returns the per-flow bottleneck bandwidth in bytes/s.
    pub fn ring_flow_bandwidth(&self) -> f64 {
        let n = self.gpu_count();
        assert!(n >= 2, "ring needs at least 2 GPUs");
        // NCCL searches for a ring order that exploits the link structure;
        // we try the natural order plus the quad-traversal order used on
        // hypercube-mesh machines and keep the best.
        let natural: Vec<u32> = (0..n as u32).collect();
        let mut candidates = vec![natural];
        if n == 8 {
            candidates.push(vec![0, 1, 2, 3, 7, 6, 5, 4]);
            candidates.push(vec![0, 2, 1, 3, 7, 5, 6, 4]);
        }
        candidates
            .iter()
            .map(|order| self.ring_flow_bandwidth_for(order))
            .fold(0.0f64, f64::max)
    }

    /// Ring-contention bandwidth for an explicit GPU visiting order.
    ///
    /// # Panics
    ///
    /// Panics if the order does not cover every GPU exactly once.
    pub(crate) fn ring_flow_bandwidth_for(&self, order: &[u32]) -> f64 {
        let n = self.gpu_count();
        assert_eq!(order.len(), n, "order must cover all GPUs");
        let mut load = vec![0usize; self.links.len()];
        let mut flows: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let a = order[i];
            let b = order[(i + 1) % n];
            let p = self
                .path(self.gpu_index(a), self.gpu_index(b))
                .expect("disconnected ring");
            for li in &p {
                load[*li] += 1;
            }
            flows.push(p);
        }
        flows
            .iter()
            .map(|p| {
                p.iter()
                    .map(|li| self.links[*li].bandwidth / load[*li].max(1) as f64)
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Algorithmic Allreduce bandwidth of a ring collective on this
    /// topology: `size / time` for an Allreduce of `size` bytes, given the
    /// per-flow pacing from [`Self::ring_flow_bandwidth`]. Matches NCCL's
    /// "algbw" convention.
    pub fn ring_allreduce_algbw(&self) -> f64 {
        let n = self.gpu_count() as f64;
        // time = 2 (n-1)/n * size / flow_bw  =>  algbw = flow_bw * n / (2(n-1))
        self.ring_flow_bandwidth() * n / (2.0 * (n - 1.0))
    }

    /// Renders an ASCII adjacency view (used for the Figure 8 harness).
    pub fn render_ascii(&self) -> String {
        let mut out = format!("topology: {}\n", self.name);
        for l in &self.links {
            out.push_str(&format!(
                "  {:<6} <--{:>6.1} GB/s {:?}--> {}\n",
                self.devices[l.a].to_string(),
                l.bandwidth / 1e9,
                l.kind,
                self.devices[l.b]
            ));
        }
        out
    }
}

/// The 8x RTX PCIe topology of Figure 8: two NUMA nodes bridged by QPI,
/// each with two PCIe switches hosting two GPUs.
///
/// `pcie_bw` is the per-hop PCIe bandwidth (3090: ~16 GB/s; 2080 Ti:
/// ~8 GB/s), `qpi_bw` the socket bridge.
pub fn rtx_dual_numa(name: &str, n_gpus: u32, pcie_bw: f64, qpi_bw: f64) -> Topology {
    assert!(
        n_gpus.is_multiple_of(4),
        "dual-NUMA layout needs multiples of 4 GPUs"
    );
    let mut t = Topology::new(name);
    let numa0 = t.add_device(Device::NumaRoot(0));
    let numa1 = t.add_device(Device::NumaRoot(1));
    let qpi = t.add_device(Device::QpiBridge);
    t.add_link(numa0, qpi, qpi_bw, LinkKind::Qpi);
    t.add_link(numa1, qpi, qpi_bw, LinkKind::Qpi);
    let per_numa = n_gpus / 2;
    let mut gpu = 0u32;
    let mut switch = 0u32;
    for numa in [numa0, numa1] {
        let mut remaining = per_numa;
        while remaining > 0 {
            let sw = t.add_device(Device::PcieSwitch(switch));
            switch += 1;
            t.add_link(numa, sw, pcie_bw, LinkKind::Pcie);
            for _ in 0..remaining.min(2) {
                let g = t.add_device(Device::Gpu(gpu));
                gpu += 1;
                t.add_link(sw, g, pcie_bw, LinkKind::Pcie);
            }
            remaining = remaining.saturating_sub(2);
        }
    }
    t
}

/// A flat single-root PCIe topology (4-GPU cloud instances).
pub(crate) fn single_root_pcie(name: &str, n_gpus: u32, pcie_bw: f64) -> Topology {
    let mut t = Topology::new(name);
    let root = t.add_device(Device::NumaRoot(0));
    for g in 0..n_gpus {
        let gi = t.add_device(Device::Gpu(g));
        t.add_link(root, gi, pcie_bw, LinkKind::Pcie);
    }
    t
}

/// The DGX-1 NVLink "hypercube mesh with backbone ring" (Li et al., 2020):
/// two quads of fully-connected GPUs plus cross links, each NVLink at
/// `nvlink_bw` per direction (V100: 25 GB/s/link, doubled on ring edges).
pub(crate) fn dgx1_hypercube(name: &str, nvlink_bw: f64) -> Topology {
    let mut t = Topology::new(name);
    let root = t.add_device(Device::NumaRoot(0));
    let gpus: Vec<usize> = (0..8).map(|g| t.add_device(Device::Gpu(g))).collect();
    // PCIe fallback connectivity.
    for &g in &gpus {
        t.add_link(root, g, 12e9, LinkKind::Pcie);
    }
    // Intra-quad cliques.
    for base in [0usize, 4] {
        for i in base..base + 4 {
            for j in (i + 1)..base + 4 {
                // Backbone-ring edges carry double links.
                let doubled = matches!((i - base, j - base), (0, 1) | (2, 3) | (0, 3) | (1, 2));
                let bw = if doubled { 2.0 * nvlink_bw } else { nvlink_bw };
                t.add_link(gpus[i], gpus[j], bw, LinkKind::NvLink);
            }
        }
    }
    // Cross-quad links i <-> i+4.
    for i in 0..4 {
        t.add_link(gpus[i], gpus[i + 4], nvlink_bw, LinkKind::NvLink);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx_topology_shape() {
        let t = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        assert_eq!(t.gpu_count(), 8);
        // 2 NUMA + QPI + 4 switches + 8 GPUs = 15 devices.
        assert_eq!(t.devices.len(), 15);
    }

    #[test]
    fn same_switch_pairs_are_fastest() {
        let t = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        // GPUs 0 and 1 share a switch: bandwidth = pcie_bw.
        assert_eq!(t.p2p_bandwidth(0, 1), 16e9);
        // Cross-NUMA pairs bottleneck on QPI.
        assert_eq!(t.p2p_bandwidth(0, 7), 12e9);
    }

    #[test]
    fn bandwidth_matrix_is_symmetric() {
        let t = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        let m = t.bandwidth_matrix();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, m[j][i]);
            }
        }
    }

    #[test]
    fn ring_contention_explains_allreduce_collapse() {
        // The paper: 13-16 GB/s p2p but ~1 GB/s Allreduce bandwidth.
        let t = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        let p2p_min = (0..8)
            .flat_map(|i| (0..8).filter(move |j| *j != i).map(move |j| (i, j)))
            .map(|(i, j)| t.p2p_bandwidth(i, j))
            .fold(f64::INFINITY, f64::min);
        let algbw = t.ring_allreduce_algbw();
        assert!(
            algbw < p2p_min / 3.0,
            "contention should collapse ring bw: p2p {p2p_min:.2e} vs algbw {algbw:.2e}"
        );
        // Within the right order of magnitude of the measured ~1 GB/s.
        assert!(algbw > 0.5e9 && algbw < 5e9, "algbw {algbw:.2e}");
    }

    #[test]
    fn dgx_has_far_more_ring_bandwidth() {
        // The structural gap (dedicated NVLinks vs contended PCIe/QPI) is
        // several-fold; the rest of the measured 100x gap comes from
        // protocol efficiency, which machine calibration constants carry.
        let dgx = dgx1_hypercube("dgx-1", 25e9);
        let rtx = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        assert!(dgx.ring_allreduce_algbw() > 3.0 * rtx.ring_allreduce_algbw());
    }

    #[test]
    fn dgx_nvlink_pairs_avoid_pcie() {
        let t = dgx1_hypercube("dgx-1", 25e9);
        // Adjacent GPUs use NVLink (>= 25 GB/s), not 12 GB/s PCIe.
        assert!(t.p2p_bandwidth(0, 1) >= 25e9);
        assert!(t.p2p_bandwidth(0, 4) >= 25e9);
    }

    #[test]
    fn path_returns_none_for_disconnected() {
        let mut t = Topology::new("disc");
        let a = t.add_device(Device::Gpu(0));
        let b = t.add_device(Device::Gpu(1));
        assert!(t.path(a, b).is_none());
        assert_eq!(t.path(a, a), Some(vec![]));
    }

    #[test]
    fn single_root_connects_everything() {
        let t = single_root_pcie("aws", 4, 10e9);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    assert_eq!(t.p2p_bandwidth(i, j), 10e9);
                }
            }
        }
    }

    #[test]
    fn render_mentions_all_devices() {
        let t = rtx_dual_numa("rtx3090", 8, 16e9, 12e9);
        let s = t.render_ascii();
        assert!(s.contains("GPU0"));
        assert!(s.contains("QPI"));
        assert!(s.contains("PLX0"));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_link_panics() {
        let mut t = Topology::new("bad");
        let a = t.add_device(Device::Gpu(0));
        let b = t.add_device(Device::Gpu(1));
        t.add_link(a, b, 0.0, LinkKind::Pcie);
    }
}
