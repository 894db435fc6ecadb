//! Communication backend profiles (paper Sections 3-4, Figure 11).
//!
//! CGX supports three intra-node transports: its own UNIX shared-memory
//! backend (SHM), NCCL peer-to-peer primitives, and GPU-aware MPI. They
//! differ in per-call latency, achievable fraction of link bandwidth, and in
//! how much they throttle the compression kernels (NCCL caps the GPU
//! resources available to user kernels — the QNCCL limitation).

use std::fmt;

/// Intra-node transport used by the communication engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommBackend {
    /// CGX's UNIX shared-memory transport (single node only). Fastest:
    /// single memory transfer through the GPU copy engine, minimal
    /// synchronization.
    #[default]
    Shm,
    /// NCCL point-to-point primitives.
    Nccl,
    /// GPU-aware MPI (requires host/device synchronization).
    Mpi,
}

impl CommBackend {
    /// All backends, in the order of Figure 11.
    pub fn all() -> [CommBackend; 3] {
        [CommBackend::Shm, CommBackend::Nccl, CommBackend::Mpi]
    }

    /// Per-collective-call latency (the α term), seconds.
    pub fn alpha(self) -> f64 {
        match self {
            CommBackend::Shm => 8e-6,
            CommBackend::Nccl => 15e-6,
            CommBackend::Mpi => 30e-6,
        }
    }

    /// Fraction of the machine's effective link bandwidth this backend
    /// sustains (SHM's single-copy path is the reference; MPI loses ~25%
    /// to host synchronization — Figure 11 shows SHM up to 33% faster).
    pub(crate) fn bandwidth_efficiency(self) -> f64 {
        match self {
            CommBackend::Shm => 1.0,
            CommBackend::Nccl => 0.85,
            CommBackend::Mpi => 0.75,
        }
    }

    /// Multiplier on compression-kernel time when kernels must share the
    /// GPU with this backend's communication kernels (NCCL restricts
    /// available SMs — the paper's QNCCL overhead).
    pub(crate) fn kernel_contention(self) -> f64 {
        match self {
            CommBackend::Shm => 1.0,
            CommBackend::Nccl => 1.3,
            CommBackend::Mpi => 1.1,
        }
    }

    /// Host-device synchronization stall per collective call, charged to
    /// the *compute* stream: the MPI backend "has to synchronize host and
    /// device, as we cannot control MPI-internal memory transfers"
    /// (paper Section 4) — that stall blocks the backward pass itself.
    pub(crate) fn host_sync_stall(self) -> f64 {
        match self {
            CommBackend::Mpi => 250e-6,
            CommBackend::Shm | CommBackend::Nccl => 0.0,
        }
    }
}

impl fmt::Display for CommBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommBackend::Shm => "SHM",
            CommBackend::Nccl => "NCCL",
            CommBackend::Mpi => "MPI",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_is_fastest_backend() {
        assert!(CommBackend::Shm.alpha() < CommBackend::Nccl.alpha());
        assert!(CommBackend::Shm.alpha() < CommBackend::Mpi.alpha());
        assert_eq!(CommBackend::Shm.bandwidth_efficiency(), 1.0);
        assert!(CommBackend::Mpi.bandwidth_efficiency() < 1.0);
    }

    #[test]
    fn mpi_vs_shm_gap_is_about_a_third() {
        // Figure 11: SHM outperforms other backends by up to 33%.
        let gap = 1.0 / CommBackend::Mpi.bandwidth_efficiency();
        assert!((1.2..1.4).contains(&gap), "gap {gap}");
    }

    #[test]
    fn default_is_shm() {
        assert_eq!(CommBackend::default(), CommBackend::Shm);
    }
}
