//! Reusable scratch buffers for the compression hot path.
//!
//! Every allreduce round needs encode buffers (one per outgoing payload) and
//! `f32` working space (quantization codes, accumulators). Allocating these
//! per call puts the allocator on the critical path the paper works so hard
//! to keep at line rate. [`ScratchPool`] keeps free lists of `Vec<u8>` and
//! `Vec<f32>` so steady-state training steps perform **zero** heap
//! allocation in the compression path.
//!
//! The pool is internally shared: cloning it yields a handle to the same
//! free lists, so a `ThreadCluster`-style closure can clone one pool into
//! every simulated rank and buffers flow back regardless of which rank ends
//! up dropping a broadcast payload. Payloads return via
//! [`ScratchPool::recycle`], which reclaims the underlying buffer when this
//! handle holds the last reference to the whole buffer
//! (`Bytes::try_into_vec`).
//!
//! The [`ScratchPool::allocations`] counter records every buffer the pool
//! had to create because its free list was empty; after a warm-up round (or
//! an explicit [`ScratchPool::prewarm`]) it must stop moving — tests assert
//! exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::Encoded;

#[derive(Debug, Default)]
struct Inner {
    bufs: Mutex<Vec<Vec<u8>>>,
    f32s: Mutex<Vec<Vec<f32>>>,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

/// A shared pool of reusable encode buffers and `f32` scratch vectors.
///
/// # Examples
///
/// ```
/// use cgx_compress::ScratchPool;
/// let pool = ScratchPool::new();
/// let v = pool.take_f32(64);
/// pool.put_f32(v);
/// assert_eq!(pool.allocations(), 1);
/// let _again = pool.take_f32(64); // reused, counter unchanged
/// assert_eq!(pool.allocations(), 1);
/// assert_eq!(pool.reuses(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    inner: Arc<Inner>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates the pool with `count` byte buffers of `capacity` bytes
    /// each, so subsequent `ScratchPool::take_buf` calls hit the free
    /// list. Prewarmed buffers do not count as allocations.
    pub fn prewarm(&self, count: usize, capacity: usize) {
        let mut bufs = self.inner.bufs.lock().expect("scratch pool poisoned");
        for _ in 0..count {
            bufs.push(Vec::with_capacity(capacity));
        }
    }

    /// Pre-populates the pool with `count` `f32` vectors of capacity `len`.
    pub fn prewarm_f32(&self, count: usize, len: usize) {
        let mut f32s = self.inner.f32s.lock().expect("scratch pool poisoned");
        for _ in 0..count {
            f32s.push(Vec::with_capacity(len));
        }
    }

    /// Takes a cleared byte buffer from the pool, allocating one with
    /// `capacity` bytes if the free list is empty.
    pub(crate) fn take_buf(&self, capacity: usize) -> Vec<u8> {
        let popped = self.inner.bufs.lock().expect("scratch pool poisoned").pop();
        match popped {
            Some(mut buf) => {
                self.inner.reuses.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns a byte buffer to the pool.
    pub(crate) fn put_buf(&self, buf: Vec<u8>) {
        self.inner
            .bufs
            .lock()
            .expect("scratch pool poisoned")
            .push(buf);
    }

    /// Reclaims an encoded payload's buffer if this handle holds the last
    /// reference to it; otherwise the payload is simply dropped (another
    /// clone's eventual `recycle` will win the reclaim). Call this instead
    /// of dropping an [`Encoded`] once it is fully consumed.
    pub fn recycle(&self, enc: Encoded) {
        if let Ok(buf) = enc.into_payload().try_into_vec() {
            self.put_buf(buf);
        }
    }

    /// Takes an `f32` scratch vector of exactly `len` elements with
    /// unspecified contents (its last user's): callers overwrite it.
    pub fn take_f32(&self, len: usize) -> Vec<f32> {
        let popped = self.inner.f32s.lock().expect("scratch pool poisoned").pop();
        match popped {
            Some(mut v) => {
                self.inner.reuses.fetch_add(1, Ordering::Relaxed);
                v.resize(len, 0.0);
                v
            }
            None => {
                self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Returns an `f32` scratch vector to the pool.
    pub fn put_f32(&self, v: Vec<f32>) {
        self.inner
            .f32s
            .lock()
            .expect("scratch pool poisoned")
            .push(v);
    }

    /// Number of buffers/vectors the pool had to allocate because the free
    /// list was empty. Constant across steps ⇔ the compression path is
    /// allocation-free at steady state.
    pub fn allocations(&self) -> u64 {
        self.inner.allocations.load(Ordering::Relaxed)
    }

    /// Number of take operations served from the free lists.
    pub fn reuses(&self) -> u64 {
        self.inner.reuses.load(Ordering::Relaxed)
    }

    /// Number of byte buffers currently parked in the free list.
    pub(crate) fn idle_bufs(&self) -> usize {
        self.inner.bufs.lock().expect("scratch pool poisoned").len()
    }

    /// Number of `f32` vectors currently parked in the free list.
    pub fn idle_f32s(&self) -> usize {
        self.inner.f32s.lock().expect("scratch pool poisoned").len()
    }

    /// Publishes the pool's counters as gauges in `registry` under the
    /// `pool.*` namespace (`pool.allocations`, `pool.reuses`,
    /// `pool.idle_bufs`, `pool.idle_f32s`). Gauges are last-write-wins, so
    /// call this at a quiescent point (end of step / end of run); a steady
    /// `pool.allocations` across snapshots is the zero-alloc invariant the
    /// kernel tests assert, now visible in every metrics export. Beside
    /// them goes `compress.kernel_lanes`, the vector width of the
    /// quantizer kernels on this process's CPU (16, 8 or 1): the first
    /// thing to compare when one rank of a mixed fleet encodes slower
    /// than another.
    pub fn publish(&self, registry: &cgx_obs::MetricsRegistry) {
        registry.gauge("pool.allocations").set(self.allocations());
        registry.gauge("pool.reuses").set(self.reuses());
        registry
            .gauge("pool.idle_bufs")
            .set(self.idle_bufs() as u64);
        registry
            .gauge("pool.idle_f32s")
            .set(self.idle_f32s() as u64);
        let lanes = crate::simd::Route::widest().lanes();
        registry.gauge("compress.kernel_lanes").set(lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::{Bytes, Shape};

    #[test]
    fn take_put_reuses_buffers() {
        let pool = ScratchPool::new();
        let buf = pool.take_buf(128);
        assert_eq!(pool.allocations(), 1);
        pool.put_buf(buf);
        let buf = pool.take_buf(128);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.reuses(), 1);
        assert!(buf.is_empty(), "reused buffer must come back cleared");
    }

    #[test]
    fn prewarm_counts_no_allocations() {
        let pool = ScratchPool::new();
        pool.prewarm(4, 64);
        pool.prewarm_f32(2, 16);
        assert_eq!(pool.allocations(), 0);
        assert_eq!(pool.idle_bufs(), 4);
        assert_eq!(pool.idle_f32s(), 2);
        for _ in 0..4 {
            let _ = pool.take_buf(64);
        }
        assert_eq!(pool.allocations(), 0);
        assert_eq!(pool.reuses(), 4);
    }

    #[test]
    fn clones_share_free_lists() {
        let pool = ScratchPool::new();
        let clone = pool.clone();
        clone.put_buf(pool.take_buf(32));
        let _ = pool.take_buf(32);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(clone.reuses(), 1);
    }

    #[test]
    fn recycle_reclaims_unique_payloads() {
        let pool = ScratchPool::new();
        let mut buf = pool.take_buf(8);
        buf.extend_from_slice(&[1, 2, 3]);
        let enc = Encoded::new(Shape::vector(3), buf.into());
        pool.recycle(enc);
        assert_eq!(pool.idle_bufs(), 1);
        let buf = pool.take_buf(8);
        assert!(buf.is_empty());
    }

    #[test]
    fn recycle_skips_shared_payloads() {
        let pool = ScratchPool::new();
        let payload = Bytes::copy_from_slice(&[9, 9]);
        let held = payload.clone();
        pool.recycle(Encoded::new(Shape::vector(1), payload));
        assert_eq!(pool.idle_bufs(), 0, "shared payload must not be reclaimed");
        drop(held);
        let body = Bytes::from(vec![0xC6, 0xFA, 7, 7]).slice(2..);
        pool.recycle(Encoded::new(Shape::vector(1), body));
        assert_eq!(pool.idle_bufs(), 0, "nor a view of part of a buffer");
    }

    #[test]
    fn publish_names_the_kernel_route_beside_the_counters() {
        let (pool, registry) = (ScratchPool::new(), cgx_obs::MetricsRegistry::new());
        pool.put_buf(pool.take_buf(8));
        pool.publish(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.get("pool.allocations"), Some(1));
        assert_eq!(snapshot.get("pool.idle_bufs"), Some(1));
        let lanes = crate::simd::Route::widest().lanes();
        assert!([1, 8, 16].contains(&lanes), "{lanes} lanes");
        assert_eq!(snapshot.get("compress.kernel_lanes"), Some(lanes));
    }

    #[test]
    fn take_f32_has_the_asked_length_whatever_it_reuses() {
        // The contract is the length alone: a reused vector comes back
        // shorter, longer or equal, never re-zeroed, never reallocated
        // through the pool's counter.
        let pool = ScratchPool::new();
        let mut v = pool.take_f32(4);
        v.fill(7.0);
        pool.put_f32(v);
        for len in [6, 2, 0, 4] {
            let v = pool.take_f32(len);
            assert_eq!(v.len(), len);
            pool.put_f32(v);
        }
        pool.prewarm_f32(1, 16);
        assert_eq!(pool.take_f32(3).len(), 3, "a prewarmed vector grows");
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.reuses(), 5);
    }
}
