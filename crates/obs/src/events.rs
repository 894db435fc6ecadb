//! Lock-free per-rank span-event recorder.
//!
//! Each rank owns one [`EventRecorder`]: a fixed-capacity ring buffer of
//! atomic slots written by that rank's comm thread (single-writer) and
//! snapshotted by anyone (multi-reader). Recording is a handful of relaxed
//! atomic stores — cheap enough to leave on in production — and a disabled
//! recorder short-circuits before touching the ring, so instrumented code
//! costs one branch when observability is off.
//!
//! Events describe a collective's lifecycle: `Submit` → `Compress` →
//! `Wire` → `Decode` → `Complete`, plus `Idle` spans while the caller is
//! parked waiting for progress. The `meta` word reuses the transport's tag
//! packing (`[op:32][segment:16][phase:8][epoch:8]`) so trace rows line up
//! with what actually went over the wire.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// What a span event measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// A collective was handed to the engine (instant event).
    Submit = 0,
    /// Time spent inside a compression kernel.
    Compress = 1,
    /// A compressed payload was handed to the transport (instant event;
    /// `extra` carries the payload size in bytes).
    Wire = 2,
    /// Time spent decoding + accumulating an inbound payload.
    Decode = 3,
    /// A collective's result became available (instant event).
    Complete = 4,
    /// The caller was parked waiting for inbound progress.
    Idle = 5,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Submit,
        SpanKind::Compress,
        SpanKind::Wire,
        SpanKind::Decode,
        SpanKind::Complete,
        SpanKind::Idle,
    ];

    /// Stable lowercase name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submit => "submit",
            SpanKind::Compress => "compress",
            SpanKind::Wire => "wire",
            SpanKind::Decode => "decode",
            SpanKind::Complete => "complete",
            SpanKind::Idle => "idle",
        }
    }

    fn from_u8(v: u8) -> SpanKind {
        match v {
            0 => SpanKind::Submit,
            1 => SpanKind::Compress,
            2 => SpanKind::Wire,
            3 => SpanKind::Decode,
            4 => SpanKind::Complete,
            _ => SpanKind::Idle,
        }
    }
}

/// Pack collective coordinates into an event `meta` word, mirroring the
/// transport tag layout: `[op:32][segment:16][phase:8][epoch:8]`.
pub fn pack_meta(op: u32, segment: u16, phase: u8, epoch: u8) -> u64 {
    ((op as u64) << 32) | ((segment as u64) << 16) | ((phase as u64) << 8) | epoch as u64
}

/// Extract the collective (op) id from a packed `meta` word.
pub fn meta_op(meta: u64) -> u32 {
    (meta >> 32) as u32
}

/// Extract the segment index from a packed `meta` word.
pub fn meta_segment(meta: u64) -> u16 {
    (meta >> 16) as u16
}

/// Extract the phase from a packed `meta` word.
pub fn meta_phase(meta: u64) -> u8 {
    (meta >> 8) as u8
}

/// Extract the membership epoch from a packed `meta` word.
pub fn meta_epoch(meta: u64) -> u8 {
    meta as u8
}

/// One recorded span, decoded out of the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// What was measured.
    pub kind: SpanKind,
    /// Packed collective coordinates (see [`pack_meta`]).
    pub meta: u64,
    /// Span start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the recorder's epoch (== `start_ns` for
    /// instant events).
    pub end_ns: u64,
    /// Kind-specific payload (bytes on the wire for `Wire`, 0 otherwise).
    pub extra: u64,
}

impl Event {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Slot {
    kind: AtomicU64,
    meta: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    extra: AtomicU64,
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    slots: Box<[Slot]>,
    /// Total events ever recorded; slot index is `head % capacity`.
    head: AtomicUsize,
}

/// Lock-free fixed-capacity ring buffer of span events.
///
/// Cloning shares the ring. The intended discipline is single-writer (one
/// comm thread) per recorder; concurrent writers stay memory-safe but may
/// interleave fields of a slot (a torn *event*, never a torn word), which
/// is acceptable for tracing. When the ring wraps, the oldest events are
/// overwritten and counted in [`EventRecorder::dropped`].
#[derive(Clone, Debug)]
pub struct EventRecorder {
    inner: Option<Arc<RecorderInner>>,
}

/// Default ring capacity (events) for [`EventRecorder::new_default`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

impl EventRecorder {
    /// Create an enabled recorder holding up to `capacity` events
    /// (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = (0..cap)
            .map(|_| Slot {
                kind: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
                extra: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRecorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                slots,
                head: AtomicUsize::new(0),
            })),
        }
    }

    /// Create an enabled recorder with [`DEFAULT_RING_CAPACITY`].
    pub fn new_default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }

    /// Create a disabled recorder: records nothing, costs one branch.
    pub fn disabled() -> Self {
        EventRecorder { inner: None }
    }

    /// Whether this recorder stores events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this recorder's creation (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record a span. No-op when disabled.
    #[inline]
    pub fn record(&self, kind: SpanKind, meta: u64, start_ns: u64, end_ns: u64, extra: u64) {
        let Some(inner) = &self.inner else { return };
        let idx = inner.head.fetch_add(1, Ordering::Relaxed) % inner.slots.len();
        let slot = &inner.slots[idx];
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.end.store(end_ns, Ordering::Relaxed);
        slot.extra.store(extra, Ordering::Release);
    }

    /// Record an instant event at `at_ns`. No-op when disabled.
    #[inline]
    pub fn instant(&self, kind: SpanKind, meta: u64, at_ns: u64, extra: u64) {
        self.record(kind, meta, at_ns, at_ns, extra);
    }

    /// Total events ever recorded (including any that wrapped out).
    pub fn recorded(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.head.load(Ordering::Acquire),
            None => 0,
        }
    }

    /// Number of events lost to ring wrap-around.
    pub fn dropped(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .head
                .load(Ordering::Acquire)
                .saturating_sub(inner.slots.len()),
            None => 0,
        }
    }

    /// Ring capacity in events (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.slots.len())
    }

    /// Snapshot the retained events, oldest first. Empty when disabled.
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let total = inner.head.load(Ordering::Acquire);
        let cap = inner.slots.len();
        let retained = total.min(cap);
        let first = total - retained;
        (first..total)
            .map(|i| {
                let slot = &inner.slots[i % cap];
                Event {
                    kind: SpanKind::from_u8(slot.kind.load(Ordering::Relaxed) as u8),
                    meta: slot.meta.load(Ordering::Relaxed),
                    start_ns: slot.start.load(Ordering::Relaxed),
                    end_ns: slot.end.load(Ordering::Relaxed),
                    extra: slot.extra.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// One handle bundling the two halves of the observability layer: a shared
/// [`MetricsRegistry`] (aggregated across ranks) and a per-rank
/// [`EventRecorder`].
///
/// `ObsHandle::disabled()` is the default everywhere instrumentation is
/// threaded through the comm stack; it makes every record call a single
/// branch, preserving the byte-identical determinism of uninstrumented
/// runs (instrumentation never draws RNG or changes control flow either
/// way).
#[derive(Clone, Debug, Default)]
pub struct ObsHandle {
    registry: MetricsRegistry,
    recorder: EventRecorder,
}

impl Default for EventRecorder {
    fn default() -> Self {
        EventRecorder::disabled()
    }
}

impl ObsHandle {
    /// A disabled handle: metrics still function if explicitly used, but
    /// the recorder drops everything and [`ObsHandle::enabled`] is false,
    /// so instrumented call sites skip their bookkeeping entirely.
    pub fn disabled() -> Self {
        ObsHandle {
            registry: MetricsRegistry::new(),
            recorder: EventRecorder::disabled(),
        }
    }

    /// An enabled handle over an existing registry (typically shared by
    /// all ranks) and this rank's recorder.
    pub fn enabled_with(registry: MetricsRegistry, recorder: EventRecorder) -> Self {
        ObsHandle { registry, recorder }
    }

    /// A fresh enabled handle with its own registry and a default-capacity
    /// recorder.
    pub fn new_enabled() -> Self {
        ObsHandle {
            registry: MetricsRegistry::new(),
            recorder: EventRecorder::new_default(),
        }
    }

    /// Whether instrumentation is live (i.e. the recorder stores events).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// This rank's event recorder.
    pub fn recorder(&self) -> &EventRecorder {
        &self.recorder
    }

    /// Derive a handle for one rank: same registry, fresh recorder of the
    /// given capacity.
    pub fn fork_rank(&self, capacity: usize) -> ObsHandle {
        ObsHandle {
            registry: self.registry.clone(),
            recorder: if self.enabled() {
                EventRecorder::new(capacity)
            } else {
                EventRecorder::disabled()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = EventRecorder::disabled();
        for i in 0..100 {
            r.record(SpanKind::Compress, i, i, i + 1, 0);
        }
        assert!(!r.enabled());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn events_round_trip_in_order() {
        let r = EventRecorder::new(8);
        r.instant(SpanKind::Submit, pack_meta(7, 2, 1, 3), 10, 0);
        r.record(SpanKind::Compress, pack_meta(7, 2, 1, 3), 10, 25, 0);
        r.record(SpanKind::Wire, pack_meta(7, 2, 1, 3), 30, 30, 512);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, SpanKind::Submit);
        assert_eq!(ev[1].dur_ns(), 15);
        assert_eq!(ev[2].extra, 512);
        assert_eq!(meta_op(ev[0].meta), 7);
        assert_eq!(meta_segment(ev[0].meta), 2);
        assert_eq!(meta_phase(ev[0].meta), 1);
        assert_eq!(meta_epoch(ev[0].meta), 3);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let r = EventRecorder::new(4);
        for i in 0..10u64 {
            r.record(SpanKind::Decode, i, i, i + 1, 0);
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let ev = r.events();
        assert_eq!(ev.len(), 4);
        // Oldest retained first: metas 6, 7, 8, 9.
        assert_eq!(
            ev.iter().map(|e| e.meta).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn fork_rank_shares_registry_not_recorder() {
        let base = ObsHandle::new_enabled();
        let a = base.fork_rank(16);
        let b = base.fork_rank(16);
        a.registry().counter("shared").inc();
        b.registry().counter("shared").inc();
        assert_eq!(base.registry().snapshot().get("shared"), Some(2));
        a.recorder().instant(SpanKind::Submit, 0, 0, 0);
        assert_eq!(a.recorder().recorded(), 1);
        assert_eq!(b.recorder().recorded(), 0);
    }

    #[test]
    fn disabled_handle_forks_disabled() {
        let base = ObsHandle::disabled();
        assert!(!base.fork_rank(16).enabled());
    }
}
