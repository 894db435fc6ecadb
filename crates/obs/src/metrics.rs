//! Named atomic metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The registry unifies what used to be scattered ad-hoc statistics
//! (`AllreduceStats` fields, `ScratchPool` hit counters, engine
//! `idle_ns`) under one namespace. Handles are `Arc`-backed, so a
//! metric resolved once (at construction time, outside the hot path) costs
//! a single relaxed atomic op per update afterwards.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Well-known metric names shared across crates.
///
/// Transports, engines, and reports all meet in one registry namespace;
/// these constants keep the producer (`set_obs` wiring in the transport
/// crates) and every consumer (dashboards, report binaries, tests
/// asserting on snapshots) spelling a name identically. Names are
/// `component.what` in `snake_case`.
pub mod names {
    /// Payload messages handed to the transport for sending.
    pub const TRANSPORT_MSGS_SENT: &str = "transport.msgs_sent";
    /// Payload bytes handed to the transport (pre-framing).
    pub const TRANSPORT_BYTES_SENT: &str = "transport.bytes_sent";
    /// Bytes actually placed on the wire, framing included (TCP only).
    pub const TRANSPORT_WIRE_BYTES_SENT: &str = "transport.wire_bytes_sent";
    /// Payload messages delivered to receivers.
    pub const TRANSPORT_MSGS_RECV: &str = "transport.msgs_recv";
    /// Payload bytes delivered to receivers.
    pub const TRANSPORT_BYTES_RECV: &str = "transport.bytes_recv";
    /// Frames moved by vectored (`writev`-style) socket writes — the
    /// zero-copy wire path's coalescing effectiveness (TCP only).
    pub const TRANSPORT_WRITEV_FRAMES: &str = "transport.writev_frames";
    /// Socket-facing syscalls issued (reads + writes + polls; TCP only).
    pub const TRANSPORT_SYSCALLS: &str = "transport.syscalls";
    /// Peers declared dead (socket reset, EOF mid-frame, or liveness
    /// deadline elapsed; TCP only).
    pub const TRANSPORT_PEER_DEAD: &str = "transport.peer_dead";
    /// Liveness heartbeat frames emitted on the CTRL lane (TCP only).
    pub const TRANSPORT_HEARTBEATS: &str = "transport.heartbeats";
    /// Re-plans committed by the live adaptive compression controller.
    pub const ADAPTIVE_REPLANS: &str = "adaptive.replans";
    /// Sync rounds the controller did not observe because a synchronized
    /// norm was not finite.
    pub const ADAPTIVE_ROUNDS_SKIPPED: &str = "adaptive.rounds_skipped";
    /// Current adaptive plan epoch (gauge; 0 = base plan).
    pub const ADAPTIVE_PLAN_EPOCH: &str = "adaptive.plan_epoch";
    /// Nominal wire bits per compressible element of the current plan,
    /// in millibits (gauge — gauges are integral).
    pub const ADAPTIVE_MILLIBITS_PER_ELEMENT: &str = "adaptive.millibits_per_element";
    /// Current plan's compressed size vs uniform 4-bit, in parts per
    /// thousand (gauge).
    pub const ADAPTIVE_SIZE_RATIO_PERMILLE: &str = "adaptive.size_ratio_permille";
    /// Advisory measured wire bandwidth EWMA, bytes/s (gauge; never
    /// feeds back into plan bits — see the controller docs).
    pub const ADAPTIVE_BANDWIDTH_BPS: &str = "adaptive.bandwidth_bps";
    /// Jobs admitted by a serve daemon (`cgx-serve` only).
    pub const SERVE_JOBS_ATTACHED: &str = "serve.jobs_attached";
    /// Jobs fully detached (queues drained) from a serve daemon.
    pub const SERVE_JOBS_DETACHED: &str = "serve.jobs_detached";
    /// Attach requests rejected by admission control.
    pub const SERVE_JOBS_REJECTED: &str = "serve.jobs_rejected";
    /// Tenant frames the daemon placed on the physical fabric.
    pub const SERVE_FRAMES_OUT: &str = "serve.frames_out";
    /// Tenant payload bytes the daemon placed on the fabric.
    pub const SERVE_BYTES_OUT: &str = "serve.bytes_out";
}

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (atomic max).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// Power-of-two-bucketed histogram: bucket `i` counts samples `v` with
/// `2^i <= v+1 < 2^(i+1)` (bucket 0 holds zeros, bucket 1 holds 1–2, ...).
/// Good enough to eyeball latency distributions without any allocation on
/// record.
#[derive(Debug)]
pub(crate) struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Shared handle to a histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx =
            (64 - (v.saturating_add(1)).leading_zeros() as usize - 1).min(HISTOGRAM_BUCKETS - 1);
        let h = &self.0;
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Copy of the bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Snapshot value of one metric, decoupled from the live atomics.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram summary: `(count, sum, max)`.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Largest sample.
        max: u64,
    },
}

impl MetricValue {
    /// Scalar view: counters/gauges return their value, histograms their sum.
    pub fn scalar(&self) -> u64 {
        match *self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram { sum, .. } => sum,
        }
    }
}

/// Point-in-time snapshot of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Metric name → value at snapshot time.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Look up a metric's scalar value (counter/gauge value, histogram sum).
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).map(MetricValue::scalar)
    }
}

/// Clone-able registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and is meant
/// for construction time; the returned handles are lock-free. Asking for an
/// existing name returns a handle to the *same* underlying atomic, so
/// independent components can share a metric by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Get-or-create a gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Get-or-create a histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        let values = m
            .iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().get("x"), Some(4));
    }

    #[test]
    fn gauge_raise_is_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        g.set(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.raise(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_summary() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for v in [0u64, 1, 2, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 5);
        // 0 is alone in bucket 0; 1 and 2 share bucket 1; u64::MAX lands in
        // the last bucket.
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn snapshot_is_decoupled() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(7);
        reg.gauge("b").set(2);
        reg.histogram("c").record(10);
        let snap = reg.snapshot();
        reg.counter("a").add(100);
        assert_eq!(snap.get("a"), Some(7));
        assert_eq!(snap.get("b"), Some(2));
        assert_eq!(snap.get("c"), Some(10));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
