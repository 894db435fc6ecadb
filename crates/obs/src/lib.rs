#![warn(missing_docs)]
//! # cgx-obs — observability for the CGX comm stack
//!
//! A lightweight, zero-dependency observability layer:
//!
//! * [`MetricsRegistry`] — named atomic counters / gauges / histograms
//!   unifying what used to be scattered stats (`AllreduceStats` timing
//!   fields, `ScratchPool` hit counters, engine `idle_ns`);
//! * [`EventRecorder`] — a lock-free per-rank ring buffer of span events
//!   covering every collective's lifecycle (submit → compress → wire →
//!   decode-accumulate → complete, plus idle parks), tagged with the
//!   collective id / segment / phase / epoch exactly as packed into the
//!   wire tag;
//! * an exporter — Chrome `trace_event` JSON ([`chrome_trace_json`]) for
//!   timeline inspection.
//!
//! Instrumentation is runtime-gated through [`ObsHandle`]: the disabled
//! handle (the default everywhere) reduces every record to a single
//! branch, and recording never draws RNG or alters control flow, so the
//! byte-identical determinism guarantees of the pipelined engine and the
//! parity suites hold with the recorder on or off.

pub mod events;
pub mod export;
pub mod metrics;

pub use events::{
    meta_epoch, meta_op, meta_phase, meta_segment, pack_meta, Event, EventRecorder, ObsHandle,
    SpanKind, DEFAULT_RING_CAPACITY,
};
pub use export::{chrome_trace_json, json_f64, json_string};
pub use metrics::{
    names, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};

#[cfg(test)]
mod version_tests {
    //! The workspace version and the changelog's top entry must agree —
    //! they drifted once (workspace stuck at 0.1.0 while the changelog
    //! advanced) and this pins them together.

    #[test]
    fn workspace_version_matches_changelog_top_entry() {
        let manifest = include_str!("../../../Cargo.toml");
        let workspace_version = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("version = \""))
            .and_then(|rest| rest.split('"').next())
            .expect("workspace Cargo.toml declares a version");

        let changelog = include_str!("../../../CHANGELOG.md");
        let changelog_version = changelog
            .lines()
            .find_map(|l| l.strip_prefix("## "))
            .map(str::trim)
            .expect("CHANGELOG.md has at least one `## x.y.z` entry");

        assert_eq!(
            workspace_version, changelog_version,
            "workspace version and CHANGELOG top entry drifted"
        );
    }
}
