//! The benchmark's fixed vocabulary: workloads, and the name and unit of
//! every metric. `BENCHMARK.json` repeats these names and adds direction,
//! bound and reason; `--selftest` checks that the two agree.

use crate::stats::Summary;
use cgx_compress::CompressionScheme;
use cgx_models::ModelId;

/// Which fabric an inventory workload's two ranks talk over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    Shm,
    Tcp,
    /// One job attached to two `ServeNode`s that own the TCP mesh.
    Serve,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A zoo model's layer inventory, every compressible layer's element
    /// count divided by `shrink`, reduced with `scheme` (norm and bias
    /// layers stay full size and FP32, as the CGX filter sends them).
    Inventory {
        model: ModelId,
        shrink: usize,
        scheme: CompressionScheme,
        fabric: Fabric,
        /// Pinned totals: a changed zoo is a changed workload.
        layers: usize,
        elements: usize,
    },
    /// `train_rank` on two threads: real forward/backward, optimiser and
    /// live adaptive controller over shm.
    Train,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Timed steps per second of `--seconds`: a fixed amount of work, not
    /// a fixed time, so that counts compare exactly between commits. Sized
    /// on the reference host while a neighbour kept it slow (steps 1.6x
    /// their quiet time), so that a budget second is at most about 1.2 s
    /// of steps (1.7 s for BERT, so that `run_seconds` = 10 gives the 200
    /// steps that put ten samples beyond the 95th percentile when all are
    /// calm), and less when the host is quiet.
    pub steps_per_budget_second: f64,
    /// Untimed steps that end set-up.
    pub warmup_steps: usize,
}

const Q4: CompressionScheme = CompressionScheme::Qsgd {
    bits: 4,
    bucket_size: 128,
};

const fn resnet(name: &'static str, fabric: Fabric, rate: f64) -> Workload {
    Workload {
        name,
        kind: Kind::Inventory {
            model: ModelId::ResNet50,
            shrink: 64,
            scheme: Q4,
            fabric,
            layers: 161,
            elements: 452_603,
        },
        steps_per_budget_second: rate,
        warmup_steps: 40,
    }
}

const fn bert(name: &'static str, scheme: CompressionScheme, rate: f64) -> Workload {
    Workload {
        name,
        kind: Kind::Inventory {
            model: ModelId::BertBase,
            shrink: 16,
            scheme,
            fabric: Fabric::Tcp,
            layers: 201,
            elements: 6_957_218,
        },
        steps_per_budget_second: rate,
        warmup_steps: 4,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    resnet("resnet_shm_q4", Fabric::Shm, 250.0),
    resnet("resnet_tcp_q4", Fabric::Tcp, 200.0),
    resnet("resnet_serve_q4", Fabric::Serve, 120.0),
    bert("bert_tcp_q4", Q4, 20.0),
    bert("bert_tcp_fp32", CompressionScheme::None, 20.0),
    Workload {
        name: "train_lm_adaptive",
        kind: Kind::Train,
        steps_per_budget_second: 160.0,
        warmup_steps: 40,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Timed steps for a `--seconds` budget: a whole number of windows.
    pub fn steps(&self, seconds: f64) -> usize {
        let windows = crate::stats::WINDOWS;
        let steps = (self.steps_per_budget_second * seconds).round() as usize;
        (steps / windows).max(1) * windows
    }
}

/// How the values behind an end-to-end metric become the metric: within
/// one run and, in the suite, over the values of every round together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Across {
    /// The median of the pooled values (window values, set-up repeats).
    Pooled,
    /// A count, or a value the seed fixes: every value must be the same.
    Exact,
    /// One value per run; the median of the runs.
    Median,
}

impl Across {
    /// `samples` is how many measurements stand behind `values` (the
    /// steps that windows were cut from).
    pub fn combine(self, values: &[f64], samples: usize) -> Result<Summary, String> {
        match self {
            Across::Pooled => Ok(Summary {
                samples,
                ..Summary::of(values)
            }),
            Across::Exact if values.iter().any(|v| *v != values[0]) => {
                Err(format!("did not repeat exactly: {values:?}"))
            }
            Across::Exact => Ok(Summary::exact(values[0])),
            Across::Median => Ok(Summary::of(values)),
        }
    }
}

/// `(name, unit, how it combines)` of every end-to-end metric, in
/// reporting order.
pub const END_TO_END: [(&str, &str, Across); 6] = [
    ("setup_s", "s", Across::Pooled),
    ("step_ms_p50", "ms", Across::Pooled),
    ("steps_per_s", "1/s", Across::Pooled),
    ("wire_bytes_per_step", "B", Across::Exact),
    ("quality_err", "-", Across::Exact),
    ("peak_rss_mib", "MiB", Across::Median),
];

/// Reported beside the end-to-end metrics of an untraced run, not bounded
/// and not in the result line: its run-to-run spread on the reference
/// host exceeds any bound the contract allows.
pub const STEP_MS_P95: (&str, &str) = ("step_ms_p95", "ms");

/// `quality_err` never reads below this: under it lies `f32` rounding
/// noise (the uncompressed path gives 3e-8), which a harmless change of
/// reduction order moves by more than any relative bound.
pub const QUALITY_FLOOR: f64 = 1e-6;

/// `(name, unit)` of every per-layer metric, in reporting order. The
/// driver's contract wants every one in every traced result line, so a
/// metric whose layer a workload does not run reads 0 there; the run names
/// those under `not_applicable` and leaves them out of what it prints.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("compress.encode_ms_per_step", "ms"),
    ("compress.decode_ms_per_step", "ms"),
    ("compress.calls_per_step", "count"),
    ("compress.q4_encode_melem_s", "Melem/s"),
    ("compress.q4_decode_add_melem_s", "Melem/s"),
    ("compress.fp32_encode_melem_s", "Melem/s"),
    ("compress.fp32_decode_add_melem_s", "Melem/s"),
    ("compress.pool_reuse_ratio", "ratio"),
    ("compress.wire_ratio", "ratio"),
    ("tensor.rng_mu64_s", "M/s"),
    ("collectives.engine.submit_ms_per_step", "ms"),
    ("collectives.engine.wait_ms_per_step", "ms"),
    ("collectives.engine.park_ms_per_step", "ms"),
    ("collectives.engine.self_ms_per_step", "ms"),
    ("collectives.engine.max_in_flight", "count"),
    ("collectives.engine.collectives_per_step", "count"),
    ("collectives.transport.msgs_per_step", "count"),
    ("collectives.transport.payload_bytes_per_step", "B"),
    ("collectives.transport.shm_rtt_us", "us"),
    ("collectives.transport.shm_mib_s", "MiB/s"),
    ("net.tcp.syscalls_per_step", "count"),
    ("net.tcp.writev_frames_per_step", "count"),
    ("net.tcp.serialize_ms_per_step", "ms"),
    ("net.tcp.syscall_ms_per_step", "ms"),
    ("net.tcp.park_ms_per_step", "ms"),
    ("net.tcp.frame_overhead_bytes_per_step", "B"),
    ("net.tcp.rtt_us", "us"),
    ("net.tcp.mib_s", "MiB/s"),
    ("net.rendezvous.mesh_build_ms", "ms"),
    ("serve.daemon.attach_us", "us"),
    ("serve.daemon.rtt_us", "us"),
    ("serve.daemon.overhead_ms_per_step", "ms"),
    ("serve.daemon.job_bytes_per_step", "B"),
    ("serve.qos.drr_mframes_s", "Mframes/s"),
    ("adaptive.controller.replans", "count"),
    ("adaptive.controller.mean_bits", "bits/elem"),
    ("adaptive.controller.overhead_ms_per_step", "ms"),
    ("engine.nn.compute_ms_per_step", "ms"),
    ("engine.trainer.sync_ms_per_step", "ms"),
    ("engine.trainer.single_worker_step_ms", "ms"),
    ("engine.trainer.scaling_eff", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.events_dropped", "count"),
    ("process.step_ms_p95", "ms"),
    ("process.cpu_ms_per_step", "ms"),
    ("process.ctx_switches_per_step", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn step_counts_scale_with_the_budget_in_whole_windows() {
        let w = workload("resnet_shm_q4").unwrap();
        assert_eq!(w.steps(10.0), 2500);
        assert_eq!(w.steps(1.0), 240);
        assert_eq!(w.steps(0.001), 20);
        assert_eq!(workload("bert_tcp_fp32").unwrap().steps(1.0), 20);
        assert_eq!(workload("bert_tcp_fp32").unwrap().steps(10.0), 200);
        assert!(workload("nope").is_none());
    }

    #[test]
    fn values_combine_by_kind() {
        let pooled = Across::Pooled.combine(&[4.0, 1.0, 3.0, 2.0], 40).unwrap();
        assert_eq!((pooled.value, pooled.samples), (2.5, 40));
        assert_eq!(Across::Exact.combine(&[7.0, 7.0], 2).unwrap().value, 7.0);
        assert!(Across::Exact.combine(&[7.0, 7.5], 2).is_err());
        assert_eq!(
            Across::Median.combine(&[1.0, 9.0, 2.0], 3).unwrap().value,
            2.0
        );
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics the
    /// harness emits, with the same units, and stay inside the contract.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            let rows = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("no {key}"));
            rows.iter()
                .map(|r| {
                    r.get(field)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} row without {field}"))
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.map(|w| w.name.to_string())
        );
        let end_to_end: Vec<_> = END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect();
        for (key, table) in [
            ("end_to_end", &end_to_end[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<_> = names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect();
            let emitted: Vec<_> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
        for row in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = row.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        // A budget second is up to 1.7 s of steps on a busy host (the
        // slowest untraced run, `bert_tcp_q4`, took 21 s there), and every
        // run adds set-up repeats, gradients and verification: 6 s covers
        // the 5 s the slowest adds. Two builds take 40 s each.
        assert!(
            runs * (seconds * 1.7 + 6.0) + 2.0 * 60.0 < 3420.0,
            "runs do not fit the driver's cap"
        );
        // Ten samples beyond the 95th percentile need 200 calm steps.
        for w in WORKLOADS {
            assert!(w.steps(seconds) >= 200, "{}", w.name);
        }
        for name in names("end_to_end", "name")
            .iter()
            .chain(&names("per_layer", "name"))
        {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
