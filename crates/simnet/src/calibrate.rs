//! Fabric calibration against measured TCP-loopback step times.
//!
//! The input is six measured points — world sizes 2/4/8 in fp32 and
//! 4-bit modes, each with the per-rank wire bytes and the mean step wall
//! time of a real scatter-reduce-allgather over loopback sockets — in
//! the row format of the `net_report` bin that measured them. That bin
//! is gone (v0.19.0) and nothing in the tree produces the format any
//! more: the unit tests below run over a frozen fixture, and live
//! calibration waits for a world-4 TCP workload in `BENCHMARK.json`
//! (ROADMAP 3's `bert_hybrid_q4`) whose result lines this module will
//! read instead.
//!
//! 1. [`parse_bench_net`] pulls the measurement points out of the JSON
//!    (a hand-built format, so a substring scan is an honest parser).
//! 2. [`LoopbackModel::fit`] fits the three host constants of a
//!    single-machine loopback fabric — per-rank mode cost `c_mode`
//!    (compression/serialization per step), per-message cost `p`
//!    (framing + syscalls), and per-byte cost `h` (the host moves every
//!    wire byte through one kernel) — by weighted linear least squares
//!    over the measured points. The model is
//!    `t(n, mode) = n·c_mode + 2n(n-1)·p + n·W·h`
//!    with `W` the per-rank wire bytes: all ranks share one host, so
//!    per-rank costs serialize and `2n(n-1)` is the step's message
//!    count.
//! 3. [`LoopbackModel::replay`] runs the same step through the DES —
//!    per-rank compute ops feeding an SRA graph over a bus-limited
//!    [`Fabric`](crate::des::Fabric) — and reports the simulated time,
//!    so the calibration error measures the *simulator*, not just the
//!    closed form.
//! 4. [`calibrate`] ties it together into a per-point relative-error
//!    report; the unit tests hold every fixture point within 25%.

use crate::des::{run, DesScratch, Fabric, OpGraph, SimError};

/// One measured loopback point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPoint {
    /// World size (ranks on the loopback host).
    pub world: usize,
    /// `false` = fp32, `true` = 4-bit QSGD.
    pub q4: bool,
    /// Wire bytes per rank per step.
    pub wire_bytes: u64,
    /// Measured mean step time, microseconds.
    pub step_us: u64,
}

impl NetPoint {
    /// Mode label matching the JSON field prefixes.
    pub fn mode(&self) -> &'static str {
        if self.q4 {
            "q4"
        } else {
            "fp32"
        }
    }
}

/// Pulls `"<name>": <int>` out of one JSON row.
fn field_u64(row: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let at = row.find(&key)?;
    let digits: String = row[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses the measurement points out of a `net_report`-format string.
/// Returns `None` when no complete world row is found.
pub fn parse_bench_net(json: &str) -> Option<Vec<NetPoint>> {
    let mut points = Vec::new();
    for row in json.split('{') {
        let Some(world) = field_u64(row, "world") else {
            continue;
        };
        for q4 in [false, true] {
            let prefix = if q4 { "q4" } else { "fp32" };
            let wire = field_u64(row, &format!("{prefix}_wire_bytes_per_step"))?;
            let step = field_u64(row, &format!("{prefix}_step_us"))?;
            points.push(NetPoint {
                world: world as usize,
                q4,
                wire_bytes: wire,
                step_us: step,
            });
        }
    }
    if points.is_empty() {
        None
    } else {
        Some(points)
    }
}

/// Calibrated constants of the single-host loopback fabric, all in
/// microseconds (per unit of their driver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopbackModel {
    /// Per-rank fp32 step cost (serialize + reduce), µs.
    pub c_fp32_us: f64,
    /// Per-rank q4 step cost (quantize + serialize + reduce), µs.
    pub c_q4_us: f64,
    /// Per-message host cost (framing, syscalls), µs.
    pub per_msg_us: f64,
    /// Per-wire-byte host cost, µs/byte.
    pub per_byte_us: f64,
}

/// Solves the 4×4 linear system `a·x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` on a singular system.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        let pivot = (col..4).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..4 {
            let (f, pivot_row) = (a[row][col] / a[col][col], a[col]);
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; 4];
    for col in (0..4).rev() {
        let mut v = b[col];
        for k in col + 1..4 {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    Some(x)
}

impl LoopbackModel {
    /// Feature vector of one point: coefficients of
    /// `[c_fp32, c_q4, per_msg, per_byte]`.
    fn features(p: &NetPoint) -> [f64; 4] {
        let n = p.world as f64;
        [
            if p.q4 { 0.0 } else { n },
            if p.q4 { n } else { 0.0 },
            2.0 * n * (n - 1.0),
            n * p.wire_bytes as f64,
        ]
    }

    /// Fits the model to measured points by weighted (1/t²) linear
    /// least squares — minimizing *relative* error, which is what the
    /// acceptance bound is stated in. Constants are clamped to ≥ 0.
    /// Returns `None` when the points cannot determine the model
    /// (fewer than 4, or a degenerate design matrix).
    pub fn fit(points: &[NetPoint]) -> Option<Self> {
        if points.len() < 4 {
            return None;
        }
        let mut ata = [[0.0f64; 4]; 4];
        let mut atb = [0.0f64; 4];
        for p in points {
            let x = Self::features(p);
            let t = p.step_us as f64;
            if t <= 0.0 {
                return None;
            }
            let w = 1.0 / (t * t);
            for i in 0..4 {
                for j in 0..4 {
                    ata[i][j] += w * x[i] * x[j];
                }
                atb[i] += w * x[i] * t;
            }
        }
        let x = solve4(ata, atb)?;
        Some(LoopbackModel {
            c_fp32_us: x[0].max(0.0),
            c_q4_us: x[1].max(0.0),
            per_msg_us: x[2].max(0.0),
            per_byte_us: x[3].max(0.0),
        })
    }

    /// Closed-form predicted step time, µs.
    pub fn predict_us(&self, world: usize, wire_bytes: u64, q4: bool) -> f64 {
        let n = world as f64;
        let c = if q4 { self.c_q4_us } else { self.c_fp32_us };
        n * c + 2.0 * n * (n - 1.0) * self.per_msg_us + n * wire_bytes as f64 * self.per_byte_us
    }

    /// The loopback fabric this model describes: lanes effectively
    /// infinite (one host — no NIC serialization), α = 0, and a serial
    /// [`Bus`](crate::des::Bus) carrying `per_msg` + per-byte cost.
    pub fn fabric(&self, world: usize) -> Result<Fabric, SimError> {
        let mut f = Fabric::uniform(world, 1e15, 0.0)?;
        if self.per_byte_us > 0.0 {
            f.set_bus(self.per_msg_us * 1e-6, 1e6 / self.per_byte_us)?;
        } else {
            f.set_bus(self.per_msg_us * 1e-6, 1e15)?;
        }
        Ok(f)
    }

    /// Builds the loopback step graph: one compute op per rank (the
    /// per-rank mode cost, which serializes on the host bus exactly
    /// like the real quantize+serialize work does), feeding a
    /// join-based SRA whose transfers carry the measured wire bytes.
    pub fn build_step(&self, g: &mut OpGraph, world: usize, q4: bool) -> Result<(), SimError> {
        let n = world;
        let c_us = if q4 { self.c_q4_us } else { self.c_fp32_us };
        let c_ns = (c_us * 1e3).round().min(u32::MAX as f64) as u32;
        g.clear();
        if n == 1 {
            g.push_compute(0, c_ns, &[])?;
            g.seal();
            return Ok(());
        }
        for r in 0..n {
            g.push_compute(r, c_ns, &[])?;
        }
        let frac = 1.0 / n as f64;
        // Phase 1: rank i scatters chunks once its step work is done.
        let p1 = |i: usize, j: usize| (n + i * (n - 1) + if j < i { j } else { j - 1 }) as u32;
        for i in 0..n {
            for j in 0..n {
                if j != i {
                    g.push_transfer(i, j, frac, &[i as u32])?;
                }
            }
        }
        let mut deps: Vec<u32> = Vec::with_capacity(n - 1);
        let join0 = (n + n * (n - 1)) as u32;
        for j in 0..n {
            deps.clear();
            for i in 0..n {
                if i != j {
                    deps.push(p1(i, j));
                }
            }
            g.push_join(j, &deps)?;
        }
        for j in 0..n {
            for k in 0..n {
                if k != j {
                    g.push_transfer(j, k, frac, &[join0 + j as u32])?;
                }
            }
        }
        g.seal();
        Ok(())
    }

    /// Replays one measured point through the DES; returns the
    /// simulated step time in µs.
    ///
    /// `ref_bytes` is sized so the graph's total transferred bytes
    /// equal the fabric-wide wire traffic `world · wire_bytes`: the SRA
    /// graph moves `2(n-1)` chunks of `ref_bytes / n`.
    pub fn replay(
        &self,
        world: usize,
        wire_bytes: u64,
        q4: bool,
        g: &mut OpGraph,
        scratch: &mut DesScratch,
    ) -> Result<f64, SimError> {
        self.build_step(g, world, q4)?;
        let n = world as f64;
        let ref_bytes = if world > 1 {
            n * wire_bytes as f64 / (2.0 * (n - 1.0))
        } else {
            0.0
        };
        let stats = run(g, &self.fabric(world)?, ref_bytes, scratch)?;
        Ok(stats.makespan_ns as f64 / 1e3)
    }
}

/// One calibration comparison: measured vs simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalPoint {
    /// The measured point.
    pub measured: NetPoint,
    /// DES-simulated step time, µs.
    pub sim_us: f64,
    /// `|sim - measured| / measured`.
    pub rel_err: f64,
}

/// The calibration report: fitted constants plus per-point errors.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The fitted loopback model.
    pub model: LoopbackModel,
    /// Per measurement point: simulated time and relative error.
    pub points: Vec<CalPoint>,
    /// Worst relative error across points.
    pub max_rel_err: f64,
}

/// Fits the loopback model to a `net_report`-format string and replays
/// every measured point through the DES. Returns `None` when the JSON
/// has no usable points or the fit is degenerate; propagates DES
/// errors (which would indicate a bug, not bad data).
pub fn calibrate(bench_net_json: &str) -> Result<Option<CalibrationReport>, SimError> {
    let Some(points) = parse_bench_net(bench_net_json) else {
        return Ok(None);
    };
    let Some(model) = LoopbackModel::fit(&points) else {
        return Ok(None);
    };
    let mut g = OpGraph::new();
    let mut scratch = DesScratch::new();
    let mut out = Vec::with_capacity(points.len());
    let mut max_rel_err = 0.0f64;
    for p in points {
        let sim_us = model.replay(p.world, p.wire_bytes, p.q4, &mut g, &mut scratch)?;
        let rel_err = (sim_us - p.step_us as f64).abs() / p.step_us as f64;
        max_rel_err = max_rel_err.max(rel_err);
        out.push(CalPoint {
            measured: p,
            sim_us,
            rel_err,
        });
    }
    Ok(Some(CalibrationReport {
        model,
        points: out,
        max_rel_err,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture, not a measurement of this code: `net_report`'s six
    /// points as measured on the PR 6 wire path, 4–6× slower
    /// than the path is today. It pins the parser, the fit and the
    /// replay against each other, nothing else.
    const BENCH_NET: &str = r#"{
  "worlds": [
    {"world": 2, "fp32_wire_bytes_per_step": 262198, "fp32_step_us": 1806, "q4_wire_bytes_per_step": 34870, "q4_step_us": 1089},
    {"world": 4, "fp32_wire_bytes_per_step": 393378, "fp32_step_us": 4132, "q4_wire_bytes_per_step": 52386, "q4_step_us": 2571},
    {"world": 8, "fp32_wire_bytes_per_step": 459130, "fp32_step_us": 9694, "q4_wire_bytes_per_step": 61306, "q4_step_us": 5530}
  ]
}"#;

    #[test]
    fn parses_all_six_points() {
        let pts = parse_bench_net(BENCH_NET).expect("points");
        assert_eq!(pts.len(), 6);
        assert_eq!(
            pts[0],
            NetPoint {
                world: 2,
                q4: false,
                wire_bytes: 262198,
                step_us: 1806
            }
        );
        assert_eq!(
            pts[5],
            NetPoint {
                world: 8,
                q4: true,
                wire_bytes: 61306,
                step_us: 5530
            }
        );
        assert!(parse_bench_net("{}").is_none());
        assert!(parse_bench_net("not json at all").is_none());
    }

    #[test]
    fn fit_is_sane_and_replay_matches_closed_form() {
        let pts = parse_bench_net(BENCH_NET).unwrap();
        let m = LoopbackModel::fit(&pts).expect("fit");
        assert!(
            m.c_fp32_us > m.c_q4_us,
            "fp32 serializes more than q4: {m:?}"
        );
        assert!(m.per_msg_us > 0.0 && m.per_byte_us > 0.0, "{m:?}");
        // The DES replay must agree with the closed form it encodes —
        // the bus is saturated from t=0, so the makespan is exactly the
        // serial bus occupancy (up to per-op ns rounding).
        let mut g = OpGraph::new();
        let mut s = DesScratch::new();
        for p in &pts {
            let sim = m
                .replay(p.world, p.wire_bytes, p.q4, &mut g, &mut s)
                .unwrap();
            let closed = m.predict_us(p.world, p.wire_bytes, p.q4);
            let err = (sim - closed).abs() / closed;
            assert!(
                err < 1e-3,
                "world {} {}: sim {sim:.1} vs closed {closed:.1}",
                p.world,
                p.mode()
            );
        }
    }

    #[test]
    fn calibration_error_is_within_acceptance() {
        let report = calibrate(BENCH_NET).unwrap().expect("report");
        assert_eq!(report.points.len(), 6);
        for p in &report.points {
            assert!(
                p.rel_err <= 0.25,
                "world {} {}: sim {:.0}µs vs measured {}µs ({:.1}% off)",
                p.measured.world,
                p.measured.mode(),
                p.sim_us,
                p.measured.step_us,
                p.rel_err * 100.0
            );
        }
        assert!(report.max_rel_err <= 0.25);
    }

    #[test]
    fn degenerate_inputs_yield_none_not_panic() {
        assert!(calibrate("").unwrap().is_none());
        // One world row → 2 points → underdetermined fit.
        let one = r#"{"world": 2, "fp32_wire_bytes_per_step": 100, "fp32_step_us": 10, "q4_wire_bytes_per_step": 10, "q4_step_us": 5}"#;
        assert!(calibrate(one).unwrap().is_none());
    }
}
