//! Million-sweep simnet driver: fans a (model x machine x bit-width x
//! reduction scheme x fault scenario x world) grid across OS threads,
//! replays every cell through the event-wheel DES, and emits
//! `BENCH_simnet.json` with throughput (events/sec, configs/sec),
//! per-cell winners and the legacy-vs-wheel speedup on the 512-rank SRA
//! graph.
//!
//! Environment:
//!
//! * `CGX_SIM_OUT` — output path (default `BENCH_simnet.json`).
//! * `CGX_SIM_SPEEDUP` — set to `0` to skip the (slow, allocation-heavy)
//!   legacy-core comparison.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cgx_compress::CompressionScheme;
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::{
    build_hierarchical, build_ring, build_sra, build_tree, des::legacy, run, CommBackend, Fabric,
    MachineSpec, OpGraph, SimWorkspace,
};

/// Reduction layouts swept. Hierarchical applies to multi-node worlds.
const SCHEMES: [&str; 4] = ["sra", "ring", "tree", "hier"];
/// Wire bit-widths: 32 = uncompressed fp32, the rest are QSGD widths.
const BITS: [u32; 6] = [32, 2, 3, 4, 6, 8];
/// Fault/heterogeneity scenarios.
const SCENARIOS: [&str; 4] = ["uniform", "straggler", "jitter", "mixed"];
/// Full-cross world sizes (single node up to 8, then 8-GPU nodes).
const FULL_WORLDS: [usize; 5] = [4, 8, 16, 32, 64];
/// Scale-out world sizes swept on a reduced grid.
const BIG_WORLDS: [usize; 3] = [128, 256, 512];
/// Catalog interconnect for scale-out machines: ~10 GbE effective.
const INTER_BW: f64 = 1.25e9;
const INTER_ALPHA: f64 = 1.5e-3;

/// One grid cell.
#[derive(Clone, Copy)]
struct Config {
    model: usize,
    machine: usize,
    world: usize,
    bits: usize,
    scheme: usize,
    scenario: usize,
}

/// Per-model wire sizes, precomputed once.
struct ModelData {
    name: &'static str,
    raw_bytes: f64,
    wire_bytes: [f64; 6],
}

fn model_table() -> Vec<ModelData> {
    ModelId::all()
        .into_iter()
        .map(|id| {
            let spec = ModelSpec::build(id);
            let raw = spec.grad_bytes() as f64;
            let params = spec.param_count() as f64;
            let mut wire = [0.0; 6];
            for (i, &b) in BITS.iter().enumerate() {
                wire[i] = if b == 32 {
                    raw
                } else {
                    let scheme = CompressionScheme::Qsgd {
                        bits: b,
                        bucket_size: 128,
                    };
                    (params * scheme.nominal_bits_per_element() / 8.0).min(raw)
                };
            }
            ModelData {
                name: id.name(),
                raw_bytes: raw,
                wire_bytes: wire,
            }
        })
        .collect()
}

fn machine_table() -> Vec<MachineSpec> {
    MachineSpec::table2_systems().to_vec()
}

/// The machine instance backing a (machine, world) pair: a slice of one
/// node up to 8 ranks, 8-GPU nodes joined by the catalog interconnect
/// beyond that.
fn machine_at(base: &MachineSpec, world: usize) -> MachineSpec {
    if world <= base.gpus_per_node() {
        base.with_gpus(world)
    } else {
        base.scale_out(world / base.gpus_per_node(), INTER_BW, INTER_ALPHA)
    }
}

/// Applies a fault/heterogeneity scenario on top of a catalog fabric.
fn apply_scenario(f: &mut Fabric, scenario: usize, seed: u64) {
    match SCENARIOS[scenario] {
        "straggler" => {
            // One late, degraded rank: 2 ms release + 70% lanes.
            f.set_release(0, 2e-3).expect("release");
            f.scale_rank_bandwidth(0, 0.7).expect("scale");
        }
        "jitter" => f.set_jitter(seed, 0.08).expect("jitter"),
        "mixed" => {
            // Alternating GPU generations: odd ranks at 60% bandwidth.
            for r in (1..f.ranks()).step_by(2) {
                f.scale_rank_bandwidth(r, 0.6).expect("scale");
            }
        }
        _ => {}
    }
}

/// Graph cache key: flat graphs depend on (scheme, world); hierarchical
/// graphs also on the node split and the inter/intra byte ratio.
type GraphKey = (usize, usize, usize, u32);

fn graph_for(
    cache: &mut HashMap<GraphKey, OpGraph>,
    scheme: usize,
    world: usize,
    nodes: usize,
    ratio: f64,
) -> &OpGraph {
    let ratio_key = if SCHEMES[scheme] == "hier" {
        (ratio * 1000.0).round() as u32
    } else {
        0
    };
    let nodes_key = if SCHEMES[scheme] == "hier" { nodes } else { 0 };
    cache
        .entry((scheme, world, nodes_key, ratio_key))
        .or_insert_with(|| {
            let mut g = OpGraph::new();
            match SCHEMES[scheme] {
                "sra" => build_sra(&mut g, world).expect("sra"),
                "ring" => build_ring(&mut g, world).expect("ring"),
                "tree" => build_tree(&mut g, world).expect("tree"),
                _ => build_hierarchical(&mut g, nodes, world / nodes, ratio).expect("hier"),
            }
            g
        })
}

struct CellResult {
    cfg: Config,
    seconds: f64,
    events: u64,
}

fn build_grid() -> Vec<Config> {
    let mut grid = Vec::new();
    for &world in &FULL_WORLDS {
        for model in 0..6 {
            for machine in 0..4 {
                for bits in 0..BITS.len() {
                    for (scheme, &name) in SCHEMES.iter().enumerate() {
                        if name == "hier" && world <= 8 {
                            continue; // single node: no node split to exploit
                        }
                        for scenario in 0..SCENARIOS.len() {
                            grid.push(Config {
                                model,
                                machine,
                                world,
                                bits,
                                scheme,
                                scenario,
                            });
                        }
                    }
                }
            }
        }
    }
    // Scale-out tail: 128..512 ranks on a reduced cross.
    let big_models = [0usize, 5]; // ResNet50, GPT-2
    let big_machines = [0usize, 2]; // DGX-1, RTX-3090
    let big_bits = [0usize, 3]; // fp32, q4
    let big_scenarios = [0usize, 2]; // uniform, jitter
    for &world in &BIG_WORLDS {
        for &model in &big_models {
            for &machine in &big_machines {
                for &bits in &big_bits {
                    for scheme in 0..SCHEMES.len() {
                        for &scenario in &big_scenarios {
                            grid.push(Config {
                                model,
                                machine,
                                world,
                                bits,
                                scheme,
                                scenario,
                            });
                        }
                    }
                }
            }
        }
    }
    grid
}

fn run_sweep(
    grid: &[Config],
    models: &[ModelData],
    machines: &[MachineSpec],
    threads: usize,
) -> Vec<CellResult> {
    // Base fabrics per (machine, world): cloned then scenario-mutated.
    let mut base_fabrics: HashMap<(usize, usize), Fabric> = HashMap::new();
    let mut worlds: Vec<usize> = FULL_WORLDS.to_vec();
    worlds.extend_from_slice(&BIG_WORLDS);
    for (mi, m) in machines.iter().enumerate() {
        for &w in &worlds {
            let fab = machine_at(m, w)
                .fabric(CommBackend::Shm)
                .expect("catalog fabric");
            base_fabrics.insert((mi, w), fab);
        }
    }
    let next = AtomicUsize::new(0);
    let chunk = 64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let next = &next;
            let base_fabrics = &base_fabrics;
            handles.push(s.spawn(move || {
                let mut cache: HashMap<GraphKey, OpGraph> = HashMap::new();
                let mut ws = SimWorkspace::new();
                let mut out = Vec::new();
                loop {
                    let lo = next.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= grid.len() {
                        break;
                    }
                    for (idx, cfg) in grid[lo..grid.len().min(lo + chunk)].iter().enumerate() {
                        let md = &models[cfg.model];
                        let wire = md.wire_bytes[cfg.bits];
                        let nodes = if cfg.world <= 8 { 1 } else { cfg.world / 8 };
                        let hier = SCHEMES[cfg.scheme] == "hier";
                        let ratio = if md.raw_bytes > 0.0 {
                            wire / md.raw_bytes
                        } else {
                            1.0
                        };
                        let g = graph_for(&mut cache, cfg.scheme, cfg.world, nodes, ratio);
                        let mut fab = base_fabrics[&(cfg.machine, cfg.world)].clone();
                        apply_scenario(&mut fab, cfg.scenario, (lo + idx) as u64);
                        let ref_bytes = if hier { md.raw_bytes } else { wire };
                        let stats = run(g, &fab, ref_bytes, &mut ws.scratch)
                            .expect("catalog cell must simulate");
                        out.push(CellResult {
                            cfg: *cfg,
                            seconds: stats.makespan_seconds(),
                            events: stats.events,
                        });
                    }
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread"))
            .collect()
    })
}

/// Winner rows: fastest scheme per (machine, world, model) at the CGX
/// default wire width on the uniform scenario.
fn winners(results: &[CellResult], models: &[ModelData], machines: &[MachineSpec]) -> String {
    let mut best: HashMap<(usize, usize, usize), (usize, f64)> = HashMap::new();
    for r in results {
        if BITS[r.cfg.bits] != 4 || SCENARIOS[r.cfg.scenario] != "uniform" {
            continue;
        }
        let key = (r.cfg.machine, r.cfg.world, r.cfg.model);
        let e = best.entry(key).or_insert((r.cfg.scheme, r.seconds));
        if r.seconds < e.1 {
            *e = (r.cfg.scheme, r.seconds);
        }
    }
    let mut keys: Vec<_> = best.keys().copied().collect();
    keys.sort_unstable();
    let mut s = String::new();
    for (i, key) in keys.iter().enumerate() {
        let (scheme, secs) = best[key];
        let sep = if i + 1 < keys.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"machine\": \"{}\", \"world\": {}, \"model\": \"{}\", \"scheme\": \"{}\", \"seconds\": {:.6}}}{}",
            machines[key.0].name(),
            key.1,
            models[key.2].name,
            SCHEMES[scheme],
            secs,
            sep
        );
    }
    s
}

/// Legacy (binary-heap, f64) vs wheel events/sec on the 512-rank SRA
/// graph; returns (legacy_eps, wheel_eps, speedup).
fn speedup_512() -> (f64, f64, f64) {
    let ranks = 512;
    let bytes = 100e6;
    let bw = 1e9;
    let alpha = 5e-6;
    let mut ws = SimWorkspace::new();
    build_sra(&mut ws.graph, ranks).expect("sra 512");
    let fabric = Fabric::uniform(ranks, bw, alpha).expect("fabric");
    // Warm the allocator/caches once, then time a run.
    run(&ws.graph, &fabric, bytes, &mut ws.scratch).expect("warmup");
    let t0 = Instant::now();
    let stats = run(&ws.graph, &fabric, bytes, &mut ws.scratch).expect("wheel");
    let wheel_eps = stats.events as f64 / t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ops = legacy::sra_ops(ranks, bytes / ranks as f64);
    let net = legacy::NetworkDes::new(ranks, bw, alpha);
    let (_, legacy_makespan) = net.run(&ops);
    let legacy_eps = ops.len() as f64 / t1.elapsed().as_secs_f64();
    // Same workload: the cores must agree before we compare their speed
    // (up to integer-ns rounding accumulated over ~1000-deep chains;
    // bit-exact equivalence is asserted by the simnet corpus tests).
    assert!(
        (legacy_makespan - stats.makespan_seconds()).abs() <= 1e-4 * legacy_makespan,
        "cores disagree: legacy {legacy_makespan} vs wheel {}",
        stats.makespan_seconds()
    );
    (legacy_eps, wheel_eps, wheel_eps / legacy_eps)
}

fn main() {
    let out_path = std::env::var("CGX_SIM_OUT").unwrap_or_else(|_| "BENCH_simnet.json".to_string());

    let models = model_table();
    let machines = machine_table();
    let grid = build_grid();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("sim_sweep: {} configs on {} threads", grid.len(), threads);

    let t0 = Instant::now();
    let results = run_sweep(&grid, &models, &machines, threads);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(
        results.len(),
        grid.len(),
        "every config must produce a result"
    );
    let events: u64 = results.iter().map(|r| r.events).sum();
    let events_per_sec = events as f64 / elapsed;
    let configs_per_sec = results.len() as f64 / elapsed;
    eprintln!(
        "sim_sweep: {} configs, {} events in {:.2}s ({:.0} configs/s, {:.2}M events/s)",
        results.len(),
        events,
        elapsed,
        configs_per_sec,
        events_per_sec / 1e6
    );

    // Legacy-core comparison (slow: the dense 512-rank op list alone is
    // ~0.5M heap-allocated ops).
    let mut speedup_json = String::from("  \"speedup_512_sra\": null,\n");
    if std::env::var("CGX_SIM_SPEEDUP")
        .map(|v| v != "0")
        .unwrap_or(true)
    {
        let (legacy_eps, wheel_eps, speedup) = speedup_512();
        eprintln!(
            "sim_sweep: 512-rank SRA: wheel {:.2}M ev/s vs legacy {:.3}M ev/s = {:.1}x",
            wheel_eps / 1e6,
            legacy_eps / 1e6,
            speedup
        );
        speedup_json = format!(
            "  \"speedup_512_sra\": {{\"legacy_events_per_sec\": {:.0}, \"wheel_events_per_sec\": {:.0}, \"speedup\": {:.2}}},\n",
            legacy_eps, wheel_eps, speedup
        );
        assert!(
            speedup >= 10.0,
            "wheel must be >=10x the legacy core, got {speedup:.1}x"
        );
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"cgx-bench-simnet-v1\",\n");
    let _ = writeln!(out, "  \"configs\": {},", results.len());
    let _ = writeln!(out, "  \"events\": {events},");
    let _ = writeln!(out, "  \"elapsed_s\": {elapsed:.3},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"events_per_sec\": {events_per_sec:.0},");
    let _ = writeln!(out, "  \"configs_per_sec\": {configs_per_sec:.1},");
    out.push_str(&speedup_json);
    out.push_str("  \"winners\": [\n");
    out.push_str(&winners(&results, &models, &machines));
    out.push_str("  ]\n}\n");
    std::fs::write(&out_path, &out).expect("write report");
    eprintln!("sim_sweep: wrote {out_path}");
}
