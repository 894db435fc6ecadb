//! Property-based tests over the performance plane: cost-model
//! monotonicity, step-simulator sanity, DES-vs-analytic agreement, and
//! topology invariants, for randomized parameters; and the catalog sweep,
//! every cell of which must simulate.

use std::collections::HashMap;

use cgx_compress::CompressionScheme;
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::{
    allreduce_time, build_hierarchical, build_ring, build_sra, build_tree, fuse_messages, run,
    simulate_step, CommBackend, CommCost, ComputeProfile, DesScratch, Fabric, LayerMsg,
    MachineSpec, NetworkDes, OpGraph, ReductionScheme, SimError, SimWorkspace, StepConfig,
};
use cgx_tensor::Rng;
use cgx_testkit::cases;

/// Between 1 and `max_len` layers of up to `max_elems` elements.
fn random_layers(rng: &mut Rng, max_elems: usize, max_len: usize) -> Vec<LayerMsg> {
    (0..rng.range(1..max_len))
        .map(|i| {
            let elems = rng.range(1..max_elems) + 1;
            LayerMsg::new(format!("l{i}"), elems, elems / 2 + 4, 0.0)
        })
        .collect()
}

#[test]
fn collective_time_monotone_in_everything() {
    cases(48, |rng| {
        let (n, bytes) = (rng.range(2..32), rng.range(1..1_000_000_000));
        let bw = rng.range(1..200) as f64 * 1e9;
        let scheme = ReductionScheme::all()[rng.index(4)];
        let cost = CommCost::new(bw, 10e-6);
        let t = allreduce_time(scheme, n, bytes, cost);
        assert!(t > 0.0 && t.is_finite());
        // More bytes: slower. More bandwidth: faster.
        assert!(allreduce_time(scheme, n, bytes * 2, cost) >= t);
        let faster = CommCost::new(bw * 2.0, 10e-6);
        assert!(allreduce_time(scheme, n, bytes, faster) <= t);
    });
}

#[test]
fn step_time_bounded_below_by_compute_and_monotone_in_wire() {
    cases(48, |rng| {
        let layers = random_layers(rng, 2_000_000, 40);
        let compute = ComputeProfile::new(rng.range(5..400) as f64 / 1000.0);
        let cfg = StepConfig::cgx(MachineSpec::rtx3090());
        let r = simulate_step(&cfg, &layers, compute);
        assert!(r.step_seconds >= compute.step_seconds);
        assert!(r.exposed_comm_seconds >= 0.0);
        // Doubling every wire size cannot make the step faster.
        let bigger: Vec<LayerMsg> = layers
            .iter()
            .map(|l| LayerMsg::new(l.name.clone(), l.elements, l.wire_bytes * 2, 0.0))
            .collect();
        let r2 = simulate_step(&cfg, &bigger, compute);
        assert!(r2.step_seconds >= r.step_seconds - 1e-12);
    });
}

#[test]
fn fusion_preserves_totals_and_respects_threshold() {
    cases(48, |rng| {
        let layers = random_layers(rng, 3_000_000, 60);
        let threshold = rng.range(1..8_000_000);
        let fused = fuse_messages(&layers, threshold);
        assert!(!fused.is_empty());
        assert!(fused.len() <= layers.len());
        let totals = |ls: &[LayerMsg]| -> (usize, usize) {
            (
                ls.iter().map(|l| l.elements).sum(),
                ls.iter().map(|l| l.wire_bytes).sum(),
            )
        };
        assert_eq!(totals(&layers), totals(&fused));
        // Every bucket except possibly the last reaches the threshold.
        for b in &fused[..fused.len() - 1] {
            assert!(b.wire_bytes >= threshold);
        }
    });
}

/// The DES and the closed form must land within a small factor of each
/// other for `scheme` on a random uniform network.
fn assert_des_tracks_analytic(rng: &mut Rng, scheme: ReductionScheme) {
    let n = rng.range(2..10);
    let bytes = rng.range(1..200) as f64 * 1e6;
    let bw = rng.range(1..50) as f64 * 1e9;
    let des = NetworkDes::new(n, bw, 10e-6);
    let des = match scheme {
        ReductionScheme::Ring => des.ring_allreduce(bytes),
        _ => des.sra_allreduce(bytes),
    }
    .expect("valid network");
    let analytic = allreduce_time(scheme, n, bytes as usize, CommCost::new(bw, 10e-6));
    let ratio = des / analytic;
    assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn des_and_analytic_sra_agree() {
    cases(48, |rng| {
        assert_des_tracks_analytic(rng, ReductionScheme::ScatterReduceAllgather)
    });
}

#[test]
fn des_and_analytic_ring_agree() {
    cases(48, |rng| {
        assert_des_tracks_analytic(rng, ReductionScheme::Ring)
    });
}

#[test]
fn wheel_runs_any_valid_graph_without_panicking() {
    cases(48, |rng| {
        // Random DAG: transfers between random ranks (computes when the
        // pair collapses), each depending on up to two earlier ops.
        let ranks = rng.range(2..24);
        let mut g = OpGraph::new();
        let mut ids: Vec<u32> = Vec::new();
        for _ in 0..rng.range(1..120) {
            let (src, dst) = (rng.index(24) % ranks, rng.index(24) % ranks);
            let frac_m = rng.range(1..1000) as u32;
            let deps: Vec<u32> = ids.iter().rev().take(2).copied().collect();
            let id = if src == dst {
                g.push_compute(src, frac_m, &deps).unwrap()
            } else {
                g.push_transfer(src, dst, frac_m as f64 / 1000.0, &deps)
                    .unwrap()
            };
            ids.push(id);
        }
        g.seal();
        let bytes = rng.range(1..64) as f64 * 1e6;
        let mut fabric = Fabric::uniform(ranks, 5e9, 8e-6).unwrap();
        let straggle_ms = rng.index(3);
        if straggle_ms > 0 {
            fabric.scale_rank_bandwidth(0, 0.5).unwrap();
            fabric.set_release(0, straggle_ms as f64 * 1e-3).unwrap();
        }
        fabric
            .set_jitter(rng.next_u64(), rng.index(900) as f64 / 1000.0)
            .unwrap();
        let mut scratch = DesScratch::new();
        let s = run(&g, &fabric, bytes, &mut scratch).expect("valid graph must simulate");
        assert_eq!(s.events as usize, g.len());
        // Re-running with the same scratch is deterministic.
        let s2 = run(&g, &fabric, bytes, &mut scratch).unwrap();
        assert_eq!(s.makespan_ns, s2.makespan_ns);
    });
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    cases(48, |rng| {
        let ranks = rng.range(2..16);
        // Bad fabrics are rejected up front.
        let bad_bw = [f64::NAN, 0.0, -3.0][rng.index(3)];
        assert!(Fabric::uniform(ranks, bad_bw, 1e-6).is_err());
        assert!(Fabric::uniform(0, 1e9, 1e-6).is_err());
        // Self-transfers, non-finite fractions, and forward deps are
        // rejected at push time.
        let mut g = OpGraph::new();
        assert!(g.push_transfer(1, 1, 0.5, &[]).is_err());
        assert!(g.push_transfer(0, 1, f64::NAN, &[]).is_err());
        assert!(g.push_transfer(0, 1, 0.5, &[9]).is_err());
        // A rank beyond the fabric is caught at run time, as an error.
        g.push_transfer(0, ranks, 0.5, &[]).unwrap();
        g.seal();
        let fabric = Fabric::uniform(ranks, 1e9, 1e-6).unwrap();
        let mut scratch = DesScratch::new();
        assert!(matches!(
            run(&g, &fabric, 1e6, &mut scratch),
            Err(SimError::BadRank { .. })
        ));
        // Unsealed graphs are refused.
        let mut g2 = OpGraph::new();
        g2.push_transfer(0, 1, 0.5, &[]).unwrap();
        assert!(matches!(
            run(&g2, &fabric, 1e6, &mut scratch),
            Err(SimError::Unsealed)
        ));
        // Non-finite reference byte counts are refused.
        g2.seal();
        assert!(run(&g2, &fabric, f64::NAN, &mut scratch).is_err());
    });
}

#[test]
fn gpu_subsets_scale_monotonically() {
    cases(48, |rng| {
        // More GPUs never reduce aggregate CGX throughput on the 3090 box.
        use cgx_bench::estimate::{estimate, SystemSetup};
        use cgx_models::ModelId;
        let gpus = rng.range(1..=8);
        let m = MachineSpec::rtx3090().with_gpus(gpus);
        let e = estimate(&m, ModelId::ResNet50, &SystemSetup::cgx());
        if gpus > 1 {
            let fewer = MachineSpec::rtx3090().with_gpus(gpus - 1);
            let e2 = estimate(&fewer, ModelId::ResNet50, &SystemSetup::cgx());
            assert!(e.throughput >= e2.throughput * 0.98);
        }
        assert!(e.scaling <= 1.0 + 1e-9);
    });
}

#[test]
fn topology_p2p_is_symmetric_and_positive() {
    cases(48, |rng| {
        use cgx_simnet::topology::rtx_dual_numa;
        let (pcie, qpi) = (rng.range(4..40) as f64 * 1e9, rng.range(4..40) as f64 * 1e9);
        let t = rtx_dual_numa("p", 8, pcie, qpi);
        for i in 0..8u32 {
            for j in (0..8u32).filter(|&j| j != i) {
                let a = t.p2p_bandwidth(i, j);
                assert!(a > 0.0);
                assert_eq!(a, t.p2p_bandwidth(j, i));
            }
        }
        assert!(t.ring_allreduce_algbw() > 0.0);
    });
}

// --- the catalog sweep: (model x machine x bit-width x reduction scheme
// x fault scenario x world), every cell through the event-wheel DES ------

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
#[derive(Clone, Copy, Debug)]
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
                raw_bytes: raw,
                wire_bytes: wire,
            }
        })
        .collect()
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

/// Every one of the 10,560 catalog cells simulates. Ignored: a debug
/// build takes minutes, so it runs with `cargo test --release --test
/// simnet_properties -- --ignored`.
#[test]
#[ignore]
fn every_catalog_cell_simulates() {
    let models = model_table();
    let machines = MachineSpec::table2_systems();
    let grid = build_grid();
    assert_eq!(grid.len(), 10_560);
    // Base fabrics per (machine, world): cloned then scenario-mutated.
    let mut base_fabrics: HashMap<(usize, usize), Fabric> = HashMap::new();
    for (mi, m) in machines.iter().enumerate() {
        for &w in FULL_WORLDS.iter().chain(&BIG_WORLDS) {
            let fab = machine_at(m, w)
                .fabric(CommBackend::Shm)
                .expect("catalog fabric");
            base_fabrics.insert((mi, w), fab);
        }
    }
    let mut cache: HashMap<GraphKey, OpGraph> = HashMap::new();
    let mut ws = SimWorkspace::new();
    let mut simulated = 0;
    for (i, cfg) in grid.iter().enumerate() {
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
        apply_scenario(&mut fab, cfg.scenario, i as u64);
        let ref_bytes = if hier { md.raw_bytes } else { wire };
        let stats = run(g, &fab, ref_bytes, &mut ws.scratch);
        assert!(stats.is_ok(), "cell {i} {cfg:?}: {stats:?}");
        simulated += 1;
    }
    assert_eq!(simulated, grid.len(), "every cell must produce a result");
}
