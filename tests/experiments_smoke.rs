//! End-to-end smoke tests of the paper's headline claims: each experiment
//! harness's acceptance criterion, asserted programmatically. These pin the
//! qualitative *shapes* of every table and figure so a regression in any
//! substrate (cost model, wire formats, policies) is caught here.

use cgx_adaptive::{AdaptiveOptions, AdaptivePolicy};
use cgx_bench::adaptive::adaptive_compression_for;
use cgx_bench::cloud::{cost_efficiency, table4_offers};
use cgx_bench::estimate::{estimate, estimate_fp32, estimate_with_schemes, SystemSetup};
use cgx_models::{ModelId, ModelSpec};
use cgx_simnet::MachineSpec;

#[test]
fn figure1_compression_approaches_ideal_monotonically() {
    let machine = MachineSpec::rtx3090();
    for model in ModelId::all() {
        let ideal = estimate(&machine, model, &SystemSetup::Ideal)
            .report
            .step_seconds;
        let mut last = f64::INFINITY;
        for gamma in [1.0, 4.0, 16.0, 64.0, 256.0] {
            let t = estimate(&machine, model, &SystemSetup::Fake { gamma })
                .report
                .step_seconds;
            assert!(t <= last + 1e-9, "{model}: non-monotone at x{gamma}");
            assert!(t >= ideal, "{model}: faster than ideal at x{gamma}");
            last = t;
        }
        // Uncompressed clearly above ideal; extreme compression close.
        let t1 = estimate(&machine, model, &SystemSetup::Fake { gamma: 1.0 })
            .report
            .step_seconds;
        assert!(t1 > 1.1 * ideal, "{model}: no bandwidth bottleneck at x1");
        assert!(last < 1.15 * ideal, "{model}: x256 should near ideal");
    }
}

#[test]
fn figure3_cgx_selfspeedup_and_dgx_parity() {
    let rtx = MachineSpec::rtx3090();
    let dgx = MachineSpec::dgx1();
    for model in [ModelId::TransformerXl, ModelId::VitBase, ModelId::BertBase] {
        let base = estimate(&rtx, model, &SystemSetup::BaselineNccl);
        let cgx = estimate(&rtx, model, &SystemSetup::cgx());
        let speedup = cgx.throughput / base.throughput;
        assert!((1.8..4.0).contains(&speedup), "{model}: {speedup:.2}x");
        assert!(cgx.scaling > 0.75, "{model}: scaling {:.2}", cgx.scaling);
        // Transformer models: commodity + CGX rivals the DGX-1.
        let dgx_t = estimate(&dgx, model, &SystemSetup::BaselineNccl).throughput;
        assert!(cgx.throughput > 0.9 * dgx_t, "{model} vs DGX");
    }
    // Commodity NCCL baseline scales < 50% for the big models.
    for model in [ModelId::TransformerXl, ModelId::VitBase] {
        let base = estimate(&rtx, model, &SystemSetup::BaselineNccl);
        assert!(base.scaling < 0.5, "{model}: baseline {:.2}", base.scaling);
    }
}

#[test]
fn table4_cgx_wins_cost_efficiency() {
    let rows: Vec<_> = table4_offers()
        .iter()
        .map(|o| cost_efficiency(o, ModelId::BertBase))
        .collect();
    let (genesis_nccl, aws, genesis_cgx) = (&rows[0], &rows[1], &rows[2]);
    assert!(aws.throughput > genesis_nccl.throughput);
    assert!(genesis_cgx.throughput > 0.8 * aws.throughput);
    assert!(genesis_cgx.items_per_second_per_dollar > 1.5 * aws.items_per_second_per_dollar);
}

#[test]
fn table5_multinode_speedups_in_paper_band() {
    let cluster = MachineSpec::genesis_cluster();
    for model in [
        ModelId::ResNet50,
        ModelId::VitBase,
        ModelId::TransformerXl,
        ModelId::BertBase,
    ] {
        let base = estimate(&cluster, model, &SystemSetup::BaselineNccl);
        let cgx = estimate(&cluster, model, &SystemSetup::cgx());
        let speedup = cgx.throughput / base.throughput;
        assert!(
            (2.5..12.0).contains(&speedup),
            "{model}: multi-node speedup {speedup:.1}x"
        );
    }
}

#[test]
fn table6_fp32_ordering() {
    let rtx = MachineSpec::rtx3090();
    for model in [ModelId::ResNet50, ModelId::TransformerXl, ModelId::BertBase] {
        let base = estimate_fp32(&rtx, model, &SystemSetup::BaselineNccl).throughput;
        let cgx = estimate_fp32(&rtx, model, &SystemSetup::cgx()).throughput;
        let psgd = estimate_fp32(&rtx, model, &SystemSetup::PowerSgd { rank: 4 }).throughput;
        let grace = estimate_fp32(&rtx, model, &SystemSetup::Grace { bits: 4 }).throughput;
        assert!(cgx > psgd, "{model}: CGX > PowerSGD");
        assert!(psgd > base, "{model}: PowerSGD > baseline");
        assert!(base > grace, "{model}: baseline > Grace");
    }
}

#[test]
fn table7_adaptive_ordering_and_magnitudes() {
    let model = ModelSpec::build(ModelId::TransformerXl);
    let single = MachineSpec::rtx3090();
    let multi = MachineSpec::genesis_cluster();
    let opts = AdaptiveOptions::default();
    let static_single = estimate(&single, ModelId::TransformerXl, &SystemSetup::cgx());
    let static_multi = estimate(&multi, ModelId::TransformerXl, &SystemSetup::cgx());
    let speedups = |policy| {
        let out = adaptive_compression_for(&model, policy, &opts, 2, 7);
        let s1 = estimate_with_schemes(&single, ModelId::TransformerXl, &out.schemes).throughput
            / static_single.throughput;
        let sm = estimate_with_schemes(&multi, ModelId::TransformerXl, &out.schemes).throughput
            / static_multi.throughput;
        (out.size_ratio_vs_static4, s1, sm)
    };
    let (km_size, km_1, km_m) = speedups(AdaptivePolicy::KMeans);
    let (_, lin_1, lin_m) = speedups(AdaptivePolicy::Linear);
    // Paper: ~0.68 compression, ~1.05x single node, ~1.4x multi-node.
    assert!((0.4..0.85).contains(&km_size), "kmeans size {km_size:.2}");
    assert!((1.0..1.15).contains(&km_1), "kmeans 1-node {km_1:.2}");
    assert!((1.2..1.6).contains(&km_m), "kmeans multi {km_m:.2}");
    // KMEANS >= Linear on both axes; multi-node gain >> single-node gain.
    assert!(
        km_m >= lin_m - 1e-9,
        "kmeans {km_m:.2} vs linear {lin_m:.2}"
    );
    assert!(km_1 >= lin_1 - 1e-9);
    assert!(km_m > km_1 + 0.1, "multi-node gain must dominate");
}

#[test]
fn table8_ceiling_in_paper_band() {
    let rtx = MachineSpec::rtx3090();
    for model in ModelId::all() {
        let ceiling = estimate(&rtx, model, &SystemSetup::Fake { gamma: 4096.0 }).scaling;
        assert!(
            (0.85..0.99).contains(&ceiling),
            "{model}: ceiling {ceiling:.2}"
        );
        // CGX approaches (never exceeds by much) the ceiling.
        let cgx = estimate(&rtx, model, &SystemSetup::cgx()).scaling;
        assert!(
            cgx <= ceiling + 0.02,
            "{model}: CGX {cgx:.2} vs {ceiling:.2}"
        );
        assert!(cgx > 0.6, "{model}: CGX too far from ceiling");
    }
}

#[test]
fn qnccl_between_nccl_and_cgx_with_worse_granularity() {
    let rtx = MachineSpec::rtx3090();
    for model in [ModelId::ResNet50, ModelId::Vgg16, ModelId::TransformerXl] {
        let base = estimate(&rtx, model, &SystemSetup::BaselineNccl).throughput;
        let qn = estimate(
            &rtx,
            model,
            &SystemSetup::Qnccl {
                bits: 4,
                bucket_size: 128,
            },
        )
        .throughput;
        let cgx = estimate(&rtx, model, &SystemSetup::cgx()).throughput;
        assert!(base < qn && qn < cgx, "{model}: {base:.0} {qn:.0} {cgx:.0}");
    }
}

#[test]
fn figure11_shm_fastest_mpi_within_a_third() {
    use cgx_bench::api::CgxBuilder;
    use cgx_simnet::{simulate_step, CommBackend, ComputeProfile, StepConfig};
    let rtx = MachineSpec::rtx3090();
    for model in [ModelId::ResNet50, ModelId::TransformerXl] {
        let spec = ModelSpec::build(model);
        let mut session = CgxBuilder::new().build();
        session.register_model_spec(&spec);
        let msgs = session.layer_messages(spec.precision());
        let compute = ComputeProfile::new(rtx.gpu().step_compute_seconds(&spec));
        let time = |backend| {
            let mut cfg = StepConfig::cgx(rtx.clone());
            cfg.backend = backend;
            simulate_step(&cfg, &msgs, compute).step_seconds
        };
        let shm = time(CommBackend::Shm);
        let nccl = time(CommBackend::Nccl);
        let mpi = time(CommBackend::Mpi);
        assert!(shm <= nccl && nccl <= mpi, "{model}: backend ordering");
        assert!(mpi / shm < 1.4, "{model}: MPI gap {:.2}", mpi / shm);
    }
}
