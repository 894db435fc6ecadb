//! Quickstart: compress a gradient, all-reduce it across simulated GPUs,
//! and estimate the training speedup CGX buys on commodity hardware.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cgx_bench::estimate::{estimate, SystemSetup};
use cgx_collectives::{reduce::Algorithm, CommEngine, ThreadCluster};
use cgx_compress::{Compressor, QsgdCompressor, ScratchPool};
use cgx_models::ModelId;
use cgx_simnet::MachineSpec;
use cgx_tensor::{Rng, Tensor};

fn main() {
    // 1. Compress a gradient with the paper's default: 4-bit stochastic
    //    quantization, bucket size 128.
    let mut rng = Rng::seed_from_u64(42);
    let grad = Tensor::randn(&mut rng, &[1 << 20]);
    let mut quantizer = QsgdCompressor::new(4, 128);
    let encoded = quantizer.compress(&grad, &mut rng);
    println!(
        "compressed 1M-float gradient: {} -> {} bytes ({:.1}x)",
        grad.len() * 4,
        encoded.payload_bytes(),
        (grad.len() * 4) as f64 / encoded.payload_bytes() as f64,
    );
    let restored = quantizer
        .decompress(&encoded)
        .expect("QSGD decodes its own payload");
    println!(
        "relative reconstruction error: {:.4}",
        restored.l2_distance(&grad) / grad.norm2()
    );

    // 2. Run a real compressed Allreduce across 8 worker threads ("GPUs")
    //    through the communication engine, using Scatter-Reduce-Allgather,
    //    CGX's reduction scheme.
    let world = 8;
    let results = ThreadCluster::run(world, |t| {
        let mut rng = Rng::seed_from_u64(1000 + t.rank() as u64);
        let local_grad = Tensor::randn(&mut rng, &[65_536]);
        let comp = Box::new(QsgdCompressor::new(4, 128));
        let sra = Algorithm::ScatterReduceAllgather;
        let (sum, stats, _) = CommEngine::with_defaults(&t, ScratchPool::new())
            .allreduce(sra, &local_grad, comp, &mut rng)
            .expect("allreduce");
        (sum, stats.bytes_sent)
    })
    .expect("cluster");
    let (sum0, bytes) = &results[0];
    println!(
        "8-rank compressed Allreduce: {} bytes/rank on the wire (fp32 would be {}), \
         all ranks bit-identical: {}",
        bytes,
        2 * 7 * (65_536 / 8) * 4,
        results.iter().all(|(s, _)| s.as_slice() == sum0.as_slice()),
    );

    // 3. Ask the performance plane what this buys end to end.
    let machine = MachineSpec::rtx3090();
    for model in [ModelId::ResNet50, ModelId::TransformerXl] {
        let base = estimate(&machine, model, &SystemSetup::BaselineNccl);
        let cgx = estimate(&machine, model, &SystemSetup::cgx());
        println!(
            "{model} on {}: NCCL {:.0} {unit} -> CGX {:.0} {unit} ({:.2}x, {:.0}% of linear)",
            machine.name(),
            base.throughput,
            cgx.throughput,
            cgx.throughput / base.throughput,
            cgx.scaling * 100.0,
            unit = model.unit(),
        );
    }
}
