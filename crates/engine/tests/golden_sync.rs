//! Golden digests of what the trainers' one sync path produces.
//!
//! Each row pins the FNV-1a digest of the final parameters (and of the
//! adaptive plan trace where a controller runs) for one configuration of
//! `train_data_parallel` / `train_local_sgd`. The literals were recorded
//! at v0.12.0, when a `TrainConfig` flag still chose between the engine
//! and one blocking allreduce per layer: every row was run under both
//! settings and the two agreed, which is what the two fork-parity tests
//! deleted with the blocking branch used to compare. The parameter
//! digests were re-recorded once, at v0.34.0, when every matrix product
//! began to fuse its multiply-adds (the plans did not move). A row that
//! moves means the sync path changed bytes — re-record only for a change
//! that says it re-baselines them.
//!
//! The last eight rows run the two error-feedback schemes (top-k and
//! one-bit) under each of the four algorithms, recorded at v0.34.0 before
//! error feedback went from two residual stores (one tensor for whole
//! gradients, one per window for chunks) to one per window. No other row
//! runs a codec with a residual, and none runs Tree or Allgather, the
//! algorithms that compress whole gradients.

use cgx_collectives::reduce::Algorithm;
use cgx_collectives::Topology;
use cgx_compress::CompressionScheme;
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{
    train_data_parallel, train_local_sgd, AdaptiveTrainConfig, LayerCompression, TrainConfig,
};
use cgx_tensor::{Rng, Tensor};
use std::time::Duration;

/// FNV-1a over every parameter's little-endian bits, in forward order.
fn param_digest(params: &[Tensor]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for p in params {
        for v in p.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01B3);
            }
        }
    }
    h
}

/// What a row runs: gradients every step, or deltas every `period`.
#[derive(Clone, Copy)]
enum Trainer {
    DataParallel,
    LocalSgd { period: usize },
}

struct Golden {
    name: &'static str,
    trainer: Trainer,
    steps: usize,
    tweak: fn(&mut TrainConfig),
    params: u64,
    plan: Option<u64>,
}

fn kmeans() -> Option<AdaptiveTrainConfig> {
    Some(AdaptiveTrainConfig {
        policy: "kmeans".parse().expect("known policy"),
        ..AdaptiveTrainConfig::default()
    })
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "data-parallel static q4",
        trainer: Trainer::DataParallel,
        steps: 30,
        tweak: |_| {},
        params: 0x523A_72FF_FBCF_25C6,
        plan: None,
    },
    Golden {
        name: "data-parallel adaptive k-means",
        trainer: Trainer::DataParallel,
        steps: 40,
        tweak: |cfg| cfg.adaptive = kmeans(),
        params: 0x9850_AB1C_1851_CB00,
        plan: Some(0xF30F_B92A_2506_12C1),
    },
    Golden {
        name: "data-parallel Topology::grouped(2, 2)",
        trainer: Trainer::DataParallel,
        steps: 30,
        tweak: |cfg| cfg.topology = Some(Topology::grouped(2, 2)),
        params: 0x1603_6681_B14E_C9CE,
        plan: None,
    },
    // Every rank its own node: no member, so no hop, and every rank in the
    // leader exchange — the flat world, to the flat row's digest.
    Golden {
        name: "data-parallel Topology::new([0, 1, 2, 3])",
        trainer: Trainer::DataParallel,
        steps: 30,
        tweak: |cfg| cfg.topology = Some(Topology::new(vec![0, 1, 2, 3])),
        params: 0x523A_72FF_FBCF_25C6,
        plan: None,
    },
    Golden {
        name: "data-parallel elastic, rank 2 killed at step 12",
        trainer: Trainer::DataParallel,
        steps: 30,
        tweak: |cfg| {
            cfg.kill = Some((2, 12));
            cfg.elastic = true;
            cfg.comm_timeout = Some(Duration::from_millis(300));
        },
        params: 0x1DD1_9275_9BBC_C2AF,
        plan: None,
    },
    Golden {
        name: "local SGD period 7 static q4",
        trainer: Trainer::LocalSgd { period: 7 },
        steps: 45,
        tweak: |_| {},
        params: 0x5782_F18F_27FE_3921,
        plan: None,
    },
    Golden {
        name: "local SGD period 7 adaptive k-means",
        trainer: Trainer::LocalSgd { period: 7 },
        steps: 150,
        tweak: |cfg| cfg.adaptive = kmeans(),
        params: 0x6CFB_2C1D_A606_7DA5,
        plan: Some(0x3CED_7FA3_E7A1_9D7E),
    },
    Golden {
        name: "data-parallel top-k 25 % (error feedback), ScatterReduceAllgather",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression = LayerCompression::uniform(CompressionScheme::TopK { ratio: 0.25 });
            cfg.algorithm = Algorithm::ScatterReduceAllgather;
        },
        params: 0x3749_FE80_1E3B_9A48,
        plan: None,
    },
    Golden {
        name: "data-parallel one-bit/16 (error feedback), ScatterReduceAllgather",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression =
                LayerCompression::uniform(CompressionScheme::OneBit { bucket_size: 16 });
            cfg.algorithm = Algorithm::ScatterReduceAllgather;
        },
        params: 0x1E58_AF4F_664E_E888,
        plan: None,
    },
    Golden {
        name: "data-parallel top-k 25 % (error feedback), Ring",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression = LayerCompression::uniform(CompressionScheme::TopK { ratio: 0.25 });
            cfg.algorithm = Algorithm::Ring;
        },
        params: 0x52AB_6712_099C_AB26,
        plan: None,
    },
    Golden {
        name: "data-parallel one-bit/16 (error feedback), Ring",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression =
                LayerCompression::uniform(CompressionScheme::OneBit { bucket_size: 16 });
            cfg.algorithm = Algorithm::Ring;
        },
        params: 0x71B5_1C5B_1032_775D,
        plan: None,
    },
    Golden {
        name: "data-parallel top-k 25 % (error feedback), Tree",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression = LayerCompression::uniform(CompressionScheme::TopK { ratio: 0.25 });
            cfg.algorithm = Algorithm::Tree;
        },
        params: 0xC62D_20AC_11DF_F9A7,
        plan: None,
    },
    Golden {
        name: "data-parallel one-bit/16 (error feedback), Tree",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression =
                LayerCompression::uniform(CompressionScheme::OneBit { bucket_size: 16 });
            cfg.algorithm = Algorithm::Tree;
        },
        params: 0x1B78_9292_C9D9_4FF9,
        plan: None,
    },
    Golden {
        name: "data-parallel top-k 25 % (error feedback), AllgatherBroadcast",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression = LayerCompression::uniform(CompressionScheme::TopK { ratio: 0.25 });
            cfg.algorithm = Algorithm::AllgatherBroadcast;
        },
        params: 0x0D4C_2633_117F_46AB,
        plan: None,
    },
    Golden {
        name: "data-parallel one-bit/16 (error feedback), AllgatherBroadcast",
        trainer: Trainer::DataParallel,
        steps: 20,
        tweak: |cfg| {
            cfg.compression =
                LayerCompression::uniform(CompressionScheme::OneBit { bucket_size: 16 });
            cfg.algorithm = Algorithm::AllgatherBroadcast;
        },
        params: 0xAD64_60FC_FD23_367F,
        plan: None,
    },
];

#[test]
fn sync_path_reproduces_the_recorded_digests() {
    let task = GaussianMixture::new(4, 8, 1.5);
    let model = Mlp::new(&mut Rng::seed_from_u64(21), &[8, 16, 4]);
    let mut wrong = Vec::new();
    for g in GOLDEN {
        let mut cfg = TrainConfig {
            lr: 0.2,
            compression: LayerCompression::cgx_default(),
            ..TrainConfig::new(4, g.steps)
        };
        (g.tweak)(&mut cfg);
        let t = task.clone();
        let sampler = move |r: &mut Rng| t.sample_batch(r, 8);
        let (trained, plan) = match g.trainer {
            Trainer::DataParallel => {
                let (m, report) = train_data_parallel(&model, sampler, &cfg).expect(g.name);
                (m, report.adaptive)
            }
            Trainer::LocalSgd { period } => {
                let (m, report) = train_local_sgd(&model, sampler, &cfg, period).expect(g.name);
                (m, report.adaptive)
            }
        };
        if let Some(trace) = &plan {
            assert!(
                trace.replans() >= 2,
                "{}: only {} re-plans",
                g.name,
                trace.replans()
            );
        }
        let got = (param_digest(trained.params()), plan.map(|p| p.digest()));
        if got != (g.params, g.plan) {
            wrong.push(format!(
                "{}: params {:#018X}, plan {:X?}",
                g.name, got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
