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

use cgx_collectives::Topology;
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
        policy: AdaptiveTrainConfig::parse_policy("kmeans").expect("known policy"),
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
