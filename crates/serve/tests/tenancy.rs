//! Multi-tenant integration: real training jobs sharing one daemon mesh.
//!
//! The tentpole guarantees under test:
//!
//! * **Bitwise parity** — a local-SGD job attached to a shared daemon
//!   produces byte-identical final parameters to the same job on a
//!   dedicated fabric, with seven other tenants hammering the same mesh.
//! * **Churn isolation** — one tenant's rank dying (handle dropped
//!   mid-run) surfaces as a typed disconnect *inside that job only*;
//!   a training job sharing the daemons completes bit-identically.
//! * **Scale** — a single daemon per node sustains 64 concurrent
//!   local-SGD tenants over one TCP mesh (the admission default).
//! * **Slow-tenant liveness** (DESIGN.md §12.1 regression) — with
//!   heartbeats enabled on the TCP fabric, a tenant that computes for
//!   several liveness windows between collectives is NOT condemned,
//!   because the daemon pump drains the fabric at its heartbeat cadence.
//!   (The 15 ms deadline case is `short_heartbeat.rs`, a test binary of
//!   its own.)
//! * **Turns taken from every side** (DESIGN.md §14.1) — tenant threads
//!   that send and drain concurrently, each driving the fabric itself,
//!   keep per-(peer, tag) FIFO with nothing lost or delivered twice. (What
//!   a lone tenant pays for the daemon is timed in `lone_tenant.rs`, a
//!   test binary of its own: no other test runs beside it.)

use cgx_collectives::transport::exchange_quiesce_markers;
use cgx_collectives::{CommError, ShmFabric, Transport};
use cgx_compress::{Encoded, ScratchPool};
use cgx_engine::data::GaussianMixture;
use cgx_engine::nn::Mlp;
use cgx_engine::{local_sgd_rank, train_rank, TrainConfig};
use cgx_net::{NetOptions, TcpFabric};
use cgx_serve::{JobSpec, ServeConfig, ServeNode};
use cgx_tensor::{Rng, Shape};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 6;
const CLASSES: usize = 4;

fn tiny_task() -> GaussianMixture {
    GaussianMixture::new(CLASSES, DIM, 1.3)
}

fn tiny_model(seed: u64) -> Mlp {
    let mut rng = Rng::seed_from_u64(seed);
    Mlp::new(&mut rng, &[DIM, 10, CLASSES])
}

fn job_cfg(seed: u64, steps: usize) -> TrainConfig {
    TrainConfig {
        lr: 0.2,
        seed,
        ..TrainConfig::new(2, steps)
    }
}

/// Runs one 2-rank local-SGD job over the given endpoints, one thread per
/// rank, returning final models in rank order.
fn run_job(
    endpoints: Vec<Box<dyn Transport + Send>>,
    cfg: TrainConfig,
    period: usize,
    model_seed: u64,
) -> Vec<Mlp> {
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|t| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let task = tiny_task();
                let model = tiny_model(model_seed);
                let pool = ScratchPool::new();
                let sampler = move |r: &mut Rng| task.sample_batch(r, 8);
                local_sgd_rank(t.as_ref(), &model, &sampler, &cfg, period, &pool)
                    .expect("local_sgd_rank failed")
                    .expect("rank was killed unexpectedly")
                    .model
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

fn assert_models_bitwise_equal(a: &Mlp, b: &Mlp, label: &str) {
    let (pa, pb) = (a.params(), b.params());
    assert_eq!(pa.len(), pb.len(), "{label}: parameter count differs");
    for (i, (ta, tb)) in pa.iter().zip(pb.iter()).enumerate() {
        let (sa, sb) = (ta.as_slice(), tb.as_slice());
        assert_eq!(sa.len(), sb.len(), "{label}: param {i} length differs");
        for (j, (&x, &y)) in sa.iter().zip(sb.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: param {i}[{j}] differs: {x} vs {y}"
            );
        }
    }
}

/// Dedicated-fabric baseline: the same job on a private shm mesh.
fn dedicated_baseline(cfg: &TrainConfig, period: usize, model_seed: u64) -> Vec<Mlp> {
    let endpoints: Vec<Box<dyn Transport + Send>> = ShmFabric::build(2)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport + Send>)
        .collect();
    run_job(endpoints, cfg.clone(), period, model_seed)
}

fn serve_nodes_shm(n: usize) -> Vec<Arc<ServeNode>> {
    ShmFabric::build(n)
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(Box::new(t), ServeConfig::default())))
        .collect()
}

/// Attaches `job` on both nodes and returns boxed tenant endpoints.
fn attach_pair(nodes: &[Arc<ServeNode>], job: u8) -> Vec<Box<dyn Transport + Send>> {
    nodes
        .iter()
        .map(|n| {
            Box::new(
                n.attach(JobSpec::new(job))
                    .expect("attach job")
                    .with_keepalive(Arc::clone(n)),
            ) as Box<dyn Transport + Send>
        })
        .collect()
}

#[test]
fn eight_concurrent_tenants_match_dedicated_fabrics_bitwise() {
    const JOBS: u8 = 8;
    const STEPS: usize = 12;
    const PERIOD: usize = 3;
    let nodes = serve_nodes_shm(2);
    // Launch all 8 jobs concurrently on the shared mesh, each with its own
    // seed (so they genuinely diverge) and its own 2 rank threads.
    let runners: Vec<_> = (1..=JOBS)
        .map(|j| {
            let endpoints = attach_pair(&nodes, j);
            let cfg = job_cfg(7000 + j as u64, STEPS);
            std::thread::spawn(move || run_job(endpoints, cfg, PERIOD, 40 + j as u64))
        })
        .collect();
    let tenant_models: Vec<Vec<Mlp>> = runners
        .into_iter()
        .map(|h| h.join().expect("job runner panicked"))
        .collect();
    // Each job must match its dedicated-fabric twin bit for bit.
    for (idx, models) in tenant_models.iter().enumerate() {
        let j = idx as u8 + 1;
        let cfg = job_cfg(7000 + j as u64, STEPS);
        let baseline = dedicated_baseline(&cfg, PERIOD, 40 + j as u64);
        for rank in 0..2 {
            assert_models_bitwise_equal(
                &models[rank],
                &baseline[rank],
                &format!("job {j} rank {rank}"),
            );
        }
        // Ranks agree with each other after the final sync.
        assert_models_bitwise_equal(&models[0], &models[1], &format!("job {j} cross-rank"));
    }
}

#[test]
fn tenant_rank_death_leaves_other_jobs_uninterrupted() {
    let nodes = serve_nodes_shm(2);

    // Victim job (id 1): rank 0 dies after a few exchanges.
    let victim = attach_pair(&nodes, 1);
    let mut victim = victim.into_iter();
    let (v0, v1) = (victim.next().unwrap(), victim.next().unwrap());
    let payload = Encoded::new(Shape::new(vec![4]), vec![7u8; 4].into());
    let victim_sender = std::thread::spawn(move || {
        for i in 0..3u64 {
            v0.send_tagged(1, 100 + i, payload.clone()).unwrap();
        }
        drop(v0); // rank death: handle dropped mid-conversation
    });
    let victim_receiver = std::thread::spawn(move || {
        for i in 0..3u64 {
            v1.recv_tagged(0, 100 + i).expect("pre-death frame");
        }
        // The fourth receive must surface a typed disconnect, not hang.
        match v1.recv_tagged_deadline(0, 103, Duration::from_secs(10)) {
            Err(CommError::Disconnected { peer: 0 }) => {}
            other => panic!("expected Disconnected from rank 0, got {other:?}"),
        }
    });

    // Survivor job (id 2): full training run sharing the same daemons.
    let cfg = job_cfg(9100, 12);
    let survivor = run_job(attach_pair(&nodes, 2), cfg.clone(), 3, 77);

    victim_sender.join().expect("victim sender panicked");
    victim_receiver.join().expect("victim receiver panicked");

    let baseline = dedicated_baseline(&cfg, 3, 77);
    for rank in 0..2 {
        assert_models_bitwise_equal(
            &survivor[rank],
            &baseline[rank],
            &format!("survivor rank {rank}"),
        );
    }
}

/// A kill scheduled in the trainer's config fires on a tenant handle as on
/// any fabric: the doomed rank returns at the top of its step — four
/// batches drawn — its handle detaches, and the job's elastic survivors
/// shrink around it and finish on the world without it, in consensus.
#[test]
fn a_scheduled_kill_fires_on_a_tenant_and_the_job_shrinks() {
    let (victim, at) = (2, 4);
    let cfg = TrainConfig {
        workers: 3,
        kill: Some((victim, at)),
        elastic: true,
        ..job_cfg(9300, 10)
    };
    let nodes = serve_nodes_shm(3);
    let runners: Vec<_> = attach_pair(&nodes, 1)
        .into_iter()
        .map(|t| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let (task, model, pool) = (tiny_task(), tiny_model(31), ScratchPool::new());
                let drawn = std::cell::Cell::new(0);
                let sampler = |r: &mut Rng| {
                    drawn.set(drawn.get() + 1);
                    task.sample_batch(r, 8)
                };
                let out = train_rank(t.as_ref(), &model, &sampler, &cfg, &pool)
                    .expect("train_rank failed");
                (out, drawn.get())
            })
        })
        .collect();
    let runs: Vec<_> = runners
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect();
    let mut survivors = Vec::new();
    for (rank, (out, drawn)) in runs.into_iter().enumerate() {
        if rank == victim {
            assert!(out.is_none(), "rank {victim} outlived its kill");
            assert_eq!(drawn, at, "rank {victim} died at the wrong step");
            continue;
        }
        let out = out.expect("a survivor was killed");
        assert_eq!(
            (out.final_world, out.recovery_epochs, out.losses.len()),
            (2, 1, cfg.steps),
            "rank {rank}"
        );
        survivors.push(out.model);
    }
    assert_models_bitwise_equal(&survivors[0], &survivors[1], "survivors");
}

#[test]
fn sixty_four_tenants_share_one_tcp_mesh() {
    const JOBS: u8 = 64; // the admission default — the 65th would be rejected
    const STEPS: usize = 4;
    const PERIOD: usize = 2;
    let nodes: Vec<Arc<ServeNode>> = TcpFabric::build_local(2)
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(Box::new(t), ServeConfig::default())))
        .collect();
    let runners: Vec<_> = (1..=JOBS)
        .map(|j| {
            let endpoints = attach_pair(&nodes, j);
            let cfg = job_cfg(5000 + j as u64, STEPS);
            std::thread::spawn(move || run_job(endpoints, cfg, PERIOD, 200 + j as u64))
        })
        .collect();
    let tenant_models: Vec<Vec<Mlp>> = runners
        .into_iter()
        .map(|h| h.join().expect("job runner panicked"))
        .collect();
    // Admission control: job 65 has no slot (64 live jobs) — typed error.
    match nodes[0].attach(JobSpec::new(65 + 1)) {
        Err(cgx_serve::ServeError::JobLimit { limit: 64 }) => {}
        // Tenants may already have detached by the time we get here; a
        // freed slot admits the job instead, which is also correct.
        Ok(_) => {}
        Err(other) => panic!("unexpected admission error: {other:?}"),
    }
    // Spot-check bitwise parity on a sample of jobs (all 64 would be slow).
    for &j in &[1u8, 17, 42, 64] {
        let cfg = job_cfg(5000 + j as u64, STEPS);
        let baseline = dedicated_baseline(&cfg, PERIOD, 200 + j as u64);
        for rank in 0..2 {
            assert_models_bitwise_equal(
                &tenant_models[j as usize - 1][rank],
                &baseline[rank],
                &format!("tcp job {j} rank {rank}"),
            );
        }
    }
}

#[test]
fn slow_tenant_is_not_condemned_under_heartbeats() {
    // Heartbeat interval 50 ms, liveness timeout 150 ms: a raw endpoint
    // whose owner computes for 500 ms without touching the transport
    // would be condemned by its peer. Under the daemon the pump emits and
    // services heartbeats continuously, so the slow tenant survives.
    let opts =
        NetOptions::default().with_heartbeat(Duration::from_millis(50), Duration::from_millis(150));
    let nodes: Vec<Arc<ServeNode>> = TcpFabric::build_local_with(2, opts)
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(Box::new(t), ServeConfig::default())))
        .collect();
    let mut endpoints = attach_pair(&nodes, 1).into_iter();
    let (a, b) = (endpoints.next().unwrap(), endpoints.next().unwrap());
    let payload = Encoded::new(Shape::new(vec![2]), vec![1u8, 2].into());

    let slow = std::thread::spawn(move || {
        for i in 0..3u64 {
            // "Compute" for several liveness windows.
            std::thread::sleep(Duration::from_millis(500));
            a.send_tagged(1, 300 + i, payload.clone())
                .expect("slow tenant send failed — peer condemned us?");
            a.recv_tagged_deadline(1, 400 + i, Duration::from_secs(10))
                .expect("slow tenant recv failed");
        }
    });
    let echo = std::thread::spawn(move || {
        let payload = Encoded::new(Shape::new(vec![2]), vec![3u8, 4].into());
        for i in 0..3u64 {
            b.recv_tagged_deadline(0, 300 + i, Duration::from_secs(10))
                .expect("echo recv failed — slow peer was condemned");
            b.send_tagged(0, 400 + i, payload.clone())
                .expect("echo send");
        }
    });
    slow.join().expect("slow tenant panicked");
    echo.join().expect("echo tenant panicked");
}

/// Checks that `frame` carries the number the next one under `tag` must.
fn take_numbered(next: &mut [u32], tag: usize, frame: &Encoded) {
    let i = u32::from_le_bytes(frame.payload().as_ref().try_into().expect("four bytes"));
    assert_eq!(
        i, next[tag],
        "tag {tag}: out of order, lost or delivered twice"
    );
    next[tag] += 1;
}

#[test]
fn concurrent_tenant_threads_keep_fifo_and_lose_nothing() {
    const JOBS: u8 = 4;
    const TAGS: usize = 3;
    const PER_TAG: u32 = 133;
    let nodes: Vec<ServeNode> = TcpFabric::build_local(2)
        .into_iter()
        .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
        .collect();
    // One thread per (job, node), 2 x JOBS in all, each sending its
    // numbered frames while it drains and receives its peer's: outbound
    // and inbound turns are taken on both endpoints from every side at once.
    std::thread::scope(|s| {
        for job in 1..=JOBS {
            for (rank, node) in nodes.iter().enumerate() {
                let end = node.attach(JobSpec::new(job)).expect("attach");
                let peer = 1 - rank;
                s.spawn(move || {
                    let mut next = [0u32; TAGS];
                    for k in 0..PER_TAG * TAGS as u32 {
                        let number = (k / TAGS as u32).to_le_bytes().to_vec();
                        let frame = Encoded::new(Shape::new(vec![4]), number.into());
                        let back = end.try_send_tagged(peer, u64::from(k) % TAGS as u64, frame);
                        assert!(
                            back.expect("try_send").is_none(),
                            "a 4-byte frame fits the queue"
                        );
                        if k % 7 == 0 {
                            end.flush_outbound().expect("flush");
                        }
                        end.drain_inbound();
                        for tag in 0..TAGS {
                            while let Some(f) = end.try_recv_tagged(peer, tag as u64).expect("poll")
                            {
                                take_numbered(&mut next, tag, &f);
                            }
                        }
                    }
                    end.flush_outbound().expect("flush");
                    for tag in 0..TAGS {
                        while next[tag] < PER_TAG {
                            let f = end
                                .recv_tagged_deadline(peer, tag as u64, Duration::from_secs(20))
                                .unwrap_or_else(|e| {
                                    panic!("job {job} tag {tag}: frame lost: {e:?}")
                                });
                            take_numbered(&mut next, tag, &f);
                        }
                    }
                    // Once the peer has everything too, nothing is left over.
                    exchange_quiesce_markers(&end, &[0, 1]);
                    for tag in 0..TAGS {
                        let extra = end.try_recv_tagged(peer, tag as u64);
                        assert!(matches!(extra, Ok(None) | Err(_)), "job {job}: {extra:?}");
                    }
                });
            }
        }
    });
}

/// The `cgx-serve` demo reads its five flags through the one flag reader:
/// a fabric that is neither `tcp` nor `shm`, or a count that does not
/// parse, ends the process with status 2, the flag's name and the value on
/// stderr, before any daemon is up — never a default.
#[test]
fn the_demo_binary_names_a_malformed_flag_and_exits_nonzero() {
    for (flag, value) in [
        ("--fabric", "shmm"),
        ("--fabric", "2s"),
        ("--world", "abc"),
        ("--world", "32M"),
        ("--jobs", "254"),
        ("--jobs", "many"),
        ("--steps", "0"),
        ("--steps", "-1"),
        ("--period", "4s"),
        ("--period", "2OO"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cgx-serve"))
            .args([flag, value])
            .output()
            .expect("cgx-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be")) && stderr.contains(value),
            "{flag} {value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} still ran the demo");
    }
}

/// Each daemon admits as many jobs as the demo runs: 65 tenants, one past
/// the library's default admission limit, all train to completion.
#[test]
fn the_demo_binary_admits_every_job_it_was_asked_for() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cgx-serve"))
        .args(["--jobs", "65", "--steps", "1", "--period", "1"])
        .output()
        .expect("cgx-serve runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("jobs            : 65"), "{stdout}");
}
