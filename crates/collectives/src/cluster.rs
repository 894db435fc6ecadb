//! Spawn-and-join harness for multi-"GPU" experiments.

use crate::error::CommError;
use crate::transport::{ShmFabric, ShmTransport};

/// Runs one closure per rank on its own OS thread, each holding a
/// [`ShmTransport`] endpoint, and gathers the per-rank results in rank
/// order.
///
/// A panicking worker is contained and surfaced as
/// [`CommError::WorkerPanicked`]; surviving workers that were blocked on
/// the dead peer observe `Disconnected`/`Timeout` instead of hanging.
#[derive(Debug)]
pub struct ThreadCluster;

impl ThreadCluster {
    /// Spawns `n` workers and waits for all of them.
    ///
    /// # Errors
    ///
    /// Returns the first worker panic as [`CommError::WorkerPanicked`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn run<F, R>(n: usize, f: F) -> Result<Vec<R>, CommError>
    where
        F: Fn(ShmTransport) -> R + Send + Sync,
        R: Send,
    {
        Self::try_run(n, |t| Ok::<R, CommError>(f(t)))
    }

    /// Like [`ThreadCluster::run`] but each worker returns a `Result`.
    ///
    /// Every rank's outcome is inspected before the cluster reports:
    /// a lone failing rank propagates its error (or panic) as-is, while
    /// multiple failures aggregate into [`CommError::MultipleFailures`]
    /// listing each failing rank — so a cascading fault (one death
    /// poisoning several survivors) is diagnosable from the report
    /// instead of collapsing to whichever rank happened to join first.
    ///
    /// # Errors
    ///
    /// Worker panics map to [`CommError::WorkerPanicked`]; a single
    /// worker error is returned as-is; several become
    /// [`CommError::MultipleFailures`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn try_run<F, R, E>(n: usize, f: F) -> Result<Vec<R>, E>
    where
        F: Fn(ShmTransport) -> Result<R, E> + Send + Sync,
        R: Send,
        E: Send + From<CommError> + std::fmt::Debug,
    {
        assert!(n > 0, "cluster needs at least one worker");
        let endpoints = ShmFabric::build(n);
        let f = &f;
        let outcomes: Vec<Result<Result<R, E>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|t| {
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("scoped join cannot fail after catch_unwind")
                        .map_err(|p| panic_message(&*p))
                })
                .collect()
        });
        let mut results = Vec::with_capacity(n);
        let mut failures: Vec<(usize, Result<E, String>)> = Vec::new();
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                Ok(Ok(r)) => results.push(r),
                Ok(Err(e)) => failures.push((rank, Ok(e))),
                Err(message) => failures.push((rank, Err(message))),
            }
        }
        match failures.len() {
            0 => Ok(results),
            1 => {
                let (rank, failure) = failures.pop().expect("len checked");
                Err(match failure {
                    Ok(e) => e,
                    Err(message) => CommError::WorkerPanicked { rank, message }.into(),
                })
            }
            _ => Err(CommError::MultipleFailures {
                failures: failures
                    .into_iter()
                    .map(|(rank, failure)| {
                        let detail = match failure {
                            Ok(e) => format!("{e:?}"),
                            Err(message) => format!("panicked: {message}"),
                        };
                        (rank, detail)
                    })
                    .collect(),
            }
            .into()),
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use cgx_compress::Encoded;
    use cgx_tensor::{Bytes, Shape};
    use std::time::Duration;

    #[test]
    fn ranks_are_assigned_in_order() {
        let ranks = ThreadCluster::run(4, |t| t.rank()).unwrap();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn workers_can_exchange_messages() {
        let sums = ThreadCluster::run(2, |t| {
            let msg = Encoded::new(
                Shape::vector(1),
                Bytes::copy_from_slice(&[t.rank() as u8 + 1]),
            );
            let peer = 1 - t.rank();
            t.send(peer, msg).unwrap();
            t.recv(peer).unwrap().payload()[0]
        })
        .unwrap();
        assert_eq!(sums, vec![2, 1]);
    }

    #[test]
    fn panicking_worker_is_reported() {
        let r = ThreadCluster::run(2, |t| {
            if t.rank() == 1 {
                panic!("injected failure");
            }
            t.rank()
        });
        match r {
            Err(CommError::WorkerPanicked { rank: 1, message }) => {
                assert!(message.contains("injected failure"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn peers_of_a_dead_worker_do_not_hang() {
        // Worker 0 waits on worker 1, which dies immediately. Worker 0 must
        // observe a disconnect or timeout, not deadlock.
        let r = ThreadCluster::run(2, |mut t| {
            t.set_timeout(Duration::from_secs(2));
            if t.rank() == 1 {
                panic!("dead on arrival");
            }
            match t.recv(1) {
                Err(_) => "survived",
                Ok(_) => "unexpected payload",
            }
        });
        // The panic from rank 1 dominates the report.
        assert!(matches!(r, Err(CommError::WorkerPanicked { rank: 1, .. })));
    }

    #[test]
    fn engine_pipeline_contains_mid_run_worker_death() {
        // A worker dying while its peers have several collectives in
        // flight through the CommEngine must not hang anyone: every
        // survivor's pending handle resolves to a CommError, and the
        // panic still dominates the cluster report.
        use crate::engine::CommEngine;
        use crate::reduce::Algorithm;
        use cgx_compress::{NoneCompressor, ScratchPool};
        use cgx_tensor::{Rng, Tensor};
        use std::sync::{Arc, Mutex};

        let survivors: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = survivors.clone();
        let r = ThreadCluster::run(3, |mut t| {
            t.set_timeout(Duration::from_secs(2));
            let rank = t.rank();
            if rank == 2 {
                panic!("simulated GPU failure");
            }
            let mut rng = Rng::seed_from_u64(rank as u64);
            let mut eng = CommEngine::with_defaults(&t, ScratchPool::new());
            // Too large to pack: two real pipelined
            // machines are mid-flight when the peer's death is noticed.
            let g = Tensor::full(&[8192], 1.0 + rank as f32);
            let h1 = eng.submit(
                Algorithm::ScatterReduceAllgather,
                &g,
                Box::new(NoneCompressor::new()),
                &mut rng,
            );
            let h2 = eng.submit(
                Algorithm::Ring,
                &g,
                Box::new(NoneCompressor::new()),
                &mut rng,
            );
            assert!(eng.wait(h1).is_err(), "rank {rank}: h1 should poison");
            assert!(eng.wait(h2).is_err(), "rank {rank}: h2 should poison");
            sink.lock().expect("sink").push(rank);
            rank
        });
        // The panic from rank 2 dominates the report...
        assert!(matches!(r, Err(CommError::WorkerPanicked { rank: 2, .. })));
        // ...but both survivors ran to completion without deadlocking.
        let mut seen = survivors.lock().expect("sink").clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn try_run_propagates_worker_errors() {
        let r: Result<Vec<()>, CommError> = ThreadCluster::try_run(2, |t| {
            if t.rank() == 0 {
                Err(CommError::ShapeMismatch {
                    detail: "synthetic".into(),
                })
            } else {
                Ok(())
            }
        });
        assert!(matches!(r, Err(CommError::ShapeMismatch { .. })));
    }

    #[test]
    fn multiple_failing_ranks_are_all_reported() {
        // Two ranks fail (one error, one panic) while one succeeds: the
        // report must name both failing ranks, not just the first joined.
        let r: Result<Vec<()>, CommError> = ThreadCluster::try_run(3, |t| match t.rank() {
            0 => Err(CommError::ShapeMismatch {
                detail: "rank zero synthetic".into(),
            }),
            2 => panic!("rank two synthetic"),
            _ => Ok(()),
        });
        match r {
            Err(CommError::MultipleFailures { failures }) => {
                assert_eq!(failures.len(), 2);
                assert_eq!(failures[0].0, 0);
                assert!(failures[0].1.contains("rank zero synthetic"));
                assert_eq!(failures[1].0, 2);
                assert!(failures[1].1.contains("rank two synthetic"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_worker_cluster_works() {
        let r = ThreadCluster::run(1, |t| t.world()).unwrap();
        assert_eq!(r, vec![1]);
    }
}
