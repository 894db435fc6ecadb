//! Communication errors.
//!
//! The fault taxonomy distinguishes three severities:
//!
//! * **Fatal to one link** — [`CommError::Corrupted`]: a frame failed the
//!   transport checksum, or a peer claimed history it never sent; the
//!   link is condemned rather than healed into misaligned payloads.
//! * **Transient, surfaced** — [`CommError::Lost`] means frames of a lane
//!   were dropped and will never be delivered (the stash's orphan bound);
//!   [`CommError::Timeout`] means a peer stopped making progress.
//! * **Recoverable peer loss** — the communication engine folds
//!   `Disconnected`/`Timeout`/`Lost` into [`CommError::PeerLost`], the
//!   signal the elastic trainers use to run a membership epoch and continue
//!   on the shrunken world.

use std::fmt;
use std::time::Duration;

/// Errors surfaced by the shared-memory transport and the collectives
/// built on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive did not complete within the configured timeout —
    /// typically a peer died or deadlocked. Carries the *actual elapsed*
    /// wait, the peer rank, and how many collectives were in flight.
    Timeout {
        /// The rank we were waiting on.
        from: usize,
        /// How long we actually waited since last observable progress.
        waited: Duration,
        /// Collectives in flight on this rank when the timeout fired
        /// (0 for plain transport receives).
        in_flight: usize,
    },
    /// The peer's channel closed (worker exited or panicked).
    Disconnected {
        /// The rank whose channel closed.
        peer: usize,
    },
    /// A frame failed its checksum, or a peer's resume point contradicts
    /// what was sent: the link it names is condemned.
    Corrupted {
        /// The rank the corrupted frame arrived from.
        peer: usize,
        /// Human-readable description (tag/sequence context).
        detail: String,
    },
    /// Frames from a peer were dropped and will never be delivered, so
    /// nothing behind them can be either.
    Lost {
        /// The rank the frames were expected from.
        peer: usize,
    },
    /// The peer's *process* is known dead: its socket reset or EOF'd
    /// mid-frame, a write to it failed, or its liveness deadline elapsed
    /// with no heartbeat. Stronger than [`CommError::Disconnected`]
    /// (which also covers orderly shutdown): the rank is gone and will
    /// not come back on this connection.
    PeerDead {
        /// The rank whose process died.
        rank: usize,
    },
    /// A peer is unrecoverably gone mid-collective. Emitted by the
    /// communication engine in place of the raw transport error so callers
    /// can run membership recovery and continue on the shrunken world.
    PeerLost {
        /// The rank that was lost (in the caller's rank space).
        peer: usize,
        /// The underlying transport error that condemned the peer.
        cause: Box<CommError>,
    },
    /// A worker thread panicked; the payload's message if extractable.
    WorkerPanicked {
        /// The rank of the panicked worker.
        rank: usize,
        /// Panic message, when it was a string payload.
        message: String,
    },
    /// More than one rank failed in a [`crate::ThreadCluster`] run; every
    /// failing rank's outcome is listed so multi-rank failures are
    /// diagnosable (a single failure is returned as itself).
    MultipleFailures {
        /// `(rank, rendered error)` for every failing rank, in rank order.
        failures: Vec<(usize, String)>,
    },
    /// A received payload did not match the expected tensor geometry.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Rendezvous/bootstrap failed before a fabric existed: the cluster
    /// never formed (bad address, handshake mismatch, a peer that never
    /// showed up). Distinct from the peer-scoped errors above because no
    /// rank can be implicated — there is no membership to shrink yet.
    Bootstrap {
        /// Human-readable description of what went wrong.
        detail: String,
    },
    /// A run was configured inconsistently (e.g. a per-layer compression
    /// list whose length disagrees with the model's parameter count).
    /// Raised before any collective starts, so no rank is implicated and
    /// no recovery applies — fix the configuration.
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl CommError {
    /// The peer rank implicated by this error, when one is: the signal the
    /// elastic recovery path uses to seed membership agreement.
    pub fn peer(&self) -> Option<usize> {
        match self {
            CommError::Timeout { from, .. } => Some(*from),
            CommError::Disconnected { peer }
            | CommError::Corrupted { peer, .. }
            | CommError::Lost { peer, .. }
            | CommError::PeerLost { peer, .. } => Some(*peer),
            CommError::PeerDead { rank } => Some(*rank),
            _ => None,
        }
    }

    /// This error with `peer` as the rank it implicates — the same fault
    /// named in another rank space (see
    /// [`MembershipView`](crate::MembershipView)). Unchanged if it
    /// implicates none.
    #[must_use]
    pub(crate) fn with_peer(mut self, peer: usize) -> Self {
        match &mut self {
            CommError::Timeout { from: rank, .. }
            | CommError::Disconnected { peer: rank }
            | CommError::Corrupted { peer: rank, .. }
            | CommError::Lost { peer: rank, .. }
            | CommError::PeerLost { peer: rank, .. }
            | CommError::PeerDead { rank } => *rank = peer,
            _ => {}
        }
        self
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                from,
                waited,
                in_flight,
            } => {
                write!(
                    f,
                    "timed out after {waited:?} waiting for rank {from} ({in_flight} collectives in flight)"
                )
            }
            CommError::Disconnected { peer } => {
                write!(f, "rank {peer} disconnected")
            }
            CommError::Corrupted { peer, detail } => {
                write!(f, "corrupted frame from rank {peer}: {detail}")
            }
            CommError::Lost { peer } => write!(f, "frames from rank {peer} were lost"),
            CommError::PeerDead { rank } => {
                write!(
                    f,
                    "rank {rank} process is dead (socket reset or liveness deadline elapsed)"
                )
            }
            CommError::PeerLost { peer, cause } => {
                write!(f, "peer {peer} lost ({cause})")
            }
            CommError::WorkerPanicked { rank, message } => {
                write!(f, "worker {rank} panicked: {message}")
            }
            CommError::MultipleFailures { failures } => {
                write!(f, "{} ranks failed:", failures.len())?;
                for (rank, e) in failures {
                    write!(f, " [rank {rank}: {e}]")?;
                }
                Ok(())
            }
            CommError::ShapeMismatch { detail } => {
                write!(f, "payload shape mismatch: {detail}")
            }
            CommError::Bootstrap { detail } => {
                write!(f, "cluster bootstrap failed: {detail}")
            }
            CommError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CommError::Timeout {
            from: 3,
            waited: Duration::from_secs(5),
            in_flight: 7,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("7 collectives"));
        let e = CommError::WorkerPanicked {
            rank: 1,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        let e = CommError::Lost { peer: 2 };
        assert_eq!(e.to_string(), "frames from rank 2 were lost");
        let e = CommError::PeerLost {
            peer: 4,
            cause: Box::new(CommError::Disconnected { peer: 4 }),
        };
        assert!(e.to_string().contains("peer 4"));
        assert!(e.to_string().contains("disconnected"));
        let e = CommError::MultipleFailures {
            failures: vec![(0, "a".into()), (2, "b".into())],
        };
        assert!(e.to_string().contains("rank 2"));
        let e = CommError::PeerDead { rank: 6 };
        assert!(e.to_string().contains("rank 6"));
        assert!(e.to_string().contains("dead"));
        let e = CommError::Bootstrap {
            detail: "rendezvous refused".into(),
        };
        assert!(e.to_string().contains("rendezvous refused"));
        assert_eq!(e.peer(), None);
    }

    #[test]
    fn peer_extraction_covers_loss_shapes() {
        assert_eq!(CommError::Disconnected { peer: 3 }.peer(), Some(3));
        assert_eq!(
            CommError::Timeout {
                from: 1,
                waited: Duration::ZERO,
                in_flight: 0
            }
            .peer(),
            Some(1)
        );
        assert_eq!(CommError::Lost { peer: 2 }.peer(), Some(2));
        assert_eq!(CommError::PeerDead { rank: 7 }.peer(), Some(7));
        assert_eq!(
            CommError::PeerLost {
                peer: 5,
                cause: Box::new(CommError::Disconnected { peer: 5 })
            }
            .peer(),
            Some(5)
        );
        assert_eq!(CommError::ShapeMismatch { detail: "x".into() }.peer(), None);
    }

    #[test]
    fn with_peer_renames_exactly_the_implicated_rank() {
        let lost = CommError::Lost { peer: 2 };
        assert_eq!(lost.with_peer(0), CommError::Lost { peer: 0 });
        assert_eq!(CommError::PeerDead { rank: 7 }.with_peer(1).peer(), Some(1));
        let none = CommError::ShapeMismatch { detail: "x".into() };
        assert_eq!(none.clone().with_peer(3), none);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<CommError>();
    }
}
