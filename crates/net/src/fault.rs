//! Socket-level fault injection for the TCP fabric, and the redial
//! schedule that heals what it breaks.
//!
//! The faults here are the ones a production fabric has: real processes
//! die and real sockets reset, so the recovery machinery is exercised
//! against the operating system rather than a simulation of it.
//!
//! * **Kill** — `(rank, step)`: that rank dies at the top of that step.
//!   The trainer reads it as `TrainConfig::kill` (where `cgx-launch
//!   --kill` and [`Workload::run_rank`](crate::workload::Workload::run_rank)
//!   put it) and returns; the worker then drops its endpoint (orderly
//!   FIN), or with `--sigkill` calls [`raise_sigkill`], endpoint still
//!   open — no destructors, no flushes, the kernel tears the sockets down.
//!   That is the honest model of an OOM kill or a preempted spot instance.
//! * **Reset** — a `ResetPlan`: that rank's socket toward `peer` is shut
//!   down under the wire path after N outbound frames — a transient link
//!   drop the reconnect path should heal. Tests arm it on the transport
//!   (`tcp::tests::set_reset`), and
//!   [`ReconnectPolicy`] is how it redials.

use std::time::Duration;

/// A transient socket drop: `rank`'s connection toward `peer` is shut
/// down once `after_frames` outbound frames have been enqueued to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResetPlan {
    /// The rank whose socket is sabotaged.
    pub rank: usize,
    /// The peer whose link drops.
    pub peer: usize,
    /// Outbound frames to that peer before the drop fires (one-shot).
    pub(crate) after_frames: u64,
}

/// Jittered exponential backoff schedule for transport reconnection.
///
/// The schedule is purely functional: attempt `k`'s delay is a hash of
/// `(seed, k)`, so a reconnect storm replays exactly from its seed. Delays
/// start at `base`, grow exponentially with up to +50% deterministic jitter
/// (de-synchronizing peers that lost the same link at the same instant),
/// and clamp at `cap`; the sequence is strictly monotone until the clamp.
/// After `max_attempts` failed dials the peer is condemned as
/// [`CommError::PeerDead`](cgx_collectives::CommError::PeerDead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// First-attempt delay and the schedule's lower bound.
    pub base: Duration,
    /// Upper clamp on any single delay.
    pub cap: Duration,
    /// Dial attempts before the peer is condemned.
    pub(crate) max_attempts: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl ReconnectPolicy {
    /// A schedule of `max_attempts` dials backing off from `base` to `cap`.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32, seed: u64) -> Self {
        assert!(base > Duration::ZERO, "backoff base must be positive");
        assert!(cap >= base, "backoff cap must be >= base");
        ReconnectPolicy {
            base,
            cap,
            max_attempts,
            seed,
        }
    }

    /// Delay before dial attempt `attempt` (0-based). Pure integer math:
    /// `min(cap, base * 2^attempt * (1 + jitter/2))` with
    /// `jitter in [0, 1)` drawn from `splitmix64(seed ^ attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos();
        let cap_ns = self.cap.as_nanos();
        let exp_ns = base_ns.saturating_mul(1u128 << attempt.min(64));
        // 16 jitter bits -> multiplier in [65536, 98304) / 65536, i.e.
        // [1.0, 1.5): attempt k's maximum (1.5 * 2^k) stays strictly
        // below attempt k+1's minimum (2^(k+1)), keeping the schedule
        // monotone until it clamps at the cap.
        let jitter = (splitmix64(self.seed ^ attempt as u64) >> 48) as u128;
        let jittered = exp_ns.saturating_add(exp_ns.saturating_mul(jitter) / (2 * 65536));
        let ns = jittered.clamp(base_ns, cap_ns);
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Worst-case total time the schedule can spend before condemning a
    /// peer: the sum of every attempt's delay.
    pub fn budget(&self) -> Duration {
        (0..self.max_attempts).map(|k| self.delay(k)).sum()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Kills the current process with `SIGKILL` — no unwinding, no `Drop`,
/// no socket shutdown beyond what the kernel does. Falls back to a bare
/// `exit(137)` (the conventional SIGKILL exit code) off unix.
pub fn raise_sigkill() -> ! {
    #[cfg(unix)]
    {
        extern "C" {
            fn getpid() -> i32;
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGKILL: i32 = 9;
        unsafe {
            kill(getpid(), SIGKILL);
        }
        // Unreachable on unix; the loop satisfies the `!` return if the
        // signal is somehow delayed.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    #[cfg(not(unix))]
    {
        std::process::exit(137);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgx_tensor::Rng;
    use cgx_testkit::cases;

    #[test]
    fn backoff_schedule_is_bounded_monotone_and_deterministic() {
        let p = ReconnectPolicy::new(Duration::from_millis(10), Duration::from_secs(2), 8, 99);
        let delays: Vec<_> = (0..p.max_attempts).map(|k| p.delay(k)).collect();
        for (k, d) in delays.iter().enumerate() {
            assert!(*d >= p.base, "attempt {k} below base: {d:?}");
            assert!(*d <= p.cap, "attempt {k} above cap: {d:?}");
        }
        for w in delays.windows(2) {
            assert!(
                w[1] > w[0] || w[1] == p.cap,
                "schedule must grow until the cap: {delays:?}"
            );
        }
        let replay: Vec<_> = (0..p.max_attempts).map(|k| p.delay(k)).collect();
        assert_eq!(delays, replay, "same seed must replay the same schedule");
        let other = ReconnectPolicy { seed: 100, ..p };
        assert!(
            (0..p.max_attempts).any(|k| other.delay(k) != p.delay(k)),
            "different seeds must jitter differently"
        );
        assert_eq!(p.budget(), delays.iter().sum());
    }

    // The reconnect schedule's properties: every delay stays within
    // `[base, cap]`, the schedule is monotone until it clamps at the cap,
    // and the jitter is a pure function of the seed, which is what makes a
    // reconnect storm replayable.

    /// A base of 1..=50 ms, a cap up to 2 s above it, and any seed.
    fn schedule(rng: &mut Rng) -> (Duration, Duration, u64) {
        let base_ms = rng.range(1..=50) as u64;
        let cap_ms = base_ms + rng.range(0..=2000) as u64;
        let (base, cap) = (
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
        );
        (base, cap, rng.next_u64())
    }

    #[test]
    fn delays_stay_within_base_and_cap() {
        cases(256, |rng| {
            let (base, cap, seed) = schedule(rng);
            let attempts = rng.range(1..=12) as u32;
            let policy = ReconnectPolicy::new(base, cap, attempts, seed);
            for k in 0..attempts {
                let d = policy.delay(k);
                assert!(d >= base, "attempt {k} delay {d:?} below base {base:?}");
                assert!(d <= cap, "attempt {k} delay {d:?} above cap {cap:?}");
            }
        });
    }

    #[test]
    fn schedule_is_monotone_until_the_cap() {
        cases(256, |rng| {
            let (base, cap, seed) = schedule(rng);
            let policy = ReconnectPolicy::new(base, cap, 12, seed);
            let mut prev = Duration::ZERO;
            let mut capped = false;
            for k in 0..policy.max_attempts {
                let d = policy.delay(k);
                if capped {
                    // Once a delay hits the cap, every later one sits there.
                    assert_eq!(d, cap, "attempt {k} left the cap");
                } else {
                    assert!(
                        d >= prev,
                        "attempt {k} delay {d:?} shrank from {prev:?} before the cap"
                    );
                }
                capped = capped || d == cap;
                prev = d;
            }
        });
    }

    #[test]
    fn jitter_is_deterministic_under_a_fixed_seed() {
        cases(256, |rng| {
            let (base, cap, seed) = schedule(rng);
            let a = ReconnectPolicy::new(base, cap, 8, seed);
            let b = ReconnectPolicy::new(base, cap, 8, seed);
            for k in 0..a.max_attempts {
                assert_eq!(a.delay(k), b.delay(k), "attempt {k} not replayable");
            }
            assert_eq!(a.budget(), b.budget());
            // A different seed is allowed to (and in general does) move the
            // delays, but never outside the bounds checked above; budget
            // stays within [attempts*base, attempts*cap] either way.
            let c = ReconnectPolicy::new(base, cap, 8, seed ^ 0xDEAD_BEEF);
            assert!(c.budget() >= base * 8, "budget below the floor");
            assert!(c.budget() <= cap * 8, "budget above the ceiling");
        });
    }
}
