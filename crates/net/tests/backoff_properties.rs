//! Property tests for the reconnect backoff schedule
//! ([`ReconnectPolicy`]): every delay stays within `[base, cap]`, the
//! schedule is monotone nondecreasing until it clamps at the cap, and
//! the jitter stream is a pure function of the seed — two policies built
//! from the same parameters produce identical schedules, which is what
//! makes a reconnect storm replayable.

use cgx_net::ReconnectPolicy;
use cgx_tensor::Rng;
use cgx_testkit::cases;
use std::time::Duration;

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
