#![warn(missing_docs)]
//! Test-only support for the CGX workspace. Every crate that uses it names
//! it under `[dev-dependencies]` and nowhere else, so none of it ships in a
//! production crate.
//!
//! * [`conformance`] — the executable [`cgx_collectives::Transport`]
//!   contract, run against every fabric (shm, TCP, `cgx-serve` tenant
//!   handles),
//! * [`cases`] — the seeded property runner every property test calls.
//!
//! The testkit links its own build of each crate it depends on. A crate's
//! in-file unit tests are built from a second copy of that crate, so they
//! must not hand testkit values to their own crate's types; integration
//! tests (`tests/`) share one copy and may.

pub mod conformance;

use cgx_tensor::Rng;

/// Runs `property` on `n` seeded cases — the whole of this workspace's
/// property testing. Case `i` draws from a generator derived from the
/// running test's name (libtest names each test's thread after it) and `i`,
/// so every run of a test sees the same cases and a failure repeats. The
/// property states its claims with plain `assert!`s; when one fails, the
/// case index is printed on top of its message.
///
/// # Examples
///
/// ```
/// cgx_testkit::cases(32, |rng| {
///     let n = rng.range(1..=100);
///     assert!(rng.index(n) < n);
/// });
/// ```
pub fn cases(n: u32, mut property: impl FnMut(&mut Rng)) {
    struct Case(u32);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case {}", self.0);
            }
        }
    }
    let thread = std::thread::current();
    let name = thread.name().unwrap_or_default().bytes();
    // FNV-1a; `seed_from_u64` then mixes the case index in thoroughly.
    let seed = name.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for i in 0..n {
        let case = Case(i);
        property(&mut Rng::seed_from_u64(seed ^ u64::from(i)));
        drop(case);
    }
}
