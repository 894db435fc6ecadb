//! Runs the generic [`cgx_testkit::conformance`] battery against the
//! shared-memory transport. The same suite is instantiated for the TCP
//! transport in `cgx-net`; any divergence in `Transport` semantics between
//! backends fails here first.

use cgx_collectives::ShmFabric;
use cgx_testkit::conformance::{self, BoxTransport};
use std::time::Duration;

fn shm_builder(n: usize) -> Vec<BoxTransport> {
    ShmFabric::build(n)
        .into_iter()
        .map(|t| Box::new(t) as BoxTransport)
        .collect()
}

#[test]
fn shm_transport_satisfies_the_transport_contract() {
    conformance::run_all(&shm_builder);
}

/// The mailbox's condvar sleeps a whole deadline in one park.
#[test]
fn a_receive_on_a_silent_tag_does_not_spin_on_an_unrelated_stash() {
    conformance::check_silent_tag_parks_boundedly(&shm_builder, Duration::from_millis(200));
}

/// Every receiving thread of a mailbox waits on its condvar, and a sender
/// wakes them all.
#[test]
fn many_receivers_share_one_endpoint() {
    conformance::check_many_receivers(&shm_builder);
}
