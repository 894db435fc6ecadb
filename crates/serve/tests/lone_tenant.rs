//! What one tenant, alone on its daemons, pays for them (DESIGN.md §14.1):
//! the tenant's own thread sends through the daemon's scheduler and
//! receives straight from the fabric, and the pump, owed nothing, sleeps,
//! so a round trip costs little more than on the bare socket.
//!
//! The one test is a test binary of its own because it compares two
//! timings: `cargo test` runs the tests of one binary side by side, and a
//! neighbour that keeps both cores busy (the 64-tenant test of
//! `tenancy.rs`) slows the four threads of the served ping-pong by more
//! than the two of the bare one.

use cgx_collectives::Transport;
use cgx_compress::Encoded;
use cgx_net::TcpFabric;
use cgx_serve::{JobSpec, ServeConfig, ServeNode};
use cgx_tensor::Shape;
use std::time::{Duration, Instant};

/// Median round trip of `trips` one-word frames from `ping` to `echo` and
/// back, each end on its own thread.
fn ping_pong_median(ping: &dyn Transport, echo: &(dyn Transport + Sync), trips: u64) -> Duration {
    let frame = Encoded::new(Shape::new(vec![4]), vec![0xA5u8; 4].into());
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..trips {
                let got = echo.recv_tagged(0, 1).expect("echo recv");
                echo.send_tagged(0, 1, got).expect("echo send");
            }
        });
        let mut trip_times: Vec<Duration> = (0..trips)
            .map(|_| {
                let start = Instant::now();
                ping.send_tagged(1, 1, frame.clone()).expect("ping send");
                ping.recv_tagged(1, 1).expect("ping recv");
                start.elapsed()
            })
            .collect();
        trip_times.sort();
        trip_times[trip_times.len() / 2]
    })
}

#[test]
fn a_lone_tenant_drives_its_own_fabric() {
    const TRIPS: u64 = 1000;
    // Unoptimised, the daemon's own code (the scheduler and its hash maps)
    // weighs more beside the socket's system calls than it does in the
    // build anybody runs.
    let allowed = if cfg!(debug_assertions) { 3 } else { 2 };
    // Neighbours of this container take the cores away for whole
    // scheduler quanta: a wrong design misses the bound on every attempt,
    // a disturbed run only on some.
    let mut readings = Vec::new();
    for _attempt in 0..3 {
        let bare = TcpFabric::build_local(2);
        let bare_rtt = ping_pong_median(&bare[0], &bare[1], TRIPS);

        let nodes: Vec<ServeNode> = TcpFabric::build_local(2)
            .into_iter()
            .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
            .collect();
        let ends: Vec<_> = nodes
            .iter()
            .map(|n| n.attach(JobSpec::new(1)).expect("attach"))
            .collect();
        let served_rtt = ping_pong_median(&ends[0], &ends[1], TRIPS);
        if served_rtt <= allowed * bare_rtt {
            return;
        }
        readings.push((bare_rtt, served_rtt));
    }
    panic!(
        "in none of three attempts was the served round trip within {allowed}x the bare one: \
         (bare, served) = {readings:?}"
    );
}
