//! Slow-tenant liveness at a short deadline (DESIGN.md §12.1 regression):
//! with heartbeats every 5 ms and a 15 ms deadline on the TCP fabric, a
//! tenant that computes for 200 ms between sends is NOT condemned, because
//! the daemon pump calls into the fabric at the fabric's own cadence.
//!
//! The one test is a test binary of its own because its deadline is three
//! heartbeats: `cargo test` runs the tests of one binary side by side, and
//! on a two-core host the tenants of `tenancy.rs` starve the pump past
//! 15 ms.

use cgx_collectives::Transport;
use cgx_compress::Encoded;
use cgx_net::{NetOptions, TcpFabric};
use cgx_serve::{JobSpec, ServeConfig, ServeNode};
use cgx_tensor::Shape;
use std::sync::Arc;
use std::time::Duration;

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
fn tenant_computing_past_a_short_heartbeat_deadline_is_not_condemned() {
    // Heartbeats every 5 ms, a 15 ms deadline, and a tenant that computes
    // for 200 ms between sends: the pump calls into the fabric at the
    // fabric's own cadence, which a fixed nap longer than the deadline
    // (20 ms, say) would miss.
    let opts =
        NetOptions::default().with_heartbeat(Duration::from_millis(5), Duration::from_millis(15));
    let nodes: Vec<Arc<ServeNode>> = TcpFabric::build_local_with(2, opts)
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(Box::new(t), ServeConfig::default())))
        .collect();
    let mut endpoints = attach_pair(&nodes, 1).into_iter();
    let (a, b) = (endpoints.next().unwrap(), endpoints.next().unwrap());
    let payload = Encoded::new(Shape::new(vec![2]), vec![5u8, 6].into());
    let echo_payload = payload.clone();
    let slow = std::thread::spawn(move || {
        for i in 0..3u64 {
            std::thread::sleep(Duration::from_millis(200));
            a.send_tagged(1, 500 + i, payload.clone())
                .expect("slow tenant send failed: peer condemned us?");
            a.recv_tagged_deadline(1, 600 + i, Duration::from_secs(10))
                .expect("slow tenant recv failed");
        }
    });
    let echo = std::thread::spawn(move || {
        for i in 0..3u64 {
            b.recv_tagged_deadline(0, 500 + i, Duration::from_secs(10))
                .expect("echo recv failed: slow peer was condemned");
            b.send_tagged(0, 600 + i, echo_payload.clone())
                .expect("echo send");
        }
    });
    slow.join().expect("slow tenant panicked");
    echo.join().expect("echo tenant panicked");
}
