//! The executable `Transport` contract, run over [`NamespacedTransport`]
//! tenant handles instead of raw fabrics.
//!
//! Two configurations:
//!
//! * **Solo tenant** — each rank's endpoint is a daemon-attached job over
//!   a dedicated shm (and TCP) mesh. Every conformance check must behave
//!   exactly as it does on the raw transport: timeouts name peers, stashes
//!   survive disconnects, peer death is typed and bounded, quiesce
//!   completes.
//! * **Noisy neighbour** — a *second* job shares the same daemons and
//!   exchanges bounded background traffic for the whole battery. Tenant
//!   isolation means the battery cannot tell the difference.

use cgx_collectives::{ShmFabric, Transport};
use cgx_compress::Encoded;
use cgx_net::TcpFabric;
use cgx_serve::{JobSpec, NamespacedTransport, ServeConfig, ServeNode};
use cgx_tensor::Shape;
use cgx_testkit::conformance::{
    check_many_receivers, check_silent_tag_parks_boundedly, run_all, BoxTransport,
};
use std::sync::Arc;
use std::time::Duration;

/// The longest one park blocks: the slice the shm battery grants a
/// mailbox, whose condvar sleeps a whole deadline, and TCP's poll slice.
const SHM_SLICE: Duration = Duration::from_millis(200);
const TCP_SLICE: Duration = Duration::from_millis(50);

/// Wraps every endpoint of a physical fabric in its own daemon and
/// attaches `job` on each, tying the daemon's lifetime to the handle.
fn serve_endpoints(
    phys: Vec<Box<dyn Transport + Send + Sync>>,
    job: u8,
) -> (Vec<Arc<ServeNode>>, Vec<NamespacedTransport>) {
    let nodes: Vec<Arc<ServeNode>> = phys
        .into_iter()
        .map(|t| Arc::new(ServeNode::new(t, ServeConfig::default())))
        .collect();
    let handles = nodes
        .iter()
        .map(|n| {
            n.attach(JobSpec::new(job))
                .expect("attach conformance job")
                .with_keepalive(Arc::clone(n))
        })
        .collect();
    (nodes, handles)
}

fn shm_phys(n: usize) -> Vec<Box<dyn Transport + Send + Sync>> {
    ShmFabric::build(n)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport + Send + Sync>)
        .collect()
}

fn namespaced_shm(n: usize) -> Vec<BoxTransport> {
    let (_nodes, handles) = serve_endpoints(shm_phys(n), 1);
    handles
        .into_iter()
        .map(|h| Box::new(h) as BoxTransport)
        .collect()
}

fn namespaced_tcp(n: usize) -> Vec<BoxTransport> {
    let phys: Vec<Box<dyn Transport + Send + Sync>> = TcpFabric::build_local(n)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport + Send + Sync>)
        .collect();
    let (_nodes, handles) = serve_endpoints(phys, 1);
    handles
        .into_iter()
        .map(|h| Box::new(h) as BoxTransport)
        .collect()
}

#[test]
fn namespaced_shm_transport_conforms() {
    run_all(&namespaced_shm);
}

#[test]
fn namespaced_tcp_transport_conforms() {
    run_all(&namespaced_tcp);
}

/// A handle's park is its fabric's: a whole deadline on the mailbox's
/// condvar, a 50 ms slice on TCP. The pump, draining the same endpoint
/// on any turn it owes the fabric, must not cut it short.
#[test]
fn a_receive_on_a_silent_tag_does_not_spin_on_an_unrelated_stash() {
    check_silent_tag_parks_boundedly(&namespaced_shm, SHM_SLICE);
    check_silent_tag_parks_boundedly(&namespaced_tcp, TCP_SLICE);
}

/// A job's threads all receive and park on the node's one endpoint, which
/// the pump drains on its turns, and each is woken for its own frames.
#[test]
fn many_receivers_share_one_endpoint() {
    check_many_receivers(&namespaced_shm);
    check_many_receivers(&namespaced_tcp);
}

#[test]
fn conformance_holds_with_a_noisy_neighbour_job() {
    let build = |n: usize| -> Vec<BoxTransport> {
        let nodes: Vec<Arc<ServeNode>> = shm_phys(n)
            .into_iter()
            .map(|t| Arc::new(ServeNode::new(t, ServeConfig::default())))
            .collect();
        // Job 2: bounded background chatter on every node, ring-shaped so
        // each rank both sends and receives. Runs on its own threads and
        // detaches when done; the battery on job 1 must be oblivious.
        if n > 1 {
            for (rank, node) in nodes.iter().enumerate() {
                let noisy = node
                    .attach(JobSpec::new(2))
                    .expect("attach noise job")
                    .with_keepalive(Arc::clone(node));
                std::thread::spawn(move || {
                    let next = (rank + 1) % n;
                    let prev = (rank + n - 1) % n;
                    let payload = Encoded::new(Shape::new(vec![8]), vec![rank as u8; 8].into());
                    for i in 0..64u64 {
                        if noisy.send_tagged(next, 9000 + i, payload.clone()).is_err() {
                            return;
                        }
                        if noisy.recv_tagged(prev, 9000 + i).is_err() {
                            return;
                        }
                    }
                });
            }
        }
        nodes
            .iter()
            .map(|node| {
                Box::new(
                    node.attach(JobSpec::new(1))
                        .expect("attach battery job")
                        .with_keepalive(Arc::clone(node)),
                ) as BoxTransport
            })
            .collect()
    };
    run_all(&build);
}
