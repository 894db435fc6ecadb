#![warn(missing_docs)]
//! CGX as a service: a multi-tenant collectives daemon.
//!
//! The paper's deployment model assumes one training job per fabric. This
//! crate lifts that restriction: a persistent per-node daemon
//! ([`ServeNode`]) owns the node's transport mesh once, and *multiple*
//! training jobs attach to it, each receiving a [`NamespacedTransport`] —
//! a complete [`cgx_collectives::Transport`] implementation whose traffic
//! is isolated by an 8-bit job namespace carved out of the wire tag
//! (`[job:8][op:24][segment:16][phase:8][epoch:8]`, see
//! [`cgx_collectives::namespace_tag`]).
//!
//! Between the tenants and the wire sits a QoS layer: per-job outbound
//! queues served by weighted deficit round-robin ([`DrrScheduler`]) with
//! optional per-job token-bucket bandwidth caps, plus admission control
//! (job-count limit, per-job in-flight byte caps, typed [`ServeError`]
//! rejections). One tenant's burst, stall, or death cannot starve or
//! wedge another: queues are independent, shares converge to the DRR
//! weights, and a detaching or dying tenant is announced to its own job's
//! peers without other jobs observing anything.
//!
//! A tenant receives straight from the fabric: its receives and parks are
//! the physical endpoint's own, on tags widened into its namespace, and the
//! endpoint's stash keeps the namespace rules (a DETACH closes the
//! detached peer's lane; a job not yet received from holds a bounded
//! amount). Sends take the daemon's scheduled turn on the fabric from the
//! sending thread itself. The pump thread stands in for idle ones only
//! when something is owed: frames a rate cap or the fabric held back, a
//! detach, and the fabric's own liveness cadence
//! ([`cgx_collectives::Transport::drive_within`]), so transports with
//! caller-driven liveness (the TCP fabric's heartbeats) are still serviced
//! while a tenant computes, and an idle daemon costs nothing.
//!
//! ```
//! use cgx_collectives::{ShmFabric, Transport};
//! use cgx_serve::{JobSpec, ServeConfig, ServeNode};
//!
//! // Two daemon nodes over an in-process mesh.
//! let mut nodes: Vec<ServeNode> = ShmFabric::build(2)
//!     .into_iter()
//!     .map(|t| ServeNode::new(Box::new(t), ServeConfig::default()))
//!     .collect();
//!
//! // One job attached on both nodes; handles are full transports.
//! let a = nodes[0].attach(JobSpec::new(7)).unwrap();
//! let b = nodes[1].attach(JobSpec::new(7)).unwrap();
//! let payload = cgx_compress::Encoded::new(
//!     cgx_tensor::Shape::new(vec![1]),
//!     cgx_tensor::Bytes::copy_from_slice(b"hi"),
//! );
//! a.send_tagged(1, 42, payload.clone()).unwrap();
//! assert_eq!(b.recv_tagged(0, 42).unwrap(), payload);
//! drop((a, b));
//! ```

pub mod daemon;
pub mod qos;

pub use daemon::{JobSpec, NamespacedTransport, ServeConfig, ServeError, ServeNode};
pub use qos::{jain_index, Dequeue, DrrScheduler};
