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
//! The fabric is driven by whichever thread needs it — a tenant's send or
//! receive takes the daemon's turn on the socket itself — with the pump
//! thread as the fallback driver, so transports with caller-driven liveness
//! (the TCP fabric's heartbeats) are still serviced while a tenant computes.
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

pub use daemon::{
    Harvest, JobSpec, NamespacedTransport, ServeConfig, ServeError, ServeNode, DETACH_TAG,
};
pub use qos::{jain_index, Dequeue, DrrScheduler};
