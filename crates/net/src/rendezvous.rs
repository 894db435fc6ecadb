//! Rendezvous bootstrap: from "N processes and one address" to a
//! connected full mesh plus a node [`Topology`].
//!
//! Protocol (all messages are [`crate::wire`] frames on the control tag):
//!
//! 1. Rank 0 listens on the rendezvous address. Every other rank binds
//!    its own ephemeral listener, connects to rank 0, and sends
//!    `HELLO { rank, world, node, listen_addr }`.
//! 2. Once all `world - 1` HELLOs are in (worlds must agree, ranks must
//!    be distinct), rank 0 answers each with a `ROSTER` carrying every
//!    rank's node id and listener address. The rendezvous connections
//!    are kept: they *are* the `0 <-> i` mesh links.
//! 3. Rank `i` then connects to ranks `1..i` at their rostered
//!    addresses (announcing itself with `PEER { rank }`) and accepts
//!    connections from ranks `i+1..world` — each pair connects exactly
//!    once, lower rank listening.
//!
//! Every step is bounded by a boot deadline; failures surface as
//! [`CommError::Bootstrap`] (no membership exists yet to shrink).

use crate::boot_err;
use crate::tcp::{NetOptions, TcpTransport};
use crate::wire::{get_str, get_u32, put_str, recv_ctrl, send_ctrl};
use crate::wire::{MSG_HELLO, MSG_PEER, MSG_ROSTER};
use cgx_collectives::{CommError, Topology};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Default budget for the whole bootstrap (listen, connect, mesh).
pub const DEFAULT_BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Accepts one connection before `deadline` (the listener is switched to
/// nonblocking polling so a missing peer cannot hang the boot forever).
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Instant,
    what: &str,
) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| boot_err(format!("listener setup: {e}")))?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Blocking, so the control read's deadline governs it.
                stream
                    .set_nonblocking(false)
                    .map_err(|e| boot_err(format!("accepted stream setup: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(boot_err(format!("timed out waiting for {what}")));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(boot_err(format!("accept failed: {e}"))),
        }
    }
}

fn connect_with_deadline(
    addr: &str,
    deadline: Instant,
    what: &str,
) -> Result<TcpStream, CommError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(boot_err(format!(
                        "could not connect to {what} at {addr}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Per-rank roster entry exchanged during bootstrap.
#[derive(Debug, Clone)]
struct RosterEntry {
    node: u32,
    addr: String,
}

fn roster_topology(entries: &[RosterEntry]) -> Topology {
    Topology::new(entries.iter().map(|e| e.node as usize).collect())
}

fn rendezvous_root(
    listener: TcpListener,
    world: usize,
    node: u32,
    boot: Duration,
    opts: NetOptions,
) -> Result<(TcpTransport, Topology), CommError> {
    let deadline = Instant::now() + boot;
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    let mut entries: Vec<Option<RosterEntry>> = (0..world).map(|_| None).collect();
    entries[0] = Some(RosterEntry {
        node,
        addr: String::new(), // rank 0 never gets dialed during meshing
    });
    for _ in 1..world {
        let stream = accept_with_deadline(&listener, deadline, "a HELLO connection")?;
        // A peer that connects and then stalls or dies mid-handshake
        // cannot hang the boot: the read ends at the boot deadline.
        let body = recv_ctrl(&stream, MSG_HELLO, "HELLO", deadline)?;
        let mut at = 1;
        let rank = get_u32(&body, &mut at)? as usize;
        let their_world = get_u32(&body, &mut at)? as usize;
        let their_node = get_u32(&body, &mut at)?;
        let addr = get_str(&body, &mut at)?;
        if their_world != world {
            return Err(boot_err(format!(
                "rank {rank} joined with world {their_world}, expected {world}"
            )));
        }
        if rank == 0 || rank >= world {
            return Err(boot_err(format!("implausible rank {rank} in HELLO")));
        }
        if streams[rank].is_some() {
            return Err(boot_err(format!("rank {rank} joined twice")));
        }
        streams[rank] = Some(stream);
        entries[rank] = Some(RosterEntry {
            node: their_node,
            addr,
        });
    }
    let entries: Vec<RosterEntry> = entries
        .into_iter()
        .map(|e| e.expect("all ranks checked in"))
        .collect();
    let mut roster = vec![MSG_ROSTER];
    roster.extend_from_slice(&(world as u32).to_le_bytes());
    for e in &entries {
        roster.extend_from_slice(&e.node.to_le_bytes());
        put_str(&mut roster, &e.addr);
    }
    for stream in streams.iter_mut().flatten() {
        send_ctrl(stream, &roster)?;
    }
    let transport = TcpTransport::new(0, streams, opts)?;
    Ok((transport, roster_topology(&entries)))
}

fn rendezvous_peer(
    rank: usize,
    world: usize,
    root_addr: &str,
    node: u32,
    boot: Duration,
    opts: NetOptions,
) -> Result<(TcpTransport, Topology), CommError> {
    let deadline = Instant::now() + boot;
    // Bind before dialing in: once the root's ROSTER advertises this
    // address, peers may dial it immediately.
    let listener = TcpListener::bind("0.0.0.0:0")
        .map_err(|e| boot_err(format!("could not bind mesh listener: {e}")))?;
    let listen_port = listener
        .local_addr()
        .map_err(|e| boot_err(format!("mesh listener address: {e}")))?
        .port();
    let mut root = connect_with_deadline(root_addr, deadline, "rendezvous root")?;
    // Advertise the address the root actually sees us on (works on
    // localhost and on a LAN), with our own listener's port.
    let my_ip = root
        .local_addr()
        .map_err(|e| boot_err(format!("local address: {e}")))?
        .ip();
    let my_addr = format!("{my_ip}:{listen_port}");
    let mut hello = vec![MSG_HELLO];
    hello.extend_from_slice(&(rank as u32).to_le_bytes());
    hello.extend_from_slice(&(world as u32).to_le_bytes());
    hello.extend_from_slice(&node.to_le_bytes());
    put_str(&mut hello, &my_addr);
    send_ctrl(&mut root, &hello)?;
    // The root may die mid-bootstrap: the ROSTER wait ends at the boot
    // deadline instead of hanging on a silent socket.
    let body = recv_ctrl(&root, MSG_ROSTER, "ROSTER", deadline)?;
    let mut at = 1;
    let roster_world = get_u32(&body, &mut at)? as usize;
    if roster_world != world {
        return Err(boot_err(format!(
            "ROSTER names {roster_world} ranks, expected {world}"
        )));
    }
    let mut entries = Vec::with_capacity(world);
    for _ in 0..world {
        let node = get_u32(&body, &mut at)?;
        let addr = get_str(&body, &mut at)?;
        entries.push(RosterEntry { node, addr });
    }
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    streams[0] = Some(root);
    // Dial every lower rank (they are already listening: their HELLO —
    // sent after their bind — preceded the ROSTER we just read).
    for (j, entry) in entries.iter().enumerate().take(rank).skip(1) {
        let mut stream = connect_with_deadline(&entry.addr, deadline, &format!("rank {j}"))?;
        let mut peer_msg = vec![MSG_PEER];
        peer_msg.extend_from_slice(&(rank as u32).to_le_bytes());
        send_ctrl(&mut stream, &peer_msg)?;
        streams[j] = Some(stream);
    }
    // Accept every higher rank.
    for _ in rank + 1..world {
        let stream = accept_with_deadline(&listener, deadline, "a PEER connection")?;
        let body = recv_ctrl(&stream, MSG_PEER, "PEER", deadline)?;
        let mut at = 1;
        let their_rank = get_u32(&body, &mut at)? as usize;
        if their_rank <= rank || their_rank >= world {
            return Err(boot_err(format!(
                "unexpected PEER rank {their_rank} dialing rank {rank}"
            )));
        }
        if streams[their_rank].is_some() {
            return Err(boot_err(format!("rank {their_rank} dialed twice")));
        }
        streams[their_rank] = Some(stream);
    }
    let transport = TcpTransport::new(rank, streams, opts)?;
    Ok((transport, roster_topology(&entries)))
}

/// Bootstraps one rank of a TCP mesh with wire-path tuning `opts`. Rank
/// 0 listens on `root_addr`; every other rank dials it. Returns the
/// connected endpoint plus the cluster's node [`Topology`] (from each
/// rank's announced `node` id).
///
/// # Errors
///
/// [`CommError::Bootstrap`] when the cluster cannot form within `boot`
/// (unreachable address, world-size disagreement, duplicate or missing
/// ranks).
pub fn rendezvous(
    rank: usize,
    world: usize,
    root_addr: &str,
    node: u32,
    boot: Duration,
    opts: NetOptions,
) -> Result<(TcpTransport, Topology), CommError> {
    assert!(world > 0, "world must be at least 1");
    assert!(rank < world, "rank {rank} out of range for world {world}");
    if world == 1 {
        let alone = TcpTransport::new(0, vec![None], opts)?;
        return Ok((alone, Topology::new(vec![node as usize])));
    }
    if rank == 0 {
        let listener = TcpListener::bind(root_addr).map_err(|e| {
            boot_err(format!(
                "could not bind rendezvous address {root_addr}: {e}"
            ))
        })?;
        rendezvous_root(listener, world, node, boot, opts)
    } else {
        rendezvous_peer(rank, world, root_addr, node, boot, opts)
    }
}

/// In-process TCP fabrics over loopback: every rank is a thread in this
/// process, but every byte crosses real sockets. The test and benchmark
/// entry point.
pub struct TcpFabric;

impl TcpFabric {
    /// Builds an `n`-rank loopback mesh with the given per-rank node ids
    /// (driving the returned [`Topology`]) and wire-path tuning `opts`.
    ///
    /// # Panics
    ///
    /// Panics if `node_of` is empty or bootstrap fails (loopback
    /// rendezvous failing is a bug, not an environment problem).
    fn build_local_with_nodes(node_of: &[u32], opts: NetOptions) -> (Vec<TcpTransport>, Topology) {
        let world = node_of.len();
        assert!(world > 0, "need at least one rank");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback rendezvous");
        let root_addr = listener
            .local_addr()
            .expect("rendezvous address")
            .to_string();
        let boot = DEFAULT_BOOT_TIMEOUT;
        let results: Vec<(TcpTransport, Topology)> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(world);
            let root_node = node_of[0];
            let root_listener = listener;
            handles.push(s.spawn(move || {
                rendezvous_root(root_listener, world, root_node, boot, opts)
                    .expect("root bootstrap")
            }));
            for (rank, &node) in node_of.iter().enumerate().skip(1) {
                let addr = root_addr.clone();
                handles.push(s.spawn(move || {
                    rendezvous_peer(rank, world, &addr, node, boot, opts).expect("peer bootstrap")
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("bootstrap thread panicked"))
                .collect()
        });
        let topo = results[0].1.clone();
        for (_, t) in &results {
            assert_eq!(*t, topo, "ranks disagree on the topology");
        }
        (results.into_iter().map(|(ep, _)| ep).collect(), topo)
    }

    /// Builds an `n`-rank loopback mesh, all ranks on one node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or bootstrap fails.
    pub fn build_local(n: usize) -> Vec<TcpTransport> {
        Self::build_local_with(n, NetOptions::default())
    }

    /// Builds an `n`-rank loopback mesh with explicit wire-path tuning.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or bootstrap fails.
    pub fn build_local_with(n: usize, opts: NetOptions) -> Vec<TcpTransport> {
        Self::build_local_with_nodes(&vec![0u32; n], opts).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use cgx_collectives::Transport;
    use cgx_compress::Encoded;
    use cgx_tensor::Shape;
    use std::io::Write;

    fn enc(data: &[u8]) -> Encoded {
        Encoded::new(Shape::new(vec![data.len()]), data.to_vec().into())
    }

    #[test]
    fn loopback_mesh_carries_tagged_traffic_all_pairs() {
        let eps = TcpFabric::build_local(3);
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let me = ep.rank();
                    for peer in 0..3 {
                        if peer != me {
                            ep.send_tagged(peer, 7, enc(&[me as u8, peer as u8]))
                                .expect("send");
                        }
                    }
                    for peer in 0..3 {
                        if peer != me {
                            let got = ep.recv_tagged(peer, 7).expect("recv");
                            assert_eq!(got.payload().as_ref(), &[peer as u8, me as u8]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn node_ids_become_the_topology() {
        let (eps, topo) = TcpFabric::build_local_with_nodes(&[0, 0, 1, 1], NetOptions::default());
        assert_eq!(topo, Topology::new(vec![0, 0, 1, 1]));
        assert_eq!(topo.leaders(), vec![0, 2]);
        assert_eq!(eps.len(), 4);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i);
            assert_eq!(ep.world(), 4);
        }
    }

    #[test]
    fn single_rank_world_needs_no_sockets() {
        let boot = Duration::from_secs(1);
        let (t, topo) = rendezvous(0, 1, "unused:0", 3, boot, NetOptions::default()).expect("boot");
        assert_eq!(t.world(), 1);
        assert_eq!(topo, Topology::new(vec![3]));
    }

    #[test]
    fn world_disagreement_fails_bootstrap() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let boot = Duration::from_secs(5);
        std::thread::scope(|s| {
            let opts = NetOptions::default();
            let root = s.spawn(move || rendezvous_root(listener, 2, 0, boot, opts));
            // This peer thinks the world has 3 ranks; the root expects 2.
            let peer = s.spawn(move || rendezvous_peer(1, 3, &addr, 0, boot, opts));
            let root_err = root.join().expect("root thread").expect_err("must fail");
            assert!(
                matches!(root_err, CommError::Bootstrap { ref detail } if detail.contains("world")),
                "got {root_err:?}"
            );
            assert!(peer.join().expect("peer thread").is_err());
        });
    }

    #[test]
    fn root_bootstrap_bounds_a_silent_hello() {
        // A worker that connects and then freezes (or dies without the
        // kernel noticing) before sending HELLO must not hang the root:
        // the handshake read is bounded by the boot budget.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let boot = Duration::from_millis(500);
        std::thread::scope(|s| {
            let opts = NetOptions::default();
            let root = s.spawn(move || rendezvous_root(listener, 3, 0, boot, opts));
            let zombie = TcpStream::connect(&addr).expect("connect");
            let t0 = Instant::now();
            let err = root
                .join()
                .expect("root thread")
                .expect_err("boot must fail");
            assert!(matches!(err, CommError::Bootstrap { .. }), "got {err:?}");
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "silent HELLO took {:?}, budget was 500ms",
                t0.elapsed()
            );
            drop(zombie);
        });
    }

    #[test]
    fn hostile_hello_is_a_bootstrap_error() {
        // What a root may be sent in place of a HELLO: nothing, a frame on
        // another tag, a frame cut short, a length no frame has, and a
        // 1 GiB length, each followed by a close. Each is a typed boot
        // error inside the boot budget, not a panic or a 1 GiB buffer.
        let mut hello = Vec::new();
        send_ctrl(&mut hello, &[MSG_HELLO, 1, 0, 0, 0]).expect("frame");
        let mut other_tag = Vec::new();
        wire::append_frame_header(&mut other_tag, 7, 0, &Shape::new(vec![1]), &[MSG_HELLO]);
        other_tag.push(MSG_HELLO);
        let implausible = [&3u32.to_le_bytes()[..], &[0; 16]].concat();
        let giant = (wire::MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        let hostile = [
            ("nothing", Vec::new()),
            ("another tag", other_tag),
            ("a frame cut short", hello[..hello.len() / 2].to_vec()),
            ("an implausible length", implausible),
            ("a 1 GiB length", giant),
        ];
        let boot = Duration::from_secs(5);
        for (what, bytes) in hostile {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let t0 = Instant::now();
            let opts = NetOptions::default();
            let root =
                std::thread::spawn(move || rendezvous_root(listener, 2, 0, boot, opts).map(|_| ()));
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&bytes).expect("write");
            drop(stream);
            let got = root.join().expect("the root does not panic");
            let typed = matches!(got, Err(CommError::Bootstrap { .. }));
            assert!(typed, "{what}: {got:?}");
            assert!(t0.elapsed() < boot, "{what} took {:?}", t0.elapsed());
        }
    }

    #[test]
    fn wire_bytes_accounting_sees_real_traffic() {
        let eps = TcpFabric::build_local(2);
        let payload = enc(&[9u8; 64]);
        let expected = wire::frame_wire_bytes(1, 64) as u64;
        std::thread::scope(|s| {
            let mut it = eps.into_iter();
            let a = it.next().expect("rank 0");
            let b = it.next().expect("rank 1");
            s.spawn(move || {
                a.send_tagged(1, 5, payload).expect("send");
                assert_eq!(a.wire_bytes_sent(), expected);
            });
            s.spawn(move || {
                let got = b.recv_tagged(0, 5).expect("recv");
                assert_eq!(got.payload_bytes(), 64);
            });
        });
    }
}
