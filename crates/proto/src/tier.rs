//! The front-end tier: one VIP abstraction routing client connections
//! across [`ProtoConfig::front_ends`](crate::ProtoConfig) independent
//! [`FrontEnd`] instances.
//!
//! The paper's §7 runs a single front-end; its scalability discussion
//! (§5.3, Figure 8) argues the front-end CPU is the first wall a
//! cluster hits. This module grows the prototype past that wall: the
//! [`Vip`] owns connection routing for a *tier* of front-ends that
//! together present one virtual server address set.
//!
//! Three protocols meet here, all carried in the
//! [`control`](crate::control) frame format over real loopback streams:
//!
//! * **Admission** — each new client connection is handed to a
//!   front-end through the `phttp-handoff` machines: the shared
//!   [`VipMachine`] runs the [`FeHandoff`] side (connection phases +
//!   forwarding table), each front-end endpoint runs a [`BeHandoff`],
//!   and the request/ack/close exchange travels as
//!   [`ControlMsg::Handoff`] frames on a loopback admission session.
//!   The ack installs a forwarding-table route; the endpoint's close
//!   notification removes it — so `vip.tracked()` counts exactly the
//!   admitted connections still alive. Both ends of a session are one
//!   sans-IO [`AdmissionLink`]; whoever owns the link also owns both
//!   sockets and moves the bytes between them, so a handshake never
//!   crosses a thread. Each reactor shard drives its own links from
//!   socket readiness (`reactor/admit.rs`). [`Vip::admit`] /
//!   [`Vip::release`] drive a per-front-end link with blocking I/O on
//!   the caller's thread; they stay only for inline callers — the
//!   tier's unit tests and the benchmark package's replay — and go
//!   with the next change to that package.
//! * **Gossip** — front-ends exchange dispatcher state peer-to-peer:
//!   every [`GOSSIP_INTERVAL`] each front-end publishes a
//!   [`phttp_core::StateDelta`] (its own loads plus the believed
//!   mapping for the targets it *owns* — the whole share on its first
//!   round and after a ring change, otherwise only the targets whose
//!   belief changed since its previous round) as
//!   [`ControlMsg::StateDelta`] frames on pairwise loopback sessions.
//!   Reactor shard 0 owns both ends of every session and delivers the
//!   rounds from its loop (`reactor/gossip.rs`); this module builds
//!   and applies the deltas (`Vip::make_delta_frame`,
//!   `Vip::apply_delta`) and runs no thread. Receivers fold deltas
//!   into a per-front-end [`TierView`]
//!   (last-writer-wins per target — the merge is commutative and
//!   idempotent, so delivery order and duplication cannot diverge the
//!   views) and adopt the diff into their own dispatcher: mapping
//!   upserts via [`FrontEnd::adopt_merge`], aggregate peer load via
//!   [`FrontEnd::set_remote_loads`]. A non-owner front-end thus
//!   decides from its possibly-stale merged view; the owner is the
//!   authority that republishes.
//! * **Ownership** — a consistent-hash [`Ring`] partitions targets
//!   across the tier. Each front-end gossips mapping state only for
//!   its share, so authority is disjoint; killing a front-end
//!   re-owns its share onto the survivors with bounded movement
//!   (see `crates/core/tests/tier_props.rs`).
//!
//! A tier of one is never constructed — `Cluster::start` only builds a
//! [`Vip`] when `front_ends > 1`, so the single-front-end fast path is
//! byte-for-byte the pre-tier prototype.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{LockClass, Mutex, RwLock};
use phttp_core::{ConnId, FeId, NodeId, Ring, TierView};
use phttp_handoff::machine::{Action, BeHandoff, FeHandoff};
use phttp_handoff::messages::{CtrlMsg, TcpHandoffState};
use phttp_handoff::ClientKey;
use phttp_trace::TargetId;

use crate::control::{encode, ControlMsg, DecodeError, FrameDecoder};
use crate::frontend::FrontEnd;

/// Spacing between gossip rounds: fresher non-owner views against more
/// control traffic, the tier analogue of
/// [`ProtoConfig::feedback_interval`](crate::ProtoConfig).
pub const GOSSIP_INTERVAL: Duration = Duration::from_millis(2);

/// How long an admission handshake may wait for its ack. Loopback
/// round-trips are microseconds; hitting this means the endpoint died.
pub(crate) const ADMIT_TIMEOUT: Duration = Duration::from_secs(2);

/// Derives the handoff-machine client key from a client's socket
/// address (the 4-tuple key the paper's kernel module hashes on).
pub fn client_key(addr: SocketAddr) -> ClientKey {
    let ip = match addr.ip() {
        IpAddr::V4(v4) => u32::from_be_bytes(v4.octets()),
        // The prototype only speaks loopback IPv4; fold v6 into a
        // stable surrogate just in case.
        IpAddr::V6(v6) => v6
            .octets()
            .iter()
            .fold(0u32, |a, &b| a.rotate_left(8) ^ b as u32),
    };
    ClientKey {
        ip,
        port: addr.port(),
    }
}

/// What every admission link of one tier shares: the Vip-side handoff
/// machine (connection phases plus the forwarding table) and the
/// ticket allocator.
pub struct VipMachine {
    fe: Mutex<FeHandoff>,
    next_conn: AtomicU64,
}

impl VipMachine {
    /// An empty machine.
    pub fn new() -> Arc<VipMachine> {
        Arc::new(VipMachine {
            fe: Mutex::new_classed(LockClass::vip_machine(), FeHandoff::new()),
            next_conn: AtomicU64::new(0),
        })
    }

    /// Connections begun on any link and not yet closed.
    pub fn tracked(&self) -> usize {
        self.fe.lock().len()
    }
}

/// One handshake's answer, decoded at the Vip end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The ticket [`AdmissionLink::begin`] returned.
    pub conn: ConnId,
    /// `false`: the endpoint refused; the machine has already dropped
    /// the connection.
    pub accepted: bool,
}

/// Both ends of one Vip↔front-end admission session, with no I/O: the
/// Vip end turns [`begin`](Self::begin) into handoff-request frames and
/// decodes acks and close notifications into the shared [`VipMachine`];
/// the endpoint end runs the front-end's [`BeHandoff`], answering
/// requests and turning [`release`](Self::release) into close frames.
///
/// The owner holds the session's two sockets and is the only thing
/// that moves bytes: whatever [`vip_out`](Self::vip_out) holds goes on
/// the Vip end's socket and comes back through
/// [`on_endpoint_bytes`](Self::on_endpoint_bytes), and symmetrically
/// for [`endpoint_out`](Self::endpoint_out) and
/// [`on_vip_bytes`](Self::on_vip_bytes). Frames are decoded
/// incrementally, so the wire may fragment or coalesce them freely.
pub struct AdmissionLink {
    f: usize,
    machine: Arc<VipMachine>,
    be: BeHandoff,
    vip_rx: FrameDecoder,
    endpoint_rx: FrameDecoder,
    vip_tx: Vec<u8>,
    endpoint_tx: Vec<u8>,
    /// Bytes reported sent from each end and not yet fed to the other.
    to_endpoint: usize,
    to_vip: usize,
    /// Released tickets whose close frame the Vip end has not decoded
    /// yet, oldest first: the routes [`fail`](Self::fail) must unwind
    /// itself, because the endpoint has already let go of them.
    closing: VecDeque<ConnId>,
    /// The session broke ([`fail`](Self::fail)): nothing more crosses
    /// it, and releases unwind directly.
    dead: bool,
}

impl AdmissionLink {
    /// A link admitting to front-end `f`.
    pub fn new(f: usize, machine: Arc<VipMachine>) -> AdmissionLink {
        AdmissionLink {
            f,
            machine,
            be: BeHandoff::new(NodeId(f), 0),
            vip_rx: FrameDecoder::new(),
            endpoint_rx: FrameDecoder::new(),
            vip_tx: Vec::new(),
            endpoint_tx: Vec::new(),
            to_endpoint: 0,
            to_vip: 0,
            closing: VecDeque::new(),
            dead: false,
        }
    }

    /// The front-end this link admits to.
    pub fn front_end(&self) -> usize {
        self.f
    }

    /// Starts handing a connection from `client` to this link's
    /// front-end: queues the handoff request at the Vip end and returns
    /// the ticket its [`Ack`] will carry.
    pub fn begin(&mut self, client: ClientKey) -> ConnId {
        let conn = ConnId(self.machine.next_conn.fetch_add(1, Ordering::Relaxed));
        let tcp = TcpHandoffState {
            client_ip: client.ip,
            client_port: client.port,
            local_port: 80,
            snd_nxt: 0,
            rcv_nxt: 0,
            snd_wnd: 65535,
            mss: 1460,
        };
        let actions =
            self.machine
                .fe
                .lock()
                .start_handoff(conn, client, NodeId(self.f), tcp, Vec::new());
        for action in actions {
            if let Action::SendCtrl { msg, .. } = action {
                queue_frame(&mut self.vip_tx, msg);
            }
        }
        conn
    }

    /// The admitted connection `conn` has ended: the endpoint drops it
    /// and queues the close notification that removes its route. On a
    /// dead link there is no wire left to carry the close, so the route
    /// is unwound directly.
    pub fn release(&mut self, conn: ConnId) {
        if self.dead {
            self.abandon(conn);
        } else if let Some(close) = self.be.release(conn, true) {
            queue_frame(&mut self.endpoint_tx, close);
            self.closing.push_back(conn);
        }
    }

    /// Unwinds `conn` at both ends without touching the wire: for a
    /// handshake that will not complete (timeout, dead session,
    /// teardown) or whose ack lost the race with a decommission.
    pub fn abandon(&mut self, conn: ConnId) {
        let _ = self
            .machine
            .fe
            .lock()
            .on_ctrl(NodeId(self.f), CtrlMsg::ConnClosed { conn });
        self.be.release(conn, false);
    }

    /// The session's wire broke, desynchronized or timed out. The link
    /// is dead from here on — drivers stop admitting through it
    /// ([`is_dead`](Self::is_dead)) and drop or deregister its sockets
    /// — and goes quiet at once: whatever was queued or in flight is
    /// discarded, and the routes of the closes lost with it are unwound
    /// here. Handshakes still waiting for an ack are the driver's to
    /// [`abandon`](Self::abandon); it holds their tickets.
    pub fn fail(&mut self) {
        self.dead = true;
        self.vip_tx.clear();
        self.endpoint_tx.clear();
        self.to_endpoint = 0;
        self.to_vip = 0;
        let mut fe = self.machine.fe.lock();
        for conn in self.closing.drain(..) {
            let _ = fe.on_ctrl(NodeId(self.f), CtrlMsg::ConnClosed { conn });
        }
    }

    /// Whether [`fail`](Self::fail) has been called.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Bytes the Vip end owes its socket.
    pub fn vip_out(&self) -> &[u8] {
        &self.vip_tx
    }

    /// Bytes the endpoint end owes its socket.
    pub fn endpoint_out(&self) -> &[u8] {
        &self.endpoint_tx
    }

    /// The Vip end's socket took the first `n` bytes of
    /// [`vip_out`](Self::vip_out).
    pub fn vip_sent(&mut self, n: usize) {
        self.vip_tx.drain(..n);
        self.to_endpoint += n;
    }

    /// The endpoint end's socket took the first `n` bytes of
    /// [`endpoint_out`](Self::endpoint_out).
    pub fn endpoint_sent(&mut self, n: usize) {
        self.endpoint_tx.drain(..n);
        self.to_vip += n;
    }

    /// Nothing queued and nothing on the wire in either direction:
    /// every frame produced so far has had its effect.
    pub fn quiet(&self) -> bool {
        self.vip_tx.is_empty() && self.endpoint_tx.is_empty() && self.to_endpoint + self.to_vip == 0
    }

    /// Whether the endpoint owns no connection.
    pub fn endpoint_is_empty(&self) -> bool {
        self.be.is_empty()
    }

    /// Caps how many connections the endpoint accepts before it starts
    /// refusing handoffs (production endpoints are uncapped).
    #[cfg(test)]
    pub(crate) fn set_endpoint_capacity(&mut self, capacity: usize) {
        self.be.capacity = capacity;
    }

    /// Bytes read from the endpoint end's socket: handoff requests,
    /// each answered with an ack queued on
    /// [`endpoint_out`](Self::endpoint_out). An error poisons the
    /// session.
    pub fn on_endpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        self.to_endpoint = self.to_endpoint.saturating_sub(bytes.len());
        self.endpoint_rx.feed(bytes);
        while let Some(msg) = self.endpoint_rx.next()? {
            let ControlMsg::Handoff(msg) = msg else {
                continue;
            };
            if let Some(reply) = self.be.on_ctrl(msg) {
                queue_frame(&mut self.endpoint_tx, reply);
            }
        }
        Ok(())
    }

    /// Bytes read from the Vip end's socket: acks (appended to `acks`
    /// once the machine has taken them) and close notifications, all
    /// applied under one acquisition of the machine. An error poisons
    /// the session.
    pub fn on_vip_bytes(&mut self, bytes: &[u8], acks: &mut Vec<Ack>) -> Result<(), DecodeError> {
        self.to_vip = self.to_vip.saturating_sub(bytes.len());
        self.vip_rx.feed(bytes);
        let mut fe = self.machine.fe.lock();
        while let Some(msg) = self.vip_rx.next()? {
            let ControlMsg::Handoff(msg) = msg else {
                continue;
            };
            match msg {
                CtrlMsg::HandoffAck { conn, accepted } => {
                    if fe.on_ctrl(NodeId(self.f), msg).is_ok() {
                        acks.push(Ack { conn, accepted });
                    } else if accepted {
                        // The handshake was abandoned while its request
                        // was on the wire; nobody will release what the
                        // endpoint just accepted, so it goes now.
                        self.be.release(conn, false);
                    }
                }
                CtrlMsg::ConnClosed { conn } => {
                    // Closes arrive in release order.
                    if let Some(pos) = self.closing.iter().position(|&c| c == conn) {
                        self.closing.remove(pos);
                    }
                    // Unknown conns are fine: the route was unwound by
                    // an abandon that raced this close.
                    let _ = fe.on_ctrl(NodeId(self.f), msg);
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Appends `msg`'s control frame to an outbound buffer.
fn queue_frame(out: &mut Vec<u8>, msg: CtrlMsg) {
    out.extend_from_slice(&encode(&ControlMsg::Handoff(msg)));
}

/// A connected loopback stream pair through `listener`.
pub(crate) fn loopback_pair(listener: &TcpListener) -> io::Result<(TcpStream, TcpStream)> {
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

/// A link the caller drives to completion on its own thread: the
/// blocking driver behind [`Vip::admit`] and [`Vip::release`], kept for
/// inline callers only (it goes with them).
struct BlockingLink {
    link: AdmissionLink,
    vip_end: TcpStream,
    endpoint_end: TcpStream,
}

impl BlockingLink {
    /// Carries every queued frame across the wire and applies it at the
    /// other end, until the link is quiet. Nothing else touches these
    /// sockets and every call leaves them empty, so a write never
    /// blocks and a read only ever waits for bytes this thread sent.
    /// A wire error or [`ADMIT_TIMEOUT`] fails the link, which is
    /// quiet — nothing left to carry — ever after.
    fn run(&mut self, acks: &mut Vec<Ack>) -> io::Result<()> {
        let ran = self.carry(acks);
        if ran.is_err() {
            self.link.fail();
        }
        ran
    }

    fn carry(&mut self, acks: &mut Vec<Ack>) -> io::Result<()> {
        let mut buf = [0u8; 4096];
        while !self.link.quiet() {
            let n = self.link.vip_out().len();
            if n > 0 {
                self.vip_end.write_all(self.link.vip_out())?;
                self.link.vip_sent(n);
            }
            let n = self.link.endpoint_out().len();
            if n > 0 {
                self.endpoint_end.write_all(self.link.endpoint_out())?;
                self.link.endpoint_sent(n);
            }
            if self.link.to_endpoint > 0 {
                let n = read_some(&mut self.endpoint_end, &mut buf)?;
                self.link.on_endpoint_bytes(&buf[..n])?;
            } else if self.link.to_vip > 0 {
                let n = read_some(&mut self.vip_end, &mut buf)?;
                self.link.on_vip_bytes(&buf[..n], acks)?;
            }
        }
        Ok(())
    }
}

/// One blocking read of at least one byte; EOF is an error here.
fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One connection's round-robin walk over the tier's live front-ends
/// (see [`Vip::next_candidate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    start: usize,
    tried: usize,
}

/// One front-end's tier-local state: merged peer view, gossip
/// sequence, and publish serialization.
struct FeTier {
    view: Mutex<TierView>,
    seq: AtomicU64,
    /// Held across (seq bump, journal drain, deliver) so two concurrent
    /// publishes for one origin cannot emit reordered payloads under
    /// ordered sequence numbers.
    publish: Mutex<()>,
    /// The next delta must carry the whole owned share: set at start
    /// (peers know nothing yet) and when the ring hands this front-end
    /// targets whose earlier changes it never journaled as its own.
    resync: AtomicBool,
    /// Connections admitted to this front-end (lifetime counter).
    admitted: AtomicU64,
}

/// The VIP router over a tier of front-ends.
pub struct Vip {
    fes: Vec<Arc<FrontEnd>>,
    alive: Vec<AtomicBool>,
    ring: RwLock<Ring>,
    /// The Vip-side handoff machine, shared by every link of the tier
    /// (these and the reactor shards' own).
    machine: Arc<VipMachine>,
    /// The blocking driver's links, one per front-end. The lock
    /// serializes whole exchanges: a caller drives both ends of the
    /// session under it.
    links: Vec<Mutex<BlockingLink>>,
    tiers: Vec<FeTier>,
    /// Bytes the gossip sessions' sockets have taken (lifetime counter).
    gossip_bytes: AtomicU64,
    rr: AtomicUsize,
    handoffs: AtomicU64,
    fe_kills: AtomicU64,
}

impl Vip {
    /// Builds the tier plumbing over `fes`. It starts nothing: reactor
    /// shards admit over links of their own, and shard 0 carries the
    /// gossip.
    ///
    /// # Panics
    ///
    /// Panics if `fes.len() < 2` (a tier of one is the plain
    /// single-front-end cluster and must not pay any of this) or if
    /// loopback sockets cannot be bound.
    pub fn new(fes: Vec<Arc<FrontEnd>>) -> Arc<Vip> {
        let m = fes.len();
        assert!(m >= 2, "a front-end tier needs at least two front-ends");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind tier listener");
        let machine = VipMachine::new();
        let links = (0..m)
            .map(|f| {
                let (vip_end, endpoint_end) =
                    loopback_pair(&listener).expect("connect tier session");
                for end in [&vip_end, &endpoint_end] {
                    end.set_read_timeout(Some(ADMIT_TIMEOUT))
                        .expect("set tier session timeout");
                }
                Mutex::new_classed(
                    LockClass::admit_session(f as u32),
                    BlockingLink {
                        link: AdmissionLink::new(f, machine.clone()),
                        vip_end,
                        endpoint_end,
                    },
                )
            })
            .collect();

        let num_nodes = fes[0].nodes().len();
        Arc::new(Vip {
            alive: (0..m).map(|_| AtomicBool::new(true)).collect(),
            ring: RwLock::new_classed(LockClass::ring(), Ring::new(m)),
            machine,
            links,
            tiers: (0..m)
                .map(|f| FeTier {
                    view: Mutex::new_classed(
                        LockClass::tier_view(f as u32),
                        TierView::new(FeId(f), num_nodes),
                    ),
                    seq: AtomicU64::new(0),
                    publish: Mutex::new_classed(LockClass::gossip_publish(f as u32), ()),
                    resync: AtomicBool::new(true),
                    admitted: AtomicU64::new(0),
                })
                .collect(),
            gossip_bytes: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            handoffs: AtomicU64::new(0),
            fe_kills: AtomicU64::new(0),
            fes,
        })
    }

    /// Number of front-ends in the tier (killed ones included).
    pub fn front_ends(&self) -> usize {
        self.fes.len()
    }

    /// The tier's front-end instances.
    pub fn fes(&self) -> &[Arc<FrontEnd>] {
        &self.fes
    }

    /// Successful admission handshakes so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(Ordering::Relaxed)
    }

    /// Connections admitted to front-end `f` so far.
    pub fn admitted(&self, f: usize) -> u64 {
        self.tiers[f].admitted.load(Ordering::Relaxed)
    }

    /// Front-ends killed via [`kill_frontend`](Self::kill_frontend).
    pub fn fe_kills(&self) -> u64 {
        self.fe_kills.load(Ordering::Relaxed)
    }

    /// Whether front-end `f` still takes new connections.
    pub fn is_alive(&self, f: usize) -> bool {
        self.alive[f].load(Ordering::Relaxed)
    }

    /// The front-end currently owning `target`'s mapping authority.
    pub fn ring_owner(&self, target: TargetId) -> FeId {
        self.ring.read().owner(target)
    }

    /// Admitted connections the Vip still tracks (drops to zero once
    /// every connection's close notification has been processed).
    pub fn tracked(&self) -> usize {
        self.machine.tracked()
    }

    /// Gossip rounds published by front-end `f`.
    pub fn gossip_seq(&self, f: usize) -> u64 {
        self.tiers[f].seq.load(Ordering::Relaxed)
    }

    /// Bytes the tier has written to its gossip sessions so far (frame
    /// headers included; [`sync_now`](Self::sync_now) bypasses the wire
    /// and is not counted).
    pub fn gossip_bytes(&self) -> u64 {
        self.gossip_bytes.load(Ordering::Relaxed)
    }

    /// A gossip session's socket took `n` more bytes.
    pub(crate) fn count_gossip_bytes(&self, n: usize) {
        self.gossip_bytes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Routes a new client connection: picks a live front-end round
    /// robin and runs the handoff-request/ack exchange on its
    /// admission link, on the caller's thread. Returns the chosen
    /// front-end index plus the tier-level connection id (release it
    /// with [`release`](Self::release) when the connection ends), or
    /// `None` if no front-end admitted the connection. The reactor
    /// admits on its own links; this blocking driver stays only for
    /// inline callers and goes with the next change to the benchmark
    /// package, which names it.
    pub fn admit(&self, client: ClientKey) -> Option<(usize, ConnId)> {
        let mut cursor = self.cursor();
        while let Some(f) = self.next_candidate(&mut cursor) {
            if let Some(conn) = self.admit_to(f, client) {
                return Some((f, conn));
            }
        }
        None
    }

    /// Any live front-end (fallback when a handshake fails: the
    /// connection is still served, just untracked by the tier).
    pub fn any_alive(&self) -> usize {
        (0..self.fes.len())
            .find(|&f| self.alive[f].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The shared handoff machine, for a driver building its own links.
    pub(crate) fn machine(&self) -> Arc<VipMachine> {
        self.machine.clone()
    }

    /// Starts one connection's walk over the tier at the next
    /// round-robin position.
    pub(crate) fn cursor(&self) -> Cursor {
        Cursor {
            start: self.rr.fetch_add(1, Ordering::Relaxed),
            tried: 0,
        }
    }

    /// The next live front-end `cursor` has not tried yet; `None` once
    /// the walk has been all the way round (the connection then falls
    /// through to [`any_alive`](Self::any_alive), untracked).
    pub(crate) fn next_candidate(&self, cursor: &mut Cursor) -> Option<usize> {
        let m = self.fes.len();
        while cursor.tried < m {
            let f = (cursor.start + cursor.tried) % m;
            cursor.tried += 1;
            if self.alive[f].load(Ordering::Relaxed) {
                return Some(f);
            }
        }
        None
    }

    /// Decides a decoded ack, identically for both drivers. A refusal
    /// fails. An acceptance re-checks liveness *after* the ack:
    /// `kill_frontend` may have decommissioned the front-end between
    /// the round-robin pick and the ack arriving, and the route just
    /// installed would then track a front-end the tier no longer admits
    /// to — it is unwound at both ends and the handshake fails, so the
    /// caller retries on a survivor. Success is counted here.
    pub(crate) fn settle(&self, link: &mut AdmissionLink, ack: Ack) -> bool {
        if !ack.accepted {
            return false;
        }
        let f = link.front_end();
        if !self.alive[f].load(Ordering::SeqCst) {
            link.abandon(ack.conn);
            return false;
        }
        self.handoffs.fetch_add(1, Ordering::Relaxed);
        self.tiers[f].admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One admission handshake against front-end `f`.
    fn admit_to(&self, f: usize, client: ClientKey) -> Option<ConnId> {
        let mut guard = self.links[f].lock();
        let l = &mut *guard;
        if l.link.is_dead() {
            return None;
        }
        let conn = l.link.begin(client);
        let mut acks = Vec::with_capacity(1);
        if l.run(&mut acks).is_err() {
            l.link.abandon(conn);
            return None;
        }
        // Every exchange runs to quiet under the lock, so the one ack
        // this one decoded is its own.
        let ack = acks.pop().expect("a quiet link has answered its request");
        debug_assert_eq!(ack.conn, conn);
        self.settle(&mut l.link, ack).then_some(conn)
    }

    /// The connection admitted to `f` as `conn` has ended: the
    /// endpoint releases it and its close notification crosses the
    /// session back to the Vip machine (removing the forwarding-table
    /// route) before this returns. Goes with [`admit`](Self::admit).
    pub fn release(&self, f: usize, conn: ConnId) {
        let mut l = self.links[f].lock();
        l.link.release(conn);
        // A session that breaks under the close unwinds the route in
        // `fail`; one already dead did so in `release`.
        let _ = l.run(&mut Vec::new());
    }

    /// Takes front-end `f` out of the tier: new connections stop
    /// routing to it, its ring share is re-owned by the survivors, and
    /// its gossiped state (load bias, origin authority) is dropped
    /// from every survivor's view. In-flight connections keep draining
    /// on `f`'s still-running instance — a control-plane
    /// decommission, not a process kill — so no admitted request is
    /// lost. A handshake whose ack races this decommission is unwound
    /// by the post-ack liveness re-check (`settle`, shared by both drivers)
    /// and retried on a survivor, so the forwarding table never leaks
    /// a route to `f`. Returns `false` if `f` was already dead or is
    /// the last live front-end.
    pub fn kill_frontend(&self, f: usize) -> bool {
        let live = (0..self.fes.len())
            .filter(|&g| self.alive[g].load(Ordering::Relaxed))
            .count();
        if live <= 1 || !self.alive[f].swap(false, Ordering::SeqCst) {
            return false;
        }
        self.fe_kills.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.ring.write();
            if ring.contains(FeId(f)) && ring.len() > 1 {
                ring.remove_fe(FeId(f));
            }
        }
        for g in 0..self.fes.len() {
            if g == f || !self.alive[g].load(Ordering::Relaxed) {
                continue;
            }
            // Set after the ring write, read before the ring read: a
            // publish that sees the flag drains under the new ring.
            self.tiers[g].resync.store(true, Ordering::SeqCst);
            // Drop the dead origin's authority and load bias. Its
            // already-adopted mapping beliefs stay: the caches they
            // describe did not die with the front-end, and the
            // survivors now republish for the re-owned share.
            let loads = {
                let mut view = self.tiers[g].view.lock();
                view.drop_origin(FeId(f));
                view.remote_load_fixed()
            };
            self.fes[g].set_remote_loads(&loads);
        }
        true
    }

    /// Builds `f`'s next [`StateDelta`](phttp_core::StateDelta): its
    /// loads and what changed in its owned share since its previous
    /// delta, or the whole share when a resync is due (`None` once `f`
    /// is dead — a killed origin must stop publishing, or survivors
    /// would resurrect its authority).
    fn make_delta(&self, f: usize) -> Option<phttp_core::StateDelta> {
        if !self.alive[f].load(Ordering::Relaxed) {
            return None;
        }
        let tier = &self.tiers[f];
        let _g = tier.publish.lock();
        let seq = tier.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let full = tier.resync.swap(false, Ordering::SeqCst);
        let ring = self.ring.read();
        Some(self.fes[f].gossip_delta(FeId(f), seq, full, &ring))
    }

    /// [`make_delta`](Self::make_delta), encoded as the
    /// [`ControlMsg::StateDelta`] frame the gossip mesh carries.
    pub(crate) fn make_delta_frame(&self, f: usize) -> Option<Vec<u8>> {
        self.make_delta(f)
            .map(|delta| encode(&ControlMsg::StateDelta(delta)))
    }

    /// Folds a received delta into front-end `f`'s view and adopts
    /// the diff into its dispatcher.
    pub(crate) fn apply_delta(&self, f: usize, delta: &phttp_core::StateDelta) {
        let (outcome, loads) = {
            let mut view = self.tiers[f].view.lock();
            let outcome = view.merge(delta);
            (outcome, view.remote_load_fixed())
        };
        if outcome.applied {
            self.fes[f].adopt_merge(&outcome);
            self.fes[f].set_remote_loads(&loads);
        }
    }

    /// One synchronous gossip exchange, bypassing the wire: every live
    /// front-end's current delta is merged into every other live view
    /// *now*. `Cluster::quiesce` runs this after traffic drains so
    /// remote load biases settle to their true (zero) values before
    /// callers assert on load conservation; the wire path converges to
    /// the same state, just asynchronously.
    pub fn sync_now(&self) {
        let m = self.fes.len();
        for f in 0..m {
            let Some(delta) = self.make_delta(f) else {
                continue;
            };
            for g in 0..m {
                if g != f && self.alive[g].load(Ordering::Relaxed) {
                    self.apply_delta(g, &delta);
                }
            }
        }
    }

    /// Waits until every admitted connection's close notification has
    /// been processed (the tier-level half of `Cluster::quiesce`),
    /// then settles the views with [`sync_now`](Self::sync_now).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.tracked() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.sync_now();
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::node::DiskEmu;
    use crate::node::NodeState;
    use crate::reactor::{self, ReactorConfig, ReactorHandle};
    use crate::store::ContentStore;
    use phttp_core::{LardParams, Mechanism, PolicyKind};

    /// A tier of `m` front-ends over `nodes` nodes. Nothing runs it: a
    /// delta is built only when the test asks for one.
    pub(crate) fn tier(m: usize, nodes: usize) -> (Arc<Vip>, Vec<Arc<FrontEnd>>) {
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 32]));
        let node_states: Vec<Arc<NodeState>> = (0..nodes)
            .map(|i| {
                Arc::new(NodeState::new(
                    NodeId(i),
                    1 << 20,
                    DiskEmu::default(),
                    store.clone(),
                    Vec::new(),
                ))
            })
            .collect();
        let fes: Vec<Arc<FrontEnd>> = (0..m)
            .map(|_| {
                Arc::new(
                    FrontEnd::new(
                        PolicyKind::ExtLard,
                        Mechanism::BackendForwarding,
                        LardParams::default(),
                        node_states.clone(),
                    )
                    .expect("supported mechanism"),
                )
            })
            .collect();
        (Vip::new(fes.clone()), fes)
    }

    /// A tier whose gossip runs on a real reactor shard — one shard, no
    /// listeners, no peer listeners — until the handle shuts down.
    fn gossiping_tier(m: usize, nodes: usize) -> (Arc<Vip>, Vec<Arc<FrontEnd>>, ReactorHandle) {
        let (vip, fes) = tier(m, nodes);
        let shard = reactor::spawn(
            ReactorConfig {
                migration_delay: Duration::ZERO,
                read_timeout: Duration::from_secs(5),
                shards: 1,
                peer_pool_cap: 1,
                health_tick: Duration::ZERO,
            },
            fes.clone(),
            Some(vip.clone()),
            fes[0].nodes()[0].store.clone(),
            vec![Vec::new()],
            Vec::new(),
        )
        .expect("spawn a shard");
        (vip, fes, shard)
    }

    pub(crate) fn key(port: u16) -> ClientKey {
        ClientKey {
            ip: 0x7F00_0001,
            port,
        }
    }

    fn cap_endpoint(vip: &Vip, f: usize, capacity: usize) {
        vip.links[f].lock().link.set_endpoint_capacity(capacity);
    }

    fn endpoints_empty(vip: &Vip) -> bool {
        vip.links.iter().all(|l| l.lock().link.endpoint_is_empty())
    }

    #[test]
    fn admission_round_robins_and_close_unwinds() {
        let (vip, _fes) = tier(2, 2);
        let mut admitted = Vec::new();
        for p in 0..6 {
            let (f, conn) = vip.admit(key(40_000 + p)).expect("admit");
            admitted.push((f, conn));
        }
        assert_eq!(vip.handoffs(), 6);
        assert_eq!(vip.tracked(), 6);
        assert_eq!(vip.admitted(0), 3);
        assert_eq!(vip.admitted(1), 3);
        for (f, conn) in admitted {
            vip.release(f, conn);
        }
        assert!(vip.quiesce(Duration::from_secs(2)), "closes must drain");
    }

    /// A release has crossed the wire and unwound the route by the
    /// time it returns: the blocking driver leaves nothing in flight.
    #[test]
    fn release_is_synchronous_and_exactly_once() {
        let (vip, _fes) = tier(2, 2);
        let (f, conn) = vip.admit(key(40_100)).expect("admit");
        assert_eq!(vip.tracked(), 1);
        vip.release(f, conn);
        assert_eq!(vip.tracked(), 0, "the close had not landed on return");
        assert!(endpoints_empty(&vip));
        // A second release of the same ticket finds nothing to unwind.
        let (g, other) = vip.admit(key(40_101)).expect("admit");
        vip.release(f, conn);
        assert_eq!(vip.tracked(), 1, "a stale release took a live route");
        vip.release(g, other);
        assert_eq!(vip.tracked(), 0);
    }

    /// A refusing endpoint passes the connection on round the tier;
    /// when every front-end refuses, `admit` reports failure (callers
    /// then serve the connection untracked on `any_alive`) and leaves
    /// nothing behind in the machine.
    #[test]
    fn refusal_falls_through_round_robin_then_to_untracked() {
        let (vip, _fes) = tier(2, 2);
        cap_endpoint(&vip, 0, 1);
        cap_endpoint(&vip, 1, 1);
        let a = vip.admit(key(40_200)).expect("first fits");
        let b = vip.admit(key(40_201)).expect("second fits");
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(vip.admit(key(40_202)), None, "both endpoints are full");
        assert_eq!(vip.tracked(), 2, "a refused handshake left a route");
        assert_eq!(vip.handoffs(), 2, "a refusal is not a handoff");
        assert_eq!(vip.any_alive(), 0);
        // Room on 0 again: the walk starts at 1, is refused there, and
        // lands on 0.
        vip.release(a.0, a.1);
        let d = vip
            .admit(key(40_203))
            .expect("retried on the next front-end");
        assert_eq!(d.0, 0);
        assert_eq!((vip.admitted(0), vip.admitted(1)), (2, 1));
        vip.release(b.0, b.1);
        vip.release(d.0, d.1);
        assert_eq!(vip.tracked(), 0);
        assert!(endpoints_empty(&vip));
    }

    /// A session whose wire breaks is skipped from then on, and a
    /// ticket it admitted earlier still releases (directly — there is
    /// no wire left to carry the close).
    #[test]
    fn dead_link_is_skipped_and_its_tickets_still_release() {
        let (vip, _fes) = tier(2, 2);
        let a = vip.admit(key(40_300)).expect("admit");
        assert_eq!(a.0, 0);
        vip.links[0]
            .lock()
            .endpoint_end
            .shutdown(std::net::Shutdown::Both)
            .expect("break the session");
        let mut later = Vec::new();
        for p in 0..4 {
            let (f, conn) = vip.admit(key(40_301 + p)).expect("the survivor admits");
            assert_eq!(f, 1, "admitted over a broken session");
            later.push((f, conn));
        }
        assert_eq!(vip.tracked(), 5, "the failed handshakes left routes");
        vip.release(a.0, a.1);
        for (f, conn) in later {
            vip.release(f, conn);
        }
        assert_eq!(vip.tracked(), 0);
        assert!(endpoints_empty(&vip));
    }

    /// A release is what finds the session broken: the endpoint has let
    /// go of the connection and the close has nowhere to go, so failing
    /// the link unwinds the route.
    #[test]
    fn a_close_lost_with_its_session_still_unwinds_the_route() {
        let (vip, _fes) = tier(2, 2);
        let a = vip.admit(key(40_350)).expect("admit");
        vip.links[a.0]
            .lock()
            .vip_end
            .shutdown(std::net::Shutdown::Both)
            .expect("break the session");
        vip.release(a.0, a.1);
        assert_eq!(vip.tracked(), 0, "the lost close left its route");
        assert!(vip.links[a.0].lock().link.is_dead());
    }

    /// An endpoint that never answers: the handshake gives up at the
    /// session's read timeout, unwinds, and the connection is admitted
    /// elsewhere.
    #[test]
    fn unanswered_handshake_times_out_and_moves_on() {
        let (vip, _fes) = tier(2, 2);
        // Wedge session 0: its requests now reach a socket nobody
        // reads, and the end the driver reads is fed by nobody.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (_feeder, silent) = loopback_pair(&listener).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let _unread = std::mem::replace(&mut vip.links[0].lock().endpoint_end, silent);
        let started = Instant::now();
        let (f, conn) = vip.admit(key(40_400)).expect("the survivor admits");
        assert_eq!(f, 1);
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert_eq!(vip.tracked(), 1, "the timed-out handshake left a route");
        vip.release(f, conn);
        assert_eq!(vip.tracked(), 0);
    }

    #[test]
    fn gossip_biases_peer_loads_and_settles_to_zero() {
        let (vip, fes) = tier(2, 3);
        // Load up front-end 0 only.
        let c = fes[0].alloc_conn();
        fes[0].open_connection(c, TargetId(1));
        vip.sync_now();
        // Front-end 1 must now see 0's load as a remote bias.
        let biased: f64 = fes[1].loads().iter().sum();
        assert!(
            biased > 0.0,
            "peer load must bias the non-owner's view, got {biased}"
        );
        // The mapping authority travelled too: whichever front-end owns
        // target 1 on the ring, front-end 1 now believes the mapping
        // front-end 0 installed (if 0 owns it).
        fes[0].close_connection(c);
        vip.sync_now();
        let settled: f64 = fes[1].loads().iter().sum();
        assert!(
            settled.abs() < 1e-9,
            "after close + sync the bias must settle to zero, got {settled}"
        );
    }

    #[test]
    fn wire_gossip_converges_without_sync_now() {
        let (_vip, fes, shard) = gossiping_tier(2, 2);
        let c = fes[0].alloc_conn();
        fes[0].open_connection(c, TargetId(0));
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if fes[1].loads().iter().sum::<f64>() > 0.0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "wire gossip never delivered the load bias"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fes[0].close_connection(c);
        shard.shutdown();
    }

    #[test]
    fn kill_reowns_partition_and_stops_admission() {
        let (vip, fes) = tier(3, 2);
        // Give front-end 1 some gossiped authority first.
        let c = fes[1].alloc_conn();
        fes[1].open_connection(c, TargetId(5));
        vip.sync_now();
        assert!(vip.kill_frontend(1));
        assert!(!vip.is_alive(1));
        assert!(!vip.kill_frontend(1), "double kill is a no-op");
        // Its entire share is re-owned by survivors.
        for t in 0..512 {
            let owner = vip.ring_owner(TargetId(t));
            assert_ne!(owner, FeId(1), "target {t} still owned by the dead FE");
        }
        // New admissions only land on survivors.
        for p in 0..9 {
            let (f, conn) = vip.admit(key(41_000 + p)).expect("admit");
            assert_ne!(f, 1);
            vip.release(f, conn);
        }
        // Survivors no longer carry the dead origin's load bias.
        vip.sync_now();
        for g in [0usize, 2] {
            assert!(
                fes[g].loads().iter().sum::<f64>().abs() < 1e-9
                    || fes[g].loads().iter().sum::<f64>() >= 0.0
            );
        }
        // In-flight state on the dead FE still drains normally.
        fes[1].close_connection(c);
        assert_eq!(fes[1].active_connections(), 0);
        // Cannot kill down to zero.
        assert!(vip.kill_frontend(0));
        assert!(!vip.kill_frontend(2), "last front-end must survive");
    }

    /// Regression for the `kill_frontend` vs in-flight admission race:
    /// a handshake whose ack lands after the decommission must be
    /// unwound and retried, never left as a tracked route pointing at
    /// the dead front-end. An admission storm races two kills; once
    /// the storm stops and every admitted connection is released, the
    /// forwarding table must drain to zero.
    #[test]
    fn concurrent_kill_never_leaks_tracked_routes() {
        let (vip, _fes) = tier(3, 2);
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for w in 0..4u16 {
            let vip = vip.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                let mut port = 42_000 + w * 4_000;
                while !stop.load(Ordering::Relaxed) {
                    port = port.wrapping_add(1).max(1024);
                    if let Some((f, conn)) = vip.admit(key(port)) {
                        vip.release(f, conn);
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(vip.kill_frontend(1));
        std::thread::sleep(Duration::from_millis(20));
        assert!(vip.kill_frontend(0));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("admission worker");
        }
        let drained = vip.quiesce(Duration::from_secs(5));
        assert!(
            drained,
            "tracked routes must drain to zero after concurrent kills; \
             still tracking {}",
            vip.tracked()
        );
        // Fresh admissions land only on the lone survivor.
        for p in 0..4 {
            let (f, conn) = vip.admit(key(61_000 + p)).expect("survivor admits");
            assert_eq!(f, 2, "admission landed on a decommissioned front-end");
            vip.release(f, conn);
        }
        assert!(vip.quiesce(Duration::from_secs(2)));
    }

    /// Decodes front-end `f`'s next delta frame.
    fn next_delta(vip: &Vip, f: usize) -> phttp_core::StateDelta {
        let mut dec = FrameDecoder::new();
        dec.feed(&vip.make_delta_frame(f).expect("a live origin publishes"));
        match dec.next() {
            Ok(Some(ControlMsg::StateDelta(delta))) => delta,
            other => panic!("not a state delta: {other:?}"),
        }
    }

    /// The mapping share `f` owns on `vip`'s ring, as gossip dumps it.
    fn owned_share(vip: &Vip, fes: &[Arc<FrontEnd>], f: usize) -> Vec<(TargetId, Vec<NodeId>)> {
        (0..32)
            .map(TargetId)
            .filter(|&t| vip.ring_owner(t) == FeId(f))
            .map(|t| (t, fes[f].mapping().nodes(t)))
            .filter(|(_, nodes)| !nodes.is_empty())
            .collect()
    }

    /// A round carries the whole owned share first, then only what
    /// changed in it; a ring change makes the survivors resync.
    #[test]
    fn deltas_carry_the_share_once_then_only_changes() {
        let (vip, fes) = tier(3, 2);
        for t in 0..32 {
            fes[0]
                .mapping()
                .write(TargetId(t), |m| m.add_replica(TargetId(t), NodeId(0)));
        }
        let first = next_delta(&vip, 0);
        assert!(first.full);
        assert_eq!(first.mapping, owned_share(&vip, &fes, 0));
        assert!(!first.mapping.is_empty());
        let quiet = next_delta(&vip, 0);
        assert!(!quiet.full && quiet.mapping.is_empty(), "{quiet:?}");
        assert_eq!(quiet.seq, first.seq + 1);

        let mine = first.mapping[0].0;
        let theirs = (0..32)
            .map(TargetId)
            .find(|&t| vip.ring_owner(t) != FeId(0))
            .expect("a peer owns something");
        for t in [mine, theirs] {
            fes[0].mapping().write(t, |m| m.add_replica(t, NodeId(1)));
        }
        let changed = next_delta(&vip, 0);
        assert_eq!(changed.mapping, vec![(mine, vec![NodeId(0), NodeId(1)])]);

        // Front-end 0 inherits part of 1's share, whose targets it never
        // journaled as its own: its next round is whole again.
        assert!(vip.kill_frontend(1));
        let resync = next_delta(&vip, 0);
        assert!(resync.full);
        assert_eq!(resync.mapping, owned_share(&vip, &fes, 0));
        assert!(resync.mapping.len() > first.mapping.len());
        assert!(!next_delta(&vip, 0).full);
    }

    /// Over the wire, with mappings churning on every front-end and one
    /// of them killed midway, each survivor's view of each live peer
    /// converges to exactly that peer's owned share.
    #[test]
    fn wire_gossip_views_converge_to_owner_shares() {
        let (vip, fes, shard) = gossiping_tier(3, 2);
        let churn = |round: usize| {
            for (f, fe) in fes.iter().enumerate() {
                for t in (0..32)
                    .map(TargetId)
                    .filter(|t| (t.0 as usize + round) % 3 == f)
                {
                    fe.mapping()
                        .write(t, |m| m.assign_exclusive(t, NodeId((round + f) % 2)));
                }
            }
        };
        let converged = |live: &[usize]| {
            live.iter().all(|&g| {
                live.iter().filter(|&&f| f != g).all(|&f| {
                    vip.tiers[g].view.lock().origin_mapping(FeId(f))
                        == Some(owned_share(&vip, &fes, f))
                })
            })
        };
        let wait = |live: &[usize]| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !converged(live) {
                assert!(Instant::now() < deadline, "views never converged");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for round in 0..3 {
            churn(round);
            wait(&[0, 1, 2]);
        }
        assert!(vip.kill_frontend(2));
        for round in 3..6 {
            churn(round);
            wait(&[0, 1]);
        }
        shard.shutdown();
    }

    /// At steady state a round costs the loads, not the share.
    #[test]
    fn steady_state_gossip_costs_loads_not_the_share() {
        let (vip, fes, shard) = gossiping_tier(2, 2);
        for fe in &fes {
            for t in 0..32 {
                fe.mapping()
                    .write(TargetId(t), |m| m.add_replica(TargetId(t), NodeId(0)));
            }
        }
        let rounds = || vip.gossip_seq(0) + vip.gossip_seq(1);
        let start = rounds();
        while rounds() < start + 8 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (r0, b0) = (rounds(), vip.gossip_bytes());
        while rounds() < r0 + 50 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (r1, b1) = (rounds(), vip.gossip_bytes());
        // Frame header 5, origin 4, seq 8, flag 1, loads 2 + 2 * 8,
        // mapping count 4: a quiet round to one peer.
        let quiet_frame = 5 + 4 + 8 + 1 + 2 + 2 * 8 + 4;
        assert!(
            b1 - b0 <= (r1 - r0 + 2) * quiet_frame,
            "{} bytes over {} rounds",
            b1 - b0,
            r1 - r0
        );
        shard.shutdown();
    }
}
