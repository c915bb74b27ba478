//! `phttp-reactor`: the event-driven front-end I/O model.
//!
//! A thread per client connection is the scalability wall the paper's
//! front-end must avoid if P-HTTP's amortized TCP costs are to survive
//! high concurrency. This module serves every connection with
//! readiness-driven
//! (epoll-style, via the vendored `mio` shim) reactor **shards**:
//! `ProtoConfig::reactor_shards` loop threads (one per core on a real
//! host), each owning its own poller, its own front-end accept
//! socket(s), its own generation-checked connection slab, timer heap,
//! per-node lateral-session pools, its share of the back-ends'
//! peer-server listeners and control sessions — and nothing else.
//! Shards share only the already-`&self`-concurrent
//! [`crate::FrontEnd`]/[`phttp_core::ConcurrentDispatcher`] and the
//! content store; there are **no cross-shard channels on the data
//! path**. Accept distribution uses `SO_REUSEPORT` listener groups
//! (each shard binds its own socket on every front-end address; the
//! kernel spreads connections across the group's accept queues).
//!
//! Lateral **serving** is event-driven too: each node's peer listener
//! is a registered source on one shard, and accepted peer connections
//! run the same incremental-parse → serve → strictly-ordered write-out
//! machine as client connections (minus the dispatcher). So are the
//! back-ends' control sessions, whether opened at start or by a later
//! join: `ReactorHandle::install_control` queues one on shard
//! `node % shards`, whose waker takes it in. Shard 0 also keeps the
//! breakers' cooldown clock and, under a front-end tier, owns the
//! gossip mesh between the front-ends (`gossip::Gossiper`). A cluster
//! therefore runs no per-client, per-peer-connection, per-node, gossip
//! or timer thread: it runs `reactor_shards` threads, however many
//! connections it serves, nodes it joins and front-ends it tiers.
//!
//! The policy engine needs no adaptation: PR 1/PR 2 shaped
//! [`phttp_core::ConcurrentDispatcher`] so decisions run inline on
//! event-loop threads — `FrontEnd::assign_batch` is called directly
//! from each shard, one call per drained pipelined batch.
//!
//! ## Connection lifecycle (see ARCHITECTURE.md "I/O models" for the
//! full state diagram)
//!
//! 1. **Accept** — a listener's readable event accepts until
//!    `WouldBlock`; each stream becomes a `conn::ClientConn` slab
//!    slot registered for `READABLE` (peer listeners produce
//!    peer-server connections in the same slab). Under a front-end
//!    tier a client connection first parks, unregistered, as
//!    *admitting*: its handoff handshake crosses this shard's own
//!    admission link (`admit::Admitter`) and the decoded ack — which
//!    front-end took it — is what registers it.
//! 2. **Read → parse** — readable events feed the connection's
//!    incremental [`phttp_http::RequestParser`] (reading stops at the
//!    first short read; the level-triggered poller reports whatever
//!    arrives later). Each complete request is parsed in place
//!    ([`phttp_http::RequestParser::next_with`]) into the shard's
//!    reused batch buffer — target, version, keep-alive, nothing
//!    copied — and every batch is decided **inline** via
//!    [`crate::FrontEnd::assign_batch`] (peer-server connections skip
//!    the dispatcher: every request serves on the listener's node).
//! 3. **Serve** — each request becomes an in-order pipeline entry:
//!    cache hits resolve to response bytes immediately; misses queue on
//!    the shard's event-driven per-node disk scheduler
//!    (`disk::DiskSched`); remote assignments either issue a
//!    non-blocking lateral fetch (`peer::PeerSession`) or, under
//!    migrate semantics, re-home the connection after an emulated
//!    handoff-protocol delay (a timer).
//! 4. **Write** — ready entries are staged strictly in request order
//!    and flushed with backpressure: an unwritable socket parks the
//!    bytes and registers `WRITABLE`; a large unsent backlog — staged
//!    bytes (`HIGH_WATER`) or unanswered pipeline entries
//!    (`MAX_PIPELINE`) — pauses reading. Peer-server connections obey
//!    the same rules.
//! 5. **Close** — client EOF, a non-keep-alive request, a parse error,
//!    or the idle timeout drains the pipeline and then releases the
//!    slot, closing the dispatcher connection exactly once (and, under
//!    a tier, queueing the close notification that removes the
//!    connection's forwarding route; queued frames leave once per loop
//!    turn, one write per link direction).
//!
//! ## Failure handling
//!
//! A control session that hits EOF (or a framing/read error) while the
//! cluster is **not** shutting down is a node-failure signal: the shard
//! deregisters the source and calls [`crate::FrontEnd::evict_node`] for
//! that node, dropping every believed mapping that references it. A
//! clean `Cluster::shutdown` closes the node sides only after the loops
//! have exited on the stop flag, so it never evicts. A peer session
//! that dies mid-fetch (dial, write, or read failure — e.g. the remote
//! lateral server crashed) degrades that fetch to local service, so the
//! awaiting pipeline slot always resolves and the client still sees a
//! complete, ordered response.
//!
//! Shutdown is cooperative: `ReactorHandle::shutdown` sets the stop
//! flag and wakes every shard's poller (a blocked `epoll_wait` would
//! otherwise sleep through it), and each loop drains every registered
//! connection before exiting — the reactor-mode half of
//! `Cluster::quiesce`'s teardown contract.

mod admit;
mod conn;
mod disk;
mod gossip;
mod peer;

use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use parking_lot::{LockClass, Mutex};
use phttp_core::{Assignment, ForwardSemantics, NodeId};
use phttp_http::{ParseError, Request, Response, Version};
use phttp_trace::TargetId;

use crate::control::FrameDecoder;
use crate::frontend::FrontEnd;
use crate::store::ContentStore;
use crate::tier::{client_key, Vip};

use admit::{Admitted, Admitter};
use conn::{ClientConn, Entry, EntryState, StreamEntry, HIGH_WATER};
use disk::{DiskJob, DiskSched, Waiter};
use gossip::Gossiper;
use peer::{LateralJob, PeerSession, StreamIn};

/// Token of the cross-thread waker.
const WAKER: Token = Token(0);
/// First front-end listener token; listener `i` is
/// `Token(LISTENER_BASE + i)`. Peer-listener tokens follow the
/// front-end listeners (`Reactor::peer_base`), control-channel tokens
/// follow those (`Reactor::control_base`), the tier's admission-link
/// ends follow those (`Reactor::link_base`, two per front-end, none
/// without a tier), shard 0's gossip-session ends follow those
/// (`Reactor::gossip_base`, two per pair of front-ends) and slab tokens
/// follow those (`Reactor::slab_base`); all bases are computed from the
/// configured counts, so the ranges can never collide however many
/// listeners, nodes, control sessions, or front-ends a shard serves.
const LISTENER_BASE: usize = 1;

/// A slab slot reference that stays valid across slot reuse: the
/// generation must still match for a completion to be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRef {
    idx: usize,
    gen: u64,
}

/// What occupies a slab slot.
enum Slot {
    /// A client or peer-server connection (see [`ClientConn::peer_server`]).
    Client(ClientConn),
    /// An outbound lateral-fetch session to a peer node.
    Peer(PeerSession),
}

struct SlabSlot {
    gen: u64,
    val: Option<Slot>,
}

/// A scheduled reactor-internal event.
enum Timer {
    /// Node `n`'s busy disk read (on this shard's scheduler) completes.
    DiskDone(usize),
    /// A connection's emulated migration delay elapses; serve `target`
    /// on node `to` and resolve pipeline slot `seq`.
    MigrateDone {
        conn: SlotRef,
        seq: u64,
        to: usize,
        target: TargetId,
        version: Version,
    },
}

struct TimerEntry {
    at: Instant,
    id: u64,
    kind: Timer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    /// Reversed so `BinaryHeap` (a max-heap) pops the earliest deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// Reactor configuration subset of `ProtoConfig`. A tier's gossip
/// cadence is not configured: shard 0 runs a round every
/// [`GOSSIP_INTERVAL`](crate::tier::GOSSIP_INTERVAL).
pub(crate) struct ReactorConfig {
    pub migration_delay: Duration,
    pub read_timeout: Duration,
    /// Number of event-loop shards (validated ≥ 1 by `Cluster::start`).
    pub shards: usize,
    /// Idle lateral sessions retained per peer, per shard.
    pub peer_pool_cap: usize,
    /// Spacing of shard 0's breaker cooldown ticks (`ZERO`: none).
    pub health_tick: Duration,
}

/// Live gauges of one shard, shared with the cluster for diagnostics.
#[derive(Debug, Default)]
struct ShardGauges {
    /// Registered slab sources (client conns + peer-server conns +
    /// lateral sessions).
    sources: AtomicUsize,
    /// Entries in the timer heap as of the last loop iteration.
    timers: AtomicUsize,
    /// Response bytes staged unsent across this shard's output queues,
    /// each queued slice charged once however many clones of its
    /// allocation exist elsewhere (mirrored by `conn::OutQueue`). In an
    /// `Arc` because every connection's queue holds a handle.
    pending_body_bytes: Arc<AtomicUsize>,
}

/// Aggregate live-source/timer gauges across every reactor shard —
/// the observability hook the soak test uses to prove the slab and
/// timer heap do not leak (zero registered sources, zero pending
/// timers once traffic drains).
#[derive(Debug)]
pub struct ReactorStats {
    shards: Vec<ShardGauges>,
}

impl ReactorStats {
    fn new(shards: usize) -> ReactorStats {
        ReactorStats {
            shards: (0..shards).map(|_| ShardGauges::default()).collect(),
        }
    }

    /// Total registered slab sources (connections of any kind plus
    /// lateral sessions) across all shards.
    pub fn sources(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.sources.load(Ordering::Relaxed))
            .sum()
    }

    /// Total pending timer-heap entries across all shards.
    pub fn timers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.timers.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of reactor shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Response bytes staged in output queues but not yet accepted by
    /// any socket, across all shards. Shared body slices are charged
    /// once per queue entry, not per clone — with zero-copy staging the
    /// gauge measures genuine backlog, not allocation fan-out. Drains
    /// to zero with the sources once traffic stops.
    pub fn pending_body_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pending_body_bytes.load(Ordering::Relaxed))
            .sum()
    }
}

/// One shard's inbox of control sessions handed over from outside its
/// loop, each tagged with its node; taken in when the shard's waker
/// fires.
type ControlInbox = Arc<Mutex<Vec<(usize, std::net::TcpStream)>>>;

/// Handle held by `Cluster` to hand the loops control sessions and to
/// stop them.
pub(crate) struct ReactorHandle {
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    joins: Vec<std::thread::JoinHandle<()>>,
    inboxes: Vec<ControlInbox>,
    stats: Arc<ReactorStats>,
}

impl ReactorHandle {
    /// Sets the stop flag, wakes every shard's poller and joins the loop
    /// threads after each has drained every registered connection.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for w in &self.wakers {
            let _ = w.wake();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }

    /// Hands node `node`'s control session (its front-end side) to
    /// shard `node % shards`, which registers it when its waker fires.
    /// A session the node already had there is drained and replaced.
    pub fn install_control(&self, node: usize, stream: std::net::TcpStream) {
        let shard = node % self.inboxes.len();
        self.inboxes[shard].lock().push((node, stream));
        let _ = self.wakers[shard].wake();
    }

    /// The shared live-source gauges.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }
}

/// Builds every shard on the caller's thread (so bind/registration
/// errors surface synchronously) and runs each loop on its own thread.
///
/// `fe_listeners[s]` is shard `s`'s own group of front-end accept
/// sockets; `peer_listeners` are the back-ends' lateral-server
/// listeners in node order, distributed across shards by
/// `node % shards` (control sessions follow the same rule through
/// [`ReactorHandle::install_control`]).
pub(crate) fn spawn(
    cfg: ReactorConfig,
    fes: Vec<Arc<FrontEnd>>,
    vip: Option<Arc<Vip>>,
    store: Arc<ContentStore>,
    fe_listeners: Vec<Vec<mio::net::TcpListener>>,
    peer_listeners: Vec<std::net::TcpListener>,
) -> io::Result<ReactorHandle> {
    // `fes[0]` keeps the shared-node-access role everywhere the shard
    // does not act for a specific connection (nodes, semantics, and
    // peer addresses are identical across the tier's front-ends).
    let fe = fes[0].clone();
    let shards = cfg.shards;
    debug_assert_eq!(fe_listeners.len(), shards, "one listener group per shard");
    let stats = Arc::new(ReactorStats::new(shards));
    let stop = Arc::new(AtomicBool::new(false));

    // Round-robin the per-node sources across shards.
    let mut peer_groups: Vec<Vec<(usize, std::net::TcpListener)>> =
        (0..shards).map(|_| Vec::new()).collect();
    for (node, l) in peer_listeners.into_iter().enumerate() {
        peer_groups[node % shards].push((node, l));
    }

    let nodes = fe.nodes().len();
    let peer_addrs = fe.nodes()[0].peer_addrs.clone();
    let semantics = fe.semantics();

    let mut wakers = Vec::with_capacity(shards);
    let mut joins = Vec::with_capacity(shards);
    let mut inboxes = Vec::with_capacity(shards);
    for (shard_idx, (fe_group, peers)) in fe_listeners.into_iter().zip(peer_groups).enumerate() {
        let poll = Poll::new()?;
        wakers.push(Arc::new(Waker::new(poll.registry(), WAKER)?));
        let inbox: ControlInbox = Arc::new(Mutex::new_classed(
            LockClass::other("control-inbox"),
            Vec::new(),
        ));
        inboxes.push(inbox.clone());

        let mut listeners = Vec::with_capacity(fe_group.len());
        for (i, mut l) in fe_group.into_iter().enumerate() {
            poll.registry()
                .register(&mut l, Token(LISTENER_BASE + i), Interest::READABLE)?;
            listeners.push(l);
        }
        let peer_base = LISTENER_BASE + listeners.len();
        let mut peer_lns = Vec::with_capacity(peers.len());
        for (i, (node, l)) in peers.into_iter().enumerate() {
            let mut l = mio::net::TcpListener::from_std(l);
            poll.registry()
                .register(&mut l, Token(peer_base + i), Interest::READABLE)?;
            peer_lns.push((node, l));
        }
        // Node `n`'s control session, once installed, is token
        // `control_base + n`: ordinary readiness sources on the same
        // poller, decoded by the loop itself.
        let control_base = peer_base + peer_lns.len();
        // The tier's admission links: this shard's own loopback session
        // per front-end, both ends readiness sources like the rest.
        let link_base = control_base + nodes;
        let admitter = match &vip {
            Some(vip) => Some(Admitter::new(vip.clone(), poll.registry(), link_base)?),
            None => None,
        };
        // Shard 0 also owns the tier's gossip mesh, both ends of every
        // session registered here.
        let gossip_base = link_base + admitter.as_ref().map_or(0, Admitter::tokens);
        let gossiper = match &vip {
            Some(vip) if shard_idx == 0 => {
                Some(Gossiper::new(vip.clone(), poll.registry(), gossip_base)?)
            }
            _ => None,
        };
        let slab_base = gossip_base + gossiper.as_ref().map_or(0, Gossiper::tokens);
        let reactor = Reactor {
            shard: shard_idx,
            poll,
            fe: fe.clone(),
            fes: fes.clone(),
            store: store.clone(),
            stop: stop.clone(),
            listeners,
            peer_base,
            peer_listeners: peer_lns,
            control_base,
            controls: (0..nodes).map(|_| None).collect(),
            link_base,
            admitter,
            admitted: Vec::new(),
            gossip_base,
            gossiper,
            slab_base,
            inbox,
            stats: stats.clone(),
            slots: Vec::new(),
            free: Vec::new(),
            timers: BinaryHeap::new(),
            next_timer_id: 0,
            disks: (0..nodes).map(|_| DiskSched::default()).collect(),
            lateral_flights: HashMap::new(),
            idle_peers: vec![Vec::new(); nodes],
            pending_pumps: Vec::new(),
            peer_addrs: peer_addrs.clone(),
            semantics,
            migration_delay: cfg.migration_delay,
            read_timeout: cfg.read_timeout,
            peer_pool_cap: cfg.peer_pool_cap,
            health_tick: cfg.health_tick,
            next_health_tick: (shard_idx == 0 && cfg.health_tick > Duration::ZERO)
                .then(|| Instant::now() + cfg.health_tick),
            last_sweep: Instant::now(),
            scratch: vec![0u8; 16 * 1024].into_boxed_slice(),
            batch: Vec::new(),
            known: Vec::new(),
        };
        joins.push(
            std::thread::Builder::new()
                .name(format!("phttp-reactor-{shard_idx}"))
                .spawn(move || reactor.run())?,
        );
    }
    Ok(ReactorHandle {
        stop,
        wakers,
        joins,
        inboxes,
        stats,
    })
}

/// One registered end of a loopback session the shard reads: a node's
/// control session, or an end of an admission link or gossip session —
/// the two the shard also writes, while it is the only reader of their
/// other end, so a write here must never wait.
struct End {
    stream: mio::net::TcpStream,
    token: Token,
    /// `WRITABLE` is armed: the last send left a residue.
    armed: bool,
}

impl End {
    /// Registers `stream` for reads as `token`.
    fn register(stream: std::net::TcpStream, token: Token, registry: &Registry) -> io::Result<End> {
        let mut end = End {
            stream: mio::net::TcpStream::from_std(stream),
            token,
            armed: false,
        };
        registry.register(&mut end.stream, token, Interest::READABLE)?;
        Ok(end)
    }

    /// One non-blocking write of `out`; returns how much the socket
    /// took and (re)arms `WRITABLE` exactly while a residue remains.
    fn send(&mut self, out: &[u8], registry: &Registry) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let n = loop {
            match self.stream.write(out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 0,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let residue = n < out.len();
        if residue != self.armed {
            let want = if residue {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            registry.reregister(&mut self.stream, self.token, want)?;
            self.armed = residue;
        }
        Ok(n)
    }

    /// One non-blocking read; `Ok(0)` means nothing there yet, EOF is
    /// an error.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// One registered control session plus its frame decoder.
struct ControlChan {
    end: End,
    decoder: FrameDecoder,
}

impl ControlChan {
    /// Reads the session dry, applying every decoded frame to every
    /// front-end (feedback describes the node's cache, which all the
    /// tier's dispatchers decide against). EOF, a read error or a
    /// framing error — which has no resync point — is an error.
    fn drain(&mut self, fes: &[Arc<FrontEnd>], buf: &mut [u8]) -> io::Result<()> {
        loop {
            let n = self.end.recv(buf)?;
            self.decoder.feed(&buf[..n]);
            while let Some(msg) = self.decoder.next()? {
                for fe in fes {
                    fe.apply_control(msg.clone());
                }
            }
            // A short read emptied the socket; level-triggered
            // readiness reports whatever lands after it.
            if n < buf.len() {
                return Ok(());
            }
        }
    }
}

/// One event-loop shard: owns its poller, all its registered sources,
/// its timer heap, and its per-node disk schedulers.
struct Reactor {
    /// This shard's index (stable; used for gauge attribution).
    shard: usize,
    poll: Poll,
    /// `fes[0]` — shared node/semantics access (identical across the
    /// tier; per-connection dispatcher calls go through `fes` instead).
    fe: Arc<FrontEnd>,
    /// Every front-end instance; a connection's dispatcher calls go
    /// through `fes[c.fe_idx]` (the instance that admitted it).
    fes: Vec<Arc<FrontEnd>>,
    store: Arc<ContentStore>,
    stop: Arc<AtomicBool>,
    /// This shard's own front-end accept sockets (the plain listeners
    /// on one shard, reuseport group members on several).
    listeners: Vec<mio::net::TcpListener>,
    /// First peer-listener token: `LISTENER_BASE + listeners.len()`.
    peer_base: usize,
    /// This shard's share of the back-ends' lateral-server listeners
    /// (`(node, listener)`; node `i` lives on shard `i % shards`).
    peer_listeners: Vec<(usize, mio::net::TcpListener)>,
    /// First control-channel token: `peer_base + peer_listeners.len()`.
    control_base: usize,
    /// The control sessions this shard drains, indexed by node (only
    /// nodes `n % shards == shard` are ever installed; all `None` when
    /// cache feedback is disabled).
    controls: Vec<Option<ControlChan>>,
    /// First admission-link token: `control_base + controls.len()`.
    link_base: usize,
    /// The tier's admission links as this shard drives them (`None`
    /// without a tier: connections then serve the moment they are
    /// accepted).
    admitter: Option<Admitter>,
    /// Admissions resolved and not yet activated (scratch, drained by
    /// [`Reactor::activate_admitted`]).
    admitted: Vec<Admitted>,
    /// First gossip-session token: `link_base + 2 * front_ends` under a
    /// tier.
    gossip_base: usize,
    /// The tier's gossip sessions (shard 0 under a tier; `None`
    /// elsewhere).
    gossiper: Option<Gossiper>,
    /// First slab token: `gossip_base` plus two per gossip session.
    slab_base: usize,
    /// Control sessions handed to this shard, taken in on wake-up.
    inbox: ControlInbox,
    /// Shared live-source gauges (this shard writes `shards[shard]`).
    stats: Arc<ReactorStats>,
    slots: Vec<SlabSlot>,
    free: Vec<usize>,
    timers: BinaryHeap<TimerEntry>,
    next_timer_id: u64,
    disks: Vec<DiskSched>,
    /// In-flight coalesced lateral fetches this shard leads, keyed by
    /// `(remote node, target)`: the parked waiters resolve (or fail
    /// over) together with the flight leader. Flight scope is one
    /// shard, like the disk schedulers — cross-shard duplicate fetches
    /// remain possible and are the documented sharding approximation.
    lateral_flights: HashMap<(usize, TargetId), Vec<LateralJob>>,
    /// Idle lateral-session slab indices, per peer node.
    idle_peers: Vec<Vec<usize>>,
    /// Lateral sessions to drive after the current event finishes: a
    /// session that paused its reads (splice backpressure) cannot wake
    /// itself, and the client drain that frees the room may run while
    /// the client slot is checked out — driving the session inline
    /// there could re-enter that checkout, so it is queued instead and
    /// drained from the loop, where no slot is held.
    pending_pumps: Vec<usize>,
    peer_addrs: Vec<SocketAddr>,
    semantics: ForwardSemantics,
    migration_delay: Duration,
    read_timeout: Duration,
    peer_pool_cap: usize,
    /// Spacing of the breakers' cooldown ticks.
    health_tick: Duration,
    /// When shard 0 next ticks every front-end's breakers (`None` on
    /// other shards, or with ticking disabled). A deadline the poll
    /// timeout honours, not a timer-heap entry: the heap must drain to
    /// zero once traffic stops.
    next_health_tick: Option<Instant>,
    last_sweep: Instant,
    /// The shard's one socket-read buffer: every read on the loop lands
    /// here and is fed to a parser or decoder before the next.
    scratch: Box<[u8]>,
    /// The batch being served: one [`Parsed`] per request, reused
    /// across batches and connections (empty between them).
    batch: Vec<Parsed>,
    /// The batch's resolved targets in order, for `assign_batch`
    /// (reused likewise; stale between batches).
    known: Vec<TargetId>,
}

/// What serving needs of one parsed request, taken from the parser's
/// borrowed view while the URI is still in the buffer.
#[derive(Debug, Clone, Copy)]
struct Parsed {
    /// `None` for a URI outside the corpus (a `404`).
    target: Option<TargetId>,
    version: Version,
    keep_alive: bool,
}

/// A complete `200 OK` staged for write-out: the store's prebuilt head
/// for `target` plus the *shared* body slice — neither is built nor
/// copied here (two refcount bumps); `writev` gathers the pair at send
/// time.
fn ok_state(store: &ContentStore, target: TargetId, version: Version, body: Bytes) -> EntryState {
    EntryState::Ready(store.ok_head(target, version), body)
}

/// A `404 Not Found`, staged as one segment (head and short body).
fn not_found_state(version: Version) -> EntryState {
    EntryState::Ready(Response::not_found(version).to_bytes(), Bytes::new())
}

/// What a [`Reactor::pump_peer`] pass concluded about a session.
enum Pump {
    /// Buffered bytes exhausted; read more from the socket.
    More,
    /// The splice target is full: stop reading until the client drains.
    Paused,
    /// The session must close.
    Dead,
}

/// Capacity of a splice target (see [`Reactor::splice_room`]).
enum Room {
    /// Up to this many more bytes may be appended now.
    Available(usize),
    /// The entry's chunk buffer is at `HIGH_WATER`; pause the feed.
    Blocked,
    /// The client (or its streaming entry) is gone; discard the bytes.
    Gone,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = self.poll_timeout();
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                // EBADF etc. cannot happen while we own the fds; treat a
                // polling failure as fatal and drain.
                self.teardown();
                return;
            }
            if self.stop.load(Ordering::Relaxed) {
                self.teardown();
                return;
            }
            for ev in events.iter() {
                let Token(t) = ev.token();
                if t == WAKER.0 {
                    self.drain_inbox(); // the stop flag was checked above
                } else if t < self.peer_base {
                    self.accept_all(t - LISTENER_BASE);
                } else if t < self.control_base {
                    self.accept_peers(t - self.peer_base);
                } else if t < self.link_base {
                    self.drain_control(t - self.control_base);
                } else if t < self.gossip_base {
                    self.on_link_event(t - self.link_base);
                } else if t < self.slab_base {
                    if let Some(gossiper) = self.gossiper.as_mut() {
                        gossiper.on_event(t - self.gossip_base, self.poll.registry());
                    }
                } else {
                    self.handle_slot(t - self.slab_base);
                }
            }
            self.fire_timers();
            self.drain_pumps();
            let now = Instant::now();
            self.maybe_health_tick(now);
            if let Some(gossiper) = self.gossiper.as_mut() {
                gossiper.round(now);
            }
            self.maybe_sweep_idle(now);
            self.flush_links();
            self.stats.shards[self.shard]
                .timers
                .store(self.timers.len(), Ordering::Relaxed);
        }
    }

    /// Next poll timeout: the earliest timer, admission-ack, breaker
    /// tick or gossip round deadline, capped by the idle-sweep tick.
    fn poll_timeout(&self) -> Duration {
        let tick = Duration::from_millis(200);
        let timer = self.timers.peek().map(|t| t.at);
        let ack = self.admitter.as_ref().and_then(Admitter::next_deadline);
        let gossip = self.gossiper.as_ref().map(Gossiper::next_deadline);
        match timer
            .into_iter()
            .chain(ack)
            .chain(self.next_health_tick)
            .chain(gossip)
            .min()
        {
            Some(at) => at.saturating_duration_since(Instant::now()).min(tick),
            None => tick,
        }
    }

    fn schedule(&mut self, at: Instant, kind: Timer) {
        let id = self.next_timer_id;
        self.next_timer_id += 1;
        self.timers.push(TimerEntry { at, id, kind });
    }

    // ---- slab -----------------------------------------------------------

    fn insert_slot(&mut self, slot: Slot) -> usize {
        self.stats.shards[self.shard]
            .sources
            .fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = self.free.pop() {
            self.slots[idx].val = Some(slot);
            idx
        } else {
            self.slots.push(SlabSlot {
                gen: 0,
                val: Some(slot),
            });
            self.slots.len() - 1
        }
    }

    fn slot_ref(&self, idx: usize) -> SlotRef {
        SlotRef {
            idx,
            gen: self.slots[idx].gen,
        }
    }

    /// Frees a slot: bumps the generation (invalidating outstanding
    /// [`SlotRef`]s) and recycles the index.
    fn free_slot(&mut self, idx: usize) {
        self.stats.shards[self.shard]
            .sources
            .fetch_sub(1, Ordering::Relaxed);
        self.slots[idx].gen += 1;
        self.slots[idx].val = None;
        self.free.push(idx);
    }

    // ---- accept ---------------------------------------------------------

    /// The shard's `pending_body_bytes` handle a new connection's output
    /// queue mirrors itself into.
    fn body_gauge(&self) -> Arc<AtomicUsize> {
        self.stats.shards[self.shard].pending_body_bytes.clone()
    }

    fn accept_all(&mut self, listener: usize) {
        loop {
            match self.listeners[listener].accept() {
                Ok((stream, peer)) => self.admit_client(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept failure; retry on next event
            }
        }
    }

    /// Takes in a new client connection. Without a tier it registers
    /// and serves at once. Under a tier it parks in the slab as
    /// *admitting* — unregistered, nothing read — while its handoff
    /// handshake crosses this shard's admission link, and starts
    /// serving when [`activate`](Self::activate) learns which front-end
    /// acknowledged it.
    fn admit_client(&mut self, stream: mio::net::TcpStream, peer: SocketAddr) {
        let gauge = self.body_gauge();
        if self.admitter.is_none() {
            self.register_client(ClientConn::new(stream, gauge));
            return;
        }
        let idx = self.insert_slot(Slot::Client(ClientConn::admitting(stream, gauge)));
        let slot = self.slot_ref(idx);
        let admitter = self.admitter.as_mut().expect("checked above");
        admitter.admit(slot, client_key(peer), &mut self.admitted);
        self.activate_admitted();
    }

    /// Readiness on one end of an admission link.
    fn on_link_event(&mut self, off: usize) {
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.on_event(off, self.poll.registry(), &mut self.admitted);
        }
        self.activate_admitted();
    }

    /// Sends the frames this turn queued on the admission links and
    /// gossip sessions: one write per direction per link and per
    /// session end, however many connections opened or closed.
    fn flush_links(&mut self) {
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.flush(self.poll.registry(), &mut self.admitted);
        }
        self.activate_admitted();
        if let Some(gossiper) = self.gossiper.as_mut() {
            gossiper.flush(self.poll.registry());
        }
    }

    /// Activates every admission the links have resolved.
    fn activate_admitted(&mut self) {
        while let Some(a) = self.admitted.pop() {
            self.activate(a);
        }
    }

    /// An admission resolved: the parked connection joins front-end
    /// `fe_idx`, registers for reads, and is driven at once — its
    /// request has usually been sitting in the socket since before the
    /// handshake started.
    fn activate(&mut self, a: Admitted) {
        let idx = a.slot.idx;
        let parked = match self.slots.get_mut(idx) {
            Some(s) if s.gen == a.slot.gen => s.val.take(),
            _ => None,
        };
        let Some(Slot::Client(mut c)) = parked else {
            // The sweep and stray events skip a parked slot, and
            // teardown abandons its handshake without activating it.
            unreachable!("only its admission resolving frees a parked slot");
        };
        c.admitting = false;
        c.fe_idx = a.fe_idx;
        c.vip_conn = a.ticket;
        let _ = c.stream.set_nodelay(true);
        let registered = self.poll.registry().register(
            &mut c.stream,
            Token(self.slab_base + idx),
            Interest::READABLE,
        );
        c.interest = Interest::READABLE;
        if registered.is_ok() && self.drive_client(idx, &mut c) {
            self.slots[idx].val = Some(Slot::Client(c));
        } else {
            self.release_client(idx, c);
        }
    }

    /// Accepts lateral-fetch connections on one of this shard's peer
    /// listeners; they serve on that listener's node, event-driven.
    fn accept_peers(&mut self, idx: usize) {
        loop {
            match self.peer_listeners[idx].1.accept() {
                Ok((stream, _)) => {
                    let node = self.peer_listeners[idx].0;
                    let gauge = self.body_gauge();
                    self.register_client(ClientConn::peer_server(stream, node, gauge));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Registers an accepted (client or peer-server) connection in the
    /// slab.
    fn register_client(&mut self, conn: ClientConn) {
        let _ = conn.stream.set_nodelay(true);
        let idx = self.insert_slot(Slot::Client(conn));
        let Some(Slot::Client(c)) = self.slots[idx].val.as_mut() else {
            unreachable!("just inserted")
        };
        if self
            .poll
            .registry()
            .register(
                &mut c.stream,
                Token(self.slab_base + idx),
                Interest::READABLE,
            )
            .is_err()
        {
            self.free_slot(idx);
        }
    }

    // ---- control sessions -----------------------------------------------

    /// Takes in the control sessions handed to this shard since its
    /// last wake-up, in the order they were handed over.
    fn drain_inbox(&mut self) {
        let sessions = std::mem::take(&mut *self.inbox.lock());
        for (node, stream) in sessions {
            self.install_control(node, stream);
        }
    }

    /// Registers `stream` as node `node`'s control session. A session
    /// the node still has here is drained first, so its last frames —
    /// or the EOF that evicts the node — apply before the new session's
    /// `Join`; then it is dropped. A session that cannot be registered
    /// is as dead as one that hit EOF.
    fn install_control(&mut self, node: usize, stream: std::net::TcpStream) {
        self.drain_control(node);
        if let Some(mut old) = self.controls[node].take() {
            let _ = self.poll.registry().deregister(&mut old.end.stream);
        }
        let token = Token(self.control_base + node);
        match End::register(stream, token, self.poll.registry()) {
            Ok(end) => {
                self.controls[node] = Some(ControlChan {
                    end,
                    decoder: FrameDecoder::new(),
                });
                self.drain_control(node);
            }
            Err(_) => self.close_control(node),
        }
    }

    /// Drains node `node`'s control session as far as readiness allows
    /// ([`ControlChan::drain`]); an error closes the session (see
    /// [`close_control`](Self::close_control)).
    fn drain_control(&mut self, node: usize) {
        let Some(chan) = self.controls[node].as_mut() else {
            return;
        };
        if chan.drain(&self.fes, &mut self.scratch).is_err() {
            self.close_control(node);
        }
    }

    /// Drops node `node`'s session. While the cluster is live this is a
    /// node failure: the node's believed mappings are evicted from every
    /// front-end. (A clean `Cluster::shutdown` never gets here: the
    /// loops exit on the stop flag before the node sides close.)
    fn close_control(&mut self, node: usize) {
        if let Some(mut chan) = self.controls[node].take() {
            let _ = self.poll.registry().deregister(&mut chan.end.stream);
        }
        if !self.stop.load(Ordering::Relaxed) {
            for fe in &self.fes {
                fe.evict_node(NodeId(node));
            }
        }
    }

    /// Shard 0's breaker cooldown clock: once per `health_tick`, every
    /// front-end's `Open` breakers advance one tick toward `HalfOpen`
    /// probation.
    fn maybe_health_tick(&mut self, now: Instant) {
        match self.next_health_tick {
            Some(at) if at <= now => {}
            _ => return,
        }
        for fe in &self.fes {
            fe.health_tick();
        }
        self.next_health_tick = Some(now + self.health_tick);
    }

    // ---- event dispatch -------------------------------------------------

    /// Checks a slot out of the slab, drives it, and puts it back or
    /// releases it. The checkout makes the borrow explicit: while a
    /// slot is driven, every other slot (and the schedulers) remain
    /// reachable through `&mut self` for deliveries and new sessions.
    fn handle_slot(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx).and_then(|s| s.val.take()) else {
            return; // stale event for a freed slot
        };
        match slot {
            // Parked behind its admission: only its ack moves it. (It is
            // not registered, but a queued pump or a late event for the
            // index's previous occupant can still name the slot.)
            Slot::Client(c) if c.admitting => self.slots[idx].val = Some(Slot::Client(c)),
            Slot::Client(mut c) => {
                if self.drive_client(idx, &mut c) {
                    self.slots[idx].val = Some(Slot::Client(c));
                } else {
                    self.release_client(idx, c);
                }
            }
            Slot::Peer(mut p) => {
                if self.drive_peer(idx, &mut p) {
                    self.slots[idx].val = Some(Slot::Peer(p));
                } else {
                    self.release_peer(idx, p);
                }
            }
        }
    }

    // ---- client & peer-server connections -------------------------------

    /// Reads, parses, decides, serves, and writes one connection as far
    /// as readiness allows. Returns whether the slot stays alive.
    fn drive_client(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        c.last_activity = Instant::now();
        loop {
            let Ok(more) = c.read_into_parser(&mut self.scratch) else {
                return false; // connection reset
            };
            if self.process_available(idx, c).is_err() {
                // Parse error: stop reading, serve what is already
                // pipelined, then close.
                c.eof = true;
                c.close_after_drain = true;
                break;
            }
            if !more {
                break; // drained: another read would only buy an EAGAIN
            }
        }
        self.advance_client(idx, c)
    }

    /// Parses every complete request buffered on `c` — each borrowed
    /// in place just long enough to resolve its target — and turns the
    /// batch into pipeline entries. A malformed request ends the batch:
    /// the requests parsed before it are still served, then the error
    /// is returned.
    fn process_available(&mut self, idx: usize, c: &mut ClientConn) -> Result<(), ParseError> {
        if c.close_after_drain {
            // Once a non-keep-alive request (or EOF) ends the logical
            // connection, later pipelined requests are not served.
            return Ok(());
        }
        let mut batch = std::mem::take(&mut self.batch);
        let parsed = loop {
            let next = c.parser.next_with(|head| Parsed {
                target: self.store.lookup(head.uri),
                version: head.version,
                keep_alive: head.keep_alive,
            });
            match next {
                Ok(Some(req)) => batch.push(req),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        if !batch.is_empty() {
            if c.peer_server {
                self.process_peer_batch(idx, c, &batch);
            } else {
                self.process_batch(idx, c, &batch);
            }
        }
        batch.clear();
        self.batch = batch;
        parsed
    }

    /// One parsed batch of a client connection: the first request
    /// drives the content-based handoff, every subsequent batch is
    /// decided in one `assign_batch` call.
    fn process_batch(&mut self, idx: usize, c: &mut ClientConn, batch: &[Parsed]) {
        let me = self.slot_ref(idx);
        let mut rest = batch;
        if c.conn_id.is_none() {
            let Some((first, tail)) = batch.split_first() else {
                return;
            };
            rest = tail;
            let Some(target) = first.target else {
                let seq = c.alloc_seq();
                c.push_entry(seq, not_found_state(first.version));
                c.close_after_drain = true;
                return;
            };
            let conn = self.fes[c.fe_idx].alloc_conn();
            let node = self.fes[c.fe_idx].open_connection(conn, target);
            c.conn_id = Some(conn);
            c.node = node.0;
            // Handoff complete: the first request is always served by the
            // chosen node.
            let seq = c.alloc_seq();
            let state = self.serve_on(me, seq, c.node, target, first.version);
            c.push_entry(seq, state);
            if !first.keep_alive {
                c.close_after_drain = true;
                return;
            }
            if rest.is_empty() {
                return;
            }
        }
        let conn = c.conn_id.expect("handoff done above");

        // One dispatcher call for the whole pipelined batch — a single
        // connection-shard visit and grouped mapping-shard locks, inline
        // on the event loop.
        self.known.clear();
        self.known.extend(rest.iter().filter_map(|r| r.target));
        let assignments = self.fes[c.fe_idx].assign_batch(conn, &self.known);
        let mut next_assignment = assignments.into_iter();

        for req in rest {
            let Some(target) = req.target else {
                let seq = c.alloc_seq();
                c.push_entry(seq, not_found_state(req.version));
                continue;
            };
            let assignment = next_assignment.next().expect("one assignment per target");
            let seq = c.alloc_seq();
            let state = match assignment {
                Assignment::Local => self.serve_on(me, seq, c.node, target, req.version),
                Assignment::Remote(k) if self.semantics == ForwardSemantics::Migrate => {
                    // The dispatcher re-homed the connection: later
                    // requests in this batch serve on node k, and this
                    // request serves there too once the emulated handoff
                    // protocol delay elapses.
                    c.node = k.0;
                    self.schedule(
                        Instant::now() + self.migration_delay,
                        Timer::MigrateDone {
                            conn: me,
                            seq,
                            to: k.0,
                            target,
                            version: req.version,
                        },
                    );
                    EntryState::Migrating
                }
                Assignment::Remote(k) => self.issue_lateral(
                    LateralJob {
                        conn: me,
                        seq,
                        target,
                        version: req.version,
                        handler: c.node,
                    },
                    k,
                ),
            };
            c.push_entry(seq, state);
            if !req.keep_alive {
                c.close_after_drain = true;
                break;
            }
        }
    }

    /// The peer-server analogue of [`process_batch`]: every request
    /// serves on the listener's node — no handoff, no dispatcher, same
    /// strict response ordering, with per-request `lateral_in`
    /// accounting.
    fn process_peer_batch(&mut self, idx: usize, c: &mut ClientConn, batch: &[Parsed]) {
        let me = self.slot_ref(idx);
        let node_idx = c.node;
        for req in batch {
            let Some(target) = req.target else {
                let seq = c.alloc_seq();
                c.push_entry(seq, not_found_state(req.version));
                continue;
            };
            if self.fe.nodes()[node_idx].take_lateral_fault() {
                // Injected fault: die like a crashed lateral server —
                // drop everything owed, respond to nothing. The fetcher
                // sees EOF mid-fetch and must degrade to local service.
                c.entries.clear();
                c.out.clear();
                c.eof = true;
                c.close_after_drain = true;
                return;
            }
            self.fe.nodes()[node_idx]
                .stats
                .lateral_in
                .fetch_add(1, Ordering::Relaxed);
            let seq = c.alloc_seq();
            let state = self.serve_on(me, seq, node_idx, target, req.version);
            c.push_entry(seq, state);
        }
    }

    /// Serves `target` on node `node_idx` without blocking: a cache hit
    /// produces the response now; a miss queues on the shard's disk
    /// scheduler for that node and resolves slot `seq` when the
    /// read-time deadline fires.
    fn serve_on(
        &mut self,
        conn: SlotRef,
        seq: u64,
        node_idx: usize,
        target: TargetId,
        version: Version,
    ) -> EntryState {
        // Single-flight: a read of this target already in flight (or
        // queued) on this shard's scheduler absorbs the request as a
        // delayed hit — no second disk read, no disk-queue depth. The
        // flight is checked before the cache probe: within a shard the
        // two never coexist (the completion inserts into the cache and
        // retires the flight in one handler), and in the cross-path
        // race (another shard or a lateral serve inserted meanwhile)
        // parking is still correct — same bytes, one timer later.
        if let Some(flight) = self.disks[node_idx].find_mut(target) {
            flight.waiters.push(Waiter {
                conn,
                seq,
                version,
                arrival: Instant::now(),
            });
            self.fe.nodes()[node_idx].note_coalesced_serve(target);
            return EntryState::Disk;
        }
        // A hit serves the cache's own slice (a refcount bump, not a
        // copy); the store fallback inside `begin_serve_body` covers
        // the raced-eviction window.
        if let Some(body) = self.fe.nodes()[node_idx].begin_serve_body(target) {
            ok_state(&self.store, target, version, body)
        } else {
            self.disk_enqueue(
                node_idx,
                DiskJob {
                    conn,
                    seq,
                    target,
                    version,
                    waiters: Vec::new(),
                    arrival: Instant::now(),
                },
            );
            EntryState::Disk
        }
    }

    /// Stages and writes ready responses, recomputes poll interests,
    /// and decides whether the connection closes. Returns liveness.
    fn advance_client(&mut self, idx: usize, c: &mut ClientConn) -> bool {
        loop {
            c.stage_ready();
            if c.out.is_empty() {
                break; // nothing (more) writable right now
            }
            if c.write_out().is_err() {
                return false;
            }
            if !c.out.is_empty() {
                break; // socket would block; WRITABLE interest below
            }
        }
        // If the front entry is a splice with room again, re-arm its
        // feeding session — it pauses its own reads on backpressure and
        // cannot wake itself when the client drains.
        let resume = match c.entries.front() {
            Some(Entry {
                state: EntryState::Streaming(s),
                ..
            }) if !s.finished_receiving()
                && s.buffered < HIGH_WATER
                && c.out.len() < HIGH_WATER =>
            {
                Some(s.peer)
            }
            _ => None,
        };
        if let Some(peer) = resume {
            self.queue_pump(peer);
        }
        if (c.close_after_drain || c.eof) && c.drained() {
            return false;
        }
        let mut want = Interest::NONE;
        if !c.eof && !c.close_after_drain && !c.backpressured() {
            want = want | Interest::READABLE;
        }
        if !c.out.is_empty() {
            want = want | Interest::WRITABLE;
        }
        if want != c.interest {
            if self
                .poll
                .registry()
                .reregister(&mut c.stream, Token(self.slab_base + idx), want)
                .is_err()
            {
                return false;
            }
            c.interest = want;
        }
        true
    }

    /// Closes a client (or peer-server) slot: unwinds the dispatcher
    /// connection exactly once and frees the slab entry. Outstanding
    /// disk/lateral completions for it die against the generation check.
    fn release_client(&mut self, idx: usize, mut c: ClientConn) {
        // Splices feeding this connection may have paused their reads
        // waiting for it to drain; wake them so they run their streams
        // dry (discarding against the bumped generation) and retire
        // their flights instead of idling disarmed forever.
        for e in c.entries.iter() {
            if let EntryState::Streaming(s) = &e.state {
                self.queue_pump(s.peer);
            }
        }
        if let Some(conn) = c.conn_id {
            self.fes[c.fe_idx].close_connection(conn);
        }
        // The connection has fully unwound on its front-end; queue the
        // close notification that takes the tier's forwarding route
        // with it. (A connection still admitting holds no ticket yet:
        // it belongs to the parked handshake, which teardown abandons.)
        if let (Some(admitter), Some(ticket)) = (self.admitter.as_mut(), c.vip_conn) {
            admitter.release(c.fe_idx, ticket);
        }
        let _ = self.poll.registry().deregister(&mut c.stream);
        self.free_slot(idx);
    }

    /// Resolves pipeline slot `seq` of a (possibly already gone)
    /// connection and pushes the pipeline forward.
    fn deliver(&mut self, conn: SlotRef, seq: u64, state: EntryState) {
        self.with_client(conn, |c| c.resolve(seq, state));
    }

    /// Runs `f` on client connection `conn` unless it died meanwhile
    /// (the completion outlived it), then pushes it forward — stage,
    /// write, interests — releasing it if it closes.
    fn with_client(&mut self, conn: SlotRef, f: impl FnOnce(&mut ClientConn)) {
        let mut c = match self.slots.get_mut(conn.idx) {
            Some(slab) if slab.gen == conn.gen => match slab.val.take() {
                Some(Slot::Client(c)) => c,
                other => {
                    slab.val = other;
                    return;
                }
            },
            _ => return,
        };
        f(&mut c);
        if self.advance_client(conn.idx, &mut c) {
            self.slots[conn.idx].val = Some(Slot::Client(c));
        } else {
            self.release_client(conn.idx, c);
        }
    }

    // ---- disks ----------------------------------------------------------

    fn disk_enqueue(&mut self, node_idx: usize, job: DiskJob) {
        if self.disks[node_idx].busy.is_none() {
            self.disk_start(node_idx, job);
        } else {
            self.disks[node_idx].queue.push_back(job);
        }
    }

    fn disk_start(&mut self, node_idx: usize, job: DiskJob) {
        let read_time = self.fe.nodes()[node_idx].disk_read_time(job.target);
        let at = self.disks[node_idx].start(job, read_time);
        self.schedule(at, Timer::DiskDone(node_idx));
    }

    /// Node `node_idx`'s busy read reached its spindle `deadline`.
    fn disk_done(&mut self, node_idx: usize, deadline: Instant) {
        // Leader and waiters all serve clones of the slice that was
        // just admitted to the cache — one allocation for the flight.
        let node = &self.fe.nodes()[node_idx];
        let Some((job, body)) = self.disks[node_idx].finish(node, deadline) else {
            return;
        };
        let leader = ok_state(&self.store, job.target, job.version, body.clone());
        self.deliver(job.conn, job.seq, leader);
        // Waiters whose connection died meanwhile are dropped by
        // `deliver`'s generation check — the flight completes for the
        // survivors either way.
        for w in job.waiters {
            let state = ok_state(&self.store, job.target, w.version, body.clone());
            self.deliver(w.conn, w.seq, state);
        }
        if let Some(next) = self.disks[node_idx].queue.pop_front() {
            self.disk_start(node_idx, next);
        }
    }

    // ---- lateral fetches ------------------------------------------------

    /// Issues a lateral fetch for a remote assignment, preferring a
    /// pooled idle session; falls back to serving locally if no peer
    /// session can be set up.
    fn issue_lateral(&mut self, job: LateralJob, remote: NodeId) -> EntryState {
        // Single-flight: an in-flight fetch of this target from this
        // remote absorbs the request — it parks with the flight and is
        // resolved (or failed over) with the leader. Only the leader
        // pays `lateral_out` and touches the wire.
        if let Some(waiters) = self.lateral_flights.get_mut(&(remote.0, job.target)) {
            waiters.push(job);
            self.fe.nodes()[job.handler].note_coalesced_lateral();
            return EntryState::Lateral;
        }
        self.fe.nodes()[job.handler]
            .stats
            .lateral_out
            .fetch_add(1, Ordering::Relaxed);
        let target = job.target;
        let mut job = job;
        // Try pooled idle sessions first (newest first — most recently
        // proven alive).
        while let Some(pidx) = self.idle_peers[remote.0].pop() {
            match self.peer_send(pidx, job) {
                Ok(()) => return self.open_lateral_flight(remote.0, target),
                Err(j) => job = j, // stale session released; try the next
            }
        }
        // No pooled session: dial a fresh one. A dial failure is the
        // first of the mid-job peer failures that must degrade to local
        // service rather than strand the pipeline slot.
        match self.connect_peer(remote.0) {
            Ok(pidx) => match self.peer_send(pidx, job) {
                Ok(()) => self.open_lateral_flight(remote.0, target),
                Err(j) => self.lateral_fallback_state(j),
            },
            Err(_) => self.lateral_fallback_state(job),
        }
    }

    /// Registers a just-issued lateral fetch as a flight later misses
    /// can park on.
    fn open_lateral_flight(&mut self, remote: usize, target: TargetId) -> EntryState {
        self.lateral_flights.insert((remote, target), Vec::new());
        EntryState::Lateral
    }

    /// The serve-locally degradation applied when the peer path fails,
    /// as an [`EntryState`] (used while the owning
    /// client is checked out, so it cannot go through [`deliver`]).
    fn lateral_fallback_state(&mut self, job: LateralJob) -> EntryState {
        self.serve_on(job.conn, job.seq, job.handler, job.target, job.version)
    }

    /// Async variant of the fallback, for failures observed on peer
    /// session events (the owning client is in the slab then).
    fn lateral_fallback(&mut self, job: LateralJob) {
        let state = self.lateral_fallback_state(job);
        self.deliver(job.conn, job.seq, state);
    }

    /// A flight leader's lateral fetch failed: every request parked on
    /// the flight fails over to local service along with the leader —
    /// none of them may strand (their fetch will never arrive) or
    /// re-dial the peer that just failed.
    fn fail_lateral_flight(&mut self, remote: usize, leader: LateralJob) {
        let waiters = self
            .lateral_flights
            .remove(&(remote, leader.target))
            .unwrap_or_default();
        self.lateral_fallback(leader);
        for w in waiters {
            self.lateral_fallback(w);
        }
    }

    fn connect_peer(&mut self, remote: usize) -> io::Result<usize> {
        let stream = mio::net::TcpStream::connect(self.peer_addrs[remote])?;
        stream.set_nodelay(true)?;
        let idx = self.insert_slot(Slot::Peer(PeerSession::new(stream, remote)));
        let Some(Slot::Peer(p)) = self.slots[idx].val.as_mut() else {
            unreachable!("just inserted")
        };
        if let Err(e) = self.poll.registry().register(
            &mut p.stream,
            Token(self.slab_base + idx),
            Interest::READABLE,
        ) {
            self.free_slot(idx);
            return Err(e);
        }
        Ok(idx)
    }

    /// Attaches `job` to session `pidx` and writes its request. On a
    /// hard failure the session is released and the job handed back.
    fn peer_send(&mut self, pidx: usize, job: LateralJob) -> Result<(), LateralJob> {
        // An idle-pool index must still hold an idle peer session;
        // anything else is stale and must NOT be checked out (the slot
        // may have been recycled for a live connection — taking it out
        // to pattern-match would silently drop that connection).
        match self.slots.get(pidx).and_then(|s| s.val.as_ref()) {
            Some(Slot::Peer(p)) if p.job.is_none() => {}
            _ => return Err(job),
        }
        let Some(Slot::Peer(mut p)) = self.slots[pidx].val.take() else {
            unreachable!("checked above")
        };
        p.last_activity = Instant::now();
        let req = Request::get(ContentStore::uri(job.target), Version::Http11);
        p.out.extend_from_slice(&req.to_bytes());
        p.job = Some(job);
        if self.flush_peer(pidx, &mut p).is_err() {
            // Write failure mid-job: hand the job back (the caller
            // degrades it to local service) and drop the session.
            let job = p.job.take().expect("just attached");
            let _ = self.poll.registry().deregister(&mut p.stream);
            self.free_slot(pidx);
            return Err(job);
        }
        self.slots[pidx].val = Some(Slot::Peer(p));
        Ok(())
    }

    /// Writes a session's pending request bytes and refreshes its
    /// interests. `Err` means the session is unusable.
    fn flush_peer(&mut self, pidx: usize, p: &mut PeerSession) -> io::Result<()> {
        loop {
            if p.out.is_empty() {
                break;
            }
            match p.stream.write(&p.out) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted no bytes",
                    ))
                }
                Ok(n) => bytes::Buf::advance(&mut p.out, n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let want = if p.out.is_empty() {
            Interest::READABLE
        } else {
            Interest::READABLE | Interest::WRITABLE
        };
        if want != p.interest {
            self.poll
                .registry()
                .reregister(&mut p.stream, Token(self.slab_base + pidx), want)?;
            p.interest = want;
        }
        Ok(())
    }

    /// Handles readiness on a lateral session: flushes pending request
    /// bytes, then alternates pumping buffered response bytes toward
    /// the client with socket reads. Returns liveness; a dead session's
    /// in-flight job falls back to local service in [`release_peer`].
    fn drive_peer(&mut self, idx: usize, p: &mut PeerSession) -> bool {
        p.last_activity = Instant::now();
        if self.flush_peer(idx, p).is_err() {
            return false;
        }
        let mut drained = false;
        loop {
            match self.pump_peer(idx, p) {
                Pump::Dead => return false,
                Pump::Paused => return self.pause_peer(idx, p),
                Pump::More => {}
            }
            // A short read emptied the socket; level-triggered
            // readiness reports whatever (or a FIN) lands after it.
            if drained {
                return true;
            }
            match p.stream.read(&mut self.scratch) {
                Ok(0) => return false, // peer closed (idle timeout or death)
                Ok(n) => {
                    p.parser.feed(&self.scratch[..n]);
                    drained = n < self.scratch.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Consumes the session's parser-buffered response bytes: a `200`
    /// head opens a splice toward the flight leader (the client's
    /// response head goes out before any body byte has arrived), body
    /// bytes splice through as shared slices as they surface, and a
    /// completed stream retires the flight and maybe pools the session.
    fn pump_peer(&mut self, idx: usize, p: &mut PeerSession) -> Pump {
        loop {
            if let Some(st) = p.stream_in.as_mut() {
                if st.remaining > 0 {
                    if p.parser.buffered() == 0 {
                        return Pump::More;
                    }
                    let job = p.job.expect("stream implies job");
                    match self.splice_room(job.conn, job.seq) {
                        Room::Available(room) => {
                            let chunk = p.parser.take_body(st.remaining.min(room));
                            st.remaining -= chunk.len();
                            self.splice_chunk(job.conn, job.seq, chunk);
                        }
                        Room::Blocked => return Pump::Paused,
                        Room::Gone => {
                            // The client died mid-stream: keep draining
                            // the response (discarded) so the session
                            // itself stays usable and its flight retires.
                            let chunk = p.parser.take_body(st.remaining);
                            st.remaining -= chunk.len();
                        }
                    }
                    continue;
                }
                // Every body byte has arrived: the stream is done.
                let st = p.stream_in.take().expect("checked above");
                let job = p.job.take().expect("stream implies job");
                self.finish_stream(p.remote, job);
                // PR 2 anti-desync rule: only keep a stream whose
                // parser consumed exactly its response.
                if !st.keep || p.parser.buffered() != 0 {
                    return Pump::Dead;
                }
                if self.idle_peers[p.remote].len() >= self.peer_pool_cap {
                    return Pump::Dead;
                }
                self.idle_peers[p.remote].push(idx);
                continue;
            }
            if p.job.is_none() {
                // Pooled/idle: any unsolicited byte poisons the stream.
                return if p.parser.buffered() == 0 {
                    Pump::More
                } else {
                    Pump::Dead
                };
            }
            match p.parser.next_head() {
                Ok(Some(head)) => {
                    if head.status != 200 {
                        // Thread path: a non-200 is an error — serve
                        // locally (the whole flight) and do not pool.
                        let job = p.job.take().expect("checked above");
                        self.fail_lateral_flight(p.remote, job);
                        return Pump::Dead;
                    }
                    let job = *p.job.as_ref().expect("checked above");
                    p.stream_in = Some(StreamIn {
                        remaining: head.body_len,
                        keep: head.keep_alive(),
                    });
                    let me = self.slot_ref(idx);
                    self.begin_splice(me, job, head.body_len);
                }
                Ok(None) => return Pump::More,
                // Garbage from the peer; the flight fails over in
                // `release_peer` (`stream_in` is still `None`).
                Err(_) => return Pump::Dead,
            }
        }
    }

    /// Parks a session whose splice target is full: reads stay disarmed
    /// until the draining client queues a pump. Returns liveness.
    fn pause_peer(&mut self, idx: usize, p: &mut PeerSession) -> bool {
        let want = if p.out.is_empty() {
            Interest::NONE
        } else {
            Interest::WRITABLE
        };
        if want != p.interest {
            if self
                .poll
                .registry()
                .reregister(&mut p.stream, Token(self.slab_base + idx), want)
                .is_err()
            {
                return false;
            }
            p.interest = want;
        }
        true
    }

    /// Queues a lateral session for a drive pass once the current event
    /// finishes (driving it inline could re-enter a checked-out slot).
    fn queue_pump(&mut self, peer: SlotRef) {
        let Some(slab) = self.slots.get(peer.idx) else {
            return;
        };
        if slab.gen != peer.gen {
            return;
        }
        if !self.pending_pumps.contains(&peer.idx) {
            self.pending_pumps.push(peer.idx);
        }
    }

    /// Drives every queued session from the loop, where no slot is
    /// checked out. `flush_peer` at the head of the drive re-arms the
    /// paused reads; stale indices die against the slab checkout.
    fn drain_pumps(&mut self) {
        while let Some(idx) = self.pending_pumps.pop() {
            self.handle_slot(idx);
        }
    }

    /// Opens a splice: resolves the flight leader's pipeline slot to a
    /// streaming entry whose first staged chunk is the client's response
    /// head — the store's, on the wire before the body exists on this
    /// node.
    fn begin_splice(&mut self, session: SlotRef, job: LateralJob, body_len: usize) {
        // The peer serves the same store, so its `Content-Length` is
        // the target's size by construction.
        debug_assert_eq!(body_len as u64, self.store.size(job.target));
        let head = self.store.ok_head(job.target, job.version);
        self.deliver(
            job.conn,
            job.seq,
            EntryState::Streaming(StreamEntry::begin(head, body_len, session)),
        );
    }

    /// How many more spliced bytes the leader's entry can absorb.
    fn splice_room(&mut self, conn: SlotRef, seq: u64) -> Room {
        let splice = match self.slots.get_mut(conn.idx) {
            Some(SlabSlot {
                gen,
                val: Some(Slot::Client(c)),
            }) if *gen == conn.gen => c.streaming_mut(seq),
            _ => None,
        };
        match splice.map(|s| HIGH_WATER.saturating_sub(s.buffered)) {
            None => Room::Gone,
            Some(0) => Room::Blocked,
            Some(room) => Room::Available(room),
        }
    }

    /// Appends a received body slice to the leader's streaming entry
    /// and pushes the connection forward (stage + write + interests).
    fn splice_chunk(&mut self, conn: SlotRef, seq: u64, chunk: Bytes) {
        self.with_client(conn, |c| {
            if let Some(s) = c.streaming_mut(seq) {
                s.push_body(chunk);
            }
        });
    }

    /// A spliced response has fully arrived: retire the flight and
    /// resolve any parked waiters. Waiters never saw the stream, but
    /// bodies are pure functions of the target, so their copy is
    /// generated locally — one allocation shared across all of them —
    /// instead of being accumulated from the wire. They are booked as
    /// served on `remote`, beside the leader's request.
    fn finish_stream(&mut self, remote: usize, job: LateralJob) {
        let waiters = self
            .lateral_flights
            .remove(&(remote, job.target))
            .unwrap_or_default();
        if waiters.is_empty() {
            return;
        }
        self.fe.nodes()[remote].note_lateral_waiters_served(job.target, waiters.len() as u64);
        let body = self.store.body(job.target);
        for w in waiters {
            let state = ok_state(&self.store, job.target, w.version, body.clone());
            self.deliver(w.conn, w.seq, state);
        }
    }

    /// Mid-stream peer death: the leader cannot fall back to a fresh
    /// local response — its head and a body prefix are already on the
    /// wire — so the remainder is synthesized from the local store
    /// (bodies are pure functions of the target: the spliced prefix
    /// plus the synthesized suffix is byte-identical to either source
    /// alone). Parked waiters saw nothing and fail over normally.
    fn abort_stream(&mut self, remote: usize, leader: LateralJob) {
        let waiters = self
            .lateral_flights
            .remove(&(remote, leader.target))
            .unwrap_or_default();
        self.complete_stream_locally(leader);
        for w in waiters {
            self.lateral_fallback(w);
        }
    }

    /// Completes a truncated splice from the store (see
    /// [`abort_stream`](Self::abort_stream)).
    fn complete_stream_locally(&mut self, job: LateralJob) {
        let store = self.store.clone();
        self.with_client(job.conn, |c| {
            if let Some(s) = c.streaming_mut(job.seq) {
                if !s.finished_receiving() {
                    s.push_body(store.body(job.target).slice(s.pushed..));
                }
            }
        });
    }

    /// Closes a lateral session; an in-flight fetch degrades to local
    /// service — together with every request parked on its flight. A fetch that
    /// died *mid-splice* instead completes the leader from the store
    /// ([`abort_stream`](Self::abort_stream)): its response prefix is
    /// already on the wire.
    fn release_peer(&mut self, idx: usize, mut p: PeerSession) {
        self.idle_peers[p.remote].retain(|&i| i != idx);
        let _ = self.poll.registry().deregister(&mut p.stream);
        self.free_slot(idx);
        if let Some(job) = p.job.take() {
            match p.stream_in.take() {
                Some(_) => self.abort_stream(p.remote, job),
                None => self.fail_lateral_flight(p.remote, job),
            }
        }
    }

    // ---- timers & sweep -------------------------------------------------

    fn fire_timers(&mut self) {
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.expire(Instant::now(), &mut self.admitted);
            self.activate_admitted();
        }
        loop {
            let now = Instant::now();
            match self.timers.peek() {
                Some(t) if t.at <= now => {}
                _ => return,
            }
            let entry = self.timers.pop().expect("peeked above");
            match entry.kind {
                Timer::DiskDone(n) => self.disk_done(n, entry.at),
                Timer::MigrateDone {
                    conn,
                    seq,
                    to,
                    target,
                    version,
                } => {
                    // The emulated handoff exchange has been paid; the
                    // connection now serves from node `to`.
                    let node = &self.fe.nodes()[to];
                    node.stats.migrations_in.fetch_add(1, Ordering::Relaxed);
                    let state = self.serve_on(conn, seq, to, target, version);
                    self.deliver(conn, seq, state);
                }
            }
        }
    }

    /// Applies the idle-close rule (the event-loop form of a socket
    /// read timeout): a client/peer-server connection with nothing
    /// pending, or a pooled lateral session with no in-flight fetch,
    /// that has seen no activity for `read_timeout` is closed. This is
    /// also what guarantees the slab drains to zero sources after
    /// traffic stops (the soak-test invariant): pooled lateral sessions
    /// and idle peer-server connections do not linger forever.
    fn maybe_sweep_idle(&mut self, now: Instant) {
        if now.duration_since(self.last_sweep) < self.read_timeout.min(Duration::from_secs(1)) {
            return;
        }
        self.last_sweep = now;
        for idx in 0..self.slots.len() {
            let timed_out = match &self.slots[idx].val {
                // An admitting connection's wait is bounded by its
                // handshake's own deadline, not by socket idleness.
                Some(Slot::Client(c)) => {
                    !c.admitting
                        && c.drained()
                        && now.duration_since(c.last_activity) > self.read_timeout
                }
                Some(Slot::Peer(p)) => {
                    p.job.is_none() && now.duration_since(p.last_activity) > self.read_timeout
                }
                None => false,
            };
            if !timed_out {
                continue;
            }
            match self.slots[idx].val.take() {
                Some(Slot::Client(c)) => self.release_client(idx, c),
                Some(Slot::Peer(p)) => self.release_peer(idx, p),
                None => unreachable!("matched above"),
            }
        }
    }

    /// Drains every registered connection on shutdown: dispatcher state
    /// unwinds (via `release_client`) before the loop thread exits, so
    /// `Cluster::shutdown` never leaves `active_connections` dangling.
    fn teardown(&mut self) {
        // Parked lateral waiters die with their connections below; do
        // not resurrect them as local serves during teardown.
        self.lateral_flights.clear();
        for idx in 0..self.slots.len() {
            match self.slots[idx].val.take() {
                Some(Slot::Client(c)) => self.release_client(idx, c),
                Some(Slot::Peer(p)) => {
                    // Jobs die with the cluster; do not resurrect them as
                    // local serves during teardown.
                    let mut p = p;
                    p.job = None;
                    self.release_peer(idx, p);
                }
                None => {}
            }
        }
        // Every close the releases above queued must reach the tier's
        // machine before the links' sockets go with this thread.
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.teardown(self.poll.registry());
        }
        self.timers.clear();
        self.stats.shards[self.shard]
            .timers
            .store(0, Ordering::Relaxed);
    }
}
