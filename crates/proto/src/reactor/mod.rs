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
//! kernel spreads connections across the group's accept queues), with
//! a round-robin acceptor-handoff fallback where the reuseport bind is
//! unavailable.
//!
//! Lateral **serving** is event-driven too: each node's peer listener
//! is a registered source on one shard, and accepted peer connections
//! run the same incremental-parse → serve → strictly-ordered write-out
//! machine as client connections (minus the dispatcher). A
//! reactor-mode cluster therefore runs zero per-client and zero
//! per-peer-connection threads — its thread count is `reactor_shards`,
//! independent of connection count.
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
//!    incremental [`phttp_http::RequestParser`]; every drained batch of
//!    complete requests is decided **inline** via
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
//! that node, dropping every believed mapping that references it. The
//! quiescent-flush EOF of a clean `Cluster::shutdown` is distinguished
//! by the stop flag (set before the node-side streams close) and never
//! evicts. A peer session that dies mid-fetch (dial, write, or read
//! failure — e.g. the remote lateral server crashed) degrades that
//! fetch to local service, so the awaiting pipeline slot always
//! resolves and the client still sees a complete, ordered response.
//!
//! Shutdown is cooperative: `ReactorHandle::shutdown` sets the stop
//! flag and wakes every shard's poller (a blocked `epoll_wait` would
//! otherwise sleep through it), and each loop drains every registered
//! connection before exiting — the reactor-mode half of
//! `Cluster::quiesce`'s teardown contract.

mod admit;
mod conn;
mod disk;
mod peer;

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::{LockClass, Mutex};
use phttp_core::{Assignment, ForwardSemantics, NodeId};
use phttp_http::{Request, Response, Version};
use phttp_trace::TargetId;

use crate::control::FrameDecoder;
use crate::frontend::FrontEnd;
use crate::store::ContentStore;
use crate::tier::{client_key, Vip};

use admit::{Admitted, Admitter};
use conn::{ClientConn, Entry, EntryState, StreamEntry, HIGH_WATER};
use disk::{DiskJob, DiskSched, Waiter};
use peer::{LateralJob, PeerSession, StreamIn};

/// Token of the cross-thread waker.
const WAKER: Token = Token(0);
/// First front-end listener token; listener `i` is
/// `Token(LISTENER_BASE + i)`. Peer-listener tokens follow the
/// front-end listeners (`Reactor::peer_base`), control-channel tokens
/// follow those (`Reactor::control_base`), the tier's admission-link
/// ends follow those (`Reactor::link_base`, two per front-end, none
/// without a tier) and slab tokens follow those (`Reactor::slab_base`);
/// all bases are computed from the configured counts, so the ranges can
/// never collide however many listeners, nodes, control sessions, or
/// front-ends a shard serves.
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

/// Reactor configuration subset of `ProtoConfig`.
pub(crate) struct ReactorConfig {
    pub migration_delay: Duration,
    pub read_timeout: Duration,
    /// Number of event-loop shards (validated ≥ 1 by `Cluster::start`).
    pub shards: usize,
    /// Idle lateral sessions retained per peer, per shard.
    pub peer_pool_cap: usize,
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

/// Shared queue of fallback-handoff connections for one shard.
type InjectorQueue = Arc<Mutex<VecDeque<std::net::TcpStream>>>;

/// Hands accepted connections to one shard (the round-robin fallback
/// when `SO_REUSEPORT` listener groups are unavailable): the stream is
/// queued and the shard's poller woken to register it.
#[derive(Clone)]
pub(crate) struct ConnInjector {
    q: InjectorQueue,
    waker: Arc<Waker>,
}

impl ConnInjector {
    /// Queues `stream` for the shard and wakes its poller. The shard
    /// treats it exactly like a connection it accepted itself.
    pub fn push(&self, stream: std::net::TcpStream) {
        self.q.lock().push_back(stream);
        let _ = self.waker.wake();
    }
}

/// Handle held by `Cluster` to stop the loops from outside.
pub(crate) struct ReactorHandle {
    wakers: Vec<Arc<Waker>>,
    joins: Vec<std::thread::JoinHandle<()>>,
    injectors: Vec<ConnInjector>,
    stats: Arc<ReactorStats>,
}

impl ReactorHandle {
    /// Wakes every shard's poller (the stop flag must already be set)
    /// and joins the loop threads after each has drained every
    /// registered connection.
    pub fn shutdown(mut self) {
        for w in &self.wakers {
            let _ = w.wake();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }

    /// One injector per shard, for acceptor-handoff fallback mode.
    pub fn injectors(&self) -> Vec<ConnInjector> {
        self.injectors.clone()
    }

    /// The shared live-source gauges.
    pub fn stats(&self) -> Arc<ReactorStats> {
        self.stats.clone()
    }
}

/// Builds every shard on the caller's thread (so bind/registration
/// errors surface synchronously) and runs each loop on its own thread.
///
/// `fe_listeners[s]` is shard `s`'s own group of front-end accept
/// sockets (empty in acceptor-handoff fallback mode); `peer_listeners`
/// are the back-ends' lateral-server listeners in node order and
/// `controls` the front-end sides of the control sessions tagged with
/// their node — both are distributed across shards by `node % shards`.
#[allow(clippy::too_many_arguments)] // construction-time plumbing, one caller
pub(crate) fn spawn(
    cfg: ReactorConfig,
    fes: Vec<Arc<FrontEnd>>,
    vip: Option<Arc<Vip>>,
    store: Arc<ContentStore>,
    fe_listeners: Vec<Vec<mio::net::TcpListener>>,
    peer_listeners: Vec<std::net::TcpListener>,
    controls: Vec<(usize, std::net::TcpStream)>,
    stop: Arc<AtomicBool>,
) -> io::Result<ReactorHandle> {
    // `fes[0]` keeps the shared-node-access role everywhere the shard
    // does not act for a specific connection (nodes, semantics, and
    // peer addresses are identical across the tier's front-ends).
    let fe = fes[0].clone();
    let shards = cfg.shards;
    debug_assert_eq!(fe_listeners.len(), shards, "one listener group per shard");
    let stats = Arc::new(ReactorStats::new(shards));

    // Round-robin the per-node sources across shards.
    let mut peer_groups: Vec<Vec<(usize, std::net::TcpListener)>> =
        (0..shards).map(|_| Vec::new()).collect();
    for (node, l) in peer_listeners.into_iter().enumerate() {
        peer_groups[node % shards].push((node, l));
    }
    let mut control_groups: Vec<Vec<(usize, std::net::TcpStream)>> =
        (0..shards).map(|_| Vec::new()).collect();
    for (node, s) in controls {
        control_groups[node % shards].push((node, s));
    }

    let nodes = fe.nodes().len();
    let peer_addrs = fe.nodes()[0].peer_addrs.clone();
    let semantics = fe.semantics();

    let mut wakers = Vec::with_capacity(shards);
    let mut joins = Vec::with_capacity(shards);
    let mut injectors = Vec::with_capacity(shards);
    for (shard_idx, (fe_group, (peers, ctrls))) in fe_listeners
        .into_iter()
        .zip(peer_groups.into_iter().zip(control_groups))
        .enumerate()
    {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
        let inbox: InjectorQueue = Arc::new(Mutex::new_classed(
            LockClass::other("accept-inbox"),
            VecDeque::new(),
        ));
        injectors.push(ConnInjector {
            q: inbox.clone(),
            waker: waker.clone(),
        });
        wakers.push(waker);

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
        // The control sessions are ordinary readiness sources on the
        // same poller: the loop decodes their frames itself, with no
        // reader thread per node.
        let control_base = peer_base + peer_lns.len();
        let mut chans = Vec::with_capacity(ctrls.len());
        for (i, (node, s)) in ctrls.into_iter().enumerate() {
            let mut chan = ControlChan {
                node,
                stream: mio::net::TcpStream::from_std(s),
                decoder: FrameDecoder::new(),
                open: true,
            };
            poll.registry().register(
                &mut chan.stream,
                Token(control_base + i),
                Interest::READABLE,
            )?;
            chans.push(chan);
        }
        // The tier's admission links: this shard's own loopback session
        // per front-end, both ends readiness sources like the rest.
        let link_base = control_base + chans.len();
        let admitter = match &vip {
            Some(vip) => Some(Admitter::new(vip.clone(), poll.registry(), link_base)?),
            None => None,
        };
        let slab_base = link_base + admitter.as_ref().map_or(0, Admitter::tokens);
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
            controls: chans,
            link_base,
            admitter,
            admitted: Vec::new(),
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
            last_sweep: Instant::now(),
            scratch: vec![0u8; 16 * 1024].into_boxed_slice(),
        };
        joins.push(
            std::thread::Builder::new()
                .name(format!("phttp-reactor-{shard_idx}"))
                .spawn(move || reactor.run())?,
        );
    }
    Ok(ReactorHandle {
        wakers,
        joins,
        injectors,
        stats,
    })
}

/// One registered control-session stream plus its frame decoder.
struct ControlChan {
    /// The back-end this session belongs to (sessions are created in
    /// node order; the index is needed for EOF-driven eviction).
    node: usize,
    stream: mio::net::TcpStream,
    decoder: FrameDecoder,
    /// Cleared on EOF or a framing error; the channel stays in the
    /// vector (token layout is positional) but is ignored thereafter.
    open: bool,
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
    /// This shard's own front-end accept sockets (reuseport group
    /// members, or empty in acceptor-handoff fallback mode).
    listeners: Vec<mio::net::TcpListener>,
    /// First peer-listener token: `LISTENER_BASE + listeners.len()`.
    peer_base: usize,
    /// This shard's share of the back-ends' lateral-server listeners
    /// (`(node, listener)`; node `i` lives on shard `i % shards`).
    peer_listeners: Vec<(usize, mio::net::TcpListener)>,
    /// First control-channel token: `peer_base + peer_listeners.len()`.
    control_base: usize,
    /// This shard's share of the registered control sessions (empty
    /// when cache feedback is disabled).
    controls: Vec<ControlChan>,
    /// First admission-link token: `control_base + controls.len()`.
    link_base: usize,
    /// The tier's admission links as this shard drives them (`None`
    /// without a tier: connections then serve the moment they are
    /// accepted).
    admitter: Option<Admitter>,
    /// Admissions resolved and not yet activated (scratch, drained by
    /// [`Reactor::activate_admitted`]).
    admitted: Vec<Admitted>,
    /// First slab token: `link_base + 2 * front_ends` under a tier.
    slab_base: usize,
    /// Accepted connections handed off by fallback acceptor threads.
    inbox: InjectorQueue,
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
    last_sweep: Instant,
    /// The shard's one socket-read buffer: every read on the loop lands
    /// here and is fed to a parser or decoder before the next.
    scratch: Box<[u8]>,
}

/// A complete `200 OK` staged for write-out: the serialized head plus
/// the *shared* body slice — the body is never copied into a contiguous
/// wire buffer; `writev` gathers the pair at send time.
fn ok_state(version: Version, body: Bytes) -> EntryState {
    let resp = Response::ok(version, body);
    EntryState::Ready(resp.head_bytes(), resp.body)
}

/// A `404 Not Found` staging pair.
fn not_found_state(version: Version) -> EntryState {
    let resp = Response::not_found(version);
    EntryState::Ready(resp.head_bytes(), resp.body)
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
                    continue; // inbox drained below, stop checked above
                } else if t < self.peer_base {
                    self.accept_all(t - LISTENER_BASE);
                } else if t < self.control_base {
                    self.accept_peers(t - self.peer_base);
                } else if t < self.link_base {
                    self.drain_control(t - self.control_base);
                } else if t < self.slab_base {
                    self.on_link_event(t - self.link_base);
                } else {
                    self.handle_slot(t - self.slab_base);
                }
            }
            self.drain_inbox();
            self.fire_timers();
            self.drain_pumps();
            self.maybe_sweep_idle();
            self.flush_links();
            self.stats.shards[self.shard]
                .timers
                .store(self.timers.len(), Ordering::Relaxed);
        }
    }

    /// Next poll timeout: the earliest timer or admission-ack
    /// deadline, capped by the idle-sweep tick.
    fn poll_timeout(&self) -> Duration {
        let tick = Duration::from_millis(200);
        let timer = self.timers.peek().map(|t| t.at);
        let ack = self.admitter.as_ref().and_then(Admitter::next_deadline);
        match timer.into_iter().chain(ack).min() {
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
                Ok((stream, peer)) => self.admit_client(stream, Ok(peer)),
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
    fn admit_client(&mut self, stream: mio::net::TcpStream, peer: io::Result<SocketAddr>) {
        let gauge = self.body_gauge();
        if self.admitter.is_none() {
            self.register_client(ClientConn::new(stream, gauge));
            return;
        }
        let idx = self.insert_slot(Slot::Client(ClientConn::admitting(stream, gauge)));
        let slot = self.slot_ref(idx);
        let admitter = self.admitter.as_mut().expect("checked above");
        admitter.admit(slot, peer.ok().map(client_key), &mut self.admitted);
        self.activate_admitted();
    }

    /// Readiness on one end of an admission link.
    fn on_link_event(&mut self, off: usize) {
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.on_event(off, self.poll.registry(), &mut self.admitted);
        }
        self.activate_admitted();
    }

    /// Sends the frames this turn queued on the admission links: one
    /// write per direction per link, however many connections opened
    /// or closed.
    fn flush_links(&mut self) {
        if let Some(admitter) = self.admitter.as_mut() {
            admitter.flush(self.poll.registry(), &mut self.admitted);
        }
        self.activate_admitted();
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

    /// Takes in connections handed off by fallback acceptor threads.
    fn drain_inbox(&mut self) {
        loop {
            let Some(stream) = self.inbox.lock().pop_front() else {
                return;
            };
            let peer = stream.peer_addr();
            self.admit_client(mio::net::TcpStream::from_std(stream), peer);
        }
    }

    // ---- control sessions -----------------------------------------------

    /// Drains one control session as far as readiness allows, applying
    /// every decoded frame to every front-end — the event-loop analogue
    /// of the blocking reader a node joined after start gets
    /// (feedback describes the node's cache, which all the tier's
    /// dispatchers decide against). A session that dies while the
    /// cluster is not shutting down is a node-failure signal: the
    /// node's believed mappings are evicted from every front-end.
    fn drain_control(&mut self, idx: usize) {
        // Field-split the borrows: the channel is driven mutably while
        // frames are applied through `fes` and deregistration goes
        // through `poll` — disjoint fields of `self`.
        let Reactor {
            controls,
            fes,
            poll,
            stop,
            scratch: buf,
            ..
        } = self;
        let Some(chan) = controls.get_mut(idx) else {
            return;
        };
        if !chan.open {
            return;
        }
        // Closes the channel; outside a clean shutdown this is a crash
        // EOF (or a poisoned stream) and the node's mappings go with it.
        let fail = |chan: &mut ControlChan| {
            chan.open = false;
            let _ = poll.registry().deregister(&mut chan.stream);
            if !stop.load(Ordering::Relaxed) {
                for fe in fes.iter() {
                    fe.evict_node(NodeId(chan.node));
                }
            }
        };
        loop {
            match chan.stream.read(buf) {
                Ok(0) => {
                    // Node side closed while the cluster is live: the
                    // node is gone (clean shutdown never reaches here —
                    // the loop exits on the stop flag first).
                    fail(chan);
                    return;
                }
                Ok(n) => {
                    chan.decoder.feed(&buf[..n]);
                    loop {
                        match chan.decoder.next() {
                            Ok(Some(msg)) => {
                                for fe in fes.iter() {
                                    fe.apply_control(msg.clone());
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Framing has no resync point; treat a
                                // poisoned session like a dead node.
                                fail(chan);
                                return;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    fail(chan);
                    return;
                }
            }
        }
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

    /// Drains complete requests from the parser and turns them into
    /// pipeline entries.
    fn process_available(
        &mut self,
        idx: usize,
        c: &mut ClientConn,
    ) -> Result<(), phttp_http::ParseError> {
        loop {
            if c.close_after_drain {
                // Once a non-keep-alive request (or EOF) ends the
                // logical connection, later pipelined requests are not
                // served.
                return Ok(());
            }
            let batch = c.parser.drain()?;
            if batch.is_empty() {
                return Ok(());
            }
            if c.peer_server {
                self.process_peer_batch(idx, c, batch);
            } else {
                self.process_batch(idx, c, batch);
            }
        }
    }

    /// One drained batch of a client connection: the first request
    /// drives the content-based handoff, every subsequent drained batch
    /// is decided in one `assign_batch` call.
    fn process_batch(&mut self, idx: usize, c: &mut ClientConn, mut batch: Vec<Request>) {
        let me = self.slot_ref(idx);
        if c.conn_id.is_none() {
            let first = batch.remove(0);
            let Some(target) = self.store.lookup(&first.uri) else {
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
            if !first.keep_alive() {
                c.close_after_drain = true;
                return;
            }
            if batch.is_empty() {
                return;
            }
        }
        let conn = c.conn_id.expect("handoff done above");

        // One dispatcher call for the whole pipelined batch — a single
        // connection-shard visit and grouped mapping-shard locks, inline
        // on the event loop.
        let targets: Vec<Option<TargetId>> =
            batch.iter().map(|r| self.store.lookup(&r.uri)).collect();
        let known: Vec<TargetId> = targets.iter().filter_map(|&t| t).collect();
        let assignments = self.fes[c.fe_idx].assign_batch(conn, &known);
        let mut next_assignment = assignments.into_iter();

        for (req, target) in batch.iter().zip(&targets) {
            let Some(target) = *target else {
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
            if !req.keep_alive() {
                c.close_after_drain = true;
                break;
            }
        }
    }

    /// The peer-server analogue of [`process_batch`]: every request
    /// serves on the listener's node — no handoff, no dispatcher, same
    /// strict response ordering, with per-request `lateral_in`
    /// accounting.
    fn process_peer_batch(&mut self, idx: usize, c: &mut ClientConn, batch: Vec<Request>) {
        let me = self.slot_ref(idx);
        let node_idx = c.node;
        for req in batch {
            let Some(target) = self.store.lookup(&req.uri) else {
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
            ok_state(version, body)
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
        let Some(slab) = self.slots.get_mut(conn.idx) else {
            return;
        };
        if slab.gen != conn.gen {
            return; // the connection died; completion outlived it
        }
        let Some(slot) = slab.val.take() else {
            return; // being driven higher up the stack (cannot happen: single-threaded)
        };
        match slot {
            Slot::Client(mut c) => {
                c.resolve(seq, state);
                if self.advance_client(conn.idx, &mut c) {
                    self.slots[conn.idx].val = Some(Slot::Client(c));
                } else {
                    self.release_client(conn.idx, c);
                }
            }
            other => {
                self.slots[conn.idx].val = Some(other);
            }
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
        self.deliver(job.conn, job.seq, ok_state(job.version, body.clone()));
        // Waiters whose connection died meanwhile are dropped by
        // `deliver`'s generation check — the flight completes for the
        // survivors either way.
        for w in job.waiters {
            self.deliver(w.conn, w.seq, ok_state(w.version, body.clone()));
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
        loop {
            match self.pump_peer(idx, p) {
                Pump::Dead => return false,
                Pump::Paused => return self.pause_peer(idx, p),
                Pump::More => {}
            }
            match p.stream.read(&mut self.scratch) {
                Ok(0) => return false, // peer closed (idle timeout or death)
                Ok(n) => p.parser.feed(&self.scratch[..n]),
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
    /// streaming entry whose first staged chunk is the client's
    /// serialized response head — on the wire before the body exists on
    /// this node.
    fn begin_splice(&mut self, session: SlotRef, job: LateralJob, body_len: usize) {
        let head = Response::ok_head(job.version, body_len);
        self.deliver(
            job.conn,
            job.seq,
            EntryState::Streaming(StreamEntry::begin(head, body_len, session)),
        );
    }

    /// How many more spliced bytes the leader's entry can absorb.
    fn splice_room(&self, conn: SlotRef, seq: u64) -> Room {
        let Some(slab) = self.slots.get(conn.idx) else {
            return Room::Gone;
        };
        if slab.gen != conn.gen {
            return Room::Gone;
        }
        let Some(Slot::Client(c)) = slab.val.as_ref() else {
            return Room::Gone;
        };
        let Some(front_seq) = c.entries.front().map(|e| e.seq) else {
            return Room::Gone;
        };
        let Some(off) = seq.checked_sub(front_seq) else {
            return Room::Gone;
        };
        match c.entries.get(off as usize).map(|e| &e.state) {
            Some(EntryState::Streaming(s)) => {
                let room = HIGH_WATER.saturating_sub(s.buffered);
                if room == 0 {
                    Room::Blocked
                } else {
                    Room::Available(room)
                }
            }
            _ => Room::Gone,
        }
    }

    /// Appends a received body slice to the leader's streaming entry
    /// and pushes the connection forward (stage + write + interests).
    fn splice_chunk(&mut self, conn: SlotRef, seq: u64, chunk: Bytes) {
        let Some(slab) = self.slots.get_mut(conn.idx) else {
            return;
        };
        if slab.gen != conn.gen {
            return;
        }
        let Some(slot) = slab.val.take() else {
            return;
        };
        match slot {
            Slot::Client(mut c) => {
                if let Some(front_seq) = c.entries.front().map(|e| e.seq) {
                    if let Some(off) = seq.checked_sub(front_seq) {
                        if let Some(Entry {
                            state: EntryState::Streaming(s),
                            ..
                        }) = c.entries.get_mut(off as usize)
                        {
                            s.push_body(chunk);
                        }
                    }
                }
                if self.advance_client(conn.idx, &mut c) {
                    self.slots[conn.idx].val = Some(Slot::Client(c));
                } else {
                    self.release_client(conn.idx, c);
                }
            }
            other => {
                self.slots[conn.idx].val = Some(other);
            }
        }
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
            self.deliver(w.conn, w.seq, ok_state(w.version, body.clone()));
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
        let Some(slab) = self.slots.get_mut(job.conn.idx) else {
            return;
        };
        if slab.gen != job.conn.gen {
            return;
        }
        let Some(slot) = slab.val.take() else {
            return;
        };
        match slot {
            Slot::Client(mut c) => {
                if let Some(front_seq) = c.entries.front().map(|e| e.seq) {
                    if let Some(off) = job.seq.checked_sub(front_seq) {
                        if let Some(Entry {
                            state: EntryState::Streaming(s),
                            ..
                        }) = c.entries.get_mut(off as usize)
                        {
                            if !s.finished_receiving() {
                                let rest = self.store.body(job.target).slice(s.pushed..);
                                s.push_body(rest);
                            }
                        }
                    }
                }
                if self.advance_client(job.conn.idx, &mut c) {
                    self.slots[job.conn.idx].val = Some(Slot::Client(c));
                } else {
                    self.release_client(job.conn.idx, c);
                }
            }
            other => {
                self.slots[job.conn.idx].val = Some(other);
            }
        }
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
    fn maybe_sweep_idle(&mut self) {
        let now = Instant::now();
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
