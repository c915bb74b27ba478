//! Cluster assembly: peer servers, the front-end acceptor, and the
//! connection handlers — the runnable analogue of the paper's §7 testbed.
//!
//! ## Data path
//!
//! 1. A client connects to the front-end address; the acceptor spawns a
//!    handler thread which reads the first request (content-based
//!    distribution requires it) and asks the policy for a node — the
//!    *handoff*. From then on the thread acts as that back-end's connection
//!    handler: client bytes flow to it directly, responses flow back
//!    directly, and the front-end only sees per-request control traffic —
//!    the same division of labour as the paper's kernel handoff
//!    (DESIGN.md §6.2/§6.4).
//! 2. Subsequent pipelined batches are read off the socket; each request is
//!    reported to the dispatcher, which answers `Local` or `Remote(k)`. A
//!    remote assignment is realized by *tagging* the request URI
//!    (`/be_<k>/t/<id>`, §7.3 verbatim) and fetching laterally from node
//!    `k`'s peer server over a persistent connection (the NFS stand-in).
//! 3. Peer servers serve `/t/<id>` from their own cache/disk, so a lateral
//!    fetch exercises the remote node's cache exactly as NFS reads hit the
//!    remote buffer cache in the paper.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{LockClass, Mutex};
use phttp_core::{Assignment, ConnId, LardParams, Mechanism, NodeId, PolicyKind};
use phttp_http::{Request, RequestParser, Response};
use phttp_simcore::EvictPolicy;
use phttp_trace::{TargetId, Trace};

use crate::control::FrameDecoder;
use crate::frontend::{ConfigError, ConnGuard, FrontEnd, DEFAULT_DISK_REPORT_INTERVAL};
use crate::node::{DiskEmu, FeedbackConfig, NodeState, NodeStatsSnapshot};
use crate::reactor::{self, ReactorConfig, ReactorHandle, ReactorStats};
use crate::store::ContentStore;
use crate::tier::{client_key, Vip, DEFAULT_GOSSIP_INTERVAL};

/// Which I/O model the front-end runs client connections on.
///
/// Both models share everything above the socket layer — the
/// [`FrontEnd`], the batched dispatcher path, the content store, the
/// peer lateral servers — and produce byte-identical responses, so
/// [`IoModel::Threads`] doubles as a differential-testing oracle for
/// [`IoModel::Reactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// A pre-spawned worker pool with one blocking thread per in-flight
    /// client connection. Simple and the historical default, but
    /// concurrency is capped by `ProtoConfig::workers` and every idle
    /// persistent connection pins a thread.
    #[default]
    Threads,
    /// [`ProtoConfig::reactor_shards`] event-loop threads drive every
    /// client connection, lateral fetch, lateral **server** connection,
    /// and emulated disk through epoll-style readiness (see the
    /// [`crate::reactor`] module docs). Concurrency is bounded by file
    /// descriptors, not threads — the P-HTTP many-connection regime —
    /// and the cluster runs zero per-client and zero per-peer-connection
    /// threads.
    Reactor,
}

/// Prototype cluster configuration.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Number of back-end nodes.
    pub nodes: usize,
    /// Request-distribution policy.
    pub policy: PolicyKind,
    /// Request-distribution mechanism: back-end forwarding (the paper's §7
    /// implementation) or multiple handoff (our extension — the paper
    /// sketches the design in §7.2; in-process stream transfer makes the
    /// migration trivial to realize).
    pub mechanism: Mechanism,
    /// Emulated cost of one connection migration (the kernel handoff
    /// protocol exchange the in-process transfer does not pay).
    pub migration_delay: Duration,
    /// Per-node cache budget, bytes.
    pub cache_bytes: u64,
    /// Disk emulation parameters.
    pub disk: DiskEmu,
    /// LARD parameters.
    pub lard: LardParams,
    /// Minimum wall-clock spacing between disk-queue refreshes pushed
    /// into the dispatcher (`Duration::ZERO` = refresh on every
    /// decision). See [`FrontEnd::with_disk_report_interval`].
    pub disk_report_interval: Duration,
    /// Cache-coherent mapping feedback: when `true`, every back-end gets
    /// a real control session (a loopback stream to the front-end) over
    /// which it reports its cache admission/eviction deltas, and the
    /// dispatcher prunes believed mappings whose targets were evicted.
    /// When `false`, the mapping belief only grows — the paper's
    /// open-loop behaviour.
    pub cache_feedback: bool,
    /// Minimum spacing between a node's feedback reports (the
    /// control-session cadence; the staleness/traffic trade-off knob).
    pub feedback_interval: Duration,
    /// A node flushes a report early once this many events are pending,
    /// bounding report size under heavy eviction churn.
    pub feedback_batch: usize,
    /// Socket read timeout (bounds handler lifetime after client death).
    pub read_timeout: Duration,
    /// Size of the pre-spawned client-connection worker pool. Must exceed
    /// the expected number of concurrent client connections; excess
    /// connections wait in the accept queue. Pre-spawning avoids paying a
    /// thread spawn per HTTP/1.0 connection, which would otherwise dominate
    /// the very overhead P-HTTP is being compared against.
    pub workers: usize,
    /// Front-end I/O model: blocking worker threads (the oracle) or the
    /// event-driven reactor. See [`IoModel`].
    pub io_model: IoModel,
    /// Number of reactor event-loop shards under [`IoModel::Reactor`]
    /// (one per core on a real host). Each shard owns its own poller,
    /// accept socket(s) (an `SO_REUSEPORT` group per front-end address,
    /// falling back to a round-robin acceptor handoff where the group
    /// bind is unavailable), connection slab, timer heap, lateral
    /// session pools, and its share of the peer listeners and control
    /// sessions; shards share only the lock-sharded dispatcher. Must be
    /// 1 (the default) under [`IoModel::Threads`] — requesting shards
    /// without a reactor is a [`ConfigError`], as is 0.
    pub reactor_shards: usize,
    /// Idle persistent lateral connections retained per peer pool (per
    /// handler node in the thread model; per shard in the reactor).
    /// Zero is a [`ConfigError`]: it would silently turn every lateral
    /// fetch into a fresh dial, defeating the persistent peer sessions
    /// the paper's NFS stand-in depends on.
    pub peer_pool_cap: usize,
    /// Forces the reactor's round-robin acceptor-handoff accept path
    /// even where `SO_REUSEPORT` listener groups are available
    /// (diagnostics/tests; normally the handoff is auto-selected only
    /// when the group bind fails). No effect under [`IoModel::Threads`].
    pub force_accept_handoff: bool,
    /// Per-node cache eviction policy. The default,
    /// [`EvictPolicy::GreedyDual`], is GreedyDual-Size — what the paper's
    /// *simulator* runs (its *prototype* left replacement to FreeBSD's
    /// buffer cache) — costed by the aggregate miss delay each fetch is
    /// measured to have caused. [`EvictPolicy::Lru`] is the baseline arm
    /// and what a test that depends on strict-LRU victim order pins.
    /// Eviction order changes *when* a document is read from disk,
    /// never *what* is served.
    pub cache_policy: EvictPolicy,
    /// Number of front-end instances behind the VIP. With the default
    /// of 1 the cluster is the paper's single-front-end prototype,
    /// byte-for-byte. With more, the [`crate::tier::Vip`] routes each
    /// new client connection to one of `front_ends` independent
    /// [`FrontEnd`] dispatchers over real handoff control sessions,
    /// mapping/coherence authority is partitioned across them by a
    /// consistent-hash ring, and the instances gossip dispatcher state
    /// peer-to-peer every [`gossip_interval`](Self::gossip_interval).
    /// Zero is a [`ConfigError`].
    pub front_ends: usize,
    /// Spacing between front-end tier gossip rounds (ignored when
    /// `front_ends == 1`). Smaller means fresher non-owner views and
    /// more control traffic — the tier analogue of
    /// [`feedback_interval`](Self::feedback_interval).
    pub gossip_interval: Duration,
    /// Extra back-end slots allocated — listeners bound, peer addresses
    /// known to every node, dispatcher slots reserved — but **not**
    /// serving at start: their circuit breakers begin `Open` on every
    /// front-end (absent equals unhealthy) and no mapping ever refers
    /// to them. [`Cluster::join_node`] brings one into the serving set
    /// at runtime via the control-plane `Join` handshake.
    pub standby_nodes: usize,
    /// Relative per-node serving capacities, indexed by node slot over
    /// `nodes + standby_nodes`. Policies normalize load by weight, so a
    /// weight-2 node carries roughly twice a weight-1 node's share.
    /// Empty means homogeneous (all 1). Non-empty but wrong length or
    /// containing a zero is a [`ConfigError`].
    pub node_weights: Vec<u32>,
    /// Circuit-breaker parameters for the per-node health gates on
    /// every front-end (trip threshold, cooldown, probation quota).
    pub health: phttp_core::HealthConfig,
    /// Spacing between breaker cooldown ticks: every interval, each
    /// front-end's `Open` breakers advance one tick toward `HalfOpen`
    /// probation. `Duration::ZERO` disables the timer — breakers then
    /// only relax through an explicit [`Cluster::join_node`] handshake
    /// or a test's own [`FrontEnd::health_tick`] calls.
    pub health_tick_interval: Duration,
    /// Number of loopback addresses the front-end listens on
    /// (`127.0.0.1..127.0.0.k`). HTTP/1.0 load opens one TCP connection per
    /// request; on a single loopback address pair the 4-tuple space (and
    /// TIME_WAIT) throttles connection rates far below what the paper's
    /// multi-machine testbed sustained. Multiple destination addresses
    /// multiply the tuple space — the single-host stand-in for multiple
    /// client machines. All listeners feed the same dispatcher.
    pub fe_listeners: usize,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            nodes: 2,
            policy: PolicyKind::ExtLard,
            mechanism: Mechanism::BackendForwarding,
            migration_delay: Duration::from_micros(300),
            cache_bytes: 2 * 1024 * 1024,
            disk: DiskEmu::default(),
            lard: LardParams::default(),
            disk_report_interval: DEFAULT_DISK_REPORT_INTERVAL,
            cache_feedback: true,
            feedback_interval: Duration::from_millis(5),
            feedback_batch: 64,
            read_timeout: Duration::from_secs(10),
            workers: 128,
            io_model: IoModel::default(),
            reactor_shards: 1,
            peer_pool_cap: 8,
            force_accept_handoff: false,
            cache_policy: EvictPolicy::GreedyDual,
            front_ends: 1,
            gossip_interval: DEFAULT_GOSSIP_INTERVAL,
            standby_nodes: 0,
            node_weights: Vec::new(),
            health: phttp_core::HealthConfig::default(),
            health_tick_interval: Duration::from_millis(25),
            fe_listeners: 4,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    fe_addrs: Vec<SocketAddr>,
    frontend: Arc<FrontEnd>,
    /// Every front-end instance (`fes[0]` is [`Cluster::frontend`]).
    fes: Vec<Arc<FrontEnd>>,
    /// The tier router; `None` when `front_ends == 1` — the
    /// single-front-end cluster constructs no tier machinery at all.
    vip: Option<Arc<Vip>>,
    store: Arc<ContentStore>,
    stop: Arc<AtomicBool>,
    accept_threads: Vec<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    /// Per-node control-session readers ([`IoModel::Threads`] only; the
    /// reactor drains control streams on its own poller).
    control_threads: Vec<std::thread::JoinHandle<()>>,
    /// Feeds accepted client connections (with their admitted front-end
    /// index and tier ticket) to the worker pool. `None` after shutdown
    /// begins (or always, under [`IoModel::Reactor`]) so workers see a
    /// closed channel and exit.
    work_tx: Option<crossbeam::channel::Sender<(TcpStream, usize, Option<ConnId>)>>,
    /// The event-loop shards, under [`IoModel::Reactor`].
    reactor: Option<ReactorHandle>,
    /// Live reactor gauges (outlive `reactor` queries during shutdown).
    reactor_stats: Option<Arc<ReactorStats>>,
    /// Whether the reactor fell back to acceptor handoff (`None` under
    /// [`IoModel::Threads`]).
    accept_handoff: Option<bool>,
    peer_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    listeners: Vec<SocketAddr>,
    /// Whether the control plane exists (`ProtoConfig::cache_feedback`):
    /// with it, joins travel the wire; without, they apply in-process.
    cache_feedback: bool,
    /// Resolved per-slot capacity weights (all 1 when homogeneous).
    weights: Vec<u32>,
    /// Control-session readers installed by [`join_node`](Self::join_node)
    /// after start (both I/O models use a blocking reader thread for
    /// dynamically joined nodes — see ARCHITECTURE.md), joined at
    /// shutdown.
    dynamic_control_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The periodic breaker cooldown ticker, if enabled.
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Builds and starts a cluster serving the trace's corpus.
    ///
    /// Returns a [`ConfigError`] when the configured mechanism is one the
    /// prototype does not implement (relaying front-end and the zero-cost
    /// ideal are simulator-only).
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes == 0` or sockets cannot be bound on loopback.
    pub fn start(config: ProtoConfig, trace: &Trace) -> Result<Cluster, ConfigError> {
        assert!(config.nodes > 0, "cluster needs at least one back-end");
        assert!(config.workers > 0, "worker pool must not be empty");
        if config.reactor_shards == 0 {
            return Err(ConfigError::ZeroReactorShards);
        }
        if config.io_model == IoModel::Threads && config.reactor_shards > 1 {
            return Err(ConfigError::ReactorShardsWithoutReactor {
                shards: config.reactor_shards,
            });
        }
        if config.peer_pool_cap == 0 {
            return Err(ConfigError::ZeroPeerPoolCap);
        }
        if config.front_ends == 0 {
            return Err(ConfigError::ZeroFrontEnds);
        }
        let total_nodes = config.nodes + config.standby_nodes;
        if !config.node_weights.is_empty() && config.node_weights.len() != total_nodes {
            return Err(ConfigError::NodeWeightsMismatch {
                expected: total_nodes,
                got: config.node_weights.len(),
            });
        }
        if let Some(node) = config.node_weights.iter().position(|&w| w == 0) {
            return Err(ConfigError::ZeroNodeWeight { node });
        }
        if config.health.validate().is_err() {
            return Err(ConfigError::InvalidHealthConfig);
        }
        let weights = if config.node_weights.is_empty() {
            vec![1; total_nodes]
        } else {
            config.node_weights.clone()
        };
        let store = Arc::new(ContentStore::from_trace(trace));
        // Catch corpora the data path cannot round-trip at construction
        // time: a document past the parsers' MAX_BODY bound would be
        // served fine but rejected by the cluster's own client and
        // lateral-fetch response parsers on every fetch.
        if let Some(size) = (0..store.len() as u32)
            .map(|t| store.size(phttp_trace::TargetId(t)))
            .find(|&s| s > phttp_http::MAX_BODY as u64)
        {
            return Err(ConfigError::TargetExceedsBodyLimit { size });
        }
        let stop = Arc::new(AtomicBool::new(false));
        let peer_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(
            Mutex::new_classed(LockClass::other("peer-threads"), Vec::new()),
        );

        // Bind every peer listener first so all addresses are known —
        // standby slots included, so a later join changes no node's view
        // of its peers.
        let peer_listeners: Vec<TcpListener> = (0..total_nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind peer listener"))
            .collect();
        let peer_addrs: Vec<SocketAddr> = peer_listeners
            .iter()
            .map(|l| l.local_addr().expect("peer addr"))
            .collect();

        let nodes: Vec<Arc<NodeState>> = (0..total_nodes)
            .map(|i| {
                Arc::new(
                    NodeState::new(
                        NodeId(i),
                        config.cache_bytes,
                        config.disk,
                        store.clone(),
                        peer_addrs.clone(),
                    )
                    .with_peer_pool_cap(config.peer_pool_cap)
                    .with_cache_policy(config.cache_policy)
                    .with_feedback(FeedbackConfig {
                        enabled: config.cache_feedback,
                        batch: config.feedback_batch,
                        min_interval: config.feedback_interval,
                    }),
                )
            })
            .collect();

        // The front-end tier: `front_ends` independent dispatchers over
        // the same back-end nodes. `fes[0]` keeps the historical
        // `frontend` role; with more than one, the Vip routes new
        // connections across them and they gossip state peer-to-peer.
        let fes: Vec<Arc<FrontEnd>> = (0..config.front_ends)
            .map(|_| {
                Ok(Arc::new(
                    FrontEnd::with_health(
                        config.policy,
                        config.mechanism,
                        config.lard,
                        config.health,
                        nodes.clone(),
                    )?
                    .with_disk_report_interval(config.disk_report_interval),
                ))
            })
            .collect::<Result<_, ConfigError>>()?;
        let frontend = fes[0].clone();
        // Capacity weights and standby gating: a standby slot is part of
        // nobody's serving set until its Join handshake — its breaker
        // starts Open on every front-end, so no policy decision can
        // route there (absent equals unhealthy).
        for fe in &fes {
            for (i, &w) in weights.iter().enumerate() {
                fe.set_node_weight(NodeId(i), w);
            }
            for i in config.nodes..total_nodes {
                fe.health().force_open(NodeId(i));
            }
        }
        let vip = (config.front_ends > 1).then(|| Vip::start(fes.clone(), config.gossip_interval));

        // Control sessions (§7.1): one loopback stream per back-end over
        // which the node pushes framed disk-queue and cache-feedback
        // reports. The node side attaches to the NodeState; the front-end
        // side is drained by per-node reader threads (thread model) or by
        // the reactor shards' pollers as registered readiness sources
        // (reactor model). Frames carry the node id; the receive side is
        // additionally tagged with it so an unexpected EOF can name the
        // failed node.
        let mut control_rx: Vec<(usize, TcpStream)> = Vec::new();
        if config.cache_feedback {
            let ctl_listener = TcpListener::bind("127.0.0.1:0").expect("bind control listener");
            let ctl_addr = ctl_listener.local_addr().expect("control addr");
            // Serving nodes only: a standby slot gets its session from
            // its Join handshake.
            for (i, node) in nodes.iter().enumerate().take(config.nodes) {
                let tx = TcpStream::connect(ctl_addr).expect("connect control session");
                let (rx, _) = ctl_listener.accept().expect("accept control session");
                node.attach_control(tx);
                control_rx.push((i, rx));
            }
        }

        let mut accept_threads = Vec::new();
        // Addresses whose *blocking* accept loops need a wake-up connect
        // at shutdown (none of the reactor-owned listeners do).
        let mut listeners = Vec::new();

        let mut worker_threads = Vec::new();
        let mut control_threads = Vec::new();
        let mut work_tx = None;
        let mut reactor_handle = None;
        let mut reactor_stats = None;
        let mut accept_handoff = None;
        let mut fe_addrs = Vec::new();
        match config.io_model {
            IoModel::Threads => {
                listeners.extend(peer_addrs.iter().copied());
                // Peer servers: serve lateral fetches against their node's
                // state. Under the thread model peer connections are few
                // (bounded by the pooled lateral links) and long-lived, so
                // a thread per connection is fine here. (The reactor model
                // instead registers the peer listeners on its shards.)
                for (listener, node) in peer_listeners.into_iter().zip(nodes.iter()) {
                    let node = node.clone();
                    let stop = stop.clone();
                    let threads = peer_threads.clone();
                    let timeout = config.read_timeout;
                    accept_threads.push(std::thread::spawn(move || {
                        for incoming in listener.incoming() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let Ok(stream) = incoming else { break };
                            let node = node.clone();
                            let handle = std::thread::spawn(move || {
                                let _ = serve_peer_connection(stream, &node, timeout);
                            });
                            threads.lock().push(handle);
                        }
                    }));
                }
                // Control-session readers: one blocking thread per node,
                // decoding frames and applying them to the dispatcher.
                // They exit on EOF — the clean quiescent-flush EOF
                // `Cluster::shutdown` produces after setting the stop
                // flag, or a crash EOF, which evicts the node's mappings.
                for (node_idx, rx) in control_rx.drain(..) {
                    let fes = fes.clone();
                    let stop = stop.clone();
                    control_threads.push(std::thread::spawn(move || {
                        run_control_reader(rx, &fes, NodeId(node_idx), &stop);
                    }));
                }
                // Client-connection worker pool: pre-spawned handlers pull
                // accepted streams off a channel, so accepting a connection
                // costs a channel send rather than a thread spawn. Each
                // entry carries the front-end the Vip admitted it to (index
                // 0 and no tier ticket when there is no tier).
                let (tx, work_rx) =
                    crossbeam::channel::unbounded::<(TcpStream, usize, Option<ConnId>)>();
                worker_threads.reserve(config.workers);
                for _ in 0..config.workers {
                    let rx = work_rx.clone();
                    let fes = fes.clone();
                    let vip = vip.clone();
                    let store = store.clone();
                    let timeout = config.read_timeout;
                    let migration_delay = config.migration_delay;
                    worker_threads.push(std::thread::spawn(move || {
                        while let Ok((stream, fe_idx, ticket)) = rx.recv() {
                            let _ = handle_client_connection(
                                stream,
                                &fes[fe_idx],
                                &store,
                                timeout,
                                migration_delay,
                            );
                            // The connection has fully unwound: tell the
                            // tier so its forwarding route is removed.
                            if let (Some(vip), Some(conn)) = (&vip, ticket) {
                                vip.release(fe_idx, conn);
                            }
                        }
                    }));
                }
                // Front-end acceptors, all feeding the shared worker pool.
                // With a tier, the acceptor runs the Vip admission
                // handshake before queueing the stream (the analogue of
                // the paper's front-end handing the TCP state to a node).
                for fe_listener in bind_std_frontends(config.fe_listeners) {
                    let addr = fe_listener.local_addr().expect("front-end addr");
                    fe_addrs.push(addr);
                    listeners.push(addr);
                    let stop = stop.clone();
                    let tx = tx.clone();
                    let vip = vip.clone();
                    accept_threads.push(std::thread::spawn(move || {
                        for incoming in fe_listener.incoming() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let Ok(stream) = incoming else { break };
                            let (fe_idx, ticket) = admit_stream(vip.as_deref(), &stream);
                            if tx.send((stream, fe_idx, ticket)).is_err() {
                                break;
                            }
                        }
                    }));
                }
                work_tx = Some(tx);
            }
            IoModel::Reactor => {
                // The event-loop shards own every listener outright: the
                // front-end accept sockets, the peer lateral servers, and
                // the control sessions are all registered readiness
                // sources — no acceptor threads, no worker pool, no
                // per-peer-connection threads. Shutdown goes through the
                // shard wakers instead of wake-up connects.
                let shards = config.reactor_shards;
                // Per-shard front-end accept sockets. With one shard the
                // plain listeners suffice; with several, each address is
                // an SO_REUSEPORT group with one member per shard, so the
                // kernel spreads accepts with no cross-shard traffic.
                // Tier or not: a shard admits what it accepts over its
                // own admission links.
                let mut groups: Vec<Vec<mio::net::TcpListener>> =
                    (0..shards).map(|_| Vec::new()).collect();
                let mut handoff = config.force_accept_handoff;
                let mut std_fe_listeners = Vec::new();
                if shards == 1 && !handoff {
                    for l in bind_std_frontends(config.fe_listeners) {
                        fe_addrs.push(l.local_addr().expect("front-end addr"));
                        groups[0].push(mio::net::TcpListener::from_std(l));
                    }
                } else if !handoff {
                    'bind: for i in 0..config.fe_listeners.max(1) {
                        match bind_reuseport_group(i, shards) {
                            Ok((addr, group)) => {
                                fe_addrs.push(addr);
                                for (s, l) in group.into_iter().enumerate() {
                                    groups[s].push(l);
                                }
                            }
                            Err(_) => {
                                // The shim can't express the group here:
                                // fall back to acceptor handoff for every
                                // address (mixed modes would complicate
                                // shutdown for no benefit).
                                handoff = true;
                                break 'bind;
                            }
                        }
                    }
                }
                if handoff {
                    fe_addrs.clear();
                    groups = (0..shards).map(|_| Vec::new()).collect();
                    for l in bind_std_frontends(config.fe_listeners) {
                        let addr = l.local_addr().expect("front-end addr");
                        fe_addrs.push(addr);
                        listeners.push(addr);
                        std_fe_listeners.push(l);
                    }
                }
                let handle = reactor::spawn(
                    ReactorConfig {
                        migration_delay: config.migration_delay,
                        read_timeout: config.read_timeout,
                        shards,
                        peer_pool_cap: config.peer_pool_cap,
                    },
                    fes.clone(),
                    vip.clone(),
                    store.clone(),
                    groups,
                    peer_listeners,
                    std::mem::take(&mut control_rx),
                    stop.clone(),
                )
                .expect("start reactor event loops");
                // Acceptor-handoff fallback: blocking acceptors hand each
                // accepted stream, untouched, to the next shard round-robin
                // (staggered per listener so one hot address still spreads).
                if handoff {
                    let injectors = handle.injectors();
                    for (i, fe_listener) in std_fe_listeners.into_iter().enumerate() {
                        let stop = stop.clone();
                        let injectors = injectors.clone();
                        accept_threads.push(std::thread::spawn(move || {
                            for (n, incoming) in fe_listener.incoming().enumerate() {
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                let Ok(stream) = incoming else { break };
                                injectors[(i + n) % injectors.len()].push(stream);
                            }
                        }));
                    }
                }
                reactor_stats = Some(handle.stats());
                reactor_handle = Some(handle);
                accept_handoff = Some(handoff);
            }
        }

        // Breaker cooldown timer: Open breakers advance toward HalfOpen
        // probation once per interval, on every front-end.
        let health_thread = (config.health_tick_interval > Duration::ZERO).then(|| {
            let fes = fes.clone();
            let stop = stop.clone();
            let interval = config.health_tick_interval;
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval.min(Duration::from_millis(5)));
                    // Accumulate short sleeps up to the interval so
                    // shutdown never waits out a long tick.
                    let mut slept = interval.min(Duration::from_millis(5));
                    while slept < interval && !stop.load(Ordering::Relaxed) {
                        let step = (interval - slept).min(Duration::from_millis(5));
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for fe in &fes {
                        fe.health_tick();
                    }
                }
            })
        });

        Ok(Cluster {
            fe_addrs,
            frontend,
            fes,
            vip,
            store,
            stop,
            accept_threads,
            worker_threads,
            control_threads,
            work_tx,
            reactor: reactor_handle,
            reactor_stats,
            accept_handoff,
            peer_threads,
            listeners,
            cache_feedback: config.cache_feedback,
            weights,
            dynamic_control_threads: Mutex::new_classed(
                LockClass::other("dynamic-control-threads"),
                Vec::new(),
            ),
            health_thread,
        })
    }

    /// The primary address clients connect to.
    pub fn frontend_addr(&self) -> SocketAddr {
        self.fe_addrs[0]
    }

    /// Every front-end address (one per loopback alias); spread high
    /// connection-rate load across all of them.
    pub fn frontend_addrs(&self) -> &[SocketAddr] {
        &self.fe_addrs
    }

    /// The shared front-end (diagnostics).
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// A shared handle to the front-end that outlives the cluster —
    /// lets tests assert on policy state after [`Cluster::shutdown`]
    /// (which consumes the cluster).
    pub fn frontend_shared(&self) -> Arc<FrontEnd> {
        self.frontend.clone()
    }

    /// Every front-end instance in the tier (`[0]` is
    /// [`frontend`](Self::frontend); length is
    /// [`ProtoConfig::front_ends`]).
    pub fn front_ends(&self) -> &[Arc<FrontEnd>] {
        &self.fes
    }

    /// The tier router, when `front_ends > 1`.
    pub fn vip(&self) -> Option<&Arc<Vip>> {
        self.vip.as_ref()
    }

    /// Decommissions front-end `f` (tier clusters only): new
    /// connections stop routing to it, its ring share is re-owned by
    /// the survivors, and its gossiped state is dropped — while its
    /// in-flight connections drain to completion. Returns `false` with
    /// no tier, for a dead `f`, or for the last live front-end.
    pub fn kill_frontend(&self, f: usize) -> bool {
        self.vip.as_ref().is_some_and(|vip| vip.kill_frontend(f))
    }

    /// The content store (for building verifying clients).
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.store
    }

    /// Brings back-end slot `i` into the serving set via the
    /// control-plane `Join` handshake: a fresh control session is
    /// installed whose **first frame** is the node's Join announcement —
    /// slot, capacity weight, and its warm-cache journal — so every
    /// front-end warms its mapping belief from the journal, installs
    /// the weight, and closes the node's breaker *before* any feedback
    /// traffic follows on the same stream. With the control plane
    /// disabled ([`ProtoConfig::cache_feedback`] off) the handshake is
    /// applied in-process instead.
    ///
    /// Works for standby slots (first join) and for killed nodes
    /// (rejoin; see [`rejoin_node_warm`](Self::rejoin_node_warm) and
    /// [`rejoin_node_cold`](Self::rejoin_node_cold)). The node's
    /// listeners run from cluster start either way — joining is a
    /// control-plane admission, not a process launch.
    ///
    /// Dynamically installed sessions are drained by a dedicated
    /// blocking reader thread under **both** I/O models (the reactor's
    /// registered control sources are fixed at spawn; see
    /// ARCHITECTURE.md). Returns `false` for an out-of-range slot.
    pub fn join_node(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        let node = nodes[i].clone();
        if !self.cache_feedback {
            let msg = node.join_msg(self.weights[i]);
            for fe in &self.fes {
                fe.apply_control(msg.clone());
            }
            return true;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind join control listener");
        let addr = listener.local_addr().expect("join control addr");
        let tx = TcpStream::connect(addr).expect("connect join control session");
        let (rx, _) = listener.accept().expect("accept join control session");
        // Snapshot, announce, and install the session atomically: the
        // node keeps serving in-flight connections throughout its down
        // window, and an admission slipping between a detached snapshot
        // and the session install would be dropped by the session-less
        // flush path — cached content invisible to every mirror.
        node.attach_control_with_join(tx, self.weights[i])
            .expect("write join announcement");
        let fes = self.fes.clone();
        let stop = self.stop.clone();
        let handle = std::thread::spawn(move || run_control_reader(rx, &fes, NodeId(i), &stop));
        self.dynamic_control_threads.lock().push(handle);
        true
    }

    /// Kills back-end slot `i` as the failure detector sees it: the
    /// node side of its control session closes, every front-end's
    /// reader observes the EOF, evicts the node's mappings, and trips
    /// its breaker. Blocks until the breaker is `Open` on every
    /// front-end (so a subsequent rejoin cannot race the eviction);
    /// returns `false` if that does not happen within two seconds —
    /// e.g. the slot never had a session and was never serving. The
    /// node's listeners keep running; with the control plane disabled
    /// the eviction is applied in-process instead.
    pub fn kill_node(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        if !self.cache_feedback {
            for fe in &self.fes {
                fe.evict_node(NodeId(i));
            }
            return true;
        }
        nodes[i].close_control();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let all_open = self
                .fes
                .iter()
                .all(|fe| fe.health().state(NodeId(i)) == phttp_core::HealthState::Open);
            if all_open {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Rejoins a killed node **warm**: its cache survived (the process
    /// restarted, memory did not), so the Join handshake replays the
    /// cache contents and front-ends route at it with beliefs already
    /// hot. Returns `false` for an out-of-range slot.
    pub fn rejoin_node_warm(&self, i: usize) -> bool {
        self.join_node(i)
    }

    /// Rejoins a killed node **cold**: the machine rebooted, so the
    /// cache is wiped first and the Join handshake carries an empty
    /// journal — front-ends re-learn its contents from feedback as it
    /// refills. Returns `false` for an out-of-range slot.
    pub fn rejoin_node_cold(&self, i: usize) -> bool {
        let nodes = self.frontend.nodes();
        if i >= nodes.len() {
            return false;
        }
        nodes[i].reset_cache();
        self.join_node(i)
    }

    /// Advances every front-end's Open breakers one cooldown tick (the
    /// periodic timer does this automatically unless
    /// [`ProtoConfig::health_tick_interval`] is zero).
    pub fn health_tick(&self) {
        for fe in &self.fes {
            fe.health_tick();
        }
    }

    /// Waits (up to `timeout`) for every client connection's policy state
    /// to unwind. Load generators return as soon as the last response
    /// arrives, which can be a beat before the handler thread observes
    /// the client's EOF and closes the connection — call this before
    /// asserting on post-traffic accounting.
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        for fe in &self.fes {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if !fe.quiesce(left) {
                return false;
            }
        }
        // Tier clusters additionally wait for every admitted
        // connection's close notification and settle the gossiped
        // views, so post-traffic assertions see converged state.
        match &self.vip {
            Some(vip) => {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                vip.quiesce(left)
            }
            None => true,
        }
    }

    /// Live reactor gauges — registered sources and pending timers
    /// across every shard — or `None` under [`IoModel::Threads`]. The
    /// soak test uses this to prove the slab and timer heap drain to
    /// zero once traffic stops.
    pub fn reactor_stats(&self) -> Option<&ReactorStats> {
        self.reactor_stats.as_deref()
    }

    /// Whether the reactor accepted via round-robin handoff rather than
    /// `SO_REUSEPORT` listener groups (`None` under
    /// [`IoModel::Threads`]). Diagnostics: lets tests assert the accept
    /// path they meant to exercise is the one that actually ran.
    pub fn used_accept_handoff(&self) -> Option<bool> {
        self.accept_handoff
    }

    /// Per-node statistics snapshot.
    pub fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        self.frontend
            .nodes()
            .iter()
            .map(|n| n.stats.snapshot())
            .collect()
    }

    /// Forces every node to flush its pending cache-feedback report over
    /// the control session *now*, regardless of batch/interval. The
    /// application is still asynchronous (the reader/poller has to drain
    /// the frames) — callers that need the dispatcher's belief settled
    /// poll [`FrontEnd::coherence`] after this. No-op when
    /// [`ProtoConfig::cache_feedback`] is off.
    pub fn flush_feedback(&self) {
        for node in self.frontend.nodes() {
            node.flush_feedback();
        }
    }

    /// Stops the cluster: closes the listeners and joins all threads.
    /// Under [`IoModel::Reactor`] this wakes the poller and waits for
    /// the event loop to drain every registered connection — a blocked
    /// `epoll_wait` cannot observe the stop flag on its own, and open
    /// client connections must unwind their dispatcher state rather
    /// than being abandoned to the kernel.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        // Wake every blocked accept with a throwaway connection.
        for addr in &self.listeners {
            let _ = TcpStream::connect(addr);
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Closing the channel drains the pool: workers finish their current
        // connection and exit on the closed channel.
        drop(self.work_tx.take());
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // With every connection handler gone, pooled idle lateral streams
        // can only keep peer handler threads blocked in `read` until the
        // socket timeout; drop them so the peer joins below are prompt.
        for node in self.frontend.nodes() {
            node.drain_peer_pools();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.peer_threads.lock());
        for t in handles {
            let _ = t.join();
        }
        // Control sessions last: traffic has stopped, so flush whatever
        // feedback is still pending (the quiescent flush), then close the
        // node-side streams — the blocking readers see EOF after draining
        // the final frames and exit without any timeout.
        for node in self.frontend.nodes() {
            node.flush_feedback();
            node.close_control();
        }
        for t in self.control_threads.drain(..) {
            let _ = t.join();
        }
        // Dynamically joined nodes' readers exit on the same quiescent
        // EOF (their node-side streams closed above with the rest).
        let dynamic: Vec<_> = std::mem::take(&mut *self.dynamic_control_threads.lock());
        for t in dynamic {
            let _ = t.join();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        // The tier last: every serving path has drained, so no more
        // admissions or releases are coming.
        if let Some(vip) = self.vip.take() {
            vip.shutdown();
        }
    }
}

/// Runs the Vip admission handshake for a freshly accepted client
/// stream, returning the front-end to serve it on plus the tier ticket
/// to release afterwards. Without a tier — or if every handshake fails
/// — the connection falls through to an untracked front-end: serving
/// beats strict bookkeeping, matching the paper's front-end which also
/// degrades rather than refusing clients.
fn admit_stream(vip: Option<&Vip>, stream: &TcpStream) -> (usize, Option<ConnId>) {
    let Some(vip) = vip else {
        return (0, None);
    };
    match stream.peer_addr() {
        Ok(peer) => match vip.admit(client_key(peer)) {
            Some((f, conn)) => (f, Some(conn)),
            None => (vip.any_alive(), None),
        },
        Err(_) => (vip.any_alive(), None),
    }
}

/// Accept-queue depth for the reuseport groups: shards drain accepts
/// promptly, but soak-scale connect bursts need room to queue.
const REUSEPORT_BACKLOG: u32 = 4096;

/// Binds the front-end listeners: one per loopback alias
/// (127.0.0.(1+i): the whole 127/8 block is local on Linux), falling
/// back to 127.0.0.1 where aliases are unavailable.
fn bind_std_frontends(count: usize) -> Vec<TcpListener> {
    (0..count.max(1))
        .map(|i| {
            let host = format!("127.0.0.{}:0", 1 + i as u8);
            TcpListener::bind(&host)
                .or_else(|_| TcpListener::bind("127.0.0.1:0"))
                .expect("bind front-end listener")
        })
        .collect()
}

/// Binds front-end alias `alias` as an `SO_REUSEPORT` group with
/// `shards` members: the first bind picks the port, the rest join it.
/// Any error means the shim cannot express the group here; the caller
/// falls back to acceptor handoff.
fn bind_reuseport_group(
    alias: usize,
    shards: usize,
) -> std::io::Result<(SocketAddr, Vec<mio::net::TcpListener>)> {
    let host: SocketAddr = format!("127.0.0.{}:0", 1 + alias as u8)
        .parse()
        .expect("loopback alias literal");
    let localhost: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
    let first = mio::net::TcpListener::bind_reuseport(host, REUSEPORT_BACKLOG)
        .or_else(|_| mio::net::TcpListener::bind_reuseport(localhost, REUSEPORT_BACKLOG))?;
    let addr = first.local_addr()?;
    let mut group = vec![first];
    for _ in 1..shards {
        group.push(mio::net::TcpListener::bind_reuseport(
            addr,
            REUSEPORT_BACKLOG,
        )?);
    }
    Ok((addr, group))
}

/// Drains one node's control session: decodes frames and applies them
/// to every front-end until EOF or a framing error ends the stream —
/// feedback describes the *node's* cache, which all front-ends in a
/// tier dispatch against, so each keeps its own belief current. An
/// EOF (or poisoned stream) while the cluster is **not** shutting down
/// is a node failure: the node's believed mappings are evicted. The
/// quiescent-flush EOF of a clean `Cluster::shutdown` never evicts —
/// the stop flag is set before the node-side streams close.
fn run_control_reader(
    mut stream: TcpStream,
    fes: &[Arc<FrontEnd>],
    node: NodeId,
    stop: &AtomicBool,
) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let fail = |fes: &[Arc<FrontEnd>]| {
        if !stop.load(Ordering::Relaxed) {
            for fe in fes {
                fe.evict_node(node);
            }
        }
    };
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                // EOF: the node side closed. Crash unless shutting down.
                fail(fes);
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                fail(fes);
                return;
            }
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next() {
                Ok(Some(msg)) => {
                    for fe in fes {
                        fe.apply_control(msg.clone());
                    }
                }
                Ok(None) => break,
                // Framing has no resync point; treat a poisoned session
                // like a dead node.
                Err(_) => {
                    fail(fes);
                    return;
                }
            }
        }
    }
}

/// Writes one response to a blocking socket: the serialized head and
/// the shared body slice are gathered into a single `writev` — the body
/// is written straight out of the cache's (or the store's) allocation,
/// resuming mid-iovec on partial writes.
fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let head = resp.head_bytes();
    let mut segs: [&[u8]; 2] = [&head, &resp.body];
    let mut idx = 0;
    while idx < segs.len() {
        if segs[idx].is_empty() {
            idx += 1;
            continue;
        }
        let bufs: Vec<std::io::IoSlice<'_>> = segs[idx..]
            .iter()
            .map(|s| std::io::IoSlice::new(s))
            .collect();
        match stream.write_vectored(&bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(mut n) => {
                // Partial write: advance through the segments, possibly
                // landing mid-segment; the next call resumes there.
                while n > 0 {
                    let take = n.min(segs[idx].len());
                    segs[idx] = &segs[idx][take..];
                    n -= take;
                    if segs[idx].is_empty() {
                        idx += 1;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads at least one request (blocking), then drains whatever else has
/// already arrived — the handler's estimate of a pipelined batch, matching
/// the front-end's packet-arrival batch estimate in the paper.
fn read_batch(stream: &mut TcpStream, parser: &mut RequestParser) -> std::io::Result<Vec<Request>> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let batch = parser
            .drain()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if !batch.is_empty() {
            return Ok(batch);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(Vec::new()); // clean EOF
        }
        parser.feed(&buf[..n]);
    }
}

/// Serves one client connection end to end. See the module docs for the
/// protocol walk-through.
fn handle_client_connection(
    mut stream: TcpStream,
    fe: &FrontEnd,
    store: &ContentStore,
    timeout: Duration,
    migration_delay: Duration,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut parser = RequestParser::new();

    // First request: required before the policy can choose a node.
    let mut first_batch = read_batch(&mut stream, &mut parser)?;
    if first_batch.is_empty() {
        return Ok(());
    }
    let first = first_batch.remove(0);
    let Some(first_target) = store.lookup(&first.uri) else {
        write_response(&mut stream, &Response::not_found(first.version))?;
        return Ok(());
    };

    let conn = fe.alloc_conn();
    let node_id = fe.open_connection(conn, first_target);
    let _guard = ConnGuard::new(fe, conn);
    let mut node = fe.nodes()[node_id.0].clone();

    // Handoff complete: this thread is now the back-end connection handler.
    let keep = serve_one(&mut stream, fe, &node, &first, Assignment::Local)?;
    if !keep {
        return Ok(());
    }
    // Any pipelined requests that arrived with the first one form the rest
    // of batch 0 in trace terms; treat them as a batch of their own.
    let mut pending = first_batch;
    loop {
        let batch = if pending.is_empty() {
            match read_batch(&mut stream, &mut parser) {
                Ok(b) => b,
                // A read timeout is the idle-close path.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        } else {
            std::mem::take(&mut pending)
        };
        if batch.is_empty() {
            break; // client closed
        }
        // One dispatcher call for the whole pipelined batch: the parser
        // already drained it, so the policy can decide it under a single
        // connection-shard visit and grouped mapping-shard acquisitions
        // instead of per-request lock traffic. Unknown URIs get their 404
        // in sequence but take no part in the policy batch.
        let targets: Vec<Option<TargetId>> = batch.iter().map(|r| store.lookup(&r.uri)).collect();
        let known: Vec<TargetId> = targets.iter().filter_map(|&t| t).collect();
        let assignments = fe.assign_batch(conn, &known);
        let mut next_assignment = assignments.into_iter();
        for (req, target) in batch.iter().zip(&targets) {
            if target.is_none() {
                write_response(&mut stream, &Response::not_found(req.version))?;
                continue;
            }
            let mut assignment = next_assignment.next().expect("one assignment per target");
            if let Assignment::Remote(k) = assignment {
                // Under migrate semantics the dispatcher has re-homed the
                // connection: this thread now acts as back-end `k` (the
                // in-process analogue of handing the TCP state over), after
                // paying the emulated protocol cost. Checked against the
                // configured semantics, not `connection_node`: with batched
                // decisions a later request's migration may already have
                // re-homed the connection past `k`, but each hop still has
                // to be walked in order.
                if fe.semantics() == phttp_core::ForwardSemantics::Migrate {
                    std::thread::sleep(migration_delay);
                    node = fe.nodes()[k.0].clone();
                    node.stats.migrations_in.fetch_add(1, Ordering::Relaxed);
                    assignment = Assignment::Local;
                }
            }
            let keep = serve_one(&mut stream, fe, &node, req, assignment)?;
            if !keep {
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Serves a single request on the connection-handling node per the
/// assignment; returns whether the connection persists.
fn serve_one(
    stream: &mut TcpStream,
    fe: &FrontEnd,
    node: &NodeState,
    req: &Request,
    assignment: Assignment,
) -> std::io::Result<bool> {
    let body = match assignment {
        Assignment::Local => {
            let target = node
                .store
                .lookup(&req.uri)
                .expect("caller verified the target");
            node.serve_local(target)
        }
        Assignment::Remote(k) => {
            // Tag the request the way the paper's dispatcher does, then act
            // on the tag: fetch laterally from node k.
            let mut tagged = req.clone();
            tagged.tag(&format!("be_{}", k.0));
            let (_seg, rest) = Request::untag(&tagged.uri).expect("just tagged");
            let target = node.store.lookup(rest).expect("caller verified the target");
            match node.lateral_fetch_coalesced(&fe.nodes()[k.0], target) {
                Ok(body) => body,
                // Fall back to local disk if the peer path fails: the
                // paper's prototype would surface an NFS error; degrading
                // to local service keeps the cluster available.
                Err(_) => node.serve_local(target),
            }
        }
    };
    // `body` is a clone of the cache's slice (or the store's fresh
    // allocation); the gathered write sends it without flattening.
    write_response(stream, &Response::ok(req.version, body))?;
    Ok(req.keep_alive())
}

/// Serves lateral fetches on a peer connection until EOF.
fn serve_peer_connection(
    mut stream: TcpStream,
    node: &NodeState,
    timeout: Duration,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut parser = RequestParser::new();
    loop {
        let batch = match read_batch(&mut stream, &mut parser) {
            Ok(b) => b,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if batch.is_empty() {
            return Ok(());
        }
        for req in batch {
            let resp = match node.store.lookup(&req.uri) {
                // Serving for a peer exercises THIS node's cache and disk.
                Some(target) => {
                    if node.take_lateral_fault() {
                        // Injected fault: die like a crashed lateral
                        // server — close without responding. The fetcher
                        // sees EOF mid-fetch and degrades to local
                        // service.
                        return Ok(());
                    }
                    node.stats.lateral_in.fetch_add(1, Ordering::Relaxed);
                    Response::ok(req.version, node.serve_local(target))
                }
                None => Response::not_found(req.version),
            };
            write_response(&mut stream, &resp)?;
        }
    }
}
