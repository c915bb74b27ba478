//! Cluster assembly: back-end nodes, front-ends, and the reactor shards
//! that serve them — the runnable analogue of the paper's §7 testbed.
//!
//! ## Data path
//!
//! 1. A client connects to a front-end address; the reactor shard that
//!    accepts it reads the first request (content-based distribution
//!    requires it) and asks the policy for a node — the *handoff*. From
//!    then on the shard serves the connection as that back-end: client
//!    bytes flow to it directly, responses flow back directly, and the
//!    front-end only sees per-request control traffic — the same
//!    division of labour as the paper's kernel handoff (DESIGN.md
//!    §6.2/§6.4).
//! 2. Subsequent pipelined batches are parsed off the socket; each
//!    batch is reported to the dispatcher, which answers `Local` or
//!    `Remote(k)` per request. A remote assignment is realized by
//!    *tagging* the request URI (`/be_<k>/t/<id>`, §7.3 verbatim) and
//!    fetching laterally from node `k`'s peer server over a persistent
//!    connection (the NFS stand-in).
//! 3. Peer servers serve `/t/<id>` from their own cache/disk, so a
//!    lateral fetch exercises the remote node's cache exactly as NFS
//!    reads hit the remote buffer cache in the paper.
//!
//! See the [`crate::reactor`] module docs for how the shards drive
//! each step without blocking.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{LockClass, Mutex};
use phttp_core::{LardParams, Mechanism, NodeId, PolicyKind};
use phttp_simcore::EvictPolicy;
use phttp_trace::Trace;

use crate::control::FrameDecoder;
use crate::frontend::{ConfigError, FrontEnd, DEFAULT_DISK_REPORT_INTERVAL};
use crate::node::{DiskEmu, FeedbackConfig, NodeState, NodeStatsSnapshot};
use crate::reactor::{self, ReactorConfig, ReactorHandle, ReactorStats};
use crate::store::ContentStore;
use crate::tier::{Vip, DEFAULT_GOSSIP_INTERVAL};

/// The I/O model the front-end runs client connections on. The reactor
/// is the only one; the enum (and [`ProtoConfig::io_model`]) stays
/// only because the benchmark package (`crates/bench/src/bin/phttp-load`)
/// names it, and goes with the next change to that package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// [`ProtoConfig::reactor_shards`] event-loop threads drive every
    /// client connection, lateral fetch, lateral **server** connection,
    /// and emulated disk through epoll-style readiness (see the
    /// [`crate::reactor`] module docs). Concurrency is bounded by file
    /// descriptors, not threads — the P-HTTP many-connection regime —
    /// and the cluster runs zero per-client and zero per-peer-connection
    /// threads.
    #[default]
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
    /// Idle timeout of a client or peer connection (bounds a
    /// connection's lifetime after its client goes silent).
    pub read_timeout: Duration,
    /// Front-end I/O model; it has one value, [`IoModel::Reactor`]. Kept
    /// only because the benchmark package names it; it goes with the
    /// next change to that package.
    pub io_model: IoModel,
    /// Number of reactor event-loop shards (one per core on a real
    /// host). Each shard owns its own poller, accept socket(s) (an
    /// `SO_REUSEPORT` group per front-end address, falling back to a
    /// round-robin acceptor handoff where the group bind is
    /// unavailable), connection slab, timer heap, lateral session pools,
    /// and its share of the peer listeners and control sessions; shards
    /// share only the lock-sharded dispatcher. 0 is a [`ConfigError`].
    pub reactor_shards: usize,
    /// Idle persistent lateral connections retained per peer pool (per
    /// shard, and per node for [`NodeState::lateral_fetch`]).
    /// Zero is a [`ConfigError`]: it would silently turn every lateral
    /// fetch into a fresh dial, defeating the persistent peer sessions
    /// the paper's NFS stand-in depends on.
    pub peer_pool_cap: usize,
    /// Forces the reactor's round-robin acceptor-handoff accept path
    /// even where `SO_REUSEPORT` listener groups are available
    /// (diagnostics/tests; normally the handoff is auto-selected only
    /// when the group bind fails).
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
    /// Blocking acceptors of the acceptor-handoff fallback (none when
    /// the shards own the listeners).
    accept_threads: Vec<std::thread::JoinHandle<()>>,
    /// The event-loop shards; `None` once shutdown begins.
    reactor: Option<ReactorHandle>,
    /// Live reactor gauges (outlive `reactor` queries during shutdown).
    reactor_stats: Arc<ReactorStats>,
    /// Whether the reactor fell back to acceptor handoff.
    accept_handoff: bool,
    /// Addresses whose blocking acceptors need a wake-up connect at
    /// shutdown.
    listeners: Vec<SocketAddr>,
    /// Whether the control plane exists (`ProtoConfig::cache_feedback`):
    /// with it, joins travel the wire; without, they apply in-process.
    cache_feedback: bool,
    /// Resolved per-slot capacity weights (all 1 when homogeneous).
    weights: Vec<u32>,
    /// Control-session readers installed by [`join_node`](Self::join_node)
    /// after start (a dynamically joined node's session is drained by a
    /// blocking reader thread — see ARCHITECTURE.md), joined at
    /// shutdown.
    dynamic_control_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The periodic breaker cooldown ticker, if enabled.
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Builds and starts a cluster serving the trace's corpus.
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid — no
    /// back-ends, say, or a mechanism the prototype does not implement
    /// (relaying front-end and the zero-cost ideal are simulator-only).
    ///
    /// # Panics
    ///
    /// Panics if sockets cannot be bound on loopback or the event loops
    /// cannot start.
    pub fn start(config: ProtoConfig, trace: &Trace) -> Result<Cluster, ConfigError> {
        if config.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if config.reactor_shards == 0 {
            return Err(ConfigError::ZeroReactorShards);
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
        // side is drained by the reactor shards' pollers as registered
        // readiness sources. Frames carry the node id; the receive side is
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

        // The event-loop shards own every listener outright: the
        // front-end accept sockets, the peer lateral servers, and the
        // control sessions are all registered readiness sources — no
        // acceptor threads and no per-connection threads. Shutdown goes
        // through the shard wakers instead of wake-up connects.
        let shards = config.reactor_shards;
        let mut fe_addrs = Vec::new();
        // Per-shard front-end accept sockets. With one shard the plain
        // listeners suffice; with several, each address is an
        // SO_REUSEPORT group with one member per shard, so the kernel
        // spreads accepts with no cross-shard traffic. Tier or not: a
        // shard admits what it accepts over its own admission links.
        let mut groups: Vec<Vec<mio::net::TcpListener>> = (0..shards).map(|_| Vec::new()).collect();
        let mut handoff = config.force_accept_handoff;
        let mut std_fe_listeners = Vec::new();
        // Addresses whose *blocking* accept loops need a wake-up connect
        // at shutdown (only the acceptor-handoff fallback has any).
        let mut listeners = Vec::new();
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
                        // The shim can't express the group here: fall
                        // back to acceptor handoff for every address
                        // (mixed modes would complicate shutdown for no
                        // benefit).
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
            control_rx,
            stop.clone(),
        )
        .expect("start reactor event loops");
        // Acceptor-handoff fallback: blocking acceptors hand each accepted
        // stream, untouched, to the next shard round-robin (staggered per
        // listener so one hot address still spreads).
        let mut accept_threads = Vec::new();
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
        let reactor_stats = handle.stats();

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
            reactor: Some(handle),
            reactor_stats,
            accept_handoff: handoff,
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
    /// blocking reader thread (the reactor's registered control sources
    /// are fixed at spawn; see ARCHITECTURE.md). Returns `false` for an
    /// out-of-range slot.
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
    /// arrives, which can be a beat before the event loop observes
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
    /// across every shard. The soak test uses this to prove the slab and
    /// timer heap drain to zero once traffic stops. Always `Some`: the
    /// `Option` stays only because the benchmark package names this
    /// signature, and goes with the next change to that package.
    pub fn reactor_stats(&self) -> Option<&ReactorStats> {
        Some(&self.reactor_stats)
    }

    /// Whether the reactor accepted via round-robin handoff rather than
    /// `SO_REUSEPORT` listener groups. Diagnostics: lets tests assert
    /// the accept path they meant to exercise is the one that actually
    /// ran.
    pub fn used_accept_handoff(&self) -> bool {
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
    /// This wakes the pollers and waits for the event loops to drain
    /// every registered connection — a blocked
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
        // Control sessions last: traffic has stopped, so flush whatever
        // feedback is still pending (the quiescent flush), then close the
        // node-side streams — the joined nodes' blocking readers see EOF
        // after draining the final frames and exit without any timeout.
        for node in self.frontend.nodes() {
            node.flush_feedback();
            node.close_control();
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_nodes_is_a_config_error() {
        let trace = Trace::new(Vec::new(), vec![100]);
        let config = ProtoConfig {
            nodes: 0,
            ..ProtoConfig::default()
        };
        match Cluster::start(config, &trace) {
            Err(e) => assert_eq!(e, ConfigError::ZeroNodes),
            Ok(cluster) => {
                cluster.shutdown();
                panic!("a cluster without back-ends must be refused");
            }
        }
        assert!(ConfigError::ZeroNodes.to_string().contains("nodes"));
    }
}
