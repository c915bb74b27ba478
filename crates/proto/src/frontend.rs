//! The front-end: policy decisions plus connection lifecycle, shared by
//! every reactor shard.
//!
//! This wraps [`phttp_core::ConcurrentDispatcher`] — the same layered
//! policy engine the simulator drives from its one event loop — with
//! **no lock of its own**. Every shard calls straight into the
//! dispatcher, whose hot path takes only the mapping shard and connection
//! shard for the request in hand, so no policy decision serializes one
//! event loop behind another. The front-end also
//! feeds the dispatcher the back-ends' disk-queue depths (the control
//! session traffic of the paper's §7.1) — throttled to a configurable
//! reporting interval, mirroring the paper's periodic control-session
//! updates, so the per-decision hot path is not dominated by O(nodes)
//! bookkeeping — and makes the lifecycle calls idempotent, so a
//! connection's teardown paths need not coordinate who closes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phttp_core::{
    Assignment, CoherenceSnapshot, ConcurrentDispatcher, ConnId, DispatcherConfig,
    ForwardSemantics, LardParams, Mechanism, NodeId, PolicyKind,
};
use phttp_trace::TargetId;

use crate::control::ControlMsg;
use crate::node::NodeState;

/// Why a front-end (and hence a cluster) could not be configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The prototype implements back-end forwarding, single handoff, and
    /// multiple handoff; the requested mechanism is simulator-only.
    UnsupportedMechanism(Mechanism),
    /// A corpus document is larger than the HTTP parsers'
    /// [`phttp_http::MAX_BODY`] bound: the cluster would serve responses
    /// its own clients and lateral fetches reject at runtime.
    TargetExceedsBodyLimit {
        /// The offending document size, bytes.
        size: u64,
    },
    /// `ProtoConfig::nodes` is zero — the cluster needs at least one
    /// serving back-end.
    ZeroNodes,
    /// `ProtoConfig::reactor_shards` is zero — a reactor front-end
    /// needs at least one event loop.
    ZeroReactorShards,
    /// `ProtoConfig::peer_pool_cap` is zero: every lateral fetch would
    /// silently dial a fresh peer connection, defeating the persistent
    /// lateral sessions the paper's NFS stand-in depends on.
    ZeroPeerPoolCap,
    /// `ProtoConfig::front_ends` is zero — the cluster needs at least
    /// one front-end instance behind the VIP.
    ZeroFrontEnds,
    /// `ProtoConfig::node_weights` is non-empty but its length does not
    /// cover every back-end slot (serving plus standby).
    NodeWeightsMismatch {
        /// Slots the cluster allocates.
        expected: usize,
        /// Weights the config supplied.
        got: usize,
    },
    /// A `ProtoConfig::node_weights` entry is zero — a node with no
    /// capacity cannot be normalized against.
    ZeroNodeWeight {
        /// The offending slot.
        node: usize,
    },
    /// `ProtoConfig::health` has a zero threshold, cooldown, or
    /// probation quota (each must be at least 1).
    InvalidHealthConfig,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnsupportedMechanism(m) => {
                write!(f, "prototype does not implement the {m} mechanism")
            }
            ConfigError::TargetExceedsBodyLimit { size } => write!(
                f,
                "corpus document of {size} bytes exceeds the {} byte HTTP body limit",
                phttp_http::MAX_BODY
            ),
            ConfigError::ZeroNodes => write!(f, "nodes must be at least 1"),
            ConfigError::ZeroReactorShards => {
                write!(f, "reactor_shards must be at least 1")
            }
            ConfigError::ZeroFrontEnds => {
                write!(f, "front_ends must be at least 1")
            }
            ConfigError::ZeroPeerPoolCap => {
                write!(f, "peer_pool_cap must be at least 1")
            }
            ConfigError::NodeWeightsMismatch { expected, got } => write!(
                f,
                "node_weights has {got} entries but the cluster allocates {expected} back-end slots"
            ),
            ConfigError::ZeroNodeWeight { node } => {
                write!(
                    f,
                    "node_weights[{node}] is zero; weights must be at least 1"
                )
            }
            ConfigError::InvalidHealthConfig => {
                write!(
                    f,
                    "health config fields (fail_threshold, cooldown_ticks, probation) must all be at least 1"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Sentinel for "no disk report has been made yet": the first decision
/// always reports, regardless of the interval.
const NEVER: u64 = u64::MAX;

/// Default disk-queue reporting interval. The simulator's control
/// sessions report every 100 ms of simulated time; the prototype runs
/// wall-clock with much faster emulated disks, so it refreshes more
/// often — still thousands of decisions apart under load.
pub const DEFAULT_DISK_REPORT_INTERVAL: Duration = Duration::from_millis(2);

/// The shared front-end.
pub struct FrontEnd {
    dispatcher: ConcurrentDispatcher,
    nodes: Vec<Arc<NodeState>>,
    next_conn: AtomicU64,
    /// Disk-queue reporting throttle (µs between reports; 0 = every call).
    disk_report_interval_us: u64,
    /// Time base for the throttle timestamps.
    started: Instant,
    /// Microseconds (since `started`) of the last disk report, or
    /// [`NEVER`]. CAS-guarded so exactly one thread per interval pays the
    /// O(nodes) stores.
    last_disk_report: AtomicU64,
    /// Nodes evicted by the control-plane failure detector (see
    /// [`evict_node`](Self::evict_node)).
    node_evictions: AtomicU64,
    /// Nodes admitted (or re-admitted) through the control-plane
    /// [`ControlMsg::Join`] handshake.
    node_joins: AtomicU64,
}

impl FrontEnd {
    /// Creates a front-end over the given back-ends.
    ///
    /// Returns [`ConfigError::UnsupportedMechanism`] unless the mechanism
    /// is back-end forwarding (the paper's §7 implementation choice),
    /// single handoff, or multiple handoff (our extension, natural with
    /// in-process stream transfer).
    pub fn new(
        policy: PolicyKind,
        mechanism: Mechanism,
        params: LardParams,
        nodes: Vec<Arc<NodeState>>,
    ) -> Result<Self, ConfigError> {
        Self::with_health(
            policy,
            mechanism,
            params,
            phttp_core::HealthConfig::default(),
            nodes,
        )
    }

    /// [`new`](Self::new) with explicit circuit-breaker parameters for
    /// the per-node health gates.
    ///
    /// # Panics
    ///
    /// Panics if `health` is invalid (`Cluster::start` validates it
    /// first and reports a [`ConfigError`] instead).
    pub fn with_health(
        policy: PolicyKind,
        mechanism: Mechanism,
        params: LardParams,
        health: phttp_core::HealthConfig,
        nodes: Vec<Arc<NodeState>>,
    ) -> Result<Self, ConfigError> {
        let semantics = match mechanism {
            Mechanism::BackendForwarding | Mechanism::SingleHandoff => {
                ForwardSemantics::LateralFetch
            }
            Mechanism::MultipleHandoff => ForwardSemantics::Migrate,
            other => return Err(ConfigError::UnsupportedMechanism(other)),
        };
        let dispatcher = ConcurrentDispatcher::from_config(
            DispatcherConfig::new(policy, semantics, nodes.len(), params).with_health(health),
        );
        Ok(FrontEnd {
            dispatcher,
            nodes,
            next_conn: AtomicU64::new(0),
            disk_report_interval_us: DEFAULT_DISK_REPORT_INTERVAL.as_micros() as u64,
            started: Instant::now(),
            last_disk_report: AtomicU64::new(NEVER),
            node_evictions: AtomicU64::new(0),
            node_joins: AtomicU64::new(0),
        })
    }

    /// Overrides the disk-queue reporting interval (builder style, before
    /// the front-end is shared). `Duration::ZERO` reports on every
    /// decision — the pre-throttle behaviour, useful in tests.
    pub fn with_disk_report_interval(mut self, interval: Duration) -> Self {
        self.disk_report_interval_us = interval.as_micros() as u64;
        self
    }

    /// The back-end nodes.
    pub fn nodes(&self) -> &[Arc<NodeState>] {
        &self.nodes
    }

    /// Allocates a fresh connection id.
    pub fn alloc_conn(&self) -> ConnId {
        ConnId(self.next_conn.fetch_add(1, Ordering::Relaxed))
    }

    /// Policy decision for a new connection's first request.
    pub fn open_connection(&self, conn: ConnId, first: TargetId) -> NodeId {
        self.maybe_report_disks();
        self.dispatcher.open_connection(conn, first)
    }

    /// Marks the start of a pipelined batch of `n` requests.
    pub fn begin_batch(&self, conn: ConnId, n: usize) {
        self.dispatcher.begin_batch(conn, n.max(1));
    }

    /// Policy decision for a subsequent request on a persistent connection.
    pub fn assign(&self, conn: ConnId, target: TargetId) -> Assignment {
        self.maybe_report_disks();
        self.dispatcher.assign_request(conn, target)
    }

    /// Policy decisions for a whole pipelined batch: one dispatcher call,
    /// one connection-shard visit, grouped mapping-shard acquisitions —
    /// and at most one disk-report refresh for the entire batch.
    /// Equivalent to [`begin_batch`](Self::begin_batch) followed by
    /// [`assign`](Self::assign) per target, in order.
    pub fn assign_batch(&self, conn: ConnId, targets: &[TargetId]) -> Vec<Assignment> {
        self.maybe_report_disks();
        self.dispatcher.assign_batch(conn, targets)
    }

    /// The node currently handling `conn` (changes under multiple handoff).
    pub fn connection_node(&self, conn: ConnId) -> Option<NodeId> {
        self.dispatcher.connection_node(conn)
    }

    /// What a remote assignment means mechanically for this front-end
    /// (lateral fetch vs. connection migration).
    pub fn semantics(&self) -> ForwardSemantics {
        self.dispatcher.semantics()
    }

    /// Closes a connection; safe to call more than once (the check and
    /// the removal are one atomic operation on the connection shard).
    pub fn close_connection(&self, conn: ConnId) {
        self.dispatcher.try_close_connection(conn);
    }

    /// Current load estimates (diagnostics).
    pub fn loads(&self) -> Vec<f64> {
        self.dispatcher.loads()
    }

    /// Number of currently tracked connections.
    pub fn active_connections(&self) -> usize {
        self.dispatcher.active_connections()
    }

    /// Mapping replication factor (diagnostics).
    pub fn replication_factor(&self) -> f64 {
        self.dispatcher.mapping().replication_factor()
    }

    /// The dispatcher's sharded mapping table (diagnostics/tests — e.g.
    /// auditing the belief against the nodes' actual cache contents).
    pub fn mapping(&self) -> &phttp_core::ShardedMappingTable {
        self.dispatcher.mapping()
    }

    /// Applies one decoded control-session message to the dispatcher.
    /// Every control stream funnels here: the reactor shards' registered
    /// control-channel readiness sources, and the blocking reader thread
    /// of each node joined after start.
    pub fn apply_control(&self, msg: ControlMsg) {
        match msg {
            ControlMsg::DiskQueue { node, depth } => {
                if node.0 < self.nodes.len() {
                    self.dispatcher.report_disk_queue(node, depth as usize);
                }
            }
            ControlMsg::CacheFeedback { node, events } => {
                if node.0 < self.nodes.len() {
                    self.dispatcher.apply_cache_feedback(node, &events);
                }
            }
            ControlMsg::Join {
                node,
                weight,
                events,
            } => {
                if node.0 < self.nodes.len() && weight > 0 {
                    self.node_joins.fetch_add(1, Ordering::Relaxed);
                    self.dispatcher.set_node_weight(node, weight);
                    // Warm-up installs the journal's net cache contents
                    // as mapping beliefs and closes the node's breaker,
                    // so the first real decision can already route at
                    // the newcomer's warm cache.
                    self.dispatcher.warm_up(node, &events);
                }
            }
            // Tier traffic (VIP admission, peer gossip) travels on its
            // own sessions and never reaches the per-node control path.
            ControlMsg::Handoff(_) | ControlMsg::StateDelta(_) => {}
        }
    }

    /// This front-end's next gossip delta as tier member `origin`: its
    /// own loads plus its `ring`-owned mapping share, whole (`full`) or
    /// only what changed since the previous delta (see
    /// [`phttp_core::ConcurrentDispatcher::gossip_delta`]).
    pub fn gossip_delta(
        &self,
        origin: phttp_core::FeId,
        seq: u64,
        full: bool,
        ring: &phttp_core::Ring,
    ) -> phttp_core::StateDelta {
        self.dispatcher.gossip_delta(origin, seq, full, ring)
    }

    /// Folds a merged peer-state diff ([`phttp_core::TierView::merge`])
    /// into the mapping belief.
    pub fn adopt_merge(&self, outcome: &phttp_core::MergeOutcome) {
        self.dispatcher.adopt_merge(outcome)
    }

    /// Installs the tier-gossiped remote load biases (aggregate peer
    /// load per back-end, fixed-point).
    pub fn set_remote_loads(&self, loads: &[i64]) {
        self.dispatcher.set_remote_loads(loads)
    }

    /// Decommissions `node` for mapping purposes: drops every believed
    /// mapping that references it and forgets its mirrored cache
    /// contents. This is the control-plane failure-handling hook — the
    /// control-session readers call it when a node's session hits an
    /// **unexpected** EOF (the node died); the quiescent-flush EOF of a
    /// clean `Cluster::shutdown` never does (distinguished by the stop
    /// flag, set before the node-side streams close). The node's
    /// listeners keep running — eviction is a mapping decommission, not
    /// a teardown — so the remaining traffic re-maps organically.
    pub fn evict_node(&self, node: NodeId) {
        if node.0 >= self.nodes.len() {
            return;
        }
        self.node_evictions.fetch_add(1, Ordering::Relaxed);
        self.dispatcher.evict_node(node);
    }

    /// How many times the failure detector evicted a node's mappings
    /// (0 across any clean cluster lifetime).
    pub fn node_evictions(&self) -> u64 {
        self.node_evictions.load(Ordering::Relaxed)
    }

    /// How many [`ControlMsg::Join`] handshakes this front-end has
    /// admitted (initial joins and post-restart rejoins alike).
    pub fn node_joins(&self) -> u64 {
        self.node_joins.load(Ordering::Relaxed)
    }

    /// The per-node circuit breakers gating this front-end's routing.
    pub fn health(&self) -> &phttp_core::HealthGate {
        self.dispatcher.health()
    }

    /// Advances every Open breaker's cooldown by one tick (the cluster's
    /// periodic health timer calls this; Open nodes relax to HalfOpen
    /// probation once their cooldown elapses).
    pub fn health_tick(&self) {
        self.dispatcher.health().tick_all();
    }

    /// Overrides one back-end's relative capacity weight.
    pub fn set_node_weight(&self, node: NodeId, weight: u32) {
        if node.0 < self.nodes.len() && weight > 0 {
            self.dispatcher.set_node_weight(node, weight);
        }
    }

    /// Coherence counters plus the divergence/believed-pair gauges
    /// (diagnostics; O(mapping size), not for the per-decision path).
    pub fn coherence(&self) -> CoherenceSnapshot {
        self.dispatcher.coherence()
    }

    /// Believed `(target, node)` pairs the feedback mirror says are not
    /// actually cached. See
    /// [`ConcurrentDispatcher::mapping_divergence`].
    pub fn mapping_divergence(&self) -> u64 {
        self.dispatcher.mapping_divergence()
    }

    /// Waits until every tracked connection has closed, up to `timeout`.
    /// Returns whether the front-end reached quiescence. The event loops
    /// observe client EOFs asynchronously, so callers that need exact
    /// post-traffic accounting (tests, orderly shutdown) wait here
    /// instead of racing the teardown.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.active_connections() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Pushes every back-end's current disk-queue depth into the
    /// dispatcher, at most once per reporting interval across all
    /// callers. A decision used to pay O(nodes) atomic stores *every*
    /// time — pure control-session bookkeeping dominating the batched hot
    /// path. Now one CAS winner per interval refreshes the depths; every
    /// other caller pays a single relaxed load and moves on. Losing the
    /// CAS means somebody else just reported — equally fresh data.
    fn maybe_report_disks(&self) {
        let last = self.last_disk_report.load(Ordering::Relaxed);
        let now = self.started.elapsed().as_micros() as u64;
        if last != NEVER && now.saturating_sub(last) < self.disk_report_interval_us {
            return;
        }
        if self
            .last_disk_report
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            for node in &self.nodes {
                self.dispatcher
                    .report_disk_queue(node.id, node.disk_queue_len());
                // Same tick, other direction: sweep out any feedback a
                // now-idle node has buffered past its own interval (a
                // node only flushes at serve time; without this, the
                // last partial batch before an idle spell would sit
                // unreported). Honours the node's own reporting cadence;
                // no-op when feedback is disabled.
                node.flush_feedback_if_due();
            }
        }
    }
}

/// Drop-guard ensuring a connection is closed exactly once even if its
/// holder unwinds.
pub struct ConnGuard<'a> {
    fe: &'a FrontEnd,
    conn: ConnId,
}

impl<'a> ConnGuard<'a> {
    /// Registers the guard.
    pub fn new(fe: &'a FrontEnd, conn: ConnId) -> Self {
        ConnGuard { fe, conn }
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.fe.close_connection(self.conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DiskEmu;
    use crate::store::ContentStore;

    fn fe(policy: PolicyKind, n: usize) -> FrontEnd {
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 16]));
        let nodes = (0..n)
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
        FrontEnd::new(
            policy,
            Mechanism::BackendForwarding,
            LardParams::default(),
            nodes,
        )
        .expect("back-end forwarding is supported")
    }

    #[test]
    fn simulator_only_mechanisms_are_config_errors() {
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 4]));
        for mech in [Mechanism::RelayingFrontend, Mechanism::ZeroCost] {
            let nodes = vec![Arc::new(NodeState::new(
                NodeId(0),
                1 << 20,
                DiskEmu::default(),
                store.clone(),
                Vec::new(),
            ))];
            let err = match FrontEnd::new(PolicyKind::Wrr, mech, LardParams::default(), nodes) {
                Err(e) => e,
                Ok(_) => panic!("{mech} must not construct a front-end"),
            };
            assert_eq!(err, ConfigError::UnsupportedMechanism(mech));
            assert!(err.to_string().contains("does not implement"));
        }
    }

    #[test]
    fn assign_batch_matches_sequential_assigns() {
        let fe_batch = fe(PolicyKind::ExtLard, 3).with_disk_report_interval(Duration::ZERO);
        let fe_seq = fe(PolicyKind::ExtLard, 3).with_disk_report_interval(Duration::ZERO);
        let targets: Vec<TargetId> = (0..6).map(TargetId).collect();
        for f in [&fe_batch, &fe_seq] {
            let c = f.alloc_conn();
            assert_eq!(c, ConnId(0));
            f.open_connection(c, TargetId(40));
        }
        let batched = fe_batch.assign_batch(ConnId(0), &targets);
        fe_seq.begin_batch(ConnId(0), targets.len());
        let sequential: Vec<Assignment> = targets
            .iter()
            .map(|&t| fe_seq.assign(ConnId(0), t))
            .collect();
        assert_eq!(batched, sequential);
        assert_eq!(fe_batch.loads(), fe_seq.loads());
    }

    #[test]
    fn disk_reports_are_throttled() {
        // A long interval: only the first decision reports (NEVER -> t0);
        // every later decision inside the interval must leave the
        // last-report stamp untouched.
        let slow = fe(PolicyKind::ExtLard, 2).with_disk_report_interval(Duration::from_secs(3600));
        assert_eq!(slow.last_disk_report.load(Ordering::Relaxed), NEVER);
        let c = slow.alloc_conn();
        slow.open_connection(c, TargetId(0)); // first report always fires
        let stamp = slow.last_disk_report.load(Ordering::Relaxed);
        assert_ne!(stamp, NEVER);
        slow.assign_batch(c, &[TargetId(1), TargetId(2)]);
        slow.assign(c, TargetId(3));
        assert_eq!(
            slow.last_disk_report.load(Ordering::Relaxed),
            stamp,
            "decisions within the interval must not re-report"
        );

        // Zero interval: every decision refreshes (pre-throttle behaviour).
        let fe0 = fe(PolicyKind::ExtLard, 2).with_disk_report_interval(Duration::ZERO);
        let c0 = fe0.alloc_conn();
        fe0.open_connection(c0, TargetId(0));
        let s1 = fe0.last_disk_report.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(2));
        fe0.assign_batch(c0, &[TargetId(1)]);
        let s2 = fe0.last_disk_report.load(Ordering::Relaxed);
        assert!(s2 > s1, "zero interval must report on every decision");
    }

    #[test]
    fn conn_ids_are_unique() {
        let fe = fe(PolicyKind::Wrr, 2);
        let a = fe.alloc_conn();
        let b = fe.alloc_conn();
        assert_ne!(a, b);
    }

    #[test]
    fn lifecycle_is_idempotent() {
        let fe = fe(PolicyKind::Lard, 2);
        let c = fe.alloc_conn();
        fe.open_connection(c, TargetId(1));
        assert_eq!(fe.active_connections(), 1);
        fe.close_connection(c);
        fe.close_connection(c); // second close is a no-op
        assert_eq!(fe.active_connections(), 0);
        assert!(fe.loads().iter().all(|&l| l.abs() < 1e-9));
    }

    #[test]
    fn guard_closes_on_drop() {
        let fe = fe(PolicyKind::ExtLard, 2);
        let c = fe.alloc_conn();
        fe.open_connection(c, TargetId(0));
        {
            let _g = ConnGuard::new(&fe, c);
        }
        assert_eq!(fe.active_connections(), 0);
    }

    #[test]
    fn lard_sticks_to_mapped_node() {
        let fe = fe(PolicyKind::Lard, 4);
        let c1 = fe.alloc_conn();
        let n1 = fe.open_connection(c1, TargetId(3));
        fe.close_connection(c1);
        let c2 = fe.alloc_conn();
        let n2 = fe.open_connection(c2, TargetId(3));
        assert_eq!(n1, n2);
    }

    #[test]
    fn join_control_message_warms_mapping_and_closes_breaker() {
        use phttp_core::{CacheEvent, HealthState};
        let fe = fe(PolicyKind::ExtLard, 3);
        let node = NodeId(2);
        // Node died: failure detector evicts it and trips its breaker.
        fe.evict_node(node);
        assert_eq!(fe.health().state(node), HealthState::Open);

        // It rejoins with a warm cache journal: t5 admitted, t6
        // admitted-then-evicted.
        fe.apply_control(ControlMsg::Join {
            node,
            weight: 3,
            events: vec![
                CacheEvent::Admit(TargetId(5)),
                CacheEvent::Admit(TargetId(6)),
                CacheEvent::Evict(TargetId(6)),
            ],
        });
        assert_eq!(fe.node_joins(), 1);
        assert_eq!(fe.health().state(node), HealthState::Closed);
        assert!(fe.mapping().nodes(TargetId(5)).contains(&node));
        assert!(!fe.mapping().nodes(TargetId(6)).contains(&node));
        assert_eq!(fe.mapping_divergence(), 0, "warm-up must stay coherent");

        // Out-of-range slots and zero weights are ignored, not applied.
        fe.apply_control(ControlMsg::Join {
            node: NodeId(9),
            weight: 1,
            events: vec![],
        });
        fe.apply_control(ControlMsg::Join {
            node,
            weight: 0,
            events: vec![],
        });
        assert_eq!(fe.node_joins(), 1);
    }

    #[test]
    fn handlers_share_the_frontend_without_a_global_lock() {
        let fe = Arc::new(fe(PolicyKind::ExtLard, 4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let fe = fe.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let c = fe.alloc_conn();
                        fe.open_connection(c, TargetId(i % 64));
                        fe.begin_batch(c, 2);
                        let _ = fe.assign(c, TargetId((i + 1) % 64));
                        let _ = fe.assign(c, TargetId((i + 7) % 64));
                        fe.close_connection(c);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fe.active_connections(), 0);
        assert!(fe.loads().iter().all(|&l| l.abs() < 1e-9));
        assert!(fe.quiesce(Duration::from_secs(1)));
    }
}
