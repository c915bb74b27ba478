//! The single-threaded dispatcher façade.
//!
//! This is the component the paper implements "in a dispatcher module at
//! the front-end". It is now a thin composition of the three layered
//! parts — [`Policy`](crate::policy::Policy) decisions,
//! [`LoadTracker`](crate::load::LoadTracker) accounting, and the
//! [`ShardedMappingTable`] — by
//! wrapping a [`ConcurrentDispatcher`] behind `&mut self` methods. The
//! trace-driven simulator (`phttp-sim`) and the figure binaries use this
//! façade; the live prototype (`phttp-proto`) uses
//! [`ConcurrentDispatcher`] directly so its connection-handler threads
//! never serialize on a global lock. Both façades run byte-identical
//! decision logic.
//!
//! ## Decision procedure
//!
//! * **New connection** (first request): WRR picks the least-loaded node;
//!   LARD and extended LARD pick the node minimizing the aggregate cost of
//!   [`crate::cost`], then update the mapping table.
//! * **Subsequent request on a persistent connection**:
//!   * WRR and basic LARD always serve on the connection-handling node —
//!     their mechanisms distribute at TCP-connection granularity.
//!   * Extended LARD applies the paper's §4.2 rules: serve locally if the
//!     target is mapped to the connection node *or* the node's disk
//!     utilization is low (caching the target in the latter case); otherwise
//!     evaluate the cost metrics over the connection node plus the nodes
//!     that cache the target, and forward/migrate to the argmin.
//!
//! ## Load accounting
//!
//! One load unit per active connection, charged to the connection-handling
//! node. Under back-end forwarding, a remote node serving a request out of a
//! pipelined batch of `N` requests is charged `1/N` load for the duration of
//! the batch — the front-end "assumes that all previous requests have
//! finished once a new batch of requests arrives on the same connection", so
//! starting a new batch clears the fractional charges of the previous one.
//! Under multiple-handoff semantics a remote assignment *migrates* the whole
//! load unit instead.

use phttp_trace::TargetId;

use crate::concurrent::{ConcurrentDispatcher, DispatcherConfig};
use crate::cost::LardParams;
use crate::shard::ShardedMappingTable;
use crate::types::{Assignment, ConnId, NodeId};

pub use crate::policy::{ForwardSemantics, PolicyKind};

/// The front-end dispatcher, single-threaded flavour. See the module
/// docs for semantics.
pub struct Dispatcher {
    inner: ConcurrentDispatcher,
}

impl Dispatcher {
    /// Creates a dispatcher for `num_nodes` back-ends.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or the parameters fail validation.
    pub fn new(
        policy: PolicyKind,
        semantics: ForwardSemantics,
        num_nodes: usize,
        params: LardParams,
    ) -> Self {
        Self::from_config(DispatcherConfig::new(policy, semantics, num_nodes, params))
    }

    /// Creates a dispatcher from a full configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or the parameters fail validation.
    pub fn from_config(config: DispatcherConfig) -> Self {
        Dispatcher {
            inner: ConcurrentDispatcher::from_config(config),
        }
    }

    /// Number of back-end nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    /// Current per-node load estimates (connections + fractional fetches).
    pub fn loads(&self) -> Vec<f64> {
        self.inner.loads()
    }

    /// The policy this dispatcher runs.
    pub fn policy(&self) -> PolicyKind {
        self.inner.policy()
    }

    /// Read access to the mapping table (for metrics/diagnostics).
    pub fn mapping(&self) -> &ShardedMappingTable {
        self.inner.mapping()
    }

    /// Number of connections currently tracked.
    pub fn active_connections(&self) -> usize {
        self.inner.active_connections()
    }

    /// Records a back-end's disk queue depth (conveyed over the control
    /// session in the prototype; read directly in the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn report_disk_queue(&mut self, node: NodeId, depth: usize) {
        self.inner.report_disk_queue(node, depth);
    }

    /// Applies one batched cache-feedback report from `node` (the
    /// control-session message that keeps the mapping belief coherent
    /// with the node's real cache). See
    /// [`ConcurrentDispatcher::apply_cache_feedback`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn apply_cache_feedback(&mut self, node: NodeId, events: &[crate::feedback::CacheEvent]) {
        self.inner.apply_cache_feedback(node, events);
    }

    /// Believed `(target, node)` pairs the feedback mirror says are not
    /// actually cached. See [`ConcurrentDispatcher::mapping_divergence`].
    pub fn mapping_divergence(&self) -> u64 {
        self.inner.mapping_divergence()
    }

    /// Coherence counters plus divergence/believed-pair gauges.
    pub fn coherence(&self) -> crate::feedback::CoherenceSnapshot {
        self.inner.coherence()
    }

    /// Coherence counters only (no O(mapping size) gauge walk). See
    /// [`ConcurrentDispatcher::coherence_counters`].
    pub fn coherence_counters(&self) -> crate::feedback::CoherenceSnapshot {
        self.inner.coherence_counters()
    }

    /// Drops every believed mapping and mirrored cache content for
    /// `node` (decommissioning). See [`ConcurrentDispatcher::evict_node`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn evict_node(&mut self, node: NodeId) {
        self.inner.evict_node(node);
    }

    /// Warms up beliefs for a (re)joining node from its admission-report
    /// journal and resets its breaker. See
    /// [`ConcurrentDispatcher::warm_up`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn warm_up(&mut self, node: NodeId, events: &[crate::feedback::CacheEvent]) -> usize {
        self.inner.warm_up(node, events)
    }

    /// Sets a node's relative capacity weight. See
    /// [`ConcurrentDispatcher::set_node_weight`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `weight == 0`.
    pub fn set_node_weight(&mut self, node: NodeId, weight: u32) {
        self.inner.set_node_weight(node, weight);
    }

    /// The per-node circuit breakers. See
    /// [`ConcurrentDispatcher::health`].
    pub fn health(&self) -> &crate::health::HealthGate {
        self.inner.health()
    }

    /// This dispatcher's next gossip delta (locally charged loads + the
    /// owned share, whole or only what changed). See
    /// [`ConcurrentDispatcher::gossip_delta`].
    pub fn gossip_delta(
        &mut self,
        origin: crate::tier::FeId,
        seq: u64,
        full: bool,
        ring: &crate::tier::Ring,
    ) -> crate::tier::StateDelta {
        self.inner.gossip_delta(origin, seq, full, ring)
    }

    /// Materializes a peer's merged share into the local tables. See
    /// [`ConcurrentDispatcher::adopt_merge`].
    pub fn adopt_merge(&mut self, outcome: &crate::tier::MergeOutcome) {
        self.inner.adopt_merge(outcome);
    }

    /// Overwrites every node's remote-load bias with the merged
    /// tier-view figure. See [`ConcurrentDispatcher::set_remote_loads`].
    ///
    /// # Panics
    ///
    /// Panics if `remote.len() != num_nodes()`.
    pub fn set_remote_loads(&mut self, remote: &[i64]) {
        self.inner.set_remote_loads(remote);
    }

    /// Handles the first request of a new connection: picks the
    /// connection-handling node, charges it one load unit, and registers the
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is already registered.
    pub fn open_connection(&mut self, conn: ConnId, first_target: TargetId) -> NodeId {
        self.inner.open_connection(conn, first_target)
    }

    /// Signals that a new pipelined batch of `n` requests is starting on
    /// `conn`. Clears the fractional remote loads of the previous batch (the
    /// front-end's estimate that the previous batch has been fully served).
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown or `n == 0`.
    pub fn begin_batch(&mut self, conn: ConnId, n: usize) {
        self.inner.begin_batch(conn, n);
    }

    /// Assigns one request of the current batch.
    ///
    /// Returns [`Assignment::Local`] to serve on the connection-handling node
    /// or [`Assignment::Remote`] per the configured [`ForwardSemantics`].
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn assign_request(&mut self, conn: ConnId, target: TargetId) -> Assignment {
        self.inner.assign_request(conn, target)
    }

    /// Assigns a whole pipelined batch in one call: equivalent to
    /// [`begin_batch`](Self::begin_batch) with `targets.len()` followed by
    /// [`assign_request`](Self::assign_request) per target in order, but
    /// with the concurrent core's amortized shard locking (one
    /// connection-shard visit, one write acquisition per distinct mapping
    /// shard). See [`ConcurrentDispatcher::assign_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn assign_batch(&mut self, conn: ConnId, targets: &[TargetId]) -> Vec<Assignment> {
        self.inner.assign_batch(conn, targets)
    }

    /// Returns the node currently handling `conn` (it can change under
    /// [`ForwardSemantics::Migrate`]).
    pub fn connection_node(&self, conn: ConnId) -> Option<NodeId> {
        self.inner.connection_node(conn)
    }

    /// Closes a connection: removes its load unit and any outstanding
    /// fractional remote loads.
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn close_connection(&mut self, conn: ConnId) {
        self.inner.close_connection(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    fn ext_dispatcher(nodes: usize) -> Dispatcher {
        Dispatcher::new(
            PolicyKind::ExtLard,
            ForwardSemantics::LateralFetch,
            nodes,
            LardParams::default(),
        )
    }

    #[test]
    fn wrr_spreads_connections_evenly() {
        let mut d = Dispatcher::new(
            PolicyKind::Wrr,
            ForwardSemantics::LateralFetch,
            4,
            LardParams::default(),
        );
        let mut counts = [0usize; 4];
        for i in 0..400 {
            let n = d.open_connection(ConnId(i), t(i as u32));
            counts[n.0] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn wrr_prefers_less_loaded_after_closures() {
        let mut d = Dispatcher::new(
            PolicyKind::Wrr,
            ForwardSemantics::LateralFetch,
            2,
            LardParams::default(),
        );
        let n0 = d.open_connection(ConnId(0), t(0));
        let _n1 = d.open_connection(ConnId(1), t(1));
        d.close_connection(ConnId(0));
        // Node n0 is now empty; the next connection must go there.
        let n2 = d.open_connection(ConnId(2), t(2));
        assert_eq!(n2, n0);
    }

    #[test]
    fn lard_is_sticky_for_a_mapped_target() {
        let mut d = Dispatcher::new(
            PolicyKind::Lard,
            ForwardSemantics::LateralFetch,
            4,
            LardParams::default(),
        );
        let first = d.open_connection(ConnId(0), t(7));
        for i in 1..20 {
            let n = d.open_connection(ConnId(i), t(7));
            assert_eq!(n, first, "lightly loaded mapped node must keep its target");
        }
    }

    #[test]
    fn lard_moves_target_off_overloaded_node() {
        // With the defaults (l_idle = 25, miss_cost = 40), a mapped node at
        // load L wins over an idle unmapped node while L - 25 < 40, i.e.
        // through the 65th connection; the 66th (seeing load 65, a cost tie
        // broken toward the lower-loaded node) must move the target —
        // exactly ASPLOS LARD's T_high = 65 threshold.
        let mut d = Dispatcher::new(
            PolicyKind::Lard,
            ForwardSemantics::LateralFetch,
            2,
            LardParams::default(),
        );
        let first = d.open_connection(ConnId(0), t(1));
        for i in 1..65 {
            assert_eq!(d.open_connection(ConnId(i), t(1)), first);
        }
        assert!((d.loads()[first.0] - 65.0).abs() < 1e-9);
        let n = d.open_connection(ConnId(65), t(1));
        assert_ne!(n, first, "node at T_high must shed the target");
        // And the mapping moved with it.
        assert!(d.mapping().is_mapped(t(1), n));
        assert!(!d.mapping().is_mapped(t(1), first));
    }

    #[test]
    fn lard_subsequent_requests_stay_local() {
        let mut d = Dispatcher::new(
            PolicyKind::Lard,
            ForwardSemantics::LateralFetch,
            4,
            LardParams::default(),
        );
        let node = d.open_connection(ConnId(0), t(0));
        d.begin_batch(ConnId(0), 3);
        for target in [t(1), t(2), t(3)] {
            assert_eq!(d.assign_request(ConnId(0), target), Assignment::Local);
        }
        assert_eq!(d.connection_node(ConnId(0)), Some(node));
    }

    #[test]
    fn ext_lard_serves_locally_when_disk_idle_and_caches() {
        let mut d = ext_dispatcher(2);
        let node = d.open_connection(ConnId(0), t(0));
        d.begin_batch(ConnId(0), 1);
        // Disk queue is 0 (< threshold): local service plus replica mapping.
        assert_eq!(d.assign_request(ConnId(0), t(42)), Assignment::Local);
        assert!(d.mapping().is_mapped(t(42), node));
    }

    #[test]
    fn ext_lard_forwards_to_caching_node_when_disk_busy() {
        let mut d = ext_dispatcher(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        // The other node caches target 9, and this node's disk is busy.
        d.report_disk_queue(conn_node, 50);
        d.add_replica_for_tests(t(9), other);
        d.begin_batch(ConnId(0), 1);
        let a = d.assign_request(ConnId(0), t(9));
        assert_eq!(a, Assignment::Remote(other));
        // Remote fetch charges 1/N = 1 load unit to the remote node.
        assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ext_lard_first_fetch_creates_mapping_even_with_busy_disk() {
        let mut d = ext_dispatcher(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        d.report_disk_queue(conn_node, 50);
        d.begin_batch(ConnId(0), 1);
        // No node caches target 5 yet: serve locally from disk. This first
        // fetch records the mapping (it is not replication), so the target
        // converges onto a home node.
        assert_eq!(d.assign_request(ConnId(0), t(5)), Assignment::Local);
        assert!(d.mapping().is_mapped(t(5), conn_node));
    }

    #[test]
    fn ext_lard_busy_disk_no_replication_when_mapped_elsewhere() {
        let mut d = ext_dispatcher(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        // Target 9 is cached on the other node, but that node is overloaded:
        // the cost metrics keep the request local — and the anti-thrashing
        // heuristic must NOT add a local replica mapping.
        d.add_replica_for_tests(t(9), other);
        d.set_load_for_tests(other, 200.0); // past l_overload: infinite cost
        d.begin_batch(ConnId(0), 1);
        assert_eq!(d.assign_request(ConnId(0), t(9)), Assignment::Local);
        assert!(!d.mapping().is_mapped(t(9), conn_node));
    }

    #[test]
    fn batch_fractions_are_cleared_on_next_batch() {
        let mut d = ext_dispatcher(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        d.add_replica_for_tests(t(1), other);
        d.add_replica_for_tests(t(2), other);

        d.begin_batch(ConnId(0), 2);
        assert!(d.assign_request(ConnId(0), t(1)).is_remote());
        assert!(d.assign_request(ConnId(0), t(2)).is_remote());
        // Two requests at 1/2 load each.
        assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);

        // The next batch clears the previous fractional charges.
        d.begin_batch(ConnId(0), 1);
        assert!(d.loads()[other.0].abs() < 1e-9);
    }

    #[test]
    fn close_clears_connection_and_fractions() {
        let mut d = ext_dispatcher(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        d.add_replica_for_tests(t(1), other);
        d.begin_batch(ConnId(0), 1);
        let _ = d.assign_request(ConnId(0), t(1));
        d.close_connection(ConnId(0));
        assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
        assert_eq!(d.active_connections(), 0);
    }

    #[test]
    fn migrate_semantics_moves_the_load_unit() {
        let mut d = Dispatcher::new(
            PolicyKind::ExtLard,
            ForwardSemantics::Migrate,
            2,
            LardParams::default(),
        );
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        d.add_replica_for_tests(t(1), other);
        d.begin_batch(ConnId(0), 1);
        let a = d.assign_request(ConnId(0), t(1));
        assert_eq!(a, Assignment::Remote(other));
        // The whole connection moved.
        assert_eq!(d.connection_node(ConnId(0)), Some(other));
        assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);
        assert!(d.loads()[conn_node.0].abs() < 1e-9);
        d.close_connection(ConnId(0));
        assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn double_open_panics() {
        let mut d = ext_dispatcher(2);
        d.open_connection(ConnId(0), t(0));
        d.open_connection(ConnId(0), t(1));
    }

    #[test]
    #[should_panic(expected = "unknown connection")]
    fn assign_on_unknown_connection_panics() {
        let mut d = ext_dispatcher(2);
        let _ = d.assign_request(ConnId(99), t(0));
    }

    impl Dispatcher {
        /// Test-only mapping mutation (replaces the old direct access to
        /// the monolithic dispatcher's private table).
        fn add_replica_for_tests(&mut self, target: TargetId, node: NodeId) {
            self.inner
                .mapping()
                .write(target, |m| m.add_replica(target, node));
        }

        /// Test-only override of a node's load estimate.
        fn set_load_for_tests(&mut self, node: NodeId, load: f64) {
            self.inner.load_tracker().set_load_for_tests(node, load);
        }
    }
}
