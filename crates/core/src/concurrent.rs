//! The lock-sharded concurrent dispatcher.
//!
//! [`ConcurrentDispatcher`] composes the three layers —
//! [`Policy`] (pure decisions),
//! [`LoadTracker`] (atomic load accounting),
//! and [`ShardedMappingTable`] —
//! behind `&self` methods safe to call from any number of threads.
//!
//! ## Locking discipline
//!
//! The hot path (`open_connection`, `assign_request`) takes, at most:
//!
//! 1. the **one mapping shard** covering the request's target, held
//!    across the policy decision and its mapping update (per-target
//!    atomicity); WRR skips it entirely;
//! 2. the **one connection shard** covering the request's connection,
//!    held only to read or update that connection's state.
//!
//! Load reads/writes are plain atomics. There is **no global lock**:
//! requests for different targets on different connections never
//! contend — the paper's requirement that the front-end stay off the
//! data path, applied to its own decision path.
//!
//! The batched entry point ([`assign_batch`](ConcurrentDispatcher::assign_batch))
//! amortizes further: a whole pipelined batch costs **one** connection-shard
//! acquisition and one write acquisition per *distinct* mapping shard the
//! batch touches, instead of up to two conn-shard and two mapping-shard
//! acquisitions per request. When more than one mapping shard is held,
//! shards are always acquired in ascending index order *after* the
//! connection shard — the workspace lock order that makes deadlock between
//! concurrent batches impossible (see ARCHITECTURE.md, "Batched dispatch").
//!
//! ## Consistency model
//!
//! Load reads during a decision are racy by design: two threads may
//! both see node `k` as least-loaded and both pick it. The same race
//! exists in any real front-end whose load reports lag its decisions
//! (the paper's disk-queue reports arrive over control sessions); it
//! perturbs tie-breaks, never accounting. Accounting itself is exact:
//! every charge is paired with a discharge of the same fixed-point
//! value, so closing all connections returns every load to zero —
//! see `tests/concurrent_stress.rs`.
//!
//! Callers drive each connection from one thread at a time (the
//! prototype's one-handler-per-connection invariant); lifecycle calls
//! for *different* connections may interleave arbitrarily.

use std::sync::atomic::Ordering;

use phttp_trace::TargetId;

use crate::cost::LardParams;
use crate::feedback::{CacheEvent, CacheMirror, CoherenceSnapshot, CoherenceStats};
use crate::health::{HealthConfig, HealthGate};
use crate::load::{LoadTracker, LOAD_UNIT};
use crate::policy::{ForwardSemantics, MapEffect, Policy, PolicyKind};
use crate::shard::{ConnState, ConnTable, ShardedMappingTable};
use crate::tier::{FeId, MergeOutcome, Ring, StateDelta};
use crate::types::{Assignment, ConnId, NodeId};

/// Largest pipelined batch [`ConcurrentDispatcher::assign_batch`] will
/// decide under held shard locks in one piece; longer batches are
/// processed in chunks of this size so a hostile client pipelining
/// thousands of requests cannot pin a connection shard (and a set of
/// mapping shards) for an unbounded stretch. Chunking is invisible to
/// callers: decisions and accounting are identical either way because
/// the batch size used for 1/N load accounting is fixed up front.
const MAX_BATCH_CHUNK: usize = 64;

/// Construction parameters for both dispatcher façades.
#[derive(Debug, Clone, Copy)]
pub struct DispatcherConfig {
    /// Which distribution policy to run.
    pub policy: PolicyKind,
    /// What a remote assignment means mechanically.
    pub semantics: ForwardSemantics,
    /// Number of back-end nodes.
    pub num_nodes: usize,
    /// LARD cost-metric parameters.
    pub params: LardParams,
    /// Mapping-table lock shards (rounded up to a power of two).
    pub mapping_shards: usize,
    /// Connection-table lock shards (rounded up to a power of two).
    pub conn_shards: usize,
    /// Per-node circuit-breaker tuning (see [`HealthGate`]).
    pub health: HealthConfig,
}

impl DispatcherConfig {
    /// A config with the default shard counts.
    pub fn new(
        policy: PolicyKind,
        semantics: ForwardSemantics,
        num_nodes: usize,
        params: LardParams,
    ) -> Self {
        DispatcherConfig {
            policy,
            semantics,
            num_nodes,
            params,
            mapping_shards: 32,
            conn_shards: 64,
            health: HealthConfig::default(),
        }
    }

    /// Overrides both shard counts (useful to measure sharding's effect).
    pub fn with_shards(mut self, mapping: usize, conn: usize) -> Self {
        self.mapping_shards = mapping;
        self.conn_shards = conn;
        self
    }

    /// Overrides the circuit-breaker tuning.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }
}

/// Thread-safe dispatcher: the same policy semantics as
/// [`Dispatcher`](crate::dispatcher::Dispatcher), behind `&self`.
pub struct ConcurrentDispatcher {
    policy: Box<dyn Policy>,
    semantics: ForwardSemantics,
    params: LardParams,
    loads: LoadTracker,
    mapping: ShardedMappingTable,
    conns: ConnTable,
    /// Reconstruction of each back-end's actual cache contents, fed by
    /// control-session feedback reports.
    mirror: CacheMirror,
    /// Feedback counters.
    coherence: CoherenceStats,
    /// Per-node circuit breakers, consulted between every policy
    /// decision and the assignment it becomes.
    health: HealthGate,
}

impl ConcurrentDispatcher {
    /// Builds a dispatcher from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or the parameters fail validation.
    pub fn from_config(config: DispatcherConfig) -> Self {
        if let Err(e) = config.params.validate() {
            panic!("invalid LARD parameters: {e}");
        }
        ConcurrentDispatcher {
            policy: config.policy.build(),
            semantics: config.semantics,
            params: config.params,
            loads: LoadTracker::new(config.num_nodes),
            mapping: ShardedMappingTable::new(config.mapping_shards),
            conns: ConnTable::new(config.conn_shards),
            mirror: CacheMirror::new(config.num_nodes),
            coherence: CoherenceStats::default(),
            health: HealthGate::new(config.num_nodes, config.health),
        }
    }

    /// Convenience constructor with default shard counts.
    pub fn new(
        policy: PolicyKind,
        semantics: ForwardSemantics,
        num_nodes: usize,
        params: LardParams,
    ) -> Self {
        Self::from_config(DispatcherConfig::new(policy, semantics, num_nodes, params))
    }

    /// Number of back-end nodes.
    pub fn num_nodes(&self) -> usize {
        self.loads.num_nodes()
    }

    /// Current per-node load estimates (connections + fractional fetches).
    pub fn loads(&self) -> Vec<f64> {
        self.loads.loads()
    }

    /// The load-tracking layer (read access for diagnostics/tests).
    pub fn load_tracker(&self) -> &LoadTracker {
        &self.loads
    }

    /// The policy this dispatcher runs.
    pub fn policy(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// The configured forwarding semantics.
    pub fn semantics(&self) -> ForwardSemantics {
        self.semantics
    }

    /// The sharded mapping table (for metrics/diagnostics).
    pub fn mapping(&self) -> &ShardedMappingTable {
        &self.mapping
    }

    /// Number of connections currently tracked.
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Records a back-end's disk queue depth (conveyed over the control
    /// session in the prototype; read directly in the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn report_disk_queue(&self, node: NodeId, depth: usize) {
        self.loads.set_disk_queue(node, depth);
    }

    /// Applies one batched cache-feedback report from `node` — the
    /// control-plane message that keeps the mapping belief coherent with
    /// the node's real cache. `events` is the node's ordered stream of
    /// admissions and evictions since its last report.
    ///
    /// Effects, in order:
    ///
    /// 1. the per-node [`CacheMirror`] replays the events (so the
    ///    dispatcher always holds an exact running copy of the node's
    ///    cache contents);
    /// 2. every distinct target whose **final** state is *not cached*
    ///    loses its believed `(target, node)` mapping, in one batched
    ///    [`remove_stale`](ShardedMappingTable::remove_stale) call —
    ///    each covering shard write-locked once, ascending index order
    ///    (the `write_set` lock discipline);
    /// 3. every distinct target whose final state *is* cached and is
    ///    currently believed mapped counts as a confirmation.
    ///
    /// Feedback never **adds** a mapping, so it composes with concurrent
    /// [`evict_node`](Self::evict_node): an in-flight report cannot
    /// resurrect beliefs about a decommissioned node (regression-tested
    /// in `tests/coherence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn apply_cache_feedback(&self, node: NodeId, events: &[CacheEvent]) {
        if events.is_empty() {
            return;
        }
        self.coherence.reports.fetch_add(1, Ordering::Relaxed);
        let (admits, evicts) = events.iter().fold((0u64, 0u64), |(a, e), ev| match ev {
            CacheEvent::Admit(_) => (a + 1, e),
            CacheEvent::Evict(_) => (a, e + 1),
        });
        self.coherence
            .admit_events
            .fetch_add(admits, Ordering::Relaxed);
        self.coherence
            .evict_events
            .fetch_add(evicts, Ordering::Relaxed);

        // The mirror lock is released before any mapping shard is taken
        // (see the CacheMirror lock-order note).
        let finals = self.mirror.apply(node, events);
        let (cached, gone): (Vec<_>, Vec<_>) = finals.into_iter().partition(|&(_, c)| c);
        let stale: Vec<TargetId> = gone.into_iter().map(|(t, _)| t).collect();
        let removed = self.mapping.remove_stale(node, &stale);
        self.coherence
            .stale_removed
            .fetch_add(removed, Ordering::Relaxed);
        let confirms = cached
            .into_iter()
            .filter(|&(t, _)| self.mapping.is_mapped(t, node))
            .count() as u64;
        self.coherence
            .confirmations
            .fetch_add(confirms, Ordering::Relaxed);
    }

    /// The belief-vs-reality gap: believed `(target, node)` pairs whose
    /// target the mirror says is **not** cached on that node. With
    /// feedback off the mirror stays empty and this equals the total
    /// believed pairs; with feedback on and all reports applied, a
    /// quiescent system converges to 0. O(mapping size) — call it at
    /// reporting granularity, not per decision.
    pub fn mapping_divergence(&self) -> u64 {
        // Collect believed pairs grouped by node first (shard read locks
        // only), then check each node's mirror set under ONE lock — not
        // one mirror lock cycle per pair, and no mirror lock is ever
        // held while a shard lock is.
        let mut per_node: Vec<Vec<TargetId>> = vec![Vec::new(); self.num_nodes()];
        self.mapping.for_each_pair(|t, n| per_node[n.0].push(t));
        per_node
            .into_iter()
            .enumerate()
            .map(|(i, targets)| self.mirror.count_missing(NodeId(i), &targets))
            .sum()
    }

    /// Coherence counters plus the current divergence and believed-pair
    /// gauges, in one snapshot.
    pub fn coherence(&self) -> CoherenceSnapshot {
        let mut snap = self.coherence.snapshot();
        snap.divergence = self.mapping_divergence();
        snap.believed_pairs = self.mapping.num_replicas() as u64;
        snap
    }

    /// The cheap half of [`coherence`](Self::coherence): counters only,
    /// with the O(mapping size) divergence/believed-pair gauges left at
    /// zero. For callers that compute their own gauges (the simulator
    /// audits against its ground-truth caches) or only want the report
    /// accounting.
    pub fn coherence_counters(&self) -> CoherenceSnapshot {
        self.coherence.snapshot()
    }

    /// The cache-contents mirror (diagnostics/tests).
    pub fn mirror(&self) -> &CacheMirror {
        &self.mirror
    }

    /// The per-node circuit breakers. Hosts drive cooldowns through
    /// [`HealthGate::tick_all`] and report request outcomes through
    /// [`HealthGate::record_success`]/[`HealthGate::record_failure`];
    /// the dispatcher itself consults the gate on every routing
    /// decision.
    pub fn health(&self) -> &HealthGate {
        &self.health
    }

    /// Sets a node's relative capacity weight (see
    /// [`LoadTracker::set_weight`]): policies compare
    /// capacity-normalized loads, so a weight-`w` node attracts about
    /// `w`× the traffic of a weight-1 node at equal rawness.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `weight == 0`.
    pub fn set_node_weight(&self, node: NodeId, weight: u32) {
        self.loads.set_weight(node, weight);
    }

    /// Warms up beliefs for a (re)joining node from its admission-report
    /// journal — the mapping-*adding* counterpart of
    /// [`apply_cache_feedback`](Self::apply_cache_feedback), which only
    /// removes or confirms.
    ///
    /// The node's prior mirrored contents and believed mappings are
    /// dropped first, so the call is **absolute**: afterwards the
    /// dispatcher believes exactly what `events` fold to. Every target
    /// whose final state is *cached* gets a believed `(target, node)`
    /// replica installed (one write-shard acquisition per target —
    /// join granularity, off the hot path), and the node's breaker is
    /// reset to Closed: a freshly warmed member starts clean.
    ///
    /// Returns the number of believed pairs installed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn warm_up(&self, node: NodeId, events: &[CacheEvent]) -> usize {
        self.mapping.evict_node(node);
        self.mirror.clear(node);
        // Mirror lock released before any mapping shard is taken (the
        // CacheMirror lock-order rule).
        let finals = self.mirror.apply(node, events);
        let mut installed = 0;
        for (target, cached) in finals {
            if cached {
                self.mapping.write(target, |m| m.add_replica(target, node));
                installed += 1;
            }
        }
        self.health.reset(node);
        installed
    }

    /// This dispatcher's next gossip delta as front-end `origin`,
    /// stamped `seq`: its **locally charged** fixed-point loads (remote
    /// bias excluded, so exporting and re-importing cannot double-count)
    /// and, for the targets `origin` owns on `ring`, either every
    /// believed mapping (`full`) or only those whose belief changed
    /// since the previous call (see
    /// [`ShardedMappingTable::drain_changes`]). The first call must be
    /// `full`: it is what switches the change journal on, and until then
    /// nothing is recorded. Changed targets owned by a peer are dropped
    /// here — their owner is the authority that publishes them, and a
    /// ring change is answered with a full delta. Shard write locks one
    /// at a time; a consistent-enough gossip payload, not a transaction.
    pub fn gossip_delta(&self, origin: FeId, seq: u64, full: bool, ring: &Ring) -> StateDelta {
        let loads = (0..self.num_nodes())
            .map(|i| self.loads.local_fixed(NodeId(i)))
            .collect();
        let mut mapping = Vec::new();
        self.mapping.drain_changes(full, |t, nodes| {
            if ring.owner(t) == origin {
                mapping.push((t, nodes.to_vec()));
            }
        });
        mapping.sort_by_key(|(t, _)| t.0);
        StateDelta {
            origin,
            seq,
            full,
            loads,
            mapping,
        }
    }

    /// Materializes a peer's merged share into the local tables: each
    /// upsert replaces the target's mapping with the owner's belief,
    /// each removal drops it. One write-shard acquisition per target —
    /// gossip granularity, off the dispatch hot path.
    pub fn adopt_merge(&self, outcome: &MergeOutcome) {
        for (target, nodes) in &outcome.upserts {
            self.mapping.write(*target, |m| m.set_nodes(*target, nodes));
        }
        for target in &outcome.removals {
            self.mapping.write(*target, |m| m.set_nodes(*target, &[]));
        }
    }

    /// Overwrites every node's remote-load bias with the merged
    /// tier-view figure (see [`TierView::remote_load_fixed`](crate::tier::TierView::remote_load_fixed)).
    ///
    /// # Panics
    ///
    /// Panics if `remote.len() != num_nodes()`.
    pub fn set_remote_loads(&self, remote: &[i64]) {
        assert_eq!(remote.len(), self.num_nodes(), "remote-load length");
        for (i, &r) in remote.iter().enumerate() {
            self.loads.set_remote_fixed(NodeId(i), r);
        }
    }

    /// Decommissions `node` for mapping purposes: drops every believed
    /// mapping that references it and forgets its mirrored cache
    /// contents. Safe to race with [`apply_cache_feedback`](Self::apply_cache_feedback)
    /// — feedback only removes or confirms beliefs, so a concurrent
    /// report cannot resurrect the node's mappings.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn evict_node(&self, node: NodeId) {
        self.mapping.evict_node(node);
        self.mirror.clear(node);
        // A node we just declared dead must not win another pick until
        // it either joins back (breaker reset) or serves out a probation.
        self.health.force_open(node);
    }

    /// Applies a decision's mapping effect to its chosen/serving node.
    fn apply_effect(
        m: &mut crate::mapping::MappingTable,
        effect: MapEffect,
        target: TargetId,
        node: NodeId,
    ) {
        match effect {
            MapEffect::None => {}
            MapEffect::AssignExclusive => m.assign_exclusive(target, node),
            MapEffect::AddReplica => m.add_replica(target, node),
        }
    }

    /// Whether applying `effect` would leave the table unchanged. Lets
    /// the hot path finish under a shared (read) shard lock in steady
    /// state — a mapped target served by its mapped node, or a replica
    /// "added" to a node that already has it — and escalate to the
    /// exclusive lock only when the table actually changes.
    fn effect_is_noop(
        m: &crate::mapping::MappingTable,
        effect: MapEffect,
        target: TargetId,
        node: NodeId,
    ) -> bool {
        match effect {
            MapEffect::None => true,
            MapEffect::AddReplica => m.is_mapped(target, node),
            MapEffect::AssignExclusive => m.nodes(target) == [node],
        }
    }

    /// Health-gates a per-request decision **before** its mapping effect
    /// is applied: a `Remote` assignment to a node whose breaker refuses
    /// traffic degrades to serving locally with *no* mapping change.
    ///
    /// Gating before the effect matters for coherence: applying
    /// `AddReplica` for a node that never receives the request would
    /// plant a believed pair no cache event can ever confirm or remove —
    /// permanent divergence. [`HealthGate::permitted`] (non-consuming)
    /// keeps the optimistic-read and write-redo passes consistent;
    /// probation permits are consumed per *connection* in
    /// [`open_connection`](Self::open_connection), not per request.
    fn gate_assignment(
        &self,
        assignment: Assignment,
        effect: MapEffect,
    ) -> (Assignment, MapEffect) {
        if let Assignment::Remote(k) = assignment {
            if !self.health.permitted(k) {
                return (Assignment::Local, MapEffect::None);
            }
        }
        (assignment, effect)
    }

    /// Finds a replacement connection-handling node after the policy's
    /// pick was refused by its breaker: tries the remaining nodes in
    /// ascending capacity-normalized load until one's breaker admits
    /// ([`HealthGate::try_admit`], so a HalfOpen fallback consumes its
    /// probation permit like any other admission). `None` when every
    /// other node also refuses.
    fn reroute_admit(&self, denied: NodeId) -> Option<NodeId> {
        let mut order: Vec<NodeId> = (0..self.num_nodes())
            .map(NodeId)
            .filter(|&n| n != denied)
            .collect();
        order.sort_by_key(|&n| (self.loads.effective_fixed(n), n.0));
        order.into_iter().find(|&n| self.health.try_admit(n))
    }

    /// Handles the first request of a new connection: picks the
    /// connection-handling node, health-gates the pick, charges the
    /// admitted node one load unit, and registers the connection.
    ///
    /// Gating consumes the breaker's admission
    /// ([`HealthGate::try_admit`]) exactly once per connection. A
    /// refused pick reroutes to the least-loaded node whose breaker
    /// admits; if *every* breaker refuses, the gate fails open and the
    /// original pick stands — a fully quarantined cluster serves
    /// degraded rather than not at all.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is already registered.
    pub fn open_connection(&self, conn: ConnId, first_target: TargetId) -> NodeId {
        let node = if self.policy.pick_uses_mapping() {
            // Optimistic shared pass: in steady state the pick lands on
            // an already-mapped, healthy node and the table does not
            // change. Admission is consumed only when the pass commits;
            // a breaker refusal escalates like a table change would.
            let fast = self.mapping.read(first_target, |m| {
                let (node, effect) = self.policy.pick_node(
                    &self.loads,
                    &self.params,
                    first_target,
                    m.nodes(first_target),
                );
                if !Self::effect_is_noop(m, effect, first_target, node) {
                    return None;
                }
                self.health.try_admit(node).then_some(node)
            });
            match fast {
                Some(node) => node,
                // The table must change (or the pick was refused):
                // re-decide under the exclusive lock (state may have
                // moved between locks; the decision that gets applied is
                // the one made under this lock).
                None => self.mapping.write(first_target, |m| {
                    let (node, effect) = self.policy.pick_node(
                        &self.loads,
                        &self.params,
                        first_target,
                        m.nodes(first_target),
                    );
                    if self.health.try_admit(node) {
                        Self::apply_effect(m, effect, first_target, node);
                        return node;
                    }
                    match self.reroute_admit(node) {
                        // The fallback node will serve (and cache) the
                        // first target: record that belief, not the
                        // refused pick's effect.
                        Some(alt) => {
                            m.add_replica(first_target, alt);
                            alt
                        }
                        // Fail open: no effect recorded for a node that
                        // may never see the request.
                        None => node,
                    }
                }),
            }
        } else {
            let (node, _) = self
                .policy
                .pick_node(&self.loads, &self.params, first_target, &[]);
            if self.health.try_admit(node) {
                node
            } else {
                self.reroute_admit(node).unwrap_or(node)
            }
        };
        self.loads.charge(node, LOAD_UNIT);
        let prev = self.conns.with(conn, |c| {
            c.insert(
                conn,
                ConnState {
                    node,
                    batch_n: 1,
                    frac: Vec::new(),
                },
            )
        });
        assert!(prev.is_none(), "connection {conn} opened twice");
        node
    }

    /// Signals that a new pipelined batch of `n` requests is starting on
    /// `conn`. Clears the fractional remote loads of the previous batch
    /// (the front-end's estimate that the previous batch has been fully
    /// served).
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown or `n == 0`.
    pub fn begin_batch(&self, conn: ConnId, n: usize) {
        assert!(n > 0, "batch must contain at least one request");
        self.conns.with(conn, |c| {
            let state = c.get_mut(&conn).expect("begin_batch: unknown connection");
            for (node, f) in state.frac.drain(..) {
                self.loads.discharge(node, f);
            }
            state.batch_n = n;
        });
    }

    /// Assigns one request of the current batch.
    ///
    /// Returns [`Assignment::Local`] to serve on the connection-handling
    /// node or [`Assignment::Remote`] per the configured
    /// [`ForwardSemantics`].
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn assign_request(&self, conn: ConnId, target: TargetId) -> Assignment {
        let (conn_node, batch_n) = self.conns.with(conn, |c| {
            let state = c.get(&conn).expect("assign_request: unknown connection");
            (state.node, state.batch_n)
        });

        let assignment = if self.policy.assign_uses_mapping() {
            // Optimistic shared pass first (see `open_connection`).
            let fast = self.mapping.read(target, |m| {
                let (assignment, effect) = self.policy.assign(
                    &self.loads,
                    &self.params,
                    conn_node,
                    target,
                    m.nodes(target),
                );
                let (assignment, effect) = self.gate_assignment(assignment, effect);
                let effect_node = assignment.serving_node(conn_node);
                Self::effect_is_noop(m, effect, target, effect_node).then_some(assignment)
            });
            match fast {
                Some(a) => a,
                None => self.mapping.write(target, |m| {
                    let (assignment, effect) = self.policy.assign(
                        &self.loads,
                        &self.params,
                        conn_node,
                        target,
                        m.nodes(target),
                    );
                    let (assignment, effect) = self.gate_assignment(assignment, effect);
                    let effect_node = assignment.serving_node(conn_node);
                    Self::apply_effect(m, effect, target, effect_node);
                    assignment
                }),
            }
        } else {
            let (assignment, _) =
                self.policy
                    .assign(&self.loads, &self.params, conn_node, target, &[]);
            assignment
        };

        if assignment.is_remote() {
            self.conns.with(conn, |c| {
                let state = c.get_mut(&conn).expect("connection vanished");
                self.settle(state, batch_n, assignment);
            });
        }
        assignment
    }

    /// Applies a decision's load/connection-state consequences: the 1/N
    /// fractional charge for a lateral fetch, or the load-unit move and
    /// re-homing for a migration. Shared verbatim by the per-request and
    /// batched paths so their accounting cannot drift apart. The caller
    /// holds `state`'s connection shard.
    fn settle(&self, state: &mut ConnState, batch_n: usize, assignment: Assignment) {
        let Assignment::Remote(remote) = assignment else {
            return;
        };
        match self.semantics {
            ForwardSemantics::LateralFetch => {
                if self.params.batch_load_accounting {
                    // 1/N load on the remote node for the batch.
                    let f = LoadTracker::frac_charge(batch_n);
                    self.loads.charge(remote, f);
                    state.frac.push((remote, f));
                }
            }
            ForwardSemantics::Migrate => {
                // The connection itself moves.
                self.loads.discharge(state.node, LOAD_UNIT);
                self.loads.charge(remote, LOAD_UNIT);
                state.node = remote;
            }
        }
    }

    /// Assigns a whole pipelined batch in one call — the paper's unit of
    /// P-HTTP work, made the dispatcher's unit of locking work.
    ///
    /// Observably equivalent to
    /// [`begin_batch(conn, targets.len())`](Self::begin_batch) followed by
    /// [`assign_request`](Self::assign_request) once per target in order
    /// (property-tested in `tests/batch_equivalence.rs`): same assignments,
    /// same final loads, mappings, and connection state. The difference is
    /// cost, not semantics: the connection shard is visited **once** for
    /// the batch (it would be up to `1 + 2·N` visits sequentially), and
    /// each distinct mapping shard the batch touches is write-locked
    /// **once**, with the batch's decisions for that shard's targets run
    /// under the single acquisition.
    ///
    /// An empty `targets` is the degenerate batch: it clears the previous
    /// batch's fractional charges (like `begin_batch(conn, 1)`) and
    /// returns no assignments. Batches longer than an internal bound
    /// (64 requests) are processed in chunks so one hostile client cannot
    /// pin shards indefinitely; chunking does not change any decision.
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn assign_batch(&self, conn: ConnId, targets: &[TargetId]) -> Vec<Assignment> {
        // A one-request batch has nothing to amortize: delegate to the
        // per-request path, which keeps its optimistic shared-lock pass
        // (observably the same decision either way). This matters because
        // HTTP/1.0 traffic and sparse P-HTTP batches are all size 1.
        if targets.len() == 1 {
            self.begin_batch(conn, 1);
            return vec![self.assign_request(conn, targets[0])];
        }
        let batch_n = targets.len().max(1);
        let mut out = Vec::with_capacity(targets.len());
        let mut cleared = false;
        let mut rest = targets;
        loop {
            let (chunk, tail) = rest.split_at(rest.len().min(MAX_BATCH_CHUNK));
            self.conns.with(conn, |c| {
                let state = c.get_mut(&conn).expect("assign_batch: unknown connection");
                if !cleared {
                    // begin_batch semantics: the previous batch is assumed
                    // fully served once a new batch arrives.
                    for (node, f) in state.frac.drain(..) {
                        self.loads.discharge(node, f);
                    }
                    state.batch_n = batch_n;
                }
                self.decide_chunk(state, batch_n, chunk, &mut out);
            });
            cleared = true;
            rest = tail;
            if rest.is_empty() {
                return out;
            }
        }
    }

    /// Decides one chunk of a batch under the connection shard (held by
    /// the caller) plus one write acquisition per distinct mapping shard.
    fn decide_chunk(
        &self,
        state: &mut ConnState,
        batch_n: usize,
        chunk: &[TargetId],
        out: &mut Vec<Assignment>,
    ) {
        if chunk.is_empty() {
            return;
        }
        if self.policy.assign_uses_mapping() {
            self.mapping.write_set(chunk, |shards| {
                for &target in chunk {
                    let m = shards.table_mut(target);
                    let (assignment, effect) = self.policy.assign(
                        &self.loads,
                        &self.params,
                        state.node,
                        target,
                        m.nodes(target),
                    );
                    let (assignment, effect) = self.gate_assignment(assignment, effect);
                    let effect_node = assignment.serving_node(state.node);
                    Self::apply_effect(m, effect, target, effect_node);
                    self.settle(state, batch_n, assignment);
                    out.push(assignment);
                }
            });
        } else {
            for &target in chunk {
                let (assignment, _) =
                    self.policy
                        .assign(&self.loads, &self.params, state.node, target, &[]);
                self.settle(state, batch_n, assignment);
                out.push(assignment);
            }
        }
    }

    /// Returns the node currently handling `conn` (it can change under
    /// [`ForwardSemantics::Migrate`]).
    pub fn connection_node(&self, conn: ConnId) -> Option<NodeId> {
        self.conns.with(conn, |c| c.get(&conn).map(|s| s.node))
    }

    /// Closes a connection: removes its load unit and any outstanding
    /// fractional remote loads.
    ///
    /// # Panics
    ///
    /// Panics if the connection is unknown.
    pub fn close_connection(&self, conn: ConnId) {
        let closed = self.try_close_connection(conn);
        assert!(closed, "close_connection: unknown connection");
    }

    /// Closes `conn` if it is registered; returns whether it was. The
    /// removal and the idempotence check happen under one shard lock,
    /// so duplicate closes from racing teardown paths are safe. Its
    /// load is released under that same lock: whoever sees the
    /// connection gone ([`active_connections`](Self::active_connections)
    /// takes the lock) also sees its load gone, rather than a window in
    /// which a quiescent cluster still reads loaded.
    pub fn try_close_connection(&self, conn: ConnId) -> bool {
        self.conns.with(conn, |c| match c.remove(&conn) {
            None => false,
            Some(state) => {
                self.loads.discharge(state.node, LOAD_UNIT);
                for (node, f) in state.frac {
                    self.loads.discharge(node, f);
                }
                true
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    fn ext(nodes: usize) -> ConcurrentDispatcher {
        ConcurrentDispatcher::new(
            PolicyKind::ExtLard,
            ForwardSemantics::LateralFetch,
            nodes,
            LardParams::default(),
        )
    }

    #[test]
    fn shared_reference_lifecycle() {
        let d = ext(2);
        let node = d.open_connection(ConnId(0), t(0));
        d.begin_batch(ConnId(0), 2);
        assert_eq!(d.assign_request(ConnId(0), t(1)), Assignment::Local);
        assert_eq!(d.connection_node(ConnId(0)), Some(node));
        d.close_connection(ConnId(0));
        assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
        assert_eq!(d.active_connections(), 0);
    }

    #[test]
    fn assign_batch_matches_sequential_for_a_simple_batch() {
        let seq = ext(2);
        let bat = ext(2);
        for d in [&seq, &bat] {
            d.open_connection(ConnId(0), t(0));
            d.report_disk_queue(NodeId(0), 50);
            d.report_disk_queue(NodeId(1), 50);
            d.mapping().write(t(9), |m| m.add_replica(t(9), NodeId(1)));
        }
        let targets = [t(9), t(3), t(9)];
        seq.begin_batch(ConnId(0), targets.len());
        let want: Vec<Assignment> = targets
            .iter()
            .map(|&x| seq.assign_request(ConnId(0), x))
            .collect();
        let got = bat.assign_batch(ConnId(0), &targets);
        assert_eq!(got, want);
        assert_eq!(seq.loads(), bat.loads());
        assert_eq!(seq.mapping().num_replicas(), bat.mapping().num_replicas());
    }

    #[test]
    fn empty_batch_clears_previous_fractions() {
        let d = ext(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        d.mapping().write(t(1), |m| m.add_replica(t(1), other));
        let a = d.assign_batch(ConnId(0), &[t(1)]);
        assert_eq!(a, vec![Assignment::Remote(other)]);
        assert!((d.loads()[other.0] - 1.0).abs() < 1e-9);
        // The degenerate batch behaves like begin_batch(conn, 1).
        assert!(d.assign_batch(ConnId(0), &[]).is_empty());
        assert!(d.loads()[other.0].abs() < 1e-9);
        d.close_connection(ConnId(0));
        assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
    }

    #[test]
    fn oversized_batch_is_chunked_but_accounting_is_exact() {
        let d = ext(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        // Every target cached on the other node: each of the N requests
        // forwards, charging exactly 1/N — including across chunks.
        let n = MAX_BATCH_CHUNK * 2 + 7;
        let targets: Vec<TargetId> = (0..n as u32).map(|i| t(i + 1)).collect();
        for &x in &targets {
            d.mapping().write(x, |m| m.add_replica(x, other));
        }
        let assignments = d.assign_batch(ConnId(0), &targets);
        assert_eq!(assignments.len(), n);
        assert!(assignments.iter().all(|a| a.is_remote()));
        assert!((d.loads()[other.0] - 1.0).abs() < 1e-4);
        d.close_connection(ConnId(0));
        assert_eq!(d.load_tracker().load_fixed(other), 0);
        assert_eq!(d.load_tracker().load_fixed(conn_node), 0);
    }

    #[test]
    fn oversized_batch_under_migrate_matches_sequential() {
        // Chunk boundaries must not perturb migrate re-homing: the same
        // >MAX_BATCH_CHUNK batch, decided batched vs sequentially, must
        // walk the identical sequence of hops and end at the same home.
        let mk = || {
            let d = ConcurrentDispatcher::new(
                PolicyKind::ExtLard,
                ForwardSemantics::Migrate,
                3,
                LardParams::default(),
            );
            for i in 0..3 {
                d.report_disk_queue(NodeId(i), 50);
            }
            d
        };
        let seq = mk();
        let bat = mk();
        let n = MAX_BATCH_CHUNK * 2 + 9;
        // Targets mapped round-robin across all nodes: the connection is
        // dragged from node to node, including across chunk boundaries.
        let targets: Vec<TargetId> = (0..n as u32).map(|i| t(i + 1)).collect();
        for d in [&seq, &bat] {
            for (i, &x) in targets.iter().enumerate() {
                d.mapping().write(x, |m| m.add_replica(x, NodeId(i % 3)));
            }
            let node = d.open_connection(ConnId(0), t(0));
            assert_eq!(node, NodeId(0));
        }
        seq.begin_batch(ConnId(0), n);
        let want: Vec<Assignment> = targets
            .iter()
            .map(|&x| seq.assign_request(ConnId(0), x))
            .collect();
        let got = bat.assign_batch(ConnId(0), &targets);
        assert_eq!(got, want);
        assert!(want.iter().any(|a| a.is_remote()), "no hop exercised");
        assert_eq!(
            seq.connection_node(ConnId(0)),
            bat.connection_node(ConnId(0))
        );
        for i in 0..3 {
            assert_eq!(
                seq.load_tracker().load_fixed(NodeId(i)),
                bat.load_tracker().load_fixed(NodeId(i)),
                "node {i}"
            );
        }
        for d in [seq, bat] {
            d.close_connection(ConnId(0));
            assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "unknown connection")]
    fn assign_batch_on_unknown_connection_panics() {
        let d = ext(2);
        let _ = d.assign_batch(ConnId(42), &[t(0)]);
    }

    #[test]
    fn snapshot_and_adopt_roundtrip() {
        let ring = Ring::new(1);
        let d = ext(2);
        d.open_connection(ConnId(0), t(0));
        d.mapping().write(t(7), |m| m.add_replica(t(7), NodeId(1)));
        let full = d.gossip_delta(FeId(0), 1, true, &ring);
        assert!(full.full);
        assert_eq!(full.loads.iter().sum::<i64>(), LOAD_UNIT);
        assert!(full.mapping.contains(&(t(7), vec![NodeId(1)])));
        // Nothing changed since: the next delta carries loads only.
        let quiet = d.gossip_delta(FeId(0), 2, false, &ring);
        assert!(!quiet.full && quiet.mapping.is_empty());
        assert_eq!(quiet.loads, full.loads);
        d.mapping().write(t(7), |m| m.set_nodes(t(7), &[]));
        d.mapping().write(t(8), |m| m.add_replica(t(8), NodeId(0)));
        let changed = d.gossip_delta(FeId(0), 3, false, &ring);
        assert_eq!(
            changed.mapping,
            vec![(t(7), vec![]), (t(8), vec![NodeId(0)])]
        );
        // A target another front-end owns is its owner's to publish.
        let ring2 = Ring::new(2);
        let theirs = (0..).map(t).find(|&x| ring2.owner(x) == FeId(1)).unwrap();
        d.mapping()
            .write(theirs, |m| m.add_replica(theirs, NodeId(0)));
        assert!(d.gossip_delta(FeId(0), 4, false, &ring2).mapping.is_empty());

        // A peer adopting the share materializes it verbatim.
        let peer = ext(2);
        let outcome = MergeOutcome {
            applied: true,
            upserts: full.mapping.clone(),
            removals: vec![],
        };
        peer.adopt_merge(&outcome);
        assert!(peer.mapping().read(t(7), |m| m.is_mapped(t(7), NodeId(1))));
        peer.adopt_merge(&MergeOutcome {
            applied: true,
            upserts: vec![],
            removals: vec![t(7)],
        });
        assert!(!peer.mapping().read(t(7), |m| m.is_known(t(7))));

        // Remote bias is visible to reads but not exported back out.
        peer.set_remote_loads(&full.loads);
        assert!(peer.loads().iter().sum::<f64>() > 0.9);
        let exported = peer.gossip_delta(FeId(0), 1, true, &ring).loads;
        assert!(exported.iter().all(|&l| l == 0));
        d.close_connection(ConnId(0));
    }

    #[test]
    fn open_connection_reroutes_around_an_open_breaker() {
        let d = ext(2);
        // Deterministic first pick: all-idle LARD breaks ties toward
        // node 0. Quarantine it; the connection must land elsewhere and
        // the mapping must record the *actual* home.
        d.health().force_open(NodeId(0));
        let node = d.open_connection(ConnId(0), t(5));
        assert_eq!(node, NodeId(1));
        assert!(d.mapping().read(t(5), |m| m.is_mapped(t(5), NodeId(1))));
        assert!(!d.mapping().read(t(5), |m| m.is_mapped(t(5), NodeId(0))));
        d.close_connection(ConnId(0));
    }

    #[test]
    fn open_connection_fails_open_when_all_breakers_refuse() {
        let d = ext(2);
        d.health().force_open(NodeId(0));
        d.health().force_open(NodeId(1));
        let node = d.open_connection(ConnId(0), t(5));
        assert_eq!(node, NodeId(0), "fail-open keeps the policy's pick");
        // And no belief is recorded for a node that may never serve it.
        assert!(!d.mapping().read(t(5), |m| m.is_known(t(5))));
        d.close_connection(ConnId(0));
    }

    #[test]
    fn remote_assignment_to_open_node_degrades_to_local_without_effect() {
        let d = ext(2);
        let conn_node = d.open_connection(ConnId(0), t(0));
        let other = NodeId(1 - conn_node.0);
        d.report_disk_queue(conn_node, 50);
        d.mapping().write(t(1), |m| m.add_replica(t(1), other));
        let before = d.mapping().num_replicas();
        d.health().force_open(other);
        d.begin_batch(ConnId(0), 1);
        assert_eq!(d.assign_request(ConnId(0), t(1)), Assignment::Local);
        assert_eq!(
            d.mapping().num_replicas(),
            before,
            "gated decision must not leave a mapping effect behind"
        );
        // Batched path takes the same gate.
        assert_eq!(
            d.assign_batch(ConnId(0), &[t(1), t(1)]),
            vec![Assignment::Local, Assignment::Local]
        );
        d.close_connection(ConnId(0));
    }

    #[test]
    fn evict_node_trips_its_breaker() {
        let d = ext(2);
        d.evict_node(NodeId(0));
        assert_eq!(
            d.health().state(NodeId(0)),
            crate::health::HealthState::Open
        );
        let node = d.open_connection(ConnId(0), t(3));
        assert_eq!(node, NodeId(1));
        d.close_connection(ConnId(0));
    }

    #[test]
    fn warm_up_installs_final_cached_beliefs_and_resets_breaker() {
        let d = ext(2);
        let n = NodeId(1);
        d.evict_node(n);
        let events = vec![
            CacheEvent::Admit(t(1)),
            CacheEvent::Admit(t(2)),
            CacheEvent::Evict(t(1)),
            CacheEvent::Admit(t(3)),
        ];
        let installed = d.warm_up(n, &events);
        assert_eq!(installed, 2, "t2 and t3 survive the journal fold");
        assert!(d.mapping().read(t(2), |m| m.is_mapped(t(2), n)));
        assert!(d.mapping().read(t(3), |m| m.is_mapped(t(3), n)));
        assert!(!d.mapping().read(t(1), |m| m.is_mapped(t(1), n)));
        assert_eq!(d.health().state(n), crate::health::HealthState::Closed);
        // Mirror agrees with beliefs: warm-up introduces no divergence.
        assert_eq!(d.mapping_divergence(), 0);
        // Absolute semantics: a second warm-up replaces, never unions.
        let installed = d.warm_up(n, &[CacheEvent::Admit(t(4))]);
        assert_eq!(installed, 1);
        assert!(!d.mapping().read(t(2), |m| m.is_mapped(t(2), n)));
        assert_eq!(d.mapping_divergence(), 0);
    }

    #[test]
    fn try_close_is_idempotent() {
        let d = ext(2);
        d.open_connection(ConnId(7), t(0));
        assert!(d.try_close_connection(ConnId(7)));
        assert!(!d.try_close_connection(ConnId(7)));
        assert_eq!(d.active_connections(), 0);
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn double_open_panics() {
        let d = ext(2);
        d.open_connection(ConnId(0), t(0));
        d.open_connection(ConnId(0), t(1));
    }

    #[test]
    #[should_panic(expected = "unknown connection")]
    fn close_unknown_panics() {
        let d = ext(2);
        d.close_connection(ConnId(3));
    }

    #[test]
    fn parallel_opens_on_distinct_targets_do_not_interfere() {
        use std::sync::Arc;
        let d = Arc::new(ext(4));
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                let d = d.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let conn = ConnId(k * 1_000_000 + i);
                        d.open_connection(conn, t((k * 500 + i) as u32));
                        d.close_connection(conn);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.active_connections(), 0);
        assert!(d.loads().iter().all(|&l| l.abs() < 1e-9));
    }
}
