//! The policy layer: pure request-distribution decisions.
//!
//! A [`Policy`] turns *cluster state* (per-node loads and disk queues
//! from the [`LoadTracker`], the target's current mapping set) into a
//! *decision* (which node, plus a [`MapEffect`] the caller applies to
//! the mapping table). Policies mutate neither loads nor mappings —
//! that separation is what lets the concurrent dispatcher run decisions
//! under nothing but the one mapping shard lock for the target in hand.
//!
//! The three policies mirror the paper:
//!
//! * [`Wrr`] — weighted round-robin, content-blind (the commercial
//!   front-end baseline);
//! * [`Lard`] — basic LARD (ASPLOS '98), connection-granularity;
//! * [`ExtLard`] — the paper's extended LARD for persistent
//!   connections, request-granularity (§4.2 rules).

use std::sync::atomic::{AtomicUsize, Ordering};

use phttp_trace::TargetId;

use crate::cost::{aggregate_cost, LardParams};
use crate::load::LoadTracker;
use crate::types::{Assignment, NodeId};

/// Which distribution policy the dispatcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Weighted round-robin: pure load-based, content-blind (the baseline
    /// used by the commercial front-ends the paper cites).
    Wrr,
    /// Basic LARD (ASPLOS '98), distributing at connection granularity.
    Lard,
    /// Extended LARD (this paper), distributing at request granularity.
    ExtLard,
}

impl PolicyKind {
    /// Short name used in figure legends, matching the paper's labels.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Wrr => "WRR",
            PolicyKind::Lard => "LARD",
            PolicyKind::ExtLard => "extLARD",
        }
    }

    /// Builds the policy implementation for this kind.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Wrr => Box::new(Wrr::new()),
            PolicyKind::Lard => Box::new(Lard),
            PolicyKind::ExtLard => Box::new(ExtLard),
        }
    }
}

/// What a [`Assignment::Remote`] decision means mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardSemantics {
    /// Back-end forwarding: the connection stays put; the connection node
    /// fetches the response laterally. Remote nodes get 1/N batch load.
    LateralFetch,
    /// Multiple handoff: the connection (and its load unit) migrates to the
    /// remote node, which becomes the new connection-handling node.
    Migrate,
}

/// Mapping-table update a decision implies. The caller applies it to
/// the decision's chosen/serving node under the same mapping lock the
/// decision was made under, keeping per-target decisions atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapEffect {
    /// No mapping change.
    None,
    /// Re-home the target exclusively onto the chosen node (basic-LARD
    /// partition move).
    AssignExclusive,
    /// Add the chosen/serving node to the target's replica set
    /// (extended-LARD replication).
    AddReplica,
}

/// A request-distribution policy: decision logic only, no state.
///
/// `target_nodes` is the target's current mapping set (insertion
/// order preserved); loads and disk queues are read through the
/// tracker's atomics. Implementations must be [`Send`] + [`Sync`]:
/// the concurrent dispatcher calls them from many threads at once.
pub trait Policy: Send + Sync {
    /// Which kind this policy is.
    fn kind(&self) -> PolicyKind;

    /// Whether [`Policy::pick_node`] reads or updates the mapping
    /// (lets the dispatcher skip the mapping lock for WRR).
    fn pick_uses_mapping(&self) -> bool {
        true
    }

    /// Whether [`Policy::assign`] reads or updates the mapping.
    fn assign_uses_mapping(&self) -> bool {
        false
    }

    /// Picks the connection-handling node for a new connection's first
    /// request. The returned [`MapEffect`] applies to the chosen node.
    fn pick_node(
        &self,
        loads: &LoadTracker,
        params: &LardParams,
        target: TargetId,
        target_nodes: &[NodeId],
    ) -> (NodeId, MapEffect);

    /// Assigns a subsequent request on a persistent connection. The
    /// returned [`MapEffect`] applies to the serving node (the remote
    /// node for `Assignment::Remote`, the connection node otherwise).
    fn assign(
        &self,
        loads: &LoadTracker,
        params: &LardParams,
        conn_node: NodeId,
        target: TargetId,
        target_nodes: &[NodeId],
    ) -> (Assignment, MapEffect);
}

/// Weighted round-robin: least-loaded node, ties broken round-robin so
/// equal-load nodes share work (the "weight" is the inverse of current
/// load). The rotating cursor is the policy's only state; it is an
/// atomic because it is a tie-breaker, not an invariant — a racy
/// advance costs nothing but a different (equally valid) tie-break.
#[derive(Debug, Default)]
pub struct Wrr {
    cursor: AtomicUsize,
}

impl Wrr {
    /// A fresh WRR policy with the cursor at node 0.
    pub fn new() -> Self {
        Wrr::default()
    }
}

impl Policy for Wrr {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Wrr
    }

    fn pick_uses_mapping(&self) -> bool {
        false
    }

    fn pick_node(
        &self,
        loads: &LoadTracker,
        _params: &LardParams,
        _target: TargetId,
        _target_nodes: &[NodeId],
    ) -> (NodeId, MapEffect) {
        let n = loads.num_nodes();
        let cursor = self.cursor.load(Ordering::Relaxed);
        let mut best = NodeId(cursor % n);
        let mut best_load = loads.effective_fixed(best);
        for i in 0..n {
            let cand = NodeId((cursor + i) % n);
            let load = loads.effective_fixed(cand);
            if load < best_load {
                best = cand;
                best_load = load;
            }
        }
        self.cursor.store((best.0 + 1) % n, Ordering::Relaxed);
        (best, MapEffect::None)
    }

    fn assign(
        &self,
        _loads: &LoadTracker,
        _params: &LardParams,
        _conn_node: NodeId,
        _target: TargetId,
        _target_nodes: &[NodeId],
    ) -> (Assignment, MapEffect) {
        // Connection granularity: requests never move.
        (Assignment::Local, MapEffect::None)
    }
}

/// Shared LARD first-request pick: argmin of the aggregate cost over
/// all nodes, ties broken toward lower load then lower index for
/// determinism. Loads are capacity-normalized
/// ([`LoadTracker::effective`]) so heavier-weight nodes attract
/// proportionally more targets in a heterogeneous cluster.
fn lard_pick(
    loads: &LoadTracker,
    params: &LardParams,
    target_nodes: &[NodeId],
) -> (NodeId, MapEffect) {
    let mut best = NodeId(0);
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for i in 0..loads.num_nodes() {
        let node = NodeId(i);
        let load = loads.effective(node);
        let mapped = target_nodes.contains(&node);
        let cost = aggregate_cost(load, mapped, params);
        let key = (cost, load);
        if key < best_key {
            best_key = key;
            best = node;
        }
    }
    let effect = if target_nodes.contains(&best) {
        MapEffect::None
    } else {
        // Basic LARD partitions: a move re-homes the target. Extended
        // LARD tolerates replication (its caching heuristic prunes it);
        // a first-request assignment still re-homes, as in basic LARD,
        // keeping the two equivalent on HTTP/1.0.
        MapEffect::AssignExclusive
    };
    (best, effect)
}

/// Basic LARD (ASPLOS '98): content-aware first-request pick, requests
/// never move within a connection.
#[derive(Debug, Default)]
pub struct Lard;

impl Policy for Lard {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lard
    }

    fn pick_node(
        &self,
        loads: &LoadTracker,
        params: &LardParams,
        _target: TargetId,
        target_nodes: &[NodeId],
    ) -> (NodeId, MapEffect) {
        lard_pick(loads, params, target_nodes)
    }

    fn assign(
        &self,
        _loads: &LoadTracker,
        _params: &LardParams,
        _conn_node: NodeId,
        _target: TargetId,
        _target_nodes: &[NodeId],
    ) -> (Assignment, MapEffect) {
        (Assignment::Local, MapEffect::None)
    }
}

/// Extended LARD (this paper): request-granularity distribution on
/// persistent connections, with the §4.2 serve-local / forward rules.
#[derive(Debug, Default)]
pub struct ExtLard;

impl Policy for ExtLard {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ExtLard
    }

    fn assign_uses_mapping(&self) -> bool {
        true
    }

    fn pick_node(
        &self,
        loads: &LoadTracker,
        params: &LardParams,
        _target: TargetId,
        target_nodes: &[NodeId],
    ) -> (NodeId, MapEffect) {
        lard_pick(loads, params, target_nodes)
    }

    fn assign(
        &self,
        loads: &LoadTracker,
        params: &LardParams,
        conn_node: NodeId,
        _target: TargetId,
        target_nodes: &[NodeId],
    ) -> (Assignment, MapEffect) {
        // Rule 1: cached at the connection node -> serve locally.
        if target_nodes.contains(&conn_node) {
            return (Assignment::Local, MapEffect::None);
        }
        // Rule 1b: low disk utilization -> read from local disk, avoiding
        // forwarding overhead, and cache it (add a replica mapping).
        if loads.disk_queue(conn_node) < params.disk_queue_low {
            return (Assignment::Local, MapEffect::AddReplica);
        }
        // First-ever fetch of this target: no node caches it, so the
        // connection node reads it from disk. "Mappings ... are updated
        // each time a target is fetched from a backend node" — recording
        // the first mapping is not replication, so the anti-thrashing
        // heuristic does not apply. Without this, targets that only ever
        // appear as subsequent requests (embedded objects) would never
        // converge onto a home node.
        if target_nodes.is_empty() {
            return (Assignment::Local, MapEffect::AddReplica);
        }
        // Rule 2: evaluate cost metrics over the connection node and the
        // nodes currently caching the target (or, under the ablation knob,
        // every node). Capacity-normalized loads throughout.
        let conn_load = loads.effective(conn_node);
        let mut best = conn_node;
        let mut best_key = (
            // Not mapped to the conn node (rule 1 would have fired).
            aggregate_cost(conn_load, false, params),
            conn_load,
        );
        let all_nodes: Vec<NodeId>;
        let candidates: &[NodeId] = if params.restrict_candidates {
            target_nodes
        } else {
            all_nodes = (0..loads.num_nodes()).map(NodeId).collect();
            &all_nodes
        };
        for &cand in candidates {
            if cand == conn_node {
                continue;
            }
            let load = loads.effective(cand);
            let mapped = target_nodes.contains(&cand);
            let cost = aggregate_cost(load, mapped, params);
            let key = (cost, load);
            if key < best_key {
                best_key = key;
                best = cand;
            }
        }
        if best == conn_node {
            // Serving locally from disk under high disk utilization: the
            // anti-thrashing heuristic says do NOT cache (no mapping added).
            (Assignment::Local, MapEffect::None)
        } else {
            // The serving node will end up caching the target (it reads it
            // from its disk if it no longer has it); record that.
            (Assignment::Remote(best), MapEffect::AddReplica)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    #[test]
    fn wrr_rotates_ties_and_prefers_light_nodes() {
        let loads = LoadTracker::new(3);
        let p = Wrr::new();
        let params = LardParams::default();
        // All idle: cursor rotation spreads picks evenly.
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                let (n, e) = p.pick_node(&loads, &params, t(0), &[]);
                assert_eq!(e, MapEffect::None);
                loads.charge(n, crate::load::LOAD_UNIT);
                n.0
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Unload node 1: it must win the next pick.
        loads.discharge(NodeId(1), 2 * crate::load::LOAD_UNIT);
        let (n, _) = p.pick_node(&loads, &params, t(0), &[]);
        assert_eq!(n, NodeId(1));
    }

    #[test]
    fn weights_bias_picks_toward_big_nodes() {
        // Equal raw load, but node 1 has 4x the capacity: both WRR and
        // the LARD pick must prefer it.
        let loads = LoadTracker::new(2);
        loads.set_weight(NodeId(1), 4);
        loads.set_load_for_tests(NodeId(0), 8.0);
        loads.set_load_for_tests(NodeId(1), 8.0);
        let params = LardParams::default();
        let wrr = Wrr::new();
        let (n, _) = wrr.pick_node(&loads, &params, t(0), &[]);
        assert_eq!(n, NodeId(1));
        let lard = Lard;
        let (n, _) = lard.pick_node(&loads, &params, t(0), &[]);
        assert_eq!(n, NodeId(1));
        // ExtLard rule 2: the weighted node wins the forwarding argmin
        // even at a higher raw load than an unweighted alternative.
        let loads = LoadTracker::new(3);
        loads.set_weight(NodeId(2), 4);
        loads.set_disk_queue(NodeId(0), 50); // busy disk at the conn node
        loads.set_load_for_tests(NodeId(1), 8.0);
        loads.set_load_for_tests(NodeId(2), 16.0);
        let p = ExtLard;
        let (a, _) = p.assign(&loads, &params, NodeId(0), t(1), &[NodeId(1), NodeId(2)]);
        assert_eq!(a, Assignment::Remote(NodeId(2)));
    }

    #[test]
    fn lard_sticks_until_overloaded_then_rehomes() {
        let loads = LoadTracker::new(2);
        let p = Lard;
        let params = LardParams::default();
        let (first, e) = p.pick_node(&loads, &params, t(1), &[]);
        assert_eq!(e, MapEffect::AssignExclusive);
        // Mapped and lightly loaded: stays.
        loads.set_load_for_tests(first, 30.0);
        let (again, e) = p.pick_node(&loads, &params, t(1), &[first]);
        assert_eq!(again, first);
        assert_eq!(e, MapEffect::None);
        // Past T_high: moves off (and re-homes).
        loads.set_load_for_tests(first, 66.0);
        let (moved, e) = p.pick_node(&loads, &params, t(1), &[first]);
        assert_ne!(moved, first);
        assert_eq!(e, MapEffect::AssignExclusive);
    }

    #[test]
    fn ext_lard_rule_order() {
        let loads = LoadTracker::new(2);
        let p = ExtLard;
        let params = LardParams::default();
        let conn = NodeId(0);
        let other = NodeId(1);
        // Rule 1: mapped locally.
        assert_eq!(
            p.assign(&loads, &params, conn, t(1), &[conn]),
            (Assignment::Local, MapEffect::None)
        );
        // Rule 1b: idle disk caches locally.
        assert_eq!(
            p.assign(&loads, &params, conn, t(1), &[other]),
            (Assignment::Local, MapEffect::AddReplica)
        );
        // Busy disk + mapped elsewhere: forwards to the caching node.
        loads.set_disk_queue(conn, 50);
        assert_eq!(
            p.assign(&loads, &params, conn, t(1), &[other]),
            (Assignment::Remote(other), MapEffect::AddReplica)
        );
        // Busy disk + unknown target: first fetch maps locally.
        assert_eq!(
            p.assign(&loads, &params, conn, t(2), &[]),
            (Assignment::Local, MapEffect::AddReplica)
        );
        // Busy disk + caching node overloaded: local, no replica.
        loads.set_load_for_tests(other, 200.0);
        assert_eq!(
            p.assign(&loads, &params, conn, t(1), &[other]),
            (Assignment::Local, MapEffect::None)
        );
    }
}
