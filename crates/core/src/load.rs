//! Lock-free per-node load accounting.
//!
//! The paper's front-end charges one load unit per active connection to
//! the connection-handling node, plus `1/N` of a unit to a remote node
//! serving one request of a pipelined batch of `N`. The tracker stores
//! these charges in **fixed point** ([`LOAD_UNIT`] = one connection) in
//! per-node atomics, so the dispatch hot path reads and writes load
//! without taking any lock — the whole point of splitting the old
//! monolithic dispatcher, whose single mutex serialized every policy
//! decision across connection-handler threads.
//!
//! Exactness: a fractional batch charge is rounded once when computed
//! ([`LoadTracker::frac_charge`]) and the *same* fixed-point value is
//! recorded in the connection state and subtracted on discharge, so
//! load always returns to exactly zero when all connections close,
//! regardless of rounding.
//!
//! Disk-queue depths (conveyed over the control sessions, §7.1) live
//! here too: they are part of the same "cluster load state" snapshot
//! that policies read.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use crate::types::NodeId;

/// Fixed-point scale: one connection's worth of load.
///
/// 2^20 gives ~1e-6 resolution on fractional batch charges while
/// leaving 43 bits of whole-connection headroom.
pub const LOAD_UNIT: i64 = 1 << 20;

/// One node's counters, padded and aligned to a cache line so that the
/// dispatch hot path's relaxed stores to one node never invalidate the
/// line holding another node's counters (false sharing). The load and
/// disk-queue counters of the *same* node share a line deliberately —
/// policies read them together in one decision.
#[repr(align(64))]
#[derive(Debug)]
struct NodeCounters {
    load: AtomicI64,
    disk_q: AtomicUsize,
    /// Load other front-ends of the tier report for this node (fixed
    /// point, gossiped on the control plane). Zero outside a tier, so
    /// single-front-end behaviour is unchanged.
    remote: AtomicI64,
    /// Relative serving capacity (dimensionless, default 1). Policies
    /// compare *effective* load — raw load divided by this weight — so
    /// a weight-2 node looks half as busy per connection and naturally
    /// attracts proportionally more traffic in a heterogeneous cluster.
    weight: AtomicI64,
}

impl NodeCounters {
    fn new() -> Self {
        NodeCounters {
            load: AtomicI64::new(0),
            disk_q: AtomicUsize::new(0),
            remote: AtomicI64::new(0),
            weight: AtomicI64::new(1),
        }
    }
}

/// Per-node load estimates and disk-queue depths, all atomic, one cache
/// line per node.
#[derive(Debug)]
pub struct LoadTracker {
    nodes: Box<[NodeCounters]>,
}

impl LoadTracker {
    /// Creates a tracker for `num_nodes` back-ends, all idle.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one back-end");
        LoadTracker {
            nodes: (0..num_nodes).map(|_| NodeCounters::new()).collect(),
        }
    }

    /// Number of tracked nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// One node's load in connection units, including any remote bias
    /// gossiped by tier peers (zero outside a tier).
    pub fn load(&self, node: NodeId) -> f64 {
        self.load_fixed(node) as f64 / LOAD_UNIT as f64
    }

    /// One node's load in fixed point (local charges plus remote bias).
    pub fn load_fixed(&self, node: NodeId) -> i64 {
        let c = &self.nodes[node.0];
        c.load.load(Ordering::Relaxed) + c.remote.load(Ordering::Relaxed)
    }

    /// One node's **locally charged** load only, in fixed point — the
    /// part this front-end is accountable for, and the part it exports
    /// to tier peers (exporting the merged figure would double-count).
    pub fn local_fixed(&self, node: NodeId) -> i64 {
        self.nodes[node.0].load.load(Ordering::Relaxed)
    }

    /// Overwrites the remote-bias component for `node` with the latest
    /// merged peer figure. An overwrite, not an accumulate: each gossip
    /// round replaces the previous round's belief wholesale, so lost or
    /// duplicated rounds cannot drift the bias.
    pub fn set_remote_fixed(&self, node: NodeId, fixed: i64) {
        self.nodes[node.0].remote.store(fixed, Ordering::Relaxed);
    }

    /// Sets a node's relative capacity weight (heterogeneous clusters).
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0` — a zero-capacity member should be kept
    /// out of rotation by the health gate, not by a division blow-up.
    pub fn set_weight(&self, node: NodeId, weight: u32) {
        assert!(weight > 0, "node weight must be at least 1");
        self.nodes[node.0]
            .weight
            .store(weight as i64, Ordering::Relaxed);
    }

    /// A node's relative capacity weight (1 unless configured).
    pub fn weight(&self, node: NodeId) -> u32 {
        self.nodes[node.0].weight.load(Ordering::Relaxed) as u32
    }

    /// Capacity-normalized load in fixed point: [`load_fixed`]
    /// (local + remote bias) divided by the node's weight. This is the
    /// figure policies compare when picking the least-loaded node.
    ///
    /// [`load_fixed`]: Self::load_fixed
    pub fn effective_fixed(&self, node: NodeId) -> i64 {
        self.load_fixed(node) / self.nodes[node.0].weight.load(Ordering::Relaxed)
    }

    /// Capacity-normalized load in connection units.
    pub fn effective(&self, node: NodeId) -> f64 {
        self.load(node) / self.nodes[node.0].weight.load(Ordering::Relaxed) as f64
    }

    /// Snapshot of every node's load in connection units.
    pub fn loads(&self) -> Vec<f64> {
        (0..self.num_nodes())
            .map(|i| self.load(NodeId(i)))
            .collect()
    }

    /// Adds a fixed-point charge to a node.
    pub fn charge(&self, node: NodeId, fixed: i64) {
        self.nodes[node.0].load.fetch_add(fixed, Ordering::Relaxed);
    }

    /// Removes a fixed-point charge from a node.
    pub fn discharge(&self, node: NodeId, fixed: i64) {
        self.nodes[node.0].load.fetch_sub(fixed, Ordering::Relaxed);
    }

    /// The fixed-point charge for one request of a pipelined batch of
    /// `batch_n` (the paper's `1/N` accounting). Record the returned
    /// value and discharge exactly it.
    pub fn frac_charge(batch_n: usize) -> i64 {
        debug_assert!(batch_n > 0);
        LOAD_UNIT / batch_n as i64
    }

    /// Overwrites a node's load (test setup only).
    pub fn set_load_for_tests(&self, node: NodeId, load: f64) {
        self.nodes[node.0]
            .load
            .store((load * LOAD_UNIT as f64) as i64, Ordering::Relaxed);
    }

    /// Records a back-end's disk queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_disk_queue(&self, node: NodeId, depth: usize) {
        self.nodes[node.0].disk_q.store(depth, Ordering::Relaxed);
    }

    /// A back-end's last reported disk queue depth.
    pub fn disk_queue(&self, node: NodeId) -> usize {
        self.nodes[node.0].disk_q.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_cancel_exactly() {
        let t = LoadTracker::new(2);
        t.charge(NodeId(0), LOAD_UNIT);
        let f3 = LoadTracker::frac_charge(3);
        t.charge(NodeId(1), f3);
        t.charge(NodeId(1), f3);
        assert!((t.load(NodeId(0)) - 1.0).abs() < 1e-9);
        assert!((t.load(NodeId(1)) - 2.0 / 3.0).abs() < 1e-5);
        t.discharge(NodeId(0), LOAD_UNIT);
        t.discharge(NodeId(1), f3);
        t.discharge(NodeId(1), f3);
        assert_eq!(t.load_fixed(NodeId(0)), 0);
        assert_eq!(t.load_fixed(NodeId(1)), 0);
    }

    #[test]
    fn concurrent_charges_conserve() {
        use std::sync::Arc;
        let t = Arc::new(LoadTracker::new(4));
        let handles: Vec<_> = (0..8)
            .map(|k| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let n = NodeId(((i + k) % 4) as usize);
                        t.charge(n, LOAD_UNIT);
                        t.discharge(n, LOAD_UNIT);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(t.load_fixed(NodeId(i)), 0);
        }
    }

    #[test]
    fn remote_bias_adds_to_reads_but_not_local_accounting() {
        let t = LoadTracker::new(2);
        t.charge(NodeId(0), LOAD_UNIT);
        t.set_remote_fixed(NodeId(0), 2 * LOAD_UNIT);
        assert!((t.load(NodeId(0)) - 3.0).abs() < 1e-9);
        assert_eq!(t.load_fixed(NodeId(0)), 3 * LOAD_UNIT);
        assert_eq!(t.local_fixed(NodeId(0)), LOAD_UNIT);
        // Replacement semantics: a new round overwrites, never adds.
        t.set_remote_fixed(NodeId(0), LOAD_UNIT / 2);
        assert_eq!(t.load_fixed(NodeId(0)), LOAD_UNIT + LOAD_UNIT / 2);
        t.set_remote_fixed(NodeId(0), 0);
        t.discharge(NodeId(0), LOAD_UNIT);
        assert_eq!(t.load_fixed(NodeId(0)), 0);
    }

    #[test]
    fn disk_queue_roundtrip() {
        let t = LoadTracker::new(2);
        t.set_disk_queue(NodeId(1), 17);
        assert_eq!(t.disk_queue(NodeId(1)), 17);
        assert_eq!(t.disk_queue(NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one back-end")]
    fn zero_nodes_panics() {
        let _ = LoadTracker::new(0);
    }

    #[test]
    fn weights_normalize_effective_load() {
        let t = LoadTracker::new(2);
        assert_eq!(t.weight(NodeId(0)), 1);
        t.charge(NodeId(0), 4 * LOAD_UNIT);
        t.charge(NodeId(1), 4 * LOAD_UNIT);
        t.set_weight(NodeId(1), 4);
        // Raw loads are equal; effective load favours the big node.
        assert_eq!(t.load_fixed(NodeId(0)), t.load_fixed(NodeId(1)));
        assert_eq!(t.effective_fixed(NodeId(0)), 4 * LOAD_UNIT);
        assert_eq!(t.effective_fixed(NodeId(1)), LOAD_UNIT);
        assert!((t.effective(NodeId(1)) - 1.0).abs() < 1e-9);
        // Remote bias is normalized too (it is part of load_fixed).
        t.set_remote_fixed(NodeId(1), 4 * LOAD_UNIT);
        assert_eq!(t.effective_fixed(NodeId(1)), 2 * LOAD_UNIT);
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_panics() {
        let t = LoadTracker::new(1);
        t.set_weight(NodeId(0), 0);
    }

    #[test]
    fn node_counters_occupy_whole_cache_lines() {
        // Neighbouring nodes' counters must never share a 64-byte line;
        // alignment alone is not enough if the size were smaller.
        assert_eq!(std::mem::align_of::<NodeCounters>(), 64);
        assert_eq!(std::mem::size_of::<NodeCounters>(), 64);
    }
}
