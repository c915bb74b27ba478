//! The front-end's target-to-node mapping table.
//!
//! LARD "maintains mappings between targets and back-end nodes such that a
//! target is considered to be cached on its associated back-end nodes". The
//! table is the front-end's *belief* about cache contents — the real caches
//! (simulated LRU or prototype file cache) may disagree after evictions,
//! which is part of the behaviour being studied.
//!
//! Basic LARD keeps at most one node per target (it partitions the working
//! set). Extended LARD can *replicate*: serving a target locally on a
//! lightly-loaded connection-handling node adds that node to the target's
//! set (the paper's point 3 trade-off: replication reduces forwarding but
//! shrinks the aggregate effective cache).
//!
//! A table can also keep a **change journal**: the set of targets whose
//! node set changed since it was last drained. A front-end tier gossips
//! from it, so a round carries what changed rather than the whole share
//! (see [`drain_changes`](MappingTable::drain_changes)). The journal is
//! off until the first drain, so a table nobody gossips pays one branch
//! per change and nothing more.

use std::collections::{HashMap, HashSet};

use phttp_trace::TargetId;

use crate::types::NodeId;

/// Target → set-of-nodes mapping with small inline sets.
#[derive(Debug, Clone, Default)]
pub struct MappingTable {
    map: HashMap<TargetId, Vec<NodeId>>,
    /// Targets changed since the last drain; `None` until the first.
    journal: Option<HashSet<TargetId>>,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `target` is mapped to `node`.
    pub fn is_mapped(&self, target: TargetId, node: NodeId) -> bool {
        self.map
            .get(&target)
            .is_some_and(|nodes| nodes.contains(&node))
    }

    /// Returns the nodes believed to cache `target` (possibly empty).
    pub fn nodes(&self, target: TargetId) -> &[NodeId] {
        self.map.get(&target).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns `true` if the target has any mapping.
    pub fn is_known(&self, target: TargetId) -> bool {
        self.map.get(&target).is_some_and(|v| !v.is_empty())
    }

    /// Replaces the target's mapping with exactly `node` (basic-LARD move:
    /// the working-set partition assigns each target to one node).
    pub fn assign_exclusive(&mut self, target: TargetId, node: NodeId) {
        let entry = self.map.entry(target).or_default();
        if entry.as_slice() != [node] {
            entry.clear();
            entry.push(node);
            Self::touch(&mut self.journal, target);
        }
    }

    /// Adds `node` to the target's set if absent (extended-LARD replication).
    pub fn add_replica(&mut self, target: TargetId, node: NodeId) {
        let entry = self.map.entry(target).or_default();
        if !entry.contains(&node) {
            entry.push(node);
            Self::touch(&mut self.journal, target);
        }
    }

    /// Replaces the target's mapping wholesale with `nodes`
    /// (deduplicated, order preserved); an empty set removes the entry.
    /// This is the tier-adoption primitive: a front-end materializing a
    /// peer's gossiped share installs the owner's belief verbatim
    /// rather than patching its own.
    pub fn set_nodes(&mut self, target: TargetId, nodes: &[NodeId]) {
        let mut want = Vec::with_capacity(nodes.len());
        for &n in nodes {
            if !want.contains(&n) {
                want.push(n);
            }
        }
        if self.nodes(target) == want.as_slice() {
            return;
        }
        Self::touch(&mut self.journal, target);
        if want.is_empty() {
            self.map.remove(&target);
        } else {
            self.map.insert(target, want);
        }
    }

    /// Removes `node` from the target's set (e.g. on node failure).
    pub fn remove_replica(&mut self, target: TargetId, node: NodeId) {
        if let Some(entry) = self.map.get_mut(&target) {
            let before = entry.len();
            entry.retain(|&n| n != node);
            if entry.len() != before {
                Self::touch(&mut self.journal, target);
            }
            if entry.is_empty() {
                self.map.remove(&target);
            }
        }
    }

    /// Visits every believed `(target, node)` pair (divergence audits,
    /// coherence metrics). Iteration order is unspecified.
    pub fn for_each_pair(&self, mut f: impl FnMut(TargetId, NodeId)) {
        for (&target, nodes) in &self.map {
            for &node in nodes {
                f(target, node);
            }
        }
    }

    /// Drops every mapping that references `node` (node decommissioning).
    pub fn evict_node(&mut self, node: NodeId) {
        let journal = &mut self.journal;
        self.map.retain(|&target, nodes| {
            let before = nodes.len();
            nodes.retain(|&n| n != node);
            if nodes.len() != before {
                Self::touch(journal, target);
            }
            !nodes.is_empty()
        });
    }

    /// Records `target` in the change journal, if one is kept.
    fn touch(journal: &mut Option<HashSet<TargetId>>, target: TargetId) {
        if let Some(changed) = journal {
            changed.insert(target);
        }
    }

    /// Whether the change journal holds anything to drain.
    pub fn has_changes(&self) -> bool {
        self.journal.as_ref().is_some_and(|c| !c.is_empty())
    }

    /// Visits `(target, nodes)` for every mapped target (`all`) or only
    /// for the targets changed since the previous drain — an empty
    /// `nodes` meaning no longer mapped — and empties the journal,
    /// switching it on if this is the first drain. Visiting and emptying
    /// happen under one borrow, so a change is reported by exactly one
    /// drain.
    pub fn drain_changes(&mut self, all: bool, mut f: impl FnMut(TargetId, &[NodeId])) {
        let changed = self.journal.get_or_insert_with(HashSet::new);
        if all {
            changed.clear();
            for (&target, nodes) in &self.map {
                f(target, nodes);
            }
        } else {
            for target in changed.drain() {
                f(target, self.map.get(&target).map_or(&[], Vec::as_slice));
            }
        }
    }

    /// Number of targets with at least one mapping.
    pub fn num_targets(&self) -> usize {
        self.map.len()
    }

    /// Total number of (target, node) pairs — `>= num_targets()`; the excess
    /// measures replication.
    pub fn num_replicas(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Mean replicas per mapped target (1.0 = pure partitioning).
    pub fn replication_factor(&self) -> f64 {
        if self.map.is_empty() {
            return 0.0;
        }
        self.num_replicas() as f64 / self.num_targets() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    #[test]
    fn exclusive_assignment_replaces() {
        let mut m = MappingTable::new();
        m.assign_exclusive(t(1), NodeId(0));
        assert!(m.is_mapped(t(1), NodeId(0)));
        m.assign_exclusive(t(1), NodeId(2));
        assert!(!m.is_mapped(t(1), NodeId(0)));
        assert!(m.is_mapped(t(1), NodeId(2)));
        assert_eq!(m.nodes(t(1)), &[NodeId(2)]);
    }

    #[test]
    fn replicas_accumulate_without_duplicates() {
        let mut m = MappingTable::new();
        m.add_replica(t(5), NodeId(0));
        m.add_replica(t(5), NodeId(1));
        m.add_replica(t(5), NodeId(1));
        assert_eq!(m.nodes(t(5)).len(), 2);
        assert_eq!(m.num_replicas(), 2);
        assert_eq!(m.num_targets(), 1);
        assert!((m.replication_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn remove_replica_cleans_up() {
        let mut m = MappingTable::new();
        m.add_replica(t(1), NodeId(0));
        m.remove_replica(t(1), NodeId(0));
        assert!(!m.is_known(t(1)));
        assert_eq!(m.num_targets(), 0);
        // Removing from an unknown target is a no-op.
        m.remove_replica(t(9), NodeId(3));
    }

    #[test]
    fn set_nodes_replaces_dedupes_and_clears() {
        let mut m = MappingTable::new();
        m.add_replica(t(1), NodeId(0));
        m.set_nodes(t(1), &[NodeId(2), NodeId(1), NodeId(2)]);
        assert_eq!(m.nodes(t(1)), &[NodeId(2), NodeId(1)]);
        m.set_nodes(t(1), &[]);
        assert!(!m.is_known(t(1)));
        assert_eq!(m.num_targets(), 0);
    }

    #[test]
    fn evict_node_strips_all_mappings() {
        let mut m = MappingTable::new();
        m.add_replica(t(1), NodeId(0));
        m.add_replica(t(1), NodeId(1));
        m.add_replica(t(2), NodeId(0));
        m.evict_node(NodeId(0));
        assert_eq!(m.nodes(t(1)), &[NodeId(1)]);
        assert!(!m.is_known(t(2)));
    }

    #[test]
    fn journal_records_real_changes_once_drained() {
        let drain = |m: &mut MappingTable, all: bool| {
            let mut out = Vec::new();
            m.drain_changes(all, |t, n| out.push((t.0, n.to_vec())));
            out.sort();
            out
        };
        let mut m = MappingTable::new();
        m.add_replica(t(1), NodeId(0));
        // Off until the first drain, which reports the whole table.
        assert_eq!(drain(&mut m, true), vec![(1, vec![NodeId(0)])]);
        assert!(drain(&mut m, false).is_empty());
        // No-op writes are not changes.
        m.add_replica(t(1), NodeId(0));
        m.assign_exclusive(t(1), NodeId(0));
        m.set_nodes(t(1), &[NodeId(0), NodeId(0)]);
        m.remove_replica(t(1), NodeId(3));
        m.evict_node(NodeId(3));
        assert!(drain(&mut m, false).is_empty());
        // Real ones are reported once, with the state at drain time.
        m.add_replica(t(1), NodeId(1));
        m.assign_exclusive(t(2), NodeId(1));
        m.set_nodes(t(3), &[NodeId(2)]);
        m.evict_node(NodeId(1));
        assert_eq!(
            drain(&mut m, false),
            vec![(1, vec![NodeId(0)]), (2, vec![]), (3, vec![NodeId(2)])]
        );
        assert!(drain(&mut m, false).is_empty());
        m.remove_replica(t(3), NodeId(2));
        assert_eq!(drain(&mut m, false), vec![(3, vec![])]);
    }

    #[test]
    fn unknown_target_reports_empty() {
        let m = MappingTable::new();
        assert!(!m.is_mapped(t(3), NodeId(0)));
        assert!(m.nodes(t(3)).is_empty());
        assert_eq!(m.replication_factor(), 0.0);
    }
}
