//! Lock sharding for the mapping table and per-connection state.
//!
//! The mapping table is split into `N` shards keyed by [`TargetId`]
//! hash; a dispatch decision for a target takes only that target's
//! shard lock, so decisions for different targets proceed in parallel.
//! Connection state is sharded the same way by [`ConnId`]. Both shard
//! counts are powers of two chosen at construction.

use std::collections::HashMap;

use parking_lot::{LockClass, Mutex, RwLock, RwLockWriteGuard};
use phttp_trace::TargetId;

use crate::mapping::MappingTable;
use crate::types::{ConnId, NodeId};

/// Rounds a requested shard count up to a power of two (min 1).
fn shard_count(requested: usize) -> usize {
    requested.max(1).next_power_of_two()
}

/// Fibonacci-hash spread of a key over `mask + 1` shards.
fn spread(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask
}

/// [`MappingTable`] behind `N` independent locks keyed by target.
#[derive(Debug)]
pub struct ShardedMappingTable {
    shards: Box<[RwLock<MappingTable>]>,
    mask: usize,
}

impl ShardedMappingTable {
    /// Creates an empty table over `shards` locks (rounded up to a
    /// power of two).
    pub fn new(shards: usize) -> Self {
        let n = shard_count(shards);
        ShardedMappingTable {
            shards: (0..n)
                .map(|i| {
                    RwLock::new_classed(LockClass::mapping_shard(i as u32), MappingTable::new())
                })
                .collect(),
            mask: n - 1,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, target: TargetId) -> &RwLock<MappingTable> {
        &self.shards[spread(target.0 as u64, self.mask)]
    }

    /// Runs `f` with shared access to `target`'s shard.
    #[track_caller]
    pub fn read<R>(&self, target: TargetId, f: impl FnOnce(&MappingTable) -> R) -> R {
        f(&self.shard(target).read())
    }

    /// Runs `f` with exclusive access to `target`'s shard. Holding the
    /// lock across a decision *and* its mapping update is what keeps
    /// per-target policy decisions atomic without any global lock.
    #[track_caller]
    pub fn write<R>(&self, target: TargetId, f: impl FnOnce(&mut MappingTable) -> R) -> R {
        f(&mut self.shard(target).write())
    }

    /// The nodes believed to cache `target` (cloned out of the shard).
    pub fn nodes(&self, target: TargetId) -> Vec<NodeId> {
        self.read(target, |m| m.nodes(target).to_vec())
    }

    /// Whether `target` is mapped to `node`.
    pub fn is_mapped(&self, target: TargetId, node: NodeId) -> bool {
        self.read(target, |m| m.is_mapped(target, node))
    }

    /// Total targets with at least one mapping, across shards.
    pub fn num_targets(&self) -> usize {
        self.shards.iter().map(|s| s.read().num_targets()).sum()
    }

    /// Total (target, node) pairs, across shards.
    pub fn num_replicas(&self) -> usize {
        self.shards.iter().map(|s| s.read().num_replicas()).sum()
    }

    /// Mean replicas per mapped target (1.0 = pure partitioning).
    pub fn replication_factor(&self) -> f64 {
        let targets = self.num_targets();
        if targets == 0 {
            return 0.0;
        }
        self.num_replicas() as f64 / targets as f64
    }

    /// Drops every mapping that references `node` (decommissioning).
    pub fn evict_node(&self, node: NodeId) {
        for shard in self.shards.iter() {
            shard.write().evict_node(node);
        }
    }

    /// Visits every believed `(target, node)` pair, shard by shard under
    /// shared locks (divergence audits, coherence metrics). Pairs added
    /// or removed concurrently in shards not yet visited may or may not
    /// be seen — the usual sharded-snapshot caveat.
    pub fn for_each_pair(&self, mut f: impl FnMut(TargetId, NodeId)) {
        for shard in self.shards.iter() {
            shard.read().for_each_pair(&mut f);
        }
    }

    /// [`MappingTable::drain_changes`] over every shard, one write lock
    /// at a time: a change made while the drain runs is either reported
    /// by it or left for the next, never lost between the two. A shard
    /// with nothing to report costs only a read lock, so a quiet round
    /// never makes the dispatch path wait.
    pub fn drain_changes(&self, all: bool, mut f: impl FnMut(TargetId, &[NodeId])) {
        for shard in self.shards.iter() {
            if all || shard.read().has_changes() {
                shard.write().drain_changes(all, &mut f);
            }
        }
    }

    /// Removes the believed mappings `(target, node)` for every target in
    /// `stale`, taking each distinct covering shard's write lock exactly
    /// once in ascending index order (the [`write_set`](Self::write_set)
    /// discipline). Returns how many believed pairs were actually
    /// removed. This is the control-plane half of cache feedback:
    /// eviction reports batch into one call per report, not one lock
    /// acquisition per target.
    pub fn remove_stale(&self, node: NodeId, stale: &[TargetId]) -> u64 {
        if stale.is_empty() {
            return 0;
        }
        self.write_set(stale, |set| {
            let mut removed = 0;
            for &t in stale {
                let m = set.table_mut(t);
                if m.is_mapped(t, node) {
                    m.remove_replica(t, node);
                    removed += 1;
                }
            }
            removed
        })
    }

    /// Write-locks every shard covering `targets` — each distinct shard
    /// exactly **once**, in ascending shard-index order — and runs `f`
    /// with the locked set. This is the batched-dispatch primitive: a
    /// pipelined batch of `N` requests costs one acquisition per
    /// *distinct shard* instead of one (or two) per request.
    ///
    /// Ascending index order is the workspace's multi-shard lock order;
    /// every code path that holds more than one mapping shard at a time
    /// must acquire in this order (see ARCHITECTURE.md, "Batched
    /// dispatch"), which makes cross-batch deadlock impossible — and
    /// which lockcheck enforces (the `MappingShard` group is
    /// index-ordered: non-ascending acquisition panics).
    #[track_caller]
    pub fn write_set<R>(
        &self,
        targets: &[TargetId],
        f: impl FnOnce(&mut ShardSetMut<'_>) -> R,
    ) -> R {
        let mut indices: Vec<usize> = targets
            .iter()
            .map(|t| spread(t.0 as u64, self.mask))
            .collect();
        indices.sort_unstable();
        indices.dedup();
        let guards: Vec<(usize, RwLockWriteGuard<'_, MappingTable>)> = indices
            .into_iter()
            .map(|i| (i, self.shards[i].write()))
            .collect();
        let mut set = ShardSetMut {
            guards,
            mask: self.mask,
        };
        f(&mut set)
    }
}

/// A set of exclusively locked mapping shards, acquired together by
/// [`ShardedMappingTable::write_set`] for one pipelined batch.
pub struct ShardSetMut<'a> {
    /// (shard index, guard), sorted ascending by index.
    guards: Vec<(usize, RwLockWriteGuard<'a, MappingTable>)>,
    mask: usize,
}

impl ShardSetMut<'_> {
    /// Number of distinct shards locked for this batch.
    pub fn num_locked(&self) -> usize {
        self.guards.len()
    }

    /// The locked table covering `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` hashes to a shard outside the locked set
    /// (i.e. it was not in the `targets` slice passed to
    /// [`ShardedMappingTable::write_set`]).
    pub fn table_mut(&mut self, target: TargetId) -> &mut MappingTable {
        let idx = spread(target.0 as u64, self.mask);
        let pos = self
            .guards
            .binary_search_by_key(&idx, |(i, _)| *i)
            .expect("target outside the locked shard set");
        &mut self.guards[pos].1
    }
}

/// Per-connection dispatcher state.
#[derive(Debug, Clone)]
pub(crate) struct ConnState {
    /// Connection-handling node (changes under migrate semantics).
    pub node: NodeId,
    /// Size of the current pipelined batch (the paper's `N`).
    pub batch_n: usize,
    /// Fixed-point loads charged to remote nodes for the current batch.
    pub frac: Vec<(NodeId, i64)>,
}

/// Connection-state table behind `N` independent locks keyed by
/// connection id.
#[derive(Debug)]
pub(crate) struct ConnTable {
    shards: Box<[Mutex<HashMap<ConnId, ConnState>>]>,
    mask: usize,
}

impl ConnTable {
    pub fn new(shards: usize) -> Self {
        let n = shard_count(shards);
        ConnTable {
            shards: (0..n)
                .map(|i| Mutex::new_classed(LockClass::conn_shard(i as u32), HashMap::new()))
                .collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, conn: ConnId) -> &Mutex<HashMap<ConnId, ConnState>> {
        &self.shards[spread(conn.0, self.mask)]
    }

    /// Runs `f` with exclusive access to `conn`'s shard map.
    #[track_caller]
    pub fn with<R>(&self, conn: ConnId, f: impl FnOnce(&mut HashMap<ConnId, ConnState>) -> R) -> R {
        f(&mut self.shard(conn).lock())
    }

    /// Number of tracked connections (sums shard sizes; a racy but
    /// monotone-consistent diagnostic).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_mapping_aggregates_across_shards() {
        let m = ShardedMappingTable::new(8);
        for i in 0..100u32 {
            m.write(TargetId(i), |t| t.add_replica(TargetId(i), NodeId(0)));
        }
        m.write(TargetId(5), |t| t.add_replica(TargetId(5), NodeId(1)));
        assert_eq!(m.num_targets(), 100);
        assert_eq!(m.num_replicas(), 101);
        assert!((m.replication_factor() - 1.01).abs() < 1e-9);
        assert!(m.is_mapped(TargetId(5), NodeId(1)));
        assert_eq!(m.nodes(TargetId(5)), vec![NodeId(0), NodeId(1)]);
        m.evict_node(NodeId(0));
        assert_eq!(m.num_targets(), 1);
    }

    #[test]
    fn shard_count_rounds_up() {
        assert_eq!(ShardedMappingTable::new(1).num_shards(), 1);
        assert_eq!(ShardedMappingTable::new(5).num_shards(), 8);
        assert_eq!(ShardedMappingTable::new(32).num_shards(), 32);
    }

    #[test]
    fn write_set_locks_each_shard_once_and_resolves_targets() {
        let m = ShardedMappingTable::new(4);
        let targets: Vec<TargetId> = (0..32).map(TargetId).collect();
        m.write_set(&targets, |set| {
            // 32 targets over 4 shards: every shard is locked, once.
            assert_eq!(set.num_locked(), 4);
            for &t in &targets {
                set.table_mut(t).add_replica(t, NodeId(1));
            }
        });
        assert_eq!(m.num_targets(), 32);
        for &t in &targets {
            assert!(m.is_mapped(t, NodeId(1)));
        }
        // Duplicate targets collapse to one shard lock.
        m.write_set(&[TargetId(5), TargetId(5)], |set| {
            assert_eq!(set.num_locked(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "outside the locked shard set")]
    fn write_set_rejects_unlocked_targets() {
        let m = ShardedMappingTable::new(64);
        // With 64 shards, two targets that hash to different shards exist;
        // find one outside the singleton set.
        let outside = (1..1000)
            .map(TargetId)
            .find(|t| spread(t.0 as u64, m.mask) != spread(0, m.mask))
            .unwrap();
        m.write_set(&[TargetId(0)], |set| {
            let _ = set.table_mut(outside);
        });
    }

    #[test]
    fn conn_table_tracks_inserts_and_removes() {
        let c = ConnTable::new(4);
        for i in 0..50 {
            c.with(ConnId(i), |m| {
                m.insert(
                    ConnId(i),
                    ConnState {
                        node: NodeId(0),
                        batch_n: 1,
                        frac: Vec::new(),
                    },
                )
            });
        }
        assert_eq!(c.len(), 50);
        for i in 0..50 {
            c.with(ConnId(i), |m| m.remove(&ConnId(i)));
        }
        assert_eq!(c.len(), 0);
    }
}
