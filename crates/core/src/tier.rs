//! The front-end **tier** layer: partitioning targets across several
//! front-end instances and merging their dispatcher state.
//!
//! The paper's answer to front-end saturation is TCP handoff (§7): run
//! more than one front-end behind one virtual IP. That turns the
//! dispatcher's private state — mapping beliefs and load estimates —
//! into *distributed* state. This module provides the two pieces the
//! tier needs, both pure data structures (no sockets, no threads), so
//! every merge path is unit- and property-testable:
//!
//! * [`Ring`]: a consistent-hash ring over front-end indices. Each
//!   target has exactly one **owner** front-end — the authority for
//!   that target's mapping/coherence beliefs. Adding or removing a
//!   front-end moves only the keys that front-end gains or loses
//!   (bounded movement; property-tested in `tests/tier_props.rs`).
//!   The ring composes *orthogonally* with the [`Policy`](crate::Policy)
//!   layer: policies still decide which **back-end node** serves a
//!   request; the ring only decides which **front-end** owns the
//!   belief state consulted by that decision.
//! * [`StateDelta`] / [`TierView`]: the per-origin delta front-ends
//!   gossip on the control plane and the receiving side's merged view.
//!   A delta carries its origin's loads and either its whole owned
//!   share or only the targets that changed since its previous delta,
//!   stamped with a per-origin sequence number. The merge is
//!   **commutative and idempotent**: every target is a last-writer-wins
//!   register keyed by that sequence (a whole share writes every
//!   target), so any delivery order, including duplicates, converges to
//!   the same view — the property that lets front-ends exchange state
//!   peer-to-peer with no coordinator, and lets a non-owner decide
//!   locally from a possibly stale view. What a round costs is what
//!   changed, not the size of the share.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use phttp_trace::TargetId;

use crate::types::NodeId;

/// Index of a front-end instance within the tier (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeId(pub usize);

impl fmt::Display for FeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fe{}", self.0)
    }
}

/// Default virtual points per front-end on the [`Ring`]. Enough that a
/// 2–8 member ring partitions targets within a few percent of evenly.
pub const DEFAULT_VNODES: usize = 64;

/// SplitMix64: the finalizer used for both ring points and target keys.
/// Deterministic and platform-independent, so a ring built from the
/// same membership always partitions targets identically (the
/// simulator and both prototype io models must agree).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Consistent-hash ring assigning each target one owning front-end.
///
/// Points are keyed `(hash, fe)` so two front-ends hashing to the same
/// position cannot collide silently — the tie is broken by index,
/// deterministically — and removing a member removes exactly the
/// points it inserted.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    points: BTreeMap<(u64, usize), ()>,
    members: Vec<usize>,
}

impl Ring {
    /// A ring over front-ends `0..front_ends` with [`DEFAULT_VNODES`]
    /// virtual points each.
    ///
    /// # Panics
    ///
    /// Panics if `front_ends == 0`.
    pub fn new(front_ends: usize) -> Self {
        Self::with_vnodes(front_ends, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-point count (tests sweep this).
    ///
    /// # Panics
    ///
    /// Panics if `front_ends == 0` or `vnodes == 0`.
    pub fn with_vnodes(front_ends: usize, vnodes: usize) -> Self {
        assert!(front_ends > 0, "tier needs at least one front-end");
        assert!(vnodes > 0, "ring needs at least one virtual point");
        let mut ring = Ring {
            vnodes,
            points: BTreeMap::new(),
            members: Vec::new(),
        };
        for f in 0..front_ends {
            ring.add_fe(FeId(f));
        }
        ring
    }

    fn point(fe: usize, replica: usize) -> u64 {
        splitmix64(((fe as u64) << 32) ^ replica as u64 ^ 0xA076_1D64_78BD_642F)
    }

    /// Adds a front-end (no-op if already a member).
    pub fn add_fe(&mut self, fe: FeId) {
        if self.members.contains(&fe.0) {
            return;
        }
        for r in 0..self.vnodes {
            self.points.insert((Self::point(fe.0, r), fe.0), ());
        }
        self.members.push(fe.0);
        self.members.sort_unstable();
    }

    /// Removes a front-end (no-op if not a member).
    ///
    /// # Panics
    ///
    /// Panics if removal would empty the ring — an ownerless tier has
    /// no meaning; callers decommissioning the last front-end are
    /// tearing the cluster down, not rebalancing it.
    pub fn remove_fe(&mut self, fe: FeId) {
        if !self.members.contains(&fe.0) {
            return;
        }
        assert!(self.members.len() > 1, "cannot remove the last front-end");
        for r in 0..self.vnodes {
            self.points.remove(&(Self::point(fe.0, r), fe.0));
        }
        self.members.retain(|&m| m != fe.0);
    }

    /// The front-end owning `target`'s belief state: the first ring
    /// point at or after the target's hash, wrapping.
    pub fn owner(&self, target: TargetId) -> FeId {
        let h = splitmix64(target.0 as u64 ^ 0x6C62_272E_07BB_0142);
        let fe = self
            .points
            .range((h, 0)..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(&(_, f), ())| f)
            .expect("ring is never empty");
        FeId(fe)
    }

    /// Current members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of member front-ends.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false` — the ring refuses to become empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `fe` is a member.
    pub fn contains(&self, fe: FeId) -> bool {
        self.members.contains(&fe.0)
    }
}

/// One front-end's gossiped state, stamped with a per-origin sequence
/// number: its loads, plus its owned mapping share either **whole**
/// (`full`: every owned target it does not list is unmapped) or as the
/// targets whose belief changed since its previous delta (an empty node
/// set: no longer mapped). Publishers build these with
/// [`ConcurrentDispatcher::gossip_delta`](crate::ConcurrentDispatcher::gossip_delta):
/// full on an origin's first round and after a ring change, changes
/// otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    /// The front-end this state describes.
    pub origin: FeId,
    /// Monotonic per-origin sequence number; higher wins.
    pub seq: u64,
    /// Whether `mapping` is the whole owned share or only its changes.
    pub full: bool,
    /// The origin's fixed-point local load estimate per back-end node.
    pub loads: Vec<i64>,
    /// The origin's owned mapping share, whole or changed entries.
    pub mapping: Vec<(TargetId, Vec<NodeId>)>,
}

/// Wire-format errors for [`StateDelta::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The buffer ended before the encoded length said it would.
    Truncated,
    /// A count or index field is inconsistent with the payload.
    Malformed,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "truncated state delta"),
            DeltaError::Malformed => write!(f, "malformed state delta"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl StateDelta {
    /// Serializes the delta (little-endian, length-free: the control
    /// plane's framing supplies the length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(19 + self.loads.len() * 8 + self.mapping.len() * 8);
        out.extend_from_slice(&(self.origin.0 as u32).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.full as u8);
        out.extend_from_slice(&(self.loads.len() as u16).to_le_bytes());
        for l in &self.loads {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.extend_from_slice(&(self.mapping.len() as u32).to_le_bytes());
        for (t, nodes) in &self.mapping {
            out.extend_from_slice(&t.0.to_le_bytes());
            out.push(nodes.len() as u8);
            for n in nodes {
                out.extend_from_slice(&(n.0 as u16).to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a delta produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<StateDelta, DeltaError> {
        struct Cur<'a>(&'a [u8]);
        impl Cur<'_> {
            fn take<const N: usize>(&mut self) -> Result<[u8; N], DeltaError> {
                if self.0.len() < N {
                    return Err(DeltaError::Truncated);
                }
                let (head, tail) = self.0.split_at(N);
                self.0 = tail;
                Ok(head.try_into().expect("split_at guarantees length"))
            }
        }
        let mut cur = Cur(buf);
        let origin = FeId(u32::from_le_bytes(cur.take()?) as usize);
        let seq = u64::from_le_bytes(cur.take()?);
        let full = match cur.take::<1>()?[0] {
            0 => false,
            1 => true,
            _ => return Err(DeltaError::Malformed),
        };
        let n_nodes = u16::from_le_bytes(cur.take()?) as usize;
        let mut loads = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            loads.push(i64::from_le_bytes(cur.take()?));
        }
        let n_map = u32::from_le_bytes(cur.take()?) as usize;
        let mut mapping = Vec::with_capacity(n_map.min(1 << 16));
        for _ in 0..n_map {
            let t = TargetId(u32::from_le_bytes(cur.take()?));
            let k = cur.take::<1>()?[0] as usize;
            let mut nodes = Vec::with_capacity(k);
            for _ in 0..k {
                let n = u16::from_le_bytes(cur.take()?) as usize;
                if n >= n_nodes {
                    return Err(DeltaError::Malformed);
                }
                nodes.push(NodeId(n));
            }
            mapping.push((t, nodes));
        }
        if !cur.0.is_empty() {
            return Err(DeltaError::Malformed);
        }
        Ok(StateDelta {
            origin,
            seq,
            full,
            loads,
            mapping,
        })
    }
}

/// What a [`TierView::merge`] changed, as instructions for the host to
/// materialize into its local dispatcher.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Whether the delta advanced the view (false: stale or self-echo).
    pub applied: bool,
    /// Targets whose adopted mapping is new or changed, with the
    /// owner's node set to install.
    pub upserts: Vec<(TargetId, Vec<NodeId>)>,
    /// Targets the owner no longer maps at all.
    pub removals: Vec<TargetId>,
}

#[derive(Debug, Clone, Default)]
struct OriginState {
    /// Highest sequence merged; the loads are that delta's.
    seq: u64,
    loads: Vec<i64>,
    /// Sequence of the newest full share merged: a target without an
    /// entry is unmapped as of it.
    floor: u64,
    /// Per target, the sequence of the delta that last set it and its
    /// node set. An empty set above `floor` is a tombstone: it stops an
    /// older delta, delivered late, from resurrecting the target.
    mapping: HashMap<TargetId, (u64, Vec<NodeId>)>,
}

impl OriginState {
    /// Sets `target` to `nodes` as of `seq`, recording any change in the
    /// adopted (non-empty) mapping as an instruction in `out`.
    fn set(&mut self, target: TargetId, seq: u64, nodes: &[NodeId], out: &mut MergeOutcome) {
        let old = self.mapping.insert(target, (seq, nodes.to_vec()));
        let was = old.as_ref().map_or(&[][..], |(_, n)| n.as_slice());
        if was != nodes {
            if nodes.is_empty() {
                out.removals.push(target);
            } else {
                out.upserts.push((target, nodes.to_vec()));
            }
        }
    }
}

/// One front-end's merged view of its peers: per-origin state that is a
/// function of the *set* of deltas delivered, not their order.
///
/// Each target of an origin's share is a last-writer-wins register: its
/// value is the one carried by the highest-sequence delta that speaks
/// for it, where a change delta speaks for the targets it lists and a
/// full delta for every target (unlisted: unmapped). Loads follow the
/// highest sequence overall. Both rules are commutative, associative
/// and idempotent, so any delivery order, with any duplicates,
/// converges — and when every delta of an origin's stream has been
/// delivered, the view holds exactly that origin's share as of its last
/// delta.
#[derive(Debug)]
pub struct TierView {
    self_fe: FeId,
    num_nodes: usize,
    origins: HashMap<FeId, OriginState>,
    /// Origins dropped with [`drop_origin`](Self::drop_origin): a delta
    /// from one still on the wire must not bring it back.
    retired: Vec<FeId>,
}

impl TierView {
    /// An empty view for front-end `self_fe` over `num_nodes` back-ends.
    pub fn new(self_fe: FeId, num_nodes: usize) -> Self {
        TierView {
            self_fe,
            num_nodes,
            origins: HashMap::new(),
            retired: Vec::new(),
        }
    }

    /// Merges one gossiped delta and returns the mapping difference for
    /// the host to adopt. Echoes of `self`, deltas from a retired origin
    /// and node-count mismatches are ignored rather than corrupting the
    /// view; a delta that changes nothing — stale, duplicate, or
    /// overtaken by newer ones — reports `applied == false`.
    pub fn merge(&mut self, delta: &StateDelta) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        if delta.origin == self.self_fe
            || delta.loads.len() != self.num_nodes
            || self.retired.contains(&delta.origin)
        {
            return out;
        }
        let st = self.origins.entry(delta.origin).or_default();
        let seq = delta.seq;
        if seq > st.seq {
            st.seq = seq;
            st.loads.clone_from(&delta.loads);
            out.applied = true;
        }
        if delta.full && seq > st.floor {
            // Everything this share speaks for and nothing newer has
            // set: listed targets take its value, the rest are unmapped
            // (and need no entry once the floor covers them).
            let listed: HashMap<TargetId, &[NodeId]> = delta
                .mapping
                .iter()
                .map(|(t, nodes)| (*t, nodes.as_slice()))
                .collect();
            let older: Vec<TargetId> = st
                .mapping
                .iter()
                .filter(|(t, (s, _))| *s < seq && !listed.contains_key(*t))
                .map(|(&t, _)| t)
                .collect();
            for t in older {
                if st.mapping.remove(&t).is_some_and(|(_, n)| !n.is_empty()) {
                    out.removals.push(t);
                }
            }
            for (&t, nodes) in &listed {
                if st.mapping.get(&t).is_none_or(|(s, _)| *s < seq) {
                    st.set(t, seq, nodes, &mut out);
                }
            }
            st.floor = seq;
        } else if !delta.full {
            for (t, nodes) in &delta.mapping {
                if seq > st.mapping.get(t).map_or(st.floor, |(s, _)| *s) {
                    st.set(*t, seq, nodes, &mut out);
                }
            }
        }
        // Deterministic instruction order (HashMap iteration is not).
        out.upserts.sort_by_key(|(t, _)| t.0);
        out.removals.sort_by_key(|t| t.0);
        out.applied |= !out.upserts.is_empty() || !out.removals.is_empty();
        out
    }

    /// Forgets a decommissioned origin for good; the outcome's removals
    /// are its whole adopted share (the ring's new owner will re-assert
    /// whatever is still live), and later deltas from it are ignored.
    pub fn drop_origin(&mut self, fe: FeId) -> MergeOutcome {
        if !self.retired.contains(&fe) {
            self.retired.push(fe);
        }
        match self.origins.remove(&fe) {
            None => MergeOutcome::default(),
            Some(state) => {
                let mut removals: Vec<TargetId> = state
                    .mapping
                    .into_iter()
                    .filter(|(_, (_, nodes))| !nodes.is_empty())
                    .map(|(t, _)| t)
                    .collect();
                removals.sort_by_key(|t| t.0);
                MergeOutcome {
                    applied: true,
                    upserts: Vec::new(),
                    removals,
                }
            }
        }
    }

    /// The summed fixed-point load every *peer* origin reports per
    /// node — the remote bias a host feeds into
    /// [`LoadTracker::set_remote_fixed`](crate::LoadTracker::set_remote_fixed)
    /// so local decisions see tier-wide load.
    pub fn remote_load_fixed(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.num_nodes];
        for state in self.origins.values() {
            for (slot, l) in out.iter_mut().zip(&state.loads) {
                *slot += l;
            }
        }
        out
    }

    /// The highest sequence merged from `fe`, if any.
    pub fn origin_seq(&self, fe: FeId) -> Option<u64> {
        self.origins.get(&fe).map(|s| s.seq)
    }

    /// A canonical (target-ascending) dump of the mapping share adopted
    /// from `fe`, or `None` if no delta from `fe` has ever been merged.
    /// Convergence tests compare these dumps for whole-view equality —
    /// stronger than the load/seq spot-checks.
    pub fn origin_mapping(&self, fe: FeId) -> Option<Vec<(TargetId, Vec<NodeId>)>> {
        self.origins.get(&fe).map(|s| {
            let mut v: Vec<_> = s
                .mapping
                .iter()
                .filter(|(_, (_, n))| !n.is_empty())
                .map(|(&t, (_, n))| (t, n.clone()))
                .collect();
            v.sort_by_key(|(t, _)| t.0);
            v
        })
    }

    /// The per-node loads last merged from `fe`, if any.
    pub fn origin_loads(&self, fe: FeId) -> Option<&[i64]> {
        self.origins.get(&fe).map(|s| s.loads.as_slice())
    }

    /// Number of peer origins currently held.
    pub fn num_origins(&self) -> usize {
        self.origins.len()
    }

    /// The front-end this view belongs to.
    pub fn self_fe(&self) -> FeId {
        self.self_fe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TargetId {
        TargetId(i)
    }

    #[test]
    fn ring_covers_every_target() {
        let ring = Ring::new(3);
        for i in 0..1000 {
            let owner = ring.owner(t(i));
            assert!(ring.contains(owner), "target {i} owned by non-member");
        }
    }

    #[test]
    fn ring_partition_is_reasonably_balanced() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[ring.owner(t(i)).0] += 1;
        }
        for (f, &c) in counts.iter().enumerate() {
            assert!(
                (400..=2000).contains(&c),
                "fe{f} owns {c} of 4000 targets — pathological imbalance"
            );
        }
    }

    #[test]
    fn removal_moves_only_the_removed_members_keys() {
        let mut ring = Ring::new(3);
        let before: Vec<FeId> = (0..2000).map(|i| ring.owner(t(i))).collect();
        ring.remove_fe(FeId(1));
        for i in 0..2000u32 {
            let after = ring.owner(t(i));
            if before[i as usize] != FeId(1) {
                assert_eq!(after, before[i as usize], "unrelated key {i} moved");
            } else {
                assert_ne!(after, FeId(1));
            }
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut ring = Ring::new(2);
        let before: Vec<FeId> = (0..500).map(|i| ring.owner(t(i))).collect();
        ring.add_fe(FeId(7));
        ring.remove_fe(FeId(7));
        let after: Vec<FeId> = (0..500).map(|i| ring.owner(t(i))).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "last front-end")]
    fn cannot_empty_the_ring() {
        let mut ring = Ring::new(1);
        ring.remove_fe(FeId(0));
    }

    /// A delta from `origin` at `seq`, whole share or changes.
    fn delta(origin: usize, seq: u64, full: bool, mapping: &[(u32, &[usize])]) -> StateDelta {
        StateDelta {
            origin: FeId(origin),
            seq,
            full,
            loads: vec![seq as i64, 0],
            mapping: mapping
                .iter()
                .map(|&(x, nodes)| (t(x), nodes.iter().map(|&n| NodeId(n)).collect()))
                .collect(),
        }
    }

    #[test]
    fn delta_roundtrips() {
        for full in [true, false] {
            let d = StateDelta {
                origin: FeId(2),
                seq: 99,
                full,
                loads: vec![1 << 20, -3, 0],
                mapping: vec![(t(5), vec![NodeId(0), NodeId(2)]), (t(9), vec![])],
            };
            let bytes = d.encode();
            assert_eq!(StateDelta::decode(&bytes).unwrap(), d);
            assert_eq!(StateDelta::decode(&bytes[..4]), Err(DeltaError::Truncated));
            let mut extra = bytes.clone();
            extra.push(0);
            assert_eq!(StateDelta::decode(&extra), Err(DeltaError::Malformed));
            let mut flag = bytes.clone();
            flag[12] = 2; // the byte after origin and seq
            assert_eq!(StateDelta::decode(&flag), Err(DeltaError::Malformed));
        }
    }

    #[test]
    fn decode_rejects_out_of_range_node() {
        let d = delta(0, 1, true, &[(1, &[1])]);
        let mut bytes = d.encode();
        // Patch the node index (last two bytes) past num_nodes.
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&7u16.to_le_bytes());
        assert_eq!(StateDelta::decode(&bytes), Err(DeltaError::Malformed));
    }

    #[test]
    fn merge_is_lww_per_origin_and_reports_diffs() {
        let mut view = TierView::new(FeId(0), 2);
        let d1 = delta(1, 1, true, &[(1, &[0]), (2, &[1])]);
        let out = view.merge(&d1);
        assert!(out.applied);
        assert_eq!(out.upserts.len(), 2);
        assert!(out.removals.is_empty());

        // Stale and duplicate deltas are ignored.
        assert!(!view.merge(&d1).applied);

        let d2 = delta(1, 2, true, &[(1, &[0, 1])]);
        let out = view.merge(&d2);
        assert!(out.applied);
        assert_eq!(out.upserts, vec![(t(1), vec![NodeId(0), NodeId(1)])]);
        assert_eq!(out.removals, vec![t(2)]);
        assert_eq!(view.remote_load_fixed(), vec![2, 0]);

        // Out-of-order redelivery of the older delta changes nothing.
        assert!(!view.merge(&d1).applied);
        assert_eq!(view.origin_seq(FeId(1)), Some(2));
    }

    #[test]
    fn changes_patch_the_share_they_follow() {
        let mut view = TierView::new(FeId(0), 2);
        view.merge(&delta(1, 1, true, &[(1, &[0]), (2, &[1])]));
        // A change delta touches only what it lists.
        let out = view.merge(&delta(1, 2, false, &[(2, &[]), (3, &[0])]));
        assert_eq!(out.upserts, vec![(t(3), vec![NodeId(0)])]);
        assert_eq!(out.removals, vec![t(2)]);
        assert_eq!(
            view.origin_mapping(FeId(1)).unwrap(),
            vec![(t(1), vec![NodeId(0)]), (t(3), vec![NodeId(0)])]
        );
        // A round with nothing changed still refreshes the loads.
        let out = view.merge(&delta(1, 3, false, &[]));
        assert!(out.applied && out.upserts.is_empty() && out.removals.is_empty());
        assert_eq!(view.origin_loads(FeId(1)), Some(&[3, 0][..]));
        assert!(!view.merge(&delta(1, 3, false, &[])).applied);
    }

    #[test]
    fn late_deltas_cannot_undo_newer_ones() {
        let mut view = TierView::new(FeId(0), 2);
        // Seq 3 unmaps target 1 and arrives before seq 2, which mapped
        // it: the tombstone keeps it unmapped.
        view.merge(&delta(1, 1, true, &[(1, &[0])]));
        view.merge(&delta(1, 3, false, &[(1, &[])]));
        let out = view.merge(&delta(1, 2, false, &[(1, &[1]), (4, &[1])]));
        assert_eq!(out.upserts, vec![(t(4), vec![NodeId(1)])]);
        assert!(out.removals.is_empty());
        // A whole share older than a change keeps the change.
        let out = view.merge(&delta(1, 5, false, &[(7, &[0])]));
        assert_eq!(out.upserts, vec![(t(7), vec![NodeId(0)])]);
        let out = view.merge(&delta(1, 4, true, &[(4, &[0])]));
        assert_eq!(out.upserts, vec![(t(4), vec![NodeId(0)])]);
        assert!(out.removals.is_empty(), "{out:?}");
        assert_eq!(
            view.origin_mapping(FeId(1)).unwrap(),
            vec![(t(4), vec![NodeId(0)]), (t(7), vec![NodeId(0)])]
        );
        assert_eq!(view.origin_seq(FeId(1)), Some(5));
        assert_eq!(view.origin_loads(FeId(1)), Some(&[5, 0][..]));
        // A whole share newer than everything replaces everything.
        let out = view.merge(&delta(1, 6, true, &[(9, &[1])]));
        assert_eq!(out.upserts, vec![(t(9), vec![NodeId(1)])]);
        assert_eq!(out.removals, vec![t(4), t(7)]);
        assert_eq!(
            view.origins[&FeId(1)].mapping.len(),
            1,
            "stale entries kept"
        );
    }

    #[test]
    fn merge_ignores_self_and_mismatched_node_counts() {
        let mut view = TierView::new(FeId(0), 2);
        assert!(!view.merge(&delta(0, 5, true, &[])).applied);
        let mut bad = delta(1, 1, true, &[]);
        bad.loads = vec![0; 3];
        assert!(!view.merge(&bad).applied);
        assert_eq!(view.num_origins(), 0);
    }

    #[test]
    fn drop_origin_removes_its_whole_share() {
        let mut view = TierView::new(FeId(0), 2);
        view.merge(&delta(1, 1, true, &[(3, &[0]), (4, &[1])]));
        view.merge(&delta(1, 2, false, &[(5, &[])]));
        let out = view.drop_origin(FeId(1));
        assert!(out.applied);
        assert_eq!(out.removals, vec![t(3), t(4)]);
        assert_eq!(view.remote_load_fixed(), vec![0, 0]);
        assert!(!view.drop_origin(FeId(1)).applied);
        // A delta it sent before it was dropped is still on the wire.
        assert!(!view.merge(&delta(1, 3, false, &[(6, &[0])])).applied);
        assert_eq!(view.num_origins(), 0);
    }

    #[test]
    fn snapshot_projection_filters_by_ownership() {
        let ring = Ring::new(2);
        let d = crate::ConcurrentDispatcher::new(
            crate::PolicyKind::ExtLard,
            crate::ForwardSemantics::LateralFetch,
            2,
            crate::LardParams::default(),
        );
        for i in 0..200 {
            d.mapping().write(t(i), |m| m.add_replica(t(i), NodeId(0)));
        }
        let d0 = d.gossip_delta(FeId(0), 1, true, &ring);
        let d1 = d.gossip_delta(FeId(1), 1, true, &ring);
        assert_eq!(d0.mapping.len() + d1.mapping.len(), 200);
        assert!(d0.mapping.iter().all(|(x, _)| ring.owner(*x) == FeId(0)));
        assert!(d1.mapping.iter().all(|(x, _)| ring.owner(*x) == FeId(1)));
        assert_eq!(d0.loads, vec![0, 0]);
    }
}
