//! Property tests for the front-end tier layer: consistent-hash ring
//! rebalancing bounds, commutativity of the state merge, and that
//! gossiping only what changed converges to exactly the owner's share.

use phttp_core::tier::{Ring, StateDelta, TierView};
use phttp_core::{ConcurrentDispatcher, FeId, ForwardSemantics, LardParams, NodeId, PolicyKind};
use phttp_trace::TargetId;
use proptest::prelude::*;

fn owners(ring: &Ring, targets: u32) -> Vec<FeId> {
    (0..targets).map(|i| ring.owner(TargetId(i))).collect()
}

/// A Fisher–Yates permutation of `0..n` driven by `seed` (splitmix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    /// Every target always has an owner, and that owner is a member —
    /// through arbitrary add/remove churn.
    #[test]
    fn no_target_is_ever_unowned(
        initial in 1usize..6,
        ops in proptest::collection::vec((0usize..8, proptest::strategy::any::<bool>()), 0..12),
        probe in proptest::collection::vec(0u32..10_000, 1..50),
    ) {
        let mut ring = Ring::new(initial);
        for (fe, add) in ops {
            if add {
                ring.add_fe(FeId(fe));
            } else if ring.len() > 1 {
                ring.remove_fe(FeId(fe));
            }
            for &t in &probe {
                let owner = ring.owner(TargetId(t));
                prop_assert!(
                    ring.contains(owner),
                    "target {t} owned by non-member {owner}"
                );
            }
        }
    }

    /// Removing one front-end moves exactly the keys it owned — every
    /// other key keeps its owner (bounded movement), and the moved keys
    /// land on surviving members.
    #[test]
    fn removal_moves_only_the_removed_share(
        members in 2usize..6,
        victim in 0usize..6,
        targets in 64u32..512,
    ) {
        prop_assume!(victim < members);
        let mut ring = Ring::new(members);
        let before = owners(&ring, targets);
        ring.remove_fe(FeId(victim));
        let after = owners(&ring, targets);
        for (t, (b, a)) in before.iter().zip(&after).enumerate() {
            if *b == FeId(victim) {
                prop_assert!(ring.contains(*a), "moved key {t} landed off-ring");
                prop_assert!(*a != FeId(victim));
            } else {
                prop_assert_eq!(*a, *b, "unowned-by-victim key {} moved", t);
            }
        }
    }

    /// Adding one front-end only moves keys *to* the newcomer: if a
    /// key's owner changed at all, the new owner is the added member.
    #[test]
    fn addition_moves_keys_only_to_the_newcomer(
        members in 1usize..6,
        newcomer in 6usize..10,
        targets in 64u32..512,
    ) {
        let mut ring = Ring::new(members);
        let before = owners(&ring, targets);
        ring.add_fe(FeId(newcomer));
        let after = owners(&ring, targets);
        for (t, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                a == b || *a == FeId(newcomer),
                "key {} moved between pre-existing members ({} -> {})", t, b, a
            );
        }
    }

    /// The tier merge converges to the same *whole view* regardless of
    /// delivery order, duplication, or re-delivery of stale deltas from
    /// any mix of origins and any mix of whole shares and changes
    /// (commutative + idempotent LWW per target). Equality is asserted
    /// on the canonical per-origin mapping dumps, loads, and sequences —
    /// not just summary gauges.
    #[test]
    fn merge_is_order_independent(
        seqs in proptest::collection::vec((1usize..5, 1u64..8), 1..24),
        shuffle_seed in proptest::strategy::any::<u64>(),
        dups in proptest::collection::vec(0usize..24, 0..12),
    ) {
        // Build deltas whose payload is a pure function of
        // (origin, seq): a given origin's writer never publishes two
        // different states under one sequence number, which is exactly
        // the per-origin monotonicity the gossip protocol guarantees.
        // Payloads vary in size, overlap across sequences (so LWW must
        // actually replace), mix whole shares with changes, and include
        // an empty node set (unmapped) to exercise the removal path.
        let deltas: Vec<StateDelta> = seqs
            .iter()
            .map(|&(origin, seq)| {
                let base = (origin as u32) * 64 + seq as u32;
                let mut mapping = vec![
                    (TargetId(base), vec![NodeId((base % 2) as usize)]),
                    (TargetId(origin as u32), vec![NodeId((seq % 2) as usize), NodeId(0)]),
                ];
                if seq % 2 == 0 {
                    mapping.push((TargetId(base + 1), vec![NodeId(1)]));
                    mapping.push((TargetId(base - 1), vec![]));
                }
                StateDelta {
                    origin: FeId(origin),
                    seq,
                    full: seq % 3 == 1,
                    loads: vec![seq as i64, origin as i64],
                    mapping,
                }
            })
            .collect();

        let mut a = TierView::new(FeId(0), 2);
        for d in &deltas {
            a.merge(d);
        }

        // A permutation from the proptest-chosen seed, plus arbitrary
        // re-deliveries sprinkled in afterwards.
        let mut b = TierView::new(FeId(0), 2);
        for i in shuffled(deltas.len(), shuffle_seed) {
            b.merge(&deltas[i]);
        }
        for &d in &dups {
            b.merge(&deltas[d % deltas.len()]);
        }

        prop_assert_eq!(a.remote_load_fixed(), b.remote_load_fixed());
        prop_assert_eq!(a.num_origins(), b.num_origins());
        for o in 1..5 {
            let fe = FeId(o);
            prop_assert_eq!(a.origin_seq(fe), b.origin_seq(fe));
            prop_assert_eq!(a.origin_loads(fe), b.origin_loads(fe), "loads diverge at {}", fe);
            prop_assert_eq!(
                a.origin_mapping(fe),
                b.origin_mapping(fe),
                "adopted mapping diverges at {}", fe
            );
        }
    }

    /// Gossip from the change journal loses nothing: a dispatcher whose
    /// mapping churns arbitrarily publishes a whole share, then only
    /// changes (with an occasional whole share again), and a peer that
    /// receives those deltas in any order, with duplicates, ends up
    /// holding exactly the publisher's owned share — what a whole share
    /// every round would have told it, at the cost of the changes.
    #[test]
    fn journal_gossip_converges_to_the_owners_share(
        ops in proptest::collection::vec((0u8..6, 0u32..24, 0usize..3), 1..60),
        publish_every in 1usize..6,
        shuffle_seed in proptest::strategy::any::<u64>(),
        dups in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let ring = Ring::new(2);
        let origin = FeId(0);
        let d = ConcurrentDispatcher::new(
            PolicyKind::ExtLard,
            ForwardSemantics::LateralFetch,
            3,
            LardParams::default(),
        );
        let mut deltas = vec![d.gossip_delta(origin, 1, true, &ring)];
        for (i, &(kind, target, node)) in ops.iter().enumerate() {
            let (t, n) = (TargetId(target), NodeId(node));
            match kind {
                0 => d.mapping().write(t, |m| m.add_replica(t, n)),
                1 => d.mapping().write(t, |m| m.assign_exclusive(t, n)),
                2 => d.mapping().write(t, |m| m.remove_replica(t, n)),
                3 => d.mapping().write(t, |m| m.set_nodes(t, &[n, NodeId(0)])),
                4 => d.mapping().write(t, |m| m.set_nodes(t, &[])),
                _ => d.mapping().evict_node(n),
            }
            if i % publish_every == 0 {
                let seq = deltas.len() as u64 + 1;
                // Every seventh round is a whole share again (a resync).
                deltas.push(d.gossip_delta(origin, seq, seq.is_multiple_of(7), &ring));
            }
        }
        let seq = deltas.len() as u64 + 1;
        deltas.push(d.gossip_delta(origin, seq, false, &ring));

        let mut truth: Vec<(TargetId, Vec<NodeId>)> = Vec::new();
        for x in 0..24 {
            let t = TargetId(x);
            let nodes = d.mapping().nodes(t);
            if ring.owner(t) == origin && !nodes.is_empty() {
                truth.push((t, nodes));
            }
        }

        let mut in_order = TierView::new(FeId(1), 3);
        for delta in &deltas {
            in_order.merge(delta);
        }
        let mut shuffled_view = TierView::new(FeId(1), 3);
        for i in shuffled(deltas.len(), shuffle_seed) {
            shuffled_view.merge(&deltas[i]);
        }
        for &i in &dups {
            shuffled_view.merge(&deltas[i % deltas.len()]);
        }
        prop_assert_eq!(in_order.origin_mapping(origin), Some(truth.clone()));
        prop_assert_eq!(shuffled_view.origin_mapping(origin), Some(truth));
        prop_assert_eq!(in_order.origin_seq(origin), Some(seq));
        prop_assert_eq!(shuffled_view.origin_seq(origin), Some(seq));
    }
}
