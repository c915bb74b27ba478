//! Property-based tests for the policy layer.
//!
//! The central property is the paper's own observation: "the extended LARD
//! policy is equivalent to LARD for HTTP/1.0 requests" — on workloads where
//! every connection carries exactly one request, the two dispatchers must
//! make identical choices.

use proptest::prelude::*;

use phttp_core::{
    Assignment, ConcurrentDispatcher, ConnId, ForwardSemantics, LardParams, PolicyKind,
};
use phttp_trace::TargetId;

/// A scripted workload step.
#[derive(Debug, Clone)]
enum Step {
    /// Open a connection for a target (HTTP/1.0: one request per conn).
    Open(u32),
    /// Close the oldest still-open connection.
    CloseOldest,
}

/// A scripted step for the health-gating property: workload ops
/// interleaved with breaker churn.
#[derive(Debug, Clone)]
enum HealthStep {
    /// Open a connection for a target.
    Open(u32),
    /// Assign one request on the most recent connection.
    Request(u32),
    /// Close the oldest still-open connection.
    CloseOldest,
    /// Force a node's breaker Open (failure-detector verdict).
    Trip(usize),
    /// Evict + warm-rejoin a node (resets its breaker to Closed).
    Rejoin(usize),
    /// Advance every Open cooldown by one tick.
    Tick,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![(0u32..30).prop_map(Step::Open), Just(Step::CloseOldest),],
        1..300,
    )
}

proptest! {
    /// Extended LARD and basic LARD agree on pure HTTP/1.0 workloads.
    #[test]
    fn ext_lard_equals_lard_on_http10(steps in arb_steps(), nodes in 1usize..8) {
        let params = LardParams::default();
        let lard = ConcurrentDispatcher::new(
            PolicyKind::Lard, ForwardSemantics::LateralFetch, nodes, params,
        );
        let ext = ConcurrentDispatcher::new(
            PolicyKind::ExtLard, ForwardSemantics::LateralFetch, nodes, params,
        );
        let mut open: std::collections::VecDeque<ConnId> = Default::default();
        let mut next = 0u64;
        for step in steps {
            match step {
                Step::Open(t) => {
                    let id = ConnId(next);
                    next += 1;
                    let a = lard.open_connection(id, TargetId(t));
                    let b = ext.open_connection(id, TargetId(t));
                    prop_assert_eq!(a, b, "divergent choice for {}", TargetId(t));
                    open.push_back(id);
                }
                Step::CloseOldest => {
                    if let Some(id) = open.pop_front() {
                        lard.close_connection(id);
                        ext.close_connection(id);
                    }
                }
            }
        }
        // Loads agree throughout (spot-check at the end).
        for i in 0..nodes {
            prop_assert!((lard.loads()[i] - ext.loads()[i]).abs() < 1e-9);
        }
    }

    /// Load conservation: after closing everything, all loads return to ~0,
    /// for every policy and semantics, including P-HTTP batches.
    #[test]
    fn loads_return_to_zero(
        conns in proptest::collection::vec(
            (0u32..20, proptest::collection::vec(proptest::collection::vec(0u32..20, 1..4), 0..3)),
            1..40,
        ),
        policy_idx in 0usize..3,
        migrate in any::<bool>(),
        disk_busy in any::<bool>(),
    ) {
        let policy = [PolicyKind::Wrr, PolicyKind::Lard, PolicyKind::ExtLard][policy_idx];
        let semantics = if migrate { ForwardSemantics::Migrate } else { ForwardSemantics::LateralFetch };
        let d = ConcurrentDispatcher::new(policy, semantics, 4, LardParams::default());
        if disk_busy {
            for i in 0..4 {
                d.report_disk_queue(phttp_core::NodeId(i), 99);
            }
        }
        for (cid, (first, batches)) in conns.iter().enumerate() {
            let id = ConnId(cid as u64);
            d.open_connection(id, TargetId(*first));
            for batch in batches {
                d.begin_batch(id, batch.len());
                for &t in batch {
                    let _ = d.assign_request(id, TargetId(t));
                }
            }
        }
        for cid in 0..conns.len() {
            d.close_connection(ConnId(cid as u64));
        }
        for l in d.loads() {
            prop_assert!(l.abs() < 1e-6, "residual load {l}");
        }
        prop_assert_eq!(d.active_connections(), 0);
    }

    /// The dispatcher is deterministic: identical inputs give identical outputs.
    #[test]
    fn dispatcher_is_deterministic(steps in arb_steps(), nodes in 1usize..6) {
        let run = || {
            let d = ConcurrentDispatcher::new(
                PolicyKind::ExtLard,
                ForwardSemantics::LateralFetch,
                nodes,
                LardParams::default(),
            );
            let mut out = Vec::new();
            let mut open: std::collections::VecDeque<ConnId> = Default::default();
            let mut next = 0u64;
            for step in &steps {
                match step {
                    Step::Open(t) => {
                        let id = ConnId(next);
                        next += 1;
                        out.push(d.open_connection(id, TargetId(*t)).0);
                        open.push_back(id);
                    }
                    Step::CloseOldest => {
                        if let Some(id) = open.pop_front() {
                            d.close_connection(id);
                        }
                    }
                }
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    /// Extended LARD never forwards to a node that the mapping does not list
    /// for the target (the paper's candidate restriction), and never
    /// "forwards" to the connection node itself.
    #[test]
    fn ext_lard_forwards_only_to_caching_nodes(
        reqs in proptest::collection::vec((0u32..15, 1usize..4), 1..60),
        depths in proptest::collection::vec(0usize..60, 4),
    ) {
        let d = ConcurrentDispatcher::new(
            PolicyKind::ExtLard,
            ForwardSemantics::LateralFetch,
            4,
            LardParams::default(),
        );
        for (i, &depth) in depths.iter().enumerate() {
            d.report_disk_queue(phttp_core::NodeId(i), depth);
        }
        let conn = ConnId(0);
        let conn_node = d.open_connection(conn, TargetId(0));
        for (i, &(t, n)) in reqs.iter().enumerate() {
            d.begin_batch(conn, n);
            // Snapshot mapping before the decision (the decision may add
            // replicas for the local-caching rule).
            let candidates: Vec<_> = d.mapping().nodes(TargetId(t)).to_vec();
            match d.assign_request(conn, TargetId(t)) {
                Assignment::Local => {}
                Assignment::Remote(r) => {
                    prop_assert_ne!(r, conn_node, "step {}", i);
                    prop_assert!(
                        candidates.contains(&r),
                        "forwarded to non-caching node {:?}, candidates {:?}",
                        r, candidates
                    );
                }
            }
        }
    }

    /// Under arbitrary breaker churn (trips, resets, cooldown ticks), no
    /// decision ever routes traffic to an `Open` node — with the one
    /// documented exception: when *every* node refuses admission the
    /// dispatcher fails open and keeps the policy's pick.
    #[test]
    fn no_assignment_ever_routes_to_an_open_node(
        steps in proptest::collection::vec(
            prop_oneof![
                (0u32..20).prop_map(HealthStep::Open),
                Just(HealthStep::CloseOldest),
                (0usize..4).prop_map(HealthStep::Trip),
                (0usize..4).prop_map(HealthStep::Rejoin),
                Just(HealthStep::Tick),
                (0u32..20).prop_map(HealthStep::Request),
            ],
            1..200,
        ),
        policy_idx in 0usize..3,
        disk_busy in any::<bool>(),
    ) {
        use phttp_core::{HealthState, NodeId};
        let policy = [PolicyKind::Wrr, PolicyKind::Lard, PolicyKind::ExtLard][policy_idx];
        let nodes = 4usize;
        let d = ConcurrentDispatcher::new(policy, ForwardSemantics::LateralFetch, nodes, LardParams::default());
        if disk_busy {
            for i in 0..nodes {
                d.report_disk_queue(NodeId(i), 99);
            }
        }
        let mut open: std::collections::VecDeque<ConnId> = Default::default();
        let mut next = 0u64;
        for (i, step) in steps.iter().enumerate() {
            match step {
                HealthStep::Open(t) => {
                    let id = ConnId(next);
                    next += 1;
                    let node = d.open_connection(id, TargetId(*t));
                    open.push_back(id);
                    let all_refuse = (0..nodes).all(|n| !d.health().permitted(NodeId(n)));
                    prop_assert!(
                        d.health().state(node) != HealthState::Open || all_refuse,
                        "step {i}: connection landed on Open node {node:?}"
                    );
                }
                HealthStep::Request(t) => {
                    if let Some(&id) = open.back() {
                        d.begin_batch(id, 1);
                        if let Assignment::Remote(r) = d.assign_request(id, TargetId(*t)) {
                            // Remote gating has no fail-open: it degrades
                            // to Local instead, so Open is never allowed.
                            prop_assert_ne!(
                                d.health().state(r),
                                HealthState::Open,
                                "step {}: forwarded to Open node",
                                i
                            );
                        }
                    }
                }
                HealthStep::CloseOldest => {
                    if let Some(id) = open.pop_front() {
                        d.close_connection(id);
                    }
                }
                HealthStep::Trip(n) => d.health().force_open(NodeId(*n)),
                HealthStep::Rejoin(n) => {
                    let n = NodeId(*n);
                    d.evict_node(n);
                    d.warm_up(n, &[]);
                }
                HealthStep::Tick => d.health().tick_all(),
            }
        }
    }

    /// A HalfOpen breaker admits exactly the probation quota, for any
    /// quota and any (longer) burst of admission attempts, and fresh
    /// episodes refill the quota exactly.
    #[test]
    fn half_open_admits_exactly_the_probation_quota(
        probation in 1u32..12,
        attempts in 0usize..40,
        episodes in 1usize..4,
    ) {
        use phttp_core::{HealthConfig, HealthGate, HealthState, NodeId};
        let cfg = HealthConfig { probation, cooldown_ticks: 1, ..HealthConfig::default() };
        let g = HealthGate::new(1, cfg);
        let n = NodeId(0);
        for _ in 0..episodes {
            g.force_open(n);
            prop_assert!(!g.try_admit(n), "Open must refuse everything");
            g.tick(n);
            prop_assert_eq!(g.state(n), HealthState::HalfOpen);
            let admitted = (0..attempts).filter(|_| g.try_admit(n)).count();
            prop_assert_eq!(
                admitted,
                attempts.min(probation as usize),
                "probation {} attempts {}", probation, attempts
            );
        }
    }

    /// WRR keeps loads balanced within one connection of each other when no
    /// connections close.
    #[test]
    fn wrr_imbalance_is_bounded(targets in proptest::collection::vec(0u32..50, 1..200), nodes in 1usize..8) {
        let d = ConcurrentDispatcher::new(
            PolicyKind::Wrr, ForwardSemantics::LateralFetch, nodes, LardParams::default(),
        );
        for (i, &t) in targets.iter().enumerate() {
            d.open_connection(ConnId(i as u64), TargetId(t));
        }
        let max = d.loads().iter().cloned().fold(f64::MIN, f64::max);
        let min = d.loads().iter().cloned().fold(f64::MAX, f64::min);
        prop_assert!(max - min <= 1.0 + 1e-9, "imbalance {} on {} nodes", max - min, nodes);
    }
}
