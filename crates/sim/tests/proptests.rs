//! Property-based tests of the simulator over randomized workloads and
//! configurations: conservation, determinism, and metric sanity must hold
//! for *every* input, not just the paper's.

use proptest::prelude::*;

use phttp_sim::{build_workload, ChurnAction, ChurnEvent, SimConfig, Simulator};
use phttp_simcore::{SimDuration, SimTime};
use phttp_trace::{ClientId, Request, SessionConfig, TargetId, Trace};

/// Strategy: a small random trace (corpus of 12 targets, up to 120 requests).
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec((0u64..30_000_000, 0u32..8, 0u32..12), 1..120),
        proptest::collection::vec(100u64..200_000, 12),
    )
        .prop_map(|(reqs, sizes)| {
            let requests = reqs
                .into_iter()
                .map(|(t, c, g)| Request {
                    time: SimTime::from_micros(t),
                    client: ClientId(c),
                    target: TargetId(g),
                })
                .collect();
            Trace::new(requests, sizes)
        })
}

fn arb_label() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("WRR"),
        Just("WRR-PHTTP"),
        Just("simple-LARD"),
        Just("simple-LARD-PHTTP"),
        Just("multiHandoff-extLARD-PHTTP"),
        Just("BEforward-extLARD-PHTTP"),
        Just("zeroCost-extLARD-PHTTP"),
        Just("relay-LARD-PHTTP"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every admitted request completes exactly once, for every mechanism,
    /// policy, cluster size, and workload.
    #[test]
    fn conservation(trace in arb_trace(), label in arb_label(), nodes in 1usize..6) {
        let mut cfg = SimConfig::paper_config(label, nodes);
        cfg.cache_bytes = 256 * 1024;
        let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
        let r = Simulator::new(cfg, &trace, &workload).run();
        prop_assert_eq!(r.requests, trace.len() as u64, "{}", label);
        // Per-node serving counts add up to the total.
        let served: u64 = r.per_node.iter().map(|n| n.requests).sum();
        prop_assert_eq!(served, r.requests);
        // Bytes delivered equal the trace's response bytes.
        prop_assert_eq!(r.bytes_delivered, trace.total_response_bytes());
    }

    /// Reports are internally consistent: rates, utilizations and hit rates
    /// stay in range whatever the input.
    #[test]
    fn metric_sanity(trace in arb_trace(), label in arb_label(), nodes in 1usize..5) {
        let mut cfg = SimConfig::paper_config(label, nodes);
        cfg.cache_bytes = 256 * 1024;
        let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
        let r = Simulator::new(cfg, &trace, &workload).run();
        prop_assert!((0.0..=1.0).contains(&r.cache_hit_rate));
        prop_assert!((0.0..=1.0).contains(&r.fe_utilization));
        prop_assert!(r.throughput_rps >= 0.0);
        prop_assert!(r.mean_latency_ms >= 0.0);
        for n in &r.per_node {
            prop_assert!((0.0..=1.0).contains(&n.cpu_utilization));
            prop_assert!((0.0..=1.0).contains(&n.disk_utilization));
            prop_assert!(n.cache_hits <= n.requests);
        }
        // Mechanism exclusivity: forwarding and migration never both occur.
        prop_assert!(r.forwarded_requests == 0 || r.migrations == 0);
    }

    /// Bit-for-bit determinism over arbitrary inputs.
    #[test]
    fn determinism(trace in arb_trace(), label in arb_label(), nodes in 1usize..4) {
        let run = || {
            let mut cfg = SimConfig::paper_config(label, nodes);
            cfg.cache_bytes = 256 * 1024;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            Simulator::new(cfg, &trace, &workload).run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.finished_at, b.finished_at);
        prop_assert_eq!(a.forwarded_requests, b.forwarded_requests);
        prop_assert_eq!(a.migrations, b.migrations);
        prop_assert_eq!(a.bytes_delivered, b.bytes_delivered);
    }

    /// Single handoff mechanisms never move requests: all work is served at
    /// connection-handling nodes.
    #[test]
    fn connection_granularity_policies_never_move(trace in arb_trace(), nodes in 1usize..5) {
        for label in ["WRR-PHTTP", "simple-LARD-PHTTP"] {
            let mut cfg = SimConfig::paper_config(label, nodes);
            cfg.cache_bytes = 256 * 1024;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            let r = Simulator::new(cfg, &trace, &workload).run();
            prop_assert_eq!(r.forwarded_requests, 0);
            prop_assert_eq!(r.migrations, 0);
        }
    }

    /// With one node there is nowhere to move anything, for any mechanism.
    #[test]
    fn single_node_never_moves(trace in arb_trace(), label in arb_label()) {
        let mut cfg = SimConfig::paper_config(label, 1);
        cfg.cache_bytes = 256 * 1024;
        let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
        let r = Simulator::new(cfg, &trace, &workload).run();
        prop_assert_eq!(r.forwarded_requests + r.migrations, 0);
    }

    /// Delayed-hits accounting identity, for every mechanism, policy and
    /// workload (evictions included): each request is exactly one of a
    /// cache hit, a delayed hit (parked on an in-flight fetch), or a
    /// fetch. Without coalescing, delayed hits are identically zero.
    #[test]
    fn coalescing_accounting_identity(trace in arb_trace(), label in arb_label(), nodes in 1usize..5) {
        for coalesce in [false, true] {
            let mut cfg = SimConfig::paper_config(label, nodes);
            cfg.cache_bytes = 256 * 1024;
            cfg.coalesce_misses = coalesce;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            let r = Simulator::new(cfg, &trace, &workload).run();
            let hits: u64 = r.per_node.iter().map(|n| n.cache_hits).sum();
            prop_assert_eq!(
                hits + r.delayed_hits + r.disk_fetches,
                r.requests,
                "{}: hit/delayed-hit/fetch must partition the requests",
                label
            );
            if !coalesce {
                prop_assert_eq!(r.delayed_hits, 0);
            }
        }
    }

    /// On an eviction-free single node, coalescing is exactly "the
    /// uncoalesced run with redundant fetches de-duplicated": every
    /// distinct target is fetched once, every other miss becomes a delayed
    /// hit, and de-duplication can only shrink the aggregate miss delay.
    #[test]
    fn coalescing_dedupes_redundant_fetches(trace in arb_trace(), phttp in any::<bool>()) {
        let label = if phttp { "WRR-PHTTP" } else { "WRR" };
        let run = |coalesce: bool| {
            let mut cfg = SimConfig::paper_config(label, 1);
            cfg.cache_bytes = u64::MAX; // eviction-free: corpus always fits
            cfg.coalesce_misses = coalesce;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            Simulator::new(cfg, &trace, &workload).run()
        };
        let off = run(false);
        let on = run(true);
        let distinct = {
            let mut seen = std::collections::HashSet::new();
            for r in trace.requests() {
                seen.insert(r.target);
            }
            seen.len() as u64
        };
        prop_assert_eq!(on.disk_fetches, distinct, "one fetch per distinct target");
        prop_assert!(off.disk_fetches >= distinct);
        let off_hits: u64 = off.per_node.iter().map(|n| n.cache_hits).sum();
        prop_assert_eq!(
            off.disk_fetches - distinct,
            off.requests - off_hits - distinct,
            "uncoalesced redundant fetches are exactly its non-first misses"
        );
        prop_assert!(
            on.agg_miss_delay_ms <= off.agg_miss_delay_ms + 1e-9,
            "de-duplication must not increase aggregate miss delay ({} > {})",
            on.agg_miss_delay_ms,
            off.agg_miss_delay_ms
        );
    }

    /// Request conservation survives arbitrary membership churn: random
    /// schedules of kills and warm/cold rejoins (including nonsense like
    /// double kills and joins of never-killed nodes) must never lose or
    /// duplicate a request, and churned runs stay deterministic.
    #[test]
    fn churn_conserves_requests(
        trace in arb_trace(),
        label in arb_label(),
        nodes in 2usize..5,
        schedule in proptest::collection::vec(
            (0u64..3_000, 0usize..4, 0u8..3),
            0..6,
        ),
    ) {
        let churn: Vec<ChurnEvent> = schedule
            .iter()
            .map(|&(at_ms, node, kind)| ChurnEvent {
                at: SimDuration::from_millis(at_ms),
                action: match kind {
                    0 => ChurnAction::Kill(node % nodes),
                    1 => ChurnAction::JoinWarm(node % nodes),
                    _ => ChurnAction::JoinCold(node % nodes),
                },
            })
            .collect();
        let run = || {
            let mut cfg = SimConfig::paper_config(label, nodes)
                .with_churn(churn.clone());
            cfg.cache_bytes = 256 * 1024;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            Simulator::new(cfg, &trace, &workload).run()
        };
        let a = run();
        prop_assert_eq!(a.requests, trace.len() as u64, "{}", label);
        let served: u64 = a.per_node.iter().map(|n| n.requests).sum();
        prop_assert_eq!(served, a.requests);
        prop_assert_eq!(a.bytes_delivered, trace.total_response_bytes());
        let b = run();
        prop_assert_eq!(a.finished_at, b.finished_at);
        prop_assert_eq!(a.disk_fetches, b.disk_fetches);
    }

    /// GreedyDual is a drop-in policy: conservation and accounting hold, and
    /// runs stay bit-for-bit deterministic.
    #[test]
    fn greedy_dual_conserves_and_is_deterministic(trace in arb_trace(), label in arb_label(), nodes in 1usize..4) {
        let run = || {
            let mut cfg = SimConfig::paper_config(label, nodes)
                .with_coalescing()
                .with_eviction(phttp_sim::EvictPolicy::GreedyDual);
            cfg.cache_bytes = 256 * 1024;
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            Simulator::new(cfg, &trace, &workload).run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.requests, trace.len() as u64);
        prop_assert_eq!(a.bytes_delivered, trace.total_response_bytes());
        prop_assert_eq!(a.finished_at, b.finished_at);
        prop_assert_eq!(a.disk_fetches, b.disk_fetches);
        prop_assert_eq!(a.delayed_hits, b.delayed_hits);
    }
}
