//! Sim-vs-proto differential for cache-coherent mapping feedback.
//!
//! Both implementations of the feedback loop — the simulator's
//! event-driven reports and the prototype's real framed control sessions
//! — must agree on the observable contract:
//!
//! * with feedback **on** and the trace quiescent, the dispatcher's
//!   divergence gauge converges to 0, and the belief is a subset of the
//!   nodes' *actual* cache contents (true divergence 0);
//! * with feedback **off**, eviction churn leaves the only-grows belief
//!   genuinely diverged from the caches.
//!
//! The contract is about journalled victims, not about which entry the
//! cache picks, so the convergence half runs under both eviction
//! policies — the default GreedyDual and the strict-LRU baseline — and
//! with the prototype's admission gate turning reads away, each of which
//! must reach the mirror as an eviction.

use std::time::{Duration, Instant};

use phttp_core::PolicyKind;
use phttp_proto::{
    run_load, ClientProtocol, Cluster, DiskEmu, EvictPolicy, LoadConfig, ProtoConfig,
};
use phttp_sim::{build_workload, SimConfig, Simulator};
use phttp_simcore::SimDuration;
use phttp_trace::{generate, reconstruct, SessionConfig, SynthConfig};

fn churn_trace() -> phttp_trace::Trace {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 500;
    synth.num_pages = 120;
    generate(&synth)
}

fn proto_config(feedback: bool, cache_policy: EvictPolicy) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        // Big enough for the largest document (256 KiB cap), far below
        // the trace's working set: eviction churn guaranteed.
        cache_bytes: 384 * 1024,
        disk: DiskEmu {
            seek: Duration::from_micros(300),
            bytes_per_sec: 200.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(5),
        cache_feedback: feedback,
        cache_policy,
        feedback_interval: Duration::from_millis(2),
        ..ProtoConfig::default()
    }
}

/// Believed `(target, node)` pairs whose target the node's cache does
/// not actually hold right now — divergence measured against ground
/// truth rather than the dispatcher's mirror.
fn true_divergence(cluster: &Cluster) -> u64 {
    let fe = cluster.frontend();
    let mut diverged = 0;
    fe.mapping().for_each_pair(|target, node| {
        if !fe.nodes()[node.0].cache.lock().lru.contains(target) {
            diverged += 1;
        }
    });
    diverged
}

/// Drives the full P-HTTP workload through a live cluster and returns it
/// quiesced (all connections unwound) but not yet shut down.
fn run_traffic(cluster: &Cluster, trace: &phttp_trace::Trace) {
    let workload = reconstruct(trace, SessionConfig::default());
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 8,
            protocol: ClientProtocol::PHttp,
            ..Default::default()
        },
    );
    assert_eq!(report.errors, 0, "load generator errors");
    assert_eq!(report.requests as usize, trace.len());
    assert!(cluster.quiesce(Duration::from_secs(5)), "quiesce timed out");
}

#[test]
fn divergence_converges_to_zero_in_sim_and_proto() {
    for policy in [EvictPolicy::GreedyDual, EvictPolicy::Lru] {
        divergence_converges_to_zero_under(policy);
    }
}

fn divergence_converges_to_zero_under(policy: EvictPolicy) {
    let trace = churn_trace();

    // --- Simulator half: deterministic, flushes at end of run.
    let mut cfg = SimConfig::paper_config("BEforward-extLARD-PHTTP", 3)
        .with_feedback(SimDuration::from_millis(100))
        .with_eviction(policy);
    cfg.cache_bytes = 384 * 1024;
    let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
    let sim = Simulator::new(cfg, &trace, &workload).run();
    assert_eq!(
        sim.mapping_divergence, 0,
        "sim/{policy:?}: divergence must reach 0"
    );
    assert!(
        sim.stale_mappings_removed > 0,
        "sim/{policy:?}: churn must shed beliefs"
    );
    assert!(sim.believed_pairs > 0);

    // --- Prototype half: real control sessions.
    let cluster = Cluster::start(proto_config(true, policy), &trace).expect("start cluster");
    run_traffic(&cluster, &trace);

    // Reports are applied asynchronously (by the shards' pollers),
    // and serves can journal a few final events (late disk
    // completions) *after* an earlier flush: force flushes and poll
    // until BOTH gauges settle — exiting on the mirror gauge alone
    // races the last unflushed eviction batch, leaving the
    // ground-truth check below to fail spuriously.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut snap = cluster.frontend().coherence();
    while (snap.divergence != 0 || true_divergence(&cluster) != 0) && Instant::now() < deadline {
        cluster.flush_feedback();
        std::thread::sleep(Duration::from_millis(2));
        snap = cluster.frontend().coherence();
    }
    assert_eq!(
        snap.divergence, 0,
        "{policy:?}: divergence stuck at {} of {} believed pairs ({snap:?})",
        snap.divergence, snap.believed_pairs
    );
    assert!(snap.believed_pairs > 0, "{policy:?}: no beliefs formed");
    assert!(snap.reports > 0, "{policy:?}: no control reports flowed");
    assert!(
        snap.stale_removed > 0,
        "{policy:?}: churn must have removed stale beliefs"
    );
    // Mirror-based and ground-truth divergence must agree: every
    // believed mapping points at a document the node really caches.
    assert_eq!(
        true_divergence(&cluster),
        0,
        "{policy:?}: belief not ⊆ caches"
    );
    // Converged although the admission gate turned reads away: each
    // rejection reached the mirror as an eviction.
    let rejected: u64 = cluster
        .node_stats()
        .iter()
        .map(|s| s.admissions_rejected)
        .sum();
    assert!(rejected > 0, "{policy:?}: churn never consulted the gate");
    cluster.shutdown();
}

#[test]
fn open_loop_belief_really_diverges() {
    // The premise the feedback loop exists to fix (and the baseline the
    // mapping_coherence bench measures): without reports, churn leaves
    // the only-grows table pointing at cold caches.
    let trace = churn_trace();
    let cluster = Cluster::start(proto_config(false, EvictPolicy::GreedyDual), &trace)
        .expect("start cluster");
    run_traffic(&cluster, &trace);

    let snap = cluster.frontend().coherence();
    assert_eq!(snap.reports, 0, "feedback off must mean no control traffic");
    assert_eq!(snap.stale_removed, 0);
    assert!(
        true_divergence(&cluster) > 0,
        "a churned open-loop run must leave stale beliefs"
    );
    cluster.shutdown();
}
