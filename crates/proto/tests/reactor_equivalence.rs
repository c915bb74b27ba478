//! Transcript test: the event-driven reactor, at **every shard count**,
//! must serve every request byte-exact.
//!
//! The same pipelined P-HTTP workload is driven through a cluster at
//! `reactor_shards ∈ {1, 2, 4}` by a verifying capture client
//! (`support`), recording every response on every connection. Response
//! bytes are fully determined by the request target and HTTP version,
//! so every transcript must be **byte-identical** to the one the content
//! store predicts, even though connection *scheduling* is concurrent.
//! Each run must also demonstrably exercise its mechanism's remote path
//! (lateral fetches or migrations — byte-identity alone cannot see
//! routing), and every cluster must unwind to the same final
//! load-tracker state (exactly zero load, zero tracked connections).

mod support;

use std::time::Duration;

use phttp_core::{Mechanism, PolicyKind};
use phttp_proto::{Cluster, DiskEmu, ProtoConfig};
use phttp_trace::{generate, reconstruct, ConnectionTrace, SessionConfig, SynthConfig};
use support::{expected_transcript, play_capture};

fn workload() -> (phttp_trace::Trace, ConnectionTrace) {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 120;
    synth.num_pages = 50;
    let trace = generate(&synth);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(mechanism: Mechanism, shards: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism,
        // Small caches and slow disks so queues build under the
        // concurrent capture client and extLARD actually forwards (the
        // same recipe as the end-to-end lateral-fetch test).
        cache_bytes: 512 * 1024,
        disk: DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 40.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(5),
        reactor_shards: shards,
        ..ProtoConfig::default()
    }
}

/// Serves the workload on `cfg`, checks the transcript against the
/// store and the cluster's unwinding, and returns the node stats.
fn run_cell(cfg: ProtoConfig, cell: &str) -> Vec<phttp_proto::NodeStatsSnapshot> {
    let (trace, conns) = workload();
    let handoff = cfg.force_accept_handoff;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    // This host supports reuseport groups (the shim test proves it); a
    // silent fallback here would quietly skip the accept path this
    // matrix exists to exercise.
    assert_eq!(cluster.used_accept_handoff(), handoff, "{cell}");
    let store = cluster.store().clone();
    let transcript = play_capture(cluster.frontend_addrs(), &conns, &store, 0);
    // Final load-tracker state: every connection's charge unwound to
    // exactly zero (fixed-point accounting), nothing still tracked.
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{cell}: connections leaked"
    );
    let fe = cluster.frontend_shared();
    assert_eq!(fe.active_connections(), 0, "{cell}");
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "{cell}: residual load {:?}",
        fe.loads()
    );
    let stats = cluster.node_stats();
    cluster.shutdown();
    assert!(
        transcript == expected_transcript(&store, &conns),
        "{cell}: transcripts diverge from the store"
    );
    stats
}

/// Byte-identical transcripts alone cannot distinguish *where* a
/// request was served (bodies depend only on the target), so each run
/// must additionally prove it exercised the mechanism's remote path —
/// otherwise a reactor that silently served every remote assignment
/// locally would pass the transcript comparison.
fn assert_routes(stats: &[phttp_proto::NodeStatsSnapshot], mechanism: Mechanism, cell: &str) {
    let lateral: u64 = stats.iter().map(|s| s.lateral_out).sum();
    let migrations: u64 = stats.iter().map(|s| s.migrations_in).sum();
    match mechanism {
        Mechanism::MultipleHandoff => {
            assert!(migrations > 0, "{cell}: no connection ever migrated");
            assert_eq!(lateral, 0, "{cell}: migrate semantics must not fetch");
        }
        _ => {
            assert!(lateral > 0, "{cell}: no request was ever forwarded");
            assert_eq!(migrations, 0, "{cell}: forwarding must not migrate");
        }
    }
}

/// The shard counts the reactor is differentially tested at. 1 is the
/// single-loop baseline; 2 and 4 exercise reuseport accept
/// distribution, cross-shard lateral serving (a fetch issued on one
/// shard served by the peer listener on another), and the shared
/// dispatcher under true multi-loop concurrency.
const SHARD_MATRIX: [usize; 3] = [1, 2, 4];

/// Runs the matrix and returns every run's node stats, labelled, the
/// single-shard run first.
fn shard_matrix_against_store(
    mechanism: Mechanism,
) -> Vec<(String, Vec<phttp_proto::NodeStatsSnapshot>)> {
    SHARD_MATRIX
        .iter()
        .map(|&shards| {
            let cell = format!("{mechanism:?}/{shards} shards");
            let stats = run_cell(config(mechanism, shards), &cell);
            assert_routes(&stats, mechanism, &cell);
            (cell, stats)
        })
        .collect()
}

#[test]
fn reactor_shard_matrix_matches_store_backend_forwarding() {
    shard_matrix_against_store(Mechanism::BackendForwarding);
}

/// Single-flight coalescing must be invisible on the wire: response
/// bytes are a pure function of `(target, HTTP version)`, so only fetch
/// counts and timing may differ between shard counts. The single-shard
/// run must also actually coalesce (delayed hits observed), or the
/// matrix would not exercise the flight tables it checks. Every parked
/// waiter is served, so in every run the nodes' served counters must
/// sum to the request count — a waiter on a lateral flight booked
/// nowhere would leave the sum short.
#[test]
fn reactor_shard_matrix_matches_store_with_coalescing() {
    let (trace, _) = workload();
    let runs = shard_matrix_against_store(Mechanism::BackendForwarding);
    let coalesced: u64 = runs[0].1.iter().map(|s| s.coalesced_waits).sum();
    assert!(
        coalesced > 0,
        "{} never coalesced a miss — widen the concurrency recipe",
        runs[0].0
    );
    for (run, stats) in &runs {
        let served: u64 = stats.iter().map(|s| s.served).sum();
        assert_eq!(
            served,
            trace.len() as u64,
            "{run}: served counters do not sum to the request count"
        );
    }
}

#[test]
fn reactor_shard_matrix_matches_store_multiple_handoff() {
    shard_matrix_against_store(Mechanism::MultipleHandoff);
}

/// The acceptor-handoff fallback (round-robin injection into the shard
/// loops) must serve exactly what the reuseport accept path does — it
/// is the degradation mode on hosts where the shim cannot express the
/// listener group.
#[test]
fn acceptor_handoff_fallback_matches_store() {
    let cfg = ProtoConfig {
        force_accept_handoff: true,
        ..config(Mechanism::BackendForwarding, 2)
    };
    let stats = run_cell(cfg, "acceptor handoff");
    assert_routes(&stats, Mechanism::BackendForwarding, "acceptor handoff");
}
