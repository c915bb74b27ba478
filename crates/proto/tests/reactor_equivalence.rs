//! Differential test: the event-driven reactor — at **every shard
//! count** — and the thread-per-connection oracle must be observably
//! the same server.
//!
//! The same pipelined P-HTTP workload is driven through a cluster in
//! each `IoModel` by a verifying capture client, recording every
//! response on every connection; the reactor runs the matrix
//! `reactor_shards ∈ {1, 2, 4}`. Every transcript must be
//! **byte-identical** to the threads oracle's (response bytes are fully
//! determined by the request target and HTTP version, so transcripts
//! are comparable even though connection *scheduling* is concurrent),
//! each run must demonstrably exercise its mechanism's remote path
//! (lateral fetches or migrations — byte-identity alone cannot see
//! routing), and every cluster must unwind to the same final
//! load-tracker state (exactly zero load, zero tracked connections).
//!
//! The client runs several connections concurrently on purpose: with a
//! single sequential connection the back-end disks never queue, and
//! extLARD's cost function then always prefers serving locally — the
//! remote data paths this test exists to compare would never run.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

use bytes::BytesMut;
use phttp_core::{Mechanism, PolicyKind};
use phttp_http::{Request, ResponseParser, Version};
use phttp_proto::{Cluster, ContentStore, DiskEmu, IoModel, ProtoConfig};
use phttp_trace::{generate, reconstruct, ConnectionTrace, SessionConfig, SynthConfig};

fn workload() -> (phttp_trace::Trace, ConnectionTrace) {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 120;
    synth.num_pages = 50;
    let trace = generate(&synth);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(mechanism: Mechanism, io_model: IoModel, shards: usize) -> ProtoConfig {
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
        io_model,
        reactor_shards: shards,
        ..ProtoConfig::default()
    }
}

/// Plays one trace connection and returns the re-encoded wire bytes of
/// each of its responses, in request order.
fn play_one(addr: SocketAddr, conn: &phttp_trace::Connection) -> Vec<Vec<u8>> {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut parser = ResponseParser::new();
    let mut responses = Vec::with_capacity(conn.num_requests());
    for batch in &conn.batches {
        // The whole pipelined batch in a single write, like the load
        // generator.
        let mut wire = BytesMut::new();
        for &target in &batch.targets {
            Request::get(ContentStore::uri(target), Version::Http11).encode(&mut wire);
        }
        stream.write_all(&wire).unwrap();
        let mut got = 0;
        let mut buf = [0u8; 32 * 1024];
        while got < batch.targets.len() {
            if let Some(resp) = parser.next().expect("parse response") {
                responses.push(resp.to_bytes().to_vec());
                got += 1;
                continue;
            }
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-connection");
            parser.feed(&buf[..n]);
        }
    }
    responses
}

/// Plays every connection of the workload (several in flight at once so
/// disk queues build — see the module docs) and returns each
/// connection's response transcript, indexed by connection order.
fn play_capture(addrs: &[SocketAddr], workload: &ConnectionTrace) -> Vec<Vec<Vec<u8>>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let transcript: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = workload
        .connections
        .iter()
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = workload.connections.get(i) else {
                    break;
                };
                *transcript[i].lock() = play_one(addrs[i % addrs.len()], conn);
            });
        }
    });
    transcript.into_iter().map(|m| m.into_inner()).collect()
}

fn run_one(
    mechanism: Mechanism,
    io_model: IoModel,
    shards: usize,
) -> (Vec<Vec<Vec<u8>>>, Vec<phttp_proto::NodeStatsSnapshot>) {
    let (trace, conns) = workload();
    let cluster =
        Cluster::start(config(mechanism, io_model, shards), &trace).expect("start cluster");
    if io_model == IoModel::Reactor && shards > 1 {
        // This host supports reuseport groups (the shim test proves it);
        // a silent fallback here would quietly skip the accept path this
        // matrix exists to exercise.
        assert_eq!(
            cluster.used_accept_handoff(),
            Some(false),
            "{shards} shards"
        );
    }
    let transcript = play_capture(cluster.frontend_addrs(), &conns);
    // Final load-tracker state: every connection's charge unwound to
    // exactly zero (fixed-point accounting), nothing still tracked.
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{io_model:?}/{shards}: connections leaked"
    );
    let fe = cluster.frontend_shared();
    assert_eq!(fe.active_connections(), 0, "{io_model:?}/{shards}");
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "{io_model:?}/{shards}: residual load {:?}",
        fe.loads()
    );
    let stats = cluster.node_stats();
    cluster.shutdown();
    (transcript, stats)
}

/// A quick structural sanity check on one transcript so a trivially
/// empty equality cannot pass silently.
fn assert_nonempty(t: &[Vec<Vec<u8>>], trace_len: usize) {
    let responses: usize = t.iter().map(|c| c.len()).sum();
    assert_eq!(responses, trace_len, "every request got a response");
    assert!(t
        .iter()
        .flatten()
        .all(|r| r.starts_with(b"HTTP/1.1 200 ") || r.starts_with(b"HTTP/1.0 200 ")));
}

/// Byte-identical transcripts alone cannot distinguish *where* a
/// request was served (bodies depend only on the target), so each model
/// must additionally prove it exercised the mechanism's remote path —
/// otherwise a reactor that silently served every remote assignment
/// locally would pass the transcript comparison.
fn assert_routes(stats: &[phttp_proto::NodeStatsSnapshot], mechanism: Mechanism, io: IoModel) {
    let lateral: u64 = stats.iter().map(|s| s.lateral_out).sum();
    let migrations: u64 = stats.iter().map(|s| s.migrations_in).sum();
    match mechanism {
        Mechanism::MultipleHandoff => {
            assert!(migrations > 0, "{io:?}: no connection ever migrated");
            assert_eq!(lateral, 0, "{io:?}: migrate semantics must not fetch");
        }
        _ => {
            assert!(lateral > 0, "{io:?}: no request was ever forwarded");
            assert_eq!(migrations, 0, "{io:?}: forwarding must not migrate");
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
/// threads oracle first.
fn shard_matrix_against_oracle(
    mechanism: Mechanism,
) -> Vec<(String, Vec<phttp_proto::NodeStatsSnapshot>)> {
    let (trace, _) = workload();
    let (threads, threads_stats) = run_one(mechanism, IoModel::Threads, 1);
    assert_nonempty(&threads, trace.len());
    assert_routes(&threads_stats, mechanism, IoModel::Threads);
    let mut runs = vec![("threads".to_string(), threads_stats)];
    for shards in SHARD_MATRIX {
        let (reactor, reactor_stats) = run_one(mechanism, IoModel::Reactor, shards);
        assert_routes(&reactor_stats, mechanism, IoModel::Reactor);
        assert_eq!(
            threads, reactor,
            "transcripts diverge from the threads oracle ({mechanism:?}, {shards} shards)"
        );
        runs.push((format!("reactor/{shards}"), reactor_stats));
    }
    runs
}

#[test]
fn reactor_shard_matrix_matches_threads_backend_forwarding() {
    shard_matrix_against_oracle(Mechanism::BackendForwarding);
}

/// Single-flight coalescing must be invisible on the wire: response
/// bytes are a pure function of `(target, HTTP version)`, so only fetch
/// counts and timing may differ between the models. The oracle must
/// also actually coalesce (delayed hits observed), or the matrix would
/// not exercise the flight tables it compares. Every parked waiter is
/// served, so in every model the nodes' served counters must sum to the
/// request count — a waiter on a lateral flight booked nowhere would
/// leave the sum short.
#[test]
fn reactor_shard_matrix_matches_threads_with_coalescing() {
    let (trace, _) = workload();
    let runs = shard_matrix_against_oracle(Mechanism::BackendForwarding);
    let coalesced: u64 = runs[0].1.iter().map(|s| s.coalesced_waits).sum();
    assert!(
        coalesced > 0,
        "oracle never coalesced a miss — widen the concurrency recipe"
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
fn reactor_shard_matrix_matches_threads_multiple_handoff() {
    shard_matrix_against_oracle(Mechanism::MultipleHandoff);
}

/// The acceptor-handoff fallback (round-robin injection into the shard
/// loops) must be observably identical to the reuseport accept path —
/// it is the degradation mode on hosts where the shim cannot express
/// the listener group.
#[test]
fn acceptor_handoff_fallback_matches_threads() {
    let (trace, _) = workload();
    let (threads, threads_stats) = run_one(Mechanism::BackendForwarding, IoModel::Threads, 1);
    assert_nonempty(&threads, trace.len());
    assert_routes(
        &threads_stats,
        Mechanism::BackendForwarding,
        IoModel::Threads,
    );
    let (trace2, conns) = workload();
    let mut cfg = config(Mechanism::BackendForwarding, IoModel::Reactor, 2);
    cfg.force_accept_handoff = true;
    let cluster = Cluster::start(cfg, &trace2).expect("start cluster");
    assert_eq!(cluster.used_accept_handoff(), Some(true));
    let reactor = play_capture(cluster.frontend_addrs(), &conns);
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "handoff: connections leaked"
    );
    let reactor_stats = cluster.node_stats();
    cluster.shutdown();
    assert_routes(
        &reactor_stats,
        Mechanism::BackendForwarding,
        IoModel::Reactor,
    );
    assert_eq!(
        threads, reactor,
        "transcripts diverge under acceptor-handoff fallback"
    );
}
