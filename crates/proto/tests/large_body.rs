//! Large-body byte-exactness battery for the zero-copy data path.
//!
//! The small-body differential suite (`reactor_equivalence`) cannot see
//! the mechanics this battery exists for: with multi-KiB responses a
//! whole response fits in one socket buffer, so partial `writev`
//! resumption mid-iovec, HIGH_WATER backpressure on the staging queue,
//! and chunk-by-chunk lateral splicing never actually run. Here the
//! corpus is multi-MiB mixed — every large response is guaranteed to
//! straddle many short writes, overflow the per-connection staging
//! budget, and stream laterally in many chunks — and every cell of the
//! matrix
//!
//! ```text
//! {threads oracle} vs {reactor × shards {1,2,4}} × front_ends {1,2}
//! ```
//!
//! must produce **byte-identical** transcripts (responses are a pure
//! function of `(target, HTTP version)`, so transcripts compare across
//! io models, shard counts, and tier shapes). Each response body is
//! additionally verified against the store, anchoring the equality to
//! ground truth rather than to a shared bug. Every run must
//! demonstrably stream laterally and evict cached bodies (paths that
//! byte-identity alone cannot see; the recipe forces both by
//! construction — see `config` and `play_capture`), and must unwind to
//! zero tracked connections, zero residual load, and a fully drained
//! `pending_body_bytes` gauge.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bytes::BytesMut;
use phttp_core::{LardParams, Mechanism, PolicyKind};
use phttp_http::{Request, ResponseParser, Version};
use phttp_proto::{Cluster, ContentStore, DiskEmu, IoModel, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{reconstruct, ClientId, ConnectionTrace, SessionConfig, TargetId, Trace};

const MIB: u64 = 1024 * 1024;

/// Per-node cache: just below the two largest bodies.
const CACHE_BYTES: u64 = 2 * MIB - 1;

/// Mixed corpus dominated by multi-MiB targets, with small files
/// sprinkled in so gathered writes interleave tiny and huge iovecs on
/// one connection.
const SIZES: [u64; 8] = [
    3 * MIB,
    2 * MIB,
    MIB + 512 * 1024,
    MIB,
    512 * 1024,
    192 * 1024,
    8 * 1024,
    64,
];

/// Hand-built workload: 10 clients × 8 requests, spaced so each client
/// reconstructs to one persistent connection of one leading single
/// request plus pipelined batches. Every target is requested several
/// times (hits AND misses on every node), deterministically.
fn workload() -> (Trace, ConnectionTrace) {
    let mut requests = Vec::new();
    for c in 0..10u32 {
        for k in 0..8u64 {
            requests.push(phttp_trace::Request {
                // 100 ms spacing keeps all non-first requests of a
                // client inside the 1 s pipelining window.
                time: SimTime::from_millis(c as u64 * 7 + k * 100),
                client: ClientId(c),
                target: TargetId(((c as u64 * 3 + k * 5 + k) % SIZES.len() as u64) as u32),
            });
        }
    }
    let trace = Trace::new(requests, SIZES.to_vec());
    let conns = reconstruct(&trace, SessionConfig::default());
    // `play_capture`'s lead-in rests on this: the first connection asks
    // for the three cacheable targets that cannot share one cache.
    let lead: Vec<TargetId> = conns.connections[0]
        .batches
        .iter()
        .flat_map(|b| b.targets.iter().copied())
        .collect();
    let together: u64 = [2, 4, 6].map(|t| SIZES[t]).iter().sum();
    assert!([2, 4, 6]
        .iter()
        .all(|&t| lead.contains(&TargetId(t as u32))));
    assert!(together > CACHE_BYTES && SIZES[2] <= CACHE_BYTES);
    (trace, conns)
}

fn config(io_model: IoModel, shards: usize, front_ends: usize) -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism: Mechanism::BackendForwarding,
        // Per-node cache *below* the two largest bodies: those are
        // uncacheable (every serve is a slow disk read), the mid-size
        // targets fit but evict each other — so cached slices get
        // evicted (every cell asserts it) while connections still hold
        // them queued for write-out (the refcount keeps them alive; a
        // path that freed early would corrupt).
        cache_bytes: CACHE_BYTES,
        disk: DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 100.0 * MIB as f64,
        },
        // extLARD rule 1b off: with a threshold of 0 no disk queue is
        // ever "low", so a target mapped to another node is never read
        // locally just because this node's disk looked idle at the
        // last report — whether a cell forwards no longer depends on
        // when queue depths happened to be sampled.
        lard: LardParams {
            disk_queue_low: 0,
            ..LardParams::default()
        },
        read_timeout: Duration::from_secs(10),
        io_model,
        reactor_shards: shards,
        front_ends,
        ..ProtoConfig::default()
    }
}

/// Plays one trace connection, verifying each body against the store as
/// it arrives, and returns the re-encoded wire bytes of each response.
fn play_one(
    addr: SocketAddr,
    conn: &phttp_trace::Connection,
    store: &ContentStore,
) -> Vec<Vec<u8>> {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut parser = ResponseParser::new();
    let mut responses = Vec::with_capacity(conn.num_requests());
    let mut buf = vec![0u8; 64 * 1024];
    for batch in &conn.batches {
        let mut wire = BytesMut::new();
        for &target in &batch.targets {
            Request::get(ContentStore::uri(target), Version::Http11).encode(&mut wire);
        }
        stream.write_all(&wire).unwrap();
        let mut got = 0;
        while got < batch.targets.len() {
            if let Some(resp) = parser.next().expect("parse response") {
                assert_eq!(resp.status, 200);
                assert!(
                    store.verify(batch.targets[got], &resp.body),
                    "corrupt body for {}",
                    batch.targets[got]
                );
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

/// Plays every connection, spread across all front-end addresses. The
/// first plays alone on the cold cluster: nothing is mapped yet, so each
/// of its targets is a first-ever fetch, read and cached on its own
/// connection node — and the three cacheable ones (8 KiB + 512 KiB +
/// 1.5 MiB) do not fit that node's cache together, so bodies are evicted
/// whatever the eviction policy and however the rest is timed. The
/// others then play several at a time, so staging queues actually back
/// up against HIGH_WATER; they open together on a loaded cluster, LARD
/// spreads them over the nodes, and each asks for targets the others
/// fetched first — which, rule 1b being off, are forwarded.
fn play_capture(
    addrs: &[SocketAddr],
    workload: &ConnectionTrace,
    store: &ContentStore,
) -> Vec<Vec<Vec<u8>>> {
    let cursor = AtomicUsize::new(1);
    let transcript: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = workload
        .connections
        .iter()
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    *transcript[0].lock() = play_one(addrs[0], &workload.connections[0], store);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = workload.connections.get(i) else {
                    break;
                };
                *transcript[i].lock() = play_one(addrs[i % addrs.len()], conn, store);
            });
        }
    });
    transcript.into_iter().map(|m| m.into_inner()).collect()
}

/// One matrix cell: serve the workload, capture transcripts, prove the
/// cluster evicted and unwound clean, and return (transcript, node
/// stats).
fn run_cell(
    mut cfg: ProtoConfig,
    cell: &str,
) -> (Vec<Vec<Vec<u8>>>, Vec<phttp_proto::NodeStatsSnapshot>) {
    let (trace, conns) = workload();
    let io_model = cfg.io_model;
    cfg.read_timeout = cfg.read_timeout.max(Duration::from_secs(10));
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    let transcript = play_capture(cluster.frontend_addrs(), &conns, cluster.store());
    assert!(
        cluster.quiesce(Duration::from_secs(15)),
        "{cell}: connections leaked"
    );
    let fe = cluster.frontend_shared();
    assert_eq!(fe.active_connections(), 0, "{cell}");
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "{cell}: residual load {:?}",
        fe.loads()
    );
    if io_model == IoModel::Reactor {
        // Satellite invariant: the staging-queue gauge charges each
        // queued slice once and unwinds to exactly zero when every
        // connection has drained.
        let stats = cluster.reactor_stats().expect("reactor mode");
        assert_eq!(
            stats.pending_body_bytes(),
            0,
            "{cell}: pending_body_bytes gauge leaked"
        );
    }
    let responses: usize = transcript.iter().map(|c| c.len()).sum();
    assert_eq!(responses, trace.len(), "{cell}: lost responses");
    let evictions: u64 = fe.nodes().iter().map(|n| n.cache.lock().evictions()).sum();
    assert!(evictions > 0, "{cell}: no cached body was ever evicted");
    let stats = cluster.node_stats();
    cluster.shutdown();
    (transcript, stats)
}

fn lateral_out(stats: &[phttp_proto::NodeStatsSnapshot]) -> u64 {
    stats.iter().map(|s| s.lateral_out).sum()
}

/// Runs the whole matrix against the threads oracle and returns every
/// cell's node stats, labelled, the oracle first.
fn matrix() -> Vec<(String, Vec<phttp_proto::NodeStatsSnapshot>)> {
    let (oracle, oracle_stats) = run_cell(config(IoModel::Threads, 1, 1), "threads oracle");
    assert!(
        lateral_out(&oracle_stats) > 0,
        "oracle never forwarded — the recipe exercises no remote path"
    );
    let mut cells = vec![("threads oracle".to_string(), oracle_stats)];
    for shards in [1usize, 2, 4] {
        for front_ends in [1usize, 2] {
            let cell = format!("reactor/shards={shards}/fe={front_ends}");
            let (transcript, stats) = run_cell(config(IoModel::Reactor, shards, front_ends), &cell);
            assert!(
                lateral_out(&stats) > 0,
                "{cell}: no lateral stream ever ran"
            );
            assert_eq!(
                oracle, transcript,
                "{cell}: large-body transcripts diverge from the threads oracle"
            );
            cells.push((cell, stats));
        }
    }
    cells
}

#[test]
fn large_body_matrix_matches_threads_oracle() {
    matrix();
}

/// Multi-MiB misses are slow disk reads, so concurrent requests for one
/// target park on its flight and share the single body it reads. The
/// oracle must actually coalesce, or the matrix would not exercise
/// waiters holding a large shared body; and since every waiter is
/// served, each cell's served counters must sum to the request count.
#[test]
fn large_body_matrix_matches_threads_oracle_with_coalescing() {
    let (trace, _) = workload();
    let cells = matrix();
    let coalesced: u64 = cells[0].1.iter().map(|s| s.coalesced_waits).sum();
    assert!(
        coalesced > 0,
        "oracle never coalesced a miss — widen the concurrency recipe"
    );
    for (cell, stats) in &cells {
        let served: u64 = stats.iter().map(|s| s.served).sum();
        assert_eq!(
            served,
            trace.len() as u64,
            "{cell}: served counters do not sum to the request count"
        );
    }
}
