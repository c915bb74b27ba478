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
//! reactor shards {1,2,4} × front_ends {1,2}
//! ```
//!
//! must produce the **byte-identical** transcript the content store
//! predicts (responses are a pure function of `(target, HTTP
//! version)`, so one expected transcript covers every shard count and
//! tier shape). Every run must
//! demonstrably stream laterally and evict cached bodies (paths that
//! byte-identity alone cannot see; the recipe forces both by
//! construction — see `config` and `LEAD_IN`), and must unwind to
//! zero tracked connections, zero residual load, and a fully drained
//! `pending_body_bytes` gauge.

mod support;

use std::time::Duration;

use phttp_core::{LardParams, Mechanism, PolicyKind};
use phttp_proto::{Cluster, ContentStore, DiskEmu, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{reconstruct, ClientId, ConnectionTrace, SessionConfig, TargetId, Trace};
use support::{expected_transcript, play_capture};

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

/// The lead connection's requests, `(ms, target)`: batches `[6]`,
/// `[4, 2, 0, 4]`, `[2, 0]` and `[6]` (`LEAD_IN` says why).
const LEAD: [(u64, u32); 8] = [
    (0, 6),
    (1_000, 4),
    (1_100, 2),
    (1_200, 0),
    (1_300, 4),
    (2_400, 2),
    (2_500, 0),
    (3_600, 6),
];

/// Hand-built workload: 10 clients × 8 requests, spaced so each client
/// reconstructs to one persistent connection of one leading single
/// request plus pipelined batches. Every target is requested several
/// times (hits AND misses on every node), deterministically.
fn workload() -> (Trace, ConnectionTrace) {
    let mut requests: Vec<phttp_trace::Request> = LEAD
        .iter()
        .map(|&(ms, t)| phttp_trace::Request {
            time: SimTime::from_millis(ms),
            client: ClientId(0),
            target: TargetId(t),
        })
        .collect();
    for c in 1..10u32 {
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
    // `LEAD_IN`'s recipe rests on this: the first connection asks, in
    // these batches, for the three cacheable targets that cannot share
    // one cache.
    let lead: Vec<Vec<u32>> = conns.connections[0]
        .batches
        .iter()
        .map(|b| b.targets.iter().map(|t| t.0).collect())
        .collect();
    assert_eq!(lead, [vec![6], vec![4, 2, 0, 4], vec![2, 0], vec![6]]);
    let together: u64 = [2, 4, 6].map(|t| SIZES[t]).iter().sum();
    assert!(together > CACHE_BYTES && SIZES[2] <= CACHE_BYTES);
    assert!(SIZES[0] > CACHE_BYTES);
    (trace, conns)
}

fn config(shards: usize, front_ends: usize) -> ProtoConfig {
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
        reactor_shards: shards,
        front_ends,
        ..ProtoConfig::default()
    }
}

/// The first connection plays alone on the cold cluster: nothing is
/// mapped yet, so each of its targets is a first-ever fetch, read on
/// its own connection node — and the three cacheable ones (8 KiB +
/// 512 KiB + 1.5 MiB) do not fit that node's cache together. A full
/// cache admits only a target served more often than its victim, so
/// the recipe gives the newcomer that demand: t6 and t4 are read into
/// the room there is (the second t4 parks on the first's flight, and
/// the oversized t0's reads are never cached); t2, served once like
/// its victim, is turned away; the next batch serves t2 a second time
/// and nothing else cached, so its read out-serves the victim and
/// evicts — whatever the eviction policy and however the rest is
/// timed. The others then play several at a time, so staging
/// queues actually back up against HIGH_WATER; they open together on a
/// loaded cluster, LARD spreads them over the nodes, and each asks for
/// targets the others fetched first — which, rule 1b being off, are
/// forwarded.
const LEAD_IN: usize = 1;

/// One matrix cell: serve the workload, capture transcripts, prove the
/// cluster evicted and unwound clean, and return (transcript, node
/// stats).
fn run_cell(
    mut cfg: ProtoConfig,
    cell: &str,
) -> (Vec<Vec<Vec<u8>>>, Vec<phttp_proto::NodeStatsSnapshot>) {
    let (trace, conns) = workload();
    cfg.read_timeout = cfg.read_timeout.max(Duration::from_secs(10));
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    let transcript = play_capture(cluster.frontend_addrs(), &conns, cluster.store(), LEAD_IN);
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
    // The staging-queue gauge charges each queued slice once and
    // unwinds to exactly zero when every connection has drained.
    let stats = cluster.reactor_stats().expect("reactor gauges");
    assert_eq!(
        stats.pending_body_bytes(),
        0,
        "{cell}: pending_body_bytes gauge leaked"
    );
    let responses: usize = transcript.iter().map(|c| c.len()).sum();
    assert_eq!(responses, trace.len(), "{cell}: lost responses");
    let evictions: u64 = fe
        .nodes()
        .iter()
        .map(|n| n.cache.lock().lru.evictions())
        .sum();
    assert!(evictions > 0, "{cell}: no cached body was ever evicted");
    let stats = cluster.node_stats();
    cluster.shutdown();
    (transcript, stats)
}

fn lateral_out(stats: &[phttp_proto::NodeStatsSnapshot]) -> u64 {
    stats.iter().map(|s| s.lateral_out).sum()
}

/// Runs the whole matrix against the store's transcript and returns
/// every cell's node stats, labelled, the single-shard, single-front-end
/// cell first.
fn matrix() -> Vec<(String, Vec<phttp_proto::NodeStatsSnapshot>)> {
    let (trace, conns) = workload();
    let expected = expected_transcript(&ContentStore::from_trace(&trace), &conns);
    let mut cells = Vec::new();
    for shards in [1usize, 2, 4] {
        for front_ends in [1usize, 2] {
            let cell = format!("reactor/shards={shards}/fe={front_ends}");
            let (transcript, stats) = run_cell(config(shards, front_ends), &cell);
            assert!(
                lateral_out(&stats) > 0,
                "{cell}: no lateral stream ever ran"
            );
            assert!(
                transcript == expected,
                "{cell}: large-body transcripts diverge from the store"
            );
            cells.push((cell, stats));
        }
    }
    cells
}

#[test]
fn large_body_matrix_matches_store() {
    matrix();
}

/// Multi-MiB misses are slow disk reads, so concurrent requests for one
/// target park on its flight and share the single body it reads. The
/// single-shard, single-front-end cell must actually coalesce, or the
/// matrix would not exercise waiters holding a large shared body; and
/// since every waiter is served, each cell's served counters must sum
/// to the request count.
#[test]
fn large_body_matrix_matches_store_with_coalescing() {
    let (trace, _) = workload();
    let cells = matrix();
    let coalesced: u64 = cells[0].1.iter().map(|s| s.coalesced_waits).sum();
    assert!(
        coalesced > 0,
        "{} never coalesced a miss — widen the concurrency recipe",
        cells[0].0
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
