//! Single-flight miss coalescing, end to end.
//!
//! N client connections requesting the same cold document concurrently
//! must cost exactly **one** emulated disk read while every client still
//! receives the byte-exact response. The teardown
//! regressions ride along: a parked waiter whose connection dies
//! mid-flight must neither strand the flight nor leak its slot, and a
//! dead flight *leader* must not take its waiters down with it.
//!
//! Deterministic flight formation recipe: one node, one reactor shard,
//! a disk seek in the hundreds of milliseconds, and raw sockets driven
//! with explicit sleeps, so every racer provably probes the cache while
//! the leader's read is still in flight.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use phttp_core::PolicyKind;
use phttp_proto::{
    run_load, ClientProtocol, Cluster, ContentStore, DiskEmu, EvictPolicy, LoadConfig, ProtoConfig,
};
use phttp_simcore::SimTime;
use phttp_trace::{generate, reconstruct, ClientId, SessionConfig, SynthConfig, TargetId, Trace};

/// A 4-document corpus; the requests only seed the store (traffic is
/// driven by hand over raw sockets).
fn corpus() -> Trace {
    let requests = (0..4)
        .map(|t| phttp_trace::Request {
            time: SimTime::from_micros(t),
            client: ClientId(0),
            target: TargetId(t as u32),
        })
        .collect();
    Trace::new(requests, vec![48 * 1024; 4])
}

/// One node, one shard, a slow spindle: every concurrent miss of one
/// target is guaranteed to land inside the leader's read window.
fn config(seek: Duration) -> ProtoConfig {
    ProtoConfig {
        nodes: 1,
        policy: PolicyKind::ExtLard,
        cache_bytes: 8 * 1024 * 1024, // eviction-free
        disk: DiskEmu {
            seek,
            bytes_per_sec: 200.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(10),
        reactor_shards: 1,
        ..ProtoConfig::default()
    }
}

/// Opens a connection and writes an HTTP/1.0 GET for `target` (the
/// server closes after the response, so "read to EOF" is the whole
/// transcript).
fn send_get(cluster: &Cluster, target: TargetId) -> TcpStream {
    let mut s = TcpStream::connect(cluster.frontend_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let req = format!("GET {} HTTP/1.0\r\n\r\n", ContentStore::uri(target));
    s.write_all(req.as_bytes()).expect("write request");
    s
}

/// Opens a connection and pipelines HTTP/1.1 GETs for `targets`, the
/// last one asking the server to close.
fn send_pipelined(cluster: &Cluster, targets: &[TargetId]) -> TcpStream {
    let mut s = TcpStream::connect(cluster.frontend_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut req = String::new();
    for (i, &t) in targets.iter().enumerate() {
        let close = if i + 1 == targets.len() {
            "Connection: close\r\n"
        } else {
            ""
        };
        req += &format!("GET {} HTTP/1.1\r\n{close}\r\n", ContentStore::uri(t));
    }
    s.write_all(req.as_bytes()).expect("write requests");
    s
}

/// Reads the full response and asserts it is a 200 carrying exactly the
/// store's body for `target`.
fn assert_full_response(mut s: TcpStream, cluster: &Cluster, target: TargetId, who: &str) {
    let mut wire = Vec::new();
    s.read_to_end(&mut wire).expect(who);
    assert!(
        wire.starts_with(b"HTTP/1.0 200 "),
        "{who}: bad status line: {:?}",
        &wire[..wire.len().min(32)]
    );
    let body = cluster.store().body(target);
    assert!(
        wire.ends_with(&body),
        "{who}: body mismatch ({} wire bytes)",
        wire.len()
    );
}

/// Total emulated disk reads across the cluster.
fn disk_reads(cluster: &Cluster) -> u64 {
    cluster.node_stats().iter().map(|s| s.disk_reads).sum()
}

fn coalesced_waits(cluster: &Cluster) -> u64 {
    cluster.node_stats().iter().map(|s| s.coalesced_waits).sum()
}

/// The headline: N concurrent cold misses on one target cost one disk
/// read, every client byte-exact.
#[test]
fn concurrent_cold_misses_cost_one_read_coalesced_n_uncoalesced() {
    const N: usize = 6;
    let trace = corpus();
    let target = TargetId(0);
    let cluster =
        Cluster::start(config(Duration::from_millis(250)), &trace).expect("start cluster");
    // All N requests written well inside the 250 ms read window.
    let streams: Vec<TcpStream> = (0..N).map(|_| send_get(&cluster, target)).collect();
    for (i, s) in streams.into_iter().enumerate() {
        assert_full_response(s, &cluster, target, &format!("conn {i}"));
    }
    assert!(cluster.quiesce(Duration::from_secs(10)));
    assert_eq!(disk_reads(&cluster), 1, "misses must share one read");
    assert_eq!(
        coalesced_waits(&cluster),
        N as u64 - 1,
        "everyone else parks"
    );
    // The flight's insert populated the cache: one more request
    // is a pure hit, no new read.
    let extra = send_get(&cluster, target);
    assert_full_response(extra, &cluster, target, "post-flight");
    assert_eq!(disk_reads(&cluster), 1, "post-flight hit read disk");
    cluster.shutdown();
}

/// Requests that ride another request's lateral flight are served, so
/// they are counted: the cluster's summed `served` equals the requests
/// sent even when N concurrent lateral fetches of one target share one
/// peer round-trip. Recipe: T0 and T1 are homed on different nodes, the
/// node believed to cache T1 has its cache wiped (its lateral server
/// misses on the slow spindle), and extLARD never reads locally
/// (`disk_queue_low: 0`), so every `GET T0; GET T1` connection lands on
/// T0's node and fetches T1 laterally while the leader's fetch is out.
#[test]
fn lateral_flight_waiters_are_counted_as_served() {
    const N: usize = 4;
    let trace = corpus();
    let (t0, t1) = (TargetId(0), TargetId(1));
    let mut cfg = config(Duration::from_millis(300));
    cfg.nodes = 2;
    cfg.lard.disk_queue_low = 0;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    // Home T0, then T1 while T0's connection still loads its node.
    let mut hold = TcpStream::connect(cluster.frontend_addr()).expect("connect");
    hold.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let req = format!("GET {} HTTP/1.1\r\n\r\n", ContentStore::uri(t0));
    hold.write_all(req.as_bytes()).expect("write request");
    hold.read_exact(&mut [0u8; 64]).expect("T0 response");
    assert_full_response(send_get(&cluster, t1), &cluster, t1, "home T1");
    drop(hold);
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let mut home = [usize::MAX; 2];
    cluster
        .frontend()
        .mapping()
        .for_each_pair(|t, n| home[t.0 as usize] = n.0);
    assert_ne!(home[0], home[1], "T0 and T1 share a home");
    cluster.frontend().nodes()[home[1]].reset_cache();
    let streams: Vec<TcpStream> = (0..N)
        .map(|_| send_pipelined(&cluster, &[t0, t1]))
        .collect();
    for (i, mut s) in streams.into_iter().enumerate() {
        let mut wire = Vec::new();
        s.read_to_end(&mut wire).expect("read");
        assert!(
            wire.ends_with(&cluster.store().body(t1)),
            "conn {i}: T1 body mismatch"
        );
    }
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let stats = cluster.node_stats();
    let sum = |f: fn(&phttp_proto::NodeStatsSnapshot) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.lateral_out), 1, "one lateral flight");
    assert_eq!(sum(|s| s.coalesced_waits), N as u64 - 1, "the rest park");
    assert_eq!(sum(|s| s.served), 2 + 2 * N as u64, "every request counted");
    cluster.shutdown();
}

/// Satellite regression: a *waiter* whose connection dies mid-flight is
/// simply dropped — the flight completes for the survivors, the cache
/// gets its insert, and nothing leaks.
#[test]
fn waiter_death_mid_flight_leaks_nothing() {
    const N: usize = 5;
    let trace = corpus();
    let target = TargetId(1);
    let cluster =
        Cluster::start(config(Duration::from_millis(400)), &trace).expect("start cluster");
    let mut streams: Vec<TcpStream> = (0..N).map(|_| send_get(&cluster, target)).collect();
    // Everyone is registered on the flight (the read takes 400 ms);
    // now one racer dies. Index N-1 wrote last, so with the writes
    // serialized above it is a parked waiter, never the leader.
    std::thread::sleep(Duration::from_millis(100));
    drop(streams.pop().expect("the doomed waiter"));
    for (i, s) in streams.into_iter().enumerate() {
        assert_full_response(s, &cluster, target, &format!("survivor {i}"));
    }
    assert_eq!(disk_reads(&cluster), 1);
    // The dead waiter's connection state unwound (threads: its
    // handler observes the broken pipe after the flight completes;
    // reactor: the slab generation check drops its delivery).
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "dead waiter leaked its connection"
    );
    assert_eq!(cluster.frontend().active_connections(), 0);
    cluster.shutdown();
}

/// Satellite regression, leader edition: the connection that *started*
/// the flight dies mid-read. The read still completes, the cache is
/// still populated, and every parked waiter is still served.
#[test]
fn leader_death_mid_flight_still_serves_waiters() {
    const WAITERS: usize = 3;
    let trace = corpus();
    let target = TargetId(2);
    let cluster =
        Cluster::start(config(Duration::from_millis(400)), &trace).expect("start cluster");
    // The leader is deterministic: its request is in before anyone
    // else connects.
    let leader = send_get(&cluster, target);
    std::thread::sleep(Duration::from_millis(100));
    let waiters: Vec<TcpStream> = (0..WAITERS).map(|_| send_get(&cluster, target)).collect();
    std::thread::sleep(Duration::from_millis(100));
    drop(leader);
    for (i, s) in waiters.into_iter().enumerate() {
        assert_full_response(s, &cluster, target, &format!("waiter {i}"));
    }
    assert_eq!(disk_reads(&cluster), 1);
    assert_eq!(
        coalesced_waits(&cluster),
        WAITERS as u64,
        "every late racer must have parked on the doomed leader"
    );
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "dead leader leaked its connection"
    );
    cluster.shutdown();
}

/// GreedyDual is a drop-in eviction policy for the live cluster: under
/// churn with single-flight misses, every response stays byte-exact and the
/// cache-feedback mirror still replays the journal exactly (divergence
/// converges to 0) — victim selection changed, journaling did not.
#[test]
fn greedy_dual_serves_and_stays_coherent() {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 300;
    synth.num_pages = 100;
    let trace = generate(&synth);
    let workload = reconstruct(&trace, SessionConfig::default());
    let cfg = ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        cache_bytes: 384 * 1024, // far below the working set: churn
        disk: DiskEmu {
            seek: Duration::from_micros(300),
            bytes_per_sec: 200.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(5),
        cache_policy: EvictPolicy::GreedyDual,
        feedback_interval: Duration::from_millis(2),
        ..ProtoConfig::default()
    };
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 8,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "byte-exactness broke under GreedyDual");
    assert_eq!(report.requests as usize, trace.len());
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut snap = cluster.frontend().coherence();
    while snap.divergence != 0 && std::time::Instant::now() < deadline {
        cluster.flush_feedback();
        std::thread::sleep(Duration::from_millis(2));
        snap = cluster.frontend().coherence();
    }
    assert_eq!(
        snap.divergence, 0,
        "GreedyDual victim journaling desynced the mirror ({snap:?})"
    );
    assert!(snap.stale_removed > 0, "churn must shed beliefs");
    cluster.shutdown();
}
