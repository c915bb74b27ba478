//! Control-plane failure handling: a node whose control session dies
//! unexpectedly is decommissioned for mapping purposes (its believed
//! mappings evicted — exactly its, nobody else's), while a clean
//! `Cluster::shutdown`'s quiescent-flush EOF evicts nothing. Plus the
//! lateral data-path failure mode: a peer's lateral server crashing
//! mid-fetch must degrade that fetch to local service — the client
//! still receives complete, correctly-ordered, byte-exact responses.

use std::time::{Duration, Instant};

use phttp_core::{NodeId, PolicyKind};
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, LoadConfig, ProtoConfig};
use phttp_trace::{generate, reconstruct, SessionConfig, SynthConfig};

fn tiny_trace() -> phttp_trace::Trace {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 150;
    synth.num_pages = 60;
    generate(&synth)
}

/// Reactor shard count for this run (`PHTTP_REACTOR_SHARDS`).
fn reactor_shards() -> usize {
    std::env::var("PHTTP_REACTOR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn config() -> ProtoConfig {
    ProtoConfig {
        nodes: 3,
        policy: PolicyKind::ExtLard,
        cache_bytes: 1024 * 1024,
        disk: DiskEmu {
            seek: Duration::from_micros(300),
            bytes_per_sec: 200.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(5),
        reactor_shards: reactor_shards(),
        ..ProtoConfig::default()
    }
}

/// Believed `(target, node)` pairs per node.
fn pairs_per_node(fe: &phttp_proto::FrontEnd, nodes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; nodes];
    fe.mapping().for_each_pair(|_, n| counts[n.0] += 1);
    counts
}

#[test]
fn control_eof_evicts_exactly_the_dead_node() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let cluster = Cluster::start(config(), &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0);
    // Traffic fully unwound before the failure is injected, so no
    // in-flight decision can re-map the victim afterwards.
    assert!(cluster.quiesce(Duration::from_secs(10)));
    let fe = cluster.frontend_shared();
    let before = pairs_per_node(&fe, 3);
    assert!(
        before.iter().all(|&c| c > 0),
        "workload must leave every node mapped, got {before:?}"
    );
    assert_eq!(fe.node_evictions(), 0, "premature eviction");

    // Kill node 1's control stream from the node side — the FIN
    // reaches the front-end's reader/registered source as an EOF
    // while the stop flag is down: a crash, not a shutdown.
    let victim = NodeId(1);
    cluster.frontend().nodes()[victim.0].close_control();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fe.node_evictions() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fe.node_evictions(), 1, "EOF never evicted");

    let after = pairs_per_node(&fe, 3);
    assert_eq!(after[victim.0], 0, "victim mappings survive");
    assert_eq!(after[0], before[0], "eviction bled into node 0's mappings");
    assert_eq!(after[2], before[2], "eviction bled into node 2's mappings");

    // The cluster is still serviceable after the decommission (the
    // victim's listeners run on; only its mapping belief is gone).
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 4,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "cluster broken after eviction");

    cluster.shutdown();
    assert_eq!(
        fe.node_evictions(),
        1,
        "clean shutdown must not evict the remaining nodes"
    );
}

#[test]
fn clean_shutdown_evicts_nothing() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let cluster = Cluster::start(config(), &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0);
    let fe = cluster.frontend_shared();
    // The quiescent-flush EOFs of an orderly teardown must be
    // distinguished from crash EOFs: zero evictions, and the
    // surviving belief is intact for inspection.
    let before = pairs_per_node(&fe, 3);
    cluster.shutdown();
    assert_eq!(fe.node_evictions(), 0, "shutdown evicted a node");
    assert_eq!(
        pairs_per_node(&fe, 3),
        before,
        "shutdown disturbed the mapping belief"
    );
}

/// The ISSUE's lateral-failure regression: a peer's lateral server is
/// killed mid-fetch (it reads the request, then dies without
/// responding). The fetching handler must observe the EOF and fall back
/// to serving locally — the awaiting pipeline slot resolves, ordering
/// holds, and the verifying client sees every response byte-exact.
#[test]
fn lateral_server_crash_mid_fetch_falls_back_locally() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    // The lateral-pressure recipe: slow disks and small caches so
    // extLARD actually forwards.
    let mut cfg = config();
    cfg.disk = DiskEmu {
        seek: Duration::from_millis(2),
        bytes_per_sec: 40.0 * 1024.0 * 1024.0,
    };
    cfg.cache_bytes = 512 * 1024;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    const FAULTS_PER_NODE: u64 = 3;
    for node in cluster.frontend().nodes() {
        node.inject_lateral_faults(FAULTS_PER_NODE);
    }
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 12,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    // Every response arrived, in order, byte-exact (run_load
    // verifies against the store) — no fetch was stranded on the
    // murdered peer connections.
    assert_eq!(report.errors, 0, "a client saw a bad response");
    assert_eq!(report.requests as usize, trace.len());
    let pending: u64 = cluster
        .frontend()
        .nodes()
        .iter()
        .map(|n| n.pending_lateral_faults())
        .sum();
    assert!(
        pending < 3 * FAULTS_PER_NODE,
        "no lateral server was ever killed — the regression \
         path did not run (pending={pending})"
    );
    let lateral: u64 = cluster.node_stats().iter().map(|s| s.lateral_out).sum();
    assert!(lateral > 0, "no laterals at all");
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "a stranded pipeline slot leaked its connection"
    );
    cluster.shutdown();
}

/// The coalescing variant of the lateral-crash regression: with
/// single-flight on, a killed lateral server fails the flight *leader*,
/// and every request parked on that flight must fail over to local
/// service with it — a waiter has no fetch of its own to fall back
/// from, so a leader-only fallback would strand it forever. Very slow
/// disks widen the in-flight window so flights actually accumulate
/// waiters before the fault lands.
#[test]
fn lateral_crash_under_coalescing_fails_over_every_waiter() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let mut cfg = config();
    cfg.disk = DiskEmu {
        seek: Duration::from_millis(8),
        bytes_per_sec: 20.0 * 1024.0 * 1024.0,
    };
    cfg.cache_bytes = 512 * 1024;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    const FAULTS_PER_NODE: u64 = 3;
    for node in cluster.frontend().nodes() {
        node.inject_lateral_faults(FAULTS_PER_NODE);
    }
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 12,
            protocol: ClientProtocol::PHttp,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "a client saw a bad response");
    assert_eq!(report.requests as usize, trace.len());
    let pending: u64 = cluster
        .frontend()
        .nodes()
        .iter()
        .map(|n| n.pending_lateral_faults())
        .sum();
    assert!(
        pending < 3 * FAULTS_PER_NODE,
        "no lateral server was ever killed under coalescing \
         (pending={pending})"
    );
    let stats = cluster.node_stats();
    let lateral: u64 = stats.iter().map(|s| s.lateral_out).sum();
    assert!(lateral > 0, "no laterals at all");
    // A stranded waiter would hold its connection open past the
    // load generator's exit; quiescence proves none did.
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "a parked waiter leaked its connection"
    );
    cluster.shutdown();
}
