//! Refcount hygiene: after a reactor soak under concurrent large-body
//! load — including a chaos kill/rejoin round that aborts lateral
//! streams mid-flight — every cached body slice's strong count returns
//! to **exactly 1** (the cache as sole owner).
//!
//! This is the leak detector for the zero-copy data path. Every serve
//! clones the cached `Bytes` handle into a staging queue; peer-serving
//! pipelines clone it again; aborted splices and killed connections
//! drop theirs on teardown. A single forgotten clone — a staging entry
//! that survives its connection, a peer session that parks a chunk, a
//! flight table that keeps a fallback body — shows up here as a strong
//! count stuck above 1 on an idle node. The gauge check rides along:
//! `pending_body_bytes` must be observably nonzero *during* the soak
//! (multi-MiB bodies against HIGH_WATER guarantee staging backlog) and
//! exactly zero after it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use phttp_core::PolicyKind;
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, LoadConfig, ProtoConfig};
use phttp_simcore::SimTime;
use phttp_trace::{reconstruct, ClientId, SessionConfig, TargetId, Trace};

const MIB: u64 = 1024 * 1024;

/// Large-body workload: bodies up to 2 MiB so staged slices are meaty
/// and lateral fetches stream in many chunks.
fn workload() -> (Trace, phttp_trace::ConnectionTrace) {
    let sizes = vec![2 * MIB, MIB, 768 * 1024, 512 * 1024, 128 * 1024, 4096];
    let mut requests = Vec::new();
    for c in 0..8u32 {
        for k in 0..6u64 {
            requests.push(phttp_trace::Request {
                time: SimTime::from_millis(c as u64 * 11 + k * 100),
                client: ClientId(c),
                target: TargetId(((c as u64 + k * 5) % sizes.len() as u64) as u32),
            });
        }
    }
    let trace = Trace::new(requests, sizes);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

#[test]
fn cached_slices_return_to_refcount_one_after_soak_and_churn() {
    let (trace, conns) = workload();
    let cluster = Cluster::start(
        ProtoConfig {
            nodes: 3,
            policy: PolicyKind::ExtLard,
            cache_bytes: 4 * MIB,
            disk: DiskEmu {
                seek: Duration::from_micros(500),
                bytes_per_sec: 300.0 * MIB as f64,
            },
            cache_feedback: true,
            feedback_interval: Duration::from_millis(10),
            health_tick_interval: Duration::from_millis(10),
            read_timeout: Duration::from_secs(5),
            reactor_shards: 2,
            ..ProtoConfig::default()
        },
        &trace,
    )
    .expect("start cluster");
    let stats = cluster.reactor_stats().expect("reactor mode");

    // Soak: continuous verifying load while the gauge watcher samples
    // and the churn schedule kills and rejoins nodes under it.
    let stop = AtomicBool::new(false);
    let errors = AtomicUsize::new(0);
    let gauge_peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let report = run_load(
                    cluster.frontend_addrs(),
                    cluster.store(),
                    &conns,
                    &LoadConfig {
                        clients: 8,
                        protocol: ClientProtocol::PHttp,
                        ..LoadConfig::default()
                    },
                );
                errors.fetch_add(report.errors as usize, Ordering::Relaxed);
            }
        });
        scope.spawn(|| {
            // Sample the staging gauge while load runs: multi-MiB
            // bodies queued against HIGH_WATER must make it visibly
            // nonzero at some instant.
            while !stop.load(Ordering::Relaxed) {
                gauge_peak.fetch_max(stats.pending_body_bytes(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        // Chaos round: kill a node mid-stream (aborting its in-flight
        // lateral splices), let the load observe the gap, rejoin; then
        // once more with a cold replacement.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            cluster.kill_node(1),
            "kill of node 1 never tripped breakers"
        );
        std::thread::sleep(Duration::from_millis(150));
        assert!(cluster.rejoin_node_warm(1), "warm rejoin failed");
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            cluster.kill_node(2),
            "kill of node 2 never tripped breakers"
        );
        std::thread::sleep(Duration::from_millis(150));
        assert!(cluster.rejoin_node_cold(2), "cold rejoin failed");
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "soak saw transport errors or corrupt bodies"
    );
    assert!(
        gauge_peak.load(Ordering::Relaxed) > 0,
        "pending_body_bytes never rose during a multi-MiB soak — the gauge is dead"
    );

    assert!(
        cluster.quiesce(Duration::from_secs(15)),
        "connections leaked after soak"
    );

    // The audit. Write-out queues, peer pipelines, and flight tables all
    // drop their clones on teardown, but teardown lags the last client
    // close (aborted peer streams unwind on their own error path), so
    // poll to the fixed point before judging.
    let nodes = cluster.frontend().nodes().to_vec();
    let deadline = Instant::now() + Duration::from_secs(10);
    let leaked = loop {
        let leaked: Vec<(usize, TargetId, usize)> = nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| {
                n.cached_body_refcounts()
                    .into_iter()
                    .filter(|&(_, c)| c != 1)
                    .map(move |(t, c)| (i, t, c))
            })
            .collect();
        if leaked.is_empty() || Instant::now() >= deadline {
            break leaked;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        leaked.is_empty(),
        "cached body slices leaked handles (node, target, strong_count): {leaked:?}"
    );
    // Not vacuous: the soak left real entries behind to audit.
    let cached: usize = nodes.iter().map(|n| n.cached_body_refcounts().len()).sum();
    assert!(
        cached > 0,
        "no cached bodies survived the soak — audit saw nothing"
    );
    assert_eq!(
        stats.pending_body_bytes(),
        0,
        "staging gauge nonzero on an idle cluster"
    );
    cluster.shutdown();
}
