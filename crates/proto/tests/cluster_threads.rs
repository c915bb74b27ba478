//! The reactor shards are the only threads a cluster runs: starting one
//! adds exactly `reactor_shards` threads, joining and rejoining nodes
//! adds none (their control sessions are drained by the shards, like
//! the sessions opened at start), the breakers' cooldown ticks run on
//! shard 0, a front-end tier adds none either (shard 0 delivers its
//! gossip), and shutdown takes every thread back.
//!
//! This binary holds one test on purpose: it counts the threads of the
//! whole process (`/proc/self/task`), which a second test running
//! beside it would disturb.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use phttp_core::{HealthState, NodeId};
use phttp_http::ResponseParser;
use phttp_proto::{Cluster, ProtoConfig};
use phttp_trace::{ClientId, Request, TargetId, Trace};

const SHARDS: usize = 2;
const TARGETS: u32 = 32;
/// The standby slot the test joins, kills and rejoins.
const STANDBY: usize = 2;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Polls `cond` for up to two seconds: a thread's task entry can
/// outlive its join by a moment, and a handed-over session is read
/// only once its shard wakes.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Sends every target as one pipelined batch on a fresh connection and
/// checks each response body against the store.
fn serve_verified_batch(cluster: &Cluster) {
    let store = cluster.store();
    let mut stream = TcpStream::connect(cluster.frontend_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let wire: String = (0..TARGETS)
        .map(|t| format!("GET /t/{t} HTTP/1.1\r\n\r\n"))
        .collect();
    stream.write_all(wire.as_bytes()).unwrap();
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 16 * 1024];
    for t in 0..TARGETS {
        let resp = loop {
            if let Some(resp) = parser.next().expect("parse response") {
                break resp;
            }
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-batch");
            parser.feed(&buf[..n]);
        };
        assert_eq!(resp.status, 200);
        assert!(
            store.verify(TargetId(t), &resp.body),
            "corrupt body for target {t}"
        );
    }
}

#[test]
fn the_reactor_shards_are_the_only_threads_a_cluster_runs() {
    let requests = (0..TARGETS)
        .map(|t| Request {
            time: phttp_simcore::SimTime::from_micros(t as u64),
            client: ClientId(0),
            target: TargetId(t),
        })
        .collect();
    let trace = Trace::new(requests, vec![2048; TARGETS as usize]);
    let config = ProtoConfig {
        nodes: 2,
        standby_nodes: 1,
        reactor_shards: SHARDS,
        cache_feedback: true,
        health_tick_interval: Duration::from_millis(10),
        ..ProtoConfig::default()
    };

    let before = threads();
    let cluster = Cluster::start(config, &trace).expect("start cluster");
    let running = before + SHARDS;
    assert!(
        eventually(|| threads() == running),
        "start must add exactly the {SHARDS} reactor shards: {} threads, {before} before",
        threads()
    );
    serve_verified_batch(&cluster);

    // After each membership change the standby's breaker closes on every
    // front-end (its new session was read), a batch serves, and the
    // thread count has not moved.
    let settled = |step: &str| {
        assert!(
            eventually(|| cluster
                .front_ends()
                .iter()
                .all(|fe| fe.health().state(NodeId(STANDBY)) == HealthState::Closed)),
            "{step}: the node's session was never read"
        );
        serve_verified_batch(&cluster);
        assert!(
            eventually(|| threads() == running),
            "{step} added threads: {} running, {running} expected",
            threads()
        );
    };
    assert!(cluster.join_node(STANDBY), "join the standby slot");
    settled("join");
    assert!(cluster.kill_node(STANDBY), "kill after join");
    assert!(cluster.rejoin_node_warm(STANDBY), "warm rejoin");
    settled("warm rejoin");
    assert!(cluster.kill_node(STANDBY), "kill after warm rejoin");
    assert!(cluster.rejoin_node_cold(STANDBY), "cold rejoin");
    settled("cold rejoin");

    cluster.shutdown();
    assert!(
        eventually(|| threads() == before),
        "shutdown must take back every thread it started: {} running, {before} before",
        threads()
    );

    // A tier of three front-ends: its admission links and its gossip
    // mesh all run on the shards.
    let tier = ProtoConfig {
        nodes: 2,
        reactor_shards: SHARDS,
        front_ends: 3,
        ..ProtoConfig::default()
    };
    let cluster = Cluster::start(tier, &trace).expect("start tier cluster");
    assert!(
        eventually(|| threads() == running),
        "a tier must add only the {SHARDS} reactor shards: {} threads, {before} before",
        threads()
    );
    let vip = cluster.vip().expect("front_ends > 1 builds a Vip");
    let seqs: Vec<u64> = (0..3).map(|f| vip.gossip_seq(f)).collect();
    assert!(
        eventually(|| (0..3).all(|f| vip.gossip_seq(f) > seqs[f])),
        "a front-end stopped gossiping: {seqs:?} then {:?}",
        (0..3).map(|f| vip.gossip_seq(f)).collect::<Vec<_>>()
    );
    // Load on front-end 0 reaches front-end 1 over the wire, not
    // through `sync_now`.
    let fes = cluster.front_ends();
    let c = fes[0].alloc_conn();
    fes[0].open_connection(c, TargetId(0));
    assert!(
        eventually(|| fes[1].loads().iter().sum::<f64>() > 0.0),
        "front-end 1 never saw front-end 0's load"
    );
    fes[0].close_connection(c);
    serve_verified_batch(&cluster);
    cluster.shutdown();
    assert!(
        eventually(|| threads() == before),
        "tier shutdown must take back every thread it started: {} running, {before} before",
        threads()
    );
}
