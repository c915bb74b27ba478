//! End-to-end tests of the live loopback cluster: byte-exact responses,
//! policy-visible distribution behaviour, and clean shutdown.
//!
//! `PHTTP_REACTOR_SHARDS=N` sets the reactor's shard count (CI adds a
//! 2-shard leg; the default is 1). `PHTTP_FRONT_ENDS=N` runs every
//! cluster as an N-front-end tier behind the VIP (CI adds an `N=2`
//! leg; responses are a pure function of target and HTTP version, so
//! bytes must again be identical whichever front-end admits each
//! connection).

use std::time::Duration;

use phttp_core::PolicyKind;
use phttp_proto::{run_load, ClientProtocol, Cluster, DiskEmu, LoadConfig, ProtoConfig};
use phttp_trace::{generate, http10_connections, reconstruct, SessionConfig, SynthConfig};

fn tiny_trace() -> phttp_trace::Trace {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 150;
    synth.num_pages = 60;
    generate(&synth)
}

fn fast_disk() -> DiskEmu {
    DiskEmu {
        seek: Duration::from_micros(300),
        bytes_per_sec: 200.0 * 1024.0 * 1024.0,
    }
}

/// Reactor shard count for this run (`PHTTP_REACTOR_SHARDS`).
fn reactor_shards() -> usize {
    std::env::var("PHTTP_REACTOR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Front-end tier size for this run (`PHTTP_FRONT_ENDS=N`; CI adds an
/// `N=2` leg so the whole suite also regresses the VIP
/// admission, gossip, and per-front-end dispatch paths; the default of
/// 1 is the tierless single-front-end cluster).
fn front_ends() -> usize {
    std::env::var("PHTTP_FRONT_ENDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn config(policy: PolicyKind, nodes: usize) -> ProtoConfig {
    ProtoConfig {
        nodes,
        policy,
        cache_bytes: 1024 * 1024,
        disk: fast_disk(),
        read_timeout: Duration::from_secs(5),
        reactor_shards: reactor_shards(),
        front_ends: front_ends(),
        ..ProtoConfig::default()
    }
}

#[test]
fn phttp_serves_every_request_byte_exact() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let cluster = Cluster::start(config(PolicyKind::ExtLard, 3), &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0, "verification failures");
    assert_eq!(report.requests as usize, trace.len());
    assert_eq!(report.connections as usize, workload.connections.len());
    // The cluster served everything the clients received. A lateral fetch
    // that times out under load falls back to local service, which can
    // legitimately count a request twice — allow a whisker of slack.
    let served: u64 = cluster.node_stats().iter().map(|s| s.served).sum();
    assert!(served >= trace.len() as u64);
    assert!(served <= trace.len() as u64 + 8, "served={served}");
    // All policy connection state was torn down (handlers observe the
    // clients' EOFs asynchronously, so wait for quiescence first).
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connections leaked"
    );
    assert_eq!(cluster.frontend().active_connections(), 0);
    cluster.shutdown();
}

#[test]
fn http10_mode_works_on_every_policy() {
    let trace = tiny_trace();
    let workload = http10_connections(&trace);
    for policy in [PolicyKind::Wrr, PolicyKind::Lard] {
        let cluster = Cluster::start(config(policy, 2), &trace).expect("start cluster");
        let report = run_load(
            cluster.frontend_addrs(),
            cluster.store(),
            &workload,
            &LoadConfig {
                clients: 8,
                protocol: ClientProtocol::Http10,
                ..LoadConfig::default()
            },
        );
        assert_eq!(report.errors, 0, "{policy:?}");
        assert_eq!(report.requests as usize, trace.len(), "{policy:?}");
        cluster.shutdown();
    }
}

#[test]
fn wrr_spreads_but_lard_concentrates_targets() {
    let trace = tiny_trace();
    let workload = http10_connections(&trace);

    // WRR: every node should see a similar number of requests.
    let cluster = Cluster::start(config(PolicyKind::Wrr, 3), &trace).expect("start cluster");
    let _ = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 6,
            protocol: ClientProtocol::Http10,
            ..LoadConfig::default()
        },
    );
    let wrr_stats = cluster.node_stats();
    cluster.shutdown();
    let served: Vec<u64> = wrr_stats.iter().map(|s| s.served).collect();
    let max = *served.iter().max().unwrap() as f64;
    let min = *served.iter().min().unwrap() as f64;
    assert!(min / max > 0.5, "WRR petered out unevenly: {served:?}");

    // LARD: better aggregate hit rate than WRR on the same workload (cache
    // aggregation), since per-node caches are much smaller than the corpus.
    let cluster = Cluster::start(config(PolicyKind::Lard, 3), &trace).expect("start cluster");
    let _ = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 6,
            protocol: ClientProtocol::Http10,
            ..LoadConfig::default()
        },
    );
    let lard_stats = cluster.node_stats();
    cluster.shutdown();
    let hit = |st: &[phttp_proto::NodeStatsSnapshot]| {
        let h: u64 = st.iter().map(|s| s.hits).sum();
        let r: u64 = st.iter().map(|s| s.served).sum();
        h as f64 / r as f64
    };
    assert!(
        hit(&lard_stats) > hit(&wrr_stats),
        "LARD hit rate {:.3} must beat WRR {:.3}",
        hit(&lard_stats),
        hit(&wrr_stats)
    );
}

#[test]
fn ext_lard_uses_lateral_fetches_under_pressure() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    // Slow disk so queues build and the policy prefers forwarding.
    let mut cfg = config(PolicyKind::ExtLard, 3);
    cfg.disk = DiskEmu {
        seek: Duration::from_millis(2),
        bytes_per_sec: 40.0 * 1024.0 * 1024.0,
    };
    cfg.cache_bytes = 512 * 1024;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0);
    let stats = cluster.node_stats();
    let lateral: u64 = stats.iter().map(|s| s.lateral_out).sum();
    let lateral_in: u64 = stats.iter().map(|s| s.lateral_in).sum();
    assert!(lateral > 0, "extended LARD never forwarded");
    // Every lateral fetch that reached a peer has a server side; the
    // few that fail (e.g. a pooled stream the peer timed out) degrade
    // to local service instead.
    assert!(lateral >= lateral_in, "peers served fetches nobody issued");
    assert!(
        lateral_in + 8 >= lateral,
        "too many fetches fell back locally: out={lateral} in={lateral_in}"
    );
    cluster.shutdown();
}

#[test]
fn single_node_cluster_works() {
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let cluster = Cluster::start(config(PolicyKind::ExtLard, 1), &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0);
    let stats = cluster.node_stats();
    assert_eq!(stats[0].lateral_out, 0, "nowhere to forward with one node");
    cluster.shutdown();
}

#[test]
fn unknown_uri_gets_404_without_breaking_connection() {
    use std::io::{Read, Write};
    let trace = tiny_trace();
    let cluster = Cluster::start(config(PolicyKind::ExtLard, 2), &trace).expect("start cluster");
    let mut stream = std::net::TcpStream::connect(cluster.frontend_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // A valid first request (handoff needs a real target), then a bogus one.
    stream.write_all(b"GET /t/0 HTTP/1.1\r\n\r\n").unwrap();
    let mut parser = phttp_http::ResponseParser::new();
    let mut buf = [0u8; 8192];
    let mut responses = Vec::new();
    while responses.is_empty() {
        let n = stream.read(&mut buf).unwrap();
        parser.feed(&buf[..n]);
        while let Some(r) = parser.next().unwrap() {
            responses.push(r.status);
        }
    }
    stream
        .write_all(b"GET /no/such/thing HTTP/1.1\r\n\r\nGET /t/1 HTTP/1.1\r\n\r\n")
        .unwrap();
    while responses.len() < 3 {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed early");
        parser.feed(&buf[..n]);
        while let Some(r) = parser.next().unwrap() {
            responses.push(r.status);
        }
    }
    assert_eq!(responses, vec![200, 404, 200]);
    cluster.shutdown();
}

/// A client may legitimately half-close (shutdown its write side) right
/// after its last pipelined request, so the FIN arrives in the same
/// readiness window as the request bytes. The cluster must serve
/// everything received before the EOF — the reactor must not let the
/// EOF flag suppress requests its parser already holds.
#[test]
fn half_close_after_last_request_is_still_served() {
    use std::io::{Read, Write};
    let trace = tiny_trace();
    let cluster = Cluster::start(config(PolicyKind::ExtLard, 2), &trace).expect("start cluster");
    let mut stream = std::net::TcpStream::connect(cluster.frontend_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /t/0 HTTP/1.1\r\n\r\nGET /t/1 HTTP/1.1\r\n\r\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut parser = phttp_http::ResponseParser::new();
    let mut buf = [0u8; 32 * 1024];
    let mut statuses = Vec::new();
    loop {
        while let Some(r) = parser.next().unwrap() {
            statuses.push(r.status);
        }
        if statuses.len() >= 2 {
            break;
        }
        let n = stream
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("read after half-close failed: {e}"));
        assert!(
            n > 0,
            "server closed after {} of 2 responses",
            statuses.len()
        );
        parser.feed(&buf[..n]);
    }
    assert_eq!(statuses, vec![200, 200]);
    // Having served everything, the server closes its side too.
    let n = stream.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server kept a half-closed connection open");
    cluster.shutdown();
}

/// A client that pipelines hundreds of requests before reading a single
/// response. The reactor must backpressure (pause reading once the
/// unanswered pipeline or staged bytes hit their bounds) instead of
/// buffering every response, and still serve the whole pipeline
/// correctly once the client starts draining; the thread model gets the
/// same bound from its blocking per-response write.
#[test]
fn pipelining_without_reading_is_backpressured_not_unbounded() {
    use std::io::{Read, Write};
    // Small fixed corpus of 16 KiB documents: 600 responses ≈ 9.4 MiB,
    // far beyond what kernel socket buffers can absorb, so the server
    // must actually pause mid-pipeline.
    const DOC: usize = 16 * 1024;
    const N: usize = 600;
    let trace = phttp_trace::Trace::new(Vec::new(), vec![DOC as u64; 4]);
    let cluster = Cluster::start(config(PolicyKind::ExtLard, 2), &trace).expect("start cluster");
    let mut stream = std::net::TcpStream::connect(cluster.frontend_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Writer thread: floods the pipeline without reading; it blocks
    // once the server backpressures and resumes as we drain below.
    let flood = std::thread::spawn(move || {
        // Padded requests so the pipeline spans many socket reads.
        let req = format!("GET /t/1 HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(160));
        for _ in 0..N {
            writer.write_all(req.as_bytes()).unwrap();
        }
    });
    let mut parser = phttp_http::ResponseParser::new();
    let mut buf = [0u8; 32 * 1024];
    let mut got = 0;
    while got < N {
        if let Some(resp) = parser.next().unwrap() {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body.len(), DOC);
            got += 1;
            continue;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed after {got}/{N} responses");
        parser.feed(&buf[..n]);
    }
    flood.join().unwrap();
    drop(stream);
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connection leaked"
    );
    cluster.shutdown();
}

#[test]
fn simulator_only_mechanism_is_a_config_error_not_a_panic() {
    use phttp_core::Mechanism;
    let trace = tiny_trace();
    for mech in [Mechanism::RelayingFrontend, Mechanism::ZeroCost] {
        let mut cfg = config(PolicyKind::ExtLard, 2);
        cfg.mechanism = mech;
        let err = match Cluster::start(cfg, &trace) {
            Err(e) => e,
            Ok(cluster) => {
                cluster.shutdown();
                panic!("{mech} must be refused as simulator-only");
            }
        };
        assert_eq!(err, phttp_proto::ConfigError::UnsupportedMechanism(mech));
    }
}

/// The PR 2 pattern extended to the sharding knobs: misconfigurations
/// must surface as `ConfigError`s from `Cluster::start`, not panics or
/// silent misbehaviour.
#[test]
fn bad_shard_and_pool_configs_are_errors() {
    use phttp_proto::ConfigError;
    let trace = tiny_trace();
    let check = |mutate: &dyn Fn(&mut ProtoConfig), want: ConfigError| {
        let mut cfg = config(PolicyKind::ExtLard, 2);
        mutate(&mut cfg);
        match Cluster::start(cfg, &trace) {
            Err(e) => assert_eq!(e, want),
            Ok(cluster) => {
                cluster.shutdown();
                panic!("{want:?} must be refused");
            }
        }
    };
    // A reactor with zero event loops can serve nothing.
    check(&|c| c.reactor_shards = 0, ConfigError::ZeroReactorShards);
    // A zero-capacity peer pool silently degrades every lateral fetch
    // to a fresh dial; refuse it up front.
    check(&|c| c.peer_pool_cap = 0, ConfigError::ZeroPeerPoolCap);
    // The error messages are self-describing.
    assert!(ConfigError::ZeroReactorShards
        .to_string()
        .contains("at least 1"));
    assert!(ConfigError::ZeroPeerPoolCap
        .to_string()
        .contains("peer_pool_cap"));
}

#[test]
fn oversized_corpus_document_is_a_config_error() {
    // A document past the HTTP parsers' MAX_BODY bound would be served
    // but never parsed by the cluster's own clients or lateral fetches;
    // Cluster::start must refuse it up front.
    let size = phttp_http::MAX_BODY as u64 + 1;
    let trace = phttp_trace::Trace::new(Vec::new(), vec![1024, size]);
    let err = match Cluster::start(config(PolicyKind::Wrr, 2), &trace) {
        Err(e) => e,
        Ok(cluster) => {
            cluster.shutdown();
            panic!("oversized corpus must be refused");
        }
    };
    assert_eq!(
        err,
        phttp_proto::ConfigError::TargetExceedsBodyLimit { size }
    );
}

#[test]
fn shutdown_is_clean_with_no_traffic() {
    let trace = tiny_trace();
    let cluster = Cluster::start(config(PolicyKind::Wrr, 2), &trace).expect("start cluster");
    cluster.shutdown();
}

/// The teardown-race scenario: a client connection is still **open**
/// (no EOF, no timeout) when the cluster shuts down. The reactor must
/// not wait for the socket — shutdown wakes the poller, drains every
/// registered connection, and unwinds its dispatcher state before the
/// loop thread exits.
#[test]
fn shutdown_drains_open_connections() {
    use std::io::{Read, Write};
    let trace = tiny_trace();
    let mut cfg = config(PolicyKind::ExtLard, 2);
    // A long read timeout: if shutdown waited for it, this test would
    // blow the suite's time budget rather than pass by accident.
    cfg.read_timeout = Duration::from_secs(300);
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
    let fe = cluster.frontend_shared();

    // One served request on a connection we then hold open.
    let mut stream = std::net::TcpStream::connect(cluster.frontend_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /t/0 HTTP/1.1\r\n\r\n").unwrap();
    let mut parser = phttp_http::ResponseParser::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before responding");
        parser.feed(&buf[..n]);
        if parser.next().unwrap().is_some() {
            break;
        }
    }
    assert_eq!(fe.active_connections(), 1);

    let start = std::time::Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "shutdown waited on an open connection"
    );
    assert_eq!(
        fe.active_connections(),
        0,
        "shutdown leaked dispatcher connection state"
    );
    drop(stream);
}

#[test]
fn multiple_handoff_migrates_and_serves_correctly() {
    use phttp_core::Mechanism;
    let trace = tiny_trace();
    let workload = reconstruct(&trace, SessionConfig::default());
    let mut cfg = config(PolicyKind::ExtLard, 3);
    cfg.mechanism = Mechanism::MultipleHandoff;
    // Busy disks push the policy toward moving requests.
    cfg.disk = DiskEmu {
        seek: Duration::from_millis(2),
        bytes_per_sec: 40.0 * 1024.0 * 1024.0,
    };
    cfg.cache_bytes = 512 * 1024;
    let cluster = Cluster::start(cfg, &trace).expect("start cluster");
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
    assert_eq!(report.errors, 0);
    assert_eq!(report.requests as usize, trace.len());
    let stats = cluster.node_stats();
    let migrations: u64 = stats.iter().map(|s| s.migrations_in).sum();
    let laterals: u64 = stats.iter().map(|s| s.lateral_out).sum();
    assert!(migrations > 0, "multiple handoff never migrated");
    assert_eq!(laterals, 0, "migration mechanism must not fetch laterally");
    // Policy state fully unwound despite mid-connection re-homing.
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connections leaked"
    );
    assert_eq!(cluster.frontend().active_connections(), 0);
    cluster.shutdown();
}

/// One reactor node whose every target is a 1 KiB cold miss on a 300 µs
/// disk, and a client connection to it.
fn cold_miss_cluster(misses: u32) -> (Cluster, std::net::TcpStream) {
    let requests = (0..misses)
        .map(|t| phttp_trace::Request {
            time: phttp_simcore::SimTime::from_micros(t as u64),
            client: phttp_trace::ClientId(0),
            target: phttp_trace::TargetId(t),
        })
        .collect();
    let trace = phttp_trace::Trace::new(requests, vec![1024; misses as usize]);
    let cluster = Cluster::start(
        ProtoConfig {
            nodes: 1,
            cache_bytes: 8 * 1024 * 1024,
            disk: fast_disk(),
            ..ProtoConfig::default()
        },
        &trace,
    )
    .expect("start cluster");
    let stream = std::net::TcpStream::connect(cluster.frontend_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    (cluster, stream)
}

/// Reads `n` 200 responses off `stream`.
fn read_ok_responses(
    stream: &mut std::net::TcpStream,
    parser: &mut phttp_http::ResponseParser,
    n: u32,
) {
    use std::io::Read;
    let mut buf = [0u8; 8192];
    let mut got = 0;
    while got < n {
        if let Some(resp) = parser.next().expect("parse response") {
            assert_eq!(resp.status, 200);
            got += 1;
            continue;
        }
        let read = stream.read(&mut buf).expect("read response");
        assert!(read > 0, "server closed early");
        parser.feed(&buf[..read]);
    }
}

/// Reactor deadlines are honoured to the microsecond, not rounded up to
/// the poller's old whole-millisecond granularity: 40 cold misses in a
/// row, each a 300 µs emulated disk read with nothing else going on in
/// the loop, take ~40 × 0.3 ms — under the 40 × 1 ms a millisecond
/// floor on the poll timeout would cost.
#[test]
fn reactor_disk_deadlines_are_sub_millisecond() {
    use std::io::Write;
    const MISSES: u32 = 40;
    let (cluster, mut stream) = cold_miss_cluster(MISSES);
    let mut parser = phttp_http::ResponseParser::new();
    let started = std::time::Instant::now();
    for t in 0..MISSES {
        write!(stream, "GET /t/{t} HTTP/1.1\r\n\r\n").unwrap();
        read_ok_responses(&mut stream, &mut parser, 1);
    }
    let took = started.elapsed();
    let reads: u64 = cluster.node_stats().iter().map(|s| s.disk_reads).sum();
    assert_eq!(reads, MISSES as u64, "every request must be a cold miss");
    assert!(
        took >= fast_disk().seek * MISSES,
        "finished in {took:?}: the emulated disk was not waited for"
    );
    // On a kernel without `epoll_pwait2` the poller has, by now,
    // fallen back to whole milliseconds (rounded up, so the lower bound
    // above still holds) and there is no upper bound to check.
    if mio::timeouts_are_exact() {
        assert!(
            took < Duration::from_millis(MISSES as u64),
            "{MISSES} sequential 300 us misses took {took:?}: \
             deadlines are being rounded up to milliseconds"
        );
    }
    cluster.shutdown();
}

/// The emulated spindle keeps its own time: 40 misses queued on one
/// node at once are read back to back, each from the deadline of the
/// one before, so the whole queue drains in 40 × `read_time` plus one
/// late wake-up — not 40 of them, which is what starting each read
/// "now", after the loop has woken up and delivered the previous
/// response, used to cost. The lower bound holds for every batch; the
/// upper bound is about the schedule, and all that can add to it is
/// this host descheduling the loop or the client mid-batch (the suite
/// runs 16 tests on 2 cores), so the quickest of three batches carries
/// it — the old scheme paid its 40 wake-ups on every batch.
#[test]
fn reactor_disk_queue_drains_on_the_spindle_timeline() {
    use std::io::Write;
    const MISSES: u32 = 40;
    const BATCHES: u32 = 3;
    let (cluster, mut stream) = cold_miss_cluster(MISSES * BATCHES);
    let mut parser = phttp_http::ResponseParser::new();
    let nominal = fast_disk().read_time(1024) * MISSES;
    let mut quickest = Duration::MAX;
    for b in 0..BATCHES {
        let batch: String = (b * MISSES..(b + 1) * MISSES)
            .map(|t| format!("GET /t/{t} HTTP/1.1\r\n\r\n"))
            .collect();
        let started = std::time::Instant::now();
        stream.write_all(batch.as_bytes()).unwrap();
        read_ok_responses(&mut stream, &mut parser, MISSES);
        let took = started.elapsed();
        assert!(
            took >= nominal,
            "{MISSES} queued reads finished in {took:?}, before their {nominal:?} of service"
        );
        quickest = quickest.min(took);
    }
    let reads: u64 = cluster.node_stats().iter().map(|s| s.disk_reads).sum();
    assert_eq!(
        reads,
        (MISSES * BATCHES) as u64,
        "every request must be a cold miss"
    );
    if mio::timeouts_are_exact() {
        assert!(
            quickest < nominal + Duration::from_millis(2),
            "{MISSES} queued reads of {nominal:?} in all took {quickest:?} at best: \
             event-loop lateness is being billed to the disk"
        );
    }
    cluster.shutdown();
}
