//! Transcript tests of the front-end tier: a cluster with
//! `front_ends ∈ {1, 2}`, on one shard or two, must serve every request
//! byte-exact.
//!
//! Response bytes are a pure function of `(target, HTTP version)`
//! regardless of which front-end admits a connection or which node
//! serves a request, so per-connection transcripts must equal the one
//! the content store predicts however the VIP routes. Byte-identity alone
//! cannot see the tier, though — a Vip that admitted nothing would
//! pass — so the `front_ends = 2` legs additionally assert the
//! admission handshakes actually ran (`handoffs > 0`) and that both
//! front-ends took connections.
//!
//! The kill test decommissions one front-end **while its connections
//! are in flight**: its consistent-hash partition must be re-owned by
//! the survivor, new connections must route around it, and every
//! in-flight request must still complete byte-exact — the tier's
//! failover contract.
//!
//! The shards admit what they accept over their own admission links,
//! on the event loop. The tests therefore also pin the accept path (no
//! acceptor thread where `SO_REUSEPORT` binds), count one handshake per
//! connection, and attack the *admitting* state from outside: clients
//! that reset before they are served, front-ends killed under an
//! admission storm, and a shutdown that lands on connections still
//! parked behind their handshake.

mod support;

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

use bytes::BytesMut;
use phttp_core::{FeId, Mechanism, PolicyKind};
use phttp_http::{Request, Version};
use phttp_proto::{Cluster, ContentStore, DiskEmu, ProtoConfig};
use phttp_trace::{generate, reconstruct, ConnectionTrace, SessionConfig, SynthConfig, TargetId};
use support::{expected_transcript, play_capture, play_one};

fn workload() -> (phttp_trace::Trace, ConnectionTrace) {
    let mut synth = SynthConfig::small();
    synth.num_page_views = 120;
    synth.num_pages = 50;
    let trace = generate(&synth);
    let conns = reconstruct(&trace, SessionConfig::default());
    (trace, conns)
}

fn config(front_ends: usize, shards: usize) -> ProtoConfig {
    ProtoConfig {
        reactor_shards: shards,
        nodes: 3,
        policy: PolicyKind::ExtLard,
        mechanism: Mechanism::BackendForwarding,
        // Same queue-building recipe as the reactor-equivalence matrix,
        // so the remote serving paths run under every tier size.
        cache_bytes: 512 * 1024,
        disk: DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 40.0 * 1024.0 * 1024.0,
        },
        read_timeout: Duration::from_secs(5),
        front_ends,
        gossip_interval: Duration::from_millis(1),
        ..ProtoConfig::default()
    }
}

/// Serves the workload on `config`, checks the tier ran and unwound,
/// and returns the transcript.
fn run_tier(config: ProtoConfig) -> Vec<Vec<Vec<u8>>> {
    let front_ends = config.front_ends;
    let forced_handoff = config.force_accept_handoff;
    let (trace, conns) = workload();
    let cluster = Cluster::start(config, &trace).expect("start cluster");
    // A tier forces no acceptor threads: the shards own the listeners
    // (this host binds reuseport groups) unless the fallback is asked
    // for by name.
    assert_eq!(
        cluster.used_accept_handoff(),
        forced_handoff,
        "{front_ends} FEs"
    );
    let transcript = play_capture(cluster.frontend_addrs(), &conns, cluster.store(), 0);
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "{front_ends} FEs: connections leaked"
    );
    // Every front-end's dispatcher unwound its share to exactly zero.
    for (i, fe) in cluster.front_ends().iter().enumerate() {
        assert_eq!(fe.active_connections(), 0, "{front_ends} FEs: fe {i}");
        assert!(
            fe.loads().iter().all(|&l| l.abs() < 1e-12),
            "{front_ends} FEs: fe {i} residual load {:?}",
            fe.loads()
        );
    }
    if front_ends > 1 {
        let vip = cluster.vip().expect("tier cluster has a vip");
        // The tier must have actually run: real admission handshakes
        // over the control sessions, spread across both front-ends by
        // the round robin (conn_count >> front_ends, so each gets some).
        assert_eq!(
            vip.handoffs(),
            conns.connections.len() as u64,
            "every connection crosses exactly one handshake"
        );
        for f in 0..front_ends {
            assert!(
                vip.admitted(f) > 0,
                "front-end {f} never admitted a connection"
            );
        }
        // Every admitted connection's close notification came back:
        // the forwarding table is empty again.
        assert_eq!(vip.tracked(), 0, "tier routes leaked");
    }
    cluster.shutdown();
    transcript
}

/// The tier legs the matrix covers, as `(front-ends, reactor shards)`:
/// the tierless baseline, a 2-front-end tier, and the tier across two
/// shards — each shard then runs its own link to each front-end.
const TIER_MATRIX: [(usize, usize); 3] = [(1, 1), (2, 1), (2, 2)];

/// Every cell of the matrix, and the acceptor-handoff fallback, serves
/// the transcript the store predicts — what the single-front-end
/// cluster must serve.
#[test]
fn tier_matrix_matches_single_frontend_oracle() {
    let (trace, conns) = workload();
    let expected = expected_transcript(&ContentStore::from_trace(&trace), &conns);
    for (front_ends, shards) in TIER_MATRIX {
        let tiered = run_tier(config(front_ends, shards));
        assert!(
            tiered == expected,
            "transcripts diverge from the store ({front_ends} front-ends, {shards} shards)"
        );
    }
    // The acceptor-handoff fallback hands the shards raw streams; they
    // admit them exactly as they admit their own accepts.
    let fallback = run_tier(ProtoConfig {
        force_accept_handoff: true,
        ..config(2, 2)
    });
    assert!(
        fallback == expected,
        "transcripts diverge under acceptor handoff"
    );
}

/// Killing a front-end mid-traffic: its partition is re-owned, new
/// connections route around it, and no in-flight request is lost.
#[test]
fn kill_one_frontend_drains_without_loss() {
    let (trace, conns) = workload();
    let cluster = Cluster::start(config(2, 1), &trace).expect("start cluster");
    let store = cluster.store().clone();
    let addrs: Vec<SocketAddr> = cluster.frontend_addrs().to_vec();

    // Drive the first half of the workload to get connections admitted
    // to BOTH front-ends and still in flight, then kill front-end 1
    // while the second half keeps arriving.
    let halfway = conns.connections.len() / 2;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let transcript: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = conns
        .connections
        .iter()
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    let mut killed = false;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = conns.connections.get(i) else {
                    break;
                };
                *transcript[i].lock() = play_one(addrs[i % addrs.len()], conn, &store);
            });
        }
        // Let the players get connections in flight on both front-ends,
        // then pull front-end 1 out from under them.
        while cursor.load(Ordering::Relaxed) < halfway {
            std::thread::sleep(Duration::from_millis(1));
        }
        killed = cluster.kill_frontend(1);
    });
    assert!(killed, "kill_frontend(1) must succeed on a live tier");

    let vip = cluster.vip().expect("tier cluster has a vip");
    assert_eq!(vip.fe_kills(), 1);
    assert!(!vip.is_alive(1));
    // The dead front-end's consistent-hash partition was re-owned in
    // full by the survivor — no target is left without an authority.
    for t in 0..store.len() {
        assert_eq!(
            vip.ring_owner(TargetId(t as u32)),
            FeId(0),
            "target {t} not re-owned after the kill"
        );
    }
    // Both front-ends admitted connections before the kill (the kill
    // would otherwise prove nothing about in-flight draining).
    assert!(vip.admitted(0) > 0 && vip.admitted(1) > 0);

    // No in-flight request was lost: every connection's transcript is
    // complete and byte-exact — responses are a pure function of
    // (target, version), so each can be checked against the store
    // directly, including every connection the dead front-end was
    // still draining when it was decommissioned.
    let got: Vec<Vec<Vec<u8>>> = transcript.into_iter().map(|m| m.into_inner()).collect();
    assert!(
        got == expected_transcript(&store, &conns),
        "a request was lost or corrupted by the kill"
    );

    // New connections keep flowing, all admitted to the survivor.
    let before = vip.admitted(1);
    let (_, tail) = workload();
    let extra = play_capture(&addrs, &tail, &store, 0);
    assert_eq!(
        extra.iter().map(|c| c.len()).sum::<usize>(),
        trace.len(),
        "post-kill traffic must be served in full"
    );
    assert_eq!(
        vip.admitted(1),
        before,
        "the dead front-end must admit nothing after the kill"
    );

    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "post-kill: connections leaked"
    );
    for (i, fe) in cluster.front_ends().iter().enumerate() {
        assert_eq!(fe.active_connections(), 0, "fe {i}");
    }
    assert_eq!(vip.tracked(), 0, "tier routes leaked across the kill");
    cluster.shutdown();
}

/// One HTTP/1.0 connection: one GET, read to the server's close.
/// Returns whether the response was the byte-exact document.
fn one_shot(addr: SocketAddr, store: &ContentStore, target: TargetId) -> bool {
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = BytesMut::new();
    Request::get(ContentStore::uri(target), Version::Http10).encode(&mut wire);
    if stream.write_all(&wire).is_err() {
        return false;
    }
    let mut got = Vec::new();
    if stream.read_to_end(&mut got).is_err() {
        return false;
    }
    got[..] == phttp_http::Response::ok(Version::Http10, store.body(target)).to_bytes()[..]
}

/// Connects to `addr` and resets the connection at once (`SO_LINGER`
/// zero turns the close into an RST) — a client that is gone before
/// the server has read a byte from it.
fn connect_and_reset(addr: SocketAddr) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `stream` keeps the descriptor open across the call and
    // `linger` is a live `struct linger` of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "set SO_LINGER");
    drop(stream);
}

/// Polls `done` for up to five seconds.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "never happened: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A client that resets before it is served is parked as *admitting*
/// like any other, acknowledged, and only then found dead: its ticket
/// must come back exactly once — no route left in the forwarding table,
/// no slot left in the slab — while live clients around it are served.
#[test]
fn client_reset_while_admitting_releases_its_ticket() {
    let (trace, _) = workload();
    let cluster = Cluster::start(config(2, 2), &trace).expect("start cluster");
    let vip = cluster.vip().expect("tier cluster has a vip").clone();
    let store = cluster.store().clone();
    let addrs = cluster.frontend_addrs().to_vec();
    const RESETS: u64 = 200;
    const LIVE: u64 = 50;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..RESETS as usize {
                connect_and_reset(addrs[i % addrs.len()]);
            }
        });
        scope.spawn(|| {
            for i in 0..LIVE as usize {
                let target = TargetId((i % store.len()) as u32);
                assert!(
                    one_shot(addrs[i % addrs.len()], &store, target),
                    "a live client lost its response amid the resets"
                );
            }
        });
    });
    // Every connection the shards accepted was handed off — the dead
    // ones included; a reset caught still in the accept queue may have
    // been dropped by the kernel before any shard saw it.
    eventually("every admission settled", || {
        vip.handoffs() >= LIVE && vip.tracked() == 0
    });
    assert!(vip.handoffs() <= LIVE + RESETS);
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connections leaked"
    );
    let stats = cluster.reactor_stats().expect("reactor cluster");
    eventually("the slab drained", || stats.sources() == 0);
    assert_eq!(vip.tracked(), 0, "a reset client's route leaked");
    for fe in cluster.front_ends() {
        assert_eq!(fe.active_connections(), 0);
    }
    cluster.shutdown();
    assert_eq!(vip.tracked(), 0);
}

/// The socket-level twin of the tier unit test
/// `concurrent_kill_never_leaks_tracked_routes`: front-ends are
/// decommissioned while the shards are mid-handshake with them. An ack
/// that loses the race is unwound on the loop and the connection
/// re-admitted to a survivor — so no request is lost, no route leaks,
/// and once the kills have settled only the survivor admits.
#[test]
fn kill_frontend_during_reactor_admission_storm_loses_nothing() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let (trace, _) = workload();
    let cluster = Cluster::start(config(3, 2), &trace).expect("start cluster");
    let vip = cluster.vip().expect("tier cluster has a vip").clone();
    let store = cluster.store().clone();
    let addrs = cluster.frontend_addrs().to_vec();
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..4usize {
            let (stop, served, store, addrs) = (&stop, &served, &store, &addrs);
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let target = TargetId((i % store.len()) as u32);
                    assert!(
                        one_shot(addrs[i % addrs.len()], store, target),
                        "a request was lost to a front-end kill"
                    );
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 4;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        assert!(cluster.kill_frontend(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(cluster.kill_frontend(0));
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        cluster.quiesce(Duration::from_secs(10)),
        "connections leaked"
    );
    assert_eq!(vip.tracked(), 0, "a route to a killed front-end leaked");
    let served = served.load(Ordering::Relaxed);
    assert!(served > 0);
    assert_eq!(
        vip.handoffs(),
        served,
        "every connection is admitted exactly once, kills or not"
    );
    assert!(vip.admitted(0) > 0 && vip.admitted(1) > 0 && vip.admitted(2) > 0);
    // Settled: only the survivor admits now.
    let before = (vip.admitted(0), vip.admitted(1));
    for i in 0..8 {
        assert!(one_shot(addrs[i % addrs.len()], &store, TargetId(i as u32)));
    }
    assert!(cluster.quiesce(Duration::from_secs(10)));
    assert_eq!((vip.admitted(0), vip.admitted(1)), before);
    assert_eq!(vip.handoffs(), served + 8);
    assert_eq!(vip.tracked(), 0);
    cluster.shutdown();
}

/// Shutdown lands on shards whose slabs hold connections at every
/// stage — parked behind a handshake, acknowledged and idle, mid-close
/// with the notification still queued. Each shard unwinds its own: the
/// tier tracks nothing afterwards.
#[test]
fn shard_teardown_with_admitting_connections_leaves_nothing_tracked() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (trace, _) = workload();
    let cluster = Cluster::start(config(2, 2), &trace).expect("start cluster");
    let vip = cluster.vip().expect("tier cluster has a vip").clone();
    let addrs = cluster.frontend_addrs().to_vec();
    let stop = AtomicBool::new(false);
    let mut held = Vec::new();
    std::thread::scope(|scope| {
        // Connections that never send a byte: admitted, then idle.
        for i in 0..32 {
            held.push(std::net::TcpStream::connect(addrs[i % addrs.len()]).expect("connect"));
        }
        eventually("the idle connections were admitted", || vip.tracked() >= 32);
        // A connect storm keeps handshakes in flight while the loops
        // are told to stop.
        for w in 0..3usize {
            let (stop, addrs) = (&stop, &addrs);
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    // Refused or reset once the listeners are gone.
                    let _ = std::net::TcpStream::connect(addrs[i % addrs.len()]);
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        cluster.shutdown();
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(vip.tracked(), 0, "a torn-down shard left routes behind");
    drop(held);
}
