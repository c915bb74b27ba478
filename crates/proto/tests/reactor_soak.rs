//! fd-bound soak: thousands of mostly-idle persistent connections on
//! the reactor shards, proving the P-HTTP many-connection regime the
//! paper's front-end must sustain — and that nothing leaks doing it.
//!
//! Each connection sends one request, gets its byte-exact response, and
//! then just sits there holding its socket (the "mostly idle" shape of
//! real persistent-connection populations). With every connection
//! simultaneously open, the cluster's thread count is still just
//! `reactor_shards` — concurrency is bounded by file descriptors. After
//! every client closes, the invariants under test are: zero tracked
//! dispatcher connections, exactly zero residual load (fixed-point
//! accounting), and — once the idle sweep has reaped pooled lateral
//! sessions — **zero registered slab sources and zero pending timers**
//! across every shard. A slab or timer-heap leak of even one entry
//! fails the run.
//!
//! The full-size soak (`PHTTP_SOAK_CONNS`, default 5000) is `#[ignore]`d
//! — run it with `cargo test -p phttp-proto --test reactor_soak --
//! --ignored`. The unconditional smoke runs the same machinery at 256
//! connections so the invariants are exercised on every CI run.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use phttp_core::PolicyKind;
use phttp_proto::{Cluster, ContentStore, DiskEmu, ProtoConfig};
use phttp_trace::TargetId;

/// Worker threads opening/holding connections (client-side only — the
/// cluster under test stays at `reactor_shards` threads regardless).
const OPENERS: usize = 8;

fn soak(conns: usize) {
    // The idle sweep reaps a drained connection after `read_timeout`
    // of inactivity, and every held connection goes idle right after
    // its one request — so the budget for opening ALL of them is
    // read_timeout from the FIRST one going idle. Scale it with the
    // connection count (≥5 ms each) so a slow 1-core host cannot have
    // early connections swept while late ones are still being opened.
    let read_timeout = Duration::from_secs(5).max(Duration::from_millis(5 * conns as u64));
    // A small corpus the caches swallow whole: after warmup every
    // request is a hit, so the measurement is the connection machinery,
    // not the disk model.
    let trace = phttp_trace::Trace::new(Vec::new(), vec![4096; 8]);
    let shards = std::env::var("PHTTP_REACTOR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let cluster = Cluster::start(
        ProtoConfig {
            nodes: 2,
            policy: PolicyKind::ExtLard,
            cache_bytes: 16 * 1024 * 1024,
            disk: DiskEmu {
                seek: Duration::from_micros(100),
                bytes_per_sec: 400.0 * 1024.0 * 1024.0,
            },
            read_timeout,
            reactor_shards: shards,
            ..ProtoConfig::default()
        },
        &trace,
    )
    .expect("start cluster");
    let addrs: Vec<_> = cluster.frontend_addrs().to_vec();
    let fe = cluster.frontend_shared();
    let stats = cluster.reactor_stats().expect("reactor mode");

    // Phase 1: open every connection, serve one request on each, then
    // HOLD the socket. The barriers fence the phases so the assertions
    // below observe all `conns` connections open at once.
    let opened = AtomicUsize::new(0);
    let all_open = Barrier::new(OPENERS + 1);
    let all_done = Barrier::new(OPENERS + 1);
    std::thread::scope(|scope| {
        for w in 0..OPENERS {
            let addrs = &addrs;
            let opened = &opened;
            let all_open = &all_open;
            let all_done = &all_done;
            scope.spawn(move || {
                let mine = (conns + OPENERS - 1 - w) / OPENERS; // balanced split
                let mut held = Vec::with_capacity(mine);
                let mut buf = vec![0u8; 32 * 1024];
                for i in 0..mine {
                    let addr = addrs[(w + i) % addrs.len()];
                    let mut s = std::net::TcpStream::connect(addr).expect("connect");
                    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    let target = TargetId(((w + i) % 8) as u32);
                    let req = format!("GET {} HTTP/1.1\r\n\r\n", ContentStore::uri(target));
                    s.write_all(req.as_bytes()).unwrap();
                    let mut parser = phttp_http::ResponseParser::new();
                    loop {
                        if let Some(resp) = parser.next().unwrap() {
                            assert_eq!(resp.status, 200);
                            assert_eq!(resp.body.len(), 4096, "byte-exact body");
                            break;
                        }
                        let n = s.read(&mut buf).expect("read response");
                        assert!(n > 0, "server closed a held connection");
                        parser.feed(&buf[..n]);
                    }
                    held.push(s);
                    opened.fetch_add(1, Ordering::Relaxed);
                }
                all_open.wait();
                // Main thread asserts while everything idles open.
                all_done.wait();
                drop(held); // Phase 2: everyone hangs up.
            });
        }
        all_open.wait();
        // Every connection is open and served — and the server side is
        // still only `shards` event-loop threads.
        assert_eq!(opened.load(Ordering::Relaxed), conns);
        assert_eq!(
            fe.active_connections(),
            conns,
            "dispatcher must track every idle persistent connection"
        );
        assert!(
            stats.sources() >= conns,
            "every connection is a registered source (got {} for {conns})",
            stats.sources()
        );
        all_done.wait();
    });

    // Phase 3: drain. The dispatcher's state unwinds as the shards observe
    // the EOFs...
    assert!(
        cluster.quiesce(Duration::from_secs(30)),
        "connections leaked after close"
    );
    assert_eq!(fe.active_connections(), 0);
    assert!(
        fe.loads().iter().all(|&l| l.abs() < 1e-12),
        "residual load after drain: {:?}",
        fe.loads()
    );
    // ...and the slab + timer heap drain to exactly zero: client slots
    // free on EOF, pooled lateral sessions and idle peer-server
    // connections fall to the idle sweep within ~read_timeout.
    let deadline = Instant::now() + read_timeout + Duration::from_secs(15);
    while (stats.sources() > 0 || stats.timers() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(stats.sources(), 0, "slab leak: sources survived the drain");
    assert_eq!(stats.timers(), 0, "timer-heap leak after drain");
    cluster.shutdown();
}

/// Reduced-size smoke of the soak invariants; runs unconditionally
/// (CI's soak leg also runs the `#[ignore]`d full soak at a reduced
/// `PHTTP_SOAK_CONNS`).
#[test]
fn soak_smoke_256_connections() {
    soak(256);
}

/// The full fd-bound soak: ~5k mostly-idle persistent connections
/// (`PHTTP_SOAK_CONNS` overrides; needs an fd limit comfortably above
/// 2× the connection count — the test process holds the client side).
#[test]
#[ignore = "fd-heavy; run explicitly (see README 'Soak test')"]
fn soak_5k_connections() {
    let conns = std::env::var("PHTTP_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5000);
    soak(conns);
}
