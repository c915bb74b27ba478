//! The capture client and its oracle, shared by the transcript suites
//! (`reactor_equivalence`, `large_body`, `fe_tier`).
//!
//! A response is a pure function of `(target, HTTP version)`, so the
//! transcript every cluster must produce is known before it starts:
//! [`expected_transcript`] builds it from the [`ContentStore`] alone,
//! with no second server to compare against.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bytes::BytesMut;
use phttp_http::{Request, Response, ResponseParser, Version};
use phttp_proto::ContentStore;
use phttp_trace::{Connection, ConnectionTrace};

/// Connections the capture client keeps in flight at once.
const PLAYERS: usize = 8;

/// The wire bytes of every response the workload must receive: per
/// connection, in request order, a `200` carrying the store's body.
pub fn expected_transcript(store: &ContentStore, workload: &ConnectionTrace) -> Vec<Vec<Vec<u8>>> {
    workload
        .connections
        .iter()
        .map(|conn| {
            conn.batches
                .iter()
                .flat_map(|b| b.targets.iter())
                .map(|&t| {
                    Response::ok(Version::Http11, store.body(t))
                        .to_bytes()
                        .to_vec()
                })
                .collect()
        })
        .collect()
}

/// Plays one trace connection, each pipelined batch in a single write
/// like the load generator, verifying each body against the store as it
/// arrives, and returns the re-encoded wire bytes of each response.
pub fn play_one(addr: SocketAddr, conn: &Connection, store: &ContentStore) -> Vec<Vec<u8>> {
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

/// Plays every connection of the workload, connection `i` on
/// `addrs[i % addrs.len()]`, and returns each one's transcript indexed
/// by connection order. The first `lead` connections play alone, in
/// order; the rest play [`PLAYERS`] at a time, so disk queues build and
/// extLARD forwards (with one connection at a time the disks never
/// queue, and the remote paths would never run).
pub fn play_capture(
    addrs: &[SocketAddr],
    workload: &ConnectionTrace,
    store: &ContentStore,
    lead: usize,
) -> Vec<Vec<Vec<u8>>> {
    let conns = &workload.connections;
    let mut transcript: Vec<Vec<Vec<u8>>> = conns
        .iter()
        .take(lead)
        .enumerate()
        .map(|(i, conn)| play_one(addrs[i % addrs.len()], conn, store))
        .collect();
    let cursor = AtomicUsize::new(transcript.len());
    let rest: Vec<parking_lot::Mutex<Vec<Vec<u8>>>> = (transcript.len()..conns.len())
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();
    let first = transcript.len();
    std::thread::scope(|scope| {
        for _ in 0..PLAYERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(conn) = conns.get(i) else {
                    break;
                };
                *rest[i - first].lock() = play_one(addrs[i % addrs.len()], conn, store);
            });
        }
    });
    transcript.extend(rest.into_iter().map(|m| m.into_inner()));
    transcript
}
