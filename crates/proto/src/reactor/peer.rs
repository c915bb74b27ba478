//! Pooled non-blocking lateral-fetch sessions.
//!
//! The reactor fetches laterally over [`PeerSession`]s driven by the
//! same event loop as the client connections: a session carries at most one in-flight
//! fetch ([`LateralJob`]), writes its request under the loop's
//! backpressure rules, parses the response incrementally, and returns
//! to its peer's idle pool only if the stream is provably clean —
//! keep-alive response and an empty parser, the PR 2 anti-desync rule.

use std::time::Instant;

use bytes::BytesMut;
use mio::Interest;
use phttp_http::{ResponseParser, Version};
use phttp_trace::TargetId;

use super::SlotRef;

/// One lateral fetch in flight on a peer session.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LateralJob {
    /// The client connection (slab index + generation) awaiting the body.
    pub conn: SlotRef,
    /// The pipeline slot awaiting the body.
    pub seq: u64,
    /// The document being fetched.
    pub target: TargetId,
    /// HTTP version of the *client's* request — the response to the
    /// client is built with it, regardless of the HTTP/1.1 peer wire.
    pub version: Version,
    /// Node index of the connection handler (for stats and for the
    /// serve-locally fallback when the peer path fails).
    pub handler: usize,
}

/// Streaming-receive state of an in-flight fetch: set once the 200
/// head has been parsed and splicing toward the client has begun.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamIn {
    /// Body bytes still expected from the peer.
    pub remaining: usize,
    /// Whether the peer's response allows keeping the session
    /// (pool eligibility at completion).
    pub keep: bool,
}

/// A non-blocking persistent connection to one peer's lateral server.
pub(crate) struct PeerSession {
    pub stream: mio::net::TcpStream,
    pub parser: ResponseParser,
    /// Request bytes not yet accepted by the socket.
    pub out: BytesMut,
    /// Peer node index this session dials.
    pub remote: usize,
    /// The single in-flight fetch, if any.
    pub job: Option<LateralJob>,
    /// Set while the in-flight fetch's body is being spliced through
    /// to the client as it arrives.
    pub stream_in: Option<StreamIn>,
    /// Interests currently registered with the poller.
    pub interest: Interest,
    /// Last time the session carried a fetch, for the idle sweep: a
    /// pooled session idle past the read timeout is closed.
    pub last_activity: Instant,
}

impl PeerSession {
    pub fn new(stream: mio::net::TcpStream, remote: usize) -> PeerSession {
        PeerSession {
            stream,
            parser: ResponseParser::new(),
            out: BytesMut::new(),
            remote,
            job: None,
            stream_in: None,
            interest: Interest::READABLE,
            last_activity: Instant::now(),
        }
    }
}
