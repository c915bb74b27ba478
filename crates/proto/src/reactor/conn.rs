//! Per-connection state machine of the reactor's served connections.
//!
//! A connection is a [`RequestParser`] feeding an in-order pipeline of
//! [`Entry`]s (one per request), plus an output buffer with write
//! backpressure. Entries resolve out of order (disk reads, lateral
//! fetches, and migrations complete whenever their events fire), but
//! response *bytes* leave strictly in request order: only `Ready`
//! entries at the **front** of the pipeline are staged into the output
//! buffer — HTTP/1.1 pipelining's ordering rule.
//!
//! The same machine serves two kinds of inbound connection: **client**
//! connections (requests go through the dispatcher — handoff, batched
//! policy decisions, possible laterals/migrations) and **peer-server**
//! connections (lateral fetches from other nodes' handlers; every
//! request serves on this listener's node, no dispatcher involvement).
//! The roles differ only in how a
//! drained batch turns into pipeline entries; reading, ordering,
//! backpressure, and write-out are shared.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use mio::net::IOV_MAX;
use mio::Interest;
use phttp_core::ConnId;
use phttp_http::RequestParser;

use super::SlotRef;

/// What a pipeline slot is waiting on (or holding).
#[derive(Debug)]
pub(crate) enum EntryState {
    /// A complete response: serialized head plus shared body slice, the
    /// pair `writev` sends in one call with zero body copies.
    Ready(Bytes, Bytes),
    /// A response streamed through from a lateral peer: chunks splice
    /// toward the client as they arrive instead of store-and-forward.
    Streaming(StreamEntry),
    /// Waiting for this connection's node to finish an emulated disk read.
    Disk,
    /// Waiting for a lateral fetch from a peer node.
    Lateral,
    /// Waiting for the emulated connection-migration delay to elapse.
    Migrating,
}

/// In-flight state of a response spliced from a peer session
/// ([`EntryState::Streaming`]). The head chunk is queued at creation;
/// body slices append as the peer's bytes arrive, bounded by
/// [`HIGH_WATER`] on both the connection's output queue and this
/// entry's own chunk buffer (the feeding session pauses its reads
/// otherwise and is re-armed when the client drains).
#[derive(Debug)]
pub(crate) struct StreamEntry {
    /// Wire chunks (client head first, then body slices) not yet staged.
    pub chunks: VecDeque<Bytes>,
    /// Bytes currently buffered in `chunks`.
    pub buffered: usize,
    /// Body bytes received (or synthesized by a fault fallback) so far.
    pub pushed: usize,
    /// Total body bytes the response carries.
    pub total: usize,
    /// The lateral session feeding this entry, re-armed for reading
    /// when backpressure lifts.
    pub peer: SlotRef,
}

impl StreamEntry {
    /// Starts a stream: the serialized client head is the first chunk.
    pub fn begin(head: Bytes, total: usize, peer: SlotRef) -> StreamEntry {
        let mut s = StreamEntry {
            chunks: VecDeque::new(),
            buffered: 0,
            pushed: 0,
            total,
            peer,
        };
        s.push_head(head);
        s
    }

    fn push_head(&mut self, head: Bytes) {
        self.buffered += head.len();
        self.chunks.push_back(head);
    }

    /// Appends a body slice as received from (or synthesized for) the
    /// peer stream.
    pub fn push_body(&mut self, chunk: Bytes) {
        self.pushed += chunk.len();
        self.buffered += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Every body byte has been received; nothing more will arrive.
    pub fn finished_receiving(&self) -> bool {
        self.pushed >= self.total
    }

    /// Fully received *and* fully staged: the entry can retire.
    pub fn complete(&self) -> bool {
        self.finished_receiving() && self.chunks.is_empty()
    }
}

/// One in-order response pipeline slot.
#[derive(Debug)]
pub(crate) struct Entry {
    /// Identifies the slot across async completions (unique per conn).
    pub seq: u64,
    pub state: EntryState,
}

/// Stop reading new requests while this many response bytes are queued
/// unsent — the reactor's write backpressure bound.
pub(crate) const HIGH_WATER: usize = 256 * 1024;

/// Stop reading new requests while this many pipeline entries are
/// unanswered. `HIGH_WATER` alone only bounds *staged* bytes; a client
/// that pipelines continuously without ever reading responses would
/// otherwise grow the entry queue (each `Ready` slot holding a full
/// serialized response) without bound. A blocking server is naturally
/// bounded by its per-response `write_all`; this is the event-loop
/// equivalent.
pub(crate) const MAX_PIPELINE: usize = 256;

/// The staged-response output queue: ordered shared byte slices
/// awaiting the socket, written with `writev` so a queued body slice is
/// never copied into a contiguous buffer. [`len`](Self::len) charges
/// each queued segment's length exactly once — other clones of the same
/// allocation (the cache's, a coalesced waiter's) cost nothing here —
/// and is mirrored into the owning shard's `pending_body_bytes` gauge.
#[derive(Debug)]
pub(crate) struct OutQueue {
    segs: VecDeque<Bytes>,
    /// Bytes of `segs[0]` already accepted by the socket.
    front_off: usize,
    /// Unsent bytes across all segments.
    queued: usize,
    /// Shard gauge mirroring `queued`
    /// (see `ReactorStats::pending_body_bytes`).
    gauge: Arc<AtomicUsize>,
}

impl OutQueue {
    pub fn new(gauge: Arc<AtomicUsize>) -> OutQueue {
        OutQueue {
            segs: VecDeque::new(),
            front_off: 0,
            queued: 0,
            gauge,
        }
    }

    /// Unsent bytes queued (each segment charged once).
    pub fn len(&self) -> usize {
        self.queued
    }

    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Queues a segment — shared, never copied. Empty segments are
    /// skipped (a zero-length body contributes no iovec).
    pub fn push(&mut self, seg: Bytes) {
        if seg.is_empty() {
            return;
        }
        self.queued += seg.len();
        self.gauge.fetch_add(seg.len(), Ordering::Relaxed);
        self.segs.push_back(seg);
    }

    /// Fills `bufs` with iovec views of the unsent bytes, at most
    /// `IOV_MAX` of them (the rest wait for the next call, exactly like
    /// a kernel short write).
    pub fn fill_slices<'a>(&'a self, bufs: &mut Vec<io::IoSlice<'a>>) {
        for (i, seg) in self.segs.iter().take(IOV_MAX).enumerate() {
            let s = if i == 0 {
                &seg[self.front_off..]
            } else {
                &seg[..]
            };
            bufs.push(io::IoSlice::new(s));
        }
    }

    /// Consumes `n` accepted bytes, possibly landing mid-segment: the
    /// partial-write resumption point for the next `writev`.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.queued, "advance past queued bytes");
        self.queued -= n;
        self.gauge.fetch_sub(n, Ordering::Relaxed);
        while n > 0 {
            let left = self.segs[0].len() - self.front_off;
            if n < left {
                self.front_off += n;
                return;
            }
            n -= left;
            self.front_off = 0;
            self.segs.pop_front();
        }
    }

    /// Drops everything queued.
    pub fn clear(&mut self) {
        self.gauge.fetch_sub(self.queued, Ordering::Relaxed);
        self.queued = 0;
        self.front_off = 0;
        self.segs.clear();
    }
}

impl Drop for OutQueue {
    /// A connection can die with bytes still queued; the gauge must not
    /// keep counting them.
    fn drop(&mut self) {
        self.gauge.fetch_sub(self.queued, Ordering::Relaxed);
    }
}

/// The vectored-write surface [`write_queue`] drives. Real sockets
/// implement it with `writev`; tests substitute a fault-injected stream
/// that scripts arbitrary kernel short-write/`EAGAIN` sequences.
pub(crate) trait VectoredWrite {
    fn writev(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize>;
}

impl VectoredWrite for mio::net::TcpStream {
    fn writev(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        mio::net::TcpStream::write_vectored(self, bufs)
    }
}

/// Writes queued segments with gathered `writev` calls until the queue
/// drains or the socket would block. Partial writes resume mid-iovec on
/// the next call; `Err` means the connection is dead.
pub(crate) fn write_queue<W: VectoredWrite>(stream: &mut W, out: &mut OutQueue) -> io::Result<()> {
    loop {
        if out.is_empty() {
            return Ok(());
        }
        let mut bufs: Vec<io::IoSlice<'_>> = Vec::new();
        out.fill_slices(&mut bufs);
        match stream.writev(&bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(n) => out.advance(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// An inbound connection registered with the reactor: a client
/// connection, or (with [`peer_server`](Self::peer_server) set) a
/// peer-server connection serving lateral fetches.
pub(crate) struct ClientConn {
    pub stream: mio::net::TcpStream,
    pub parser: RequestParser,
    /// `true` for peer-server connections: every request serves on
    /// [`node`](Self::node) (the accepting listener's node) and the
    /// dispatcher is never involved (`conn_id` stays `None`).
    pub peer_server: bool,
    /// The dispatcher's connection id; `None` until the first request has
    /// driven the content-based handoff (always `None` for peer-server
    /// connections).
    pub conn_id: Option<ConnId>,
    /// Index of the node currently handling this connection (valid once
    /// `conn_id` is set; re-homed eagerly on migrate decisions). For
    /// peer-server connections, the serving node — fixed at accept.
    pub node: usize,
    /// Parked behind its tier admission handshake: in the slab but not
    /// registered with the poller, so nothing is read until a
    /// front-end has acknowledged the connection. Always `false`
    /// without a tier.
    pub admitting: bool,
    /// Which front-end instance dispatches this connection (always 0
    /// without a tier; the admission's outcome otherwise).
    pub fe_idx: usize,
    /// The tier-level admission ticket, released on the admitting link
    /// when the connection closes (`None` without a tier, while
    /// admitting, or when no front-end acknowledged the handshake and
    /// the connection fell through untracked).
    pub vip_conn: Option<ConnId>,
    next_seq: u64,
    /// In-order response pipeline.
    pub entries: VecDeque<Entry>,
    /// Staged response segments not yet accepted by the socket.
    pub out: OutQueue,
    /// Interests currently registered with the poller.
    pub interest: Interest,
    /// The client sent EOF: stop reading, serve what was already
    /// received, then close.
    pub eof: bool,
    /// The *logical* connection has ended (non-keep-alive request or
    /// parse error): stop reading, refuse later pipelined requests,
    /// serve what is already in the pipeline, then close. Distinct from
    /// [`eof`](Self::eof), which must not suppress serving.
    pub close_after_drain: bool,
    /// Last socket activity, for the idle-timeout sweep.
    pub last_activity: Instant,
}

impl ClientConn {
    /// `gauge` is the owning shard's `pending_body_bytes` counter the
    /// connection's output queue mirrors itself into.
    pub fn new(stream: mio::net::TcpStream, gauge: Arc<AtomicUsize>) -> ClientConn {
        ClientConn {
            stream,
            parser: RequestParser::new(),
            peer_server: false,
            conn_id: None,
            node: 0,
            admitting: false,
            fe_idx: 0,
            vip_conn: None,
            next_seq: 0,
            entries: VecDeque::new(),
            out: OutQueue::new(gauge),
            interest: Interest::READABLE,
            eof: false,
            close_after_drain: false,
            last_activity: Instant::now(),
        }
    }

    /// An accepted peer-server connection: serves lateral fetches
    /// against `node`'s cache/disk, bypassing the dispatcher.
    pub fn peer_server(
        stream: mio::net::TcpStream,
        node: usize,
        gauge: Arc<AtomicUsize>,
    ) -> ClientConn {
        ClientConn {
            peer_server: true,
            node,
            ..ClientConn::new(stream, gauge)
        }
    }

    /// A client connection accepted under a front-end tier, parked
    /// until its admission resolves (see [`admitting`](Self::admitting)).
    pub fn admitting(stream: mio::net::TcpStream, gauge: Arc<AtomicUsize>) -> ClientConn {
        ClientConn {
            admitting: true,
            interest: Interest::NONE,
            ..ClientConn::new(stream, gauge)
        }
    }

    /// Allocates the sequence number for the next pipeline slot.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Appends a pipeline slot.
    pub fn push_entry(&mut self, seq: u64, state: EntryState) {
        self.entries.push_back(Entry { seq, state });
    }

    /// Resolves slot `seq` with `state` (no-op if the slot is gone,
    /// e.g. a completion racing a teardown). O(1): entries hold
    /// consecutive sequence numbers (every `alloc_seq` is paired with
    /// exactly one `push_entry`) and only pop from the front, so the
    /// slot's position is its offset from the front's seq.
    pub fn resolve(&mut self, seq: u64, state: EntryState) {
        let Some(front_seq) = self.entries.front().map(|e| e.seq) else {
            return;
        };
        let Some(off) = seq.checked_sub(front_seq) else {
            return; // already staged and popped
        };
        if let Some(e) = self.entries.get_mut(off as usize) {
            debug_assert_eq!(e.seq, seq, "pipeline seqs must be consecutive");
            e.state = state;
        }
    }

    /// Moves `Ready` entries (and available `Streaming` chunks) from
    /// the pipeline front into the output queue, stopping at the first
    /// pending entry (response ordering) or at the backpressure bound.
    /// Segments are queued as shared slices — staging never copies.
    pub fn stage_ready(&mut self) {
        while self.out.len() < HIGH_WATER {
            match self.entries.front_mut() {
                Some(Entry {
                    state: EntryState::Ready(..),
                    ..
                }) => {
                    let Some(Entry {
                        state: EntryState::Ready(head, body),
                        ..
                    }) = self.entries.pop_front()
                    else {
                        unreachable!("front checked above")
                    };
                    self.out.push(head);
                    self.out.push(body);
                }
                Some(Entry {
                    state: EntryState::Streaming(s),
                    ..
                }) => {
                    while self.out.len() < HIGH_WATER {
                        let Some(chunk) = s.chunks.pop_front() else {
                            break;
                        };
                        s.buffered -= chunk.len();
                        self.out.push(chunk);
                    }
                    if s.complete() {
                        self.entries.pop_front();
                        continue; // the next response may already be ready
                    }
                    // Stream still in flight (or the bound was hit):
                    // later entries stay behind it — response ordering.
                    break;
                }
                _ => break,
            }
        }
    }

    /// Writes staged segments — gathered `writev`, zero copies — until
    /// the socket would block or the queue drains. `Err` means the
    /// connection is dead.
    pub fn write_out(&mut self) -> io::Result<()> {
        write_queue(&mut self.stream, &mut self.out)
    }

    /// Reads available bytes into the parser through `buf` (the shard's
    /// scratch). `Ok(true)`: a read filled `buf` and more may be waiting
    /// — parse, then call again. `Ok(false)`: the socket is drained for
    /// now (`WouldBlock`, EOF or backpressure; calling again would only
    /// buy an `EAGAIN`) — parse what arrived and stop. `Err`: the
    /// connection is dead. EOF only sets `eof` — NOT
    /// `close_after_drain` — because requests already received must
    /// still be served: a client may legitimately half-close right
    /// after its last pipelined request, and its FIN can arrive in the
    /// same readiness window as the request bytes. Skipping them here
    /// would break the contract that every request received is
    /// answered byte-exact.
    pub fn read_into_parser(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        loop {
            if self.eof || self.backpressured() {
                return Ok(false);
            }
            match self.stream.read(buf) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.parser.feed(&buf[..n]);
                    if n == buf.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether everything owed to the client has been sent.
    pub fn drained(&self) -> bool {
        self.entries.is_empty() && self.out.is_empty()
    }

    /// Whether reading must pause until the client drains responses
    /// (either bound; see [`HIGH_WATER`] and [`MAX_PIPELINE`]).
    pub fn backpressured(&self) -> bool {
        self.out.len() >= HIGH_WATER || self.entries.len() >= MAX_PIPELINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gauge() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    /// One scripted kernel reaction to a `writev` call.
    #[derive(Clone, Copy, Debug)]
    enum Ev {
        /// Accept at most this many bytes (a short write).
        Accept(usize),
        /// `EAGAIN`: accept nothing, socket not writable.
        Eagain,
        /// `EINTR`: the call was interrupted; the caller must retry.
        Eintr,
    }

    /// A fault-injectable stream: each `writev` consumes the next
    /// scripted event and appends whatever it accepts to `sink`. An
    /// exhausted script accepts everything offered, so a drain loop
    /// always terminates.
    struct ScriptedStream {
        script: Vec<Ev>,
        next: usize,
        sink: Vec<u8>,
        max_bufs_seen: usize,
    }

    impl ScriptedStream {
        fn new(script: Vec<Ev>) -> ScriptedStream {
            ScriptedStream {
                script,
                next: 0,
                sink: Vec::new(),
                max_bufs_seen: 0,
            }
        }
    }

    impl VectoredWrite for ScriptedStream {
        fn writev(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            assert!(!bufs.is_empty(), "writev with no iovecs");
            assert!(bufs.len() <= IOV_MAX, "iovec batch exceeds IOV_MAX");
            self.max_bufs_seen = self.max_bufs_seen.max(bufs.len());
            let offered: usize = bufs.iter().map(|b| b.len()).sum();
            let ev = self
                .script
                .get(self.next)
                .copied()
                .unwrap_or(Ev::Accept(usize::MAX));
            self.next += 1;
            let n = match ev {
                Ev::Eagain => return Err(io::ErrorKind::WouldBlock.into()),
                Ev::Eintr => return Err(io::ErrorKind::Interrupted.into()),
                // A kernel write never accepts 0 bytes of a non-empty
                // iovec without an error; clamp the script likewise.
                Ev::Accept(n) => n.min(offered).max(1),
            };
            let mut left = n;
            for b in bufs {
                if left == 0 {
                    break;
                }
                let take = left.min(b.len());
                self.sink.extend_from_slice(&b[..take]);
                left -= take;
            }
            Ok(n)
        }
    }

    #[test]
    fn gauge_counts_queue_entries_once_not_clones() {
        let g = gauge();
        let mut out = OutQueue::new(g.clone());
        let body = Bytes::from(vec![7u8; 100]);
        let _cache_copy = body.clone(); // a clone elsewhere costs nothing
        out.push(body.clone());
        assert_eq!(g.load(Ordering::Relaxed), 100);
        out.push(body.clone()); // a second *queue entry* is charged
        assert_eq!(g.load(Ordering::Relaxed), 200);
        out.advance(150);
        assert_eq!(g.load(Ordering::Relaxed), 50);
        out.clear();
        assert_eq!(g.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dropping_a_loaded_queue_releases_the_gauge() {
        let g = gauge();
        let mut out = OutQueue::new(g.clone());
        out.push(Bytes::from(vec![1u8; 64]));
        assert_eq!(g.load(Ordering::Relaxed), 64);
        drop(out);
        assert_eq!(g.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_segments_contribute_no_iovec() {
        let mut out = OutQueue::new(gauge());
        out.push(Bytes::new());
        out.push(Bytes::from_static(b"x"));
        out.push(Bytes::new());
        let mut bufs = Vec::new();
        out.fill_slices(&mut bufs);
        assert_eq!(bufs.len(), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn batches_beyond_iov_max_drain_in_order() {
        let g = gauge();
        let mut out = OutQueue::new(g.clone());
        let n = IOV_MAX + 10;
        let mut expect = Vec::with_capacity(n);
        for i in 0..n {
            let b = (i % 251) as u8;
            expect.push(b);
            out.push(Bytes::from(vec![b]));
        }
        let mut bufs = Vec::new();
        out.fill_slices(&mut bufs);
        assert_eq!(bufs.len(), IOV_MAX, "one call offers at most IOV_MAX");
        let mut stream = ScriptedStream::new(Vec::new());
        write_queue(&mut stream, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(stream.sink, expect);
        assert_eq!(stream.max_bufs_seen, IOV_MAX);
        assert_eq!(g.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn eagain_mid_iovec_resumes_exactly() {
        let g = gauge();
        let mut out = OutQueue::new(g.clone());
        out.push(Bytes::from_static(b"hello"));
        out.push(Bytes::from_static(b"world"));
        // Accept 3 bytes (mid-first-iovec), then EAGAIN.
        let mut stream = ScriptedStream::new(vec![Ev::Accept(3), Ev::Eagain]);
        write_queue(&mut stream, &mut out).unwrap();
        assert_eq!(&stream.sink, b"hel");
        assert_eq!(out.len(), 7);
        assert_eq!(g.load(Ordering::Relaxed), 7);
        // The retry resumes at the right offset within "hello".
        write_queue(&mut stream, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(&stream.sink, b"helloworld");
    }

    fn arb_segs() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..12)
    }

    fn arb_script() -> impl Strategy<Value = Vec<Ev>> {
        proptest::collection::vec(
            prop_oneof![
                (1usize..300).prop_map(Ev::Accept),
                Just(Ev::Eagain),
                Just(Ev::Eintr),
            ],
            0..40,
        )
    }

    proptest! {
        /// Arbitrary kernel short-write/`EAGAIN`/`EINTR` sequences —
        /// with fresh segments pushed mid-drain — never drop, duplicate,
        /// or reorder bytes: the sink is exactly the concatenation of
        /// everything pushed, and the shard gauge returns to zero.
        #[test]
        fn writev_resumption_preserves_the_stream(
            groups in proptest::collection::vec(arb_segs(), 1..4),
            script in arb_script(),
        ) {
            let g = gauge();
            let mut out = OutQueue::new(g.clone());
            let mut stream = ScriptedStream::new(script);
            let mut expect: Vec<u8> = Vec::new();
            for segs in groups {
                for s in segs {
                    expect.extend_from_slice(&s);
                    out.push(Bytes::from(s));
                }
                write_queue(&mut stream, &mut out).unwrap();
            }
            while !out.is_empty() {
                write_queue(&mut stream, &mut out).unwrap();
            }
            prop_assert_eq!(&stream.sink, &expect);
            prop_assert_eq!(g.load(Ordering::Relaxed), 0);
        }
    }
}
