//! The load generator: eight threads, each holding at most one client
//! connection at a time, playing a seeded request stream against the
//! cluster's real sockets and verifying every response.
//!
//! It speaks just enough HTTP to check what comes back — status, length,
//! order and body pattern — and is kept cheap on purpose (responses are
//! verified in the read buffer, never copied), so that the cluster, not
//! the generator, is what saturates.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phttp_http::{Request, Version};
use phttp_proto::ContentStore;
use phttp_trace::TargetId;

use crate::pin::CoreSplit;
use crate::stats::{Window, FAILED_SAMPLE};
use crate::trace::Span;
use crate::workload::{zipf_cdf, Phase, Protocol, Spec, Stream};

/// Generator threads. Fixed, not scaled with the host: the load shape
/// is part of the workload's definition. Eight, so that the cluster's
/// core is saturated: with two, every batch was a ping-pong between two
/// mostly idle virtual CPUs and goodput followed the hypervisor's
/// wake-up latency, not the program (README, "Eight generator threads,
/// not two").
pub const THREADS: usize = 8;

/// How long a client waits for response bytes before the batch counts
/// as timed out.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Largest response head the client accepts.
const MAX_HEAD: usize = 16 * 1024;

/// Client-side spans kept per thread for the trace file (the metrics
/// use every batch; the file is a sample).
const KEPT_BATCH_SPANS: usize = 1000;

/// Everything a generator thread needs, shared and immutable.
pub struct Plan {
    /// The workload.
    pub spec: Spec,
    /// Front-end addresses; connections rotate over them.
    pub addrs: Vec<SocketAddr>,
    /// The corpus, for verification.
    pub store: Arc<ContentStore>,
    /// The encoded GET of every target.
    pub requests: Vec<Vec<u8>>,
    /// Every document in full, when the workload compares whole bodies.
    pub bodies: Vec<Vec<u8>>,
    /// Size of the largest document.
    pub largest_body: usize,
    /// Popularity table of the request stream.
    pub cdf: Arc<Vec<f64>>,
    /// `--seed`.
    pub seed: u64,
    /// Where the generator threads run.
    pub split: CoreSplit,
}

impl Plan {
    /// Builds the plan for `spec` against a started cluster.
    pub fn new(
        spec: &Spec,
        addrs: &[SocketAddr],
        store: &Arc<ContentStore>,
        seed: u64,
        split: &CoreSplit,
    ) -> Plan {
        let version = match spec.protocol {
            Protocol::PHttp { .. } => Version::Http11,
            Protocol::Http10 => Version::Http10,
        };
        let targets = store.len() as u32;
        let requests = (0..targets)
            .map(|t| {
                Request::get(ContentStore::uri(TargetId(t)), version)
                    .to_bytes()
                    .to_vec()
            })
            .collect();
        let bodies = if spec.full_verify_every > 0 {
            (0..targets)
                .map(|t| store.body(TargetId(t)).to_vec())
                .collect()
        } else {
            Vec::new()
        };
        Plan {
            spec: spec.clone(),
            addrs: addrs.to_vec(),
            store: store.clone(),
            requests,
            bodies,
            largest_body: (0..targets)
                .map(|t| store.size(TargetId(t)) as usize)
                .max()
                .unwrap_or(0),
            cdf: Arc::new(zipf_cdf(store.len(), spec.zipf_s)),
            seed,
            split: split.clone(),
        }
    }

    /// The request stream of `thread` in `phase`.
    pub fn stream(&self, thread: usize, phase: Phase) -> Stream {
        Stream::new(self.cdf.clone(), self.store.len(), self.seed, thread, phase)
    }
}

/// Why a batch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `connect` was refused or failed.
    Connect,
    /// A socket error, or the server closed early.
    Transport,
    /// No bytes within [`CLIENT_TIMEOUT`].
    Timeout,
    /// Not a well-formed `200` response.
    Garbled,
    /// Well-formed, but not the document asked for.
    Mismatch,
}

/// Opens a client connection.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

/// The reusable response buffer of one generator thread: bytes
/// `start..end` are received but not yet consumed.
pub struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// An empty buffer with room for a response of `largest_body`
    /// bytes, so that it never has to grow (growth would make peak RSS
    /// depend on which documents a thread happened to draw first).
    pub fn new(largest_body: usize) -> ReadBuf {
        ReadBuf {
            buf: vec![0; (largest_body + MAX_HEAD).max(64 * 1024)],
            start: 0,
            end: 0,
        }
    }

    /// Drops everything buffered (a new connection starts clean).
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Appends bytes as if they had been read from a socket (the inline
    /// replay feeds responses it built itself).
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Makes at least `extra` bytes writable after `end`.
    fn make_room(&mut self, extra: usize) {
        if self.start == self.end {
            self.reset();
        }
        if self.buf.len() - self.end >= extra {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < extra {
            self.buf.resize((self.end + extra).next_power_of_two(), 0);
        }
    }

    /// Reads more bytes from `stream`; at least one, or an error.
    fn fill(&mut self, stream: &mut TcpStream, want: usize) -> Result<(), Failure> {
        self.make_room(want.max(4096));
        match stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(Failure::Transport),
            Ok(n) => {
                self.end += n;
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(Failure::Timeout)
            }
            Err(_) => Err(Failure::Transport),
        }
    }

    /// Parses the response head at `start`, if it is complete: returns
    /// the head's length and the declared body length.
    fn parse_head(&self) -> Result<Option<(usize, usize)>, Failure> {
        let avail = &self.buf[self.start..self.end];
        let Some(head_len) = avail.windows(4).position(|w| w == b"\r\n\r\n") else {
            return if avail.len() > MAX_HEAD {
                Err(Failure::Garbled)
            } else {
                Ok(None)
            };
        };
        let head = &avail[..head_len];
        let ok = head.len() >= 13 && head.starts_with(b"HTTP/1.") && &head[8..13] == b" 200 ";
        if !ok {
            return Err(Failure::Garbled);
        }
        const KEY: &[u8] = b"content-length:";
        let at = head
            .windows(KEY.len())
            .position(|w| w.eq_ignore_ascii_case(KEY))
            .ok_or(Failure::Garbled)?;
        let digits = head[at + KEY.len()..]
            .iter()
            .skip_while(|b| **b == b' ')
            .take_while(|b| b.is_ascii_digit());
        let mut len = 0usize;
        let mut seen = false;
        for d in digits {
            seen = true;
            len = len
                .checked_mul(10)
                .and_then(|l| l.checked_add((d - b'0') as usize))
                .filter(|&l| l <= phttp_http::MAX_BODY)
                .ok_or(Failure::Garbled)?;
        }
        if !seen {
            return Err(Failure::Garbled);
        }
        Ok(Some((head_len + 4, len)))
    }

    /// Receives one whole response and returns where its body lies in
    /// the buffer; the response is consumed. `first_byte` is stamped
    /// when the first bytes of a not-yet-started batch arrive.
    fn response(
        &mut self,
        stream: &mut TcpStream,
        first_byte: &mut Option<Instant>,
    ) -> Result<Range<usize>, Failure> {
        let (head_len, body_len) = loop {
            if self.start < self.end {
                first_byte.get_or_insert_with(Instant::now);
                if let Some(parsed) = self.parse_head()? {
                    break parsed;
                }
            }
            self.fill(stream, 0)?;
        };
        let total = head_len + body_len;
        while self.end - self.start < total {
            let missing = total - (self.end - self.start);
            self.fill(stream, missing)?;
        }
        let body = self.start + head_len..self.start + total;
        self.start += total;
        Ok(body)
    }

    /// The bytes of a range [`response`](Self::response) returned.
    fn slice(&self, r: Range<usize>) -> &[u8] {
        &self.buf[r]
    }
}

/// Durations of one traced batch, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTimes {
    /// `connect` (0 when the batch reused its connection).
    pub connect_ns: u64,
    /// First request byte written → first response byte read.
    pub first_byte_ns: u64,
    /// First response byte → last byte of the last response.
    pub last_byte_ns: u64,
}

/// What one generator thread did in one phase.
#[derive(Debug, Default)]
pub struct ThreadReport {
    /// Requests sent (or that a refused connection was meant to carry).
    pub attempted: u64,
    /// Responses received and verified.
    pub verified: u64,
    /// `attempted` minus `verified`, counted where the batch failed.
    pub failed: u64,
    /// Verified body bytes.
    pub body_bytes: u64,
    /// Connections opened.
    pub connections: u64,
    /// Batches completed (verified or not).
    pub batches: u64,
    /// The first failure seen, for the operator.
    pub first_failure: Option<Failure>,
    /// Closed loop: per-window tallies.
    pub windows: Vec<Window>,
    /// Traced closed loop: per-batch durations.
    pub batch_times: Vec<BatchTimes>,
    /// Traced closed loop: spans of the first [`KEPT_BATCH_SPANS`]
    /// batches, ids local to this list.
    pub spans: Vec<Span>,
    /// Open loop: due time → last byte, ns ([`FAILED_SAMPLE`] on failure).
    pub open_latency_ns: Vec<u64>,
    /// Open loop: due time → first byte written, ns.
    pub open_lag_ns: Vec<u64>,
    /// Open loop: most arrivals already due but unsent when a batch
    /// completed.
    pub open_backlog_max: u64,
}

impl ThreadReport {
    /// Folds another thread's report in (windows merge index-wise).
    pub fn merge(&mut self, other: ThreadReport) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.failed += other.failed;
        self.body_bytes += other.body_bytes;
        self.connections += other.connections;
        self.batches += other.batches;
        self.first_failure = self.first_failure.or(other.first_failure);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.merge(theirs);
        }
        self.batch_times.extend(other.batch_times);
        if self.spans.is_empty() {
            self.spans = other.spans;
        }
        self.open_latency_ns.extend(other.open_latency_ns);
        self.open_lag_ns.extend(other.open_lag_ns);
        self.open_backlog_max = self.open_backlog_max.max(other.open_backlog_max);
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many batches (set-up's warm-up: a fixed amount of
    /// work, so that set-up time tracks how fast the cluster does it).
    Batches(usize),
    /// After `windows` windows of `window` each, counted from the
    /// phase's start.
    Windows {
        /// Number of windows.
        windows: usize,
        /// Length of one.
        window: Duration,
    },
}

/// One generator thread's mutable state.
struct Worker<'a> {
    plan: &'a Plan,
    stream: Stream,
    rbuf: ReadBuf,
    wire: Vec<u8>,
    targets: Vec<TargetId>,
    client: Option<TcpStream>,
    /// Batches sent on `client` so far.
    batches_on_conn: usize,
    /// Responses verified by this worker (drives the full-body sample).
    seen: u64,
    report: ThreadReport,
}

/// How one batch went, as the instants its phases began.
struct BatchOutcome {
    /// When `connect` began, if this batch opened its connection.
    connect_start: Option<Instant>,
    write_start: Instant,
    first_byte: Instant,
    end: Instant,
    failure: Option<Failure>,
}

impl BatchOutcome {
    /// Where the batch's latency is timed from: `connect` for HTTP/1.0
    /// (the connection *is* the batch), the first written byte for a
    /// persistent connection (its set-up belongs to no one batch).
    fn start(&self, protocol: Protocol) -> Instant {
        match (protocol, self.connect_start) {
            (Protocol::Http10, Some(began)) => began,
            _ => self.write_start,
        }
    }

    fn times(&self) -> BatchTimes {
        let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as u64;
        BatchTimes {
            connect_ns: self.connect_start.map_or(0, |c| ns(c, self.write_start)),
            first_byte_ns: ns(self.write_start, self.first_byte),
            last_byte_ns: ns(self.first_byte, self.end),
        }
    }
}

impl<'a> Worker<'a> {
    fn new(plan: &'a Plan, thread: usize, phase: Phase) -> Worker<'a> {
        Worker {
            plan,
            stream: plan.stream(thread, phase),
            rbuf: ReadBuf::new(plan.largest_body),
            wire: Vec::new(),
            targets: Vec::new(),
            client: None,
            batches_on_conn: 0,
            seen: 0,
            report: ThreadReport::default(),
        }
    }

    /// Draws the next batch's targets and assembles its wire bytes.
    fn next_batch(&mut self) {
        self.targets.clear();
        for _ in 0..self.plan.spec.protocol.pipeline() {
            self.targets.push(self.stream.next_target());
        }
        encode_batch(self.plan, &self.targets, &mut self.wire);
    }

    /// Plays one batch: connects if there is no connection, writes the
    /// pipelined requests, reads and verifies every response. Updates
    /// the report's counters; the caller records the latency sample.
    fn play_batch(&mut self) -> BatchOutcome {
        let n = self.targets.len() as u64;
        self.report.attempted += n;
        self.report.batches += 1;
        let mut connect_start = None;
        if self.client.is_none() {
            let began = Instant::now();
            connect_start = Some(began);
            let addr = self.plan.addrs[self.report.connections as usize % self.plan.addrs.len()];
            match connect(addr) {
                Ok(c) => {
                    self.client = Some(c);
                    self.batches_on_conn = 0;
                    self.rbuf.reset();
                    self.report.connections += 1;
                }
                Err(_) => {
                    // Do not spin on a refusing listener.
                    std::thread::sleep(Duration::from_millis(1));
                    return self.fail(connect_start, n, Failure::Connect);
                }
            }
        }
        let write_start = Instant::now();
        let client = self.client.as_mut().expect("connected above");
        if client.write_all(&self.wire).is_err() {
            return self.fail(connect_start, n, Failure::Transport);
        }
        let mut first_byte = None;
        for i in 0..self.targets.len() {
            let client = self.client.as_mut().expect("still connected");
            let body = match self.rbuf.response(client, &mut first_byte) {
                Ok(b) => b,
                Err(why) => return self.fail(connect_start, n - i as u64, why),
            };
            let len = body.len() as u64;
            let body = self.rbuf.slice(body);
            if !verify_body(self.plan, &mut self.seen, self.targets[i], body) {
                return self.fail(connect_start, n - i as u64, Failure::Mismatch);
            }
            self.report.verified += 1;
            self.report.body_bytes += len;
        }
        let end = Instant::now();
        self.batches_on_conn += 1;
        if self.batches_on_conn >= self.plan.spec.protocol.batches_per_conn() {
            self.client = None;
        }
        BatchOutcome {
            connect_start,
            write_start,
            first_byte: first_byte.unwrap_or(end),
            end,
            failure: None,
        }
    }

    /// Books a failed batch: the unanswered requests count as failed
    /// and the connection is abandoned.
    fn fail(
        &mut self,
        connect_start: Option<Instant>,
        unanswered: u64,
        why: Failure,
    ) -> BatchOutcome {
        self.report.failed += unanswered;
        self.report.first_failure.get_or_insert(why);
        self.client = None;
        let now = Instant::now();
        BatchOutcome {
            connect_start,
            write_start: now,
            first_byte: now,
            end: now,
            failure: Some(why),
        }
    }
}

/// Checks `body` against the document `target` names: length plus head
/// and tail pattern on every response (`ContentStore::verify`), every
/// byte on the workload's sample. Shared with the inline replay.
pub fn verify_body(plan: &Plan, seen: &mut u64, target: TargetId, body: &[u8]) -> bool {
    *seen += 1;
    if !plan.store.verify(target, body) {
        return false;
    }
    let every = plan.spec.full_verify_every as u64;
    every == 0 || !seen.is_multiple_of(every) || body == plan.bodies[target.0 as usize].as_slice()
}

/// Parses and verifies the one response in `rbuf` (the inline replay's
/// stand-in for the socket path; same parser, same checks).
pub fn parse_verify_buffered(
    plan: &Plan,
    rbuf: &mut ReadBuf,
    seen: &mut u64,
    target: TargetId,
) -> bool {
    let Ok(Some((head_len, body_len))) = rbuf.parse_head() else {
        return false;
    };
    if rbuf.end - rbuf.start != head_len + body_len {
        return false;
    }
    let body = rbuf.start + head_len..rbuf.end;
    let ok = verify_body(plan, seen, target, &rbuf.buf[body]);
    rbuf.reset();
    ok
}

/// Assembles the wire bytes of one batch (what the traced replay times
/// as the generator's encode cost).
pub fn encode_batch(plan: &Plan, targets: &[TargetId], wire: &mut Vec<u8>) {
    wire.clear();
    for t in targets {
        wire.extend_from_slice(&plan.requests[t.0 as usize]);
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min((FAILED_SAMPLE - 1) as u128) as u64
}

/// Runs `body` on [`THREADS`] generator threads pinned to the
/// generator's cores and merges their reports.
fn on_generator_threads(plan: &Plan, body: impl Fn(usize) -> ThreadReport + Sync) -> ThreadReport {
    let mut merged = ThreadReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let body = &body;
                scope.spawn(move || {
                    plan.split.enter_generator();
                    body(thread)
                })
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("generator thread panicked"));
        }
    });
    merged
}

/// The closed loop: each thread sends its next batch as soon as the
/// previous one completes. With `traced`, also records client-side
/// spans per batch.
pub fn closed_loop(plan: &Plan, phase: Phase, until: Until, traced: bool) -> ThreadReport {
    let t0 = Instant::now();
    on_generator_threads(plan, |thread| {
        let mut w = Worker::new(plan, thread, phase);
        let (max_batches, n_windows, window) = match until {
            Until::Batches(n) => (n, 0, Duration::ZERO),
            Until::Windows { windows, window } => (usize::MAX, windows, window),
        };
        w.report.windows = vec![Window::default(); n_windows];
        let end = t0 + window * n_windows as u32;
        let mut played = 0;
        while played < max_batches && (n_windows == 0 || Instant::now() < end) {
            w.next_batch();
            let verified_before = w.report.verified;
            let bytes_before = w.report.body_bytes;
            let out = w.play_batch();
            played += 1;
            if n_windows > 0 {
                let idx = ((out.end - t0).as_nanos() / window.as_nanos().max(1)) as usize;
                if let Some(win) = w.report.windows.get_mut(idx) {
                    win.responses += w.report.verified - verified_before;
                    win.body_bytes += w.report.body_bytes - bytes_before;
                    win.batch_ns.push(match out.failure {
                        None => ns(out.end - out.start(plan.spec.protocol)),
                        Some(_) => FAILED_SAMPLE,
                    });
                }
            }
            if traced && out.failure.is_none() {
                w.report.batch_times.push(out.times());
                if thread == 0 && w.report.batch_times.len() <= KEPT_BATCH_SPANS {
                    push_batch_spans(&mut w.report.spans, t0, &out, played as u64);
                }
            }
        }
        w.report
    })
}

/// Appends the span tree of one traced batch: `client.batch` over
/// `client.connect` (if it connected), `client.first_byte` (request
/// written → first response byte) and `client.last_byte` (→ last).
fn push_batch_spans(spans: &mut Vec<Span>, t0: Instant, out: &BatchOutcome, request_id: u64) {
    let at = |i: Instant| i.saturating_duration_since(t0).as_nanos() as u64;
    let parent = spans.len() as u32;
    let mut span = |name, from: Instant, to: Instant, parent| {
        spans.push(Span {
            name,
            start_ns: at(from),
            end_ns: at(to),
            parent,
            request_id,
        });
    };
    let begin = out.connect_start.unwrap_or(out.write_start);
    span("client.batch", begin, out.end, None);
    if let Some(c) = out.connect_start {
        span("client.connect", c, out.write_start, Some(parent));
    }
    span(
        "client.first_byte",
        out.write_start,
        out.first_byte,
        Some(parent),
    );
    span("client.last_byte", out.first_byte, out.end, Some(parent));
}

/// The open loop: batches fall due on a Poisson schedule at the
/// workload's fixed rate whatever the cluster does, and each is timed
/// from when it was *due*, so a stall is charged to every arrival it
/// delays.
pub fn open_loop(plan: &Plan, length: Duration) -> ThreadReport {
    let t0 = Instant::now();
    on_generator_threads(plan, |thread| {
        let mut w = Worker::new(plan, thread, Phase::Open);
        let mean_gap_s = THREADS as f64 / plan.spec.open_rate;
        let mut schedule = Vec::new();
        let mut due_s = w.stream.next_gap_s(mean_gap_s);
        while due_s < length.as_secs_f64() {
            schedule.push(Duration::from_secs_f64(due_s));
            due_s += w.stream.next_gap_s(mean_gap_s);
        }
        for (i, &offset) in schedule.iter().enumerate() {
            let due = t0 + offset;
            wait_until(due);
            w.next_batch();
            let out = w.play_batch();
            let sent = out.connect_start.unwrap_or(out.write_start);
            w.report
                .open_lag_ns
                .push(ns(sent.saturating_duration_since(due)));
            w.report.open_latency_ns.push(match out.failure {
                None => ns(out.end.saturating_duration_since(due)),
                Some(_) => FAILED_SAMPLE,
            });
            let now = out.end - t0;
            let due_by_now = schedule.partition_point(|&d| d <= now);
            w.report.open_backlog_max = w
                .report
                .open_backlog_max
                .max(due_by_now.saturating_sub(i + 1) as u64);
        }
        w.report
    })
}

/// Sleeps until shortly before `due`, then yields until it.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// One verified pass over the whole corpus, split between the
/// generator threads, each on one connection (set-up: fills the caches
/// and proves every document round-trips before anything is timed).
pub fn corpus_pass(plan: &Plan) -> ThreadReport {
    on_generator_threads(plan, |thread| {
        let mut w = Worker::new(plan, thread, Phase::Warmup);
        let pipeline = plan.spec.protocol.pipeline();
        let ids: Vec<u32> = (0..plan.store.len() as u32).collect();
        for chunk in ids.chunks(pipeline).skip(thread).step_by(THREADS) {
            w.targets = chunk.iter().map(|&t| TargetId(t)).collect();
            encode_batch(plan, &w.targets, &mut w.wire);
            // One connection for the whole pass, whatever the
            // workload's batches-per-connection.
            w.batches_on_conn = 0;
            w.play_batch();
        }
        w.report
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &[u8]) -> Vec<u8> {
        let mut r =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        r.extend_from_slice(body);
        r
    }

    #[test]
    fn head_parser_accepts_ours_and_rejects_the_rest() {
        let mut b = ReadBuf::new(0);
        b.push(&response(b"hello"));
        assert_eq!(b.parse_head(), Ok(Some((38, 5))));
        for bad in [
            &b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
            b"SPDY/9.9 200 OK\r\nContent-Length: 0\r\n\r\n",
        ] {
            let mut b = ReadBuf::new(0);
            b.push(bad);
            assert_eq!(b.parse_head(), Err(Failure::Garbled), "{bad:?}");
        }
        let mut partial = ReadBuf::new(0);
        partial.push(b"HTTP/1.1 200 OK\r\nContent-Le");
        assert_eq!(partial.parse_head(), Ok(None));
        let mut lower = ReadBuf::new(0);
        lower.push(b"HTTP/1.0 200 OK\r\ncontent-length:  12\r\n\r\n");
        assert_eq!(lower.parse_head(), Ok(Some((40, 12))));
    }

    #[test]
    fn read_buffer_compacts_and_grows() {
        let mut b = ReadBuf::new(0);
        let big = vec![7u8; 200 * 1024];
        b.push(b"abc");
        b.start = 2; // "c" left over from a previous response
        b.push(&big);
        assert_eq!(b.start, 0);
        assert_eq!(b.end, 1 + big.len());
        assert_eq!(b.buf[0], b'c');
        assert!(b.buf[1..b.end].iter().all(|&x| x == 7));
        b.start = b.end;
        b.push(b"z");
        assert_eq!((b.start, b.end), (0, 1));
    }

    #[test]
    fn report_merge_adds_counts_and_zips_windows() {
        let mut a = ThreadReport {
            attempted: 8,
            verified: 8,
            windows: vec![Window {
                responses: 8,
                body_bytes: 80,
                batch_ns: vec![10, 12],
            }],
            ..ThreadReport::default()
        };
        a.merge(ThreadReport {
            attempted: 4,
            verified: 3,
            failed: 1,
            first_failure: Some(Failure::Timeout),
            windows: vec![
                Window {
                    responses: 3,
                    body_bytes: 30,
                    batch_ns: vec![FAILED_SAMPLE],
                },
                Window::default(),
            ],
            open_backlog_max: 5,
            ..ThreadReport::default()
        });
        assert_eq!((a.attempted, a.verified, a.failed), (12, 11, 1));
        assert_eq!(a.first_failure, Some(Failure::Timeout));
        assert_eq!(a.windows.len(), 2);
        assert_eq!(a.windows[0].responses, 11);
        assert_eq!(a.windows[0].batch_ns.len(), 3);
        assert_eq!(a.open_backlog_max, 5);
    }
}
