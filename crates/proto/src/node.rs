//! Back-end node state: file cache, emulated disk, control session, stats.
//!
//! Each node owns a byte-budget cache (standing in for FreeBSD's unified
//! buffer cache; GreedyDual-Size replacement by default), the disk-queue
//! depth the extended-LARD heuristic observes, the node side of its
//! control session, and its counters. The reactor shards serve from it
//! through the split, non-blocking primitives
//! ([`NodeState::begin_serve_body`] / [`NodeState::finish_disk_read`]),
//! scheduling each read on an emulated spindle (one read at a time, back
//! to back on its own timeline) and fetching laterally over persistent
//! peer sessions (standing in for the paper's NFS cross-mounts —
//! DESIGN.md §6.3). Remotely fetched content is never inserted into the
//! fetching node's cache, mirroring the paper's disabled NFS client
//! caching.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{LockClass, Mutex};
use phttp_core::{CacheEvent, NodeId};
use phttp_http::{Request, ResponseParser, Version};
use phttp_simcore::lru::{EvictPolicy, LruCache};
use phttp_trace::TargetId;

use crate::control::{encode, ControlMsg};
use crate::store::ContentStore;

/// Emulated disk timing.
#[derive(Debug, Clone, Copy)]
pub struct DiskEmu {
    /// Fixed positioning delay per read.
    pub seek: Duration,
    /// Transfer rate in bytes/second.
    pub bytes_per_sec: f64,
}

impl Default for DiskEmu {
    fn default() -> Self {
        // Scaled down ~5x from the 1998-era disk the simulator models, so
        // prototype experiments finish quickly while misses still dominate
        // cache hits by orders of magnitude.
        DiskEmu {
            seek: Duration::from_micros(2_000),
            bytes_per_sec: 60.0 * 1024.0 * 1024.0,
        }
    }
}

impl DiskEmu {
    /// Read latency for `bytes`.
    pub fn read_time(&self, bytes: u64) -> Duration {
        self.seek + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// One node's emulated spindle. Every read is admitted here (by the
/// reactor's disk scheduler and by [`NodeState::serve_local`] alike),
/// so the device runs on its own timeline — arrivals and service times —
/// and is never billed for how late its driver (an event loop turn, a
/// thread wake-up) got round to the next read.
#[derive(Debug, Default)]
pub struct Spindle {
    /// Deadline of the last read admitted: when the next may start.
    busy_until: Option<Instant>,
}

impl Spindle {
    /// Admits a read that reached the disk at `arrival`: it starts back
    /// to back behind a busy spindle, at once on an idle one. Returns
    /// its deadline and its delay — queue wait plus `read_time`, the
    /// miss's GreedyDual cost sample.
    pub fn admit(&mut self, arrival: Instant, read_time: Duration) -> (Instant, Duration) {
        let read_start = self.busy_until.map_or(arrival, |t| t.max(arrival));
        let deadline = read_start + read_time;
        self.busy_until = Some(deadline);
        (deadline, deadline - arrival)
    }
}

/// Cache-feedback reporting behaviour of a back-end node.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// Whether the node tracks and reports its cache admission/eviction
    /// deltas over the control session at all.
    pub enabled: bool,
    /// Flush a report as soon as this many events are pending, even
    /// inside the interval (bounds report size under churn).
    pub batch: usize,
    /// Minimum spacing between reports otherwise (the paper's periodic
    /// control-session cadence).
    pub min_interval: Duration,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            enabled: true,
            batch: 64,
            min_interval: Duration::from_millis(5),
        }
    }
}

/// Outbound bytes a dead-reader control session may queue before the
/// node declares the session lost and stops reporting.
const MAX_CONTROL_BACKLOG: usize = 4 * 1024 * 1024;

/// Events per encoded feedback frame. One event costs 5 wire bytes, so
/// 4096 events is ~20 KiB — comfortably under the protocol's
/// [`MAX_FRAME`](crate::control::MAX_FRAME) bound however large the
/// pending backlog (or the `feedback_batch` knob) grows; a flush emits
/// as many frames as it needs.
const FEEDBACK_EVENTS_PER_FRAME: usize = 4096;

/// Node-side state of the control session: pending (unencoded) events,
/// encoded-but-unwritten bytes, and the stream itself. Writes are
/// non-blocking — the event loop is both this writer (disk completions
/// run on it) and the front-end-side reader, so a blocking write could
/// deadlock the loop against itself; unwritten bytes stay queued and
/// retry on the next flush instead.
#[derive(Debug, Default)]
struct ControlTx {
    stream: Option<TcpStream>,
    pending: Vec<CacheEvent>,
    outbuf: Vec<u8>,
    last_flush: Option<Instant>,
}

/// Per-node counters (all monotonic).
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Requests served by this node (local + lateral service).
    pub served: AtomicU64,
    /// Cache hits among served requests.
    pub hits: AtomicU64,
    /// Lateral fetches issued by this node (as connection handler).
    pub lateral_out: AtomicU64,
    /// Lateral requests served by this node (as peer).
    pub lateral_in: AtomicU64,
    /// Connections migrated onto this node (multiple handoff).
    pub migrations_in: AtomicU64,
    /// Response payload bytes produced by this node.
    pub bytes: AtomicU64,
    /// Emulated disk reads actually performed (misses that reached the
    /// spindle: one per flight rather than per miss).
    pub disk_reads: AtomicU64,
    /// Requests that parked on an already-in-flight fetch for their
    /// target — delayed hits — instead of fetching redundantly.
    pub coalesced_waits: AtomicU64,
}

/// Snapshot of [`NodeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Requests served by this node.
    pub served: u64,
    /// Cache hits among them.
    pub hits: u64,
    /// Lateral fetches issued.
    pub lateral_out: u64,
    /// Lateral requests served for peers.
    pub lateral_in: u64,
    /// Connections migrated onto this node.
    pub migrations_in: u64,
    /// Payload bytes produced.
    pub bytes: u64,
    /// Emulated disk reads performed.
    pub disk_reads: u64,
    /// Requests parked on in-flight fetches (delayed hits).
    pub coalesced_waits: u64,
}

impl NodeStats {
    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            lateral_out: self.lateral_out.load(Ordering::Relaxed),
            lateral_in: self.lateral_in.load(Ordering::Relaxed),
            migrations_in: self.migrations_in.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
        }
    }
}

/// Shared state of one back-end node.
pub struct NodeState {
    /// This node's index.
    pub id: NodeId,
    /// Main-memory file cache. Entries carry the body as a refcounted
    /// [`Bytes`] slice, so a hit clones a handle (O(1)) instead of
    /// regenerating the document; the cache is the body's sole long-term
    /// owner — serve paths hold extra handles only while bytes are in
    /// flight toward a socket.
    pub cache: Mutex<LruCache<TargetId, Bytes>>,
    /// The spindle [`serve_local`](Self::serve_local)'s reads queue on
    /// (the reactor keeps one per shard and node in its disk scheduler).
    disk: Mutex<Spindle>,
    /// Number of requests queued on or holding the disk.
    disk_queue: AtomicUsize,
    /// Disk timing model.
    pub disk_emu: DiskEmu,
    /// The document corpus.
    pub store: std::sync::Arc<ContentStore>,
    /// Peer lateral-fetch addresses, indexed by node id.
    pub peer_addrs: Vec<SocketAddr>,
    /// Idle persistent lateral connections, per peer.
    peer_pool: Vec<Mutex<Vec<TcpStream>>>,
    /// Idle lateral connections retained per peer pool.
    peer_pool_cap: usize,
    /// Pending injected lateral-server faults (tests): while positive,
    /// the next lateral request this node would serve kills its peer
    /// connection instead — the deterministic stand-in for a lateral
    /// server crashing mid-fetch.
    lateral_faults: AtomicI64,
    /// Counters.
    pub stats: NodeStats,
    /// Cache-feedback reporting behaviour.
    feedback: FeedbackConfig,
    /// Node side of the control session (lock order: `cache` may be held
    /// when taking `control`, never the reverse).
    control: Mutex<ControlTx>,
}

impl NodeState {
    /// Creates a node.
    pub fn new(
        id: NodeId,
        cache_bytes: u64,
        disk_emu: DiskEmu,
        store: std::sync::Arc<ContentStore>,
        peer_addrs: Vec<SocketAddr>,
    ) -> Self {
        let nid = id.0 as u32;
        let peer_pool = (0..peer_addrs.len())
            .map(|p| Mutex::new_classed(LockClass::peer_pool(p as u32), Vec::new()))
            .collect();
        let feedback = FeedbackConfig::default();
        let mut cache: LruCache<TargetId, Bytes> = LruCache::new(cache_bytes);
        cache.set_journal(feedback.enabled);
        NodeState {
            id,
            cache: Mutex::new_classed(LockClass::cache(nid), cache),
            disk: Mutex::new_classed(LockClass::disk_spindle(nid), Spindle::default()),
            disk_queue: AtomicUsize::new(0),
            disk_emu,
            store,
            peer_addrs,
            peer_pool,
            peer_pool_cap: 8,
            lateral_faults: AtomicI64::new(0),
            stats: NodeStats::default(),
            feedback,
            control: Mutex::new_classed(LockClass::control(nid), ControlTx::default()),
        }
    }

    /// Overrides the cache-feedback behaviour (builder style, before the
    /// node is shared).
    pub fn with_feedback(mut self, cfg: FeedbackConfig) -> Self {
        self.cache.get_mut().set_journal(cfg.enabled);
        self.feedback = cfg;
        self
    }

    /// Overrides the per-peer idle lateral-connection pool capacity
    /// (builder style; `Cluster::start` validates it is non-zero).
    pub fn with_peer_pool_cap(mut self, cap: usize) -> Self {
        self.peer_pool_cap = cap;
        self
    }

    /// Selects the cache victim-selection policy (builder style) — strict
    /// LRU or GreedyDual-Size costed by measured miss delay.
    pub fn with_cache_policy(mut self, policy: EvictPolicy) -> Self {
        self.cache.get_mut().set_policy(policy);
        self
    }

    /// The per-peer idle lateral-connection pool capacity.
    pub fn peer_pool_cap(&self) -> usize {
        self.peer_pool_cap
    }

    /// Test hook: arms `n` lateral-server faults on this node. Each of
    /// the next `n` lateral requests it would serve kills that peer
    /// connection instead of responding — the fetching shard observes
    /// EOF mid-fetch and must degrade the fetch to local service.
    pub fn inject_lateral_faults(&self, n: u64) {
        self.lateral_faults.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Pending armed lateral faults (0 once every injected fault fired).
    pub fn pending_lateral_faults(&self) -> u64 {
        self.lateral_faults.load(Ordering::Relaxed).max(0) as u64
    }

    /// Consumes one armed lateral fault if any is pending.
    pub(crate) fn take_lateral_fault(&self) -> bool {
        if self.lateral_faults.load(Ordering::Relaxed) <= 0 {
            return false;
        }
        // The decrement below can push the counter negative under a
        // race; `pending_lateral_faults` clamps and the extra fault is
        // simply not taken (fetch_sub result tells us if we got one).
        self.lateral_faults.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Attaches the node side of the control session. The stream is
    /// switched to non-blocking mode (see the private `ControlTx` type
    /// for why writes must never block).
    pub fn attach_control(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .expect("control stream non-blocking");
        self.control.lock().stream = Some(stream);
    }

    /// Atomically snapshots the cache, writes the [`ControlMsg::Join`]
    /// announcement on `stream`, and installs it as the control
    /// session. Holding the cache and control locks (in that order —
    /// the same order `cache_insert_reporting` takes them) across all
    /// three steps guarantees that every cache event generated after
    /// the snapshot is ordered *after* the `Join` frame on the wire,
    /// and that no stale pre-snapshot event survives to contradict it.
    /// Without this, an admission landing between a detached
    /// [`join_msg`](Self::join_msg) snapshot and
    /// [`attach_control`](Self::attach_control) is silently dropped by
    /// the session-less flush path, leaving the target cached but
    /// absent from every mirror — a mapping divergence that no later
    /// cache hit ever repairs.
    pub fn attach_control_with_join(
        &self,
        mut stream: TcpStream,
        weight: u32,
    ) -> std::io::Result<()> {
        let cache = self.cache.lock();
        let mut tx = self.control.lock();
        let events = cache
            .contents_lru_order()
            .into_iter()
            .map(|(t, _)| CacheEvent::Admit(t))
            .collect();
        drop(cache);
        // Down-window residue describes states the snapshot supersedes.
        tx.pending.clear();
        tx.outbuf.clear();
        let msg = ControlMsg::Join {
            node: self.id,
            weight,
            events,
        };
        let _ = stream.set_nodelay(true);
        // Announce while the stream is still blocking (the control
        // session flips non-blocking for the node's feedback writes).
        stream.write_all(&encode(&msg))?;
        stream.set_nonblocking(true)?;
        tx.stream = Some(stream);
        Ok(())
    }

    /// Drops the node side of the control session; the front-end's
    /// reader observes EOF. Called by `Cluster::shutdown` so blocking
    /// control readers unwind without timeouts.
    pub fn close_control(&self) {
        let mut tx = self.control.lock();
        tx.stream = None;
        tx.pending.clear();
        tx.outbuf.clear();
    }

    /// Encodes and (non-blockingly) sends everything pending on the
    /// control session, regardless of batch size or interval. Used by
    /// the front-end's periodic tick to sweep out stragglers on idle
    /// nodes, by `Cluster::shutdown` for the final quiescent flush, and
    /// by tests that want the dispatcher's belief settled *now*.
    pub fn flush_feedback(&self) {
        if !self.feedback.enabled {
            return;
        }
        let mut tx = self.control.lock();
        self.maybe_flush(&mut tx, true);
    }

    /// Like [`flush_feedback`](Self::flush_feedback) but honouring the
    /// configured batch/interval thresholds — the front-end's periodic
    /// sweep uses this so an idle node's stragglers go out on the
    /// node's own reporting cadence, not the sweep's.
    pub fn flush_feedback_if_due(&self) {
        if !self.feedback.enabled {
            return;
        }
        let mut tx = self.control.lock();
        self.maybe_flush(&mut tx, false);
    }

    /// Inserts a just-read document into the cache and records the
    /// resulting admission/eviction delta for the next feedback report.
    /// Events are appended while the cache lock is still held (lock
    /// order: `cache` → `control`), so the per-node event order on the
    /// wire is exactly the cache's own mutation order — the property
    /// that lets the dispatcher's mirror replay to the true contents.
    /// `agg_delay_us` is the measured aggregate miss delay of the fetch
    /// that produced this insert (arrival to completion, summed over
    /// leader and waiters, as `phttp-sim` feeds) — GreedyDual's cost
    /// sample for the entry; plain LRU records and ignores it. `body` is
    /// the just-read document slice the cache takes (shared) ownership of.
    fn cache_insert_reporting(&self, target: TargetId, size: u64, agg_delay_us: u64, body: Bytes) {
        let mut cache = self.cache.lock();
        let admitted = cache.insert_valued_with_delay(target, size, body, agg_delay_us);
        if !self.feedback.enabled {
            return;
        }
        let evicted = cache.drain_evictions();
        let rejected = !admitted && !cache.contains(target);
        let mut tx = self.control.lock();
        drop(cache);
        if admitted {
            tx.pending.push(CacheEvent::Admit(target));
        } else if rejected {
            // Oversized target the cache refused: report it as "not
            // cached" so a belief about it cannot diverge forever.
            tx.pending.push(CacheEvent::Evict(target));
        }
        tx.pending
            .extend(evicted.into_iter().map(CacheEvent::Evict));
        self.maybe_flush(&mut tx, false);
    }

    /// Flushes the control session if `force`, the batch bound, or the
    /// reporting interval says so. Never blocks: unwritten bytes stay in
    /// `outbuf` for the next attempt, and a session whose reader stopped
    /// draining (backlog past [`MAX_CONTROL_BACKLOG`]) or errored is
    /// dropped.
    fn maybe_flush(&self, tx: &mut ControlTx, force: bool) {
        if tx.pending.is_empty() && tx.outbuf.is_empty() {
            return;
        }
        let due = force
            || tx.pending.len() >= self.feedback.batch
            || tx
                .last_flush
                .is_none_or(|at| at.elapsed() >= self.feedback.min_interval);
        if !due {
            return;
        }
        tx.last_flush = Some(Instant::now());
        if tx.stream.is_none() {
            // Standalone node (no session attached): reports have
            // nowhere to go; drop them so the buffer cannot grow.
            tx.pending.clear();
            tx.outbuf.clear();
            return;
        }
        if !tx.pending.is_empty() {
            let events = std::mem::take(&mut tx.pending);
            // Chunked so no single frame can exceed MAX_FRAME, whatever
            // the backlog or the configured batch size.
            for chunk in events.chunks(FEEDBACK_EVENTS_PER_FRAME) {
                let report = encode(&ControlMsg::CacheFeedback {
                    node: self.id,
                    events: chunk.to_vec(),
                });
                tx.outbuf.extend_from_slice(&report);
            }
            // The paper's control sessions carry queue lengths; ride the
            // current depth along with every feedback report.
            let depth = encode(&ControlMsg::DiskQueue {
                node: self.id,
                depth: self.disk_queue_len() as u32,
            });
            tx.outbuf.extend_from_slice(&depth);
        }
        let ControlTx { stream, outbuf, .. } = tx;
        let mut written = 0;
        let mut dead = false;
        if let Some(s) = stream.as_mut() {
            while written < outbuf.len() {
                match s.write(&outbuf[written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        outbuf.drain(..written);
        if dead || outbuf.len() > MAX_CONTROL_BACKLOG {
            *stream = None;
            outbuf.clear();
        }
    }

    /// Wipes the cache — a node restarting with cold memory — keeping
    /// its configuration, and drops any pending feedback events (they
    /// describe contents that no longer exist; the rejoin handshake's
    /// [`join_msg`](Self::join_msg) supersedes them).
    pub fn reset_cache(&self) {
        let mut cache = self.cache.lock();
        cache.clear();
        let mut tx = self.control.lock();
        drop(cache);
        tx.pending.clear();
        tx.outbuf.clear();
    }

    /// The current cache contents as an admission journal, least
    /// recently used first — replaying it through the dispatcher's
    /// mirror rebuilds the belief exactly, recency included. The warm
    /// half of the `Join` handshake.
    pub fn cache_snapshot_events(&self) -> Vec<CacheEvent> {
        self.cache
            .lock()
            .contents_lru_order()
            .into_iter()
            .map(|(t, _)| CacheEvent::Admit(t))
            .collect()
    }

    /// Builds this node's [`ControlMsg::Join`] announcement: slot,
    /// capacity weight, and the warm-cache journal (empty after
    /// [`reset_cache`](Self::reset_cache) — a cold join).
    pub fn join_msg(&self, weight: u32) -> ControlMsg {
        ControlMsg::Join {
            node: self.id,
            weight,
            events: self.cache_snapshot_events(),
        }
    }

    /// Current number of queued disk events (the observable the extended
    /// LARD policy reads over the control session).
    pub fn disk_queue_len(&self) -> usize {
        self.disk_queue.load(Ordering::Relaxed)
    }

    /// Serves `target` from this node for a serial caller: cache probe,
    /// then on a miss a sleep until this node's [`Spindle`] deadline and
    /// the insert (the OS caches what it reads). Returns the response
    /// body. A serial caller is always its read's only requester, so its
    /// counters and cost sample are those of a reactor flight with no
    /// waiters. Concurrent misses for one target are not coalesced here
    /// — the reactor's flight tables do that; this blocking path stays
    /// only because the benchmark package's inline replay names it, and
    /// goes with the next change to that package.
    pub fn serve_local(&self, target: TargetId) -> Bytes {
        self.serve_local_at(target, Instant::now())
    }

    /// [`serve_local`](Self::serve_local), a miss's delay measured from `arrival`.
    fn serve_local_at(&self, target: TargetId, arrival: Instant) -> Bytes {
        if let Some(body) = self.begin_serve_body(target) {
            return body;
        }
        let (deadline, delay) = self.disk.lock().admit(arrival, self.disk_read_time(target));
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        self.finish_disk_read(target, delay)
    }

    /// Non-blocking first half of serving `target`: probes the cache and
    /// records the serve/bytes/hit counters. A hit returns the body — a
    /// clone of the cached slice (zero-copy; the rare metadata-only entry
    /// regenerates). On a miss (`None`) the disk-queue depth is already
    /// incremented (the request is now "queued on the disk" as far as
    /// the extended-LARD control data is concerned) and the caller owns
    /// scheduling the emulated read; it must call
    /// [`finish_disk_read`](Self::finish_disk_read) exactly once when
    /// the read completes. The reactor's disk scheduler drives this pair;
    /// the blocking [`serve_local`](Self::serve_local) runs it inline.
    pub fn begin_serve_body(&self, target: TargetId) -> Option<Bytes> {
        let size = self.store.size(target);
        let cached = {
            let mut cache = self.cache.lock();
            if cache.touch(target) {
                Some(cache.get(target).cloned())
            } else {
                None
            }
        };
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(size, Ordering::Relaxed);
        match cached {
            Some(body) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(body.unwrap_or_else(|| self.store.body(target)))
            }
            None => {
                self.disk_queue.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Completes a miss started by [`begin_serve_body`](Self::begin_serve_body):
    /// pops the disk queue and inserts the document into the cache (the
    /// OS caches what it reads). `stalled` — the read's measured
    /// delay plus the wait of every request coalesced onto it — is the
    /// insert's cost sample. Returns the body so callers serve the very
    /// slice the cache now owns.
    pub fn finish_disk_read(&self, target: TargetId, stalled: Duration) -> Bytes {
        self.disk_queue.fetch_sub(1, Ordering::Relaxed);
        self.stats.disk_reads.fetch_add(1, Ordering::Relaxed);
        let size = self.store.size(target);
        let body = self.store.body(target);
        self.cache_insert_reporting(target, size, stalled.as_micros() as u64, body.clone());
        body
    }

    /// A clone of the cached body slice for `target`, if present, without
    /// touching recency (delayed-hit delivery is not an access of its own).
    pub fn cached_body(&self, target: TargetId) -> Option<Bytes> {
        self.cache.lock().get(target).cloned()
    }

    /// Refcount-hygiene audit: the strong count of every cached body
    /// slice. With the node quiescent (no response in flight), every
    /// count must be exactly 1 — the cache as sole owner. A higher count
    /// on an idle node means a serve path leaked a handle.
    pub fn cached_body_refcounts(&self) -> Vec<(TargetId, usize)> {
        self.cache
            .lock()
            .iter_values()
            .map(|(t, b)| (t, b.strong_count()))
            .collect()
    }

    /// Records a request that parked on an in-flight local fetch in the
    /// reactor (a delayed hit): it is served — response bytes counted —
    /// without a disk read or a cache hit of its own. The reactor's
    /// per-shard flight table calls this.
    pub fn note_coalesced_serve(&self, target: TargetId) {
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(self.store.size(target), Ordering::Relaxed);
        self.stats.coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lateral request that parked on an in-flight lateral
    /// fetch to the same (remote, target): only the flight leader pays
    /// `lateral_out` and touches the wire; waiters are delayed hits.
    pub fn note_coalesced_lateral(&self) {
        self.stats.coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Books `waiters` requests that rode a successful lateral flight
    /// *from* this node as served here. Only the leader's request reached
    /// this node's lateral server (which booked it like any serve); the
    /// waiters' copies are generated by the fetching node, so without
    /// this they would be served but counted nowhere. A failed flight's
    /// waiters fail over to local service, which books them itself.
    pub fn note_lateral_waiters_served(&self, target: TargetId, waiters: u64) {
        self.stats.served.fetch_add(waiters, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(waiters * self.store.size(target), Ordering::Relaxed);
    }

    /// Emulated read latency for `target` on this node's disk.
    pub fn disk_read_time(&self, target: TargetId) -> Duration {
        self.disk_emu.read_time(self.store.size(target))
    }

    /// Fetches `target` from peer `remote` over a pooled persistent
    /// lateral connection (the NFS stand-in), blocking the caller. The
    /// result is NOT cached locally. The reactor fetches over its own
    /// per-shard sessions; this blocking path and its pool stay only
    /// because the benchmark package's inline replay names them, and go
    /// with the next change to that package.
    pub fn lateral_fetch(&self, remote: NodeId, target: TargetId) -> std::io::Result<Bytes> {
        self.stats.lateral_out.fetch_add(1, Ordering::Relaxed);
        let mut stream = self.take_peer_conn(remote)?;
        let req = Request::get(ContentStore::uri(target), Version::Http11);
        stream.write_all(&req.to_bytes())?;

        let mut parser = ResponseParser::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = parser
                .next()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            {
                if resp.status != 200 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("lateral fetch returned {}", resp.status),
                    ));
                }
                // Only pool the stream if the parser consumed exactly the
                // bytes of this response. Over-read bytes (the start of a
                // pipelined/extra response) die with the dropped parser, so
                // pooling such a stream would desync it: the next fetch
                // would start reading mid-stream and parse garbage.
                if resp.keep_alive() && parser.buffered() == 0 {
                    self.return_peer_conn(remote, stream);
                }
                return Ok(resp.body);
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed during lateral fetch",
                ));
            }
            parser.feed(&buf[..n]);
        }
    }

    fn take_peer_conn(&self, remote: NodeId) -> std::io::Result<TcpStream> {
        if let Some(s) = self.peer_pool[remote.0].lock().pop() {
            return Ok(s);
        }
        let s = TcpStream::connect(self.peer_addrs[remote.0])?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(s)
    }

    fn return_peer_conn(&self, remote: NodeId, stream: TcpStream) {
        let mut pool = self.peer_pool[remote.0].lock();
        if pool.len() < self.peer_pool_cap {
            pool.push(stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn node() -> NodeState {
        let store = Arc::new(ContentStore::from_sizes(vec![1000, 2000, 3000]));
        NodeState::new(
            NodeId(0),
            4096,
            DiskEmu {
                seek: Duration::from_micros(100),
                bytes_per_sec: 1e9,
            },
            store,
            Vec::new(),
        )
    }

    #[test]
    fn serve_local_miss_then_hit() {
        let n = node();
        let t = TargetId(1);
        let b1 = n.serve_local(t);
        assert_eq!(b1.len(), 2000);
        let s = n.stats.snapshot();
        assert_eq!(s.served, 1);
        assert_eq!(s.hits, 0);
        let _b2 = n.serve_local(t);
        let s = n.stats.snapshot();
        assert_eq!(s.served, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.bytes, 4000);
    }

    #[test]
    fn cache_budget_evicts() {
        let n = node(); // 4096-byte cache
        n.serve_local(TargetId(0)); // 1000
        n.serve_local(TargetId(1)); // 2000
        n.serve_local(TargetId(2)); // 3000 -> evicts 0 (and 1)
        assert!(!n.cache.lock().contains(TargetId(0)));
        assert!(n.cache.lock().contains(TargetId(2)));
    }

    #[test]
    fn begin_serve_matches_serve_local_accounting() {
        let n = node();
        // Miss: depth rises until the caller completes the read, which
        // also populates the cache — the split non-blocking protocol.
        assert!(n.begin_serve_body(TargetId(0)).is_none());
        assert_eq!(n.disk_queue_len(), 1);
        n.finish_disk_read(TargetId(0), n.disk_read_time(TargetId(0)));
        assert_eq!(n.disk_queue_len(), 0);
        assert!(n.cache.lock().contains(TargetId(0)));
        // Hit: resolved synchronously, depth untouched.
        assert!(n.begin_serve_body(TargetId(0)).is_some());
        assert_eq!(n.disk_queue_len(), 0);
        let s = n.stats.snapshot();
        assert_eq!(s.served, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.bytes, 2000);
        // Same observable totals as two blocking serve_local calls.
        let m = node();
        m.serve_local(TargetId(0));
        m.serve_local(TargetId(0));
        assert_eq!(m.stats.snapshot(), s);
    }

    #[test]
    fn join_msg_snapshots_cache_and_reset_makes_it_cold() {
        let n = node(); // 4096-byte cache
        n.serve_local(TargetId(0)); // 1000
        n.serve_local(TargetId(1)); // 2000
        match n.join_msg(2) {
            ControlMsg::Join {
                node,
                weight,
                events,
            } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(weight, 2);
                assert_eq!(
                    events,
                    vec![
                        CacheEvent::Admit(TargetId(0)),
                        CacheEvent::Admit(TargetId(1))
                    ]
                );
            }
            other => panic!("expected Join, got {other:?}"),
        }
        n.reset_cache();
        assert!(n.cache.lock().is_empty());
        match n.join_msg(1) {
            ControlMsg::Join { events, .. } => assert!(events.is_empty(), "cold join"),
            other => panic!("expected Join, got {other:?}"),
        }
        // The wiped cache keeps working (and journalling) afterwards.
        n.serve_local(TargetId(2));
        assert!(n.cache.lock().contains(TargetId(2)));
    }

    #[test]
    fn hits_serve_the_cached_slice_and_release_it() {
        let n = node();
        let t = TargetId(1);
        // Miss admits the body; the returned slice shares the cache's
        // allocation (strong count 2: cache + this handle).
        let b1 = n.serve_local(t);
        assert_eq!(b1.strong_count(), 2, "miss shares the admitted slice");
        // A hit clones the cache's slice — same allocation, no copy.
        let b2 = n.serve_local(t);
        assert!(std::ptr::eq(&b1[0], &b2[0]), "hit aliases the cached body");
        assert_eq!(b1.strong_count(), 3);
        drop(b1);
        drop(b2);
        // With no response in flight the cache is sole owner again.
        assert_eq!(n.cached_body_refcounts(), vec![(t, 1)]);
        // The split reactor primitives hand out the same slice.
        let b3 = n.begin_serve_body(t).expect("cached => hit");
        assert_eq!(b3.strong_count(), 2);
        assert!(n.cached_body(t).is_some());
        drop(b3);
        assert!(n.cached_body_refcounts().iter().all(|&(_, c)| c == 1));
        // And a split-path miss returns the very slice it admitted.
        assert!(n.begin_serve_body(TargetId(0)).is_none());
        let b4 = n.finish_disk_read(TargetId(0), n.disk_read_time(TargetId(0)));
        assert_eq!(b4.strong_count(), 2);
    }

    #[test]
    fn disk_queue_returns_to_zero() {
        let n = node();
        n.serve_local(TargetId(0));
        assert_eq!(n.disk_queue_len(), 0);
    }

    #[test]
    fn lateral_fetch_does_not_pool_overread_streams() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpListener;

        let store = Arc::new(ContentStore::from_sizes(vec![1000, 2000]));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body = store.body(TargetId(0));

        // A peer that answers each fetch on a FRESH connection with one
        // valid response followed by stray trailing bytes (as a buggy or
        // hostile peer might). The fetcher's parser over-reads the strays.
        let body2 = body.clone();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf).unwrap();
                let resp = phttp_http::Response::ok(Version::Http11, body2.clone());
                let mut wire = resp.to_bytes().to_vec();
                wire.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Le"); // stray partial
                s.write_all(&wire).unwrap();
                // Hold the socket open until the client is done with it.
                let _ = s.read(&mut buf);
            }
        });

        let n = NodeState::new(
            NodeId(0),
            4096,
            DiskEmu {
                seek: Duration::from_micros(10),
                bytes_per_sec: 1e9,
            },
            store,
            vec![addr],
        );
        // First fetch succeeds but must NOT pool the desynced stream...
        let got = n.lateral_fetch(NodeId(0), TargetId(0)).unwrap();
        assert_eq!(got, body);
        // ...so the second fetch opens a fresh connection and also parses
        // cleanly instead of resuming mid-stream on the poisoned one.
        let got = n.lateral_fetch(NodeId(0), TargetId(0)).unwrap();
        assert_eq!(got, body);
        drop(n);
        server.join().unwrap();
    }

    proptest::proptest! {
        /// The one spindle rule, over arbitrary arrival gaps and read
        /// times: a read starts at its arrival on an idle spindle and
        /// back to back behind a busy one — however late it arrived or
        /// its driver got round to it — so deadlines are strictly
        /// ordered, and its delay is its read time plus exactly the
        /// wait behind the previous deadline.
        #[test]
        fn spindle_starts_reads_back_to_back_or_on_arrival(
            reads in proptest::collection::vec((0u64..3_000, 1u64..2_000), 1..40),
        ) {
            let us = Duration::from_micros;
            let mut spindle = Spindle::default();
            let mut arrival = Instant::now();
            let mut prev: Option<Instant> = None;
            for (gap, read) in reads {
                arrival += us(gap);
                let (deadline, delay) = spindle.admit(arrival, us(read));
                let wait = prev.map_or(Duration::ZERO, |p| p.saturating_duration_since(arrival));
                proptest::prop_assert_eq!(deadline, arrival + wait + us(read));
                proptest::prop_assert_eq!(delay, wait + us(read));
                proptest::prop_assert!(prev.is_none_or(|p| deadline > p));
                prev = Some(deadline);
            }
        }
    }

    #[test]
    fn blocking_reads_share_one_spindle_timeline() {
        // Four threads miss at once on one node: the reads are served
        // one after another — never done before 4 x read_time — each
        // from its predecessor's deadline, so the last is late by one
        // thread wake-up, not by a fifth read. The cost samples are the
        // measured delays, read_time x (1 + 2 + 3 + 4) between them.
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 4]));
        let disk = DiskEmu {
            seek: Duration::from_millis(5),
            bytes_per_sec: 1e12,
        };
        let node = NodeState::new(NodeId(0), 1 << 20, disk, store, Vec::new());
        let read = disk.read_time(1024);
        let started = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4 {
                let node = &node;
                s.spawn(move || node.serve_local_at(TargetId(t), started));
            }
        });
        let took = started.elapsed();
        assert_eq!(node.stats.snapshot().disk_reads, 4);
        assert_eq!(node.disk_queue_len(), 0);
        assert!(took >= read * 4, "4 queued reads took {took:?}");
        assert!(took < read * 5, "4 queued reads took {took:?}");
        let cache = node.cache.lock();
        let mut scores: Vec<u64> = (0..4)
            .map(|t| cache.mad_score(TargetId(t)).unwrap())
            .collect();
        scores.sort_unstable();
        let read_us = read.as_micros() as u64;
        assert_eq!(scores, [read_us, 2 * read_us, 3 * read_us, 4 * read_us]);
    }

    #[test]
    fn disk_read_time_model() {
        let d = DiskEmu {
            seek: Duration::from_millis(2),
            bytes_per_sec: 1_000_000.0,
        };
        let t = d.read_time(500_000);
        assert_eq!(t, Duration::from_millis(2) + Duration::from_millis(500));
    }
}
