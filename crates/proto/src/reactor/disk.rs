//! Event-driven emulation of each node's single disk spindle.
//!
//! A node's disk is one spindle serving reads FIFO, plus a depth
//! counter the extended-LARD policy reads over the control session.
//! Sleeping out a read would stall the event loop, so here a read is a
//! deadline:
//! at most one [`DiskJob`] is *busy* per node (its completion a reactor
//! timer), later misses queue behind it, and the shared
//! [`crate::node::NodeState`] depth counter is incremented when the
//! miss is queued and decremented when the read completes.
//!
//! The [`Spindle`] runs on its own timeline, not the event loop's: a
//! read starts at its arrival if the spindle was idle, else at the
//! deadline of the read before it — never "when the loop got round to
//! it", which would bill the loop's lateness and the previous
//! completion's delivery (body generation, `writev`) to the disk, read
//! after read, exactly when the queue is longest. A completion is still
//! never delivered before its deadline; a loop that falls behind finds
//! the next deadlines already due and catches up.
//!
//! With N reactor shards each shard owns its own scheduler per node,
//! so a node's spindle can admit up to N concurrent reads — a
//! deliberate approximation (see ARCHITECTURE.md "Reactor sharding"):
//! the depth counter and response bytes stay exact; only emulated
//! latency under cross-shard contention is slightly optimistic.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use phttp_http::Version;
use phttp_trace::TargetId;

use super::SlotRef;
use crate::node::{NodeState, Spindle};

/// A request parked on another request's in-flight (or queued) read of
/// the same target — a *delayed hit*. It is resolved with its own
/// response when the leader's read completes; a waiter whose connection
/// died in the meantime is dropped by the delivery generation check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// The client connection (slab index + generation) awaiting the body.
    pub conn: SlotRef,
    /// The pipeline slot awaiting the body.
    pub seq: u64,
    /// HTTP version for the eventual response.
    pub version: Version,
    /// When it parked — what its share of the flight's delay runs from.
    pub arrival: Instant,
}

/// One queued or in-service emulated disk read.
#[derive(Debug, Clone)]
pub(crate) struct DiskJob {
    /// The client connection (slab index + generation) awaiting the body.
    pub conn: SlotRef,
    /// The pipeline slot awaiting the body.
    pub seq: u64,
    /// The document being read.
    pub target: TargetId,
    /// HTTP version for the eventual response.
    pub version: Version,
    /// Requests coalesced onto this read (delayed hits).
    pub waiters: Vec<Waiter>,
    /// When the miss reached the disk — the earliest its read may start.
    pub arrival: Instant,
}

/// Per-node FIFO disk scheduler.
#[derive(Debug, Default)]
pub(crate) struct DiskSched {
    /// The read currently holding the spindle; its completion timer is
    /// in the reactor's timer heap.
    pub busy: Option<DiskJob>,
    /// Reads waiting for the spindle.
    pub queue: VecDeque<DiskJob>,
    /// The device the reads are admitted to, one at a time.
    spindle: Spindle,
}

impl DiskSched {
    /// Puts `job` on the (free) spindle for `read_time` and returns the
    /// deadline its completion timer must carry.
    pub fn start(&mut self, job: DiskJob, read_time: Duration) -> Instant {
        debug_assert!(self.busy.is_none(), "one read at a time");
        let (deadline, _) = self.spindle.admit(job.arrival, read_time);
        self.busy = Some(job);
        deadline
    }

    /// Completes the busy read at its spindle `deadline`: one cache
    /// insert on `node` for the whole flight, costed by what the read
    /// was measured to stall — the leader's delay from its arrival plus
    /// each coalesced waiter's from its own. Returns the job and the
    /// slice the cache now owns.
    pub fn finish(&mut self, node: &NodeState, deadline: Instant) -> Option<(DiskJob, Bytes)> {
        let job = self.busy.take()?;
        let since = |arrival| deadline.saturating_duration_since(arrival);
        let stalled = since(job.arrival) + job.waiters.iter().map(|w| since(w.arrival)).sum();
        let body = node.finish_disk_read(job.target, stalled);
        Some((job, body))
    }

    /// The in-flight or queued read of `target`, if any — the flight a
    /// coalesced miss parks on. Linear scan: the queue is bounded by
    /// concurrent missers on one node/shard, and the busy slot is
    /// checked first because it is by far the likeliest match.
    pub fn find_mut(&mut self, target: TargetId) -> Option<&mut DiskJob> {
        if let Some(job) = self.busy.as_mut() {
            if job.target == target {
                return Some(job);
            }
        }
        self.queue.iter_mut().find(|j| j.target == target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DiskEmu;
    use crate::store::ContentStore;
    use phttp_core::NodeId;
    use std::sync::Arc;

    /// The reactor's half of the cost-sample contract: a flight with `k`
    /// parked waiters inserts costed by the k+1 delays measured against
    /// its spindle deadline — not by `read_time x (k + 1)` — and an
    /// uncontended miss still costs its read time.
    #[test]
    fn flight_is_costed_by_what_it_was_measured_to_stall() {
        let ms = Duration::from_millis;
        let store = Arc::new(ContentStore::from_sizes(vec![1024; 2]));
        let disk = DiskEmu {
            seek: ms(5),
            bytes_per_sec: 1e12,
        };
        let node = NodeState::new(NodeId(0), 1 << 20, disk, store, Vec::new());
        let read = node.disk_read_time(TargetId(0));
        let conn = SlotRef { idx: 0, gen: 0 };
        let version = Version::Http11;
        let job = |target, arrival| DiskJob {
            conn,
            seq: 0,
            target,
            version,
            waiters: Vec::new(),
            arrival,
        };
        let mut sched = DiskSched::default();
        let t0 = Instant::now();

        // Target 0 finds the spindle idle.
        assert!(node.begin_serve_body(TargetId(0)).is_none());
        let first = sched.start(job(TargetId(0), t0), read);
        assert_eq!(first, t0 + read);
        // Target 1 arrives 1 ms later and queues behind it; k waiters
        // park on its flight 1 ms apart.
        assert!(node.begin_serve_body(TargetId(1)).is_none());
        sched.queue.push_back(job(TargetId(1), t0 + ms(1)));
        let k = 3u32;
        for w in 1..=k {
            sched.find_mut(TargetId(1)).unwrap().waiters.push(Waiter {
                conn,
                seq: w as u64,
                version,
                arrival: t0 + ms(1 + w as u64),
            });
        }

        sched.finish(&node, first).unwrap();
        let next = sched.queue.pop_front().unwrap();
        let second = sched.start(next, read);
        assert_eq!(second, t0 + read * 2, "back to back, not from its arrival");
        sched.finish(&node, second).unwrap();

        let cache = node.cache.lock();
        let us = |d: Duration| Some(d.as_micros() as u64);
        assert_eq!(cache.lru.mad_score(TargetId(0)), us(read));
        // Leader and waiters arrived 1, 2, 3, 4 ms after t0.
        let stalled: Duration = (0..=k).map(|w| read * 2 - ms(1 + w as u64)).sum();
        assert_eq!(cache.lru.mad_score(TargetId(1)), us(stalled));
        assert_ne!(stalled, read * (k + 1), "the nominal sample differs");
    }
}
