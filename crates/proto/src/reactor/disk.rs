//! Event-driven emulation of each node's single disk spindle.
//!
//! The thread path models a disk as one spindle serving reads FIFO,
//! each thread sleeping out its own read, plus a depth counter the
//! extended-LARD policy reads over the control session. Sleeping would
//! stall the reactor's event loop, so here the same model is a deadline:
//! at most one [`DiskJob`] is *busy* per node (its completion a reactor
//! timer), later misses queue behind it, and the shared
//! [`crate::node::NodeState`] depth counter moves at the same points as
//! the blocking version (incremented when the miss is queued,
//! decremented when the read completes).
//!
//! The spindle runs on its own timeline, not the event loop's. A read
//! starts at [`DiskEmu::read_start`]: its arrival if the spindle was
//! idle, else the deadline of the read before it — never "when the loop
//! got round to it", which would bill the loop's lateness and the
//! previous completion's delivery (body generation, `writev`) to the
//! disk, read after read, exactly when the queue is longest. A
//! completion is still never delivered before its deadline; a loop that
//! falls behind finds the next deadlines already due and catches up.
//!
//! With N reactor shards each shard owns its own scheduler per node,
//! so a node's spindle can admit up to N concurrent reads — a
//! deliberate approximation (see ARCHITECTURE.md "Reactor sharding"):
//! the depth counter and response bytes stay exact; only emulated
//! latency under cross-shard contention is slightly optimistic.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use phttp_http::Version;
use phttp_trace::TargetId;

use super::SlotRef;
use crate::node::DiskEmu;

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
    /// Requests coalesced onto this read (single-flight mode only;
    /// always empty with coalescing off).
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
    /// Deadline of the last read started: when the next may start.
    busy_until: Option<Instant>,
}

impl DiskSched {
    /// Puts `job` on the (free) spindle for `read_time` and returns the
    /// deadline its completion timer must carry.
    pub fn start(&mut self, job: DiskJob, read_time: Duration) -> Instant {
        debug_assert!(self.busy.is_none(), "one read at a time");
        let deadline = DiskEmu::read_start(self.busy_until, job.arrival) + read_time;
        self.busy_until = Some(deadline);
        self.busy = Some(job);
        deadline
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
