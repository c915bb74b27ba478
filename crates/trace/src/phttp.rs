//! P-HTTP connection reconstruction from per-request logs.
//!
//! Web-server logs record individual requests, not connections. Section 6 of
//! the paper introduces the heuristic this module implements:
//!
//! > "Any set of requests sent by the same client with a period of less than
//! > 15s (the default time used by Web servers to close idle HTTP 1.1
//! > connections) between any two successive requests were considered to have
//! > arrived on a single HTTP 1.1 connection. To model HTTP pipelining, all
//! > requests other than the first that are in the same HTTP 1.1 connection
//! > and are within 1s of each other are considered a batch of pipelined
//! > requests. Clients can pipeline all requests in a batch but have to wait
//! > for data from the server before requests in the next batch can be sent."
//!
//! The first request of a connection always forms a batch by itself: a real
//! browser must parse the container document before it can request the
//! embedded objects.

use phttp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::record::{ClientId, Request, TargetId, Trace};

/// Parameters of the reconstruction heuristic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Idle interval after which servers close a persistent connection.
    /// Gaps `>= idle_close` start a new connection. Paper default: 15 s.
    pub idle_close: SimDuration,
    /// Two successive non-first requests closer than this belong to one
    /// pipelined batch. Paper default: 1 s.
    pub batch_window: SimDuration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            idle_close: SimDuration::from_secs(15),
            batch_window: SimDuration::from_secs(1),
        }
    }
}

/// A batch of pipelined requests: the client sends all of them back-to-back,
/// then waits for all responses before sending the next batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Arrival time of the first request of the batch.
    pub time: SimTime,
    /// The pipelined targets, in request order.
    pub targets: Vec<TargetId>,
}

impl Batch {
    /// Number of requests in the batch (the paper's `N` for 1/N load accounting).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the batch holds no requests (never produced by
    /// reconstruction; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// A reconstructed persistent connection: one client, one or more batches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// The client holding the connection.
    pub client: ClientId,
    /// Pipelined batches in time order; `batches[0]` is always a single request.
    pub batches: Vec<Batch>,
}

impl Connection {
    /// Time the connection opens (arrival of its first request).
    pub fn start_time(&self) -> SimTime {
        self.batches[0].time
    }

    /// Total number of requests on the connection.
    pub fn num_requests(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }

    /// Iterates over every target on the connection in request order.
    pub fn targets(&self) -> impl Iterator<Item = TargetId> + '_ {
        self.batches.iter().flat_map(|b| b.targets.iter().copied())
    }
}

/// A workload expressed as connections — what the cluster actually serves.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConnectionTrace {
    /// Connections ordered by start time.
    pub connections: Vec<Connection>,
}

impl ConnectionTrace {
    /// Total requests across all connections.
    pub fn num_requests(&self) -> usize {
        self.connections.iter().map(Connection::num_requests).sum()
    }

    /// Mean number of requests per connection.
    pub fn mean_requests_per_connection(&self) -> f64 {
        if self.connections.is_empty() {
            return 0.0;
        }
        self.num_requests() as f64 / self.connections.len() as f64
    }

    /// Mean number of batches per connection.
    pub fn mean_batches_per_connection(&self) -> f64 {
        if self.connections.is_empty() {
            return 0.0;
        }
        let batches: usize = self.connections.iter().map(|c| c.batches.len()).sum();
        batches as f64 / self.connections.len() as f64
    }
}

/// Groups a request log into persistent connections per [`SessionConfig`].
///
/// Requests of each client are examined in time order (the trace is already
/// time-sorted; the per-client relative order is preserved). The output is
/// ordered by connection start time.
///
/// # Examples
///
/// ```
/// use phttp_simcore::SimTime;
/// use phttp_trace::{reconstruct, ClientId, Request, SessionConfig, TargetId, Trace};
///
/// let reqs = vec![
///     Request { time: SimTime::from_secs(0), client: ClientId(1), target: TargetId(0) },
///     Request { time: SimTime::from_millis(200), client: ClientId(1), target: TargetId(1) },
///     // 20 s gap: same client, but a new connection.
///     Request { time: SimTime::from_secs(21), client: ClientId(1), target: TargetId(0) },
/// ];
/// let trace = Trace::new(reqs, vec![1024, 2048]);
/// let conns = reconstruct(&trace, SessionConfig::default());
/// assert_eq!(conns.connections.len(), 2);
/// assert_eq!(conns.connections[0].num_requests(), 2);
/// ```
pub fn reconstruct(trace: &Trace, cfg: SessionConfig) -> ConnectionTrace {
    // Split requests per client, preserving time order. Clients are
    // visited in id order so connections that start at the same instant
    // keep one order from run to run (the sort below is stable).
    let mut per_client: std::collections::BTreeMap<ClientId, Vec<&Request>> =
        std::collections::BTreeMap::new();
    for r in trace.requests() {
        per_client.entry(r.client).or_default().push(r);
    }

    let mut connections = Vec::new();
    for (client, reqs) in per_client {
        let mut i = 0;
        while i < reqs.len() {
            // Extend the connection while successive gaps are < idle_close.
            let mut j = i + 1;
            while j < reqs.len() {
                let gap = reqs[j].time.duration_since(reqs[j - 1].time);
                if gap < cfg.idle_close {
                    j += 1;
                } else {
                    break;
                }
            }
            connections.push(split_batches(client, &reqs[i..j], cfg.batch_window));
            i = j;
        }
    }
    connections.sort_by_key(Connection::start_time);
    ConnectionTrace { connections }
}

/// Treats every request as its own single-request connection (HTTP/1.0).
///
/// This is how the simulator consumes a trace in HTTP/1.0 mode; it makes the
/// two protocol modes interchangeable at the workload interface.
pub fn http10_connections(trace: &Trace) -> ConnectionTrace {
    let connections = trace
        .requests()
        .iter()
        .map(|r| Connection {
            client: r.client,
            batches: vec![Batch {
                time: r.time,
                targets: vec![r.target],
            }],
        })
        .collect();
    ConnectionTrace { connections }
}

/// Splits one connection's requests into pipelined batches.
///
/// The first request is its own batch. Among the rest, a gap `>= window`
/// starts a new batch.
fn split_batches(client: ClientId, reqs: &[&Request], window: SimDuration) -> Connection {
    debug_assert!(!reqs.is_empty());
    let mut batches = vec![Batch {
        time: reqs[0].time,
        targets: vec![reqs[0].target],
    }];
    let mut k = 1;
    while k < reqs.len() {
        let mut m = k + 1;
        while m < reqs.len() {
            let gap = reqs[m].time.duration_since(reqs[m - 1].time);
            if gap < window {
                m += 1;
            } else {
                break;
            }
        }
        batches.push(Batch {
            time: reqs[k].time,
            targets: reqs[k..m].iter().map(|r| r.target).collect(),
        });
        k = m;
    }
    Connection { client, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(secs_milli: u64, client: u32, target: u32) -> Request {
        Request {
            time: SimTime::from_millis(secs_milli),
            client: ClientId(client),
            target: TargetId(target),
        }
    }

    fn trace(reqs: Vec<Request>) -> Trace {
        let max_target = reqs.iter().map(|r| r.target.0).max().unwrap_or(0);
        Trace::new(reqs, vec![1024; (max_target + 1) as usize])
    }

    #[test]
    fn connections_opening_together_are_ordered_by_client() {
        // Every client opens at the same instant: the order must not
        // depend on how a hash map happened to iterate them.
        let tr = trace((0..64).rev().map(|c| req(0, c, c)).collect());
        let ct = reconstruct(&tr, SessionConfig::default());
        let clients: Vec<u32> = ct.connections.iter().map(|c| c.client.0).collect();
        assert_eq!(clients, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn single_request_is_single_connection_single_batch() {
        let tr = trace(vec![req(0, 1, 0)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        assert_eq!(ct.connections.len(), 1);
        assert_eq!(ct.connections[0].batches.len(), 1);
        assert_eq!(ct.connections[0].num_requests(), 1);
    }

    #[test]
    fn gap_exactly_at_idle_close_starts_new_connection() {
        // The paper's wording is "a period of LESS than 15s": 15.000s exactly
        // must therefore split.
        let tr = trace(vec![req(0, 1, 0), req(15_000, 1, 1)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        assert_eq!(ct.connections.len(), 2);

        let tr2 = trace(vec![req(0, 1, 0), req(14_999, 1, 1)]);
        let ct2 = reconstruct(&tr2, SessionConfig::default());
        assert_eq!(ct2.connections.len(), 1);
    }

    #[test]
    fn first_request_is_always_its_own_batch() {
        // Three requests 100 ms apart: all within the batch window, but the
        // first stays alone (the client needs the container page first).
        let tr = trace(vec![req(0, 1, 0), req(100, 1, 1), req(200, 1, 2)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        let c = &ct.connections[0];
        assert_eq!(c.batches.len(), 2);
        assert_eq!(c.batches[0].targets, vec![TargetId(0)]);
        assert_eq!(c.batches[1].targets, vec![TargetId(1), TargetId(2)]);
    }

    #[test]
    fn batch_window_boundary() {
        // Second and third requests exactly 1 s apart: separate batches.
        let tr = trace(vec![req(0, 1, 0), req(100, 1, 1), req(1_100, 1, 2)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        let c = &ct.connections[0];
        assert_eq!(c.batches.len(), 3);
        // 999 ms apart: same batch.
        let tr2 = trace(vec![req(0, 1, 0), req(100, 1, 1), req(1_099, 1, 2)]);
        let ct2 = reconstruct(&tr2, SessionConfig::default());
        assert_eq!(ct2.connections[0].batches.len(), 2);
    }

    #[test]
    fn clients_are_independent() {
        let tr = trace(vec![req(0, 1, 0), req(10, 2, 1), req(20, 1, 2)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        assert_eq!(ct.connections.len(), 2);
        let total: usize = ct.connections.iter().map(Connection::num_requests).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn connections_sorted_by_start_time() {
        let tr = trace(vec![req(500, 7, 0), req(0, 3, 1), req(100_000, 7, 2)]);
        let ct = reconstruct(&tr, SessionConfig::default());
        let starts: Vec<u64> = ct
            .connections
            .iter()
            .map(|c| c.start_time().as_micros())
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn http10_mode_one_request_per_connection() {
        let tr = trace(vec![req(0, 1, 0), req(100, 1, 1), req(200, 1, 2)]);
        let ct = http10_connections(&tr);
        assert_eq!(ct.connections.len(), 3);
        assert!(ct.connections.iter().all(|c| c.num_requests() == 1));
        assert!((ct.mean_requests_per_connection() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn request_conservation() {
        let tr = trace(vec![
            req(0, 1, 0),
            req(200, 1, 1),
            req(400, 2, 2),
            req(30_000, 1, 0),
            req(30_100, 2, 1),
        ]);
        let ct = reconstruct(&tr, SessionConfig::default());
        assert_eq!(ct.num_requests(), tr.len());
    }

    #[test]
    fn stats_on_empty() {
        let ct = ConnectionTrace::default();
        assert_eq!(ct.mean_requests_per_connection(), 0.0);
        assert_eq!(ct.mean_batches_per_connection(), 0.0);
    }
}
