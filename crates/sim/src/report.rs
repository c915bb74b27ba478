//! Simulation output: the statistics the paper reports.

use phttp_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Per-node statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeReport {
    /// Requests served by this node (including laterally fetched ones).
    pub requests: u64,
    /// Cache hits among those requests.
    pub cache_hits: u64,
    /// Bytes of response data produced by this node.
    pub bytes_served: u64,
    /// CPU utilization over the run.
    pub cpu_utilization: f64,
    /// Disk utilization over the run.
    pub disk_utilization: f64,
    /// Cache evictions over the run.
    pub cache_evictions: u64,
    /// Disk reads actually issued by this node (misses that scheduled a
    /// fetch; under coalescing, one per flight, not per miss).
    pub disk_fetches: u64,
    /// Misses parked on an already-in-flight fetch for the same target
    /// (delayed hits; 0 with coalescing off).
    pub delayed_hits: u64,
}

impl NodeReport {
    /// Cache hit rate of this node, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }
}

/// Aggregate result of one simulated run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Configuration label (paper legend style).
    pub label: String,
    /// Number of back-end nodes.
    pub nodes: usize,
    /// Total client requests served.
    pub requests: u64,
    /// Total client connections served.
    pub connections: u64,
    /// Simulated time at which the last response completed.
    pub finished_at: SimTime,
    /// Requests per simulated second — the paper's throughput metric
    /// ("the number of requests in the trace divided by the simulated time
    /// it took to finish serving all the requests").
    pub throughput_rps: f64,
    /// Aggregate response bytes delivered to clients.
    pub bytes_delivered: u64,
    /// Delivered payload bandwidth in megabits per simulated second.
    pub bandwidth_mbps: f64,
    /// Aggregate cache hit rate across nodes.
    pub cache_hit_rate: f64,
    /// Mean requests per connection (1.0 in HTTP/1.0 mode).
    pub requests_per_connection: f64,
    /// Requests served by a node other than the connection-handling node
    /// via back-end forwarding.
    pub forwarded_requests: u64,
    /// Connection migrations (multiple handoff / zero-cost mechanisms).
    pub migrations: u64,
    /// Front-end CPU utilization. With a front-end tier this is the
    /// *bottleneck* instance's figure (the max over
    /// [`per_fe_utilization`](Self::per_fe_utilization)); with one
    /// front-end the two coincide.
    pub fe_utilization: f64,
    /// Number of front-end instances behind the VIP (1 in the paper's
    /// configuration).
    pub front_ends: usize,
    /// Per-front-end-instance CPU utilization, instance order.
    pub per_fe_utilization: Vec<f64>,
    /// Tier gossip rounds executed over the run (0 without a tier).
    pub gossip_rounds: u64,
    /// Mapping instructions (upserts + removals) front-ends adopted from
    /// peers' gossiped deltas over the run (0 without a tier).
    pub gossip_adoptions: u64,
    /// Mean response latency (request arrival at the serving path to last
    /// byte delivered), in milliseconds.
    pub mean_latency_ms: f64,
    /// Median response latency, milliseconds (bucketed; upper bound of the
    /// containing histogram bucket).
    pub p50_latency_ms: f64,
    /// 95th-percentile response latency, milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile response latency, milliseconds.
    pub p99_latency_ms: f64,
    /// End-of-run belief-vs-reality gap: believed `(target, node)`
    /// mapping pairs whose target the node's cache does **not** actually
    /// hold, measured against the simulated caches themselves. With
    /// cache feedback on and the run quiesced this converges to 0; with
    /// feedback off it grows with eviction churn.
    pub mapping_divergence: u64,
    /// Total believed `(target, node)` pairs at end of run (the
    /// denominator for `mapping_divergence`).
    pub believed_pairs: u64,
    /// Stale believed mappings removed by cache-feedback reports over
    /// the run (0 when feedback is off).
    pub stale_mappings_removed: u64,
    /// Cache-feedback reports applied over the run (0 when feedback is
    /// off).
    pub feedback_reports: u64,
    /// Disk reads actually issued across nodes. Without coalescing this
    /// equals the miss count; with coalescing it is one per flight.
    pub disk_fetches: u64,
    /// Misses that coalesced onto an in-flight fetch (delayed hits).
    pub delayed_hits: u64,
    /// Aggregate miss delay: the sum over every miss (flight leaders and
    /// parked waiters alike) of the time from cache probe to fetch
    /// completion, in milliseconds — the cost GreedyDual eviction weighs.
    pub agg_miss_delay_ms: f64,
    /// Median per-miss delay, milliseconds (bucketed).
    pub miss_p50_latency_ms: f64,
    /// 99th-percentile per-miss delay, milliseconds.
    pub miss_p99_latency_ms: f64,
    /// Per-node breakdown.
    pub per_node: Vec<NodeReport>,
}

impl Report {
    /// Fraction of requests that were neither local hits nor local misses at
    /// the connection node (i.e. moved by the mechanism).
    pub fn moved_fraction(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.forwarded_requests + self.migrations) as f64 / self.requests as f64
    }

    /// One-line human-readable summary (used by examples and fig binaries).
    pub fn summary(&self) -> String {
        format!(
            "{:<28} nodes={:<2} tput={:>8.1} req/s  hit={:>5.1}%  fe={:>5.1}%  lat={:>7.2} ms",
            self.label,
            self.nodes,
            self.throughput_rps,
            self.cache_hit_rate * 100.0,
            self.fe_utilization * 100.0,
            self.mean_latency_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_hit_rate_handles_zero() {
        let n = NodeReport::default();
        assert_eq!(n.hit_rate(), 0.0);
        let n = NodeReport {
            requests: 10,
            cache_hits: 7,
            ..Default::default()
        };
        assert!((n.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn moved_fraction_handles_zero() {
        let r = Report::default();
        assert_eq!(r.moved_fraction(), 0.0);
        let r = Report {
            requests: 100,
            forwarded_requests: 10,
            migrations: 5,
            ..Default::default()
        };
        assert!((r.moved_fraction() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn summary_contains_label() {
        let r = Report {
            label: "WRR".into(),
            ..Default::default()
        };
        assert!(r.summary().contains("WRR"));
    }
}
