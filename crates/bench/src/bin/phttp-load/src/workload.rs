//! The four workloads: corpus, cluster configuration, and the seeded
//! request stream of each.
//!
//! Each exists to make a different set of layers pay the bill (README,
//! "Workloads"); together they put one workload on each side of every
//! mechanism the cluster has — cache hit vs. miss, small vs. large
//! body, persistent vs. per-request connections, one front-end vs. a
//! tier.

use std::time::Duration;

use phttp_core::PolicyKind;
use phttp_proto::{DiskEmu, IoModel, ProtoConfig};
use phttp_trace::{SynthConfig, TargetId, Trace};

/// How the generator's connections speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Persistent connections: `batches` pipelined batches of
    /// `pipeline` GETs each, then close.
    PHttp {
        /// Batches per connection.
        batches: usize,
        /// Requests per pipelined batch.
        pipeline: usize,
    },
    /// HTTP/1.0: one GET per connection.
    Http10,
}

impl Protocol {
    /// Requests per batch (the unit latency is timed over).
    pub fn pipeline(&self) -> usize {
        match *self {
            Protocol::PHttp { pipeline, .. } => pipeline,
            Protocol::Http10 => 1,
        }
    }

    /// Batches per connection.
    pub fn batches_per_conn(&self) -> usize {
        match *self {
            Protocol::PHttp { batches, .. } => batches,
            Protocol::Http10 => 1,
        }
    }
}

/// Which documents a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// 512 targets of 512 B–8 KiB: `512 + (i·37) mod 7680`.
    Small512,
    /// The 1 028 targets (6.8 MiB) of `SynthConfig::small()`.
    SynthSmall,
    /// 8 targets of 192 KiB–2 MiB (8.7 MiB).
    Large8,
}

/// One workload's fixed definition. Nothing here depends on the seed:
/// the seed only drives which targets the stream draws, so two seeds
/// measure the same regime.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, one line, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The documents served.
    pub corpus: Corpus,
    /// Back-end nodes.
    pub nodes: usize,
    /// Front-end instances (more than one puts a `Vip` in front).
    pub front_ends: usize,
    /// Loopback listener addresses.
    pub fe_listeners: usize,
    /// Cache bytes per node.
    pub cache_bytes: u64,
    /// Emulated disk.
    pub disk: DiskEmu,
    /// Zipf exponent over target ids (0 = uniform).
    pub zipf_s: f64,
    /// Connection shape.
    pub protocol: Protocol,
    /// Open-phase arrival rate, batches (HTTP/1.0: connections) per
    /// second: between a sixth and two fifths of what the closed loop
    /// sustains, so the open loop measures latency, not collapse.
    pub open_rate: f64,
    /// Fully compare one response body in this many against the
    /// generated document (1 = every one is compared end to end; the
    /// others get `ContentStore::verify`, which checks length plus the
    /// first and last 64 bytes).
    pub full_verify_every: u32,
    /// Closed-loop batches each generator thread plays during set-up,
    /// so that caches and mapping beliefs reach their steady state
    /// before the first window.
    pub warmup_batches: usize,
}

/// Socket read time-out of the cluster. Short, because the reactor
/// retires idle lateral sessions only after it, and the leak check at
/// the end of a run waits for them; long against any batch (the slowest
/// p99 is tens of milliseconds).
pub const READ_TIMEOUT: Duration = Duration::from_secs(1);

impl Spec {
    /// The corpus: one size per target id.
    pub fn sizes(&self) -> Vec<u64> {
        match self.corpus {
            Corpus::Small512 => (0..512u64).map(|i| 512 + (i * 37) % 7680).collect(),
            Corpus::SynthSmall => {
                // The corpus of `SynthConfig::small()` without its
                // request stream (the benchmark makes its own).
                let trace = phttp_trace::generate(&SynthConfig {
                    num_page_views: 1,
                    ..SynthConfig::small()
                });
                (0..trace.num_targets() as u32)
                    .map(|t| trace.size_of(TargetId(t)))
                    .collect()
            }
            Corpus::Large8 => (0..8u64).map(|i| (192 + i * 265) * 1024).collect(),
        }
    }

    /// The corpus as the `Trace` that `Cluster::start` sizes its
    /// content store from.
    pub fn corpus(&self) -> Trace {
        Trace::new(Vec::new(), self.sizes())
    }

    /// The cluster configuration. Only the fields a workload sets are
    /// named; everything else — including the knobs ROADMAP item C means
    /// to retire — is whatever the repo's default is at this commit.
    pub fn config(&self) -> ProtoConfig {
        ProtoConfig {
            nodes: self.nodes,
            policy: PolicyKind::ExtLard,
            cache_bytes: self.cache_bytes,
            disk: self.disk,
            io_model: IoModel::Reactor,
            reactor_shards: 1,
            front_ends: self.front_ends,
            fe_listeners: self.fe_listeners,
            read_timeout: READ_TIMEOUT,
            ..ProtoConfig::default()
        }
    }

    /// The configuration fields [`config`](Self::config) sets, as a
    /// JSON object, for the run record.
    pub fn config_json(&self) -> String {
        format!(
            "{{\"nodes\": {}, \"policy\": \"ExtLard\", \"cache_bytes\": {}, \
             \"disk_seek_us\": {}, \"disk_mib_s\": {:.0}, \"io_model\": \"Reactor\", \
             \"reactor_shards\": 1, \"front_ends\": {}, \"fe_listeners\": {}, \
             \"read_timeout_ms\": {}}}",
            self.nodes,
            self.cache_bytes,
            self.disk.seek.as_micros(),
            self.disk.bytes_per_sec / (1024.0 * 1024.0),
            self.front_ends,
            self.fe_listeners,
            READ_TIMEOUT.as_millis(),
        )
    }
}

/// A disk nothing waits on: the hot workloads never miss after set-up,
/// so set-up should not be dominated by sleeping either.
const FAST_DISK: DiskEmu = DiskEmu {
    seek: Duration::from_micros(100),
    bytes_per_sec: 400.0 * 1024.0 * 1024.0,
};

/// Every workload, in the order `--all` runs them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "hot_small",
            why: "512 cached targets of 0.5-8 KiB over P-HTTP 16x4: per-request cost in http, \
                  core, the node hit path and the reactor is the whole bill; disk, lateral \
                  and admission are bypassed",
            corpus: Corpus::Small512,
            nodes: 2,
            front_ends: 1,
            fe_listeners: 4,
            cache_bytes: 16 * 1024 * 1024,
            disk: FAST_DISK,
            zipf_s: 0.8,
            protocol: Protocol::PHttp {
                batches: 16,
                pipeline: 4,
            },
            open_rate: 10_000.0,
            full_verify_every: 0,
            warmup_batches: 1_500,
        },
        Spec {
            name: "miss_heavy",
            why: "4 nodes, 3 MiB of cache for a 6.8 MiB working set, 1 ms disk: the paper's \
                  regime - hit rate, LARD locality, eviction and lateral fetch set throughput; \
                  CPU per request does not",
            corpus: Corpus::SynthSmall,
            nodes: 4,
            front_ends: 1,
            fe_listeners: 4,
            cache_bytes: 768 * 1024,
            disk: DiskEmu {
                seek: Duration::from_micros(1_000),
                bytes_per_sec: 200.0 * 1024.0 * 1024.0,
            },
            zipf_s: 0.9,
            protocol: Protocol::PHttp {
                batches: 16,
                pipeline: 4,
            },
            open_rate: 300.0,
            full_verify_every: 0,
            warmup_batches: 150,
        },
        Spec {
            name: "large_body",
            why: "8 cached targets of 192 KiB-2 MiB over P-HTTP 16x2: bytes, not requests - \
                  refcounted body slices, writev resumption and backpressure carry the load; \
                  parse and dispatch are noise",
            corpus: Corpus::Large8,
            nodes: 2,
            front_ends: 1,
            fe_listeners: 4,
            cache_bytes: 32 * 1024 * 1024,
            disk: FAST_DISK,
            zipf_s: 0.0,
            protocol: Protocol::PHttp {
                batches: 16,
                pipeline: 2,
            },
            open_rate: 400.0,
            full_verify_every: 8,
            warmup_batches: 60,
        },
        Spec {
            name: "http10_tier",
            why: "hot_small's corpus over HTTP/1.0, one GET per connection, through 2 front-ends \
                  behind the Vip: open/close per request, handoff admission, gossip and \
                  accept/slab churn dominate; the paper's baseline",
            corpus: Corpus::Small512,
            nodes: 2,
            front_ends: 2,
            fe_listeners: 8,
            cache_bytes: 16 * 1024 * 1024,
            disk: FAST_DISK,
            zipf_s: 0.8,
            protocol: Protocol::Http10,
            open_rate: 2_000.0,
            full_verify_every: 0,
            warmup_batches: 1_200,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// splitmix64: the benchmark's only random source, so a stream is a
/// pure function of its seed on every host, toolchain and commit. (The
/// repo's `rand` shim, under `phttp_simcore::Zipf`, promises a fixed
/// stream only within one build of the repo; a benchmark's inputs must
/// not move when the repo does.)
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds a generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential variate with the given mean.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Which phase of a run a stream feeds; part of the stream's seed, so
/// phases draw independent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up's warm-up loop.
    Warmup = 1,
    /// The measured closed loop.
    Closed = 2,
    /// The closed loop again, with client-side spans.
    Traced = 3,
    /// The open loop.
    Open = 4,
}

/// One generator thread's request stream: target ids drawn from the
/// workload's popularity law, a pure function of `(seed, thread, phase)`.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    /// Cumulative popularity over target ids; empty means uniform.
    cdf: std::sync::Arc<Vec<f64>>,
    targets: u32,
}

/// The cumulative Zipf(s) table over `n` ranks (rank r is target id r:
/// popularity is a property of the workload, not of the seed).
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    if s == 0.0 {
        return Vec::new();
    }
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

impl Stream {
    /// The stream of generator thread `thread` in `phase` under `seed`.
    pub fn new(
        cdf: std::sync::Arc<Vec<f64>>,
        targets: usize,
        seed: u64,
        thread: usize,
        phase: Phase,
    ) -> Stream {
        let mut mix = Rng::new(seed ^ 0x7068_7474_702d_6c64);
        let a = mix.next_u64();
        let stream_seed = a ^ ((thread as u64) << 32) ^ ((phase as u64) << 48);
        Stream {
            rng: Rng::new(stream_seed),
            cdf,
            targets: targets as u32,
        }
    }

    /// The next target.
    pub fn next_target(&mut self) -> TargetId {
        if self.cdf.is_empty() {
            return TargetId((self.rng.next_u64() % self.targets as u64) as u32);
        }
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u);
        TargetId(rank.min(self.cdf.len() - 1) as u32)
    }

    /// An exponential inter-arrival gap, seconds, drawn from this
    /// stream (the open loop's Poisson schedule).
    pub fn next_gap_s(&mut self, mean_s: f64) -> f64 {
        self.rng.next_exp(mean_s)
    }

    /// FNV-1a over the next `n` targets: the stream's fingerprint.
    #[cfg(test)]
    pub fn hash(&mut self, n: usize) -> u64 {
        (0..n).fold(0xcbf2_9ce4_8422_2325u64, |h, _| {
            (h ^ self.next_target().0 as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn stream(seed: u64, thread: usize, phase: Phase) -> Stream {
        Stream::new(Arc::new(zipf_cdf(512, 0.8)), 512, seed, thread, phase)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let h = |seed, thread, phase| stream(seed, thread, phase).hash(4096);
        assert_eq!(h(1, 0, Phase::Closed), h(1, 0, Phase::Closed));
        assert_ne!(h(1, 0, Phase::Closed), h(2, 0, Phase::Closed));
        assert_ne!(h(1, 0, Phase::Closed), h(1, 1, Phase::Closed));
        assert_ne!(h(1, 0, Phase::Closed), h(1, 0, Phase::Open));
        // Uniform streams obey the same rule.
        let u = |seed| Stream::new(Arc::new(Vec::new()), 8, seed, 0, Phase::Closed).hash(256);
        assert_eq!(u(5), u(5));
        assert_ne!(u(5), u(6));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut s = stream(3, 0, Phase::Closed);
        let mut counts = vec![0u32; 512];
        for _ in 0..50_000 {
            counts[s.next_target().0 as usize] += 1;
        }
        assert!(counts[0] > counts[20] && counts[20] > counts[400]);
        let cdf = zipf_cdf(512, 0.8);
        assert!((cdf[511] - 1.0).abs() < 1e-12);
        assert!(zipf_cdf(8, 0.0).is_empty());
    }

    #[test]
    fn corpora_match_their_descriptions() {
        let sizes = |name: &str| by_name(name).expect("workload").sizes();
        let hot = sizes("hot_small");
        assert_eq!(hot.len(), 512);
        assert!(hot.iter().all(|&s| (512..8192 + 512).contains(&s)));
        assert_eq!(hot, sizes("http10_tier"));
        let miss = sizes("miss_heavy");
        let total: u64 = miss.iter().sum();
        // Working set above the 4 MiB of aggregate cache.
        assert!(
            miss.len() > 1000 && total > 5 * 1024 * 1024,
            "{} {total}",
            miss.len()
        );
        let large = sizes("large_body");
        assert_eq!(large.len(), 8);
        assert_eq!(large[0], 192 * 1024);
        assert!(*large.last().expect("8 sizes") <= 2 * 1024 * 1024 + 64 * 1024);
    }

    #[test]
    fn exponential_gaps_have_the_asked_mean() {
        let mut r = Rng::new(9);
        let n = 100_000;
        let mean = (0..n).map(|_| r.next_exp(0.002)).sum::<f64>() / n as f64;
        assert!((mean - 0.002).abs() / 0.002 < 0.03, "{mean}");
    }
}
