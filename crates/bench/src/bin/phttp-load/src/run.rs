//! One workload, start to finish: set-up, the measured phases, the
//! correctness gate, and the reduction to named metrics.
//!
//! Two kinds of run, never mixed. The plain run measures the end-to-end
//! metrics with no tracing anywhere. The traced run measures the
//! closed loop once untraced (for the counter deltas and its own
//! baseline), once with client-side spans, then the open loop, then —
//! cluster warm and idle — the inline replay.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use phttp_proto::{Cluster, NodeStatsSnapshot};

use crate::loadgen::{self, Plan, ThreadReport, Until};
use crate::pin::{calib_ns, peak_rss_kib, CoreSplit, Rusage};
use crate::replay::{self, ReplayCounts};
use crate::stats::{self, median, percentile, WindowMedians};
use crate::trace::{self, NameTotal, Tracer};
use crate::workload::{Phase, Protocol, Spec, READ_TIMEOUT};

/// Set-ups per plain run; `setup_s` is their median. Only the first is
/// measured on.
pub const SETUPS: usize = 5;

/// Target length of one closed-loop window.
const WINDOW: Duration = Duration::from_secs(1);

/// Batches the inline replay plays at most.
const REPLAY_BATCHES: usize = 4_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: the traced run (per-layer metrics).
    pub traced: bool,
    /// Set-ups to take the median of (plain run).
    pub setups: usize,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// `(name, value)` for every metric of the run's kind, in registry
    /// order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Of those, how many were not answered by a verified response.
    pub failed: u64,
    /// Leak checks that did not read zero, and other gate failures.
    pub violations: Vec<String>,
    /// Whether cluster and generator ran on disjoint cores.
    pub pinned: bool,
    /// The calibration spin before and after the run, ns.
    pub calib_ns: (u64, u64),
    /// The calibration spin moved by more than 10 % across the run.
    pub noisy: bool,
    /// Verified responses per second of each closed-loop window.
    pub window_rps: Vec<f64>,
    /// p99 batch time of each closed-loop window, µs.
    pub window_p99_us: Vec<f64>,
    /// Fewest batches behind any window's percentiles.
    pub min_window_batches: usize,
    /// The span file, if one was written.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    /// The correctness gate: every response verified, nothing leaked.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A started, warmed cluster and the plan to load it.
struct Live {
    cluster: Cluster,
    plan: Plan,
}

/// Corpus, `Cluster::start`, one verified pass over the corpus on each
/// generator connection, then the warm-up loop. Returns how long it all
/// took and what it sent.
fn set_up(spec: &Spec, seed: u64, split: &CoreSplit) -> (Live, Duration, ThreadReport) {
    let began = Instant::now();
    let corpus = spec.corpus();
    // The cluster's threads inherit the mask of the thread that starts
    // them; the benchmark's own thread then joins the generator's side.
    split.enter_server();
    let cluster = Cluster::start(spec.config(), &corpus).expect("a supported configuration");
    split.enter_generator();
    let plan = Plan::new(spec, cluster.frontend_addrs(), cluster.store(), seed, split);
    let mut sent = loadgen::corpus_pass(&plan);
    sent.merge(loadgen::closed_loop(
        &plan,
        Phase::Warmup,
        Until::Batches(spec.warmup_batches),
        false,
    ));
    (Live { cluster, plan }, began.elapsed(), sent)
}

/// What the public snapshots read at one instant.
struct Counters {
    at: Instant,
    rusage: Rusage,
    nodes: Vec<NodeStatsSnapshot>,
    handoffs: u64,
    gossip_rounds: u64,
}

impl Counters {
    fn read(cluster: &Cluster) -> Counters {
        let (handoffs, gossip_rounds) = cluster.vip().map_or((0, 0), |vip| {
            let rounds = (0..vip.front_ends()).map(|f| vip.gossip_seq(f)).sum();
            (vip.handoffs(), rounds)
        });
        Counters {
            at: Instant::now(),
            rusage: Rusage::now(),
            nodes: cluster.node_stats(),
            handoffs,
            gossip_rounds,
        }
    }
}

/// The end-of-run gate's readings.
struct Drained {
    active_conns: usize,
    sources: usize,
    timers: usize,
    pending_body_bytes: usize,
    replication_factor: f64,
    mapping_divergence: u64,
}

/// Flushes feedback, waits for every connection to unwind and for the
/// reactor's slab and timer heap to empty, and reads the gauges.
fn drain(cluster: &Cluster) -> Drained {
    cluster.flush_feedback();
    cluster.quiesce(Duration::from_secs(5));
    // Pooled lateral sessions and idle peer-server connections only
    // fall to the reactor's idle sweep, a read time-out after traffic.
    let deadline = Instant::now() + READ_TIMEOUT * 2 + Duration::from_secs(2);
    let stats = cluster.reactor_stats();
    let gauges = || {
        stats.map_or((0, 0, 0), |s| {
            (s.sources(), s.timers(), s.pending_body_bytes())
        })
    };
    while gauges() != (0, 0, 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let (sources, timers, pending_body_bytes) = gauges();
    Drained {
        active_conns: cluster
            .front_ends()
            .iter()
            .map(|fe| fe.active_connections())
            .sum(),
        sources,
        timers,
        pending_body_bytes,
        replication_factor: cluster.frontend().replication_factor(),
        mapping_divergence: cluster.frontend().mapping_divergence(),
    }
}

impl Drained {
    fn violations(&self) -> Vec<String> {
        [
            ("core.active_conns_end", self.active_conns),
            ("reactor.sources_end", self.sources),
            ("reactor.timers_end", self.timers),
            ("reactor.pending_body_bytes_end", self.pending_body_bytes),
        ]
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(name, v)| format!("{name} = {v}, expected 0"))
        .collect()
    }
}

/// Splits `seconds` into whole windows of about [`WINDOW`]: how many,
/// and how long each is, seconds.
fn windows_for(seconds: f64) -> (usize, f64) {
    let windows = (seconds / WINDOW.as_secs_f64()).round().max(1.0) as usize;
    (windows, seconds / windows as f64)
}

/// Runs the closed phase and reduces its windows.
fn measured_closed_loop(
    live: &Live,
    phase: Phase,
    seconds: f64,
    traced: bool,
) -> (ThreadReport, Option<WindowMedians>, f64) {
    let (windows, window_s) = windows_for(seconds);
    let until = Until::Windows {
        windows,
        window: Duration::from_secs_f64(window_s),
    };
    let mut report = loadgen::closed_loop(&live.plan, phase, until, traced);
    let medians = stats::window_medians(&mut report.windows, window_s);
    (report, medians, window_s)
}

/// Per-window goodput and p99, for the operator (the windows are sorted
/// by then: `window_medians` ran).
fn per_window(report: &ThreadReport, window_s: f64, result: &mut RunResult) {
    result.window_rps = report
        .windows
        .iter()
        .map(|w| w.responses as f64 / window_s)
        .collect();
    result.window_p99_us = report
        .windows
        .iter()
        .map(|w| stats::percentile_sorted(&w.batch_ns, 0.99).unwrap_or(0) as f64 / 1000.0)
        .collect();
}

/// Runs `spec` once.
pub fn run(spec: &Spec, opts: &RunOpts) -> RunResult {
    let cpus = crate::pin::allowed_cpus();
    let split = CoreSplit::of(&cpus);
    let calib_before = calib_ns();
    let mut result = RunResult {
        pinned: split.pinned(),
        ..RunResult::default()
    };

    let mut setup_s = Vec::new();
    let mut set_up_checked = |result: &mut RunResult| {
        let (live, took, sent) = set_up(spec, opts.seed, &split);
        setup_s.push(took.as_secs_f64());
        if sent.failed > 0 {
            result.violations.push(format!(
                "set-up: {} of {} requests failed ({:?})",
                sent.failed, sent.attempted, sent.first_failure
            ));
        }
        live
    };

    // Measure on the first set-up, so that peak RSS is that of one
    // cluster and one run.
    let live = set_up_checked(&mut result);
    let drained = if opts.traced {
        traced_run(spec, opts, &live, &mut result)
    } else {
        plain_run(opts, &live, &mut result)
    };
    result.violations.extend(drained.violations());
    live.cluster.shutdown();

    // One set-up time is a single sample, and the driver gates on it:
    // set up again, on nothing, and report the median.
    if !opts.traced {
        for _ in 1..opts.setups {
            let again = set_up_checked(&mut result);
            again.cluster.quiesce(Duration::from_secs(5));
            again.cluster.shutdown();
        }
        let setup_s = median(&setup_s).expect("set-up times are finite");
        result.metrics.insert(0, ("setup_s", setup_s));
    }
    // Give the calling thread its own mask back (a later run on this
    // thread splits whatever it is allowed).
    crate::pin::pin_current_thread(&cpus);

    let calib_after = calib_ns();
    let drift = (calib_after as f64 - calib_before as f64).abs() / calib_before as f64;
    result.calib_ns = (calib_before, calib_after);
    result.noisy = drift > 0.10;
    if opts.traced {
        result.metrics.push(("host.calib_ns", calib_before as f64));
        result.metrics.push(("host.calib_drift_frac", drift));
        // Registry order, so every consumer sees one layout.
        let order = |name: &str| {
            crate::registry::PER_LAYER
                .iter()
                .position(|m| m.name == name)
                .expect("a registered metric")
        };
        result.metrics.sort_by_key(|(name, _)| order(name));
    }
    result
}

/// The plain run: the closed loop, untraced, for all of `--seconds`.
fn plain_run(opts: &RunOpts, live: &Live, result: &mut RunResult) -> Drained {
    let cpu_before = Rusage::now().cpu_us();
    let (report, medians, window_s) =
        measured_closed_loop(live, Phase::Closed, opts.seconds, false);
    let cpu_us = (Rusage::now().cpu_us() - cpu_before) as f64;
    per_window(&report, window_s, result);
    result.attempted = report.attempted;
    result.failed = report.failed;
    let drained = drain(&live.cluster);
    let Some(m) = medians else {
        result
            .violations
            .push("a closed-loop window completed no batch".to_owned());
        return drained;
    };
    result.min_window_batches = m.min_batches;
    result.metrics = vec![
        ("goodput_rps", m.goodput_rps),
        ("payload_mib_s", m.payload_mib_s),
        ("batch_p50_us", m.batch_p50_us),
        ("batch_p99_us", m.batch_p99_us),
        ("cpu_us_per_req", cpu_us / report.verified.max(1) as f64),
        ("rss_peak_mib", peak_rss_kib() as f64 / 1024.0),
    ];
    drained
}

/// Sums one field over the per-node deltas of two snapshots.
fn delta(
    before: &[NodeStatsSnapshot],
    after: &[NodeStatsSnapshot],
    field: impl Fn(&NodeStatsSnapshot) -> u64,
) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| field(a) - field(b))
        .collect()
}

/// The traced run. `--seconds` is split 40 / 25 / 20 % over the
/// untraced closed loop, the traced closed loop and the open loop; the
/// inline replay gets what is left.
fn traced_run(spec: &Spec, opts: &RunOpts, live: &Live, result: &mut RunResult) -> Drained {
    let cluster = &live.cluster;
    let plan = &live.plan;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // (1) Untraced closed loop: counter deltas and the CPU baseline.
    let before = Counters::read(cluster);
    let (closed, base, window_s) =
        measured_closed_loop(live, Phase::Closed, opts.seconds * 0.40, false);
    let after = Counters::read(cluster);
    per_window(&closed, window_s, result);
    // (2) The closed loop again, with client-side spans.
    let (traced, with_spans, _) =
        measured_closed_loop(live, Phase::Traced, opts.seconds * 0.25, true);
    // (3) The open loop at the workload's fixed rate.
    let open_len = Duration::from_secs_f64(opts.seconds * 0.20);
    let open = loadgen::open_loop(plan, open_len);

    result.attempted = closed.attempted + traced.attempted + open.attempted;
    result.failed = closed.failed + traced.failed + open.failed;
    let drained = drain(cluster);

    // Counts, from the public snapshots across phase (1).
    let sum = |field: fn(&NodeStatsSnapshot) -> u64| -> f64 {
        delta(&before.nodes, &after.nodes, field)
            .iter()
            .sum::<u64>() as f64
    };
    let served = sum(|n| n.served).max(1.0);
    let per_node = delta(&before.nodes, &after.nodes, |n| n.served);
    let busiest = per_node.iter().copied().max().unwrap_or(0) as f64;
    let verified = closed.verified.max(1) as f64;
    let wall_s = (after.at - before.at).as_secs_f64();
    let cpu_user = (after.rusage.user_us - before.rusage.user_us) as f64;
    let cpu_sys = (after.rusage.sys_us - before.rusage.sys_us) as f64;
    let cpu_us_per_req = (cpu_user + cpu_sys) / verified;
    out.extend([
        ("node.hit_rate", sum(|n| n.hits) / served),
        ("node.disk_reads_per_req", sum(|n| n.disk_reads) / served),
        ("node.lateral_frac", sum(|n| n.lateral_out) / served),
        (
            "node.coalesced_waits_per_req",
            sum(|n| n.coalesced_waits) / served,
        ),
        ("node.bytes_per_req", sum(|n| n.bytes) / served),
        (
            "node.serve_imbalance",
            busiest / (served / per_node.len() as f64),
        ),
        ("core.replication_factor", drained.replication_factor),
        (
            "core.mapping_divergence_end",
            drained.mapping_divergence as f64,
        ),
        ("core.active_conns_end", drained.active_conns as f64),
        ("reactor.sources_end", drained.sources as f64),
        ("reactor.timers_end", drained.timers as f64),
        (
            "reactor.pending_body_bytes_end",
            drained.pending_body_bytes as f64,
        ),
        ("proc.cpu_util", (cpu_user + cpu_sys) / 1e6 / wall_s),
        (
            "proc.ctx_switches_per_req",
            (after.rusage.ctx_switches - before.rusage.ctx_switches) as f64 / verified,
        ),
        ("proc.cpu_user_us_per_req", cpu_user / verified),
        ("proc.cpu_sys_us_per_req", cpu_sys / verified),
        // No Vip exists on a one-front-end workload: these read 0 there.
        (
            "tier.handoffs_per_conn",
            (after.handoffs - before.handoffs) as f64 / closed.connections.max(1) as f64,
        ),
        (
            "tier.gossip_rounds",
            (after.gossip_rounds - before.gossip_rounds) as f64,
        ),
        ("loadgen.attempted", result.attempted as f64),
        ("loadgen.failed", result.failed as f64),
    ]);

    // Client view, from phase (2).
    let p50_us = |pick: fn(&loadgen::BatchTimes) -> u64, skip_zero: bool| -> f64 {
        let mut v: Vec<u64> = traced
            .batch_times
            .iter()
            .map(pick)
            .filter(|&ns| !(skip_zero && ns == 0))
            .collect();
        percentile(&mut v, 0.5).unwrap_or(0) as f64 / 1000.0
    };
    out.extend([
        ("conn.connect_us_p50", p50_us(|t| t.connect_ns, true)),
        ("conn.first_byte_us_p50", p50_us(|t| t.first_byte_ns, false)),
        ("conn.last_byte_us_p50", p50_us(|t| t.last_byte_ns, false)),
    ]);
    let overhead = match (base, with_spans) {
        (Some(b), Some(t)) if b.goodput_rps > 0.0 => 1.0 - t.goodput_rps / b.goodput_rps,
        _ => {
            result
                .violations
                .push("a closed-loop window completed no batch".to_owned());
            0.0
        }
    };
    out.push(("trace.overhead_frac", overhead));
    result.min_window_batches = base.map_or(0, |b| b.min_batches);

    // Open loop, from phase (3).
    let mut latency = open.open_latency_ns.clone();
    let mut lag = open.open_lag_ns.clone();
    let us = |sample: Option<u64>| sample.unwrap_or(0) as f64 / 1000.0;
    let pipeline = spec.protocol.pipeline() as f64;
    out.extend([
        (
            "loadgen.open_rate_rps",
            open.batches as f64 * pipeline / open_len.as_secs_f64(),
        ),
        ("loadgen.open_p50_us", us(percentile(&mut latency, 0.50))),
        ("loadgen.open_p99_us", us(percentile(&mut latency, 0.99))),
        ("loadgen.open_lag_p99_us", us(percentile(&mut lag, 0.99))),
        ("loadgen.open_backlog_max", open.open_backlog_max as f64),
    ]);

    // (4) The inline replay, cluster warm and idle.
    let timer_ns = Tracer::timer_cost_ns();
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64((opts.seconds * 0.15).max(0.2));
    let counts = replay::replay_requests(cluster, plan, &mut tracer, REPLAY_BATCHES, budget);
    if counts.unverified > 0 {
        result.violations.push(format!(
            "replay: {} of {} responses failed verification",
            counts.unverified, counts.requests
        ));
    }
    let request_spans = tracer.spans().len();
    replay::time_codecs(cluster, plan, &mut tracer);
    let totals = trace::totals(tracer.spans());
    out.extend(layer_times(
        spec,
        &totals,
        &counts,
        timer_ns,
        cpu_us_per_req,
    ));

    let path = opts.out_dir.join(format!("trace_{}.json", spec.name));
    let (request_side, message_side) = tracer.spans().split_at(request_spans);
    // The message-side spans have no parents, so splitting keeps every
    // parent id valid within its own group.
    match trace::write_json(
        &path,
        spec.name,
        opts.seed,
        &[
            ("client", &traced.spans),
            ("replay", request_side),
            ("messages", message_side),
        ],
    ) {
        Ok(()) => result.trace_file = Some(path),
        Err(e) => result
            .violations
            .push(format!("span file {}: {e}", path.display())),
    }
    result.metrics = out;
    drained
}

/// Reduces the replay's span totals to the per-layer time metrics, and
/// closes the books: traced layers + generator + residual =
/// `cpu_us_per_req`, by construction.
fn layer_times(
    spec: &Spec,
    totals: &std::collections::BTreeMap<&'static str, NameTotal>,
    counts: &ReplayCounts,
    timer_ns: u64,
    cpu_us_per_req: f64,
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let net_ns = |name: &str| get(name).net_self_ns(timer_ns);
    let requests = counts.requests.max(1) as f64;
    let per_span = |name: &str| get(name).mean_self_ns(timer_ns);

    let miss_self_ns = counts.miss_cpu_us as f64 * 1000.0;
    let layers_ns = net_ns("http.parse")
        + net_ns("http.encode_head")
        + net_ns("store.lookup")
        + net_ns("core.assign_batch")
        + net_ns("core.open_connection")
        + net_ns("core.close_connection")
        + net_ns("node.serve_hit")
        + miss_self_ns
        + net_ns("node.lateral")
        + net_ns("tier.admit")
        + net_ns("tier.release");
    let loadgen_ns = net_ns("loadgen.encode") + net_ns("loadgen.parse_verify");
    let layers_us_per_req = layers_ns / requests / 1000.0;
    let loadgen_us_per_req = loadgen_ns / requests / 1000.0;

    let tier_conns = get("tier.admit").count.max(1) as f64;
    let is_http10 = spec.protocol == Protocol::Http10;
    vec![
        ("http.parse_ns_per_req", net_ns("http.parse") / requests),
        ("http.encode_head_ns_per_resp", per_span("http.encode_head")),
        ("store.lookup_ns_per_req", per_span("store.lookup")),
        (
            "core.assign_batch_ns_per_req",
            // HTTP/1.0 never calls it: every request is a connection's
            // first, decided by `open_connection`.
            if is_http10 {
                0.0
            } else {
                net_ns("core.assign_batch") / requests
            },
        ),
        ("core.open_conn_ns", per_span("core.open_connection")),
        ("core.close_conn_ns", per_span("core.close_connection")),
        ("core.remote_frac", counts.remote as f64 / requests),
        ("node.serve_hit_ns_per_req", per_span("node.serve_hit")),
        (
            "node.serve_miss_self_us",
            miss_self_ns / counts.misses.max(1) as f64 / 1000.0,
        ),
        (
            "node.lateral_us_per_fetch",
            per_span("node.lateral_probe") / 1000.0,
        ),
        ("simcore.lru_ns_per_op", per_span("simcore.lru")),
        ("control.codec_ns_per_msg", per_span("control.codec")),
        ("control.apply_ns_per_msg", per_span("control.apply")),
        ("handoff.codec_ns_per_msg", per_span("handoff.codec")),
        (
            "handoff.handshake_ns_per_conn",
            per_span("handoff.handshake"),
        ),
        (
            "tier.admit_us_per_conn",
            (net_ns("tier.admit") + net_ns("tier.release")) / tier_conns / 1000.0,
        ),
        (
            "loadgen.encode_ns_per_req",
            net_ns("loadgen.encode") / requests,
        ),
        (
            "loadgen.parse_verify_ns_per_resp",
            per_span("loadgen.parse_verify"),
        ),
        (
            "io.residual_us_per_req",
            cpu_us_per_req - layers_us_per_req - loadgen_us_per_req,
        ),
        (
            "trace.coverage_frac",
            layers_us_per_req / cpu_us_per_req.max(1e-9),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{END_TO_END, PER_LAYER};

    fn smoke(spec: &Spec, traced: bool) -> RunResult {
        let exe = std::env::current_exe().expect("test binary path");
        run(
            spec,
            &RunOpts {
                seed: 11,
                seconds: if traced { 2.0 } else { 0.6 },
                traced,
                setups: 1,
                out_dir: exe
                    .parent()
                    .expect("binary directory")
                    .join("phttp-load-smoke"),
            },
        )
    }

    /// One short window of every workload, both kinds of run: nothing
    /// fails, nothing leaks, and every registered metric is emitted
    /// once, in registry order. Serial, because the workloads pin.
    #[test]
    fn every_workload_runs_clean_and_emits_every_metric() {
        for spec in crate::workload::all() {
            for (traced, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
                let r = smoke(&spec, traced);
                assert_eq!(r.failed, 0, "{} traced={traced}", spec.name);
                assert!(r.violations.is_empty(), "{}: {:?}", spec.name, r.violations);
                assert!(r.attempted > 0 && r.correct());
                let got: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
                let want: Vec<&str> = registry.iter().map(|m| m.name).collect();
                assert_eq!(got, want, "{} traced={traced}", spec.name);
                assert!(r.metrics.iter().all(|(_, v)| v.is_finite()));
                if traced {
                    let file = r.trace_file.expect("a span file");
                    let text = std::fs::read_to_string(&file).expect("span file readable");
                    for group in ["\"client\"", "\"replay\"", "\"messages\""] {
                        assert!(text.contains(group), "{group} in {}", file.display());
                    }
                    let tier = spec.front_ends > 1;
                    let handoffs = r
                        .metrics
                        .iter()
                        .find(|(n, _)| *n == "tier.handoffs_per_conn");
                    assert_eq!(handoffs.expect("emitted").1 > 0.0, tier, "{}", spec.name);
                } else {
                    assert!(r.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", r.metrics);
                }
            }
        }
    }

    #[test]
    fn seconds_split_into_whole_windows() {
        assert_eq!(windows_for(12.0), (12, 1.0));
        assert_eq!(windows_for(2.4), (2, 1.2));
        assert_eq!(windows_for(0.6), (1, 0.6));
        assert_eq!(windows_for(4.8).0, 5);
    }

    #[test]
    fn the_books_close_by_construction() {
        let spec = crate::workload::by_name("hot_small").expect("workload");
        let mut totals = std::collections::BTreeMap::new();
        totals.insert(
            "http.parse",
            NameTotal {
                count: 8,
                self_ns: 8_000,
            },
        );
        totals.insert(
            "node.serve_hit",
            NameTotal {
                count: 4,
                self_ns: 2_000,
            },
        );
        totals.insert(
            "loadgen.parse_verify",
            NameTotal {
                count: 4,
                self_ns: 1_000,
            },
        );
        let counts = ReplayCounts {
            requests: 4,
            ..ReplayCounts::default()
        };
        let m: std::collections::BTreeMap<_, _> = layer_times(&spec, &totals, &counts, 0, 14.0)
            .into_iter()
            .collect();
        let layers_us = (8_000.0 + 2_000.0) / 4.0 / 1000.0;
        let loadgen_us = 1_000.0 / 4.0 / 1000.0;
        assert!((m["io.residual_us_per_req"] + layers_us + loadgen_us - 14.0).abs() < 1e-9);
        assert!((m["trace.coverage_frac"] - layers_us / 14.0).abs() < 1e-12);
        assert_eq!(m["http.parse_ns_per_req"], 2_000.0);
        assert_eq!(m["node.serve_hit_ns_per_req"], 500.0);
    }
}
