//! Miss latency: what single-flight coalescing and GreedyDual-Size
//! eviction buy, on the simulator's deterministic clock.
//!
//! Three experiments, all asserted in-bench so a regression fails loudly
//! rather than quietly skewing the JSON:
//!
//! * **burst** — N clients miss the same cold document at once on one
//!   node. Uncoalesced, every miss schedules its own emulated disk read
//!   (N fetches); single-flight collapses the burst to exactly **one**
//!   fetch with N−1 delayed hits, and the aggregate miss delay can only
//!   shrink (waiters ride a read that is already under way).
//! * **sweep** — a Zipf workload whose working set far exceeds the
//!   cache, run at several fetch latencies (disk seek sweep) under
//!   strict LRU and GreedyDual with coalescing on. GreedyDual keeps
//!   `H = L + cost/size` per entry, `cost` being the EWMA aggregate miss
//!   delay the simulator measures per fetch, and evicts the smallest
//!   `H`: what stays is what is expensive to stall on per byte held.
//!   The asserts demand strictly fewer disk fetches *and* a lower
//!   aggregate miss delay at every seek.
//! * **cost** — what GreedyDual's cost *sample* is worth with all else
//!   held: the prototype's own [`Spindle`] and one node cache under
//!   closed-loop clients on a synthetic clock, single-flight, the
//!   completed flight's insert costed either by the nominal
//!   `read_time x (1 + waiters)` the prototype fed until ISSUE 24 or by
//!   the delay the spindle measured (arrival to completion, queue wait
//!   included, summed over leader and waiters). The assert demands the
//!   measured arm fetch no more.
//!
//! Writes `BENCH_misslatency.json` at the repo root. The criterion
//! group prices the cache itself: an evicting insert under each policy
//! (LRU's tail pop vs GreedyDual's lazy-heap pop and push), and a hit
//! under each (GreedyDual re-stamps `H`, with no heap operation — the
//! pair shows the hit path did not grow).

#![allow(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use phttp_proto::{DiskEmu, Spindle};
use phttp_sim::{build_workload, EvictPolicy, Report, SimConfig, Simulator};
use phttp_simcore::{LruCache, SimTime};
use phttp_trace::{generate, ClientId, SessionConfig, SynthConfig, TargetId, Trace};

/// Disk seek costs swept in the latency experiment, microseconds
/// (2 ms .. 40 ms: fast disk to loaded-spindle/network-storage regime).
const SEEK_US: &[u64] = &[2_000, 10_000, 40_000];

/// Concurrent missers in the burst experiment.
const BURST: usize = 32;

/// N clients, one cold target, all arriving inside one microsecond per
/// client tick — every probe lands while the first fetch is in flight.
fn burst_trace() -> Trace {
    let requests = (0..BURST)
        .map(|i| phttp_trace::Request {
            time: SimTime::from_micros(i as u64),
            client: ClientId(i as u32),
            target: TargetId(0),
        })
        .collect();
    Trace::new(requests, vec![64 * 1024])
}

fn burst_cell(coalesce: bool) -> Report {
    let mut cfg = SimConfig::paper_config("WRR-PHTTP", 1);
    cfg.cache_bytes = 8 * 1024 * 1024; // eviction-free
    cfg.coalesce_misses = coalesce;
    // Slow spindle: the node's per-connection CPU staggers the probes
    // over ~25 ms of simulated time, so the first fetch must outlive the
    // whole burst for every request to provably race the same miss.
    cfg.disk.seek_us = 100_000;
    let trace = burst_trace();
    let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
    Simulator::new(cfg, &trace, &workload).run()
}

fn zipf_trace(views: usize) -> Trace {
    let mut synth = SynthConfig::small();
    synth.num_pages = 300;
    synth.num_page_views = views;
    synth.zipf_exponent = 1.0;
    generate(&synth)
}

fn sweep_cell(trace: &Trace, seek_us: u64, policy: EvictPolicy) -> Report {
    let mut cfg = SimConfig::paper_config("WRR-PHTTP", 1)
        .with_coalescing()
        .with_eviction(policy);
    // Working set ≫ cache: eviction pressure is the whole experiment.
    cfg.cache_bytes = 2 * 1024 * 1024;
    cfg.disk.seek_us = seek_us;
    let workload = build_workload(trace, cfg.protocol, SessionConfig::default());
    Simulator::new(cfg, trace, &workload).run()
}

/// The live prototype's last A/B of `ProtoConfig::coalesce_misses`
/// (`phttp-load --workload miss_heavy`, 12 s runs, alternating pairs),
/// recorded in the artifact so ROADMAP item C can delete the off arm.
const COALESCE_AB: &str = "false -> true at the shipped code (measured cost on both sides) \
     goodput 19.50k -> 20.44k req/s (+4.8 %, 6/6 pairs, seeds 9601-9606), batch p50 1183 -> 1142 us, \
     p99 6598 -> 6287 us, 0 failed; false -> true on the parent commit (nominal cost on both sides) \
     18.29k -> 19.17k req/s (+4.8 %, 6/6 pairs, seeds 9201-9206)";

/// Closed-loop clients in the cost experiment: enough that the one
/// spindle is never idle and flights collect waiters.
const COST_CLIENTS: usize = 32;

/// One read on the cost experiment's spindle: its deadline, its target,
/// and the `(arrival, client)` of every request riding it.
struct CostFlight {
    deadline: Instant,
    target: TargetId,
    riders: Vec<(Instant, usize)>,
}

/// Counters of one [`cost_cell`] run.
#[derive(Default)]
struct CostCell {
    requests: u64,
    hits: u64,
    disk_fetches: u64,
    delayed_hits: u64,
    agg_miss_delay_ms: f64,
}

/// Replays `trace`'s request sequence from [`COST_CLIENTS`] closed-loop
/// clients against one GreedyDual cache (the sweep's 2 MiB) and one
/// [`Spindle`] (`miss_heavy`'s disk: 1 ms seek). A hit answers after 50 µs; a
/// miss parks on the target's flight or opens one on the spindle. The
/// arms differ only in what a completed flight's insert is costed by.
/// Every instant is `t0` plus sums of fixed durations, so the counters
/// are exact and repeat.
fn cost_cell(trace: &Trace, measured: bool) -> CostCell {
    let disk = DiskEmu {
        seek: Duration::from_micros(1_000),
        bytes_per_sec: 200.0 * 1024.0 * 1024.0,
    };
    let hit_time = Duration::from_micros(50);
    let mut cache: LruCache<TargetId> = LruCache::new(2 * 1024 * 1024);
    cache.set_policy(EvictPolicy::GreedyDual);
    let mut spindle = Spindle::default();
    let t0 = Instant::now();
    // Clients by the instant they may send again; flights in deadline
    // order (one spindle serves FIFO).
    let mut ready: BinaryHeap<Reverse<(Instant, usize)>> =
        (0..COST_CLIENTS).map(|c| Reverse((t0, c))).collect();
    let mut flights: VecDeque<CostFlight> = VecDeque::new();
    let mut next = trace.requests().iter();
    let mut cell = CostCell::default();
    loop {
        let now = ready.peek().map(|Reverse((at, _))| *at);
        let due = flights
            .front()
            .is_some_and(|f| now.is_none_or(|now| f.deadline <= now));
        if due {
            let CostFlight {
                deadline,
                target,
                riders,
            } = flights.pop_front().expect("checked above");
            let size = trace.size_of(target);
            let stalled: Duration = riders.iter().map(|&(arrival, _)| deadline - arrival).sum();
            let cost = if measured {
                stalled
            } else {
                disk.read_time(size) * riders.len() as u32
            };
            cache.insert_with_delay(target, size, cost.as_micros() as u64);
            cell.agg_miss_delay_ms += stalled.as_secs_f64() * 1e3;
            ready.extend(riders.into_iter().map(|(_, c)| Reverse((deadline, c))));
            continue;
        }
        let Some(Reverse((now, client))) = ready.pop() else {
            return cell;
        };
        let Some(req) = next.next() else {
            continue; // trace exhausted: this client retires
        };
        cell.requests += 1;
        if cache.touch(req.target) {
            cell.hits += 1;
            ready.push(Reverse((now + hit_time, client)));
        } else if let Some(flight) = flights.iter_mut().find(|f| f.target == req.target) {
            cell.delayed_hits += 1;
            flight.riders.push((now, client));
        } else {
            cell.disk_fetches += 1;
            let read_time = disk.read_time(trace.size_of(req.target));
            let (deadline, _) = spindle.admit(now, read_time);
            flights.push_back(CostFlight {
                deadline,
                target: req.target,
                riders: vec![(now, client)],
            });
        }
    }
}

const POLICIES: [(&str, EvictPolicy); 2] =
    [("lru", EvictPolicy::Lru), ("gd", EvictPolicy::GreedyDual)];

fn bench_cache_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("miss_latency");
    for (name, policy) in POLICIES {
        g.bench_function(&format!("insert_{name}"), |b| {
            let mut cache: LruCache<TargetId> = LruCache::new(512 * 1024);
            cache.set_policy(policy);
            let mut i = 0u32;
            b.iter(|| {
                // Sliding working set over 4096 targets of 8 KiB against
                // a 64-entry cache: every insert evicts.
                i = i.wrapping_add(1);
                let t = TargetId(i % 4096);
                criterion::black_box(cache.insert_with_delay(
                    t,
                    8 * 1024,
                    10_000 + (i % 7) as u64 * 3_000,
                ));
            });
        });
    }
    for (name, policy) in POLICIES {
        g.bench_function(&format!("touch_{name}"), |b| {
            // 4096 resident entries, hit in a scattered order.
            let mut cache: LruCache<TargetId> = LruCache::new(4096 * 8 * 1024);
            cache.set_policy(policy);
            for t in 0..4096 {
                cache.insert_with_delay(TargetId(t), 8 * 1024, 10_000 + (t % 7) as u64 * 3_000);
            }
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(2_654_435_761);
                criterion::black_box(cache.touch(TargetId(i % 4096)));
            });
        });
    }
    g.finish();
}

fn bench_report(_c: &mut Criterion) {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    let views = if quick { 2_000 } else { 8_000 };

    let mut rows = String::new();
    let push_row = |rows: &mut String, row: String| {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&row);
    };

    // --- burst: N concurrent misses of one cold target.
    let off = burst_cell(false);
    let on = burst_cell(true);
    println!(
        "miss_latency/burst   coalesce=off fetches {:>3}  delayed 0    agg {:>9.2} ms",
        off.disk_fetches, off.agg_miss_delay_ms
    );
    println!(
        "miss_latency/burst   coalesce=on  fetches {:>3}  delayed {:<3}  agg {:>9.2} ms",
        on.disk_fetches, on.delayed_hits, on.agg_miss_delay_ms
    );
    assert_eq!(
        off.disk_fetches, BURST as u64,
        "uncoalesced: every concurrent miss must fetch"
    );
    assert_eq!(on.disk_fetches, 1, "coalesced: one fetch for the burst");
    assert_eq!(on.delayed_hits, BURST as u64 - 1);
    assert!(
        on.agg_miss_delay_ms <= off.agg_miss_delay_ms + 1e-9,
        "coalescing increased aggregate miss delay"
    );
    for (label, r) in [("off", &off), ("on", &on)] {
        push_row(
            &mut rows,
            format!(
                "    {{\"experiment\": \"burst\", \"coalesce\": \"{label}\", \"concurrent_misses\": {BURST}, \"disk_fetches\": {}, \"delayed_hits\": {}, \"agg_miss_delay_ms\": {:.3}, \"miss_p50_ms\": {:.3}, \"miss_p99_ms\": {:.3}}}",
                r.disk_fetches, r.delayed_hits, r.agg_miss_delay_ms, r.miss_p50_latency_ms, r.miss_p99_latency_ms
            ),
        );
    }

    // --- sweep: LRU vs GreedyDual across fetch latencies, coalescing on.
    let trace = zipf_trace(views);
    let (mut lru_total, mut gd_total) = (0.0f64, 0.0f64);
    for &seek in SEEK_US {
        let lru = sweep_cell(&trace, seek, EvictPolicy::Lru);
        let gd = sweep_cell(&trace, seek, EvictPolicy::GreedyDual);
        for (name, r) in [("LRU", &lru), ("GreedyDual", &gd)] {
            println!(
                "miss_latency/sweep   seek {:>5} us  {name:<10} fetches {:>6}  delayed {:>5}  agg {:>10.1} ms  p50 {:>7.2}  p99 {:>8.2}  hit {:.4}",
                seek, r.disk_fetches, r.delayed_hits, r.agg_miss_delay_ms, r.miss_p50_latency_ms, r.miss_p99_latency_ms, r.cache_hit_rate
            );
            push_row(
                &mut rows,
                format!(
                    "    {{\"experiment\": \"sweep\", \"seek_us\": {seek}, \"eviction\": \"{name}\", \"disk_fetches\": {}, \"delayed_hits\": {}, \"agg_miss_delay_ms\": {:.3}, \"miss_p50_ms\": {:.3}, \"miss_p99_ms\": {:.3}, \"hit_rate\": {:.4}}}",
                    r.disk_fetches, r.delayed_hits, r.agg_miss_delay_ms, r.miss_p50_latency_ms, r.miss_p99_latency_ms, r.cache_hit_rate
                ),
            );
        }
        lru_total += lru.agg_miss_delay_ms;
        gd_total += gd.agg_miss_delay_ms;
        assert!(
            gd.disk_fetches < lru.disk_fetches,
            "GreedyDual must fetch less than LRU at seek {seek} us ({} vs {})",
            gd.disk_fetches,
            lru.disk_fetches
        );
        assert!(
            gd.agg_miss_delay_ms < lru.agg_miss_delay_ms,
            "GreedyDual must stall less than LRU at seek {seek} us \
             ({:.1} ms vs {:.1} ms)",
            gd.agg_miss_delay_ms,
            lru.agg_miss_delay_ms
        );
    }
    println!(
        "miss_latency/sweep   total agg delay: GreedyDual/LRU = {:.4}",
        gd_total / lru_total
    );

    // --- cost: GreedyDual costed by nominal read time vs measured delay.
    let nominal = cost_cell(&trace, false);
    let measured = cost_cell(&trace, true);
    for (label, r) in [("nominal", &nominal), ("measured", &measured)] {
        assert_eq!(r.hits + r.delayed_hits + r.disk_fetches, r.requests);
        let hit_rate = r.hits as f64 / r.requests as f64;
        println!(
            "miss_latency/cost    cost={label:<8} fetches {:>6}  delayed {:>5}  agg {:>10.1} ms  hit {hit_rate:.4}",
            r.disk_fetches, r.delayed_hits, r.agg_miss_delay_ms
        );
        push_row(
            &mut rows,
            format!(
                "    {{\"experiment\": \"cost\", \"cost_sample\": \"{label}\", \"clients\": {COST_CLIENTS}, \"disk_fetches\": {}, \"delayed_hits\": {}, \"agg_miss_delay_ms\": {:.3}, \"hit_rate\": {hit_rate:.4}}}",
                r.disk_fetches, r.delayed_hits, r.agg_miss_delay_ms
            ),
        );
    }
    assert!(
        measured.disk_fetches <= nominal.disk_fetches,
        "GreedyDual costed by measured delay must not fetch more than by nominal \
         read time ({} vs {})",
        measured.disk_fetches,
        nominal.disk_fetches
    );

    let host = phttp_bench::host_meta_json();
    let json = format!(
        "{{\n  \"benchmark\": \"miss_latency\",\n  {host},\n  \"workloads\": {{\"burst\": \"{BURST} concurrent requests for one cold 64 KiB target, 1 node, WRR-PHTTP, eviction-free cache\", \"sweep\": \"Zipf(1.0) synthetic trace, {views} page views, 300 pages, WRR-PHTTP, 1 node, 2 MiB cache (working set >> cache), disk seek swept over {SEEK_US:?} us, coalescing on\", \"cost\": \"the sweep's trace as a request sequence, {COST_CLIENTS} closed-loop clients, one GreedyDual cache of 2 MiB, the prototype's Spindle at 1 ms seek + 200 MiB/s, 50 us hits, single-flight\"}},\n  \"baseline\": \"coalescing off (burst) / strict-LRU eviction (sweep) / cost sample = nominal read_time x (1 + waiters) (cost)\",\n  \"contender\": \"single-flight miss coalescing (burst) / GreedyDual-Size eviction costed by EWMA aggregate miss delay (sweep) / cost sample = measured arrival-to-completion delay summed over leader and waiters (cost)\",\n  \"metrics\": \"disk_fetches; delayed_hits (misses parked on an in-flight fetch); agg_miss_delay_ms = sum over every miss of probe-to-fetch-completion delay; per-miss p50/p99\",\n  \"notes\": \"simulated clock, so the rows are deterministic and independent of the host; the prototype-side analogues are asserted in crates/proto/tests/coalescing.rs over real threads/reactor I/O. The live prototype's last A/B of the coalesce_misses knob under GreedyDual (phttp-load miss_heavy, ISSUE 24, alternating pairs): {COALESCE_AB}\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_misslatency.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(cache_ops, bench_cache_ops);
criterion_group!(report, bench_report);
criterion_main!(cache_ops, report);
