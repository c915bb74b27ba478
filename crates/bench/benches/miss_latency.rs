//! Miss latency: what single-flight coalescing and GreedyDual-Size
//! eviction buy, on the simulator's deterministic clock.
//!
//! Two experiments, both asserted in-bench so a regression fails loudly
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
//!
//! Writes `BENCH_misslatency.json` at the repo root. The criterion
//! group prices the cache itself: an evicting insert under each policy
//! (LRU's tail pop vs GreedyDual's lazy-heap pop and push), and a hit
//! under each (GreedyDual re-stamps `H`, with no heap operation — the
//! pair shows the hit path did not grow).

#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
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

    let host = phttp_bench::host_meta_json();
    let json = format!(
        "{{\n  \"benchmark\": \"miss_latency\",\n  {host},\n  \"workloads\": {{\"burst\": \"{BURST} concurrent requests for one cold 64 KiB target, 1 node, WRR-PHTTP, eviction-free cache\", \"sweep\": \"Zipf(1.0) synthetic trace, {views} page views, 300 pages, WRR-PHTTP, 1 node, 2 MiB cache (working set >> cache), disk seek swept over {SEEK_US:?} us, coalescing on\"}},\n  \"baseline\": \"coalescing off (burst) / strict-LRU eviction (sweep)\",\n  \"contender\": \"single-flight miss coalescing (burst) / GreedyDual-Size eviction costed by EWMA aggregate miss delay (sweep)\",\n  \"metrics\": \"disk_fetches; delayed_hits (misses parked on an in-flight fetch); agg_miss_delay_ms = sum over every miss of probe-to-fetch-completion delay; per-miss p50/p99\",\n  \"notes\": \"simulated clock, so the rows are deterministic and independent of the host; the prototype-side analogues are asserted in crates/proto/tests/coalescing.rs over real threads/reactor I/O\",\n  \"results\": [\n{rows}\n  ]\n}}\n"
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
