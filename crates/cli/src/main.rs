//! `phttp` — command-line interface to the P-HTTP cluster reproduction.
//!
//! ```text
//! phttp trace gen   [--views N] [--seed S] [--specweb] [--out FILE]
//! phttp trace stats [FILE]   (reads CLF; without FILE, uses the built-in synthetic trace)
//! phttp sim         [--config LABEL] [--nodes N] [--flash] [--cache-mb M] [--lru] [FILE]
//! phttp sweep       [--flash] [--quick] [FILE]
//! phttp demo        [--nodes N] [--policy wrr|lard|extlard] [--views N] [--front-ends M]
//! ```

mod args;

use std::io::BufRead;
use std::time::Duration;

use args::Args;
use phttp_core::PolicyKind;
use phttp_proto::{run_load, ClientProtocol, Cluster, LoadConfig, ProtoConfig};
use phttp_sim::{build_workload, EvictPolicy, SimConfig, Simulator};
use phttp_trace::{
    clf, generate, generate_specweb, reconstruct, SessionConfig, SpecWebConfig, SynthConfig, Trace,
};

const USAGE: &str = "phttp — cluster web server with content-based request distribution
(reproduction of Aron/Druschel/Zwaenepoel, USENIX 1999)

commands:
  trace gen    [--views N] [--seed S] [--specweb] [--out FILE]
               generate a synthetic workload (Common Log Format on stdout/FILE)
  trace stats  [FILE]
               workload statistics + P-HTTP connection reconstruction
  sim          [--config LABEL] [--nodes N] [--flash] [--cache-mb M] [--lru] [FILE]
               one simulated run (LABEL as in the paper's figures, e.g.
               BEforward-extLARD-PHTTP; FILE is a CLF log, default synthetic;
               node caches run GreedyDual-Size, --lru the strict-LRU baseline)
  sweep        [--flash] [--quick] [FILE]
               the full Figure 7/8 sweep over cluster sizes and configs
  demo         [--nodes N] [--policy wrr|lard|extlard] [--views N]
               [--shards N] [--lru] [--front-ends M]
               boot the live loopback cluster and drive it with real HTTP
               (served from epoll event loops; --shards N spreads them over
               N loops with SO_REUSEPORT accept distribution; concurrent
               misses per target are single-flighted and reported as
               delayed hits; --lru evicts strictly least-recently-used
               instead of GreedyDual-Size costed by measured miss delay;
               --front-ends M puts M front-ends behind one VIP and reports
               their handoffs and what their gossip cost)
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(argv, &["flash", "quick", "specweb", "phttp10", "lru"])?;
    match (args.pos(0), args.pos(1)) {
        (Some("trace"), Some("gen")) => trace_gen(&args),
        (Some("trace"), Some("stats")) => trace_stats(&args),
        (Some("sim"), _) => sim_run(&args),
        (Some("sweep"), _) => sweep(&args),
        (Some("demo"), _) => demo(&args),
        _ => {
            print!("{USAGE}");
            Ok(())
        }
    }
}

/// Loads the workload: a CLF file if a path is given, else the synthetic
/// default trace.
fn load_trace(args: &Args, file_pos: usize) -> Result<Trace, Box<dyn std::error::Error>> {
    match args.pos(file_pos) {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            let lines: Vec<String> = std::io::BufReader::new(file)
                .lines()
                .collect::<Result<_, _>>()?;
            let (trace, stats) = clf::parse_log(&lines);
            eprintln!(
                "parsed {}: {} accepted, {} skipped",
                path,
                stats.accepted,
                stats.skipped()
            );
            Ok(trace)
        }
        None => Ok(generate(&SynthConfig::default())),
    }
}

fn trace_gen(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let seed = args.get_or("seed", 1999u64)?;
    let trace = if args.flag("specweb") {
        let mut cfg = SpecWebConfig::default();
        cfg.seed = seed;
        cfg.num_requests = args.get_or("views", cfg.num_requests)?;
        generate_specweb(&cfg)
    } else {
        let mut cfg = SynthConfig::default();
        cfg.seed = seed;
        cfg.num_page_views = args.get_or("views", cfg.num_page_views)?;
        generate(&cfg)
    };
    // 1998-03-12 00:00:00 UTC, in keeping with the paper's trace era.
    let lines = clf::format_log(&trace, 889_660_800);
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, lines.join("\n") + "\n")?;
            eprintln!("wrote {} requests to {path}", trace.len());
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            use std::io::Write;
            for l in &lines {
                writeln!(lock, "{l}")?;
            }
        }
    }
    Ok(())
}

fn trace_stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let trace = load_trace(args, 2)?;
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!("requests:          {}", trace.len());
    println!("distinct targets:  {}", trace.distinct_targets());
    println!("working set:       {:.1} MB", mb(trace.working_set_bytes()));
    println!(
        "mean response:     {:.1} KB",
        trace.mean_response_bytes() / 1024.0
    );
    println!(
        "trace span:        {:.1} min",
        trace.end_time().as_secs_f64() / 60.0
    );
    let fractions = [0.9, 0.95, 0.99, 1.0];
    for (f, bytes) in fractions.iter().zip(trace.coverage_curve(&fractions)) {
        println!(
            "coverage:          {:>4.0}% of requests within {:.1} MB",
            f * 100.0,
            mb(bytes)
        );
    }
    let conns = reconstruct(&trace, SessionConfig::default());
    println!("p-http connections: {}", conns.connections.len());
    println!(
        "requests/conn:      {:.2}",
        conns.mean_requests_per_connection()
    );
    println!(
        "batches/conn:       {:.2}",
        conns.mean_batches_per_connection()
    );
    Ok(())
}

fn sim_run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let label = args.get("config").unwrap_or("BEforward-extLARD-PHTTP");
    if !SimConfig::PAPER_LABELS.contains(&label) {
        return Err(format!(
            "unknown configuration {label:?} (one of: {})",
            SimConfig::PAPER_LABELS.join(", ")
        )
        .into());
    }
    let nodes = args.get_or("nodes", 4usize)?;
    let trace = load_trace(args, 1)?;
    let mut cfg = SimConfig::paper_config(label, nodes);
    if args.flag("flash") {
        cfg = cfg.with_flash();
    }
    cfg.cache_bytes = args.get_or("cache-mb", 16u64)? * 1024 * 1024;
    cfg.eviction = cache_policy(args);
    cfg.validate()?;
    let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
    let report = Simulator::new(cfg, &trace, &workload).run();
    println!("{}", report.summary());
    println!(
        "latency p50/p95/p99: {:.1} / {:.1} / {:.1} ms",
        report.p50_latency_ms, report.p95_latency_ms, report.p99_latency_ms
    );
    println!(
        "moved requests: {} forwarded, {} migrated ({:.1}%)",
        report.forwarded_requests,
        report.migrations,
        report.moved_fraction() * 100.0
    );
    for (i, n) in report.per_node.iter().enumerate() {
        println!(
            "  be{i}: req={:<7} hit={:>5.1}% cpu={:>5.1}% disk={:>5.1}%",
            n.requests,
            n.hit_rate() * 100.0,
            n.cpu_utilization * 100.0,
            n.disk_utilization * 100.0
        );
    }
    Ok(())
}

/// The node caches' replacement policy: GreedyDual-Size unless `--lru`.
fn cache_policy(args: &Args) -> EvictPolicy {
    if args.flag("lru") {
        EvictPolicy::Lru
    } else {
        EvictPolicy::GreedyDual
    }
}

fn sweep(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let trace = load_trace(args, 1)?;
    let nodes: Vec<usize> = if args.flag("quick") {
        vec![1, 2, 4, 6]
    } else {
        (1..=10).collect()
    };
    print!("{:<28}", "config");
    for n in &nodes {
        print!("{n:>9}");
    }
    println!();
    for label in [
        "zeroCost-extLARD-PHTTP",
        "multiHandoff-extLARD-PHTTP",
        "BEforward-extLARD-PHTTP",
        "simple-LARD",
        "simple-LARD-PHTTP",
        "WRR-PHTTP",
        "WRR",
    ] {
        print!("{label:<28}");
        for &n in &nodes {
            let mut cfg = SimConfig::paper_config(label, n);
            if args.flag("flash") {
                cfg = cfg.with_flash();
            }
            let workload = build_workload(&trace, cfg.protocol, SessionConfig::default());
            let r = Simulator::new(cfg, &trace, &workload).run();
            print!("{:>9.0}", r.throughput_rps);
        }
        println!();
    }
    Ok(())
}

fn demo(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let nodes = args.get_or("nodes", 3usize)?;
    let policy = match args.get("policy").unwrap_or("extlard") {
        "wrr" => PolicyKind::Wrr,
        "lard" => PolicyKind::Lard,
        "extlard" => PolicyKind::ExtLard,
        other => return Err(format!("unknown policy {other:?}").into()),
    };
    let mut synth = SynthConfig::small();
    synth.num_page_views = args.get_or("views", 1_200usize)?;
    let trace = generate(&synth);
    let workload = if args.flag("phttp10") {
        phttp_trace::http10_connections(&trace)
    } else {
        reconstruct(&trace, SessionConfig::default())
    };

    let cluster = Cluster::start(
        ProtoConfig {
            nodes,
            policy,
            reactor_shards: args.get_or("shards", 1)?,
            cache_policy: cache_policy(args),
            front_ends: args.get_or("front-ends", 1)?,
            ..ProtoConfig::default()
        },
        &trace,
    )?;
    println!("cluster up at {}", cluster.frontend_addr());
    let report = run_load(
        cluster.frontend_addrs(),
        cluster.store(),
        &workload,
        &LoadConfig {
            clients: 24,
            protocol: if args.flag("phttp10") {
                ClientProtocol::Http10
            } else {
                ClientProtocol::PHttp
            },
            verify: true,
            read_timeout: Duration::from_secs(10),
        },
    );
    println!(
        "{} requests in {:.2}s -> {:.0} req/s ({} errors)",
        report.requests,
        report.elapsed.as_secs_f64(),
        report.throughput_rps(),
        report.errors
    );
    if let Some(vip) = cluster.vip() {
        let rounds: u64 = (0..vip.front_ends()).map(|f| vip.gossip_seq(f)).sum();
        println!(
            "  tier: {} front-ends, {} handoffs, {} gossip rounds, {} gossip bytes ({:.0} per round)",
            vip.front_ends(),
            vip.handoffs(),
            rounds,
            vip.gossip_bytes(),
            vip.gossip_bytes() as f64 / rounds.max(1) as f64
        );
    }
    for (i, s) in cluster.node_stats().iter().enumerate() {
        println!(
            "  be{i}: served={:<6} hit={:>5.1}% lateral={}/{} migrations={} reads={} delayed={} rejected={}",
            s.served,
            if s.served > 0 {
                100.0 * s.hits as f64 / s.served as f64
            } else {
                0.0
            },
            s.lateral_out,
            s.lateral_in,
            s.migrations_in,
            s.disk_reads,
            s.coalesced_waits,
            s.admissions_rejected
        );
    }
    cluster.shutdown();
    Ok(())
}
