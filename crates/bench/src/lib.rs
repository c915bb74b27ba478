//! Shared harness support for the figure-regeneration binaries.
//!
//! Every `src/bin/figNN_*.rs` binary follows the same contract:
//!
//! * prints the figure's series as an aligned table (and optionally CSV);
//! * `--check` re-validates the paper's *shape claims* for that figure and
//!   exits nonzero on violation, so figures double as regression tests;
//! * `--quick` runs a scaled-down configuration for CI.

use std::fmt::Write as _;

use phttp_analytic::{AnalyticModel, MechanismKind};
use phttp_sim::{build_workload, Report, SimConfig, Simulator};
use phttp_trace::{SessionConfig, SynthConfig, Trace};

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone, Default)]
pub struct FigOpts {
    /// Scaled-down run for CI.
    pub quick: bool,
    /// Validate shape claims and exit nonzero on failure.
    pub check: bool,
    /// Emit CSV to stdout after the table.
    pub csv: bool,
}

impl FigOpts {
    /// Parses `std::env::args`, ignoring unknown flags.
    pub fn from_env() -> Self {
        let mut o = FigOpts::default();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--check" => o.check = true,
                "--csv" => o.csv = true,
                "--help" | "-h" => {
                    println!(
                        "flags: --quick (scaled-down run) --check (validate shape claims) --csv"
                    );
                    std::process::exit(0);
                }
                other => eprintln!("note: ignoring unknown flag {other}"),
            }
        }
        o
    }
}

/// A printable figure: named rows over shared numeric columns.
#[derive(Debug, Default)]
pub struct FigTable {
    title: String,
    column_header: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl FigTable {
    /// Creates a table with the given title and column labels.
    pub fn new(title: &str, column_header: &str, columns: Vec<String>) -> Self {
        FigTable {
            title: title.to_owned(),
            column_header: column_header.to_owned(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a named series.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn row(&mut self, name: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((name.to_owned(), values));
    }

    /// Returns a previously added row by name.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## {}", self.title);
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([self.column_header.len()])
            .max()
            .unwrap_or(8)
            + 2;
        let _ = write!(s, "{:<name_w$}", self.column_header);
        for c in &self.columns {
            let _ = write!(s, "{c:>10}");
        }
        let _ = writeln!(s);
        for (name, vals) in &self.rows {
            let _ = write!(s, "{name:<name_w$}");
            for v in vals {
                let _ = write!(s, "{v:>10.1}");
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Renders CSV (header row, then one line per series).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "series,{}", self.columns.join(","));
        for (name, vals) in &self.rows {
            let cells: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(s, "{name},{}", cells.join(","));
        }
        s
    }

    /// Prints the table (and CSV if requested).
    pub fn print(&self, opts: &FigOpts) {
        println!("{}", self.render());
        if opts.csv {
            println!("{}", self.to_csv());
        }
    }
}

/// Accumulates shape-claim validations.
#[derive(Debug, Default)]
pub struct ShapeCheck {
    failures: Vec<String>,
    passes: usize,
}

impl ShapeCheck {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one claim.
    pub fn claim(&mut self, description: &str, holds: bool) {
        if holds {
            self.passes += 1;
            println!("  ok: {description}");
        } else {
            self.failures.push(description.to_owned());
            println!("  FAIL: {description}");
        }
    }

    /// Prints a summary; exits nonzero if any claim failed and `check` is set.
    pub fn finish(self, opts: &FigOpts) {
        println!(
            "\nshape claims: {} passed, {} failed",
            self.passes,
            self.failures.len()
        );
        if opts.check && !self.failures.is_empty() {
            std::process::exit(1);
        }
    }
}

/// The standard workload used by the simulation figures: the default
/// synthetic Rice-like trace, or the small CI variant.
pub fn paper_trace(quick: bool) -> Trace {
    if quick {
        phttp_trace::generate(&SynthConfig::small())
    } else {
        phttp_trace::generate(&SynthConfig::default())
    }
}

/// Cache size paired with [`paper_trace`] so quick runs stay in the paper's
/// capacity-miss regime (working set larger than one node's cache).
pub fn paper_cache_bytes(quick: bool) -> u64 {
    if quick {
        2 * 1024 * 1024
    } else {
        16 * 1024 * 1024
    }
}

/// Shared body of Figures 5 and 6: prints the bandwidth-vs-size series for
/// both mechanisms and validates the crossover shape claims.
pub fn run_analytic_figure(title: &str, model: AnalyticModel, opts: &FigOpts) {
    let series = model.series(1024, 100 * 1024, 21);
    let cols: Vec<String> = series
        .iter()
        .map(|(z, _, _)| format!("{}K", z / 1024))
        .collect();
    let mut table = FigTable::new(
        &format!("{title}: bandwidth (Mb/s) vs. average file size"),
        "mechanism",
        cols,
    );
    table.row("BEforward", series.iter().map(|&(_, f, _)| f).collect());
    table.row("multiHandoff", series.iter().map(|&(_, _, m)| m).collect());
    table.print(opts);

    let cross = model.crossover_bytes();
    if let Some(c) = cross {
        println!("crossover: {:.1} KB\n", c as f64 / 1024.0);
    } else {
        println!("crossover: none in [64 B, 1 MB]\n");
    }

    let mut check = ShapeCheck::new();
    let small = 2 * 1024;
    let large = 80 * 1024;
    check.claim(
        "back-end forwarding wins at small sizes (2 KB)",
        model.bandwidth_mbps(MechanismKind::BackendForwarding, small)
            > model.bandwidth_mbps(MechanismKind::MultipleHandoff, small),
    );
    check.claim(
        "multiple handoff wins at large sizes (80 KB)",
        model.bandwidth_mbps(MechanismKind::MultipleHandoff, large)
            > model.bandwidth_mbps(MechanismKind::BackendForwarding, large),
    );
    check.claim(
        "a single crossover exists in the web-size range",
        cross.is_some_and(|c| (2 * 1024..64 * 1024).contains(&(c as usize))),
    );
    check.claim(
        "both mechanisms' bandwidth rises with size",
        series
            .windows(2)
            .all(|w| w[1].1 > w[0].1 && w[1].2 > w[0].2),
    );
    check.finish(opts);
}

/// The seven configurations of Figures 7 and 8, in the paper's legend order.
pub const FIG7_CONFIGS: [&str; 7] = [
    "zeroCost-extLARD-PHTTP",
    "multiHandoff-extLARD-PHTTP",
    "BEforward-extLARD-PHTTP",
    "simple-LARD",
    "simple-LARD-PHTTP",
    "WRR-PHTTP",
    "WRR",
];

/// Shared body of Figures 7 and 8: throughput vs. cluster size for the
/// seven configurations, plus the paper's shape claims.
pub fn run_sim_figure(title: &str, flash: bool, opts: &FigOpts) {
    let trace = paper_trace(opts.quick);
    let nodes: Vec<usize> = if opts.quick {
        vec![1, 2, 4, 6]
    } else {
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    };
    let mut table = FigTable::new(
        &format!("{title}: throughput (req/s) vs. cluster size"),
        "config",
        nodes.iter().map(|n| n.to_string()).collect(),
    );
    for label in FIG7_CONFIGS {
        let series: Vec<f64> = nodes
            .iter()
            .map(|&n| run_sim(label, n, &trace, opts.quick, flash).throughput_rps)
            .collect();
        table.row(label, series);
    }
    table.print(opts);

    let mut check = ShapeCheck::new();
    let last = nodes.len() - 1;
    let mid = nodes.iter().position(|&n| n >= 4).unwrap_or(last);
    let at = |name: &str, i: usize| table.get(name).expect("series")[i];

    check.claim(
        "1 node: P-HTTP ≈ HTTP/1.0 for simple LARD (disk-bound)",
        (at("simple-LARD-PHTTP", 0) / at("simple-LARD", 0) - 1.0).abs() < 0.15,
    );
    check.claim(
        "simple LARD loses locality under P-HTTP at mid sizes",
        at("simple-LARD-PHTTP", mid) < at("simple-LARD", mid) * 0.85,
    );
    check.claim(
        "back-end forwarding is competitive (within 20% of the zero-cost ideal)",
        at("BEforward-extLARD-PHTTP", last) > at("zeroCost-extLARD-PHTTP", last) * 0.8,
    );
    // The finer ordering claims need the full-size trace: the quick trace is
    // dominated by compulsory misses, a regime the paper's two-month trace
    // never enters.
    if !opts.quick {
        check.claim(
            "extended LARD (multi-handoff) beats simple LARD/1.0 at the top size",
            at("multiHandoff-extLARD-PHTTP", last) > at("simple-LARD", last) * 1.02,
        );
        check.claim(
            "multiple handoff is within a few % of the zero-cost ideal",
            at("multiHandoff-extLARD-PHTTP", last) > at("zeroCost-extLARD-PHTTP", last) * 0.93,
        );
    }
    check.claim(
        "LARD beats WRR by a wide margin at the top size",
        at("simple-LARD", last) > at("WRR", last) * 1.8,
    );
    check.claim(
        "WRR gains nothing from P-HTTP (disk-bound)",
        (at("WRR-PHTTP", last) / at("WRR", last) - 1.0).abs() < 0.1,
    );
    // The catch-up effect: simple-LARD-PHTTP's *relative* gap to extended
    // LARD narrows as the aggregate cache grows.
    let gap = |i: usize| at("simple-LARD-PHTTP", i) / at("zeroCost-extLARD-PHTTP", i);
    check.claim(
        "simple-LARD-PHTTP catches up at larger cluster sizes",
        gap(last) > gap(mid),
    );
    check.finish(opts);
}

/// Host metadata stamped into every `phttp-load` report: the logical
/// CPU count the run had available and the UTC date it ran, as a JSON
/// fragment (two key/value pairs, no braces). Benchmark numbers are
/// meaningless without at least this much provenance — a small
/// container has one or two cores, a laptop many.
pub fn host_meta_json() -> String {
    let cores = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    format!("\"cpu_cores\": {cores}, \"bench_date\": \"{}\"", utc_date())
}

/// Today's UTC date as `YYYY-MM-DD`, from `SystemTime` alone (no
/// timezone database or date-crate dependency).
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Gregorian date from days since 1970-01-01 (Hinnant's civil-from-days
/// algorithm; exact over the benchmark-relevant range).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Runs one named simulator configuration over the trace.
pub fn run_sim(label: &str, nodes: usize, trace: &Trace, quick: bool, flash: bool) -> Report {
    let mut cfg = SimConfig::paper_config(label, nodes);
    if flash {
        cfg = cfg.with_flash();
    }
    cfg.cache_bytes = paper_cache_bytes(quick);
    let workload = build_workload(trace, cfg.protocol, SessionConfig::default());
    Simulator::new(cfg, trace, &workload).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_gets() {
        let mut t = FigTable::new("demo", "cfg", vec!["1".into(), "2".into()]);
        t.row("a", vec![1.0, 2.0]);
        t.row("b", vec![3.0, 4.0]);
        assert_eq!(t.get("a"), Some(&[1.0, 2.0][..]));
        assert_eq!(t.get("zzz"), None);
        let out = t.render();
        assert!(out.contains("demo"));
        assert!(out.contains("3.0"));
        let csv = t.to_csv();
        assert!(csv.starts_with("series,1,2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = FigTable::new("x", "c", vec!["1".into()]);
        t.row("bad", vec![1.0, 2.0]);
    }

    #[test]
    fn shape_check_counts() {
        let mut c = ShapeCheck::new();
        c.claim("true thing", true);
        c.claim("false thing", false);
        assert_eq!(c.passes, 1);
        assert_eq!(c.failures.len(), 1);
        // finish() without --check must not exit.
        c.finish(&FigOpts::default());
    }

    #[test]
    fn host_meta_is_wellformed() {
        let meta = host_meta_json();
        assert!(meta.starts_with("\"cpu_cores\": "));
        assert!(meta.contains("\"bench_date\": \""));
        let date = utc_date();
        assert_eq!(date.len(), 10, "YYYY-MM-DD: {date}");
        assert_eq!(date.as_bytes()[4], b'-');
        assert_eq!(date.as_bytes()[7], b'-');
        // Known anchors for the civil-date arithmetic.
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn quick_trace_is_smaller() {
        let q = paper_trace(true);
        let full_pages = SynthConfig::default().num_pages;
        assert!(q.num_targets() < full_pages * 6);
        assert!(paper_cache_bytes(true) < paper_cache_bytes(false));
    }
}
