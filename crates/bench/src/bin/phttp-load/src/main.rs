//! `phttp-load`: the repo's one benchmark.
//!
//! Starts a real loopback `Cluster` per workload, drives it from a
//! seeded request stream, verifies every response, and prints every
//! metric by name with its unit. See README.md in this directory for
//! what is measured and why; `BENCHMARK.json` at the repo root for the
//! contract the driver holds it to.
//!
//! ```text
//! phttp-load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! phttp-load --all [--seed <n>] [--seconds <s>] [--traced]
//! phttp-load --selfcheck [--seed <n>] [--seconds <s>]
//! ```

mod loadgen;
mod pin;
mod registry;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use registry::{Metric, END_TO_END, PER_LAYER};
use run::{RunOpts, RunResult};
use workload::Spec;

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  phttp-load --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the last line of output is the result as JSON
  phttp-load --all [--seed <n>] [--seconds <s>] [--traced]
      every workload, each in a process of its own
  phttp-load --selfcheck [--seed <n>] [--seconds <s>]
      --all twice, side by side; fails if an end-to-end metric moved
      by more than its bound";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--traced" => out.traced = true,
            "--all" => out.all = true,
            "--selfcheck" => out.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err(format!("--seconds: {} is not in (0, 600]", out.seconds));
    }
    let modes = [out.workload.is_some(), out.all, out.selfcheck];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck".to_owned());
    }
    Ok(out)
}

/// Where run artifacts go: under the build directory, which every
/// checkout ignores.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("phttp-load")
}

/// `git rev-parse HEAD`, best effort (the driver's checkout is not a
/// repository).
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, values with all their
/// digits.
fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = registry::find(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Runs one workload in this process and prints it: a metric per line
/// as `workload metric value unit`, the stamped record, and last the
/// result object the driver reads.
fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        setups: run::SETUPS,
        out_dir: out_dir(),
    };
    let r: RunResult = run::run(spec, &opts);
    for (name, value) in &r.metrics {
        let unit = registry::find(name).map_or("", |m| m.unit);
        println!("{} {name} {value} {unit}", spec.name);
    }
    let row = |v: &[f64]| -> String {
        let cells: Vec<String> = v.iter().map(|w| format!("{w:.0}")).collect();
        cells.join(" ")
    };
    println!("# closed-loop windows, req/s: {}", row(&r.window_rps));
    println!("# closed-loop windows, p99 us: {}", row(&r.window_p99_us));
    for v in &r.violations {
        println!("# violation: {v}");
    }
    let violations: Vec<String> = r.violations.iter().map(|v| json_string(v)).collect();
    println!(
        "record {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"pinned\": {}, \"noisy\": {}, \"calib_ns\": [{}, {}], \"commit\": \"{}\", {}, \"config\": {}, \
         \"min_window_batches\": {}, \"trace_file\": {}, \"violations\": [{}], \"metrics\": {}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        r.pinned,
        r.noisy,
        r.calib_ns.0,
        r.calib_ns.1,
        commit(),
        phttp_bench::host_meta_json(),
        spec.config_json(),
        r.min_window_batches,
        r.trace_file
            .as_ref()
            .map_or("null".to_owned(), |p| json_string(&p.display().to_string())),
        violations.join(", "),
        metrics_json(&r.metrics),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics),
    );
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `--all` pass: metric values by `(workload, metric)`, and whether
/// every child passed its gate.
type Pass = (BTreeMap<(String, String), f64>, bool);

/// Runs every workload, each in a fresh process of this binary — so
/// that peak RSS, the CPU counters and the affinity masks start clean
/// — echoing the children's metric lines.
fn run_all(args: &Args) -> Pass {
    let exe = std::env::current_exe().expect("own path");
    let mut values = BTreeMap::new();
    let mut ok = true;
    for spec in workload::all() {
        let out = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("re-execute phttp-load");
        ok &= out.status.success();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            if let [w, metric, value, _unit] = words[..] {
                if w == spec.name {
                    if let Ok(v) = value.parse() {
                        values.insert((w.to_owned(), metric.to_owned()), v);
                    }
                    println!("{line}");
                    continue;
                }
            }
            if line.starts_with('#') || line.starts_with("record ") {
                println!("{line}");
            }
        }
    }
    (values, ok)
}

/// Prints two passes side by side and reports whether every end-to-end
/// metric of the second is within its bound of the first.
fn compare(first: &Pass, second: &Pass) -> bool {
    let mut agree = first.1 && second.1;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in workload::all() {
        for m in END_TO_END {
            let key = (spec.name.to_owned(), m.name.to_owned());
            let (Some(&a), Some(&b)) = (first.0.get(&key), second.0.get(&key)) else {
                println!("{:<12} {:<16} missing", spec.name, m.name);
                agree = false;
                continue;
            };
            let diff = (b - a) / a;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let within = diff.abs() <= bound;
            agree &= within;
            let worse = (diff > 0.0) != m.higher_is_better && diff != 0.0;
            println!(
                "{:<12} {:<16} {:>14.3} {:>14.3} {:>+7.1}% {:>6.0}%  {}{}",
                spec.name,
                m.name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if worse { "worse" } else { "better" },
                if within { "" } else { "  <-- beyond bound" }
            );
        }
    }
    agree
}

fn describe(list: &[Metric]) -> String {
    list.iter().map(|m| m.name).collect::<Vec<_>>().join(" ")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\nworkloads:");
        for spec in workload::all() {
            println!("  {:<12} {}", spec.name, spec.why);
        }
        println!(
            "end-to-end: {}\nper-layer: {}",
            describe(END_TO_END),
            describe(PER_LAYER)
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phttp-load: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        let Some(spec) = workload::by_name(name) else {
            eprintln!("phttp-load: no workload {name}\n{USAGE}");
            return ExitCode::from(2);
        };
        return run_one(&spec, &args);
    }
    let first = run_all(&args);
    let ok = if args.selfcheck {
        let second = run_all(&args);
        compare(&first, &second)
    } else {
        first.1
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "hot_small",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("hot_small"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 12.0, true));
        let b = args(&["--all"]).expect("valid");
        assert_eq!(
            (b.seed, b.seconds, b.traced, b.all),
            (1, DEFAULT_SECONDS, false, true)
        );
        assert!(
            args(&["--selfcheck", "--seed", "2"])
                .expect("valid")
                .selfcheck
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--all", "--selfcheck"][..],
            &[],
            &["--workload"],
            &["--all", "--trace", "2"],
            &["--all", "--seconds", "0"],
            &["--all", "--seed", "x"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_json_has_units_and_all_digits() {
        let j = metrics_json(&[("setup_s", 0.123456789), ("goodput_rps", 98765.4321)]);
        assert_eq!(
            j,
            "{\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"goodput_rps\": {\"value\": 98765.4321, \"unit\": \"req/s\"}}"
        );
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c d\"");
    }

    #[test]
    fn compare_flags_a_metric_beyond_its_bound() {
        let pass = |goodput: f64| -> Pass {
            let mut m = BTreeMap::new();
            for spec in workload::all() {
                for e in END_TO_END {
                    m.insert((spec.name.to_owned(), e.name.to_owned()), 100.0);
                }
            }
            m.insert(("hot_small".to_owned(), "goodput_rps".to_owned()), goodput);
            (m, true)
        };
        assert!(compare(&pass(100.0), &pass(104.0)));
        assert!(!compare(&pass(100.0), &pass(60.0)));
        assert!(!compare(&(BTreeMap::new(), true), &pass(100.0)));
    }
}
