//! The benchmark's registry: every metric it prints, by name, with unit
//! and direction — the binary's half of `BENCHMARK.json`. A test holds
//! the two halves together.
//!
//! Definitions, and which end-to-end metric each layer metric is
//! expected to move on which workload, are in this directory's README.

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger reading is better.
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the cluster sees. Same names on every workload.
///
/// The bounds are as wide as the contract allows because the build
/// host is that noisy, not because the program is: a fixed integer
/// spin reads 37–51 ms from one second to the next, and ten-seed
/// spreads of the wall-clock metrics run to 16 % of the median (README,
/// "Steadiness"). A claim is made on alternating parent/change pairs,
/// where the drift cancels; the bound only says what counts as a
/// regression.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("goodput_rps", "req/s", true, 0.25),
    e2e("payload_mib_s", "MiB/s", true, 0.25),
    e2e("batch_p50_us", "us", false, 0.25),
    e2e("batch_p99_us", "us", false, 0.25),
    e2e("cpu_us_per_req", "us", false, 0.25),
    e2e("rss_peak_mib", "MiB", false, 0.2),
];

/// Single layers, outside in. Counts are deltas of public snapshots
/// over the untraced closed phase; times come from the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("http.parse_ns_per_req", "ns", false),
    layer("http.encode_head_ns_per_resp", "ns", false),
    layer("store.lookup_ns_per_req", "ns", false),
    layer("core.assign_batch_ns_per_req", "ns", false),
    layer("core.open_conn_ns", "ns", false),
    layer("core.close_conn_ns", "ns", false),
    layer("core.remote_frac", "ratio", false),
    layer("core.replication_factor", "ratio", false),
    layer("core.mapping_divergence_end", "count", false),
    layer("core.active_conns_end", "count", false),
    layer("node.serve_hit_ns_per_req", "ns", false),
    layer("node.serve_miss_self_us", "us", false),
    layer("node.lateral_us_per_fetch", "us", false),
    layer("node.hit_rate", "ratio", true),
    layer("node.disk_reads_per_req", "ratio", false),
    layer("node.lateral_frac", "ratio", false),
    layer("node.coalesced_waits_per_req", "ratio", true),
    layer("node.bytes_per_req", "B", false),
    layer("node.serve_imbalance", "ratio", false),
    layer("simcore.lru_ns_per_op", "ns", false),
    layer("control.codec_ns_per_msg", "ns", false),
    layer("control.apply_ns_per_msg", "ns", false),
    layer("handoff.codec_ns_per_msg", "ns", false),
    layer("handoff.handshake_ns_per_conn", "ns", false),
    layer("tier.admit_us_per_conn", "us", false),
    layer("tier.handoffs_per_conn", "ratio", false),
    layer("tier.gossip_rounds", "count", false),
    layer("reactor.sources_end", "count", false),
    layer("reactor.timers_end", "count", false),
    layer("reactor.pending_body_bytes_end", "B", false),
    layer("proc.cpu_util", "ratio", false),
    layer("proc.ctx_switches_per_req", "ratio", false),
    layer("proc.cpu_user_us_per_req", "us", false),
    layer("proc.cpu_sys_us_per_req", "us", false),
    layer("io.residual_us_per_req", "us", false),
    layer("trace.coverage_frac", "ratio", true),
    layer("conn.connect_us_p50", "us", false),
    layer("conn.first_byte_us_p50", "us", false),
    layer("conn.last_byte_us_p50", "us", false),
    layer("loadgen.attempted", "count", true),
    layer("loadgen.failed", "count", false),
    layer("loadgen.encode_ns_per_req", "ns", false),
    layer("loadgen.parse_verify_ns_per_resp", "ns", false),
    layer("loadgen.open_rate_rps", "req/s", true),
    layer("loadgen.open_p50_us", "us", false),
    layer("loadgen.open_p99_us", "us", false),
    layer("loadgen.open_lag_p99_us", "us", false),
    layer("loadgen.open_backlog_max", "count", false),
    layer("trace.overhead_frac", "ratio", false),
    layer("host.calib_ns", "ns", false),
    layer("host.calib_drift_frac", "ratio", false),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The objects of the JSON array that follows `"key":` in `text`,
    /// by plain string scanning (the repo's `serde` shim is a no-op).
    fn objects_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let at = text.find(&format!("\"{key}\"")).expect("key present");
        let open = at + text[at..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        text[open + 1..close]
            .split('}')
            .filter(|o| o.contains('{'))
            .collect()
    }

    /// The string value of `"field": "..."` inside one object.
    fn field<'a>(object: &'a str, field: &str) -> &'a str {
        let at = object.find(&format!("\"{field}\"")).expect("field present");
        let rest = &object[at + field.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        &rest[open..close]
    }

    fn number(object: &str, field: &str) -> f64 {
        let at = object.find(&format!("\"{field}\"")).expect("field present");
        let rest = object[at + field.len() + 2..].trim_start_matches([':', ' ']);
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        rest[..end].parse().expect("a number")
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn benchmark_json_and_the_binary_name_the_same_things() {
        let text = benchmark_json();

        let listed: Vec<(String, String)> = objects_of(&text, "workloads")
            .iter()
            .map(|o| (field(o, "name").to_owned(), field(o, "why").to_owned()))
            .collect();
        let ours: Vec<(String, String)> = crate::workload::all()
            .iter()
            .map(|s| {
                let why: Vec<&str> = s.why.split_whitespace().collect();
                (s.name.to_owned(), why.join(" "))
            })
            .collect();
        assert_eq!(listed, ours, "workloads differ");

        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let objects = objects_of(&text, key);
            let listed: Vec<(&str, &str, &str)> = objects
                .iter()
                .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
                .collect();
            let ours: Vec<(&str, &str, &str)> = registry
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (m.name, m.unit, better)
                })
                .collect();
            assert_eq!(listed, ours, "{key} differs");
            if key == "end_to_end" {
                for (o, m) in objects.iter().zip(registry) {
                    assert_eq!(Some(number(o, "bound")), m.bound, "{}", m.name);
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let workloads = crate::workload::all();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(workloads.iter().map(|s| s.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && !m.higher_is_better));
        assert_eq!(PER_LAYER.len(), 51);
        for s in &workloads {
            assert!(s.why.split_whitespace().collect::<Vec<_>>().join(" ").len() <= 200);
        }
    }
}
