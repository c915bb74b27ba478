//! Spans recorded from outside the program: name, start, end, the span
//! that caused it, and the request it belongs to. Kept in memory, written
//! out once the run is over, reduced to per-name self times.
//!
//! Spans live in the benchmark, around its calls into each layer; spans
//! inside the cluster are a later change (ROADMAP item B).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.assign_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// Spans of one request share this.
    pub request_id: u64,
}

impl Span {
    /// Wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name reduction of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their self times (duration minus direct children), ns.
    pub self_ns: u64,
}

impl NameTotal {
    /// Summed self time, ns, net of the clock's own cost (which every
    /// leaf span includes once).
    pub fn net_self_ns(&self, timer_ns: u64) -> f64 {
        self.self_ns.saturating_sub(self.count * timer_ns) as f64
    }

    /// Mean net self time per span, ns.
    pub fn mean_self_ns(&self, timer_ns: u64) -> f64 {
        self.net_self_ns(timer_ns) / self.count.max(1) as f64
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request_id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renames the most recent span (a call's outcome — hit or miss —
    /// is only known once it returns).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// What an empty leaf span measures: the clock's own cost, ns
    /// (median of 2 001 empty spans on a scratch tracer).
    pub fn timer_cost_ns() -> u64 {
        let mut t = Tracer::new();
        for _ in 0..2001 {
            t.leaf("calib", None, 0, || std::hint::black_box(0u8));
        }
        let mut d: Vec<u64> = t.spans.iter().map(Span::duration_ns).collect();
        d.sort_unstable();
        d[d.len() / 2]
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Sums self times by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
    }
    out
}

/// Writes `groups` — named span lists, each with ids local to its list
/// — as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    groups: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"groups\": {{"
    )?;
    for (g, (name, spans)) in groups.iter().enumerate() {
        if g > 0 {
            write!(w, ",")?;
        }
        write!(w, "\n\"{name}\": [")?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                w,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        write!(w, "]")?;
    }
    writeln!(w, "}}}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 7,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // batch [0,100) > parse [10,30), serve [40,90) > lookup [50,60)
        let spans = vec![
            span("batch", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("serve", 40, 90, Some(0)),
            span("lookup", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let t = totals(&spans);
        assert_eq!(
            t["batch"],
            NameTotal {
                count: 1,
                self_ns: 30
            }
        );
        assert_eq!(t["serve"].self_ns, 40);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut t = Tracer::new();
        let root = t.open("batch", None, 1);
        let v = t.leaf("probe", Some(root), 1, || 41 + 1);
        t.rename_last("probe.hit");
        t.close(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].name, "probe.hit");
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[0].request_id, s[1].request_id);
    }

    #[test]
    fn mean_self_subtracts_the_timer_and_floors_at_zero() {
        let t = NameTotal {
            count: 4,
            self_ns: 400,
        };
        assert_eq!(t.mean_self_ns(30), 70.0);
        assert_eq!(t.mean_self_ns(500), 0.0);
        assert_eq!(NameTotal::default().mean_self_ns(1), 0.0);
    }

    #[test]
    fn json_round_trips_by_eye() {
        // Beside the test binary, so the test writes only under the
        // build directory.
        let exe = std::env::current_exe().expect("test binary path");
        let dir = exe
            .parent()
            .expect("binary has a directory")
            .join(format!("phttp-load-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        let spans = vec![span("a", 1, 2, None), span("b", 1, 2, Some(0))];
        write_json(&path, "w", 3, &[("replay", &spans)]).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"workload\": \"w\""));
        assert!(text.contains("\"name\": \"b\", \"start_ns\": 1, \"end_ns\": 2, \"parent\": 0"));
        assert!(text.contains("\"parent\": null"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
