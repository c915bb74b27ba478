//! `phttp-lint`: the repo's static concurrency/hygiene gate.
//!
//! A lightweight, dependency-free Rust scanner (a masking lexer, not a
//! full parser) that walks `crates/`, `shims/`, and `src/` and enforces
//! the project rules that rustc and clippy cannot:
//!
//! * **safety-comment** — every `unsafe` block in `shims/` carries a
//!   `// SAFETY:` comment (same line, or in the comment block
//!   introducing its statement).
//! * **std-sync** — no `std::sync::{Mutex, RwLock, Condvar}` outside
//!   `shims/` and test code (`tests/` directories and `#[cfg(test)]`
//!   modules). The shim types are the lockcheck-instrumented ones;
//!   going around them hides locks from the checker. `crates/lockcheck`
//!   is the one exemption: it *implements* the checker, so it cannot be
//!   a client of the instrumented types.
//! * **guard-blocking** — inside `crates/proto/src/reactor/`, no
//!   statement both binds a lock guard (`.lock()` / `.write()`) and
//!   calls a blocking syscall from the deny-list (`write_all`,
//!   `read_exact`, `connect`, `accept`). The event loop must never
//!   block while holding a lock.
//! * **reactor-head** — non-test code in `crates/proto/src/reactor/`
//!   builds no response head (`Response::ok(`, `.head_bytes(`,
//!   `Response::ok_head(`): a `200` head comes from the content store's
//!   per-target table, so a cache hit allocates none.
//! * **thread-spawn** — non-test code in `crates/proto/src/` starts
//!   threads (`thread::spawn(`, `thread::Builder`) only in
//!   `reactor/mod.rs` (the shards): sockets, control sessions, gossip
//!   and ticks belong to the event loops.
//! * **doc-hygiene** — the `tools/check_links.sh` rules, natively:
//!   markdown links and backticked repo paths / `BENCH_*.json` /
//!   `UPPER.md` references in the top-level docs must exist.
//!
//! Usage: `phttp-lint [repo-root]` (defaults to the current directory).
//! Prints `path:line: [rule] message` per finding; exits non-zero if
//! any fire. Self-tests run the rules against `tools/lint/fixtures/`.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, pointing at a repo-relative path and 1-based line.
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Replaces the *contents* of comments, string literals, char literals,
/// and raw strings with spaces, preserving every newline and the
/// overall byte layout, so code rules can scan without tripping on
/// prose. Comment markers themselves (`//`, `/*`) are masked too.
fn mask_code(src: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string: r"..." or r#"..."# etc.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Lifetime ('a, 'static) vs char literal ('x', '\n').
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) if n.is_alphanumeric() || n == '_' => {
                            // 'a' is a char only if a quote closes it.
                            b.get(i + 2) == Some(&'\'')
                        }
                        Some(_) => true, // '(' etc. can only be a char
                        None => false,
                    };
                    if is_char {
                        st = St::Char;
                        out.push('\'');
                    } else {
                        out.push('\'');
                    }
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(d) => {
                if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < h && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == h {
                        st = St::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Line number (1-based) of byte-ish offset `pos` in `text` (measured in
/// chars, matching `mask_code`'s output).
fn line_of(text: &str, pos: usize) -> usize {
    text.chars().take(pos).filter(|&c| c == '\n').count() + 1
}

/// Whether the `unsafe` block starting at `line` (1-based) is annotated:
/// `SAFETY:` on the same raw line, or in the contiguous `//` comment
/// block introducing the statement (walking upward past the statement's
/// own continuation lines, stopping at any line that ends another
/// statement or block).
fn has_safety_comment(raw_lines: &[&str], line: usize) -> bool {
    let idx = line - 1;
    if raw_lines.get(idx).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = raw_lines[i].trim();
        if l.starts_with("//") {
            // Inside the introducing comment block: search it fully.
            let mut j = i + 1;
            loop {
                let c = raw_lines[j - 1].trim();
                if !c.starts_with("//") {
                    return false;
                }
                if c.contains("SAFETY:") {
                    return true;
                }
                if j == 1 {
                    return false;
                }
                j -= 1;
            }
        }
        // A statement/block boundary before any comment: unannotated.
        if l.is_empty() || l.ends_with(';') || l.ends_with('{') || l.ends_with('}') {
            return false;
        }
        // Otherwise this is a continuation line of the same statement
        // (e.g. `let rc =` above a wrapped `unsafe {`): keep walking.
    }
    false
}

/// Rule `safety-comment`: every `unsafe` block in a `shims/` file is
/// annotated (see [`has_safety_comment`]).
fn rule_safety(rel: &str, raw: &str, masked: &str) -> Vec<Finding> {
    if !rel.starts_with("shims/") {
        return Vec::new();
    }
    let raw_lines: Vec<&str> = raw.lines().collect();
    let chars: Vec<char> = masked.chars().collect();
    const KW: [char; 6] = ['u', 'n', 's', 'a', 'f', 'e'];
    let mut findings = Vec::new();
    for off in 0..chars.len().saturating_sub(KW.len()) {
        if chars[off..off + KW.len()] != KW {
            continue;
        }
        // Word boundary on both sides.
        if off > 0 {
            let p = chars[off - 1];
            if p.is_alphanumeric() || p == '_' {
                continue;
            }
        }
        // Next non-whitespace char must open a block (`unsafe {`), not
        // `unsafe fn` / `unsafe impl`.
        match chars[off + KW.len()..].iter().find(|c| !c.is_whitespace()) {
            Some('{') => {}
            _ => continue,
        }
        let line = line_of(masked, off);
        if !has_safety_comment(&raw_lines, line) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: "safety-comment",
                msg: "unsafe block without a `// SAFETY:` comment".to_string(),
            });
        }
    }
    findings
}

/// The lines of `masked` before its first `#[cfg(test)]` module, 1-based:
/// the repo convention puts `#[cfg(test)] mod tests` last in the file,
/// so everything from that marker on is test-only. A `#[cfg(test)]` on
/// any other item (a test-only helper method, say) does not end the
/// live code after it.
fn live_lines(masked: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines: Vec<&str> = masked.lines().collect();
    let opens_test_mod = |i: usize| {
        lines[i].trim_start().starts_with("#[cfg(test)]")
            && lines[i + 1..]
                .iter()
                .map(|l| l.trim_start())
                .find(|l| !l.is_empty() && !l.starts_with("#["))
                .is_some_and(|l| l.starts_with("mod ") || l.contains(" mod "))
    };
    let end = (0..lines.len())
        .find(|&i| opens_test_mod(i))
        .unwrap_or(lines.len());
    lines
        .into_iter()
        .take(end)
        .enumerate()
        .map(|(i, l)| (i + 1, l))
}

/// Rule `std-sync`: no `std::sync::{Mutex, RwLock, Condvar}` outside
/// `shims/`, `tests/` directories, `#[cfg(test)]` code, and
/// `crates/lockcheck` (which implements the checker the shim types
/// report to).
fn rule_std_sync(rel: &str, masked: &str) -> Vec<Finding> {
    if rel.starts_with("shims/") || rel.starts_with("crates/lockcheck/") || rel.contains("/tests/")
    {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (line_no, line) in live_lines(masked) {
        let banned = [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ];
        let mut hit = banned
            .iter()
            .find(|t| line.contains(*t))
            .map(|t| t.to_string());
        if hit.is_none() && line.trim_start().starts_with("use std::sync::") {
            // Grouped imports: `use std::sync::{Arc, Mutex as StdMutex}`.
            hit = ["Mutex", "RwLock", "Condvar"]
                .iter()
                .find(|t| {
                    line.split(['{', '}', ',', ' '])
                        .any(|tok| tok == **t || tok.starts_with(&format!("{t}:")))
                })
                .map(|t| format!("std::sync::{t}"));
        }
        if let Some(t) = hit {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: "std-sync",
                msg: format!("`{t}` outside shims/tests — use the instrumented `parking_lot` shim"),
            });
        }
    }
    findings
}

/// Rule `guard-blocking`: in `crates/proto/src/reactor/`, no statement
/// both takes a lock guard and calls a deny-listed blocking syscall.
fn rule_guard_blocking(rel: &str, masked: &str) -> Vec<Finding> {
    if !rel.starts_with("crates/proto/src/reactor/") {
        return Vec::new();
    }
    const BLOCKING: [&str; 4] = ["write_all(", "read_exact(", "connect(", "accept("];
    let mut findings = Vec::new();
    let mut stmt = String::new();
    let mut stmt_line = 1;
    let mut line = 1;
    for c in masked.chars() {
        if c == '\n' {
            line += 1;
        }
        // Statement boundaries: `;` ends one, and braces bound one — a
        // guard bound in a statement is never *bound* across a brace.
        if c == ';' || c == '{' || c == '}' {
            let takes_guard = stmt.contains(".lock()") || stmt.contains(".write()");
            if takes_guard {
                if let Some(call) = BLOCKING.iter().find(|b| stmt.contains(*b)) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: stmt_line,
                        rule: "guard-blocking",
                        msg: format!(
                            "statement binds a lock guard and calls blocking `{}...)` — \
                             the reactor loop must not block under a lock",
                            call
                        ),
                    });
                }
            }
            stmt.clear();
            stmt_line = line;
        } else {
            if stmt.trim().is_empty() {
                stmt_line = line;
            }
            stmt.push(c);
        }
    }
    findings
}

/// Rule `reactor-head`: non-test code in `crates/proto/src/reactor/`
/// takes `200` heads from the store and builds none.
fn rule_reactor_head(rel: &str, masked: &str) -> Vec<Finding> {
    if !rel.starts_with("crates/proto/src/reactor/") {
        return Vec::new();
    }
    const BUILDERS: [&str; 3] = ["Response::ok(", ".head_bytes(", "Response::ok_head("];
    let mut findings = Vec::new();
    for (line, text) in live_lines(masked) {
        for b in BUILDERS.iter().filter(|b| text.contains(*b)) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: "reactor-head",
                msg: format!(
                    "`{b}...)` builds a response head on the reactor — \
                     take the store's (`ContentStore::ok_head`)"
                ),
            });
        }
    }
    findings
}

/// Rule `thread-spawn`: non-test code in `crates/proto/src/` starts
/// threads only where the reactor spawns its shards; scoped threads
/// (`thread::scope`) are not counted.
fn rule_thread_spawn(rel: &str, masked: &str) -> Vec<Finding> {
    const ALLOWED: [&str; 1] = ["crates/proto/src/reactor/mod.rs"];
    if !rel.starts_with("crates/proto/src/") || ALLOWED.contains(&rel) {
        return Vec::new();
    }
    const SPAWNERS: [&str; 2] = ["thread::spawn(", "thread::Builder"];
    let mut findings = Vec::new();
    for (line, text) in live_lines(masked) {
        for s in SPAWNERS.iter().filter(|s| text.contains(*s)) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: "thread-spawn",
                msg: format!(
                    "`{s}` starts a thread outside the reactor shards — \
                     make it a readiness source or a deadline on a shard's loop"
                ),
            });
        }
    }
    findings
}

/// Runs every code rule on one file. `rel` is the repo-relative path
/// with forward slashes.
fn check_file(rel: &str, raw: &str) -> Vec<Finding> {
    let masked = mask_code(raw);
    let mut out = rule_safety(rel, raw, &masked);
    out.extend(rule_std_sync(rel, &masked));
    out.extend(rule_guard_blocking(rel, &masked));
    out.extend(rule_reactor_head(rel, &masked));
    out.extend(rule_thread_spawn(rel, &masked));
    out
}

/// Backticked reference tokens in a markdown document that the doc rule
/// must resolve: in-repo paths, bench artifacts, top-level docs.
fn doc_ref_tokens(md: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let mut parts = line.split('`');
        // Odd-indexed segments are inside backticks.
        let _ = parts.next();
        let mut inside = true;
        for seg in parts {
            if inside {
                let is_path = seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_./-".contains(c))
                    && !seg.is_empty();
                if is_path {
                    let top_level = [
                        "crates/",
                        "shims/",
                        "examples/",
                        "tools/",
                        "src/",
                        "tests/",
                        ".github/",
                    ];
                    let is_repo_path = top_level.iter().any(|p| seg.starts_with(p));
                    let is_bench = seg.starts_with("BENCH_") && seg.ends_with(".json");
                    let is_doc = seg.ends_with(".md")
                        && seg[..seg.len() - 3]
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_')
                        && !seg[..seg.len() - 3].is_empty();
                    if is_repo_path || is_bench || is_doc {
                        out.push((i + 1, seg.to_string()));
                    }
                }
            }
            inside = !inside;
        }
    }
    out
}

/// Markdown inline-link targets `[text](target)`, local ones only.
fn doc_link_targets(md: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let mut rest = line;
        while let Some(p) = rest.find("](") {
            rest = &rest[p + 2..];
            if let Some(e) = rest.find(')') {
                let target = &rest[..e];
                rest = &rest[e + 1..];
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                    || target.starts_with('#')
                {
                    continue;
                }
                let path = target.split('#').next().unwrap_or("");
                if !path.is_empty() {
                    out.push((i + 1, path.to_string()));
                }
            } else {
                break;
            }
        }
    }
    out
}

/// Rule `doc-hygiene`: every local link and backticked repo reference in
/// the top-level docs resolves to an existing file.
fn rule_docs(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md", "ROADMAP.md"] {
        let path = root.join(doc);
        let Ok(md) = std::fs::read_to_string(&path) else {
            findings.push(Finding {
                file: doc.to_string(),
                line: 0,
                rule: "doc-hygiene",
                msg: "top-level doc missing".to_string(),
            });
            continue;
        };
        for (line, target) in doc_link_targets(&md) {
            if !root.join(&target).exists() {
                findings.push(Finding {
                    file: doc.to_string(),
                    line,
                    rule: "doc-hygiene",
                    msg: format!("broken link -> {target}"),
                });
            }
        }
        for (line, target) in doc_ref_tokens(&md) {
            if !root.join(&target).exists() {
                findings.push(Finding {
                    file: doc.to_string(),
                    line,
                    rule: "doc-hygiene",
                    msg: format!("dangling reference -> {target}"),
                });
            }
        }
    }
    findings
}

/// Collects every `.rs` file under `root/{crates,shims,src}`, skipping
/// `target/` build output. Returns repo-relative forward-slash paths.
fn collect_rs_files(root: &Path) -> Vec<String> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                walk(&p, root, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    let mut out = Vec::new();
    for top in ["crates", "shims", "src"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let files = collect_rs_files(&root);
    if files.is_empty() {
        eprintln!(
            "phttp-lint: no Rust files under {} — wrong root?",
            root.display()
        );
        std::process::exit(2);
    }
    let mut findings = Vec::new();
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(raw) => findings.extend(check_file(rel, &raw)),
            Err(e) => findings.push(Finding {
                file: rel.clone(),
                line: 0,
                rule: "io",
                msg: format!("unreadable: {e}"),
            }),
        }
    }
    findings.extend(rule_docs(&root));
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("phttp-lint OK ({} files)", files.len());
    } else {
        println!("phttp-lint: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(p).expect("fixture readable")
    }

    #[test]
    fn masking_strips_comments_and_strings_preserving_lines() {
        let src = "let a = \"std::sync::Mutex\"; // std::sync::Mutex\nlet c = 'x';\n/* std::sync::Mutex */ let l: &'static str = r#\"std::sync::Mutex\"#;\n";
        let m = mask_code(src);
        assert!(!m.contains("std::sync::Mutex"), "{m}");
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.contains("let a"));
        assert!(m.contains("&'static str"), "lifetimes survive masking: {m}");
    }

    #[test]
    fn masking_handles_nested_block_comments() {
        let m = mask_code("/* outer /* inner */ still comment */ code()");
        assert!(m.contains("code()"));
        assert!(!m.contains("still"));
    }

    #[test]
    fn safety_rule_fires_on_fixture() {
        let raw = fixture("missing_safety.rs");
        let f = check_file("shims/fake/src/lib.rs", &raw);
        assert_eq!(
            f.len(),
            2,
            "both unannotated blocks: {f:?}",
            f = f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert!(f.iter().all(|x| x.rule == "safety-comment"));
    }

    #[test]
    fn safety_rule_accepts_annotated_fixture() {
        let raw = fixture("good_safety.rs");
        let f = check_file("shims/fake/src/lib.rs", &raw);
        assert!(
            f.is_empty(),
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn safety_rule_only_applies_to_shims() {
        let raw = fixture("missing_safety.rs");
        assert!(rule_safety("crates/fake/src/lib.rs", &raw, &mask_code(&raw)).is_empty());
    }

    #[test]
    fn std_sync_rule_fires_outside_tests_only() {
        let raw = fixture("std_mutex.rs");
        let masked = mask_code(&raw);
        let f = rule_std_sync("crates/fake/src/lib.rs", &masked);
        // Three live uses (plain, grouped+renamed import, Condvar);
        // the #[cfg(test)] module's use at the bottom is exempt.
        assert_eq!(
            f.len(),
            3,
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert!(f.iter().all(|x| x.rule == "std-sync"));
        // Exempt locations: shims, the lockcheck crate, tests dirs.
        assert!(rule_std_sync("shims/fake/src/lib.rs", &masked).is_empty());
        assert!(rule_std_sync("crates/lockcheck/src/lib.rs", &masked).is_empty());
        assert!(rule_std_sync("crates/fake/tests/it.rs", &masked).is_empty());
    }

    #[test]
    fn std_sync_rule_ignores_strings_and_comments() {
        let masked = mask_code("// std::sync::Mutex\nlet s = \"std::sync::RwLock\";\n");
        assert!(rule_std_sync("crates/fake/src/lib.rs", &masked).is_empty());
    }

    #[test]
    fn guard_blocking_rule_fires_in_reactor_only() {
        let raw = fixture("guard_blocking.rs");
        let masked = mask_code(&raw);
        let f = rule_guard_blocking("crates/proto/src/reactor/fake.rs", &masked);
        assert_eq!(
            f.len(),
            2,
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert!(f.iter().all(|x| x.rule == "guard-blocking"));
        // Same content outside the reactor is not this rule's business.
        assert!(rule_guard_blocking("crates/proto/src/node.rs", &masked).is_empty());
    }

    #[test]
    fn guard_blocking_allows_separated_statements() {
        let src = "let buf = { q.lock().pop() };\nstream.write_all(&buf)?;\n";
        let f = rule_guard_blocking("crates/proto/src/reactor/fake.rs", &mask_code(src));
        assert!(
            f.is_empty(),
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reactor_head_rule_fires_outside_tests_in_the_reactor_only() {
        let raw = fixture("reactor_head.rs");
        let masked = mask_code(&raw);
        let f = rule_reactor_head("crates/proto/src/reactor/fake.rs", &masked);
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(
            lines,
            vec![6, 7, 11],
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert!(f.iter().all(|x| x.rule == "reactor-head"));
        // Building a head is fine anywhere else (the store builds its
        // table with `Response::ok_head`).
        assert!(rule_reactor_head("crates/proto/src/store.rs", &masked).is_empty());
    }

    #[test]
    fn thread_spawn_rule_fires_outside_the_shards_only() {
        let raw = fixture("thread_spawn.rs");
        let masked = mask_code(&raw);
        for rel in ["crates/proto/src/cluster.rs", "crates/proto/src/tier.rs"] {
            let f = rule_thread_spawn(rel, &masked);
            let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
            assert_eq!(
                lines,
                vec![6, 10, 11, 24],
                "{rel}: {:?}",
                f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
            );
            assert!(f.iter().all(|x| x.rule == "thread-spawn"));
        }
        // The shards' spawner, and code outside the proto crate, are
        // exempt.
        for rel in ["crates/proto/src/reactor/mod.rs", "crates/bench/src/lib.rs"] {
            assert!(rule_thread_spawn(rel, &masked).is_empty(), "{rel}");
        }
    }

    #[test]
    fn doc_tokens_extract_repo_paths_and_artifacts() {
        let md = "See `crates/proto/src/node.rs` and [the map](ARCHITECTURE.md#x).\nPlain `code` and `BENCH_zerocopy.json` and `ROADMAP.md`.\n";
        let refs: Vec<String> = doc_ref_tokens(md).into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            refs,
            vec![
                "crates/proto/src/node.rs",
                "BENCH_zerocopy.json",
                "ROADMAP.md"
            ]
        );
        let links: Vec<String> = doc_link_targets(md).into_iter().map(|(_, t)| t).collect();
        assert_eq!(links, vec!["ARCHITECTURE.md"]);
    }

    #[test]
    fn repo_is_lint_clean() {
        // The gate itself: the real tree must pass every rule. Running
        // it here too means `cargo test` catches a violation even if CI
        // skips the dedicated lint step.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_rs_files(&root);
        assert!(files.len() > 50, "walker found the tree");
        let mut findings = Vec::new();
        for rel in &files {
            let raw = std::fs::read_to_string(root.join(rel)).unwrap();
            findings.extend(check_file(rel, &raw));
        }
        findings.extend(rule_docs(&root));
        assert!(
            findings.is_empty(),
            "repo has lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
