//! The `conformance` binary's command line: a fuzz run makes one
//! agreement check, so a second check flag, or a check flag in a mode
//! that runs no fuzz cases, is a usage error (exit 2) rather than a
//! flag that is silently dropped.

use std::process::{Command, Output};

fn conformance(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_conformance"))
        .args(args)
        .output()
        .expect("the conformance binary runs")
}

#[test]
fn a_second_check_flag_is_a_usage_error() {
    for [a, b] in [
        ["--lint-agreement", "--parasitics"],
        ["--parasitics", "--drc"],
        ["--drc", "--lint-agreement"],
        ["--drc", "--drc"],
    ] {
        let out = conformance(&["--seed", "1983", "--cases", "2", a, b]);
        assert_eq!(out.status.code(), Some(2), "{a} {b}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("one check per run"), "{a} {b}: {stderr}");
        assert!(out.stdout.is_empty(), "{a} {b}: no case may run");
    }
}

#[test]
fn a_check_flag_outside_fuzz_mode_is_a_usage_error() {
    for args in [
        ["--incremental", "--drc", "--cases", "1"],
        ["--emit-case", "0", "--parasitics", "--quiet"],
    ] {
        let out = conformance(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("applies only to fuzz runs"), "{stderr}");
    }
}

#[test]
fn one_check_flag_runs_and_names_its_check() {
    let out = conformance(&["--seed", "1983", "--cases", "2", "--parasitics"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("(+parasitics)"), "{stdout}");
    assert!(stdout.contains("2 cases, zero divergences"), "{stdout}");
}
