//! `runsim` rejects bad input with one line on stderr and exit code 2 —
//! never a panic with a backtrace.

use std::process::Command;

/// Runs `runsim` and asserts the clean rejection; returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_runsim"))
        .args(args)
        .output()
        .expect("runsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "runsim {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "runsim {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "runsim {args:?}: {stderr}");
    stderr
}

fn scratch(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn unreadable_trial_exits_2() {
    let path = scratch("runsim_no_such_trial.json");
    let stderr = rejected(&[&path]);
    assert!(stderr.contains(&path), "{stderr}");
}

#[test]
fn malformed_trial_exits_2() {
    let path = scratch("runsim_malformed_trial.json");
    std::fs::write(&path, "{\"tasks\": [").expect("writable scratch dir");
    rejected(&[&path]);
}

#[test]
fn flag_without_a_value_exits_2() {
    let path = scratch("runsim_never_read.json");
    for flag in [
        "--seed",
        "--threshold",
        "--capacity",
        "--heuristic",
        "--trace",
    ] {
        let stderr = rejected(&[&path, flag]);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn flag_with_a_malformed_value_exits_2() {
    let path = scratch("runsim_never_read.json");
    for (flag, bad) in [("--seed", "-1"), ("--threshold", "half")] {
        let stderr = rejected(&[&path, flag, bad]);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}
