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

/// Writes a small generated trial, the format `genworkload` saves, with
/// its first task id replaced by `first_id`; returns its path.
fn trial_file(name: &str, first_id: u64) -> String {
    let pet = taskprune_workload::PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let mut trial = taskprune_workload::WorkloadConfig {
        total_tasks: 200,
        span_tu: 40.0,
        ..taskprune_workload::WorkloadConfig::paper_default(11)
    }
    .generate_trial(&pet, 0);
    trial.tasks[0].id = taskprune_model::TaskId(first_id);
    let path = scratch(name);
    trial
        .save_json(std::path::Path::new(&path))
        .expect("writable scratch dir");
    path
}

#[test]
fn zero_capacity_exits_2() {
    let path = trial_file("runsim_zero_capacity.json", 0);
    let stderr = rejected(&[&path, "--capacity", "0"]);
    assert!(stderr.contains("queue_capacity"), "{stderr}");
}

#[test]
fn snowflake_task_ids_run_to_completion() {
    let path = trial_file("runsim_snowflake.json", 1_700_000_000_000);
    let out = Command::new(env!("CARGO_BIN_EXE_runsim"))
        .arg(&path)
        .output()
        .expect("runsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unfinished"), "{stdout}");
}
