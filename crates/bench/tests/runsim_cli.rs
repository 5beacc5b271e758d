//! `runsim` rejects bad input with one line on stderr and exit code 2 —
//! never a panic with a backtrace — and runs any well-formed trial to
//! exit 0.

use std::process::Command;
use taskprune_model::{SimTime, Task, TaskId};

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

/// Writes a small generated trial (149 tasks), the format
/// `genworkload` saves, after `edit` has changed its tasks; returns its
/// path.
fn trial_file(name: &str, edit: impl FnOnce(&mut [Task])) -> String {
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
    edit(&mut trial.tasks);
    let path = scratch(name);
    trial
        .save_json(std::path::Path::new(&path))
        .expect("writable scratch dir");
    path
}

#[test]
fn zero_capacity_exits_2() {
    let path = trial_file("runsim_zero_capacity.json", |_| {});
    let stderr = rejected(&[&path, "--capacity", "0"]);
    assert!(stderr.contains("queue_capacity"), "{stderr}");
}

#[test]
fn snowflake_task_ids_run_to_completion() {
    let path = trial_file("runsim_snowflake.json", |tasks| {
        tasks[0].id = TaskId(1_700_000_000_000);
    });
    let out = Command::new(env!("CARGO_BIN_EXE_runsim"))
        .arg(&path)
        .output()
        .expect("runsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unfinished"), "{stdout}");
}

/// A trace that runs into the end of the clock: arrivals shifted to
/// start 20 000 ticks before `u64::MAX`, with arrivals and deadlines
/// that would pass it held at `u64::MAX`. Completions there saturate
/// instead of wrapping into the past, so every task finishes on time.
/// Under pruning, a task deferred with its deadline at `u64::MAX` gets
/// no wakeup (no instant lies past that deadline), so the run ends
/// with it unfinished instead of waking forever.
#[test]
fn a_trace_at_the_end_of_the_clock_runs_to_completion() {
    let path = trial_file("runsim_end_of_clock.json", |tasks| {
        let shift = u64::MAX - 20_000 - tasks[0].arrival.ticks();
        let later = |t: SimTime| SimTime(t.ticks().saturating_add(shift));
        for task in tasks {
            task.arrival = later(task.arrival);
            task.deadline = later(task.deadline);
        }
    });
    let out = Command::new(env!("CARGO_BIN_EXE_runsim"))
        .arg(&path)
        .output()
        .expect("runsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let on_time = stdout
        .lines()
        .find_map(|l| l.strip_prefix("completed on time"))
        .map(str::trim);
    assert_eq!(on_time, Some("149"), "{stdout}");
    let pruned = Command::new(env!("CARGO_BIN_EXE_runsim"))
        .args([path.as_str(), "--prune"])
        .output()
        .expect("runsim starts");
    let stderr = String::from_utf8_lossy(&pruned.stderr);
    assert_eq!(pruned.status.code(), Some(0), "{stderr}");
}
