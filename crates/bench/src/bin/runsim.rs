//! Runs one simulation over a saved workload trial and prints the full
//! outcome breakdown — the inspection tool for saved `genworkload`
//! trials.
//!
//! Usage:
//!   runsim <trial.json> [--heuristic NAME] [--prune] [--threshold F]
//!          [--capacity N] [--seed S] [--trace FILE]
//!
//! With `--trace`, the full execution trace (task lifecycle events +
//! queue-occupancy snapshots) is written to FILE as JSON. Each event is
//! `[time, event]`, the event one of `{"Arrived": {"task": id}}`,
//! `{"Decided": decision}`, `{"Started": {"task": id, "machine": m}}`
//! and `{"Completed": {"task": id, "on_time": b}}`; a decision is the
//! core's own, e.g. `{"Assign": {"task": id, "machine": m}}`,
//! `{"DeferToBatch": {"task": id}}` or `{"DropProbabilistic":
//! {"task": id}}`.
//!
//! Bad input (an unknown flag or heuristic, a flag without a valid
//! value, an unreadable or malformed trial, a configuration the
//! allocator rejects, an unwritable trace path) prints one line to
//! stderr and exits with code 2.

use taskprune::experiment::PET_MATRIX_SEED;
use taskprune::prelude::*;
use taskprune_workload::WorkloadTrial;

/// Reports an input error on one stderr line and exits with code 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following `flag`, parsed; a missing or malformed value
/// is an input error.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    let Some(raw) = args.next() else {
        fail(&format!("{flag} needs a value ({what})"));
    };
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: '{raw}' is not {what}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!(
            "usage: runsim <trial.json> [--heuristic NAME] [--prune] \
             [--threshold F] [--capacity N] [--seed S]"
        );
        std::process::exit(2);
    };
    let mut heuristic = HeuristicKind::Mm;
    let mut prune = false;
    let mut threshold = 0.5f64;
    let mut capacity = 4usize;
    let mut seed = 0u64;
    let mut trace_path: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--prune" => prune = true,
            "--heuristic" => {
                let name: String = value(&mut args, "--heuristic", "a name");
                heuristic =
                    HeuristicKind::from_name(&name).unwrap_or_else(|| {
                        fail(&format!("unknown heuristic '{name}'"))
                    });
            }
            "--threshold" => {
                threshold = value(&mut args, "--threshold", "a number");
            }
            "--capacity" => {
                capacity = value(&mut args, "--capacity", "a count");
            }
            "--seed" => seed = value(&mut args, "--seed", "a seed"),
            "--trace" => {
                trace_path = Some(value(&mut args, "--trace", "a file"));
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }

    let trial = WorkloadTrial::load_json(std::path::Path::new(&path))
        .unwrap_or_else(|e| fail(&format!("cannot load trial '{path}': {e}")));
    let pet = PetGenConfig::paper_heterogeneous(PET_MATRIX_SEED).generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let mut sim = if heuristic.is_immediate() {
        SimConfig::immediate(seed)
    } else {
        SimConfig::batch(seed)
    };
    sim.queue_capacity = capacity;

    let pruning = prune.then(|| {
        let base = PruningConfig::paper_default().with_threshold(threshold);
        if heuristic.is_immediate() {
            PruningConfig {
                defer_enabled: false,
                ..base
            }
        } else {
            base
        }
    });
    let mut alloc = ResourceAllocator::new(&cluster, &pet, sim)
        .heuristic(heuristic)
        .pruning_opt(pruning);
    if trace_path.is_some() {
        alloc = alloc.traced();
    }
    let stats = alloc
        .try_run(&trial.tasks)
        .unwrap_or_else(|e| fail(&format!("cannot run '{path}': {e}")));
    if let Some(path) = &trace_path {
        let trace = stats.trace.as_ref().expect("tracing was enabled");
        let json = serde_json::to_string(trace).expect("serialisable");
        if let Err(e) = std::fs::write(path, json) {
            fail(&format!("cannot write trace '{path}': {e}"));
        }
        println!(
            "trace: {} events, {} snapshots -> {path}",
            trace.len(),
            trace.snapshots().len()
        );
    }

    println!(
        "trial: {} tasks, pattern {}, trial #{}",
        trial.len(),
        trial.config.pattern.label(),
        trial.trial_idx
    );
    println!(
        "run: {} {} (queue capacity {capacity}, sim seed {seed})\n",
        heuristic.name(),
        if prune {
            format!("+ pruning @ {:.0}%", threshold * 100.0)
        } else {
            "bare".to_string()
        },
    );
    println!(
        "robustness (paper trim):  {:>6.2} %",
        stats.paper_robustness_pct()
    );
    println!(
        "robustness (no trim):     {:>6.2} %",
        stats.robustness_pct(0)
    );
    for (label, outcome) in [
        ("completed on time", TaskOutcome::CompletedOnTime),
        ("completed late", TaskOutcome::CompletedLate),
        ("dropped (deadline)", TaskOutcome::DroppedReactive),
        ("dropped (pruned)", TaskOutcome::DroppedProactive),
        ("cancelled mid-run", TaskOutcome::CancelledRunning),
        ("rejected at arrival", TaskOutcome::Rejected),
        ("unfinished", TaskOutcome::Unfinished),
    ] {
        println!("{label:<24} {:>8}", stats.count(outcome));
    }
    println!(
        "\nmapping events {:>10}\ndeferrals      {:>10}\nwasted compute {:>9.1} %",
        stats.mapping_events,
        stats.deferrals,
        100.0 * stats.wasted_fraction()
    );
}
