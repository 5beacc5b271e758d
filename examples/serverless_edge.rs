//! An edge serverless platform riding out a demand surge (§II's other
//! motivating scenario).
//!
//! Eight heterogeneous edge nodes serve twelve function types. Demand
//! triples in bursts. This example watches the *Toggle* module engage
//! dropping only while the surge lasts, and the *Fairness* module keep
//! long-running function types from being starved by the pruner.
//! A traced run then shows the surges in the batch queue, and the
//! example asserts that tracing changed no outcome and that the trace
//! agrees with the outcome record.
//!
//! Run with: `cargo run --release --example serverless_edge`

use std::collections::HashMap;
use taskprune::prelude::*;
use taskprune_sim::{Decision, TraceEvent};

fn run_one(
    label: &str,
    pruning: Option<PruningConfig>,
    trial: &taskprune_workload::WorkloadTrial,
    cluster: &Cluster,
    pet: &PetMatrix,
) -> SimStats {
    let stats = ResourceAllocator::new(cluster, pet, SimConfig::batch(11))
        .heuristic(HeuristicKind::Mm)
        .pruning_opt(pruning)
        .run(&trial.tasks);
    println!(
        "{label:<34} robustness {:>5.1} %   reactive drops {:>5}   proactive drops {:>5}",
        stats.robustness_pct(100),
        stats.count(TaskOutcome::DroppedReactive),
        stats.count(TaskOutcome::DroppedProactive),
    );
    stats
}

fn main() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 5_000,
        span_tu: 800.0,
        pattern: ArrivalPattern::Spiky {
            n_spikes: 4,
            spike_factor: 3.0,
        },
        ..WorkloadConfig::paper_default(5_150)
    };
    let trial = workload.generate_trial(&pet, 0);
    println!(
        "edge platform: {} invocations, 12 function types, 8 nodes, \
         4 demand surges\n",
        trial.len()
    );

    // 1. How the Toggle reacts to the surge.
    println!("-- Toggle scenarios (all with 50% deferring) --");
    run_one("baseline MM (no pruning)", None, &trial, &cluster, &pet);
    run_one(
        "pruning, dropping never",
        Some(PruningConfig::defer_only(0.5)),
        &trial,
        &cluster,
        &pet,
    );
    run_one(
        "pruning, dropping always",
        Some(PruningConfig::paper_default().with_toggle(ToggleMode::Always)),
        &trial,
        &cluster,
        &pet,
    );
    run_one(
        "pruning, reactive toggle (paper)",
        Some(PruningConfig::paper_default()),
        &trial,
        &cluster,
        &pet,
    );

    // 2. What fairness does for the per-type miss profile.
    println!("\n-- Fairness across function types (reactive toggle) --");
    let without = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(11))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig {
            fairness: FairnessConfig::disabled(),
            ..PruningConfig::paper_default()
        })
        .run(&trial.tasks);
    let with = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(11))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&trial.tasks);
    println!(
        "fairness off: robustness {:>5.1} %, per-type on-time variance {:.4}",
        without.robustness_pct(100),
        without.per_type_on_time_variance()
    );
    println!(
        "fairness on : robustness {:>5.1} %, per-type on-time variance {:.4}",
        with.robustness_pct(100),
        with.per_type_on_time_variance()
    );
    println!("\nper-type on-time fraction (fairness on):");
    for (t, stats) in with.per_type().iter().enumerate() {
        let bar_len = (stats.on_time_fraction() * 40.0).round() as usize;
        println!(
            "  type {t:>2} {:>5.1} % |{}",
            100.0 * stats.on_time_fraction(),
            "#".repeat(bar_len)
        );
    }

    // 3. Watching the surges through the execution trace: batch-queue
    //    occupancy over time, sampled every few mapping events.
    println!("\n-- batch-queue occupancy over time (traced run) --");
    let traced = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(11))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .traced()
        .run(&trial.tasks);
    let trace = traced.trace.as_ref().expect("tracing enabled");
    let snapshots = trace.snapshots();
    let peak = trace.peak_batch_queue().max(1);
    // Down-sample to ~24 rows for the console.
    let step = (snapshots.len() / 24).max(1);
    for snap in snapshots.iter().step_by(step) {
        let bar = (snap.batch_queue_len * 50) / peak;
        println!(
            "  t={:>7.0}tu queue {:>5} |{}",
            snap.at.as_time_units(),
            snap.batch_queue_len,
            "#".repeat(bar)
        );
    }
    println!(
        "\npeak batch-queue {peak} tasks; the four surges are plainly \
         visible, and the\nqueue drains between them — the Toggle only \
         engages dropping inside the bursts."
    );

    // Tracing only observes: the traced run is the paper-pruning run.
    for outcome in [
        TaskOutcome::CompletedOnTime,
        TaskOutcome::CompletedLate,
        TaskOutcome::DroppedReactive,
        TaskOutcome::DroppedProactive,
        TaskOutcome::CancelledRunning,
        TaskOutcome::Rejected,
        TaskOutcome::Unfinished,
    ] {
        assert_eq!(
            traced.count(outcome),
            with.count(outcome),
            "tracing changed the {outcome:?} count"
        );
    }
    // The trace records the core's own decisions: a task whose retained
    // lifecycle ends in a probabilistic drop is a proactive drop in the
    // outcome record.
    let mut last = HashMap::new();
    for &(_, event) in trace.events() {
        last.insert(event.task(), event);
    }
    let mut pruned = 0;
    for (&task, event) in &last {
        if let TraceEvent::Decided(Decision::DropProbabilistic { .. }) = event {
            assert_eq!(
                traced.outcome(task),
                Some(TaskOutcome::DroppedProactive),
                "{task:?} ends its trace in a probabilistic drop"
            );
            pruned += 1;
        }
    }
    assert!(pruned > 0, "the retained trace holds no probabilistic drop");
    println!(
        "tracing changed no outcome; {pruned} retained lifecycles end in a \
         probabilistic drop, each a proactive drop in the record"
    );
}
