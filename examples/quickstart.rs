//! Quickstart: the paper's headline result in ~40 lines.
//!
//! Builds the 8-machine heterogeneous cluster and PET matrix, generates
//! one oversubscribed spiky workload, and runs the MM (Min-Min) mapping
//! heuristic twice — bare, and with the probabilistic pruning mechanism
//! attached — printing the robustness improvement.
//!
//! Run with: `cargo run --release --example quickstart`

use taskprune::prelude::*;

fn main() {
    // The substrate: PET matrix (execution-time PMFs per machine type ×
    // task type) and the cluster of eight heterogeneous machines.
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();

    // A moderately oversubscribed workload: 3000 tasks over 600 time
    // units with the paper's spiky arrival pattern and Eq. 4 deadlines.
    let workload = WorkloadConfig {
        total_tasks: 3_000,
        span_tu: 600.0,
        ..WorkloadConfig::paper_default(2024)
    };
    let trial = workload.generate_trial(&pet, 0);
    println!(
        "workload: {} tasks, {} machines, spiky arrivals",
        trial.len(),
        cluster.len()
    );

    // Baseline: MM (Min-Min) without pruning.
    let baseline = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
        .heuristic(HeuristicKind::Mm)
        .run(&trial.tasks);

    // Same heuristic with the pruning mechanism plugged in beside it —
    // the heuristic itself is untouched (the paper's Fig. 1c).
    let pruned = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&trial.tasks);

    println!("\n                      MM        MM + pruning");
    println!(
        "robustness (% on time) {:>6.1}      {:>6.1}",
        baseline.robustness_pct(100),
        pruned.robustness_pct(100)
    );
    println!(
        "wasted machine time    {:>6.1}%     {:>6.1}%",
        100.0 * baseline.wasted_fraction(),
        100.0 * pruned.wasted_fraction()
    );
    println!(
        "deferrals              {:>6}      {:>6}",
        baseline.deferrals, pruned.deferrals
    );
    println!(
        "proactive drops        {:>6}      {:>6}",
        baseline.count(TaskOutcome::DroppedProactive),
        pruned.count(TaskOutcome::DroppedProactive)
    );
    println!(
        "\npruning gained {:+.1} percentage points of robustness",
        pruned.robustness_pct(100) - baseline.robustness_pct(100)
    );
    assert!(
        pruned.robustness_pct(100) > baseline.robustness_pct(100),
        "pruning must raise robustness"
    );
}
