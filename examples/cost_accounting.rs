//! Energy & cost accounting — measuring the §VII future-work claim that
//! "probabilistic task pruning improves energy efficiency by saving the
//! computing power that is otherwise wasted to execute failing tasks".
//!
//! Also demonstrates the priority-aware pruning extension: tasks carry a
//! monetary value, and the pruner protects high-value work.
//!
//! Run with: `cargo run --release --example cost_accounting`

use taskprune::extensions::{CostModel, PriorityAwarePruner};
use taskprune::prelude::*;
use taskprune_sim::Pruner;

fn main() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 4_000,
        span_tu: 500.0, // heavy oversubscription
        ..WorkloadConfig::paper_default(77)
    };
    let trial = workload.generate_trial(&pet, 0);
    let cost_model = CostModel::representative();

    println!("-- energy / cost impact of pruning (MM heuristic) --\n");
    println!(
        "config        on-time %   wasted h   wasted Wh   wasted $   total $"
    );
    let mut wasted_wh = Vec::new();
    for pruning in [None, Some(PruningConfig::paper_default())] {
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(5))
            .heuristic(HeuristicKind::Mm)
            .pruning_opt(pruning)
            .run(&trial.tasks);
        let report = cost_model.report(&stats);
        println!(
            "{:<12} {:>9.1}   {:>8.2}   {:>9.1}   {:>8.4}   {:>7.4}",
            if pruning.is_some() {
                "MM + prune"
            } else {
                "MM bare"
            },
            stats.robustness_pct(100),
            report.wasted_machine_hours,
            report.wasted_energy_wh,
            report.wasted_cost,
            report.total_cost,
        );
        wasted_wh.push(report.wasted_energy_wh);
    }
    assert!(
        wasted_wh[1] < wasted_wh[0],
        "pruning must cut the energy wasted on failing tasks"
    );

    // Priority-aware pruning: give 10 % of tasks 5x value and compare
    // how many of them survive under plain vs. priority-aware pruning.
    println!("\n-- priority-aware pruning (value-weighted thresholds) --\n");
    let mut valued_tasks = trial.tasks.clone();
    for task in valued_tasks.iter_mut() {
        if task.id.0 % 10 == 0 {
            task.value = 5.0;
        }
    }
    let high_value_on_time =
        |stats: &SimStats, tasks: &[Task]| -> (usize, usize) {
            let mut on_time = 0;
            let mut total = 0;
            for t in tasks.iter().filter(|t| t.value > 1.0) {
                total += 1;
                if stats.outcome(t.id) == Some(TaskOutcome::CompletedOnTime) {
                    on_time += 1;
                }
            }
            (on_time, total)
        };

    let n_types = pet.n_task_types();
    let mut high_value = Vec::new();
    for (label, priority_aware) in [
        ("standard pruning", false),
        ("priority-aware pruning", true),
    ] {
        // A single cluster is a one-shard federation.
        let stats = GatewayBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(5))
            .strategy_with(|_| HeuristicKind::Mm.make())
            .pruner_with(move |_| -> Box<dyn Pruner> {
                let cfg = PruningConfig::paper_default();
                if priority_aware {
                    Box::new(PriorityAwarePruner::new(cfg, n_types))
                } else {
                    Box::new(PruningMechanism::new(cfg, n_types))
                }
            })
            .build()
            .expect("valid configuration")
            .run_stream(valued_tasks.iter().copied())
            .per_shard
            .swap_remove(0);
        let (hv_on_time, hv_total) = high_value_on_time(&stats, &valued_tasks);
        println!(
            "{label:<24} overall {:>5.1} %   high-value {:>4}/{:<4} ({:.1} %)",
            stats.robustness_pct(100),
            hv_on_time,
            hv_total,
            100.0 * hv_on_time as f64 / hv_total as f64,
        );
        high_value.push(hv_on_time);
    }
    assert!(
        high_value[1] > high_value[0],
        "priority-aware pruning must put more high-value tasks on time"
    );
    println!(
        "\npriority-aware pruning shields high-value tasks from the \
         dropping pass\n(deferral stays value-blind — it is protective, \
         not destructive)."
    );
}
