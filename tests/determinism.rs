//! Determinism guarantees: the entire pipeline — workload synthesis, PET
//! generation, the simulator's execution-time sampling, the
//! work-stealing experiment runner, and the parallel federated driver —
//! is seeded explicitly, so two runs with the same seed and
//! configuration must agree bit-for-bit **at any pool size**
//! (`TASKPRUNE_THREADS`; CI runs this suite at 1 and max). Serialized
//! `SimStats` is compared, which covers every outcome, counter, and
//! per-type stat.

use taskprune::prelude::*;

fn stats_for(kind: HeuristicKind, pruning: Option<PruningConfig>) -> String {
    let pet = PetGenConfig::paper_heterogeneous(5).generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 400,
        span_tu: 80.0,
        ..WorkloadConfig::paper_default(21)
    };
    let trial = workload.generate_trial(&pet, 0);
    let sim = if kind.is_immediate() {
        SimConfig::immediate(13)
    } else {
        SimConfig::batch(13)
    };
    let stats = ResourceAllocator::new(&cluster, &pet, sim)
        .heuristic(kind)
        .pruning_opt(pruning)
        .run(&trial.tasks);
    serde_json::to_string(&stats).expect("SimStats serializes")
}

#[test]
fn same_seed_same_stats_batch_pruned() {
    let a = stats_for(HeuristicKind::Mm, Some(PruningConfig::paper_default()));
    let b = stats_for(HeuristicKind::Mm, Some(PruningConfig::paper_default()));
    assert_eq!(a, b, "pruned batch run diverged between identical runs");
}

#[test]
fn same_seed_same_stats_batch_baseline() {
    let a = stats_for(HeuristicKind::Msd, None);
    let b = stats_for(HeuristicKind::Msd, None);
    assert_eq!(a, b, "baseline batch run diverged between identical runs");
}

#[test]
fn same_seed_same_stats_immediate() {
    let a = stats_for(HeuristicKind::Kpb, Some(PruningConfig::paper_default()));
    let b = stats_for(HeuristicKind::Kpb, Some(PruningConfig::paper_default()));
    assert_eq!(a, b, "immediate-mode run diverged between identical runs");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the degenerate explanation for the tests above: if
    // seeding were ignored entirely, everything would trivially agree.
    let pet = PetGenConfig::paper_heterogeneous(5).generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 400,
        span_tu: 80.0,
        ..WorkloadConfig::paper_default(21)
    };
    let trial = workload.generate_trial(&pet, 0);
    let run = |seed: u64| {
        let stats =
            ResourceAllocator::new(&cluster, &pet, SimConfig::batch(seed))
                .heuristic(HeuristicKind::Mm)
                .run(&trial.tasks);
        serde_json::to_string(&stats).expect("SimStats serializes")
    };
    assert_ne!(
        run(1),
        run(2),
        "execution sampling ignored the simulator seed"
    );
}

#[test]
fn parallel_experiment_runner_is_deterministic() {
    // The experiment fan-out runs trials as work-stealing pool jobs;
    // steal-order must never reach the results (each trial writes its
    // own slot), so results are identical across runs.
    let workload = WorkloadConfig {
        total_tasks: 250,
        span_tu: 60.0,
        ..WorkloadConfig::paper_default(33)
    };
    let cfg = ExperimentConfig::new(
        HeuristicKind::Mm,
        Some(PruningConfig::paper_default()),
        workload,
    )
    .trials(4);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "parallel experiment runner diverged between identical runs"
    );
}

#[test]
fn work_stealing_runner_matches_a_serial_reference() {
    // Pool-size independence, pinned without restarting the process:
    // the work-stealing runner's per-trial robustness must equal a
    // plain serial loop over the same trials (same seed derivation).
    // Together with `parallel_experiment_runner_is_deterministic`,
    // this pins `run_experiment` for every TASKPRUNE_THREADS value —
    // CI runs the suite at 1 and max.
    let workload = WorkloadConfig {
        total_tasks: 250,
        span_tu: 60.0,
        ..WorkloadConfig::paper_default(47)
    };
    let cfg = ExperimentConfig::new(
        HeuristicKind::Msd,
        Some(PruningConfig::paper_default()),
        workload.clone(),
    )
    .trials(5);
    let pooled = run_experiment(&cfg);

    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let serial: Vec<f64> = (0..5u32)
        .map(|trial_idx| {
            let trial = workload.generate_trial(&pet, trial_idx);
            let mut sim = SimConfig::batch(0);
            sim.seed = taskprune_prob::rng::derive_seed(
                workload.seed,
                0x51D_0000 + u64::from(trial_idx),
            );
            let stats = ResourceAllocator::new(&cluster, &pet, sim)
                .heuristic(HeuristicKind::Msd)
                .pruning(PruningConfig::paper_default())
                .run(&trial.tasks);
            stats.robustness_pct(taskprune_sim::stats::PAPER_TRIM)
        })
        .collect();
    assert_eq!(
        pooled.per_trial_robustness, serial,
        "work-stealing trial fan-out diverged from the serial reference"
    );
}

#[test]
fn parallel_federated_engine_is_deterministic_across_thread_counts() {
    // The parallel shard executor: same seed and stream => identical
    // serialized FederationStats at 1, 2 and 8 threads (the full
    // serial-vs-parallel matrix lives in tests/parallel_equivalence).
    let pet = PetGenConfig::paper_heterogeneous(5).generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 400,
        span_tu: 80.0,
        ..WorkloadConfig::paper_default(21)
    };
    let trial = workload.generate_trial(&pet, 0);
    let run = |threads: usize| -> String {
        let stats = GatewayBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(13))
            .shards(4)
            .policy(RoundRobinRoute::new())
            .strategy_with(|_| HeuristicKind::Mm.make())
            .pruner_with(|_| {
                Box::new(PruningMechanism::new(
                    PruningConfig::paper_default(),
                    pet.n_task_types(),
                ))
            })
            .threads(threads)
            .build_parallel()
            .expect("valid parallel federated configuration")
            .run_stream(trial.tasks.iter().copied());
        serde_json::to_string(&stats).expect("FederationStats serializes")
    };
    let reference = run(1);
    assert_eq!(reference, run(2), "2-thread run diverged from 1-thread");
    assert_eq!(reference, run(8), "8-thread run diverged from 1-thread");
}
