//! Storm healing on a heavily oversubscribed stateful federation.
//!
//! This fixture once also stole batch-queue tails between shards; that
//! layer is gone (live-view routing matched it on robustness and ran
//! faster), and the test keeps its name. What it still pins: a fully
//! budgeted supervisor heals fault storms injected into a heavily
//! oversubscribed four-shard, least-queued run back to the fault-free
//! serialized stats, byte for byte. Least-queued routing reads every
//! shard's live queues at each arrival, so a recovery that left any
//! queue different from the fault-free run would re-route the rest of
//! the stream and show here.
//!
//! `tests/failure_injection.rs` runs the same check on a lighter
//! three-shard stream under round-robin and least-queued routing.
//! Supervised runs use the serial driver.

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;

const SHARDS: usize = 4;

/// The paper workload squeezed into a short span, so every shard's
/// batch queue carries a backlog when a fault fires (fixed size: it
/// must not shrink under `TASKPRUNE_TEST_SCALE`).
fn fixture(seed: u64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 2_000,
        span_tu: 60.0,
        ..WorkloadConfig::paper_default(seed)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn least_queued_builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> GatewayBuilder<'a> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(SHARDS)
        .policy(LeastQueuedRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
}

/// Generous enough that no storm can exhaust a shard's budget.
fn full_budget() -> RecoveryPolicy {
    RecoveryPolicy {
        retry_budget: 64,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn fault_storms_heal_a_stealing_run_bit_identically() {
    let (cluster, pet, tasks) = fixture(606);
    let reference = least_queued_builder(&cluster, &pet)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_eq!(reference.unreported(), 0);
    let reference_json = json(&reference);

    for plan_seed in [0xFA01u64, 0xFA02] {
        let plan = FaultPlan::generate(
            plan_seed,
            &FaultSpec::storm(SHARDS, (tasks.len() / SHARDS) as u64),
        );
        let engine = least_queued_builder(&cluster, &pet)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, full_budget());
        sup.arm(plan);
        let healed = sup.run_stream(tasks.iter().copied());
        assert!(
            !healed.recovery_log().is_empty(),
            "plan seed {plan_seed:#x}: the storm must fire, or this \
             heals nothing"
        );
        assert_eq!(
            reference_json,
            json(&healed),
            "serial, plan seed {plan_seed:#x}"
        );
    }
}
