//! Single-cluster ≡ independent core loop: the allocator's
//! single-cluster record must be **bit-identical** to a discrete-event
//! loop written against the public `SchedulerCore` API alone
//! (`tests/common/core_loop.rs`).
//!
//! `ResourceAllocator::try_run` streams the trial through a one-shard
//! `FederatedEngine`; the reference drives a bare core with its own
//! event heap and truth RNG. Serialized `SimStats` must match across
//! immediate and batch modes, with and without pruning — outcomes,
//! counters, per-type stats and, in the traced variant, the full
//! `TraceLog` — at `TASKPRUNE_TEST_SCALE` (full size under
//! `--ignored`).

mod common;
#[path = "common/core_loop.rs"]
mod core_loop;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{
    AllocationMode, NullSink, SchedulerBuilder, Sink, TraceLog,
};

fn fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(2_500, scale) as usize,
        span_tu: common::scaled(400, scale) as f64,
        ..WorkloadConfig::paper_default(1234)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

const SEED: u64 = 77;

/// The allocator's single-cluster run.
fn via_allocator(
    cluster: &Cluster,
    pet: &PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
    traced: bool,
    tasks: &[Task],
) -> SimStats {
    let mut alloc =
        ResourceAllocator::new(cluster, pet, SimConfig::batch(SEED))
            .heuristic(kind)
            .pruning_opt(pruned.then(PruningConfig::paper_default));
    if traced {
        alloc = alloc.traced();
    }
    alloc.try_run(tasks).expect("valid configuration")
}

/// The same configuration, driven by the reference loop.
fn via_core_loop<S: Sink>(
    cluster: &Cluster,
    pet: &PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
    sink: S,
    tasks: &[Task],
) -> SimStats {
    let sim = match kind.allocation_mode() {
        AllocationMode::Immediate => SimConfig::immediate(SEED),
        AllocationMode::Batch => SimConfig::batch(SEED),
    };
    let mut b = SchedulerBuilder::new(cluster, pet)
        .config(sim)
        .strategy(kind.make());
    if pruned {
        b = b.pruner(PruningMechanism::new(
            PruningConfig::paper_default(),
            pet.n_task_types(),
        ));
    }
    let core = b.sink(sink).build_core().expect("valid configuration");
    core_loop::drive_core(core, pet, tasks, |_, _| {})
}

fn json(stats: &SimStats) -> String {
    serde_json::to_string(stats).expect("SimStats serializes")
}

fn assert_equivalent(kind: HeuristicKind, pruned: bool, scale: f64) {
    let (cluster, pet, tasks) = fixture(scale);
    let single = via_allocator(&cluster, &pet, kind, pruned, false, &tasks);
    let reference =
        via_core_loop(&cluster, &pet, kind, pruned, NullSink, &tasks);
    assert_eq!(single.unreported(), 0);
    assert_eq!(
        json(&single),
        json(&reference),
        "{kind:?} pruned={pruned}: single-cluster run vs core loop diverged"
    );
}

#[test]
fn batch_mode_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Mm, false, common::test_scale());
}

#[test]
fn batch_mode_pruned_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Msd, true, common::test_scale());
}

#[test]
fn immediate_mode_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Mct, false, common::test_scale());
}

#[test]
fn immediate_mode_pruned_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Kpb, true, common::test_scale());
}

#[test]
fn traced_streaming_produces_the_identical_trace() {
    // Serialized SimStats includes the TraceLog: byte equality therefore
    // pins the full event-by-event trace, not just the outcome counts.
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let kind = HeuristicKind::Mm;
    let single = via_allocator(&cluster, &pet, kind, true, true, &tasks);
    let reference = via_core_loop(
        &cluster,
        &pet,
        kind,
        true,
        TraceLog::with_defaults(),
        &tasks,
    );
    assert!(single.trace.is_some(), "trace must be captured");
    assert_eq!(json(&single), json(&reference));
}

#[test]
#[ignore = "full-size equivalence sweep; run with --ignored"]
fn full_scale_streaming_is_bit_identical() {
    for (kind, pruned) in [
        (HeuristicKind::Mm, false),
        (HeuristicKind::Mm, true),
        (HeuristicKind::Msd, true),
        (HeuristicKind::Mct, false),
        (HeuristicKind::Kpb, true),
    ] {
        assert_equivalent(kind, pruned, 1.0);
    }
}
