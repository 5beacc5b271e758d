//! Failure injection: degenerate and adversarial inputs must be handled
//! gracefully — no panics, no lost tasks, sane metrics.
//!
//! The second half injects **runtime** faults: generated `FaultPlan`
//! storms and property-tested arbitrary fault schedules against the
//! one supervisor, `Supervisor` over the serial driver. A full budget
//! heals to the fault-free bytes; a zero budget still accounts for
//! every arrival exactly once.

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune::ClusterKind;
use taskprune_model::{BinSpec, TaskTypeId};
use taskprune_prob::Pmf;
use taskprune_sim::FaultEvent;

mod common;
use common::{scaled, test_scale};

fn het() -> (Cluster, PetMatrix) {
    let (cluster, petgen) = ClusterKind::Heterogeneous.materialise();
    (cluster, petgen.generate())
}

fn run_all_heuristics(cluster: &Cluster, pet: &PetMatrix, tasks: &[Task]) {
    for kind in HeuristicKind::BATCH
        .iter()
        .chain(&HeuristicKind::IMMEDIATE)
        .chain(&HeuristicKind::HOMOGENEOUS)
    {
        let sim = if kind.is_immediate() {
            SimConfig::immediate(1)
        } else {
            SimConfig::batch(1)
        };
        for pruning in [None, Some(PruningConfig::paper_default())] {
            let stats = ResourceAllocator::new(cluster, pet, sim)
                .heuristic(*kind)
                .pruning_opt(pruning)
                .run(tasks);
            assert_eq!(stats.unreported(), 0, "{} lost tasks", kind.name());
            let r = stats.robustness_pct(0);
            assert!((0.0..=100.0).contains(&r), "{} r={r}", kind.name());
        }
    }
}

#[test]
fn empty_workload() {
    let (cluster, pet) = het();
    run_all_heuristics(&cluster, &pet, &[]);
}

#[test]
fn single_task() {
    let (cluster, pet) = het();
    let tasks = vec![Task::new(
        0,
        TaskTypeId(0),
        SimTime::from_time_units(1.0),
        SimTime::from_time_units(100.0),
    )];
    run_all_heuristics(&cluster, &pet, &tasks);
}

#[test]
fn single_machine_cluster() {
    let pet = PetMatrix::new(
        BinSpec::new(250),
        1,
        2,
        vec![
            Pmf::from_points(&[(2, 0.5), (6, 0.5)]).unwrap(),
            Pmf::point_mass(4),
        ],
    );
    let cluster = Cluster::one_per_type(1);
    let n = scaled(200, test_scale());
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            Task::new(
                i,
                TaskTypeId((i % 2) as u16),
                SimTime(i * 200),
                SimTime(i * 200 + 3_000),
            )
        })
        .collect();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(2))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&tasks);
    assert_eq!(stats.unreported(), 0);
}

#[test]
fn zero_slack_deadlines_all_fail_cleanly() {
    let (cluster, pet) = het();
    // Deadline equals arrival: nothing can ever complete on time.
    let tasks: Vec<Task> = (0..scaled(300, test_scale()))
        .map(|i| {
            let t = SimTime(i * 100);
            Task::new(i, TaskTypeId((i % 12) as u16), t, t)
        })
        .collect();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(3))
        .heuristic(HeuristicKind::Msd)
        .pruning(PruningConfig::paper_default())
        .run(&tasks);
    assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 0);
    assert_eq!(stats.unreported(), 0);
    assert_eq!(stats.robustness_pct(0), 0.0);
}

fn identical_deadlines_mass_arrival_impl(factor: f64) {
    let (cluster, pet) = het();
    // 500 tasks (at full scale) all arriving at t=0 with one shared
    // deadline: an extreme burst; MSD's deadline ordering degenerates
    // entirely.
    let tasks: Vec<Task> = (0..scaled(500, factor))
        .map(|i| {
            Task::new(
                i,
                TaskTypeId((i % 12) as u16),
                SimTime(0),
                SimTime::from_time_units(40.0),
            )
        })
        .collect();
    run_all_heuristics(&cluster, &pet, &tasks);
}

#[test]
fn identical_deadlines_mass_arrival() {
    identical_deadlines_mass_arrival_impl(test_scale());
}

#[test]
#[ignore = "heavy tier: original full-size burst"]
fn identical_deadlines_mass_arrival_full_scale() {
    identical_deadlines_mass_arrival_impl(1.0);
}

#[test]
fn deterministic_point_mass_pets() {
    // A fully deterministic system: chance estimates become 0/1.
    let pet = PetMatrix::new(
        BinSpec::new(100),
        2,
        2,
        vec![
            Pmf::point_mass(3),
            Pmf::point_mass(7),
            Pmf::point_mass(5),
            Pmf::point_mass(2),
        ],
    );
    let cluster = Cluster::one_per_type(2);
    let tasks: Vec<Task> = (0..scaled(100, test_scale()))
        .map(|i| {
            Task::new(
                i,
                TaskTypeId((i % 2) as u16),
                SimTime(i * 150),
                SimTime(i * 150 + 2_000),
            )
        })
        .collect();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(4))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&tasks);
    assert_eq!(stats.unreported(), 0);
}

fn extreme_oversubscription_impl(factor: f64) {
    let (cluster, pet) = het();
    // ~10x capacity: nearly everything must be pruned or expire. The
    // span shrinks with the task count so the density (and thus the
    // oversubscription regime) is scale-invariant.
    let trial = WorkloadConfig {
        total_tasks: scaled(3_000, factor) as usize,
        span_tu: 60.0 * factor,
        ..WorkloadConfig::paper_default(55)
    }
    .generate_trial(&pet, 0);
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(5))
        .heuristic(HeuristicKind::Mmu)
        .pruning(PruningConfig::paper_default())
        .run(&trial.tasks);
    assert_eq!(stats.unreported(), 0);
    // The pruner must be doing heavy lifting here.
    assert!(
        stats.count(TaskOutcome::DroppedProactive) > 0 || stats.deferrals > 0
    );
}

#[test]
fn extreme_oversubscription_survives() {
    extreme_oversubscription_impl(test_scale());
}

#[test]
#[ignore = "heavy tier: original 3000-task overload"]
fn extreme_oversubscription_full_scale() {
    extreme_oversubscription_impl(1.0);
}

#[test]
fn trial_smaller_than_trim_window() {
    let (cluster, pet) = het();
    let tasks: Vec<Task> = (0..150)
        .map(|i| {
            Task::new(
                i,
                TaskTypeId(0),
                SimTime(i * 500),
                SimTime(i * 500 + 10_000),
            )
        })
        .collect();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(6))
        .heuristic(HeuristicKind::Mm)
        .run(&tasks);
    // 150 tasks < 2×100 trim → the paper window is empty → 0 by
    // definition, not a panic.
    assert_eq!(stats.robustness_pct(100), 0.0);
    assert!(stats.robustness_pct(0) > 0.0);
}

#[test]
fn queue_capacity_one_still_flows() {
    let (cluster, pet) = het();
    let factor = test_scale();
    let trial = WorkloadConfig {
        total_tasks: scaled(400, factor) as usize,
        span_tu: 100.0 * factor,
        ..WorkloadConfig::paper_default(66)
    }
    .generate_trial(&pet, 0);
    let mut sim = SimConfig::batch(7);
    sim.queue_capacity = 1;
    let stats = ResourceAllocator::new(&cluster, &pet, sim)
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&trial.tasks);
    assert_eq!(stats.unreported(), 0);
    assert!(stats.count(TaskOutcome::CompletedOnTime) > 0);
}

fn cancel_running_late_impl(factor: f64) {
    let (cluster, pet) = het();
    let trial = WorkloadConfig {
        total_tasks: scaled(1_000, factor) as usize,
        span_tu: 150.0 * factor,
        slack_range: (0.3, 0.8), // tight deadlines → mid-run expiries
        ..WorkloadConfig::paper_default(77)
    }
    .generate_trial(&pet, 0);
    let mut sim = SimConfig::batch(8);
    sim.cancel_running_late = true;
    let stats = ResourceAllocator::new(&cluster, &pet, sim)
        .heuristic(HeuristicKind::Mm)
        .run(&trial.tasks);
    assert_eq!(stats.unreported(), 0);
    assert!(
        stats.count(TaskOutcome::CancelledRunning) > 0,
        "tight deadlines must cause mid-run cancellations"
    );
    // Cancellation fires at mapping events, so a task finishing between
    // events can still complete late — but the policy must leave fewer
    // late completions than running everything to the end does.
    let mut sim_off = SimConfig::batch(8);
    sim_off.cancel_running_late = false;
    let without = ResourceAllocator::new(&cluster, &pet, sim_off)
        .heuristic(HeuristicKind::Mm)
        .run(&trial.tasks);
    assert!(
        stats.count(TaskOutcome::CompletedLate)
            < without.count(TaskOutcome::CompletedLate),
        "cancellation did not reduce late completions: {} vs {}",
        stats.count(TaskOutcome::CompletedLate),
        without.count(TaskOutcome::CompletedLate)
    );
}

#[test]
fn cancel_running_late_policy_end_to_end() {
    cancel_running_late_impl(test_scale());
}

#[test]
#[ignore = "heavy tier: original 1000-task cancellation workload"]
fn cancel_running_late_full_scale() {
    cancel_running_late_impl(1.0);
}

// ---------------------------------------------------------------------
// Runtime fault injection: FaultPlan storms against both drivers.
// ---------------------------------------------------------------------

fn fault_fixture() -> (Cluster, PetMatrix, Vec<Task>) {
    let (cluster, petgen) = ClusterKind::Heterogeneous.materialise();
    let pet = petgen.generate();
    let factor = test_scale();
    let tasks = WorkloadConfig {
        total_tasks: scaled(1_500, factor) as usize,
        span_tu: scaled(260, factor) as f64,
        ..WorkloadConfig::paper_default(4321)
    }
    .generate_trial(&pet, 0)
    .tasks;
    (cluster, pet, tasks)
}

fn json(stats: &FederationStats) -> String {
    serde_json::to_string(stats).expect("serializes")
}

fn federated_builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    shards: usize,
) -> GatewayBuilder<'a> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(9))
        .shards(shards)
        .policy(RoundRobinRoute::new())
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

/// The runtime fault matrix: two fixed storm seeds under a stateless
/// and a stateful routing policy, each healed to the fault-free
/// serialized stats. The stateful leg checks that a recovery leaves
/// every shard's live queues exactly as the fault-free run had them,
/// because least-queued routing reads them at every arrival.
/// Supervised runs use the serial driver, so the matrix has one driver
/// column (`tests/self_healing.rs` pins healed ≡ parallel fault-free).
#[test]
fn fault_storms_heal_identically_across_the_driver_matrix() {
    let (cluster, pet, tasks) = fault_fixture();
    let shards = 3usize;
    let policies: [fn() -> Box<dyn RoutePolicy>; 2] = [
        || Box::new(RoundRobinRoute::new()),
        || Box::new(LeastQueuedRoute::new()),
    ];
    for policy in policies {
        let name = policy().name().to_owned();
        let reference = federated_builder(&cluster, &pet, shards)
            .policy_boxed(policy())
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        assert_eq!(reference.unreported(), 0);
        let reference_json = json(&reference);

        for plan_seed in [0xFA01u64, 0xFA02] {
            let plan = FaultPlan::generate(
                plan_seed,
                &FaultSpec::storm(shards, (tasks.len() / shards) as u64),
            );
            let engine = federated_builder(&cluster, &pet, shards)
                .policy_boxed(policy())
                .build()
                .expect("valid configuration");
            let mut sup = Supervisor::new(engine, full_budget());
            sup.arm(plan);
            assert_eq!(
                reference_json,
                json(&sup.run_stream(tasks.iter().copied())),
                "{name}, plan seed {plan_seed:#x}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property test: arbitrary fault schedules.
// ---------------------------------------------------------------------

const PROP_SHARDS: usize = 3;
const PROP_SPAN: u64 = 60;

fn arb_fault() -> impl Strategy<Value = FaultEvent> {
    (0..PROP_SHARDS, 0u8..6, 1..=PROP_SPAN, 1u64..512).prop_map(
        |(shard, kind, nth, delay)| {
            let kind = match kind {
                0 => FaultKind::ShardCrash,
                1 => FaultKind::LostCompletion,
                2 => FaultKind::DuplicateCompletion,
                3 => FaultKind::DelayedCompletion,
                4 => FaultKind::CheckpointFailure,
                _ => FaultKind::RecoveryFailure,
            };
            FaultEvent {
                shard,
                kind,
                nth,
                delay: if kind == FaultKind::DelayedCompletion {
                    delay
                } else {
                    0
                },
            }
        },
    )
}

/// A small, dense workload so crashes land on non-trivial state: at
/// this rate a shard's batch queue holds a backlog, so a zero-budget
/// crash exercises the quarantine's salvage-and-re-route.
fn prop_fixture() -> (Cluster, PetMatrix, Vec<Task>) {
    let (cluster, petgen) = ClusterKind::Heterogeneous.materialise();
    let pet = petgen.generate();
    let tasks = WorkloadConfig {
        total_tasks: 240,
        span_tu: 10.0,
        ..WorkloadConfig::paper_default(4321)
    }
    .generate_trial(&pet, 0)
    .tasks;
    (cluster, pet, tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault schedule, fully budgeted, heals bit-identically; the
    /// same schedule with a zero budget still completes with every
    /// arrival accounted for exactly once. No panics anywhere.
    #[test]
    fn arbitrary_fault_schedules_never_lose_tasks(
        events in proptest::collection::vec(arb_fault(), 1..12),
    ) {
        let (cluster, pet, tasks) = prop_fixture();
        let plan = FaultPlan::new(events);
        let reference = federated_builder(&cluster, &pet, PROP_SHARDS)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        let reference_json = json(&reference);

        // Full budget: recovery is exact.
        let engine = federated_builder(&cluster, &pet, PROP_SHARDS)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, full_budget());
        sup.arm(plan.clone());
        let healed = sup.run_stream(tasks.iter().copied());
        prop_assert_eq!(&reference_json, &json(&healed));

        // Zero budget: degraded, but complete and accounted for.
        let engine = federated_builder(&cluster, &pet, PROP_SHARDS)
            .build()
            .expect("valid configuration");
        let mut sup =
            Supervisor::new(engine, RecoveryPolicy::no_retries());
        sup.arm(plan);
        let degraded = sup.run_stream(tasks.iter().copied());
        prop_assert_eq!(degraded.unreported(), 0);
        prop_assert_eq!(degraded.n_tasks(), tasks.len());
    }
}
