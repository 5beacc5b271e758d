//! Stealing under fire: batch-queue stealing composes with the fault
//! and recovery layers without weakening either guarantee.
//!
//! 1. **Healing is exact with steals in flight.** A fully budgeted
//!    supervisor heals fault storms injected into a stealing,
//!    bounded-staleness run back to the fault-free serialized stats,
//!    byte for byte — fixed storms and property-tested arbitrary
//!    schedules. Steal/Adopt journal ops
//!    replay exactly, and because steal transfers never touch the
//!    per-shard completion counters, fault coordinates (`nth`
//!    completion on shard `s`) name the same events with or without a
//!    mid-run recovery.
//! 2. **Stealing never lowers merged robustness.** At the same seed,
//!    turning stealing on moves work from backlogged batch-queue tails
//!    to idle shards — tasks start no later than they would have, so
//!    the merged robustness is never worse than the no-steal run's.
//! 3. **Degradation stays safe.** With a zero retry budget a permanent
//!    crash quarantines the shard; its batch backlog — including tasks
//!    it stole from other shards — is salvaged, and every arrival is
//!    still accounted for exactly once.
//!
//! Supervised runs use the serial driver; `tests/relaxed_equivalence.rs`
//! pins the fault-free stealing run serial ≡ parallel.

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::FaultEvent;

const SHARDS: usize = 4;
const STALENESS: Consistency = Consistency::BoundedStale { k: 16 };

/// The oversubscribed stream that actually triggers steals: the paper
/// workload squeezed into a short span (fixed size — steal counts are
/// workload-sensitive, so this must not shrink under
/// `TASKPRUNE_TEST_SCALE`).
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

fn stealing_builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    stealing: bool,
) -> GatewayBuilder<'a> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(SHARDS)
        .policy(LeastQueuedRoute::new())
        .consistency(STALENESS)
        .stealing(stealing)
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
}

fn full_budget() -> RecoveryPolicy {
    RecoveryPolicy {
        retry_budget: 64,
        ..RecoveryPolicy::default()
    }
}

// ---------------------------------------------------------------------
// Guarantee 1: fixed storms heal a stealing run bit-identically.
// ---------------------------------------------------------------------

#[test]
fn fault_storms_heal_a_stealing_run_bit_identically() {
    let (cluster, pet, tasks) = fixture(606);
    let reference = stealing_builder(&cluster, &pet, true)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_eq!(reference.unreported(), 0);
    assert!(
        reference.steal_stats().tasks_moved > 0,
        "the fixture must steal, or this exercises nothing new"
    );
    let reference_json = json(&reference);

    for plan_seed in [0xFA01u64, 0xFA02] {
        let plan = FaultPlan::generate(
            plan_seed,
            &FaultSpec::storm(SHARDS, (tasks.len() / SHARDS) as u64),
        );
        let engine = stealing_builder(&cluster, &pet, true)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, full_budget());
        sup.arm(plan);
        assert_eq!(
            reference_json,
            json(&sup.run_stream(tasks.iter().copied())),
            "serial, plan seed {plan_seed:#x}"
        );
    }
}

// ---------------------------------------------------------------------
// Guarantee 2: stealing never lowers merged robustness.
// ---------------------------------------------------------------------

/// A structurally imbalanced stream: round-robin pins every 4th
/// arrival — the heaviest task type — onto shard 0, which backlogs
/// while the light-typed shards drain to idle. This is the shape
/// stealing is *for*; on symmetric oversubscription the delta is noise
/// in either direction (moving a tail reshuffles every downstream
/// mapping decision), and under stale views stealing can even
/// mis-route — the router keeps feeding the thief it still believes
/// idle — which is why this test runs at `Lockstep`.
fn skewed_fixture(pet: &PetMatrix) -> Vec<Task> {
    use taskprune_model::{SimTime, TaskTypeId, TICKS_PER_TIME_UNIT};
    let n_types = pet.n_task_types();
    let mut by_mean: Vec<(usize, f64)> = (0..n_types)
        .map(|t| {
            (
                t,
                pet.mean_expected_ticks_across_machines(TaskTypeId(t as u16)),
            )
        })
        .collect();
    by_mean.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite means"));
    let light = by_mean[0].0 as u16;
    let heavy = by_mean[n_types - 1].0 as u16;
    let gap = TICKS_PER_TIME_UNIT / 8;
    (0..1_200u64)
        .map(|i| {
            let t = i * gap;
            let (ty, slack) = if i.is_multiple_of(4) {
                (heavy, 30 * TICKS_PER_TIME_UNIT)
            } else {
                (light, 10 * TICKS_PER_TIME_UNIT)
            };
            Task::new(i, TaskTypeId(ty), SimTime(t), SimTime(t + slack))
        })
        .collect()
}

#[test]
fn stealing_never_lowers_merged_robustness() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let n_types = pet.n_task_types();
    let tasks = skewed_fixture(&pet);
    for seed in [55u64, 77, 99] {
        for pruning in [false, true] {
            let build = |stealing: bool| {
                let mut b = GatewayBuilder::new(&cluster, &pet)
                    .config(SimConfig::batch(seed))
                    .shards(SHARDS)
                    .policy(RoundRobinRoute::new())
                    .consistency(Consistency::Lockstep)
                    .stealing(stealing)
                    .strategy_with(move |_| HeuristicKind::Mm.make());
                if pruning {
                    b = b.pruner_with(move |_| {
                        Box::new(PruningMechanism::new(
                            PruningConfig::paper_default(),
                            n_types,
                        ))
                    });
                }
                b.build().expect("valid configuration")
            };
            let without = build(false).run_stream(tasks.iter().copied());
            let with = build(true).run_stream(tasks.iter().copied());
            assert_eq!(with.unreported(), 0);
            assert_eq!(with.n_tasks(), without.n_tasks());
            assert!(
                with.steal_stats().tasks_moved > 0,
                "seed {seed} pruning={pruning}: fixture stopped stealing"
            );
            assert!(
                with.paper_robustness_pct() >= without.paper_robustness_pct(),
                "seed {seed} pruning={pruning}: stealing lowered \
                 robustness ({:.3}% -> {:.3}%)",
                without.paper_robustness_pct(),
                with.paper_robustness_pct(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Guarantee 3: zero-budget degradation stays safe while stealing.
// ---------------------------------------------------------------------

/// A permanent crash with no retry budget quarantines the shard; the
/// batch backlog it holds — stolen tasks included — is salvaged by the
/// re-route drain, and every arrival stays accounted for exactly once.
#[test]
fn quarantine_covers_stolen_tasks() {
    let (cluster, pet, tasks) = fixture(606);
    let plan = FaultPlan::new(vec![FaultEvent {
        shard: 0,
        kind: FaultKind::ShardCrash,
        nth: (tasks.len() / (2 * SHARDS)) as u64,
        delay: 0,
    }]);
    let engine = stealing_builder(&cluster, &pet, true)
        .build()
        .expect("valid configuration");
    let mut sup = Supervisor::new(engine, RecoveryPolicy::no_retries());
    sup.arm(plan);
    let degraded = sup.run_stream(tasks.iter().copied());
    assert_eq!(degraded.unreported(), 0);
    assert_eq!(degraded.n_tasks(), tasks.len());
}

// ---------------------------------------------------------------------
// Property test: arbitrary fault schedules against a stealing run.
// ---------------------------------------------------------------------

/// Dense and small, same arrival rate as `fixture` so the stealing
/// machinery stays engaged at property-test size.
fn prop_fixture() -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let tasks = WorkloadConfig {
        total_tasks: 400,
        span_tu: 12.0,
        ..WorkloadConfig::paper_default(606)
    }
    .generate_trial(&pet, 0)
    .tasks;
    (cluster, pet, tasks)
}

const PROP_SPAN: u64 = 60;

fn arb_fault() -> impl Strategy<Value = FaultEvent> {
    (0..SHARDS, 0u8..6, 1..=PROP_SPAN, 1u64..512).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any fault schedule, fully budgeted, heals a stealing run to the
    /// fault-free bytes; the same schedule with a zero budget still
    /// completes with every arrival accounted for.
    #[test]
    fn arbitrary_fault_storms_heal_stealing_runs(
        events in proptest::collection::vec(arb_fault(), 1..10),
    ) {
        let (cluster, pet, tasks) = prop_fixture();
        let plan = FaultPlan::new(events);
        let reference = stealing_builder(&cluster, &pet, true)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        let reference_json = json(&reference);

        let engine = stealing_builder(&cluster, &pet, true)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, full_budget());
        sup.arm(plan.clone());
        let healed = sup.run_stream(tasks.iter().copied());
        prop_assert_eq!(&reference_json, &json(&healed));

        let engine = stealing_builder(&cluster, &pet, true)
            .build()
            .expect("valid configuration");
        let mut sup =
            Supervisor::new(engine, RecoveryPolicy::no_retries());
        sup.arm(plan);
        let degraded = sup.run_stream(tasks.iter().copied());
        prop_assert_eq!(degraded.unreported(), 0);
    }
}
