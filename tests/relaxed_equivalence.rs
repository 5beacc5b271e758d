//! The **relaxed equivalence contract**: bounded-staleness routing and
//! federation-level batch stealing keep serial ≡ parallel, byte for
//! byte.
//!
//! `tests/parallel_equivalence.rs` pins the Lockstep story. This suite
//! pins the new degrees of freedom from the relaxed-consistency layer:
//!
//! 1. Under `Consistency::BoundedStale { k }`, stateful policies route
//!    on an epoch-stamped view table at most `k` arrivals stale, and
//!    the parallel driver only synchronises at the view-refresh
//!    ordinals. The serialized `FederationStats` must still be
//!    **byte-identical** between `FederatedEngine` and
//!    `ParallelFederatedEngine` at every (seed, shard count, thread
//!    count) — staleness changes *which* run happens, never lets the
//!    two drivers disagree about it.
//! 2. `BoundedStale { k: 0 }` refreshes before every arrival, so it is
//!    **bit-for-bit `Lockstep`** — the relaxed machinery at zero
//!    staleness is invisible.
//! 3. Steal transfers are journaled (`JournalOp::Steal` / `Adopt`) and
//!    replay from checkpoint + journal bit-identically, so the
//!    crash-failover story survives stealing.

mod common;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{FederatedEngine, NullSink};

fn fixture(seed: u64, scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_200, scale) as usize,
        span_tu: common::scaled(220, scale) as f64,
        ..WorkloadConfig::paper_default(seed)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

/// A deliberately oversubscribed stream: the same paper workload
/// squeezed into a short span, so stale least-queued routing piles
/// arrivals onto one shard while others drain to idle — the shape that
/// actually triggers batch-queue stealing. Fixed size on purpose: the
/// steal count is workload-sensitive, so this fixture must not shrink
/// under `TASKPRUNE_TEST_SCALE`.
fn oversubscribed_fixture(seed: u64) -> (Cluster, PetMatrix, Vec<Task>) {
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

fn policy_by_index(policy: usize) -> Box<dyn RoutePolicy> {
    match policy {
        0 => Box::new(LeastQueuedRoute::new()),
        _ => Box::new(BestChanceRoute::new()),
    }
}

/// One fully configured relaxed federation builder.
#[allow(clippy::too_many_arguments)]
fn relaxed_builder<'a>(
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    seed: u64,
    shards: usize,
    policy: usize,
    consistency: Consistency,
    stealing: bool,
) -> GatewayBuilder<'a, NullSink> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(seed))
        .shards(shards)
        .policy_boxed(policy_by_index(policy))
        .consistency(consistency)
        .stealing(stealing)
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
}

#[allow(clippy::too_many_arguments)]
fn relaxed_stats(
    cluster: &Cluster,
    pet: &PetMatrix,
    seed: u64,
    shards: usize,
    threads: Option<usize>,
    policy: usize,
    consistency: Consistency,
    stealing: bool,
    tasks: &[Task],
) -> FederationStats {
    let b = relaxed_builder(
        cluster,
        pet,
        seed,
        shards,
        policy,
        consistency,
        stealing,
    );
    match threads {
        None => b
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        // `Some(0)`: parallel driver at the ambient TASKPRUNE_THREADS
        // pool default rather than an explicit count.
        Some(0) => b
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        Some(t) => b
            .threads(t)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    }
}

/// Contract 1, the headline matrix: BoundedStale{k} × stealing ×
/// shards {1, 2, 4} × threads {1, 2, 8} — serial and parallel agree
/// byte for byte at every point.
#[test]
fn bounded_stale_serial_matches_parallel_across_matrix() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(8755, scale);
    for (k, stealing) in [(4u64, true), (4, false), (16, true)] {
        let consistency = Consistency::BoundedStale { k };
        for shards in [1usize, 2, 4] {
            let serial = relaxed_stats(
                &cluster,
                &pet,
                55,
                shards,
                None,
                0,
                consistency,
                stealing,
                &tasks,
            );
            assert_eq!(serial.unreported(), 0);
            let serial_json = json(&serial);
            for threads in [1usize, 2, 8] {
                let parallel = relaxed_stats(
                    &cluster,
                    &pet,
                    55,
                    shards,
                    Some(threads),
                    0,
                    consistency,
                    stealing,
                    &tasks,
                );
                assert_eq!(
                    serial_json,
                    json(&parallel),
                    "k={k} stealing={stealing} shards={shards} \
                     threads={threads}: relaxed schedule diverged"
                );
            }
        }
    }
}

/// Contract 1 for the probability-aware policy: best-chance routes on
/// cached Eq. 1 chance summaries under staleness; the runs must still
/// agree across drivers.
#[test]
fn best_chance_routes_identically_on_stale_views() {
    let scale = common::test_scale() * 0.5;
    let (cluster, pet, tasks) = fixture(911, scale);
    let consistency = Consistency::BoundedStale { k: 8 };
    for stealing in [false, true] {
        let serial = relaxed_stats(
            &cluster,
            &pet,
            7,
            4,
            None,
            1,
            consistency,
            stealing,
            &tasks,
        );
        let serial_json = json(&serial);
        for threads in [2usize, 8] {
            let parallel = relaxed_stats(
                &cluster,
                &pet,
                7,
                4,
                Some(threads),
                1,
                consistency,
                stealing,
                &tasks,
            );
            assert_eq!(
                serial_json,
                json(&parallel),
                "best-chance stealing={stealing} threads={threads}"
            );
        }
    }
}

/// Contract 2: `BoundedStale { k: 0 }` refreshes the table before
/// every arrival, so its cloned views equal the live views at every
/// routing decision — bit-for-bit `Lockstep`, in both drivers.
#[test]
fn bounded_stale_zero_is_lockstep_bit_for_bit() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(4242, scale);
    for policy in [0usize, 1] {
        let lockstep = relaxed_stats(
            &cluster,
            &pet,
            55,
            4,
            None,
            policy,
            Consistency::Lockstep,
            false,
            &tasks,
        );
        let zero_stale = relaxed_stats(
            &cluster,
            &pet,
            55,
            4,
            None,
            policy,
            Consistency::BoundedStale { k: 0 },
            false,
            &tasks,
        );
        assert_eq!(
            json(&lockstep),
            json(&zero_stale),
            "policy #{policy}: k=0 serial run diverged from Lockstep"
        );
        let zero_stale_parallel = relaxed_stats(
            &cluster,
            &pet,
            55,
            4,
            Some(4),
            policy,
            Consistency::BoundedStale { k: 0 },
            false,
            &tasks,
        );
        assert_eq!(
            json(&lockstep),
            json(&zero_stale_parallel),
            "policy #{policy}: k=0 parallel run diverged from Lockstep"
        );
    }
}

/// Both consistency modes — with stealing on — keep serial ≡ parallel
/// at the ambient thread default (`TASKPRUNE_THREADS`, which the CI
/// threads matrix pins to 1 and the runner's core count). The name
/// predates the fold: the mode used to come from an environment
/// variable, one mode per CI leg.
#[test]
fn env_selected_consistency_stays_driver_agnostic() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(2024, scale);
    for consistency in
        [Consistency::Lockstep, Consistency::BoundedStale { k: 4 }]
    {
        let serial = relaxed_stats(
            &cluster,
            &pet,
            55,
            4,
            None,
            0,
            consistency,
            true,
            &tasks,
        );
        assert_eq!(serial.unreported(), 0);
        // `threads(0)` resolves to the ambient TASKPRUNE_THREADS
        // default.
        let parallel = relaxed_stats(
            &cluster,
            &pet,
            55,
            4,
            Some(0),
            0,
            consistency,
            true,
            &tasks,
        );
        assert_eq!(
            json(&serial),
            json(&parallel),
            "{consistency:?}: drivers diverged at the ambient thread \
             default"
        );
    }
}

/// Steal/staleness counters land in the stats accessor but stay off
/// the serialized wire shape (the recovery-log convention), so the
/// byte-identity contracts above cannot be satisfied vacuously.
#[test]
fn steal_counters_are_populated_and_off_the_wire() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(31337, scale);
    let consistency = Consistency::BoundedStale { k: 4 };
    let stats = relaxed_stats(
        &cluster,
        &pet,
        55,
        4,
        None,
        0,
        consistency,
        true,
        &tasks,
    );
    let counters = stats.steal_stats();
    assert!(
        counters.view_refreshes > 0,
        "a BoundedStale run must publish view tables"
    );
    assert!(
        counters.steal_points > 0,
        "an oversubscribed 4-shard run must hit idle shards"
    );
    let wire = json(&stats);
    assert!(
        !wire.contains("steals") && !wire.contains("view_refreshes"),
        "steal counters must stay off the stats wire shape"
    );
    let back: FederationStats =
        serde_json::from_str(&wire).expect("stats deserialize");
    assert_eq!(back.steal_stats(), taskprune_sim::StealStats::default());
    assert_eq!(json(&back), wire);
}

/// Contract 3: steals are journaled (`JournalOp::Steal` / `Adopt`)
/// and a crashed shard rebuilt from checkpoint + journal replay — with
/// steal transfers inside the replay window — finishes the run
/// byte-identically to an uninterrupted one.
#[test]
fn steals_replay_from_checkpoint_plus_journal() {
    use taskprune_sim::JournalOp;

    const SHARDS: usize = 4;
    let (cluster, pet, tasks) = oversubscribed_fixture(606);
    let consistency = Consistency::BoundedStale { k: 16 };

    let reference = relaxed_stats(
        &cluster,
        &pet,
        55,
        SHARDS,
        None,
        0,
        consistency,
        true,
        &tasks,
    );
    assert!(
        reference.steal_stats().tasks_moved > 0,
        "fixture must actually steal for this test to mean anything"
    );

    let mut engine: FederatedEngine<'_, NullSink> =
        relaxed_builder(&cluster, &pet, 55, SHARDS, 0, consistency, true)
            .build()
            .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    // Steals cluster in the oversubscribed ramp-up (the stale table
    // piles the opening burst onto few shards), so checkpoint early and
    // stretch the replay window across that ramp.
    let w1 = (tasks.len() / 10) as u64;
    let w2 = (tasks.len() / 2) as u64;
    engine.run_until(&mut source, w1);
    let snaps: Vec<_> = (0..SHARDS).map(|s| engine.checkpoint(s)).collect();
    engine.run_until(&mut source, w2);
    let steal_ops: usize = (0..SHARDS)
        .map(|s| {
            engine
                .journal(s)
                .entries()
                .iter()
                .filter(|e| {
                    matches!(
                        e.op,
                        JournalOp::Steal { .. } | JournalOp::Adopt { .. }
                    )
                })
                .count()
        })
        .sum();
    assert!(
        steal_ops > 0,
        "the replay window must contain steal transfers"
    );
    for (shard, snap) in snaps.iter().enumerate() {
        engine
            .recover_shard(shard, snap)
            .expect("checkpoint + journal replay rebuilds the shard");
    }
    let recovered = engine.finish_stream(&mut source);
    assert_eq!(
        json(&reference),
        json(&recovered),
        "stealing run did not replay bit-identically from \
         checkpoint + journal"
    );
}
