//! Parallel federation ≡ serial federation: running K shards on K
//! threads must be **purely a wall-clock change**.
//!
//! The contract under test: for every (seed, shard count, thread
//! count), `ParallelFederatedEngine::run_stream` produces a serialized
//! `FederationStats` — per-shard outcome tables, counters, end times,
//! the global arrival record, and (in the traced variants) the full
//! per-shard `TraceLog` — **byte-identical** to the single-threaded
//! `FederatedEngine` on the same inputs. Since the 1-shard serial
//! federation is already pinned to a loop that drives one core through
//! its public API (`tests/federation_equivalence.rs`), this
//! transitively pins the parallel driver all the way down to the bare
//! core.
//!
//! The parallel driver routes the whole stream up front, so it takes
//! a **stateless** policy (round-robin) beyond one shard, and every
//! shard replays with zero cross-shard barriers. A policy that reads
//! shard state (least-queued) on more than one shard is a
//! typed build error; on one shard it runs, and matches the serial
//! driver. The serial driver's stateful routing is pinned by
//! `tests/golden.rs`.
//!
//! A property test feeds hostile arrival bursts (many tasks at the
//! same instant, sparse/duplicated external ids, deadlines tight
//! enough to force reactive and proactive drops) through both drivers.

mod common;

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{ConfigError, TraceLog};

fn fixture(seed: u64, scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_500, scale) as usize,
        span_tu: common::scaled(260, scale) as f64,
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
        0 => Box::new(RoundRobinRoute::new()),
        _ => Box::new(LeastQueuedRoute::new()),
    }
}

/// Builds the federation and runs it through the serial driver
/// (`threads == None`) or the parallel driver at the given thread
/// count — everything else identical.
#[allow(clippy::too_many_arguments)]
fn federated_stats(
    cluster: &Cluster,
    pet: &PetMatrix,
    seed: u64,
    shards: usize,
    threads: Option<usize>,
    policy: usize,
    traced: bool,
    tasks: &[Task],
) -> FederationStats {
    let n_types = pet.n_task_types();
    let b = GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(seed))
        .shards(shards)
        .policy_boxed(policy_by_index(policy))
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        });
    match (traced, threads) {
        (false, None) => b
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        (false, Some(t)) => b
            .threads(t)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        (true, None) => b
            .sink_with(|_| TraceLog::new(1_000_000, 4))
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        (true, Some(t)) => b
            .sink_with(|_| TraceLog::new(1_000_000, 4))
            .threads(t)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    }
}

/// The headline matrix: seeds × shard counts {1, 2, 4} × thread counts
/// {1, 2, 8}, round-robin (the zero-barrier schedule).
#[test]
fn parallel_matches_serial_across_shards_and_threads() {
    let scale = common::test_scale();
    for seed in [55u64, 7u64] {
        let (cluster, pet, tasks) = fixture(4321 + seed, scale);
        for shards in [1usize, 2, 4] {
            let serial = federated_stats(
                &cluster, &pet, seed, shards, None, 0, false, &tasks,
            );
            assert_eq!(serial.unreported(), 0);
            let serial_json = json(&serial);
            for threads in [1usize, 2, 8] {
                let parallel = federated_stats(
                    &cluster,
                    &pet,
                    seed,
                    shards,
                    Some(threads),
                    0,
                    false,
                    &tasks,
                );
                assert_eq!(
                    serial_json,
                    json(&parallel),
                    "seed={seed} shards={shards} threads={threads}: \
                     parallel driver diverged from FederatedEngine"
                );
            }
        }
    }
}

/// A policy that reads shard state (least-queued) cannot route more
/// than one shard on the parallel driver: the build is a typed error,
/// at any thread count. On one shard the routing decision is fixed, so
/// the same policy builds and matches the serial driver.
#[test]
fn stateful_policies_need_one_shard_on_the_parallel_driver() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(1111, scale);
    for shards in [2usize, 4] {
        let err = GatewayBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(55))
            .shards(shards)
            .policy(LeastQueuedRoute::new())
            .strategy_with(|_| HeuristicKind::Mm.make())
            .threads(2)
            .build_parallel()
            .expect_err("a stateful policy has no parallel schedule");
        assert_eq!(
            err,
            ConfigError::ParallelNeedsStatelessRoute {
                policy: "least-queued".to_owned()
            },
            "least-queued on {shards} shards"
        );
    }
    let serial = federated_stats(&cluster, &pet, 55, 1, None, 1, false, &tasks);
    assert_eq!(serial.unreported(), 0);
    for threads in [1usize, 2] {
        let parallel = federated_stats(
            &cluster,
            &pet,
            55,
            1,
            Some(threads),
            1,
            false,
            &tasks,
        );
        assert_eq!(
            json(&serial),
            json(&parallel),
            "least-queued on one shard, threads={threads}: parallel driver \
             diverged from FederatedEngine"
        );
    }
}

/// The traced variant carries every shard's full `TraceLog` through the
/// serialized comparison — per-event timestamps included, so a lane
/// clock drifting even one tick would show.
#[test]
fn traced_runs_carry_identical_per_shard_traces() {
    let scale = common::test_scale() * 0.5;
    let (cluster, pet, tasks) = fixture(2222, scale);
    let serial = federated_stats(&cluster, &pet, 55, 2, None, 0, true, &tasks);
    let parallel =
        federated_stats(&cluster, &pet, 55, 2, Some(2), 0, true, &tasks);
    assert!(
        serial.per_shard.iter().all(|s| s.trace.is_some()),
        "traced fixture must actually record traces"
    );
    assert_eq!(
        json(&serial),
        json(&parallel),
        "traced parallel run diverged"
    );
}

/// A caller that re-submits an external id can still complete the
/// superseded instance via its `FedStart` handle, although
/// `Gateway::resolve` answers with the external id's latest arrival.
#[test]
fn superseded_duplicate_external_id_completes_via_internal_handle() {
    use taskprune_model::{BinSpec, SimTime, TaskId, TaskTypeId};
    use taskprune_prob::Pmf;

    let pet = PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)]);
    let cluster = Cluster::one_per_type(1);
    let mut gw = GatewayBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(1))
        .shards(2)
        .policy(RoundRobinRoute::new())
        .strategy_with(|_| HeuristicKind::FcfsRr.make())
        .build_gateway()
        .expect("valid configuration");

    let external = TaskId(9_999_999);
    let task =
        Task::new(external.0, TaskTypeId(0), SimTime(0), SimTime(100_000));
    // First submission lands on shard 0 and starts executing.
    assert_eq!(
        gw.push_arrival(task),
        Admission::Routed {
            shard: 0,
            internal: TaskId(0)
        }
    );
    let first_start = gw.drain_starts()[0];
    assert_eq!(first_start.shard, 0);
    assert_eq!(first_start.task.id, external);
    // Re-submission of the same external id lands on shard 1 and
    // shadows the first instance for `resolve`.
    assert_eq!(
        gw.push_arrival(task),
        Admission::Routed {
            shard: 1,
            internal: TaskId(0)
        }
    );
    let second_start = gw.drain_starts()[0];
    assert_eq!(second_start.shard, 1);
    assert_eq!(gw.resolve(external), Some((1, TaskId(0))));

    // The footgun: by external id only the newest instance is
    // reachable. The fix: the FedStart handle reaches the superseded
    // one directly.
    gw.advance_to(SimTime(500));
    assert!(
        gw.complete_internal(&first_start),
        "superseded instance must complete via its FedStart handle"
    );
    assert!(
        gw.complete_internal(&second_start),
        "latest instance completes too"
    );
    // Both completions are stale the second time around.
    assert!(!gw.complete_internal(&first_start));
    assert!(!gw.complete_internal(&second_start));

    let stats = gw.finish();
    assert_eq!(stats.n_tasks(), 2);
    assert_eq!(stats.unreported(), 0);
    assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 2);
}

// ---------------------------------------------------------------------
// Property test: hostile arrival bursts.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bursts of simultaneous arrivals with sparse/duplicate external
    /// ids and burst-dependent deadlines (tight enough under load to
    /// force reactive drops and pruning) replay bit-identically
    /// through the parallel driver.
    #[test]
    fn hostile_bursts_replay_bit_identically(
        raw in proptest::collection::vec((any::<u32>(), 0u64..3), 8..60),
    ) {
        use taskprune_model::{BinSpec, SimTime, TaskTypeId};
        use taskprune_prob::Pmf;

        let spread = Pmf::from_points(&[(1, 0.4), (3, 0.4), (6, 0.2)])
            .expect("valid PMF");
        let heavy = Pmf::from_points(&[(2, 0.5), (5, 0.3), (9, 0.2)])
            .expect("valid PMF");
        let pet =
            PetMatrix::new(BinSpec::new(100), 1, 2, vec![spread, heavy]);
        let cluster = Cluster::one_per_type(1);

        // Hostile stream: arrival deltas of 0 (same-instant bursts) or
        // small jumps, snowflake ids with forced repeats, deadlines
        // oscillating between generous and barely-meetable (reactive
        // drops and pruning both fire under a burst).
        let mut stream: Vec<Task> = Vec::with_capacity(raw.len());
        let mut t = 0u64;
        for (i, &(r, delta)) in raw.iter().enumerate() {
            t += delta * 137;
            let external = if i % 6 == 5 {
                stream[i - 1].id.0
            } else {
                (r as u64).wrapping_mul(1_000_003)
            };
            let deadline = t + if r % 3 == 0 { 150 } else { 40_000 };
            stream.push(Task::new(
                external,
                TaskTypeId((r % 2) as u16),
                SimTime(t),
                SimTime(deadline),
            ));
        }

        let run = |threads: Option<usize>| -> FederationStats {
            let b = GatewayBuilder::new(&cluster, &pet)
                .config(SimConfig::batch(9))
                .shards(3)
                .policy(RoundRobinRoute::new())
                .strategy_with(|_| HeuristicKind::FcfsRr.make())
                .pruner_with(|_| {
                    Box::new(PruningMechanism::new(
                        PruningConfig::paper_default(),
                        2,
                    ))
                });
            match threads {
                None => b
                    .build()
                    .expect("valid configuration")
                    .run_stream(stream.iter().copied()),
                Some(t) => b
                    .threads(t)
                    .build_parallel()
                    .expect("valid configuration")
                    .run_stream(stream.iter().copied()),
            }
        };
        let serial = run(None);
        prop_assert_eq!(serial.unreported(), 0);
        let parallel = run(Some(3));
        prop_assert_eq!(
            json(&serial),
            json(&parallel),
            "parallel driver diverged on a hostile burst stream"
        );
    }
}

#[test]
#[ignore = "full-size parallel-equivalence sweep; run with --ignored"]
fn full_scale_parallel_matches_serial() {
    let (cluster, pet, tasks) = fixture(4376, 1.0);
    for (shards, threads, policy) in [(4usize, 8usize, 0usize), (2, 2, 0)] {
        let serial = federated_stats(
            &cluster, &pet, 55, shards, None, policy, false, &tasks,
        );
        let parallel = federated_stats(
            &cluster,
            &pet,
            55,
            shards,
            Some(threads),
            policy,
            false,
            &tasks,
        );
        assert_eq!(
            json(&serial),
            json(&parallel),
            "shards={shards} threads={threads} policy={policy}"
        );
    }
}
