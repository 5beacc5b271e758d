//! Federation ≡ the paper system: the gateway layer must add sharding
//! without perturbing the paper system it shards.
//!
//! Three layers of proof:
//!
//! 1. **One shard is the bare core.** A 1-shard [`GatewayBuilder`] run
//!    is byte-identical on serialized `SimStats` — outcome tables,
//!    counters, per-type stats, and (in the traced variant) the full
//!    `TraceLog` — to a loop that drives one core through its public
//!    API alone (`tests/common/core_loop.rs`). Routing degenerates, id
//!    compaction maps a dense trace onto itself, and the federation's
//!    arrival-ordered trim equals the shard's own.
//! 2. **Id compaction is lossless.** Property tests feed sparse,
//!    out-of-order and duplicated external ids through the compactor
//!    and a live 3-shard gateway, asserting internal density,
//!    external-id round-trips, and that the federated robustness trim
//!    follows *global arrival order* (not id order).
//! 3. **N shards are reproducible.** The same seed and stream produce a
//!    byte-identical serialized `FederationStats` across runs, for both
//!    stateless and probability-aware routing.

mod common;
#[path = "common/core_loop.rs"]
mod core_loop;

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{NullSink, SchedulerBuilder, Sink, TraceLog};

fn fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(2_000, scale) as usize,
        span_tu: common::scaled(320, scale) as f64,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// The single cluster, driven by the reference core loop.
fn core_loop_stats(
    cluster: &Cluster,
    pet: &PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
    traced: bool,
    tasks: &[Task],
) -> SimStats {
    fn drive<S: Sink>(
        b: SchedulerBuilder<'_>,
        sink: S,
        pet: &PetMatrix,
        tasks: &[Task],
    ) -> SimStats {
        let core = b.sink(sink).build_core().expect("valid configuration");
        core_loop::drive_core(core, pet, tasks, |_, _| {})
    }
    let sim = match kind.allocation_mode() {
        taskprune_sim::AllocationMode::Immediate => SimConfig::immediate(55),
        taskprune_sim::AllocationMode::Batch => SimConfig::batch(55),
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
    if traced {
        drive(b, TraceLog::new(1_000_000, 4), pet, tasks)
    } else {
        drive(b, NullSink, pet, tasks)
    }
}

#[allow(clippy::too_many_arguments)]
fn gateway_stats(
    cluster: &Cluster,
    pet: &PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
    traced: bool,
    shards: usize,
    policy: Box<dyn RoutePolicy>,
    tasks: &[Task],
) -> FederationStats {
    let sim = match kind.allocation_mode() {
        taskprune_sim::AllocationMode::Immediate => SimConfig::immediate(55),
        taskprune_sim::AllocationMode::Batch => SimConfig::batch(55),
    };
    let n_types = pet.n_task_types();
    let mut b = GatewayBuilder::new(cluster, pet)
        .config(sim)
        .shards(shards)
        .policy_boxed(policy)
        .strategy_with(move |_| kind.make());
    if pruned {
        b = b.pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        });
    }
    if traced {
        b.sink_with(|_| TraceLog::new(1_000_000, 4))
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied())
    } else {
        b.build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied())
    }
}

fn assert_one_shard_is_the_core(
    kind: HeuristicKind,
    pruned: bool,
    traced: bool,
    scale: f64,
) {
    let (cluster, pet, tasks) = fixture(scale);
    let single = core_loop_stats(&cluster, &pet, kind, pruned, traced, &tasks);
    let federated = gateway_stats(
        &cluster,
        &pet,
        kind,
        pruned,
        traced,
        1,
        Box::new(RoundRobinRoute::new()),
        &tasks,
    );
    assert_eq!(federated.per_shard.len(), 1);
    assert_eq!(single.unreported(), 0);
    assert_eq!(
        json(&single),
        json(&federated.per_shard[0]),
        "{kind:?} pruned={pruned} traced={traced}: \
         1-shard gateway diverged from the core loop"
    );
    // The compaction layer was the identity on this dense trace.
    for (i, a) in federated.arrivals().iter().enumerate() {
        assert_eq!(a.shard, 0);
        assert_eq!(a.internal.0 as usize, i);
        assert_eq!(a.external, a.internal);
    }
    // And the federated trim equals the single-cluster trim.
    assert_eq!(
        federated.paper_robustness_pct(),
        single.paper_robustness_pct()
    );
}

#[test]
fn one_shard_batch_is_bit_identical() {
    assert_one_shard_is_the_core(
        HeuristicKind::Mm,
        false,
        false,
        common::test_scale(),
    );
}

#[test]
fn one_shard_batch_pruned_is_bit_identical() {
    assert_one_shard_is_the_core(
        HeuristicKind::Msd,
        true,
        false,
        common::test_scale(),
    );
}

#[test]
fn one_shard_immediate_pruned_is_bit_identical() {
    assert_one_shard_is_the_core(
        HeuristicKind::Mct,
        true,
        false,
        common::test_scale(),
    );
}

#[test]
fn one_shard_traced_carries_the_identical_trace() {
    assert_one_shard_is_the_core(
        HeuristicKind::Mm,
        true,
        true,
        common::test_scale() * 0.5,
    );
}

#[test]
fn n_shard_runs_are_seed_reproducible() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    for policy in 0..2 {
        let run = || -> FederationStats {
            let boxed: Box<dyn RoutePolicy> = match policy {
                0 => Box::new(RoundRobinRoute::new()),
                _ => Box::new(LeastQueuedRoute::new()),
            };
            gateway_stats(
                &cluster,
                &pet,
                HeuristicKind::Mm,
                true,
                false,
                4,
                boxed,
                &tasks,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.unreported(), 0);
        assert_eq!(
            json(&a),
            json(&b),
            "policy #{policy}: federated run diverged between \
             identical runs"
        );
        // The fan-in accounted for every arrival exactly once.
        assert_eq!(a.n_tasks(), tasks.len());
        let merged = a.merged();
        assert_eq!(merged.n_tasks(), tasks.len());
        assert_eq!(merged.unreported(), 0);
    }
}

#[test]
fn shards_see_decorrelated_execution_streams() {
    // With >1 shard the per-shard ground-truth RNGs must differ: a
    // 2-shard round-robin split of one stream must not give both
    // shards identical sampled durations. (Shard 0 keeps the base
    // seed; shard 1 derives.)
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let stats = gateway_stats(
        &cluster,
        &pet,
        HeuristicKind::Mm,
        false,
        false,
        2,
        Box::new(RoundRobinRoute::new()),
        &tasks,
    );
    assert_eq!(stats.per_shard.len(), 2);
    // Both shards did real work.
    for s in &stats.per_shard {
        assert!(s.n_arrived() > 0);
        assert_eq!(s.unreported(), 0);
    }
    let ticks0 = stats.per_shard[0].useful_ticks;
    let ticks1 = stats.per_shard[1].useful_ticks;
    assert_ne!(
        (ticks0, stats.per_shard[0].n_arrived()),
        (ticks1, stats.per_shard[1].n_arrived()),
        "independent shards produced identical tick profiles — \
         RNG streams look correlated"
    );
}

// ---------------------------------------------------------------------
// Property tests: id compaction under sparse / out-of-order / duplicate
// external ids.
// ---------------------------------------------------------------------

use taskprune_model::{TaskId, TaskTypeId};
use taskprune_sim::IdCompactor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compactor round-trip: any assignment sequence (sparse ids,
    /// repeats, arbitrary shard interleaving) yields dense per-shard
    /// internal ids that recover their external id exactly.
    #[test]
    fn compactor_round_trips_any_assignment(
        raw in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let n_shards = 3usize;
        let mut compact = IdCompactor::new(n_shards);
        let mut assigned: Vec<(usize, TaskId, u64)> = Vec::new();
        for (i, r) in raw.iter().enumerate() {
            // Snowflake-ish sparse external id, with forced repeats.
            let external = if i % 7 == 3 && i > 0 {
                assigned[i - 1].2 // duplicate the previous external id
            } else {
                r.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            };
            let shard = (r % n_shards as u64) as usize;
            let internal = compact.assign(shard, TaskId(external));
            assigned.push((shard, internal, external));
        }
        // Internal ids are dense (0..len) per shard, in assignment
        // order.
        let mut next = vec![0u64; n_shards];
        for &(shard, internal, external) in &assigned {
            prop_assert_eq!(internal.0, next[shard]);
            next[shard] += 1;
            // Round-trip.
            prop_assert_eq!(
                compact.external(shard, internal),
                Some(TaskId(external))
            );
        }
        for (s, expected) in next.iter().enumerate() {
            prop_assert_eq!(compact.assigned(s), *expected as usize);
        }
    }

    /// End-to-end: sparse / out-of-order / duplicate external ids pushed
    /// through a live 3-shard gateway arrive with dense internal ids,
    /// round-trip through decisions, and feed an arrival-ordered trim.
    #[test]
    fn gateway_absorbs_hostile_external_ids(
        raw in proptest::collection::vec(any::<u32>(), 4..80),
    ) {
        use taskprune_model::{BinSpec, SimTime};
        use taskprune_prob::Pmf;

        // A deterministic single-machine-per-shard system: every task
        // takes exactly 2 bins, deadlines are huge, so every task that
        // is pushed completes (no execution randomness to entangle the
        // property with).
        let pet = PetMatrix::new(
            BinSpec::new(100),
            1,
            1,
            vec![Pmf::point_mass(2)],
        );
        let cluster = Cluster::one_per_type(1);
        let mut gw = GatewayBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(1))
            .shards(3)
            .policy(LeastQueuedRoute::new())
            .strategy_with(|_| {
                HeuristicKind::FcfsRr.make()
            })
            .build_gateway()
            .expect("valid configuration");

        // Push the hostile stream: sparse ids from arbitrary u32s
        // (some duplicated by construction), all arriving at t=0 —
        // arrival order is the push order, never the id order.
        let mut externals = Vec::new();
        for (i, r) in raw.iter().enumerate() {
            let external = if i % 5 == 4 {
                externals[i - 1] // duplicate
            } else {
                (*r as u64).wrapping_mul(1_000_003)
            };
            externals.push(external);
            let t = Task::new(
                external,
                TaskTypeId(0),
                SimTime(0),
                SimTime(100_000_000),
            );
            gw.push_arrival(t);
        }
        // Drain and complete everything the shards started, in waves.
        loop {
            let starts = gw.drain_starts().to_vec();
            if starts.is_empty() {
                break;
            }
            let t = gw.now();
            gw.advance_to(SimTime(t.ticks() + 200));
            for s in &starts {
                prop_assert!(gw.complete(s.shard, s.machine.id, s.internal));
            }
        }
        let stats = gw.finish();
        prop_assert_eq!(stats.n_tasks(), externals.len());
        prop_assert_eq!(stats.unreported(), 0);
        // The global arrival record preserves push order and the
        // external labels, while internals are dense per shard.
        let mut per_shard_next = [0u64; 3];
        for (i, a) in stats.arrivals().iter().enumerate() {
            prop_assert_eq!(a.external.0, externals[i]);
            prop_assert_eq!(
                a.internal.0,
                per_shard_next[a.shard as usize]
            );
            per_shard_next[a.shard as usize] += 1;
        }
        // Arrival-ordered trim: trimming one task per end removes the
        // first and last *pushed* tasks, so the window robustness
        // matches a hand count over the pushed window.
        let trim = 1usize;
        let on_time_window = stats
            .arrivals()
            .iter()
            .skip(trim)
            .take(externals.len() - 2 * trim)
            .filter(|a| {
                matches!(
                    stats.per_shard[a.shard as usize].outcome(a.internal),
                    Some(TaskOutcome::CompletedOnTime)
                )
            })
            .count();
        let expected = 100.0 * on_time_window as f64
            / (externals.len() - 2 * trim) as f64;
        prop_assert!(
            (stats.robustness_pct(trim) - expected).abs() < 1e-9
        );
    }
}
