//! Function-reuse gate invariants.
//!
//! 1. **Off is invisible.** A gateway built with
//!    `ReusePolicy::Off` (the default) serializes byte-identically to
//!    one that never mentions reuse at all, under both the serial and
//!    the parallel driver, at every (seed, shards, threads) tested —
//!    and an *enabled* gate on a duplicate-free stream is equally
//!    invisible, because a gate that never fires must not perturb the
//!    simulation or the wire shape.
//! 2. **Reuse is driver-agnostic.** With duplicates injected and the
//!    exact gate absorbing them, the parallel driver still serializes
//!    byte-identically to the serial one at every thread count.
//! 3. **Reuse never hurts robustness** (property test): on
//!    duplicate-bearing streams, absorbing duplicates onto in-flight
//!    primaries yields paper-trim robustness no worse than executing
//!    every duplicate — the followers ride completions that arrive no
//!    later than their own queued executions would have.
//! 4. **Healing composes with reuse.** A full-budget supervised run
//!    of an exact-reuse federation under a seeded fault storm
//!    serializes byte-identically to the fault-free reusing run:
//!    piggybacked absorptions journal and replay like any other
//!    arrival. (Supervised
//!    runs use the serial driver; guarantee 2 carries the bytes to the
//!    parallel driver.)
//! 5. **The trace tells the drained story.** A traced shard records
//!    every decision its caller drains, in order, and one more kind of
//!    entry only: a parked follower inheriting its primary's failure.

mod common;

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_model::{SimTime, TaskId};
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::{
    Decision, FedStart, RecoveryActionKind, TraceEvent, TraceLog,
};
use taskprune_workload::TaskStream;

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

/// `tasks` with content-keyed duplicates injected at `rate` from a
/// dedicated duplicate-stream seed.
fn with_duplicates(tasks: &[Task], rate: f64, seed: u64) -> Vec<Task> {
    TaskStream::from_tasks(tasks.to_vec())
        .with_duplicate_rate(rate, seed)
        .collect()
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    shards: usize,
) -> GatewayBuilder<'a, taskprune_sim::NullSink> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
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

/// Runs the federation under `policy` through the serial driver
/// (`threads == None`) or the parallel driver.
fn run(
    cluster: &Cluster,
    pet: &PetMatrix,
    shards: usize,
    threads: Option<usize>,
    policy: ReusePolicy,
    tasks: &[Task],
) -> FederationStats {
    let b = builder(cluster, pet, shards).reuse(policy);
    match threads {
        None => b
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        Some(t) => b
            .threads(t)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    }
}

// ---------------------------------------------------------------------
// Guarantee 1: Off is invisible — the pre-reuse gateway, bit for bit.
// ---------------------------------------------------------------------

/// A builder that never mentions reuse and one with `ReusePolicy::Off`
/// produce byte-identical stats under both drivers, across seeds,
/// shard counts and thread counts — including on duplicate-bearing
/// streams, where an off gate must not absorb anything.
#[test]
fn off_matches_reuse_free_gateway_across_drivers() {
    let scale = common::test_scale();
    for seed in [55u64, 7] {
        let (cluster, pet, base) = fixture(4321 + seed, scale);
        for rate in [0.0, 0.3] {
            let tasks = with_duplicates(&base, rate, 0xD0B1);
            for shards in [1usize, 3] {
                let silent = builder(&cluster, &pet, shards)
                    .build()
                    .expect("valid configuration")
                    .run_stream(tasks.iter().copied());
                assert_eq!(silent.unreported(), 0);
                let reference = json(&silent);
                assert!(
                    !reference.contains("reuse"),
                    "reuse counters must stay off the stats wire shape"
                );
                let off =
                    run(&cluster, &pet, shards, None, ReusePolicy::Off, &tasks);
                assert_eq!(off.reuse_stats(), ReuseStats::default());
                assert_eq!(
                    reference,
                    json(&off),
                    "seed={seed} rate={rate} shards={shards}: explicit \
                     Off diverged from a reuse-free gateway"
                );
                for threads in [1usize, 4] {
                    let par = run(
                        &cluster,
                        &pet,
                        shards,
                        Some(threads),
                        ReusePolicy::Off,
                        &tasks,
                    );
                    assert_eq!(
                        reference,
                        json(&par),
                        "seed={seed} rate={rate} shards={shards} \
                         threads={threads}: parallel Off diverged"
                    );
                }
            }
        }
    }
}

/// An *enabled* gate that never fires is equally invisible: the
/// generated trial has unique content keys, so exact dedup registers
/// every arrival and absorbs none.
#[test]
fn idle_enabled_gate_is_invisible() {
    let (cluster, pet, tasks) = fixture(4376, common::test_scale());
    let silent = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let exact = run(&cluster, &pet, 3, None, ReusePolicy::ExactOnly, &tasks);
    assert_eq!(exact.reuse_stats(), ReuseStats::default());
    assert_eq!(
        json(&silent),
        json(&exact),
        "an exact-dedup gate on a duplicate-free stream must be a no-op"
    );
}

// ---------------------------------------------------------------------
// Guarantee 2: absorbing duplicates is driver-agnostic.
// ---------------------------------------------------------------------

/// With duplicates flowing and the gate absorbing them, the parallel
/// driver matches the serial one byte for byte at every thread count.
#[test]
fn reuse_matches_across_drivers_on_duplicate_streams() {
    let (cluster, pet, base) = fixture(9876, common::test_scale());
    let tasks = with_duplicates(&base, 0.3, 0xD0B1);
    let policy = ReusePolicy::ExactOnly;
    let serial = run(&cluster, &pet, 3, None, policy, &tasks);
    assert_eq!(serial.unreported(), 0);
    assert!(
        serial.reuse_stats().absorbed() > 0,
        "the fixture must actually exercise the gate"
    );
    let serial_json = json(&serial);
    for threads in [1usize, 2, 8] {
        let par = run(&cluster, &pet, 3, Some(threads), policy, &tasks);
        assert_eq!(
            serial_json,
            json(&par),
            "threads={threads}: parallel reuse diverged"
        );
        assert_eq!(par.reuse_stats(), serial.reuse_stats());
    }
}

// ---------------------------------------------------------------------
// Guarantee 3 (property): reuse never lowers robustness.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On duplicate-bearing streams, absorbing exact duplicates yields
    /// robustness no worse than executing every duplicate
    /// independently: followers ride a completion that arrives no
    /// later than their own queued execution would have, and the shed
    /// load speeds everything else up.
    #[test]
    fn reuse_never_lowers_robustness(
        seed in 0u64..1_000,
        rate in 0.1f64..0.4,
        shards in 1usize..4,
    ) {
        let scale = common::test_scale() * 0.5;
        let (cluster, pet, base) = fixture(7_000 + seed, scale);
        let tasks = with_duplicates(&base, rate, seed ^ 0xD0B1);
        let off = run(
            &cluster, &pet, shards, None, ReusePolicy::Off, &tasks,
        );
        let baseline = off.paper_robustness_pct();
        let reused = run(
            &cluster, &pet, shards, None, ReusePolicy::ExactOnly, &tasks,
        );
        prop_assert!(reused.unreported() == 0);
        let got = reused.paper_robustness_pct();
        prop_assert!(
            got >= baseline - 1e-9,
            "robustness fell from {baseline:.3} to {got:.3} at rate \
             {rate:.2}, {shards} shard(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Guarantee 4: healing composes with reuse.
// ---------------------------------------------------------------------

/// A fault storm with a full retry budget heals an exact-reuse run
/// back to byte-identity with the fault-free reusing run: journaled
/// piggybacks replay exactly.
#[test]
fn full_budget_storm_heals_an_exact_reuse_run_bit_identically() {
    let (cluster, pet, base) = fixture(4321, common::test_scale());
    let tasks = with_duplicates(&base, 0.3, 0xD0B1);
    let shards = 3;
    let policy = ReusePolicy::ExactOnly;
    let reference = run(&cluster, &pet, shards, None, policy, &tasks);
    assert!(
        reference.reuse_stats().absorbed() > 0,
        "fixture must actually absorb followers"
    );
    let reference_json = json(&reference);
    let plan = FaultPlan::generate(
        0xFA01,
        &FaultSpec::storm(shards, (tasks.len() / shards).max(8) as u64),
    );
    assert!(!plan.is_empty());
    let healing = RecoveryPolicy {
        retry_budget: 32,
        ..RecoveryPolicy::default()
    };

    let engine = builder(&cluster, &pet, shards)
        .reuse(policy)
        .build()
        .expect("valid configuration");
    let mut sup = Supervisor::new(engine, healing);
    sup.arm(plan);
    let healed = sup.run_stream(tasks.iter().copied());
    assert_eq!(
        reference_json,
        json(&healed),
        "serial healing diverged on an exact-reuse run"
    );
    // Hits and cycles saved are off the wire: compare them too, so a
    // checkpoint that swept a completed primary a later follower still
    // needed would show here.
    assert_eq!(reference.reuse_stats(), healed.reuse_stats());
    assert!(
        healed
            .recovery_log()
            .count(|k| matches!(k, RecoveryActionKind::FaultDetected { .. }))
            > 0,
        "no fault ever fired — widen the storm span"
    );
}

// ---------------------------------------------------------------------
// Guarantee 5: the trace tells the drained story.
// ---------------------------------------------------------------------

/// The outcome a terminal decision records.
fn terminal_outcome(d: Decision) -> TaskOutcome {
    match d {
        Decision::DropReactive { .. } => TaskOutcome::DroppedReactive,
        Decision::DropProbabilistic { .. } => TaskOutcome::DroppedProactive,
        Decision::Reject { .. } => TaskOutcome::Rejected,
        Decision::CancelRunning { .. } => TaskOutcome::CancelledRunning,
        live => panic!("{live:?} ends no task"),
    }
}

/// A traced 2-shard federation absorbing exact duplicates (30 %),
/// driven by hand so the caller sees every drained decision. Each
/// drained decision is a `Decided` entry of its shard's trace about the
/// same shard-internal id, at the same instant, with that instance's
/// external id restored; every other `Decided` entry is a follower that
/// parked on a primary and inherited its failure: the primary took the
/// same decision at the same instant, and the follower's recorded
/// outcome is that decision's.
#[test]
fn undrained_traced_decisions_are_inherited_failures() {
    let (cluster, pet, _) = fixture(4321, common::test_scale());
    // Oversubscribed, so primaries with parked followers get dropped
    // (30 of them here).
    let base = WorkloadConfig {
        total_tasks: 600,
        span_tu: 40.0,
        ..WorkloadConfig::paper_default(4321)
    }
    .generate_trial(&pet, 0)
    .tasks;
    let tasks = with_duplicates(&base, 0.3, 0xD0B1);
    let mut gateway = builder(&cluster, &pet, 2)
        .reuse(ReusePolicy::ExactOnly)
        .sink_with(|_| TraceLog::new(1 << 20, 16))
        .build_gateway()
        .expect("valid configuration");
    let mut rng = Xoshiro256PlusPlus::new(55);
    // In-flight executions by (finish, start order).
    let mut in_flight: BTreeMap<(SimTime, usize), FedStart> = BTreeMap::new();
    let mut started = 0;
    // (shard, follower) → the primary it parked on.
    let mut followers = HashMap::new();
    // Drained decisions by (shard, internal id), oldest first.
    let mut drained: HashMap<(usize, TaskId), VecDeque<_>> = HashMap::new();
    let mut source = tasks.iter().copied().peekable();
    loop {
        let next_finish = in_flight.keys().next().map(|&(t, _)| t);
        match (next_finish, source.peek().map(|t| t.arrival)) {
            (None, None) => {
                let stuck = (0..2)
                    .filter_map(|s| {
                        gateway.earliest_pending_deadline(s).map(|d| (d, s))
                    })
                    .min();
                let Some((deadline, shard)) = stuck else {
                    break;
                };
                let now = gateway.now();
                gateway
                    .advance_to(SimTime(deadline.ticks().max(now.ticks()) + 1));
                gateway.wakeup(shard);
            }
            (Some(finish), arrival) if arrival.is_none_or(|a| finish <= a) => {
                let (_, start) = in_flight.pop_first().expect("peeked");
                gateway.advance_to(finish);
                gateway.complete_internal(&start);
            }
            _ => {
                let task = source.next().expect("peeked");
                gateway.advance_to(task.arrival);
                if let Admission::Piggybacked {
                    shard,
                    primary,
                    internal,
                } = gateway.push_arrival(task)
                {
                    followers.insert((shard, internal), primary);
                }
            }
        }
        let now = gateway.now();
        for d in gateway.drain_decisions() {
            drained
                .entry((d.shard, d.internal))
                .or_default()
                .push_back((now, d.decision));
        }
        for start in gateway.drain_starts() {
            let duration = pet.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut rng,
            );
            in_flight.insert((now + duration, started), *start);
            started += 1;
        }
    }
    let stats = gateway.finish();
    assert_eq!(stats.unreported(), 0);

    let mut inherited = 0;
    for (shard, record) in stats.per_shard.iter().enumerate() {
        let external: HashMap<TaskId, TaskId> = stats
            .arrivals()
            .iter()
            .filter(|a| a.shard as usize == shard)
            .map(|a| (a.internal, a.external))
            .collect();
        let trace = record.trace.as_ref().expect("the shard was traced");
        assert_eq!(trace.dropped_events, 0, "shard {shard}: ring overflowed");
        let decided: Vec<(SimTime, Decision)> = trace
            .events()
            .filter_map(|&(at, e)| match e {
                TraceEvent::Decided(d) => Some((at, d)),
                _ => None,
            })
            .collect();
        for (k, &(at, d)) in decided.iter().enumerate() {
            let relabelled = (at, d.with_task(external[&d.task()]));
            if let Some(instance) = drained.get_mut(&(shard, d.task())) {
                if instance.front() == Some(&relabelled) {
                    instance.pop_front();
                    continue;
                }
            }
            let primary =
                followers.get(&(shard, d.task())).unwrap_or_else(|| {
                    panic!("shard {shard}: {d:?} at {at:?} was never drained")
                });
            assert!(
                decided[..k].contains(&(at, d.with_task(*primary))),
                "shard {shard}: follower {d:?} at {at:?} without its primary"
            );
            assert_eq!(
                record.outcome(d.task()),
                Some(terminal_outcome(d)),
                "shard {shard}: follower {d:?}"
            );
            inherited += 1;
        }
    }
    for ((shard, internal), missing) in &drained {
        assert!(
            missing.is_empty(),
            "shard {shard}: drained {missing:?} about {internal:?} is \
             missing from the trace"
        );
    }
    assert!(inherited > 0, "the fixture must fan a failure out");
}
