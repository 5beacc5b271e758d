//! Live resharding ≡ a fresh federation: pausing a K-shard run at an
//! arrival watermark and re-splitting its history across K′ shards must
//! be invisible in the outcome record.
//!
//! The contract under test (ISSUE pin b): a federation paused at
//! watermark `w`, whose gateway snapshot verifies, and whose logged
//! arrival prefix is re-routed through a freshly built K′-shard
//! federation followed by the rest of the stream, produces a serialized
//! `FederationStats` — outcome tables, counters, the global arrival
//! record, and the full per-shard `TraceLog` — **byte-identical** to an
//! uninterrupted K′-shard run of the same stream. Both drivers are
//! pinned: the serial `FederatedEngine` (`run_until` + `arrival_log`)
//! and the `ParallelFederatedEngine` (`ingest_prefix`), plus the
//! `ResourceAllocator` facade over both.
//!
//! The corruption half (ISSUE pin c): a sealed [`Snapshot`] whose
//! payload is tampered with after sealing is rejected with
//! [`SnapshotError::HashMismatch`] — by `verify()` at the watermark and
//! by `recover_shard` at the next recovery point. Tampering has to go
//! through the serialized form (fields are private), exactly like an
//! attacker flipping bits in a checkpoint file would.

mod common;

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{FederatedEngine, Snapshot, SnapshotError, TraceLog};

fn fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_500, scale) as usize,
        span_tu: common::scaled(260, scale) as f64,
        ..WorkloadConfig::paper_default(4321)
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
        1 => Box::new(LeastQueuedRoute::new()),
        _ => Box::new(BestChanceRoute::new()),
    }
}

/// The traced + pruned federation under test: every run carries the
/// full per-shard `TraceLog` through the serialized comparison, so a
/// reshard perturbing even one event timestamp would show.
fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    shards: usize,
    policy: usize,
) -> GatewayBuilder<'a, TraceLog> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(shards)
        .policy_boxed(policy_by_index(policy))
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .sink_with(|_| TraceLog::new(1_000_000, 4))
}

/// Serial driver: pause a 4-shard run at the watermark, verify the
/// gateway snapshot, re-split the logged history across 3 shards, and
/// compare against an uninterrupted 3-shard run — for stateless and
/// lockstep routing, at an early and a midpoint watermark (including
/// `w = 0`, the degenerate "reshard before anything happened" case).
#[test]
fn serial_reshard_matches_the_uninterrupted_target_shard_count() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    for policy in [0usize, 1] {
        let reference = builder(&cluster, &pet, 3, policy)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        assert_eq!(reference.unreported(), 0);
        let reference_json = json(&reference);
        for watermark in [0u64, (tasks.len() / 2) as u64] {
            let mut engine = builder(&cluster, &pet, 4, policy)
                .build()
                .expect("valid configuration");
            engine.enable_arrival_log();
            let mut source = tasks.iter().copied().peekable();
            engine.run_until(&mut source, watermark);
            assert_eq!(engine.arrivals_ingested(), watermark);
            engine
                .snapshot_gateway()
                .verify()
                .expect("pause-point gateway snapshot verifies");
            let logged: Vec<Task> = engine.arrival_log().to_vec();
            assert_eq!(logged.len() as u64, watermark);
            drop(engine); // the 4-shard federation is gone
            let resharded = builder(&cluster, &pet, 3, policy)
                .build()
                .expect("valid configuration")
                .run_stream(logged.into_iter().chain(source));
            assert_eq!(
                reference_json,
                json(&resharded),
                "policy #{policy} watermark={watermark}: reshard 4→3 \
                 diverged from an uninterrupted 3-shard run"
            );
        }
    }
}

/// Parallel driver: same contract through `ingest_prefix` — the
/// pause-point for a pool-driven federation — across thread counts and
/// both scheduling regimes (stateless mailbox fill vs lockstep epochs).
#[test]
fn parallel_reshard_matches_the_uninterrupted_target_shard_count() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let split = tasks.len() / 2;
    for policy in [0usize, 1] {
        for threads in [1usize, 2] {
            let reference = builder(&cluster, &pet, 2, policy)
                .threads(threads)
                .build_parallel()
                .expect("valid configuration")
                .run_stream(tasks.iter().copied());
            let mut engine = builder(&cluster, &pet, 3, policy)
                .threads(threads)
                .build_parallel()
                .expect("valid configuration");
            engine.enable_arrival_log();
            engine.ingest_prefix(tasks[..split].iter().copied());
            engine
                .snapshot_gateway()
                .verify()
                .expect("pause-point gateway snapshot verifies");
            let logged: Vec<Task> = engine.arrival_log().to_vec();
            assert_eq!(logged.len(), split);
            drop(engine);
            let resharded = builder(&cluster, &pet, 2, policy)
                .threads(threads)
                .build_parallel()
                .expect("valid configuration")
                .run_stream(
                    logged.into_iter().chain(tasks[split..].iter().copied()),
                );
            assert_eq!(
                json(&reference),
                json(&resharded),
                "policy #{policy} threads={threads}: parallel reshard \
                 3→2 diverged from an uninterrupted 2-shard run"
            );
        }
    }
}

/// The `ResourceAllocator` facade over both drivers. The pre-reshard
/// policy is deliberately *different* from the successor's: only the
/// logged history crosses the reshard boundary, so the old federation's
/// routing choices must not leak into the outcome.
#[test]
fn facade_elastic_reshard_matches_the_uninterrupted_run() {
    let pet = PetGenConfig::paper_heterogeneous(3).generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let tasks = WorkloadConfig {
        total_tasks: common::scaled(1_200, common::test_scale()) as usize,
        span_tu: common::scaled(200, common::test_scale()) as f64,
        ..WorkloadConfig::paper_default(8)
    }
    .generate_trial(&pet, 0)
    .tasks;
    let alloc = || {
        ResourceAllocator::new(&cluster, &pet, SimConfig::batch(2))
            .heuristic(HeuristicKind::Mm)
            .pruning(PruningConfig::paper_default())
    };
    let watermark = (tasks.len() / 2) as u64;
    let reference = alloc()
        .try_run_federated(2, Box::new(RoundRobinRoute::new()), &tasks)
        .expect("valid federated configuration");
    let reference_json = json(&reference);

    let serial = alloc()
        .try_run_federated_elastic(
            3,
            2,
            watermark,
            Box::new(LeastQueuedRoute::new()),
            Box::new(RoundRobinRoute::new()),
            &tasks,
        )
        .expect("valid elastic configuration");
    assert_eq!(
        reference_json,
        json(&serial),
        "serial facade reshard diverged from try_run_federated"
    );

    let parallel = alloc()
        .try_run_federated_elastic_parallel(
            3,
            2,
            Some(2),
            watermark,
            Box::new(LeastQueuedRoute::new()),
            Box::new(RoundRobinRoute::new()),
            &tasks,
        )
        .expect("valid elastic configuration");
    assert_eq!(
        reference_json,
        json(&parallel),
        "parallel facade reshard diverged from try_run_federated"
    );
}

// ---------------------------------------------------------------------
// Corruption: the state hash is the desync detector.
// ---------------------------------------------------------------------

/// Flips the low bit of the first integer leaf in a `Value` tree.
/// Returns `false` when the tree holds no integer to corrupt.
fn corrupt_first_uint(v: &mut serde::Value) -> bool {
    match v {
        serde::Value::UInt(x) => {
            *x ^= 1;
            true
        }
        serde::Value::Int(x) => {
            *x ^= 1;
            true
        }
        serde::Value::Array(items) => items.iter_mut().any(corrupt_first_uint),
        serde::Value::Object(fields) => {
            fields.iter_mut().any(|(_, v)| corrupt_first_uint(v))
        }
        _ => false,
    }
}

/// Round-trips a sealed snapshot through its serialized form with one
/// payload bit flipped — the only way to tamper, since the fields are
/// private and `seal` always stamps a fresh hash.
fn tampered(snap: &Snapshot) -> Snapshot {
    use serde::{Deserialize, Serialize};
    let mut v = snap.to_value();
    let serde::Value::Object(fields) = &mut v else {
        panic!("snapshots serialize as objects");
    };
    let payload = fields
        .iter_mut()
        .find(|(k, _)| k == "payload")
        .map(|(_, v)| v)
        .expect("payload field present");
    assert!(
        corrupt_first_uint(payload),
        "payload holds at least one integer leaf"
    );
    Snapshot::from_value(&v)
        .expect("decode is hash-agnostic — tampering is caught by verify")
}

/// A tampered gateway snapshot fails `verify()` at the watermark with
/// `HashMismatch`, while the untouched one passes.
#[test]
fn tampered_gateway_snapshot_is_rejected_at_the_watermark() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let mut engine = builder(&cluster, &pet, 3, 0)
        .build()
        .expect("valid configuration");
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 2) as u64);
    let snap = engine.snapshot_gateway();
    snap.verify().expect("the untampered snapshot verifies");
    let bad = tampered(&snap);
    assert_eq!(bad.state_hash(), snap.state_hash(), "envelope untouched");
    match bad.verify() {
        Err(SnapshotError::HashMismatch { expected, found }) => {
            assert_eq!(expected, snap.state_hash());
            assert_ne!(found, expected);
        }
        other => panic!("expected HashMismatch, got {other:?}"),
    }
}

/// A tampered *shard checkpoint* is rejected by `recover_shard` at the
/// next recovery point — the corruption never reaches the core — and
/// the error threads through the facade's `RunError` via `?`.
#[test]
fn tampered_checkpoint_is_rejected_on_recovery() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let mut engine = builder(&cluster, &pet, 3, 0)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);
    let err = engine
        .recover_shard(1, &tampered(&snap))
        .expect_err("a corrupted checkpoint must not restore");
    assert!(
        matches!(
            err,
            taskprune_sim::RunError::Snapshot(
                SnapshotError::HashMismatch { .. }
            )
        ),
        "expected HashMismatch, got {err:?}"
    );
    assert!(!err.to_string().is_empty());
    // The untampered checkpoint still recovers the shard fine.
    engine
        .recover_shard(1, &snap)
        .expect("the genuine checkpoint restores");
    let stats = engine.finish_stream(&mut source);
    assert_eq!(stats.unreported(), 0);
}

// ---------------------------------------------------------------------
// Coordinator snapshots: hostile payloads and an earlier build's
// capture.
// ---------------------------------------------------------------------

/// The small supervised federation the coordinator-snapshot tests run
/// (and the one `tests/fixtures/coordinator_legacy.json` was captured
/// from): 3 least-queued shards of MM, trial 0 of a 120-task workload.
fn coordinator_setup() -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 120,
        span_tu: 20.0,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn coordinator_engine<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> FederatedEngine<'a> {
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(5))
        .shards(3)
        .policy(LeastQueuedRoute::new())
        .strategy_with(|_| HeuristicKind::Mm.make())
        .build()
        .expect("valid configuration")
}

/// The named field of a `Value` object.
fn field<'v>(v: &'v mut serde::Value, name: &str) -> &'v mut serde::Value {
    let serde::Value::Object(fields) = v else {
        panic!("expected an object holding `{name}`");
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .expect("field present")
}

/// The earliest pending event of a coordinator payload.
fn first_event(payload: &mut serde::Value) -> &mut serde::Value {
    let serde::Value::Array(events) = field(payload, "events") else {
        panic!("events is an array");
    };
    events
        .first_mut()
        .expect("the pause leaves events in flight")
}

/// Replaces (or inserts) one field of a coordinator payload's nested
/// gateway payload and re-seals the gateway envelope.
fn set_gateway_field(
    payload: &mut serde::Value,
    name: &str,
    value: serde::Value,
) {
    let gateway = field(payload, "gateway");
    let snap: Snapshot = serde::Deserialize::from_value(gateway)
        .expect("the gateway envelope decodes");
    let mut inner = snap.payload().clone();
    let serde::Value::Object(fields) = &mut inner else {
        panic!("the gateway payload is an object");
    };
    match fields.iter_mut().find(|(k, _)| k == name) {
        Some((_, v)) => *v = value,
        None => fields.push((name.to_owned(), value)),
    }
    *gateway = serde::Serialize::to_value(&Snapshot::seal("gateway", inner));
}

/// A coordinator payload that decodes but does not describe a
/// federation — an event on a shard that does not exist or due before
/// the clock, a pending count that disagrees with the events, an event
/// kind no driver schedules — is rejected with a typed error, never a
/// panic and never a silently different run. So is one that carries
/// state of the bounded-staleness routing and batch-stealing layer
/// this build no longer has: a stale view table, non-zero steal
/// counters, a journaled steal. Each mutated payload is re-sealed, so
/// it passes `verify` and only the restore's own checks stand between
/// it and the engine.
#[test]
fn hostile_coordinator_snapshots_are_typed_errors() {
    let (cluster, pet, tasks) = coordinator_setup();
    let mut engine = coordinator_engine(&cluster, &pet);
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, 60);
    let genuine = engine.snapshot_coordinator().payload().clone();
    let restore = |payload: serde::Value| {
        coordinator_engine(&cluster, &pet).restore_coordinator(&Snapshot::seal(
            "federated-coordinator",
            payload,
        ))
    };
    restore(genuine.clone()).expect("the genuine payload restores");

    // An event names shard 7 of 3.
    let mut p = genuine.clone();
    *field(first_event(&mut p), "shard") = serde::Value::UInt(7);
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "an event on a missing shard must be a shape mismatch"
    );

    // An event due before the federation clock (time never rewinds).
    let mut p = genuine.clone();
    *field(first_event(&mut p), "time") = serde::Value::UInt(0);
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "an event in the past must be a shape mismatch"
    );

    // A pending count of zero for a shard that has events.
    let mut p = genuine.clone();
    let serde::Value::Array(pending) = field(&mut p, "pending") else {
        panic!("pending is an array");
    };
    let busy = pending
        .iter_mut()
        .find(|n| !matches!(n, serde::Value::UInt(0)))
        .expect("the pause leaves events in flight");
    *busy = serde::Value::UInt(0);
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "a pending count that disagrees with the events must be rejected"
    );

    // An event of a kind no driver schedules.
    let mut p = genuine.clone();
    *field(first_event(&mut p), "kind") = serde::Value::Object(vec![(
        "Arrival".to_owned(),
        serde::Value::Object(vec![("task".to_owned(), serde::Value::UInt(0))]),
    )]);
    assert!(
        matches!(restore(p), Err(SnapshotError::Decode(_))),
        "an arrival event must fail to decode"
    );

    // Every event dropped, the pending counts kept.
    let mut p = genuine.clone();
    *field(&mut p, "events") = serde::Value::Array(Vec::new());
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "emptied events under non-zero pending counts must be rejected"
    );

    let obj = |fields: Vec<(&str, serde::Value)>| {
        serde::Value::Object(
            fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        )
    };

    // The gateway routed on a stale view table.
    let mut p = genuine.clone();
    set_gateway_field(
        &mut p,
        "stale",
        obj(vec![
            ("epoch", serde::Value::UInt(0)),
            ("shards", serde::Value::Array(Vec::new())),
        ]),
    );
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "a stale view table must be a shape mismatch"
    );

    // The gateway recorded batch-queue steals.
    let mut p = genuine.clone();
    set_gateway_field(
        &mut p,
        "steals",
        obj(["steals", "tasks_moved", "steal_points", "view_refreshes"]
            .into_iter()
            .map(|k| (k, serde::Value::UInt(1)))
            .collect()),
    );
    assert!(
        matches!(restore(p), Err(SnapshotError::ShapeMismatch { .. })),
        "non-zero steal counters must be a shape mismatch"
    );

    // A shard journal holds a steal.
    let mut p = genuine;
    let journal =
        |entries| obj(vec![("entries", serde::Value::Array(entries))]);
    let steal = obj(vec![
        ("time", serde::Value::UInt(0)),
        (
            "op",
            obj(vec![("Steal", obj(vec![("task", serde::Value::UInt(0))]))]),
        ),
    ]);
    *field(&mut p, "journals") = serde::Value::Array(vec![
        journal(vec![steal]),
        journal(Vec::new()),
        journal(Vec::new()),
    ]);
    assert!(
        matches!(restore(p), Err(SnapshotError::Decode(_))),
        "a journaled steal must fail to decode"
    );
}

/// A coordinator snapshot captured by an earlier build (one global
/// event heap instead of per-shard lanes, same wire format) restores
/// into this one and finishes the run exactly as an uninterrupted
/// supervised run does. Captured with the setup above, supervised
/// under `RecoveryPolicy::default()` and paused at 60 arrivals.
#[test]
fn legacy_coordinator_snapshot_resumes_bit_identically() {
    let (cluster, pet, tasks) = coordinator_setup();
    let reference = Supervisor::new(
        coordinator_engine(&cluster, &pet),
        RecoveryPolicy::default(),
    )
    .run_stream(tasks.iter().copied());
    assert_eq!(reference.unreported(), 0);

    let snap: Snapshot =
        serde_json::from_str(include_str!("fixtures/coordinator_legacy.json"))
            .expect("the fixture decodes");
    let mut engine = coordinator_engine(&cluster, &pet);
    engine
        .restore_coordinator(&snap)
        .expect("an earlier build's capture restores");
    assert_eq!(engine.arrivals_ingested(), 60);
    let mut source = tasks[60..].iter().copied().peekable();
    let resumed = Supervisor::new(engine, RecoveryPolicy::default())
        .finish_stream(&mut source);
    assert_eq!(
        json(&reference),
        json(&resumed),
        "the restored capture diverged from the uninterrupted run"
    );
}

// ---------------------------------------------------------------------
// Property test: resharding under hostile external ids.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bursts of simultaneous arrivals with sparse/duplicate external
    /// ids and oscillating deadlines reshard 3→2 bit-identically under
    /// both drivers, at a watermark derived from the stream itself.
    #[test]
    fn hostile_streams_reshard_bit_identically(
        raw in proptest::collection::vec((any::<u32>(), 0u64..3), 8..48),
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
        let watermark = stream.len() / 2;

        let build = |shards: usize| {
            GatewayBuilder::new(&cluster, &pet)
                .config(SimConfig::batch(9))
                .shards(shards)
                .policy(RoundRobinRoute::new())
                .strategy_with(|_| HeuristicKind::FcfsRr.make())
                .pruner_with(|_| {
                    Box::new(PruningMechanism::new(
                        PruningConfig::paper_default(),
                        2,
                    ))
                })
                .sink_with(|_| TraceLog::new(100_000, 4))
        };

        let reference = build(2)
            .build()
            .expect("valid configuration")
            .run_stream(stream.iter().copied());
        prop_assert_eq!(reference.unreported(), 0);
        let reference_json = json(&reference);

        // Serial reshard 3→2.
        let mut engine =
            build(3).build().expect("valid configuration");
        engine.enable_arrival_log();
        let mut source = stream.iter().copied().peekable();
        engine.run_until(&mut source, watermark as u64);
        engine.snapshot_gateway().verify().expect("snapshot verifies");
        let logged: Vec<Task> = engine.arrival_log().to_vec();
        drop(engine);
        let serial = build(2)
            .build()
            .expect("valid configuration")
            .run_stream(logged.into_iter().chain(source));
        prop_assert_eq!(
            &reference_json,
            &json(&serial),
            "serial reshard diverged on a hostile stream"
        );

        // Parallel reshard 3→2 on 2 threads.
        let mut engine = build(3)
            .threads(2)
            .build_parallel()
            .expect("valid configuration");
        engine.enable_arrival_log();
        engine.ingest_prefix(stream[..watermark].iter().copied());
        engine.snapshot_gateway().verify().expect("snapshot verifies");
        let logged: Vec<Task> = engine.arrival_log().to_vec();
        drop(engine);
        let parallel = build(2)
            .threads(2)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(
                logged.into_iter().chain(stream[watermark..].iter().copied()),
            );
        prop_assert_eq!(
            &reference_json,
            &json(&parallel),
            "parallel reshard diverged on a hostile stream"
        );
    }
}

#[test]
#[ignore = "full-size reshard sweep; run with --ignored"]
fn full_scale_reshard_matches_uninterrupted() {
    let (cluster, pet, tasks) = fixture(1.0);
    for policy in [0usize, 1, 2] {
        let reference = builder(&cluster, &pet, 3, policy)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        let mut engine = builder(&cluster, &pet, 4, policy)
            .build()
            .expect("valid configuration");
        engine.enable_arrival_log();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, (tasks.len() / 2) as u64);
        engine
            .snapshot_gateway()
            .verify()
            .expect("snapshot verifies");
        let logged: Vec<Task> = engine.arrival_log().to_vec();
        drop(engine);
        let resharded = builder(&cluster, &pet, 3, policy)
            .build()
            .expect("valid configuration")
            .run_stream(logged.into_iter().chain(source));
        assert_eq!(json(&reference), json(&resharded), "policy #{policy}");
    }
}
