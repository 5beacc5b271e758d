//! Checkpoints that must not restore, and one that must.
//!
//! Corruption: a sealed [`Snapshot`] whose payload is tampered with
//! after sealing is rejected with [`SnapshotError::HashMismatch`] — by
//! `verify()` at a paused watermark and by `recover_shard` at the next
//! recovery point. Tampering has to go through the serialized form
//! (fields are private), exactly like an attacker flipping bits in a
//! checkpoint file would.
//!
//! Coordinator snapshots: a re-sealed payload that does not describe a
//! federation decodes to a typed error, and an earlier build's capture
//! resumes bit-identically.

mod common;

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

/// The traced + pruned 3-shard federation the corruption tests pause.
fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> GatewayBuilder<'a, TraceLog> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(3)
        .policy(RoundRobinRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .sink_with(|_| TraceLog::new(1_000_000, 4))
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
    let mut engine = builder(&cluster, &pet)
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
    let mut engine = builder(&cluster, &pet)
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
/// kind no driver schedules, a journaled ladder step above the top
/// rung — is rejected with a typed error, never a panic and never a
/// silently different run. So is one that carries state of the
/// bounded-staleness routing and batch-stealing layer this build no
/// longer has: a stale view table, non-zero steal counters, a
/// journaled steal. Each mutated payload is re-sealed, so
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

    let journal =
        |entries| obj(vec![("entries", serde::Value::Array(entries))]);
    let with_rung_step = |rung: u64| {
        let step = obj(vec![
            ("time", serde::Value::UInt(0)),
            (
                "op",
                obj(vec![(
                    "SlaRung",
                    obj(vec![("rung", serde::Value::UInt(rung))]),
                )]),
            ),
        ]);
        let mut p = genuine.clone();
        *field(&mut p, "journals") = serde::Value::Array(vec![
            journal(vec![step]),
            journal(Vec::new()),
            journal(Vec::new()),
        ]);
        p
    };

    // A shard journal holds a step to rung 4 of 0..=3.
    restore(with_rung_step(3)).expect("a step to the top rung restores");
    assert!(
        matches!(
            restore(with_rung_step(4)),
            Err(SnapshotError::ShapeMismatch { .. })
        ),
        "a journaled rung above the top rung must be a shape mismatch"
    );

    // A shard journal holds a steal.
    let mut p = genuine;
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
