//! Checkpoints that must not restore.
//!
//! Corruption: a sealed [`Snapshot`] whose payload is tampered with
//! after sealing is rejected with
//! [`SnapshotError::HashMismatch`] — by `verify()` at a paused
//! watermark and by `recover_shard` at the next recovery point.
//! Tampering has to go through the serialized form (fields are
//! private), exactly like an attacker flipping bits in a checkpoint
//! file would.
//!
//! Malformed outcome records: a shard checkpoint re-sealed around an
//! outcome history that does not describe one run is a
//! [`SnapshotError::ShapeMismatch`] at recovery, never a panic in the
//! journal replay and never a run resumed on misaligned tables.
//!
//! Coordinator snapshots: a re-sealed payload that does not describe a
//! federation is a typed error, and an earlier build's capture is
//! refused by its version.
//!
//! Generative: a shard checkpoint, or a coordinator capture with every
//! nested envelope, with any one node changed and re-sealed either
//! restores or is a typed error; the restore and the rest of the run
//! never panic. Truncated: every prefix of a shard checkpoint's JSON
//! text is a decode error, never a panic.

mod common;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_prob::rng::SplitMix64;
use taskprune_sim::{
    FaultPlan, FederatedEngine, LadderConfig, RateLimit, SlaClass, Snapshot,
    SnapshotError, TenancyPolicy, TenantSpec, TraceLog,
};

/// Fixture scale of the shard-checkpoint tests, whatever
/// `TASKPRUNE_TEST_SCALE` says: 900 tasks.
const CHECKPOINT_SCALE: f64 = 0.6;

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

fn is_hash_mismatch(err: &taskprune_sim::RunError) -> bool {
    matches!(
        err,
        taskprune_sim::RunError::Snapshot(SnapshotError::HashMismatch { .. })
    )
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

/// A tampered *shard checkpoint*, with one bit flipped in its payload,
/// is rejected by `recover_shard` at the next recovery point — the
/// corruption never reaches the core — and the error threads through
/// the facade's `RunError` via `?`.
#[test]
fn tampered_checkpoint_is_rejected_on_recovery() {
    let (cluster, pet, tasks) = fixture(CHECKPOINT_SCALE);
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
    assert!(is_hash_mismatch(&err), "expected HashMismatch, got {err:?}");
    assert!(!err.to_string().is_empty());
    // The untampered checkpoint still recovers the shard fine.
    engine
        .recover_shard(1, &snap)
        .expect("the genuine checkpoint restores");
    let stats = engine.finish_stream(&mut source);
    assert_eq!(stats.unreported(), 0);
}

/// Re-seals a shard checkpoint around an `edit`ed payload, so it
/// passes `verify` and only the restore's own checks stand between it
/// and the core.
fn resealed(snap: &Snapshot, edit: impl FnOnce(&mut serde::Value)) -> Snapshot {
    let mut payload = snap.payload().clone();
    edit(&mut payload);
    Snapshot::seal("scheduler-core", payload)
}

/// The array under `stats.<table>` of a core payload.
fn table<'v>(
    payload: &'v mut serde::Value,
    name: &str,
) -> &'v mut Vec<serde::Value> {
    let serde::Value::Array(items) = field(field(payload, "stats"), name)
    else {
        panic!("stats.{name} is an array");
    };
    items
}

/// Outcome records that do not describe one run are typed errors at
/// recovery. The first three inputs restored at an earlier build:
/// per-type counters cut to one entry (the journal replay then indexed
/// past them and panicked), an unresolved id marked on time (the
/// replay then panicked with "finished twice"), and a type table half
/// the length of the outcome table (the run went on, on misaligned
/// tables). So did an arrival order whose last entry repeats the one
/// before it: the run finished, with a different record than the
/// uninterrupted run's. After every rejection the genuine checkpoint
/// still recovers the shard, and the run finishes exactly as an
/// uninterrupted one.
#[test]
fn malformed_outcome_records_are_typed_errors() {
    let (cluster, pet, tasks) = fixture(CHECKPOINT_SCALE);
    let reference = builder(&cluster, &pet)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let mut engine = builder(&cluster, &pet)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);

    type Edit = fn(&mut serde::Value);
    let cases: Vec<(&str, Edit)> = vec![
        ("per_type cut to one entry", |p| {
            table(p, "per_type").truncate(1);
        }),
        ("an unresolved id marked on time", |p| {
            let types = table(p, "types").clone();
            let outcomes = table(p, "outcomes");
            let open = (0..outcomes.len())
                .find(|&i| {
                    outcomes[i] == serde::Value::Null
                        && types[i] != serde::Value::Null
                })
                .expect("the pause leaves an arrived task unresolved");
            outcomes[open] = serde::Value::Str("CompletedOnTime".to_owned());
        }),
        ("types cut to half the outcomes", |p| {
            let half = table(p, "outcomes").len() / 2;
            table(p, "types").truncate(half);
        }),
        ("an arrival-order id past the tables", |p| {
            table(p, "arrival_order")[0] = serde::Value::UInt(1 << 40);
        }),
        ("an arrival order that repeats one id", |p| {
            let order = table(p, "arrival_order");
            let last = order.len() - 1;
            order[last] = order[last - 1].clone();
        }),
    ];
    for (name, edit) in cases {
        let err = engine
            .recover_shard(1, &resealed(&snap, edit))
            .expect_err(name);
        assert!(
            matches!(
                err,
                taskprune_sim::RunError::Snapshot(
                    SnapshotError::ShapeMismatch { .. }
                )
            ),
            "{name}: expected ShapeMismatch, got {err:?}"
        );
    }
    engine
        .recover_shard(1, &resealed(&snap, |_| {}))
        .expect("the re-sealed genuine checkpoint restores");
    assert_eq!(
        json(&reference),
        json(&engine.finish_stream(&mut source)),
        "recovery after the rejected checkpoints diverged"
    );
}

/// The `k`-th live task of a core payload, counting the batch queue,
/// then each machine's running task and waiting list.
fn live_task(payload: &mut serde::Value, k: usize) -> &mut serde::Value {
    let serde::Value::Object(fields) = payload else {
        panic!("core payloads are objects");
    };
    let mut live: Vec<&mut serde::Value> = Vec::new();
    for (name, v) in fields.iter_mut() {
        match (name.as_str(), v) {
            ("arrival_queue", serde::Value::Array(batch)) => live.extend(batch),
            ("queues", serde::Value::Array(queues)) => {
                for q in queues {
                    let serde::Value::Object(q) = q else {
                        panic!("queue payloads are objects");
                    };
                    for (name, v) in q.iter_mut() {
                        match (name.as_str(), v) {
                            ("running", serde::Value::Array(running)) => {
                                live.push(&mut running[0]);
                            }
                            ("waiting", serde::Value::Array(waiting)) => {
                                live.extend(waiting);
                            }
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }
    live.into_iter()
        .nth(k)
        .expect("the pause leaves two tasks live on the shard")
}

/// Live tasks and clocks the rest of a checkpoint does not back are
/// typed errors at recovery. At an earlier build each of these
/// restored and then panicked: a live task's type out of the PET's
/// range (an index past the per-type counters), its id past the tables
/// ("jumps far past"), its id moved onto another live task ("finished
/// twice"), the clock past the journal ("time ran backwards"), a
/// running task started at the end of the clock (its completion's
/// execution time underflowed). After every rejection the genuine
/// checkpoint still recovers the shard, and the run finishes exactly
/// as an uninterrupted one.
#[test]
fn live_tasks_and_clocks_the_record_does_not_back_are_typed_errors() {
    let (cluster, pet, tasks) = fixture(CHECKPOINT_SCALE);
    let reference = builder(&cluster, &pet)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let mut engine = builder(&cluster, &pet)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);

    type Edit = fn(&mut serde::Value);
    let cases: Vec<(&str, Edit)> = vec![
        ("a live task's type past the PET", |p| {
            *field(live_task(p, 0), "type_id") = serde::Value::UInt(99);
        }),
        ("a live task's id past the tables", |p| {
            *field(live_task(p, 0), "id") = serde::Value::UInt(u64::MAX);
        }),
        ("a live task's id moved onto the next one", |p| {
            let next = field(live_task(p, 1), "id").clone();
            *field(live_task(p, 0), "id") = next;
        }),
        ("the clock past the journal", |p| {
            *field(p, "now") = serde::Value::UInt(u64::MAX / 2);
        }),
        ("a running task started at the end of the clock", |p| {
            let serde::Value::Array(queues) = field(p, "queues") else {
                panic!("queues is an array");
            };
            let start = queues
                .iter_mut()
                .find_map(|q| match field(q, "running") {
                    serde::Value::Array(running) => Some(&mut running[1]),
                    _ => None,
                })
                .expect("the pause leaves a machine busy");
            *start = serde::Value::UInt(u64::MAX);
        }),
    ];
    for (name, edit) in cases {
        let err = engine
            .recover_shard(1, &resealed(&snap, edit))
            .expect_err(name);
        assert!(
            matches!(
                err,
                taskprune_sim::RunError::Snapshot(
                    SnapshotError::ShapeMismatch { .. }
                )
            ),
            "{name}: expected ShapeMismatch, got {err:?}"
        );
    }
    engine
        .recover_shard(1, &resealed(&snap, |_| {}))
        .expect("the re-sealed genuine checkpoint restores");
    assert_eq!(
        json(&reference),
        json(&engine.finish_stream(&mut source)),
        "recovery after the rejected checkpoints diverged"
    );
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

/// The earliest pending event of a coordinator payload.
fn first_event(payload: &mut serde::Value) -> &mut serde::Value {
    let serde::Value::Array(events) = field(payload, "events") else {
        panic!("events is an array");
    };
    events
        .first_mut()
        .expect("the pause leaves events in flight")
}

/// Edits a coordinator payload's nested gateway payload and re-seals
/// the gateway envelope.
fn edit_gateway(
    payload: &mut serde::Value,
    edit: impl FnOnce(&mut serde::Value),
) {
    let gateway = field(payload, "gateway");
    let snap: Snapshot = serde::Deserialize::from_value(gateway)
        .expect("the gateway envelope decodes");
    let mut inner = snap.payload().clone();
    edit(&mut inner);
    *gateway = serde::Serialize::to_value(&Snapshot::seal("gateway", inner));
}

/// A coordinator payload that decodes but does not describe a
/// federation — an event on a shard that does not exist or due before
/// the clock, a pending count that disagrees with the events, an event
/// kind no driver schedules — is rejected with a typed error, never a
/// panic and never a silently different run. So is a journaled
/// operation of a layer this build no longer has: a steal (batch
/// stealing) or a ladder step (the SLA class bias on the deferral
/// chance). Each mutated payload is re-sealed, so it passes `verify`
/// and only the restore's own checks stand between it and the engine.
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

    // A shard journal holds a ladder step, to a rung in range or not.
    for rung in [3, 4] {
        assert!(
            matches!(
                restore(with_rung_step(rung)),
                Err(SnapshotError::Decode(_))
            ),
            "a journaled step to rung {rung} must fail to decode"
        );
    }

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

/// The federation the captures that used to restore and then panic
/// come from: 3 round-robin shards of MM absorbing exact duplicates,
/// journaling, with an empty fault plan armed.
fn armed_engine<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> FederatedEngine<'a> {
    let mut engine = GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(5))
        .shards(3)
        .policy(RoundRobinRoute::new())
        .strategy_with(|_| HeuristicKind::Mm.make())
        .reuse(ReusePolicy::ExactOnly)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    engine.arm_faults(FaultPlan::default());
    engine
}

/// The body of the first operation of kind `op` in any shard journal
/// of a coordinator payload.
fn journaled<'v>(
    payload: &'v mut serde::Value,
    op: &str,
) -> &'v mut serde::Value {
    let serde::Value::Array(journals) = field(payload, "journals") else {
        panic!("the engine journals");
    };
    for journal in journals {
        let serde::Value::Array(entries) = field(journal, "entries") else {
            panic!("a journal holds its entries");
        };
        for entry in entries {
            if let Some(body) = child(field(entry, "op"), op) {
                return body;
            }
        }
    }
    panic!("no journaled {op}");
}

/// Coordinator captures that an earlier build restored and then
/// panicked on: an injector without a completion counter per shard
/// (at the next completion delivery), an id compactor cut to one
/// shard of three with the arrival order cut to that shard's entries
/// (at the next arrival routed past it), an arrival-order entry naming
/// a shard the federation does not have (in the robustness fold),
/// reuse-gate primaries on such a shard (at the next arrival repeating
/// one's key), and a pending completion naming a machine its shard
/// lacks (when it fires). So did captures whose journal a crashed
/// shard could not replay: a journaled completion on such a machine,
/// a journaled arrival of task type 99 or under an id the compactor
/// never assigned, and a journaled piggyback of task type 99. Each is
/// re-sealed, and each is a shape mismatch.
#[test]
fn coordinator_captures_that_used_to_panic_are_shape_mismatches() {
    let (cluster, pet, base) = coordinator_setup();
    let tasks: Vec<Task> = taskprune_workload::TaskStream::from_tasks(base)
        .with_duplicate_rate(0.3, 0xD0B1)
        .collect();
    let mut engine = armed_engine(&cluster, &pet);
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, 60);
    let genuine = engine.snapshot_coordinator().payload().clone();
    let restore = |payload: serde::Value| {
        armed_engine(&cluster, &pet).restore_coordinator(&Snapshot::seal(
            "federated-coordinator",
            payload,
        ))
    };
    restore(genuine.clone()).expect("the genuine payload restores");
    let mismatch = |r: Result<(), SnapshotError>| {
        matches!(r, Err(SnapshotError::ShapeMismatch { .. }))
    };

    let mut p = genuine.clone();
    *field(field(&mut p, "injector"), "completions_seen") =
        serde::Value::Array(Vec::new());
    assert!(mismatch(restore(p)), "an emptied completion counter");

    let mut p = genuine.clone();
    edit_gateway(&mut p, |gateway| {
        let serde::Value::Array(tables) =
            field(field(gateway, "compact"), "per_shard")
        else {
            panic!("the compactor holds one table per shard");
        };
        tables.truncate(1);
        // Only shard 0's arrivals stay on record, so every entry left
        // names an id the cut compactor did assign.
        let serde::Value::Array(arrivals) = field(gateway, "arrival_order")
        else {
            panic!("the arrival order is an array");
        };
        arrivals.retain_mut(|a| *field(a, "shard") == serde::Value::UInt(0));
    });
    assert!(mismatch(restore(p)), "a compactor cut to one shard");

    let mut p = genuine.clone();
    edit_gateway(&mut p, |gateway| {
        let serde::Value::Array(arrivals) = field(gateway, "arrival_order")
        else {
            panic!("the arrival order is an array");
        };
        *field(&mut arrivals[0], "shard") = serde::Value::UInt(7);
    });
    assert!(mismatch(restore(p)), "an arrival routed to shard 7 of 3");

    let mut p = genuine.clone();
    let serde::Value::Array(events) = field(&mut p, "events") else {
        panic!("events is an array");
    };
    let completion = events
        .iter_mut()
        .find_map(|e| child(field(e, "kind"), "Completion"))
        .expect("the pause leaves completions in flight");
    *field(completion, "machine") = serde::Value::UInt(24_722);
    assert!(
        mismatch(restore(p)),
        "a pending completion on machine 24 722"
    );

    let mut p = genuine.clone();
    *field(journaled(&mut p, "Completion"), "machine") =
        serde::Value::UInt(24_722);
    assert!(
        mismatch(restore(p)),
        "a journaled completion on machine 24 722"
    );

    let mut p = genuine.clone();
    *field(journaled(&mut p, "Arrival"), "type_id") = serde::Value::UInt(99);
    assert!(mismatch(restore(p)), "a journaled arrival of task type 99");

    let mut p = genuine.clone();
    *field(journaled(&mut p, "Arrival"), "id") =
        serde::Value::UInt(1_000_000_000);
    assert!(mismatch(restore(p)), "a journaled arrival under id 10⁹");

    let mut p = genuine.clone();
    *field(field(journaled(&mut p, "Piggyback"), "task"), "type_id") =
        serde::Value::UInt(99);
    assert!(
        mismatch(restore(p)),
        "a journaled piggyback of task type 99"
    );

    let mut p = genuine;
    edit_gateway(&mut p, |gateway| {
        let serde::Value::Array(cache) =
            field(field(gateway, "reuse"), "cache")
        else {
            panic!("the gate cache is an array");
        };
        assert!(!cache.is_empty(), "the gate holds live primaries");
        for entry in cache {
            *field(entry, "shard") = serde::Value::UInt(7);
        }
    });
    assert!(mismatch(restore(p)), "gate primaries on shard 7 of 3");
}

/// A coordinator snapshot captured by an earlier build is refused by
/// its version before its payload is read: every earlier build wrote
/// version 1 to 5. The fixture is a version-1 capture of the setup
/// above, supervised under `RecoveryPolicy::default()` and paused at
/// 60 arrivals.
#[test]
fn legacy_coordinator_snapshot_is_refused_by_version() {
    let (cluster, pet, _) = coordinator_setup();
    let snap: Snapshot =
        serde_json::from_str(include_str!("fixtures/coordinator_legacy.json"))
            .expect("the fixture decodes");
    assert_eq!(snap.version(), 1);
    assert_eq!(
        coordinator_engine(&cluster, &pet).restore_coordinator(&snap),
        Err(SnapshotError::UnsupportedVersion { found: 1 })
    );
}

// ---------------------------------------------------------------------
// Generative: one node of a re-sealed checkpoint changed.
// ---------------------------------------------------------------------

/// The federation the generative test pauses: 2 round-robin shards of
/// MM with the paper's pruning, absorbing exact duplicates.
fn reuse_engine<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> FederatedEngine<'a> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(2)
        .policy(RoundRobinRoute::new())
        .strategy_with(|_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .reuse(ReusePolicy::ExactOnly)
        .build()
        .expect("valid configuration")
}

/// A uniform pick below `n` from the test's seeded case stream.
fn below(cases: &mut SplitMix64, n: usize) -> usize {
    (cases.next() % n as u64) as usize
}

/// Every node of a `Value` tree, as the child indices leading to it.
fn node_paths(
    v: &serde::Value,
    at: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    out.push(at.clone());
    let children: Vec<&serde::Value> = match v {
        serde::Value::Array(items) => items.iter().collect(),
        serde::Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        node_paths(child, at, out);
        at.pop();
    }
}

fn node_at<'v>(
    v: &'v mut serde::Value,
    path: &[usize],
) -> &'v mut serde::Value {
    path.iter().fold(v, |v, &i| match v {
        serde::Value::Array(items) => &mut items[i],
        serde::Value::Object(fields) => &mut fields[i].1,
        _ => unreachable!("paths lead through containers"),
    })
}

/// Changes one node of `tree`: an integer to a neighbour, zero, the
/// top of its range or an integer found elsewhere in the tree; a null
/// to an integer; a string or float to another leaf; an array loses,
/// repeats or swaps an element, or is emptied; an object loses a
/// field.
fn mutate(tree: &mut serde::Value, cases: &mut SplitMix64) {
    use serde::Value as V;
    let mut paths = Vec::new();
    node_paths(tree, &mut Vec::new(), &mut paths);
    let ints: Vec<u64> = paths
        .iter()
        .filter_map(|p| match node_at(tree, p) {
            V::UInt(x) => Some(*x),
            _ => None,
        })
        .collect();
    let path = &paths[below(cases, paths.len())];
    let pick = below(cases, 5);
    let some_int = ints.get(below(cases, ints.len().max(1))).copied();
    let node = node_at(tree, path);
    *node = match std::mem::replace(node, V::Null) {
        V::UInt(x) => V::UInt(
            [x.wrapping_add(1), x.wrapping_sub(1), 0, u64::MAX]
                .get(pick)
                .copied()
                .or(some_int)
                .unwrap_or(7),
        ),
        V::Int(x) => V::Int(
            [x.wrapping_add(1), x.wrapping_sub(1), 0, i64::MAX, -1][pick],
        ),
        V::Null => V::UInt(some_int.unwrap_or(0)),
        V::Bool(b) => V::Bool(!b),
        V::Float(x) => V::Float([0.0, -x, x * 2.0, 1e300, 0.5][pick]),
        V::Str(s) => {
            let others = ["CompletedOnTime", "DroppedReactive", "Unfinished"];
            V::Str(others.iter().find(|&&o| o != s).copied().unwrap().into())
        }
        V::Array(mut items) if !items.is_empty() => {
            let i = below(cases, items.len());
            match pick % 4 {
                0 => {
                    items.remove(i);
                }
                1 => items.insert(i, items[i].clone()),
                2 => {
                    let j = below(cases, items.len());
                    items.swap(i, j);
                }
                _ => items.clear(),
            }
            V::Array(items)
        }
        V::Object(mut fields) if !fields.is_empty() => {
            fields.remove(below(cases, fields.len()));
            V::Object(fields)
        }
        empty => V::Array(vec![empty]),
    };
}

/// A shard checkpoint with one node of its payload changed, then
/// re-sealed, never makes recovery panic: shard 1 of a reuse-absorbing
/// run is checkpointed a third of the way in and recovered halfway,
/// then the run is finished, all under `catch_unwind`. Either the checkpoint restores and the run finishes,
/// or recovery fails with a typed `RunError::Snapshot`. At an earlier
/// build these cases panicked in the replay or the resumed run: on a
/// live task whose id the outcome record did not hold, on two live
/// tasks sharing an id, and, in debug builds, on a counter set to the
/// top of its range.
#[test]
fn resealed_hostile_checkpoints_never_panic() {
    let (cluster, pet, base) = fixture(HOSTILE_SCALE);
    let tasks: Vec<Task> = taskprune_workload::TaskStream::from_tasks(base)
        .with_duplicate_rate(0.3, 0xD0B1)
        .collect();
    let (third, half) = (tasks.len() as u64 / 3, tasks.len() as u64 / 2);
    let paused = |cluster, pet| {
        let mut engine = reuse_engine(cluster, pet);
        engine.enable_journal();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, third);
        let snap = engine.checkpoint(1);
        engine.run_until(&mut source, half);
        (engine, source, snap)
    };
    let (mut engine, mut source, snap) = paused(&cluster, &pet);
    let mut cases = SplitMix64::new(0x5eed);
    let (mut restored, mut rejected) = (0, 0);
    for case in 0..CASES {
        let bad = resealed(&snap, |payload| mutate(payload, &mut cases));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.recover_shard(1, &bad)
            }));
        match outcome {
            Ok(Err(taskprune_sim::RunError::Snapshot(_))) => {
                rejected += 1;
                continue;
            }
            Ok(Ok(())) => restored += 1,
            Ok(Err(e)) => panic!("case {case}: untyped recovery error {e:?}"),
            Err(_) => panic!("case {case}: recovery panicked"),
        }
        // The restored engine finishes its run; the next case gets a
        // fresh one, paused at the same point.
        let (fresh, fresh_source, _) = paused(&cluster, &pet);
        let resumed = std::mem::replace(&mut engine, fresh);
        let mut rest = std::mem::replace(&mut source, fresh_source);
        let finished =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                resumed.finish_stream(&mut rest)
            }));
        assert!(finished.is_ok(), "case {case}: the resumed run panicked");
    }
    assert!(
        restored > 0 && rejected > 0,
        "{restored} restored, {rejected} rejected"
    );
}

/// Cases of [`resealed_hostile_checkpoints_never_panic`].
const CASES: usize = 256;

/// Fixture scale of the generative test: a 3 000-task trial.
const HOSTILE_SCALE: f64 = 2.0;

/// The federation the generative coordinator test pauses: 3
/// round-robin shards of MM with the paper's pruning, absorbing exact
/// duplicates, under three tenant lanes (one with a quota) and the
/// overload ladder, journaling, with an empty fault plan armed.
fn hostile_coordinator_engine<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> FederatedEngine<'a> {
    let n_types = pet.n_task_types();
    let tenancy = TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(
            TenantSpec::new(SlaClass::Standard)
                .quota(RateLimit::per_ticks(64, 2)),
        )
        .tenant(TenantSpec::new(SlaClass::BestEffort))
        .ladder(LadderConfig::default());
    let mut engine = GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(3)
        .policy(RoundRobinRoute::new())
        .strategy_with(|_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .reuse(ReusePolicy::ExactOnly)
        .tenancy(tenancy)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    engine.arm_faults(FaultPlan::default());
    engine
}

/// Replaces a sealed envelope's wire form by its payload.
fn unseal(envelope: &mut serde::Value) {
    let payload = field(envelope, "payload").clone();
    *envelope = payload;
}

/// Replaces `node` by the wire form of a `component` envelope sealed
/// around it.
fn seal_in_place(component: &str, node: &mut serde::Value) {
    let payload = std::mem::replace(node, serde::Value::Null);
    *node = serde::Serialize::to_value(&Snapshot::seal(component, payload));
}

/// The named field of a `Value` object, if it is one and has it.
fn child<'v>(
    v: &'v mut serde::Value,
    name: &str,
) -> Option<&'v mut serde::Value> {
    match v {
        serde::Value::Object(fields) => {
            fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
        }
        _ => None,
    }
}

/// A coordinator payload with the nested gateway envelope, and every
/// shard envelope inside it, replaced by its payload: one tree whose
/// nodes are all state.
fn inline_envelopes(coordinator: &mut serde::Value) {
    let gateway = field(coordinator, "gateway");
    unseal(gateway);
    let serde::Value::Array(shards) = field(gateway, "shards") else {
        panic!("the gateway holds one snapshot per shard");
    };
    shards.iter_mut().for_each(unseal);
}

/// Seals a tree [`inline_envelopes`] laid out, however it was changed
/// since: each shard payload, the gateway payload, the coordinator.
fn reseal_envelopes(mut coordinator: serde::Value) -> Snapshot {
    if let Some(gateway) = child(&mut coordinator, "gateway") {
        if let Some(serde::Value::Array(shards)) = child(gateway, "shards") {
            for shard in shards {
                seal_in_place("scheduler-core", shard);
            }
        }
        seal_in_place("gateway", gateway);
    }
    Snapshot::seal("federated-coordinator", coordinator)
}

/// A coordinator capture with one node changed anywhere in it — the
/// coordinator's own fields, the gateway's, or any shard's — and every
/// envelope re-sealed, never makes a restore, a journal replay or the
/// resumed run panic. The federation is paused a third of the way into
/// a trial with 30 % duplicates; each case restores into a fresh
/// engine, rebuilds one shard (cycling by case number) from an
/// empty-core checkpoint and its restored journal, finishes the stream
/// and reads every arrival's outcome back, under `catch_unwind`, and
/// must end in a typed error or a finished run. The engine journals
/// from construction and never checkpoints, so a journal holds every
/// operation its shard saw; rebuilt so, the genuine capture finishes
/// exactly as a plain resume does. At earlier builds cases whose
/// arrival-order entry named another shard, and cases whose pending
/// completion named a machine the shard lacks, restored and then
/// panicked.
#[test]
fn resealed_hostile_coordinator_captures_never_panic() {
    let (cluster, pet, base) = fixture(HOSTILE_COORDINATOR_SCALE);
    let tasks: Vec<Task> = taskprune_workload::TaskStream::from_tasks(base)
        .with_duplicate_rate(0.3, 0xD0B1)
        .collect();
    let third = tasks.len() / 3;
    let mut engine = hostile_coordinator_engine(&cluster, &pet);
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, third as u64);
    let mut genuine = engine.snapshot_coordinator().payload().clone();
    inline_envelopes(&mut genuine);
    let empty: Vec<Snapshot> = (0..3)
        .map(|shard| {
            hostile_coordinator_engine(&cluster, &pet).checkpoint(shard)
        })
        .collect();
    // Restores `snap` into a fresh engine, rebuilds shard `crash` (if
    // any) from its empty checkpoint and the restored journal, and
    // finishes the run.
    let resume = |snap: &Snapshot, crash: Option<usize>| {
        let mut engine = hostile_coordinator_engine(&cluster, &pet);
        engine.restore_coordinator(snap)?;
        if let Some(shard) = crash {
            engine.recover_shard(shard, &empty[shard])?;
        }
        let mut rest = tasks[third..].iter().copied().peekable();
        // Every arrival the resumed run records is read back.
        let stats = engine.finish_stream(&mut rest);
        stats.robustness_pct(0);
        stats.merged();
        Ok::<String, taskprune_sim::RunError>(json(&stats))
    };
    let snap = reseal_envelopes(genuine.clone());
    let plain = resume(&snap, None).expect("the genuine capture restores");
    for shard in 0..3 {
        let rebuilt = resume(&snap, Some(shard))
            .expect("the genuine journal rebuilds the shard");
        assert_eq!(plain, rebuilt, "shard {shard} rebuilt differently");
    }
    let mut cases = SplitMix64::new(0xC0DE);
    let (mut finished, mut rejected) = (0, 0);
    for case in 0..COORDINATOR_CASES {
        let mut bad = genuine.clone();
        mutate(&mut bad, &mut cases);
        let bad = reseal_envelopes(bad);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resume(&bad, Some(case % 3))
        })) {
            Ok(Ok(_)) => finished += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!(
                "case {case}: the restore, the replay or the run panicked"
            ),
        }
    }
    assert!(
        finished > 0 && rejected > 0,
        "{finished} finished, {rejected} rejected"
    );
}

/// Cases of [`resealed_hostile_coordinator_captures_never_panic`].
const COORDINATOR_CASES: usize = 400;

/// Fixture scale of the generative coordinator test: a 600-task trial.
const HOSTILE_COORDINATOR_SCALE: f64 = 0.4;

/// A checkpoint write cut short leaves a prefix of its JSON text. Every
/// proper prefix of a shard checkpoint's text (shard 1 of the
/// reuse-absorbing run, a third of the way in) fails to decode with an
/// error, and none panics. The whole text decodes to the checkpoint,
/// which recovers the shard, and the run finishes exactly as an
/// uninterrupted one.
#[test]
fn truncated_checkpoints_fail_to_decode() {
    let (cluster, pet, base) = fixture(TRUNCATED_SCALE);
    let tasks: Vec<Task> = taskprune_workload::TaskStream::from_tasks(base)
        .with_duplicate_rate(0.3, 0xD0B1)
        .collect();
    let reference =
        json(&reuse_engine(&cluster, &pet).run_stream(tasks.iter().copied()));
    let mut engine = reuse_engine(&cluster, &pet);
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    let third = tasks.len() as u64 / 3;
    engine.run_until(&mut source, third);
    let snap = engine.checkpoint(1);
    let text = json(&snap);
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        let decoded = std::panic::catch_unwind(|| {
            serde_json::from_str::<Snapshot>(&text[..end])
                .map_err(SnapshotError::from)
        });
        match decoded {
            Ok(Err(SnapshotError::Decode(_))) => {}
            Ok(other) => panic!("the {end}-byte prefix gave {other:?}"),
            Err(_) => panic!("the {end}-byte prefix panicked"),
        }
    }
    let whole: Snapshot = serde_json::from_str(&text).expect("decodes");
    assert_eq!(whole, snap);
    engine.run_until(&mut source, 2 * third);
    engine
        .recover_shard(1, &whole)
        .expect("the decoded checkpoint restores");
    assert_eq!(reference, json(&engine.finish_stream(&mut source)));
}

/// Fixture scale of [`truncated_checkpoints_fail_to_decode`]: a
/// 300-task trial, whose shard checkpoint is a few thousand bytes of
/// JSON (every prefix is decoded).
const TRUNCATED_SCALE: f64 = 0.2;
