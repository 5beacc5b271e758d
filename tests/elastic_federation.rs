//! Checkpoints that must not restore, and one that must.
//!
//! Corruption: a sealed [`Snapshot`] whose payload or pages are
//! tampered with after sealing is rejected with
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
//! federation decodes to a typed error, and an earlier build's capture
//! resumes bit-identically.
//!
//! Generative: a shard checkpoint with any one node changed and
//! re-sealed either restores or is a typed error; recovery and the
//! rest of the run never panic.

mod common;

use std::sync::Arc;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_prob::rng::SplitMix64;
use taskprune_sim::snapshot::Page;
use taskprune_sim::{FederatedEngine, Snapshot, SnapshotError, TraceLog};

/// Fixture scale of the tests that need sealed pages on shard 1
/// whatever `TASKPRUNE_TEST_SCALE` says: 900 tasks, so shard 1 has
/// resolved whole 64-task pages a third of the way in.
const PAGED_SCALE: f64 = 0.6;

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

/// Round-trips a sealed snapshot through its serialized form with
/// `edit` applied to the wire array of its pages.
fn with_wire_pages(
    snap: &Snapshot,
    edit: impl FnOnce(&mut Vec<serde::Value>),
) -> Snapshot {
    use serde::{Deserialize, Serialize};
    let mut v = snap.to_value();
    let serde::Value::Array(pages) = field(&mut v, "pages") else {
        panic!("a paged snapshot writes its pages as an array");
    };
    edit(pages);
    Snapshot::from_value(&v)
        .expect("decode is hash-agnostic — tampering is caught by verify")
}

/// One bit flipped in the arrival order of the first page's body.
fn tampered_page(snap: &Snapshot) -> Snapshot {
    with_wire_pages(snap, |pages| {
        let body = field(&mut pages[0], "body");
        assert!(corrupt_first_uint(field(body, "arrival_order")));
    })
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

/// A tampered *shard checkpoint*, with one bit flipped in its payload
/// or inside one of its sealed pages, is rejected by `recover_shard`
/// at the next recovery point — the corruption never reaches the core
/// — and the error threads through the facade's `RunError` via `?`.
#[test]
fn tampered_checkpoint_is_rejected_on_recovery() {
    let (cluster, pet, tasks) = fixture(PAGED_SCALE);
    let mut engine = builder(&cluster, &pet)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    assert!(!snap.pages().is_empty(), "the checkpoint sealed a page");
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);
    for bad in [tampered(&snap), tampered_page(&snap)] {
        let err = engine
            .recover_shard(1, &bad)
            .expect_err("a corrupted checkpoint must not restore");
        assert!(is_hash_mismatch(&err), "expected HashMismatch, got {err:?}");
        assert!(!err.to_string().is_empty());
    }
    // The untampered checkpoint still recovers the shard fine.
    engine
        .recover_shard(1, &snap)
        .expect("the genuine checkpoint restores");
    let stats = engine.finish_stream(&mut source);
    assert_eq!(stats.unreported(), 0);
}

/// A paged checkpoint whose wire form had a bit flipped inside a page,
/// or a page dropped, duplicated or swapped, fails both `verify()` and
/// `recover_shard` with `HashMismatch`; the genuine one still recovers
/// the shard.
#[test]
fn hostile_paged_checkpoints_are_hash_mismatches() {
    let (cluster, pet, tasks) = fixture(PAGED_SCALE);
    let mut engine = builder(&cluster, &pet)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    assert!(snap.pages().len() >= 2, "the checkpoint sealed two pages");
    snap.verify().expect("the genuine checkpoint verifies");
    let hostile = [
        ("flip", tampered_page(&snap)),
        (
            "drop",
            with_wire_pages(&snap, |p| {
                p.remove(0);
            }),
        ),
        (
            "duplicate",
            with_wire_pages(&snap, |p| {
                let copy = p[0].clone();
                p.insert(0, copy);
            }),
        ),
        ("swap", with_wire_pages(&snap, |p| p.swap(0, 1))),
    ];
    for (name, bad) in &hostile {
        assert!(
            matches!(bad.verify(), Err(SnapshotError::HashMismatch { .. })),
            "{name}: verify returned {:?}",
            bad.verify()
        );
        let err = engine
            .recover_shard(1, bad)
            .expect_err("a hostile checkpoint must not restore");
        assert!(is_hash_mismatch(&err), "{name}: got {err:?}");
    }
    engine
        .recover_shard(1, &snap)
        .expect("the genuine checkpoint restores");
    assert_eq!(engine.finish_stream(&mut source).unreported(), 0);
}

/// Re-seals a shard checkpoint around `edit`ed payload and pages, so
/// it passes `verify` and only the restore's own checks stand between
/// it and the core.
fn resealed(
    snap: &Snapshot,
    edit: impl FnOnce(&mut serde::Value, &mut Vec<Arc<Page>>),
) -> Snapshot {
    let mut payload = snap.payload().clone();
    let mut pages = snap.pages().to_vec();
    edit(&mut payload, &mut pages);
    Snapshot::seal_with_pages("scheduler-core", payload, pages)
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
/// tables). The rest are the other shapes pages add. After every
/// rejection the genuine checkpoint still recovers the shard, and the
/// run finishes exactly as an uninterrupted one.
#[test]
fn malformed_outcome_records_are_typed_errors() {
    let (cluster, pet, tasks) = fixture(PAGED_SCALE);
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
    assert!(!snap.pages().is_empty(), "the checkpoint sealed a page");
    engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);

    type Edit = fn(&mut serde::Value, &mut Vec<Arc<Page>>);
    let cases: Vec<(&str, Edit)> = vec![
        ("per_type cut to one entry", |p, _| {
            table(p, "per_type").truncate(1);
        }),
        ("an unresolved id marked on time", |p, _| {
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
        ("types cut to half the outcomes", |p, _| {
            let half = table(p, "outcomes").len() / 2;
            table(p, "types").truncate(half);
        }),
        ("an arrival-order id past the tables", |p, _| {
            table(p, "arrival_order")[0] = serde::Value::UInt(1 << 40);
        }),
        ("a page given twice", |_, pages| {
            pages.insert(0, Arc::clone(&pages[0]));
        }),
        ("a page past the records", |_, pages| {
            let mut body = pages[0].body().clone();
            *field(&mut body, "index") = serde::Value::UInt(1_000);
            pages[0] = Arc::new(Page::seal(body));
        }),
        ("a sealed page holding an unresolved id", |_, pages| {
            let mut body = pages[0].body().clone();
            let serde::Value::Array(outcomes) = field(&mut body, "outcomes")
            else {
                panic!("page outcomes are an array");
            };
            outcomes[5] = serde::Value::Null;
            pages[0] = Arc::new(Page::seal(body));
        }),
        ("a page dropped with its records", |_, pages| {
            pages.remove(0);
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
        .recover_shard(1, &resealed(&snap, |_, _| {}))
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
    let (cluster, pet, tasks) = fixture(PAGED_SCALE);
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

    type Edit = fn(&mut serde::Value, &mut Vec<Arc<Page>>);
    let cases: Vec<(&str, Edit)> = vec![
        ("a live task's type past the PET", |p, _| {
            *field(live_task(p, 0), "type_id") = serde::Value::UInt(99);
        }),
        ("a live task's id past the tables", |p, _| {
            *field(live_task(p, 0), "id") = serde::Value::UInt(u64::MAX);
        }),
        ("a live task's id moved onto the next one", |p, _| {
            let next = field(live_task(p, 1), "id").clone();
            *field(live_task(p, 0), "id") = next;
        }),
        ("the clock past the journal", |p, _| {
            *field(p, "now") = serde::Value::UInt(u64::MAX / 2);
        }),
        ("a running task started at the end of the clock", |p, _| {
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
        .recover_shard(1, &resealed(&snap, |_, _| {}))
        .expect("the re-sealed genuine checkpoint restores");
    assert_eq!(
        json(&reference),
        json(&engine.finish_stream(&mut source)),
        "recovery after the rejected checkpoints diverged"
    );
}

/// A shard checkpoint written by an earlier build carries the core's
/// `sla_rung`, the overload rung its deferral chance was biased by.
/// This build ignores the field whatever it holds: the shard recovers
/// from the checkpoint, and the run finishes exactly as an
/// uninterrupted one.
#[test]
fn legacy_sla_rung_field_is_ignored_on_recovery() {
    let (cluster, pet, tasks) = fixture(PAGED_SCALE);
    let reference = json(
        &builder(&cluster, &pet)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    );
    for rung in [
        serde::Value::Null,
        serde::Value::UInt(2),
        serde::Value::UInt(255),
    ] {
        let mut engine = builder(&cluster, &pet)
            .build()
            .expect("valid configuration");
        engine.enable_journal();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, (tasks.len() / 3) as u64);
        let snap = resealed(&engine.checkpoint(1), |payload, _| {
            let serde::Value::Object(fields) = payload else {
                panic!("core payloads are objects");
            };
            fields.push(("sla_rung".to_owned(), rung.clone()));
        });
        engine.run_until(&mut source, (2 * tasks.len() / 3) as u64);
        engine
            .recover_shard(1, &snap)
            .unwrap_or_else(|e| panic!("sla_rung {rung:?}: {e:?}"));
        assert_eq!(
            reference,
            json(&engine.finish_stream(&mut source)),
            "sla_rung {rung:?}: the recovered run diverged"
        );
    }
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
/// state of layers this build no longer has: a stale view table,
/// non-zero steal counters, a journaled steal (bounded-staleness
/// routing and batch stealing), a journaled ladder step (the SLA
/// class bias on the deferral chance). Each mutated payload is
/// re-sealed, so it passes `verify` and only the restore's own checks
/// stand between it and the engine.
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
/// to an integer; a string or float to another leaf; a container
/// loses, repeats or forgets an element.
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
            match pick % 3 {
                0 => {
                    items.remove(i);
                }
                1 => items.insert(i, items[i].clone()),
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

/// A paged shard checkpoint with one node of its payload or of one
/// page changed, then re-sealed, never makes recovery panic: shard 1
/// of a reuse-absorbing run is checkpointed a third of the way in and
/// recovered halfway, then the run is finished, all under
/// `catch_unwind`. Either the checkpoint restores and the run finishes,
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
    assert!(!snap.pages().is_empty(), "the checkpoint sealed a page");
    let mut cases = SplitMix64::new(0x5eed);
    let (mut restored, mut rejected) = (0, 0);
    for case in 0..CASES {
        let mut payload = snap.payload().clone();
        let mut pages = snap.pages().to_vec();
        if below(&mut cases, 2) == 0 {
            mutate(&mut payload, &mut cases);
        } else {
            let target = below(&mut cases, pages.len());
            let mut body = pages[target].body().clone();
            mutate(&mut body, &mut cases);
            pages[target] = Arc::new(Page::seal(body));
        }
        let bad = Snapshot::seal_with_pages("scheduler-core", payload, pages);
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
