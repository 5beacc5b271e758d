//! The self-healing supervisor's two headline guarantees. There is one
//! supervisor, `Supervisor` over the serial `FederatedEngine`, and one
//! degradation rule, salvage-and-re-route.
//!
//! 1. **Recovery is exact.** With a retry budget covering every
//!    injected fault, a supervised run's serialized `FederationStats`
//!    is bit-identical to the fault-free run's — the serial driver's
//!    and the parallel driver's at any thread count — across
//!    explicitly generated fault storms (crashes, lost / duplicated /
//!    delayed completions, transient checkpoint and recovery
//!    failures).
//! 2. **Degradation is graceful and deterministic.** With a zero
//!    retry budget, a permanent shard crash quarantines the shard:
//!    the run still completes, every arrival is accounted for exactly
//!    once (`unreported() == 0`, `n_tasks()` equal to the stream
//!    length), the stranded batch backlog is re-routed to healthy
//!    shards, and the `RecoveryLog` is identical across repeated runs.
//!
//! Plus the supporting contracts: supervision itself never perturbs a
//! fault-free run, each single fault leaves a pinned sequence of
//! recovery actions, `recover_shard` without a journal is the typed
//! `RunError::RecoveryUnavailable`, and a supervised federation
//! survives a mid-run cold coordinator restart bit-identically, on its
//! checkpoint cadence.

mod common;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{
    FaultEvent, FederatedEngine, LadderConfig, RecoveryActionKind, Sink,
    SlaClass, Snapshot, TenancyPolicy, TenantSpec, TraceLog,
};

/// Two fixed plan seeds — the same pair `tests/failure_injection.rs`
/// and `tests/steal_faults.rs` pin.
const PLAN_SEEDS: [u64; 2] = [0xFA01, 0xFA02];

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

/// Traced + pruned, so the serialized comparisons carry every
/// per-shard trace event — supervision perturbing a single tick or
/// event would show.
fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    shards: usize,
) -> GatewayBuilder<'a, TraceLog> {
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
        .sink_with(|_| TraceLog::new(1_000_000, 4))
}

/// A storm plan sized to the fixture: ordinals span roughly one
/// shard's share of the arrivals, so the crash and delivery faults
/// actually fire mid-run.
fn storm_plan(seed: u64, shards: usize, tasks: usize) -> FaultPlan {
    let span = (tasks / shards).max(8) as u64;
    FaultPlan::generate(seed, &FaultSpec::storm(shards, span))
}

/// Generous budget: a storm puts at most ~9 faults on one shard, and
/// interleaved transient checkpoint/recovery failures consume extra
/// attempts.
fn healing_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        retry_budget: 32,
        ..RecoveryPolicy::default()
    }
}

// ---------------------------------------------------------------------
// Guarantee 0: supervision alone never perturbs the simulation.
// ---------------------------------------------------------------------

/// A supervised run with no fault plan equals the unsupervised run,
/// byte for byte, under either driver: checkpoints, journaling, and
/// health checks are pure observation.
#[test]
fn supervision_without_faults_is_invisible() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_eq!(reference.unreported(), 0);

    let engine = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration");
    let supervised = Supervisor::new(engine, RecoveryPolicy::default())
        .run_stream(tasks.iter().copied());
    assert_eq!(json(&reference), json(&supervised));
    // The run was healthy, so the log holds checkpoints and nothing
    // else.
    let log = supervised.recovery_log();
    assert!(!log.is_empty(), "auto-checkpoints are logged");
    assert_eq!(
        log.len(),
        log.count(|k| matches!(k, RecoveryActionKind::CheckpointTaken { .. })),
        "a fault-free run logs only checkpoints: {log:?}"
    );

    let parallel = builder(&cluster, &pet, 3)
        .threads(2)
        .build_parallel()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_eq!(json(&parallel), json(&supervised));
}

// ---------------------------------------------------------------------
// Guarantee 1: full-budget healing is bit-exact.
// ---------------------------------------------------------------------

/// Serial headline: for each fixed plan seed, the supervised run under
/// a generated fault storm serializes identically to the fault-free
/// run, and the log shows the storm was actually fought.
#[test]
fn healed_storm_matches_fault_free_serial() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let reference_json = json(&reference);

    for seed in PLAN_SEEDS {
        let plan = storm_plan(seed, 3, tasks.len());
        assert!(!plan.is_empty());
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, healing_policy());
        sup.arm(plan.clone());
        let healed = sup.run_stream(tasks.iter().copied());
        assert_eq!(
            reference_json,
            json(&healed),
            "plan seed {seed:#x}: healing diverged from fault-free"
        );
        let log = healed.recovery_log();
        assert!(
            log.count(|k| matches!(
                k,
                RecoveryActionKind::FaultDetected { .. }
            )) > 0,
            "plan seed {seed:#x}: no fault ever fired — widen the span"
        );
        assert_eq!(
            log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
            0,
            "plan seed {seed:#x}: the budget must cover the storm"
        );
    }
}

/// Parallel headline: the same storms, healed by the one supervisor,
/// serialize identically to the *parallel driver's* fault-free run —
/// at 1 worker thread and at several. A healed run is the run the
/// parallel driver would have made, so supervision needs no second
/// driver.
#[test]
fn healed_storm_matches_fault_free_parallel() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let parallel: Vec<(usize, String)> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let stats = builder(&cluster, &pet, 3)
                .threads(threads)
                .build_parallel()
                .expect("valid configuration")
                .run_stream(tasks.iter().copied());
            (threads, json(&stats))
        })
        .collect();

    for seed in PLAN_SEEDS {
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, healing_policy());
        sup.arm(storm_plan(seed, 3, tasks.len()));
        let healed = sup.run_stream(tasks.iter().copied());
        assert!(
            healed.recovery_log().count(|k| matches!(
                k,
                RecoveryActionKind::FaultDetected { .. }
            )) > 0,
            "plan seed {seed:#x}: no fault ever fired"
        );
        let healed_json = json(&healed);
        for (threads, reference_json) in &parallel {
            assert_eq!(
                reference_json, &healed_json,
                "plan seed {seed:#x}: the healed run diverged from the \
                 {threads}-thread parallel fault-free run"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Guarantee 2: zero budget degrades gracefully and deterministically.
// ---------------------------------------------------------------------

/// A heavily oversubscribed fixture for the degradation tests: the
/// same task count squeezed into a third of the span, so mapping
/// events defer work and the crash shard's batch queue is non-empty
/// when the quarantine salvages it.
fn oversubscribed_fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_500, scale) as usize,
        span_tu: common::scaled(40, scale) as f64,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

/// The permanent mid-run crash both degradation tests inject.
fn permanent_crash(shard: usize, nth: u64) -> FaultPlan {
    FaultPlan::new(vec![FaultEvent {
        shard,
        kind: FaultKind::ShardCrash,
        nth,
        delay: 0,
    }])
}

/// Serial: budget 0 + permanent crash ⇒ the shard is quarantined, its
/// batch backlog re-routes to the survivors, every arrival is
/// accounted for exactly once, and two runs produce the same stats and
/// the same log.
#[test]
fn budget_zero_crash_quarantines_and_reroutes_serial() {
    let (cluster, pet, tasks) = oversubscribed_fixture(common::test_scale());
    let crash_shard = 1usize;
    // Mid-run: roughly half of the crash shard's arrivals ingested.
    let nth = (tasks.len() / 6).max(2) as u64;
    let run = || {
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, RecoveryPolicy::no_retries());
        sup.arm(permanent_crash(crash_shard, nth));
        sup.run_stream(tasks.iter().copied())
    };

    let stats = run();
    assert_eq!(
        stats.unreported(),
        0,
        "a degraded run must still account for every arrival"
    );
    // A re-route is not an arrival: each salvaged task keeps its one
    // arrival record, re-pointed to its new shard.
    assert_eq!(stats.n_tasks(), tasks.len());
    let mut externals: Vec<u64> =
        stats.arrivals().iter().map(|a| a.external.0).collect();
    externals.sort_unstable();
    externals.dedup();
    assert_eq!(
        externals.len(),
        tasks.len(),
        "an external id appears twice in the arrival record"
    );
    let log = stats.recovery_log();
    assert_eq!(
        log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
        1,
        "exactly one quarantine: {log:?}"
    );
    let rerouted = log
        .actions()
        .iter()
        .find_map(|a| match a.kind {
            RecoveryActionKind::Quarantined { rerouted } => Some(rerouted),
            _ => None,
        })
        .expect("quarantine action present");
    assert!(
        rerouted > 0,
        "the salvaged batch backlog re-routes to healthy shards"
    );
    // Degradation changed the outcome — this is not the fault-free
    // run.
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    assert_ne!(json(&reference), json(&stats));
    assert!(stats.count(TaskOutcome::Unfinished) > 0);

    // Deterministic: same stats, same log, run to run.
    let again = run();
    assert_eq!(json(&stats), json(&again));
    assert_eq!(log, again.recovery_log());
}

/// The settled degradation rule, whichever driver a run would
/// otherwise use. The name is historical: parallel lanes used to
/// fail-stop (`Quarantined { rerouted: 0 }`, the backlog lost as
/// `Unfinished`); now the one supervisor salvages the backlog instead.
/// Budget 0 + permanent crash ⇒ one quarantine that re-routes work,
/// every arrival accounted for, no arrival after the crash routed to
/// the dead shard, and a deterministic run.
#[test]
fn budget_zero_crash_fail_stops_parallel() {
    let (cluster, pet, tasks) = oversubscribed_fixture(common::test_scale());
    let crash_shard = 1usize;
    let nth = (tasks.len() / 6).max(2) as u64;
    let run = || {
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, RecoveryPolicy::no_retries());
        sup.arm(permanent_crash(crash_shard, nth));
        sup.run_stream(tasks.iter().copied())
    };

    let stats = run();
    assert_eq!(
        stats.unreported(),
        0,
        "a degraded run must still account for every arrival"
    );
    let log = stats.recovery_log();
    assert_eq!(
        log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
        1,
        "exactly one quarantine: {log:?}"
    );
    assert_eq!(
        log.count(|k| matches!(
            k,
            RecoveryActionKind::Quarantined { rerouted } if *rerouted > 0
        )),
        1,
        "the quarantine salvages and re-routes the backlog: {log:?}"
    );

    // Routing is identical up to the crash, so the fault-free run
    // locates the crash arrival: the crash shard's nth.
    let reference = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let crash_at = reference
        .arrivals()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.shard as usize == crash_shard)
        .nth(nth as usize - 1)
        .map(|(gi, _)| gi)
        .expect("the crash arrival exists");
    assert!(
        stats.arrivals()[crash_at + 1..]
            .iter()
            .all(|a| a.shard as usize != crash_shard),
        "an arrival after the crash still names the quarantined shard"
    );

    let again = run();
    assert_eq!(json(&stats), json(&again));
    assert_eq!(log, again.recovery_log());
}

// ---------------------------------------------------------------------
// The one supervisor's per-fault recovery log.
// ---------------------------------------------------------------------

/// What a single-fault run must end as.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Serializes identically to the fault-free run.
    FaultFree,
    /// A delivery stayed lost: every task still has an outcome, some
    /// of them `Unfinished`.
    Stranded,
    /// The shard was quarantined: the bytes differ, nothing is lost.
    Degraded,
}

/// One row of the recovery table: the faults armed on shard 1, the
/// retry budget, and shard 1's expected actions other than
/// `CheckpointTaken`, in order.
struct Row {
    faults: &'static [(FaultKind, u64)],
    budget: u32,
    actions: &'static [&'static str],
    /// Whether shard 1 still takes its checkpoint at the watermark of
    /// the first action (pinned for checkpoint faults only).
    checkpoint_at_fault: Option<bool>,
    outcome: Outcome,
}

/// A recovery action reduced to what the table pins: its kind plus the
/// attempt and gap fields. Instants are checked separately;
/// counts that depend on the run's length (journal ops, re-routed
/// tasks) are left out.
fn pinned(kind: &RecoveryActionKind) -> String {
    match *kind {
        RecoveryActionKind::FaultDetected { fault } => {
            format!("FaultDetected({fault:?})")
        }
        RecoveryActionKind::RetryScheduled { attempt } => {
            format!("RetryScheduled{{{attempt}}}")
        }
        RecoveryActionKind::CheckpointFailed { attempt } => {
            format!("CheckpointFailed{{{attempt}}}")
        }
        RecoveryActionKind::RecoveryFailed { attempt } => {
            format!("RecoveryFailed{{{attempt}}}")
        }
        RecoveryActionKind::JournalGapDetected { gap } => {
            format!("JournalGapDetected{{{gap}}}")
        }
        RecoveryActionKind::RecoveryReplayed { .. } => {
            "RecoveryReplayed".to_owned()
        }
        RecoveryActionKind::Quarantined { .. } => "Quarantined".to_owned(),
        other => format!("{other:?}"),
    }
}

/// Each single fault on shard 1 leaves exactly the pinned sequence of
/// recovery actions — attempts included — and the pinned
/// outcome.
#[test]
fn each_fault_leaves_its_pinned_recovery_log() {
    use FaultKind::*;
    const COMPLETION: u64 = 20;
    const ARRIVAL: u64 = 20;
    let rows = [
        Row {
            faults: &[(LostCompletion, COMPLETION)],
            budget: 1,
            actions: &[
                "FaultDetected(LostCompletion)",
                "RetryScheduled{1}",
                "Redelivered",
            ],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(DelayedCompletion, COMPLETION)],
            budget: 1,
            actions: &[
                "FaultDetected(DelayedCompletion)",
                "RetryScheduled{1}",
                "Redelivered",
            ],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(LostCompletion, COMPLETION)],
            budget: 0,
            actions: &[
                "FaultDetected(LostCompletion)",
                "JournalGapDetected{1}",
            ],
            checkpoint_at_fault: None,
            outcome: Outcome::Stranded,
        },
        Row {
            faults: &[(DuplicateCompletion, COMPLETION)],
            budget: 0,
            actions: &["DuplicateSuppressed"],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(DuplicateCompletion, COMPLETION)],
            budget: 1,
            actions: &["DuplicateSuppressed"],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(CheckpointFailure, 1)],
            budget: 1,
            actions: &["CheckpointFailed{1}"],
            checkpoint_at_fault: Some(true),
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(CheckpointFailure, 1)],
            budget: 0,
            actions: &["CheckpointFailed{1}"],
            checkpoint_at_fault: Some(false),
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(ShardCrash, ARRIVAL)],
            budget: 1,
            actions: &[
                "FaultDetected(ShardCrash)",
                "RetryScheduled{1}",
                "RecoveryReplayed",
            ],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(ShardCrash, ARRIVAL), (RecoveryFailure, 1)],
            budget: 2,
            actions: &[
                "FaultDetected(ShardCrash)",
                "RetryScheduled{1}",
                "RecoveryFailed{1}",
                "RetryScheduled{2}",
                "RecoveryReplayed",
            ],
            checkpoint_at_fault: None,
            outcome: Outcome::FaultFree,
        },
        Row {
            faults: &[(ShardCrash, ARRIVAL)],
            budget: 0,
            actions: &["FaultDetected(ShardCrash)", "Quarantined"],
            checkpoint_at_fault: None,
            outcome: Outcome::Degraded,
        },
    ];

    let (cluster, pet, tasks) = fixture(common::test_scale());
    let reference = json(
        &builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    );
    for row in &rows {
        let plan = FaultPlan::new(
            row.faults
                .iter()
                .map(|&(kind, nth)| FaultEvent {
                    shard: 1,
                    kind,
                    nth,
                    delay: if kind == DelayedCompletion { 100 } else { 0 },
                })
                .collect(),
        );
        let engine = builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(
            engine,
            RecoveryPolicy {
                retry_budget: row.budget,
                ..RecoveryPolicy::default()
            },
        );
        sup.arm(plan);
        let stats = sup.run_stream(tasks.iter().copied());
        let case = format!("{:?} at budget {}", row.faults, row.budget);

        let shard1: Vec<_> = stats
            .recovery_log()
            .actions()
            .iter()
            .filter(|a| a.shard == 1)
            .collect();
        let acted: Vec<_> = shard1
            .iter()
            .filter(|a| {
                !matches!(a.kind, RecoveryActionKind::CheckpointTaken { .. })
            })
            .collect();
        let labels: Vec<String> =
            acted.iter().map(|a| pinned(&a.kind)).collect();
        assert_eq!(labels, row.actions, "{case}: shard 1's actions");
        let first = acted[0].time;
        match row.outcome {
            // The lost delivery surfaces again at the next watermark.
            Outcome::Stranded => assert!(acted[1].time > first, "{case}"),
            _ => assert!(
                acted.iter().all(|a| a.time == first),
                "{case}: recovery must act at the fault instant"
            ),
        }
        if let Some(taken) = row.checkpoint_at_fault {
            assert_eq!(
                shard1.iter().any(|a| a.time == first
                    && matches!(
                        a.kind,
                        RecoveryActionKind::CheckpointTaken { .. }
                    )),
                taken,
                "{case}: checkpoint at the failed watermark"
            );
        }
        assert!(
            stats.recovery_log().actions().iter().all(|a| a.shard == 1
                || matches!(
                    a.kind,
                    RecoveryActionKind::CheckpointTaken { .. }
                )),
            "{case}: only shard 1 was faulted"
        );

        assert_eq!(stats.unreported(), 0, "{case}");
        match row.outcome {
            Outcome::FaultFree => {
                assert_eq!(reference, json(&stats), "{case}: bytes moved");
            }
            Outcome::Stranded => {
                assert!(stats.count(TaskOutcome::Unfinished) > 0, "{case}");
            }
            Outcome::Degraded => {
                assert_ne!(reference, json(&stats), "{case}: not degraded");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed error: recovery without a journal.
// ---------------------------------------------------------------------

/// `recover_shard` on an engine that never enabled journaling is the
/// typed `RunError::RecoveryUnavailable`, not a panic or a silent
/// partial restore.
#[test]
fn recovery_without_a_journal_is_a_typed_error() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let mut engine = builder(&cluster, &pet, 3)
        .build()
        .expect("valid configuration");
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, (tasks.len() / 3) as u64);
    let snap = engine.checkpoint(1);
    let err = engine
        .recover_shard(1, &snap)
        .expect_err("no journal was ever enabled");
    assert!(
        matches!(err, RunError::RecoveryUnavailable),
        "expected RecoveryUnavailable, got {err:?}"
    );
    assert!(!err.to_string().is_empty());
}

// ---------------------------------------------------------------------
// Cold restarts: the whole coordinator through its wire form.
// ---------------------------------------------------------------------

/// Supervises a federation from `build` over `tasks` and cold-restarts
/// its coordinator once `restart_at` arrivals are ingested: the
/// supervisor pauses, the coordinator's capture goes through its wire
/// form and back (the durable-storage round trip), the federation is
/// torn down, and a fresh supervisor resumes the stream on a second
/// federation from `build`, restored from the decoded capture. The
/// fault-plan cursor travels inside the capture, so the successor
/// needs no re-arm. The returned record carries the successor's
/// recovery log only.
fn run_with_restart<'a, S: Sink>(
    build: impl Fn() -> FederatedEngine<'a, S>,
    recovery: RecoveryPolicy,
    plan: Option<FaultPlan>,
    restart_at: u64,
    tasks: &[Task],
) -> FederationStats {
    use serde::{Deserialize, Serialize};
    let mut sup = Supervisor::new(build(), recovery);
    if let Some(plan) = plan {
        sup.arm(plan);
    }
    let mut source = tasks.iter().copied().peekable();
    sup.run_until(&mut source, restart_at);
    let wire = sup.snapshot_coordinator().to_value();
    drop(sup);
    let snap = Snapshot::from_value(&wire).expect("the wire form decodes");
    let mut successor = build();
    successor
        .restore_coordinator(&snap)
        .expect("the capture restores into a twin federation");
    Supervisor::new(successor, recovery).finish_stream(&mut source)
}

/// `multi_tenant`'s act 3: 3 shards of MM with the paper's pruning
/// behind the overload ladder, which senses load only at the
/// supervisor's maintenance watermarks.
fn laddered<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    reuse: ReusePolicy,
) -> FederatedEngine<'a> {
    let n_types = pet.n_task_types();
    let tenancy = TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(TenantSpec::new(SlaClass::Standard))
        .tenant(TenantSpec::new(SlaClass::BestEffort))
        .ladder(LadderConfig {
            high: 48,
            low: 4,
            sustain: 2,
            retry_after: 64,
        });
    GatewayBuilder::new(cluster, pet)
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
        .tenancy(tenancy)
        .reuse(reuse)
        .build()
        .expect("valid configuration")
}

/// A supervised run equals the plain federated run when nothing goes
/// wrong — with and without a mid-run cold coordinator restart, and
/// with a fully-healed fault storm across the restart. A supervisor
/// restored off the checkpoint grid stays on it: a laddered federation
/// restored at arrival 1 000 (the default interval is 64) admits
/// exactly as the uninterrupted supervised run does, on
/// `multi_tenant`'s act-3 stream with reuse off and on the same stream
/// with 30 % duplicates under exact reuse.
#[test]
fn supervised_cold_restart_matches_uninterrupted() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let build = || {
        builder(&cluster, &pet, 3)
            .build()
            .expect("valid configuration")
    };
    let reference = json(&build().run_stream(tasks.iter().copied()));
    let midpoint = (tasks.len() / 2) as u64;

    // Supervised, no faults, no restart.
    let supervised = Supervisor::new(build(), RecoveryPolicy::default())
        .run_stream(tasks.iter().copied());
    assert_eq!(reference, json(&supervised));

    // Supervised with a cold restart at the midpoint watermark.
    let restarted = run_with_restart(
        build,
        RecoveryPolicy::default(),
        None,
        midpoint,
        &tasks,
    );
    assert_eq!(
        reference,
        json(&restarted),
        "a cold coordinator restart diverged from the uninterrupted run"
    );

    // Supervised with an armed storm AND a restart: the fault-plan
    // cursor travels inside the coordinator snapshot, so healing
    // stays exact across the restart boundary.
    let stormy = run_with_restart(
        build,
        healing_policy(),
        Some(storm_plan(PLAN_SEEDS[0], 3, tasks.len())),
        midpoint,
        &tasks,
    );
    assert_eq!(
        reference,
        json(&stormy),
        "healing across a restart boundary diverged from fault-free"
    );

    // The ladder steps only at maintenance, so a successor that
    // maintained on another grid would admit differently.
    const RESTART_AT: u64 = 1_000;
    let squeezed = WorkloadConfig {
        total_tasks: 3_000,
        span_tu: 80.0,
        ..WorkloadConfig::paper_default(77)
    };
    for (reuse, dup_rate) in
        [(ReusePolicy::Off, 0.0), (ReusePolicy::ExactOnly, 0.3)]
    {
        let crunch: Vec<Task> = squeezed
            .stream_trial(&pet, 0)
            .with_duplicate_rate(dup_rate, 0xDED)
            .collect();
        let build = || laddered(&cluster, &pet, reuse);
        let uninterrupted = Supervisor::new(build(), RecoveryPolicy::default())
            .run_stream(crunch.iter().copied());
        let restart_time = crunch[RESTART_AT as usize - 1].arrival;
        let later_steps = uninterrupted
            .recovery_log()
            .actions()
            .iter()
            .filter(|a| {
                a.time > restart_time
                    && matches!(
                        a.kind,
                        RecoveryActionKind::OverloadStepUp { .. }
                            | RecoveryActionKind::OverloadStepDown { .. }
                    )
            })
            .count();
        assert!(
            later_steps > 0,
            "{reuse:?}: no ladder step after the restart"
        );
        let restarted = run_with_restart(
            build,
            RecoveryPolicy::default(),
            None,
            RESTART_AT,
            &crunch,
        );
        assert_eq!(
            json(&uninterrupted),
            json(&restarted),
            "{reuse:?}: a restart off the checkpoint grid admitted differently"
        );
    }
}

// ---------------------------------------------------------------------
// Full-scale tier.
// ---------------------------------------------------------------------

#[test]
#[ignore = "full-size self-healing sweep; run with --ignored"]
fn full_scale_healed_storms_match_fault_free() {
    let (cluster, pet, tasks) = fixture(1.0);
    let reference = builder(&cluster, &pet, 4)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    let reference_json = json(&reference);
    for seed in PLAN_SEEDS {
        let plan = storm_plan(seed, 4, tasks.len());
        let engine = builder(&cluster, &pet, 4)
            .build()
            .expect("valid configuration");
        let mut sup = Supervisor::new(engine, healing_policy());
        sup.arm(plan);
        assert_eq!(
            reference_json,
            json(&sup.run_stream(tasks.iter().copied())),
            "serial, plan seed {seed:#x}"
        );
    }
}
