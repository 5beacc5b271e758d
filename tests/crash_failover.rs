//! Crash-failover ≡ never crashing: a shard rebuilt from its last
//! checkpoint plus the journal recorded since must be indistinguishable
//! from a shard that never died.
//!
//! The failure model (see `FederatedEngine::recover_shard`): the
//! coordinator — event heap, ground-truth RNG streams, the other
//! shards — survives; one shard's in-memory state is lost. Recovery is
//! `restore(checkpoint)` + `journal.replay()`: every arrival,
//! completion and wakeup the shard saw since the checkpoint is
//! re-applied at its original timestamp, and the starts/decisions the
//! replay re-emits are discarded because the surviving heap already
//! holds their consequences.
//!
//! The contract under test (ISSUE pin a): `replay(snapshot, log_suffix)`
//! reproduces the shard **bit-identically** — pinned two ways:
//!
//! 1. the recovered shard's next sealed checkpoint equals the
//!    uninterrupted shard's, byte for byte (state hash and serialized
//!    payload, `TraceLog` included);
//! 2. the whole federation's serialized `FederationStats` after a
//!    mid-run crash + recovery equals the uninterrupted reference.
//!
//! A property test drives the same contract through hostile bursts:
//! simultaneous arrivals, sparse/duplicate external ids, deadlines
//! tight enough to force reactive drops and pruning.

mod common;

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::TraceLog;

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

/// Traced + pruned, so the serialized comparisons carry every per-shard
/// trace event — a replay drifting one tick or one event would show.
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

/// Crash shard `k` between two watermarks, recover it, and the final
/// merged stats equal an uninterrupted run — for every shard index and
/// both scheduling regimes.
#[test]
fn recovered_federation_matches_the_uninterrupted_run() {
    let (cluster, pet, tasks) = fixture(common::test_scale());
    let w1 = (tasks.len() / 3) as u64;
    let w2 = (2 * tasks.len() / 3) as u64;
    for policy in [0usize, 1] {
        let reference = builder(&cluster, &pet, 3, policy)
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied());
        assert_eq!(reference.unreported(), 0);
        let reference_json = json(&reference);
        for crash_shard in 0..3 {
            let mut engine = builder(&cluster, &pet, 3, policy)
                .build()
                .expect("valid configuration");
            engine.enable_journal();
            let mut source = tasks.iter().copied().peekable();
            engine.run_until(&mut source, w1);
            let snap = engine.checkpoint(crash_shard);
            assert!(
                engine.journal(crash_shard).is_empty(),
                "checkpoint supersedes the journaled prefix"
            );
            engine.run_until(&mut source, w2);
            // The crash: shard state is lost here; the checkpoint and
            // the journal recorded since are all that survives of it.
            engine
                .recover_shard(crash_shard, &snap)
                .expect("checkpoint verifies and the journal replays");
            let recovered = engine.finish_stream(&mut source);
            assert_eq!(
                reference_json,
                json(&recovered),
                "policy #{policy} crash_shard={crash_shard}: recovery \
                 diverged from the uninterrupted run"
            );
        }
    }
}

/// The direct state pin: after recovery, the shard's next sealed
/// checkpoint — state hash and full serialized payload, trace included
/// — equals the checkpoint an uninterrupted twin takes at the same
/// watermark.
#[test]
fn replayed_shard_state_equals_the_uninterrupted_shard_bit_for_bit() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let w1 = (tasks.len() / 3) as u64;
    let w2 = (2 * tasks.len() / 3) as u64;
    let crash_shard = 1usize;

    // Twin A never crashes; its checkpoint at w2 is the ground truth.
    let mut a = builder(&cluster, &pet, 3, 0)
        .build()
        .expect("valid configuration");
    a.enable_journal();
    let mut src_a = tasks.iter().copied().peekable();
    a.run_until(&mut src_a, w2);
    let expected = a.checkpoint(crash_shard);

    // Twin B checkpoints at w1, "crashes" at w2, recovers, and is
    // re-checkpointed at the same watermark.
    let mut b = builder(&cluster, &pet, 3, 0)
        .build()
        .expect("valid configuration");
    b.enable_journal();
    let mut src_b = tasks.iter().copied().peekable();
    b.run_until(&mut src_b, w1);
    let snap = b.checkpoint(crash_shard);
    b.run_until(&mut src_b, w2);
    assert!(
        !b.journal(crash_shard).is_empty(),
        "the shard saw operations between the watermarks"
    );
    b.recover_shard(crash_shard, &snap)
        .expect("checkpoint verifies and the journal replays");
    let recovered = b.checkpoint(crash_shard);

    assert_eq!(expected.state_hash(), recovered.state_hash());
    assert_eq!(
        json(&expected),
        json(&recovered),
        "replayed shard state diverged from the uninterrupted shard"
    );
    // Both twins still finish identically.
    assert_eq!(
        json(&a.finish_stream(&mut src_a)),
        json(&b.finish_stream(&mut src_b))
    );
}

/// Total cluster wipe: every shard is checkpointed at w1 and recovered
/// at w2 — recovery order must not matter, and the federation still
/// matches the uninterrupted reference.
#[test]
fn all_shards_recover_from_their_checkpoints() {
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let w1 = (tasks.len() / 3) as u64;
    let w2 = (2 * tasks.len() / 3) as u64;
    let reference = builder(&cluster, &pet, 3, 1)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());

    let mut engine = builder(&cluster, &pet, 3, 1)
        .build()
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, w1);
    let snaps: Vec<_> = (0..3).map(|shard| engine.checkpoint(shard)).collect();
    engine.run_until(&mut source, w2);
    // Recover in an order different from shard order.
    for shard in [2usize, 0, 1] {
        engine
            .recover_shard(shard, &snaps[shard])
            .expect("checkpoint verifies and the journal replays");
    }
    assert_eq!(
        json(&reference),
        json(&engine.finish_stream(&mut source)),
        "full-wipe recovery diverged from the uninterrupted run"
    );
}

// ---------------------------------------------------------------------
// The cost model of a checkpoint: the reuse ledger's sweep.
// ---------------------------------------------------------------------

/// The named field of a `Value` object.
fn field<'v>(v: &'v serde::Value, name: &str) -> &'v serde::Value {
    v.get_field(name).expect("field present")
}

/// A checkpoint keeps of the reuse ledger only what the live state
/// can reach: on a lightly loaded journaled federation (4 round-robin
/// shards, exact reuse, 30 % duplicates) shard 0's checkpoint after 4N
/// arrivals holds only completed primaries due at or after the shard's
/// arrival watermark. (The outcome record's share of a capture is
/// pinned by `captures_copy_the_open_records_and_share_sealed_pages`
/// in `crates/sim/src/gateway.rs`.)
#[test]
fn checkpoints_cost_the_live_state_not_the_run() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    // The benchmark's supervised load: 25 K tasks per 3 000 tu.
    let workload = WorkloadConfig {
        total_tasks: 2_000,
        span_tu: 240.0,
        ..WorkloadConfig::paper_default(4321)
    };
    let tasks: Vec<Task> = workload
        .stream_trial(&pet, 0)
        .with_duplicate_rate(0.3, 0xD0B1)
        .collect();
    let n = (tasks.len() / 4) as u64;
    let n_types = pet.n_task_types();
    let mut engine = GatewayBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(55))
        .shards(4)
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
        .expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    engine.run_until(&mut source, n);
    // An earlier checkpoint of the shard, as a supervised run takes.
    engine.checkpoint(0);
    engine.run_until(&mut source, 4 * n);
    let late = engine.checkpoint(0);

    let payload = late.payload();
    let watermark: u64 =
        serde::Deserialize::from_value(field(payload, "arrival_watermark"))
            .expect("the watermark is a tick count");
    let serde::Value::Array(completed) =
        field(field(payload, "reuse"), "completed_exec")
    else {
        panic!("completed_exec is an array");
    };
    assert!(!completed.is_empty(), "the fixture completes primaries");
    for entry in completed {
        let deadline: u64 =
            serde::Deserialize::from_value(field(entry, "deadline"))
                .expect("deadlines are tick counts");
        assert!(deadline >= watermark, "{deadline} < {watermark}");
    }
}

// ---------------------------------------------------------------------
// Property test: crash-failover under hostile bursts.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hostile streams (same-instant bursts, sparse/duplicate external
    /// ids, oscillating deadlines) survive a mid-run crash of a
    /// stream-chosen shard bit-identically.
    #[test]
    fn hostile_streams_survive_a_crash_bit_identically(
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
        let crash_shard = (raw[0].0 % 3) as usize;
        let w1 = (stream.len() / 3) as u64;
        let w2 = (2 * stream.len() / 3) as u64;

        let build = || {
            GatewayBuilder::new(&cluster, &pet)
                .config(SimConfig::batch(9))
                .shards(3)
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

        let reference = build()
            .build()
            .expect("valid configuration")
            .run_stream(stream.iter().copied());
        prop_assert_eq!(reference.unreported(), 0);

        let mut engine = build().build().expect("valid configuration");
        engine.enable_journal();
        let mut source = stream.iter().copied().peekable();
        engine.run_until(&mut source, w1);
        let snap = engine.checkpoint(crash_shard);
        engine.run_until(&mut source, w2);
        engine
            .recover_shard(crash_shard, &snap)
            .expect("checkpoint verifies and the journal replays");
        let recovered = engine.finish_stream(&mut source);
        prop_assert_eq!(
            json(&reference),
            json(&recovered),
            "crash of shard {} diverged on a hostile stream",
            crash_shard
        );
    }
}

#[test]
#[ignore = "full-size crash-failover sweep; run with --ignored"]
fn full_scale_recovery_matches_uninterrupted() {
    let (cluster, pet, tasks) = fixture(1.0);
    let w1 = (tasks.len() / 3) as u64;
    let w2 = (2 * tasks.len() / 3) as u64;
    let reference = builder(&cluster, &pet, 4, 1)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    for crash_shard in 0..4 {
        let mut engine = builder(&cluster, &pet, 4, 1)
            .build()
            .expect("valid configuration");
        engine.enable_journal();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, w1);
        let snap = engine.checkpoint(crash_shard);
        engine.run_until(&mut source, w2);
        engine
            .recover_shard(crash_shard, &snap)
            .expect("checkpoint verifies and the journal replays");
        assert_eq!(
            json(&reference),
            json(&engine.finish_stream(&mut source)),
            "crash_shard={crash_shard}"
        );
    }
}
