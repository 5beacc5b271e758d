//! Crash-failover live: versioned checkpoints and journal replay after
//! a shard crash, bit-identical to a run where nothing ever went wrong.
//!
//! Two acts:
//!
//! 1. **Checkpoint + crash + replay.** The federation journals every
//!    shard operation, checkpoints shard 1 a third of the way in, loses
//!    that shard's state two thirds in, and rebuilds it from the sealed
//!    snapshot plus the journal suffix. The final outcome record equals
//!    the uninterrupted run, byte for byte.
//! 2. **Tamper detection.** One bit of the checkpoint payload is
//!    flipped through its serialized form; the FNV-1a state hash
//!    rejects it at recovery time.
//!
//! Run with: `cargo run --release --example elastic_failover`

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{Snapshot, SnapshotError};

const SHARDS: usize = 4;

fn build<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
) -> GatewayBuilder<'a, taskprune_sim::NullSink> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(7))
        .shards(SHARDS)
        .policy(RoundRobinRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
}

/// Flips one payload bit through the serialized form — the only way in,
/// since `Snapshot` fields are private and `seal` stamps a fresh hash.
fn corrupt(snap: &Snapshot) -> Snapshot {
    use serde::{Deserialize, Serialize};
    fn flip(v: &mut serde::Value) -> bool {
        match v {
            serde::Value::UInt(x) => {
                *x ^= 1;
                true
            }
            serde::Value::Array(items) => items.iter_mut().any(flip),
            serde::Value::Object(fields) => {
                fields.iter_mut().any(|(_, v)| flip(v))
            }
            _ => false,
        }
    }
    let mut v = snap.to_value();
    let serde::Value::Object(fields) = &mut v else {
        unreachable!()
    };
    let payload = fields
        .iter_mut()
        .find(|(k, _)| k == "payload")
        .map(|(_, v)| v)
        .expect("payload field");
    assert!(flip(payload));
    Snapshot::from_value(&v).expect("decode is hash-agnostic")
}

fn main() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let tasks = WorkloadConfig {
        total_tasks: 6_000,
        span_tu: 400.0,
        ..WorkloadConfig::paper_default(42)
    }
    .generate_trial(&pet, 0)
    .tasks;
    let json = |s: &FederationStats| serde_json::to_string(s).unwrap();

    // Act 1: the uninterrupted reference, then crash + recover.
    let reference = build(&cluster, &pet)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());

    let mut engine =
        build(&cluster, &pet).build().expect("valid configuration");
    engine.enable_journal();
    let mut source = tasks.iter().copied().peekable();
    let (w1, w2) = (tasks.len() as u64 / 3, 2 * tasks.len() as u64 / 3);
    engine.run_until(&mut source, w1);
    let checkpoint = engine.checkpoint(1);
    println!(
        "checkpointed shard 1 at watermark {w1} \
         (snapshot v{}, state hash {:#018x})",
        checkpoint.version(),
        checkpoint.state_hash(),
    );
    engine.run_until(&mut source, w2);
    let journaled = engine.journal(1).len();
    println!(
        "shard 1 'crashed' at watermark {w2}; replaying {journaled} \
         journaled operations on top of the checkpoint"
    );

    // Act 2: a tampered checkpoint is rejected before it can restore.
    match engine.recover_shard(1, &corrupt(&checkpoint)) {
        Err(RunError::Snapshot(SnapshotError::HashMismatch {
            expected,
            found,
        })) => println!(
            "tampered checkpoint rejected: hash {found:#018x} != \
             sealed {expected:#018x}"
        ),
        other => panic!("tampering must be caught, got {other:?}"),
    }

    engine
        .recover_shard(1, &checkpoint)
        .expect("genuine checkpoint");
    let recovered = engine.finish_stream(&mut source);
    println!(
        "crash-failover bit-identical to the uninterrupted run: {}",
        json(&reference) == json(&recovered)
    );
    assert_eq!(json(&reference), json(&recovered));

    println!(
        "\n{} tasks, robustness {:.1} %",
        reference.n_tasks(),
        reference.paper_robustness_pct()
    );
}
