//! Streaming ≡ batch equivalence: the push-driven ingest path must be
//! **bit-identical** to the legacy `Engine::run(tasks)` shim.
//!
//! Three layers of proof, each across immediate and batch modes:
//!
//! 1. `run(tasks)` vs `run_stream(source)` — the two public entry
//!    points produce byte-identical serialized `SimStats` (outcomes,
//!    counters, per-type stats, and — in the traced variant — the full
//!    `TraceLog`).
//! 2. A *manual* driver written against only the public
//!    `SchedulerCore` API (`advance_to` / `push_arrival` / `complete` /
//!    `wakeup` / `drain_starts`) reproduces `Engine::run` byte for
//!    byte — proving the streaming API is sufficient to rebuild the
//!    discrete-event simulation outside the engine.
//! 3. The same at the paper's workload family via the `TraceSource`
//!    adapter, scaled by `TASKPRUNE_TEST_SCALE` (full size under
//!    `--ignored`).

mod common;

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::event::{Event, EventKind, EventQueue};
use taskprune_sim::{SchedulerBuilder, TraceLog};
use taskprune_workload::TaskStream;

fn fixture(scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(2_500, scale) as usize,
        span_tu: common::scaled(400, scale) as f64,
        ..WorkloadConfig::paper_default(1234)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn builder<'a>(
    cluster: &Cluster,
    pet: &'a PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
) -> SchedulerBuilder<'a> {
    let sim = match kind.allocation_mode() {
        taskprune_sim::AllocationMode::Immediate => SimConfig::immediate(77),
        taskprune_sim::AllocationMode::Batch => SimConfig::batch(77),
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
    b
}

fn json(stats: &SimStats) -> String {
    serde_json::to_string(stats).expect("SimStats serializes")
}

/// Layer 2: a from-scratch discrete-event driver over the *public*
/// streaming core API. Mirrors what `Engine` does internally without
/// using `Engine` — if the public API were missing anything, this would
/// not be writable (or would diverge).
fn drive_manually(
    cluster: &Cluster,
    pet: &PetMatrix,
    kind: HeuristicKind,
    pruned: bool,
    tasks: &[Task],
) -> SimStats {
    let mut core = builder(cluster, pet, kind, pruned)
        .build_core()
        .expect("valid configuration");
    let seed = core.config().seed;
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut events = EventQueue::new();
    let mut wakeup_pending = false;
    let mut source = tasks.iter().copied().peekable();

    loop {
        let event_first = match (events.peek(), source.peek()) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(e), Some(t)) => {
                e.time < t.arrival
                    || (e.time == t.arrival
                        && matches!(e.kind, EventKind::Completion { .. }))
            }
        };
        if event_first {
            let event = events.pop().expect("peeked");
            core.advance_to(event.time);
            match event.kind {
                EventKind::Completion { machine, task } => {
                    if !core.complete(machine, task) {
                        continue; // stale after a cancellation
                    }
                }
                EventKind::Wakeup => {
                    wakeup_pending = false;
                    core.wakeup();
                }
            }
        } else {
            let task = source.next().expect("peeked");
            core.advance_to(task.arrival);
            core.push_arrival(task);
        }
        // Sample ground truth for every start the core issued and
        // schedule its completion (belief == truth in this fixture).
        let now = core.now();
        for start in core.drain_starts() {
            let duration = pet.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut rng,
            );
            events.push(Event {
                time: now + duration,
                kind: EventKind::Completion {
                    machine: start.machine.id,
                    task: start.task.id,
                },
            });
        }
        core.drain_decisions();
        // The wakeup safety net for all-deferred batch queues.
        if !wakeup_pending && source.peek().is_none() && events.is_empty() {
            if let Some(earliest) = core.earliest_pending_deadline() {
                events.push(Event {
                    time: taskprune_model::SimTime(
                        earliest.ticks().max(core.now().ticks()) + 1,
                    ),
                    kind: EventKind::Wakeup,
                });
                wakeup_pending = true;
            }
        }
    }
    core.finish()
}

fn assert_equivalent(kind: HeuristicKind, pruned: bool, scale: f64) {
    let (cluster, pet, tasks) = fixture(scale);

    let via_run = builder(&cluster, &pet, kind, pruned)
        .build()
        .expect("valid configuration")
        .run(&tasks);
    let via_stream = builder(&cluster, &pet, kind, pruned)
        .build()
        .expect("valid configuration")
        .run_stream(TaskStream::from_tasks(tasks.clone()));
    let via_core = drive_manually(&cluster, &pet, kind, pruned, &tasks);

    assert_eq!(via_run.unreported(), 0);
    let a = json(&via_run);
    assert_eq!(
        a,
        json(&via_stream),
        "{kind:?} pruned={pruned}: run vs run_stream diverged"
    );
    assert_eq!(
        a,
        json(&via_core),
        "{kind:?} pruned={pruned}: run vs manual core drive diverged"
    );
}

#[test]
fn batch_mode_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Mm, false, common::test_scale());
}

#[test]
fn batch_mode_pruned_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Msd, true, common::test_scale());
}

#[test]
fn immediate_mode_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Mct, false, common::test_scale());
}

#[test]
fn immediate_mode_pruned_streaming_is_bit_identical() {
    assert_equivalent(HeuristicKind::Kpb, true, common::test_scale());
}

#[test]
fn traced_streaming_produces_the_identical_trace() {
    // Serialized SimStats includes the TraceLog: byte equality therefore
    // pins the full event-by-event trace, not just the outcome counts.
    let (cluster, pet, tasks) = fixture(common::test_scale() * 0.5);
    let traced = |stream: bool| -> SimStats {
        let engine = builder(&cluster, &pet, HeuristicKind::Mm, true)
            .sink(TraceLog::new(1_000_000, 4))
            .build()
            .expect("valid configuration");
        if stream {
            engine.run_stream(TaskStream::from_tasks(tasks.clone()))
        } else {
            engine.run(&tasks)
        }
    };
    let batch = traced(false);
    let streamed = traced(true);
    assert!(batch.trace.is_some(), "trace must be captured");
    assert_eq!(json(&batch), json(&streamed));
}

#[test]
#[ignore = "full-size equivalence sweep; run with --ignored"]
fn full_scale_streaming_is_bit_identical() {
    for (kind, pruned) in [
        (HeuristicKind::Mm, false),
        (HeuristicKind::Mm, true),
        (HeuristicKind::Msd, true),
        (HeuristicKind::Mct, false),
        (HeuristicKind::Kpb, true),
    ] {
        assert_equivalent(kind, pruned, 1.0);
    }
}
