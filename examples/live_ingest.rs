//! Live ingest: driving the streaming scheduler core one arrival at a
//! time.
//!
//! Where the other examples hand a complete task list to `run(tasks)`,
//! this one plays the role of a serverless front-end: it consumes a
//! `TraceSource` arrival by arrival, pushes each task into the
//! `SchedulerCore` the moment it "arrives", reports completions back as
//! the (simulated) workers finish, and prints the scheduler's typed
//! `Decision` stream as it drains — exactly the loop a live deployment
//! would run, minus the network.
//!
//! Run with: `cargo run --release --example live_ingest`

use std::collections::BinaryHeap;
use taskprune::prelude::*;
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::{Decision, SchedulerBuilder};

/// One in-flight execution: when it finishes and on which machine.
/// Ordered as a min-heap on finish time.
#[derive(PartialEq, Eq)]
struct InFlight {
    finish: SimTime,
    machine: taskprune_model::MachineId,
    task: taskprune_model::TaskId,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the soonest finish.
        other
            .finish
            .cmp(&self.finish)
            .then_with(|| other.machine.cmp(&self.machine))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Decisions seen so far, by kind: assigned, deferred, dropped
/// reactively, pruned, rejected, cancelled.
#[derive(Default)]
struct Tally([u64; 6]);

impl Tally {
    fn count(&mut self, d: &Decision) {
        let kind = match d {
            Decision::Assign { .. } => 0,
            Decision::DeferToBatch { .. } => 1,
            Decision::DropReactive { .. } => 2,
            Decision::DropProbabilistic { .. } => 3,
            Decision::Reject { .. } => 4,
            Decision::CancelRunning { .. } => 5,
        };
        self.0[kind] += 1;
    }

    fn summary(&self) -> String {
        let [assigned, deferred, reactive, pruned, rejected, cancelled] =
            self.0;
        format!(
            "{} decisions: {assigned} assigned, {deferred} deferred, \
             {reactive} dropped reactive, {pruned} pruned, \
             {rejected} rejected, {cancelled} cancelled",
            self.0.iter().sum::<u64>(),
        )
    }
}

fn describe(d: &Decision) -> String {
    match d {
        Decision::Assign { task, machine } => {
            format!("assign   task {:>4} -> machine {}", task.0, machine.0)
        }
        Decision::DeferToBatch { task } => {
            format!(
                "defer    task {:>4} (pruner veto, retry next event)",
                task.0
            )
        }
        Decision::DropReactive { task } => {
            format!("drop     task {:>4} (deadline already missed)", task.0)
        }
        Decision::DropProbabilistic { task } => {
            format!("prune    task {:>4} (chance below threshold)", task.0)
        }
        Decision::Reject { task } => {
            format!("reject   task {:>4} (all queues full)", task.0)
        }
        Decision::CancelRunning { task } => {
            format!("cancel   task {:>4} (late mid-execution)", task.0)
        }
    }
}

fn main() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();

    // An oversubscribed minute of traffic, streamed — the same
    // TraceSource a recorded production trace would provide.
    let workload = WorkloadConfig {
        total_tasks: 600,
        span_tu: 60.0,
        ..WorkloadConfig::paper_default(42)
    };
    let mut source = workload.stream_trial(&pet, 0).peekable();

    let mut core = SchedulerBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(7))
        .strategy(HeuristicKind::Mm.make())
        .pruner(PruningMechanism::new(
            PruningConfig::paper_default(),
            pet.n_task_types(),
        ))
        .build_core()
        .expect("valid configuration");

    // The "workers": executions in flight, finishing at sampled times.
    let mut rng = Xoshiro256PlusPlus::new(7);
    let mut in_flight: BinaryHeap<InFlight> = BinaryHeap::new();
    let mut printed = 0usize;
    let mut tally = Tally::default();

    println!(
        "streaming {} tasks into an MM + pruning scheduler...\n",
        workload.total_tasks
    );
    loop {
        // Deliver whichever happens first: the next worker completion or
        // the next arrival from the stream.
        let next_finish = in_flight.peek().map(|f| f.finish);
        let next_arrival = source.peek().map(|t| t.arrival);
        match (next_finish, next_arrival) {
            (None, None) => {
                // Nothing in flight and nothing arriving: if deferred
                // work is stuck in the batch queue, fire the wakeup
                // safety net at its deadline so it is retried or
                // reactively dropped instead of starving.
                let Some(deadline) = core.earliest_pending_deadline() else {
                    break;
                };
                core.advance_to(SimTime(
                    deadline.ticks().max(core.now().ticks()) + 1,
                ));
                core.wakeup();
            }
            (Some(finish), arrival) if arrival.is_none_or(|a| finish <= a) => {
                let done = in_flight.pop().expect("peeked");
                core.advance_to(done.finish);
                core.complete(done.machine, done.task);
            }
            _ => {
                let task = source.next().expect("peeked");
                core.advance_to(task.arrival);
                core.push_arrival(task);
            }
        }

        // Hand new executions to the "workers".
        let now = core.now();
        for start in core.drain_starts() {
            let duration = pet.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut rng,
            );
            in_flight.push(InFlight {
                finish: now + duration,
                machine: start.machine.id,
                task: start.task.id,
            });
        }

        // Print the decision stream as it drains (first 40 shown),
        // counting every decision by kind.
        let now = core.now();
        for decision in core.drain_decisions() {
            tally.count(decision);
            if printed < 40 {
                println!(
                    "[t={:>8.2}tu] {}",
                    now.as_time_units(),
                    describe(decision)
                );
                printed += 1;
                if printed == 40 {
                    println!("... (suppressing further decisions)");
                }
            }
        }
    }

    let stats = core.finish();
    println!("\n--- drained ---");
    println!("decision summary       {}", tally.summary());
    println!("mapping events         {}", stats.mapping_events);
    println!(
        "on-time                {}",
        stats.count(TaskOutcome::CompletedOnTime)
    );
    println!(
        "late                   {}",
        stats.count(TaskOutcome::CompletedLate)
    );
    println!(
        "dropped (reactive)     {}",
        stats.count(TaskOutcome::DroppedReactive)
    );
    println!(
        "pruned (probabilistic) {}",
        stats.count(TaskOutcome::DroppedProactive)
    );
    println!("deferrals              {}", stats.deferrals);
    println!(
        "robustness             {:.1} % on time",
        stats.robustness_pct(0)
    );
    assert_eq!(stats.unreported(), 0, "every task accounted for");
}
