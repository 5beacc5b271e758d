//! An independent reference for the single-cluster path: a
//! discrete-event loop written against the public `SchedulerCore` API
//! alone (`advance_to` / `push_arrival` / `complete` / `wakeup` /
//! `drain_starts` / `drain_decisions`). It shares no driver code with
//! `FederatedEngine`, so a record that matches it byte for byte shows
//! that the driver adds nothing to the paper system it drives, and that
//! the public API is enough to rebuild the simulation outside it.
//!
//! Include it with `#[path = "common/core_loop.rs"] mod core_loop;`.

use taskprune_model::{PetMatrix, SimTime, Task};
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::event::{Event, EventKind, EventQueue};
use taskprune_sim::{Decision, SchedulerCore, SimStats, Sink};

/// Runs `tasks` (ordered by arrival) through `core` to completion and
/// returns its record. Execution durations are sampled from `truth` on
/// the stream of the core's configured seed. Every decision goes to
/// `on_decision`, stamped with the instant of the mapping event that
/// took it.
pub fn drive_core<S: Sink>(
    mut core: SchedulerCore<'_, S>,
    truth: &PetMatrix,
    tasks: &[Task],
    mut on_decision: impl FnMut(SimTime, Decision),
) -> SimStats {
    let mut rng = Xoshiro256PlusPlus::new(core.config().seed);
    let mut events = EventQueue::new();
    let mut wakeup_pending = false;
    let mut source = tasks.iter().copied().peekable();

    loop {
        // A completion due at an arrival's instant frees its machine
        // before the arrival's mapping event.
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
        // schedule its completion.
        let now = core.now();
        for start in core.drain_starts() {
            let duration = truth.sample_duration(
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
        for decision in core.drain_decisions() {
            on_decision(now, *decision);
        }
        // The wakeup safety net for all-deferred batch queues.
        if !wakeup_pending && source.peek().is_none() && events.is_empty() {
            if let Some(earliest) = core.earliest_pending_deadline() {
                events.push(Event {
                    time: SimTime(earliest.ticks().max(now.ticks()) + 1),
                    kind: EventKind::Wakeup,
                });
                wakeup_pending = true;
            }
        }
    }
    core.finish()
}
