//! One shard's event loop: the `Lane` both drivers run their shards
//! on.
//!
//! A lane owns what a *simulation* adds on top of scheduling for one
//! shard: its pending completions and wakeups, the ground-truth RNG
//! stream its execution durations are sampled from, and the wakeup
//! flag. All mapping decisions live in [`SchedulerCore`]; a lane
//! advances the clock, feeds completions and wakeups into the core,
//! and turns the core's [`Start`](crate::core::Start) records into
//! future completion events.
//!
//! [`crate::FederatedEngine`] steps one lane per shard in global event
//! order (a single-cluster run is its one-shard case), and
//! [`crate::ParallelFederatedEngine`] runs the same lanes on its pool,
//! so duration sampling, the wakeup safety net and the
//! completion/wakeup step each exist once.

use crate::core::SchedulerCore;
use crate::event::{Event, EventKind, EventQueue};
use crate::journal::JournalOp;
use crate::sink::Sink;
use taskprune_model::{PetMatrix, SimTime};
use taskprune_prob::rng::Xoshiro256PlusPlus;

/// One shard's event loop: its pending completions and wakeups, the
/// ground-truth RNG stream its durations are sampled from, and the
/// wakeup flag, with the rules that advance them. See the [module
/// docs](self).
pub(crate) struct Lane {
    /// Pending completions and wakeups, in `(time, class, id)` order.
    pub(crate) events: EventQueue,
    /// Ground-truth duration sampling stream.
    pub(crate) rng: Xoshiro256PlusPlus,
    /// Whether a wakeup is scheduled and has not fired yet.
    pub(crate) wakeup_pending: bool,
}

impl Lane {
    /// An empty lane sampling durations from `seed`'s stream.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            events: EventQueue::new(),
            rng: Xoshiro256PlusPlus::new(seed),
            wakeup_pending: false,
        }
    }

    /// Removes the next event and returns its instant with the
    /// operation it applies ([`JournalOp::Completion`] or
    /// [`JournalOp::Wakeup`]). Popping a wakeup clears the flag.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, JournalOp)> {
        let event = self.events.pop()?;
        let op = match event.kind {
            EventKind::Completion { machine, task } => {
                JournalOp::Completion { machine, task }
            }
            EventKind::Wakeup => {
                self.wakeup_pending = false;
                JournalOp::Wakeup
            }
        };
        Some((event.time, op))
    }

    /// Whether an event fires before an arrival at `cutoff`: anything
    /// earlier, and a completion at the cutoff itself (free capacity
    /// before new demand at the same instant).
    #[inline]
    pub(crate) fn has_due(&self, cutoff: SimTime) -> bool {
        self.events.peek().is_some_and(|e| {
            e.time < cutoff
                || (e.time == cutoff
                    && matches!(e.kind, EventKind::Completion { .. }))
        })
    }

    /// Turns the core's new starts into completion events, sampling
    /// each actual duration from `truth` on this lane's stream, then
    /// discards the core's decisions: a driver keeps the outcome
    /// record, not the decision stream, and draining keeps the buffer
    /// bounded.
    pub(crate) fn settle<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
    ) {
        let now = core.now();
        for start in core.drain_starts() {
            let duration = truth.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut self.rng,
            );
            // A clock near the end of time saturates instead of
            // wrapping into the past.
            self.events.push(Event {
                time: now.saturating_add(duration),
                kind: EventKind::Completion {
                    machine: start.machine.id,
                    task: start.task.id,
                },
            });
        }
        core.drain_decisions();
    }

    /// Fires every event due before an arrival at `cutoff`, then moves
    /// the clock to `target`, the instant that arrival is processed (a
    /// task delivered out of order arrives at the running maximum of
    /// arrival times: the clock never rewinds).
    pub(crate) fn advance_events<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        cutoff: SimTime,
        target: SimTime,
    ) {
        while self.has_due(cutoff) {
            let (time, op) = self.pop().expect("has_due peeked");
            core.advance_to(time);
            if op.apply(core) {
                self.settle(core, truth);
            }
        }
        if target > core.now() {
            core.advance_to(target);
        }
    }

    /// The wakeup safety net: when no event will ever fire again but
    /// the batch queue still holds work (every machine idle, every
    /// remaining task deferred), schedule a synthetic mapping event
    /// just past the earliest pending deadline and after `now`, where
    /// the task is either retried or reactively dropped. Does nothing
    /// while a wakeup or any other event is pending.
    pub(crate) fn maybe_schedule_wakeup<S: Sink>(
        &mut self,
        core: &SchedulerCore<'_, S>,
        now: SimTime,
    ) {
        if self.wakeup_pending || !self.events.is_empty() {
            return;
        }
        let Some(earliest) = core.earliest_pending_deadline() else {
            return;
        };
        // A deadline at the end of the clock never passes, so no
        // wakeup could drop its task: it stays pending, and the run
        // ends with it unfinished instead of waking forever.
        let Some(after) = earliest.max(now).ticks().checked_add(1) else {
            return;
        };
        self.events.push(Event {
            time: SimTime(after),
            kind: EventKind::Wakeup,
        });
        self.wakeup_pending = true;
    }

    /// Runs the shard to completion after the last arrival, processed
    /// at `t_last`: completions through `t_last` fire as they would
    /// before an arrival, then the drain begins at `t_last` with a
    /// wakeup check after each mapping event.
    pub(crate) fn finish<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: SimTime,
    ) {
        self.advance_events(core, truth, t_last, t_last);
        self.maybe_schedule_wakeup(core, t_last);
        while let Some((time, op)) = self.pop() {
            core.advance_to(time);
            if op.apply(core) {
                self.settle(core, truth);
                self.maybe_schedule_wakeup(core, time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::gateway::GatewayBuilder;
    use crate::stats::SimStats;
    use crate::traits::{
        Assignment, BatchMapper, EventReport, MappingStrategy, NoPruning,
        Pruner,
    };
    use crate::view::SystemView;
    use taskprune_model::{
        BinSpec, Cluster, MachineId, PetMatrix, SimTime, Task, TaskId,
        TaskOutcome, TaskTypeId,
    };
    use taskprune_prob::Pmf;

    /// Maps everything to machine 0 in candidate order.
    struct ToZero;
    impl BatchMapper for ToZero {
        fn name(&self) -> &str {
            "to-zero"
        }
        fn select(
            &mut self,
            view: &SystemView<'_>,
            candidates: &[Task],
        ) -> Vec<Assignment> {
            candidates
                .iter()
                .take(view.free_slots(MachineId(0)))
                .map(|t| Assignment {
                    task: t.id,
                    machine: MachineId(0),
                })
                .collect()
        }
    }

    /// A pruner that defers everything: exercises the deferral path
    /// and the wakeup safety net.
    struct DeferAll;
    impl Pruner for DeferAll {
        fn name(&self) -> &str {
            "defer-all"
        }
        fn begin_event(&mut self, _report: &EventReport) {}
        fn select_drops(
            &mut self,
            _view: &SystemView<'_>,
        ) -> Vec<(MachineId, TaskId)> {
            Vec::new()
        }
        fn should_defer(&mut self, _task: &Task, _chance: f64) -> bool {
            true
        }
    }

    /// Runs `tasks` through a one-shard federation of one machine on
    /// which every task takes exactly 2 bins (200 ticks), mapped by
    /// [`ToZero`] and pruned by `pruner`.
    fn run_one_shard(
        cfg: SimConfig,
        pruner: fn() -> Box<dyn Pruner>,
        tasks: &[Task],
    ) -> SimStats {
        let pet =
            PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)]);
        let cluster = Cluster::one_per_type(1);
        GatewayBuilder::new(&cluster, &pet)
            .config(cfg)
            .strategy_with(|_| MappingStrategy::Batch(Box::new(ToZero)))
            .pruner_with(move |_| pruner())
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied())
            .per_shard
            .swap_remove(0)
    }

    fn no_pruning() -> Box<dyn Pruner> {
        Box::new(NoPruning)
    }

    #[test]
    fn empty_workload_is_fine() {
        let stats = run_one_shard(SimConfig::batch(1), no_pruning, &[]);
        assert_eq!(stats.n_tasks(), 0);
        assert_eq!(stats.mapping_events, 0);
    }

    #[test]
    fn defer_everything_ends_via_wakeup_reactive_drops() {
        let tasks: Vec<Task> = (0..5)
            .map(|i| {
                let arrival = i * 10;
                Task::new(
                    i,
                    TaskTypeId(0),
                    SimTime(arrival),
                    SimTime(arrival + 500),
                )
            })
            .collect();
        let stats =
            run_one_shard(SimConfig::batch(3), || Box::new(DeferAll), &tasks);
        // Nothing may ever run; everything must be reactively dropped at
        // its deadline via wakeup events — not stuck as unreported.
        assert_eq!(stats.count(TaskOutcome::DroppedReactive), 5);
        assert_eq!(stats.unreported(), 0);
        assert!(stats.deferrals > 0);
    }

    #[test]
    fn cancel_running_late_frees_machines() {
        // One task whose deadline (150) lands mid-execution (200
        // ticks), plus a later arrival to trigger the mapping event that
        // performs the cancellation.
        let tasks = [
            Task::new(0, TaskTypeId(0), SimTime(0), SimTime(150)),
            Task::new(1, TaskTypeId(0), SimTime(180), SimTime(10_000)),
        ];
        let mut cfg = SimConfig::batch(5);
        cfg.cancel_running_late = true;
        let stats = run_one_shard(cfg, no_pruning, &tasks);
        assert_eq!(
            stats.outcome(TaskId(0)),
            Some(TaskOutcome::CancelledRunning)
        );
        assert_eq!(
            stats.outcome(TaskId(1)),
            Some(TaskOutcome::CompletedOnTime)
        );
        assert!(stats.wasted_ticks > 0);
    }

    #[test]
    fn out_of_order_delivery_arrives_now_instead_of_rewinding() {
        // Task 1 is delivered after task 0 despite an earlier arrival
        // stamp: it must be ingested at the clock (200), not corrupt
        // the timeline by rewinding to 100.
        let tasks = [
            Task::new(0, TaskTypeId(0), SimTime(200), SimTime(100_000)),
            Task::new(1, TaskTypeId(0), SimTime(100), SimTime(100_000)),
        ];
        let stats = run_one_shard(SimConfig::batch(1), no_pruning, &tasks);
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 2);
        assert_eq!(stats.unreported(), 0);
        assert!(stats.end_time >= SimTime(200));
    }
}
