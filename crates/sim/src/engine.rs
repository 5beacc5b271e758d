//! The discrete-event driver over the streaming scheduler core.
//!
//! [`Engine`] owns what a *simulation* adds on top of scheduling: the
//! ground-truth execution-time matrix and one shard's event loop. All
//! mapping decisions live in [`SchedulerCore`] — the engine merely
//! advances the clock, feeds arrivals and completions into the core,
//! and turns the core's [`Start`](crate::core::Start) records into
//! future completion events.
//!
//! The event loop is a `Lane`: one shard's completion/wakeup heap,
//! ground-truth RNG stream and wakeup flag, plus the rules that advance
//! them. All three drivers run their shards on lanes — [`Engine`]
//! drives one, [`crate::FederatedEngine`] steps N of them in global
//! event order, and [`crate::ParallelFederatedEngine`] runs them on its
//! pool — so duration sampling, the wakeup safety net and the
//! completion/wakeup step each exist once.
//!
//! Two entry points drive the same code path:
//!
//! * [`Engine::run`] — the legacy all-up-front interface: a slice of
//!   tasks sorted by arrival (the `WorkloadTrial` layout);
//! * [`Engine::run_stream`] — the streaming interface: any iterator of
//!   tasks ordered by arrival time, consumed one arrival at a time
//!   (recorded traces, generators, live adapters).
//!
//! `run` is a thin shim over `run_stream`, so the two are bit-identical
//! by construction — the root determinism suite pins this.

use crate::core::SchedulerCore;
use crate::decisions::{Decisions, NullDecisions};
use crate::event::{Event, EventKind, EventQueue};
use crate::journal::JournalOp;
use crate::sink::{NullSink, Sink};
use crate::stats::{SimStats, StatsError};
use taskprune_model::{PetMatrix, SimTime, Task};
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
    /// hands the core's decisions to `decisions` (the federated drivers
    /// pass [`NullDecisions`], which keeps the buffer bounded at no
    /// cost).
    pub(crate) fn settle<S: Sink, D: Decisions>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        decisions: &mut D,
    ) {
        let now = core.now();
        for start in core.drain_starts() {
            let duration = truth.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut self.rng,
            );
            self.events.push(Event {
                time: now + duration,
                kind: EventKind::Completion {
                    machine: start.machine.id,
                    task: start.task.id,
                },
            });
        }
        for decision in core.drain_decisions() {
            decisions.on_decision(now, *decision);
        }
    }

    /// Fires every event due before an arrival at `cutoff`, then moves
    /// the clock to `target`, the instant that arrival is processed (a
    /// task delivered out of order arrives at the running maximum of
    /// arrival times: the clock never rewinds).
    pub(crate) fn advance_events<S: Sink, D: Decisions>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        decisions: &mut D,
        cutoff: SimTime,
        target: SimTime,
    ) {
        while self.has_due(cutoff) {
            let (time, op) = self.pop().expect("has_due peeked");
            core.advance_to(time);
            if op.apply(core) {
                self.settle(core, truth, decisions);
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
        self.events.push(Event {
            time: SimTime(earliest.ticks().max(now.ticks()) + 1),
            kind: EventKind::Wakeup,
        });
        self.wakeup_pending = true;
    }

    /// Runs the shard to completion after the last arrival, processed
    /// at `t_last`: completions through `t_last` fire as they would
    /// before an arrival, then the drain begins at `t_last` with a
    /// wakeup check after each mapping event.
    pub(crate) fn finish<S: Sink, D: Decisions>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        decisions: &mut D,
        t_last: SimTime,
    ) {
        self.advance_events(core, truth, decisions, t_last, t_last);
        self.maybe_schedule_wakeup(core, t_last);
        while let Some((time, op)) = self.pop() {
            core.advance_to(time);
            if op.apply(core) {
                self.settle(core, truth, decisions);
                self.maybe_schedule_wakeup(core, time);
            }
        }
    }
}

/// A single-run simulation: a [`SchedulerCore`] plus the one-lane event
/// loop driving it. Construct via [`crate::SchedulerBuilder::build`],
/// then call [`Engine::run`] or [`Engine::run_stream`].
///
/// `D` is the [`Decisions`] consumer the driver feeds the core's typed
/// decision stream into after every event; the default
/// [`NullDecisions`] restores the historical drain-and-discard
/// behaviour at zero cost.
pub struct Engine<'a, S: Sink = NullSink, D: Decisions = NullDecisions> {
    core: SchedulerCore<'a, S>,
    /// The matrix actual durations are sampled from: ground truth.
    /// Identical to the core's belief matrix unless the builder's
    /// `truth` separated them to study estimator error.
    truth: &'a PetMatrix,
    lane: Lane,
    decisions: D,
}

impl<'a, S: Sink, D: Decisions> Engine<'a, S, D> {
    /// Wraps a built core into a driver. Crate-internal; the builder is
    /// the public entrance.
    pub(crate) fn from_core(
        core: SchedulerCore<'a, S>,
        truth: &'a PetMatrix,
        seed: u64,
        decisions: D,
    ) -> Self {
        Self {
            core,
            truth,
            lane: Lane::new(seed),
            decisions,
        }
    }

    /// Runs the full workload to completion (the system drains after the
    /// last arrival) and returns the outcome record.
    ///
    /// `tasks` must be sorted by arrival with `task.id` equal to its
    /// index — the layout `WorkloadTrial` produces. This is the legacy
    /// entry point; it feeds the same streaming path as
    /// [`Engine::run_stream`].
    pub fn run(self, tasks: &[Task]) -> SimStats {
        for (i, task) in tasks.iter().enumerate() {
            assert_eq!(
                task.id.0 as usize, i,
                "task ids must equal their index"
            );
        }
        self.run_stream(tasks.iter().copied())
    }

    /// Consumes an arrival stream ordered by non-decreasing
    /// `task.arrival`, pushing each task into the core the moment the
    /// simulated clock reaches it, and drains the system after the last
    /// arrival.
    ///
    /// A task whose `arrival` lies before the clock (an out-of-order
    /// delivery) is ingested immediately at the current instant — the
    /// clock never rewinds, so one late task cannot corrupt the
    /// timeline of everything after it.
    ///
    /// # Panics
    /// When the stream carries a task id too sparse for the dense
    /// outcome tables; [`Engine::try_run_stream`] is the recoverable
    /// variant.
    pub fn run_stream<I>(self, arrivals: I) -> SimStats
    where
        I: IntoIterator<Item = Task>,
    {
        self.try_run_stream(arrivals)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Engine::run_stream`]: a malformed arrival (an id the
    /// dense stats tables cannot absorb) surfaces as a typed
    /// [`StatsError`] instead of a panic, so a caller replaying an
    /// untrusted external trace can treat it as a recoverable input
    /// error.
    pub fn try_run_stream<I>(
        mut self,
        arrivals: I,
    ) -> Result<SimStats, StatsError>
    where
        I: IntoIterator<Item = Task>,
    {
        let mut t_last: Option<SimTime> = None;
        for task in arrivals {
            // The running maximum of arrival times: a task delivered
            // out of order arrives *now*, like at a live front-end.
            let at = t_last.map_or(task.arrival, |t| t.max(task.arrival));
            self.lane.advance_events(
                &mut self.core,
                self.truth,
                &mut self.decisions,
                task.arrival,
                at,
            );
            self.core.try_push_arrival(task)?;
            self.lane
                .settle(&mut self.core, self.truth, &mut self.decisions);
            t_last = Some(at);
        }
        if let Some(t_last) = t_last {
            self.lane.finish(
                &mut self.core,
                self.truth,
                &mut self.decisions,
                t_last,
            );
        }
        Ok(self.core.finish())
    }
}

impl<S: Sink, D: Decisions> std::fmt::Debug for Engine<'_, S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("core", &self.core)
            .field("pending_events", &self.lane.events.len())
            .field("wakeup_pending", &self.lane.wakeup_pending)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SchedulerBuilder;
    use crate::config::SimConfig;
    use crate::traits::{
        Assignment, BatchMapper, EventReport, ImmediateMapper, MappingStrategy,
        NoPruning, Pruner,
    };
    use crate::view::SystemView;
    use taskprune_model::{
        BinSpec, Cluster, MachineId, TaskId, TaskOutcome, TaskTypeId,
    };
    use taskprune_prob::Pmf;

    /// The builder-made engine the tests drive.
    fn build<'a>(
        cfg: SimConfig,
        cluster: &Cluster,
        pet: &'a PetMatrix,
        strategy: MappingStrategy,
        pruner: impl Pruner + 'static,
    ) -> Engine<'a> {
        SchedulerBuilder::new(cluster, pet)
            .config(cfg)
            .strategy(strategy)
            .pruner(pruner)
            .build()
            .expect("valid configuration")
    }

    /// Deterministic PET: every task takes exactly 2 bins (200 ticks).
    fn det_pet(n_machines: usize) -> PetMatrix {
        PetMatrix::new(
            BinSpec::new(100),
            n_machines,
            1,
            vec![Pmf::point_mass(2); n_machines],
        )
    }

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

    struct RoundRobinImmediate {
        next: usize,
    }
    impl ImmediateMapper for RoundRobinImmediate {
        fn name(&self) -> &str {
            "rr"
        }
        fn place(&mut self, view: &SystemView<'_>, _task: &Task) -> MachineId {
            let m = MachineId((self.next % view.n_machines()) as u16);
            self.next += 1;
            m
        }
    }

    fn tasks_every(n: usize, gap: u64, slack: u64) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let arr = i as u64 * gap;
                Task::new(
                    i as u64,
                    TaskTypeId(0),
                    SimTime(arr),
                    SimTime(arr + slack),
                )
            })
            .collect()
    }

    #[test]
    fn underloaded_batch_system_completes_everything() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        // Gap 300 > duration ≈ 200..300: machine keeps up; slack huge.
        let tasks = tasks_every(20, 300, 10_000);
        let engine = build(
            SimConfig::batch(1),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        );
        let stats = engine.run(&tasks);
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 20);
        assert_eq!(stats.unreported(), 0);
        assert!((stats.robustness_pct(0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_system_drops_reactively() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        // 30 tasks arrive at once with slack for ~3 completions on one
        // machine; most must be dropped reactively (never mapped or
        // mapped but expired in queue).
        let tasks = tasks_every(30, 0, 800);
        let engine = build(
            SimConfig::batch(2),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        );
        let stats = engine.run(&tasks);
        let on_time = stats.count(TaskOutcome::CompletedOnTime);
        let dropped = stats.count(TaskOutcome::DroppedReactive);
        assert!((2..=4).contains(&on_time), "on_time {on_time}");
        assert!(dropped >= 20, "dropped {dropped}");
        assert_eq!(stats.unreported(), 0);
    }

    #[test]
    fn immediate_mode_places_on_arrival() {
        let pet = det_pet(2);
        let cluster = Cluster::one_per_type(2);
        let tasks = tasks_every(10, 50, 5_000);
        let engine = build(
            SimConfig::immediate(7),
            &cluster,
            &pet,
            MappingStrategy::Immediate(Box::new(RoundRobinImmediate {
                next: 0,
            })),
            NoPruning,
        );
        let stats = engine.run(&tasks);
        assert_eq!(stats.unreported(), 0);
        // Two machines, duration ≈ 250, gap 50: heavy load but round
        // robin spreads; everything eventually completes or drops —
        // conservation is what matters here.
        let total: usize = [
            TaskOutcome::CompletedOnTime,
            TaskOutcome::CompletedLate,
            TaskOutcome::DroppedReactive,
            TaskOutcome::DroppedProactive,
            TaskOutcome::CancelledRunning,
            TaskOutcome::Rejected,
            TaskOutcome::Unfinished,
        ]
        .iter()
        .map(|&o| stats.count(o))
        .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let pet = det_pet(2);
        let cluster = Cluster::one_per_type(2);
        let tasks = tasks_every(50, 40, 900);
        let run = || {
            build(
                SimConfig::batch(99),
                &cluster,
                &pet,
                MappingStrategy::Batch(Box::new(ToZero)),
                NoPruning,
            )
            .run(&tasks)
        };
        let a = run();
        let b = run();
        assert_eq!(a.robustness_pct(0), b.robustness_pct(0));
        for i in 0..50 {
            assert_eq!(a.outcome(TaskId(i)), b.outcome(TaskId(i)));
        }
    }

    #[test]
    fn empty_workload_is_fine() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        let engine = build(
            SimConfig::batch(1),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        );
        let stats = engine.run(&[]);
        assert_eq!(stats.n_tasks(), 0);
        assert_eq!(stats.mapping_events, 0);
    }

    /// A pruner that defers everything below a fixed chance threshold —
    /// exercises the deferral path and the wakeup safety net.
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

    #[test]
    fn defer_everything_ends_via_wakeup_reactive_drops() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        let tasks = tasks_every(5, 10, 500);
        let engine = build(
            SimConfig::batch(3),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            DeferAll,
        );
        let stats = engine.run(&tasks);
        // Nothing may ever run; everything must be reactively dropped at
        // its deadline via wakeup events — not stuck as unreported.
        assert_eq!(stats.count(TaskOutcome::DroppedReactive), 5);
        assert_eq!(stats.unreported(), 0);
        assert!(stats.deferrals > 0);
    }

    #[test]
    fn cancel_running_late_frees_machines() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        // One task whose deadline (150) lands mid-execution (~200-300
        // ticks), plus a later arrival to trigger the mapping event that
        // performs the cancellation.
        let tasks = vec![
            Task::new(0, TaskTypeId(0), SimTime(0), SimTime(150)),
            Task::new(1, TaskTypeId(0), SimTime(180), SimTime(10_000)),
        ];
        let mut cfg = SimConfig::batch(5);
        cfg.cancel_running_late = true;
        let engine = build(
            cfg,
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        );
        let stats = engine.run(&tasks);
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
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        // Task 1 is delivered after task 0 despite an earlier arrival
        // stamp: it must be ingested at the clock (200), not corrupt
        // the timeline by rewinding to 100.
        let tasks = [
            Task::new(0, TaskTypeId(0), SimTime(200), SimTime(100_000)),
            Task::new(1, TaskTypeId(0), SimTime(100), SimTime(100_000)),
        ];
        let stats = build(
            SimConfig::batch(1),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        )
        .run_stream(tasks.iter().copied());
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 2);
        assert_eq!(stats.unreported(), 0);
        assert!(stats.end_time >= SimTime(200));
    }

    #[test]
    fn decision_consumer_sees_the_full_stream() {
        use crate::decisions::DecisionCounter;
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        let tasks = tasks_every(12, 100, 10_000);
        let mut counter = DecisionCounter::default();
        let stats = SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(3))
            .strategy(MappingStrategy::Batch(Box::new(ToZero)))
            .decisions(&mut counter)
            .build()
            .expect("valid configuration")
            .run(&tasks);
        // Every task was eventually assigned exactly once, and the
        // consumer observed each assignment the driver used to discard.
        assert_eq!(counter.assigned as usize, 12);
        assert_eq!(counter.total(), 12);
        assert_eq!(
            stats.count(TaskOutcome::CompletedOnTime)
                + stats.count(TaskOutcome::CompletedLate)
                + stats.count(TaskOutcome::DroppedReactive),
            12
        );
    }

    #[test]
    fn try_run_stream_surfaces_sparse_ids_as_errors() {
        let pet = det_pet(1);
        let cluster = Cluster::one_per_type(1);
        let bad = vec![Task::new(
            u64::from(u32::MAX) * 1_000,
            TaskTypeId(0),
            SimTime(0),
            SimTime(1_000),
        )];
        let err = build(
            SimConfig::batch(1),
            &cluster,
            &pet,
            MappingStrategy::Batch(Box::new(ToZero)),
            NoPruning,
        )
        .try_run_stream(bad)
        .expect_err("sparse id must surface, not panic");
        assert!(matches!(err, crate::stats::StatsError::SparseTaskId { .. }));
    }

    #[test]
    fn run_stream_matches_run_bit_for_bit() {
        let pet = det_pet(2);
        let cluster = Cluster::one_per_type(2);
        let tasks = tasks_every(60, 30, 700);
        let make = || {
            build(
                SimConfig::batch(42),
                &cluster,
                &pet,
                MappingStrategy::Batch(Box::new(ToZero)),
                NoPruning,
            )
        };
        let batch = make().run(&tasks);
        let streamed = make().run_stream(tasks.iter().copied());
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&streamed).unwrap(),
        );
    }
}
