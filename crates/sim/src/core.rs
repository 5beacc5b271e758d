//! The streaming scheduler core: mapping decisions without a clock
//! driver.
//!
//! [`SchedulerCore`] is the paper's resource allocator (Fig. 1) as a
//! *clock-free state machine*. It owns the machine queues, the batch
//! queue, the mapping heuristic and the pruning policy, but it never
//! schedules an event and never samples an execution time. Callers feed
//! it reality:
//!
//! * [`advance_to`](SchedulerCore::advance_to) moves the core's notion
//!   of "now" forward;
//! * [`push_arrival`](SchedulerCore::push_arrival) ingests one task —
//!   live traffic, a recorded trace, or the §V-B generator all feed this
//!   same path;
//! * [`complete`](SchedulerCore::complete) reports that a machine
//!   finished its running task;
//! * [`wakeup`](SchedulerCore::wakeup) fires a synthetic mapping event
//!   (the deferral-starvation safety net).
//!
//! Each of these runs one *mapping event* (the paper's Fig. 5
//! procedure) and records its outcomes as typed [`Decision`]s, drained
//! with [`drain_decisions`](SchedulerCore::drain_decisions). Tasks the
//! core wants executed surface as [`Start`] records via
//! [`drain_starts`](SchedulerCore::drain_starts); the caller decides
//! when those executions finish and reports back via `complete` — in a
//! simulation that means sampling a ground-truth duration, in a live
//! deployment it means waiting for the worker.
//!
//! [`crate::SchedulerBuilder`] constructs the core;
//! [`crate::FederatedEngine`] is the bundled discrete-event driver over
//! one or more of them (a single-cluster run is its one-shard case).
//!
//! # Allocation discipline
//!
//! A steady-state mapping event performs no heap allocation in the
//! core: the reactive-drop list, the candidate list, the proposal list,
//! the drop work-lists, the event report and the decision/start buffers
//! are all reused arenas, and [`SystemView`] construction is three
//! borrows on the stack. (The estimator side has been allocation-free
//! since the convolution arena; see [`crate::queue`].)

use crate::config::SimConfig;
use crate::queue::{MachineQueue, QueueCapture};
use crate::reuse::{LedgerState, ReuseLedger, ReuseStats};
use crate::sink::{NullSink, Sink};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stats::{OutcomeCapture, OutcomePages, SimStats};
use crate::trace::{QueueSnapshot, TraceEvent};
use crate::traits::{Assignment, EventReport, MappingStrategy, Pruner};
use crate::view::SystemView;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::HashSet;
use taskprune_model::{
    Machine, MachineId, PetMatrix, SimTime, Task, TaskId, TaskOutcome,
};

/// One scheduling decision the core took during a mapping event.
///
/// Decisions are the core's *output stream*: every mapping event appends
/// the decisions it took, and the caller drains them with
/// [`SchedulerCore::drain_decisions`]. They mirror the paper's Fig. 5
/// procedure — reactive drops (Step 1), proactive probabilistic drops
/// (Steps 3–6), assignments and deferrals (Steps 7–11) — plus the two
/// immediate-mode outcomes (rejection, optional late cancellation).
/// A traced core records each one on its sink too, as
/// [`TraceEvent::Decided`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// The task was committed to a machine queue (Step 11).
    Assign {
        /// The mapped task.
        task: TaskId,
        /// The machine queue it joined.
        machine: MachineId,
    },
    /// The pruner vetoed a proposed mapping; the task stays in the batch
    /// queue until the next mapping event (Step 10).
    DeferToBatch {
        /// The deferred task.
        task: TaskId,
    },
    /// The task's deadline passed while it was pending, so it was
    /// dropped reactively (Step 1; applied by every configuration).
    DropReactive {
        /// The dropped task.
        task: TaskId,
    },
    /// The pruner dropped the task from a machine queue because its
    /// chance of success fell below the threshold (Steps 4–6).
    DropProbabilistic {
        /// The dropped task.
        task: TaskId,
    },
    /// Immediate mode only: the task arrived while every machine queue
    /// was full and there is no batch queue to hold it (Fig. 1a).
    Reject {
        /// The rejected task.
        task: TaskId,
    },
    /// The optional `cancel_running_late` policy cancelled a task whose
    /// deadline passed mid-execution.
    CancelRunning {
        /// The cancelled task.
        task: TaskId,
    },
}

impl Decision {
    /// The task this decision is about.
    pub fn task(&self) -> TaskId {
        match *self {
            Decision::Assign { task, .. }
            | Decision::DeferToBatch { task }
            | Decision::DropReactive { task }
            | Decision::DropProbabilistic { task }
            | Decision::Reject { task }
            | Decision::CancelRunning { task } => task,
        }
    }

    /// The same decision about another task: how the gateway restores
    /// external ids, and how a reuse follower inherits its primary's
    /// decision.
    #[must_use]
    pub fn with_task(self, task: TaskId) -> Self {
        match self {
            Decision::Assign { machine, .. } => {
                Decision::Assign { task, machine }
            }
            Decision::DeferToBatch { .. } => Decision::DeferToBatch { task },
            Decision::DropReactive { .. } => Decision::DropReactive { task },
            Decision::DropProbabilistic { .. } => {
                Decision::DropProbabilistic { task }
            }
            Decision::Reject { .. } => Decision::Reject { task },
            Decision::CancelRunning { .. } => Decision::CancelRunning { task },
        }
    }

    /// The terminal outcome this decision records, if it ends the task:
    /// a drop, a rejection or a cancellation. An assignment or a
    /// deferral leaves the task live.
    fn outcome(self) -> Option<TaskOutcome> {
        match self {
            Decision::Assign { .. } | Decision::DeferToBatch { .. } => None,
            Decision::DropReactive { .. } => Some(TaskOutcome::DroppedReactive),
            Decision::DropProbabilistic { .. } => {
                Some(TaskOutcome::DroppedProactive)
            }
            Decision::Reject { .. } => Some(TaskOutcome::Rejected),
            Decision::CancelRunning { .. } => {
                Some(TaskOutcome::CancelledRunning)
            }
        }
    }
}

/// A task the core wants executed: the FCFS head of a machine that just
/// went idle. The core has already marked the machine busy; the caller
/// owes it a matching [`SchedulerCore::complete`] once the execution
/// finishes (however the caller learns that — sampling in a simulation,
/// a worker callback in a live system).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Start {
    /// The machine that begins executing (id + type for duration
    /// lookup).
    pub machine: Machine,
    /// The task it executes.
    pub task: Task,
}

/// The clock-free scheduling state machine. See the [module
/// docs](self) for the contract; construct via
/// [`crate::SchedulerBuilder::build_core`].
pub struct SchedulerCore<'a, S: Sink = NullSink> {
    cfg: SimConfig,
    /// The matrix every *estimate* uses: the scheduler's belief about
    /// execution times.
    pet: &'a PetMatrix,
    strategy: MappingStrategy,
    pruner: Box<dyn Pruner>,
    queues: Vec<MachineQueue>,
    /// Batch-mode arrival queue, in arrival order.
    arrival_queue: Vec<Task>,
    now: SimTime,
    stats: SimStats,
    /// The list of sealed pages of `stats`' outcome history that every
    /// capture shares instead of copying (see [`OutcomePages`]).
    /// Filled only inside a capture ([`SchedulerCore::capture`]), which
    /// takes `&self` — hence the `RefCell` — and cleared by a crash
    /// wipe and by a restore.
    pages: RefCell<OutcomePages>,
    /// The latest `arrival` instant among the tasks delivered to this
    /// core — never its clock. Captures sweep the reuse ledger by it.
    arrival_watermark: SimTime,
    sink: S,
    /// Decisions taken since the last drain.
    decisions: Vec<Decision>,
    /// Spare buffer swapped with `decisions` on drain (zero-alloc
    /// draining).
    decisions_spare: Vec<Decision>,
    /// Starts issued since the last drain, in machine-index order per
    /// phase.
    starts: Vec<Start>,
    /// Spare buffer swapped with `starts` on drain.
    starts_spare: Vec<Start>,
    /// Reused per-event report fed to the pruner (Accounting input).
    report: EventReport,
    /// Reused per-event candidate list of the batch mapping loop.
    candidate_buf: Vec<Task>,
    /// Reused per-round buffer for the heuristic's proposals.
    proposal_buf: Vec<Assignment>,
    /// Reused per-event buffer for the pruner's proactive drops.
    drop_buf: Vec<(MachineId, TaskId)>,
    /// Reused per-machine id list sliced out of `drop_buf`.
    drop_ids_buf: Vec<TaskId>,
    /// Function-reuse follower ledger: followers parked on in-flight
    /// primaries, resolved by the primary's single terminal outcome
    /// (see [`crate::reuse`]). Inactive (and cost-free) unless the
    /// gateway enables reuse.
    reuse: ReuseLedger,
}

impl<'a, S: Sink> SchedulerCore<'a, S> {
    /// Builds the core. Crate-internal: [`crate::SchedulerBuilder`] is
    /// the validated public constructor.
    pub(crate) fn from_parts(
        cfg: SimConfig,
        machines: &[Machine],
        pet: &'a PetMatrix,
        strategy: MappingStrategy,
        pruner: Box<dyn Pruner>,
        sink: S,
    ) -> Self {
        let queues = machines
            .iter()
            .map(|&m| {
                MachineQueue::new(m, cfg.queue_capacity, cfg.horizon_bins)
            })
            .collect();
        Self {
            cfg,
            pet,
            strategy,
            pruner,
            queues,
            arrival_queue: Vec::new(),
            now: SimTime::ZERO,
            stats: SimStats::new(0, pet.n_task_types()),
            pages: RefCell::default(),
            arrival_watermark: SimTime::ZERO,
            sink,
            decisions: Vec::new(),
            decisions_spare: Vec::new(),
            starts: Vec::new(),
            starts_spare: Vec::new(),
            report: EventReport::default(),
            candidate_buf: Vec::new(),
            proposal_buf: Vec::new(),
            drop_buf: Vec::new(),
            drop_ids_buf: Vec::new(),
            reuse: ReuseLedger::new(),
        }
    }

    // ------------------------------------------------------------------
    // The streaming API.
    // ------------------------------------------------------------------

    /// Moves the core's clock forward to `t`. Time never runs backwards;
    /// callers advance to an instant before reporting what happened at
    /// that instant.
    ///
    /// # Panics
    /// If `t` is before the current clock — in release builds too: a
    /// silently rewound clock would corrupt every subsequent deadline
    /// check and trace timestamp, which is far worse than failing
    /// loudly (the check is one predictable branch per event).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "time ran backwards: advance_to({t:?}) with now = {:?}",
            self.now
        );
        self.now = t;
    }

    /// Ingests one arriving task and runs its mapping event at the
    /// current clock. The task's `arrival` must not lie in the future
    /// (advance the clock first); a task delivered late simply arrives
    /// now.
    ///
    /// # Panics
    /// When the task's type is unknown or its id is too sparse for the
    /// dense outcome tables — [`SchedulerCore::try_push_arrival`] is the
    /// recoverable variant.
    pub fn push_arrival(&mut self, task: Task) {
        self.try_push_arrival(task)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`SchedulerCore::push_arrival`]: a task whose type the
    /// PET matrix lacks, or whose id the dense outcome tables cannot
    /// absorb (see [`crate::stats::StatsError`]), is rejected *before*
    /// touching any scheduling state, so the caller can drop or
    /// re-label it and keep streaming.
    pub fn try_push_arrival(
        &mut self,
        task: Task,
    ) -> Result<(), crate::stats::StatsError> {
        debug_assert!(
            task.arrival <= self.now,
            "arrival {:?} is in the future; call advance_to first",
            task.arrival
        );
        self.stats.try_record_arrival(&task)?;
        self.arrival_watermark = self.arrival_watermark.max(task.arrival);
        self.begin_report();
        self.sink
            .record(self.now, TraceEvent::Arrived { task: task.id });
        self.mapping_event(Some(task));
        Ok(())
    }

    /// Reports that `machine` finished executing `task` at the current
    /// clock, then runs the completion's mapping event.
    ///
    /// Returns `false` (and does nothing) when the machine is not
    /// currently running that task — the stale-completion case after a
    /// cancellation, which event-driven callers hit when a completion
    /// they scheduled was overtaken.
    pub fn complete(&mut self, machine: MachineId, task: TaskId) -> bool {
        let q = &mut self.queues[machine.0 as usize];
        if q.running().map(|rt| rt.task.id) != Some(task) {
            return false; // stale: the start this completion belonged to
                          // was cancelled
        }
        let rt = q.complete_running();
        let on_time = self.now <= rt.task.deadline;
        let exec_ticks = (self.now - rt.start).ticks();
        self.begin_report();
        self.stats.record_outcome(
            &rt.task,
            if on_time {
                TaskOutcome::CompletedOnTime
            } else {
                TaskOutcome::CompletedLate
            },
        );
        self.stats.record_execution(exec_ticks, on_time);
        self.report.completed.push((rt.task, on_time));
        self.sink.record(
            self.now,
            TraceEvent::Completed {
                task: rt.task.id,
                on_time,
            },
        );
        self.reuse
            .record_exec(rt.task.id, exec_ticks, rt.task.deadline);
        self.fan_out_completion(rt.task.id, exec_ticks);
        self.mapping_event(None);
        true
    }

    /// Delivers the single result of a completed primary to every
    /// follower parked on it, each judged against its **own** deadline.
    /// Followers consumed no machine time: each credits the primary's
    /// measured execution to the cycles-saved counter instead.
    fn fan_out_completion(&mut self, primary: TaskId, exec_ticks: u64) {
        let Some(followers) = self.reuse.take_followers(primary) else {
            return;
        };
        for f in followers {
            let on_time = self.now <= f.deadline;
            self.stats.record_outcome(
                &f,
                if on_time {
                    TaskOutcome::CompletedOnTime
                } else {
                    TaskOutcome::CompletedLate
                },
            );
            self.reuse.add_saved(exec_ticks);
            self.sink.record(
                self.now,
                TraceEvent::Completed {
                    task: f.id,
                    on_time,
                },
            );
        }
    }

    /// Fate-sharing on primary failure: followers of a primary that
    /// never produces a result inherit its terminal outcome (they were
    /// never queued anywhere, so nothing else can resolve them). When
    /// the failure was a decision, each follower is traced as that
    /// decision under its own id; it never joins the drained stream.
    fn fan_out_failure(
        &mut self,
        primary: TaskId,
        outcome: TaskOutcome,
        decision: Option<Decision>,
    ) {
        let Some(followers) = self.reuse.take_followers(primary) else {
            return;
        };
        for f in followers {
            self.stats.record_outcome(&f, outcome);
            if let Some(d) = decision {
                self.sink
                    .record(self.now, TraceEvent::Decided(d.with_task(f.id)));
            }
        }
    }

    /// Absorbs one follower onto `primary` (both ids shard-internal),
    /// the core half of a gateway reuse admission. Resolution depends
    /// only on state this core rebuilt deterministically:
    ///
    /// * primary already completed → the follower resolves instantly
    ///   against its own deadline and credits the recorded execution
    ///   time as saved cycles;
    /// * primary already failed → the follower cannot share a result
    ///   that never existed, so it falls back to a normal arrival on
    ///   this shard (deterministic: the outcome table is identical at
    ///   this point on every replica);
    /// * primary in flight → the follower parks in the ledger until
    ///   the primary's terminal outcome fans out.
    pub(crate) fn apply_piggyback(&mut self, primary: TaskId, task: Task) {
        debug_assert!(
            task.arrival <= self.now,
            "piggyback arrival {:?} is in the future; advance first",
            task.arrival
        );
        debug_assert!(
            self.reuse.is_active(),
            "piggyback delivered to a core whose reuse ledger is off",
        );
        self.arrival_watermark = self.arrival_watermark.max(task.arrival);
        match self.stats.outcome(primary) {
            Some(TaskOutcome::CompletedOnTime | TaskOutcome::CompletedLate) => {
                self.stats.record_arrival(&task);
                self.reuse.note_hit();
                let on_time = self.now <= task.deadline;
                self.stats.record_outcome(
                    &task,
                    if on_time {
                        TaskOutcome::CompletedOnTime
                    } else {
                        TaskOutcome::CompletedLate
                    },
                );
                let saved = self.reuse.exec_ticks(primary);
                self.reuse.add_saved(saved);
                self.sink
                    .record(self.now, TraceEvent::Arrived { task: task.id });
                self.sink.record(
                    self.now,
                    TraceEvent::Completed {
                        task: task.id,
                        on_time,
                    },
                );
            }
            Some(_) => {
                // The primary failed before this follower arrived:
                // nothing to share — run the follower for real.
                self.push_arrival(task);
            }
            None => {
                self.stats.record_arrival(&task);
                self.reuse.note_hit();
                self.reuse.add_follower(primary, task);
                self.sink
                    .record(self.now, TraceEvent::Arrived { task: task.id });
            }
        }
    }

    /// Enables (or disables) the reuse ledger; set by the gateway
    /// builder when a [`crate::ReusePolicy`] other than `Off` is
    /// configured.
    pub(crate) fn set_reuse_active(&mut self, active: bool) {
        self.reuse.set_active(active);
    }

    /// This core's accumulated reuse counters (all zero when reuse is
    /// off).
    pub(crate) fn reuse_stats(&self) -> ReuseStats {
        *self.reuse.stats()
    }

    /// Runs a synthetic mapping event at the current clock: nothing
    /// arrived and nothing completed, but pending work should be
    /// reconsidered (deferred tasks retried or reactively dropped).
    pub fn wakeup(&mut self) {
        self.begin_report();
        self.mapping_event(None);
    }

    /// Returns every decision taken since the last drain, oldest first,
    /// and clears the internal buffer (a buffer swap — no allocation).
    pub fn drain_decisions(&mut self) -> &[Decision] {
        std::mem::swap(&mut self.decisions, &mut self.decisions_spare);
        self.decisions.clear();
        &self.decisions_spare
    }

    /// Returns every execution start issued since the last drain, oldest
    /// first, and clears the internal buffer. Each start owes the core a
    /// [`SchedulerCore::complete`] call.
    pub fn drain_starts(&mut self) -> &[Start] {
        std::mem::swap(&mut self.starts, &mut self.starts_spare);
        self.starts.clear();
        &self.starts_spare
    }

    /// Finishes the run: every task still pending (batch queue or
    /// machine queues) is recorded as [`TaskOutcome::Unfinished`], and
    /// the outcome record — including the sink's trace, if it keeps one
    /// — is returned.
    pub fn finish(mut self) -> SimStats {
        let leftovers: Vec<Task> = self
            .queues
            .iter_mut()
            .flat_map(|q| q.drain_all())
            .chain(self.arrival_queue.drain(..))
            .collect();
        for t in leftovers {
            self.record_unfinished(&t);
        }
        // Safety net: followers whose primary never reached a terminal
        // outcome on this core (canonical order — see the ledger).
        for f in self.reuse.drain_remaining() {
            self.stats.record_outcome(&f, TaskOutcome::Unfinished);
        }
        self.stats.end_time = self.now;
        self.stats.trace = self.sink.into_trace();
        self.stats
    }

    // ------------------------------------------------------------------
    // Introspection for drivers and live callers.
    // ------------------------------------------------------------------

    /// The core's current clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The static configuration the core was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The belief PET matrix all estimates use.
    pub fn pet(&self) -> &'a PetMatrix {
        self.pet
    }

    /// Number of machines in the cluster.
    pub fn n_machines(&self) -> usize {
        self.queues.len()
    }

    /// Number of tasks waiting in the batch queue.
    pub fn pending_batch_len(&self) -> usize {
        self.arrival_queue.len()
    }

    /// The soonest deadline among batch-queue tasks, if any — drivers
    /// schedule the wakeup safety net just past it when no other event
    /// will ever fire.
    pub fn earliest_pending_deadline(&self) -> Option<SimTime> {
        self.arrival_queue.iter().map(|t| t.deadline).min()
    }

    /// The accumulated outcome record (read-only while running;
    /// [`SchedulerCore::finish`] returns it by value).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Removes and returns every task still waiting in the batch queue
    /// (arrival order, shard-internal ids). The tasks have *arrived* —
    /// their arrival records stay in the stats — but no mapping
    /// decision has committed them to a machine yet, so moving them
    /// elsewhere is legal: this is how a federation supervisor
    /// re-routes a quarantined shard's backlog to healthy shards (the
    /// drained instances end as [`TaskOutcome::Unfinished`] on this
    /// core unless something resolves them elsewhere).
    pub fn drain_batch_queue(&mut self) -> Vec<Task> {
        std::mem::take(&mut self.arrival_queue)
    }

    /// Closes the book on a task this shard will never run. A drained
    /// batch-queue task keeps its arrival record here but is no longer
    /// in any queue, so [`SchedulerCore::finish`] would miss it and
    /// leave the shard with `unreported() > 0`. The quarantine re-route
    /// calls this per moved task; the instance on the receiving shard
    /// carries the live outcome, and the task's federation-level
    /// arrival record is re-pointed to it.
    pub(crate) fn record_unfinished(&mut self, task: &Task) {
        self.stats.record_outcome(task, TaskOutcome::Unfinished);
        self.fan_out_failure(task.id, TaskOutcome::Unfinished, None);
    }

    /// Simulated crash: forgets the recoverable in-memory scheduling
    /// state — batch queue, machine queues (running and waiting tasks
    /// vanish with the RAM that held them), outcome record, clock,
    /// pending decision/start buffers. Everything a
    /// [`SchedulerCore::restore`] would overwrite is dropped; a
    /// subsequent restore + journal replay rebuilds the shard exactly
    /// (`FederatedEngine::recover_shard`). Plug-in state is left
    /// untouched only because recovery must overwrite it anyway — an
    /// unrecovered wiped core is *degraded*, not usable.
    pub(crate) fn wipe(&mut self) {
        self.arrival_queue.clear();
        for q in &mut self.queues {
            q.drain_all();
        }
        self.stats = SimStats::new(0, self.pet.n_task_types());
        *self.pages.get_mut() = OutcomePages::default();
        self.arrival_watermark = SimTime::ZERO;
        self.now = SimTime::ZERO;
        self.decisions.clear();
        self.decisions_spare.clear();
        self.starts.clear();
        self.starts_spare.clear();
        self.reuse.clear();
    }

    /// Degraded-mode load shedding: multiplies the pruner's aggression
    /// up (see [`crate::Pruner::tighten_threshold`]). Called by the
    /// supervisor on healthy shards when a quarantined shard's load is
    /// re-routed onto them.
    pub(crate) fn tighten_pruner(&mut self, factor: f64) {
        self.pruner.tighten_threshold(factor);
    }

    /// A read-only view of the current system state — what mappers and
    /// pruners see.
    pub fn view(&self) -> SystemView<'_> {
        SystemView::new(self.now, &self.queues, self.pet)
    }

    // ------------------------------------------------------------------
    // Checkpointing.
    // ------------------------------------------------------------------

    /// Captures the core's complete durable state into a sealed,
    /// versioned [`Snapshot`]: clock, batch queue, every machine
    /// queue, the outcome record, the reuse ledger, and the plug-in
    /// state of the strategy, pruner and sink. Static configuration
    /// (the [`SimConfig`], cluster and PET matrix) is not serialized —
    /// a restore target must be built identically. Scratch arenas,
    /// drained-decision buffers and the Eq. 1 chain caches are
    /// rebuilt, not serialized.
    ///
    /// The payload carries the whole outcome record, so a snapshot
    /// grows with the run. The reuse ledger's completed primaries are
    /// swept by the arrival watermark first; that changes nothing the
    /// core does next, and the snapshot is a pure function of the
    /// core's state.
    pub fn snapshot(&self) -> Snapshot {
        let mut capture = CoreCapture::default();
        self.capture(&mut capture);
        capture.seal()
    }

    /// The first half of [`SchedulerCore::snapshot`]: overwrites `out`
    /// with a copy of the durable state, with every capture-time effect
    /// applied (the reuse ledger swept, the plug-in states read), but
    /// neither rendered nor hashed. It copies the live state and the
    /// records of the outcome pages still open; every page of 64 ids
    /// that has fully resolved is sealed once, and the list of sealed
    /// pages is shared with the earlier captures. `out`'s buffers are
    /// reused, so a capture that overwrites the previous one allocates
    /// only as the live state grows. [`CoreCapture::seal`] turns it
    /// into the snapshot this call would have returned, however far the
    /// core has moved on since.
    pub(crate) fn capture(&self, out: &mut CoreCapture) {
        out.now = self.now;
        out.arrival_queue.clone_from(&self.arrival_queue);
        out.queues
            .resize_with(self.queues.len(), QueueCapture::default);
        for (q, o) in self.queues.iter().zip(&mut out.queues) {
            q.capture(o);
        }
        self.pages.borrow_mut().capture(&self.stats, &mut out.stats);
        out.strategy = self.strategy.snapshot_state();
        out.pruner = self.pruner.snapshot_state();
        out.sink = self.sink.snapshot_state();
        self.reuse.capture(self.arrival_watermark, &mut out.reuse);
        out.arrival_watermark = self.arrival_watermark;
    }

    /// Restores state captured by [`SchedulerCore::snapshot`] into
    /// this core, after verifying the envelope (version + state hash),
    /// decoding the payload whole and checking it. The core must have
    /// been built with the same configuration, cluster, PET matrix and
    /// plug-in types as the one that took the snapshot. Pending
    /// decision/start buffers are cleared — a restored core starts
    /// from a drained state, exactly as the snapshotting core was at
    /// its checkpoint.
    ///
    /// # Errors
    /// Any [`SnapshotError`] — among them a
    /// [`SnapshotError::ShapeMismatch`] for an outcome record or live
    /// state that does not describe one run (see the
    /// [`crate::snapshot`] module docs), before any state changes. A
    /// plug-in hook that rejects its state fails later: then the
    /// core's state is unspecified and the core should be discarded.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let state = self.check(snap)?;
        self.install(state)
    }

    /// Verifies a checkpoint of this core, decodes it and checks it
    /// against this core without changing anything: the first half of
    /// [`SchedulerCore::restore`].
    pub(crate) fn check(
        &self,
        snap: &Snapshot,
    ) -> Result<CoreState, SnapshotError> {
        let state = CoreState::from_value(snap.verify()?)?;
        state.stats.check_checkpoint(self.pet.n_task_types())?;
        let shape = |what| Err(SnapshotError::ShapeMismatch { what });
        if state.queues.len() != self.queues.len() {
            return shape("snapshot machine count differs from this cluster");
        }
        if !self
            .queues
            .iter()
            .zip(&state.queues)
            .all(|(q, s)| q.fits(s))
        {
            return shape("a waiting list exceeds its queue's capacity");
        }
        // Every live task — batch-queued, waiting or running on a
        // machine, parked as a reuse follower — is an unresolved arrival
        // of the type the record holds for its id, and the only live
        // task with that id. The replay resolves each one exactly once.
        let live = state
            .arrival_queue
            .iter()
            .chain(state.queues.iter().flat_map(|q| {
                q.running.iter().map(|(task, _)| task).chain(&q.waiting)
            }))
            .chain(state.reuse.parked());
        let mut live_ids = HashSet::new();
        for t in live {
            let what = if state.stats.outcome(t.id).is_some() {
                "a task still queued, running or parked has a recorded \
                 outcome"
            } else if state.stats.task_type(t.id) != Some(t.type_id) {
                "a task still queued, running or parked is not an arrival \
                 of its type in the outcome record"
            } else if !live_ids.insert(t.id) {
                "two tasks still queued, running or parked share an id"
            } else {
                continue;
            };
            return shape(what);
        }
        if state
            .queues
            .iter()
            .any(|q| q.running.is_some_and(|(_, start)| start > state.now))
        {
            return shape("a running task starts after the capture's clock");
        }
        Ok(state)
    }

    /// Installs a state [`SchedulerCore::check`] accepted: the second
    /// half of [`SchedulerCore::restore`]. Fails only when a plug-in
    /// hook rejects its state.
    pub(crate) fn install(
        &mut self,
        state: CoreState,
    ) -> Result<(), SnapshotError> {
        self.strategy.restore_state(&state.strategy)?;
        self.pruner.restore_state(&state.pruner)?;
        self.sink.restore_state(&state.sink)?;
        for (q, s) in self.queues.iter_mut().zip(state.queues) {
            q.restore(s);
        }
        self.reuse.restore(state.reuse);
        self.arrival_watermark = state.arrival_watermark;
        self.now = state.now;
        self.arrival_queue = state.arrival_queue;
        self.stats = state.stats;
        *self.pages.get_mut() = OutcomePages::default();
        self.decisions.clear();
        self.decisions_spare.clear();
        self.starts.clear();
        self.starts_spare.clear();
        self.begin_report();
        Ok(())
    }

    // ------------------------------------------------------------------
    // The mapping event (Fig. 5).
    // ------------------------------------------------------------------

    /// Resets the reused event report for a new mapping event.
    fn begin_report(&mut self) {
        self.report.now = self.now;
        self.report.completed.clear();
        self.report.dropped_reactive.clear();
        self.report.cancelled.clear();
    }

    /// One mapping event: the Fig. 5 procedure. `arriving` is the task
    /// whose arrival triggered the event, if any.
    fn mapping_event(&mut self, arriving: Option<Task>) {
        self.stats.mapping_events = self.stats.mapping_events.saturating_add(1);
        if self.sink.snapshot_due(self.stats.mapping_events) {
            let snapshot = QueueSnapshot {
                at: self.now,
                batch_queue_len: self.arrival_queue.len(),
                waiting_total: self
                    .queues
                    .iter()
                    .map(|q| q.waiting_len())
                    .sum(),
                busy_machines: self
                    .queues
                    .iter()
                    .filter(|q| q.is_busy())
                    .count(),
            };
            self.sink.record_snapshot(snapshot);
        }

        // The arriving task joins the batch queue before any decision
        // (an immediate-mode mapper holds it aside for direct
        // placement).
        let immediate_arrival = match self.strategy {
            MappingStrategy::Batch(_) => {
                if let Some(t) = arriving {
                    self.arrival_queue.push(t);
                }
                None
            }
            MappingStrategy::Immediate(_) => arriving,
        };

        // Optional policy: cancel running tasks that are already late.
        if self.cfg.cancel_running_late {
            for i in 0..self.queues.len() {
                let late = self.queues[i]
                    .running()
                    .is_some_and(|rt| rt.task.is_past_deadline(self.now));
                if late {
                    let rt = self.queues[i].cancel_running();
                    self.stats
                        .record_execution((self.now - rt.start).ticks(), false);
                    self.report.cancelled.push(rt.task);
                    self.decide(
                        &rt.task,
                        Decision::CancelRunning { task: rt.task.id },
                    );
                }
            }
        }

        // Step 1: reactive drops of deadline-missed pending tasks.
        let now = self.now;
        let report = &mut self.report;
        self.arrival_queue.retain(|t| {
            if t.is_past_deadline(now) {
                report.dropped_reactive.push(*t);
                false
            } else {
                true
            }
        });
        for q in &mut self.queues {
            report.dropped_reactive.extend(q.drop_missed_deadlines(now));
        }
        for i in 0..self.report.dropped_reactive.len() {
            let t = self.report.dropped_reactive[i];
            self.decide(&t, Decision::DropReactive { task: t.id });
        }

        // Freed machines pick up their queue heads immediately (physical
        // FCFS behaviour; also frees waiting slots for this event's
        // mapping phase).
        self.start_ready_machines();

        // Step 2: feed Accounting / Toggle / Fairness.
        self.pruner.begin_event(&self.report);

        // Steps 3–6: proactive dropping from machine queues.
        let mut drops = std::mem::take(&mut self.drop_buf);
        drops.clear();
        {
            let view = SystemView::new(self.now, &self.queues, self.pet);
            self.pruner.select_drops_into(&view, &mut drops);
        }
        if !drops.is_empty() {
            // Stable-sort by machine so each queue gets one batched
            // removal, preserving the pruner's per-machine drop order.
            drops.sort_by_key(|&(machine, _)| machine);
            let mut ids = std::mem::take(&mut self.drop_ids_buf);
            let mut i = 0;
            while i < drops.len() {
                let machine = drops[i].0;
                ids.clear();
                while i < drops.len() && drops[i].0 == machine {
                    ids.push(drops[i].1);
                    i += 1;
                }
                let removed =
                    self.queues[machine.0 as usize].remove_waiting(&ids);
                for t in removed {
                    self.decide(&t, Decision::DropProbabilistic { task: t.id });
                }
            }
            self.drop_ids_buf = ids;
        }
        self.drop_buf = drops;

        // Steps 7–11: the mapping loop of the mapper the core holds.
        self.run_mapper(immediate_arrival);

        // Machines that were idle with an empty queue may have just
        // received work.
        self.start_ready_machines();
    }

    /// Takes one decision about `task`: the one place the core appends
    /// to its decision stream, and where it traces the decision. A
    /// terminal decision also records the task's outcome and fans it
    /// out to the reuse followers parked on the task, which are traced
    /// but never drained.
    #[inline]
    fn decide(&mut self, task: &Task, decision: Decision) {
        debug_assert_eq!(decision.task(), task.id);
        self.decisions.push(decision);
        self.sink.record(self.now, TraceEvent::Decided(decision));
        if let Some(outcome) = decision.outcome() {
            self.stats.record_outcome(task, outcome);
            self.fan_out_failure(task.id, outcome, Some(decision));
        }
    }

    /// Admits an immediate-mode arrival to the machine its mapper
    /// `chosen`, or, when that queue is full, to the first machine with
    /// a free slot (the caller checked that one exists).
    fn place_immediately(&mut self, task: Task, chosen: MachineId) {
        let machine = if self.queues[chosen.0 as usize].free_slots() > 0 {
            chosen
        } else {
            let fallback = self
                .queues
                .iter()
                .position(|q| q.free_slots() > 0)
                .expect("checked above that a free slot exists");
            MachineId(fallback as u16)
        };
        self.queues[machine.0 as usize].admit(task);
        self.decide(
            &task,
            Decision::Assign {
                task: task.id,
                machine,
            },
        );
    }

    /// Steps 7–11 for the mapper the core holds. An immediate-mode
    /// mapper places the arriving task, if any (Fig. 1a). A batch-mode
    /// mapper runs the Step 7 while-loop: heuristic proposes, pruner
    /// vetoes, survivors dispatch, repeat until no progress is
    /// possible.
    ///
    /// `candidates` is built once per event and shrinks as proposals are
    /// decided, so at every round start it equals the arrival queue
    /// minus this event's deferrals, in arrival order. A proposal whose
    /// task is missing from it — deferred already, or no longer pending
    /// — is skipped.
    fn run_mapper(&mut self, immediate_arrival: Option<Task>) {
        if let MappingStrategy::Immediate(mapper) = &mut self.strategy {
            let Some(task) = immediate_arrival else {
                return;
            };
            if self.queues.iter().all(|q| q.free_slots() == 0) {
                // No arrival queue to hold it (Fig. 1a).
                self.decide(&task, Decision::Reject { task: task.id });
            } else {
                let view = SystemView::new(self.now, &self.queues, self.pet);
                let chosen = mapper.place(&view, &task);
                self.place_immediately(task, chosen);
            }
            return;
        }
        let mut candidates = std::mem::take(&mut self.candidate_buf);
        candidates.clear();
        candidates.extend_from_slice(&self.arrival_queue);
        let mut proposals = std::mem::take(&mut self.proposal_buf);
        while !candidates.is_empty()
            && self.queues.iter().any(|q| q.free_slots() > 0)
        {
            proposals.clear();
            {
                // Borrowed per round: a decision borrows the whole core.
                let MappingStrategy::Batch(mapper) = &mut self.strategy else {
                    unreachable!("an immediate mapper returned above");
                };
                let view = SystemView::new(self.now, &self.queues, self.pet);
                mapper.select_into(&view, &candidates, &mut proposals);
            }
            let undecided = candidates.len();
            for pi in 0..proposals.len() {
                let assignment = proposals[pi];
                let machine_idx = assignment.machine.0 as usize;
                if self.queues[machine_idx].free_slots() == 0 {
                    continue; // stale proposal for a queue filled earlier
                }
                let Some(ci) =
                    candidates.iter().position(|t| t.id == assignment.task)
                else {
                    continue;
                };
                let task = candidates.remove(ci);
                let chance = {
                    let view =
                        SystemView::new(self.now, &self.queues, self.pet);
                    view.chance_if_appended(assignment.machine, &task)
                };
                if self.pruner.should_defer(&task, chance) {
                    self.stats.deferrals =
                        self.stats.deferrals.saturating_add(1);
                    self.decide(
                        &task,
                        Decision::DeferToBatch { task: task.id },
                    );
                } else {
                    let pos = self
                        .arrival_queue
                        .iter()
                        .position(|t| t.id == task.id)
                        .expect("every candidate is pending");
                    self.arrival_queue.remove(pos);
                    self.queues[machine_idx].admit(task);
                    self.decide(
                        &task,
                        Decision::Assign {
                            task: task.id,
                            machine: assignment.machine,
                        },
                    );
                }
            }
            if candidates.len() == undecided {
                break; // no proposal could be decided
            }
        }
        self.candidate_buf = candidates;
        self.proposal_buf = proposals;
    }

    /// Starts the queue head on every idle machine (non-preemptive FCFS)
    /// and records a [`Start`] for the caller, in machine-index order.
    fn start_ready_machines(&mut self) {
        for i in 0..self.queues.len() {
            let q = &mut self.queues[i];
            if q.is_busy() {
                continue;
            }
            if let Some(task) = q.pop_head_for_start() {
                q.set_running(task, self.now);
                let machine = q.machine();
                self.starts.push(Start { machine, task });
                self.sink.record(
                    self.now,
                    TraceEvent::Started {
                        task: task.id,
                        machine: machine.id,
                    },
                );
            }
        }
    }
}

/// A scheduler core's durable state, copied out by
/// [`SchedulerCore::capture`]: what a checkpoint costs to take. Nothing
/// in it aliases the live core but the list of sealed outcome pages,
/// which the core copies before changing while a capture holds it.
/// Rendering the payload and hashing it wait for
/// [`CoreCapture::seal`], which runs only when the checkpoint is
/// restored or written out. The default value is an empty buffer for
/// a first capture to fill.
pub(crate) struct CoreCapture {
    now: SimTime,
    arrival_queue: Vec<Task>,
    queues: Vec<QueueCapture>,
    stats: OutcomeCapture,
    strategy: Value,
    pruner: Value,
    sink: Value,
    reuse: LedgerState,
    arrival_watermark: SimTime,
}

impl Default for CoreCapture {
    fn default() -> Self {
        Self {
            now: SimTime::ZERO,
            arrival_queue: Vec::new(),
            queues: Vec::new(),
            stats: OutcomeCapture::default(),
            strategy: Value::Null,
            pruner: Value::Null,
            sink: Value::Null,
            reuse: LedgerState::default(),
            arrival_watermark: SimTime::ZERO,
        }
    }
}

impl CoreCapture {
    /// Renders the capture in the core's wire form, the outcome record
    /// stitched back flat from its pages and the reuse ledger in
    /// canonical order, and seals it: the [`Snapshot`]
    /// [`SchedulerCore::snapshot`] returned at the capture instant, to
    /// the byte.
    pub(crate) fn seal(&self) -> Snapshot {
        let state = CoreState {
            now: self.now,
            arrival_queue: self.arrival_queue.clone(),
            queues: self.queues.clone(),
            stats: self.stats.record(),
            strategy: self.strategy.clone(),
            pruner: self.pruner.clone(),
            sink: self.sink.clone(),
            reuse: self.reuse.canonical(),
            arrival_watermark: self.arrival_watermark,
        };
        Snapshot::seal("scheduler-core", state.to_value())
    }
}

/// A scheduler core's checkpoint payload: what [`CoreCapture::seal`]
/// writes and [`SchedulerCore::restore`] decodes whole, checks, and
/// only then installs. The plug-in states travel as the value trees
/// their hooks wrote.
#[derive(Serialize, Deserialize)]
pub(crate) struct CoreState {
    now: SimTime,
    arrival_queue: Vec<Task>,
    queues: Vec<QueueCapture>,
    stats: SimStats,
    strategy: Value,
    pruner: Value,
    sink: Value,
    reuse: LedgerState,
    arrival_watermark: SimTime,
}

impl CoreState {
    /// The core's clock at the capture.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }
}

impl<S: Sink> std::fmt::Debug for SchedulerCore<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerCore")
            .field("now", &self.now)
            .field("mode", &self.cfg.mode)
            .field("heuristic", &self.strategy.name())
            .field("pruner", &self.pruner.name())
            .field("machines", &self.queues.len())
            .field("pending_batch", &self.arrival_queue.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SchedulerBuilder;
    use crate::traits::{BatchMapper, NoPruning};
    use taskprune_model::{BinSpec, Cluster, TaskTypeId};
    use taskprune_prob::Pmf;

    fn det_pet() -> PetMatrix {
        PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)])
    }

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

    fn core<'a>(
        pet: &'a PetMatrix,
        cluster: &Cluster,
    ) -> SchedulerCore<'a, NullSink> {
        SchedulerBuilder::new(cluster, pet)
            .config(SimConfig::batch(1))
            .strategy(MappingStrategy::Batch(Box::new(ToZero)))
            .pruner(NoPruning)
            .build_core()
            .expect("valid configuration")
    }

    #[test]
    fn push_arrival_assigns_and_starts() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        let t = Task::new(0, TaskTypeId(0), SimTime(0), SimTime(100_000));
        c.push_arrival(t);
        let decisions = c.drain_decisions().to_vec();
        assert_eq!(
            decisions,
            vec![Decision::Assign {
                task: TaskId(0),
                machine: MachineId(0)
            }]
        );
        let starts = c.drain_starts();
        assert_eq!(starts.len(), 1);
        assert_eq!(starts[0].task.id, TaskId(0));
        // Buffers drained: nothing left.
        assert!(c.drain_decisions().is_empty());
        assert!(c.drain_starts().is_empty());
    }

    #[test]
    fn sparse_id_is_a_typed_error_that_leaves_the_core_untouched() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        c.push_arrival(Task::new(
            0,
            TaskTypeId(0),
            SimTime(0),
            SimTime(100_000),
        ));
        c.drain_decisions();
        c.drain_starts();
        let before = c.snapshot().to_value();
        let sparse = Task::new(
            u64::from(u32::MAX) * 1_000,
            TaskTypeId(0),
            SimTime(0),
            SimTime(1_000),
        );
        let err = c
            .try_push_arrival(sparse)
            .expect_err("a sparse id must surface, not panic");
        assert!(matches!(
            err,
            crate::stats::StatsError::SparseTaskId { tracked: 1, .. }
        ));
        assert_eq!(c.snapshot().to_value(), before);
        assert!(c.drain_decisions().is_empty());
        assert!(c.drain_starts().is_empty());
        assert_eq!(c.stats().n_arrived(), 1);
    }

    #[test]
    fn complete_reports_outcome_and_is_stale_safe() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        let t = Task::new(0, TaskTypeId(0), SimTime(0), SimTime(1_000));
        c.push_arrival(t);
        let start = c.drain_starts()[0];
        // A completion for a task the machine is not running is stale.
        assert!(!c.complete(start.machine.id, TaskId(77)));
        c.advance_to(SimTime(250));
        assert!(c.complete(start.machine.id, TaskId(0)));
        // Completing again is stale (machine idle).
        assert!(!c.complete(start.machine.id, TaskId(0)));
        let stats = c.finish();
        assert_eq!(
            stats.outcome(TaskId(0)),
            Some(TaskOutcome::CompletedOnTime)
        );
        assert_eq!(stats.unreported(), 0);
    }

    #[test]
    fn late_arrival_is_dropped_reactively() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        c.advance_to(SimTime(5_000));
        // Deadline already passed when the task finally arrives.
        let t = Task::new(0, TaskTypeId(0), SimTime(4_000), SimTime(4_500));
        c.push_arrival(t);
        assert_eq!(
            c.drain_decisions(),
            &[Decision::DropReactive { task: TaskId(0) }]
        );
        let stats = c.finish();
        assert_eq!(
            stats.outcome(TaskId(0)),
            Some(TaskOutcome::DroppedReactive)
        );
    }

    #[test]
    fn finish_marks_pending_work_unfinished() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        for i in 0..3 {
            let t = Task::new(i, TaskTypeId(0), SimTime(0), SimTime(100_000));
            c.push_arrival(t);
        }
        assert_eq!(c.pending_batch_len(), 0); // capacity 4: all queued
        let stats = c.finish();
        // One running + two waiting, none completed.
        assert_eq!(stats.count(TaskOutcome::Unfinished), 3);
    }

    #[test]
    fn decision_task_accessor_covers_all_variants() {
        let id = TaskId(7);
        let all = [
            Decision::Assign {
                task: id,
                machine: MachineId(0),
            },
            Decision::DeferToBatch { task: id },
            Decision::DropReactive { task: id },
            Decision::DropProbabilistic { task: id },
            Decision::Reject { task: id },
            Decision::CancelRunning { task: id },
        ];
        assert!(all.iter().all(|d| d.task() == id));
    }

    /// The ledger sweep follows the arrivals, not the clock: a capture
    /// taken while the clock runs far past a completed primary's
    /// deadline keeps it, because a duplicate that arrived before that
    /// deadline can still be delivered late and must price its saving.
    #[test]
    fn capture_keeps_completed_primaries_a_late_duplicate_can_reach() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        c.set_reuse_active(true);
        c.push_arrival(Task::new(0, TaskTypeId(0), SimTime(0), SimTime(500)));
        c.advance_to(SimTime(300));
        assert!(c.complete(MachineId(0), TaskId(0)));
        c.advance_to(SimTime(5_000));
        let snap = c.snapshot();
        let follower = Task::new(1, TaskTypeId(0), SimTime(100), SimTime(600));
        c.apply_piggyback(TaskId(0), follower);
        assert_eq!(c.reuse_stats().cycles_saved, 300);
        // A piggybacked arrival moves the watermark like any other.
        assert_eq!(
            c.snapshot().payload().get_field("arrival_watermark"),
            Ok(&Value::UInt(100))
        );
        // The restored core prices it the same way.
        let mut back = core(&pet, &cluster);
        back.set_reuse_active(true);
        back.restore(&snap).expect("the capture restores");
        back.apply_piggyback(TaskId(0), follower);
        assert_eq!(back.reuse_stats(), c.reuse_stats());
    }

    /// A restore clears the page cache: restoring another core's
    /// capture and capturing again reproduces that capture exactly,
    /// whatever this core had sealed before.
    #[test]
    fn restore_clears_the_sealed_pages() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        // The same 130 ids: every task is dropped reactively on `a`
        // and completes on time on `b`, so their pages differ.
        let mut a = core(&pet, &cluster);
        let mut b = core(&pet, &cluster);
        a.advance_to(SimTime(10));
        for i in 0..130 {
            a.push_arrival(Task::new(i, TaskTypeId(0), SimTime(0), SimTime(0)));
            b.push_arrival(Task::new(i, TaskTypeId(0), SimTime(0), SimTime(1)));
            for s in b.drain_starts().to_vec() {
                b.complete(s.machine.id, s.task.id);
            }
        }
        let mut capture = CoreCapture::default();
        a.capture(&mut capture);
        assert_eq!(capture.stats.sealed().count(), 2);
        let theirs = b.snapshot();
        a.restore(&theirs).expect("the capture restores");
        assert_eq!(a.snapshot(), theirs);
    }

    impl CoreCapture {
        /// The capture's outcome record.
        pub(crate) fn outcome(&self) -> &OutcomeCapture {
            &self.stats
        }
    }

    #[test]
    fn wakeup_retries_pending_batch_tasks() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut c = core(&pet, &cluster);
        // Fill waiting slots (4) + 1 running + 2 stuck in batch queue.
        for i in 0..7 {
            let t = Task::new(i, TaskTypeId(0), SimTime(0), SimTime(400));
            c.push_arrival(t);
        }
        assert_eq!(c.pending_batch_len(), 2);
        assert_eq!(c.earliest_pending_deadline(), Some(SimTime(400)));
        c.drain_decisions();
        c.advance_to(SimTime(500));
        c.wakeup();
        // Both batch-queue stragglers expired at the wakeup.
        let reactive = c
            .drain_decisions()
            .iter()
            .filter(|d| matches!(d, Decision::DropReactive { .. }))
            .count();
        assert!(reactive >= 2, "stragglers dropped, got {reactive}");
    }
}
