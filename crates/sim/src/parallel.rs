//! The parallel federated driver: K shards on K threads,
//! deterministically.
//!
//! [`crate::FederatedEngine`] drives all N shards of a [`Gateway`] on
//! one thread through a single merged event heap. But the shards are
//! *independent state machines*: a shard's mapping events depend only
//! on its own clock, its own completions/wakeups, and the arrivals
//! routed to it — never on another shard's state. The one federation
//! point that does need a consistent global view is **routing**.
//! [`ParallelFederatedEngine`] exploits exactly that decomposition:
//!
//! * the **coordinator** (the calling thread) routes arrivals in
//!   global arrival order — identical id compaction, `latest` map and
//!   [`FederationStats`] arrival record as the serial driver;
//! * each **shard lane** owns the per-shard driver state the serial
//!   engine kept globally (completion/wakeup heap, ground-truth RNG,
//!   pending-event and wakeup-pending flags, and a mailbox of routed
//!   arrivals) and advances on a worker of a hand-rolled work-stealing
//!   pool (`vendor/rayon`);
//! * the deterministic [`FederationStats`] fan-in is unchanged: the
//!   coordinator merges results in fixed shard order after every lane
//!   has drained.
//!
//! The driver is unsupervised. Supervised runs use the serial driver
//! under [`crate::Supervisor`]; a run it heals serializes identically
//! to this driver's fault-free run at any thread count
//! (`tests/self_healing.rs`).
//!
//! # Two schedules, one ordering
//!
//! **Mailbox.** When routing needs no shard state beyond what the
//! last sync point published — a policy that declares
//! [`crate::RoutePolicy::is_stateless`] (round-robin), a single shard,
//! or any federation with sync points (a stateful policy reading the
//! gateway's epoch-stamped stale view table under
//! [`crate::Consistency::BoundedStale`], or federation stealing) — the
//! coordinator routes arrivals into per-shard mailboxes, and every
//! lane replays its private merge of mailbox arrivals and heap events
//! on its own. The only barriers are the *sync points* every `k + 1`
//! arrivals (every arrival under `Lockstep`), where all mailboxes
//! drain, the steal pass rebalances batch-queue tails, and the view
//! table is republished. Without sync points the whole stream routes
//! up front and the lanes run start to finish with **zero cross-shard
//! barriers**. The serial driver runs the identical sync schedule at
//! the identical arrival ordinals, so both cases stay byte-identical
//! at every thread count (`tests/relaxed_equivalence.rs`).
//!
//! **Lockstep.** A state-dependent policy (least-queued, best-chance)
//! on live views must observe every shard exactly as the serial driver
//! would have when it routes arrival *i*: all events before `tᵢ` (and
//! completions at `tᵢ`) applied. Before each arrival, all lanes
//! advance in parallel up to that arrival's watermark, then the
//! coordinator routes on fresh views and runs the routed shard's
//! mapping event. The arrival chain is inherently serial under such a
//! policy (each routing decision depends on the previous arrival's
//! mapping), so only the completion processing between arrivals
//! parallelises — which is exactly the available parallelism, no
//! more.
//!
//! # Bit-identity argument (the headline guarantee)
//!
//! `tests/parallel_equivalence.rs` pins serialized outputs; the
//! reasoning for *why* it holds at any thread count:
//!
//! 1. The serial driver's global event order `(time, class, shard,
//!    id)` restricted to one shard is `(time, class, id)` — exactly
//!    each lane's private [`EventQueue`] order merged with its mailbox
//!    under the same completions-before-arrivals-before-wakeups rule.
//! 2. Clock advances for *other* shards' events are unobservable: a
//!    shard's behaviour depends on its clock only at its own events,
//!    and both drivers advance it to the same instants there. Each
//!    arrival carries its serial-driver processing time (`target`)
//!    into the mailbox, so even out-of-order deliveries replay.
//! 3. Ground-truth durations are sampled from per-shard RNG streams in
//!    per-shard start order — the same sequence either way.
//! 4. Wakeup scheduling: the serial driver checks every shard after
//!    every event, but a shard's wakeup condition (no pending events,
//!    non-empty batch queue) only changes at its *own* events, so the
//!    wakeup is always scheduled either at the stream-exhaustion
//!    instant `T_last` or immediately after one of the shard's own
//!    events — both of which the lane replays with the same `now`.
//! 5. `finish` advances every shard to the federation-wide end time
//!    (the maximum lane clock), matching the serial driver's habit of
//!    advancing all shards to every event time.
//!
//! Parallelism is therefore purely a wall-clock change; the serialized
//! [`FederationStats`] — traces included — is bit-identical.

use crate::event::{Event, EventKind, EventQueue};
use crate::gateway::{FederationStats, Gateway};
use crate::reuse::Admit;
use crate::sink::{NullSink, Sink};
use crate::snapshot::Snapshot;
use crate::SchedulerCore;
use std::collections::VecDeque;
use taskprune_model::{PetMatrix, SimTime, Task, TaskId};
use taskprune_prob::rng::Xoshiro256PlusPlus;

/// One routed arrival in a shard's mailbox.
#[derive(Debug, Clone, Copy)]
struct Mail {
    /// The task, already relabelled with its shard-internal id.
    task: Task,
    /// The clock value the serial driver would process it at: the
    /// running maximum of arrival times (equal to `task.arrival` for
    /// the documented non-decreasing streams, later for stragglers).
    target: SimTime,
    /// `Some((primary, merged))` when the coordinator's reuse gate
    /// absorbed this task onto an in-flight primary: the lane delivers
    /// it through the piggyback path instead of a mapping event.
    reuse: Option<(TaskId, bool)>,
}

impl Mail {
    /// The gateway's admission verdict as mail for the shard it names.
    fn routed(admit: Admit, target: SimTime) -> (usize, Self) {
        let (shard, task, reuse) = match admit {
            Admit::Fresh { shard, task } => (shard, task, None),
            Admit::Absorb {
                shard,
                primary,
                task,
                merged,
            } => (shard, task, Some((primary, merged))),
        };
        (
            shard,
            Self {
                task,
                target,
                reuse,
            },
        )
    }
}

/// The per-shard driver state the serial [`crate::FederatedEngine`]
/// keeps globally, privatised so a worker thread can advance the shard
/// without touching anything shared.
struct ShardLane {
    /// This shard's pending completions/wakeups, in the serial
    /// driver's order restricted to the shard.
    events: EventQueue,
    /// Ground-truth duration sampling stream (same seed derivation as
    /// the serial driver: shard 0 keeps the base seed).
    rng: Xoshiro256PlusPlus,
    /// Heap-event count — the wakeup guard's "no event will ever fire
    /// again" condition.
    pending: usize,
    wakeup_pending: bool,
    /// Routed arrivals awaiting delivery (mailbox schedule).
    mailbox: VecDeque<Mail>,
}

impl ShardLane {
    fn new(seed: u64) -> Self {
        Self {
            events: EventQueue::new(),
            rng: Xoshiro256PlusPlus::new(seed),
            pending: 0,
            wakeup_pending: false,
            mailbox: VecDeque::new(),
        }
    }

    /// Turns the shard's pending starts into completion events,
    /// sampling actual durations from this lane's ground-truth stream
    /// — the per-shard half of the serial driver's `dispatch_starts`.
    fn dispatch_starts<S: Sink>(
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
            self.events.push(Event {
                time: now + duration,
                kind: EventKind::Completion {
                    machine: start.machine.id,
                    task: start.task.id,
                },
            });
            self.pending += 1;
        }
    }

    /// Whether a heap event is due strictly before an arrival at
    /// `cutoff` (completions at the cutoff instant fire first, per the
    /// event-ordering contract).
    fn has_due(&self, cutoff: SimTime) -> bool {
        self.events.peek().is_some_and(|e| {
            e.time < cutoff
                || (e.time == cutoff
                    && matches!(e.kind, EventKind::Completion { .. }))
        })
    }

    /// Processes every completion due before an arrival at `cutoff`,
    /// then advances the shard clock to `target` (the arrival's serial
    /// processing instant) so a subsequent routing view or
    /// `push_arrival` observes the same `now` the serial driver would.
    fn advance_events<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        cutoff: SimTime,
        target: SimTime,
    ) {
        while self.has_due(cutoff) {
            let event = self.events.pop().expect("has_due peeked");
            self.pending -= 1;
            core.advance_to(event.time);
            match event.kind {
                EventKind::Completion { machine, task } => {
                    if !core.complete(machine, task) {
                        continue; // stale after a cancellation
                    }
                }
                // Wakeups are only ever scheduled once the arrival
                // stream is exhausted (`drain`), never before.
                _ => unreachable!("only completions precede the drain"),
            }
            self.dispatch_starts(core, truth);
            core.drain_decisions();
        }
        if target > core.now() {
            core.advance_to(target);
        }
    }

    /// Runs the shard's mapping event for one routed arrival at the
    /// shard's current clock (or absorbs it onto its primary).
    fn map_arrival<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        mail: Mail,
    ) {
        match mail.reuse {
            Some((primary, merged)) => {
                core.apply_piggyback(primary, mail.task, merged);
            }
            None => core.push_arrival(mail.task),
        }
        self.dispatch_starts(core, truth);
        core.drain_decisions();
    }

    /// Delivers one mailbox arrival: due completions first, then the
    /// shard's mapping event at the arrival's serial instant.
    fn deliver<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        mail: Mail,
    ) {
        self.advance_events(core, truth, mail.task.arrival, mail.target);
        self.map_arrival(core, truth, mail);
    }

    /// The serial driver's per-shard wakeup safety net: when no event
    /// will ever fire again on this shard but its batch queue still
    /// holds work, schedule a synthetic mapping event just past the
    /// earliest pending deadline (clamped to `now`, the serial
    /// driver's clock at the moment it would run this check).
    fn maybe_schedule_wakeup<S: Sink>(
        &mut self,
        core: &SchedulerCore<'_, S>,
        now: SimTime,
    ) {
        if self.wakeup_pending || self.pending > 0 {
            return;
        }
        let Some(earliest) = core.earliest_pending_deadline() else {
            return;
        };
        self.events.push(Event {
            time: SimTime(earliest.ticks().max(now.ticks()) + 1),
            kind: EventKind::Wakeup,
        });
        self.pending += 1;
        self.wakeup_pending = true;
    }

    /// Runs the shard to completion after the last global arrival
    /// (processed at `t_last`): the first wakeup check fires at
    /// `t_last` — the serial driver's stream-exhaustion instant — then
    /// the remaining events drain with a check after each.
    fn drain<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: SimTime,
    ) {
        self.maybe_schedule_wakeup(core, t_last);
        while let Some(event) = self.events.pop() {
            self.pending -= 1;
            core.advance_to(event.time);
            match event.kind {
                EventKind::Completion { machine, task } => {
                    if !core.complete(machine, task) {
                        continue; // stale after a cancellation
                    }
                }
                EventKind::Wakeup => {
                    self.wakeup_pending = false;
                    core.wakeup();
                }
                EventKind::Arrival { .. } => {
                    unreachable!("arrivals are mailbox-fed, never enqueued")
                }
            }
            self.dispatch_starts(core, truth);
            core.drain_decisions();
            self.maybe_schedule_wakeup(core, core.now());
        }
    }

    /// The whole-shard finale: replay the private mailbox/heap merge
    /// to the end of the stream, then drain. Runs as one pool job — no
    /// barriers.
    fn run_shard<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: Option<SimTime>,
    ) {
        while let Some(mail) = self.mailbox.pop_front() {
            self.deliver(core, truth, mail);
        }
        let Some(t_last) = t_last else {
            return; // no arrivals anywhere: nothing can have happened
        };
        // Remaining completions up to the stream-exhaustion instant
        // fire under arrival-phase rules (no wakeup checks yet) …
        self.advance_events(core, truth, t_last, t_last);
        // … then the drain regime begins, exactly at T_last.
        self.drain(core, truth, t_last);
    }
}

/// The parallel federated discrete-event driver. Construct via
/// [`crate::GatewayBuilder::build_parallel`]; behaviourally a drop-in
/// for [`crate::FederatedEngine::run_stream`] — same inputs, same
/// deterministic [`FederationStats`], bit-identical at every thread
/// count — with wall-clock scaling across shards. See the [module
/// docs](self) for the schedules and the bit-identity argument.
pub struct ParallelFederatedEngine<'a, S: Sink = NullSink> {
    gateway: Gateway<'a, S>,
    truth: &'a PetMatrix,
    lanes: Vec<ShardLane>,
    pool: rayon::ThreadPool,
    threads: usize,
    /// Running maximum of ingested arrival times — the serial
    /// processing instant of the latest arrival, carried across
    /// [`ParallelFederatedEngine::ingest_prefix`] calls.
    watermark: Option<SimTime>,
    /// Pre-routing copies of every ingested arrival (original external
    /// ids), kept when resharding needs to re-split the stream.
    arrival_log: Option<Vec<Task>>,
}

impl<'a, S: Sink> ParallelFederatedEngine<'a, S> {
    /// Wraps a built gateway. Crate-internal;
    /// [`crate::GatewayBuilder::build_parallel`] is the public
    /// entrance. `threads = None` honours `TASKPRUNE_THREADS` (else
    /// all hardware threads).
    pub(crate) fn from_gateway(
        gateway: Gateway<'a, S>,
        truth: &'a PetMatrix,
        threads: Option<usize>,
    ) -> Self {
        let lanes = gateway
            .shards()
            .iter()
            .map(|s| ShardLane::new(s.config().seed))
            .collect();
        let threads = threads
            .unwrap_or_else(|| rayon::ThreadPool::global().num_threads())
            .max(1);
        Self {
            gateway,
            truth,
            lanes,
            pool: rayon::ThreadPool::new(threads),
            threads,
            watermark: None,
            arrival_log: None,
        }
    }

    /// Number of shards being driven.
    pub fn n_shards(&self) -> usize {
        self.gateway.n_shards()
    }

    /// Total executor threads (workers + the coordinating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Consumes an arrival stream ordered by non-decreasing
    /// `task.arrival` — external ids may be sparse, out of order or
    /// duplicated — routes every task in global arrival order, runs
    /// the shards in parallel, and drains everything after the last
    /// arrival. Output is bit-identical to
    /// [`crate::FederatedEngine::run_stream`] on the same inputs.
    pub fn run_stream<I>(self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        self.finish_stream(arrivals)
    }

    /// Routes and executes a prefix of the arrival stream, leaving the
    /// engine paused at the prefix watermark: every prefix arrival has
    /// been routed (id compaction, arrival record, policy state) and
    /// delivered to its shard, and no post-stream drain has begun.
    /// Pair with [`ParallelFederatedEngine::snapshot_gateway`] to
    /// checkpoint the paused federation, then
    /// [`ParallelFederatedEngine::finish_stream`] to resume — or drop
    /// the engine and re-split the recorded
    /// [`ParallelFederatedEngine::arrival_log`] across a different
    /// shard count (live resharding).
    pub fn ingest_prefix<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        self.ingest(arrivals);
        if !self.lockstep() {
            // The mailbox schedule normally defers shard work to the
            // finale or the next sync point; deliver the routed prefix
            // now so the pause point observes shards advanced to the
            // watermark. The per-shard operation sequence is exactly
            // the one `run_shard` (or the next barrier) would have
            // replayed, so a later `finish_stream` stays bit-identical.
            self.deliver_mailboxes();
        }
    }

    /// Ingests the remaining arrivals and runs the federation to
    /// completion — the second half of a run paused by
    /// [`ParallelFederatedEngine::ingest_prefix`]. Calling it with the
    /// whole stream (no prior prefix) is exactly
    /// [`ParallelFederatedEngine::run_stream`].
    pub fn finish_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        self.ingest(arrivals);
        let t_last = self.watermark;
        // Parallel finale: every lane runs/drains independently. On
        // the mailbox schedule this is the rest of the simulation; on
        // the lockstep schedule only the post-arrival drain remains.
        {
            let truth = self.truth;
            let lanes = &mut self.lanes;
            let shards = self.gateway.shards_mut();
            self.pool.scope(|s| {
                for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
                    s.spawn(move || lane.run_shard(core, truth, t_last));
                }
            });
        }
        self.finish()
    }

    /// Starts recording every ingested arrival (pre-routing, original
    /// external ids) so a paused run can be re-split across a different
    /// shard count. Idempotent; enable before the first ingest.
    pub fn enable_arrival_log(&mut self) {
        self.arrival_log.get_or_insert_with(Vec::new);
    }

    /// The recorded arrivals in ingest order. Empty unless
    /// [`ParallelFederatedEngine::enable_arrival_log`] was called.
    pub fn arrival_log(&self) -> &[Task] {
        self.arrival_log.as_deref().unwrap_or(&[])
    }

    /// Captures the routing layer — shard cores, id compaction,
    /// arrival records and policy state — as a sealed, versioned
    /// [`Snapshot`]. Meaningful at an
    /// [`ParallelFederatedEngine::ingest_prefix`] pause point.
    pub fn snapshot_gateway(&self) -> Snapshot {
        self.gateway.snapshot()
    }

    /// Whether the lockstep schedule applies: a stateful policy over
    /// more than one shard, with no sync points (routing reads live
    /// shard state). Everything else runs the mailbox schedule.
    fn lockstep(&self) -> bool {
        !self.gateway.policy_is_stateless()
            && self.gateway.n_shards() > 1
            && !self.gateway.sync_enabled()
    }

    /// Routes a batch of arrivals under whichever schedule applies,
    /// updating the watermark and the arrival log.
    fn ingest<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        if self.lockstep() {
            self.lockstep_ingest(arrivals);
        } else {
            self.mailbox_ingest(arrivals);
        }
    }

    /// The per-arrival prologue both schedules share. Tenant admission
    /// precedes every coordinate update (watermark, arrival log, sync
    /// ordinal, mailboxes): a shed task is invisible, exactly as in the
    /// serial driver — same verdict from the same arrival-visible data
    /// in the same global order. Returns the admitted arrival's serial
    /// processing instant, or `None` when it was shed.
    fn admit_arrival(&mut self, task: &mut Task) -> Option<SimTime> {
        if self.gateway.pre_admit(task).is_some() {
            return None;
        }
        let target =
            self.watermark.map_or(task.arrival, |w| w.max(task.arrival));
        self.watermark = Some(target);
        if let Some(log) = self.arrival_log.as_mut() {
            log.push(*task);
        }
        Some(target)
    }

    /// Mailbox schedule: route each arrival into its shard's mailbox on
    /// the coordinator (identical routing bookkeeping to the serial
    /// driver); shard execution is deferred. Under relaxed consistency
    /// ([`crate::Consistency`]) or stealing, stateful policies read the
    /// gateway's stale view table instead of live shards, and every
    /// `k + 1` arrivals a **sync point** runs first: all lanes drain
    /// their mailboxes and come fully current before the coordinator
    /// runs the steal pass and republishes the view table. At a sync
    /// point both drivers expose byte-identical shard state at the same
    /// arrival ordinal (every completion due before the sync instant
    /// applied, clocks at the arrival's serial processing time) — the
    /// relaxed equivalence contract `tests/relaxed_equivalence.rs`
    /// pins.
    fn mailbox_ingest<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        for mut task in arrivals {
            // A shed task must not trigger (or delay) a sync point, or
            // the steal schedule would observe another tenant's burst.
            let Some(target) = self.admit_arrival(&mut task) else {
                continue;
            };
            if self.gateway.sync_due() {
                self.sync_lanes(task.arrival, target);
                self.run_sync_point();
            }
            let (shard, mail) =
                Mail::routed(self.gateway.admit_route(task), target);
            self.lanes[shard].mailbox.push_back(mail);
        }
    }

    /// Lockstep schedule: one epoch per arrival. All lanes advance in
    /// parallel to the arrival's watermark, then the coordinator routes
    /// on views every bit as fresh as the serial driver's and runs the
    /// routed shard's mapping event inline (that chain is serial by
    /// data dependency — each routing decision observes the previous
    /// arrival's mapping).
    fn lockstep_ingest<I>(&mut self, arrivals: I)
    where
        I: IntoIterator<Item = Task>,
    {
        for mut task in arrivals {
            let Some(target) = self.admit_arrival(&mut task) else {
                continue;
            };
            self.sync_lanes(task.arrival, target);
            let (shard, mail) =
                Mail::routed(self.gateway.admit_route(task), target);
            let core = &mut self.gateway.shards_mut()[shard];
            self.lanes[shard].map_arrival(core, self.truth, mail);
        }
    }

    /// Drains every shard's mailbox in parallel — the delivery half of
    /// the mailbox schedule, pulled forward by `ingest_prefix`.
    fn deliver_mailboxes(&mut self) {
        let truth = self.truth;
        let lanes = &mut self.lanes;
        let shards = self.gateway.shards_mut();
        self.pool.scope(|s| {
            for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
                if !lane.mailbox.is_empty() {
                    s.spawn(move || {
                        while let Some(mail) = lane.mailbox.pop_front() {
                            lane.deliver(core, truth, mail);
                        }
                    });
                }
            }
        });
    }

    /// The barrier: every lane drains its mailbox and processes all
    /// completions due before `cutoff`, finishing with its clock at
    /// `target` — the exact state the serial driver holds when it
    /// reaches the same arrival ordinal.
    fn sync_lanes(&mut self, cutoff: SimTime, target: SimTime) {
        let truth = self.truth;
        let lanes = &mut self.lanes;
        let shards = self.gateway.shards_mut();
        // A same-instant burst usually has nothing due between its
        // arrivals; don't pay for a scope (allocation + completion
        // latch) when no lane will spawn.
        if lanes
            .iter()
            .any(|l| !l.mailbox.is_empty() || l.has_due(cutoff))
        {
            self.pool.scope(|s| {
                for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
                    if !lane.mailbox.is_empty() || lane.has_due(cutoff) {
                        s.spawn(move || {
                            while let Some(mail) = lane.mailbox.pop_front() {
                                lane.deliver(core, truth, mail);
                            }
                            lane.advance_events(core, truth, cutoff, target);
                        });
                    } else if target > core.now() {
                        // No shard work this epoch: the clock tick is
                        // too cheap to ship out.
                        core.advance_to(target);
                    }
                }
            });
        } else {
            for core in shards.iter_mut() {
                if target > core.now() {
                    core.advance_to(target);
                }
            }
        }
    }

    /// Runs the coordinator half of a sync point — steal pass plus view
    /// refresh — then dispatches the thieves' freshly mapped starts.
    fn run_sync_point(&mut self) {
        if self.gateway.sync_point().is_empty() {
            return;
        }
        let truth = self.truth;
        let lanes = &mut self.lanes;
        let shards = self.gateway.shards_mut();
        for (lane, core) in lanes.iter_mut().zip(shards.iter_mut()) {
            lane.dispatch_starts(core, truth);
            core.drain_decisions();
        }
    }

    /// Deterministic fan-in: advance every shard to the federation-wide
    /// end time (the serial driver's shared final clock) and collect
    /// the outcome record in fixed shard order.
    fn finish(mut self) -> FederationStats {
        let t_end = self
            .gateway
            .shards()
            .iter()
            .map(SchedulerCore::now)
            .max()
            .unwrap_or(SimTime::ZERO);
        for core in self.gateway.shards_mut() {
            if t_end > core.now() {
                core.advance_to(t_end);
            }
        }
        self.gateway.finish()
    }
}

impl<S: Sink> std::fmt::Debug for ParallelFederatedEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelFederatedEngine")
            .field("gateway", &self.gateway)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gateway::GatewayBuilder;
    use crate::route::{LeastQueuedRoute, RoundRobinRoute};
    use crate::traits::{Assignment, BatchMapper, MappingStrategy, NoPruning};
    use crate::view::SystemView;
    use taskprune_model::{
        BinSpec, Cluster, MachineId, TaskOutcome, TaskTypeId,
    };
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

    fn tasks(n: u64, every: u64) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let arr = i * every;
                Task::new(
                    i,
                    TaskTypeId(0),
                    SimTime(arr),
                    SimTime(arr + 100_000),
                )
            })
            .collect()
    }

    fn builder<'a>(
        pet: &'a PetMatrix,
        cluster: &Cluster,
        shards: usize,
    ) -> GatewayBuilder<'a, NullSink> {
        GatewayBuilder::new(cluster, pet)
            .config(SimConfig::batch(1))
            .shards(shards)
            .strategy_with(|_| MappingStrategy::Batch(Box::new(ToZero)))
            .pruner_with(|_| Box::new(NoPruning))
    }

    fn run_parallel(
        shards: usize,
        threads: usize,
        stateless: bool,
        workload: &[Task],
    ) -> FederationStats {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut b = builder(&pet, &cluster, shards).threads(threads);
        if !stateless {
            b = b.policy(LeastQueuedRoute::new());
        } else {
            b = b.policy(RoundRobinRoute::new());
        }
        b.build_parallel()
            .expect("valid configuration")
            .run_stream(workload.iter().copied())
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let stats = run_parallel(3, 2, true, &[]);
        assert_eq!(stats.n_tasks(), 0);
        assert_eq!(stats.end_time(), SimTime::ZERO);
    }

    #[test]
    fn both_schedules_complete_everything() {
        let workload = tasks(60, 40);
        for stateless in [true, false] {
            let stats = run_parallel(4, 3, stateless, &workload);
            assert_eq!(stats.n_tasks(), 60, "stateless={stateless}");
            assert_eq!(stats.unreported(), 0, "stateless={stateless}");
            assert_eq!(
                stats.count(TaskOutcome::CompletedOnTime),
                60,
                "stateless={stateless}"
            );
        }
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        // The crate-local smoke version of the root equivalence suite.
        let workload = tasks(80, 25);
        for stateless in [true, false] {
            let reference = run_parallel(4, 1, stateless, &workload);
            for threads in [2, 4] {
                let other = run_parallel(4, threads, stateless, &workload);
                assert_eq!(
                    serde_json::to_string(&reference).unwrap(),
                    serde_json::to_string(&other).unwrap(),
                    "stateless={stateless} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn prefix_ingest_then_finish_matches_one_shot() {
        let workload = tasks(50, 30);
        for stateless in [true, false] {
            let reference = run_parallel(3, 2, stateless, &workload);
            let pet = det_pet();
            let cluster = Cluster::one_per_type(1);
            let mut b = builder(&pet, &cluster, 3).threads(2);
            if stateless {
                b = b.policy(RoundRobinRoute::new());
            } else {
                b = b.policy(LeastQueuedRoute::new());
            }
            let mut engine = b.build_parallel().expect("valid configuration");
            engine.enable_arrival_log();
            engine.ingest_prefix(workload[..20].iter().copied());
            assert_eq!(engine.arrival_log().len(), 20);
            engine
                .snapshot_gateway()
                .verify()
                .expect("paused-federation snapshot verifies");
            let stats = engine.finish_stream(workload[20..].iter().copied());
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&stats).unwrap(),
                "stateless={stateless}"
            );
        }
    }

    #[test]
    fn threads_knob_is_reported() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let engine = builder(&pet, &cluster, 2)
            .threads(7)
            .build_parallel()
            .expect("valid configuration");
        assert_eq!(engine.threads(), 7);
        assert_eq!(engine.n_shards(), 2);
    }
}
