//! The parallel federated driver: K shards on K threads,
//! deterministically.
//!
//! [`crate::FederatedEngine`] steps all N shards of a [`Gateway`] on
//! one thread in global event order. But the shards are *independent
//! state machines*: a shard's mapping events depend only on its own
//! clock, its own completions/wakeups, and the arrivals routed to it —
//! never on another shard's state. The one federation point that does
//! need a consistent global view is **routing**.
//! [`ParallelFederatedEngine`] exploits exactly that decomposition:
//!
//! * the **coordinator** (the calling thread) routes arrivals in
//!   global arrival order — identical id compaction and
//!   [`FederationStats`] arrival record as the serial driver — into
//!   per-shard mailboxes, up front;
//! * each **shard lane** is the serial driver's own per-shard `Lane`
//!   (event heap, ground-truth RNG stream, wakeup flag) plus its
//!   mailbox of routed arrivals, and replays its private merge of
//!   the two start to finish, with **zero cross-shard barriers**, on a
//!   worker of a hand-rolled work-stealing pool (`vendor/rayon`);
//! * the deterministic [`FederationStats`] fan-in is unchanged: the
//!   coordinator merges results in fixed shard order after every lane
//!   has drained.
//!
//! The driver runs a stream start to finish, with no pause point, and
//! is unsupervised. Pausing at an arrival watermark, checkpoints and
//! supervision live on the serial driver
//! ([`crate::FederatedEngine::run_until`], [`crate::Supervisor`]); a
//! run the supervisor heals serializes identically to this driver's
//! fault-free run at any thread count (`tests/self_healing.rs`).
//!
//! Routing up front needs a decision that reads no shard state: a
//! policy that declares [`crate::RoutePolicy::is_stateless`]
//! (round-robin), or a single shard. A policy that reads shard state
//! (least-queued) on more than one shard waits, at every
//! arrival, on the previous arrival's mapping event: the routing chain
//! is serial by data dependency, and the completion work between
//! arrivals is too little to pay for a barrier per arrival. Building
//! one is a typed error
//! ([`crate::ConfigError::ParallelNeedsStatelessRoute`]); the serial
//! driver runs it.
//!
//! # Bit-identity argument (the headline guarantee)
//!
//! `tests/parallel_equivalence.rs` pins serialized outputs; the
//! reasoning for *why* it holds at any thread count:
//!
//! 1. Both drivers step the same per-shard `Lane`. The serial driver
//!    takes the lane head with the smallest `(time, class, shard)`, so
//!    its order restricted to one shard is that lane's own
//!    `(time, class, id)` order, and a mailbox arrival fires after
//!    exactly the events the serial driver's `Lane::has_due` check
//!    lets through first. This holds by construction: there is one
//!    event rule, not two kept in step.
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

use crate::gateway::{FederationStats, Gateway};
use crate::journal::JournalOp;
use crate::lane::Lane;
use crate::sink::{NullSink, Sink};
use crate::SchedulerCore;
use std::collections::VecDeque;
use taskprune_model::{PetMatrix, SimTime, Task};

/// One routed arrival in a shard's mailbox.
#[derive(Debug, Clone, Copy)]
struct Mail {
    /// What delivers it: the relabelled task's arrival, or its
    /// absorption onto an in-flight primary.
    op: JournalOp,
    /// The task's own arrival time: events due before it fire first.
    cutoff: SimTime,
    /// The clock value the serial driver would process it at: the
    /// running maximum of arrival times (equal to `cutoff` for the
    /// documented non-decreasing streams, later for stragglers).
    target: SimTime,
}

/// One shard's event lane plus its mailbox of routed arrivals awaiting
/// delivery.
struct ShardLane {
    lane: Lane,
    mailbox: VecDeque<Mail>,
}

impl ShardLane {
    /// The whole-shard run, as one pool job with no barriers: deliver
    /// every mailbox arrival in order (due completions first, then the
    /// shard's mapping event at the arrival's serial instant), then
    /// drain from `t_last`, the serial driver's stream-exhaustion
    /// instant.
    fn run_shard<S: Sink>(
        &mut self,
        core: &mut SchedulerCore<'_, S>,
        truth: &PetMatrix,
        t_last: Option<SimTime>,
    ) {
        while let Some(mail) = self.mailbox.pop_front() {
            self.lane
                .advance_events(core, truth, mail.cutoff, mail.target);
            mail.op.apply(core);
            self.lane.settle(core, truth);
        }
        // No arrivals anywhere: nothing can have happened.
        if let Some(t_last) = t_last {
            self.lane.finish(core, truth, t_last);
        }
    }
}

/// The parallel federated discrete-event driver. Construct via
/// [`crate::GatewayBuilder::build_parallel`]; behaviourally a drop-in
/// for [`crate::FederatedEngine::run_stream`] — same inputs, same
/// deterministic [`FederationStats`], bit-identical at every thread
/// count — with wall-clock scaling across shards. See the [module
/// docs](self) for the schedule and the bit-identity argument.
pub struct ParallelFederatedEngine<'a, S: Sink = NullSink> {
    gateway: Gateway<'a, S>,
    truth: &'a PetMatrix,
    lanes: Vec<ShardLane>,
    pool: rayon::ThreadPool,
    threads: usize,
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
            .map(|s| ShardLane {
                lane: Lane::new(s.config().seed),
                mailbox: VecDeque::new(),
            })
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
    ///
    /// # Panics
    /// On an arrival whose type is not one of the PET matrix's task
    /// types, while routing it, before any table changes and before a
    /// shard runs.
    pub fn run_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        let t_last = self.ingest(arrivals);
        // Every lane runs the rest of the simulation independently.
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

    /// Routes each arrival into its shard's mailbox on the coordinator
    /// (identical routing bookkeeping to the serial driver); shard
    /// execution is deferred. Tenant admission precedes every
    /// coordinate update (watermark, mailboxes): a shed task is
    /// invisible, exactly as in the serial driver — same verdict from
    /// the same arrival-visible data in the same global order.
    /// Returns the watermark — the running maximum of admitted arrival
    /// times, the serial processing instant of the latest arrival —
    /// or `None` when nothing was admitted.
    fn ingest<I>(&mut self, arrivals: I) -> Option<SimTime>
    where
        I: IntoIterator<Item = Task>,
    {
        let mut watermark: Option<SimTime> = None;
        for mut task in arrivals {
            if self.gateway.pre_admit(&mut task).is_some() {
                continue;
            }
            let target =
                watermark.map_or(task.arrival, |w| w.max(task.arrival));
            watermark = Some(target);
            let (shard, op) = self.gateway.admit_route(task);
            self.lanes[shard].mailbox.push_back(Mail {
                op,
                cutoff: task.arrival,
                target,
            });
        }
        watermark
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
        workload: &[Task],
    ) -> FederationStats {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        builder(&pet, &cluster, shards)
            .threads(threads)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(workload.iter().copied())
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let stats = run_parallel(3, 2, &[]);
        assert_eq!(stats.n_tasks(), 0);
        assert_eq!(stats.end_time(), SimTime::ZERO);
    }

    #[test]
    fn a_run_completes_everything() {
        let stats = run_parallel(4, 3, &tasks(60, 40));
        assert_eq!(stats.n_tasks(), 60);
        assert_eq!(stats.unreported(), 0);
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 60);
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        // The crate-local smoke version of the root equivalence suite.
        let workload = tasks(80, 25);
        let reference = run_parallel(4, 1, &workload);
        for threads in [2, 4] {
            let other = run_parallel(4, threads, &workload);
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&other).unwrap(),
                "threads={threads}"
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
