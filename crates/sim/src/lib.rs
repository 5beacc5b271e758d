//! Discrete-event simulator of a heterogeneous serverless back-end.
//!
//! Implements the system model of §II of the paper (Fig. 1):
//!
//! * tasks arrive dynamically and enter either machine queues directly
//!   (**immediate mode**) or a batch/arrival queue (**batch mode**);
//! * a *mapping event* fires on every task arrival and completion; before
//!   any mapping decision, tasks that already missed their deadline are
//!   dropped (reactive dropping);
//! * machine queues are FCFS, non-preemptive, and tasks are never
//!   remapped once assigned;
//! * every machine queue tracks the **Probabilistic Completion Time** of
//!   its tail incrementally (Eq. 1: `PCT(i,j) = PET(i,j) ∗ PCT(i−1,j)`),
//!   enabling O(PET-support) chance-of-success queries (Eq. 2) without
//!   re-convolving the whole queue;
//! * the mapper ([`BatchMapper`] / [`ImmediateMapper`]) and the pruning
//!   policy ([`Pruner`]) are plug-ins, so the pruning mechanism can be
//!   attached to any heuristic "without altering it" (Fig. 1c).
//!
//! # Architecture: driver over core over sinks
//!
//! The crate is layered so the scheduler is usable outside the
//! simulation:
//!
//! * [`SchedulerCore`] — the clock-free decision state machine. Feed it
//!   `advance_to` / `push_arrival` / `complete` / `wakeup`; read back
//!   typed [`Decision`]s and [`Start`] records. No event queue, no
//!   duration sampling: live traffic can drive it directly.
//! * [`Sink`] — pluggable observability, chosen *by type*: the default
//!   [`NullSink`] compiles to nothing, [`TraceLog`] records the full
//!   lifecycle trace.
//! * [`SchedulerBuilder`] — the validated fluent constructor of a core;
//!   misconfigurations surface as typed [`ConfigError`]s at build time.
//! * [`Gateway`] — the federation layer: N independent cores behind a
//!   pluggable [`RoutePolicy`], with external-id compaction at the
//!   boundary and a deterministic [`FederationStats`] fan-in.
//!   [`FederatedEngine`] is the bundled discrete-event *driver*: it
//!   merges an arrival stream with one event lane per shard, stepped in
//!   global event order. A lane holds a shard's completion/wakeup heap
//!   and ground-truth RNG stream, samples durations, and owns the
//!   wakeup safety net; both drivers run their shards on it, so each of
//!   those rules exists once. A single-cluster run is the one-shard
//!   case (`ResourceAllocator::try_run` in the `taskprune` crate).
//! * [`ParallelFederatedEngine`] — the same federation and the same
//!   lanes, each advanced by a worker of a work-stealing pool, routing
//!   serialized on the coordinator. Bit-identical to
//!   [`FederatedEngine`] at every thread count; parallelism is purely a
//!   wall-clock change. Unsupervised: supervised runs use the serial
//!   driver.
//! * [`Snapshot`] / [`ShardJournal`] — the checkpoint layer: versioned,
//!   hash-sealed state capture for cores, queues, gateways and the
//!   serial driver's coordinator, plus per-shard replayable logs of
//!   [`JournalOp`]s, the operations every driver applies to a shard.
//!   Together they give crash-failover (`replay(snapshot, log)`
//!   reproduces a shard bit-identically) and cold coordinator restarts.
//! * [`ReusePolicy`] / [`Admission`] — the function-reuse layer: a
//!   content-keyed gate at the gateway absorbs exact duplicates onto
//!   their in-flight primary, fanning the single completion out to
//!   every follower (each judged against its own deadline); it holds
//!   only primaries that can still finish on time. Off by default and
//!   bit-identical to a gateway without it.
//! * [`FaultPlan`] / [`Supervisor`] — the robustness layer: seeded,
//!   replayable fault schedules injected into the serial
//!   [`FederatedEngine`], and a self-healing supervisor over it that
//!   auto-checkpoints, detects faults, retries within a bounded budget
//!   at the fault instant, and degrades gracefully —
//!   quarantine, backlog re-route and pruning-based load shedding —
//!   when the budget runs out. Every action lands in a deterministic
//!   [`RecoveryLog`].

#![warn(missing_docs)]

pub mod build;
pub mod config;
pub mod core;
pub mod event;
pub mod fault;
pub mod gateway;
pub mod journal;
mod lane;
pub mod parallel;
pub mod queue;
pub mod reuse;
pub mod route;
pub mod sink;
pub mod snapshot;
pub mod stats;
pub mod supervisor;
pub mod tenant;
pub mod trace;
pub mod traits;
pub mod view;

pub mod queue_testing {
    //! Helpers for constructing machine-queue state outside a core —
    //! used by heuristic unit tests and the micro-benchmarks.

    use crate::queue::MachineQueue;
    use taskprune_model::Cluster;

    /// Builds one empty queue per cluster machine.
    pub fn make_queues(
        cluster: &Cluster,
        capacity: usize,
        horizon_bins: u64,
    ) -> Vec<MachineQueue> {
        cluster
            .machines()
            .iter()
            .map(|&m| MachineQueue::new(m, capacity, horizon_bins))
            .collect()
    }
}

pub use build::SchedulerBuilder;
pub use config::{AllocationMode, ConfigError, RunError, SimConfig};
pub use core::{Decision, SchedulerCore, Start};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec, TenantBurst};
pub use gateway::{
    FedArrival, FedDecision, FedStart, FederatedEngine, FederationStats,
    Gateway, GatewayBuilder, IdCompactor,
};
pub use journal::{JournalEntry, JournalOp, ShardJournal};
pub use parallel::ParallelFederatedEngine;
pub use reuse::{Admission, ReusePolicy, ReuseStats};
pub use route::{LeastQueuedRoute, RoundRobinRoute, RoutePolicy, ShardView};
pub use sink::{NullSink, Sink};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use stats::{SimStats, StatsError, TenancyStats, TenantSlice};
pub use supervisor::{
    RecoveryAction, RecoveryActionKind, RecoveryLog, RecoveryPolicy, Supervisor,
};
pub use tenant::{
    LadderConfig, RateLimit, ShedReason, SlaClass, TenancyPolicy,
    TenantAdmissionStats, TenantSpec,
};
pub use trace::{QueueSnapshot, TraceEvent, TraceLog};
pub use traits::{
    Assignment, BatchMapper, EventReport, ImmediateMapper, MappingStrategy,
    NoPruning, Pruner,
};
pub use view::SystemView;
