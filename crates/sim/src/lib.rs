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
//! * [`Engine`] — the bundled discrete-event *driver*: merges an
//!   arrival stream with one shard's event lane. The lane (in
//!   [`engine`]) holds the completion/wakeup heap and the ground-truth
//!   RNG stream, samples durations, and owns the wakeup safety net;
//!   every driver below runs its shards on the same lane, so each of
//!   those rules exists once. `run` (task slice) and `run_stream` (any
//!   ordered iterator) are bit-identical paths.
//! * [`Sink`] — pluggable observability, chosen *by type*: the default
//!   [`NullSink`] compiles to nothing, [`TraceLog`] records the full
//!   lifecycle trace.
//! * [`Decisions`] — pluggable consumer of the typed decision stream,
//!   also chosen by type: the default [`NullDecisions`] restores the
//!   driver's historical drain-and-discard at zero cost.
//! * [`SchedulerBuilder`] — the validated fluent constructor for both;
//!   misconfigurations surface as typed [`ConfigError`]s at build time.
//! * [`Gateway`] — the federation layer: N independent cores behind a
//!   pluggable [`RoutePolicy`], with external-id compaction at the
//!   boundary and a deterministic [`FederationStats`] fan-in;
//!   [`FederatedEngine`] is its bundled discrete-event driver, which
//!   steps one lane per shard in global event order. One shard is
//!   bit-identical to [`Engine`].
//! * [`ParallelFederatedEngine`] — the same federation and the same
//!   lanes, each advanced by a worker of a work-stealing pool, routing
//!   serialized on the coordinator. Bit-identical to
//!   [`FederatedEngine`] at every thread count; parallelism is purely a
//!   wall-clock change. Unsupervised: supervised runs use the serial
//!   driver.
//! * [`Snapshot`] / [`ShardJournal`] — the elasticity layer: versioned,
//!   hash-sealed state capture for cores, queues and whole gateways,
//!   plus per-shard replayable logs of [`JournalOp`]s, the operations
//!   every driver applies to a shard. Together they give
//!   crash-failover (`replay(snapshot, log)` reproduces a shard
//!   bit-identically) and live resharding (pause at an arrival
//!   watermark, snapshot, re-split across K′ shards, resume).
//! * [`ReusePolicy`] / [`Admission`] — the function-reuse layer: a
//!   content-keyed gate at the gateway absorbs exact-duplicate and
//!   deadline-window-mergeable arrivals onto their in-flight primary,
//!   fanning the single completion out to every follower (each judged
//!   against its own deadline). Off by default and bit-identical to a
//!   gateway without it.
//! * [`Consistency`] / [`StealStats`] — the relaxed-routing layer:
//!   under [`Consistency::BoundedStale`] stateful policies route on an
//!   epoch-stamped view table at most `k` arrivals stale (letting the
//!   parallel driver skip the per-arrival barrier), and idle shards
//!   steal batch-queue tails from the deepest backlog at the same
//!   deterministic sync points. Serial and parallel drivers stay
//!   byte-identical at every `k` (`tests/relaxed_equivalence.rs`), and
//!   `BoundedStale { k: 0 }` is bit-for-bit `Lockstep`.
//! * [`FaultPlan`] / [`Supervisor`] — the robustness layer: seeded,
//!   replayable fault schedules injected into the serial
//!   [`FederatedEngine`], and a self-healing supervisor over it that
//!   auto-checkpoints, detects faults, retries within a bounded budget
//!   (deterministic sim-time backoff), and degrades gracefully —
//!   quarantine, backlog re-route and pruning-based load shedding —
//!   when the budget runs out. Every action lands in a deterministic
//!   [`RecoveryLog`].

#![warn(missing_docs)]

pub mod build;
pub mod config;
pub mod core;
pub mod decisions;
pub mod engine;
pub mod event;
pub mod fault;
pub mod gateway;
pub mod journal;
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
    //! Helpers for constructing machine-queue state outside the engine —
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
pub use decisions::{DecisionCounter, DecisionLog, Decisions, NullDecisions};
pub use engine::Engine;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec, TenantBurst};
pub use gateway::{
    FedArrival, FedDecision, FedStart, FederatedEngine, FederationStats,
    Gateway, GatewayBuilder, IdCompactor,
};
pub use journal::{JournalEntry, JournalOp, ShardJournal};
pub use parallel::ParallelFederatedEngine;
pub use reuse::{Admission, ReuseMode, ReusePolicy, ReuseStats};
pub use route::{
    Consistency, LeastQueuedRoute, RoundRobinRoute, RoutePolicy, ShardView,
};
pub use sink::{NullSink, Sink};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use stats::{SimStats, StatsError, StealStats, TenancyStats, TenantSlice};
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
