//! Sharded cluster federation: one gateway, N independent scheduler
//! shards.
//!
//! The paper evaluates one load balancer in front of one heterogeneous
//! cluster; its companion work frames pruning as part of a
//! resource-allocation *system* whose front-end mediates between users
//! and many machine queues. A [`Gateway`] is that front-end: it owns N
//! independent [`SchedulerCore`] shards — each a full paper-system
//! instance with its own machines, queues, pruner and heuristic — and
//! routes one live arrival stream across them through a pluggable
//! [`RoutePolicy`].
//!
//! Three concerns live at the federation boundary and nowhere else:
//!
//! * **Routing** — which shard absorbs each arrival
//!   ([`crate::route`]);
//! * **Id compaction** ([`IdCompactor`]) — external task ids may be
//!   sparse (timestamps, snowflakes), out of order, or even duplicated;
//!   each shard sees only its own dense, arrival-ordered internal id
//!   space, so the per-shard outcome tables stay dense and small;
//! * **Fan-in** ([`FederationStats`]) — per-shard outcome records merge
//!   into federation-level robustness/throughput figures
//!   deterministically, trimmed by *global arrival order*.
//!
//! A **single-cluster run is the one-shard case**: the round-robin
//! policy degenerates to "always shard 0", compaction keys the shard's
//! record by arrival order (the identity on a dense in-order trace),
//! and the federated driver ([`FederatedEngine`]) steps the shard's one
//! lane. `tests/streaming_equivalence.rs` and
//! `tests/federation_equivalence.rs` pin the shard's serialized
//! [`SimStats`], trace included, byte-equal to a loop that drives the
//! core through its public API alone.

use crate::config::{ConfigError, RunError, SimConfig};
use crate::core::{CoreCapture, Decision, SchedulerCore, Start};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::journal::{JournalOp, ShardJournal};
use crate::lane::Lane;
use crate::reuse::{Admission, Admit, ReuseGate, ReusePolicy, ReuseStats};
use crate::route::{RoundRobinRoute, RoutePolicy, ShardView};
use crate::sink::{NullSink, Sink};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stats::{SimStats, StatsError, TenancyStats, TenantSlice};
use crate::supervisor::RecoveryLog;
use crate::tenant::{
    ShedReason, TenancyPolicy, TenantAdmissionStats, TenantTable, TenantVerdict,
};
use crate::traits::{MappingStrategy, Pruner};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;
use std::iter::Peekable;
use taskprune_model::{
    Cluster, Machine, MachineId, PetMatrix, SimTime, Task, TaskId, TaskOutcome,
    TaskTypeId,
};
use taskprune_prob::rng::{derive_seed, Xoshiro256PlusPlus};

// ---------------------------------------------------------------------
// Id compaction.
// ---------------------------------------------------------------------

/// Translates sparse/out-of-order external task ids into each shard's
/// dense internal id space.
///
/// Internal ids are assigned per shard in arrival order (`0, 1, 2, …`),
/// which is exactly the layout the dense [`SimStats`] tables want —
/// the >2²⁴-jump guard can never fire behind a compactor. The mapping
/// is append-only, so an internal id round-trips to the external id it
/// was assigned for even when external ids repeat (each occurrence gets
/// a fresh internal id).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IdCompactor {
    /// Per shard: internal id (index) → external id.
    per_shard: Vec<Vec<TaskId>>,
}

impl IdCompactor {
    /// A compactor for `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self {
            per_shard: vec![Vec::new(); n_shards],
        }
    }

    /// Assigns the next dense internal id of `shard` to `external`.
    pub fn assign(&mut self, shard: usize, external: TaskId) -> TaskId {
        let table = &mut self.per_shard[shard];
        let internal = TaskId(table.len() as u64);
        table.push(external);
        internal
    }

    /// The external id an internal id was assigned for.
    pub fn external(&self, shard: usize, internal: TaskId) -> Option<TaskId> {
        self.per_shard
            .get(shard)
            .and_then(|t| t.get(internal.0 as usize))
            .copied()
    }

    /// Number of ids assigned on `shard`.
    pub fn assigned(&self, shard: usize) -> usize {
        self.per_shard.get(shard).map_or(0, Vec::len)
    }
}

// ---------------------------------------------------------------------
// The gateway.
// ---------------------------------------------------------------------

/// One arrival as the federation recorded it: where it was routed and
/// under which internal id. The global sequence of these is the
/// federation's arrival-ordered trim window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FedArrival {
    /// The shard the task was routed to.
    pub shard: u32,
    /// The dense id the shard knows the task by.
    pub internal: TaskId,
    /// The id the outside world knows the task by.
    pub external: TaskId,
}

/// One decision from the federated decision stream, translated back
/// into external ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedDecision {
    /// The shard that took the decision.
    pub shard: usize,
    /// The decision, with the task's *external* id restored.
    pub decision: Decision,
}

/// One execution start surfaced through the gateway. The caller owes a
/// matching [`Gateway::complete`] with the *internal* id (kept here
/// alongside the externally-labelled task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedStart {
    /// The shard whose machine starts executing.
    pub shard: usize,
    /// The machine that begins executing.
    pub machine: Machine,
    /// The task it executes, with its **external** id restored.
    pub task: Task,
    /// The shard-internal id [`Gateway::complete`] expects back.
    pub internal: TaskId,
}

/// The federation front-end: N independent [`SchedulerCore`] shards
/// behind a [`RoutePolicy`], with id compaction at the boundary.
///
/// Mirrors the core's streaming API one level up: `advance_to` /
/// `push_arrival` / `complete` / `wakeup`, with decisions and starts
/// drained in shard-index order and translated back to external ids.
/// Construct via [`GatewayBuilder`]; [`FederatedEngine`] is the bundled
/// discrete-event driver over it.
pub struct Gateway<'a, S: Sink = NullSink> {
    shards: Vec<SchedulerCore<'a, S>>,
    policy: Box<dyn RoutePolicy>,
    compact: IdCompactor,
    /// Global arrival order across the federation.
    arrival_order: Vec<FedArrival>,
    /// Latest (shard, internal) per external id, for callers that only
    /// know external ids. Duplicated external ids: latest wins.
    latest: HashMap<u64, (u32, TaskId)>,
    /// Reused output buffer for [`Gateway::drain_decisions`].
    decisions: Vec<FedDecision>,
    /// Reused output buffer for [`Gateway::drain_starts`].
    starts: Vec<FedStart>,
    /// Shards a supervisor has taken out of rotation after exhausting
    /// their recovery budget. Routing remaps around them.
    quarantined: Vec<bool>,
    /// Coordinator-side reuse cache: decides, in global arrival order,
    /// which arrivals absorb onto an in-flight primary instead of
    /// routing (see [`crate::reuse`]).
    reuse: ReuseGate,
    /// The multi-tenant admission table (quotas, SLA classes, overload
    /// ladder — see [`crate::tenant`]). `None` when no
    /// [`TenancyPolicy`] was installed: every arrival is admitted and
    /// the gateway is byte-identical to a pre-tenancy one.
    tenants: Option<TenantTable>,
}

impl<'a, S: Sink> Gateway<'a, S> {
    fn from_parts(
        shards: Vec<SchedulerCore<'a, S>>,
        policy: Box<dyn RoutePolicy>,
        reuse: ReuseGate,
        tenancy: Option<TenancyPolicy>,
    ) -> Self {
        let n = shards.len();
        Self {
            shards,
            policy,
            compact: IdCompactor::new(n),
            arrival_order: Vec::new(),
            latest: HashMap::new(),
            decisions: Vec::new(),
            starts: Vec::new(),
            quarantined: vec![false; n],
            reuse,
            tenants: tenancy.map(TenantTable::new),
        }
    }

    /// Number of shards behind the gateway.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Read-only access to the shards (shard-index order).
    pub fn shards(&self) -> &[SchedulerCore<'a, S>] {
        &self.shards
    }

    /// Mutable shard access for the parallel driver, which advances
    /// disjoint shards on worker threads (crate-internal: arbitrary
    /// external mutation could break the arrival bookkeeping).
    pub(crate) fn shards_mut(&mut self) -> &mut [SchedulerCore<'a, S>] {
        &mut self.shards
    }

    /// Whether a supervisor has quarantined `shard` (degraded mode:
    /// the shard accepts no new work and its in-flight events are
    /// discarded).
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined[shard]
    }

    /// Takes `shard` out of the routing rotation. Crate-internal: only
    /// the supervisor's quarantine path may degrade the federation,
    /// and it owes the batch-queue salvage that goes with it.
    pub(crate) fn set_quarantined(&mut self, shard: usize) {
        self.quarantined[shard] = true;
        // Nothing may piggyback onto a quarantined shard's in-flight
        // work from here on — it will never complete.
        self.reuse.evict_shard(shard);
    }

    /// The configured reuse policy.
    pub fn reuse_policy(&self) -> ReusePolicy {
        self.reuse.policy()
    }

    /// The federation clock (all shards share one timeline). Taken as
    /// the max over the shards: in healthy operation every shard
    /// agrees, and after a crash wiped one shard's clock the surviving
    /// shards still define the federation's time.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(SchedulerCore::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Moves every shard's clock forward to `t`.
    ///
    /// # Panics
    /// If `t` is before the current clock (time never runs backwards —
    /// see [`SchedulerCore::advance_to`]).
    pub fn advance_to(&mut self, t: SimTime) {
        for shard in &mut self.shards {
            shard.advance_to(t);
        }
    }

    /// The tenant-admission check every driver runs **before any other
    /// per-arrival side effect** (clock advance, watermark). Returns
    /// `Some((tenant, reason))` when the task is shed — the caller must
    /// then skip the arrival entirely, as if it never existed: that
    /// invisibility is what makes one tenant's burst unobservable in
    /// every other tenant's coordinates (the SLA isolation guarantee).
    /// On admission the task is stamped with its SLA class's value tag
    /// and `None` is returned. No-op `None` when tenancy is off.
    ///
    /// # Panics
    /// When the task's type is not one of the PET matrix's task types
    /// (the [`StatsError::UnknownTaskType`] message), before any table
    /// of the gateway or a shard changes.
    /// [`Gateway::try_push_arrival`] returns that error instead.
    pub(crate) fn pre_admit(
        &mut self,
        task: &mut Task,
    ) -> Option<(u64, ShedReason)> {
        StatsError::check_type(task, self.shards[0].pet().n_task_types())
            .unwrap_or_else(|e| panic!("{e}"));
        let table = self.tenants.as_mut()?;
        match table.admit(task) {
            TenantVerdict::Admitted { class } => {
                task.value = class.value_tag();
                None
            }
            TenantVerdict::Shed { tenant, reason } => Some((tenant, reason)),
        }
    }

    /// The installed tenancy contract, if any.
    pub fn tenancy(&self) -> Option<&TenancyPolicy> {
        self.tenants.as_ref().map(TenantTable::policy)
    }

    /// Whether the overload degradation ladder is configured.
    pub(crate) fn ladder_enabled(&self) -> bool {
        self.tenants
            .as_ref()
            .is_some_and(|t| t.policy().ladder_config().is_some())
    }

    /// The current ladder rung (0 when tenancy or the ladder is off).
    pub fn sla_rung(&self) -> u8 {
        self.tenants.as_ref().map_or(0, TenantTable::rung)
    }

    /// The `retry_after` back-off hint for [`RunError::Overloaded`].
    pub(crate) fn retry_after(&self) -> u64 {
        self.tenants
            .as_ref()
            .and_then(|t| t.policy().ladder_config())
            .map_or(0, |cfg| cfg.retry_after)
    }

    /// One ladder sensing tick (see [`TenantTable::overload_tick`]);
    /// the supervisor calls this at quiescent arrival watermarks with
    /// the summed healthy batch-queue depth. Returns the transition, if
    /// one fired.
    pub(crate) fn overload_tick(
        &mut self,
        pressure: usize,
    ) -> Option<(u8, u8)> {
        self.tenants.as_mut()?.overload_tick(pressure)
    }

    /// Per-tenant admission counters, tenant-id order, when tenancy is
    /// on: `(lanes, counters)`.
    pub(crate) fn tenant_counters(
        &self,
    ) -> Option<(u64, Vec<TenantAdmissionStats>)> {
        self.tenants
            .as_ref()
            .map(|t| (t.policy().lanes(), t.counters().to_vec()))
    }

    /// Admits one arriving task (carrying its *external* id): consults
    /// the tenant admission table (quotas, SLA classes, ladder — when
    /// tenancy is on), then the reuse gate, then either routes it —
    /// compacting the id into the chosen shard's dense space and
    /// running that shard's mapping event — or absorbs it onto an
    /// in-flight primary (exact duplicate or deadline-window merge,
    /// per the configured [`ReusePolicy`]). The returned [`Admission`]
    /// says which happened; a shed arrival reports
    /// [`Admission::Shed`] and touches nothing.
    ///
    /// # Panics
    /// When the task's type is not one of the PET matrix's task types,
    /// before anything changes; [`Gateway::try_push_arrival`] is the
    /// recoverable variant.
    pub fn push_arrival(&mut self, task: Task) -> Admission {
        let mut task = task;
        if let Some((tenant, reason)) = self.pre_admit(&mut task) {
            return Admission::Shed { tenant, reason };
        }
        self.push_admitted(task)
    }

    /// Fallible [`Gateway::push_arrival`]: an arrival the ladder
    /// rejects outright ([`ShedReason::Overload`]) surfaces as a typed
    /// [`RunError::Overloaded`] carrying the tenant and the
    /// configured back-off hint, so a live caller can push back on the
    /// submitting client. Quota and throttle sheds are normal
    /// degraded-mode operation and still return
    /// `Ok(`[`Admission::Shed`]`)`. A task of a type the PET matrix
    /// lacks is [`RunError::Stats`], before any tenant, reuse or
    /// routing table changes.
    pub fn try_push_arrival(
        &mut self,
        task: Task,
    ) -> Result<Admission, RunError> {
        StatsError::check_type(&task, self.shards[0].pet().n_task_types())?;
        let mut task = task;
        if let Some((tenant, reason)) = self.pre_admit(&mut task) {
            if reason == ShedReason::Overload {
                return Err(RunError::Overloaded {
                    tenant,
                    retry_after: self.retry_after(),
                });
            }
            return Ok(Admission::Shed { tenant, reason });
        }
        Ok(self.push_admitted(task))
    }

    /// The post-admission tail of [`Gateway::push_arrival`]: reuse
    /// gate, routing, shard delivery.
    fn push_admitted(&mut self, task: Task) -> Admission {
        match self.admit_route(task) {
            Admit::Fresh { shard, task } => {
                let internal = task.id;
                self.shards[shard].push_arrival(task);
                Admission::Routed { shard, internal }
            }
            Admit::Absorb {
                shard,
                primary,
                task,
                merged,
            } => {
                let internal = task.id;
                self.shards[shard].apply_piggyback(primary, task, merged);
                if merged {
                    Admission::Merged {
                        shard,
                        primary,
                        internal,
                    }
                } else {
                    Admission::Piggybacked {
                        shard,
                        primary,
                        internal,
                    }
                }
            }
        }
    }

    /// The admission half of [`Gateway::push_arrival`]: consults the
    /// reuse gate in global arrival order, then either records an
    /// absorption (compacting an internal id for the follower so its
    /// outcome has a dense slot) or routes via
    /// [`Gateway::route_only`] and registers the fresh task as a live
    /// primary. Does **not** touch any shard; the caller owes the
    /// target shard the matching `push_arrival`/`apply_piggyback` (the
    /// parallel driver delivers it through a mailbox instead of
    /// inline).
    pub(crate) fn admit_route(&mut self, task: Task) -> Admit {
        if let Some((shard, primary, merged)) = self.reuse.admit(&task) {
            let internal = self.compact.assign(shard, task.id);
            self.latest.insert(task.id.0, (shard as u32, internal));
            self.arrival_order.push(FedArrival {
                shard: shard as u32,
                internal,
                external: task.id,
            });
            let mut relabelled = task;
            relabelled.id = internal;
            return Admit::Absorb {
                shard,
                primary,
                task: relabelled,
                merged,
            };
        }
        let (shard, relabelled) = self.route_only(task);
        self.reuse.register(&task, shard, relabelled.id);
        Admit::Fresh {
            shard,
            task: relabelled,
        }
    }

    /// The routing half of [`Gateway::push_arrival`]: picks the shard,
    /// compacts the external id, and records the global arrival — but
    /// does **not** run the shard's mapping event. Returns the shard
    /// and the task relabelled with its internal id; the caller owes
    /// that shard a matching `push_arrival` of the relabelled task
    /// (the parallel driver delivers it through a mailbox instead of
    /// inline).
    pub(crate) fn route_only(&mut self, task: Task) -> (usize, Task) {
        let shard = self.pick_shard(&task);
        let internal = self.compact.assign(shard, task.id);
        self.latest.insert(task.id.0, (shard as u32, internal));
        self.arrival_order.push(FedArrival {
            shard: shard as u32,
            internal,
            external: task.id,
        });
        let mut relabelled = task;
        relabelled.id = internal;
        (shard, relabelled)
    }

    /// The routing decision alone: asks the policy for a shard (on live
    /// views) and remaps a quarantined pick to the next healthy shard.
    /// Advances the policy's own state (e.g. the round-robin cursor)
    /// and nothing else.
    fn pick_shard(&mut self, task: &Task) -> usize {
        // A single shard needs no routing decision at all — the
        // bit-identity-critical 1-shard path skips the policy (and its
        // view materialisation) entirely. Stateless policies skip only
        // the views: their cursor still advances identically.
        let shard = if self.shards.len() == 1 {
            0
        } else if self.policy.is_stateless() {
            self.policy.route_stateless(self.shards.len(), task)
        } else {
            // The views borrow the shards, so they cannot live in a
            // reused arena on `self`; one small shard-count-sized
            // allocation per arrival is the price of the borrow (noise
            // next to the mapping event it precedes).
            let views: Vec<ShardView<'_>> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    ShardView::new(i, s.view(), s.pending_batch_len())
                })
                .collect();
            self.policy.route(&views, task)
        };
        assert!(
            shard < self.shards.len(),
            "route policy {:?} returned shard {shard} of {}",
            self.policy.name(),
            self.shards.len(),
        );
        // Degraded mode: a quarantined shard accepts no new work. The
        // remap is deterministic (next healthy index clockwise), so a
        // degraded run stays replayable from the same seed and fault
        // plan. If every shard is quarantined the original pick
        // stands — the work is stranded either way.
        if self.quarantined[shard] {
            (1..self.shards.len())
                .map(|k| (shard + k) % self.shards.len())
                .find(|&s| !self.quarantined[s])
                .unwrap_or(shard)
        } else {
            shard
        }
    }

    /// Re-routes the batch backlog salvaged from quarantined shard
    /// `from` (tasks still carrying their `from`-internal ids). Each
    /// task closes its book on `from` (`Unfinished`), is routed by the
    /// same policy call a fresh arrival would get, takes a fresh dense
    /// id on its target and runs that shard's mapping event. It then
    /// re-points the task's existing [`FedArrival`] instead of
    /// appending one: a re-route is not an arrival, so the task counts
    /// once, under its live instance, and no arrival ordinal moves.
    /// Returns each target with the relabelled task, in salvage order,
    /// for the driver's journal.
    pub(crate) fn reroute_salvaged(
        &mut self,
        from: usize,
        tasks: Vec<Task>,
    ) -> Vec<(usize, Task)> {
        let mut entry_of: HashMap<u64, usize> = self
            .arrival_order
            .iter()
            .enumerate()
            .filter(|(_, a)| a.shard as usize == from)
            .map(|(gi, a)| (a.internal.0, gi))
            .collect();
        let mut rerouted = Vec::with_capacity(tasks.len());
        for task in tasks {
            self.shards[from].record_unfinished(&task);
            let external = self
                .compact
                .external(from, task.id)
                .expect("a queued task was assigned an internal id");
            let mut relabelled = task;
            relabelled.id = external;
            let shard = self.pick_shard(&relabelled);
            let internal = self.compact.assign(shard, external);
            relabelled.id = internal;
            let gi = entry_of
                .remove(&task.id.0)
                .expect("a queued task has an arrival record");
            let entry = &mut self.arrival_order[gi];
            entry.shard = shard as u32;
            entry.internal = internal;
            if self.latest.get(&external.0) == Some(&(from as u32, task.id)) {
                self.latest.insert(external.0, (shard as u32, internal));
            }
            self.shards[shard].push_arrival(relabelled);
            rerouted.push((shard, relabelled));
        }
        rerouted
    }

    /// Reports that `machine` on `shard` finished the task with the
    /// given *internal* id (as handed out via [`FedStart`]). Returns
    /// `false` for stale completions, exactly like
    /// [`SchedulerCore::complete`].
    pub fn complete(
        &mut self,
        shard: usize,
        machine: MachineId,
        internal: TaskId,
    ) -> bool {
        self.shards[shard].complete(machine, internal)
    }

    /// Where an external id currently lives: the `(shard, internal)`
    /// pair of its **latest** arrival (duplicated external ids shadow
    /// earlier occurrences). A caller that re-submitted an external id
    /// and still needs to reach the *superseded* instance cannot get
    /// there from here — hold the [`FedStart`] handles and use
    /// [`Gateway::complete_internal`] instead.
    pub fn resolve(&self, external: TaskId) -> Option<(usize, TaskId)> {
        self.latest.get(&external.0).map(|&(s, i)| (s as usize, i))
    }

    /// Completes an execution by its [`FedStart`] handle — the
    /// `(shard, machine, internal)` triple the gateway surfaced when
    /// the execution began. Unlike resolving by external id (which is
    /// latest-wins under duplicate external ids), this reaches **any**
    /// live instance, including one whose external id has since been
    /// re-submitted and shadowed. Returns `false` for stale
    /// completions, exactly like [`Gateway::complete`].
    pub fn complete_internal(&mut self, start: &FedStart) -> bool {
        self.complete(start.shard, start.machine.id, start.internal)
    }

    /// Fires a synthetic mapping event on one shard (the deferral
    /// safety net).
    pub fn wakeup(&mut self, shard: usize) {
        self.shards[shard].wakeup();
    }

    /// The soonest batch-queue deadline on `shard`, if any — drivers
    /// schedule the per-shard wakeup safety net just past it.
    pub fn earliest_pending_deadline(&self, shard: usize) -> Option<SimTime> {
        self.shards[shard].earliest_pending_deadline()
    }

    /// Drains every shard's decision stream (shard-index order, oldest
    /// first within a shard) with external ids restored.
    pub fn drain_decisions(&mut self) -> &[FedDecision] {
        self.decisions.clear();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for d in shard.drain_decisions() {
                self.decisions.push(FedDecision {
                    shard: i,
                    decision: relabel_decision(*d, |id| {
                        self.compact
                            .external(i, id)
                            .expect("decision about an id the shard was fed")
                    }),
                });
            }
        }
        &self.decisions
    }

    /// Drains every shard's pending execution starts (shard-index
    /// order). Each owes the gateway a [`Gateway::complete`].
    pub fn drain_starts(&mut self) -> &[FedStart] {
        self.starts.clear();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            for &Start { machine, task } in shard.drain_starts() {
                let mut external = task;
                external.id = self
                    .compact
                    .external(i, task.id)
                    .expect("start for an id the shard was fed");
                self.starts.push(FedStart {
                    shard: i,
                    machine,
                    task: external,
                    internal: task.id,
                });
            }
        }
        &self.starts
    }

    /// Captures the whole federation front-end into a sealed,
    /// versioned [`Snapshot`]: every shard's full (nested, itself
    /// sealed) core snapshot, the id compactor, the global arrival
    /// order, and the routing policy's plug-in state. The
    /// external-id index is rebuilt from the arrival order on restore,
    /// and the drain buffers are scratch — neither is serialized.
    pub fn snapshot(&self) -> Snapshot {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|s| s.snapshot().to_value())
            .collect();
        Snapshot::seal(
            "gateway",
            Value::Object(vec![
                ("shards".to_owned(), Value::Array(shards)),
                ("compact".to_owned(), self.compact.to_value()),
                ("arrival_order".to_owned(), self.arrival_order.to_value()),
                ("policy".to_owned(), self.policy.snapshot_state()),
                ("quarantined".to_owned(), self.quarantined.to_value()),
                ("reuse".to_owned(), self.reuse.state_value()),
                (
                    "tenants".to_owned(),
                    match &self.tenants {
                        None => Value::Null,
                        Some(t) => t.state_value(),
                    },
                ),
            ]),
        )
    }

    /// Restores state captured by [`Gateway::snapshot`] into this
    /// gateway, verifying the outer envelope **and** every nested
    /// per-shard envelope (defense in depth: a desynced or tampered
    /// shard payload cannot hide inside an intact outer hash). The
    /// gateway must have been built with the same shard count,
    /// configuration and plug-in types.
    ///
    /// # Errors
    /// Any [`SnapshotError`] — among them a
    /// [`SnapshotError::ShapeMismatch`] for a capture that routed on a
    /// stale view table or recorded batch-queue steals (see the
    /// [`crate::snapshot`] module docs). On error the gateway's state
    /// is unspecified and it should be discarded.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let payload = snap.verify()?.clone();
        let Value::Array(shard_snaps) = payload.get_field("shards")? else {
            return Err(SnapshotError::ShapeMismatch {
                what: "`shards` payload is not an array",
            });
        };
        if shard_snaps.len() != self.shards.len() {
            return Err(SnapshotError::ShapeMismatch {
                what: "snapshot shard count differs from this federation",
            });
        }
        for (core, wire) in self.shards.iter_mut().zip(shard_snaps) {
            let nested = Snapshot::from_value(wire)?;
            core.restore(&nested)?;
        }
        self.compact = IdCompactor::from_value(payload.get_field("compact")?)?;
        self.arrival_order =
            Vec::<FedArrival>::from_value(payload.get_field("arrival_order")?)?;
        self.policy.restore_state(payload.get_field("policy")?)?;
        // Pre-supervisor snapshots carry no quarantine vector; absent
        // means every shard was healthy when the capture was taken.
        self.quarantined = match payload.get_opt("quarantined") {
            Some(v) => {
                let q = Vec::<bool>::from_value(v)?;
                if q.len() != self.shards.len() {
                    return Err(SnapshotError::ShapeMismatch {
                        what: "quarantine vector length differs from \
                               this federation's shard count",
                    });
                }
                q
            }
            None => vec![false; self.shards.len()],
        };
        // Pre-reuse snapshots carry no gate state; absent means the
        // cache was empty (or the subsystem didn't exist) at capture.
        match payload.get_opt("reuse") {
            Some(state) => self.reuse.restore_value(state)?,
            None => self.reuse = ReuseGate::new(self.reuse.policy()),
        }
        // Older builds could route on a bounded-staleness view table
        // and steal batch-queue tails, capturing both as `stale` and
        // `steals`. A capture with neither in use restores as is; one
        // that used them would resume as a different federation here.
        if !matches!(payload.get_opt("stale"), None | Some(Value::Null)) {
            return Err(SnapshotError::ShapeMismatch {
                what: "snapshot routes on a stale view table, which this \
                       build does not have",
            });
        }
        if let Some(steals) = payload.get_opt("steals") {
            let Value::Object(counters) = steals else {
                return Err(SnapshotError::ShapeMismatch {
                    what: "`steals` payload is not an object",
                });
            };
            for (_, count) in counters {
                if u64::from_value(count)? != 0 {
                    return Err(SnapshotError::ShapeMismatch {
                        what: "snapshot records batch-queue steals, which \
                               this build does not have",
                    });
                }
            }
        }
        // Pre-tenancy snapshots carry no admission state; a
        // tenancy-enabled gateway restoring one starts from a fresh
        // table (and a tenancy-off gateway ignores the field).
        if let Some(table) = self.tenants.as_mut() {
            match payload.get_opt("tenants") {
                Some(Value::Null) | None => {
                    *table = TenantTable::new(table.policy().clone());
                }
                Some(v) => table.restore_value(v)?,
            }
        }
        // Replaying the arrival order front to back makes the latest
        // occurrence of each external id win — the live invariant.
        self.latest = self
            .arrival_order
            .iter()
            .map(|a| (a.external.0, (a.shard, a.internal)))
            .collect();
        self.decisions.clear();
        self.starts.clear();
        Ok(())
    }

    /// Finishes every shard and returns the federation's outcome
    /// record.
    pub fn finish(self) -> FederationStats {
        let mut reuse = ReuseStats::default();
        for shard in &self.shards {
            reuse.accumulate(&shard.reuse_stats());
        }
        let tenancy = self
            .tenant_counters()
            .map(|(lanes, per_tenant)| TenancyStats { lanes, per_tenant });
        FederationStats {
            per_shard: self
                .shards
                .into_iter()
                .map(SchedulerCore::finish)
                .collect(),
            arrivals: self.arrival_order,
            recovery: RecoveryLog::default(),
            reuse,
            tenancy,
        }
    }
}

impl<S: Sink> std::fmt::Debug for Gateway<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy.name())
            .field("arrivals", &self.arrival_order.len())
            .finish_non_exhaustive()
    }
}

/// Rewrites the task id inside a decision.
fn relabel_decision(
    d: Decision,
    mut f: impl FnMut(TaskId) -> TaskId,
) -> Decision {
    match d {
        Decision::Assign { task, machine } => Decision::Assign {
            task: f(task),
            machine,
        },
        Decision::DeferToBatch { task } => {
            Decision::DeferToBatch { task: f(task) }
        }
        Decision::DropReactive { task } => {
            Decision::DropReactive { task: f(task) }
        }
        Decision::DropProbabilistic { task } => {
            Decision::DropProbabilistic { task: f(task) }
        }
        Decision::Reject { task } => Decision::Reject { task: f(task) },
        Decision::CancelRunning { task } => {
            Decision::CancelRunning { task: f(task) }
        }
    }
}

// ---------------------------------------------------------------------
// Fan-in: the federation-level outcome record.
// ---------------------------------------------------------------------

/// The merged outcome record of a federated run: every shard's
/// [`SimStats`] plus the global arrival order that stitches them
/// together. All aggregate figures are deterministic folds in
/// shard-index or arrival order.
#[derive(Debug, Clone)]
pub struct FederationStats {
    /// Per-shard outcome records, in shard-index order (internal id
    /// spaces).
    pub per_shard: Vec<SimStats>,
    arrivals: Vec<FedArrival>,
    /// What the supervisor did during the run (empty when the run was
    /// unsupervised). Deliberately **excluded** from the serialized
    /// wire shape: the bit-identity tests compare supervised runs
    /// against fault-free ones on serialized stats, and the log
    /// records *how* the outcome was reached, not the outcome itself.
    pub(crate) recovery: RecoveryLog,
    /// Federation-wide reuse counters (exact hits, window merges,
    /// machine-ticks saved). Excluded from the wire shape for the same
    /// reason as the recovery log: serialized stats must stay
    /// bit-identical across reuse configurations.
    pub(crate) reuse: ReuseStats,
    /// Per-tenant admission counters, present when the gateway ran
    /// with a [`TenancyPolicy`]. Off the wire shape like the other
    /// observability channels — a quotas-off run must serialize
    /// byte-identically to a pre-tenancy gateway.
    pub(crate) tenancy: Option<TenancyStats>,
}

/// The wire shape is exactly the pre-supervisor `{per_shard,
/// arrivals}` derive. The recovery log is observability — read it via
/// [`FederationStats::recovery_log`] and serialize it on its own.
impl Serialize for FederationStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("per_shard".to_owned(), self.per_shard.to_value()),
            ("arrivals".to_owned(), self.arrivals.to_value()),
        ])
    }
}

impl Deserialize for FederationStats {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Self {
            per_shard: Vec::<SimStats>::from_value(v.get_field("per_shard")?)?,
            arrivals: Vec::<FedArrival>::from_value(v.get_field("arrivals")?)?,
            recovery: RecoveryLog::default(),
            reuse: ReuseStats::default(),
            tenancy: None,
        })
    }
}

impl FederationStats {
    /// Total arrivals across the federation.
    pub fn n_tasks(&self) -> usize {
        self.arrivals.len()
    }

    /// Every action the supervisor took during the run — checkpoints,
    /// fault detections, retries, replays, quarantines. Empty for
    /// unsupervised runs, and excluded from the serialized wire shape
    /// (serialize the log itself for durable audit trails).
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.recovery
    }

    /// Federation-wide reuse counters: exact-duplicate hits, window
    /// merges, and the machine-ticks absorbed followers did not
    /// consume. All zero when [`ReusePolicy::Off`] (or when the stats
    /// were deserialized — like the recovery log, reuse counters are
    /// observability and stay off the serialized wire shape).
    pub fn reuse_stats(&self) -> ReuseStats {
        self.reuse
    }

    /// Per-tenant admission counters: `None` for tenancy-off runs and
    /// after deserialization (off the wire shape, like the recovery
    /// log).
    pub fn tenancy_stats(&self) -> Option<&TenancyStats> {
        self.tenancy.as_ref()
    }

    /// Splits the run into per-tenant [`TenantSlice`]s — each lane's
    /// admission counters plus its admitted arrivals' `(global index,
    /// outcome)` pairs in global arrival order. `None` when the run
    /// had no tenancy layer (or the stats were deserialized). The SLA
    /// isolation contract compares these slices serialized, tenant by
    /// tenant.
    pub fn tenant_slices(&self) -> Option<Vec<TenantSlice>> {
        let tenancy = self.tenancy.as_ref()?;
        let lanes = tenancy.lanes.max(1);
        let mut slices: Vec<TenantSlice> = (0..lanes)
            .map(|t| TenantSlice {
                tenant: t,
                counters: tenancy
                    .per_tenant
                    .get(t as usize)
                    .copied()
                    .unwrap_or_default(),
                outcomes: Vec::new(),
            })
            .collect();
        for (gi, a) in self.arrivals.iter().enumerate() {
            let lane = (a.external.0 % lanes) as usize;
            slices[lane].outcomes.push((gi as u64, self.outcome_at(gi)));
        }
        Some(slices)
    }

    /// The global arrival sequence (routing + id assignments).
    pub fn arrivals(&self) -> &[FedArrival] {
        &self.arrivals
    }

    /// The outcome of an arrival by global arrival index.
    pub fn outcome_at(&self, arrival_idx: usize) -> Option<TaskOutcome> {
        let a = self.arrivals.get(arrival_idx)?;
        self.per_shard[a.shard as usize].outcome(a.internal)
    }

    /// The outcome of an external id's **latest** arrival.
    pub fn outcome(&self, external: TaskId) -> Option<TaskOutcome> {
        let a = self
            .arrivals
            .iter()
            .rev()
            .find(|a| a.external == external)?;
        self.per_shard[a.shard as usize].outcome(a.internal)
    }

    /// Federation-wide count of one outcome.
    pub fn count(&self, outcome: TaskOutcome) -> usize {
        self.per_shard.iter().map(|s| s.count(outcome)).sum()
    }

    /// Federation-wide arrived-but-unresolved count (0 after a clean
    /// drain).
    pub fn unreported(&self) -> usize {
        self.per_shard.iter().map(SimStats::unreported).sum()
    }

    /// Total mapping events across the shards.
    pub fn mapping_events(&self) -> u64 {
        self.per_shard.iter().map(|s| s.mapping_events).sum()
    }

    /// Total deferral decisions across the shards.
    pub fn deferrals(&self) -> u64 {
        self.per_shard.iter().map(|s| s.deferrals).sum()
    }

    /// Federated robustness: % of tasks on time after trimming the
    /// first and last `trim` arrivals **in global arrival order** —
    /// the same §V-B protocol the single-cluster metric uses, applied
    /// at federation granularity.
    pub fn robustness_pct(&self, trim: usize) -> f64 {
        let n = self.arrivals.len();
        if n <= 2 * trim {
            return 0.0;
        }
        let window = &self.arrivals[trim..n - trim];
        let on_time = window
            .iter()
            .filter(|a| {
                matches!(
                    self.per_shard[a.shard as usize].outcome(a.internal),
                    Some(TaskOutcome::CompletedOnTime)
                )
            })
            .count();
        100.0 * on_time as f64 / window.len() as f64
    }

    /// Robustness with the paper's trim of 100 tasks per end.
    pub fn paper_robustness_pct(&self) -> f64 {
        self.robustness_pct(crate::stats::PAPER_TRIM)
    }

    /// Fraction of executed machine time wasted, federation-wide.
    pub fn wasted_fraction(&self) -> f64 {
        let useful: u64 = self.per_shard.iter().map(|s| s.useful_ticks).sum();
        let wasted: u64 = self.per_shard.iter().map(|s| s.wasted_ticks).sum();
        if useful + wasted == 0 {
            0.0
        } else {
            wasted as f64 / (useful + wasted) as f64
        }
    }

    /// Instant the last shard finished draining.
    pub fn end_time(&self) -> SimTime {
        self.per_shard
            .iter()
            .map(|s| s.end_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Deterministically merges the shards into one [`SimStats`] keyed
    /// by **global arrival index** (dense by construction): outcomes
    /// and per-type counters replay in arrival order, tick/event
    /// counters fold in shard-index order. The merged record drops
    /// per-shard traces (they live in
    /// [`FederationStats::per_shard`]).
    pub fn merged(&self) -> SimStats {
        let n_types = self.per_shard.iter().map(|s| s.per_type().len()).max();
        let mut merged = SimStats::new(0, n_types.unwrap_or(0));
        for (gi, a) in self.arrivals.iter().enumerate() {
            let shard = &self.per_shard[a.shard as usize];
            let ty = shard.task_type(a.internal).unwrap_or(TaskTypeId(0));
            let t = Task::new(gi as u64, ty, SimTime::ZERO, SimTime::ZERO);
            merged.record_arrival(&t);
            if let Some(outcome) = shard.outcome(a.internal) {
                merged.record_outcome(&t, outcome);
            }
        }
        for s in &self.per_shard {
            merged.record_execution(s.useful_ticks, true);
            merged.record_execution(s.wasted_ticks, false);
            merged.mapping_events =
                merged.mapping_events.saturating_add(s.mapping_events);
            merged.deferrals = merged.deferrals.saturating_add(s.deferrals);
        }
        merged.end_time = self.end_time();
        merged
    }
}

// ---------------------------------------------------------------------
// Builder.
// ---------------------------------------------------------------------

type StrategyFn<'a> = Box<dyn FnMut(usize) -> MappingStrategy + 'a>;
type PrunerFn<'a> = Box<dyn FnMut(usize) -> Box<dyn Pruner> + 'a>;

/// Fluent, validated construction of a [`Gateway`] or a
/// [`FederatedEngine`].
///
/// Every shard is a full paper-system instance over the *same* cluster
/// shape and PET matrix; the heuristic and pruner are supplied as
/// per-shard factories (strategies are stateful and not clonable).
/// Shard 0 samples execution durations from the configured seed's
/// stream, so a single-cluster run (one shard) depends on that seed
/// alone; shard `i > 0` derives an independent stream from it.
pub struct GatewayBuilder<'a, S: Sink = NullSink> {
    cluster: Cluster,
    pet: &'a PetMatrix,
    truth: Option<&'a PetMatrix>,
    cfg: SimConfig,
    n_shards: usize,
    threads: Option<usize>,
    policy: Option<Box<dyn RoutePolicy>>,
    strategy_fn: Option<StrategyFn<'a>>,
    pruner_fn: Option<PrunerFn<'a>>,
    sink_fn: Box<dyn FnMut(usize) -> S + 'a>,
    reuse: ReusePolicy,
    tenancy: Option<TenancyPolicy>,
}

impl<'a> GatewayBuilder<'a, NullSink> {
    /// Starts a builder over the per-shard cluster shape and (belief)
    /// PET matrix. Defaults: one shard, batch-mode paper parameters,
    /// round-robin routing, no pruning, [`NullSink`] observability.
    pub fn new(cluster: &Cluster, pet: &'a PetMatrix) -> Self {
        Self {
            cluster: cluster.clone(),
            pet,
            truth: None,
            cfg: SimConfig::batch(0),
            n_shards: 1,
            threads: None,
            policy: None,
            strategy_fn: None,
            pruner_fn: None,
            sink_fn: Box::new(|_| NullSink),
            reuse: ReusePolicy::Off,
            tenancy: None,
        }
    }
}

impl<'a, S: Sink> GatewayBuilder<'a, S> {
    /// Sets the per-shard simulation parameters (mode, capacity,
    /// horizon, seed, …).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the number of shards.
    pub fn shards(mut self, n: usize) -> Self {
        self.n_shards = n;
        self
    }

    /// Sets the worker-thread count of
    /// [`GatewayBuilder::build_parallel`]'s executor (clamped to ≥ 1;
    /// 1 runs every shard inline on the caller). Default: the
    /// `TASKPRUNE_THREADS` environment variable, else all hardware
    /// threads. Ignored by the single-threaded [`GatewayBuilder::build`]
    /// driver — and so by supervised runs: [`crate::Supervisor`] wraps
    /// the serial driver only.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Installs the routing policy (default: [`RoundRobinRoute`]).
    pub fn policy(mut self, policy: impl RoutePolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Installs an already-boxed routing policy.
    pub fn policy_boxed(mut self, policy: Box<dyn RoutePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Installs the per-shard mapping-heuristic factory (called once
    /// per shard index). Required.
    pub fn strategy_with(
        mut self,
        f: impl FnMut(usize) -> MappingStrategy + 'a,
    ) -> Self {
        self.strategy_fn = Some(Box::new(f));
        self
    }

    /// Installs the per-shard pruning-policy factory (default: no
    /// pruning).
    pub fn pruner_with(
        mut self,
        f: impl FnMut(usize) -> Box<dyn Pruner> + 'a,
    ) -> Self {
        self.pruner_fn = Some(Box::new(f));
        self
    }

    /// Sets the gateway's function-reuse policy: whether (and how
    /// aggressively) arrivals absorb onto in-flight primaries instead
    /// of executing individually. Default: [`ReusePolicy::Off`], which
    /// is bit-identical to a gateway without the subsystem.
    pub fn reuse(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        self
    }

    /// Installs the multi-tenant admission policy: per-tenant quotas,
    /// SLA classes and (when the policy carries a
    /// [`crate::LadderConfig`]) the overload degradation ladder.
    /// Default: no tenancy — every arrival is admitted untouched, and
    /// the gateway is bit-identical to a pre-tenancy build. A policy
    /// with all-[`crate::SlaClass::Standard`] tenants, no quotas, and
    /// no ladder admits everything too, and
    /// `tests/tenant_isolation.rs` pins that its serialized stats stay
    /// byte-identical to the tenancy-off gateway.
    pub fn tenancy(mut self, policy: TenancyPolicy) -> Self {
        self.tenancy = Some(policy);
        self
    }

    /// Separates the shards' *belief* from ground truth: estimates use
    /// the matrix given to [`GatewayBuilder::new`], while the drivers
    /// sample actual execution durations from `truth`. Used to study
    /// how robust pruning is to execution-time model error. The two
    /// must agree on shape and bin width
    /// ([`ConfigError::BeliefTruthMismatch`]).
    pub fn truth(mut self, truth: &'a PetMatrix) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Replaces the per-shard observability sink factory (default:
    /// [`NullSink`] everywhere).
    pub fn sink_with<T: Sink>(
        self,
        f: impl FnMut(usize) -> T + 'a,
    ) -> GatewayBuilder<'a, T> {
        GatewayBuilder {
            cluster: self.cluster,
            pet: self.pet,
            truth: self.truth,
            cfg: self.cfg,
            n_shards: self.n_shards,
            threads: self.threads,
            policy: self.policy,
            strategy_fn: self.strategy_fn,
            pruner_fn: self.pruner_fn,
            sink_fn: Box::new(f),
            reuse: self.reuse,
            tenancy: self.tenancy,
        }
    }

    /// The execution-sampling seed shard `i` runs under: shard 0 keeps
    /// the configured seed, later shards derive decorrelated streams.
    pub fn shard_seed(base: u64, shard: usize) -> u64 {
        if shard == 0 {
            base
        } else {
            derive_seed(base, shard as u64)
        }
    }

    /// Checks that a separate ground-truth matrix indexes like the
    /// belief: same machine types, task types and bin width.
    fn validate_truth(&self) -> Result<(), ConfigError> {
        let Some(truth) = self.truth else {
            return Ok(());
        };
        let what = if self.pet.n_machine_types() != truth.n_machine_types() {
            "machine types"
        } else if self.pet.n_task_types() != truth.n_task_types() {
            "task types"
        } else if self.pet.bin_spec() != truth.bin_spec() {
            "bin width"
        } else {
            return Ok(());
        };
        Err(ConfigError::BeliefTruthMismatch { what })
    }

    /// Builds the bare [`Gateway`] for streaming callers.
    pub fn build_gateway(mut self) -> Result<Gateway<'a, S>, ConfigError> {
        if self.n_shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        let Some(mut strategy_fn) = self.strategy_fn.take() else {
            return Err(ConfigError::MissingStrategy);
        };
        let mut shards = Vec::with_capacity(self.n_shards);
        for i in 0..self.n_shards {
            let mut cfg = self.cfg;
            cfg.seed = Self::shard_seed(self.cfg.seed, i);
            let mut b = crate::SchedulerBuilder::new(&self.cluster, self.pet)
                .config(cfg)
                .strategy(strategy_fn(i));
            if let Some(pruner_fn) = self.pruner_fn.as_mut() {
                b = b.pruner_boxed(pruner_fn(i));
            }
            shards.push(b.sink((self.sink_fn)(i)).build_core()?);
        }
        self.validate_truth()?;
        if self.reuse.is_enabled() {
            for core in &mut shards {
                core.set_reuse_active(true);
            }
        }
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(RoundRobinRoute::new()));
        Ok(Gateway::from_parts(
            shards,
            policy,
            ReuseGate::new(self.reuse),
            self.tenancy,
        ))
    }

    /// Builds the federated discrete-event driver (the gateway plus one
    /// event lane per shard, each sampling ground-truth durations from
    /// the shard's own stream).
    pub fn build(self) -> Result<FederatedEngine<'a, S>, ConfigError> {
        let truth = self.truth.unwrap_or(self.pet);
        let gateway = self.build_gateway()?;
        let lanes = gateway
            .shards()
            .iter()
            .map(|s| Lane::new(s.config().seed))
            .collect();
        let n = gateway.n_shards();
        Ok(FederatedEngine {
            gateway,
            truth,
            lanes,
            journals: None,
            arrivals_ingested: 0,
            injector: None,
            notices: Vec::new(),
            undelivered: vec![0; n],
        })
    }

    /// Builds the **parallel** federated driver: the same gateway, but
    /// each shard's event loop runs on a work-stealing pool of
    /// [`GatewayBuilder::threads`] threads, bit-identical to
    /// [`GatewayBuilder::build`] at any thread count (see
    /// [`crate::ParallelFederatedEngine`]).
    ///
    /// # Errors
    /// Everything [`GatewayBuilder::build`] rejects, and
    /// [`ConfigError::ParallelNeedsStatelessRoute`] for more than one
    /// shard behind a policy that reads shard state.
    pub fn build_parallel(
        self,
    ) -> Result<crate::ParallelFederatedEngine<'a, S>, ConfigError> {
        if let Some(policy) = &self.policy {
            if self.n_shards > 1 && !policy.is_stateless() {
                return Err(ConfigError::ParallelNeedsStatelessRoute {
                    policy: policy.name().to_owned(),
                });
            }
        }
        let truth = self.truth;
        let pet = self.pet;
        let threads = self.threads;
        let gateway = self.build_gateway()?;
        Ok(crate::ParallelFederatedEngine::from_gateway(
            gateway,
            truth.unwrap_or(pet),
            threads,
        ))
    }
}

// ---------------------------------------------------------------------
// The federated discrete-event driver.
// ---------------------------------------------------------------------

/// One pending event of the federated timeline, as the coordinator
/// snapshot records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct FedEvent {
    time: SimTime,
    shard: usize,
    kind: EventKind,
}

/// Why [`FederatedEngine::drive`] returned control to its caller.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DriveSignal {
    /// Stream and lanes are both empty: the run is over.
    Exhausted,
    /// The requested arrival watermark was reached (non-destructive
    /// pause).
    Watermark,
    /// An injected fault fired and needs a recovery decision **now**,
    /// at the fault instant — deferring it would let the loop consume
    /// truth-RNG draws in a different order than the fault-free run
    /// and break bit-identity after recovery.
    Fault(FaultReport),
}

/// An injected fault, as the event loop observed it. Handed to the
/// [`crate::Supervisor`] (or resolved destructively when no
/// supervisor is attached).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultReport {
    /// The shard the fault struck.
    pub shard: usize,
    /// What kind of fault fired.
    pub kind: FaultKind,
    /// Simulation time at the fault instant.
    pub time: SimTime,
    /// The undelivered completion, for lost/delayed/duplicated
    /// deliveries (`None` for crashes).
    pub op: Option<(MachineId, TaskId)>,
}

/// The bundled simulation driver: merges one arrival stream with one
/// event lane per shard, stepping the lanes in global event order and
/// sampling each shard's ground-truth durations from its own
/// decorrelated RNG stream. A single-cluster run is its one-shard
/// case.
pub struct FederatedEngine<'a, S: Sink = NullSink> {
    gateway: Gateway<'a, S>,
    truth: &'a PetMatrix,
    lanes: Vec<Lane>,
    /// Per-shard operation journals since the last checkpoint
    /// (crash-failover; opt-in via
    /// [`FederatedEngine::enable_journal`]).
    journals: Option<Vec<ShardJournal>>,
    /// Arrivals ingested so far — the watermark
    /// [`FederatedEngine::run_until`] pauses against.
    arrivals_ingested: u64,
    /// Deterministic fault injection, armed via
    /// [`FederatedEngine::arm_faults`].
    injector: Option<FaultInjector>,
    /// Faults that resolved inline without pausing the loop (duplicate
    /// deliveries suppressed by the staleness dedupe); the supervisor
    /// drains these into its [`RecoveryLog`].
    notices: Vec<FaultReport>,
    /// Journaled completions per shard that a lost or delayed delivery
    /// kept from the shard since its last checkpoint or recovery — the
    /// journal gap. Positive at a quiescent watermark means a recorded
    /// operation never reached the shard.
    undelivered: Vec<u64>,
}

impl<'a, S: Sink> FederatedEngine<'a, S> {
    /// Number of shards being driven.
    pub fn n_shards(&self) -> usize {
        self.gateway.n_shards()
    }

    /// Consumes an arrival stream ordered by non-decreasing
    /// `task.arrival` — external ids may be sparse, out of order or
    /// duplicated — routes every task through the gateway, and drains
    /// all shards after the last arrival.
    ///
    /// # Panics
    /// On an arrival whose type is not one of the PET matrix's task
    /// types, before it changes any table (see
    /// [`Gateway::push_arrival`]).
    pub fn run_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        let mut source = arrivals.into_iter().peekable();
        self.drive_unsupervised(&mut source, None);
        self.gateway.finish()
    }

    /// Drives the event loop until `watermark` arrivals (total, since
    /// construction) have been ingested, then pauses. Pausing is
    /// non-destructive: the engine holds its lanes, clocks and RNG
    /// streams, so continuing with
    /// [`FederatedEngine::finish_stream`] on the *same* source
    /// replays exactly the call sequence an uninterrupted
    /// [`FederatedEngine::run_stream`] would have made. The pause
    /// point is where checkpoints happen: checkpoint shards, capture
    /// the coordinator, or verify the gateway state hash.
    pub fn run_until<I>(&mut self, source: &mut Peekable<I>, watermark: u64)
    where
        I: Iterator<Item = Task>,
    {
        self.drive_unsupervised(source, Some(watermark));
    }

    /// Consumes the rest of a stream a [`FederatedEngine::run_until`]
    /// paused on, drains all shards, and returns the federation's
    /// outcome record.
    pub fn finish_stream<I>(
        mut self,
        source: &mut Peekable<I>,
    ) -> FederationStats
    where
        I: Iterator<Item = Task>,
    {
        self.drive_unsupervised(source, None);
        self.gateway.finish()
    }

    /// Drives without a supervisor: injected faults stand unrepaired.
    /// A lost delivery stays lost (the affected machine never frees,
    /// its unfinished work surfaces as `Unfinished` at the drain) and
    /// a crashed shard keeps running from wiped state — state never
    /// corrupts, robustness degrades. Attach a [`crate::Supervisor`]
    /// to heal instead.
    fn drive_unsupervised<I>(
        &mut self,
        source: &mut Peekable<I>,
        pause_after: Option<u64>,
    ) where
        I: Iterator<Item = Task>,
    {
        loop {
            match self.drive(source, pause_after) {
                DriveSignal::Exhausted | DriveSignal::Watermark => return,
                DriveSignal::Fault(report) => {
                    let more = source.peek().is_some();
                    self.resolve_fault(&report, false, more);
                }
            }
        }
    }

    /// The event loop shared by all drivers: interleaves the arrival
    /// stream with the shard lanes' events, optionally pausing once
    /// `pause_after` arrivals have been ingested, and surfacing
    /// injected faults to the caller at the exact instant they fire.
    pub(crate) fn drive<I>(
        &mut self,
        source: &mut Peekable<I>,
        pause_after: Option<u64>,
    ) -> DriveSignal
    where
        I: Iterator<Item = Task>,
    {
        loop {
            if pause_after.is_some_and(|w| self.arrivals_ingested >= w) {
                return DriveSignal::Watermark;
            }
            let next = self.next_lane();
            let due = match (next, source.peek()) {
                (None, None) => return DriveSignal::Exhausted,
                (Some(shard), None) => Some(shard),
                (None, Some(_)) => None,
                (Some(shard), Some(task)) => {
                    self.lanes[shard].has_due(task.arrival).then_some(shard)
                }
            };
            let mut crashed: Option<usize> = None;
            if let Some(shard) = due {
                let (time, op) = self.lanes[shard].pop().expect("peeked above");
                if self.gateway.is_quarantined(shard) {
                    // A quarantined shard's hardware is gone: in-flight
                    // completions and wakeups for it vanish unseen.
                    continue;
                }
                self.gateway.advance_to(time);
                // Journal before the staleness check: a stale
                // completion is rejected deterministically on replay
                // too, so recording it keeps the replay an exact
                // re-run. It also lands *before* the injector — a lost
                // delivery is lost by the transport after the
                // coordinator durably recorded it, which is exactly
                // what lets recovery redeliver it.
                self.record(shard, time, op);
                if let JournalOp::Completion { machine, task } = op {
                    let report = |kind| FaultReport {
                        shard,
                        kind,
                        time,
                        op: Some((machine, task)),
                    };
                    match self
                        .injector
                        .as_mut()
                        .and_then(|i| i.on_completion_delivery(shard))
                        .map(|f| f.kind)
                    {
                        Some(
                            kind @ (FaultKind::LostCompletion
                            | FaultKind::DelayedCompletion),
                        ) => {
                            self.undelivered[shard] += 1;
                            return DriveSignal::Fault(report(kind));
                        }
                        // The duplicated copy is rejected by the
                        // staleness dedupe (a task executes at most
                        // once per internal id), so the first copy
                        // applies below and nothing needs healing —
                        // but the supervisor logs the suppression.
                        Some(kind @ FaultKind::DuplicateCompletion) => {
                            self.notices.push(report(kind));
                        }
                        _ => {}
                    }
                }
                if !op.apply(&mut self.gateway.shards_mut()[shard]) {
                    continue; // stale after a cancellation
                }
            } else {
                let mut task = source.next().expect("peeked above");
                // Admission control runs *before* every per-arrival
                // side effect (clock advance, watermark): a shed task
                // is invisible to every coordinate of the run, which
                // is exactly what makes the SLA-isolation contract
                // hold — and what keeps the serial and parallel
                // drivers bit-identical, since both evaluate the same
                // verdict from arrival-visible data alone in global
                // arrival order.
                if self.gateway.pre_admit(&mut task).is_some() {
                    continue;
                }
                let at = task.arrival.max(self.gateway.now());
                self.gateway.advance_to(at);
                // Journal before delivery, like completions: a
                // recovered shard replays an absorption too, rebuilding
                // its follower ledger exactly.
                let (shard, op) = self.gateway.admit_route(task).into_op();
                self.record(shard, at, op);
                op.apply(&mut self.gateway.shards_mut()[shard]);
                self.arrivals_ingested += 1;
                if self
                    .injector
                    .as_mut()
                    .is_some_and(|i| i.on_arrival_delivered(shard))
                {
                    crashed = Some(shard);
                }
            }
            self.settle();
            self.maybe_schedule_wakeups(source.peek().is_some());
            if let Some(shard) = crashed {
                // The crash strikes after the arrival's mapping round
                // fully committed (starts dispatched, wakeups
                // scheduled): the surviving lanes already hold the
                // round's consequences, which is exactly the failure
                // model `recover_shard` replays against.
                let time = self.gateway.now();
                self.gateway.shards_mut()[shard].wipe();
                return DriveSignal::Fault(FaultReport {
                    shard,
                    kind: FaultKind::ShardCrash,
                    time,
                    op: None,
                });
            }
        }
    }

    /// Turns on per-shard operation journaling: every arrival,
    /// completion and wakeup applied to a shard is recorded so
    /// [`FederatedEngine::recover_shard`] can replay the shard from
    /// its last [`FederatedEngine::checkpoint`]. Idempotent.
    pub fn enable_journal(&mut self) {
        if self.journals.is_none() {
            self.journals =
                Some(vec![ShardJournal::new(); self.gateway.n_shards()]);
        }
    }

    /// Arrivals ingested since construction — the watermark coordinate
    /// [`FederatedEngine::run_until`] pauses against.
    pub fn arrivals_ingested(&self) -> u64 {
        self.arrivals_ingested
    }

    /// Summed batch-queue depth across healthy (non-quarantined)
    /// shards — the overload ladder's pressure signal. Sensed at
    /// quiescent watermark pauses so both drivers read it at the same
    /// deterministic coordinate.
    pub fn overload_pressure(&self) -> usize {
        self.gateway
            .shards()
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.gateway.is_quarantined(*i))
            .map(|(_, s)| s.pending_batch_len())
            .sum()
    }

    /// One shard's operation journal (empty unless
    /// [`FederatedEngine::enable_journal`] was called).
    pub fn journal(&self, shard: usize) -> &ShardJournal {
        self.journals
            .as_ref()
            .map_or(ShardJournal::EMPTY, |j| &j[shard])
    }

    /// Checkpoints one shard: captures its sealed core [`Snapshot`]
    /// and clears the shard's journal (the snapshot supersedes the
    /// logged prefix). Call at a paused watermark —
    /// [`FederatedEngine::run_until`] — so the capture is
    /// quiescent.
    ///
    /// Cost: the shard's whole state, rendered and hashed: the live
    /// state (queues, batch queue, parked followers, the completed
    /// primaries a follower can still reach) and the whole outcome
    /// record, so a sealed checkpoint grows with the run. A
    /// [`crate::Supervisor`] keeps its checkpoints unsealed instead,
    /// as copies that cost the live state plus the outcome records
    /// resolved since the shard's previous copy, and seals one only to
    /// restore it.
    pub fn checkpoint(&mut self, shard: usize) -> Snapshot {
        self.capture(shard).seal()
    }

    /// [`FederatedEngine::checkpoint`] without the seal: copies the
    /// shard's durable state and clears its journal. Sealing the
    /// capture, however much later, gives the checkpoint's snapshot.
    pub(crate) fn capture(&mut self, shard: usize) -> CoreCapture {
        let capture = self.gateway.shards()[shard].capture();
        if let Some(journals) = &mut self.journals {
            journals[shard].clear();
        }
        self.undelivered[shard] = 0;
        capture
    }

    /// Crash-failover: rebuilds shard `shard` from its last
    /// [`FederatedEngine::checkpoint`] plus the journal recorded since
    /// — modelling a shard whose in-memory state died while the
    /// coordinator (event lanes, RNG streams, the other shards)
    /// survived. The journal replay re-applies every operation the
    /// shard saw since the checkpoint; the starts it re-emits are
    /// discarded because the surviving lane already holds their
    /// completions. Requires [`FederatedEngine::enable_journal`].
    ///
    /// # Errors
    /// [`RunError::RecoveryUnavailable`] when journaling was never
    /// enabled (there is nothing to replay from, so "recovery" would
    /// silently lose operations), or any [`SnapshotError`] from the
    /// envelope or payload — on the latter the shard is unusable and
    /// the engine should be discarded. A checkpoint whose clock is
    /// ahead of the first operation journaled since, or of the
    /// federation clock, is a [`SnapshotError::ShapeMismatch`] (no
    /// checkpoint of this shard can be) and leaves the shard wiped, as
    /// a crash does.
    pub fn recover_shard(
        &mut self,
        shard: usize,
        snap: &Snapshot,
    ) -> Result<(), RunError> {
        let Some(journals) = self.journals.as_ref() else {
            return Err(RunError::RecoveryUnavailable);
        };
        let journal = journals[shard].entries();
        // The federation clock is lockstep under this serial driver;
        // capture it before the restore rewinds the shard. A crash
        // wipe leaves it standing on every other shard, and a lone
        // shard's last journaled operation keeps it.
        let now = journal
            .last()
            .map_or(SimTime::ZERO, |e| e.time)
            .max(self.gateway.now());
        let core = &mut self.gateway.shards_mut()[shard];
        core.restore(snap).map_err(RunError::Snapshot)?;
        if core.now() > journal.first().map_or(now, |e| e.time) {
            // Back to the crashed state: a clock left this far ahead
            // would become the federation's.
            core.wipe();
            return Err(RunError::Snapshot(SnapshotError::ShapeMismatch {
                what: "the checkpoint's clock is ahead of its journal or \
                       of the federation",
            }));
        }
        journals[shard].replay(core);
        if core.now() < now {
            core.advance_to(now);
        }
        // Replay delivered every journaled op to the shard: gap zero.
        self.undelivered[shard] = 0;
        Ok(())
    }

    /// Arms deterministic fault injection: the plan's events fire at
    /// their per-shard delivery counts as the run proceeds. Injection
    /// draws nothing from the truth RNG streams, so an armed engine
    /// whose faults are all healed is bit-identical to an unarmed one.
    /// Rearming replaces any previous plan and resets its counters.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        let n = self.gateway.n_shards();
        self.injector = Some(FaultInjector::new(plan, n));
    }

    /// Drains the faults that resolved inline without pausing the loop
    /// (duplicate deliveries the staleness dedupe suppressed).
    pub(crate) fn take_notices(&mut self) -> Vec<FaultReport> {
        std::mem::take(&mut self.notices)
    }

    /// Settles a fault [`FederatedEngine::drive`] returned, at the
    /// fault instant. `redeliver` replays a lost/delayed completion
    /// from its journal record (mirroring the fault-free delivery
    /// exactly, including the silent no-op for a stale completion);
    /// `false` abandons it — the degraded path. Crashes carry no op to
    /// redeliver; their recovery is [`FederatedEngine::recover_shard`]
    /// or [`FederatedEngine::quarantine_shard`].
    pub(crate) fn resolve_fault(
        &mut self,
        report: &FaultReport,
        redeliver: bool,
        more_arrivals: bool,
    ) {
        if !redeliver {
            return;
        }
        let Some((machine, task)) = report.op else {
            return;
        };
        self.undelivered[report.shard] -= 1;
        let op = JournalOp::Completion { machine, task };
        if op.apply(&mut self.gateway.shards_mut()[report.shard]) {
            self.settle();
            self.maybe_schedule_wakeups(more_arrivals);
        }
    }

    /// Degrades the federation: takes `shard` out of rotation, salvages
    /// its still-unmapped batch-queue backlog, and re-routes those
    /// tasks to healthy shards, each keeping its one arrival record
    /// (see [`Gateway::reroute_salvaged`]). Returns how many tasks were
    /// re-routed. In-flight events for the shard are discarded from its
    /// lane as they surface; future arrivals remap deterministically
    /// around it. Crate-internal: the
    /// [`crate::Supervisor`] quarantines only after exhausting a
    /// shard's recovery budget.
    pub(crate) fn quarantine_shard(
        &mut self,
        shard: usize,
        more_arrivals: bool,
    ) -> u64 {
        let stranded = self.gateway.shards_mut()[shard].drain_batch_queue();
        self.gateway.set_quarantined(shard);
        let now = self.gateway.now();
        // Not an external-stream arrival: `arrivals_ingested` and the
        // injector's coordinates must not move — the re-route is the
        // supervisor's doing, not the workload's.
        let rerouted = self.gateway.reroute_salvaged(shard, stranded);
        for &(target, relabelled) in &rerouted {
            self.record(target, now, JournalOp::Arrival(relabelled));
        }
        self.settle();
        self.maybe_schedule_wakeups(more_arrivals);
        rerouted.len() as u64
    }

    /// Tightens the pruning threshold on every healthy shard — the
    /// degraded-mode load shed that accompanies a quarantine (see
    /// [`crate::Pruner::tighten_threshold`]).
    pub(crate) fn tighten_healthy_pruners(&mut self, factor: f64) {
        for shard in 0..self.gateway.n_shards() {
            if !self.gateway.is_quarantined(shard) {
                self.gateway.shards_mut()[shard].tighten_pruner(factor);
            }
        }
    }

    /// Whether the injector makes shard `shard`'s next checkpoint
    /// attempt fail (transient storage fault).
    pub(crate) fn checkpoint_attempt_fails(&mut self, shard: usize) -> bool {
        self.injector
            .as_mut()
            .is_some_and(|i| i.on_checkpoint_attempt(shard))
    }

    /// Whether the injector makes shard `shard`'s next recovery
    /// attempt fail (transient restore fault).
    pub(crate) fn recovery_attempt_fails(&mut self, shard: usize) -> bool {
        self.injector
            .as_mut()
            .is_some_and(|i| i.on_recovery_attempt(shard))
    }

    /// Journaled-but-undelivered operations on `shard` since its last
    /// checkpoint. Zero in healthy operation; positive exactly while a
    /// lost/delayed completion remains unredelivered. Always zero with
    /// journaling off (there is nothing to compare).
    pub(crate) fn journal_gap(&self, shard: usize) -> u64 {
        self.journals
            .as_ref()
            .map_or(0, |_| self.undelivered[shard])
    }

    /// The federation clock (see [`Gateway::now`]).
    pub fn now(&self) -> SimTime {
        self.gateway.now()
    }

    /// Read access to the gateway for the supervisor's health checks.
    pub(crate) fn gateway_ref(&self) -> &Gateway<'a, S> {
        &self.gateway
    }

    /// Write access to the gateway for the supervisor's ladder ticks.
    pub(crate) fn gateway_mut(&mut self) -> &mut Gateway<'a, S> {
        &mut self.gateway
    }

    /// Finishes the run from the supervisor's pump loop (the owned
    /// equivalent of the tail of [`FederatedEngine::finish_stream`]).
    pub(crate) fn finish_now(self) -> FederationStats {
        self.gateway.finish()
    }

    /// Captures the **coordinator** state — every lane's pending events,
    /// truth-RNG stream and wakeup flag, driver counters, journals and
    /// armed fault plan — together with the full nested
    /// [`Gateway::snapshot`], into one sealed [`Snapshot`]. Where
    /// [`FederatedEngine::checkpoint`] protects a shard against its
    /// own crash (the coordinator survives), this protects against
    /// losing the whole process: a federation rebuilt from the same
    /// builder configuration and restored via
    /// [`FederatedEngine::restore_coordinator`] resumes the run from
    /// disk, bit-identically. Take it at a paused watermark.
    pub fn snapshot_coordinator(&self) -> Snapshot {
        let mut events: Vec<FedEvent> = self
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(shard, lane)| {
                lane.events.iter().map(move |e| FedEvent {
                    time: e.time,
                    shard,
                    kind: e.kind,
                })
            })
            .collect();
        // The heaps' internal layout is unspecified; the global firing
        // order `(time, class, shard, id)` is the canonical form.
        events.sort_by_key(|e| {
            (e.time, e.kind.class(), e.shard, e.kind.stable_id())
        });
        let lanes = &self.lanes;
        let rngs: Vec<Value> = lanes
            .iter()
            .map(|l| l.rng.state().to_vec().to_value())
            .collect();
        let pending: Vec<usize> =
            lanes.iter().map(|l| l.events.len()).collect();
        let wakeup_pending: Vec<bool> =
            lanes.iter().map(|l| l.wakeup_pending).collect();
        // On the wire the gap travels as the count of journaled
        // operations the shard did receive.
        let applied: Vec<u64> = (0..lanes.len())
            .map(|s| {
                (self.journal(s).len() as u64)
                    .saturating_sub(self.undelivered[s])
            })
            .collect();
        Snapshot::seal(
            "federated-coordinator",
            Value::Object(vec![
                ("gateway".to_owned(), self.gateway.snapshot().to_value()),
                ("events".to_owned(), events.to_value()),
                ("rngs".to_owned(), Value::Array(rngs)),
                ("pending".to_owned(), pending.to_value()),
                ("wakeup_pending".to_owned(), wakeup_pending.to_value()),
                (
                    "arrivals_ingested".to_owned(),
                    self.arrivals_ingested.to_value(),
                ),
                ("applied_since_ckpt".to_owned(), applied.to_value()),
                ("journals".to_owned(), self.journals.to_value()),
                (
                    "injector".to_owned(),
                    self.injector
                        .as_ref()
                        .map_or(Value::Null, FaultInjector::to_value),
                ),
            ]),
        )
    }

    /// Restores state captured by
    /// [`FederatedEngine::snapshot_coordinator`] into this engine,
    /// verifying the outer envelope and every nested one. The engine
    /// must have been built with the same shard count, configuration
    /// and plug-in types as the one that took the snapshot. The
    /// resharding log an earlier build could capture is ignored: it
    /// never changed a resumed run.
    ///
    /// # Errors
    /// Any [`SnapshotError`] — among them a
    /// [`SnapshotError::ShapeMismatch`] for an event naming a shard
    /// this federation does not have or due before the restored
    /// clock, a per-shard pending count that disagrees with the
    /// shard's events, or a journaled ladder rung above the top rung.
    /// On error the engine's state is unspecified and it should be
    /// discarded.
    pub fn restore_coordinator(
        &mut self,
        snap: &Snapshot,
    ) -> Result<(), SnapshotError> {
        let payload = snap.verify()?.clone();
        let n = self.gateway.n_shards();
        let nested = Snapshot::from_value(payload.get_field("gateway")?)?;
        self.gateway.restore(&nested)?;
        let events = Vec::<FedEvent>::from_value(payload.get_field("events")?)?;
        let rng_states =
            Vec::<Vec<u64>>::from_value(payload.get_field("rngs")?)?;
        let pending = Vec::<usize>::from_value(payload.get_field("pending")?)?;
        let wakeup_pending =
            Vec::<bool>::from_value(payload.get_field("wakeup_pending")?)?;
        let applied =
            Vec::<u64>::from_value(payload.get_field("applied_since_ckpt")?)?;
        if rng_states.len() != n
            || pending.len() != n
            || wakeup_pending.len() != n
            || applied.len() != n
        {
            return Err(SnapshotError::ShapeMismatch {
                what: "per-shard driver state differs from this \
                       federation's shard count",
            });
        }
        let mut lanes = Vec::with_capacity(n);
        for (state, &wakeup_pending) in rng_states.iter().zip(&wakeup_pending) {
            let words: [u64; 4] =
                state.as_slice().try_into().map_err(|_| {
                    SnapshotError::ShapeMismatch {
                        what: "an RNG stream state is not four words",
                    }
                })?;
            lanes.push(Lane {
                events: EventQueue::new(),
                rng: Xoshiro256PlusPlus::from_state(words),
                wakeup_pending,
            });
        }
        let now = self.gateway.now();
        for e in events {
            let lane =
                lanes.get_mut(e.shard).ok_or(SnapshotError::ShapeMismatch {
                    what: "an event names a shard this federation \
                           does not have",
                })?;
            if e.time < now {
                return Err(SnapshotError::ShapeMismatch {
                    what: "an event is due before the federation clock",
                });
            }
            lane.events.push(Event {
                time: e.time,
                kind: e.kind,
            });
        }
        if lanes
            .iter()
            .zip(&pending)
            .any(|(l, &p)| l.events.len() != p)
        {
            return Err(SnapshotError::ShapeMismatch {
                what: "a shard's pending-event count disagrees with its \
                       events",
            });
        }
        let arrivals_ingested =
            u64::from_value(payload.get_field("arrivals_ingested")?)?;
        let journals = Option::<Vec<ShardJournal>>::from_value(
            payload.get_field("journals")?,
        )?;
        if journals.as_ref().is_some_and(|j| j.len() != n) {
            return Err(SnapshotError::ShapeMismatch {
                what: "journal count differs from this federation's \
                       shard count",
            });
        }
        let injector = match payload.get_field("injector")? {
            Value::Null => None,
            v => Some(FaultInjector::from_value(v)?),
        };
        self.undelivered = applied
            .iter()
            .enumerate()
            .map(|(s, &a)| {
                journals
                    .as_ref()
                    .map_or(0, |j| (j[s].len() as u64).saturating_sub(a))
            })
            .collect();
        self.lanes = lanes;
        self.arrivals_ingested = arrivals_ingested;
        self.journals = journals;
        self.injector = injector;
        self.notices.clear();
        Ok(())
    }

    /// Captures the whole federation front-end (every shard, the
    /// compactor, the arrival order, the routing policy) into one
    /// sealed [`Snapshot`] — see [`Gateway::snapshot`]. Verifying it
    /// at a watermark is the federation's desync detector.
    pub fn snapshot_gateway(&self) -> Snapshot {
        self.gateway.snapshot()
    }

    /// The lane holding the next event in global order: the smallest
    /// head by `(time, class, shard)`. Each lane orders its own events
    /// by `(time, class, id)`, so this is a single merged heap's
    /// `(time, class, shard, id)` order.
    fn next_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(shard, lane)| {
                lane.events.peek().map(|e| (e.time, e.kind.class(), shard))
            })
            .min()
            .map(|(_, _, shard)| shard)
    }

    /// Journals `op` for `shard` at `time` when journaling is on.
    fn record(&mut self, shard: usize, time: SimTime, op: JournalOp) {
        if let Some(journals) = &mut self.journals {
            journals[shard].record(time, op);
        }
    }

    /// Settles every lane: the shards' new starts become completion
    /// events, and their decisions are dropped.
    fn settle(&mut self) {
        let truth = self.truth;
        let shards = self.gateway.shards_mut();
        for (lane, core) in self.lanes.iter_mut().zip(shards) {
            lane.settle(core, truth);
        }
    }

    /// The per-shard wakeup safety net, checked on every healthy shard
    /// once the arrival stream is exhausted.
    fn maybe_schedule_wakeups(&mut self, more_arrivals: bool) {
        if more_arrivals {
            return;
        }
        let now = self.gateway.now();
        for (shard, lane) in self.lanes.iter_mut().enumerate() {
            if !self.gateway.is_quarantined(shard) {
                lane.maybe_schedule_wakeup(&self.gateway.shards()[shard], now);
            }
        }
    }
}

impl<S: Sink> std::fmt::Debug for FederatedEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending: usize = self.lanes.iter().map(|l| l.events.len()).sum();
        f.debug_struct("FederatedEngine")
            .field("gateway", &self.gateway)
            .field("pending_events", &pending)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::LeastQueuedRoute;
    use crate::traits::NoPruning;
    use crate::traits::{Assignment, BatchMapper};
    use crate::view::SystemView;
    use taskprune_model::BinSpec;
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

    #[test]
    fn zero_shards_is_rejected() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let err = builder(&pet, &cluster, 0)
            .build_gateway()
            .expect_err("zero shards must fail");
        assert_eq!(err, ConfigError::ZeroShards);
    }

    #[test]
    fn missing_strategy_is_rejected() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let err = GatewayBuilder::new(&cluster, &pet)
            .shards(2)
            .build_gateway()
            .expect_err("no strategy must fail");
        assert_eq!(err, ConfigError::MissingStrategy);
    }

    #[test]
    fn belief_truth_mismatch_is_rejected() {
        let belief = det_pet();
        let truth =
            PetMatrix::new(BinSpec::new(200), 1, 1, vec![Pmf::point_mass(2)]);
        let cluster = Cluster::one_per_type(1);
        let err = builder(&belief, &cluster, 1)
            .truth(&truth)
            .build()
            .expect_err("bin-width mismatch must fail");
        assert_eq!(err, ConfigError::BeliefTruthMismatch { what: "bin width" });
    }

    #[test]
    fn shard_seeds_keep_shard0_and_decorrelate_the_rest() {
        assert_eq!(GatewayBuilder::<NullSink>::shard_seed(42, 0), 42);
        let s1 = GatewayBuilder::<NullSink>::shard_seed(42, 1);
        let s2 = GatewayBuilder::<NullSink>::shard_seed(42, 2);
        assert_ne!(s1, 42);
        assert_ne!(s1, s2);
    }

    #[test]
    fn out_of_range_tenant_rung_is_a_typed_error() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let gateway = || {
            builder(&pet, &cluster, 2)
                .tenancy(TenancyPolicy::new(2))
                .build_gateway()
                .expect("valid configuration")
        };
        let genuine = gateway().snapshot().payload().clone();
        // The capture with its tenant-table rung replaced, carrying an
        // earlier build's fair-admission windows as well.
        let with_rung = |rung: u64| {
            let mut payload = genuine.clone();
            let Value::Object(fields) = &mut payload else {
                panic!("gateway payloads are objects");
            };
            let (_, tenants) = fields
                .iter_mut()
                .find(|(k, _)| k == "tenants")
                .expect("tenancy is on");
            let Value::Object(table) = tenants else {
                panic!("the tenant table is an object");
            };
            for (k, v) in table.iter_mut() {
                if k == "rung" {
                    *v = Value::UInt(rung);
                }
            }
            let window = Value::Object(vec![
                ("submitted".to_owned(), Value::UInt(5)),
                ("admitted".to_owned(), Value::UInt(3)),
            ]);
            table.push(("windows".to_owned(), Value::Array(vec![window; 2])));
            Snapshot::seal("gateway", payload)
        };
        let mut restored = gateway();
        restored
            .restore(&with_rung(3))
            .expect("the top rung restores; the windows are ignored");
        assert_eq!(restored.sla_rung(), 3);
        assert!(matches!(
            gateway().restore(&with_rung(4)),
            Err(SnapshotError::Decode(_))
        ));
        assert!(matches!(
            gateway().restore(&with_rung(256)),
            Err(SnapshotError::Decode(_))
        ));
    }

    #[test]
    fn unknown_task_type_is_a_typed_error_that_changes_nothing() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut gw = builder(&pet, &cluster, 2)
            .build_gateway()
            .expect("valid configuration");
        let before = gw.snapshot().to_value();
        let task = Task::new(7, TaskTypeId(99), SimTime(0), SimTime(100_000));
        assert_eq!(
            gw.try_push_arrival(task),
            Err(RunError::Stats(StatsError::UnknownTaskType {
                id: 7,
                type_id: 99,
                types: 1
            }))
        );
        assert_eq!(gw.snapshot().to_value(), before);
        assert!(gw.drain_decisions().is_empty());
    }

    /// The infallible path panics on an unknown task type before the
    /// reuse gate, the id compactor or the arrival order records it.
    #[test]
    fn unknown_task_type_panics_before_any_table_changes() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut gw = builder(&pet, &cluster, 2)
            .reuse(ReusePolicy::ExactOnly)
            .build_gateway()
            .expect("valid configuration");
        gw.push_arrival(Task::new(7, TaskTypeId(0), SimTime(0), SimTime(50)));
        let before = gw.snapshot().to_value();
        let arrived = gw.arrival_order.len();
        let alien = Task::new(8, TaskTypeId(99), SimTime(0), SimTime(50));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gw.push_arrival(alien)
            }));
        assert!(caught.is_err(), "an unknown type must not be admitted");
        assert_eq!(gw.resolve(TaskId(8)), None);
        assert_eq!(gw.arrival_order.len(), arrived);
        assert_eq!(gw.snapshot().to_value(), before);
    }

    /// A capture is a copy of the core, not a view of it: sealed after
    /// the run has moved on, it is the snapshot the core gave at the
    /// capture instant, by wire form and by hash. The run seals
    /// outcome pages, keeps followers parked and completed primaries in
    /// the reuse ledger, and traces every event, so the sink's plug-in
    /// state grows between a capture and its seal.
    #[test]
    fn a_capture_seals_to_the_snapshot_of_its_instant() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut engine = builder(&pet, &cluster, 2)
            .reuse(ReusePolicy::ExactOnly)
            .sink_with(|_| crate::TraceLog::new(1 << 16, 1))
            .build()
            .expect("valid configuration");
        // Every third arrival repeats the one before it: an exact
        // duplicate the gate absorbs while its primary is in flight.
        let tasks: Vec<Task> = (0..900u64)
            .map(|i| {
                let id = if i % 3 == 2 { i - 1 } else { i };
                Task::new(
                    id,
                    TaskTypeId(0),
                    SimTime(150 * i),
                    SimTime(150 * i + 3_000),
                )
            })
            .collect();
        let mut source = tasks.iter().copied().peekable();
        let mut held = Vec::new();
        for watermark in [200, 400, 600, 800] {
            engine.run_until(&mut source, watermark);
            for shard in 0..engine.n_shards() {
                let core = &engine.gateway.shards()[shard];
                held.push((core.capture(), core.snapshot()));
            }
        }
        engine.run_until(&mut source, tasks.len() as u64);
        let (mut paged, mut parked, mut completed) = (false, false, false);
        for (capture, snap) in &held {
            let sealed = capture.seal();
            assert_eq!(sealed.to_value(), snap.to_value());
            assert_eq!(sealed.state_hash(), snap.state_hash());
            let reuse = snap.payload().get_field("reuse").expect("reuse");
            let held_any = |name| {
                reuse
                    .get_field(name)
                    .is_ok_and(|v| *v != Value::Array(Vec::new()))
            };
            paged |= capture.outcome().sealed().next().is_some();
            parked |= held_any("followers");
            completed |= held_any("completed_exec");
        }
        assert!(paged && parked && completed, "{paged} {parked} {completed}");
    }

    /// A capture costs the live state, not the run: on a lightly
    /// loaded federation (4 round-robin shards, exact reuse, 30 %
    /// duplicates) shard 0's captures after N and after 4N arrivals
    /// each copy the records of at most two pages' worth of ids, and
    /// the later capture shares every page the earlier one sealed.
    #[test]
    fn captures_copy_the_open_records_and_share_sealed_pages() {
        const OPEN_CAP: usize = 128;
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut engine = builder(&pet, &cluster, 4)
            .reuse(ReusePolicy::ExactOnly)
            .build()
            .expect("valid configuration");
        // Three arrivals in ten repeat the one before: exact
        // duplicates the gate absorbs.
        let tasks: Vec<Task> = (0..2_400u64)
            .map(|i| {
                let id = if matches!(i % 10, 2 | 5 | 8) {
                    i - 1
                } else {
                    i
                };
                Task::new(
                    id,
                    TaskTypeId(0),
                    SimTime(150 * i),
                    SimTime(150 * i + 3_000),
                )
            })
            .collect();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, 600);
        let early = engine.capture(0);
        engine.run_until(&mut source, 2_400);
        let late = engine.capture(0);
        for (name, capture) in [("N", &early), ("4N", &late)] {
            let open = capture.outcome().open_ids();
            assert!(
                open <= OPEN_CAP,
                "the {name} capture copies the records of {open} ids"
            );
        }
        let (early, late) = (early.outcome(), late.outcome());
        assert!(early.sealed().next().is_some(), "the N capture sealed");
        assert!(late.sealed().count() > early.sealed().count());
        for page in early.sealed() {
            assert!(
                late.sealed().any(|p| std::sync::Arc::ptr_eq(p, page)),
                "the 4N capture rebuilt a page the N capture sealed"
            );
        }
    }

    fn alien_stream() -> Vec<Task> {
        vec![
            Task::new(0, TaskTypeId(0), SimTime(0), SimTime(50)),
            Task::new(1, TaskTypeId(99), SimTime(1), SimTime(50)),
            Task::new(2, TaskTypeId(0), SimTime(2), SimTime(50)),
        ]
    }

    #[test]
    #[should_panic(expected = "has type 99")]
    fn serial_run_stream_panics_on_an_unknown_task_type() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        builder(&pet, &cluster, 2)
            .build()
            .expect("valid configuration")
            .run_stream(alien_stream());
    }

    #[test]
    #[should_panic(expected = "has type 99")]
    fn parallel_run_stream_panics_on_an_unknown_task_type() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        builder(&pet, &cluster, 2)
            .threads(2)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(alien_stream());
    }

    #[test]
    fn compactor_round_trips_sparse_and_duplicate_ids() {
        let mut c = IdCompactor::new(2);
        let a = c.assign(0, TaskId(1_700_000_000_000));
        let b = c.assign(0, TaskId(7));
        let d = c.assign(1, TaskId(7)); // duplicate external id
        assert_eq!((a, b, d), (TaskId(0), TaskId(1), TaskId(0)));
        assert_eq!(c.external(0, a), Some(TaskId(1_700_000_000_000)));
        assert_eq!(c.external(0, b), Some(TaskId(7)));
        assert_eq!(c.external(1, d), Some(TaskId(7)));
        assert_eq!(c.external(0, TaskId(5)), None);
        assert_eq!((c.assigned(0), c.assigned(1)), (2, 1));
    }

    #[test]
    fn gateway_routes_and_relabels_sparse_ids() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let mut gw = builder(&pet, &cluster, 2)
            .build_gateway()
            .expect("valid configuration");
        // Two snowflake-ish external ids round-robin across shards.
        let t0 = Task::new(
            9_000_000_000_123,
            TaskTypeId(0),
            SimTime(0),
            SimTime(100_000),
        );
        let t1 = Task::new(
            9_000_000_555_000,
            TaskTypeId(0),
            SimTime(0),
            SimTime(100_000),
        );
        assert_eq!(
            gw.push_arrival(t0),
            Admission::Routed {
                shard: 0,
                internal: TaskId(0)
            }
        );
        assert_eq!(
            gw.push_arrival(t1),
            Admission::Routed {
                shard: 1,
                internal: TaskId(0)
            }
        );
        assert_eq!(gw.resolve(TaskId(9_000_000_555_000)), Some((1, TaskId(0))));
        // Decisions and starts surface the external ids.
        let decisions = gw.drain_decisions().to_vec();
        assert_eq!(decisions.len(), 2);
        assert_eq!(
            decisions[0].decision,
            Decision::Assign {
                task: TaskId(9_000_000_000_123),
                machine: MachineId(0)
            }
        );
        assert_eq!(decisions[0].shard, 0);
        let starts = gw.drain_starts().to_vec();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].task.id, TaskId(9_000_000_000_123));
        assert_eq!(starts[0].internal, TaskId(0));
        // Completion via the internal handle.
        assert!(gw.complete(
            starts[0].shard,
            starts[0].machine.id,
            starts[0].internal
        ));
        let stats = gw.finish();
        assert_eq!(stats.n_tasks(), 2);
        assert_eq!(
            stats.outcome(TaskId(9_000_000_000_123)),
            Some(TaskOutcome::CompletedOnTime)
        );
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 1);
    }

    #[test]
    fn federated_engine_drains_everything_and_merges() {
        let pet = det_pet();
        let cluster = Cluster::one_per_type(1);
        let tasks: Vec<Task> = (0..40)
            .map(|i| {
                let arr = i as u64 * 50;
                Task::new(
                    i as u64,
                    TaskTypeId(0),
                    SimTime(arr),
                    SimTime(arr + 100_000),
                )
            })
            .collect();
        let fed = builder(&pet, &cluster, 4)
            .policy(LeastQueuedRoute::new())
            .build()
            .expect("valid configuration");
        assert_eq!(fed.n_shards(), 4);
        let stats = fed.run_stream(tasks.iter().copied());
        assert_eq!(stats.n_tasks(), 40);
        assert_eq!(stats.unreported(), 0);
        // Four shards, arrivals every 50 ticks, service 200 ticks each:
        // least-queued keeps all shards busy and everything completes.
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 40);
        assert!((stats.robustness_pct(0) - 100.0).abs() < 1e-12);
        let merged = stats.merged();
        assert_eq!(merged.n_tasks(), 40);
        assert_eq!(merged.count(TaskOutcome::CompletedOnTime), 40);
        assert_eq!(merged.mapping_events, stats.mapping_events());
        assert_eq!(merged.end_time, stats.end_time());
        // Every shard saw a dense internal id space.
        for shard in &stats.per_shard {
            assert_eq!(shard.n_tasks(), shard.n_arrived());
        }
    }
}
