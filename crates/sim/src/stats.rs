//! Outcome accounting and the robustness metric.
//!
//! The paper's performance metric is the percentage of tasks completing
//! before their deadline (§I), measured after discarding "the first and
//! last 100 tasks in each workload trial … to focus the results on the
//! portion of the time span where the system is oversubscribed" (§V-B).
//!
//! Besides robustness, the collector tracks per-task-type outcomes (the
//! Fairness module's input and the fairness experiments' output) and the
//! machine-time spent on work that produced no value (the energy/cost
//! extension of §VII).
//!
//! A scheduler core's checkpoint carries its whole outcome record, in
//! [`SimStats`]' own encoding, and a restore decodes it with one checked
//! decoder that rejects a record no run could have written. Only the
//! in-memory captures a supervisor keeps see pages: the core seals its
//! record 64 task ids at a time, once every task in them has resolved,
//! and each capture shares the one list of sealed pages by reference
//! and copies only the rest.

use crate::snapshot::SnapshotError;
use crate::tenant::TenantAdmissionStats;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use taskprune_model::{SimTime, Task, TaskId, TaskOutcome, TaskTypeId};

/// Number of leading and trailing tasks excluded by the paper's protocol.
pub const PAPER_TRIM: usize = 100;

/// Why the outcome collector refused a record. Surfaced by
/// [`crate::SchedulerCore::try_push_arrival`], so a caller feeding an
/// external trace into a bare core can drop or relabel the task instead
/// of panicking. The drivers never meet a sparse id (their gateway keys
/// every shard's record by arrival order); an unknown task type is
/// rejected by [`crate::Gateway::try_push_arrival`] and by
/// `ResourceAllocator::try_run` in the `taskprune` crate before
/// anything is routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// A task id jumped far past the population tracked so far. The
    /// per-task tables are dense per id, so a sparse id scheme
    /// (timestamps, snowflakes) would ask for a table the size of the
    /// id space. Sparse external ids need a compaction layer — the
    /// [`crate::Gateway`] provides one at the federation boundary.
    SparseTaskId {
        /// The offending id.
        id: u64,
        /// How many ids the tables covered when it appeared.
        tracked: usize,
    },
    /// A task's type has no row in the PET matrix, so it has no
    /// per-type counters either.
    UnknownTaskType {
        /// The task carrying it.
        id: u64,
        /// The out-of-range type id.
        type_id: u16,
        /// How many task types the PET matrix has.
        types: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::SparseTaskId { id, tracked } => write!(
                f,
                "task id {id} jumps far past the {tracked} tracked so far: \
                 SimStats tables are dense per id — compact sparse external \
                 ids (the Gateway does) before feeding the scheduler"
            ),
            StatsError::UnknownTaskType { id, type_id, types } => write!(
                f,
                "task {id} has type {type_id}, but the PET matrix has \
                 {types} task types (0..{types})"
            ),
        }
    }
}

impl StatsError {
    /// `Ok` when `task`'s type is one of the `types` task types of the
    /// PET matrix, else [`StatsError::UnknownTaskType`].
    pub fn check_type(task: &Task, types: usize) -> Result<(), StatsError> {
        if (task.type_id.0 as usize) < types {
            Ok(())
        } else {
            Err(StatsError::UnknownTaskType {
                id: task.id.0,
                type_id: task.type_id.0,
                types,
            })
        }
    }
}

impl std::error::Error for StatsError {}

/// Per-task-type outcome counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeStats {
    /// Tasks of this type that arrived.
    pub arrived: u64,
    /// Completed at or before the deadline.
    pub on_time: u64,
    /// Completed after the deadline.
    pub late: u64,
    /// Dropped reactively (deadline already missed).
    pub dropped_reactive: u64,
    /// Dropped proactively by the pruner.
    pub dropped_proactive: u64,
    /// Cancelled mid-execution (optional policy).
    pub cancelled: u64,
    /// Rejected on arrival (immediate mode, all queues full).
    pub rejected: u64,
}

impl TypeStats {
    /// Counts one terminal outcome (`Unfinished` has no counter).
    fn count(&mut self, outcome: TaskOutcome) {
        match outcome {
            TaskOutcome::CompletedOnTime => self.on_time += 1,
            TaskOutcome::CompletedLate => self.late += 1,
            TaskOutcome::DroppedReactive => self.dropped_reactive += 1,
            TaskOutcome::DroppedProactive => self.dropped_proactive += 1,
            TaskOutcome::CancelledRunning => self.cancelled += 1,
            TaskOutcome::Rejected => self.rejected += 1,
            TaskOutcome::Unfinished => {}
        }
    }

    /// On-time fraction of arrived tasks (0 when none arrived).
    pub fn on_time_fraction(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.on_time as f64 / self.arrived as f64
        }
    }
}

/// Per-lane admission counters of one tenancy-enabled federated run.
///
/// Built by the gateway's [`crate::TenancyPolicy`] admission layer and
/// surfaced through `FederationStats::tenancy_stats`. Like the
/// recovery log and reuse counters, this is deliberately **off the
/// wire shape**: the serialized `FederationStats` the equivalence
/// contracts compare stays exactly `{per_shard, arrivals}`, and a
/// quotas-off run serializes bit-identically to a pre-tenancy gateway.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenancyStats {
    /// Number of tenant lanes (`tenant = external id % lanes`).
    pub lanes: u64,
    /// Admission counters per lane, in lane order.
    pub per_tenant: Vec<TenantAdmissionStats>,
}

/// One tenant's complete view of a federated run: its admission
/// counters plus every arrival it got admitted, as `(global arrival
/// index, outcome)` pairs in global arrival order.
///
/// `FederationStats::tenant_slices` builds one per lane. The SLA
/// isolation contract (`tests/tenant_isolation.rs`) serializes the
/// *unaffected* tenants' slices and requires them bit-identical
/// between a run with a zero-quota tenant burst and the burst-free
/// run — degradation must stay inside the offending lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSlice {
    /// The tenant lane this slice describes.
    pub tenant: u64,
    /// The lane's admission counters (submitted / admitted / shed).
    pub counters: TenantAdmissionStats,
    /// The lane's admitted arrivals: global arrival index and terminal
    /// outcome, in global arrival order.
    pub outcomes: Vec<(u64, Option<TaskOutcome>)>,
}

impl TenantSlice {
    /// Percentage of this tenant's *admitted* arrivals that completed
    /// on time (0 when none were admitted). No trim: slices are
    /// per-tenant subsequences, so the §V-B window protocol applies to
    /// the federation-wide metric, not here.
    pub fn robustness_pct(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let on_time = self
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, Some(TaskOutcome::CompletedOnTime)))
            .count();
        100.0 * on_time as f64 / self.outcomes.len() as f64
    }

    /// Percentage of this tenant's submissions the admission layer
    /// shed (quota, throttle, or overload) before routing.
    pub fn shed_pct(&self) -> f64 {
        self.counters.shed_pct()
    }
}

/// Full outcome record of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimStats {
    /// Terminal outcome per task id (`None` = never arrived, impossible
    /// after a completed run).
    outcomes: Vec<Option<TaskOutcome>>,
    /// Task type per task id (for per-type aggregation).
    types: Vec<Option<TaskTypeId>>,
    /// Per-type counters.
    per_type: Vec<TypeStats>,
    /// Task ids in the order they arrived. The robustness trim window is
    /// defined over *arrival order* (§V-B "first and last 100 tasks"),
    /// which a streaming deployment cannot assume equals id order.
    arrival_order: Vec<TaskId>,
    /// Machine-ticks spent executing tasks that completed on time.
    pub useful_ticks: u64,
    /// Machine-ticks spent executing tasks that completed late or were
    /// cancelled — pure waste the pruning mechanism aims to avoid.
    pub wasted_ticks: u64,
    /// Number of mapping events processed.
    pub mapping_events: u64,
    /// Number of deferral decisions taken (Step 10 vetoes).
    pub deferrals: u64,
    /// Simulated instant at which the run finished draining.
    pub end_time: SimTime,
    /// Execution trace, present when the run's sink was a
    /// [`crate::TraceLog`] ([`crate::SchedulerBuilder::sink`],
    /// [`crate::GatewayBuilder::sink_with`]).
    pub trace: Option<crate::trace::TraceLog>,
}

impl SimStats {
    /// Creates a collector for `n_tasks` task ids and `n_types` types.
    pub fn new(n_tasks: usize, n_types: usize) -> Self {
        Self {
            outcomes: vec![None; n_tasks],
            types: vec![None; n_tasks],
            per_type: vec![TypeStats::default(); n_types],
            arrival_order: Vec::new(),
            useful_ticks: 0,
            wasted_ticks: 0,
            mapping_events: 0,
            deferrals: 0,
            end_time: SimTime::ZERO,
            trace: None,
        }
    }

    /// Largest forward jump `ensure_task` accepts: the per-task tables
    /// are *dense* (indexed by id), so a sparse id scheme — timestamps,
    /// snowflakes — would ask for a table the size of the id space.
    /// Jumping more than this past the current length fails loudly
    /// instead of attempting a multi-gigabyte allocation.
    const MAX_ID_JUMP: usize = 1 << 24;

    /// Grows the per-task tables to cover `id` — the streaming core
    /// learns the task population one arrival at a time, so the
    /// collector sizes itself as ids appear instead of up front.
    /// Fails with [`StatsError::SparseTaskId`] when `id` lies more than
    /// [`Self::MAX_ID_JUMP`] past the current table length: task ids
    /// must be (roughly) dense, and a sparse id scheme must be
    /// compacted (e.g. by the [`crate::Gateway`]) before reaching the
    /// collector.
    fn try_ensure_task(&mut self, id: TaskId) -> Result<(), StatsError> {
        let idx = id.0 as usize;
        if idx >= self.outcomes.len() {
            if idx - self.outcomes.len() >= Self::MAX_ID_JUMP {
                return Err(StatsError::SparseTaskId {
                    id: id.0,
                    tracked: self.outcomes.len(),
                });
            }
            self.outcomes.resize(idx + 1, None);
            self.types.resize(idx + 1, None);
        }
        Ok(())
    }

    /// Infallible [`SimStats::try_ensure_task`] for internal paths that
    /// only see ids an arrival already admitted.
    fn ensure_task(&mut self, id: TaskId) {
        self.try_ensure_task(id).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Registers a task arrival, rejecting a type with no per-type
    /// counters and ids the dense tables cannot absorb. A rejected
    /// arrival changes no table.
    pub fn try_record_arrival(
        &mut self,
        task: &Task,
    ) -> Result<(), StatsError> {
        StatsError::check_type(task, self.per_type.len())?;
        self.try_ensure_task(task.id)?;
        let idx = task.id.0 as usize;
        self.types[idx] = Some(task.type_id);
        self.per_type[task.type_id.0 as usize].arrived += 1;
        self.arrival_order.push(task.id);
        Ok(())
    }

    /// Registers a task arrival.
    ///
    /// # Panics
    /// When the type is unknown or the id is sparse (see
    /// [`SimStats::try_record_arrival`], the recoverable variant).
    pub fn record_arrival(&mut self, task: &Task) {
        self.try_record_arrival(task)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Registers a terminal outcome. Each task may finish exactly once.
    pub fn record_outcome(&mut self, task: &Task, outcome: TaskOutcome) {
        self.ensure_task(task.id);
        let idx = task.id.0 as usize;
        assert!(
            self.outcomes[idx].is_none(),
            "task {:?} finished twice ({:?} then {:?})",
            task.id,
            self.outcomes[idx],
            outcome,
        );
        self.outcomes[idx] = Some(outcome);
        self.per_type[task.type_id.0 as usize].count(outcome);
    }

    /// Adds executed machine time, split by whether it produced value.
    /// Saturates: a restored checkpoint may carry any count, and a
    /// counter at the top of its range stays there.
    pub fn record_execution(&mut self, ticks: u64, useful: bool) {
        if useful {
            self.useful_ticks = self.useful_ticks.saturating_add(ticks);
        } else {
            self.wasted_ticks = self.wasted_ticks.saturating_add(ticks);
        }
    }

    /// Outcome of a specific task.
    pub fn outcome(&self, id: TaskId) -> Option<TaskOutcome> {
        self.outcomes.get(id.0 as usize).copied().flatten()
    }

    /// Total tasks tracked.
    pub fn n_tasks(&self) -> usize {
        self.outcomes.len()
    }

    /// Count of tasks with the given outcome (whole trial, no trim).
    pub fn count(&self, outcome: TaskOutcome) -> usize {
        self.outcomes
            .iter()
            .filter(|&&o| o == Some(outcome))
            .count()
    }

    /// Per-type counters.
    pub fn per_type(&self) -> &[TypeStats] {
        &self.per_type
    }

    /// The robustness metric: percentage of tasks completed on time,
    /// excluding the first and last `trim` tasks **by arrival order** —
    /// which a streaming deployment cannot assume equals id order, so
    /// the collector tracks the arrival sequence explicitly.
    pub fn robustness_pct(&self, trim: usize) -> f64 {
        let n = self.arrival_order.len();
        if n <= 2 * trim {
            return 0.0;
        }
        let window = &self.arrival_order[trim..n - trim];
        let on_time = window
            .iter()
            .filter(|id| {
                matches!(self.outcome(**id), Some(TaskOutcome::CompletedOnTime))
            })
            .count();
        100.0 * on_time as f64 / window.len() as f64
    }

    /// The task ids in arrival order (the robustness trim sequence).
    pub fn arrival_order(&self) -> &[TaskId] {
        &self.arrival_order
    }

    /// Number of arrivals recorded.
    pub fn n_arrived(&self) -> usize {
        self.arrival_order.len()
    }

    /// The type a task arrived with, if it arrived.
    pub fn task_type(&self, id: TaskId) -> Option<TaskTypeId> {
        self.types.get(id.0 as usize).copied().flatten()
    }

    /// Robustness with the paper's trim of 100 tasks per end.
    pub fn paper_robustness_pct(&self) -> f64 {
        self.robustness_pct(PAPER_TRIM)
    }

    /// Fraction of executed machine time that was wasted (late /
    /// cancelled work) — the §VII energy-saving measure.
    pub fn wasted_fraction(&self) -> f64 {
        let total = self.useful_ticks + self.wasted_ticks;
        if total == 0 {
            0.0
        } else {
            self.wasted_ticks as f64 / total as f64
        }
    }

    /// Sanity invariant: every arrived task has exactly one outcome once
    /// the run has drained. Returns the number of unreported tasks.
    pub fn unreported(&self) -> usize {
        self.outcomes
            .iter()
            .zip(&self.types)
            .filter(|(o, t)| o.is_none() && t.is_some())
            .count()
    }

    /// Variance of per-type on-time fractions — the fairness measure the
    /// Fairness-module experiments report (lower = fairer).
    pub fn per_type_on_time_variance(&self) -> f64 {
        let fracs: Vec<f64> = self
            .per_type
            .iter()
            .filter(|t| t.arrived > 0)
            .map(|t| t.on_time_fraction())
            .collect();
        if fracs.len() < 2 {
            return 0.0;
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        fracs.iter().map(|f| (f - mean).powi(2)).sum::<f64>()
            / (fracs.len() - 1) as f64
    }

    /// Checks that the outcome record of a decoded core checkpoint
    /// describes one run of a core whose PET matrix has `n_types` task
    /// types.
    ///
    /// # Errors
    /// [`SnapshotError::ShapeMismatch`] when the outcome and type
    /// tables differ in length, an arrival-order id lies outside them,
    /// the arrival order does not list each arrived id (each id with a
    /// recorded type) exactly once, or the per-type counters do not
    /// number `n_types`, a recorded type lies past them, or they
    /// disagree with the tables.
    pub(crate) fn check_checkpoint(
        &self,
        n_types: usize,
    ) -> Result<(), SnapshotError> {
        let shape = |what| Err(SnapshotError::ShapeMismatch { what });
        if self.outcomes.len() != self.types.len() {
            return shape("the outcome and type tables differ in length");
        }
        if self
            .arrival_order
            .iter()
            .any(|id| id.0 >= self.types.len() as u64)
        {
            return shape("an arrival-order id lies outside the outcome table");
        }
        // The trim window and the robustness count read the arrival
        // order: an id listed twice, or an arrival left out, changes
        // the resumed run's result.
        let mut listed = vec![false; self.types.len()];
        let once = self.arrival_order.iter().all(|id| {
            let i = id.0 as usize;
            self.types[i].is_some() && !std::mem::replace(&mut listed[i], true)
        });
        if !once
            || self.arrival_order.len() != self.types.iter().flatten().count()
        {
            return shape(
                "the arrival order does not list each arrived id exactly once",
            );
        }
        if self.per_type.len() != n_types {
            return shape(
                "the per-type counters do not match the PET task types",
            );
        }
        // The per-type counters are a function of the tables: recount
        // them, so a run never resumes on counters its record does not
        // back (or that the next arrival would overflow).
        let mut per_type = vec![TypeStats::default(); n_types];
        for (ty, outcome) in self.types.iter().zip(&self.outcomes) {
            let Some(ty) = ty else { continue };
            let Some(t) = per_type.get_mut(ty.0 as usize) else {
                return shape(
                    "a recorded task type is not one of the PET task types",
                );
            };
            t.arrived += 1;
            if let Some(outcome) = outcome {
                t.count(*outcome);
            }
        }
        if per_type != self.per_type {
            return shape(
                "the per-type counters disagree with the outcome record",
            );
        }
        Ok(())
    }
}

/// Ids per sealed page of a core's outcome history (see
/// [`OutcomePages`]): large enough that a page is one pointer per 64
/// records, small enough that the unresolved tail a capture leaves
/// open stays within a page or two on a lightly loaded shard.
const PAGE_LEN: usize = 64;

/// One sealed page of an outcome history: the outcome and type records
/// of ids `k·PAGE_LEN ..` and the arrival-order entries at the same
/// positions, all final.
#[derive(Debug)]
pub(crate) struct OutcomePage {
    outcomes: [Option<TaskOutcome>; PAGE_LEN],
    types: [Option<TaskTypeId>; PAGE_LEN],
    arrival_order: [TaskId; PAGE_LEN],
}

/// The page slots of an outcome history, by page index: a sealed page,
/// or `None` for a page whose records are still open.
type PageSlots = Vec<Option<Arc<OutcomePage>>>;

/// The sealed pages of one scheduler core's outcome history, by page
/// index: what lets a capture copy only the records still open. Filled
/// only inside a capture; a crash wipe and a restore clear it, and the
/// next capture seals the pages again. It never reaches a snapshot,
/// which carries the record flat.
///
/// Page `k` holds the outcome and type records of ids
/// `[k·PAGE_LEN, (k+1)·PAGE_LEN)` and the arrival-order entries at the
/// same positions. It seals when every one of those ids has arrived
/// and resolved and the arrival order has filled those positions —
/// records that can never change again. Pages seal independently, so
/// a task stuck on a lost completion holds only its own page open.
///
/// The slot list is one shared value: every capture clones the `Arc`
/// around it, and the list itself is copied only when it changes while
/// an older capture still holds it (a page seals or a new slot opens,
/// each once per `PAGE_LEN` ids). The indices of the open slots are
/// kept beside it, so a capture visits those slots and the tail past
/// the last slot, never the sealed ones.
#[derive(Debug, Default)]
pub(crate) struct OutcomePages {
    slots: Arc<PageSlots>,
    /// The slots still `None`, ascending.
    open: Vec<usize>,
}

impl OutcomePages {
    /// Overwrites `out` with `stats` as a capture holds it: seals every
    /// page that has completed since the last capture, copies the
    /// records of the open pages and of the tail, and shares the slot
    /// list. `out`'s buffers are reused.
    pub(crate) fn capture(
        &mut self,
        stats: &SimStats,
        out: &mut OutcomeCapture,
    ) {
        let full =
            stats.outcomes.len().min(stats.arrival_order.len()) / PAGE_LEN;
        let ids = |k: usize| k * PAGE_LEN..(k + 1) * PAGE_LEN;
        let complete = |k: usize| {
            stats.outcomes[ids(k)].iter().all(Option::is_some)
                && stats.types[ids(k)].iter().all(Option::is_some)
        };
        if full > self.slots.len() || self.open.iter().any(|&k| complete(k)) {
            // `out` is being overwritten: give up its share of the list
            // first, so that a caller who keeps one capture per core
            // leaves the list unshared and it changes in place.
            out.pages = Arc::default();
            let slots = Arc::make_mut(&mut self.slots);
            self.open.extend(slots.len()..full);
            slots.resize(full, None);
            self.open.retain(|&k| {
                if !complete(k) {
                    return true;
                }
                slots[k] = Some(Arc::new(OutcomePage {
                    outcomes: stats.outcomes[ids(k)]
                        .try_into()
                        .expect("a full page"),
                    types: stats.types[ids(k)].try_into().expect("a full page"),
                    arrival_order: stats.arrival_order[ids(k)]
                        .try_into()
                        .expect("a full page"),
                }));
                false
            });
        }
        let inline = &mut out.inline;
        inline.outcomes.clear();
        inline.types.clear();
        inline.arrival_order.clear();
        for &k in &self.open {
            inline.outcomes.extend_from_slice(&stats.outcomes[ids(k)]);
            inline.types.extend_from_slice(&stats.types[ids(k)]);
            inline
                .arrival_order
                .extend_from_slice(&stats.arrival_order[ids(k)]);
        }
        let tail = self.slots.len() * PAGE_LEN;
        inline.outcomes.extend_from_slice(&stats.outcomes[tail..]);
        inline.types.extend_from_slice(&stats.types[tail..]);
        inline
            .arrival_order
            .extend_from_slice(&stats.arrival_order[tail..]);
        inline.per_type.clone_from(&stats.per_type);
        inline.trace.clone_from(&stats.trace);
        inline.useful_ticks = stats.useful_ticks;
        inline.wasted_ticks = stats.wasted_ticks;
        inline.mapping_events = stats.mapping_events;
        inline.deferrals = stats.deferrals;
        inline.end_time = stats.end_time;
        out.pages.clone_from(&self.slots);
    }
}

/// A core's outcome record as one capture holds it: the records
/// outside sealed pages copied, the sealed pages shared.
pub(crate) struct OutcomeCapture {
    /// The record with only the open pages' records in its tables.
    inline: SimStats,
    /// The core's page slots at the capture instant, shared with it
    /// until a page seals.
    pages: Arc<PageSlots>,
}

impl Default for OutcomeCapture {
    fn default() -> Self {
        Self {
            inline: SimStats::new(0, 0),
            pages: Arc::default(),
        }
    }
}

impl OutcomeCapture {
    /// The outcome record at the capture instant: the sealed pages
    /// stitched back between the inline records.
    pub(crate) fn record(&self) -> SimStats {
        SimStats {
            outcomes: self.unpage(&self.inline.outcomes, |p| &p.outcomes),
            types: self.unpage(&self.inline.types, |p| &p.types),
            per_type: self.inline.per_type.clone(),
            arrival_order: self
                .unpage(&self.inline.arrival_order, |p| &p.arrival_order),
            trace: self.inline.trace.clone(),
            ..self.inline
        }
    }

    /// One table of the record: each sealed page's records, each open
    /// page's next `PAGE_LEN` inline records, then the inline rest.
    fn unpage<T: Copy>(
        &self,
        inline: &[T],
        table: impl Fn(&OutcomePage) -> &[T; PAGE_LEN],
    ) -> Vec<T> {
        let mut out =
            Vec::with_capacity(inline.len() + self.pages.len() * PAGE_LEN);
        let mut rest = inline;
        for slot in self.pages.iter() {
            match slot {
                Some(page) => out.extend_from_slice(table(page)),
                None => {
                    let (open, tail) = rest.split_at(PAGE_LEN);
                    out.extend_from_slice(open);
                    rest = tail;
                }
            }
        }
        out.extend_from_slice(rest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, type_id: u16) -> Task {
        Task::new(id, TaskTypeId(type_id), SimTime(0), SimTime(100))
    }

    #[test]
    fn robustness_counts_window_only() {
        let mut s = SimStats::new(10, 1);
        for i in 0..10 {
            let t = task(i, 0);
            s.record_arrival(&t);
            // First 2 and last 2 on time, middle 6 alternate.
            let outcome = if !(2..8).contains(&i) || i % 2 == 0 {
                TaskOutcome::CompletedOnTime
            } else {
                TaskOutcome::DroppedReactive
            };
            s.record_outcome(&t, outcome);
        }
        // Window = tasks 2..8: on-time at 2,4,6 → 50 %.
        assert!((s.robustness_pct(2) - 50.0).abs() < 1e-12);
        // No trim: 7 of 10 on time.
        assert!((s.robustness_pct(0) - 70.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_trials_trim_to_zero() {
        let s = SimStats::new(150, 1);
        assert_eq!(s.robustness_pct(100), 0.0);
    }

    #[test]
    fn tables_grow_as_streaming_arrivals_appear() {
        let mut s = SimStats::new(0, 1);
        assert_eq!(s.n_tasks(), 0);
        let t = task(4, 0);
        s.record_arrival(&t);
        s.record_outcome(&t, TaskOutcome::CompletedOnTime);
        assert_eq!(s.n_tasks(), 5);
        assert_eq!(s.outcome(TaskId(4)), Some(TaskOutcome::CompletedOnTime));
        assert_eq!(s.outcome(TaskId(0)), None);
    }

    #[test]
    #[should_panic(expected = "dense per id")]
    fn sparse_external_ids_fail_loudly_instead_of_allocating() {
        let mut s = SimStats::new(0, 1);
        // A snowflake-style id must not trigger a table the size of the
        // id space.
        s.record_arrival(&task(1_700_000_000_000, 0));
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_outcome_panics() {
        let mut s = SimStats::new(1, 1);
        let t = task(0, 0);
        s.record_arrival(&t);
        s.record_outcome(&t, TaskOutcome::CompletedOnTime);
        s.record_outcome(&t, TaskOutcome::DroppedReactive);
    }

    #[test]
    fn per_type_counters() {
        let mut s = SimStats::new(4, 2);
        let a = task(0, 0);
        let b = task(1, 0);
        let c = task(2, 1);
        let d = task(3, 1);
        for t in [&a, &b, &c, &d] {
            s.record_arrival(t);
        }
        s.record_outcome(&a, TaskOutcome::CompletedOnTime);
        s.record_outcome(&b, TaskOutcome::DroppedProactive);
        s.record_outcome(&c, TaskOutcome::CompletedLate);
        s.record_outcome(&d, TaskOutcome::CancelledRunning);
        assert_eq!(s.per_type()[0].on_time, 1);
        assert_eq!(s.per_type()[0].dropped_proactive, 1);
        assert_eq!(s.per_type()[1].late, 1);
        assert_eq!(s.per_type()[1].cancelled, 1);
        assert!((s.per_type()[0].on_time_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.unreported(), 0);
    }

    #[test]
    fn wasted_fraction_tracks_executions() {
        let mut s = SimStats::new(0, 1);
        s.record_execution(300, true);
        s.record_execution(100, false);
        assert!((s.wasted_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.useful_ticks, 300);
        assert_eq!(s.wasted_ticks, 100);
    }

    #[test]
    fn fairness_variance() {
        let mut s = SimStats::new(4, 2);
        let a = task(0, 0);
        let b = task(1, 0);
        let c = task(2, 1);
        let d = task(3, 1);
        for t in [&a, &b, &c, &d] {
            s.record_arrival(t);
        }
        // Type 0: 100 % on time; type 1: 0 %.
        s.record_outcome(&a, TaskOutcome::CompletedOnTime);
        s.record_outcome(&b, TaskOutcome::CompletedOnTime);
        s.record_outcome(&c, TaskOutcome::DroppedProactive);
        s.record_outcome(&d, TaskOutcome::DroppedProactive);
        // Sample variance of {1.0, 0.0} = 0.5.
        assert!((s.per_type_on_time_variance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn robustness_trim_follows_arrival_order_not_id_order() {
        // Four tasks arrive in the order 3, 0, 2, 1; only the *first
        // arrival* (id 3) and *last arrival* (id 1) are on time.
        let mut s = SimStats::new(0, 1);
        for id in [3u64, 0, 2, 1] {
            s.record_arrival(&task(id, 0));
        }
        s.record_outcome(&task(3, 0), TaskOutcome::CompletedOnTime);
        s.record_outcome(&task(0, 0), TaskOutcome::DroppedReactive);
        s.record_outcome(&task(2, 0), TaskOutcome::DroppedReactive);
        s.record_outcome(&task(1, 0), TaskOutcome::CompletedOnTime);
        // Trimming one task per end must cut arrivals 3 and 1 (the
        // on-time ones), not ids 0 and 3: the window {0, 2} is 0 %
        // on time. An id-ordered trim would report 50 %.
        assert_eq!(s.robustness_pct(1), 0.0);
        assert!((s.robustness_pct(0) - 50.0).abs() < 1e-12);
        assert_eq!(s.arrival_order()[0], TaskId(3));
        assert_eq!(s.n_arrived(), 4);
    }

    #[test]
    fn try_record_arrival_surfaces_sparse_ids_as_typed_errors() {
        let mut s = SimStats::new(0, 1);
        let err = s
            .try_record_arrival(&task(1_700_000_000_000, 0))
            .expect_err("snowflake id must be rejected");
        assert_eq!(
            err,
            StatsError::SparseTaskId {
                id: 1_700_000_000_000,
                tracked: 0
            }
        );
        assert!(err.to_string().contains("dense per id"));
        // The failed arrival left no partial record behind.
        assert_eq!(s.n_tasks(), 0);
        assert_eq!(s.n_arrived(), 0);
        // A dense id still goes through afterwards.
        assert!(s.try_record_arrival(&task(0, 0)).is_ok());
        assert_eq!(s.n_arrived(), 1);
    }

    #[test]
    fn try_record_arrival_rejects_an_unknown_type_before_any_table_changes() {
        let mut s = SimStats::new(0, 2);
        let err = s
            .try_record_arrival(&task(5, 99))
            .expect_err("type 99 of 2 must be rejected");
        assert_eq!(
            err,
            StatsError::UnknownTaskType {
                id: 5,
                type_id: 99,
                types: 2
            }
        );
        assert!(err.to_string().contains("2 task types"), "{err}");
        // The tables did not grow to cover id 5.
        assert_eq!(s.n_tasks(), 0);
        assert_eq!(s.n_arrived(), 0);
        assert!(s.try_record_arrival(&task(5, 1)).is_ok());
        assert_eq!(s.n_arrived(), 1);
    }

    #[test]
    fn task_type_accessor_reports_arrived_types_only() {
        let mut s = SimStats::new(2, 2);
        s.record_arrival(&task(1, 1));
        assert_eq!(s.task_type(TaskId(1)), Some(TaskTypeId(1)));
        assert_eq!(s.task_type(TaskId(0)), None);
        assert_eq!(s.task_type(TaskId(99)), None);
    }

    /// 200 arrivals (three full pages and a tail of 8); every task
    /// resolves except id 10 (page 0) and the tail's last one.
    fn paged_record() -> SimStats {
        let mut s = SimStats::new(0, 2);
        for id in 0..200u64 {
            let t = task(id, (id % 2) as u16);
            s.record_arrival(&t);
            if id != 10 && id != 199 {
                s.record_outcome(&t, TaskOutcome::CompletedOnTime);
            }
        }
        s
    }

    /// Page 0 waits on id 10; pages 1 and 2 seal; the tail stays
    /// inline with page 0. The capture gives back the record it was
    /// taken from, and a later capture shares both pages and rebuilds
    /// none.
    #[test]
    fn pages_seal_independently_and_give_back_the_same_record() {
        let s = paged_record();
        let mut cache = OutcomePages::default();
        let mut capture = OutcomeCapture::default();
        cache.capture(&s, &mut capture);
        assert_eq!(capture.sealed().count(), 2);
        assert_eq!(capture.open_ids(), PAGE_LEN + 8);
        let back = SimStats::from_value(&capture.record().to_value())
            .expect("the record decodes");
        back.check_checkpoint(2).expect("the record restores");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&s).unwrap()
        );
        let mut again = OutcomeCapture::default();
        cache.capture(&s, &mut again);
        assert!(again
            .sealed()
            .zip(capture.sealed())
            .all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    impl OutcomeCapture {
        /// The sealed pages the capture shares, in index order.
        pub(crate) fn sealed(
            &self,
        ) -> impl Iterator<Item = &Arc<OutcomePage>> + '_ {
            self.pages.iter().flatten()
        }

        /// The page slot list the capture shares with its core.
        pub(crate) fn page_list(&self) -> &Arc<PageSlots> {
            &self.pages
        }

        /// Ids whose records the capture holds outside its pages.
        pub(crate) fn open_ids(&self) -> usize {
            self.inline.outcomes.len()
        }
    }

    #[test]
    fn unreported_detects_missing_outcomes() {
        let mut s = SimStats::new(2, 1);
        let a = task(0, 0);
        let b = task(1, 0);
        s.record_arrival(&a);
        s.record_arrival(&b);
        s.record_outcome(&a, TaskOutcome::CompletedOnTime);
        assert_eq!(s.unreported(), 1);
    }
}
