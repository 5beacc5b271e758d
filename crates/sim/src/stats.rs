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

use crate::snapshot::{Page, SnapshotError};
use crate::tenant::TenantAdmissionStats;
use serde::{Deserialize, Serialize, Value};
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
/// rejected by [`crate::Gateway::try_push_arrival`] and the allocator's
/// `try_run*` entry points before anything is routed.
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
        let t = &mut self.per_type[task.type_id.0 as usize];
        match outcome {
            TaskOutcome::CompletedOnTime => t.on_time += 1,
            TaskOutcome::CompletedLate => t.late += 1,
            TaskOutcome::DroppedReactive => t.dropped_reactive += 1,
            TaskOutcome::DroppedProactive => t.dropped_proactive += 1,
            TaskOutcome::CancelledRunning => t.cancelled += 1,
            TaskOutcome::Rejected => t.rejected += 1,
            TaskOutcome::Unfinished => {}
        }
    }

    /// Adds executed machine time, split by whether it produced value.
    pub fn record_execution(&mut self, ticks: u64, useful: bool) {
        if useful {
            self.useful_ticks += ticks;
        } else {
            self.wasted_ticks += ticks;
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
}

/// Ids per page of a capture's outcome history (see [`OutcomePages`]):
/// large enough that a page is one pointer per 64 records, small
/// enough that the unresolved tail a checkpoint leaves open stays
/// within a page or two on a lightly loaded shard.
const PAGE_LEN: usize = 64;

/// Page `index` of an outcome history on the wire: the outcome and
/// type records of ids `index·PAGE_LEN ..` and the arrival-order
/// entries at the same positions, in the encoding the inline tables
/// use.
#[derive(Serialize, Deserialize)]
struct PageBody {
    index: u64,
    outcomes: Vec<Option<TaskOutcome>>,
    types: Vec<Option<TaskTypeId>>,
    arrival_order: Vec<TaskId>,
}

/// The sealed pages of one scheduler core's outcome history, by page
/// index. Filled only inside a capture, cleared by a crash wipe and
/// reset to a checkpoint's pages by a restore; never serialized itself.
///
/// Page `k` holds the outcome and type records of ids
/// `[k·PAGE_LEN, (k+1)·PAGE_LEN)` and the arrival-order entries at the
/// same positions. It seals when every one of those ids has arrived
/// and resolved and the arrival order has filled those positions —
/// records that can never change again. Pages seal independently, so
/// a task stuck on a lost completion holds only its own page open.
/// Which pages a capture carries is a pure function of the record
/// (sealing is monotone), never of when earlier captures ran: a shard
/// rebuilt from a checkpoint plus its journal seals exactly the pages
/// of the shard that never crashed.
#[derive(Debug, Default)]
pub(crate) struct OutcomePages {
    sealed: Vec<Option<Arc<Page>>>,
}

impl OutcomePages {
    /// Seals every page of `stats` that has completed since the last
    /// capture and returns the capture's two halves: the stats payload
    /// in [`SimStats`]' own encoding, holding only the records outside
    /// sealed pages, and every sealed page in index order (shared, not
    /// copied). Costs one pass over the page slots plus the records of
    /// the open pages and of the pages sealed now.
    pub(crate) fn capture(
        &mut self,
        stats: &SimStats,
    ) -> (Value, Vec<Arc<Page>>) {
        let full =
            stats.outcomes.len().min(stats.arrival_order.len()) / PAGE_LEN;
        if self.sealed.len() < full {
            self.sealed.resize(full, None);
        }
        for (k, slot) in self.sealed.iter_mut().enumerate() {
            if slot.is_none() && stats.page_complete(k) {
                let body = stats.page_body(k).to_value();
                *slot = Some(Arc::new(Page::seal(body)));
            }
        }
        let inline = SimStats {
            outcomes: self.open_records(&stats.outcomes),
            types: self.open_records(&stats.types),
            per_type: stats.per_type.clone(),
            arrival_order: self.open_records(&stats.arrival_order),
            trace: stats.trace.clone(),
            ..*stats
        };
        let pages = self.sealed.iter().flatten().cloned().collect();
        (inline.to_value(), pages)
    }

    /// The records of `table` outside sealed pages, in id (or
    /// position) order.
    fn open_records<T: Copy>(&self, table: &[T]) -> Vec<T> {
        table
            .chunks(PAGE_LEN)
            .enumerate()
            .filter(|&(k, _)| !matches!(self.sealed.get(k), Some(Some(_))))
            .flat_map(|(_, records)| records.iter().copied())
            .collect()
    }

    /// Rebuilds the outcome record a capture describes — its stats
    /// payload with its pages stitched back in — together with the
    /// page cache of the core that took it.
    ///
    /// # Errors
    /// [`SnapshotError::Decode`] for a payload or page body that does
    /// not decode; [`SnapshotError::ShapeMismatch`] when the pages and
    /// the inline records do not cover the id range exactly once, a
    /// sealed page holds an unresolved id, the outcome and type tables
    /// differ in length, an arrival-order id lies outside them, or the
    /// per-type counters do not number `n_types`.
    pub(crate) fn restore(
        stats: &Value,
        pages: &[Arc<Page>],
        n_types: usize,
    ) -> Result<(SimStats, OutcomePages), SnapshotError> {
        let inline = SimStats::from_value(stats)?;
        let bodies = pages
            .iter()
            .map(|p| PageBody::from_value(p.body()))
            .collect::<Result<Vec<_>, _>>()?;
        let cover = SnapshotError::ShapeMismatch {
            what: "the sealed pages and the inline records do not cover \
                   the outcome history exactly once",
        };
        let outcomes = stitch(
            &inline.outcomes,
            bodies.iter().map(|b| (b.index, &b.outcomes)),
        )
        .ok_or(cover.clone())?;
        let types =
            stitch(&inline.types, bodies.iter().map(|b| (b.index, &b.types)))
                .ok_or(cover.clone())?;
        let arrival_order = stitch(
            &inline.arrival_order,
            bodies.iter().map(|b| (b.index, &b.arrival_order)),
        )
        .ok_or(cover)?;
        if bodies.iter().any(|b| {
            b.outcomes.iter().any(Option::is_none)
                || b.types.iter().any(Option::is_none)
        }) {
            return Err(SnapshotError::ShapeMismatch {
                what: "a sealed page holds an unresolved task",
            });
        }
        if outcomes.len() != types.len() {
            return Err(SnapshotError::ShapeMismatch {
                what: "the outcome and type tables differ in length",
            });
        }
        if arrival_order.iter().any(|id| id.0 >= outcomes.len() as u64) {
            return Err(SnapshotError::ShapeMismatch {
                what: "an arrival-order id lies outside the outcome table",
            });
        }
        if inline.per_type.len() != n_types {
            return Err(SnapshotError::ShapeMismatch {
                what: "the per-type counters do not match the PET task types",
            });
        }
        let mut cache = OutcomePages {
            sealed: vec![None; outcomes.len() / PAGE_LEN],
        };
        for (body, page) in bodies.iter().zip(pages) {
            // `stitch` placed every page inside the tables.
            cache.sealed[body.index as usize] = Some(Arc::clone(page));
        }
        let stats = SimStats {
            outcomes,
            types,
            arrival_order,
            ..inline
        };
        Ok((stats, cache))
    }
}

/// Interleaves sealed pages, given as `(index, records)` in increasing
/// index order, with the inline records that fill every other page
/// slot. `None` when a page is not a full page, comes out of order or
/// twice, or starts past the end of the inline records.
fn stitch<'p, T: Copy + 'p>(
    inline: &[T],
    pages: impl Iterator<Item = (u64, &'p Vec<T>)>,
) -> Option<Vec<T>> {
    let mut out = Vec::new();
    let mut rest = inline;
    for (index, records) in pages {
        let start = usize::try_from(index).ok()?.checked_mul(PAGE_LEN)?;
        let gap = start.checked_sub(out.len())?;
        if records.len() != PAGE_LEN || gap > rest.len() {
            return None;
        }
        out.extend_from_slice(&rest[..gap]);
        out.extend_from_slice(records);
        rest = &rest[gap..];
    }
    out.extend_from_slice(rest);
    Some(out)
}

impl SimStats {
    /// Whether full page `k` (one the arrival order already covers)
    /// may seal: every id in it arrived and resolved.
    fn page_complete(&self, k: usize) -> bool {
        let ids = k * PAGE_LEN..(k + 1) * PAGE_LEN;
        self.outcomes[ids.clone()].iter().all(Option::is_some)
            && self.types[ids].iter().all(Option::is_some)
    }

    /// The wire body of page `k`.
    fn page_body(&self, k: usize) -> PageBody {
        let ids = k * PAGE_LEN..(k + 1) * PAGE_LEN;
        PageBody {
            index: k as u64,
            outcomes: self.outcomes[ids.clone()].to_vec(),
            types: self.types[ids.clone()].to_vec(),
            arrival_order: self.arrival_order[ids].to_vec(),
        }
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

    #[test]
    fn pages_seal_independently_and_restore_the_same_record() {
        let s = paged_record();
        let mut cache = OutcomePages::default();
        let (inline, pages) = cache.capture(&s);
        // Page 0 waits on id 10; pages 1 and 2 seal; the tail stays
        // inline with page 0.
        assert_eq!(pages.len(), 2);
        let Value::Array(open) = inline.get_field("outcomes").unwrap() else {
            panic!("outcomes is an array");
        };
        assert_eq!(open.len(), PAGE_LEN + 8);
        let (back, _) = OutcomePages::restore(&inline, &pages, 2)
            .expect("the capture restores");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&s).unwrap()
        );
        // A later capture shares both pages and rebuilds none.
        let (_, again) = cache.capture(&s);
        assert!(again.iter().zip(&pages).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn page_less_capture_encodes_as_the_record_itself() {
        let mut s = SimStats::new(0, 1);
        for id in 0..50u64 {
            s.record_arrival(&task(id, 0));
            s.record_outcome(&task(id, 0), TaskOutcome::DroppedReactive);
        }
        let (inline, pages) = OutcomePages::default().capture(&s);
        assert!(pages.is_empty());
        assert_eq!(inline, s.to_value());
        let (back, _) =
            OutcomePages::restore(&s.to_value(), &[], 1).expect("restores");
        assert_eq!(back.to_value(), s.to_value());
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
