//! Per-shard replayable event logs — the replay half of shard
//! crash-failover.
//!
//! Everything a driver does to a shard core between checkpoints is one
//! of four [`JournalOp`]s: an arrival push, a completion, a deadline
//! wakeup and a reuse absorption.
//! `JournalOp::apply` is the one place an operation becomes core
//! calls: both drivers' completions, wakeups and routed arrivals, and
//! [`ShardJournal::replay`], all go through it. A [`ShardJournal`]
//! records the stream as [`JournalEntry`] records; replay re-applies it
//! to a core restored from the last [`crate::Snapshot`], reproducing
//! the shard's state bit-identically (the simulator's determinism
//! contract — `tests/crash_failover.rs` pins it).
//!
//! Replay discards the starts and decisions the core re-emits: the
//! surviving coordinator already dispatched them the first time, so
//! its event lanes still hold the corresponding completions. Stale
//! completions (for starts the pruner later cancelled) are recorded
//! and replayed like any other entry — [`crate::SchedulerCore::complete`]
//! rejects them deterministically both times.

use crate::core::SchedulerCore;
use crate::sink::Sink;
use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use taskprune_model::{MachineId, SimTime, Task, TaskId};

/// One operation applied to a shard core, as the driver applied it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A routed arrival, already relabelled to the shard's internal
    /// dense id space.
    Arrival(
        /// The relabelled task exactly as it was pushed.
        Task,
    ),
    /// A sampled task completion delivered back to the shard.
    Completion {
        /// The machine the task ran on.
        machine: MachineId,
        /// The shard-internal id of the completed task.
        task: TaskId,
    },
    /// An idle-cluster deadline wakeup (Fig. 5 reactive pruning).
    Wakeup,
    /// A reuse absorption: a follower delivered onto an in-flight
    /// primary instead of routing (see [`crate::reuse`]). Replayed
    /// through [`crate::SchedulerCore`]'s piggyback path so a
    /// recovered shard rebuilds its follower ledger exactly.
    Piggyback {
        /// The primary's shard-internal id.
        primary: TaskId,
        /// The relabelled follower exactly as it was absorbed.
        task: Task,
    },
}

impl JournalOp {
    /// Applies the operation to `core` at its current clock. Returns
    /// `false` for a stale completion (the core ignored it, so no
    /// mapping event ran) and `true` otherwise.
    pub(crate) fn apply<S: Sink>(
        self,
        core: &mut SchedulerCore<'_, S>,
    ) -> bool {
        match self {
            JournalOp::Arrival(task) => core.push_arrival(task),
            JournalOp::Completion { machine, task } => {
                return core.complete(machine, task);
            }
            JournalOp::Wakeup => core.wakeup(),
            JournalOp::Piggyback { primary, task } => {
                core.apply_piggyback(primary, task)
            }
        }
        true
    }
}

/// A journal record: when the operation was applied, and what it was.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The simulated time the core was advanced to for this operation.
    pub time: SimTime,
    /// The operation itself.
    pub op: JournalOp,
}

/// The replayable operation log of one federation shard.
///
/// Cleared at every checkpoint, so it always holds exactly the suffix
/// of operations since the last [`crate::Snapshot`] — the pair is the
/// shard's complete recovery story.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardJournal {
    entries: Vec<JournalEntry>,
}

impl ShardJournal {
    /// A shared empty journal — what drivers expose for a shard when
    /// journaling is disabled.
    pub const EMPTY: &'static ShardJournal = &ShardJournal {
        entries: Vec::new(),
    };

    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one operation at the given simulated time.
    pub fn record(&mut self, time: SimTime, op: JournalOp) {
        self.entries.push(JournalEntry { time, op });
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded since the last checkpoint.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded operations, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Forgets everything — called when a checkpoint supersedes the
    /// logged prefix.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Checks, before a restore installs it, that the journal replays
    /// on `core` without a panic: its entries are in time order and
    /// none is after `clock`, the shard's restored clock; every
    /// completion names a machine the shard has; and every arrival or
    /// piggyback is a task of a type the PET has, arriving by its
    /// entry's time, under an id `assigned` accepts (one the compactor
    /// gave this shard) that no other journaled arrival carries.
    ///
    /// # Errors
    /// A [`SnapshotError::ShapeMismatch`] naming the first misfit.
    pub(crate) fn check<S: Sink>(
        &self,
        core: &SchedulerCore<'_, S>,
        clock: SimTime,
        assigned: impl Fn(TaskId) -> bool,
    ) -> Result<(), SnapshotError> {
        let shape = |what| Err(SnapshotError::ShapeMismatch { what });
        if self.entries.windows(2).any(|w| w[0].time > w[1].time)
            || self.entries.last().is_some_and(|e| e.time > clock)
        {
            return shape(
                "journaled operations are out of time order or after \
                 their shard's clock",
            );
        }
        let mut arrived = HashSet::new();
        for e in &self.entries {
            let task = match e.op {
                JournalOp::Completion { machine, .. }
                    if machine.0 as usize >= core.n_machines() =>
                {
                    return shape(
                        "a journaled completion names a machine its shard \
                         lacks",
                    );
                }
                JournalOp::Arrival(task)
                | JournalOp::Piggyback { task, .. } => task,
                JournalOp::Completion { .. } | JournalOp::Wakeup => continue,
            };
            let what = if task.type_id.0 as usize >= core.pet().n_task_types() {
                "a journaled arrival has a task type the PET lacks"
            } else if !assigned(task.id) {
                "a journaled arrival has an id the compactor did not assign \
                 to its shard"
            } else if !arrived.insert(task.id) {
                "two journaled arrivals share an id"
            } else if task.arrival > e.time {
                "a journaled arrival arrives after its entry's time"
            } else {
                continue;
            };
            return shape(what);
        }
        Ok(())
    }

    /// Re-applies the logged operations to `core`, advancing its clock
    /// entry by entry. The starts and decisions the core re-emits are
    /// drained and discarded (the surviving coordinator already holds
    /// their consequences); stale completions are rejected by the core
    /// exactly as they were live.
    pub fn replay<S: Sink>(&self, core: &mut SchedulerCore<'_, S>) {
        for entry in &self.entries {
            core.advance_to(entry.time);
            entry.op.apply(core);
            let _ = core.drain_starts();
            let _ = core.drain_decisions();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::TaskTypeId;

    #[test]
    fn journal_records_clears_and_roundtrips() {
        let mut j = ShardJournal::new();
        assert!(j.is_empty());
        j.record(
            SimTime(5),
            JournalOp::Arrival(Task::new(
                0,
                TaskTypeId(0),
                SimTime(5),
                SimTime(50),
            )),
        );
        j.record(
            SimTime(9),
            JournalOp::Completion {
                machine: MachineId(1),
                task: TaskId(0),
            },
        );
        j.record(SimTime(12), JournalOp::Wakeup);
        assert_eq!(j.len(), 3);
        assert_eq!(j.entries()[2].time, SimTime(12));

        let wire = j.to_value();
        let back = ShardJournal::from_value(&wire).expect("decodes");
        assert_eq!(back, j);

        j.clear();
        assert!(j.is_empty());
    }
}
