//! Per-shard replayable event logs — the crash-failover half of the
//! elastic federation.
//!
//! Everything a driver does to a shard core between checkpoints is one
//! of seven [`JournalOp`]s: an arrival push, a completion, a deadline
//! wakeup, a reuse absorption, the two halves of a steal, and an
//! overload-ladder step. `JournalOp::apply` is the one place an
//! operation becomes core calls: every driver's completions and
//! wakeups, the federated drivers' routed arrivals, and
//! [`ShardJournal::replay`] all go through it (the single-shard
//! [`crate::Engine`] pushes its arrivals itself, to keep their typed
//! [`crate::StatsError`]). A [`ShardJournal`] records the
//! stream as [`JournalEntry`] records; replay re-applies it to a core
//! restored from the last [`crate::Snapshot`], reproducing the shard's
//! state bit-identically (the simulator's determinism contract —
//! `tests/crash_failover.rs` pins it).
//!
//! Replay discards the starts and decisions the core re-emits: the
//! surviving coordinator already dispatched them the first time, so
//! its event lanes still hold the corresponding completions. Stale
//! completions (for starts the pruner later cancelled) are recorded
//! and replayed like any other entry — [`crate::SchedulerCore::complete`]
//! rejects them deterministically both times.

use crate::core::SchedulerCore;
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
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
        /// Whether this was a deadline-window merge (vs an exact
        /// duplicate).
        merged: bool,
    },
    /// A batch-queue task stolen *from* this shard at a federation
    /// steal point (see `crate::Consistency` and the gateway's steal
    /// pass). Replay removes the task from the restored batch queue —
    /// the thief's journal holds the matching [`JournalOp::Adopt`].
    Steal {
        /// The shard-internal id of the donated task.
        task: TaskId,
    },
    /// A stolen batch-queue task adopted *by* this shard, already
    /// relabelled to the thief's internal dense id space. Replayed
    /// through the ordinary arrival push (steals carry no machine
    /// commitment by construction).
    Adopt {
        /// The relabelled task exactly as it was adopted.
        task: Task,
    },
    /// An overload-ladder transition applied to this shard's pruner
    /// bias (see [`crate::tenant`]). Journaled so a recovered shard
    /// replays the exact pruning-threshold history between
    /// checkpoints.
    SlaRung {
        /// The rung the federation stepped to.
        rung: u8,
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
            JournalOp::Arrival(task) | JournalOp::Adopt { task } => {
                core.push_arrival(task);
            }
            JournalOp::Completion { machine, task } => {
                return core.complete(machine, task);
            }
            JournalOp::Wakeup => core.wakeup(),
            JournalOp::Piggyback {
                primary,
                task,
                merged,
            } => core.apply_piggyback(primary, task, merged),
            JournalOp::Steal { task } => core.apply_steal(task),
            JournalOp::SlaRung { rung } => core.set_sla_rung(rung),
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
