//! Execution tracing and system time-series.
//!
//! When installed as the sink ([`crate::SchedulerBuilder::sink`]), the
//! log records every task lifecycle transition plus a periodically
//! sampled snapshot of the system's queue state. Traces feed debugging, the example binaries'
//! surge plots, and post-hoc analysis of *why* a configuration won —
//! e.g. watching the batch queue drain when the Toggle engages.
//!
//! The log is bounded: beyond `capacity` lifecycle events the earliest
//! are discarded (a ring), so tracing a 25 K-task run cannot exhaust
//! memory by accident.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use taskprune_model::{MachineId, SimTime, TaskId};

/// One task-lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The task arrived at the resource allocator.
    Arrived {
        /// Task id.
        task: TaskId,
    },
    /// The task was committed to a machine queue.
    Mapped {
        /// Task id.
        task: TaskId,
        /// Destination machine.
        machine: MachineId,
    },
    /// The pruner vetoed a proposed mapping (Step 10).
    Deferred {
        /// Task id.
        task: TaskId,
    },
    /// The task began executing.
    Started {
        /// Task id.
        task: TaskId,
        /// Executing machine.
        machine: MachineId,
    },
    /// The task finished executing.
    Completed {
        /// Task id.
        task: TaskId,
        /// Whether it met its deadline.
        on_time: bool,
    },
    /// Reactive drop: the deadline passed while pending (Step 1).
    DroppedReactive {
        /// Task id.
        task: TaskId,
    },
    /// Proactive drop: pruned from a machine queue (Step 6).
    DroppedProactive {
        /// Task id.
        task: TaskId,
    },
    /// Cancelled mid-execution (optional policy).
    Cancelled {
        /// Task id.
        task: TaskId,
    },
    /// Rejected at arrival (immediate mode, all queues full).
    Rejected {
        /// Task id.
        task: TaskId,
    },
}

/// A sampled snapshot of system occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Tasks waiting in the batch/arrival queue.
    pub batch_queue_len: usize,
    /// Tasks waiting in machine queues (sum).
    pub waiting_total: usize,
    /// Machines currently executing a task.
    pub busy_machines: usize,
}

/// The bounded trace log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceLog {
    capacity: usize,
    /// Snapshot cadence: one [`QueueSnapshot`] every N mapping events.
    snapshot_every: u64,
    events: VecDeque<(SimTime, TraceEvent)>,
    snapshots: Vec<QueueSnapshot>,
    /// Lifecycle events discarded by the ring bound.
    pub dropped_events: u64,
}

impl TraceLog {
    /// Creates a log bounded to `capacity` lifecycle events, sampling a
    /// queue snapshot every `snapshot_every` mapping events.
    pub fn new(capacity: usize, snapshot_every: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            snapshot_every: snapshot_every.max(1),
            events: VecDeque::with_capacity(capacity.min(4_096)),
            snapshots: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Default sizing: 64 K events, one snapshot per 16 mapping events.
    pub fn with_defaults() -> Self {
        Self::new(65_536, 16)
    }

    /// Appends a lifecycle event.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back((at, event));
    }

    /// Whether a snapshot is due at the given mapping-event ordinal.
    pub fn snapshot_due(&self, mapping_event: u64) -> bool {
        mapping_event.is_multiple_of(self.snapshot_every)
    }

    /// Appends a queue snapshot.
    pub fn record_snapshot(&mut self, snapshot: QueueSnapshot) {
        self.snapshots.push(snapshot);
    }

    /// Lifecycle events in order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.events.iter()
    }

    /// Number of retained lifecycle events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sampled occupancy series.
    pub fn snapshots(&self) -> &[QueueSnapshot] {
        &self.snapshots
    }

    /// Full lifecycle of one task, in order.
    pub fn task_history(&self, task: TaskId) -> Vec<(SimTime, TraceEvent)> {
        self.events
            .iter()
            .filter(|(_, e)| {
                matches!(e,
                    TraceEvent::Arrived { task: t }
                    | TraceEvent::Mapped { task: t, .. }
                    | TraceEvent::Deferred { task: t }
                    | TraceEvent::Started { task: t, .. }
                    | TraceEvent::Completed { task: t, .. }
                    | TraceEvent::DroppedReactive { task: t }
                    | TraceEvent::DroppedProactive { task: t }
                    | TraceEvent::Cancelled { task: t }
                    | TraceEvent::Rejected { task: t }
                    if *t == task
                )
            })
            .copied()
            .collect()
    }

    /// Peak batch-queue length across snapshots (0 when none sampled).
    pub fn peak_batch_queue(&self) -> usize {
        self.snapshots
            .iter()
            .map(|s| s.batch_queue_len)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: u64) -> TraceEvent {
        TraceEvent::Arrived { task: TaskId(task) }
    }

    #[test]
    fn records_in_order() {
        let mut log = TraceLog::new(16, 1);
        log.record(SimTime(1), ev(0));
        log.record(SimTime(2), ev(1));
        let all: Vec<_> = log.events().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, SimTime(1));
        assert_eq!(all[1].0, SimTime(2));
        assert!(!log.is_empty());
    }

    #[test]
    fn ring_bound_discards_oldest() {
        let mut log = TraceLog::new(3, 1);
        for i in 0..5 {
            log.record(SimTime(i), ev(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped_events, 2);
        let first = log.events().next().unwrap();
        assert_eq!(first.0, SimTime(2));
    }

    #[test]
    fn snapshot_cadence() {
        let log = TraceLog::new(8, 4);
        assert!(log.snapshot_due(0));
        assert!(!log.snapshot_due(1));
        assert!(!log.snapshot_due(3));
        assert!(log.snapshot_due(4));
    }

    #[test]
    fn task_history_filters_by_id() {
        let mut log = TraceLog::new(32, 1);
        log.record(SimTime(1), TraceEvent::Arrived { task: TaskId(7) });
        log.record(SimTime(2), TraceEvent::Arrived { task: TaskId(8) });
        log.record(
            SimTime(3),
            TraceEvent::Mapped {
                task: TaskId(7),
                machine: MachineId(2),
            },
        );
        log.record(
            SimTime(9),
            TraceEvent::Completed {
                task: TaskId(7),
                on_time: true,
            },
        );
        let history = log.task_history(TaskId(7));
        assert_eq!(history.len(), 3);
        assert!(matches!(history[1].1, TraceEvent::Mapped { .. }));
        assert!(log.task_history(TaskId(99)).is_empty());
    }

    #[test]
    fn peak_batch_queue() {
        let mut log = TraceLog::new(8, 1);
        assert_eq!(log.peak_batch_queue(), 0);
        for (t, len) in [(1u64, 3usize), (2, 9), (3, 4)] {
            log.record_snapshot(QueueSnapshot {
                at: SimTime(t),
                batch_queue_len: len,
                waiting_total: 0,
                busy_machines: 0,
            });
        }
        assert_eq!(log.peak_batch_queue(), 9);
    }

    #[test]
    fn serde_roundtrip() {
        let mut log = TraceLog::new(4, 2);
        log.record(SimTime(5), ev(1));
        let json = serde_json::to_string(&log).unwrap();
        let back: TraceLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
    }
}
