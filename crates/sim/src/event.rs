//! The event queue driving the simulation.
//!
//! A mapping event fires on every arrival and every completion (§II: "a
//! mapping event occurs when a task completes its execution or when a
//! new task arrives"). Only completions and deadline wakeups are
//! queued: arrivals come from the arrival stream, and a completion due
//! at an arrival's instant fires before the arrival (free capacity
//! before new demand). That rule lives in one place, `Lane::has_due` in
//! the crate-private `lane` module. Within the queue the order is fully
//! deterministic: by time, then completions before wakeups, then by
//! stable ids.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use taskprune_model::{MachineId, SimTime, TaskId};

/// A scheduled simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A machine finishes (or would finish) its running task. The task
    /// id guards against stale events after a cancellation: the core
    /// ignores a completion whose task the machine no longer runs
    /// (tasks execute at most once, so the id identifies the start).
    Completion {
        /// The machine that completes.
        machine: MachineId,
        /// The task whose start this event belongs to.
        task: TaskId,
    },
    /// A synthetic mapping event: scheduled when tasks remain in the
    /// batch queue but no arrival or completion will ever fire again
    /// (every machine idle, all remaining work deferred). Guarantees the
    /// deferred tasks are reconsidered — or reactively dropped — instead
    /// of starving silently.
    Wakeup,
}

impl EventKind {
    /// Sort class: completions first at equal times.
    pub(crate) fn class(&self) -> u8 {
        match self {
            EventKind::Completion { .. } => 0,
            EventKind::Wakeup => 1,
        }
    }

    /// Stable id used as the final tie-breaker.
    pub(crate) fn stable_id(&self) -> u64 {
        match self {
            EventKind::Completion { machine, .. } => machine.0 as u64,
            EventKind::Wakeup => 0,
        }
    }
}

/// An event with its firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// What happens.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.kind.class().cmp(&other.kind.class()))
            .then_with(|| self.kind.stable_id().cmp(&other.kind.stable_id()))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of events in deterministic firing order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<std::cmp::Reverse<Event>>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, event: Event) {
        self.heap.push(std::cmp::Reverse(event));
    }

    /// Removes and returns the next event in firing order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|r| r.0)
    }

    /// Next event without removing it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek().map(|r| &r.0)
    }

    /// Every pending event, in unspecified order (snapshot capture).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter().map(|r| &r.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wakeup(t: u64) -> Event {
        Event {
            time: SimTime(t),
            kind: EventKind::Wakeup,
        }
    }

    fn completion(t: u64, m: u16) -> Event {
        Event {
            time: SimTime(t),
            kind: EventKind::Completion {
                machine: MachineId(m),
                task: TaskId(0),
            },
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(completion(30, 0));
        q.push(wakeup(10));
        q.push(completion(20, 2));
        assert_eq!(q.pop().unwrap().time, SimTime(10));
        assert_eq!(q.pop().unwrap().time, SimTime(20));
        assert_eq!(q.pop().unwrap().time, SimTime(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn completions_precede_wakeups_at_same_time() {
        let mut q = EventQueue::new();
        q.push(wakeup(10));
        q.push(completion(10, 3));
        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Completion { .. }));
    }

    #[test]
    fn stable_ids_break_remaining_ties() {
        let mut q = EventQueue::new();
        q.push(wakeup(10));
        q.push(completion(10, 7));
        q.push(completion(10, 1));
        q.push(completion(10, 4));
        let order: Vec<(u8, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.kind.class(), e.kind.stable_id()))
            .collect();
        assert_eq!(order, vec![(0, 1), (0, 4), (0, 7), (1, 0)]);
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(wakeup(5));
        q.push(completion(1, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().time, SimTime(1));
        assert_eq!(q.len(), 2);
    }
}
