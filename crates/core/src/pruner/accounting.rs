//! The Accounting module (Fig. 4): task meta-data gathered from the
//! resource allocation system.
//!
//! Accounting is the mechanism's only window into the system: it digests
//! each mapping event's [`EventReport`] into the counters the Toggle and
//! Fairness modules consume, and keeps lifetime totals for reporting.

use serde::{Deserialize, Serialize};
use taskprune_sim::EventReport;

/// Lifetime and per-event counters of task outcomes. The lifetime
/// totals saturate, since a restored checkpoint may carry any count.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accounting {
    /// Deadline misses observed at the most recent mapping event (the
    /// Toggle's input signal).
    misses_last_event: usize,
    /// Lifetime on-time completions.
    pub total_on_time: u64,
    /// Lifetime late completions.
    pub total_late: u64,
    /// Lifetime reactive (deadline) drops.
    pub total_reactive_drops: u64,
    /// Lifetime proactive (probabilistic) drops.
    pub total_proactive_drops: u64,
    /// Mapping events observed.
    pub events: u64,
}

impl Accounting {
    /// Creates zeroed accounting state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Digests one mapping event's report.
    pub fn observe(&mut self, report: &EventReport) {
        self.events = self.events.saturating_add(1);
        self.misses_last_event = report.deadline_misses();
        for (_, on_time) in &report.completed {
            let total = if *on_time {
                &mut self.total_on_time
            } else {
                &mut self.total_late
            };
            *total = total.saturating_add(1);
        }
        let drops = report.dropped_reactive.len() + report.cancelled.len();
        self.total_reactive_drops =
            self.total_reactive_drops.saturating_add(drops as u64);
    }

    /// Registers a proactive drop decided by the Pruner.
    pub fn observe_proactive_drop(&mut self) {
        self.total_proactive_drops =
            self.total_proactive_drops.saturating_add(1);
    }

    /// Deadline misses at the most recent event — what the Toggle
    /// thresholds on ("the number of tasks missing their deadlines since
    /// the previous mapping event").
    pub fn misses_since_last_event(&self) -> usize {
        self.misses_last_event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::{SimTime, Task, TaskTypeId};

    fn task(id: u64) -> Task {
        Task::new(id, TaskTypeId(0), SimTime(0), SimTime(100))
    }

    #[test]
    fn digests_event_reports() {
        let mut acc = Accounting::new();
        let report = EventReport {
            now: SimTime(50),
            completed: vec![(task(0), true), (task(1), false)],
            dropped_reactive: vec![task(2), task(3)],
            cancelled: vec![],
        };
        acc.observe(&report);
        assert_eq!(acc.total_on_time, 1);
        assert_eq!(acc.total_late, 1);
        assert_eq!(acc.total_reactive_drops, 2);
        // Misses = 1 late + 2 reactive.
        assert_eq!(acc.misses_since_last_event(), 3);
        assert_eq!(acc.events, 1);
    }

    #[test]
    fn miss_counter_resets_each_event() {
        let mut acc = Accounting::new();
        acc.observe(&EventReport {
            now: SimTime(1),
            completed: vec![],
            dropped_reactive: vec![task(0)],
            cancelled: vec![],
        });
        assert_eq!(acc.misses_since_last_event(), 1);
        acc.observe(&EventReport {
            now: SimTime(2),
            completed: vec![(task(1), true)],
            dropped_reactive: vec![],
            cancelled: vec![],
        });
        assert_eq!(acc.misses_since_last_event(), 0);
        assert_eq!(acc.total_reactive_drops, 1);
    }

    #[test]
    fn proactive_drops_are_counted_separately() {
        let mut acc = Accounting::new();
        acc.observe_proactive_drop();
        acc.observe_proactive_drop();
        assert_eq!(acc.total_proactive_drops, 2);
        assert_eq!(acc.total_reactive_drops, 0);
    }
}
