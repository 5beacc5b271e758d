//! Pluggable observability for the scheduler core.
//!
//! The core reports every task-lifecycle transition and periodic queue
//! snapshot to a [`Sink`]. Observability is a *type parameter* of
//! [`crate::SchedulerCore`] and [`crate::Engine`], so the default
//! [`NullSink`] compiles to nothing at all — tracing costs exactly zero
//! when it is off, with no `Option` branch and no virtual dispatch on
//! the hot mapping-event path.
//!
//! [`crate::TraceLog`] implements `Sink`, so tracing is one
//! implementation among any number (metrics exporters, stdout printers,
//! test probes, …), installed with [`crate::SchedulerBuilder::sink`].

use crate::trace::{QueueSnapshot, TraceEvent, TraceLog};
use taskprune_model::SimTime;

/// A consumer of scheduler observability events.
///
/// All methods have no-op defaults: implementations override only what
/// they care about. `snapshot_due` gates snapshot *construction* — when
/// it returns `false` the core does not even assemble the
/// [`QueueSnapshot`], so a sink that ignores snapshots pays nothing for
/// them.
///
/// `Send` because the owning [`crate::SchedulerCore`] may run as a
/// federation shard on a worker thread of the parallel federated
/// driver (one thread at a time — no `Sync` requirement).
pub trait Sink: Send {
    /// Observes one task-lifecycle transition at simulated time `at`.
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        let _ = (at, event);
    }

    /// Whether a queue snapshot should be taken at the given
    /// mapping-event ordinal (1-based, monotonically increasing).
    fn snapshot_due(&self, mapping_event: u64) -> bool {
        let _ = mapping_event;
        false
    }

    /// Observes a sampled queue snapshot (only called after
    /// [`Sink::snapshot_due`] returned `true`).
    fn record_snapshot(&mut self, snapshot: QueueSnapshot) {
        let _ = snapshot;
    }

    /// Converts the sink into a [`TraceLog`] for
    /// [`crate::SimStats::trace`] once the run finishes. Sinks that do
    /// not accumulate a trace return `None` (the default).
    fn into_trace(self) -> Option<TraceLog>
    where
        Self: Sized,
    {
        None
    }

    /// Captures the sink's accumulated state for a federation
    /// snapshot. Sinks that accumulate nothing keep the default
    /// ([`serde::Value::Null`]); accumulating sinks (a [`TraceLog`])
    /// must override this *and* [`Sink::restore_state`] so a restored
    /// shard's trace stays bit-identical.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores state captured by [`Sink::snapshot_state`]. The
    /// default accepts only `Null` (the stateless capture).
    ///
    /// # Errors
    /// When `state` is not what this implementation's
    /// `snapshot_state` produces.
    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        match state {
            serde::Value::Null => Ok(()),
            other => {
                Err(serde::Error::unexpected("null (stateless sink)", other))
            }
        }
    }
}

/// The default sink: ignores everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {}

impl Sink for TraceLog {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        TraceLog::record(self, at, event);
    }

    fn snapshot_due(&self, mapping_event: u64) -> bool {
        TraceLog::snapshot_due(self, mapping_event)
    }

    fn record_snapshot(&mut self, snapshot: QueueSnapshot) {
        TraceLog::record_snapshot(self, snapshot);
    }

    fn into_trace(self) -> Option<TraceLog> {
        Some(self)
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(self)
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        *self = serde::Deserialize::from_value(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::TaskId;

    #[test]
    fn null_sink_discards_and_never_snapshots() {
        let mut sink = NullSink;
        sink.record(SimTime(1), TraceEvent::Arrived { task: TaskId(0) });
        assert!(!sink.snapshot_due(0));
        assert!(!sink.snapshot_due(16));
        assert!(Sink::into_trace(sink).is_none());
    }

    #[test]
    fn trace_log_sink_accumulates_and_converts() {
        let mut log = TraceLog::new(8, 4);
        Sink::record(
            &mut log,
            SimTime(3),
            TraceEvent::Arrived { task: TaskId(9) },
        );
        assert!(Sink::snapshot_due(&log, 4));
        assert!(!Sink::snapshot_due(&log, 5));
        let trace = Sink::into_trace(log).expect("trace log converts");
        assert_eq!(trace.len(), 1);
    }
}
