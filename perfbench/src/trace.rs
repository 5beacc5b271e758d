//! The traced run's instruments: transparent timing wrappers around
//! the plug-in traits the builders accept, and an in-memory span
//! recorder.
//!
//! Every call the benchmark loop makes into the program that runs
//! scheduler work (a `Gateway` call, or a `Supervisor` step) is a
//! *parent* span. The plug-in calls it causes — mapper rounds, pruner
//! hooks, routing — are its *child* spans and share the parent's id. A
//! layer's self time is its span time minus its children's time.
//!
//! Every span is folded into per-layer and per-call totals as it
//! closes. The spans themselves are kept for the start of one trial
//! (the first of a run's first traced pass, up to [`MAX_KEPT`] records)
//! and written out when the run ends: a whole pass of `batch_15k` makes
//! millions of `should_defer` spans, and keeping them all would make
//! the traced run measure its own memory.
//!
//! The wrappers must forward **every** trait method, including the
//! defaulted ones: a wrapper that inherits a default measures a
//! different program (a missing `snapshot_state` checkpoints `Null`; a
//! missing `is_stateless` sends round-robin down the view-building
//! path). `tests::wrappers_forward_every_method` pins this.

use crate::clock::Latencies;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;
use taskprune_model::{MachineId, Task, TaskId};
use taskprune_sim::{
    Assignment, BatchMapper, EventReport, ImmediateMapper, MappingStrategy,
    Pruner, RoutePolicy, ShardView, SystemView,
};

/// A plug-in layer whose calls are child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `BatchMapper::select`/`select_into`: one mapper round.
    Select,
    /// `ImmediateMapper::place`.
    Place,
    /// `Pruner::begin_event`.
    Begin,
    /// `Pruner::select_drops`/`select_drops_into` (Eq. 1 drop planning).
    Drops,
    /// `Pruner::should_defer` (one Eq. 2 deferral verdict).
    Defer,
    /// `RoutePolicy::route`/`route_stateless`.
    Route,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

const LAYER_NAMES: [&str; LAYERS] = [
    "mapper.select",
    "mapper.place",
    "pruner.begin",
    "pruner.drops",
    "pruner.defer",
    "route",
];

/// A call the benchmark loop makes into the program: a parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Gateway::try_push_arrival` that routed the task to a shard.
    PushRouted,
    /// `Gateway::try_push_arrival` absorbed by the reuse gate.
    PushAbsorbed,
    /// `Gateway::complete_internal`.
    Complete,
    /// `Gateway::wakeup`.
    Wakeup,
    /// `Gateway::drain_starts` and `drain_decisions`, back to back.
    Drain,
    /// `Gateway::finish` / `Supervisor::finish_stream`.
    Finish,
    /// One `Supervisor::run_until` step (one arrival plus the events
    /// before it).
    Step,
}

/// Spans kept for writing out: whole span trees are kept until this
/// many records exist (about 10 MB of text).
const MAX_KEPT: usize = 250_000;

/// Number of [`Call`]s.
pub const CALLS: usize = 7;

const CALL_NAMES: [&str; CALLS] = [
    "gateway.push_routed",
    "gateway.push_absorbed",
    "gateway.complete",
    "gateway.wakeup",
    "gateway.drain",
    "finish",
    "supervisor.step",
];

/// Work done and time spent by one plug-in layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds inside the calls.
    pub busy_ns: u64,
    /// Items the calls consumed or produced: candidates scanned per
    /// mapper round, drops chosen, deferrals granted.
    pub items: u64,
    /// Mapper proposals returned (mapper rounds only).
    pub proposals: u64,
}

/// Totals of one kind of parent span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Spans closed.
    pub calls: u64,
    /// Nanoseconds inside them.
    pub dur_ns: u64,
    /// Nanoseconds inside their children.
    pub child_ns: u64,
}

/// Per-pass totals: what [`take_pass`] returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTotals {
    /// Per [`Layer`], indexed by `Layer as usize`.
    pub layers: [LayerStats; LAYERS],
    /// Per [`Call`], indexed by `Call as usize`.
    pub calls: [CallStats; CALLS],
}

/// Durations of the parent spans whose percentiles the report prints.
#[derive(Default)]
pub struct CallLatencies {
    /// `Gateway::complete_internal`.
    pub complete: Latencies,
    /// Pushes the reuse gate absorbed.
    pub absorbed: Latencies,
    /// Pushes routed to a shard.
    pub routed: Latencies,
}

/// One kept span, parent or child.
struct Record {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

struct Recorder {
    origin: Instant,
    totals: PassTotals,
    latencies: CallLatencies,
    open_id: u64,
    open_record: Option<usize>,
    open_child_ns: u64,
    keeping: bool,
    kept: Vec<Record>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            totals: PassTotals::default(),
            latencies: CallLatencies::default(),
            open_id: 0,
            open_record: None,
            open_child_ns: 0,
            keeping: false,
            kept: Vec::new(),
        }
    }
}

impl Recorder {
    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts or stops keeping individual spans (they are always folded
/// into the totals).
pub fn keep_spans(on: bool) {
    RECORDER.with(|r| r.borrow_mut().keeping = on);
}

/// Opens a parent span for the call with id `id`; pass the returned
/// instant to [`close`].
pub fn open(id: u64) -> Instant {
    let start = Instant::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open_id = id;
        r.open_child_ns = 0;
        r.open_record = None;
        if r.keeping && r.kept.len() < MAX_KEPT {
            let start_ns = r.since_origin(start);
            r.open_record = Some(r.kept.len());
            r.kept.push(Record {
                name: "",
                id,
                parent: None,
                start_ns,
                dur_ns: 0,
            });
        }
    });
    start
}

/// Closes the parent span opened at `start` as a `call`.
pub fn close(call: Call, start: Instant) {
    let dur_ns = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let child_ns = r.open_child_ns;
        let c = &mut r.totals.calls[call as usize];
        c.calls += 1;
        c.dur_ns += dur_ns;
        c.child_ns += child_ns;
        match call {
            Call::Complete => r.latencies.complete.record(dur_ns),
            Call::PushAbsorbed => r.latencies.absorbed.record(dur_ns),
            Call::PushRouted => r.latencies.routed.record(dur_ns),
            _ => {}
        }
        if let Some(i) = r.open_record.take() {
            r.kept[i].name = CALL_NAMES[call as usize];
            r.kept[i].dur_ns = dur_ns;
        }
    });
}

fn child(layer: Layer, start: Instant, items: u64, proposals: u64) {
    let dur_ns = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open_child_ns += dur_ns;
        let l = &mut r.totals.layers[layer as usize];
        l.calls += 1;
        l.busy_ns += dur_ns;
        l.items += items;
        l.proposals += proposals;
        if let Some(parent) = r.open_record {
            let start_ns = r.since_origin(start);
            let id = r.open_id;
            r.kept.push(Record {
                name: LAYER_NAMES[layer as usize],
                id,
                parent: Some(parent),
                start_ns,
                dur_ns,
            });
        }
    });
}

/// Takes the totals since the last call.
pub fn take_pass() -> PassTotals {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().totals))
}

/// Takes the run's span-duration samples.
pub fn take_latencies() -> CallLatencies {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().latencies))
}

/// Writes the kept spans as tab-separated lines (index, name, id,
/// parent index or `-`, start and duration in nanoseconds) to `path`,
/// and returns how many there were.
///
/// # Errors
/// When the file cannot be written.
pub fn write_kept(path: &std::path::Path) -> std::io::Result<usize> {
    let kept = RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().kept));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span\tname\tid\tparent\tstart_ns\tdur_ns")?;
    for (i, s) in kept.iter().enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.id, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()?;
    Ok(kept.len())
}

/// Wraps a mapping strategy, keeping its mode.
pub fn strategy(inner: MappingStrategy) -> MappingStrategy {
    match inner {
        MappingStrategy::Batch(m) => {
            MappingStrategy::Batch(Box::new(TracedBatch(m)))
        }
        MappingStrategy::Immediate(m) => {
            MappingStrategy::Immediate(Box::new(TracedImmediate(m)))
        }
    }
}

/// Timing wrapper around a [`BatchMapper`].
pub struct TracedBatch(pub Box<dyn BatchMapper>);

impl BatchMapper for TracedBatch {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn select(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
    ) -> Vec<Assignment> {
        let start = Instant::now();
        let out = self.0.select(view, candidates);
        child(
            Layer::Select,
            start,
            candidates.len() as u64,
            out.len() as u64,
        );
        out
    }

    fn select_into(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
        out: &mut Vec<Assignment>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.0.select_into(view, candidates, out);
        child(
            Layer::Select,
            start,
            candidates.len() as u64,
            (out.len() - before) as u64,
        );
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// Timing wrapper around an [`ImmediateMapper`].
pub struct TracedImmediate(pub Box<dyn ImmediateMapper>);

impl ImmediateMapper for TracedImmediate {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place(&mut self, view: &SystemView<'_>, task: &Task) -> MachineId {
        let start = Instant::now();
        let machine = self.0.place(view, task);
        child(Layer::Place, start, 0, 0);
        machine
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// Timing wrapper around a [`Pruner`].
pub struct TracedPruner(pub Box<dyn Pruner>);

impl Pruner for TracedPruner {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn begin_event(&mut self, report: &EventReport) {
        let start = Instant::now();
        self.0.begin_event(report);
        child(Layer::Begin, start, 0, 0);
    }

    fn select_drops(
        &mut self,
        view: &SystemView<'_>,
    ) -> Vec<(MachineId, TaskId)> {
        let start = Instant::now();
        let drops = self.0.select_drops(view);
        child(Layer::Drops, start, drops.len() as u64, 0);
        drops
    }

    fn select_drops_into(
        &mut self,
        view: &SystemView<'_>,
        out: &mut Vec<(MachineId, TaskId)>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.0.select_drops_into(view, out);
        child(Layer::Drops, start, (out.len() - before) as u64, 0);
    }

    fn should_defer(&mut self, task: &Task, chance: f64) -> bool {
        let start = Instant::now();
        let defer = self.0.should_defer(task, chance);
        child(Layer::Defer, start, u64::from(defer), 0);
        defer
    }

    fn tighten_threshold(&mut self, factor: f64) {
        self.0.tighten_threshold(factor);
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

/// Timing wrapper around a [`RoutePolicy`].
pub struct TracedRoute(pub Box<dyn RoutePolicy>);

impl RoutePolicy for TracedRoute {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, shards: &[ShardView<'_>], task: &Task) -> usize {
        let start = Instant::now();
        let shard = self.0.route(shards, task);
        child(Layer::Route, start, 0, 0);
        shard
    }

    fn is_stateless(&self) -> bool {
        self.0.is_stateless()
    }

    fn route_stateless(&mut self, n_shards: usize, task: &Task) -> usize {
        let start = Instant::now();
        let shard = self.0.route_stateless(n_shards, task);
        child(Layer::Route, start, 0, 0);
        shard
    }

    fn snapshot_state(&self) -> serde::Value {
        self.0.snapshot_state()
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.0.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use taskprune_model::SimTime;

    /// An inner plug-in that overrides every method and logs which
    /// ones the wrapper reached.
    #[derive(Clone, Default)]
    struct Probe(Arc<Mutex<Vec<&'static str>>>);

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.0.lock().expect("probe log lock").push(method);
        }

        fn log(&self) -> Vec<&'static str> {
            self.0.lock().expect("probe log lock").clone()
        }
    }

    impl BatchMapper for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn select(
            &mut self,
            _: &SystemView<'_>,
            _: &[Task],
        ) -> Vec<Assignment> {
            self.hit("select");
            Vec::new()
        }
        fn select_into(
            &mut self,
            _: &SystemView<'_>,
            _: &[Task],
            _: &mut Vec<Assignment>,
        ) {
            self.hit("select_into");
        }
        fn snapshot_state(&self) -> serde::Value {
            self.hit("snapshot_state");
            serde::Value::UInt(7)
        }
        fn restore_state(
            &mut self,
            _: &serde::Value,
        ) -> Result<(), serde::Error> {
            self.hit("restore_state");
            Ok(())
        }
    }

    impl ImmediateMapper for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn place(&mut self, _: &SystemView<'_>, _: &Task) -> MachineId {
            self.hit("place");
            MachineId(0)
        }
        fn snapshot_state(&self) -> serde::Value {
            self.hit("snapshot_state");
            serde::Value::UInt(7)
        }
        fn restore_state(
            &mut self,
            _: &serde::Value,
        ) -> Result<(), serde::Error> {
            self.hit("restore_state");
            Ok(())
        }
    }

    impl Pruner for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn begin_event(&mut self, _: &EventReport) {
            self.hit("begin_event");
        }
        fn select_drops(
            &mut self,
            _: &SystemView<'_>,
        ) -> Vec<(MachineId, TaskId)> {
            self.hit("select_drops");
            Vec::new()
        }
        fn select_drops_into(
            &mut self,
            _: &SystemView<'_>,
            _: &mut Vec<(MachineId, TaskId)>,
        ) {
            self.hit("select_drops_into");
        }
        fn should_defer(&mut self, _: &Task, _: f64) -> bool {
            self.hit("should_defer");
            true
        }
        fn tighten_threshold(&mut self, _: f64) {
            self.hit("tighten_threshold");
        }
        fn snapshot_state(&self) -> serde::Value {
            self.hit("snapshot_state");
            serde::Value::UInt(7)
        }
        fn restore_state(
            &mut self,
            _: &serde::Value,
        ) -> Result<(), serde::Error> {
            self.hit("restore_state");
            Ok(())
        }
    }

    impl RoutePolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn route(&mut self, _: &[ShardView<'_>], _: &Task) -> usize {
            self.hit("route");
            0
        }
        fn is_stateless(&self) -> bool {
            self.hit("is_stateless");
            true
        }
        fn route_stateless(&mut self, _: usize, _: &Task) -> usize {
            self.hit("route_stateless");
            0
        }
        fn snapshot_state(&self) -> serde::Value {
            self.hit("snapshot_state");
            serde::Value::UInt(7)
        }
        fn restore_state(
            &mut self,
            _: &serde::Value,
        ) -> Result<(), serde::Error> {
            self.hit("restore_state");
            Ok(())
        }
    }

    #[test]
    fn wrappers_forward_every_method() {
        let pet =
            taskprune_workload::PetGenConfig::paper_heterogeneous(1).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let queues = taskprune_sim::queue_testing::make_queues(&cluster, 4, 64);
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let task = Task::new(
            0,
            taskprune_model::TaskTypeId(0),
            SimTime(0),
            SimTime(100),
        );
        let state = serde::Value::Null;

        let probe = Probe::default();
        let mut batch = TracedBatch(Box::new(probe.clone()));
        assert_eq!(BatchMapper::name(&batch), "probe");
        batch.select(&view, &[task]);
        batch.select_into(&view, &[task], &mut Vec::new());
        assert_eq!(BatchMapper::snapshot_state(&batch), serde::Value::UInt(7));
        BatchMapper::restore_state(&mut batch, &state).expect("forwarded");
        assert_eq!(
            probe.log(),
            ["select", "select_into", "snapshot_state", "restore_state"]
        );

        let probe = Probe::default();
        let mut immediate = TracedImmediate(Box::new(probe.clone()));
        immediate.place(&view, &task);
        assert_eq!(
            ImmediateMapper::snapshot_state(&immediate),
            serde::Value::UInt(7)
        );
        ImmediateMapper::restore_state(&mut immediate, &state)
            .expect("forwarded");
        assert_eq!(probe.log(), ["place", "snapshot_state", "restore_state"]);

        let probe = Probe::default();
        let mut pruner = TracedPruner(Box::new(probe.clone()));
        pruner.begin_event(&EventReport::default());
        pruner.select_drops(&view);
        pruner.select_drops_into(&view, &mut Vec::new());
        assert!(pruner.should_defer(&task, 0.5));
        pruner.tighten_threshold(1.5);
        assert_eq!(Pruner::snapshot_state(&pruner), serde::Value::UInt(7));
        Pruner::restore_state(&mut pruner, &state).expect("forwarded");
        assert_eq!(
            probe.log(),
            [
                "begin_event",
                "select_drops",
                "select_drops_into",
                "should_defer",
                "tighten_threshold",
                "snapshot_state",
                "restore_state"
            ]
        );

        let probe = Probe::default();
        let mut route = TracedRoute(Box::new(probe.clone()));
        route.route(&[], &task);
        assert!(route.is_stateless());
        route.route_stateless(2, &task);
        assert_eq!(RoutePolicy::snapshot_state(&route), serde::Value::UInt(7));
        RoutePolicy::restore_state(&mut route, &state).expect("forwarded");
        assert_eq!(
            probe.log(),
            [
                "route",
                "is_stateless",
                "route_stateless",
                "snapshot_state",
                "restore_state"
            ]
        );
    }
}
