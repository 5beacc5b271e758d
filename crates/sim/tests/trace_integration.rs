//! Integration: tracing a full simulation run captures a coherent task
//! lifecycle story.

use taskprune_model::{
    BinSpec, Cluster, PetMatrix, SimTime, Task, TaskId, TaskOutcome, TaskTypeId,
};
use taskprune_prob::Pmf;
use taskprune_sim::{
    Assignment, BatchMapper, Decision, GatewayBuilder, MappingStrategy,
    NoPruning, SimConfig, SimStats, Sink, SystemView, TraceEvent, TraceLog,
};

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
            .take(view.free_slots(taskprune_model::MachineId(0)))
            .map(|t| Assignment {
                task: t.id,
                machine: taskprune_model::MachineId(0),
            })
            .collect()
    }
}

/// A single-cluster run (a one-shard federation) of one machine on
/// which every task takes exactly 2 bins, observed by `sink`.
fn run_one_shard<S: Sink>(tasks: &[Task], sink: fn() -> S) -> SimStats {
    let pet = PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)]);
    let cluster = Cluster::one_per_type(1);
    GatewayBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(1))
        .strategy_with(|_| MappingStrategy::Batch(Box::new(ToZero)))
        .pruner_with(|_| Box::new(NoPruning))
        .sink_with(move |_| sink())
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied())
        .per_shard
        .swap_remove(0)
}

fn run_traced(tasks: &[Task]) -> SimStats {
    run_one_shard(tasks, || TraceLog::new(10_000, 1))
}

#[test]
fn lifecycle_is_coherent_for_a_completed_task() {
    let tasks: Vec<Task> = (0..5)
        .map(|i| {
            Task::new(i, TaskTypeId(0), SimTime(i * 400), SimTime(100_000))
        })
        .collect();
    let stats = run_traced(&tasks);
    assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 5);
    let trace = stats.trace.as_ref().expect("tracing was enabled");

    for id in 0..5 {
        let history = trace.task_history(TaskId(id));
        // Arrived → Decided(Assign) → Started → Completed, in order.
        assert_eq!(history.len(), 4, "task {id}: {history:?}");
        assert!(matches!(history[0].1, TraceEvent::Arrived { .. }));
        assert!(matches!(
            history[1].1,
            TraceEvent::Decided(Decision::Assign { .. })
        ));
        assert!(matches!(history[2].1, TraceEvent::Started { .. }));
        assert!(matches!(
            history[3].1,
            TraceEvent::Completed { on_time: true, .. }
        ));
        // Timestamps never decrease.
        assert!(history.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

#[test]
fn dropped_tasks_end_with_a_drop_event() {
    // Burst of 30 tasks with ~3 completions' worth of slack on one
    // machine: most must expire in queue.
    let tasks: Vec<Task> = (0..30)
        .map(|i| Task::new(i, TaskTypeId(0), SimTime(0), SimTime(800)))
        .collect();
    let stats = run_traced(&tasks);
    let trace = stats.trace.as_ref().expect("tracing was enabled");
    let dropped = stats.count(TaskOutcome::DroppedReactive);
    assert!(dropped > 10);
    let mut drop_events = 0;
    for id in 0..30 {
        if stats.outcome(TaskId(id)) == Some(TaskOutcome::DroppedReactive) {
            let history = trace.task_history(TaskId(id));
            assert!(matches!(
                history.last().expect("non-empty history").1,
                TraceEvent::Decided(Decision::DropReactive { .. })
            ));
            drop_events += 1;
        }
    }
    assert_eq!(drop_events, dropped);
}

#[test]
fn snapshots_observe_queue_pressure() {
    let tasks: Vec<Task> = (0..40)
        .map(|i| Task::new(i, TaskTypeId(0), SimTime(0), SimTime(50_000)))
        .collect();
    let stats = run_traced(&tasks);
    let trace = stats.trace.as_ref().expect("tracing was enabled");
    assert!(!trace.snapshots().is_empty());
    // A 40-task burst onto one machine must show batch-queue pressure.
    assert!(trace.peak_batch_queue() > 10);
    // Snapshots are chronological.
    assert!(trace.snapshots().windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn tracing_does_not_change_outcomes() {
    let tasks: Vec<Task> = (0..50)
        .map(|i| {
            Task::new(
                i,
                TaskTypeId(0),
                SimTime(i * 120),
                SimTime(i * 120 + 900),
            )
        })
        .collect();
    let traced = run_traced(&tasks);
    let untraced = run_one_shard(&tasks, || taskprune_sim::NullSink);

    assert_eq!(traced.robustness_pct(0), untraced.robustness_pct(0));
    for i in 0..50 {
        assert_eq!(traced.outcome(TaskId(i)), untraced.outcome(TaskId(i)));
    }
}
