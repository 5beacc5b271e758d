//! Regression tests for the queue/engine edge cases the first-ever build
//! sweep audited: mapping events firing against empty machine queues,
//! completion events for tasks that were already cancelled or dropped
//! (generation staleness), and estimator queries on degenerate states.
//! None of these may panic, lose tasks, or report out-of-range chances.

use taskprune_model::{
    BinSpec, Cluster, MachineId, PetMatrix, SimTime, Task, TaskId, TaskOutcome,
    TaskTypeId,
};
use taskprune_prob::Pmf;
use taskprune_sim::queue::MachineQueue;
use taskprune_sim::{
    Assignment, BatchMapper, MappingStrategy, NoPruning, SchedulerBuilder,
    SimConfig, SystemView,
};

fn pet_matrix() -> PetMatrix {
    PetMatrix::new(
        BinSpec::new(100),
        1,
        2,
        vec![
            Pmf::from_points(&[(2, 0.5), (4, 0.5)]).unwrap(),
            Pmf::point_mass(3),
        ],
    )
}

fn empty_queue() -> MachineQueue {
    let cluster = Cluster::one_per_type(1);
    MachineQueue::new(cluster.machine(MachineId(0)), 4, 256)
}

fn task(id: u64, type_id: u16, deadline: u64) -> Task {
    Task::new(id, TaskTypeId(type_id), SimTime(0), SimTime(deadline))
}

#[test]
fn mapping_ops_on_empty_queue_are_noops() {
    let pet = pet_matrix();
    let mut q = empty_queue();

    // Every operation a mapping event performs must tolerate a machine
    // whose queue holds nothing at all.
    assert!(q.drop_missed_deadlines(SimTime(1_000_000)).is_empty());
    assert!(q.remove_waiting(&[TaskId(42)]).is_empty());
    assert!(q
        .plan_drops(pet.bin_spec(), &pet, SimTime(500), |_, _| true)
        .is_empty());
    assert!(q.pop_head_for_start().is_none());
    assert!(q.drain_all().is_empty());
    assert_eq!(q.expected_ready_ticks(&pet, SimTime(700)), 700.0);

    // Chance queries against the empty queue stay in [0, 1].
    let c = q.chance_if_appended(
        pet.bin_spec(),
        &pet,
        SimTime(500),
        &task(0, 0, 900),
    );
    assert!((0.0..=1.0).contains(&c), "chance {c}");
}

#[test]
fn remove_waiting_ignores_unknown_ids() {
    let mut q = empty_queue();
    q.admit(task(0, 1, 10_000));
    // Dropping ids that are not (or no longer) in the queue — e.g. a
    // pruner decision raced by a reactive drop — must be a no-op.
    let removed = q.remove_waiting(&[TaskId(7), TaskId(99)]);
    assert!(removed.is_empty());
    assert_eq!(q.waiting_len(), 1);
}

#[test]
fn stale_generation_identifies_completions_of_cancelled_tasks() {
    let pet = pet_matrix();
    let mut q = empty_queue();
    // Start a task; its completion event carries generation g1.
    let g1 = q.set_running(task(0, 1, 10_000), SimTime(0));
    // The task is cancelled (e.g. dropped for running past its
    // deadline) before the completion event fires.
    let rt = q.cancel_running();
    assert_eq!(rt.task.id, TaskId(0));
    // The engine's guard: the queue's generation has moved on, so the
    // in-flight completion event must be recognised as stale instead of
    // completing a task the machine no longer runs.
    assert_ne!(q.generation(), g1);
    assert!(!q.is_busy());
    // A new task can start and complete normally afterwards.
    let g2 = q.set_running(task(1, 1, 10_000), SimTime(400));
    assert!(g2 > g1);
    let done = q.complete_running();
    assert_eq!(done.task.id, TaskId(1));
    let _ = pet;
}

#[test]
fn chance_query_survives_task_outliving_its_pet() {
    let pet = pet_matrix();
    let mut q = empty_queue();
    // A type-0 task ({2:0.5, 4:0.5} bins) started at t=0 is still
    // running at bin 50 — far beyond its entire modelled distribution.
    // The conditioned base collapses to "imminent completion"; queries
    // must stay finite and bounded.
    q.set_running(task(0, 0, 1_000_000), SimTime(0));
    let c = q.chance_if_appended(
        pet.bin_spec(),
        &pet,
        SimTime(5_000),
        &task(1, 1, 9_000),
    );
    assert!((0.0..=1.0).contains(&c), "chance {c}");
    assert!(c > 0.99, "imminent completion leaves ample slack: {c}");
}

/// A mapper that never proposes anything: every mapping event runs
/// against machine queues that stay empty for the whole simulation.
struct MapNothing;

impl BatchMapper for MapNothing {
    fn name(&self) -> &str {
        "map-nothing"
    }
    fn select(
        &mut self,
        _view: &SystemView<'_>,
        _candidates: &[Task],
    ) -> Vec<Assignment> {
        Vec::new()
    }
}

#[test]
fn engine_survives_mapping_events_on_permanently_empty_queues() {
    let pet = pet_matrix();
    let cluster = Cluster::one_per_type(1);
    let tasks: Vec<Task> = (0..10)
        .map(|i| {
            Task::new(
                i,
                TaskTypeId((i % 2) as u16),
                SimTime(i * 50),
                SimTime(i * 50 + 600),
            )
        })
        .collect();
    let stats = SchedulerBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(11))
        .strategy(MappingStrategy::Batch(Box::new(MapNothing)))
        .pruner(NoPruning)
        .build()
        .expect("valid configuration")
        .run(&tasks);
    // Nothing ever reaches a machine: every task must be reactively
    // dropped at its deadline (via the wakeup safety net), with no task
    // lost and no panic on the all-empty machine queues.
    assert_eq!(stats.count(TaskOutcome::DroppedReactive), 10);
    assert_eq!(stats.unreported(), 0);
}
