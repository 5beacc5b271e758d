//! The resource allocator: heuristic + optional pruning + driver, wired
//! together (Fig. 1c).
//!
//! A thin domain-level facade over [`taskprune_sim::GatewayBuilder`]:
//! it resolves a [`HeuristicKind`] into a strategy (forcing the
//! matching allocation mode) and a [`PruningConfig`] into the pruning
//! mechanism, then builds and drives a one-shard
//! [`taskprune_sim::FederatedEngine`]: the paper's single cluster. A
//! federation of several shards, a supervised run and a cold restart
//! are built with [`taskprune_sim::GatewayBuilder`] directly.

use crate::pruner::{PruningConfig, PruningMechanism};
use taskprune_heuristics::HeuristicKind;
use taskprune_model::{Cluster, PetMatrix, Task};
use taskprune_sim::{
    GatewayBuilder, MappingStrategy, RunError, SimConfig, SimStats, StatsError,
    TraceLog,
};

/// Builder for one simulation run: pick a heuristic, optionally attach
/// the pruning mechanism, then [`run`](ResourceAllocator::run).
pub struct ResourceAllocator<'a> {
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    truth: Option<&'a PetMatrix>,
    sim: SimConfig,
    strategy: Option<MappingStrategy>,
    pruning: Option<PruningConfig>,
    traced: bool,
}

impl<'a> ResourceAllocator<'a> {
    /// Starts a builder over the given cluster and PET matrix.
    pub fn new(
        cluster: &'a Cluster,
        pet: &'a PetMatrix,
        sim: SimConfig,
    ) -> Self {
        Self {
            cluster,
            pet,
            truth: None,
            sim,
            strategy: None,
            pruning: None,
            traced: false,
        }
    }

    /// Enables execution tracing with default sizing; the log comes back
    /// in [`SimStats::trace`].
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Separates ground truth from the scheduler's belief: estimates use
    /// the matrix given to [`ResourceAllocator::new`] while actual
    /// durations are sampled from `truth` (see
    /// [`taskprune_sim::GatewayBuilder::truth`]).
    pub fn truth_pet(mut self, truth: &'a PetMatrix) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Selects a mapping heuristic by kind, replacing any strategy
    /// installed before (the later of this and
    /// [`ResourceAllocator::strategy`] wins). The simulator mode is
    /// switched to match the heuristic (immediate heuristics force
    /// immediate mode, batch heuristics batch mode).
    pub fn heuristic(mut self, kind: HeuristicKind) -> Self {
        self.sim.mode = kind.allocation_mode();
        self.strategy = Some(kind.make());
        self
    }

    /// Installs a custom mapping strategy (for heuristics outside the
    /// paper's ten), replacing any heuristic selected before (the later
    /// of this and [`ResourceAllocator::heuristic`] wins). The caller
    /// must keep `sim.mode` consistent.
    pub fn strategy(mut self, strategy: MappingStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attaches the pruning mechanism with the given configuration.
    pub fn pruning(mut self, cfg: PruningConfig) -> Self {
        self.pruning = Some(cfg);
        self
    }

    /// Optionally attaches the pruning mechanism — convenient when
    /// comparing baseline vs. pruned in a loop.
    pub fn pruning_opt(mut self, cfg: Option<PruningConfig>) -> Self {
        self.pruning = cfg;
        self
    }

    /// Runs the workload on the single cluster and returns its outcome
    /// record, surfacing any configuration problem, or a task of a type
    /// the PET matrix lacks, as a typed [`RunError`]. A task of an
    /// unknown type is rejected before anything runs: the driver's
    /// push path would panic on it mid-run.
    ///
    /// The run is the one-shard case of the federated setup
    /// ([`taskprune_sim::FederatedEngine::run_stream`]), so the
    /// gateway keys the record by arrival order: `TaskId(i)` in the
    /// returned [`SimStats`] is the `i`-th arrival. Task ids may be
    /// sparse (timestamps, snowflakes); a trace whose ids are its
    /// arrival indices, as every `WorkloadTrial`'s are, keeps them.
    pub fn try_run(self, tasks: &[Task]) -> Result<SimStats, RunError> {
        let types = self.pet.n_task_types();
        for task in tasks {
            StatsError::check_type(task, types)?;
        }
        let mut builder =
            GatewayBuilder::new(self.cluster, self.pet).config(self.sim);
        // Without a strategy the builder rejects the run as
        // `ConfigError::MissingStrategy`.
        if let Some(strategy) = self.strategy {
            let mut strategy = Some(strategy);
            builder = builder.strategy_with(move |_| {
                strategy.take().expect("one shard builds one strategy")
            });
        }
        if let Some(cfg) = self.pruning {
            builder = builder.pruner_with(move |_| {
                Box::new(PruningMechanism::new(cfg, types))
            });
        }
        if let Some(truth) = self.truth {
            builder = builder.truth(truth);
        }
        // The sink is a type parameter, so the traced and untraced runs
        // build differently-monomorphised drivers — the untraced one
        // pays literally nothing for observability.
        let mut stats = if self.traced {
            builder
                .sink_with(|_| TraceLog::with_defaults())
                .build()?
                .run_stream(tasks.iter().copied())
        } else {
            builder.build()?.run_stream(tasks.iter().copied())
        };
        Ok(stats.per_shard.swap_remove(0))
    }

    /// Runs the workload and returns its outcome record.
    ///
    /// # Panics
    /// On any configuration the builder rejects — most importantly when
    /// no heuristic was selected. [`ResourceAllocator::try_run`] is the
    /// non-panicking variant.
    pub fn run(self, tasks: &[Task]) -> SimStats {
        self.try_run(tasks)
            .unwrap_or_else(|e| panic!("invalid allocator configuration: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::TaskTypeId;
    use taskprune_sim::ConfigError;
    use taskprune_workload::{PetGenConfig, WorkloadConfig};

    #[test]
    fn builder_runs_batch_heuristic() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let trial = WorkloadConfig {
            total_tasks: 200,
            span_tu: 60.0,
            ..WorkloadConfig::paper_default(3)
        }
        .generate_trial(&pet, 0);
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Mm)
            .run(&trial.tasks);
        assert_eq!(stats.unreported(), 0);
        assert_eq!(stats.n_tasks(), trial.len());
    }

    #[test]
    fn builder_switches_mode_for_immediate_heuristics() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let trial = WorkloadConfig {
            total_tasks: 150,
            span_tu: 50.0,
            ..WorkloadConfig::paper_default(4)
        }
        .generate_trial(&pet, 0);
        // SimConfig says batch, but KPB is immediate: builder fixes it.
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Kpb)
            .run(&trial.tasks);
        assert_eq!(stats.unreported(), 0);
    }

    #[test]
    fn pruning_attaches_cleanly() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let trial = WorkloadConfig {
            total_tasks: 300,
            span_tu: 40.0, // compressed span → oversubscribed
            ..WorkloadConfig::paper_default(5)
        }
        .generate_trial(&pet, 0);
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Msd)
            .pruning(crate::pruner::PruningConfig::paper_default())
            .run(&trial.tasks);
        assert_eq!(stats.unreported(), 0);
        // The pruner must have actually acted under this load.
        assert!(stats.deferrals > 0 || stats.mapping_events > 0);
    }

    #[test]
    #[should_panic(expected = "select a mapping heuristic")]
    fn running_without_heuristic_panics() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1)).run(&[]);
    }

    #[test]
    fn try_run_surfaces_config_errors_without_panicking() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let err = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .try_run(&[])
            .expect_err("missing heuristic must be rejected");
        assert_eq!(err, RunError::Config(ConfigError::MissingStrategy));

        let mut sim = SimConfig::batch(1);
        sim.queue_capacity = 0;
        let err = ResourceAllocator::new(&cluster, &pet, sim)
            .strategy(HeuristicKind::Mm.make())
            .try_run(&[])
            .expect_err("zero capacity must be rejected");
        assert_eq!(err, RunError::Config(ConfigError::ZeroQueueCapacity));
    }

    #[test]
    fn try_run_rejects_an_unknown_task_type() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let mut trial = WorkloadConfig {
            total_tasks: 100,
            span_tu: 40.0,
            ..WorkloadConfig::paper_default(6)
        }
        .generate_trial(&pet, 0);
        trial.tasks[7].type_id = TaskTypeId(99);
        let want = RunError::Stats(StatsError::UnknownTaskType {
            id: trial.tasks[7].id.0,
            type_id: 99,
            types: pet.n_task_types(),
        });
        let got = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Mm)
            .try_run(&trial.tasks)
            .err();
        assert_eq!(got, Some(want));
    }

    #[test]
    fn try_run_keys_sparse_ids_by_arrival_order() {
        use taskprune_model::{SimTime, TaskId, TaskOutcome};
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        // Snowflake-style ids, out of order, straight into a single
        // cluster: the one-shard gateway compacts them.
        let tasks: Vec<Task> = [1_700_000_000_000, 1_700_000_000_007, 5]
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                let arrival = SimTime(i as u64 * 1_000);
                Task::new(id, TaskTypeId(0), arrival, SimTime(1_000_000))
            })
            .collect();
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Mm)
            .try_run(&tasks)
            .expect("sparse external ids run");
        assert_eq!(stats.n_tasks(), 3);
        assert_eq!(stats.unreported(), 0);
        for i in 0..3 {
            assert_eq!(
                stats.outcome(TaskId(i)),
                Some(TaskOutcome::CompletedOnTime),
                "arrival {i}"
            );
        }
        assert_eq!(stats.outcome(TaskId(5)), None);
    }

    #[test]
    fn the_later_of_heuristic_and_strategy_wins() {
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        // Oversubscribed, so the two heuristics' records differ.
        let trial = WorkloadConfig {
            total_tasks: 1_000,
            span_tu: 50.0,
            ..WorkloadConfig::paper_default(5)
        }
        .generate_trial(&pet, 0);
        let alloc =
            || ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1));
        let run = |a: ResourceAllocator<'_>| {
            let stats = a.try_run(&trial.tasks).expect("valid configuration");
            serde_json::to_string(&stats).unwrap()
        };
        let mm = run(alloc().heuristic(HeuristicKind::Mm));
        let edf = run(alloc().heuristic(HeuristicKind::Edf));
        assert!(mm != edf, "the fixture must tell the two apart");

        let custom_last = alloc()
            .heuristic(HeuristicKind::Mm)
            .strategy(HeuristicKind::Edf.make());
        assert!(run(custom_last) == edf, "EDF must win");

        let kind_last = alloc()
            .strategy(HeuristicKind::Edf.make())
            .heuristic(HeuristicKind::Mm);
        assert!(run(kind_last) == mm, "MM must win");
    }
}
