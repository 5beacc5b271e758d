//! The resource allocator: heuristic + optional pruning + driver, wired
//! together (Fig. 1c).
//!
//! A thin domain-level facade over [`taskprune_sim::GatewayBuilder`]:
//! it resolves a [`HeuristicKind`] into a strategy (forcing the
//! matching allocation mode) and a [`PruningConfig`] into the pruning
//! mechanism, then builds and drives a [`taskprune_sim::FederatedEngine`].
//! A single-cluster run is its one-shard case.

use crate::pruner::{PruningConfig, PruningMechanism};
use serde::{Deserialize, Serialize};
use taskprune_heuristics::HeuristicKind;
use taskprune_model::{Cluster, PetMatrix, Task};
use taskprune_sim::{
    ConfigError, FaultPlan, FederationStats, GatewayBuilder, MappingStrategy,
    RecoveryPolicy, ReusePolicy, RoundRobinRoute, RoutePolicy, RunError,
    SimConfig, SimStats, Snapshot, SnapshotError, StatsError, Supervisor,
    TraceLog,
};

/// The mapping heuristic an allocator runs: one of the paper's ten by
/// kind, which every shard instantiates for itself, or one custom
/// instance, which can serve a single shard only.
enum Mapper {
    Kind(HeuristicKind),
    Custom(MappingStrategy),
}

/// Builder for one simulation run: pick a heuristic, optionally attach
/// the pruning mechanism, then [`run`](ResourceAllocator::run).
pub struct ResourceAllocator<'a> {
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    truth: Option<&'a PetMatrix>,
    sim: SimConfig,
    mapper: Option<Mapper>,
    pruning: Option<PruningConfig>,
    traced: bool,
    reuse: ReusePolicy,
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
            mapper: None,
            pruning: None,
            traced: false,
            reuse: ReusePolicy::Off,
        }
    }

    /// Sets the gateway's function-reuse policy (exact-duplicate
    /// piggybacking; see [`taskprune_sim::ReusePolicy`]). Default: off.
    /// Every entry point observes it: a single-cluster run has a
    /// one-shard gateway too.
    pub fn reuse(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        self
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
        self.mapper = Some(Mapper::Kind(kind));
        self
    }

    /// Installs a custom mapping strategy (for heuristics outside the
    /// paper's ten), replacing any heuristic selected before (the later
    /// of this and [`ResourceAllocator::heuristic`] wins). The caller
    /// must keep `sim.mode` consistent. One instance serves one shard:
    /// a federated run of more than one shard, or a cold restart, is
    /// rejected with [`ConfigError::FederatedStrategyNotPerShard`].
    pub fn strategy(mut self, strategy: MappingStrategy) -> Self {
        self.mapper = Some(Mapper::Custom(strategy));
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
    /// the PET matrix lacks, as a typed [`RunError`].
    ///
    /// The run is the one-shard case of the federated setup
    /// ([`taskprune_sim::FederatedEngine::run_stream`]), so the
    /// gateway keys the record by arrival order: `TaskId(i)` in the
    /// returned [`SimStats`] is the `i`-th arrival. Task ids may be
    /// sparse (timestamps, snowflakes); a trace whose ids are its
    /// arrival indices, as every `WorkloadTrial`'s are, keeps them.
    pub fn try_run(self, tasks: &[Task]) -> Result<SimStats, RunError> {
        self.check_types(tasks)?;
        let traced = self.traced;
        let builder =
            self.gateway_builder(1, Box::new(RoundRobinRoute::new()))?;
        // The sink is a type parameter, so the traced and untraced runs
        // build differently-monomorphised drivers — the untraced one
        // pays literally nothing for observability.
        let mut stats = if traced {
            builder
                .sink_with(|_| TraceLog::with_defaults())
                .build()?
                .run_stream(tasks.iter().copied())
        } else {
            builder.build()?.run_stream(tasks.iter().copied())
        };
        Ok(stats.per_shard.swap_remove(0))
    }

    /// Runs the workload through a federation of `shards` independent
    /// paper-system instances (each a copy of this allocator's cluster,
    /// heuristic and pruning configuration) behind the given routing
    /// policy, returning the fan-in record.
    ///
    /// With more than one shard, requires the heuristic to have been
    /// selected via [`ResourceAllocator::heuristic`] — each shard
    /// instantiates its own stateful copy. Tracing is per-shard and not
    /// supported
    /// through this facade: a [`ResourceAllocator::traced`] allocator
    /// is **rejected** (rather than silently dropping the trace);
    /// drive a [`taskprune_sim::GatewayBuilder`] with
    /// [`sink_with`](taskprune_sim::GatewayBuilder::sink_with) for
    /// per-shard traces.
    pub fn try_run_federated(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        self.check_types(tasks)?;
        Ok(self
            .federated_builder(shards, policy)?
            .build()?
            .run_stream(tasks.iter().copied()))
    }

    /// [`ResourceAllocator::try_run_federated`] on the **parallel**
    /// driver: the same federation, with every shard's event loop on a
    /// work-stealing pool of `threads` threads (`None` honours
    /// `TASKPRUNE_THREADS`, else all hardware threads). The outcome
    /// record is bit-identical to the serial variant at any thread
    /// count — `tests/parallel_equivalence.rs` pins it — so this is
    /// purely a wall-clock knob. With more than one shard the policy
    /// must route without reading shard state
    /// ([`RoutePolicy::is_stateless`]); any other is rejected with
    /// [`ConfigError::ParallelNeedsStatelessRoute`], and
    /// [`ResourceAllocator::try_run_federated`] runs it instead.
    pub fn try_run_federated_parallel(
        self,
        shards: usize,
        threads: Option<usize>,
        policy: Box<dyn RoutePolicy>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        self.check_types(tasks)?;
        let mut builder = self.federated_builder(shards, policy)?;
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        Ok(builder.build_parallel()?.run_stream(tasks.iter().copied()))
    }

    /// [`ResourceAllocator::try_run_federated`] under the self-healing
    /// [`Supervisor`]: the federation auto-checkpoints on the
    /// `recovery` policy's cadence, heals any faults in the armed
    /// `plan` (bounded retries, checkpoint + journal replay), and
    /// degrades gracefully — quarantine plus backlog re-route — when a
    /// shard's budget runs out. The returned record carries the
    /// [`taskprune_sim::RecoveryLog`] of every action taken.
    ///
    /// With `restart` set to `(watermark, policy_after)`, the run
    /// additionally exercises a **cold coordinator restart**: the
    /// supervisor pauses once `watermark` arrivals are ingested,
    /// captures the whole coordinator (event lanes, truth-RNG streams,
    /// journals, fault-injector cursor) as a sealed
    /// [`Snapshot`], encodes it to the wire format and back (the
    /// durable-storage round-trip), tears the federation down, and
    /// resumes a freshly built one from the decoded capture under
    /// `policy_after` (a second instance — routing state travels in
    /// the snapshot, not the policy object). A supervised restarted
    /// run is bit-identical to an uninterrupted one —
    /// `tests/self_healing.rs` pins it. The pre-restart supervisor's
    /// recovery log dies with it; the returned record carries the
    /// successor's log only.
    pub fn try_run_federated_supervised(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
        recovery: RecoveryPolicy,
        plan: Option<FaultPlan>,
        restart: Option<(u64, Box<dyn RoutePolicy>)>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        self.check_types(tasks)?;
        if restart.is_some() && matches!(self.mapper, Some(Mapper::Custom(_))) {
            // The restart builds the federation twice, and one custom
            // instance cannot serve both.
            return Err(ConfigError::FederatedStrategyNotPerShard.into());
        }
        let rebuild = self.config_copy();
        let engine = self.federated_builder(shards, policy)?.build()?;
        let mut sup = Supervisor::new(engine, recovery);
        if let Some(plan) = plan {
            sup.arm(plan);
        }
        let mut source = tasks.iter().copied().peekable();
        let Some((watermark, policy_after)) = restart else {
            return Ok(sup.finish_stream(&mut source));
        };
        sup.run_until(&mut source, watermark);
        let wire = sup.snapshot_coordinator().to_value();
        drop(sup);
        let snap = Snapshot::from_value(&wire).map_err(SnapshotError::from)?;
        let mut successor =
            rebuild.federated_builder(shards, policy_after)?.build()?;
        successor.restore_coordinator(&snap)?;
        // The injector cursor travels inside the snapshot, so the
        // successor needs no re-arm; a fresh supervisor re-checkpoints
        // every shard at the restart point and resumes the cadence.
        let sup = Supervisor::new(successor, recovery);
        Ok(sup.finish_stream(&mut source))
    }

    /// Rejects a workload with a task of a type the PET matrix lacks
    /// ([`StatsError::UnknownTaskType`]) before anything runs: the
    /// drivers' push paths would panic on it mid-run.
    fn check_types(&self, tasks: &[Task]) -> Result<(), RunError> {
        let types = self.pet.n_task_types();
        for task in tasks {
            StatsError::check_type(task, types)?;
        }
        Ok(())
    }

    /// A second allocator with the same run configuration, for the
    /// federation a cold restart resumes on. A custom strategy is not
    /// cloneable (the restart path rejects one up front), so only a
    /// heuristic kind carries over.
    fn config_copy(&self) -> ResourceAllocator<'a> {
        let mapper = match self.mapper {
            Some(Mapper::Kind(kind)) => Some(Mapper::Kind(kind)),
            Some(Mapper::Custom(_)) | None => None,
        };
        ResourceAllocator {
            cluster: self.cluster,
            pet: self.pet,
            truth: self.truth,
            sim: self.sim,
            mapper,
            pruning: self.pruning,
            traced: false,
            reuse: self.reuse,
        }
    }

    /// The setup behind the federated entry points: a single
    /// `TraceLog` cannot observe N shards, so a traced allocator is
    /// rejected here.
    fn federated_builder(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
    ) -> Result<GatewayBuilder<'a, taskprune_sim::NullSink>, RunError> {
        if self.traced {
            return Err(ConfigError::FederatedTraceUnsupported.into());
        }
        self.gateway_builder(shards, policy)
    }

    /// The shard configuration every entry point shares, single-cluster
    /// included (one code path, so no two drivers can drift apart on
    /// it).
    fn gateway_builder(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
    ) -> Result<GatewayBuilder<'a, taskprune_sim::NullSink>, RunError> {
        let builder = GatewayBuilder::new(self.cluster, self.pet)
            .config(self.sim)
            .shards(shards)
            .policy_boxed(policy)
            .reuse(self.reuse);
        let mut builder = match self.mapper {
            None => return Err(ConfigError::MissingStrategy.into()),
            Some(Mapper::Kind(kind)) => {
                builder.strategy_with(move |_| kind.make())
            }
            Some(Mapper::Custom(strategy)) if shards <= 1 => {
                let mut strategy = Some(strategy);
                builder.strategy_with(move |_| {
                    strategy.take().expect("one shard builds one strategy")
                })
            }
            // One instance cannot be shared across N shards; telling
            // the caller a strategy is *missing* when they installed
            // one would be contradictory.
            Some(Mapper::Custom(_)) => {
                return Err(ConfigError::FederatedStrategyNotPerShard.into())
            }
        };
        let n_types = self.pet.n_task_types();
        if let Some(cfg) = self.pruning {
            builder = builder.pruner_with(move |_| {
                Box::new(PruningMechanism::new(cfg, n_types))
            });
        }
        if let Some(truth) = self.truth {
            builder = builder.truth(truth);
        }
        Ok(builder)
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
    fn every_try_run_rejects_an_unknown_task_type() {
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
        let alloc = || {
            ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
                .heuristic(HeuristicKind::Mm)
        };
        let rr = || Box::new(RoundRobinRoute::new());
        assert_eq!(alloc().try_run(&trial.tasks).err(), Some(want.clone()));
        assert_eq!(
            alloc().try_run_federated(2, rr(), &trial.tasks).err(),
            Some(want.clone())
        );
        assert_eq!(
            alloc()
                .try_run_federated_parallel(2, Some(1), rr(), &trial.tasks)
                .err(),
            Some(want.clone())
        );
        assert_eq!(
            alloc()
                .try_run_federated_supervised(
                    2,
                    rr(),
                    RecoveryPolicy::default(),
                    None,
                    None,
                    &trial.tasks,
                )
                .err(),
            Some(want)
        );
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
    fn the_later_of_heuristic_and_strategy_wins_on_every_entry_point() {
        use taskprune_sim::RoundRobinRoute;
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
        let json = |stats: &SimStats| serde_json::to_string(stats).unwrap();
        let single = |a: ResourceAllocator<'_>| {
            json(&a.try_run(&trial.tasks).expect("valid configuration"))
        };
        let one_shard = |a: ResourceAllocator<'_>| {
            let stats = a
                .try_run_federated(
                    1,
                    Box::new(RoundRobinRoute::new()),
                    &trial.tasks,
                )
                .expect("valid configuration");
            json(&stats.per_shard[0])
        };
        let mm = single(alloc().heuristic(HeuristicKind::Mm));
        let edf = single(alloc().heuristic(HeuristicKind::Edf));
        assert!(mm != edf, "the fixture must tell the two apart");

        let custom_last = || {
            alloc()
                .heuristic(HeuristicKind::Mm)
                .strategy(HeuristicKind::Edf.make())
        };
        assert!(single(custom_last()) == edf, "try_run: EDF must win");
        assert!(one_shard(custom_last()) == edf, "federated: EDF must win");

        let kind_last = || {
            alloc()
                .strategy(HeuristicKind::Edf.make())
                .heuristic(HeuristicKind::Mm)
        };
        assert!(single(kind_last()) == mm, "try_run: MM must win");
        assert!(one_shard(kind_last()) == mm, "federated: MM must win");

        let err = custom_last()
            .try_run_federated(2, Box::new(RoundRobinRoute::new()), &[])
            .expect_err("one instance cannot serve two shards");
        assert_eq!(
            err,
            RunError::Config(ConfigError::FederatedStrategyNotPerShard)
        );
    }

    #[test]
    fn federated_run_aggregates_across_shards() {
        use taskprune_sim::LeastQueuedRoute;
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let trial = WorkloadConfig {
            total_tasks: 400,
            span_tu: 60.0,
            ..WorkloadConfig::paper_default(8)
        }
        .generate_trial(&pet, 0);
        let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(2))
            .heuristic(HeuristicKind::Mm)
            .pruning(crate::pruner::PruningConfig::paper_default())
            .try_run_federated(
                3,
                Box::new(LeastQueuedRoute::new()),
                &trial.tasks,
            )
            .expect("valid federated configuration");
        assert_eq!(stats.per_shard.len(), 3);
        assert_eq!(stats.n_tasks(), trial.len());
        assert_eq!(stats.unreported(), 0);
        // The router actually spread load: no shard saw everything.
        assert!(stats.per_shard.iter().all(|s| s.n_arrived() < trial.len()));
    }

    #[test]
    fn federated_parallel_run_matches_the_serial_driver() {
        use taskprune_sim::{LeastQueuedRoute, RoundRobinRoute};
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let trial = WorkloadConfig {
            total_tasks: 400,
            span_tu: 60.0,
            ..WorkloadConfig::paper_default(8)
        }
        .generate_trial(&pet, 0);
        let alloc = || {
            ResourceAllocator::new(&cluster, &pet, SimConfig::batch(2))
                .heuristic(HeuristicKind::Mm)
                .pruning(crate::pruner::PruningConfig::paper_default())
        };
        let serial = alloc()
            .try_run_federated(
                3,
                Box::new(RoundRobinRoute::new()),
                &trial.tasks,
            )
            .expect("valid federated configuration");
        let parallel = alloc()
            .try_run_federated_parallel(
                3,
                Some(2),
                Box::new(RoundRobinRoute::new()),
                &trial.tasks,
            )
            .expect("valid parallel configuration");
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "parallel facade diverged"
        );
        // A policy that reads shard state has no parallel schedule.
        let err = alloc()
            .try_run_federated_parallel(
                3,
                Some(2),
                Box::new(LeastQueuedRoute::new()),
                &trial.tasks,
            )
            .expect_err("least-queued routing is stateful");
        assert_eq!(
            err,
            RunError::Config(ConfigError::ParallelNeedsStatelessRoute {
                policy: "least-queued".to_owned(),
            })
        );
    }

    #[test]
    fn federated_run_without_heuristic_kind_is_rejected() {
        use taskprune_sim::RoundRobinRoute;
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let err = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .try_run_federated(2, Box::new(RoundRobinRoute::new()), &[])
            .expect_err("heuristic kind is required for shard factories");
        assert_eq!(err, RunError::Config(ConfigError::MissingStrategy));
    }

    #[test]
    fn federated_run_explains_why_a_custom_strategy_is_rejected() {
        use taskprune_sim::RoundRobinRoute;
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let err = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .strategy(HeuristicKind::Mm.make())
            .try_run_federated(2, Box::new(RoundRobinRoute::new()), &[])
            .expect_err("one strategy instance cannot serve N shards");
        assert_eq!(
            err,
            RunError::Config(ConfigError::FederatedStrategyNotPerShard)
        );
        assert!(err.to_string().contains("per shard"), "{err}");
    }

    #[test]
    fn federated_run_rejects_a_single_trace_log() {
        use taskprune_sim::RoundRobinRoute;
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        let err = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Mm)
            .traced()
            .try_run_federated(2, Box::new(RoundRobinRoute::new()), &[])
            .expect_err("a single TraceLog cannot observe N shards");
        assert_eq!(
            err,
            RunError::Config(ConfigError::FederatedTraceUnsupported)
        );
    }
}
