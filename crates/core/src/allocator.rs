//! The resource allocator: heuristic + optional pruning + engine, wired
//! together (Fig. 1c).
//!
//! A thin domain-level facade over [`taskprune_sim::SchedulerBuilder`]:
//! it resolves a [`HeuristicKind`] into a strategy (forcing the
//! matching allocation mode) and a [`PruningConfig`] into the pruning
//! mechanism, then builds and drives the engine.

use crate::pruner::{PruningConfig, PruningMechanism};
use serde::{Deserialize, Serialize};
use taskprune_heuristics::HeuristicKind;
use taskprune_model::{Cluster, PetMatrix, Task};
use taskprune_sim::{
    ConfigError, FaultPlan, FederationStats, GatewayBuilder, MappingStrategy,
    RecoveryPolicy, ReusePolicy, RoutePolicy, RunError, SchedulerBuilder,
    SimConfig, SimStats, Snapshot, SnapshotError, Supervisor,
};

/// Builder for one simulation run: pick a heuristic, optionally attach
/// the pruning mechanism, then [`run`](ResourceAllocator::run).
pub struct ResourceAllocator<'a> {
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    truth: Option<&'a PetMatrix>,
    sim: SimConfig,
    heuristic: Option<HeuristicKind>,
    strategy: Option<MappingStrategy>,
    pruning: Option<PruningConfig>,
    trace: Option<taskprune_sim::TraceLog>,
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
            heuristic: None,
            strategy: None,
            pruning: None,
            trace: None,
            reuse: ReusePolicy::Off,
        }
    }

    /// Sets the federation's function-reuse policy (exact-duplicate
    /// piggybacking and deadline-window merging at the gateway; see
    /// [`taskprune_sim::ReusePolicy`]). Default: off. Only the
    /// federated entry points observe it — the single-cluster
    /// [`ResourceAllocator::run`] has no gateway to host the cache.
    pub fn reuse(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        self
    }

    /// Enables execution tracing with default sizing; the log comes back
    /// in [`SimStats::trace`].
    pub fn traced(mut self) -> Self {
        self.trace = Some(taskprune_sim::TraceLog::with_defaults());
        self
    }

    /// Separates ground truth from the scheduler's belief: estimates use
    /// the matrix given to [`ResourceAllocator::new`] while actual
    /// durations are sampled from `truth` (see
    /// [`taskprune_sim::SchedulerBuilder::truth`]).
    pub fn truth_pet(mut self, truth: &'a PetMatrix) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Selects a mapping heuristic by kind. The simulator mode is
    /// switched to match the heuristic (immediate heuristics force
    /// immediate mode, batch heuristics batch mode).
    pub fn heuristic(mut self, kind: HeuristicKind) -> Self {
        self.sim.mode = kind.allocation_mode();
        self.heuristic = Some(kind);
        self.strategy = Some(kind.make());
        self
    }

    /// Installs a custom mapping strategy (for heuristics outside the
    /// paper's ten). The caller must keep `sim.mode` consistent.
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

    /// Runs the workload and returns its outcome record, surfacing any
    /// configuration problem — or a malformed trace (e.g. ids too
    /// sparse for the dense outcome tables) — as a typed [`RunError`].
    pub fn try_run(self, tasks: &[Task]) -> Result<SimStats, RunError> {
        let mut builder =
            SchedulerBuilder::new(self.cluster, self.pet).config(self.sim);
        if let Some(strategy) = self.strategy {
            builder = builder.strategy(strategy);
        }
        if let Some(cfg) = self.pruning {
            builder = builder
                .pruner(PruningMechanism::new(cfg, self.pet.n_task_types()));
        }
        if let Some(truth) = self.truth {
            builder = builder.truth(truth);
        }
        // The sink is a type parameter, so the traced and untraced runs
        // build differently-monomorphised engines — the untraced one
        // pays literally nothing for observability.
        Ok(match self.trace {
            Some(log) => builder
                .sink(log)
                .build()?
                .try_run_stream(tasks.iter().copied())?,
            None => builder.build()?.try_run_stream(tasks.iter().copied())?,
        })
    }

    /// Runs the workload through a federation of `shards` independent
    /// paper-system instances (each a copy of this allocator's cluster,
    /// heuristic and pruning configuration) behind the given routing
    /// policy, returning the fan-in record.
    ///
    /// Requires the heuristic to have been selected via
    /// [`ResourceAllocator::heuristic`] — each shard instantiates its
    /// own stateful copy. Tracing is per-shard and not supported
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
    /// purely a wall-clock knob.
    pub fn try_run_federated_parallel(
        self,
        shards: usize,
        threads: Option<usize>,
        policy: Box<dyn RoutePolicy>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        let mut builder = self.federated_builder(shards, policy)?;
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        Ok(builder.build_parallel()?.run_stream(tasks.iter().copied()))
    }

    /// [`ResourceAllocator::try_run_federated`] with a **live reshard**
    /// in the middle: the federation runs on `shards_before` shards
    /// until `reshard_after` arrivals have been ingested, pauses at
    /// that watermark, verifies a sealed checkpoint of the whole
    /// gateway (version + state hash — a tampered or stale checkpoint
    /// surfaces as [`RunError::Snapshot`]), then re-splits the recorded
    /// arrival stream across `shards_after` fresh shards and runs to
    /// completion.
    ///
    /// Because every shard is deterministic, the returned
    /// [`FederationStats`] is **equal to an uninterrupted
    /// `shards_after`-shard run** of the same workload under
    /// `policy_after` — `tests/elastic_federation.rs` pins it. The two
    /// policy instances are separate because each federation consumes
    /// one (routing state does not carry across a re-split).
    pub fn try_run_federated_elastic(
        self,
        shards_before: usize,
        shards_after: usize,
        reshard_after: u64,
        policy: Box<dyn RoutePolicy>,
        policy_after: Box<dyn RoutePolicy>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        let rebuild = self.config_copy();
        let mut engine =
            self.federated_builder(shards_before, policy)?.build()?;
        engine.enable_arrival_log();
        let mut source = tasks.iter().copied().peekable();
        engine.run_until(&mut source, reshard_after);
        engine.snapshot_gateway().verify()?;
        let logged: Vec<Task> = engine.arrival_log().to_vec();
        drop(engine);
        let successor = rebuild
            .federated_builder(shards_after, policy_after)?
            .build()?;
        Ok(successor.run_stream(logged.into_iter().chain(source)))
    }

    /// [`ResourceAllocator::try_run_federated_elastic`] on the
    /// **parallel** driver: both the pre-reshard and post-reshard
    /// federations run their shards on a work-stealing pool of
    /// `threads` threads. Same equality guarantee — the result matches
    /// an uninterrupted `shards_after`-shard run at any thread count.
    #[allow(clippy::too_many_arguments)] // mirrors the serial variant + threads
    pub fn try_run_federated_elastic_parallel(
        self,
        shards_before: usize,
        shards_after: usize,
        threads: Option<usize>,
        reshard_after: u64,
        policy: Box<dyn RoutePolicy>,
        policy_after: Box<dyn RoutePolicy>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
        let rebuild = self.config_copy();
        let mut builder = self.federated_builder(shards_before, policy)?;
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        let mut engine = builder.build_parallel()?;
        engine.enable_arrival_log();
        let split = (reshard_after as usize).min(tasks.len());
        engine.ingest_prefix(tasks[..split].iter().copied());
        engine.snapshot_gateway().verify()?;
        let logged: Vec<Task> = engine.arrival_log().to_vec();
        drop(engine);
        let mut builder =
            rebuild.federated_builder(shards_after, policy_after)?;
        if let Some(threads) = threads {
            builder = builder.threads(threads);
        }
        Ok(builder.build_parallel()?.run_stream(
            logged.into_iter().chain(tasks[split..].iter().copied()),
        ))
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
    #[allow(clippy::too_many_arguments)] // mirrors the elastic facade
    pub fn try_run_federated_supervised(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
        recovery: RecoveryPolicy,
        plan: Option<FaultPlan>,
        restart: Option<(u64, Box<dyn RoutePolicy>)>,
        tasks: &[Task],
    ) -> Result<FederationStats, RunError> {
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

    /// A second allocator with the same run configuration, for the
    /// post-reshard federation. The custom-strategy slot is not
    /// cloneable (and the federated path requires a [`HeuristicKind`]
    /// anyway), so it stays empty.
    fn config_copy(&self) -> ResourceAllocator<'a> {
        ResourceAllocator {
            cluster: self.cluster,
            pet: self.pet,
            truth: self.truth,
            sim: self.sim,
            heuristic: self.heuristic,
            strategy: None,
            pruning: self.pruning,
            trace: None,
            reuse: self.reuse,
        }
    }

    /// The shared federation setup behind both federated entry points
    /// (one code path, so the serial and parallel drivers cannot drift
    /// apart on shard configuration).
    fn federated_builder(
        self,
        shards: usize,
        policy: Box<dyn RoutePolicy>,
    ) -> Result<GatewayBuilder<'a, taskprune_sim::NullSink>, RunError> {
        if self.trace.is_some() {
            return Err(ConfigError::FederatedTraceUnsupported.into());
        }
        let Some(kind) = self.heuristic else {
            // Distinguish "nothing selected" from "a custom strategy
            // was installed via .strategy(..)": a single instance
            // cannot be shared across N shards, and telling the caller
            // a strategy is *missing* when they installed one would be
            // contradictory.
            return Err(if self.strategy.is_some() {
                ConfigError::FederatedStrategyNotPerShard.into()
            } else {
                ConfigError::MissingStrategy.into()
            });
        };
        let n_types = self.pet.n_task_types();
        let pruning = self.pruning;
        let mut builder = GatewayBuilder::new(self.cluster, self.pet)
            .config(self.sim)
            .shards(shards)
            .policy_boxed(policy)
            .reuse(self.reuse)
            .strategy_with(move |_| kind.make());
        if let Some(cfg) = pruning {
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
    fn try_run_surfaces_malformed_traces_as_stats_errors() {
        use taskprune_model::{SimTime, TaskTypeId};
        let pet = PetGenConfig::paper_heterogeneous(3).generate();
        let cluster = taskprune_workload::machines::heterogeneous_cluster();
        // A snowflake-style id straight into a single cluster (no
        // gateway compaction): a recoverable typed error, not a panic.
        let bad = vec![taskprune_model::Task::new(
            1_700_000_000_000,
            TaskTypeId(0),
            SimTime(0),
            SimTime(1_000),
        )];
        let err = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
            .heuristic(HeuristicKind::Mm)
            .try_run(&bad)
            .expect_err("sparse external ids must be rejected");
        assert!(matches!(err, RunError::Stats(_)), "got {err:?}");
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
        // Both scheduling regimes: stateless (round-robin) and
        // lockstep (least-queued).
        for stateless in [true, false] {
            let policy = || -> Box<dyn taskprune_sim::RoutePolicy> {
                if stateless {
                    Box::new(RoundRobinRoute::new())
                } else {
                    Box::new(LeastQueuedRoute::new())
                }
            };
            let serial = alloc()
                .try_run_federated(3, policy(), &trial.tasks)
                .expect("valid federated configuration");
            let parallel = alloc()
                .try_run_federated_parallel(3, Some(2), policy(), &trial.tasks)
                .expect("valid parallel configuration");
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "stateless={stateless}: parallel facade diverged"
            );
        }
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
