//! Fluent, validated construction of scheduler cores and engines.
//!
//! [`SchedulerBuilder`] is the one way to construct them: every knob is
//! a named method, invalid configurations surface as typed
//! [`ConfigError`]s at build time (instead of panics mid-run), and the
//! same builder produces either a bare [`SchedulerCore`] for streaming
//! callers or a full discrete-event [`Engine`].
//!
//! ```no_run
//! # use taskprune_sim::{SchedulerBuilder, SimConfig, MappingStrategy,
//! #     NoPruning, TraceLog};
//! # fn strategy() -> MappingStrategy { unimplemented!() }
//! # let (cluster, pet) = unimplemented!();
//! let engine = SchedulerBuilder::new(&cluster, &pet)
//!     .config(SimConfig::batch(42))
//!     .strategy(strategy())
//!     .pruner(NoPruning)
//!     .sink(TraceLog::with_defaults())
//!     .build()?;
//! # Ok::<(), taskprune_sim::ConfigError>(())
//! ```

use crate::config::{ConfigError, SimConfig};
use crate::core::SchedulerCore;
use crate::decisions::{Decisions, NullDecisions};
use crate::engine::Engine;
use crate::sink::{NullSink, Sink};
use crate::traits::{MappingStrategy, NoPruning, Pruner};
use taskprune_model::{Cluster, PetMatrix};

/// Builder for a [`SchedulerCore`] or an [`Engine`]. See the [module
/// docs](self).
///
/// The builder copies the (small) machine list out of the cluster, so
/// only the PET matrices must outlive the built core — the cluster
/// borrow ends with [`SchedulerBuilder::new`].
pub struct SchedulerBuilder<
    'a,
    S: Sink = NullSink,
    D: Decisions = NullDecisions,
> {
    cfg: SimConfig,
    machines: Vec<taskprune_model::Machine>,
    pet: &'a PetMatrix,
    truth: Option<&'a PetMatrix>,
    strategy: Option<MappingStrategy>,
    pruner: Option<Box<dyn Pruner>>,
    sink: S,
    decisions: D,
}

impl<'a> SchedulerBuilder<'a, NullSink, NullDecisions> {
    /// Starts a builder over the given cluster and (belief) PET matrix.
    /// Defaults: batch mode with the paper's parameters and seed 0, no
    /// pruning, ground truth equal to belief, the zero-cost
    /// [`NullSink`], and the discard-everything [`NullDecisions`].
    pub fn new(cluster: &Cluster, pet: &'a PetMatrix) -> Self {
        Self {
            cfg: SimConfig::batch(0),
            machines: cluster.machines().to_vec(),
            pet,
            truth: None,
            strategy: None,
            pruner: None,
            sink: NullSink,
            decisions: NullDecisions,
        }
    }
}

impl<'a, S: Sink, D: Decisions> SchedulerBuilder<'a, S, D> {
    /// Sets the static simulation parameters (mode, capacity, horizon,
    /// seed, …).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides only the execution-sampling seed of the current
    /// config.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Installs the mapping heuristic. Required.
    pub fn strategy(mut self, strategy: MappingStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Installs the pruning policy (default: [`NoPruning`] — the
    /// unmodified allocator of Fig. 1a/1b).
    pub fn pruner(mut self, pruner: impl Pruner + 'static) -> Self {
        self.pruner = Some(Box::new(pruner));
        self
    }

    /// Installs an already-boxed pruning policy (convenient when the
    /// policy is chosen at runtime).
    pub fn pruner_boxed(mut self, pruner: Box<dyn Pruner>) -> Self {
        self.pruner = Some(pruner);
        self
    }

    /// Separates the scheduler's *belief* from ground truth: estimates
    /// use the matrix given to [`SchedulerBuilder::new`], while actual
    /// execution durations are sampled from `truth`. Used to study how
    /// robust pruning is to execution-time model error.
    pub fn truth(mut self, truth: &'a PetMatrix) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Replaces the observability sink (default: the zero-cost
    /// [`NullSink`]). Passing a [`crate::TraceLog`] records the full
    /// execution trace into [`crate::SimStats::trace`].
    pub fn sink<T: Sink>(self, sink: T) -> SchedulerBuilder<'a, T, D> {
        SchedulerBuilder {
            cfg: self.cfg,
            machines: self.machines,
            pet: self.pet,
            truth: self.truth,
            strategy: self.strategy,
            pruner: self.pruner,
            sink,
            decisions: self.decisions,
        }
    }

    /// Replaces the typed-decision consumer the [`Engine`] driver feeds
    /// after every event (default: the discard-everything
    /// [`NullDecisions`]). Pass `&mut consumer` to keep ownership for
    /// after the run — `&mut D` implements [`Decisions`] by
    /// delegation.
    pub fn decisions<T: Decisions>(
        self,
        decisions: T,
    ) -> SchedulerBuilder<'a, S, T> {
        SchedulerBuilder {
            cfg: self.cfg,
            machines: self.machines,
            pet: self.pet,
            truth: self.truth,
            strategy: self.strategy,
            pruner: self.pruner,
            sink: self.sink,
            decisions,
        }
    }

    /// Checks the configuration without consuming the builder.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cfg.validate()?;
        if self.machines.is_empty() {
            return Err(ConfigError::EmptyCluster);
        }
        match &self.strategy {
            None => return Err(ConfigError::MissingStrategy),
            Some(strategy) => {
                let compatible = match strategy {
                    MappingStrategy::Immediate(_) => {
                        self.cfg.mode == crate::AllocationMode::Immediate
                    }
                    MappingStrategy::Batch(_) => {
                        self.cfg.mode == crate::AllocationMode::Batch
                    }
                };
                if !compatible {
                    return Err(ConfigError::ModeMismatch {
                        mode: self.cfg.mode,
                        heuristic: strategy.name().to_string(),
                    });
                }
            }
        }
        if let Some(truth) = self.truth {
            if self.pet.n_machine_types() != truth.n_machine_types() {
                return Err(ConfigError::BeliefTruthMismatch {
                    what: "machine types",
                });
            }
            if self.pet.n_task_types() != truth.n_task_types() {
                return Err(ConfigError::BeliefTruthMismatch {
                    what: "task types",
                });
            }
            if self.pet.bin_spec() != truth.bin_spec() {
                return Err(ConfigError::BeliefTruthMismatch {
                    what: "bin width",
                });
            }
        }
        Ok(())
    }

    /// Builds the clock-free [`SchedulerCore`] for streaming callers
    /// (who drain decisions themselves — the consumer is a driver
    /// concern, so it is dropped here).
    pub fn build_core(self) -> Result<SchedulerCore<'a, S>, ConfigError> {
        Ok(self.build_parts()?.0)
    }

    /// Validates and splits the builder into the core plus the decision
    /// consumer destined for the driver.
    fn build_parts(self) -> Result<(SchedulerCore<'a, S>, D), ConfigError> {
        self.validate()?;
        let strategy = self.strategy.expect("validated above");
        let pruner = self.pruner.unwrap_or_else(|| Box::new(NoPruning));
        let core = SchedulerCore::from_parts(
            self.cfg,
            &self.machines,
            self.pet,
            strategy,
            pruner,
            self.sink,
        );
        Ok((core, self.decisions))
    }

    /// Builds the discrete-event [`Engine`] (the core plus an event
    /// driver that samples ground-truth durations).
    pub fn build(self) -> Result<Engine<'a, S, D>, ConfigError> {
        let truth = self.truth;
        let pet = self.pet;
        let seed = self.cfg.seed;
        let (core, decisions) = self.build_parts()?;
        Ok(Engine::from_core(
            core,
            truth.unwrap_or(pet),
            seed,
            decisions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Assignment, BatchMapper, ImmediateMapper};
    use crate::view::SystemView;
    use taskprune_model::{
        BinSpec, MachineId, SimTime, Task, TaskOutcome, TaskTypeId,
    };
    use taskprune_prob::Pmf;

    fn pet() -> PetMatrix {
        PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)])
    }

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
                .take(view.free_slots(MachineId(0)))
                .map(|t| Assignment {
                    task: t.id,
                    machine: MachineId(0),
                })
                .collect()
        }
    }

    struct ToFirst;
    impl ImmediateMapper for ToFirst {
        fn name(&self) -> &str {
            "to-first"
        }
        fn place(&mut self, _view: &SystemView<'_>, _task: &Task) -> MachineId {
            MachineId(0)
        }
    }

    fn batch_strategy() -> MappingStrategy {
        MappingStrategy::Batch(Box::new(ToZero))
    }

    #[test]
    fn builder_runs_end_to_end() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let tasks: Vec<Task> = (0..5)
            .map(|i| {
                Task::new(i, TaskTypeId(0), SimTime(i * 400), SimTime(100_000))
            })
            .collect();
        let stats = SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(1))
            .strategy(batch_strategy())
            .pruner(NoPruning)
            .build()
            .expect("valid configuration")
            .run(&tasks);
        assert_eq!(stats.count(TaskOutcome::CompletedOnTime), 5);
    }

    #[test]
    fn missing_strategy_is_rejected() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let err = SchedulerBuilder::new(&cluster, &pet)
            .build()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::MissingStrategy);
    }

    #[test]
    fn mode_mismatch_is_rejected_both_ways() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let err = SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::immediate(1))
            .strategy(batch_strategy())
            .build_core()
            .expect_err("batch mapper in immediate mode must fail");
        assert!(matches!(err, ConfigError::ModeMismatch { .. }));

        let err = SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(1))
            .strategy(MappingStrategy::Immediate(Box::new(ToFirst)))
            .build_core()
            .expect_err("immediate mapper in batch mode must fail");
        assert!(matches!(err, ConfigError::ModeMismatch { .. }));
    }

    #[test]
    fn zero_capacity_and_tiny_horizon_are_rejected() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let mut cfg = SimConfig::batch(1);
        cfg.queue_capacity = 0;
        let err = SchedulerBuilder::new(&cluster, &pet)
            .config(cfg)
            .strategy(batch_strategy())
            .build()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::ZeroQueueCapacity);

        let mut cfg = SimConfig::batch(1);
        cfg.horizon_bins = 0;
        let err = SchedulerBuilder::new(&cluster, &pet)
            .config(cfg)
            .strategy(batch_strategy())
            .build()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::HorizonTooSmall { horizon_bins: 0 });
    }

    #[test]
    fn belief_truth_mismatch_is_rejected() {
        let belief = pet();
        let truth =
            PetMatrix::new(BinSpec::new(200), 1, 1, vec![Pmf::point_mass(2)]);
        let cluster = Cluster::one_per_type(1);
        let err = SchedulerBuilder::new(&cluster, &belief)
            .strategy(batch_strategy())
            .truth(&truth)
            .build()
            .expect_err("bin-width mismatch must fail");
        assert_eq!(err, ConfigError::BeliefTruthMismatch { what: "bin width" });
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let pet = pet();
        let cluster = Cluster::one_per_type(0);
        let err = SchedulerBuilder::new(&cluster, &pet)
            .strategy(batch_strategy())
            .build()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::EmptyCluster);
    }
}
