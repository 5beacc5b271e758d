//! Fluent, validated construction of scheduler cores.
//!
//! [`SchedulerBuilder`] is the one way to construct a
//! [`SchedulerCore`]: every knob is a named method, and invalid
//! configurations surface as typed [`ConfigError`]s at build time
//! instead of panics mid-run. The core is clock-free; streaming
//! callers drive it themselves, and [`crate::GatewayBuilder`] builds
//! one per shard for the discrete-event drivers (a single-cluster run
//! is a one-shard federation).
//!
//! ```no_run
//! # use taskprune_sim::{SchedulerBuilder, SimConfig, MappingStrategy,
//! #     NoPruning, TraceLog};
//! # fn strategy() -> MappingStrategy { unimplemented!() }
//! # let (cluster, pet) = unimplemented!();
//! let core = SchedulerBuilder::new(&cluster, &pet)
//!     .config(SimConfig::batch(42))
//!     .strategy(strategy())
//!     .pruner(NoPruning)
//!     .sink(TraceLog::with_defaults())
//!     .build_core()?;
//! # Ok::<(), taskprune_sim::ConfigError>(())
//! ```

use crate::config::{ConfigError, SimConfig};
use crate::core::SchedulerCore;
use crate::sink::{NullSink, Sink};
use crate::traits::{MappingStrategy, NoPruning, Pruner};
use taskprune_model::{Cluster, PetMatrix};

/// Builder for a [`SchedulerCore`]. See the [module docs](self).
///
/// The builder copies the (small) machine list out of the cluster, so
/// only the PET matrix must outlive the built core — the cluster
/// borrow ends with [`SchedulerBuilder::new`].
pub struct SchedulerBuilder<'a, S: Sink = NullSink> {
    cfg: SimConfig,
    machines: Vec<taskprune_model::Machine>,
    pet: &'a PetMatrix,
    strategy: Option<MappingStrategy>,
    pruner: Option<Box<dyn Pruner>>,
    sink: S,
}

impl<'a> SchedulerBuilder<'a, NullSink> {
    /// Starts a builder over the given cluster and (belief) PET matrix.
    /// Defaults: batch mode with the paper's parameters and seed 0, no
    /// pruning, and the zero-cost [`NullSink`].
    pub fn new(cluster: &Cluster, pet: &'a PetMatrix) -> Self {
        Self {
            cfg: SimConfig::batch(0),
            machines: cluster.machines().to_vec(),
            pet,
            strategy: None,
            pruner: None,
            sink: NullSink,
        }
    }
}

impl<'a, S: Sink> SchedulerBuilder<'a, S> {
    /// Sets the static simulation parameters (mode, capacity, horizon,
    /// seed, …).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
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

    /// Replaces the observability sink (default: the zero-cost
    /// [`NullSink`]). Passing a [`crate::TraceLog`] records the full
    /// execution trace into [`crate::SimStats::trace`].
    pub fn sink<T: Sink>(self, sink: T) -> SchedulerBuilder<'a, T> {
        SchedulerBuilder {
            cfg: self.cfg,
            machines: self.machines,
            pet: self.pet,
            strategy: self.strategy,
            pruner: self.pruner,
            sink,
        }
    }

    /// Checks the configuration without consuming the builder.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cfg.validate()?;
        if self.machines.is_empty() {
            return Err(ConfigError::EmptyCluster);
        }
        match &self.strategy {
            None => Err(ConfigError::MissingStrategy),
            Some(strategy) => {
                let compatible = match strategy {
                    MappingStrategy::Immediate(_) => {
                        self.cfg.mode == crate::AllocationMode::Immediate
                    }
                    MappingStrategy::Batch(_) => {
                        self.cfg.mode == crate::AllocationMode::Batch
                    }
                };
                if compatible {
                    Ok(())
                } else {
                    Err(ConfigError::ModeMismatch {
                        mode: self.cfg.mode,
                        heuristic: strategy.name().to_string(),
                    })
                }
            }
        }
    }

    /// Validates the configuration and builds the clock-free
    /// [`SchedulerCore`].
    pub fn build_core(self) -> Result<SchedulerCore<'a, S>, ConfigError> {
        self.validate()?;
        let strategy = self.strategy.expect("validated above");
        let pruner = self.pruner.unwrap_or_else(|| Box::new(NoPruning));
        Ok(SchedulerCore::from_parts(
            self.cfg,
            &self.machines,
            self.pet,
            strategy,
            pruner,
            self.sink,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Assignment, BatchMapper, ImmediateMapper};
    use crate::view::SystemView;
    use taskprune_model::{BinSpec, MachineId, Task};
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
    fn missing_strategy_is_rejected() {
        let pet = pet();
        let cluster = Cluster::one_per_type(1);
        let err = SchedulerBuilder::new(&cluster, &pet)
            .build_core()
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
            .build_core()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::ZeroQueueCapacity);

        let mut cfg = SimConfig::batch(1);
        cfg.horizon_bins = 0;
        let err = SchedulerBuilder::new(&cluster, &pet)
            .config(cfg)
            .strategy(batch_strategy())
            .build_core()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::HorizonTooSmall { horizon_bins: 0 });
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let pet = pet();
        let cluster = Cluster::one_per_type(0);
        let err = SchedulerBuilder::new(&cluster, &pet)
            .strategy(batch_strategy())
            .build_core()
            .expect_err("must fail");
        assert_eq!(err, ConfigError::EmptyCluster);
    }
}
