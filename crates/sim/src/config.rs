//! Simulator configuration and its typed validation errors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether the resource allocator runs in immediate or batch mode
/// (Fig. 1a vs. 1b of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationMode {
    /// Tasks are mapped to a machine the moment they arrive; there is no
    /// arrival queue and machine queues are unbounded.
    Immediate,
    /// Arriving tasks wait in a batch queue; mapping happens at mapping
    /// events and machine queues have bounded capacity.
    Batch,
}

/// Static parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Immediate or batch allocation.
    pub mode: AllocationMode,
    /// Waiting slots per machine queue (the paper never states its
    /// value; 4 by default, swept by the queue-capacity ablation). In
    /// immediate mode an arrival finding every queue full is rejected —
    /// there is no arrival queue to wait in (Fig. 1a).
    pub queue_capacity: usize,
    /// Horizon (in PMF bins, relative to `now`) beyond which queue-chain
    /// probability mass is lumped as "too late to matter". Must exceed
    /// the largest feasible deadline slack; 256 bins = 64 time units at
    /// the default bin width, ~6× the maximum Eq. 4 slack.
    pub horizon_bins: u64,
    /// If set, a task whose deadline passes while it is *executing* is
    /// cancelled to free the machine. Off by default: §II only drops
    /// *pending* tasks, and a non-preemptive machine runs to completion.
    pub cancel_running_late: bool,
    /// Seed for the simulator's own randomness (sampling actual
    /// execution durations).
    pub seed: u64,
}

impl SimConfig {
    /// Batch-mode defaults used by the paper's main experiments.
    pub fn batch(seed: u64) -> Self {
        Self {
            mode: AllocationMode::Batch,
            queue_capacity: 4,
            horizon_bins: 256,
            cancel_running_late: false,
            seed,
        }
    }

    /// Immediate-mode defaults (Fig. 7a experiments).
    pub fn immediate(seed: u64) -> Self {
        Self {
            mode: AllocationMode::Immediate,
            ..Self::batch(seed)
        }
    }

    /// Validates the static parameters, returning the first problem
    /// found. [`crate::SchedulerBuilder`] calls this before
    /// constructing anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.horizon_bins < MIN_HORIZON_BINS {
            return Err(ConfigError::HorizonTooSmall {
                horizon_bins: self.horizon_bins,
            });
        }
        Ok(())
    }
}

/// Smallest usable estimator horizon: bin 0 ("now") plus at least one
/// future bin — anything less lumps *all* probability mass as "too
/// late" and every chance query degenerates to zero.
pub const MIN_HORIZON_BINS: u64 = 2;

/// Why a scheduler configuration was rejected by
/// [`crate::SchedulerBuilder`]. Replaces the panicking validation the
/// former positional constructor performed mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The cluster has no machines to schedule onto.
    EmptyCluster,
    /// `queue_capacity` is zero: no task could ever be admitted.
    ZeroQueueCapacity,
    /// `horizon_bins` is below [`MIN_HORIZON_BINS`].
    HorizonTooSmall {
        /// The offending value.
        horizon_bins: u64,
    },
    /// The allocation mode and the mapping heuristic disagree (an
    /// immediate-mode mapper in batch mode, or vice versa).
    ModeMismatch {
        /// The configured allocation mode.
        mode: AllocationMode,
        /// The name of the mismatched heuristic.
        heuristic: String,
    },
    /// No mapping heuristic was supplied to the builder.
    MissingStrategy,
    /// The belief and ground-truth PET matrices disagree on shape or
    /// bin width, so estimates could not even index correctly.
    BeliefTruthMismatch {
        /// Which aspect disagrees ("machine types", "task types",
        /// "bin width").
        what: &'static str,
    },
    /// A [`crate::Gateway`] was asked for zero shards: there would be
    /// nowhere to route an arrival.
    ZeroShards,
    /// The parallel driver was asked to route over more than one shard
    /// with a policy that reads shard state (one that does not declare
    /// [`crate::RoutePolicy::is_stateless`]). Each such decision waits
    /// on the previous arrival's mapping event, so the routing chain is
    /// serial: run the policy on the serial driver
    /// ([`crate::GatewayBuilder::build`]).
    ParallelNeedsStatelessRoute {
        /// The name of the stateful policy.
        policy: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyCluster => {
                write!(f, "cluster must have at least one machine")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be at least 1")
            }
            ConfigError::HorizonTooSmall { horizon_bins } => write!(
                f,
                "horizon_bins = {horizon_bins} is below the minimum of \
                 {MIN_HORIZON_BINS}"
            ),
            ConfigError::ModeMismatch { mode, heuristic } => {
                write!(f, "heuristic {heuristic:?} cannot run in {mode:?} mode")
            }
            ConfigError::MissingStrategy => {
                write!(f, "select a mapping heuristic before building")
            }
            ConfigError::BeliefTruthMismatch { what } => {
                write!(f, "belief/truth PET matrices disagree on {what}")
            }
            ConfigError::ZeroShards => {
                write!(f, "a gateway needs at least one shard to route to")
            }
            ConfigError::ParallelNeedsStatelessRoute { policy } => write!(
                f,
                "routing policy {policy:?} reads shard state, so it \
                 cannot route more than one shard on the parallel \
                 driver: use the serial driver (GatewayBuilder::build)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Anything that can stop a run driven through the fallible entry
/// points (`ResourceAllocator::try_run` in the `taskprune` crate, shard
/// recovery, the gateway's admission): a configuration rejected up
/// front, a task of a type the
/// PET matrix lacks, a checkpoint that fails to verify, recovery
/// without a journal, or an overloaded federation. Every driver
/// compacts external ids at the gateway, so ids cannot be too sparse
/// for the outcome tables; a caller pushing into a bare core gets the
/// typed [`crate::StatsError`] from
/// [`crate::SchedulerCore::try_push_arrival`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The scheduler configuration was rejected at build time.
    Config(ConfigError),
    /// An arrival the outcome tables cannot record: a task type the PET
    /// matrix lacks ([`crate::StatsError::UnknownTaskType`]). Nothing
    /// was routed.
    Stats(crate::StatsError),
    /// A checkpoint failed verification or decode (shard failover
    /// replay).
    Snapshot(crate::snapshot::SnapshotError),
    /// `recover_shard` was asked to replay a shard on an engine that
    /// never enabled journaling: there is no operation log to replay,
    /// so "recovery" would silently lose every operation since the
    /// checkpoint. Call `enable_journal` before the run (the
    /// [`crate::Supervisor`] does this automatically).
    RecoveryUnavailable,
    /// The overload degradation ladder is rejecting this tenant's
    /// class outright (rung ≥ 2 for BestEffort, rung 3 for everything
    /// non-Premium). Surfaced by the fallible admission path
    /// ([`crate::Gateway::try_push_arrival`]); the infallible paths
    /// report the same event as [`crate::Admission::Shed`].
    Overloaded {
        /// The tenant whose arrival was rejected.
        tenant: u64,
        /// Suggested back-off, in simulation ticks, from the
        /// federation's [`crate::LadderConfig`].
        retry_after: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::Stats(e) => e.fmt(f),
            RunError::Snapshot(e) => e.fmt(f),
            RunError::RecoveryUnavailable => write!(
                f,
                "recover_shard requires enable_journal: without an \
                 operation journal there is nothing to replay, and \
                 recovery would silently lose operations"
            ),
            RunError::Overloaded {
                tenant,
                retry_after,
            } => write!(
                f,
                "federation overloaded: tenant {tenant} rejected by the \
                 degradation ladder, retry after {retry_after} ticks"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Stats(e) => Some(e),
            RunError::Snapshot(e) => Some(e),
            RunError::RecoveryUnavailable | RunError::Overloaded { .. } => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<crate::StatsError> for RunError {
    fn from(e: crate::StatsError) -> Self {
        RunError::Stats(e)
    }
}

impl From<crate::snapshot::SnapshotError> for RunError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_paper_defaults() {
        assert_eq!(SimConfig::batch(1).validate(), Ok(()));
        assert_eq!(SimConfig::immediate(1).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_capacity() {
        let mut cfg = SimConfig::batch(1);
        cfg.queue_capacity = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQueueCapacity));
    }

    #[test]
    fn validate_rejects_tiny_horizon() {
        let mut cfg = SimConfig::batch(1);
        cfg.horizon_bins = 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::HorizonTooSmall { horizon_bins: 1 })
        );
    }

    #[test]
    fn config_error_displays_are_specific() {
        let errors: Vec<ConfigError> = vec![
            ConfigError::EmptyCluster,
            ConfigError::ZeroQueueCapacity,
            ConfigError::HorizonTooSmall { horizon_bins: 0 },
            ConfigError::ModeMismatch {
                mode: AllocationMode::Batch,
                heuristic: "RR".to_string(),
            },
            ConfigError::MissingStrategy,
            ConfigError::BeliefTruthMismatch { what: "bin width" },
            ConfigError::ZeroShards,
            ConfigError::ParallelNeedsStatelessRoute {
                policy: "least-queued".to_string(),
            },
        ];
        let rendered: Vec<String> =
            errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b, "two errors render identically");
            }
        }
        assert!(rendered[3].contains("RR"));
        assert!(rendered[7].contains("least-queued"));
    }

    #[test]
    fn defaults() {
        let b = SimConfig::batch(1);
        assert_eq!(b.mode, AllocationMode::Batch);
        assert_eq!(b.queue_capacity, 4);
        let i = SimConfig::immediate(1);
        assert_eq!(i.mode, AllocationMode::Immediate);
        assert_eq!(i.queue_capacity, 4);
        assert!(!i.cancel_running_late);
    }
}
