//! # taskprune — probabilistic task pruning for robust serverless computing
//!
//! A from-scratch Rust implementation of *"Improving Robustness of
//! Heterogeneous Serverless Computing Systems Via Probabilistic Task
//! Pruning"* (Denninnart, Gentry, Amini Salehi — IPDPS Workshops 2019).
//!
//! The paper's idea: in an oversubscribed heterogeneous cluster, mapping
//! a task that probably cannot meet its deadline wastes capacity *and*
//! pushes other tasks past their deadlines. A **pruning mechanism** —
//! pluggable beside any existing mapping heuristic — computes each task's
//! probabilistic chance of success (from execution-time PMFs convolved
//! along the machine queue, Eq. 1–2) and
//!
//! * **defers** batch-queue tasks whose chance is below the *pruning
//!   threshold* (they may find a better machine at a later mapping
//!   event), and
//! * **drops** machine-queue tasks probabilistically once the *Toggle*
//!   module detects oversubscription, which also shrinks the compound
//!   uncertainty for the tasks behind them,
//!
//! while a **Fairness** module offsets the threshold per task type so the
//! mechanism does not starve long-running task types.
//!
//! ## Quick start
//!
//! ```
//! use taskprune::prelude::*;
//!
//! // The paper's cluster, PET matrix, and a small spiky workload.
//! let pet = PetGenConfig::paper_heterogeneous(7).generate();
//! let cluster = taskprune_workload::machines::heterogeneous_cluster();
//! let workload = WorkloadConfig {
//!     total_tasks: 600,
//!     span_tu: 120.0,
//!     ..WorkloadConfig::paper_default(7)
//! };
//! let trial = workload.generate_trial(&pet, 0);
//!
//! // MM heuristic, with and without the pruning mechanism.
//! let baseline = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
//!     .heuristic(HeuristicKind::Mm)
//!     .run(&trial.tasks);
//! let pruned = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(1))
//!     .heuristic(HeuristicKind::Mm)
//!     .pruning(PruningConfig::paper_default())
//!     .run(&trial.tasks);
//!
//! println!(
//!     "robustness: {:.1}% -> {:.1}%",
//!     baseline.robustness_pct(0),
//!     pruned.robustness_pct(0),
//! );
//! ```

#![warn(missing_docs)]

pub mod allocator;
pub mod experiment;
pub mod extensions;
pub mod pruner;

pub use allocator::ResourceAllocator;
pub use experiment::{
    run_experiment, ClusterKind, ExperimentConfig, ExperimentResult,
};
pub use pruner::{FairnessConfig, PruningConfig, PruningMechanism, ToggleMode};

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::allocator::ResourceAllocator;
    pub use crate::experiment::{
        run_experiment, ClusterKind, ExperimentConfig, ExperimentResult,
    };
    pub use crate::pruner::{
        FairnessConfig, PruningConfig, PruningMechanism, ToggleMode,
    };
    pub use taskprune_heuristics::HeuristicKind;
    pub use taskprune_model::{Cluster, PetMatrix, SimTime, Task, TaskOutcome};
    pub use taskprune_sim::{
        Admission, FaultKind, FaultPlan, FaultSpec, FederationStats,
        GatewayBuilder, LeastQueuedRoute, ParallelFederatedEngine, RecoveryLog,
        RecoveryPolicy, ReusePolicy, ReuseStats, RoundRobinRoute, RoutePolicy,
        RunError, SimConfig, SimStats, Supervisor,
    };
    pub use taskprune_workload::{
        ArrivalPattern, PetGenConfig, WorkloadConfig,
    };
}
