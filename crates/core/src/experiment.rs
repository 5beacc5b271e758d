//! The experiment runner: the paper's 30-trial protocol (§V-A).
//!
//! One [`ExperimentConfig`] describes a single point in one of the
//! paper's plots — a (heuristic, pruning, workload, cluster) tuple — and
//! [`run_experiment`] executes its independent trials in parallel with
//! rayon (the paper used an HPC cluster for the same fan-out), reporting
//! the mean and 95 % confidence interval of the robustness metric.
//!
//! Trials are scheduled **one job per trial on a work-stealing pool**
//! (the vendored rayon), not chunk-per-core: trial durations are
//! heavily skewed — an oversubscribed trial's mapping events cost far
//! more than an undersubscribed one's — and contiguous chunks used to
//! leave cores idle behind the slowest chunk. Stealing reorders only
//! *execution*; each trial writes its own result slot, so the
//! aggregate is bit-identical at any pool size (`TASKPRUNE_THREADS`
//! pins the size; `tests/determinism.rs` pins the identity against a
//! serial reference).

use crate::allocator::ResourceAllocator;
use crate::pruner::PruningConfig;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use taskprune_heuristics::HeuristicKind;
use taskprune_model::Cluster;
use taskprune_prob::rng::derive_seed;
use taskprune_prob::stats::SummaryStats;
use taskprune_sim::stats::PAPER_TRIM;
use taskprune_sim::SimConfig;
use taskprune_workload::{PetGenConfig, WorkloadConfig};

/// The PET matrix is held constant across every experiment, exactly as
/// the paper does ("The PET matrix remains constant across all of our
/// experiments"); this is the seed that pins it.
pub const PET_MATRIX_SEED: u64 = 0x9E7_0001;

/// Which cluster the experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterKind {
    /// The paper's 8-type inconsistently heterogeneous cluster.
    Heterogeneous,
    /// A homogeneous cluster of `n` identical machines (Fig. 10).
    Homogeneous {
        /// Number of machines.
        n: u16,
    },
}

impl ClusterKind {
    /// Builds the cluster and its PET generation config.
    pub fn materialise(self) -> (Cluster, PetGenConfig) {
        match self {
            ClusterKind::Heterogeneous => (
                taskprune_workload::machines::heterogeneous_cluster(),
                PetGenConfig::paper_heterogeneous(PET_MATRIX_SEED),
            ),
            ClusterKind::Homogeneous { n } => (
                taskprune_workload::machines::homogeneous_cluster(n),
                PetGenConfig::paper_homogeneous(PET_MATRIX_SEED),
            ),
        }
    }
}

/// One experimental point: heuristic × pruning × workload × cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Label shown in reports (e.g. "MM-P @ 15k spiky").
    pub label: String,
    /// The mapping heuristic.
    pub heuristic: HeuristicKind,
    /// Pruning mechanism configuration; `None` = unmodified baseline.
    pub pruning: Option<PruningConfig>,
    /// The workload family.
    pub workload: WorkloadConfig,
    /// The cluster to schedule onto.
    pub cluster: ClusterKind,
    /// Simulator parameters (mode is overridden to match the heuristic).
    pub sim: SimConfig,
    /// Number of independent trials (30 in the paper).
    pub n_trials: u32,
    /// Overrides the cluster's default PET generation (used by the
    /// bin-width ablation; `None` = the paper's fixed matrix).
    pub petgen: Option<PetGenConfig>,
}

impl ExperimentConfig {
    /// A paper-defaults experiment for the given heuristic and workload.
    pub fn new(
        heuristic: HeuristicKind,
        pruning: Option<PruningConfig>,
        workload: WorkloadConfig,
    ) -> Self {
        let suffix = if pruning.is_some() { "-P" } else { "" };
        Self {
            label: format!(
                "{}{} @ {} {}",
                heuristic.name(),
                suffix,
                workload.total_tasks,
                workload.pattern.label()
            ),
            heuristic,
            pruning,
            workload,
            cluster: ClusterKind::Heterogeneous,
            sim: SimConfig::batch(0),
            n_trials: 30,
            petgen: None,
        }
    }

    /// Switches the cluster kind.
    pub fn on_cluster(mut self, cluster: ClusterKind) -> Self {
        self.cluster = cluster;
        self
    }

    /// Overrides the trial count (smoke tests use fewer than 30).
    pub fn trials(mut self, n: u32) -> Self {
        self.n_trials = n;
        self
    }

    /// Overrides the PET matrix generation (ablations only).
    pub fn with_petgen(mut self, petgen: PetGenConfig) -> Self {
        self.petgen = Some(petgen);
        self
    }
}

/// Aggregated outcome of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The experiment's label.
    pub label: String,
    /// Robustness (% tasks on time, trimmed window) per trial.
    pub per_trial_robustness: Vec<f64>,
    /// Mean ± CI of the robustness metric.
    pub robustness: SummaryStats,
    /// Mean fraction of executed machine-time that was wasted.
    pub mean_wasted_fraction: f64,
    /// Mean number of deferral decisions per trial.
    pub mean_deferrals: f64,
    /// Mean count of proactive drops per trial.
    pub mean_proactive_drops: f64,
    /// Mean variance of per-type on-time fractions (fairness; lower is
    /// fairer).
    pub mean_type_variance: f64,
}

impl ExperimentResult {
    /// Whether this experiment's robustness is statistically above
    /// `other`'s at the 95 % level (one-sided Welch's t-test over the
    /// per-trial values) — the proper way to claim "pruning wins" from
    /// two 30-trial samples.
    pub fn significantly_above(&self, other: &ExperimentResult) -> bool {
        taskprune_prob::stats::significantly_above(
            &self.robustness,
            &other.robustness,
        )
    }

    /// `label: mean ± ci` one-liner for console reports.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<28} {:>6.2} ± {:>5.2} %  (waste {:>5.1} %, defer {:>8.0}, drop {:>7.0})",
            self.label,
            self.robustness.mean,
            self.robustness.ci95_half_width,
            100.0 * self.mean_wasted_fraction,
            self.mean_deferrals,
            self.mean_proactive_drops,
        )
    }
}

/// Per-trial metric tuple: (robustness %, wasted fraction, deferrals,
/// proactive drops, per-type variance).
type TrialMetrics = (f64, f64, f64, f64, f64);

/// Runs every trial of an experiment (rayon-parallel) and aggregates:
/// materialises the cluster and PET matrix, runs each trial with the
/// heuristic, the pruning and a derived independent execution seed, and
/// folds the per-trial metrics into an [`ExperimentResult`].
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let (cluster, default_petgen) = cfg.cluster.materialise();
    let pet = cfg.petgen.clone().unwrap_or(default_petgen).generate();

    let trials: Vec<u32> = (0..cfg.n_trials).collect();
    let outcomes: Vec<TrialMetrics> = trials
        .par_iter()
        .map(|&trial_idx| {
            let trial = cfg.workload.generate_trial(&pet, trial_idx);
            let mut sim = cfg.sim;
            // Each trial gets an independent execution-sampling stream.
            sim.seed = derive_seed(
                cfg.workload.seed,
                0x51D_0000 + u64::from(trial_idx),
            );
            // The allocator resolves this trial's configuration through
            // the validated builders; a bad experiment config fails
            // every trial identically, so surface the typed error once
            // with context instead of panicking deep in the driver.
            let stats = ResourceAllocator::new(&cluster, &pet, sim)
                .heuristic(cfg.heuristic)
                .pruning_opt(cfg.pruning)
                .try_run(&trial.tasks)
                .unwrap_or_else(|e| {
                    panic!("experiment {:?} rejected: {e}", cfg.label)
                });
            debug_assert_eq!(stats.unreported(), 0);
            (
                stats.robustness_pct(PAPER_TRIM),
                stats.wasted_fraction(),
                stats.deferrals as f64,
                stats.count(taskprune_model::TaskOutcome::DroppedProactive)
                    as f64,
                stats.per_type_on_time_variance(),
            )
        })
        .collect();

    let per_trial: Vec<f64> = outcomes.iter().map(|o| o.0).collect();
    let robustness =
        SummaryStats::from_values(&per_trial).expect("at least one trial");
    let mean = |f: fn(&TrialMetrics) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
    };
    ExperimentResult {
        label: cfg.label.clone(),
        per_trial_robustness: per_trial,
        robustness,
        mean_wasted_fraction: mean(|o| o.1),
        mean_deferrals: mean(|o| o.2),
        mean_proactive_drops: mean(|o| o.3),
        mean_type_variance: mean(|o| o.4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            total_tasks: 400,
            span_tu: 100.0,
            ..WorkloadConfig::paper_default(seed)
        }
    }

    #[test]
    fn experiment_aggregates_trials() {
        let cfg =
            ExperimentConfig::new(HeuristicKind::Mm, None, small_workload(11))
                .trials(4);
        let result = run_experiment(&cfg);
        assert_eq!(result.per_trial_robustness.len(), 4);
        assert_eq!(result.robustness.n, 4);
        assert!(result.robustness.mean >= 0.0);
        assert!(result.robustness.mean <= 100.0);
    }

    #[test]
    fn experiment_is_reproducible() {
        let cfg = ExperimentConfig::new(
            HeuristicKind::Msd,
            Some(PruningConfig::paper_default()),
            small_workload(13),
        )
        .trials(3);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.per_trial_robustness, b.per_trial_robustness);
    }

    #[test]
    fn pruning_gain_is_statistically_significant() {
        // An oversubscribed fixture where the gain is large: the Welch
        // test must call it, and must not call the reverse.
        let workload = WorkloadConfig {
            total_tasks: 800,
            span_tu: 120.0,
            ..WorkloadConfig::paper_default(21)
        };
        let bare = run_experiment(
            &ExperimentConfig::new(HeuristicKind::Msd, None, workload.clone())
                .trials(5),
        );
        let pruned = run_experiment(
            &ExperimentConfig::new(
                HeuristicKind::Msd,
                Some(PruningConfig::paper_default()),
                workload,
            )
            .trials(5),
        );
        assert!(pruned.significantly_above(&bare));
        assert!(!bare.significantly_above(&pruned));
        assert!(!pruned.significantly_above(&pruned));
    }

    #[test]
    fn labels_encode_pruning() {
        let base =
            ExperimentConfig::new(HeuristicKind::Mm, None, small_workload(1));
        let pruned = ExperimentConfig::new(
            HeuristicKind::Mm,
            Some(PruningConfig::paper_default()),
            small_workload(1),
        );
        assert!(base.label.starts_with("MM @"));
        assert!(pruned.label.starts_with("MM-P @"));
    }

    #[test]
    fn homogeneous_cluster_materialises() {
        let (cluster, petgen) = ClusterKind::Homogeneous { n: 8 }.materialise();
        assert_eq!(cluster.len(), 8);
        assert!(cluster.is_homogeneous());
        assert_eq!(petgen.n_machine_types, 1);
    }
}
