//! The four fixed-load workloads: their configurations, the inputs a
//! seed generates, and the scheduler builds.
//!
//! Offered load is fixed in *simulated* time (tasks per 3 000 time
//! units, spiky pattern, the paper's 8-machine cluster). README.md
//! records why each workload exists and which layers it loads.

use crate::trace;
use taskprune::experiment::PET_MATRIX_SEED;
use taskprune::pruner::{PruningConfig, PruningMechanism};
use taskprune_heuristics::HeuristicKind;
use taskprune_model::{Cluster, PetMatrix, Task};
use taskprune_prob::rng::derive_seed;
use taskprune_sim::{
    GatewayBuilder, Pruner, ReusePolicy, RoundRobinRoute, RoutePolicy,
    SimConfig,
};
use taskprune_workload::{PetGenConfig, WorkloadConfig};

/// One workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in BENCHMARK.json.
    pub name: &'static str,
    /// Tasks per trial per 3 000 tu, before duplicates.
    pub tasks: usize,
    /// Immediate mode with MCT (else batch mode with MM).
    pub immediate: bool,
    /// Shards behind the gateway (round-robin routing).
    pub shards: usize,
    /// Exact-duplicate reuse gate plus 30 % content duplicates.
    pub reuse: bool,
    /// Run under `Supervisor::run_until` steps instead of driving the
    /// gateway.
    pub supervised: bool,
    /// Trials in one pass: the unit of work every measurement repeats.
    pub trials: u32,
}

/// Every workload. BENCHMARK.json gates all but `immediate_25k`: there
/// drop planning runs on about 1 % of arrivals, so `arrival_p99_us`
/// sits on the cliff between ~2 µs and ~40–120 µs calls, and its
/// spread across runs exceeded the widest bound BENCHMARK.json allows.
/// It stays runnable for its per-layer figures (README.md).
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "batch_15k",
        tasks: 15_000,
        immediate: false,
        shards: 1,
        reuse: false,
        supervised: false,
        trials: 8,
    },
    Spec {
        name: "immediate_25k",
        tasks: 25_000,
        immediate: true,
        shards: 1,
        reuse: false,
        supervised: false,
        trials: 16,
    },
    Spec {
        name: "federation_reuse",
        tasks: 25_000,
        immediate: false,
        shards: 4,
        reuse: true,
        supervised: false,
        trials: 32,
    },
    Spec {
        name: "federation_supervised",
        tasks: 25_000,
        immediate: false,
        shards: 4,
        reuse: true,
        supervised: true,
        trials: 1,
    },
];

/// Share of arrivals re-submitted as content duplicates on the reuse
/// workloads.
const DUPLICATE_RATE: f64 = 0.3;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// What every trial of a pass shares: the PET matrix, the cluster and
/// the workload family the trials are drawn from.
pub struct Inputs {
    /// The paper's heterogeneous PET matrix (fixed seed, as in the
    /// paper's experiments, so trials differ only in their arrivals).
    pub pet: PetMatrix,
    /// The paper's cluster: one machine of each of the eight types.
    pub cluster: Cluster,
    family: WorkloadConfig,
    seed: u64,
}

impl Inputs {
    /// Generates the shared inputs of `spec` for `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        Self {
            pet: PetGenConfig::paper_heterogeneous(PET_MATRIX_SEED).generate(),
            cluster: taskprune_workload::machines::heterogeneous_cluster(),
            family: WorkloadConfig::paper_default(FAMILY_SEED)
                .with_total_tasks(spec.tasks),
            seed,
        }
    }

    /// A short, heavily loaded family (600 tasks in 60 tu) for tests.
    #[cfg(test)]
    pub fn tiny(spec: &Spec, seed: u64) -> Self {
        Self {
            family: WorkloadConfig {
                total_tasks: 600,
                span_tu: 60.0,
                ..WorkloadConfig::paper_default(FAMILY_SEED)
            },
            ..Self::generate(spec, seed)
        }
    }

    /// The arrival stream of trial `i` of a pass, sorted by arrival
    /// time, duplicates included on the reuse workloads. The same
    /// seed always gives the same stream.
    pub fn trial(&self, spec: &Spec, i: u32) -> Vec<Task> {
        let stream = self
            .family
            .stream_trial(&self.pet, trial_index(self.seed, i));
        if spec.reuse {
            let dup_seed = derive_seed(self.seed, 0xD0_0000 + u64::from(i));
            stream
                .with_duplicate_rate(DUPLICATE_RATE, dup_seed)
                .collect()
        } else {
            stream.collect()
        }
    }
}

/// Seed of the workload family: it fixes the per-type task mix (the
/// paper holds arrival rates constant within an experiment), so runs
/// with different `--seed`s differ in which trials they draw, not in
/// how loaded the system is.
const FAMILY_SEED: u64 = 0x7A5C_2019;

/// The family trial that slot `i` of a pass draws under `seed`.
fn trial_index(seed: u64, i: u32) -> u32 {
    derive_seed(seed, 0x7121_0000 + u64::from(i)) as u32
}

/// The execution-sampling seed of trial `trial` under `seed`.
pub fn sim_seed(seed: u64, trial: u32) -> u64 {
    derive_seed(seed, 0x5EED_0000 + u64::from(trial))
}

/// The scheduler configuration of `spec`, with the plug-ins wrapped in
/// the tracing instruments when `traced`.
pub fn builder<'a>(
    spec: &Spec,
    inputs: &'a Inputs,
    sim_seed: u64,
    traced: bool,
) -> GatewayBuilder<'a> {
    let (cfg, heuristic) = if spec.immediate {
        (SimConfig::immediate(sim_seed), HeuristicKind::Mct)
    } else {
        (SimConfig::batch(sim_seed), HeuristicKind::Mm)
    };
    let n_types = inputs.pet.n_task_types();
    let route: Box<dyn RoutePolicy> = Box::new(RoundRobinRoute::new());
    let builder = GatewayBuilder::new(&inputs.cluster, &inputs.pet)
        .config(cfg)
        .shards(spec.shards)
        .policy_boxed(if traced {
            Box::new(trace::TracedRoute(route))
        } else {
            route
        })
        .strategy_with(move |_| {
            let strategy = heuristic.make();
            if traced {
                trace::strategy(strategy)
            } else {
                strategy
            }
        })
        .pruner_with(move |_| {
            let pruner: Box<dyn Pruner> = Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ));
            if traced {
                Box::new(trace::TracedPruner(pruner))
            } else {
                pruner
            }
        });
    if spec.reuse {
        builder.reuse(ReusePolicy::ExactOnly)
    } else {
        builder
    }
}
