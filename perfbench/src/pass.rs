//! One pass: every trial of a workload, each generated, built, run and
//! summarised in turn, so memory holds one trial at a time and the
//! peak resident set reflects the program rather than the inputs.
//!
//! Set-up (PET generation, trial generation, scheduler builds) and the
//! driven run are timed apart on the on-CPU clock.

use crate::clock::cpu_ns;
use crate::drive::{self, Decided, LoopCounts, Probe};
use crate::trace::{self, PassTotals};
use crate::workload::{self, Inputs, Spec};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use taskprune_sim::{
    FederationStats, Gateway, RecoveryActionKind, RecoveryPolicy, Supervisor,
};

/// On-CPU nanoseconds of one pass's set-up, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// PET matrix generation.
    pub pet_ns: u64,
    /// Trial generation, duplicates included.
    pub trials_ns: u64,
    /// Scheduler builds, with the supervisor's initial checkpoints.
    pub build_ns: u64,
}

impl SetupSample {
    /// The whole set-up.
    pub fn total_ns(&self) -> u64 {
        self.pet_ns + self.trials_ns + self.build_ns
    }
}

/// The outcome of one trial, as every check compares it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// `FederationStats::paper_robustness_pct`.
    pub robustness_pct: f64,
    /// The drained decision stream.
    pub decided: Decided,
    /// `FederationStats::mapping_events`.
    pub mapping_events: u64,
    /// `FederationStats::deferrals`.
    pub deferrals: u64,
    /// Arrivals the reuse gate absorbed.
    pub absorbed: u64,
    /// `CheckpointTaken` entries in the recovery log.
    pub checkpoints: u64,
    /// Hash of the serialized `FederationStats` (trial 0 only; the
    /// string itself is megabytes, too much to keep per pass).
    pub wire_hash: Option<u64>,
}

/// One pass's measurements.
pub struct Pass {
    /// Its set-up time.
    pub setup: SetupSample,
    /// On-CPU nanoseconds of the driven trials.
    pub cpu_ns: u64,
    /// Wall-clock nanoseconds of the driven trials.
    pub wall_ns: u64,
    /// Arrivals pushed.
    pub arrivals: u64,
    /// Arrivals refused with `Err`, plus tasks unreported at finish.
    pub failed: u64,
    /// Per-trial outcomes.
    pub trials: Vec<TrialOutcome>,
    /// Span totals (traced passes).
    pub totals: PassTotals,
}

/// A built scheduler, boxed: the two differ in size by hundreds of bytes.
enum Built<'a> {
    Gateway(Box<Gateway<'a>>),
    Supervisor(Box<Supervisor<'a>>),
}

fn build<'a>(
    spec: &Spec,
    inputs: &'a Inputs,
    seed: u64,
    trial: u32,
    traced: bool,
) -> Result<Built<'a>, String> {
    let b = workload::builder(
        spec,
        inputs,
        workload::sim_seed(seed, trial),
        traced,
    );
    Ok(if spec.supervised {
        let engine = b.build().map_err(|e| format!("build: {e:?}"))?;
        Built::Supervisor(Box::new(Supervisor::new(
            engine,
            RecoveryPolicy::default(),
        )))
    } else {
        Built::Gateway(Box::new(
            b.build_gateway().map_err(|e| format!("build: {e:?}"))?,
        ))
    })
}

fn outcome(
    stats: &FederationStats,
    counts: &LoopCounts,
    wire: bool,
) -> TrialOutcome {
    TrialOutcome {
        robustness_pct: stats.paper_robustness_pct(),
        decided: counts.decided,
        mapping_events: stats.mapping_events(),
        deferrals: stats.deferrals(),
        absorbed: stats.reuse_stats().absorbed(),
        checkpoints: stats
            .recovery_log()
            .count(|k| matches!(k, RecoveryActionKind::CheckpointTaken { .. }))
            as u64,
        wire_hash: wire.then(|| wire_hash(stats)),
    }
}

/// The wire shape the program's own tests compare.
fn serialize(stats: &FederationStats) -> String {
    serde_json::to_string(stats).expect("FederationStats serializes")
}

/// A hash of [`serialize`]'s output. `DefaultHasher::new` uses fixed
/// keys, so equal stats hash equally in every process.
pub fn wire_hash(stats: &FederationStats) -> u64 {
    let mut h = DefaultHasher::new();
    serialize(stats).hash(&mut h);
    h.finish()
}

/// Sets up one pass and, given a probe, runs it: untraced or traced as
/// the probe is. Without a probe the pass is a set-up time sample only.
/// With `keep_spans`, the spans of trial 0 are kept for writing out.
///
/// # Errors
/// When a scheduler fails to build or the on-CPU clock is unreadable.
pub fn run(
    spec: &Spec,
    seed: u64,
    mut probe: Option<&mut Probe>,
    keep_spans: bool,
) -> Result<Pass, String> {
    let traced = probe.as_ref().is_some_and(|p| p.traced());
    let mut pass = Pass {
        setup: SetupSample::default(),
        cpu_ns: 0,
        wall_ns: 0,
        arrivals: 0,
        failed: 0,
        trials: Vec::new(),
        totals: PassTotals::default(),
    };
    trace::take_pass();
    let c0 = cpu_ns()?;
    let inputs = Inputs::generate(spec, seed);
    pass.setup.pet_ns = cpu_ns()? - c0;
    for i in 0..spec.trials {
        let c1 = cpu_ns()?;
        let tasks = inputs.trial(spec, i);
        let c2 = cpu_ns()?;
        let built = build(spec, &inputs, seed, i, traced)?;
        let c3 = cpu_ns()?;
        pass.setup.trials_ns += c2 - c1;
        pass.setup.build_ns += c3 - c2;
        let Some(probe) = probe.as_deref_mut() else {
            continue;
        };
        trace::keep_spans(keep_spans && i == 0);
        let wall = Instant::now();
        let c4 = cpu_ns()?;
        let (stats, counts) = match built {
            Built::Gateway(g) => drive::gateway(*g, &tasks, &inputs.pet, probe),
            Built::Supervisor(s) => drive::supervised(*s, &tasks, probe),
        };
        pass.cpu_ns += cpu_ns()? - c4;
        pass.wall_ns += wall.elapsed().as_nanos() as u64;
        trace::keep_spans(false);
        pass.arrivals += counts.arrivals;
        pass.failed += counts.failed_pushes + stats.unreported() as u64;
        pass.trials.push(outcome(&stats, &counts, i == 0));
    }
    pass.totals = trace::take_pass();
    Ok(pass)
}

/// The program's own driver on trial 0, unsupervised and untraced: the
/// reference every pass's trial 0 must serialize identically to.
pub struct Reference {
    /// [`wire_hash`] of `FederatedEngine::run_stream`'s stats (paused
    /// once at the last arrival, which leaves the run unchanged).
    pub wire_hash: u64,
    /// On-CPU nanoseconds of the run, without the checkpoints.
    pub run_ns: u64,
    /// On-CPU nanoseconds of one `FederatedEngine::checkpoint` of
    /// every shard, on the engine paused at the last arrival.
    pub checkpoint_ns: u64,
}

/// Runs the reference for `spec` and `seed`.
///
/// # Errors
/// When the engine fails to build or the on-CPU clock is unreadable.
pub fn reference(spec: &Spec, seed: u64) -> Result<Reference, String> {
    let inputs = Inputs::generate(spec, seed);
    let tasks = inputs.trial(spec, 0);
    let mut engine =
        workload::builder(spec, &inputs, workload::sim_seed(seed, 0), false)
            .build()
            .map_err(|e| format!("build: {e:?}"))?;
    let mut source = tasks.iter().copied().peekable();
    let c0 = cpu_ns()?;
    engine.run_until(&mut source, tasks.len() as u64);
    let c1 = cpu_ns()?;
    for shard in 0..engine.n_shards() {
        std::hint::black_box(engine.checkpoint(shard));
    }
    let c2 = cpu_ns()?;
    let stats = engine.finish_stream(&mut source);
    let c3 = cpu_ns()?;
    Ok(Reference {
        wire_hash: wire_hash(&stats),
        run_ns: (c1 - c0) + (c3 - c2),
        checkpoint_ns: c2 - c1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    /// A tiny trial of every configuration, with and without the
    /// tracing wrappers: the serialized stats, the mid-run gateway
    /// snapshot (which holds every plug-in's state) and the
    /// supervisor's recovery log must all be identical.
    #[test]
    fn wrappers_leave_every_configuration_byte_identical() {
        for spec in SPECS {
            let inputs = Inputs::tiny(&spec, 5);
            let tasks = inputs.trial(&spec, 0);
            let run = |traced: bool| {
                let builder = workload::builder(&spec, &inputs, 9, traced);
                let mut engine = builder.build().expect("valid configuration");
                let mut source = tasks.iter().copied().peekable();
                engine.run_until(&mut source, tasks.len() as u64 / 2);
                let snapshot = engine.snapshot_gateway();
                let stats = engine.finish_stream(&mut source);
                let mut probe = Probe::new(traced);
                let builder = workload::builder(&spec, &inputs, 9, traced);
                let (driven, _) = if spec.supervised {
                    let engine = builder.build().expect("valid configuration");
                    let supervisor =
                        Supervisor::new(engine, RecoveryPolicy::default());
                    drive::supervised(supervisor, &tasks, &mut probe)
                } else {
                    let gateway =
                        builder.build_gateway().expect("valid configuration");
                    drive::gateway(gateway, &tasks, &inputs.pet, &mut probe)
                };
                (
                    serialize(&stats),
                    snapshot,
                    serialize(&driven),
                    driven.recovery_log().len(),
                )
            };
            let (plain, traced) = (run(false), run(true));
            assert_eq!(plain, traced, "{}", spec.name);
            assert_eq!(plain.0, plain.2, "{}: driven vs engine", spec.name);
        }
    }
}
