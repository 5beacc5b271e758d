//! Golden regression tests: exact pinned outcomes for small, fully
//! deterministic pipelines.
//!
//! Every component in the chain (workload synthesis, PET generation,
//! event ordering, heuristics, pruning, execution sampling) is seeded
//! and deterministic, so these values are stable across runs and
//! platforms. If an intentional behaviour change moves them, update the
//! constants *deliberately* — an unintentional move is a regression in
//! one of a dozen interacting components that unit tests may individually
//! miss.

#[path = "common/core_loop.rs"]
mod core_loop;

use taskprune::prelude::*;
use taskprune::ClusterKind;

fn fixture() -> (Cluster, PetMatrix, taskprune_workload::WorkloadTrial) {
    let (cluster, petgen) = ClusterKind::Heterogeneous.materialise();
    let pet = petgen.generate();
    let trial = WorkloadConfig {
        total_tasks: 800,
        span_tu: 150.0,
        ..WorkloadConfig::paper_default(0x601D)
    }
    .generate_trial(&pet, 0);
    (cluster, pet, trial)
}

#[test]
fn workload_synthesis_is_pinned() {
    let (_, _, trial) = fixture();
    assert_eq!(trial.len(), 724);
    let t0 = &trial.tasks[0];
    let t_mid = &trial.tasks[400];
    assert_eq!(
        (t0.arrival.ticks(), t0.deadline.ticks(), t0.type_id.0),
        (2_071, 12_649, 0)
    );
    assert_eq!(
        (
            t_mid.arrival.ticks(),
            t_mid.deadline.ticks(),
            t_mid.type_id.0
        ),
        (87_442, 99_516, 10)
    );
}

#[test]
fn bare_mm_outcomes_are_pinned() {
    let (cluster, pet, trial) = fixture();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(9))
        .heuristic(HeuristicKind::Mm)
        .run(&trial.tasks);
    assert_eq!(
        (
            stats.count(TaskOutcome::CompletedOnTime),
            stats.count(TaskOutcome::CompletedLate),
            stats.count(TaskOutcome::DroppedReactive),
        ),
        (GOLDEN_MM_BARE.0, GOLDEN_MM_BARE.1, GOLDEN_MM_BARE.2),
        "bare MM outcome counts moved"
    );
}

#[test]
fn pruned_mm_outcomes_are_pinned() {
    let (cluster, pet, trial) = fixture();
    let stats = ResourceAllocator::new(&cluster, &pet, SimConfig::batch(9))
        .heuristic(HeuristicKind::Mm)
        .pruning(PruningConfig::paper_default())
        .run(&trial.tasks);
    assert_eq!(
        (
            stats.count(TaskOutcome::CompletedOnTime),
            stats.count(TaskOutcome::DroppedProactive),
            stats.deferrals,
        ),
        (GOLDEN_MM_PRUNED.0, GOLDEN_MM_PRUNED.1, GOLDEN_MM_PRUNED.2),
        "pruned MM outcome counts moved"
    );
}

// Pinned values, regenerated via `cargo run -p taskprune-bench --bin
// golden_pin` whenever behaviour changes intentionally.
const GOLDEN_MM_BARE: (usize, usize, usize) = (446, 126, 152);
const GOLDEN_MM_PRUNED: (usize, usize, u64) = (636, 36, 2_872);

/// FNV-1a over the timestamped decision stream, in order. Each entry is
/// folded as the time's ticks, a variant tag, the task id and (for an
/// assignment) the machine id, all little-endian.
fn decision_stream_hash(entries: &[(SimTime, taskprune_sim::Decision)]) -> u64 {
    use taskprune_sim::Decision;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (at, d) in entries {
        fold(&at.ticks().to_le_bytes());
        let (tag, machine) = match *d {
            Decision::Assign { machine, .. } => (0u8, machine.0),
            Decision::DeferToBatch { .. } => (1, 0),
            Decision::DropReactive { .. } => (2, 0),
            Decision::DropProbabilistic { .. } => (3, 0),
            Decision::Reject { .. } => (4, 0),
            Decision::CancelRunning { .. } => (5, 0),
        };
        fold(&[tag]);
        fold(&d.task().0.to_le_bytes());
        fold(&machine.to_le_bytes());
    }
    h
}

/// The pruned fixture's whole decision stream — every assignment,
/// deferral and drop, with its time and order — under each batch
/// heuristic, as the core emits it to a loop that drives it through
/// its public API (`tests/common/core_loop.rs`). The outcome counts
/// above would not notice a reordering that keeps the totals; these
/// hashes do.
#[test]
fn pruned_decision_streams_are_pinned() {
    let (cluster, pet, trial) = fixture();
    for (kind, expected) in [
        (HeuristicKind::Mm, GOLDEN_STREAM_MM),
        (HeuristicKind::Msd, GOLDEN_STREAM_MSD),
        (HeuristicKind::Mmu, GOLDEN_STREAM_MMU),
    ] {
        let core = taskprune_sim::SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(9))
            .strategy(kind.make())
            .pruner(PruningMechanism::new(
                PruningConfig::paper_default(),
                pet.n_task_types(),
            ))
            .build_core()
            .expect("valid golden configuration");
        let mut entries = Vec::new();
        core_loop::drive_core(core, &pet, &trial.tasks, |at, decision| {
            entries.push((at, decision));
        });
        assert!(!entries.is_empty());
        assert_eq!(
            decision_stream_hash(&entries),
            expected,
            "{kind:?} pruned decision stream moved ({} decisions)",
            entries.len()
        );
    }
}

/// The trace speaks the decision stream's vocabulary: on the pruned
/// fixture, under each batch heuristic, the (time, decision) pairs a
/// traced core's caller drains are exactly the trace's `Decided`
/// entries, in order. (No reuse runs here, so no follower decision is
/// traced without being drained.)
#[test]
fn traced_decisions_are_the_drained_decisions() {
    use taskprune_sim::{TraceEvent, TraceLog};
    let (cluster, pet, trial) = fixture();
    for kind in [HeuristicKind::Mm, HeuristicKind::Msd, HeuristicKind::Mmu] {
        let core = taskprune_sim::SchedulerBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(9))
            .strategy(kind.make())
            .pruner(PruningMechanism::new(
                PruningConfig::paper_default(),
                pet.n_task_types(),
            ))
            .sink(TraceLog::new(1 << 20, 16))
            .build_core()
            .expect("valid golden configuration");
        let mut drained = Vec::new();
        let stats =
            core_loop::drive_core(core, &pet, &trial.tasks, |at, decision| {
                drained.push((at, decision));
            });
        let trace = stats.trace.expect("the core was traced");
        assert_eq!(trace.dropped_events, 0, "{kind:?}: the ring overflowed");
        let decided: Vec<_> = trace
            .events()
            .filter_map(|&(at, e)| match e {
                TraceEvent::Decided(d) => Some((at, d)),
                _ => None,
            })
            .collect();
        assert!(!drained.is_empty());
        assert_eq!(drained, decided, "{kind:?}");
    }
}

/// The pruned fixture's decision stream in immediate mode, MCT with the
/// paper's pruning. Each arrival's mapping event runs the Steps 4–6
/// drop walk over every queue, so this pins the chances `plan_drops`
/// reports, which the batch streams above reach only between deferral
/// rounds. The stream must hold probabilistic drops, or it would not
/// pin them.
#[test]
fn pruned_immediate_decision_stream_is_pinned() {
    use taskprune_sim::Decision;
    let (cluster, pet, trial) = fixture();
    let core = taskprune_sim::SchedulerBuilder::new(&cluster, &pet)
        .config(SimConfig::immediate(9))
        .strategy(HeuristicKind::Mct.make())
        .pruner(PruningMechanism::new(
            PruningConfig::paper_default(),
            pet.n_task_types(),
        ))
        .build_core()
        .expect("valid golden configuration");
    let mut entries = Vec::new();
    core_loop::drive_core(core, &pet, &trial.tasks, |at, decision| {
        entries.push((at, decision));
    });
    let dropped = entries
        .iter()
        .filter(|(_, d)| matches!(d, Decision::DropProbabilistic { .. }))
        .count();
    assert!(dropped > 0, "no probabilistic drop to pin");
    assert_eq!(
        (decision_stream_hash(&entries), entries.len(), dropped),
        GOLDEN_STREAM_MCT_IMMEDIATE,
        "MCT immediate pruned decision stream moved"
    );
}

// Hashes of the pruned decision streams, recorded before the deferral
// loop's mapper, estimator and candidate list were optimised; they must
// not move with any optimisation that keeps every decision.
const GOLDEN_STREAM_MM: u64 = 3_355_520_884_256_623_010;
const GOLDEN_STREAM_MSD: u64 = 8_364_599_220_186_489_687;
const GOLDEN_STREAM_MMU: u64 = 740_984_753_468_499_731;
// The immediate-mode stream's (hash, decisions, probabilistic drops),
// recorded before the Eq. 2 sums became slice kernels.
const GOLDEN_STREAM_MCT_IMMEDIATE: (u64, usize, usize) =
    (1_535_153_739_897_202_254, 772, 41);

/// FNV-1a over a string's bytes.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A 4-shard federation's serialized outcome record under each routing
/// policy. The stateful policies read every shard's live queues per
/// arrival, so these hashes pin least-queued routing decisions, which
/// no single-shard pin reaches.
#[test]
fn federated_routing_outputs_are_pinned() {
    let (cluster, pet, _) = fixture();
    let trial = WorkloadConfig {
        total_tasks: 4_000,
        span_tu: 150.0,
        ..WorkloadConfig::paper_default(0x601D)
    }
    .generate_trial(&pet, 0);
    let n_types = pet.n_task_types();
    for (policy, expected) in [
        (
            Box::new(RoundRobinRoute::new()) as Box<dyn RoutePolicy>,
            GOLDEN_FED_ROUND_ROBIN,
        ),
        (Box::new(LeastQueuedRoute::new()), GOLDEN_FED_LEAST_QUEUED),
    ] {
        let name = policy.name().to_owned();
        let stats = GatewayBuilder::new(&cluster, &pet)
            .config(SimConfig::batch(9))
            .shards(4)
            .policy_boxed(policy)
            .strategy_with(|_| HeuristicKind::Mm.make())
            .pruner_with(move |_| {
                Box::new(PruningMechanism::new(
                    PruningConfig::paper_default(),
                    n_types,
                ))
            })
            .build()
            .expect("valid golden configuration")
            .run_stream(trial.tasks.iter().copied());
        let wire = serde_json::to_string(&stats).expect("serializes");
        assert_eq!(
            fnv1a(&wire),
            expected,
            "{name} federated outcome record moved (robustness {:.1} %)",
            stats.paper_robustness_pct()
        );
    }
}

// Hashes of the serialized `FederationStats`, recorded while the
// relaxed-routing layer (bounded-staleness views, batch stealing) still
// existed; deleting it must not move a live-view routing decision.
const GOLDEN_FED_ROUND_ROBIN: u64 = 14_752_896_931_104_504_583;
const GOLDEN_FED_LEAST_QUEUED: u64 = 9_789_201_750_979_085_887;
