//! Federated ingest: one interleaved arrival stream, four scheduler
//! shards, load-balancing routing.
//!
//! Where `live_ingest` drives a single `SchedulerCore` by hand, this
//! example plays a federation front-end: four tenants' workloads are
//! merged into one arrival stream with sparse, snowflake-style external
//! ids, and every arrival is routed through a 4-shard [`Gateway`] by
//! the [`LeastQueuedRoute`] policy — each task goes to the shard
//! holding the fewest tasks, read from every shard's live queues at the
//! arrival's instant. The gateway's id-compaction layer
//! hands each shard a dense internal id space; completions are
//! reported back per shard; the fan-in record prints per-shard and
//! federated robustness.
//!
//! Run with: `cargo run --release --example federated_ingest`

use std::collections::BinaryHeap;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::FedStart;
use taskprune_workload::TaskStream;

/// One in-flight execution: the gateway's `FedStart` handle plus the
/// sampled finish instant; min-heap on finish. Holding the full handle
/// (not just the external id) is what lets the front-end complete the
/// right instance even after a duplicate external id re-submission
/// shadows it for `Gateway::resolve`, which answers with an external
/// id's latest arrival — completion goes through
/// `Gateway::complete_internal`.
struct InFlight {
    finish: SimTime,
    start: FedStart,
}

impl InFlight {
    /// Deterministic heap key: finish instant, shard, machine.
    fn key(&self) -> (SimTime, usize, u16) {
        (self.finish, self.start.shard, self.start.machine.id.0)
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for InFlight {}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key()) // reversed: min-heap
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn main() {
    const SHARDS: usize = 4;
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();

    // Four tenants, each an oversubscribed minute of traffic with its
    // own sparse external id namespace (snowflake-style), merged into
    // one interleaved arrival stream — exactly what a front-end sees.
    let tenants: Vec<TaskStream> = (0..SHARDS as u64)
        .map(|tenant| {
            WorkloadConfig {
                total_tasks: 400,
                span_tu: 60.0,
                ..WorkloadConfig::paper_default(100 + tenant)
            }
            .stream_trial(&pet, tenant as u32)
            .with_id_stride(1_000_000_000_000 * (tenant + 1), 1_009)
        })
        .collect();
    let total: usize = tenants.iter().map(TaskStream::remaining).sum();
    let mut source = TaskStream::merge(tenants).peekable();

    let mut gateway = GatewayBuilder::new(&cluster, &pet)
        .config(SimConfig::batch(7))
        .shards(SHARDS)
        .policy(LeastQueuedRoute::new())
        .strategy_with(|_| HeuristicKind::Mm.make())
        .pruner_with(|_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                pet.n_task_types(),
            ))
        })
        .build_gateway()
        .expect("valid configuration");

    println!(
        "streaming {total} interleaved arrivals (sparse external ids) \
         through a {SHARDS}-shard gateway, policy = {}...\n",
        gateway.policy_name()
    );

    // The "workers": per-shard executions in flight.
    let mut rng = Xoshiro256PlusPlus::new(7);
    let mut in_flight: BinaryHeap<InFlight> = BinaryHeap::new();
    let mut routed = [0usize; SHARDS];

    loop {
        let next_finish = in_flight.peek().map(|f| f.finish);
        let next_arrival = source.peek().map(|t| t.arrival);
        match (next_finish, next_arrival) {
            (None, None) => {
                // Wakeup safety net: fire the shard whose stuck work
                // expires soonest.
                let stuck = (0..SHARDS)
                    .filter_map(|s| {
                        gateway.earliest_pending_deadline(s).map(|d| (d, s))
                    })
                    .min();
                let Some((deadline, shard)) = stuck else {
                    break;
                };
                let now = gateway.now();
                gateway
                    .advance_to(SimTime(deadline.ticks().max(now.ticks()) + 1));
                gateway.wakeup(shard);
            }
            (Some(finish), arrival) if arrival.is_none_or(|a| finish <= a) => {
                let done = in_flight.pop().expect("peeked");
                gateway.advance_to(done.finish);
                gateway.complete_internal(&done.start);
            }
            _ => {
                let task = source.next().expect("peeked");
                gateway.advance_to(task.arrival);
                let admission = gateway.push_arrival(task);
                routed[admission.shard()] += 1;
            }
        }

        // Hand new executions to the workers (durations sampled from
        // the shared ground-truth PET, one front-end RNG).
        let now = gateway.now();
        for start in gateway.drain_starts().to_vec() {
            let duration = pet.sample_duration(
                start.machine.type_id,
                start.task.type_id,
                &mut rng,
            );
            in_flight.push(InFlight {
                finish: now + duration,
                start,
            });
        }
        gateway.drain_decisions();
    }

    let stats = gateway.finish();
    println!("--- drained ---");
    for (i, shard) in stats.per_shard.iter().enumerate() {
        println!(
            "shard {i}: {:>4} routed, {:>4} on time, {:>3} pruned, \
             robustness {:>5.1} %",
            routed[i],
            shard.count(TaskOutcome::CompletedOnTime),
            shard.count(TaskOutcome::DroppedProactive),
            shard.robustness_pct(0),
        );
    }
    println!(
        "\nfederated: {} tasks, {} on time, robustness {:.1} % \
         (arrival-ordered trim: {:.1} %), wasted work {:.1} %",
        stats.n_tasks(),
        stats.count(TaskOutcome::CompletedOnTime),
        stats.robustness_pct(0),
        stats.paper_robustness_pct(),
        100.0 * stats.wasted_fraction(),
    );
    assert_eq!(stats.unreported(), 0, "every task accounted for");
}
