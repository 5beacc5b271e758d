//! Live video transcoding — the paper's motivating workload (§II).
//!
//! A live-streaming provider transcodes video segments (GOPs) on a
//! heterogeneous cluster: GPU-like machines race through filter-heavy
//! segment types, CPU-like machines favour branchy codecs. Each segment
//! has a *hard* presentation deadline: a segment transcoded after its
//! presentation time is worthless and must be dropped to catch up with
//! the live stream.
//!
//! This example hand-builds a small PET matrix with explicit task-machine
//! affinities (rather than the synthetic SPECint-style generator), then
//! shows how probabilistic pruning keeps more segments on air as viewers
//! spike.
//!
//! The second half evaluates the **function-reuse gateway** on the same
//! workload: video workloads are highly repetitive — several viewers
//! request the same GOP at the same rendition within seconds, so a large
//! fraction of arrivals are content-keyed duplicates of an in-flight
//! segment (arXiv:1901.09312 measures duplicate-heavy request mixes in
//! serverless multimedia front-ends). We inject realistic duplicate
//! rates with [`TaskStream::with_duplicate_rate`] and compare reuse off
//! with exact dedup on a sharded federation.
//!
//! The example asserts what it prints: pruning raises on-air % for MM
//! and for MSD; without duplicates exact reuse absorbs nothing and
//! matches reuse off; with duplicates it absorbs followers and keeps at
//! least as many segments on air.
//!
//! Run with: `cargo run --release --example video_transcoding`

use taskprune::prelude::*;
use taskprune_model::{BinSpec, TICKS_PER_TIME_UNIT};
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_prob::sampler::Sampler;
use taskprune_prob::{Gamma, Histogram};

/// Builds an execution-time PMF for a (machine, codec) pair from a mean
/// (in time units) — the §V-B histogram recipe on a hand-picked mean.
fn pet_cell(
    mean_tu: f64,
    shape: f64,
    rng: &mut Xoshiro256PlusPlus,
) -> taskprune_prob::Pmf {
    let gamma =
        Gamma::from_mean_shape(mean_tu * TICKS_PER_TIME_UNIT as f64, shape)
            .expect("valid gamma");
    let mut hist = Histogram::new(250.0).expect("positive bin width");
    hist.extend(gamma.sample_n(rng, 500));
    hist.to_pmf().expect("non-empty histogram")
}

fn main() {
    let mut rng = Xoshiro256PlusPlus::new(7);
    // Task types: three transcoding operations.
    //   0: H.264 -> H.265 re-encode (parallel-friendly)
    //   1: spatial downscale 4K -> 1080p (very parallel-friendly)
    //   2: bitrate shaping / re-mux (branchy, CPU-bound)
    // Machine types: 2 GPU-class boxes, 2 CPU-class boxes.
    // Mean execution times in time units (1 tu ≈ one GOP duration):
    let means = [
        // machine 0 (GPU): re-encode fast, downscale fastest, remux slow
        [1.0, 0.5, 3.0],
        // machine 1 (GPU, older): slightly slower
        [1.4, 0.7, 3.5],
        // machine 2 (CPU, big memory): remux fast, filters slow
        [3.0, 2.5, 0.8],
        // machine 3 (CPU): balanced but slow
        [2.2, 2.0, 1.2],
    ];
    let entries: Vec<taskprune_prob::Pmf> = means
        .iter()
        .flat_map(|row| {
            row.iter()
                .map(|&m| pet_cell(m, 6.0, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let pet = PetMatrix::new(BinSpec::new(250), 4, 3, entries);
    let cluster = Cluster::one_per_type(4);

    // The stream: ~2500 segments over 400 time units — a viewer spike
    // triples the segment rate periodically (ad breaks, goals, ...).
    let workload = WorkloadConfig {
        total_tasks: 2_500,
        span_tu: 400.0,
        pattern: ArrivalPattern::Spiky {
            n_spikes: 5,
            spike_factor: 3.0,
        },
        type_weight_spread: 0.2,
        slack_range: (0.8, 2.0),
        seed: 99,
    };
    let trial = workload.generate_trial(&pet, 0);
    println!(
        "live stream: {} segments across 3 transcode operations on 4 machines\n",
        trial.len()
    );

    println!("heuristic        on-air %   wasted-compute %   dropped-late");
    for kind in [HeuristicKind::Mm, HeuristicKind::Msd] {
        let mut on_air = Vec::new();
        for pruning in [None, Some(PruningConfig::paper_default())] {
            let stats =
                ResourceAllocator::new(&cluster, &pet, SimConfig::batch(3))
                    .heuristic(kind)
                    .pruning_opt(pruning)
                    .run(&trial.tasks);
            let label = format!(
                "{}{}",
                kind.name(),
                if pruning.is_some() { "+prune" } else { "" }
            );
            println!(
                "{label:<16} {:>7.1}   {:>15.1}   {:>12}",
                stats.robustness_pct(50),
                100.0 * stats.wasted_fraction(),
                stats.count(TaskOutcome::DroppedReactive),
            );
            on_air.push(stats.robustness_pct(50));
        }
        assert!(
            on_air[1] > on_air[0],
            "pruning must raise {}'s on-air %: {on_air:?}",
            kind.name()
        );
    }
    println!(
        "\n'on-air %' counts segments transcoded before their presentation \
         deadline;\npruning sacrifices doomed segments early so the rest of \
         the stream stays live."
    );

    // --- Part 2: function reuse under duplicate-heavy request mixes ---
    //
    // Re-run the stream through a 3-shard federation, injecting
    // content-keyed duplicate requests at realistic rates, and compare
    // reuse off with exact dedup.
    println!(
        "\n=== function reuse across a 3-shard federation \
         ({} segments + duplicates) ===\n",
        trial.len()
    );
    let policies =
        [("off", ReusePolicy::Off), ("exact", ReusePolicy::ExactOnly)];
    println!("dup-rate  policy   on-air %   dedup-hits   cycles saved");
    for rate in [0.0, 0.1, 0.3] {
        let mut rows = Vec::new();
        for (name, policy) in policies {
            let tasks: Vec<Task> = workload
                .stream_trial(&pet, 0)
                .with_duplicate_rate(rate, 0xDEDu64)
                .collect();
            let stats = GatewayBuilder::new(&cluster, &pet)
                .config(SimConfig::batch(3))
                .shards(3)
                .policy(LeastQueuedRoute::new())
                .strategy_with(|_| HeuristicKind::Mm.make())
                .pruner_with(|_| {
                    Box::new(PruningMechanism::new(
                        PruningConfig::paper_default(),
                        pet.n_task_types(),
                    ))
                })
                .reuse(policy)
                .build()
                .expect("valid configuration")
                .run_stream(tasks);
            let reuse = stats.reuse_stats();
            println!(
                "{:>7.0}%  {name:<7} {:>8.1}   {:>10}   {:>12}",
                rate * 100.0,
                stats.robustness_pct(50),
                reuse.hits,
                reuse.cycles_saved,
            );
            rows.push((stats.robustness_pct(50), reuse.absorbed()));
        }
        let [(off, _), (exact, absorbed)] = rows[..] else {
            unreachable!("one row per policy");
        };
        if rate == 0.0 {
            assert_eq!(absorbed, 0, "no duplicates, nothing to absorb");
            assert_eq!(exact, off, "an idle gate must change nothing");
        } else {
            assert!(absorbed > 0, "{rate}: exact reuse absorbed nothing");
            assert!(
                exact >= off,
                "{rate}: exact reuse lowered on-air % ({off} -> {exact})"
            );
        }
        println!();
    }
    println!(
        "every duplicate a policy absorbs rides its in-flight primary: one \
         execution\nserves all followers, each still judged against its own \
         presentation deadline."
    );
}
