//! Criterion bench: one batch-mode mapping decision (the two-phase
//! heuristic's `select`) as a function of batch-queue length, plus the
//! estimator-maintenance cycle a mapping event inflicts on a machine
//! queue (pop → complete → admit → chance query) across queue depths
//! and PET supports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use taskprune_bench::chainbench::{
    probe_task, wide_pet_matrix, wide_queue, CHAIN_DEPTHS, CHAIN_SUPPORTS,
};
use taskprune_heuristics::{MM, MMU, MSD};
use taskprune_model::{Cluster, SimTime, Task, TaskTypeId};
use taskprune_sim::queue_testing::make_queues;
use taskprune_sim::{BatchMapper, SystemView};
use taskprune_workload::PetGenConfig;

fn candidates(n: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            Task::new(
                i as u64,
                TaskTypeId((i % 12) as u16),
                SimTime(0),
                SimTime(4_000 + (i as u64 * 37) % 6_000),
            )
        })
        .collect()
}

fn bench_mapping(c: &mut Criterion) {
    let pet = PetGenConfig::paper_heterogeneous(1).generate();
    let cluster = Cluster::one_per_type(8);

    let mut group = c.benchmark_group("mapping_event");
    for &n in &[10usize, 100, 1_000] {
        let cands = candidates(n);
        for (name, mut mapper) in [
            ("MM", Box::new(MM::new()) as Box<dyn BatchMapper>),
            ("MSD", Box::new(MSD::new())),
            ("MMU", Box::new(MMU::new())),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, n),
                &n,
                |bench, _| {
                    // Fresh empty queues each iteration batch: selection
                    // fills 8 machines × 4 slots virtually.
                    let queues = make_queues(&cluster, 4, 256);
                    let view = SystemView::new(SimTime(0), &queues, &pet);
                    bench.iter(|| {
                        black_box(
                            mapper.select(black_box(&view), black_box(&cands)),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// The per-machine estimator work of one mapping event: the queue head
/// starts and completes, a new arrival is admitted, and the next
/// chance query repairs the chain. Lazy maintenance coalesces the pop
/// and the admit into one suffix repair with zero steady-state
/// allocation.
fn bench_queue_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping_event_queue_maintenance");
    for &support in CHAIN_SUPPORTS {
        let pet = wide_pet_matrix(support);
        let spec = pet.bin_spec();
        let probe = probe_task(u64::MAX);
        for &depth in CHAIN_DEPTHS {
            let mut q = wide_queue(depth);
            let mut next_id = 1_000_000u64;
            group.bench_with_input(
                BenchmarkId::new(format!("support-{support}"), depth),
                &depth,
                |bench, _| {
                    bench.iter(|| {
                        let head = q.pop_head_for_start().unwrap();
                        q.set_running(head, SimTime(0));
                        q.complete_running();
                        q.admit(probe_task(next_id));
                        next_id += 1;
                        black_box(q.chance_if_appended(
                            spec,
                            &pet,
                            SimTime(0),
                            &probe,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mapping, bench_queue_maintenance);
criterion_main!(benches);
