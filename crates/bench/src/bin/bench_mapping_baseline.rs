//! Machine-readable mapping-event perf trajectory.
//!
//! Times the queue-estimator mutation cycles a mapping event performs —
//! tail drops, mid-queue drops, and the pop/admit steady-state cycle —
//! under the lazy incremental chain maintenance and under a forced
//! from-scratch rebuild (the pre-incremental cost profile), across
//! queue depths {4, 16, 64} × PET supports {64, 512, 4096}.
//!
//! Each invocation **appends** a commit-stamped run to the series in
//! `results/BENCH_mapping_event.json` (migrating the pre-series
//! single-report format on first contact), so the file accumulates one
//! entry per PR and the perf trajectory is diffable across history.
//! A `--check` run without `--out` compares against that series in
//! memory and writes nothing.
//!
//! Flags:
//! * `--smoke`        small grid for CI;
//! * `--out DIR`      series directory (default `results`), written
//!   even under `--check`;
//! * `--commit LABEL` stamp for this run (default: `git rev-parse
//!   --short HEAD`, falling back to `unknown`);
//! * `--check`        exit non-zero when any *scenario's* geometric-mean
//!   incremental-vs-scratch speedup degrades past its noise-aware
//!   allowance vs the previous run (the CI regression gate; see
//!   `BenchSeries::check_regression_per_scenario`).

use std::hint::black_box;
use std::time::{Duration, Instant};
use taskprune_bench::args::BaselineArgs;
use taskprune_bench::chainbench::{
    probe_task, wide_pet_matrix, wide_queue, CHAIN_DEPTHS, CHAIN_SUPPORTS,
};
use taskprune_bench::report::BenchEntry;
use taskprune_model::{PetMatrix, SimTime};
use taskprune_sim::queue::MachineQueue;

/// The CI regression threshold: mean slowdown beyond this fails `--check`.
const REGRESSION_THRESHOLD: f64 = 0.15;

/// Nanoseconds per call of `f`, doubling the iteration count until the
/// measurement window is long enough to trust.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm caches, grow arenas, build FFT plans
    f();
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(150) || iters >= 1 << 22 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

/// One proactive-drop cycle: remove the waiting task at `pos`, re-admit
/// it, then force the chain current with a chance query (what the next
/// pruning scan does anyway). With `scratch`, a full rebuild follows
/// the removal — what the pre-incremental code did on every removal.
fn drop_cycle(
    q: &mut MachineQueue,
    pet: &PetMatrix,
    pos: usize,
    scratch: bool,
) -> f64 {
    let spec = pet.bin_spec();
    let probe = probe_task(u64::MAX);
    time_ns(|| {
        let id = q.waiting().nth(pos).expect("position in range").id;
        let removed = q.remove_waiting(&[id]);
        if scratch {
            q.force_full_rebuild(pet);
        }
        q.admit(removed[0]);
        black_box(q.chance_if_appended(spec, pet, SimTime(0), &probe));
    })
}

/// The steady-state mapping-event cycle: the head pops for execution
/// and completes, a new arrival is admitted, and the next event queries
/// the chain. With `scratch`, the pop triggers an immediate full
/// rebuild (the pre-incremental behaviour) instead of lazily coalescing
/// with the admit into one repair at the query.
fn steady_cycle(q: &mut MachineQueue, pet: &PetMatrix, scratch: bool) -> f64 {
    let spec = pet.bin_spec();
    let probe = probe_task(u64::MAX);
    let mut next_id = 1_000_000u64;
    time_ns(|| {
        let head = q.pop_head_for_start().expect("non-empty queue");
        if scratch {
            q.force_full_rebuild(pet);
        }
        q.set_running(head, SimTime(0));
        q.complete_running();
        q.admit(probe_task(next_id));
        next_id += 1;
        black_box(q.chance_if_appended(spec, pet, SimTime(0), &probe));
    })
}

fn main() {
    let args = BaselineArgs::parse();

    let (depths, supports): (&[usize], &[usize]) = if args.smoke {
        (&[4, 16], &[64])
    } else {
        (CHAIN_DEPTHS, CHAIN_SUPPORTS)
    };

    let mut entries = Vec::new();
    for &support in supports {
        let pet = wide_pet_matrix(support);
        for &depth in depths {
            let mut record = |scenario: &str, inc: f64, scr: f64| {
                let speedup = scr / inc;
                eprintln!(
                    "{scenario:>12} depth {depth:>3} support {support:>5}: \
                     incremental {inc:>11.0} ns, scratch {scr:>11.0} ns, \
                     speedup {speedup:.2}x"
                );
                entries.push(BenchEntry {
                    scenario: scenario.to_string(),
                    queue_depth: depth,
                    pet_support: support,
                    incremental_ns: inc,
                    scratch_ns: scr,
                    speedup,
                    robustness_pct: None,
                    robustness_under_faults_pct: None,
                    gate: None,
                    reuse_hit_pct: None,
                    arrivals_per_sec: None,
                    steals_pct: None,
                    staleness_k: None,
                    per_tenant_robustness_pct: None,
                    shed_pct: None,
                });
            };

            let inc =
                drop_cycle(&mut wide_queue(depth), &pet, depth - 1, false);
            let scr = drop_cycle(&mut wide_queue(depth), &pet, depth - 1, true);
            record("tail_drop", inc, scr);

            let inc =
                drop_cycle(&mut wide_queue(depth), &pet, depth / 2, false);
            let scr = drop_cycle(&mut wide_queue(depth), &pet, depth / 2, true);
            record("mid_drop", inc, scr);

            let inc = steady_cycle(&mut wide_queue(depth), &pet, false);
            let scr = steady_cycle(&mut wide_queue(depth), &pet, true);
            record("steady_cycle", inc, scr);
        }
    }

    let series = args.append_run(
        "mapping_event",
        "Per-PR perf trajectory of the queue-estimator mutation cycles a \
         mapping event performs (remove/admit/pop + chance query): lazy \
         incremental prefix-chain maintenance vs forced from-scratch \
         rebuilds. ns per cycle, release build; one commit-stamped run \
         appended per invocation. The regression gate compares the \
         machine-relative incremental-vs-scratch speedup, not absolute ns.",
        entries,
    );
    let gate = series.check_regression_per_scenario(REGRESSION_THRESHOLD);
    match gate {
        Ok(per_scenario) => {
            for (scenario, degradation) in &per_scenario {
                println!(
                    "perf gate: {scenario} speedup degradation \
                     {degradation:.3}x vs previous run (base threshold \
                     {:.2}x, noise-widened per scenario)",
                    1.0 + REGRESSION_THRESHOLD
                );
            }
            if per_scenario.is_empty() {
                println!("perf gate: no previous run to compare against");
            }
        }
        Err(report) => {
            eprintln!("{report}");
            if args.check {
                std::process::exit(1);
            }
            eprintln!("(--check not set: recorded but not failing)");
        }
    }
}
