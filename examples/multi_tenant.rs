//! Multi-tenant admission control live: SLA classes, per-tenant
//! token-bucket quotas, a noisy-neighbour burst, and the overload
//! degradation ladder.
//!
//! Three acts:
//!
//! 1. **SLA isolation.** Three tenants — Premium, Standard, and a
//!    zero-quota BestEffort — share one federation. The BestEffort
//!    tenant floods the gateway mid-run; every one of its arrivals is
//!    shed at the front door, and the other tenants' per-tenant stats
//!    are bit-identical to the burst-free run.
//! 2. **Quotas.** The Standard tenant gets a real token bucket and
//!    pays for its own burstiness without touching its neighbours.
//! 3. **The ladder.** An oversubscribed stream drives summed
//!    batch-queue pressure past the threshold; the supervisor steps
//!    the federation through throttle → shed rungs and back, every
//!    transition logged in the deterministic recovery log.
//!
//! Run with: `cargo run --release --example multi_tenant`

use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_sim::{
    LadderConfig, NullSink, RateLimit, RecoveryActionKind, SlaClass,
    TenancyPolicy, TenantBurst, TenantSpec,
};

fn builder<'a>(
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    tenancy: TenancyPolicy,
) -> GatewayBuilder<'a, NullSink> {
    let n_types = pet.n_task_types();
    GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(3)
        .policy(RoundRobinRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        })
        .tenancy(tenancy)
}

fn print_slices(stats: &FederationStats) {
    let slices = stats.tenant_slices().expect("tenancy installed");
    println!(
        "  {:<14} {:>9} {:>9} {:>7} {:>9} {:>11}",
        "tenant", "submitted", "admitted", "shed", "shed %", "on-time %"
    );
    for s in &slices {
        println!(
            "  {:<14} {:>9} {:>9} {:>7} {:>8.1}% {:>10.1}%",
            format!("#{}", s.tenant),
            s.counters.submitted,
            s.counters.admitted,
            s.counters.shed(),
            s.shed_pct(),
            s.robustness_pct(),
        );
    }
}

fn main() {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 3_000,
        span_tu: 400.0,
        ..WorkloadConfig::paper_default(77)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;

    // -- act 1: a zero-quota tenant cannot hurt its neighbours --------
    println!("-- act 1: SLA isolation under a noisy-neighbour burst --\n");
    let isolation = || {
        TenancyPolicy::new(3)
            .tenant(TenantSpec::new(SlaClass::Premium))
            .tenant(TenantSpec::new(SlaClass::Standard))
            .tenant(
                TenantSpec::new(SlaClass::BestEffort).quota(RateLimit::zero()),
            )
    };
    // Lanes 0 and 1 submit the base stream; lane 2 only ever bursts.
    let base: Vec<Task> =
        tasks.iter().copied().filter(|t| t.id.0 % 3 != 2).collect();
    let burst = TenantBurst {
        tenant: 2,
        lanes: 3,
        start: base[base.len() / 3].arrival.ticks(),
        count: 2_000,
        every: 1,
        type_id: 0,
        deadline_slack: 500,
        seed: 0xB002,
    };
    let calm = builder(&cluster, &pet, isolation())
        .build()
        .expect("valid configuration")
        .run_stream(base.iter().copied());
    let stormy = builder(&cluster, &pet, isolation())
        .build()
        .expect("valid configuration")
        .run_stream(burst.splice(&base).iter().copied());
    println!("burst-free run:");
    print_slices(&calm);
    println!("\nwith a {}-task zero-quota burst:", burst.count);
    print_slices(&stormy);
    let same = (0..2).all(|t| {
        serde_json::to_string(&calm.tenant_slices().unwrap()[t]).unwrap()
            == serde_json::to_string(&stormy.tenant_slices().unwrap()[t])
                .unwrap()
    });
    println!(
        "\ntenants 0 and 1 bit-identical across the burst: {}",
        if same { "yes" } else { "NO (bug!)" }
    );
    assert!(same, "the burst reached tenants 0 and 1");

    // -- act 2: a real token bucket -----------------------------------
    println!("\n-- act 2: per-tenant token-bucket quotas --\n");
    let quotas = TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(
            TenantSpec::new(SlaClass::Standard)
                .quota(RateLimit::per_ticks(16, 1_000)),
        )
        .tenant(TenantSpec::new(SlaClass::BestEffort));
    let stats = builder(&cluster, &pet, quotas)
        .build()
        .expect("valid configuration")
        .run_stream(tasks.iter().copied());
    print_slices(&stats);

    // -- act 3: the overload degradation ladder -----------------------
    println!("\n-- act 3: the overload degradation ladder --\n");
    let squeezed = WorkloadConfig {
        total_tasks: 3_000,
        span_tu: 80.0, // heavy oversubscription: queues deepen fast
        ..WorkloadConfig::paper_default(77)
    };
    let crunch = squeezed.generate_trial(&pet, 0).tasks;
    let ladder = TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(TenantSpec::new(SlaClass::Standard))
        .tenant(TenantSpec::new(SlaClass::BestEffort))
        .ladder(LadderConfig {
            high: 48,
            low: 4,
            sustain: 2,
            retry_after: 64,
        });
    let engine = builder(&cluster, &pet, ladder)
        .build()
        .expect("valid configuration");
    let stats = Supervisor::new(engine, RecoveryPolicy::default())
        .run_stream(crunch.iter().copied());
    print_slices(&stats);
    println!("\nladder transitions (recovery log):");
    // The ladder moves one rung at a time from rung 0, so a log that
    // holds every step walks a chain of neighbouring rungs.
    let (mut rung_now, mut ups, mut downs) = (0u8, 0, 0);
    for action in stats.recovery_log().actions() {
        let (dir, rung, next) = match action.kind {
            RecoveryActionKind::OverloadStepUp { rung } => {
                ups += 1;
                ("UP  ", rung, rung_now.checked_add(1))
            }
            RecoveryActionKind::OverloadStepDown { rung } => {
                downs += 1;
                ("DOWN", rung, rung_now.checked_sub(1))
            }
            _ => continue,
        };
        println!("  t={:>8}  step {dir} -> rung {rung}", action.time);
        assert_eq!(Some(rung), next, "the log skipped a step");
        rung_now = rung;
    }
    assert!(
        ups > 0 && downs > 0,
        "the ladder did not step up and back down"
    );
    let premium = &stats.tenant_slices().expect("tenancy installed")[0];
    assert_eq!(premium.counters.shed(), 0, "the Premium tenant shed work");
}
