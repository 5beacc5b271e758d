//! The multi-tenant admission layer's headline guarantees (ISSUE pins):
//!
//! 1. **SLA isolation.** A zero-quota tenant's burst is shed at the
//!    federation front door without perturbing any other tenant: the
//!    other tenants' serialized per-tenant slices are bit-identical to
//!    the burst-free run — in both drivers, at every (shards, threads)
//!    point.
//! 2. **Driver agnosticism.** Quotas keep the supervised serial run ≡
//!    the unsupervised parallel driver byte-identical on the full
//!    serialized `FederationStats` *and* on the per-tenant slices, at
//!    every thread count. The overload ladder is sensed by the
//!    supervisor, and supervised runs use the serial driver, so the
//!    ladder leg is serial-only: it must trip and stay deterministic.
//! 3. **Replay exactness.** The ladder rung lives in the
//!    coordinator's tenant table, which no shard crash touches; a
//!    supervised run that heals a fault storm — crashes recovered from
//!    checkpoint + journal replay with rung transitions inside the
//!    replay window — finishes byte-identical to the fault-free
//!    supervised run.
//! 4. **Invisibility when off.** An all-Standard, no-quota, no-ladder
//!    tenancy is byte-identical to a gateway without tenancy, and the
//!    per-tenant counters stay off the stats wire shape.
//! 5. **Property invariants.** Token-bucket accounting never admits
//!    beyond the refill bound, counters conserve submissions, and
//!    ladder transitions are monotone (±1 rung) and deterministic
//!    from (seed, workload) — pinned by proptest over random small
//!    workloads.
//!
//! The CI `threads-matrix` job runs this suite at `TASKPRUNE_THREADS`
//! ∈ {1, max}.

mod common;

use proptest::prelude::*;
use taskprune::prelude::*;
use taskprune::pruner::PruningMechanism;
use taskprune_model::TaskTypeId;
use taskprune_sim::{
    LadderConfig, NullSink, RateLimit, RecoveryActionKind, SlaClass,
    TenancyPolicy, TenantBurst, TenantSpec,
};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn fixture(seed: u64, scale: f64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: common::scaled(1_200, scale) as usize,
        span_tu: common::scaled(220, scale) as f64,
        ..WorkloadConfig::paper_default(seed)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

/// A deliberately oversubscribed stream for the ladder tests: deep
/// batch backlogs are what the pressure sensor reads, so this fixture
/// must not shrink under `TASKPRUNE_TEST_SCALE` — the non-vacuity
/// assertions (the ladder must actually trip) depend on its shape.
fn pressure_fixture(seed: u64) -> (Cluster, PetMatrix, Vec<Task>) {
    let pet = PetGenConfig::paper_heterogeneous(
        taskprune::experiment::PET_MATRIX_SEED,
    )
    .generate();
    let cluster = taskprune_workload::machines::heterogeneous_cluster();
    let workload = WorkloadConfig {
        total_tasks: 1_600,
        span_tu: 50.0,
        ..WorkloadConfig::paper_default(seed)
    };
    let tasks = workload.generate_trial(&pet, 0).tasks;
    (cluster, pet, tasks)
}

fn builder<'a>(
    cluster: &'a Cluster,
    pet: &'a PetMatrix,
    shards: usize,
    tenancy: Option<TenancyPolicy>,
) -> GatewayBuilder<'a, NullSink> {
    let n_types = pet.n_task_types();
    let b = GatewayBuilder::new(cluster, pet)
        .config(SimConfig::batch(55))
        .shards(shards)
        .policy(RoundRobinRoute::new())
        .strategy_with(move |_| HeuristicKind::Mm.make())
        .pruner_with(move |_| {
            Box::new(PruningMechanism::new(
                PruningConfig::paper_default(),
                n_types,
            ))
        });
    match tenancy {
        Some(t) => b.tenancy(t),
        None => b,
    }
}

/// Runs one federation: `threads == None` is the serial driver,
/// `Some(t)` the parallel driver at `t` worker threads.
fn run(
    b: GatewayBuilder<NullSink>,
    threads: Option<usize>,
    tasks: &[Task],
) -> FederationStats {
    match threads {
        None => b
            .build()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
        Some(t) => b
            .threads(t)
            .build_parallel()
            .expect("valid configuration")
            .run_stream(tasks.iter().copied()),
    }
}

fn ladder_cfg() -> LadderConfig {
    LadderConfig {
        high: 48,
        low: 4,
        sustain: 2,
        retry_after: 64,
    }
}

/// Three lanes: a Premium tenant, an unquota'd Standard tenant, and a
/// zero-quota BestEffort tenant (the isolation victim).
fn isolation_policy() -> TenancyPolicy {
    TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(TenantSpec::new(SlaClass::Standard))
        .tenant(TenantSpec::new(SlaClass::BestEffort).quota(RateLimit::zero()))
}

/// Three lanes with real quotas and (optionally) the ladder —
/// the degraded-operation configuration the driver-equivalence and
/// replay tests exercise.
fn degraded_policy(ladder: bool) -> TenancyPolicy {
    let p = TenancyPolicy::new(3)
        .tenant(TenantSpec::new(SlaClass::Premium))
        .tenant(
            TenantSpec::new(SlaClass::Standard)
                .quota(RateLimit::per_ticks(64, 2)),
        )
        .tenant(TenantSpec::new(SlaClass::BestEffort));
    if ladder {
        p.ladder(ladder_cfg())
    } else {
        p
    }
}

// ---------------------------------------------------------------------
// Guarantee 1: SLA isolation — the headline.
// ---------------------------------------------------------------------

/// A zero-quota tenant floods the federation mid-run; every one of its
/// arrivals is shed, and the *other* tenants' per-tenant slices —
/// counters and per-arrival outcomes — serialize bit-identically to
/// the burst-free run, in both drivers, at every (shards, threads).
#[test]
fn zero_quota_burst_degrades_only_its_own_tenant() {
    let scale = common::test_scale();
    let (cluster, pet, tasks) = fixture(8801, scale);
    // The base stream submits on lanes 0 and 1 only; lane 2 exists
    // solely through the burst.
    let base: Vec<Task> =
        tasks.iter().copied().filter(|t| t.id.0 % 3 != 2).collect();
    let burst = TenantBurst {
        tenant: 2,
        lanes: 3,
        start: base[base.len() / 3].arrival.ticks(),
        count: common::scaled(300, scale),
        every: 1,
        type_id: 0,
        deadline_slack: 500,
        seed: 0xB002,
    };
    let spliced = burst.splice(&base);
    assert_eq!(spliced.len(), base.len() + burst.count as usize);

    for shards in [1usize, 3] {
        for threads in [None, Some(1), Some(2)] {
            let calm = run(
                builder(&cluster, &pet, shards, Some(isolation_policy())),
                threads,
                &base,
            );
            let stormy = run(
                builder(&cluster, &pet, shards, Some(isolation_policy())),
                threads,
                &spliced,
            );
            assert_eq!(stormy.unreported(), 0);
            let calm_slices = calm.tenant_slices().expect("tenancy on");
            let storm_slices = stormy.tenant_slices().expect("tenancy on");
            for t in 0..2 {
                assert_eq!(
                    json(&calm_slices[t]),
                    json(&storm_slices[t]),
                    "shards={shards} threads={threads:?} tenant {t}: the \
                     zero-quota burst leaked into another tenant's slice"
                );
            }
            // The victim's accounting: everything submitted, nothing
            // admitted, all of it attributed to the dry bucket.
            let victim = &storm_slices[2].counters;
            assert_eq!(victim.submitted, burst.count);
            assert_eq!(victim.shed_quota, burst.count);
            assert_eq!(victim.admitted, 0);
            assert!((victim.shed_pct() - 100.0).abs() < 1e-12);
            assert!(storm_slices[2].outcomes.is_empty());
            assert_eq!(calm_slices[2].counters.submitted, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Guarantee 2: quotas + ladder stay driver-agnostic.
// ---------------------------------------------------------------------

/// Supervised runs under real quotas serialize identically to the
/// unsupervised parallel driver at every thread count, on the full
/// stats wire *and* on the per-tenant slices. With the overload ladder
/// on, the run is serial-only (the ladder is supervisor-driven and
/// supervised runs use the serial driver): it must trip the ladder and
/// repeat byte for byte.
#[test]
fn quotas_and_ladder_stay_driver_agnostic() {
    let (cluster, pet, tasks) = pressure_fixture(7011);
    for ladder in [true, false] {
        let supervised = || {
            Supervisor::new(
                builder(&cluster, &pet, 3, Some(degraded_policy(ladder)))
                    .build()
                    .expect("valid configuration"),
                RecoveryPolicy::default(),
            )
            .run_stream(tasks.iter().copied())
        };
        let serial = supervised();
        assert_eq!(serial.unreported(), 0);
        let serial_json = json(&serial);
        let serial_slices = json(&serial.tenant_slices().expect("tenancy"));
        if ladder {
            assert!(
                serial.recovery_log().count(|k| matches!(
                    k,
                    RecoveryActionKind::OverloadStepUp { .. }
                )) > 0,
                "the oversubscribed fixture must actually trip the ladder"
            );
            let again = supervised();
            assert_eq!(serial_json, json(&again), "ladder run diverged");
            assert_eq!(serial.recovery_log(), again.recovery_log());
            continue;
        }
        for threads in [1usize, 2, 8] {
            let parallel = run(
                builder(&cluster, &pet, 3, Some(degraded_policy(false))),
                Some(threads),
                &tasks,
            );
            assert_eq!(
                serial_json,
                json(&parallel),
                "threads={threads}: drivers diverged under quotas"
            );
            assert_eq!(
                serial_slices,
                json(&parallel.tenant_slices().expect("tenancy")),
                "threads={threads}: per-tenant slices diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Guarantee 3: ladder transitions replay exactly across recovery.
// ---------------------------------------------------------------------

/// A supervised run with quotas + ladder that heals a generated fault
/// storm — shard crashes rebuilt from checkpoint + journal replay,
/// with ladder transitions inside the replay window — serializes
/// identically to the fault-free supervised run.
#[test]
fn ladder_transitions_replay_exactly_across_crash_recovery() {
    let (cluster, pet, tasks) = pressure_fixture(7012);
    let healing = RecoveryPolicy {
        retry_budget: 32,
        ..RecoveryPolicy::default()
    };
    let reference = Supervisor::new(
        builder(&cluster, &pet, 3, Some(degraded_policy(true)))
            .build()
            .expect("valid configuration"),
        healing,
    )
    .run_stream(tasks.iter().copied());
    assert!(
        reference
            .recovery_log()
            .count(|k| matches!(k, RecoveryActionKind::OverloadStepUp { .. }))
            > 0,
        "the reference run must carry rung transitions to replay"
    );
    let reference_json = json(&reference);
    let reference_slices = json(&reference.tenant_slices().expect("tenancy"));

    let span = (tasks.len() / 3).max(8) as u64;
    let plan = FaultPlan::generate(0xFA07, &FaultSpec::storm(3, span));
    assert!(!plan.is_empty());

    let mut sup = Supervisor::new(
        builder(&cluster, &pet, 3, Some(degraded_policy(true)))
            .build()
            .expect("valid configuration"),
        healing,
    );
    sup.arm(plan);
    let healed = sup.run_stream(tasks.iter().copied());
    assert!(
        healed
            .recovery_log()
            .count(|k| matches!(k, RecoveryActionKind::FaultDetected { .. }))
            > 0,
        "no fault ever fired — widen the span"
    );
    assert_eq!(
        reference_json,
        json(&healed),
        "serial healing diverged from fault-free under the ladder"
    );
    assert_eq!(
        reference_slices,
        json(&healed.tenant_slices().expect("tenancy")),
        "serial healing perturbed the per-tenant slices"
    );
}

// ---------------------------------------------------------------------
// Guarantee 4: tenancy off the critical path and off the wire.
// ---------------------------------------------------------------------

/// An all-Standard, no-quota, no-ladder tenancy admits everything and
/// is byte-identical to a federation without tenancy — the stamp, the
/// admission table and the per-tenant accounting are invisible to the
/// simulation. The counters also stay off the serialized wire shape.
#[test]
fn default_tenancy_is_byte_identical_to_no_tenancy() {
    let (cluster, pet, tasks) = fixture(4277, common::test_scale());
    for shards in [1usize, 3] {
        let plain = run(builder(&cluster, &pet, shards, None), None, &tasks);
        assert!(plain.tenant_slices().is_none());
        let plain_json = json(&plain);

        let tenanted = run(
            builder(&cluster, &pet, shards, Some(TenancyPolicy::new(4))),
            None,
            &tasks,
        );
        assert_eq!(
            plain_json,
            json(&tenanted),
            "shards={shards}: a default tenancy perturbed the run"
        );
        let slices = tenanted.tenant_slices().expect("tenancy on");
        assert_eq!(slices.len(), 4);
        let admitted: u64 = slices.iter().map(|s| s.counters.admitted).sum();
        let shed: u64 = slices.iter().map(|s| s.counters.shed()).sum();
        assert_eq!(admitted, tasks.len() as u64);
        assert_eq!(shed, 0);

        let parallel = run(
            builder(&cluster, &pet, shards, Some(TenancyPolicy::new(4))),
            Some(2),
            &tasks,
        );
        assert_eq!(
            plain_json,
            json(&parallel),
            "shards={shards}: default tenancy perturbed the parallel run"
        );

        // Off-wire: no tenancy fields in the serialized stats, and a
        // deserialized copy reports tenancy absent yet re-serializes
        // identically (the recovery-log convention).
        assert!(
            !plain_json.contains("tenant") && !plain_json.contains("rung"),
            "tenancy must stay off the stats wire shape"
        );
        let back: FederationStats =
            serde_json::from_str(&json(&tenanted)).expect("deserialize");
        assert!(back.tenant_slices().is_none());
        assert_eq!(json(&back), plain_json);
    }
}

// ---------------------------------------------------------------------
// Guarantee 5: property invariants over random workloads.
// ---------------------------------------------------------------------

/// A deterministic splitmix-style stream of synthetic tasks: ids are
/// sequential (so lanes interleave), arrivals are non-decreasing with
/// pseudo-random gaps in `0..gap`.
fn synthetic_tasks(n: usize, gap: u64, slack: u64, seed: u64) -> Vec<Task> {
    let mut t = 0u64;
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if gap > 0 {
                t += (s >> 33) % gap;
            }
            Task::new(i as u64, TaskTypeId(0), SimTime(t), SimTime(t + slack))
        })
        .collect()
}

fn shared_fixture() -> &'static (Cluster, PetMatrix) {
    static FIXTURE: std::sync::OnceLock<(Cluster, PetMatrix)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pet = PetGenConfig::paper_heterogeneous(
            taskprune::experiment::PET_MATRIX_SEED,
        )
        .generate();
        (taskprune_workload::machines::heterogeneous_cluster(), pet)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Token-bucket accounting: over any random arrival schedule the
    /// quota'd tenant never exceeds its refill bound (in exact
    /// milli-tokens), counters conserve submissions, and the whole
    /// accounting is identical run-to-run and serial-to-parallel.
    #[test]
    fn quota_accounting_invariants_hold(
        burst in 0u64..5,
        ticks_per_task in 1u64..6,
        n in 30usize..140,
        gap in 0u64..10,
        seed in any::<u64>(),
    ) {
        let (cluster, pet) = shared_fixture();
        let tasks = synthetic_tasks(n, gap, 800, seed);
        let quota = RateLimit::per_ticks(burst, ticks_per_task);
        let policy = || {
            TenancyPolicy::new(2)
                .tenant(TenantSpec::default())
                .tenant(TenantSpec::default().quota(quota))
        };
        let stats =
            run(builder(cluster, pet, 2, Some(policy())), None, &tasks);
        let tenancy = stats.tenancy_stats().expect("tenancy on").clone();
        let c = &tenancy.per_tenant[1];

        // Conservation, per tenant and in total.
        for t in &tenancy.per_tenant {
            prop_assert_eq!(t.submitted, t.admitted + t.shed());
        }
        let total: u64 =
            tenancy.per_tenant.iter().map(|t| t.submitted).sum();
        prop_assert_eq!(total, n as u64);
        prop_assert_eq!(tenancy.per_tenant[0].shed(), 0);

        // The refill bound: the bucket starts at `burst` tasks and
        // refills from t=0 at `rate` milli-tokens/tick off the
        // tenant's own arrival watermark, so admissions can never
        // outrun burst + rate·t_last.
        let last = tasks
            .iter()
            .filter(|t| t.id.0 % 2 == 1)
            .map(|t| t.arrival.ticks())
            .max()
            .unwrap_or(0);
        prop_assert!(
            c.admitted.saturating_mul(1000)
                <= burst * 1000 + quota.rate * last,
            "admitted {} exceeds the token bound (burst {burst}, rate {}, \
             last arrival {last})",
            c.admitted,
            quota.rate,
        );

        // Deterministic and driver-agnostic, including the counters.
        let again =
            run(builder(cluster, pet, 2, Some(policy())), None, &tasks);
        prop_assert_eq!(&json(&stats), &json(&again));
        prop_assert_eq!(
            &json(&stats.tenant_slices().expect("tenancy")),
            &json(&again.tenant_slices().expect("tenancy"))
        );
        let parallel =
            run(builder(cluster, pet, 2, Some(policy())), Some(2), &tasks);
        prop_assert_eq!(&json(&stats), &json(&parallel));
        prop_assert_eq!(
            &json(&stats.tenant_slices().expect("tenancy")),
            &json(&parallel.tenant_slices().expect("tenancy"))
        );
    }

    /// Ladder transitions extracted from the recovery log are always
    /// single-rung steps from the previous rung, stay within
    /// `0..=3`, and the whole supervised run — stats, slices and log —
    /// is a pure function of the (seed, workload) pair.
    #[test]
    fn ladder_transitions_are_monotone_and_deterministic(
        seed in 0u64..500,
        high in 16usize..64,
        sustain in 1u32..4,
    ) {
        let (cluster, pet) = shared_fixture();
        // A dense burst so queues actually deepen.
        let tasks = synthetic_tasks(350, 2, 600, seed.wrapping_mul(97) | 1);
        let policy = || {
            TenancyPolicy::new(3)
                .tenant(TenantSpec::new(SlaClass::Premium))
                .tenant(TenantSpec::new(SlaClass::Standard))
                .tenant(TenantSpec::new(SlaClass::BestEffort))
                .ladder(LadderConfig {
                    high,
                    low: 2,
                    sustain,
                    retry_after: 32,
                })
        };
        let run_once = || {
            Supervisor::new(
                builder(cluster, pet, 2, Some(policy()))
                    .build()
                    .expect("valid configuration"),
                RecoveryPolicy::default(),
            )
            .run_stream(tasks.iter().copied())
        };
        let stats = run_once();
        let log = stats.recovery_log();
        let mut rung = 0u8;
        for action in log.actions() {
            let to = match action.kind {
                RecoveryActionKind::OverloadStepUp { rung: to } => {
                    prop_assert_eq!(to, rung + 1, "up-step must be +1");
                    to
                }
                RecoveryActionKind::OverloadStepDown { rung: to } => {
                    prop_assert!(rung > 0, "down-step below rung 0");
                    prop_assert_eq!(to, rung - 1, "down-step must be -1");
                    to
                }
                _ => continue,
            };
            prop_assert!(to <= 3, "rung escaped the ladder");
            rung = to;
        }
        let again = run_once();
        prop_assert_eq!(&json(&stats), &json(&again));
        prop_assert_eq!(log, again.recovery_log());
    }
}

// ---------------------------------------------------------------------
// Full-scale tier.
// ---------------------------------------------------------------------

#[test]
#[ignore = "full-size tenancy sweep; run with --ignored"]
fn full_scale_isolation_and_driver_agreement() {
    let (cluster, pet, tasks) = fixture(8801, 1.0);
    let base: Vec<Task> =
        tasks.iter().copied().filter(|t| t.id.0 % 3 != 2).collect();
    let burst = TenantBurst {
        tenant: 2,
        lanes: 3,
        start: base[base.len() / 3].arrival.ticks(),
        count: 1_000,
        every: 1,
        type_id: 0,
        deadline_slack: 500,
        seed: 0xB002,
    };
    let spliced = burst.splice(&base);
    for threads in [None, Some(4)] {
        let calm = run(
            builder(&cluster, &pet, 4, Some(isolation_policy())),
            threads,
            &base,
        );
        let stormy = run(
            builder(&cluster, &pet, 4, Some(isolation_policy())),
            threads,
            &spliced,
        );
        let calm_slices = calm.tenant_slices().expect("tenancy on");
        let storm_slices = stormy.tenant_slices().expect("tenancy on");
        for t in 0..2 {
            assert_eq!(
                json(&calm_slices[t]),
                json(&storm_slices[t]),
                "threads={threads:?} tenant {t}"
            );
        }
        assert_eq!(storm_slices[2].counters.shed_quota, burst.count);
    }
}
