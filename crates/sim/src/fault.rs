//! Deterministic fault injection for the serial federated driver.
//!
//! A [`FaultPlan`] is a *schedule* of typed faults pinned to per-shard
//! coordinates: "the 3rd completion delivered to shard 1 is lost",
//! "shard 0 crashes after ingesting its 40th routed arrival", "shard
//! 2's next checkpoint attempt fails transiently".
//! Coordinates count **per-shard operations** of the serial
//! [`crate::FederatedEngine`], the one driver plans are armed on
//! ([`crate::FederatedEngine::arm_faults`], usually through
//! [`crate::Supervisor::arm`]). The parallel
//! [`crate::ParallelFederatedEngine`] replays the same per-shard
//! operation order (the bit-identity contract pinned by
//! `tests/parallel_equivalence.rs`) but runs unsupervised, so a healed
//! run is compared against its fault-free bytes, not armed itself.
//!
//! Plans are built explicitly ([`FaultPlan::new`]) or generated from a
//! seed ([`FaultPlan::generate`]) on a dedicated
//! [`Xoshiro256PlusPlus`] stream that is **never** the simulation's
//! ground-truth RNG: arming a plan does not perturb a single sampled
//! duration, and every fault schedule is replayable from
//! `(seed, spec)` alone.
//!
//! What each fault *means* (and why recovery can win) is documented on
//! [`FaultKind`]; the [`crate::Supervisor`] is the component that
//! detects and heals them.

use serde::{Deserialize, Serialize};
use taskprune_prob::rng::Xoshiro256PlusPlus;

/// The fault taxonomy: what breaks, at one scheduled coordinate.
///
/// | kind | models | healed by |
/// |------|--------|-----------|
/// | [`FaultKind::ShardCrash`] | a shard process dying: its in-memory core state is wiped | checkpoint restore + journal replay |
/// | [`FaultKind::LostCompletion`] | a completion notification dropped in transit | redelivery from the coordinator's journal record |
/// | [`FaultKind::DuplicateCompletion`] | a completion notification delivered twice | the staleness dedupe rejects the second copy |
/// | [`FaultKind::DelayedCompletion`] | a completion notification arriving late | redelivery at the fault instant (the delay is never simulated) |
/// | [`FaultKind::CheckpointFailure`] | a transient storage error while checkpointing | retry; skipping is safe (the journal keeps growing) |
/// | [`FaultKind::RecoveryFailure`] | a transient failure of the recovery path itself | retry of `recover_shard` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Wipe the shard's in-memory scheduler state right after it
    /// ingests its `nth` routed arrival.
    ShardCrash,
    /// The `nth` completion delivery to the shard never arrives.
    LostCompletion,
    /// The `nth` completion delivery to the shard arrives twice.
    DuplicateCompletion,
    /// The `nth` completion delivery to the shard is late by `delay`
    /// ticks.
    DelayedCompletion,
    /// The shard's `nth` checkpoint attempt fails transiently.
    CheckpointFailure,
    /// The shard's `nth` recovery attempt fails transiently.
    RecoveryFailure,
}

/// Which per-shard operation counter a fault's coordinate indexes.
/// Two faults on the same `(shard, site, nth)` coordinate would race;
/// [`FaultPlan::new`] keeps only the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FaultSite {
    /// Routed arrivals ingested by the shard.
    Arrival,
    /// Completion events delivered to the shard.
    Completion,
    /// Checkpoint attempts on the shard.
    Checkpoint,
    /// Recovery attempts on the shard.
    Recovery,
}

impl FaultKind {
    pub(crate) fn site(self) -> FaultSite {
        match self {
            FaultKind::ShardCrash => FaultSite::Arrival,
            FaultKind::LostCompletion
            | FaultKind::DuplicateCompletion
            | FaultKind::DelayedCompletion => FaultSite::Completion,
            FaultKind::CheckpointFailure => FaultSite::Checkpoint,
            FaultKind::RecoveryFailure => FaultSite::Recovery,
        }
    }
}

/// One scheduled fault: a [`FaultKind`] pinned to a per-shard
/// operation coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The shard the fault strikes.
    pub shard: usize,
    /// What breaks.
    pub kind: FaultKind,
    /// 1-based ordinal of the targeted operation on `shard`: the nth
    /// routed arrival (crashes), nth completion delivery (delivery
    /// faults), or nth checkpoint/recovery attempt (transient
    /// failures).
    pub nth: u64,
    /// Extra latency in ticks for [`FaultKind::DelayedCompletion`]
    /// (bookkeeping only; recorded in the recovery log). Zero for
    /// every other kind.
    pub delay: u64,
}

/// Shape parameters for [`FaultPlan::generate`]: how many faults of
/// each kind to scatter across how many shards and operation ordinals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Number of shards faults may target.
    pub shards: usize,
    /// Operation ordinals are drawn from `1..=span` — roughly the
    /// per-shard operation count of the run under test.
    pub span: u64,
    /// Number of [`FaultKind::ShardCrash`] events.
    pub crashes: usize,
    /// Number of [`FaultKind::LostCompletion`] events.
    pub lost_completions: usize,
    /// Number of [`FaultKind::DuplicateCompletion`] events.
    pub duplicate_completions: usize,
    /// Number of [`FaultKind::DelayedCompletion`] events.
    pub delayed_completions: usize,
    /// Number of [`FaultKind::CheckpointFailure`] events.
    pub checkpoint_failures: usize,
    /// Number of [`FaultKind::RecoveryFailure`] events.
    pub recovery_failures: usize,
}

impl FaultSpec {
    /// A spec with no faults — set the counts you want.
    pub fn quiet(shards: usize, span: u64) -> Self {
        Self {
            shards,
            span: span.max(1),
            crashes: 0,
            lost_completions: 0,
            duplicate_completions: 0,
            delayed_completions: 0,
            checkpoint_failures: 0,
            recovery_failures: 0,
        }
    }

    /// A bit of everything: one crash plus two of each delivery fault
    /// and one transient failure of each infrastructure op — the
    /// default "storm" the fault-injection suites, `fault_storm` and
    /// `bench_gateway_baseline` use.
    pub fn storm(shards: usize, span: u64) -> Self {
        Self {
            crashes: 1,
            lost_completions: 2,
            duplicate_completions: 2,
            delayed_completions: 2,
            checkpoint_failures: 1,
            recovery_failures: 1,
            ..Self::quiet(shards, span)
        }
    }
}

/// A deterministic, replayable schedule of [`FaultEvent`]s.
///
/// The plan is normalized at construction: events are sorted by
/// `(shard, site, nth)` and coordinates are unique (first one wins),
/// so a plan's identity — and therefore the entire fault schedule — is
/// exactly its event list, independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Normalizes an explicit event list into a plan.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.shard, e.kind.site(), e.nth));
        events.dedup_by_key(|e| (e.shard, e.kind.site(), e.nth));
        Self { events }
    }

    /// Generates a plan from `seed` on a dedicated
    /// [`Xoshiro256PlusPlus`] stream (never the simulation's truth
    /// RNG). The same `(seed, spec)` always yields the same plan;
    /// colliding coordinates are dropped by normalization, so the
    /// resulting [`FaultPlan::len`] may be slightly below the spec's
    /// totals.
    pub fn generate(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let shards = spec.shards.max(1) as u64;
        let span = spec.span.max(1);
        let mut events = Vec::new();
        let mut scatter = |kind: FaultKind, count: usize| {
            for _ in 0..count {
                let shard = (rng.next() % shards) as usize;
                let nth = 1 + rng.next() % span;
                let delay = match kind {
                    FaultKind::DelayedCompletion => 1 + rng.next() % 256,
                    _ => 0,
                };
                events.push(FaultEvent {
                    shard,
                    kind,
                    nth,
                    delay,
                });
            }
        };
        scatter(FaultKind::ShardCrash, spec.crashes);
        scatter(FaultKind::LostCompletion, spec.lost_completions);
        scatter(FaultKind::DuplicateCompletion, spec.duplicate_completions);
        scatter(FaultKind::DelayedCompletion, spec.delayed_completions);
        scatter(FaultKind::CheckpointFailure, spec.checkpoint_failures);
        scatter(FaultKind::RecoveryFailure, spec.recovery_failures);
        Self::new(events)
    }

    /// The normalized schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Runtime fault-plan cursor: counts each shard's operations as a
/// driver replays them and answers "does a fault strike *this* one?".
/// The counters are part of the coordinator's restartable state (see
/// `FederatedEngine::snapshot_coordinator`), so a federation restored
/// from disk resumes the *remaining* fault schedule exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    arrivals_seen: Vec<u64>,
    completions_seen: Vec<u64>,
    checkpoints_seen: Vec<u64>,
    recoveries_seen: Vec<u64>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, n_shards: usize) -> Self {
        Self {
            plan,
            arrivals_seen: vec![0; n_shards],
            completions_seen: vec![0; n_shards],
            checkpoints_seen: vec![0; n_shards],
            recoveries_seen: vec![0; n_shards],
        }
    }

    fn lookup(
        &self,
        shard: usize,
        site: FaultSite,
        nth: u64,
    ) -> Option<FaultEvent> {
        // Plans are tiny (a handful of events); a linear scan beats
        // any index.
        self.plan
            .events
            .iter()
            .find(|e| e.shard == shard && e.kind.site() == site && e.nth == nth)
            .copied()
    }

    /// Counts one completion delivery to `shard`; returns the fault
    /// striking it, if any.
    pub(crate) fn on_completion_delivery(
        &mut self,
        shard: usize,
    ) -> Option<FaultEvent> {
        self.completions_seen[shard] += 1;
        self.lookup(shard, FaultSite::Completion, self.completions_seen[shard])
    }

    /// Counts one routed arrival ingested by `shard`; returns whether
    /// the shard crashes right after it.
    pub(crate) fn on_arrival_delivered(&mut self, shard: usize) -> bool {
        self.arrivals_seen[shard] += 1;
        self.lookup(shard, FaultSite::Arrival, self.arrivals_seen[shard])
            .is_some()
    }

    /// Counts one checkpoint attempt on `shard`; returns whether it
    /// fails transiently.
    pub(crate) fn on_checkpoint_attempt(&mut self, shard: usize) -> bool {
        self.checkpoints_seen[shard] += 1;
        self.lookup(shard, FaultSite::Checkpoint, self.checkpoints_seen[shard])
            .is_some()
    }

    /// Counts one recovery attempt on `shard`; returns whether it
    /// fails transiently.
    pub(crate) fn on_recovery_attempt(&mut self, shard: usize) -> bool {
        self.recoveries_seen[shard] += 1;
        self.lookup(shard, FaultSite::Recovery, self.recoveries_seen[shard])
            .is_some()
    }

    /// Whether the injector counts the operations of `n_shards`
    /// shards: one counter of each kind per shard.
    pub(crate) fn fits(&self, n_shards: usize) -> bool {
        [
            &self.arrivals_seen,
            &self.completions_seen,
            &self.checkpoints_seen,
            &self.recoveries_seen,
        ]
        .iter()
        .all(|c| c.len() == n_shards)
    }
}

/// A deterministic single-tenant arrival storm — the admission-layer
/// counterpart of [`FaultPlan`].
///
/// Where a fault plan breaks *infrastructure* at scheduled
/// coordinates, a `TenantBurst` floods the gateway with one tenant's
/// submissions: `count` tasks whose external ids all fall in the
/// burst tenant's lane (`id % lanes == tenant`) and are guaranteed
/// disjoint from ordinary stream ids (which stay far below the burst
/// id base). Arrival instants are `start + k·every` plus a
/// per-task jitter drawn from a dedicated [`Xoshiro256PlusPlus`]
/// stream (never the simulation's truth RNG) and strictly less than
/// `every`, so the generated sequence is non-decreasing and the whole
/// storm is replayable from the struct's fields alone.
///
/// [`TenantBurst::splice`] merges the storm into a base stream by
/// arrival time (base tasks first on ties), producing the exact
/// interleaving both federated drivers would see from a live
/// misbehaving tenant. `tests/tenant_isolation.rs` drives a
/// zero-quota lane with one of these and pins that every *other*
/// lane's serialized per-tenant stats are bit-identical to the
/// burst-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBurst {
    /// The lane the storm submits to (`0..lanes`).
    pub tenant: u64,
    /// The federation's [`crate::TenancyPolicy`] lane count (external
    /// id modulus).
    pub lanes: u64,
    /// Arrival instant of the first burst task, in ticks.
    pub start: u64,
    /// Number of burst tasks.
    pub count: u64,
    /// Nominal inter-arrival gap in ticks; per-task jitter stays
    /// strictly below it (a gap of 0 fires the whole burst at
    /// `start`).
    pub every: u64,
    /// Task type of every burst task.
    pub type_id: u16,
    /// Deadline slack granted to each burst task, in ticks past its
    /// arrival.
    pub deadline_slack: u64,
    /// Seed of the dedicated jitter stream.
    pub seed: u64,
}

impl TenantBurst {
    /// External ids start at `BASE · lanes + tenant` — far above any
    /// realistic base-stream id, so splicing can never collide.
    const ID_BASE: u64 = 1 << 40;

    /// The storm's tasks in arrival order (non-decreasing by
    /// construction). Every id satisfies `id % lanes == tenant`.
    pub fn generate(&self) -> Vec<taskprune_model::Task> {
        use taskprune_model::{SimTime, Task, TaskTypeId};
        let lanes = self.lanes.max(1);
        let tenant = self.tenant % lanes;
        let mut rng = Xoshiro256PlusPlus::new(self.seed);
        (0..self.count)
            .map(|k| {
                let jitter = match self.every {
                    0 => 0,
                    e => rng.next() % e,
                };
                let arrival = self.start + k * self.every + jitter;
                Task::new(
                    (Self::ID_BASE + k) * lanes + tenant,
                    TaskTypeId(self.type_id),
                    SimTime(arrival),
                    SimTime(arrival + self.deadline_slack),
                )
            })
            .collect()
    }

    /// Stable merge of the storm into `stream` by arrival time, base
    /// tasks first on ties — the interleaving a live gateway would
    /// ingest. `stream` must itself be non-decreasing by arrival (the
    /// drivers' documented stream contract).
    pub fn splice(
        &self,
        stream: &[taskprune_model::Task],
    ) -> Vec<taskprune_model::Task> {
        let burst = self.generate();
        let mut merged = Vec::with_capacity(stream.len() + burst.len());
        let (mut i, mut j) = (0, 0);
        while i < stream.len() && j < burst.len() {
            if stream[i].arrival <= burst[j].arrival {
                merged.push(stream[i]);
                i += 1;
            } else {
                merged.push(burst[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&stream[i..]);
        merged.extend_from_slice(&burst[j..]);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_normalized() {
        let spec = FaultSpec::storm(3, 100);
        let a = FaultPlan::generate(7, &spec);
        let b = FaultPlan::generate(7, &spec);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Normalized: sorted, unique coordinates.
        for w in a.events().windows(2) {
            let ka = (w[0].shard, w[0].kind.site(), w[0].nth);
            let kb = (w[1].shard, w[1].kind.site(), w[1].nth);
            assert!(ka < kb, "unsorted or colliding coordinates: {w:?}");
        }
        // A different seed reshuffles the schedule.
        assert_ne!(a, FaultPlan::generate(8, &spec));
    }

    #[test]
    fn colliding_coordinates_keep_the_first_event() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                shard: 0,
                kind: FaultKind::LostCompletion,
                nth: 3,
                delay: 0,
            },
            FaultEvent {
                shard: 0,
                kind: FaultKind::DuplicateCompletion,
                nth: 3,
                delay: 0,
            },
        ]);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.events()[0].kind, FaultKind::LostCompletion);
    }

    #[test]
    fn injector_fires_each_fault_exactly_once() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                shard: 1,
                kind: FaultKind::ShardCrash,
                nth: 2,
                delay: 0,
            },
            FaultEvent {
                shard: 0,
                kind: FaultKind::LostCompletion,
                nth: 1,
                delay: 0,
            },
        ]);
        let mut inj = FaultInjector::new(plan, 2);
        assert!(inj.on_completion_delivery(0).is_some());
        assert!(inj.on_completion_delivery(0).is_none());
        assert!(!inj.on_arrival_delivered(1));
        assert!(inj.on_arrival_delivered(1));
        assert!(!inj.on_arrival_delivered(1));
        assert!(!inj.on_checkpoint_attempt(0));
        assert!(!inj.on_recovery_attempt(0));
    }

    #[test]
    fn tenant_burst_is_deterministic_lane_pure_and_ordered() {
        use taskprune_model::{SimTime, Task, TaskTypeId};
        let burst = TenantBurst {
            tenant: 2,
            lanes: 3,
            start: 100,
            count: 50,
            every: 7,
            type_id: 1,
            deadline_slack: 500,
            seed: 9,
        };
        let storm = burst.generate();
        assert_eq!(storm, burst.generate());
        assert_eq!(storm.len(), 50);
        for t in &storm {
            assert_eq!(t.id.0 % 3, 2, "burst id escaped its lane");
            assert_eq!(t.type_id, TaskTypeId(1));
            assert_eq!(t.deadline.ticks() - t.arrival.ticks(), 500);
        }
        for w in storm.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "burst went backwards");
        }
        // Splice: stable by arrival, base-stream first on ties, no
        // id collisions with a realistic base stream.
        let base: Vec<Task> = (0..20)
            .map(|i| {
                Task::new(
                    i,
                    TaskTypeId(0),
                    SimTime(90 + i * 10),
                    SimTime(90 + i * 10 + 400),
                )
            })
            .collect();
        let merged = burst.splice(&base);
        assert_eq!(merged.len(), 70);
        for w in merged.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "splice went backwards");
        }
        let tie = merged
            .iter()
            .position(|t| t.arrival == storm[0].arrival)
            .expect("tie instant present");
        // Base ids stay small; burst ids huge — both survive intact.
        assert_eq!(
            merged
                .iter()
                .filter(|t| t.id.0 < TenantBurst::ID_BASE)
                .count(),
            20
        );
        let _ = tie;
    }

    #[test]
    fn plan_and_injector_round_trip_through_values() {
        let plan = FaultPlan::generate(42, &FaultSpec::storm(4, 64));
        let wire = plan.to_value();
        assert_eq!(FaultPlan::from_value(&wire).expect("decodes"), plan);
        let mut inj = FaultInjector::new(plan.clone(), 4);
        inj.on_completion_delivery(2);
        inj.on_arrival_delivered(1);
        let restored =
            FaultInjector::from_value(&inj.to_value()).expect("decodes");
        assert_eq!(restored.plan, plan);
        assert_eq!(restored.completions_seen, inj.completions_seen);
        assert_eq!(restored.arrivals_seen, inj.arrivals_seen);
        assert!(restored.fits(4));
        assert!(!FaultInjector::new(plan, 3).fits(4));
    }
}
