//! Multi-tenant admission control: per-tenant token-bucket quotas,
//! SLA classes, and the overload degradation ladder.
//!
//! The paper's pruning mechanism sheds load *inside* one scheduler;
//! this module sheds load *at the federation front door*, where the
//! coordinator observes every arrival before any shard commitment.
//! Arrivals are attributed to **tenants** by external-id lane
//! (`tenant = external_id mod lanes`, the
//! `TaskStream::with_id_stride` convention), each tenant carries a
//! [`TenantSpec`] — an [`SlaClass`] and an optional [`RateLimit`]
//! token bucket — and the `TenantTable` decides, in **global arrival
//! order using arrival-visible data only** (task fields and
//! per-tenant arrival watermarks, never shard clocks), whether each
//! arrival is admitted or shed. That discipline
//! is exactly the one [`crate::reuse`] established, and it is what
//! keeps the serial and parallel drivers byte-identical at every
//! thread count: a shed task touches *nothing* — no reuse gate, no
//! arrival record, no routing cursor, no fault coordinate — so the
//! admitted sub-stream both drivers execute is the same sequence.
//!
//! **SLA isolation** (the headline guarantee, pinned in
//! `tests/tenant_isolation.rs`): because admission reads only the
//! arriving task and its own tenant's state, a zero-quota tenant's
//! burst is shed without perturbing any other tenant's admission,
//! routing, or outcomes — their serialized per-tenant stats are
//! bit-identical to the burst-free run.
//!
//! The **overload degradation ladder** is sensed by the supervisor at
//! quiescent arrival watermarks (the only legal deterministic
//! sensing points) from summed batch-queue depth, and steps through
//! four rungs:
//!
//! | rung | name            | effect                                   |
//! |------|-----------------|------------------------------------------|
//! | 0    | admit-all       | quotas only                              |
//! | 1    | throttle-BE     | BestEffort pays double tokens (or a 1-in-2 duty cycle without a quota) |
//! | 2    | shed-BE         | BestEffort rejected                      |
//! | 3    | premium-only    | every non-Premium arrival rejected with [`crate::RunError::Overloaded`] on the fallible path |
//!
//! Transitions are monotone (one rung per sensing tick), require
//! `sustain` consecutive over/under-pressure observations, are logged
//! as [`crate::RecoveryActionKind::OverloadStepUp`] /
//! [`crate::RecoveryActionKind::OverloadStepDown`], and step back
//! down deterministically as pressure falls. The rung lives in the
//! coordinator's table alone: it gates admission and never reaches a
//! shard, so a crash-recovered shard has no rung to replay.

use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};
use taskprune_model::{SimTime, Task};

/// Milli-tokens one admitted task costs (quota rates are expressed in
/// milli-tokens per tick so slow refills need no floating point).
const TOKEN_SCALE: u64 = 1000;

/// Highest ladder rung (premium-only admission).
const MAX_RUNG: u8 = 3;

/// A tenant's service class: how early the overload ladder sheds it.
///
/// The class rides on [`Task::value`] as a *value tag* (Premium 2.0,
/// Standard 1.0, BestEffort 0.5) stamped at admission, so it flows
/// through journals, snapshots and piggybacks for free — the
/// serialized stats wire shape never contains task values, so the
/// stamp is wire-invisible. The core prunes every class alike; a
/// value-aware [`Pruner`](crate::Pruner) reads the tag to prune by
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlaClass {
    /// Admitted even at the top ladder rung.
    Premium,
    /// The default class; rejected at rung 3.
    #[default]
    Standard,
    /// Throttled at rung 1, shed from rung 2 up.
    BestEffort,
}

impl SlaClass {
    /// The [`Task::value`] tag this class stamps on admitted tasks.
    pub fn value_tag(self) -> f64 {
        match self {
            SlaClass::Premium => 2.0,
            SlaClass::Standard => 1.0,
            SlaClass::BestEffort => 0.5,
        }
    }

    /// Short stable label (for traces, bench output, examples).
    pub fn name(self) -> &'static str {
        match self {
            SlaClass::Premium => "premium",
            SlaClass::Standard => "standard",
            SlaClass::BestEffort => "best-effort",
        }
    }
}

/// A per-tenant token-bucket quota: `burst` tasks of instantaneous
/// headroom, refilled at `rate` milli-tokens per simulation tick (one
/// admitted task costs 1000 milli-tokens). `RateLimit { burst: 0,
/// rate: 0 }` is the zero quota — every arrival is shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity, in tasks.
    pub burst: u64,
    /// Refill rate, in milli-tokens per tick (1000 = one task/tick).
    pub rate: u64,
}

impl RateLimit {
    /// A quota admitting `burst` tasks instantly and roughly one task
    /// every `ticks_per_task` ticks thereafter.
    pub fn per_ticks(burst: u64, ticks_per_task: u64) -> Self {
        Self {
            burst,
            rate: TOKEN_SCALE / ticks_per_task.max(1),
        }
    }

    /// The zero quota: everything this tenant submits is shed.
    pub fn zero() -> Self {
        Self { burst: 0, rate: 0 }
    }
}

/// One tenant's admission contract: service class and optional
/// token-bucket quota (`None` = unlimited).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant's service class.
    pub sla: SlaClass,
    /// Token-bucket quota; `None` admits without rate limiting.
    pub quota: Option<RateLimit>,
}

impl TenantSpec {
    /// A spec of the given class with no quota.
    pub fn new(sla: SlaClass) -> Self {
        Self { sla, quota: None }
    }

    /// Sets the token-bucket quota.
    pub fn quota(mut self, q: RateLimit) -> Self {
        self.quota = Some(q);
        self
    }
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self::new(SlaClass::Standard)
    }
}

/// Overload-ladder tuning: the queue-depth thresholds, the number of
/// consecutive over/under-pressure sensing ticks a transition
/// requires, and the `retry_after` hint carried by
/// [`crate::RunError::Overloaded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderConfig {
    /// Summed batch-queue depth at or above which pressure counts as
    /// overload.
    pub high: usize,
    /// Summed batch-queue depth at or below which pressure counts as
    /// recovered.
    pub low: usize,
    /// Consecutive sensing ticks of sustained pressure required per
    /// rung step (up or down).
    pub sustain: u32,
    /// The `retry_after` hint (ticks) surfaced in
    /// [`crate::RunError::Overloaded`].
    pub retry_after: u64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            high: 64,
            low: 8,
            sustain: 2,
            retry_after: 256,
        }
    }
}

/// The federation's tenancy contract: how arrivals map to tenants
/// (`lanes`), each tenant's [`TenantSpec`], and the optional overload
/// [`LadderConfig`]. Installed via
/// [`crate::GatewayBuilder::tenancy`]; a gateway without one is
/// byte-identical to a pre-tenancy gateway.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenancyPolicy {
    lanes: u64,
    tenants: Vec<TenantSpec>,
    ladder: Option<LadderConfig>,
}

impl TenancyPolicy {
    /// A policy deriving tenant ids as `external_id mod lanes`
    /// (clamped to ≥ 1); every tenant defaults to
    /// [`TenantSpec::default`] (Standard, no quota) until
    /// specs are appended.
    pub fn new(lanes: u64) -> Self {
        Self {
            lanes: lanes.max(1),
            tenants: Vec::new(),
            ladder: None,
        }
    }

    /// Appends one tenant spec. Tenant `t` uses spec `t mod
    /// specs.len()`; with no specs at all every tenant is Standard and
    /// unquota'd.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Enables the overload degradation ladder.
    pub fn ladder(mut self, cfg: LadderConfig) -> Self {
        self.ladder = Some(cfg);
        self
    }

    /// Number of tenant lanes (`tenant = external_id mod lanes`).
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// The ladder configuration, when the ladder is enabled.
    pub fn ladder_config(&self) -> Option<&LadderConfig> {
        self.ladder.as_ref()
    }

    /// The spec governing `tenant`.
    pub fn spec(&self, tenant: u64) -> TenantSpec {
        if self.tenants.is_empty() {
            TenantSpec::default()
        } else {
            self.tenants[(tenant % self.tenants.len() as u64) as usize]
        }
    }

    /// The tenant lane an external task id belongs to.
    pub fn tenant_of(&self, external_id: u64) -> u64 {
        external_id % self.lanes
    }
}

/// Why the admission layer shed an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket could not cover the arrival.
    Quota,
    /// Degraded-mode throttling: the rung-1 BestEffort duty cycle.
    Throttled,
    /// The ladder rung rejects this tenant's class outright (rung ≥ 2
    /// for BestEffort, rung 3 for everything non-Premium). The
    /// fallible streaming path surfaces this as
    /// [`crate::RunError::Overloaded`].
    Overload,
}

/// Per-tenant admission counters, surfaced through
/// [`crate::FederationStats::tenant_slices`]. Kept **off** the stats
/// wire shape (the recovery-log convention) so serialized federation
/// stats stay bit-identical across tenancy configurations.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize,
)]
pub struct TenantAdmissionStats {
    /// Arrivals attributed to this tenant.
    pub submitted: u64,
    /// Arrivals admitted past the tenant table.
    pub admitted: u64,
    /// Arrivals shed because the token bucket ran dry.
    pub shed_quota: u64,
    /// Arrivals shed by degraded-mode throttling (the rung-1
    /// BestEffort duty cycle).
    pub shed_throttled: u64,
    /// Arrivals rejected outright by the ladder rung.
    pub shed_overload: u64,
}

impl TenantAdmissionStats {
    /// Total arrivals shed, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_quota + self.shed_throttled + self.shed_overload
    }

    /// Percentage of this tenant's submissions that were shed.
    pub fn shed_pct(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            100.0 * self.shed() as f64 / self.submitted as f64
        }
    }
}

/// One tenant's token bucket (milli-token units; `last` is the
/// tenant's own arrival watermark, so refills depend only on the
/// tenant's own stream — the isolation property).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Bucket {
    tokens: u64,
    last: SimTime,
}

/// The admission verdict [`TenantTable::admit`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TenantVerdict {
    /// Admitted; carries the class whose value tag the gateway stamps.
    Admitted { class: SlaClass },
    /// Shed; the arrival must touch nothing downstream.
    Shed { tenant: u64, reason: ShedReason },
}

/// The coordinator-side admission table: token buckets, counters and
/// the ladder rung. Owned by [`crate::Gateway`]; consulted once per
/// arrival in global arrival order **before** the reuse gate (a shed
/// arrival must not advance the reuse watermark or any other
/// coordinate).
#[derive(Debug)]
pub(crate) struct TenantTable {
    policy: TenancyPolicy,
    buckets: Vec<Option<Bucket>>,
    counters: Vec<TenantAdmissionStats>,
    rung: u8,
    over: u32,
    under: u32,
}

/// A tenant table's wire form in the gateway snapshot: the ladder rung
/// and streak counters, the token buckets and the per-tenant counters.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct TenantState {
    rung: u8,
    over: u32,
    under: u32,
    buckets: Vec<Option<Bucket>>,
    counters: Vec<TenantAdmissionStats>,
}

impl TenantTable {
    pub(crate) fn new(policy: TenancyPolicy) -> Self {
        let lanes = policy.lanes() as usize;
        let buckets = (0..policy.lanes())
            .map(|t| {
                policy.spec(t).quota.map(|q| Bucket {
                    tokens: q.burst.saturating_mul(TOKEN_SCALE),
                    last: SimTime::ZERO,
                })
            })
            .collect();
        Self {
            policy,
            buckets,
            counters: vec![TenantAdmissionStats::default(); lanes],
            rung: 0,
            over: 0,
            under: 0,
        }
    }

    pub(crate) fn policy(&self) -> &TenancyPolicy {
        &self.policy
    }

    /// The current ladder rung (0 = admit-all).
    pub(crate) fn rung(&self) -> u8 {
        self.rung
    }

    /// Per-tenant counters, tenant-id order.
    pub(crate) fn counters(&self) -> &[TenantAdmissionStats] {
        &self.counters
    }

    /// Decides one arrival, in global arrival order, from
    /// arrival-visible data only. Counters and buckets advance as a
    /// side effect, so callers must consult the table for **every**
    /// arrival exactly once.
    pub(crate) fn admit(&mut self, task: &Task) -> TenantVerdict {
        let tenant = self.policy.tenant_of(task.id.0);
        let lane = tenant as usize;
        let spec = self.policy.spec(tenant);
        self.counters[lane].submitted += 1;
        // Lazy per-tenant refill off the tenant's own arrival
        // watermark: another tenant's traffic can never change this
        // tenant's token balance (the isolation property).
        if let Some(q) = spec.quota {
            let b = self.buckets[lane].as_mut().expect("quota has a bucket");
            if task.arrival > b.last {
                let dt = task.arrival.ticks() - b.last.ticks();
                let cap = q.burst.saturating_mul(TOKEN_SCALE);
                b.tokens =
                    cap.min(b.tokens.saturating_add(q.rate.saturating_mul(dt)));
                b.last = task.arrival;
            }
        }
        // Rung gates: outright class rejections first.
        let class_shed = (self.rung >= MAX_RUNG
            && spec.sla != SlaClass::Premium)
            || (self.rung >= 2 && spec.sla == SlaClass::BestEffort);
        if class_shed {
            self.counters[lane].shed_overload += 1;
            return TenantVerdict::Shed {
                tenant,
                reason: ShedReason::Overload,
            };
        }
        // Rung-1 BestEffort throttle: double token cost under a
        // quota, a deterministic 1-in-2 duty cycle without one. The
        // cycle's phase is the parity of the tenant's own submissions
        // that passed the rung gates — a pure function of the tenant's
        // stream, not of when the ladder happened to engage. Only the
        // parity matters, so the count wraps rather than trusting
        // restored counters to balance.
        let mut cost = TOKEN_SCALE;
        if self.rung == 1 && spec.sla == SlaClass::BestEffort {
            let c = &mut self.counters[lane];
            let passed = c.submitted.wrapping_sub(c.shed_overload);
            if spec.quota.is_some() {
                cost = 2 * TOKEN_SCALE;
            } else if passed.is_multiple_of(2) {
                c.shed_throttled += 1;
                return TenantVerdict::Shed {
                    tenant,
                    reason: ShedReason::Throttled,
                };
            }
        }
        if let Some(b) = self.buckets[lane].as_mut() {
            if b.tokens < cost {
                self.counters[lane].shed_quota += 1;
                return TenantVerdict::Shed {
                    tenant,
                    reason: ShedReason::Quota,
                };
            }
            b.tokens -= cost;
        }
        self.counters[lane].admitted += 1;
        TenantVerdict::Admitted { class: spec.sla }
    }

    /// One ladder sensing tick, fed the federation's summed healthy
    /// batch-queue depth at a quiescent arrival watermark. Returns
    /// `Some((from, to))` on a transition (always one rung). `None`
    /// when the ladder is not configured or pressure was unconvincing
    /// — streak counters still advance, so the transition sequence is
    /// a pure function of the pressure trace.
    pub(crate) fn overload_tick(
        &mut self,
        pressure: usize,
    ) -> Option<(u8, u8)> {
        let cfg = *self.policy.ladder.as_ref()?;
        if pressure >= cfg.high {
            self.under = 0;
            self.over += 1;
            if self.over >= cfg.sustain && self.rung < MAX_RUNG {
                self.over = 0;
                let from = self.rung;
                self.rung += 1;
                return Some((from, self.rung));
            }
        } else if pressure <= cfg.low {
            self.over = 0;
            self.under += 1;
            if self.under >= cfg.sustain && self.rung > 0 {
                self.under = 0;
                let from = self.rung;
                self.rung -= 1;
                return Some((from, self.rung));
            }
        } else {
            self.over = 0;
            self.under = 0;
        }
        None
    }

    /// The table's state as the gateway snapshot carries it (the
    /// configuration is construction-time and not serialized).
    pub(crate) fn state(&self) -> TenantState {
        TenantState {
            rung: self.rung,
            over: self.over,
            under: self.under,
            buckets: self.buckets.clone(),
            counters: self.counters.clone(),
        }
    }

    /// Checks that a captured state fits a table built from this
    /// table's [`TenancyPolicy`]: one bucket per quota'd lane and a
    /// null per unquota'd one, one counter set per lane, a rung no
    /// higher than the top one.
    ///
    /// # Errors
    /// [`SnapshotError::ShapeMismatch`] naming the first misfit.
    pub(crate) fn check(
        &self,
        state: &TenantState,
    ) -> Result<(), SnapshotError> {
        let what = if state.rung > MAX_RUNG {
            "the tenant table's ladder rung is above the top rung"
        } else if state.buckets.len() != self.buckets.len()
            || state.counters.len() != self.buckets.len()
            || state
                .buckets
                .iter()
                .zip(&self.buckets)
                .any(|(b, own)| b.is_some() != own.is_some())
        {
            "the tenant table differs from this tenancy policy"
        } else {
            return Ok(());
        };
        Err(SnapshotError::ShapeMismatch { what })
    }

    /// Installs a state that passed [`TenantTable::check`].
    pub(crate) fn restore(&mut self, state: TenantState) {
        self.rung = state.rung;
        self.over = state.over;
        self.under = state.under;
        self.buckets = state.buckets;
        self.counters = state.counters;
    }

    /// Directly sets the ladder rung (test-only: production rungs move
    /// through [`TenantTable::overload_tick`] or
    /// [`TenantTable::restore`]).
    #[cfg(test)]
    pub(crate) fn set_rung(&mut self, rung: u8) {
        self.rung = rung.min(MAX_RUNG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use taskprune_model::TaskTypeId;

    fn task(id: u64, arrival: u64) -> Task {
        Task::new(id, TaskTypeId(0), SimTime(arrival), SimTime(arrival + 1000))
    }

    fn admitted(v: TenantVerdict) -> bool {
        matches!(v, TenantVerdict::Admitted { .. })
    }

    #[test]
    fn zero_quota_sheds_everything_and_counts_it() {
        let policy = TenancyPolicy::new(2)
            .tenant(TenantSpec::default())
            .tenant(TenantSpec::default().quota(RateLimit::zero()));
        let mut table = TenantTable::new(policy);
        for i in 0..10u64 {
            let v = table.admit(&task(2 * i + 1, i * 10)); // tenant 1
            assert_eq!(
                v,
                TenantVerdict::Shed {
                    tenant: 1,
                    reason: ShedReason::Quota
                }
            );
            assert!(admitted(table.admit(&task(2 * i, i * 10)))); // tenant 0
        }
        let c = table.counters();
        assert_eq!((c[0].submitted, c[0].admitted), (10, 10));
        assert_eq!((c[1].submitted, c[1].shed_quota), (10, 10));
        assert!((c[1].shed_pct() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn token_bucket_burst_then_refill() {
        let policy = TenancyPolicy::new(1).tenant(TenantSpec::default().quota(
            RateLimit {
                burst: 2,
                rate: 100, // one task per 10 ticks
            },
        ));
        let mut table = TenantTable::new(policy);
        // Burst of 3 at t=0: two admitted, third sheds.
        assert!(admitted(table.admit(&task(0, 0))));
        assert!(admitted(table.admit(&task(1, 0))));
        assert!(!admitted(table.admit(&task(2, 0))));
        // 10 ticks later one token has refilled.
        assert!(admitted(table.admit(&task(3, 10))));
        assert!(!admitted(table.admit(&task(4, 10))));
    }

    #[test]
    fn ladder_steps_are_monotone_and_sustained() {
        let policy = TenancyPolicy::new(1).ladder(LadderConfig {
            high: 10,
            low: 2,
            sustain: 2,
            retry_after: 99,
        });
        let mut table = TenantTable::new(policy);
        assert_eq!(table.overload_tick(50), None); // streak 1
        assert_eq!(table.overload_tick(50), Some((0, 1)));
        assert_eq!(table.overload_tick(50), None);
        assert_eq!(table.overload_tick(50), Some((1, 2)));
        assert_eq!(table.overload_tick(5), None); // mid-band resets
        assert_eq!(table.overload_tick(1), None);
        assert_eq!(table.overload_tick(1), Some((2, 1)));
        assert_eq!(table.rung(), 1);
        // No ladder configured: never transitions.
        let mut off = TenantTable::new(TenancyPolicy::new(1));
        assert_eq!(off.overload_tick(usize::MAX), None);
    }

    #[test]
    fn rung_gates_shed_by_class() {
        let policy = TenancyPolicy::new(3)
            .tenant(TenantSpec::new(SlaClass::Premium))
            .tenant(TenantSpec::new(SlaClass::Standard))
            .tenant(TenantSpec::new(SlaClass::BestEffort));
        let mut table = TenantTable::new(policy);
        table.set_rung(2);
        assert!(admitted(table.admit(&task(0, 0)))); // premium
        assert!(admitted(table.admit(&task(1, 0)))); // standard
        assert_eq!(
            table.admit(&task(2, 0)),
            TenantVerdict::Shed {
                tenant: 2,
                reason: ShedReason::Overload
            }
        );
        table.set_rung(3);
        assert!(admitted(table.admit(&task(3, 1))));
        assert_eq!(
            table.admit(&task(4, 1)),
            TenantVerdict::Shed {
                tenant: 1,
                reason: ShedReason::Overload
            }
        );
    }

    #[test]
    fn rung_one_throttles_best_effort_by_duty_cycle_or_double_cost() {
        let shed = |reason| TenantVerdict::Shed { tenant: 0, reason };
        // Without a quota: a 1-in-2 duty cycle over the submissions the
        // rung gates let through. Submissions admitted at rung 0 count
        // toward its phase; rung-2 rejections do not.
        let policy =
            TenancyPolicy::new(1).tenant(TenantSpec::new(SlaClass::BestEffort));
        let mut table = TenantTable::new(policy);
        for i in 0..3u64 {
            assert!(admitted(table.admit(&task(i, i)))); // rung 0
        }
        table.set_rung(2);
        for i in 3..8u64 {
            assert_eq!(table.admit(&task(i, i)), shed(ShedReason::Overload));
        }
        table.set_rung(1);
        // Three submissions passed the gates so far, so the next one is
        // the 4th (even, throttled); then odd admitted, even throttled,
        // across many 64-submission spans.
        for n in 4..=300u64 {
            let v = table.admit(&task(n + 4, n + 4));
            if n % 2 == 1 {
                assert!(admitted(v), "submission {n} must be admitted");
            } else {
                assert_eq!(v, shed(ShedReason::Throttled), "submission {n}");
            }
        }
        let c = table.counters()[0];
        assert_eq!(c.submitted, 305);
        assert_eq!((c.shed_overload, c.shed_throttled), (5, 149));
        assert_eq!(c.admitted, 3 + 148);

        // With a quota: no duty cycle, but every admission costs two
        // tokens, so a burst of four tokens admits two tasks.
        let policy = TenancyPolicy::new(1).tenant(
            TenantSpec::new(SlaClass::BestEffort)
                .quota(RateLimit { burst: 4, rate: 0 }),
        );
        let mut table = TenantTable::new(policy.clone());
        table.set_rung(1);
        assert!(admitted(table.admit(&task(0, 0))));
        assert!(admitted(table.admit(&task(1, 0))));
        assert_eq!(table.admit(&task(2, 0)), shed(ShedReason::Quota));
        // At rung 0 the same bucket admits four.
        let mut calm = TenantTable::new(policy);
        for i in 0..4u64 {
            assert!(admitted(calm.admit(&task(i, 0))));
        }
        assert_eq!(calm.admit(&task(4, 0)), shed(ShedReason::Quota));
    }

    #[test]
    fn state_round_trips() {
        let policy = TenancyPolicy::new(2)
            .tenant(
                TenantSpec::new(SlaClass::Premium)
                    .quota(RateLimit { burst: 4, rate: 7 }),
            )
            .tenant(TenantSpec::new(SlaClass::BestEffort))
            .ladder(LadderConfig::default());
        let mut table = TenantTable::new(policy.clone());
        for i in 0..20u64 {
            let _ = table.admit(&task(i, i * 3));
        }
        let _ = table.overload_tick(1000);
        let wire = table.state().to_value();
        let decode = |v: &Value| TenantState::from_value(v).expect("decodes");
        let mut rebuilt = TenantTable::new(policy);
        rebuilt.check(&decode(&wire)).expect("the state fits");
        rebuilt.restore(decode(&wire));
        assert_eq!(rebuilt.state().to_value(), wire);
        assert_eq!(rebuilt.rung(), table.rung());
        assert_eq!(rebuilt.counters(), table.counters());
        // The quota'd lane's bucket nulled out: a typed error, where
        // admitting on it would have panicked.
        let with = |name: &str, value: Value| {
            let mut v = wire.clone();
            let Value::Object(fields) = &mut v else {
                panic!("tenant tables are objects");
            };
            for (k, v) in fields.iter_mut() {
                if k == name {
                    *v = value.clone();
                }
            }
            v
        };
        let misfit = with("buckets", Value::Array(vec![Value::Null; 2]));
        assert!(matches!(
            rebuilt.check(&decode(&misfit)),
            Err(SnapshotError::ShapeMismatch { .. })
        ));
        // Streak counters past `u32` no longer clamp: they fail to
        // decode.
        let over = with("over", Value::UInt(u64::from(u32::MAX) + 1));
        assert!(TenantState::from_value(&over).is_err());
    }
}
