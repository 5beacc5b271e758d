//! Multi-tenant admission control: per-tenant token-bucket quotas,
//! SLA classes, weighted-fair degraded admission, and the overload
//! degradation ladder.
//!
//! The paper's pruning mechanism sheds load *inside* one scheduler;
//! this module sheds load *at the federation front door*, where the
//! coordinator observes every arrival before any shard commitment.
//! Arrivals are attributed to **tenants** by external-id lane
//! (`tenant = external_id mod lanes`, the
//! `TaskStream::with_id_stride` convention), each tenant carries a
//! [`TenantSpec`] — an [`SlaClass`], a fairness weight, and an
//! optional [`RateLimit`] token bucket — and the `TenantTable`
//! decides, in **global arrival order using arrival-visible data
//! only** (task fields and per-tenant arrival watermarks, never shard
//! clocks), whether each arrival is admitted or shed. That discipline
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
//! | 1    | throttle-BE     | BestEffort pays double tokens (or a 1-in-2 duty cycle without a quota); weighted-fair caps activate |
//! | 2    | shed-BE         | BestEffort rejected; Standard pruning thresholds tighten via the per-class chance bias |
//! | 3    | premium-only    | every non-Premium arrival rejected with [`crate::RunError::Overloaded`] on the fallible path |
//!
//! Transitions are monotone (one rung per sensing tick), require
//! `sustain` consecutive over/under-pressure observations, are
//! journaled as [`crate::JournalOp::SlaRung`] and logged as
//! [`crate::RecoveryActionKind::OverloadStepUp`] /
//! [`crate::RecoveryActionKind::OverloadStepDown`], and step back
//! down deterministically on recovery.

use serde::{Deserialize, Error, Serialize, Value};
use taskprune_model::{SimTime, Task};

/// Milli-tokens one admitted task costs (quota rates are expressed in
/// milli-tokens per tick so slow refills need no floating point).
const TOKEN_SCALE: u64 = 1000;

/// Length, in per-tenant submissions, of the weighted-fair admission
/// window active at ladder rung ≥ 1.
const FAIR_WINDOW: u64 = 64;

/// Highest ladder rung (premium-only admission).
pub(crate) const MAX_RUNG: u8 = 3;

/// A tenant's service class: how late it prunes and how early the
/// overload ladder sheds it.
///
/// The class rides on [`Task::value`] as a *value tag* (Premium 2.0,
/// Standard 1.0, BestEffort 0.5) stamped at admission, so it flows
/// through journals, snapshots and piggybacks for free — the
/// serialized stats wire shape never contains task values, so the
/// stamp is wire-invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlaClass {
    /// Prunes last; admitted even at the top ladder rung.
    Premium,
    /// The default class; pruning tightens at rung ≥ 2, admission is
    /// rejected at rung 3.
    #[default]
    Standard,
    /// Prunes first; throttled at rung 1, shed from rung 2 up.
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

    /// Recovers the class from a task's value tag (the inverse of
    /// [`SlaClass::value_tag`]; unstamped tasks carry 1.0 = Standard).
    pub fn from_value_tag(value: f64) -> Self {
        if value > 1.0 {
            SlaClass::Premium
        } else if value < 1.0 {
            SlaClass::BestEffort
        } else {
            SlaClass::Standard
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

/// One tenant's admission contract: service class, weighted-fair
/// share, and optional token-bucket quota (`None` = unlimited).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// The tenant's service class.
    pub sla: SlaClass,
    /// Weighted-fair share (relative to the sum over all tenants)
    /// enforced during degraded operation (ladder rung ≥ 1).
    pub weight: u32,
    /// Token-bucket quota; `None` admits without rate limiting.
    pub quota: Option<RateLimit>,
}

impl TenantSpec {
    /// A spec of the given class with weight 1 and no quota.
    pub fn new(sla: SlaClass) -> Self {
        Self {
            sla,
            weight: 1,
            quota: None,
        }
    }

    /// Sets the weighted-fair share (clamped to ≥ 1).
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w.max(1);
        self
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
    /// [`TenantSpec::default`] (Standard, weight 1, no quota) until
    /// specs are appended.
    pub fn new(lanes: u64) -> Self {
        Self {
            lanes: lanes.max(1),
            tenants: Vec::new(),
            ladder: None,
        }
    }

    /// Appends one tenant spec. Tenant `t` uses spec `t mod
    /// specs.len()`; with no specs at all every tenant is Standard,
    /// unweighted and unquota'd.
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
    /// Degraded-mode throttling: the weighted-fair window cap, or the
    /// rung-1 BestEffort duty cycle.
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
    /// Arrivals shed by degraded-mode throttling (fair-window cap or
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
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    tokens: u64,
    last: SimTime,
}

/// One tenant's weighted-fair admission window (rolling, per-tenant:
/// resets every [`FAIR_WINDOW`] of the tenant's *own* submissions, so
/// no tenant's burst can move another tenant's window boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct FairWindow {
    submitted: u64,
    admitted: u64,
}

/// The admission verdict [`TenantTable::admit`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TenantVerdict {
    /// Admitted; carries the class whose value tag the gateway stamps.
    Admitted { class: SlaClass },
    /// Shed; the arrival must touch nothing downstream.
    Shed { tenant: u64, reason: ShedReason },
}

/// The coordinator-side admission table: token buckets, fair windows,
/// counters and the ladder rung. Owned by [`crate::Gateway`];
/// consulted once per arrival in global arrival order **before** the
/// reuse gate (a shed arrival must not advance the reuse watermark or
/// any other coordinate).
#[derive(Debug)]
pub(crate) struct TenantTable {
    policy: TenancyPolicy,
    total_weight: u64,
    buckets: Vec<Option<Bucket>>,
    windows: Vec<FairWindow>,
    counters: Vec<TenantAdmissionStats>,
    rung: u8,
    over: u32,
    under: u32,
}

impl TenantTable {
    pub(crate) fn new(policy: TenancyPolicy) -> Self {
        let lanes = policy.lanes() as usize;
        let total_weight: u64 = (0..policy.lanes())
            .map(|t| u64::from(policy.spec(t).weight))
            .sum::<u64>()
            .max(1);
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
            total_weight,
            buckets,
            windows: vec![FairWindow::default(); lanes],
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

    /// This tenant's weighted-fair per-window admission cap (active at
    /// rung ≥ 1): `ceil(FAIR_WINDOW · weight / Σ weights)`, never 0.
    fn fair_cap(&self, tenant: u64) -> u64 {
        let w = u64::from(self.policy.spec(tenant).weight);
        (FAIR_WINDOW * w).div_ceil(self.total_weight).max(1)
    }

    /// Decides one arrival, in global arrival order, from
    /// arrival-visible data only. Counters, buckets and windows
    /// advance as a side effect, so callers must consult the table
    /// for **every** arrival exactly once.
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
        // Per-tenant fair window bookkeeping (always advanced so the
        // window phase is a pure function of the tenant's own stream,
        // not of when the ladder happened to engage).
        let cap = self.fair_cap(tenant);
        let w = &mut self.windows[lane];
        w.submitted += 1;
        if w.submitted > FAIR_WINDOW {
            *w = FairWindow {
                submitted: 1,
                admitted: 0,
            };
        }
        if self.rung >= 1 && self.windows[lane].admitted >= cap {
            self.counters[lane].shed_throttled += 1;
            return TenantVerdict::Shed {
                tenant,
                reason: ShedReason::Throttled,
            };
        }
        // Rung-1 BestEffort throttle: double token cost under a
        // quota, a deterministic 1-in-2 duty cycle without one.
        let mut cost = TOKEN_SCALE;
        if self.rung == 1 && spec.sla == SlaClass::BestEffort {
            if spec.quota.is_some() {
                cost = 2 * TOKEN_SCALE;
            } else if self.windows[lane].submitted.is_multiple_of(2) {
                self.counters[lane].shed_throttled += 1;
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
        self.windows[lane].admitted += 1;
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

    /// Canonical state capture for the gateway snapshot (the
    /// configuration is construction-time and not serialized).
    pub(crate) fn state_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .map(|b| match b {
                None => Value::Null,
                Some(b) => Value::Object(vec![
                    ("tokens".to_owned(), b.tokens.to_value()),
                    ("last".to_owned(), b.last.to_value()),
                ]),
            })
            .collect();
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("submitted".to_owned(), w.submitted.to_value()),
                    ("admitted".to_owned(), w.admitted.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("rung".to_owned(), Value::UInt(u64::from(self.rung))),
            ("over".to_owned(), Value::UInt(u64::from(self.over))),
            ("under".to_owned(), Value::UInt(u64::from(self.under))),
            ("buckets".to_owned(), Value::Array(buckets)),
            ("windows".to_owned(), Value::Array(windows)),
            ("counters".to_owned(), self.counters.to_value()),
        ])
    }

    /// Restores state captured by [`TenantTable::state_value`] into a
    /// table built from the same [`TenancyPolicy`].
    pub(crate) fn restore_value(&mut self, v: &Value) -> Result<(), Error> {
        self.rung = u64::from_value(v.get_field("rung")?)?.min(255) as u8;
        self.over =
            u64::from_value(v.get_field("over")?)?.min(u32::MAX as u64) as u32;
        self.under =
            u64::from_value(v.get_field("under")?)?.min(u32::MAX as u64) as u32;
        let Value::Array(buckets) = v.get_field("buckets")? else {
            return Err(Error::unexpected("array", v.get_field("buckets")?));
        };
        let Value::Array(windows) = v.get_field("windows")? else {
            return Err(Error::unexpected("array", v.get_field("windows")?));
        };
        if buckets.len() != self.buckets.len()
            || windows.len() != self.windows.len()
        {
            return Err(Error::custom(
                "tenant-table lane count differs from this policy",
            ));
        }
        for (slot, wire) in self.buckets.iter_mut().zip(buckets) {
            *slot = match wire {
                Value::Null => None,
                obj => Some(Bucket {
                    tokens: u64::from_value(obj.get_field("tokens")?)?,
                    last: SimTime::from_value(obj.get_field("last")?)?,
                }),
            };
        }
        for (slot, wire) in self.windows.iter_mut().zip(windows) {
            *slot = FairWindow {
                submitted: u64::from_value(wire.get_field("submitted")?)?,
                admitted: u64::from_value(wire.get_field("admitted")?)?,
            };
        }
        self.counters =
            Vec::<TenantAdmissionStats>::from_value(v.get_field("counters")?)?;
        if self.counters.len() != self.windows.len() {
            return Err(Error::custom(
                "tenant-counter count differs from this policy",
            ));
        }
        Ok(())
    }

    /// Directly sets the ladder rung (test-only: production rungs move
    /// through [`TenantTable::overload_tick`] or
    /// [`TenantTable::restore_value`]).
    #[cfg(test)]
    pub(crate) fn set_rung(&mut self, rung: u8) {
        self.rung = rung.min(MAX_RUNG);
    }
}

/// The per-class pruning-threshold offset, as a bias added to the
/// Eq. 2 admission chance before the pruner's deferral test: a
/// positive bias makes the pruner *less* likely to drop (Premium
/// prunes last), a negative one *more* likely (BestEffort prunes
/// first), and the magnitude grows with the ladder rung (rung ≥ 2
/// additionally tightens Standard). Returns exactly `0.0` for
/// Standard tasks below rung 2, so an all-Standard tenancy at rung 0
/// leaves the float path untouched (the quotas-off byte-identity
/// contract).
pub(crate) fn sla_chance_bias(value_tag: f64, rung: u8) -> f64 {
    let r = f64::from(rung);
    match SlaClass::from_value_tag(value_tag) {
        SlaClass::Premium => 0.05 * (1.0 + r),
        SlaClass::BestEffort => -0.05 * (1.0 + r),
        SlaClass::Standard => {
            if rung >= 2 {
                -0.03 * (r - 1.0)
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::{TaskId, TaskTypeId};

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
    fn fair_window_caps_by_weight_at_rung_one() {
        let policy = TenancyPolicy::new(2)
            .tenant(TenantSpec::default().weight(3))
            .tenant(TenantSpec::default().weight(1));
        let mut table = TenantTable::new(policy);
        table.set_rung(1);
        // caps: ceil(64*3/4)=48, ceil(64*1/4)=16.
        let mut ok = [0u64; 2];
        for i in 0..FAIR_WINDOW {
            for t in 0..2u64 {
                if admitted(table.admit(&task(2 * i + t, i))) {
                    ok[t as usize] += 1;
                }
            }
        }
        assert_eq!(ok, [48, 16]);
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
        let wire = table.state_value();
        let mut rebuilt = TenantTable::new(policy);
        rebuilt.restore_value(&wire).expect("round trip");
        assert_eq!(rebuilt.state_value(), wire);
        assert_eq!(rebuilt.rung(), table.rung());
        assert_eq!(rebuilt.counters(), table.counters());
    }

    #[test]
    fn bias_is_zero_only_for_calm_standard() {
        assert_eq!(sla_chance_bias(1.0, 0), 0.0);
        assert_eq!(sla_chance_bias(1.0, 1), 0.0);
        assert!(sla_chance_bias(1.0, 2) < 0.0);
        assert!(sla_chance_bias(2.0, 0) > 0.0);
        assert!(sla_chance_bias(0.5, 0) < 0.0);
        assert!(sla_chance_bias(0.5, 3) < sla_chance_bias(0.5, 1));
        let _ = TaskId(0); // silence unused-import lint paths on some cfgs
    }
}
