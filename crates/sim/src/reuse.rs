//! Content-keyed function reuse: exact-duplicate piggybacking and
//! deadline-window task merging at the federation gateway.
//!
//! Oversubscribed serverless platforms see the *same* request many
//! times — the multimedia workloads behind the paper's evaluation are
//! full of identical Group-Of-Pictures transcodes — and the gateway is
//! the one place that observes every arrival before any machine-queue
//! commitment. This module turns that vantage point into a reuse
//! cache (arXiv:2104.04474):
//!
//! * **Exact duplicates** (same *content key*) piggyback on the
//!   in-flight primary instance: the follower never enters a queue,
//!   and the primary's single completion fans out to every follower,
//!   each judged against its *own* deadline.
//! * **Mergeable tasks** (same task type, deadline within a
//!   configurable window *at or after* an in-flight primary's) share
//!   the primary's execution the same way. Because the primary's
//!   deadline is never later than the follower's, the primary's Eq. 2
//!   chance-of-success — already priced by the Eq. 1 chain of the
//!   queue it sits in — is a conservative lower bound for the merged
//!   pair: a merge can only raise, never lower, a follower's success
//!   probability.
//!
//! The **content key** is `(external task id, task type)`. The model's
//! [`Task`] carries no payload; the external id names the request
//! content (two tasks sharing an external id are the same request
//! re-submitted, which [`crate::IdCompactor`] already disambiguates
//! instance-wise) and the type names the function applied to it.
//!
//! All reuse decisions are taken by the coordinator-side `ReuseGate`
//! in **global arrival order**, using only data visible at admission
//! (task fields and a running arrival watermark — never shard clocks
//! or completion knowledge). That makes the decision stream identical
//! under [`crate::FederatedEngine`] and
//! [`crate::ParallelFederatedEngine`] at every thread count, and lets
//! the parallel lanes stay barrier-free. The shard-local follower
//! ledger (`ReuseLedger`) resolves deterministically on each core.

use crate::journal::JournalOp;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use taskprune_model::{SimTime, Task, TaskId};

/// How aggressively the gateway coalesces arrivals onto in-flight
/// primaries — the mode half of a [`ReusePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseMode {
    /// No reuse: every arrival routes and executes individually.
    #[default]
    Off,
    /// Only exact content-key duplicates piggyback on their in-flight
    /// primary; distinct requests never coalesce.
    ExactOnly,
    /// Exact duplicates piggyback, and tasks of the same type whose
    /// deadline falls within `window` *after* an in-flight primary's
    /// deadline merge onto that primary.
    Merge {
        /// Largest allowed deadline gap (follower minus primary) for a
        /// type-class merge.
        window: SimTime,
    },
}

/// Gateway-level reuse knob: a [`ReuseMode`] plus an optional bound on
/// how many in-flight primaries the gate may track at once. Configured
/// via [`crate::GatewayBuilder::reuse`]; the default is
/// [`ReusePolicy::Off`], which is bit-identical to a gateway without
/// the subsystem.
///
/// The `max_inflight` budget caps the gate cache: when registering a
/// fresh primary would exceed it, the **oldest** still-live primary
/// (by registration order) is evicted first. Runs whose live-primary
/// count never reaches the budget are byte-identical to unbudgeted
/// runs — eviction only ever removes entries that would otherwise have
/// absorbed followers, so the budget trades reuse hits for bounded
/// coordinator memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReusePolicy {
    mode: ReuseMode,
    max_inflight: Option<usize>,
}

impl ReusePolicy {
    /// No reuse (the default). An associated constant so existing
    /// `ReusePolicy::Off` expression sites keep compiling across the
    /// enum-to-struct change.
    #[allow(non_upper_case_globals)]
    pub const Off: ReusePolicy = ReusePolicy {
        mode: ReuseMode::Off,
        max_inflight: None,
    };

    /// Exact-duplicate piggybacking only, no cache budget.
    #[allow(non_upper_case_globals)]
    pub const ExactOnly: ReusePolicy = ReusePolicy {
        mode: ReuseMode::ExactOnly,
        max_inflight: None,
    };

    /// Exact piggybacking plus deadline-window merging, no budget.
    pub const fn merge(window: SimTime) -> Self {
        ReusePolicy {
            mode: ReuseMode::Merge { window },
            max_inflight: None,
        }
    }

    /// Returns this policy with the gate cache capped at `n` live
    /// primaries (oldest-registered evicted first when full).
    pub const fn with_max_inflight(self, n: usize) -> Self {
        ReusePolicy {
            mode: self.mode,
            max_inflight: Some(n),
        }
    }

    /// The coalescing mode.
    pub fn mode(self) -> ReuseMode {
        self.mode
    }

    /// The gate-cache budget, if one is set.
    pub fn max_inflight(self) -> Option<usize> {
        self.max_inflight
    }

    /// Whether any reuse happens under this policy.
    pub fn is_enabled(self) -> bool {
        !matches!(self.mode, ReuseMode::Off)
    }

    /// The merge window, when type-class merging is on.
    pub fn merge_window(self) -> Option<SimTime> {
        match self.mode {
            ReuseMode::Merge { window } => Some(window),
            _ => None,
        }
    }

    /// Short stable label (for traces and bench output).
    pub fn name(self) -> &'static str {
        match self.mode {
            ReuseMode::Off => "off",
            ReuseMode::ExactOnly => "exact",
            ReuseMode::Merge { .. } => "merge",
        }
    }
}

/// How the gateway admitted one task — the typed replacement for the
/// old bare `(shard, TaskId)` return of
/// [`crate::Gateway::push_arrival`], which had no way to say
/// "absorbed by an in-flight primary".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The task routed normally and entered a shard as its own
    /// execution instance.
    Routed {
        /// Shard the task routed to.
        shard: usize,
        /// The task's shard-internal id.
        internal: TaskId,
    },
    /// The task was an exact content-key duplicate of an in-flight
    /// primary and piggybacks on it: no queue entry, the primary's
    /// completion resolves it.
    Piggybacked {
        /// Shard holding the primary.
        shard: usize,
        /// Shard-internal id of the primary it rides on.
        primary: TaskId,
        /// The follower's own shard-internal id (its outcome is
        /// recorded under this id).
        internal: TaskId,
    },
    /// The task merged onto a same-type primary within the configured
    /// deadline window ([`ReuseMode::Merge`]).
    Merged {
        /// Shard holding the primary.
        shard: usize,
        /// Shard-internal id of the primary it merged onto.
        primary: TaskId,
        /// The follower's own shard-internal id.
        internal: TaskId,
    },
    /// The tenant admission layer shed the task before it reached the
    /// reuse gate or routing: it entered no shard, consumed no id, and
    /// left every downstream coordinate untouched. Only produced when
    /// a [`crate::TenancyPolicy`] is installed.
    Shed {
        /// The tenant whose arrival was shed.
        tenant: u64,
        /// Why the admission layer refused it.
        reason: crate::tenant::ShedReason,
    },
}

impl Admission {
    /// The shard the task landed on (its own, or its primary's).
    ///
    /// # Panics
    ///
    /// Panics for [`Admission::Shed`] — a shed task never reached a
    /// shard. Check [`Admission::is_shed`] first on tenancy-enabled
    /// gateways.
    pub fn shard(&self) -> usize {
        match *self {
            Admission::Routed { shard, .. }
            | Admission::Piggybacked { shard, .. }
            | Admission::Merged { shard, .. } => shard,
            Admission::Shed { .. } => {
                panic!("shed admission has no shard")
            }
        }
    }

    /// The task's shard-internal id.
    ///
    /// # Panics
    ///
    /// Panics for [`Admission::Shed`] — a shed task was never assigned
    /// an internal id. Check [`Admission::is_shed`] first on
    /// tenancy-enabled gateways.
    pub fn internal(&self) -> TaskId {
        match *self {
            Admission::Routed { internal, .. }
            | Admission::Piggybacked { internal, .. }
            | Admission::Merged { internal, .. } => internal,
            Admission::Shed { .. } => {
                panic!("shed admission has no internal id")
            }
        }
    }

    /// Whether the task was absorbed by a primary instead of routing.
    pub fn is_absorbed(&self) -> bool {
        matches!(
            self,
            Admission::Piggybacked { .. } | Admission::Merged { .. }
        )
    }

    /// Whether the tenant admission layer shed the task.
    pub fn is_shed(&self) -> bool {
        matches!(self, Admission::Shed { .. })
    }
}

/// Crate-internal admission verdict carrying the relabelled task, used
/// between the gateway's admission path and the drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Admit {
    /// Route and execute: the existing arrival path.
    Fresh {
        /// Target shard.
        shard: usize,
        /// The relabelled (shard-internal ids) task.
        task: Task,
    },
    /// Absorbed by an in-flight primary on `shard`.
    Absorb {
        /// Shard holding the primary.
        shard: usize,
        /// The primary's shard-internal id.
        primary: TaskId,
        /// The relabelled follower.
        task: Task,
        /// Whether this was a window merge (vs an exact duplicate).
        merged: bool,
    },
}

impl Admit {
    /// The shard the verdict names and the operation that delivers it
    /// there: an [`JournalOp::Arrival`] for a fresh task, a
    /// [`JournalOp::Piggyback`] for an absorbed one.
    pub(crate) fn into_op(self) -> (usize, JournalOp) {
        match self {
            Admit::Fresh { shard, task } => (shard, JournalOp::Arrival(task)),
            Admit::Absorb {
                shard,
                primary,
                task,
                merged,
            } => (
                shard,
                JournalOp::Piggyback {
                    primary,
                    task,
                    merged,
                },
            ),
        }
    }
}

/// Reuse outcome counters, aggregated per shard and fanned into
/// [`crate::FederationStats`]. Kept **off** the stats wire shape (the
/// same convention as the recovery log) so serialized stats stay
/// bit-identical across reuse configurations.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize,
)]
pub struct ReuseStats {
    /// Exact content-key duplicates absorbed onto a primary.
    pub hits: u64,
    /// Same-type deadline-window merges absorbed onto a primary.
    pub merges: u64,
    /// Machine-ticks of execution the absorbed followers did **not**
    /// consume: the primary's measured execution time, once per
    /// resolved follower.
    pub cycles_saved: u64,
}

impl ReuseStats {
    /// Total followers absorbed (exact hits plus merges).
    pub fn absorbed(&self) -> u64 {
        self.hits + self.merges
    }

    /// Adds another shard's counters into this one.
    pub(crate) fn accumulate(&mut self, other: &ReuseStats) {
        self.hits += other.hits;
        self.merges += other.merges;
        self.cycles_saved += other.cycles_saved;
    }
}

/// One in-flight primary the gate can absorb followers onto.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GateEntry {
    shard: usize,
    internal: u64,
    deadline: SimTime,
    /// Registration ordinal — the eviction key of the `max_inflight`
    /// budget (lowest = oldest = evicted first).
    seq: u64,
}

/// Class-index tuple: `(deadline ticks, shard, internal, external id)`.
/// Ordered by deadline first so a window query is one `BTreeSet` range;
/// the trailing fields make the tuple unique and carry everything
/// needed to evict the matching cache entry.
type ClassTuple = (u64, u64, u64, u64);

/// The coordinator-side reuse cache: maps live content keys to their
/// in-flight primary. Owned by [`crate::Gateway`]; consulted once per
/// arrival in global arrival order, which is what keeps its decisions
/// identical across the serial and parallel drivers.
#[derive(Debug)]
pub(crate) struct ReuseGate {
    policy: ReusePolicy,
    /// Live primaries by content key `(external id, task type)`.
    cache: HashMap<(u64, u16), GateEntry>,
    /// Per-type deadline index for window merges; exactly mirrors
    /// `cache` (every cache entry has one tuple here and vice versa)
    /// when the policy is [`ReuseMode::Merge`], empty otherwise.
    classes: HashMap<u16, BTreeSet<ClassTuple>>,
    /// Running max of admitted arrival instants. Entries whose
    /// deadline precedes this are expired: their primary can no longer
    /// complete on time, so absorbing onto it stopped being useful.
    /// Advancing it off arrivals only — never shard clocks — is what
    /// keeps admission deterministic under the barrier-free stateless
    /// parallel schedule, which routes far ahead of execution.
    watermark: SimTime,
    /// Registration-order index (`seq` → content key), mirroring
    /// `cache` exactly; the `max_inflight` budget evicts from its
    /// front. Maintained unconditionally — it is one `BTreeMap` op per
    /// cache mutation, and only allocates once reuse is enabled.
    order: BTreeMap<u64, (u64, u16)>,
    /// Next registration ordinal.
    next_seq: u64,
}

impl ReuseGate {
    pub(crate) fn new(policy: ReusePolicy) -> Self {
        Self {
            policy,
            cache: HashMap::new(),
            classes: HashMap::new(),
            watermark: SimTime::ZERO,
            order: BTreeMap::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn policy(&self) -> ReusePolicy {
        self.policy
    }

    /// Number of live (unexpired-as-of-last-probe) primaries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.cache.len()
    }

    /// Decides whether `task` (external ids) absorbs onto an in-flight
    /// primary. Returns `(primary shard, primary internal id, merged)`
    /// on a hit. Advances the arrival watermark as a side effect, so
    /// callers must consult the gate for **every** arrival, in global
    /// arrival order.
    pub(crate) fn admit(
        &mut self,
        task: &Task,
    ) -> Option<(usize, TaskId, bool)> {
        if !self.policy.is_enabled() {
            return None;
        }
        if task.arrival > self.watermark {
            self.watermark = task.arrival;
        }
        let key = (task.id.0, task.type_id.0);
        if let Some(entry) = self.cache.get(&key).copied() {
            if entry.deadline < self.watermark {
                self.remove_entry(key, &entry);
            } else {
                return Some((entry.shard, TaskId(entry.internal), false));
            }
        }
        let window = self.policy.merge_window()?;
        self.prune_expired_class(task.type_id.0);
        let class = self.classes.get(&task.type_id.0)?;
        let lo = task.deadline.saturating_sub(window).ticks();
        let hi = task.deadline.ticks();
        // Largest in-window deadline wins: the latest primary still
        // finishing no later than the follower needs.
        let &(_, shard, internal, _) = class
            .range((lo, 0, 0, 0)..=(hi, u64::MAX, u64::MAX, u64::MAX))
            .next_back()?;
        Some((shard as usize, TaskId(internal), true))
    }

    /// Registers a freshly routed task as a live primary. `task`
    /// carries the external content key; `(shard, internal)` is where
    /// the instance actually runs.
    pub(crate) fn register(
        &mut self,
        task: &Task,
        shard: usize,
        internal: TaskId,
    ) {
        if !self.policy.is_enabled() {
            return;
        }
        let key = (task.id.0, task.type_id.0);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = GateEntry {
            shard,
            internal: internal.0,
            deadline: task.deadline,
            seq,
        };
        if let Some(old) = self.cache.insert(key, entry) {
            self.order.remove(&old.seq);
            self.remove_class_tuple(key.1, &old, key.0);
        }
        self.order.insert(seq, key);
        if self.policy.merge_window().is_some() {
            self.classes.entry(task.type_id.0).or_default().insert((
                task.deadline.ticks(),
                shard as u64,
                internal.0,
                task.id.0,
            ));
        }
        if let Some(budget) = self.policy.max_inflight() {
            while self.cache.len() > budget {
                let Some((_, &victim)) = self.order.iter().next() else {
                    break;
                };
                let Some(oldest) = self.cache.get(&victim).copied() else {
                    break;
                };
                self.remove_entry(victim, &oldest);
            }
        }
    }

    /// Drops every primary living on `shard`. Called when the shard is
    /// quarantined: its in-flight work will never complete, so nothing
    /// may piggyback onto it from here on.
    pub(crate) fn evict_shard(&mut self, shard: usize) {
        let dead: Vec<((u64, u16), GateEntry)> = self
            .cache
            .iter()
            .filter(|(_, e)| e.shard == shard)
            .map(|(k, e)| (*k, *e))
            .collect();
        for (key, entry) in dead {
            self.remove_entry(key, &entry);
        }
    }

    /// Drops the primary registered as `(shard, internal)`, if it is
    /// still live. Called when a federation steal moves the instance
    /// to another shard: followers must stop piggybacking onto the
    /// donor-side identity (the adopted instance re-registers under
    /// the thief's ids when it routes fresh — a stolen task never
    /// does, so the conservative move is to forget it).
    pub(crate) fn evict_task(&mut self, shard: usize, internal: TaskId) {
        let dead: Vec<((u64, u16), GateEntry)> = self
            .cache
            .iter()
            .filter(|(_, e)| e.shard == shard && e.internal == internal.0)
            .map(|(k, e)| (*k, *e))
            .collect();
        for (key, entry) in dead {
            self.remove_entry(key, &entry);
        }
    }

    /// Removes one cache entry plus its order-index and class-tuple
    /// mirrors — the single exit point every eviction path uses.
    fn remove_entry(&mut self, key: (u64, u16), entry: &GateEntry) {
        self.cache.remove(&key);
        self.order.remove(&entry.seq);
        self.remove_class_tuple(key.1, entry, key.0);
    }

    /// Removes the class tuple mirroring a cache entry (no-op outside
    /// Merge mode, where no tuples exist).
    fn remove_class_tuple(&mut self, ty: u16, entry: &GateEntry, ext: u64) {
        if let Some(class) = self.classes.get_mut(&ty) {
            class.remove(&(
                entry.deadline.ticks(),
                entry.shard as u64,
                entry.internal,
                ext,
            ));
            if class.is_empty() {
                self.classes.remove(&ty);
            }
        }
    }

    /// Evicts expired primaries (deadline before the watermark) from
    /// the front of one type's class index, mirroring into the cache.
    fn prune_expired_class(&mut self, ty: u16) {
        let wm = self.watermark.ticks();
        let mut dead_keys: Vec<u64> = Vec::new();
        if let Some(class) = self.classes.get_mut(&ty) {
            while let Some(&first) = class.iter().next() {
                if first.0 >= wm {
                    break;
                }
                class.remove(&first);
                dead_keys.push(first.3);
            }
            if class.is_empty() {
                self.classes.remove(&ty);
            }
        }
        for ext in dead_keys {
            if let Some(e) = self.cache.remove(&(ext, ty)) {
                self.order.remove(&e.seq);
            }
        }
    }

    /// Serializes the gate's durable state (watermark + live cache) in
    /// canonical content-key order, so two replicas that admitted the
    /// same stream seal the same bytes. The class index is derived
    /// state and is rebuilt on restore.
    pub(crate) fn state_value(&self) -> Value {
        let mut entries: Vec<(&(u64, u16), &GateEntry)> =
            self.cache.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        let cache: Vec<Value> = entries
            .into_iter()
            .map(|(&(ext, ty), e)| {
                Value::Object(vec![
                    ("ext".to_owned(), ext.to_value()),
                    ("ty".to_owned(), ty.to_value()),
                    ("shard".to_owned(), (e.shard as u64).to_value()),
                    ("internal".to_owned(), e.internal.to_value()),
                    ("deadline".to_owned(), e.deadline.to_value()),
                    ("seq".to_owned(), e.seq.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("watermark".to_owned(), self.watermark.to_value()),
            ("cache".to_owned(), Value::Array(cache)),
            ("next_seq".to_owned(), self.next_seq.to_value()),
        ])
    }

    /// Restores state captured by [`ReuseGate::state_value`],
    /// rebuilding the class index under the gate's configured policy.
    pub(crate) fn restore_value(
        &mut self,
        v: &Value,
    ) -> Result<(), serde::Error> {
        let watermark = SimTime::from_value(v.get_field("watermark")?)?;
        let Value::Array(items) = v.get_field("cache")? else {
            return Err(serde::Error::custom("reuse cache is not an array"));
        };
        self.cache.clear();
        self.classes.clear();
        self.order.clear();
        self.watermark = watermark;
        // `seq`/`next_seq` are absent from pre-budget captures; assign
        // registration ordinals in the canonical serialized order so a
        // legacy snapshot restores to a well-formed (if arbitrary)
        // eviction order.
        let mut next_seq = match v.get_opt("next_seq") {
            Some(val) => u64::from_value(val)?,
            None => 0,
        };
        for item in items {
            let ext = u64::from_value(item.get_field("ext")?)?;
            let ty = u16::from_value(item.get_field("ty")?)?;
            let shard = u64::from_value(item.get_field("shard")?)? as usize;
            let internal = u64::from_value(item.get_field("internal")?)?;
            let deadline = SimTime::from_value(item.get_field("deadline")?)?;
            let seq = match item.get_opt("seq") {
                Some(s) => u64::from_value(s)?,
                None => {
                    let s = next_seq;
                    next_seq += 1;
                    s
                }
            };
            self.cache.insert(
                (ext, ty),
                GateEntry {
                    shard,
                    internal,
                    deadline,
                    seq,
                },
            );
            self.order.insert(seq, (ext, ty));
            if self.policy.merge_window().is_some() {
                self.classes.entry(ty).or_default().insert((
                    deadline.ticks(),
                    shard as u64,
                    internal,
                    ext,
                ));
            }
        }
        self.next_seq = next_seq
            .max(self.cache.values().map(|e| e.seq + 1).max().unwrap_or(0));
        Ok(())
    }
}

/// Shard-local follower ledger: which followers ride on which primary,
/// plus the measured execution times of resolved primaries (so a
/// follower arriving *after* its primary completed still knows how
/// many cycles it saved). Owned by [`crate::SchedulerCore`]; resolved
/// at the primary's single terminal outcome.
#[derive(Debug)]
pub(crate) struct ReuseLedger {
    /// Whether this core participates in reuse at all. When false the
    /// ledger never allocates and every probe is a cheap early-out,
    /// keeping [`ReusePolicy::Off`] bit-identical *and* cost-identical
    /// to the pre-reuse core.
    active: bool,
    /// Primary internal id → followers in absorption order.
    followers: HashMap<u64, Vec<Task>>,
    /// Primary internal id → measured execution ticks, recorded only
    /// while active (late followers price their savings from this).
    completed_exec: HashMap<u64, u64>,
    stats: ReuseStats,
}

impl ReuseLedger {
    pub(crate) fn new() -> Self {
        Self {
            active: false,
            followers: HashMap::new(),
            completed_exec: HashMap::new(),
            stats: ReuseStats::default(),
        }
    }

    pub(crate) fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Counts one absorbed follower (exact hit or window merge).
    pub(crate) fn note_hit(&mut self, merged: bool) {
        if merged {
            self.stats.merges += 1;
        } else {
            self.stats.hits += 1;
        }
    }

    /// Parks a follower on its in-flight primary.
    pub(crate) fn add_follower(&mut self, primary: TaskId, task: Task) {
        self.followers.entry(primary.0).or_default().push(task);
    }

    /// Removes and returns `primary`'s followers, if any. The empty
    /// fast path is a single `HashMap::is_empty` check, so the Off
    /// configuration pays one predictable branch per outcome.
    pub(crate) fn take_followers(
        &mut self,
        primary: TaskId,
    ) -> Option<Vec<Task>> {
        if self.followers.is_empty() {
            return None;
        }
        self.followers.remove(&primary.0)
    }

    /// Records a completed primary's measured execution time for
    /// late-arriving followers.
    pub(crate) fn record_exec(&mut self, primary: TaskId, ticks: u64) {
        if self.active {
            self.completed_exec.insert(primary.0, ticks);
        }
    }

    /// Execution ticks a follower of this completed primary saves.
    pub(crate) fn exec_ticks(&self, primary: TaskId) -> u64 {
        self.completed_exec.get(&primary.0).copied().unwrap_or(0)
    }

    /// Adds saved machine time to the counters.
    pub(crate) fn add_saved(&mut self, ticks: u64) {
        self.stats.cycles_saved += ticks;
    }

    pub(crate) fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Forgets everything except the activation flag — the crash-wipe
    /// companion: journal replay re-applies every piggyback and
    /// rebuilds the ledger exactly.
    pub(crate) fn clear(&mut self) {
        self.followers.clear();
        self.completed_exec.clear();
        self.stats = ReuseStats::default();
    }

    /// Removes every still-parked follower in canonical (primary id,
    /// absorption) order — the end-of-run sweep backing
    /// [`crate::SchedulerCore::finish`].
    pub(crate) fn drain_remaining(&mut self) -> Vec<Task> {
        if self.followers.is_empty() {
            return Vec::new();
        }
        let mut keys: Vec<u64> = self.followers.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for k in keys {
            out.extend(self.followers.remove(&k).unwrap_or_default());
        }
        out
    }

    /// Serializes the ledger in canonical primary-id order.
    pub(crate) fn state_value(&self) -> Value {
        let mut follower_keys: Vec<u64> =
            self.followers.keys().copied().collect();
        follower_keys.sort_unstable();
        let followers: Vec<Value> = follower_keys
            .into_iter()
            .map(|k| {
                Value::Object(vec![
                    ("primary".to_owned(), k.to_value()),
                    ("tasks".to_owned(), self.followers[&k].to_value()),
                ])
            })
            .collect();
        let mut exec_keys: Vec<u64> =
            self.completed_exec.keys().copied().collect();
        exec_keys.sort_unstable();
        let completed: Vec<Value> = exec_keys
            .into_iter()
            .map(|k| {
                Value::Object(vec![
                    ("primary".to_owned(), k.to_value()),
                    ("ticks".to_owned(), self.completed_exec[&k].to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("followers".to_owned(), Value::Array(followers)),
            ("completed_exec".to_owned(), Value::Array(completed)),
            ("stats".to_owned(), self.stats.to_value()),
        ])
    }

    /// Restores state captured by [`ReuseLedger::state_value`]. The
    /// activation flag is construction-time configuration and is left
    /// untouched.
    pub(crate) fn restore_value(
        &mut self,
        v: &Value,
    ) -> Result<(), serde::Error> {
        let Value::Array(followers) = v.get_field("followers")? else {
            return Err(serde::Error::custom(
                "reuse followers is not an array",
            ));
        };
        let Value::Array(completed) = v.get_field("completed_exec")? else {
            return Err(serde::Error::custom(
                "reuse completed_exec is not an array",
            ));
        };
        let stats = ReuseStats::from_value(v.get_field("stats")?)?;
        self.followers.clear();
        self.completed_exec.clear();
        for item in followers {
            let primary = u64::from_value(item.get_field("primary")?)?;
            let tasks = Vec::<Task>::from_value(item.get_field("tasks")?)?;
            self.followers.insert(primary, tasks);
        }
        for item in completed {
            let primary = u64::from_value(item.get_field("primary")?)?;
            let ticks = u64::from_value(item.get_field("ticks")?)?;
            self.completed_exec.insert(primary, ticks);
        }
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::TaskTypeId;

    fn task(ext: u64, ty: u16, arrival: u64, deadline: u64) -> Task {
        Task::new(ext, TaskTypeId(ty), SimTime(arrival), SimTime(deadline))
    }

    #[test]
    fn off_policy_never_absorbs_or_allocates() {
        let mut gate = ReuseGate::new(ReusePolicy::Off);
        let t = task(1, 0, 0, 100);
        assert_eq!(gate.admit(&t), None);
        gate.register(&t, 0, TaskId(0));
        assert_eq!(gate.len(), 0);
        assert_eq!(gate.admit(&task(1, 0, 5, 100)), None);
    }

    #[test]
    fn exact_duplicate_piggybacks_on_registered_primary() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        let t = task(7, 2, 0, 1_000);
        assert_eq!(gate.admit(&t), None);
        gate.register(&t, 3, TaskId(41));
        // Same content key → absorbed onto shard 3 / internal 41.
        assert_eq!(
            gate.admit(&task(7, 2, 10, 900)),
            Some((3, TaskId(41), false))
        );
        // Same external id, different type: a different content key.
        assert_eq!(gate.admit(&task(7, 3, 20, 900)), None);
        // Different external id: miss.
        assert_eq!(gate.admit(&task(8, 2, 30, 900)), None);
    }

    #[test]
    fn expired_primary_is_evicted_not_reused() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        let t = task(7, 0, 0, 100);
        gate.admit(&t);
        gate.register(&t, 0, TaskId(0));
        // An arrival past the primary's deadline expires it.
        assert_eq!(gate.admit(&task(7, 0, 500, 900)), None);
        assert_eq!(gate.len(), 0);
    }

    #[test]
    fn merge_window_coalesces_same_type_late_deadline() {
        let mut gate = ReuseGate::new(ReusePolicy::merge(SimTime(200)));
        let p = task(1, 5, 0, 1_000);
        gate.admit(&p);
        gate.register(&p, 2, TaskId(9));
        // Same type, deadline 150 past the primary's: inside the window.
        assert_eq!(
            gate.admit(&task(2, 5, 10, 1_150)),
            Some((2, TaskId(9), true))
        );
        // Deadline *before* the primary's: the primary might finish too
        // late for this follower — no merge.
        assert_eq!(gate.admit(&task(3, 5, 20, 900)), None);
        // Outside the window.
        assert_eq!(gate.admit(&task(4, 5, 30, 1_500)), None);
        // Different type never merges.
        assert_eq!(gate.admit(&task(5, 6, 40, 1_100)), None);
    }

    #[test]
    fn merge_prefers_latest_in_window_primary() {
        let mut gate = ReuseGate::new(ReusePolicy::merge(SimTime(1_000)));
        let a = task(1, 0, 0, 500);
        let b = task(2, 0, 0, 800);
        gate.admit(&a);
        gate.register(&a, 0, TaskId(0));
        gate.admit(&b);
        gate.register(&b, 1, TaskId(0));
        // Both are in-window for deadline 900; the latest-deadline
        // primary (b, shard 1) wins.
        assert_eq!(
            gate.admit(&task(3, 0, 10, 900)),
            Some((1, TaskId(0), true))
        );
    }

    #[test]
    fn evict_shard_removes_its_primaries_only() {
        let mut gate = ReuseGate::new(ReusePolicy::merge(SimTime(500)));
        let a = task(1, 0, 0, 1_000);
        let b = task(2, 0, 0, 1_100);
        gate.register(&a, 0, TaskId(0));
        gate.register(&b, 1, TaskId(0));
        gate.evict_shard(0);
        // a's primary is gone; b still absorbs.
        assert_eq!(gate.admit(&task(1, 0, 5, 1_000)), None);
        // (the miss registered nothing — explicit re-probe of b)
        assert_eq!(
            gate.admit(&task(2, 0, 6, 1_100)),
            Some((1, TaskId(0), false))
        );
    }

    #[test]
    fn inflight_budget_evicts_oldest_primary_first() {
        let policy = ReusePolicy::ExactOnly.with_max_inflight(2);
        let mut gate = ReuseGate::new(policy);
        let (a, b, c) = (
            task(1, 0, 0, 1_000),
            task(2, 0, 1, 1_000),
            task(3, 0, 2, 1_000),
        );
        gate.register(&a, 0, TaskId(0));
        gate.register(&b, 0, TaskId(1));
        // Third registration exceeds the budget: the oldest (a) goes.
        gate.register(&c, 0, TaskId(2));
        assert_eq!(gate.len(), 2);
        assert_eq!(gate.admit(&task(1, 0, 3, 1_000)), None);
        assert_eq!(
            gate.admit(&task(2, 0, 4, 1_000)),
            Some((0, TaskId(1), false))
        );
        assert_eq!(
            gate.admit(&task(3, 0, 5, 1_000)),
            Some((0, TaskId(2), false))
        );
    }

    #[test]
    fn reregistration_refreshes_eviction_order() {
        let policy = ReusePolicy::ExactOnly.with_max_inflight(2);
        let mut gate = ReuseGate::new(policy);
        let (a, b, c) = (
            task(1, 0, 0, 1_000),
            task(2, 0, 1, 1_000),
            task(3, 0, 2, 1_000),
        );
        gate.register(&a, 0, TaskId(0));
        gate.register(&b, 0, TaskId(1));
        // Re-registering a's key makes it the *newest* primary, so the
        // budget overflow now evicts b instead.
        gate.register(&a, 1, TaskId(5));
        gate.register(&c, 0, TaskId(2));
        assert_eq!(gate.admit(&task(2, 0, 4, 1_000)), None);
        assert_eq!(
            gate.admit(&task(1, 0, 5, 1_000)),
            Some((1, TaskId(5), false))
        );
    }

    #[test]
    fn unreached_budget_is_byte_identical_to_unbudgeted() {
        let mut capped = ReuseGate::new(
            ReusePolicy::merge(SimTime(300)).with_max_inflight(8),
        );
        let mut free = ReuseGate::new(ReusePolicy::merge(SimTime(300)));
        for i in 0..5u64 {
            let t = task(i, (i % 2) as u16, i, 1_000 + i);
            capped.admit(&t);
            capped.register(&t, 0, TaskId(i));
            free.admit(&t);
            free.register(&t, 0, TaskId(i));
        }
        // Five live primaries never reach the budget of eight, so the
        // serialized gate state is identical byte for byte.
        assert_eq!(
            serde_json::to_string(&capped.state_value()).unwrap(),
            serde_json::to_string(&free.state_value()).unwrap(),
        );
    }

    #[test]
    fn budget_survives_state_roundtrip() {
        let policy = ReusePolicy::ExactOnly.with_max_inflight(2);
        let mut gate = ReuseGate::new(policy);
        let (a, b) = (task(1, 0, 0, 1_000), task(2, 0, 1, 1_000));
        gate.register(&a, 0, TaskId(0));
        gate.register(&b, 0, TaskId(1));
        let state = gate.state_value();

        let mut back = ReuseGate::new(policy);
        back.restore_value(&state).expect("state restores");
        // The restored gate kept registration order: overflowing the
        // budget still evicts a (the oldest), not b.
        back.register(&task(3, 0, 2, 1_000), 0, TaskId(2));
        assert_eq!(back.admit(&task(1, 0, 3, 1_000)), None);
        assert_eq!(
            back.admit(&task(2, 0, 4, 1_000)),
            Some((0, TaskId(1), false))
        );
    }

    #[test]
    fn gate_state_roundtrips_and_rebuilds_class_index() {
        let mut gate = ReuseGate::new(ReusePolicy::merge(SimTime(300)));
        let a = task(1, 0, 50, 1_000);
        gate.admit(&a);
        gate.register(&a, 0, TaskId(3));
        let state = gate.state_value();

        let mut back = ReuseGate::new(ReusePolicy::merge(SimTime(300)));
        back.restore_value(&state).expect("state restores");
        assert_eq!(back.watermark, SimTime(50));
        // Restored state re-serializes to the same canonical bytes
        // (before any admission advances the watermark).
        assert_eq!(
            serde_json::to_string(&state),
            serde_json::to_string(&back.state_value())
        );
        assert_eq!(
            back.admit(&task(1, 0, 60, 1_000)),
            Some((0, TaskId(3), false))
        );
        // The rebuilt class index still serves window merges.
        assert_eq!(
            back.admit(&task(9, 0, 70, 1_200)),
            Some((0, TaskId(3), true))
        );
    }

    #[test]
    fn ledger_tracks_followers_and_counters() {
        let mut ledger = ReuseLedger::new();
        ledger.set_active(true);
        assert!(ledger.is_active());
        ledger.note_hit(false);
        ledger.note_hit(true);
        ledger.add_follower(TaskId(5), task(10, 0, 0, 100));
        ledger.add_follower(TaskId(5), task(11, 0, 1, 120));
        assert_eq!(ledger.take_followers(TaskId(4)), None);
        let fs = ledger.take_followers(TaskId(5)).expect("two followers");
        assert_eq!(fs.len(), 2);
        assert_eq!(ledger.take_followers(TaskId(5)), None);
        ledger.record_exec(TaskId(5), 250);
        assert_eq!(ledger.exec_ticks(TaskId(5)), 250);
        assert_eq!(ledger.exec_ticks(TaskId(6)), 0);
        ledger.add_saved(250);
        assert_eq!(
            *ledger.stats(),
            ReuseStats {
                hits: 1,
                merges: 1,
                cycles_saved: 250
            }
        );
        assert_eq!(ledger.stats().absorbed(), 2);
        ledger.clear();
        assert_eq!(*ledger.stats(), ReuseStats::default());
        assert!(ledger.is_active(), "clear keeps the activation flag");
    }

    #[test]
    fn ledger_state_roundtrips_canonically() {
        let mut ledger = ReuseLedger::new();
        ledger.set_active(true);
        ledger.add_follower(TaskId(9), task(20, 1, 5, 300));
        ledger.add_follower(TaskId(2), task(21, 1, 6, 310));
        ledger.record_exec(TaskId(1), 77);
        ledger.note_hit(false);
        let state = ledger.state_value();

        let mut back = ReuseLedger::new();
        back.set_active(true);
        back.restore_value(&state).expect("ledger restores");
        assert_eq!(back.exec_ticks(TaskId(1)), 77);
        assert_eq!(back.stats().hits, 1);
        // Drain order is canonical: primary 2 before primary 9.
        let drained = back.drain_remaining();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, TaskId(21));
        assert_eq!(drained[1].id, TaskId(20));
        assert_eq!(
            serde_json::to_string(&state),
            serde_json::to_string(&ledger.state_value())
        );
    }

    #[test]
    fn inactive_ledger_skips_exec_recording() {
        let mut ledger = ReuseLedger::new();
        ledger.record_exec(TaskId(0), 99);
        assert_eq!(ledger.exec_ticks(TaskId(0)), 0);
        assert!(ledger.drain_remaining().is_empty());
    }
}
