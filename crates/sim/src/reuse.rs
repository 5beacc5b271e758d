//! Content-keyed function reuse: exact-duplicate piggybacking at the
//! federation gateway.
//!
//! Oversubscribed serverless platforms see the *same* request many
//! times — the multimedia workloads behind the paper's evaluation are
//! full of identical Group-Of-Pictures transcodes — and the gateway is
//! the one place that observes every arrival before any machine-queue
//! commitment. This module turns that vantage point into a reuse
//! cache (arXiv:2104.04474): an exact duplicate (same *content key*)
//! piggybacks on the in-flight primary instance. The follower never
//! enters a queue, and the primary's single completion fans out to
//! every follower, each judged against its *own* deadline. Distinct
//! requests never share an execution.
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

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use taskprune_model::{SimTime, Task, TaskId};

/// Whether the gateway absorbs exact duplicates onto their in-flight
/// primaries. Configured via [`crate::GatewayBuilder::reuse`]; the
/// default is [`ReusePolicy::Off`], which is bit-identical to a
/// gateway without the subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReusePolicy {
    /// No reuse: every arrival routes and executes individually.
    #[default]
    Off,
    /// Exact content-key duplicates piggyback on their in-flight
    /// primary; distinct requests never coalesce.
    ExactOnly,
}

impl ReusePolicy {
    /// Whether any reuse happens under this policy.
    pub fn is_enabled(self) -> bool {
        self != ReusePolicy::Off
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
            | Admission::Piggybacked { shard, .. } => shard,
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
            | Admission::Piggybacked { internal, .. } => internal,
            Admission::Shed { .. } => {
                panic!("shed admission has no internal id")
            }
        }
    }

    /// Whether the task was absorbed by a primary instead of routing.
    pub fn is_absorbed(&self) -> bool {
        matches!(self, Admission::Piggybacked { .. })
    }

    /// Whether the tenant admission layer shed the task.
    pub fn is_shed(&self) -> bool {
        matches!(self, Admission::Shed { .. })
    }
}

/// Reuse outcome counters, aggregated per shard and fanned into
/// [`crate::FederationStats`]. Kept **off** the stats wire shape (the
/// same convention as the recovery log) so serialized stats stay
/// bit-identical across reuse configurations. They saturate, since a
/// restored checkpoint may carry any count.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize,
)]
pub struct ReuseStats {
    /// Exact content-key duplicates absorbed onto a primary.
    pub hits: u64,
    /// Machine-ticks of execution the absorbed followers did **not**
    /// consume: the primary's measured execution time, once per
    /// resolved follower.
    pub cycles_saved: u64,
}

impl ReuseStats {
    /// Total followers absorbed: the exact hits.
    pub fn absorbed(&self) -> u64 {
        self.hits
    }

    /// Adds another shard's counters into this one.
    pub(crate) fn accumulate(&mut self, other: &ReuseStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.cycles_saved =
            self.cycles_saved.saturating_add(other.cycles_saved);
    }
}

/// One in-flight primary the gate can absorb followers onto.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GateEntry {
    shard: usize,
    internal: u64,
    deadline: SimTime,
}

/// The coordinator-side reuse cache: maps live content keys to their
/// in-flight primary. Owned by [`crate::Gateway`]; consulted once per
/// arrival in global arrival order, which is what keeps its decisions
/// identical across the serial and parallel drivers.
///
/// The cache holds only primaries whose deadline is at or after the
/// arrival watermark: every admission sweeps the expired ones off the
/// front of a deadline-ordered index, so its size follows the live
/// working set rather than the length of the run. An expired primary
/// can no longer complete on time, so the gate never returns one.
#[derive(Debug)]
pub(crate) struct ReuseGate {
    policy: ReusePolicy,
    /// Live primaries by content key `(external id, task type)`.
    cache: HashMap<(u64, u16), GateEntry>,
    /// Expiry index `(deadline ticks, external id, task type)`, one
    /// tuple per cache entry.
    expiry: BTreeSet<(u64, u64, u16)>,
    /// Running max of admitted arrival instants. Advancing it off
    /// arrivals only — never shard clocks — is what keeps admission
    /// deterministic under the barrier-free stateless parallel
    /// schedule, which routes far ahead of execution.
    watermark: SimTime,
}

impl ReuseGate {
    pub(crate) fn new(policy: ReusePolicy) -> Self {
        Self {
            policy,
            cache: HashMap::new(),
            expiry: BTreeSet::new(),
            watermark: SimTime::ZERO,
        }
    }

    pub(crate) fn policy(&self) -> ReusePolicy {
        self.policy
    }

    /// Decides whether `task` (external ids) is an exact duplicate of
    /// an in-flight primary. Returns `(primary shard, primary internal
    /// id)` on a hit. Advances the arrival watermark and sweeps the
    /// expired primaries as a side effect, so callers must consult the
    /// gate for **every** arrival, in global arrival order.
    pub(crate) fn admit(&mut self, task: &Task) -> Option<(usize, TaskId)> {
        if !self.policy.is_enabled() {
            return None;
        }
        if task.arrival > self.watermark {
            self.watermark = task.arrival;
        }
        let wm = self.watermark.ticks();
        while let Some(&(deadline, ext, ty)) = self.expiry.first() {
            if deadline >= wm {
                break;
            }
            self.expiry.pop_first();
            self.remove_entry((ext, ty));
        }
        self.cache
            .get(&(task.id.0, task.type_id.0))
            .map(|entry| (entry.shard, TaskId(entry.internal)))
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
        let entry = GateEntry {
            shard,
            internal: internal.0,
            deadline: task.deadline,
        };
        self.insert_entry((task.id.0, task.type_id.0), entry);
    }

    /// Drops every primary living on `shard`. Called when the shard is
    /// quarantined: its in-flight work will never complete, so nothing
    /// may piggyback onto it from here on.
    pub(crate) fn evict_shard(&mut self, shard: usize) {
        let dead: Vec<(u64, u16)> = self
            .cache
            .iter()
            .filter(|(_, e)| e.shard == shard)
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            self.remove_entry(key);
        }
    }

    /// Inserts one cache entry plus its expiry mirror, replacing any
    /// entry under the same key.
    fn insert_entry(&mut self, key: (u64, u16), entry: GateEntry) {
        self.remove_entry(key);
        self.cache.insert(key, entry);
        self.expiry.insert((entry.deadline.ticks(), key.0, key.1));
    }

    /// Removes one cache entry and its expiry mirror.
    fn remove_entry(&mut self, (ext, ty): (u64, u16)) {
        if let Some(e) = self.cache.remove(&(ext, ty)) {
            self.expiry.remove(&(e.deadline.ticks(), ext, ty));
        }
    }

    /// The gate's durable state (watermark + live cache) in canonical
    /// content-key order, so two replicas that admitted the same
    /// stream seal the same bytes. The expiry index is derived state
    /// and is rebuilt on restore.
    pub(crate) fn state(&self) -> GateState {
        let mut cache: Vec<WireEntry> = self
            .cache
            .iter()
            .map(|(&(ext, ty), e)| WireEntry {
                ext,
                ty,
                shard: e.shard,
                internal: e.internal,
                deadline: e.deadline,
            })
            .collect();
        cache.sort_by_key(|w| (w.ext, w.ty));
        GateState {
            watermark: self.watermark,
            cache,
        }
    }

    /// Installs state captured by [`ReuseGate::state`], rebuilding the
    /// expiry index. Entries already behind the watermark restore as
    /// captured; the next admission sweeps them.
    pub(crate) fn restore(&mut self, state: GateState) {
        self.cache.clear();
        self.expiry.clear();
        self.watermark = state.watermark;
        for w in state.cache {
            let entry = GateEntry {
                shard: w.shard,
                internal: w.internal,
                deadline: w.deadline,
            };
            self.insert_entry((w.ext, w.ty), entry);
        }
    }
}

/// The gate's wire form: the arrival watermark and the live cache.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct GateState {
    watermark: SimTime,
    cache: Vec<WireEntry>,
}

impl GateState {
    /// Whether every primary lives on one of `n_shards` shards.
    pub(crate) fn fits(&self, n_shards: usize) -> bool {
        self.cache.iter().all(|w| w.shard < n_shards)
    }
}

/// One cache entry on the wire: the content key and its primary.
#[derive(Debug, Serialize, Deserialize)]
struct WireEntry {
    ext: u64,
    ty: u16,
    shard: usize,
    internal: u64,
    deadline: SimTime,
}

/// A completed primary's measured execution time and its deadline.
#[derive(Debug, Clone, Copy)]
struct CompletedExec {
    ticks: u64,
    deadline: SimTime,
}

/// Shard-local follower ledger: which followers ride on which primary,
/// plus the measured execution times of resolved primaries (so a
/// follower arriving *after* its primary completed still knows how
/// many cycles it saved). Owned by [`crate::SchedulerCore`]; resolved
/// at the primary's single terminal outcome.
///
/// A capture sweeps the completed primaries due before the core's
/// arrival watermark (the latest arrival instant delivered to it), so
/// the table follows the live working set, not the length of the run
/// (the twin of the gate's expiry sweep). The sweep changes no
/// decision: a follower reaches a completed primary only through the
/// gate, which holds no primary due before its own watermark, and the
/// gate's watermark — every admitted arrival, federation-wide — is
/// never behind this core's. The core clock is not a safe bound: a
/// task delivered late arrives at the clock, which can therefore run
/// ahead of both watermarks.
#[derive(Debug)]
pub(crate) struct ReuseLedger {
    /// Whether this core participates in reuse at all. When false the
    /// ledger never allocates and every probe is a cheap early-out,
    /// keeping [`ReusePolicy::Off`] bit-identical *and* cost-identical
    /// to the pre-reuse core.
    active: bool,
    /// Primary internal id → followers in absorption order.
    followers: HashMap<u64, Vec<Task>>,
    /// Primary internal id → measured execution ticks and deadline,
    /// recorded only while active (late followers price their savings
    /// from this). Behind a `RefCell` because a capture, which takes
    /// the core by shared reference, sweeps it; every other access
    /// goes through `get_mut`, which costs nothing.
    completed_exec: RefCell<HashMap<u64, CompletedExec>>,
    stats: ReuseStats,
}

impl ReuseLedger {
    pub(crate) fn new() -> Self {
        Self {
            active: false,
            followers: HashMap::new(),
            completed_exec: RefCell::new(HashMap::new()),
            stats: ReuseStats::default(),
        }
    }

    pub(crate) fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Counts one absorbed follower.
    pub(crate) fn note_hit(&mut self) {
        self.stats.hits = self.stats.hits.saturating_add(1);
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

    /// Records a completed primary's measured execution time (and its
    /// deadline, which bounds how long a follower can still reach it)
    /// for late-arriving followers.
    pub(crate) fn record_exec(
        &mut self,
        primary: TaskId,
        ticks: u64,
        deadline: SimTime,
    ) {
        if self.active {
            self.completed_exec
                .get_mut()
                .insert(primary.0, CompletedExec { ticks, deadline });
        }
    }

    /// Execution ticks a follower of this completed primary saves.
    pub(crate) fn exec_ticks(&mut self, primary: TaskId) -> u64 {
        self.completed_exec
            .get_mut()
            .get(&primary.0)
            .map_or(0, |e| e.ticks)
    }

    /// Adds saved machine time to the counters.
    pub(crate) fn add_saved(&mut self, ticks: u64) {
        self.stats.cycles_saved = self.stats.cycles_saved.saturating_add(ticks);
    }

    pub(crate) fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Forgets everything except the activation flag — the crash-wipe
    /// companion: journal replay re-applies every piggyback and
    /// rebuilds the ledger exactly.
    pub(crate) fn clear(&mut self) {
        self.followers.clear();
        self.completed_exec.get_mut().clear();
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

    /// Sweeps the completed primaries due before `watermark` — the
    /// capturing core's arrival watermark (see the type docs) — then
    /// overwrites `out` with the ledger, in hash order, reusing its
    /// tables and each follower list's buffer. What a capture holds is
    /// therefore a pure function of the core's state, whenever earlier
    /// captures ran.
    pub(crate) fn capture(&self, watermark: SimTime, out: &mut LedgerState) {
        let mut completed_exec = self.completed_exec.borrow_mut();
        completed_exec.retain(|_, e| e.deadline >= watermark);
        out.followers
            .resize_with(self.followers.len(), Followers::default);
        for (slot, (&primary, tasks)) in
            out.followers.iter_mut().zip(&self.followers)
        {
            slot.primary = primary;
            slot.tasks.clone_from(tasks);
        }
        out.completed_exec.clear();
        out.completed_exec.extend(completed_exec.iter().map(
            |(&primary, e)| Completed {
                primary,
                ticks: e.ticks,
                deadline: e.deadline,
            },
        ));
        out.stats = self.stats;
    }

    /// Installs state captured by [`ReuseLedger::capture`]. The
    /// activation flag is construction-time configuration and is left
    /// untouched.
    pub(crate) fn restore(&mut self, state: LedgerState) {
        self.followers = state
            .followers
            .into_iter()
            .map(|f| (f.primary, f.tasks))
            .collect();
        *self.completed_exec.get_mut() = state
            .completed_exec
            .into_iter()
            .map(|c| {
                let exec = CompletedExec {
                    ticks: c.ticks,
                    deadline: c.deadline,
                };
                (c.primary, exec)
            })
            .collect();
        self.stats = state.stats;
    }
}

/// A ledger's durable state, copied out by [`ReuseLedger::capture`]
/// after its sweep, in hash order; [`LedgerState::canonical`] puts it
/// in the primary-id order a checkpoint payload carries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct LedgerState {
    followers: Vec<Followers>,
    completed_exec: Vec<Completed>,
    stats: ReuseStats,
}

/// The followers parked on one primary, in absorption order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Followers {
    primary: u64,
    tasks: Vec<Task>,
}

/// One completed primary a late follower can still reach.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Completed {
    primary: u64,
    ticks: u64,
    deadline: SimTime,
}

impl LedgerState {
    /// The state in canonical primary-id order: the tables are copied
    /// in hash order and sorted only when a checkpoint is sealed.
    pub(crate) fn canonical(&self) -> LedgerState {
        let mut state = self.clone();
        state.followers.sort_unstable_by_key(|f| f.primary);
        state.completed_exec.sort_unstable_by_key(|c| c.primary);
        state
    }

    /// Every follower parked on an in-flight primary.
    pub(crate) fn parked(&self) -> impl Iterator<Item = &Task> {
        self.followers.iter().flat_map(|f| &f.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
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
        assert_eq!(gate.cache.len(), 0);
        assert_eq!(gate.admit(&task(1, 0, 5, 100)), None);
    }

    #[test]
    fn exact_duplicate_piggybacks_on_registered_primary() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        let t = task(7, 2, 0, 1_000);
        assert_eq!(gate.admit(&t), None);
        gate.register(&t, 3, TaskId(41));
        // Same content key → absorbed onto shard 3 / internal 41.
        assert_eq!(gate.admit(&task(7, 2, 10, 900)), Some((3, TaskId(41))));
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
        assert_eq!(gate.cache.len(), 0);
    }

    #[test]
    fn exact_gate_holds_only_live_primaries() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        // 10 000 unique keys, each primary's deadline five ticks after
        // its arrival, so every one but the newest falls behind the
        // watermark of the arrivals that follow it.
        for i in 0..10_000u64 {
            let t = task(i, 0, i * 10, i * 10 + 5);
            assert_eq!(gate.admit(&t), None);
            gate.register(&t, 0, TaskId(i));
        }
        assert_eq!(gate.cache.len(), 1);
        assert!(gate.cache.values().all(|e| e.deadline >= gate.watermark));
        // The newest primary is live and still absorbs its duplicate.
        assert_eq!(
            gate.admit(&task(9_999, 0, 99_991, 99_999)),
            Some((0, TaskId(9_999)))
        );
    }

    /// A gate state decoded from its wire form, with one entry per
    /// `(external id, deadline)`, all on shard 1.
    fn gate_state(watermark: u64, entries: &[(u64, u64)]) -> GateState {
        let entry = |&(ext, deadline): &(u64, u64)| {
            Value::Object(vec![
                ("ext".to_owned(), Value::UInt(ext)),
                ("ty".to_owned(), Value::UInt(0)),
                ("shard".to_owned(), Value::UInt(1)),
                ("internal".to_owned(), Value::UInt(ext + 10)),
                ("deadline".to_owned(), Value::UInt(deadline)),
            ])
        };
        GateState::from_value(&Value::Object(vec![
            ("watermark".to_owned(), Value::UInt(watermark)),
            (
                "cache".to_owned(),
                Value::Array(entries.iter().map(entry).collect()),
            ),
        ]))
        .expect("the gate state decodes")
    }

    #[test]
    fn capture_with_expired_entries_restores_then_sweeps() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        // Two entries already behind the watermark, one live.
        gate.restore(gate_state(500, &[(1, 100), (2, 400), (3, 900)]));
        assert_eq!(gate.cache.len(), 3);
        // The next admission sweeps both expired primaries: a
        // duplicate of the one due at 400 no longer finds it.
        assert_eq!(gate.admit(&task(2, 0, 600, 420)), None);
        assert_eq!(gate.cache.len(), 1);
        assert_eq!(gate.expiry.len(), 1);
        assert_eq!(gate.admit(&task(3, 0, 610, 950)), Some((1, TaskId(13))));
        assert!(gate_state(0, &[(1, 100)]).fits(2));
        assert!(!gate_state(0, &[(1, 100)]).fits(1));
    }

    #[test]
    fn evict_shard_removes_its_primaries_only() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        let a = task(1, 0, 0, 1_000);
        let b = task(2, 0, 0, 1_100);
        gate.register(&a, 0, TaskId(0));
        gate.register(&b, 1, TaskId(0));
        gate.evict_shard(0);
        // a's primary is gone; b still absorbs.
        assert_eq!(gate.admit(&task(1, 0, 5, 1_000)), None);
        // (the miss registered nothing — explicit re-probe of b)
        assert_eq!(gate.admit(&task(2, 0, 6, 1_100)), Some((1, TaskId(0))));
    }

    #[test]
    fn gate_state_roundtrips_and_rebuilds_its_expiry_index() {
        let mut gate = ReuseGate::new(ReusePolicy::ExactOnly);
        let a = task(1, 0, 50, 1_000);
        gate.admit(&a);
        gate.register(&a, 0, TaskId(3));
        let wire = gate.state().to_value();

        let mut back = ReuseGate::new(ReusePolicy::ExactOnly);
        back.restore(GateState::from_value(&wire).expect("state decodes"));
        assert_eq!(back.watermark, SimTime(50));
        // Restored state re-serializes to the same canonical bytes
        // (before any admission advances the watermark).
        assert_eq!(back.state().to_value(), wire);
        assert_eq!(back.admit(&task(1, 0, 60, 1_000)), Some((0, TaskId(3))));
        // The rebuilt expiry index still sweeps the primary once an
        // arrival passes its deadline.
        assert_eq!(back.expiry.len(), 1);
        assert_eq!(back.admit(&task(1, 0, 1_001, 1_200)), None);
        assert!(back.cache.is_empty() && back.expiry.is_empty());
    }

    #[test]
    fn ledger_tracks_followers_and_counters() {
        let mut ledger = ReuseLedger::new();
        ledger.set_active(true);
        assert!(ledger.is_active());
        ledger.note_hit();
        ledger.note_hit();
        ledger.add_follower(TaskId(5), task(10, 0, 0, 100));
        ledger.add_follower(TaskId(5), task(11, 0, 1, 120));
        assert_eq!(ledger.take_followers(TaskId(4)), None);
        let fs = ledger.take_followers(TaskId(5)).expect("two followers");
        assert_eq!(fs.len(), 2);
        assert_eq!(ledger.take_followers(TaskId(5)), None);
        ledger.record_exec(TaskId(5), 250, SimTime(100));
        assert_eq!(ledger.exec_ticks(TaskId(5)), 250);
        assert_eq!(ledger.exec_ticks(TaskId(6)), 0);
        ledger.add_saved(250);
        assert_eq!(
            *ledger.stats(),
            ReuseStats {
                hits: 2,
                cycles_saved: 250
            }
        );
        assert_eq!(ledger.stats().absorbed(), 2);
        ledger.clear();
        assert_eq!(*ledger.stats(), ReuseStats::default());
        assert!(ledger.is_active(), "clear keeps the activation flag");
    }

    fn captured(ledger: &ReuseLedger, watermark: SimTime) -> LedgerState {
        let mut out = LedgerState::default();
        ledger.capture(watermark, &mut out);
        out
    }

    #[test]
    fn ledger_state_roundtrips_canonically() {
        let mut ledger = ReuseLedger::new();
        ledger.set_active(true);
        ledger.add_follower(TaskId(9), task(20, 1, 5, 300));
        ledger.add_follower(TaskId(2), task(21, 1, 6, 310));
        ledger.record_exec(TaskId(1), 77, SimTime(400));
        ledger.note_hit();
        let wire = captured(&ledger, SimTime(6)).canonical().to_value();
        let text = serde_json::to_string(&wire).unwrap();
        assert!(
            text.find("\"primary\":2").unwrap()
                < text.find("\"primary\":9").unwrap(),
            "{text}"
        );

        let mut back = ReuseLedger::new();
        back.set_active(true);
        back.restore(LedgerState::from_value(&wire).expect("decodes"));
        assert_eq!(back.exec_ticks(TaskId(1)), 77);
        assert_eq!(back.stats().hits, 1);
        assert_eq!(captured(&back, SimTime(6)).canonical().to_value(), wire);
        // Drain order is canonical: primary 2 before primary 9.
        let drained = back.drain_remaining();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, TaskId(21));
        assert_eq!(drained[1].id, TaskId(20));
    }

    #[test]
    fn capture_sweeps_completed_primaries_due_before_the_watermark() {
        let mut ledger = ReuseLedger::new();
        ledger.set_active(true);
        for (id, deadline) in [(1, 90), (2, 100), (3, 250)] {
            ledger.record_exec(TaskId(id), 10 * id, SimTime(deadline));
        }
        let state = captured(&ledger, SimTime(100));
        // Due at the watermark is still live; due before it is gone,
        // from the capture and from the ledger.
        assert_eq!(ledger.completed_exec.get_mut().len(), 2);
        assert_eq!(ledger.exec_ticks(TaskId(1)), 0);
        assert_eq!(ledger.exec_ticks(TaskId(2)), 20);
        let mut back = ReuseLedger::new();
        back.set_active(true);
        back.restore(state);
        assert_eq!(back.exec_ticks(TaskId(3)), 30);
        assert_eq!(back.completed_exec.get_mut().len(), 2);
    }

    #[test]
    fn inactive_ledger_skips_exec_recording() {
        let mut ledger = ReuseLedger::new();
        ledger.record_exec(TaskId(0), 99, SimTime(100));
        assert_eq!(ledger.exec_ticks(TaskId(0)), 0);
        assert!(ledger.drain_remaining().is_empty());
    }
}
