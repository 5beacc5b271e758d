//! Per-machine FCFS queues with probabilistic completion-time tracking.
//!
//! Each machine holds at most one *running* task (non-preemptive, §II)
//! and a bounded FCFS queue of *waiting* tasks. Alongside the plain
//! queue, the estimator state implements Eq. 1 incrementally:
//!
//! * `chain[i]` is the convolution of the PETs of the first `i`
//!   waiting tasks (a *relative duration* distribution);
//! * the *base* is the absolute-time completion distribution of the
//!   running task, conditioned on it not having finished yet (or a point
//!   mass at `now` for an idle machine);
//! * the PCT of waiting task `i` is `base ∗ chain[i] ∗ PET(i)`, and
//!   its chance of success (Eq. 2) is evaluated as a double dot product
//!   without materialising that convolution.
//!
//! # Incremental maintenance and the convolution arena
//!
//! Chains are maintained *lazily*: structural mutations (admitting,
//! popping the head for execution, reactive or proactive drops) never
//! re-convolve anything — they only record the first chain position the
//! mutation invalidated. The next estimate query repairs the chain from
//! that position, reusing each slot's existing window allocation via
//! `convolve_into`/`to_cdf_into` and one [`ConvScratch`] per queue (FFT
//! buffers + cached twiddle plans). Consequences:
//!
//! * a proactive drop at queue position `k` costs `len − k` tail
//!   convolutions instead of a full O(len) rebuild — the prefixes ahead
//!   of the drop are reused as-is;
//! * back-to-back mutations inside one mapping event (reactive drops,
//!   then a pop, then proactive drops) coalesce into a *single* suffix
//!   repair at the first query instead of one full rebuild each;
//! * admitting into a clean chain is exactly one tail convolution, so
//!   the common arrival path stays O(1);
//! * steady-state mapping events perform no heap allocation in the
//!   estimator: chain slots, CDF views, the base distribution, and the
//!   drop-planning walk all reuse arena buffers.
//!
//! Deconvolution is deliberately avoided: removing a PET from a
//! truncated convolution is numerically ill-posed (the horizon lumps
//! tail mass irreversibly), so invalidated suffixes are re-convolved
//! forward. Because the repair performs the exact same
//! convolve-then-truncate operations, in the same order, on the same
//! operands as a from-scratch rebuild, the incremental chains are
//! **bit-identical** to rebuilt ones — `queue_fuzz` pins that
//! equivalence and the golden/determinism suites depend on it.
//!
//! Chains are truncated at a configurable horizon: probability mass that
//! far in the future can never contribute to an on-time completion, so
//! success queries stay exact (see `taskprune-prob`'s tail-mass
//! semantics).
//!
//! # The Eq. 2 pricing memo
//!
//! Eq. 2 for a task appended now is Σₓ pet(x)·G(d − x), where
//! G(r) = Σₐ base(a)·chain_cdf(r − a) depends on the queue and the
//! now-bin but not on the task, and the batch deferral loop prices many
//! proposals against one unchanged queue. So
//! [`MachineQueue::chance_if_appended`] keeps the base and a lazily
//! filled table of G keyed by the now-bin, and sums the PET against it:
//! every chance is bit-identical to the direct sum. Below the table G is
//! 0; above it every term is the chain's window mass, so G reads the top
//! entry.
//!
//! # The Eq. 2 kernels
//!
//! Three slice kernels evaluate Eq. 2. Each visits only the terms that
//! can be nonzero, in the plain sum's ascending order:
//!
//! * the inner sum G(r) walks the base window in two runs. Bins whose
//!   chain term lies past the chain CDF's window read its flat top
//!   (`window_mass`); the next bins index the cumulative window. The
//!   walk stops at the first bin whose chain term falls below the
//!   window, so it never reaches a base bin past r either;
//! * the outer sum of [`chance_of_success`] (the Steps 4–6 drop walk)
//!   stops at the last PET bin whose inner sum can be nonzero: the
//!   deadline bin less the first bins of the base and the chain. It
//!   skips zero PET bins, each of which would cost an inner sum;
//! * Step 10 pricing sums the PET against the memo's table in one pass.
//!   It skips the PET bins whose G falls below the table, reads the top
//!   entry once for the bins at or above it, and indexes the rest
//!   directly.
//!
//! Every skipped term is exactly 0: a CDF below its window is 0, G below
//! its table is 0, and a zero bin is 0. Probabilities are finite and
//! non-negative, so such a term is a zero product, and adding a zero to
//! a sum that starts at +0.0 and never falls leaves its bits unchanged.
//! Every kept product is added in the same order as before, and the
//! flat-top run adds `p · window_mass` bin by bin, never
//! `window_mass · Σp`, which rounds differently. So each chance, and
//! each decision taken on it, is bit-identical to the per-term sums,
//! which the tests keep as a reference and compare by `to_bits`.
//!
//! # The expected-ready memo
//!
//! [`MachineQueue::expected_ready_ticks`] walks the waiting list, and the
//! batch mappers read it for every machine on every Step 7 round, most of
//! them on queues the previous round left alone. So the queue keeps the
//! last answer with the `now` it was asked for, in a `Cell` beside the
//! running task and the waiting list rather than in the chain cache: a
//! lookup then touches no memory the walk would not.
//!
//! **Invariant:** every `&mut self` method that changes the running task
//! or the waiting list forgets both memos (the G table and the expected
//! ready time) in O(1), through the queue's `touch` or, when the chain
//! changed too, `invalidate_from`. Table entries carry a fill stamp and
//! are never cleared, so the memos always describe the queue as it is.
//! Like the chains, they assume one PET matrix per queue: neither is
//! keyed by the matrix.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use taskprune_model::{
    BinSpec, Machine, MachineTypeId, PetMatrix, SimTime, Task, TaskId,
};
use taskprune_prob::{convolve_into, Bin, Cdf, ConvScratch, Pmf};

/// The task currently executing on a machine.
///
/// Deliberately carries no finish time: when the task completes is the
/// *caller's* knowledge (a sampled duration in the simulation driver, a
/// worker callback in a live deployment), and estimators must never see
/// it — they reason only from the PET and `start`.
#[derive(Debug, Clone, Copy)]
pub struct RunningTask {
    /// The task itself.
    pub task: Task,
    /// When it started executing.
    pub start: SimTime,
}

/// A machine queue's durable state, copied out by
/// [`MachineQueue::capture`]: the start generation, the running task
/// with its start instant, and the waiting list. A core checkpoint
/// carries one per machine. The machine identity, capacity and horizon
/// are construction-time configuration and are not captured, and the
/// Eq. 1 chain cache and convolution arena are rebuilt lazily after
/// [`MachineQueue::restore`], bit-identically (the incremental-chain
/// equivalence contract).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct QueueCapture {
    generation: u64,
    pub(crate) running: Option<(Task, SimTime)>,
    pub(crate) waiting: VecDeque<Task>,
}

/// The lazily-repaired prefix-chain cache plus the per-queue convolution
/// arena. Interior-mutable so estimate queries on `&MachineQueue` can
/// repair the chain in place.
#[derive(Debug, Clone)]
struct ChainCache {
    /// Slot `i` = PET(w₀) ∗ … ∗ PET(w_{i−1}); slot 0 = δ(0). Physical
    /// length may exceed the live chain: slots past the current queue
    /// length are spare buffers whose allocations get reused.
    pmfs: Vec<Pmf>,
    /// Cumulative views of `pmfs`, kept in lock-step.
    cdfs: Vec<Cdf>,
    /// Number of leading slots that are valid for the current waiting
    /// list. Always ≥ 1: slot 0 is constant.
    valid: usize,
    /// FFT buffers and cached twiddle plans for `convolve_into`.
    scratch: ConvScratch,
    /// Rotating live-chain buffers for the `plan_drops` walk.
    walk_pmf: Pmf,
    walk_next: Pmf,
    walk_cdf: Cdf,
    /// Base buffer dedicated to the `plan_drops` walk, separate from
    /// `base` so re-entrant chance queries from a `decide` callback
    /// cannot clobber the walk's base distribution.
    walk_base: Pmf,
    /// Guards the walk buffers: a nested `plan_drops` on the same queue
    /// would silently corrupt them, so it fails loudly instead.
    walk_active: bool,
    /// The base (machine-ready-time) distribution the memo describes.
    base: Pmf,
    /// The Eq. 2 pricing memo over `base` and the tail chain.
    memo: ReadyMemo,
}

/// The lazily filled table of G(r) for r ∈ [`lo`, `lo + len − 1`]
/// (see the module docs).
#[derive(Debug, Clone, Default)]
struct ReadyMemo {
    /// The now-bin the base and table describe; `None` once the queue
    /// has mutated since.
    now_bin: Option<Bin>,
    /// An entry is filled iff its stamp equals this; bumped per re-key.
    stamp: u64,
    /// First table bin (the base's first bin) and live table length.
    lo: Bin,
    len: usize,
    /// (fill stamp, G) per bin from `lo`; may be longer than `len`.
    table: Vec<(u64, f64)>,
}

impl ReadyMemo {
    /// Starts a fresh table for `now_bin` over `base` and `chain_cdf`.
    fn rekey(&mut self, now_bin: Bin, base: &Pmf, chain_cdf: &Cdf) {
        self.now_bin = Some(now_bin);
        self.stamp += 1;
        self.lo = base.min_bin();
        self.len =
            (base.max_bin() - self.lo + chain_cdf.max_bin() + 2) as usize;
        if self.table.len() < self.len {
            self.table.resize(self.len, (0, 0.0));
        }
    }

    /// Eq. 2 for `pet` and `deadline_bin` against the table,
    /// Σₓ pet(x) · G(deadline − x) clamped, filling the entries it
    /// reads. Walks the PET window in ascending x like the plain sum:
    /// first the bins whose G is the top entry, read once, then the
    /// bins that index the table directly. It stops where G falls below
    /// the table, where every term is 0.
    fn chance(
        &mut self,
        pet: &Pmf,
        deadline_bin: Bin,
        base: &Pmf,
        chain_cdf: &Cdf,
    ) -> f64 {
        let Some(last) = slack(deadline_bin, &[self.lo, pet.min_bin()]) else {
            return 0.0;
        };
        let top_entry = self.len - 1;
        let (top, dense, rows) = runs(pet.dense_probs(), last, top_entry);
        let (stamp, lo, rows_end) = (self.stamp, self.lo, rows.end);
        let mut total = 0.0;
        if !top.is_empty() {
            let row = &mut self.table[top_entry];
            if row.0 != stamp {
                let rem = lo + top_entry as Bin;
                *row = (stamp, ready_mass(base, chain_cdf, rem));
            }
            for &px in top {
                total += px * row.1;
            }
        }
        let rows = self.table[rows].iter_mut().rev();
        for (k, (&px, row)) in dense.iter().zip(rows).enumerate() {
            if row.0 != stamp {
                if px == 0.0 {
                    continue;
                }
                let rem = lo + (rows_end - 1 - k) as Bin;
                *row = (stamp, ready_mass(base, chain_cdf, rem));
            }
            total += px * row.1;
        }
        total.clamp(0.0, 1.0)
    }
}

impl ChainCache {
    fn new() -> Self {
        let zero = Pmf::point_mass(0);
        let zero_cdf = zero.to_cdf();
        Self {
            pmfs: vec![zero.clone()],
            cdfs: vec![zero_cdf.clone()],
            valid: 1,
            scratch: ConvScratch::new(),
            walk_pmf: zero.clone(),
            walk_next: zero.clone(),
            walk_cdf: zero_cdf,
            walk_base: zero.clone(),
            walk_active: false,
            base: zero,
            memo: ReadyMemo::default(),
        }
    }

    /// Forgets the pricing memo: the running task or the waiting list
    /// changed.
    fn touch(&mut self) {
        self.memo.now_bin = None;
    }

    /// Records that the waiting task at `first_changed` (and everything
    /// behind it) no longer matches the cached chain.
    fn invalidate_from(&mut self, first_changed: usize) {
        self.valid = self.valid.min(first_changed + 1);
        self.touch();
    }

    /// Repairs the chain up to the current queue length, re-convolving
    /// only the invalidated suffix into reused slot allocations.
    fn repair(
        &mut self,
        waiting: &VecDeque<Task>,
        machine_type: MachineTypeId,
        pet_matrix: &PetMatrix,
        horizon_bins: Bin,
    ) {
        let target = waiting.len() + 1;
        while self.valid < target {
            let i = self.valid;
            let pet = pet_matrix.pet(machine_type, waiting[i - 1].type_id);
            if self.pmfs.len() <= i {
                self.pmfs.push(Pmf::point_mass(0));
                self.cdfs.push(Cdf::point_mass(0));
            }
            let (done, rest) = self.pmfs.split_at_mut(i);
            let slot = &mut rest[0];
            convolve_into(&done[i - 1], pet, slot, &mut self.scratch);
            slot.truncate_to_horizon(horizon_bins);
            slot.to_cdf_into(&mut self.cdfs[i]);
            self.valid = i + 1;
        }
    }
}

/// A machine's execution state plus the PCT estimator state.
#[derive(Debug, Clone)]
pub struct MachineQueue {
    machine: Machine,
    capacity: usize,
    horizon_bins: u64,
    generation: u64,
    running: Option<RunningTask>,
    waiting: VecDeque<Task>,
    /// `expected_ready_ticks` at the instant it was last asked for;
    /// `None` once the queue has mutated since (see the module docs).
    expected_ready: Cell<Option<(SimTime, f64)>>,
    chain: RefCell<ChainCache>,
}

impl MachineQueue {
    /// Creates an empty queue for `machine` with the given waiting-slot
    /// capacity and estimator horizon.
    pub fn new(machine: Machine, capacity: usize, horizon_bins: u64) -> Self {
        Self {
            machine,
            capacity,
            horizon_bins,
            generation: 0,
            running: None,
            waiting: VecDeque::new(),
            expected_ready: Cell::new(None),
            chain: RefCell::new(ChainCache::new()),
        }
    }

    /// Forgets every memo: the running task or the waiting list
    /// changed.
    fn touch(&mut self) {
        *self.expected_ready.get_mut() = None;
        self.chain.get_mut().touch();
    }

    /// [`Self::touch`], and the waiting task at `first_changed` (and
    /// everything behind it) no longer matches the cached chain.
    fn invalidate_from(&mut self, first_changed: usize) {
        *self.expected_ready.get_mut() = None;
        self.chain.get_mut().invalidate_from(first_changed);
    }

    /// The machine this queue belongs to.
    #[inline]
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// The currently executing task, if any.
    #[inline]
    pub fn running(&self) -> Option<&RunningTask> {
        self.running.as_ref()
    }

    /// Waiting tasks in FCFS order.
    #[inline]
    pub fn waiting(&self) -> impl ExactSizeIterator<Item = &Task> {
        self.waiting.iter()
    }

    /// Number of free waiting slots.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.waiting.len())
    }

    /// Waiting-queue length.
    #[inline]
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether the machine is executing a task.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Current start-generation (stale completion events carry an older
    /// value and are ignored by the engine). A tag, not a count: it
    /// wraps at the top of its range.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends `task` to the waiting queue (Eq. 1: the new tail PCT is
    /// the old tail convolved with the task's PET). O(1): extending a
    /// clean chain costs exactly one tail convolution at the next
    /// estimate query; on an invalidated chain the extension folds into
    /// the pending suffix repair — and an admit whose task is popped or
    /// dropped before any query costs nothing at all.
    ///
    /// # Panics
    /// If no waiting slot is free.
    pub fn admit(&mut self, task: Task) {
        assert!(self.free_slots() > 0, "admit into a full machine queue");
        self.waiting.push_back(task);
        self.touch();
    }

    /// Removes the head waiting task so the engine can start it.
    /// Returns `None` if the queue is empty or a task is already running.
    ///
    /// O(1): every chain position loses the head's PET, so the whole
    /// chain is invalidated and rebuilt lazily at the next query —
    /// coalescing with any other mutations in the same mapping event.
    pub fn pop_head_for_start(&mut self) -> Option<Task> {
        if self.running.is_some() {
            return None;
        }
        let task = self.waiting.pop_front()?;
        self.invalidate_from(0);
        Some(task)
    }

    /// Marks `task` as running from `start`. When it finishes is the
    /// caller's knowledge, reported later via the core's `complete`.
    /// Returns the new start-generation.
    pub fn set_running(&mut self, task: Task, start: SimTime) -> u64 {
        assert!(self.running.is_none(), "machine already busy");
        self.generation = self.generation.wrapping_add(1);
        self.running = Some(RunningTask { task, start });
        self.touch();
        self.generation
    }

    /// Completes the running task, returning it.
    pub fn complete_running(&mut self) -> RunningTask {
        self.touch();
        self.running.take().expect("completion on an idle machine")
    }

    /// Cancels the running task (the optional `cancel_running_late`
    /// policy). Bumps the generation so the in-flight completion event
    /// becomes stale.
    pub fn cancel_running(&mut self) -> RunningTask {
        let rt = self.running.take().expect("cancel on an idle machine");
        self.generation = self.generation.wrapping_add(1);
        self.touch();
        rt
    }

    /// Removes waiting tasks that already missed their deadline at `now`
    /// (reactive dropping, Step 1 of the pruning procedure — applied by
    /// every configuration per §II). Invalidates the chain from the
    /// first expired position only.
    pub fn drop_missed_deadlines(&mut self, now: SimTime) -> Vec<Task> {
        let mut dropped = Vec::new();
        let mut first_removed = None;
        let mut idx = 0usize;
        self.waiting.retain(|t| {
            let expired = t.is_past_deadline(now);
            if expired {
                first_removed.get_or_insert(idx);
                dropped.push(*t);
            }
            idx += 1;
            !expired
        });
        if let Some(first) = first_removed {
            self.invalidate_from(first);
        }
        dropped
    }

    /// Removes the given waiting tasks (proactive drops chosen by the
    /// pruner). Ids not present are ignored. Returns the removed tasks.
    ///
    /// The id set is sorted once and probed by binary search, so a batch
    /// removal is O(queue · log ids) instead of the former O(queue·ids)
    /// linear scans; the chain is invalidated from the first removed
    /// position only.
    pub fn remove_waiting(&mut self, ids: &[TaskId]) -> Vec<Task> {
        if ids.is_empty() {
            return Vec::new();
        }
        let mut sorted: Vec<TaskId> = ids.to_vec();
        sorted.sort_unstable();
        let mut removed = Vec::new();
        let mut first_removed = None;
        let mut idx = 0usize;
        self.waiting.retain(|t| {
            let hit = sorted.binary_search(&t.id).is_ok();
            if hit {
                first_removed.get_or_insert(idx);
                removed.push(*t);
            }
            idx += 1;
            !hit
        });
        if let Some(first) = first_removed {
            self.invalidate_from(first);
        }
        removed
    }

    /// Writes the base distribution into `out`: the absolute-bin
    /// distribution of when the machine becomes free for the first
    /// waiting task — the running task's PCT conditioned on "still
    /// running at `now`", or a point mass at `now` when idle.
    fn write_base(
        &self,
        bin_spec: BinSpec,
        pet_matrix: &PetMatrix,
        now: SimTime,
        out: &mut Pmf,
    ) {
        let now_bin = bin_spec.bin_of(now);
        match &self.running {
            None => out.set_point_mass(now_bin),
            Some(rt) => {
                let pet = pet_matrix.pet(self.machine.type_id, rt.task.type_id);
                pet.shift_into(bin_spec.bin_of(rt.start), out);
                if now_bin > 0 {
                    // Still running ⇒ completion bin ≥ now_bin.
                    out.condition_greater_than_in_place(now_bin - 1);
                }
            }
        }
    }

    /// The base distribution as an owned PMF (see `Self::write_base`;
    /// the query paths use the arena-buffered variant).
    pub fn base_pmf(
        &self,
        bin_spec: BinSpec,
        pet_matrix: &PetMatrix,
        now: SimTime,
    ) -> Pmf {
        let mut out = Pmf::point_mass(0);
        self.write_base(bin_spec, pet_matrix, now, &mut out);
        out
    }

    /// Chance of success (Eq. 2) for `task` if appended at the tail of
    /// this queue right now.
    pub fn chance_if_appended(
        &self,
        bin_spec: BinSpec,
        pet_matrix: &PetMatrix,
        now: SimTime,
        task: &Task,
    ) -> f64 {
        let mut chain = self.chain.borrow_mut();
        chain.repair(
            &self.waiting,
            self.machine.type_id,
            pet_matrix,
            self.horizon_bins,
        );
        let cache = &mut *chain;
        let chain_cdf = &cache.cdfs[self.waiting.len()];
        let now_bin = bin_spec.bin_of(now);
        if cache.memo.now_bin != Some(now_bin) {
            self.write_base(bin_spec, pet_matrix, now, &mut cache.base);
            cache.memo.rekey(now_bin, &cache.base, chain_cdf);
        }
        let pet = pet_matrix.pet(self.machine.type_id, task.type_id);
        let deadline_bin = bin_spec.deadline_bin(task.deadline);
        cache.memo.chance(pet, deadline_bin, &cache.base, chain_cdf)
    }

    /// Walks the waiting queue head-to-tail computing each task's chance
    /// of success, *assuming all drops already decided in this walk have
    /// happened* (dropping a task removes its PET from the chain of every
    /// task behind it — the compound-uncertainty reduction of §II).
    ///
    /// `decide(task, chance)` returns `true` to drop. The queue itself is
    /// not modified; apply the returned ids with [`Self::remove_waiting`].
    /// The post-drop live chain re-convolves into rotating arena buffers
    /// (with a walk-dedicated base), so the walk allocates nothing
    /// beyond the returned ids. The chain cache is *not* held borrowed
    /// across `decide`: the callback may freely issue read-only estimate
    /// queries against this queue ([`Self::chance_if_appended`]); only a
    /// nested `plan_drops` on the same queue is unsupported (it would
    /// clobber the shared walk buffers).
    pub fn plan_drops(
        &self,
        bin_spec: BinSpec,
        pet_matrix: &PetMatrix,
        now: SimTime,
        mut decide: impl FnMut(&Task, f64) -> bool,
    ) -> Vec<TaskId> {
        if self.waiting.is_empty() {
            return Vec::new();
        }
        {
            let mut chain = self.chain.borrow_mut();
            assert!(
                !chain.walk_active,
                "nested plan_drops on the same queue would corrupt the \
                 shared walk buffers"
            );
            chain.walk_active = true;
            chain.repair(
                &self.waiting,
                self.machine.type_id,
                pet_matrix,
                self.horizon_bins,
            );
            let cache = &mut *chain;
            self.write_base(bin_spec, pet_matrix, now, &mut cache.walk_base);
        }
        let mut drops = Vec::new();
        // Until the first drop the cached prefix chains are exact; after
        // it the surviving suffix re-convolves through the walk buffers.
        let mut live = false;
        for (i, task) in self.waiting.iter().enumerate() {
            let pet = pet_matrix.pet(self.machine.type_id, task.type_id);
            let deadline_bin = bin_spec.deadline_bin(task.deadline);
            let chance = {
                let chain = self.chain.borrow();
                let cdf = if live {
                    &chain.walk_cdf
                } else {
                    &chain.cdfs[i]
                };
                chance_of_success(&chain.walk_base, cdf, pet, deadline_bin)
            };
            if decide(task, chance) {
                drops.push(task.id);
                if !live {
                    let mut chain = self.chain.borrow_mut();
                    let ChainCache {
                        pmfs,
                        walk_pmf,
                        walk_cdf,
                        ..
                    } = &mut *chain;
                    walk_pmf.clone_from(&pmfs[i]);
                    pmfs[i].to_cdf_into(walk_cdf);
                    live = true;
                }
            } else if live {
                let mut chain = self.chain.borrow_mut();
                let ChainCache {
                    scratch,
                    walk_pmf,
                    walk_next,
                    walk_cdf,
                    ..
                } = &mut *chain;
                convolve_into(walk_pmf, pet, walk_next, scratch);
                walk_next.truncate_to_horizon(self.horizon_bins);
                walk_next.to_cdf_into(walk_cdf);
                std::mem::swap(walk_pmf, walk_next);
            }
        }
        self.chain.borrow_mut().walk_active = false;
        drops
    }

    /// Deterministic expected-completion accounting used by the classic
    /// heuristics (MCT, MM, …): expected finish of the running task
    /// (never earlier than `now`), plus the expected execution times of
    /// all waiting tasks. In ticks. Memoised per `now` until the queue
    /// next changes (see the module docs).
    pub fn expected_ready_ticks(
        &self,
        pet_matrix: &PetMatrix,
        now: SimTime,
    ) -> f64 {
        if let Some((at, ticks)) = self.expected_ready.get() {
            if at == now {
                return ticks;
            }
        }
        let mut t = match &self.running {
            None => now.ticks() as f64,
            Some(rt) => {
                let e = rt.start.ticks() as f64
                    + pet_matrix
                        .expected_ticks(self.machine.type_id, rt.task.type_id);
                e.max(now.ticks() as f64 + 1.0)
            }
        };
        for w in &self.waiting {
            t += pet_matrix.expected_ticks(self.machine.type_id, w.type_id);
        }
        self.expected_ready.set(Some((now, t)));
        t
    }

    /// All tasks still owned by this queue (running + waiting), used to
    /// mark leftovers as unfinished at simulation end.
    pub fn drain_all(&mut self) -> Vec<Task> {
        let mut out: Vec<Task> =
            self.running.take().map(|rt| rt.task).into_iter().collect();
        out.extend(self.waiting.drain(..));
        self.invalidate_from(0);
        out
    }

    /// Invalidates the whole cached chain and repairs it immediately —
    /// the cost profile of the pre-incremental `rebuild_chain`. Exposed
    /// as the from-scratch baseline for benches and the fuzz reference.
    pub fn force_full_rebuild(&mut self, pet_matrix: &PetMatrix) {
        self.invalidate_from(0);
        self.chain.get_mut().repair(
            &self.waiting,
            self.machine.type_id,
            pet_matrix,
            self.horizon_bins,
        );
    }

    /// Overwrites `out` with a copy of the queue's durable state, as a
    /// core checkpoint carries it, reusing its waiting-list buffer.
    pub(crate) fn capture(&self, out: &mut QueueCapture) {
        out.generation = self.generation;
        out.running = self.running.as_ref().map(|rt| (rt.task, rt.start));
        out.waiting.clone_from(&self.waiting);
    }

    /// Whether a capture's waiting list fits this queue's capacity.
    pub(crate) fn fits(&self, state: &QueueCapture) -> bool {
        state.waiting.len() <= self.capacity
    }

    /// Installs a capture that [`MachineQueue::fits`] this queue.
    pub(crate) fn restore(&mut self, state: QueueCapture) {
        self.generation = state.generation;
        self.running = state
            .running
            .map(|(task, start)| RunningTask { task, start });
        self.waiting = state.waiting;
        // The chain cache is rebuilt lazily from the restored waiting
        // list; slot 0 (δ(0)) is constant, so invalidating from the
        // head discards everything else while keeping the arena
        // allocations.
        self.invalidate_from(0);
    }

    /// Repairs the chain, then clones out the live prefix PMFs and CDFs
    /// (`chain[0..=len]`). Test/diagnostic hook for the bit-for-bit
    /// equivalence invariant; not a hot-path API.
    pub fn chain_snapshot(
        &self,
        pet_matrix: &PetMatrix,
    ) -> (Vec<Pmf>, Vec<Cdf>) {
        let mut chain = self.chain.borrow_mut();
        chain.repair(
            &self.waiting,
            self.machine.type_id,
            pet_matrix,
            self.horizon_bins,
        );
        let n = self.waiting.len() + 1;
        (chain.pmfs[..n].to_vec(), chain.cdfs[..n].to_vec())
    }
}

/// `P(base + chain + pet ≤ deadline_bin)` evaluated as a double dot
/// product: Σₓ pet(x) · Σₐ base(a) · chain_cdf(deadline − x − a).
///
/// `base` is absolute bins, `chain_cdf` and `pet` relative bins. This is
/// Eq. 2 without materialising the Eq. 1 convolution; exactness is
/// property-tested against the explicit convolution.
pub fn chance_of_success(
    base: &Pmf,
    chain_cdf: &Cdf,
    pet: &Pmf,
    deadline_bin: Bin,
) -> f64 {
    // The inner sum is 0 below the base's and the chain's first bins,
    // so the PET walk stops where the deadline leaves less than that.
    let firsts = [base.min_bin(), chain_cdf.min_bin(), pet.min_bin()];
    let Some(last) = slack(deadline_bin, &firsts) else {
        return 0.0;
    };
    let probs = pet.dense_probs();
    let mut total = 0.0;
    for (j, &px) in probs[..probs.len().min(index_end(last))].iter().enumerate()
    {
        if px != 0.0 {
            let rem = deadline_bin - pet.min_bin() - j as Bin;
            total += px * ready_mass(base, chain_cdf, rem);
        }
    }
    total.clamp(0.0, 1.0)
}

/// Eq. 2's inner sum Σₐ base(a) · chain_cdf(rem − a): the chance that
/// the queue ahead of an appended task is done by bin `rem`.
///
/// Walks the base window in two runs, in ascending `a` like the plain
/// sum: first the bins whose chain term lies past the CDF's window
/// (its flat top, `window_mass`), then the bins whose term indexes the
/// cumulative window. It stops where the chain term falls below the
/// window, where every term is 0.
fn ready_mass(base: &Pmf, chain_cdf: &Cdf, rem: Bin) -> f64 {
    let Some(last) = slack(rem, &[chain_cdf.min_bin(), base.min_bin()]) else {
        return 0.0;
    };
    let cum = chain_cdf.dense_cum();
    let (flat, dense, window) = runs(base.dense_probs(), last, cum.len());
    let mut inner = 0.0;
    let window_mass = chain_cdf.window_mass();
    for &pa in flat {
        inner += pa * window_mass;
    }
    for (&pa, &f) in dense.iter().zip(cum[window].iter().rev()) {
        inner += pa * f;
    }
    inner
}

/// `bin` less each of `firsts`, or `None` where that falls below 0.
fn slack(bin: Bin, firsts: &[Bin]) -> Option<Bin> {
    firsts
        .iter()
        .try_fold(bin, |b, &first| b.checked_sub(first))
}

/// Splits the two runs of a sum whose window bin `j` reads entry
/// `last − j` of a table, and whose entries from `flat_from` on all
/// read one value: the bins that read that value, the bins after them
/// that index the table, and the table entries the second run reads
/// (it reads them in descending order). Bins past `last` read below
/// the table and are left out.
fn runs(
    probs: &[f64],
    last: Bin,
    flat_from: usize,
) -> (&[f64], &[f64], Range<usize>) {
    let reach = index_end(last);
    let end = probs.len().min(reach);
    let (flat, dense) =
        probs[..end].split_at(end.min(reach.saturating_sub(flat_from)));
    if dense.is_empty() {
        return (flat, dense, 0..0);
    }
    // Entries last − flat.len() down to last − (end − 1).
    let rows_end = reach - flat.len();
    (flat, dense, rows_end - dense.len()..rows_end)
}

/// `last + 1` as a slice bound, saturating where `usize` cannot hold it.
fn index_end(last: Bin) -> usize {
    usize::try_from(last).map_or(usize::MAX, |l| l.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::{BinSpec, Cluster, TaskTypeId};

    const BIN: u64 = 100;

    /// 1 machine type × 2 task types with easily hand-checked PETs.
    fn pet_matrix() -> PetMatrix {
        let spec = BinSpec::new(BIN);
        PetMatrix::new(
            spec,
            1,
            2,
            vec![
                Pmf::from_points(&[(2, 0.5), (4, 0.5)]).unwrap(), // type 0
                Pmf::point_mass(3),                               // type 1
            ],
        )
    }

    fn queue() -> MachineQueue {
        let cluster = Cluster::one_per_type(1);
        MachineQueue::new(
            cluster.machine(taskprune_model::MachineId(0)),
            4,
            256,
        )
    }

    fn task(id: u64, type_id: u16, deadline_ticks: u64) -> Task {
        Task::new(id, TaskTypeId(type_id), SimTime(0), SimTime(deadline_ticks))
    }

    #[test]
    fn admit_tracks_slots_and_chain() {
        let pm = pet_matrix();
        let mut q = queue();
        assert_eq!(q.free_slots(), 4);
        q.admit(task(0, 1, 10_000));
        q.admit(task(1, 1, 10_000));
        assert_eq!(q.free_slots(), 2);
        assert_eq!(q.waiting_len(), 2);
        // Chain after two point-mass(3) PETs: chain[2] = δ(6).
        let (pmfs, _) = q.chain_snapshot(&pm);
        assert_eq!(pmfs[2], Pmf::point_mass(6));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn admit_beyond_capacity_panics() {
        let mut q = queue();
        for i in 0..5 {
            q.admit(task(i, 1, 10_000));
        }
    }

    #[test]
    fn chance_on_idle_machine_matches_hand_computation() {
        let pm = pet_matrix();
        let q = queue();
        let spec = pm.bin_spec();
        // Idle at t=0: PCT of a type-0 task = its PET {2:0.5, 4:0.5}.
        // Deadline at tick 300 → deadline_bin 2 → P = 0.5.
        let t = task(0, 0, 300);
        let c = q.chance_if_appended(spec, &pm, SimTime(0), &t);
        assert!((c - 0.5).abs() < 1e-12, "chance {c}");
        // Deadline 500 → bin 4 → P = 1.0.
        let t = task(1, 0, 500);
        let c = q.chance_if_appended(spec, &pm, SimTime(0), &t);
        assert!((c - 1.0).abs() < 1e-12);
        // Deadline 200 → bin 1 → P = 0.
        let t = task(2, 0, 200);
        let c = q.chance_if_appended(spec, &pm, SimTime(0), &t);
        assert!(c.abs() < 1e-12);
    }

    #[test]
    fn chance_behind_queued_task_compounds() {
        let pm = pet_matrix();
        let mut q = queue();
        let spec = pm.bin_spec();
        // δ(3) ahead.
        q.admit(task(0, 1, 10_000));
        // Type-0 task behind it: completion = 3 + {2:0.5, 4:0.5}.
        // Deadline bin 5 (deadline 600) → P = 0.5.
        let t = task(1, 0, 600);
        let c = q.chance_if_appended(spec, &pm, SimTime(0), &t);
        assert!((c - 0.5).abs() < 1e-12, "chance {c}");
    }

    #[test]
    fn chance_accounts_for_conditioned_running_task() {
        let pm = pet_matrix();
        let mut q = queue();
        let spec = pm.bin_spec();
        // Start a type-0 task ({2:0.5,4:0.5}) at t=0; at now=300 (bin 3)
        // it is still running ⇒ its completion must be bin 4 (prob 1
        // after conditioning away the bin-2 outcome).
        let rt = task(0, 0, 100_000);
        q.set_running(rt, SimTime(0));
        let t = task(1, 1, 800); // PET δ(3); completion = bin 4 + 3 = 7.
        let c_tight =
            q.chance_if_appended(spec, &pm, SimTime(300), &task(1, 1, 700));
        let c_loose =
            q.chance_if_appended(spec, &pm, SimTime(300), &task(2, 1, 800));
        // Deadline bin of 700 is 6 < 7 ⇒ impossible.
        assert!(c_tight.abs() < 1e-12, "tight {c_tight}");
        // Deadline bin of 800 is 7 ⇒ certain.
        assert!((c_loose - 1.0).abs() < 1e-12, "loose {c_loose}");
        let _ = t;
    }

    #[test]
    fn pop_head_invalidates_then_repairs_chain() {
        let pm = pet_matrix();
        let mut q = queue();
        q.admit(task(0, 1, 10_000));
        q.admit(task(1, 1, 10_000));
        let head = q.pop_head_for_start().unwrap();
        assert_eq!(head.id, TaskId(0));
        assert_eq!(q.waiting_len(), 1);
        let (pmfs, _) = q.chain_snapshot(&pm);
        assert_eq!(pmfs.len(), 2);
        assert_eq!(pmfs[1], Pmf::point_mass(3));
    }

    #[test]
    fn pop_head_refuses_while_busy() {
        let mut q = queue();
        q.set_running(task(9, 1, 10_000), SimTime(0));
        q.admit(task(0, 1, 10_000));
        assert!(q.pop_head_for_start().is_none());
    }

    #[test]
    fn generation_bumps_on_start_and_cancel() {
        let mut q = queue();
        let g1 = q.set_running(task(0, 1, 10_000), SimTime(0));
        q.complete_running();
        let g2 = q.set_running(task(1, 1, 10_000), SimTime(10));
        assert!(g2 > g1);
        let rt = q.cancel_running();
        assert_eq!(rt.task.id, TaskId(1));
        assert!(q.generation() > g2);
    }

    #[test]
    fn reactive_drops_remove_expired_tasks() {
        let pm = pet_matrix();
        let mut q = queue();
        q.admit(task(0, 1, 100));
        q.admit(task(1, 1, 900));
        let dropped = q.drop_missed_deadlines(SimTime(500));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id, TaskId(0));
        assert_eq!(q.waiting_len(), 1);
        assert_eq!(q.chain_snapshot(&pm).0.len(), 2);
    }

    #[test]
    fn remove_waiting_repairs_suffix_only() {
        let pm = pet_matrix();
        let mut q = queue();
        q.admit(task(0, 0, 10_000));
        q.admit(task(1, 1, 10_000));
        q.admit(task(2, 1, 10_000));
        let removed = q.remove_waiting(&[TaskId(1)]);
        assert_eq!(removed.len(), 1);
        assert_eq!(q.waiting_len(), 2);
        // Chain is now PET(t0) ∗ PET(t2) = {2,4}·δ(3) → {5:0.5, 7:0.5}.
        let (pmfs, _) = q.chain_snapshot(&pm);
        assert_eq!(pmfs.len(), 3);
        assert!(
            (pmfs[2].prob_at(5) - 0.5).abs() < 1e-12
                && (pmfs[2].prob_at(7) - 0.5).abs() < 1e-12
        );
    }

    #[test]
    fn remove_waiting_batch_uses_sorted_lookup() {
        let pm = pet_matrix();
        let mut q = queue();
        for i in 0..4 {
            q.admit(task(i, 1, 10_000));
        }
        // Unsorted id batch, with one id that is not present.
        let removed =
            q.remove_waiting(&[TaskId(3), TaskId(0), TaskId(99), TaskId(2)]);
        let ids: Vec<TaskId> = removed.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(2), TaskId(3)]);
        assert_eq!(q.waiting_len(), 1);
        assert_eq!(q.waiting().next().unwrap().id, TaskId(1));
        let (pmfs, _) = q.chain_snapshot(&pm);
        assert_eq!(pmfs[1], Pmf::point_mass(3));
    }

    #[test]
    fn coalesced_mutations_match_fresh_rebuild() {
        let pm = pet_matrix();
        let mut q = queue();
        for i in 0..4 {
            q.admit(task(i, (i % 2) as u16, 10_000));
        }
        // Several structural changes with no query in between: pop the
        // head, drop one mid-queue task, admit a replacement.
        let _ = q.pop_head_for_start().unwrap();
        q.remove_waiting(&[TaskId(2)]);
        q.admit(task(9, 0, 10_000));
        // One lazy repair must now equal a from-scratch rebuild exactly.
        let incremental = q.chain_snapshot(&pm);
        let mut fresh = queue();
        for t in q.waiting() {
            fresh.admit(*t);
        }
        assert_eq!(incremental, fresh.chain_snapshot(&pm));
    }

    #[test]
    fn plan_drops_recomputes_chances_behind_drops() {
        let pm = pet_matrix();
        let mut q = queue();
        // Two type-1 tasks (δ(3) each) then a type-0 task.
        q.admit(task(0, 1, 10_000));
        q.admit(task(1, 1, 10_000));
        // Task 2's deadline bin: base 0 + 3 + 3 + {2:.5,4:.5} ⇒ bins 8/10.
        // With deadline at bin 8 (tick 900) chance is 0.5.
        q.admit(task(2, 0, 900));
        // Decide: drop task 0 only; task 2's chance must then *improve*
        // to bins 5/7 ⇒ certain (deadline bin 8).
        let mut seen = Vec::new();
        let drops =
            q.plan_drops(pm.bin_spec(), &pm, SimTime(0), |task, chance| {
                seen.push((task.id, chance));
                task.id == TaskId(0)
            });
        assert_eq!(drops, vec![TaskId(0)]);
        assert_eq!(seen.len(), 3);
        // Without drops task 2's chance would be 0.5; after dropping
        // task 0 the scan must report the improved 1.0.
        let last = seen.last().unwrap();
        assert_eq!(last.0, TaskId(2));
        assert!((last.1 - 1.0).abs() < 1e-12, "chance {}", last.1);
    }

    #[test]
    fn plan_drops_allows_reentrant_chance_queries() {
        // A pruner's decide callback may ask read-only estimate queries
        // against the same queue mid-walk (e.g. "would a fresh task
        // still fit?"); the walk must neither panic nor let the nested
        // query clobber its base distribution.
        let pm = pet_matrix();
        let mut q = queue();
        q.admit(task(0, 1, 10_000));
        q.admit(task(1, 1, 10_000));
        q.admit(task(2, 0, 900)); // chance 0.5 behind two δ(3) tasks
        let spec = pm.bin_spec();
        let mut seen = Vec::new();
        let drops = q.plan_drops(spec, &pm, SimTime(0), |task, chance| {
            let probe =
                Task::new(99, TaskTypeId(0), SimTime(0), SimTime(10_000));
            let nested = q.chance_if_appended(spec, &pm, SimTime(0), &probe);
            assert!((0.0..=1.0).contains(&nested), "nested {nested}");
            seen.push((task.id, chance));
            task.id == TaskId(0)
        });
        assert_eq!(drops, vec![TaskId(0)]);
        // Same chances as the non-reentrant walk: dropping task 0 lifts
        // task 2 from 0.5 to certain (see plan_drops_recomputes_...).
        let last = seen.last().unwrap();
        assert_eq!(last.0, TaskId(2));
        assert!((last.1 - 1.0).abs() < 1e-12, "chance {}", last.1);
    }

    #[test]
    fn plan_drops_uses_cached_prefixes_when_nothing_drops() {
        let pm = pet_matrix();
        let mut q = queue();
        q.admit(task(0, 1, 350)); // bin 3 vs deadline bin 2 → 0
        q.admit(task(1, 1, 10_000));
        let mut chances = Vec::new();
        let drops = q.plan_drops(pm.bin_spec(), &pm, SimTime(0), |_, c| {
            chances.push(c);
            false
        });
        assert!(drops.is_empty());
        assert!(chances[0].abs() < 1e-12);
        assert!((chances[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_ready_accounts_for_running_and_waiting() {
        let pm = pet_matrix();
        let mut q = queue();
        // Idle: ready = now.
        assert_eq!(q.expected_ready_ticks(&pm, SimTime(500)), 500.0);
        // Running type-1 (E = (3+0.5)·100 = 350 ticks) started at 0.
        q.set_running(task(0, 1, 10_000), SimTime(0));
        assert_eq!(q.expected_ready_ticks(&pm, SimTime(100)), 350.0);
        // Overdue running task: floor at now + 1.
        assert_eq!(q.expected_ready_ticks(&pm, SimTime(400)), 401.0);
        // Plus a waiting type-0 (E = (3+0.5)·100 = 350).
        q.admit(task(1, 0, 10_000));
        assert_eq!(q.expected_ready_ticks(&pm, SimTime(100)), 700.0);
    }

    #[test]
    fn drain_returns_everything() {
        let pm = pet_matrix();
        let mut q = queue();
        q.set_running(task(0, 1, 10_000), SimTime(0));
        q.admit(task(1, 1, 10_000));
        q.admit(task(2, 0, 10_000));
        let all = q.drain_all();
        assert_eq!(all.len(), 3);
        assert_eq!(q.waiting_len(), 0);
        assert!(!q.is_busy());
        // The chain is reset to the empty-queue state.
        assert_eq!(q.chain_snapshot(&pm).0, vec![Pmf::point_mass(0)]);
    }

    fn captured(q: &MachineQueue) -> QueueCapture {
        let mut out = QueueCapture::default();
        q.capture(&mut out);
        out
    }

    #[test]
    fn capture_restore_roundtrips_and_rebuilds_the_chain() {
        let pm = pet_matrix();
        let mut q = queue();
        q.set_running(task(0, 1, 10_000), SimTime(0));
        q.admit(task(1, 1, 10_000));
        q.admit(task(2, 0, 900));
        let wire = captured(&q).to_value();
        let state = QueueCapture::from_value(&wire).expect("decodes");
        let mut fresh = queue();
        assert!(fresh.fits(&state));
        fresh.restore(state);
        assert_eq!(fresh.generation(), q.generation());
        assert_eq!(fresh.waiting_len(), 2);
        assert!(fresh.is_busy());
        assert_eq!(captured(&fresh).to_value(), wire);
        // The rebuilt-lazily chain must equal the live one exactly.
        assert_eq!(fresh.chain_snapshot(&pm), q.chain_snapshot(&pm));
    }

    #[test]
    fn an_over_capacity_waiting_list_does_not_fit() {
        let cluster = Cluster::one_per_type(1);
        let m = cluster.machine(taskprune_model::MachineId(0));
        let mut big = MachineQueue::new(m, 8, 256);
        for i in 0..6 {
            big.admit(task(i, 1, 10_000));
        }
        assert!(!MachineQueue::new(m, 4, 256).fits(&captured(&big)));
        assert!(MachineQueue::new(m, 6, 256).fits(&captured(&big)));
    }

    #[test]
    fn chance_of_success_matches_full_convolution() {
        // Randomised agreement check against the explicit Eq. 1 path.
        let base =
            Pmf::from_points(&[(10, 0.3), (12, 0.45), (15, 0.25)]).unwrap();
        let chain = Pmf::from_points(&[(0, 0.2), (3, 0.5), (7, 0.3)]).unwrap();
        let pet = Pmf::from_points(&[(1, 0.6), (5, 0.4)]).unwrap();
        let explicit = base.convolve(&chain).convolve(&pet);
        let chain_cdf = chain.to_cdf();
        for deadline in 8..30 {
            let fast = chance_of_success(&base, &chain_cdf, &pet, deadline);
            let slow = explicit.success_probability(deadline);
            assert!(
                (fast - slow).abs() < 1e-12,
                "deadline {deadline}: {fast} vs {slow}"
            );
        }
    }

    /// The Eq. 2 kernels against the plain per-term sums they replace,
    /// compared by `to_bits`: the kernels skip only terms that are
    /// exactly 0 and add every other product in the same order.
    mod kernel_bits {
        use super::*;
        use proptest::prelude::*;

        /// The plain Eq. 2 outer sum: every PET bin, zero or late bins
        /// skipped by a test per term.
        fn eq2_reference(
            pet: &Pmf,
            deadline_bin: Bin,
            mut ready: impl FnMut(Bin) -> f64,
        ) -> f64 {
            let mut total = 0.0;
            for (x, px) in pet.iter() {
                if px == 0.0 || x > deadline_bin {
                    continue;
                }
                total += px * ready(deadline_bin - x);
            }
            total.clamp(0.0, 1.0)
        }

        /// The plain Eq. 2 inner sum, reading the chain CDF through
        /// `Cdf::at` per term.
        fn ready_mass_reference(base: &Pmf, chain_cdf: &Cdf, rem: Bin) -> f64 {
            let mut inner = 0.0;
            for (a, pa) in base.iter() {
                if a > rem {
                    break;
                }
                if pa == 0.0 {
                    continue;
                }
                inner += pa * chain_cdf.at(rem - a);
            }
            inner
        }

        impl ReadyMemo {
            /// The per-term table lookup: 0 below the table, the top
            /// entry above it, each entry filled on first use.
            fn g_reference(
                &mut self,
                rem: Bin,
                base: &Pmf,
                chain_cdf: &Cdf,
            ) -> f64 {
                if rem < self.lo {
                    return 0.0;
                }
                let i = ((rem - self.lo) as usize).min(self.len - 1);
                let (stamp, g) = &mut self.table[i];
                if *stamp != self.stamp {
                    *g = ready_mass_reference(
                        base,
                        chain_cdf,
                        self.lo + i as Bin,
                    );
                    *stamp = self.stamp;
                }
                *g
            }
        }

        /// A PMF window from its first bin and per-bin weights (a 0
        /// weight leaves an interior zero bin), with the mass past
        /// `first + cut` moved to the tail when `tail` is set; all-zero
        /// weights give a point mass.
        fn window(first: Bin, weights: &[u32], tail: bool, cut: Bin) -> Pmf {
            let total: u32 = weights.iter().sum();
            if total == 0 {
                return Pmf::point_mass(first);
            }
            let points: Vec<(Bin, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    (first + i as Bin, f64::from(w) / f64::from(total))
                })
                .collect();
            let mut pmf = Pmf::from_points(&points).expect("positive mass");
            if tail {
                pmf.truncate_to_horizon(first + cut);
            }
            pmf
        }

        /// Point masses, windows with interior zeros, and windows with
        /// tail mass (whose CDF's flat top is below 1), starting at bins
        /// `0..=max_first` and up to `max_len` bins long.
        fn arb_pmf(
            max_first: Bin,
            max_len: usize,
        ) -> impl Strategy<Value = Pmf> {
            prop_oneof![
                (0..=max_first).prop_map(Pmf::point_mass),
                (0..=max_first, prop::collection::vec(0u32..4, 1..=max_len))
                    .prop_map(|(first, w)| window(first, &w, false, 0)),
                (
                    0..=max_first,
                    prop::collection::vec(0u32..4, 1..=max_len),
                    0..max_len as Bin,
                )
                    .prop_map(|(first, w, cut)| window(first, &w, true, cut)),
            ]
        }

        /// One past the largest bin at which `pmfs` can still matter to
        /// each other's sums, plus a margin: the deadline and `rem`
        /// sweeps run from 0 (below every window) to here (above all).
        fn sweep_end(pmfs: &[&Pmf]) -> Bin {
            pmfs.iter().map(|p| p.max_bin()).sum::<Bin>() + 4
        }

        proptest! {
            /// Base windows starting below, inside and past the chain
            /// CDF's window, against every `rem` from below both to
            /// above both.
            #[test]
            fn ready_mass_matches_the_plain_sum(
                base in arb_pmf(24, 10),
                chain in arb_pmf(8, 10),
            ) {
                let cdf = chain.to_cdf();
                for rem in 0..sweep_end(&[&base, &chain]) {
                    let fast = ready_mass(&base, &cdf, rem);
                    let plain = ready_mass_reference(&base, &cdf, rem);
                    prop_assert_eq!(
                        fast.to_bits(),
                        plain.to_bits(),
                        "rem {}: {} vs {} (base {:?}, chain {:?})",
                        rem, fast, plain, base, chain
                    );
                }
            }

            /// The drop walk's sum, for deadlines below, inside and
            /// above every window.
            #[test]
            fn chance_of_success_matches_the_plain_sums(
                base in arb_pmf(24, 10),
                chain in arb_pmf(8, 10),
                pet in arb_pmf(6, 8),
            ) {
                let cdf = chain.to_cdf();
                for d in 0..sweep_end(&[&base, &chain, &pet]) {
                    let fast = chance_of_success(&base, &cdf, &pet, d);
                    let plain = eq2_reference(&pet, d, |rem| {
                        ready_mass_reference(&base, &cdf, rem)
                    });
                    prop_assert_eq!(
                        fast.to_bits(),
                        plain.to_bits(),
                        "deadline {}: {} vs {} (base {:?}, chain {:?}, \
                         pet {:?})",
                        d, fast, plain, base, chain, pet
                    );
                }
            }

            /// Step 10 pricing: consecutive probes on one memo stamp
            /// (deadlines far past the table read its top entry), then
            /// the same after a re-key over another queue state, against
            /// the per-term lookup on a memo of its own and against the
            /// memo-free plain sum.
            #[test]
            fn memo_pricing_matches_the_per_term_lookup(
                states in prop::collection::vec(
                    (arb_pmf(24, 10), arb_pmf(8, 10)),
                    2,
                ),
                pets in prop::collection::vec(arb_pmf(6, 8), 1..4),
                probes in prop::collection::vec((0usize..4, 0u64..64), 1..24),
            ) {
                let (mut memo, mut per_term) =
                    (ReadyMemo::default(), ReadyMemo::default());
                for (now_bin, (base, chain)) in states.iter().enumerate() {
                    let cdf = chain.to_cdf();
                    memo.rekey(now_bin as Bin, base, &cdf);
                    per_term.rekey(now_bin as Bin, base, &cdf);
                    for &(k, d) in &probes {
                        let pet = &pets[k % pets.len()];
                        let fast = memo.chance(pet, d, base, &cdf);
                        let looked_up = eq2_reference(pet, d, |rem| {
                            per_term.g_reference(rem, base, &cdf)
                        });
                        let plain = eq2_reference(pet, d, |rem| {
                            ready_mass_reference(base, &cdf, rem)
                        });
                        prop_assert_eq!(
                            (fast.to_bits(), fast.to_bits()),
                            (looked_up.to_bits(), plain.to_bits()),
                            "deadline {}: {} vs {} / {} (base {:?}, \
                             chain {:?}, pet {:?})",
                            d, fast, looked_up, plain, base, chain, pet
                        );
                    }
                }
            }

            /// Every chance `plan_drops` reports, with drops decided
            /// mid-walk, against the plain sums over a queue rebuilt from
            /// the running task and the tasks the walk kept ahead.
            #[test]
            fn plan_drops_chances_match_the_plain_sums(
                pets in prop::collection::vec(arb_pmf(3, 8), 3),
                running in (any::<bool>(), 0u16..3, 0u64..2_000),
                elapsed in 0u64..600,
                waiting in prop::collection::vec((0u16..3, 0u64..4_000), 1..=6),
                drop_mask in any::<u8>(),
            ) {
                let pm = PetMatrix::new(BinSpec::new(BIN), 1, 3, pets);
                let spec = pm.bin_spec();
                let (busy, run_type, start) = running;
                let now = SimTime(start + elapsed);
                let machine = Cluster::one_per_type(1)
                    .machine(taskprune_model::MachineId(0));
                let fresh = |ahead: &[Task]| {
                    let mut q = MachineQueue::new(machine, 8, 256);
                    if busy {
                        q.set_running(task(99, run_type, 0), SimTime(start));
                    }
                    for t in ahead {
                        q.admit(*t);
                    }
                    q
                };
                let tasks: Vec<Task> = waiting
                    .iter()
                    .enumerate()
                    .map(|(i, &(ty, slack))| {
                        task(i as u64, ty, now.ticks() + slack)
                    })
                    .collect();
                let q = fresh(&tasks);
                let mut seen = Vec::new();
                let drops = q.plan_drops(spec, &pm, now, |t, chance| {
                    seen.push(chance);
                    drop_mask >> t.id.0 & 1 == 1
                });
                prop_assert_eq!(seen.len(), tasks.len());
                let mut kept = Vec::new();
                for (t, &chance) in tasks.iter().zip(&seen) {
                    let ahead = fresh(&kept);
                    let (_, cdfs) = ahead.chain_snapshot(&pm);
                    let base = ahead.base_pmf(spec, &pm, now);
                    let pet = pm.pet(machine.type_id, t.type_id);
                    let plain = eq2_reference(
                        pet,
                        spec.deadline_bin(t.deadline),
                        |rem| ready_mass_reference(&base, &cdfs[kept.len()], rem),
                    );
                    prop_assert_eq!(
                        chance.to_bits(),
                        plain.to_bits(),
                        "task {}: {} vs {} (drops {:?})",
                        t.id.0, chance, plain, drops
                    );
                    if !drops.contains(&t.id) {
                        kept.push(*t);
                    }
                }
            }
        }
    }
}
