//! Batch-mode two-phase mapping heuristics (§III-C of the paper).
//!
//! All three share the same first phase — for every unmapped task, find
//! the machine offering the minimum expected completion time — and differ
//! only in which provisional (task, machine) pair the second phase
//! commits:
//!
//! * **MM** (MinCompletion–MinCompletion): the pair with the smallest
//!   completion time overall — classic Min-Min;
//! * **MSD** (MinCompletion–Soonest Deadline): the task with the soonest
//!   deadline, completion time breaking ties;
//! * **MMU** (MinCompletion–MaxUrgency): the task with the largest
//!   urgency `U = 1 / (δᵢ − E[C(tᵢⱼ)])` (Eq. 3).
//!
//! The two-phase loop repeats until the virtual machine queues are full
//! or the unmapped queue is exhausted, maintaining a *virtual* ready-time
//! per machine so later picks see earlier ones — the "virtual queue"
//! structure the paper describes.
//!
//! Phase 1 depends only on a task's *type*, so it runs once per present
//! type, not once per task. Committing a task to machine *j* only raises
//! *j*'s ready time (or fills *j*), so a type's best machine can change
//! only if it was *j* — the invalidation of Ezzatti et al.'s efficient
//! Min-Min (the paper's ref. \[22\]). The output is identical to
//! recomputing phase 1 for every task.
//!
//! Phase 2 of MM runs per type too. Every candidate of a type shares
//! that type's phase-1 completion, and MM breaks equal completions by
//! task id, so the winner is the lowest unassigned id of the type with
//! the best (completion, lowest unassigned id). Each type's candidates
//! are sorted by id once per call, so a proposal costs O(types) instead
//! of a scan of every unassigned task. The types are found through a
//! table indexed by type id whose entries carry the call they were
//! written in, so no call clears it.
//!
//! MSD and MMU keep the scan. MSD has no id tie-break on purpose: among
//! equal deadlines and completions the first task in scan order wins,
//! and the scan order is the candidate order perturbed by `swap_remove`.
//! That order dependence is part of MSD's pinned behaviour, and no
//! per-type summary reproduces it. MMU ranks by deadline as well as
//! completion, so a type's best task is not its lowest id; it breaks
//! ties by id like MM.
//!
//! Candidate ids must be unique (the scheduler core's are): with a
//! repeated id the (completion, id) order would not name one winner.

use taskprune_model::{MachineId, Task};
use taskprune_sim::{Assignment, BatchMapper, SystemView};

/// The phase-2 selection rule distinguishing MM / MSD / MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase2 {
    /// Minimum expected completion time (MM).
    MinCompletion,
    /// Soonest deadline, completion time as tie-break (MSD).
    SoonestDeadline,
    /// Maximum urgency 1/(deadline − completion) (MMU).
    MaxUrgency,
}

/// A generic two-phase batch heuristic; [`MM`], [`MSD`] and [`MMU`] are
/// thin constructors over this. The vectors are scratch reused across
/// calls; no state survives a call (the type table's entries from an
/// earlier call are stale by their stamp).
#[derive(Debug)]
pub struct TwoPhase {
    name: &'static str,
    phase2: Phase2,
    /// Virtual ready-time per machine.
    ready: Vec<f64>,
    /// Virtual free-slot count per machine.
    slots: Vec<usize>,
    /// Stamps the entries of `kind_at` written by this call.
    call: u64,
    /// Per task type id: (the call that wrote it, its index in `kinds`).
    kind_at: Vec<(u64, usize)>,
    /// The task types present among the candidates.
    kinds: Vec<Kind>,
    /// Per candidate: the index of its type in `kinds`.
    kind_of: Vec<usize>,
    /// Expected execution ticks, one row of machines per present type.
    exec: Vec<f64>,
    /// MM: candidate indices grouped by type, each group in id order.
    members: Vec<usize>,
    /// MSD, MMU: the unassigned set as indices into the candidates.
    unassigned: Vec<usize>,
}

/// One task type present among the candidates.
#[derive(Debug, Clone, Copy)]
struct Kind {
    /// Its phase-1 best (machine, completion), or `None` until phase 2
    /// next needs it.
    best: Option<(usize, f64)>,
    /// MM: its group in `members` is `next..end`, the lowest unassigned
    /// id at `next`. While grouping, `end` counts the members.
    next: usize,
    end: usize,
}

impl TwoPhase {
    /// Creates a two-phase heuristic with the given phase-2 rule.
    pub fn new(name: &'static str, phase2: Phase2) -> Self {
        Self {
            name,
            phase2,
            ready: Vec::new(),
            slots: Vec::new(),
            call: 0,
            kind_at: Vec::new(),
            kinds: Vec::new(),
            kind_of: Vec::new(),
            exec: Vec::new(),
            members: Vec::new(),
            unassigned: Vec::new(),
        }
    }

    /// Groups the candidates by task type, reading each present type's
    /// execution row once.
    fn group(&mut self, view: &SystemView<'_>, candidates: &[Task]) {
        let n_machines = view.n_machines();
        self.call += 1;
        self.kinds.clear();
        self.kind_of.clear();
        self.exec.clear();
        for task in candidates {
            let t = task.type_id.0 as usize;
            if t >= self.kind_at.len() {
                self.kind_at.resize(t + 1, (0, 0));
            }
            let (call, k) = self.kind_at[t];
            let k = if call == self.call {
                k
            } else {
                let k = self.kinds.len();
                self.kind_at[t] = (self.call, k);
                self.kinds.push(Kind {
                    best: None,
                    next: 0,
                    end: 0,
                });
                self.exec.extend((0..n_machines).map(|m| {
                    view.expected_exec_ticks(MachineId(m as u16), task.type_id)
                }));
                k
            };
            self.kinds[k].end += 1;
            self.kind_of.push(k);
        }
    }

    /// Phase 1 for present type `k`, recomputed if a commit invalidated
    /// it.
    fn best_of(&mut self, k: usize) -> Option<(usize, f64)> {
        let n_machines = self.ready.len();
        let kind = &mut self.kinds[k];
        if kind.best.is_none() {
            let row = &self.exec[k * n_machines..];
            kind.best = best_machine(row, &self.ready, &self.slots);
        }
        kind.best
    }

    /// Commits a task of present type `k` to machine `m`. Only the
    /// types whose best machine was `m` can have a new best (every
    /// other machine is unchanged); phase 2 recomputes those when it
    /// next needs one.
    fn commit(
        &mut self,
        k: usize,
        m: usize,
        task: &Task,
        out: &mut Vec<Assignment>,
    ) {
        self.ready[m] += self.exec[k * self.ready.len() + m];
        self.slots[m] -= 1;
        out.push(Assignment {
            task: task.id,
            machine: MachineId(m as u16),
        });
        for kind in &mut self.kinds {
            if kind.best.is_some_and(|(b, _)| b == m) {
                kind.best = None;
            }
        }
    }

    /// MM's phase 2 by type: the winner is the lexicographic minimum,
    /// over the types with a task left, of (phase-1 completion, lowest
    /// unassigned id).
    fn min_min(&mut self, candidates: &[Task], out: &mut Vec<Assignment>) {
        // Counting sort of the candidate indices into per-type groups,
        // each then sorted by id (in the core's arrival order the ids
        // already ascend).
        let mut at = 0;
        for kind in &mut self.kinds {
            let len = kind.end;
            kind.next = at;
            kind.end = at;
            at += len;
        }
        self.members.clear();
        self.members.resize(candidates.len(), 0);
        for (ti, &k) in self.kind_of.iter().enumerate() {
            self.members[self.kinds[k].end] = ti;
            self.kinds[k].end += 1;
        }
        for kind in &self.kinds {
            self.members[kind.next..kind.end]
                .sort_unstable_by_key(|&ti| candidates[ti].id);
        }
        let mut left = candidates.len();
        while left > 0 && self.slots.iter().any(|&s| s > 0) {
            // (type, machine, completion, candidate index)
            let mut winner: Option<(usize, usize, f64, usize)> = None;
            for k in 0..self.kinds.len() {
                let Kind { next, end, .. } = self.kinds[k];
                if next == end {
                    continue;
                }
                let Some((machine, completion)) = self.best_of(k) else {
                    break;
                };
                let ti = self.members[next];
                let better = winner.is_none_or(|(_, _, wcomp, wti)| {
                    completion < wcomp
                        || (completion == wcomp
                            && candidates[ti].id < candidates[wti].id)
                });
                if better {
                    winner = Some((k, machine, completion, ti));
                }
            }
            let Some((k, m, _, ti)) = winner else {
                break;
            };
            self.kinds[k].next += 1;
            left -= 1;
            self.commit(k, m, &candidates[ti], out);
        }
    }

    /// MSD's and MMU's phase 2: a scan of every unassigned task per
    /// proposal.
    fn scan(&mut self, candidates: &[Task], out: &mut Vec<Assignment>) {
        self.unassigned.clear();
        self.unassigned.extend(0..candidates.len());
        while !self.unassigned.is_empty() && self.slots.iter().any(|&s| s > 0) {
            // The winning (unassigned index, machine, completion).
            let mut winner: Option<(usize, usize, f64)> = None;
            for idx in 0..self.unassigned.len() {
                let ti = self.unassigned[idx];
                let task = &candidates[ti];
                let Some((machine, completion)) =
                    self.best_of(self.kind_of[ti])
                else {
                    break;
                };
                let better = match (winner, self.phase2) {
                    (None, _) => true,
                    (Some((widx, _, wcomp)), Phase2::SoonestDeadline) => {
                        let w = &candidates[self.unassigned[widx]];
                        task.deadline < w.deadline
                            || (task.deadline == w.deadline
                                && completion < wcomp)
                    }
                    (Some((widx, _, wcomp)), Phase2::MaxUrgency) => {
                        let w = &candidates[self.unassigned[widx]];
                        let u_t =
                            urgency(task.deadline.ticks() as f64, completion);
                        let u_w = urgency(w.deadline.ticks() as f64, wcomp);
                        u_t > u_w || (u_t == u_w && task.id < w.id)
                    }
                    (Some(_), Phase2::MinCompletion) => {
                        unreachable!("MM selects by type")
                    }
                };
                if better {
                    winner = Some((idx, machine, completion));
                }
            }
            let Some((idx, m, _)) = winner else {
                break;
            };
            let ti = self.unassigned.swap_remove(idx);
            self.commit(self.kind_of[ti], m, &candidates[ti], out);
        }
    }
}

/// Phase 1 for one task type with execution row `exec`: the machine
/// with minimum expected completion among those with a free virtual
/// slot, the lowest index winning ties; `None` when every slot is full.
fn best_machine(
    exec: &[f64],
    ready: &[f64],
    slots: &[usize],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (m, (&r, &s)) in ready.iter().zip(slots).enumerate() {
        if s == 0 {
            continue;
        }
        let completion = r + exec[m];
        if best.is_none_or(|(_, c)| completion < c) {
            best = Some((m, completion));
        }
    }
    best
}

/// MinCompletion–MinCompletion (Min-Min).
#[allow(clippy::upper_case_acronyms)]
pub struct MM;
/// MinCompletion–Soonest Deadline.
#[allow(clippy::upper_case_acronyms)]
pub struct MSD;
/// MinCompletion–MaxUrgency.
#[allow(clippy::upper_case_acronyms)]
pub struct MMU;

impl MM {
    /// Builds the MM mapper (a [`TwoPhase`] with the MinCompletion rule).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> TwoPhase {
        TwoPhase::new("MM", Phase2::MinCompletion)
    }
}

impl MSD {
    /// Builds the MSD mapper (a [`TwoPhase`] with the SoonestDeadline
    /// rule).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> TwoPhase {
        TwoPhase::new("MSD", Phase2::SoonestDeadline)
    }
}

impl MMU {
    /// Builds the MMU mapper (a [`TwoPhase`] with the MaxUrgency rule).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> TwoPhase {
        TwoPhase::new("MMU", Phase2::MaxUrgency)
    }
}

/// Urgency of Eq. 3, made total: a non-positive gap means the deadline
/// is at or before the expected completion — maximally urgent, modelled
/// as +∞ ordered by how hopeless the gap is (least negative first).
fn urgency(deadline_ticks: f64, completion_ticks: f64) -> f64 {
    let gap = deadline_ticks - completion_ticks;
    if gap <= 0.0 {
        // Non-positive gap: Eq. 3's urgency diverges as the gap closes,
        // so such tasks rank above every feasible one (ties broken by id
        // in the selection loop).
        f64::MAX
    } else {
        1.0 / gap
    }
}

impl BatchMapper for TwoPhase {
    fn name(&self) -> &str {
        self.name
    }

    fn select(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.select_into(view, candidates, &mut out);
        out
    }

    /// The real implementation: the scheduler core calls this on the
    /// hot path with a reused output buffer, and the virtual machine
    /// state lives in reused scratch vectors — a steady-state mapping
    /// round allocates nothing.
    fn select_into(
        &mut self,
        view: &SystemView<'_>,
        candidates: &[Task],
        out: &mut Vec<Assignment>,
    ) {
        let n_machines = view.n_machines();
        // Virtual machine state for this mapping event.
        self.ready.clear();
        self.ready.extend(
            (0..n_machines)
                .map(|m| view.expected_ready_ticks(MachineId(m as u16))),
        );
        self.slots.clear();
        self.slots.extend(
            (0..n_machines).map(|m| view.free_slots(MachineId(m as u16))),
        );
        self.group(view, candidates);
        match self.phase2 {
            Phase2::MinCompletion => self.min_min(candidates, out),
            Phase2::SoonestDeadline | Phase2::MaxUrgency => {
                self.scan(candidates, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taskprune_model::{
        BinSpec, Cluster, Machine, MachineTypeId, PetMatrix, SimTime, TaskId,
        TaskTypeId,
    };
    use taskprune_prob::Pmf;
    use taskprune_sim::queue::MachineQueue;
    use taskprune_sim::queue_testing::make_queues;

    /// 2 machines × 2 task types: machine 0 fast for both types but
    /// contended; machine 1 slower.
    fn pet() -> PetMatrix {
        PetMatrix::new(
            BinSpec::new(100),
            2,
            2,
            vec![
                Pmf::point_mass(2), // m0 t0
                Pmf::point_mass(3), // m0 t1
                Pmf::point_mass(4), // m1 t0
                Pmf::point_mass(6), // m1 t1
            ],
        )
    }

    fn task(id: u64, type_id: u16, deadline: u64) -> Task {
        Task::new(id, TaskTypeId(type_id), SimTime(0), SimTime(deadline))
    }

    fn assignments_of(
        mapper: &mut TwoPhase,
        candidates: &[Task],
    ) -> Vec<Assignment> {
        let pet = pet();
        let cluster = Cluster::one_per_type(2);
        let queues = make_queues(&cluster, 2, 256);
        let view = SystemView::new(SimTime(0), &queues, &pet);
        mapper.select(&view, candidates)
    }

    #[test]
    fn mm_picks_global_minimum_first() {
        let mut mm = MM::new();
        // t0 (type 0) completes at 250 on m0; t1 (type 1) at 350 on m0.
        let cands = vec![task(0, 1, 100_000), task(1, 0, 100_000)];
        let out = assignments_of(&mut mm, &cands);
        // First assignment must be task 1 (the min-min pair) on m0.
        assert_eq!(
            out[0],
            Assignment {
                task: TaskId(1),
                machine: MachineId(0)
            }
        );
        // Everything eventually assigned (4 slots for 2 tasks).
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mm_fills_virtual_queues_before_spilling() {
        let mut mm = MM::new();
        // Four type-0 tasks: m0 exec 250, m1 exec 450.
        // Virtual ready times: m0: 250, 500 → then m1 wins at 450 once
        // m0's accumulated completion exceeds it.
        let cands: Vec<Task> = (0..4).map(|i| task(i, 0, 100_000)).collect();
        let out = assignments_of(&mut mm, &cands);
        assert_eq!(out.len(), 4);
        let to_m0 = out.iter().filter(|a| a.machine == MachineId(0)).count();
        let to_m1 = out.iter().filter(|a| a.machine == MachineId(1)).count();
        // m0: completions 250, 500; m1: 450, 900 → 2 apiece.
        assert_eq!((to_m0, to_m1), (2, 2));
    }

    #[test]
    fn msd_orders_by_deadline() {
        let mut msd = MSD::new();
        let cands = vec![
            task(0, 0, 50_000),
            task(1, 0, 10_000), // soonest deadline → first
            task(2, 0, 30_000),
        ];
        let out = assignments_of(&mut msd, &cands);
        assert_eq!(out[0].task, TaskId(1));
        assert_eq!(out[1].task, TaskId(2));
        assert_eq!(out[2].task, TaskId(0));
    }

    #[test]
    fn mmu_prefers_tightest_feasible_gap() {
        let mut mmu = MMU::new();
        // Both type 0 → completion 250 on m0 (first pick).
        // Task 0: gap = 10_000 − 250; task 1: gap = 600 − 250 (tighter →
        // more urgent → picked first).
        let cands = vec![task(0, 0, 10_000), task(1, 0, 600)];
        let out = assignments_of(&mut mmu, &cands);
        assert_eq!(out[0].task, TaskId(1));
    }

    #[test]
    fn mmu_treats_hopeless_tasks_as_most_urgent() {
        let mut mmu = MMU::new();
        // Task 1's deadline (100) is below any completion (250):
        // Eq. 3's limit makes it maximally urgent.
        let cands = vec![task(0, 0, 10_000), task(1, 0, 100)];
        let out = assignments_of(&mut mmu, &cands);
        assert_eq!(out[0].task, TaskId(1));
    }

    #[test]
    fn respects_slot_limits() {
        let pet = pet();
        let cluster = Cluster::one_per_type(2);
        let mut queues = make_queues(&cluster, 1, 256);
        // Fill machine 0's single slot.
        queues[0].admit(task(99, 0, 100_000));
        let view = SystemView::new(SimTime(0), &queues, &pet);
        let mut mm = MM::new();
        let cands: Vec<Task> = (0..3).map(|i| task(i, 0, 100_000)).collect();
        let out = mm.select(&view, &cands);
        // Only machine 1's single slot remains.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].machine, MachineId(1));
    }

    #[test]
    fn empty_candidates_yield_no_assignments() {
        let mut mm = MM::new();
        assert!(assignments_of(&mut mm, &[]).is_empty());
    }

    #[test]
    fn deterministic_output() {
        let cands: Vec<Task> = (0..6)
            .map(|i| task(i, (i % 2) as u16, 10_000 + i * 13))
            .collect();
        let mut a = MMU::new();
        let mut b = MMU::new();
        assert_eq!(
            assignments_of(&mut a, &cands),
            assignments_of(&mut b, &cands)
        );
    }

    /// The textbook two-phase loop: phase 1 recomputed for every
    /// unassigned task at every step. The reference the per-type phase
    /// 1 must reproduce exactly.
    fn naive_select(
        phase2: Phase2,
        view: &SystemView<'_>,
        candidates: &[Task],
    ) -> Vec<Assignment> {
        let n_machines = view.n_machines();
        let mut ready: Vec<f64> = (0..n_machines)
            .map(|m| view.expected_ready_ticks(MachineId(m as u16)))
            .collect();
        let mut slots: Vec<usize> = (0..n_machines)
            .map(|m| view.free_slots(MachineId(m as u16)))
            .collect();
        let mut unassigned: Vec<usize> = (0..candidates.len()).collect();
        let mut out = Vec::new();
        while !unassigned.is_empty() && slots.iter().any(|&s| s > 0) {
            let mut winner: Option<(usize, MachineId, f64)> = None;
            for (idx, &ti) in unassigned.iter().enumerate() {
                let task = &candidates[ti];
                let mut best: Option<(MachineId, f64)> = None;
                for m in 0..n_machines {
                    if slots[m] == 0 {
                        continue;
                    }
                    let mid = MachineId(m as u16);
                    let completion =
                        ready[m] + view.expected_exec_ticks(mid, task.type_id);
                    if best.is_none_or(|(_, c)| completion < c) {
                        best = Some((mid, completion));
                    }
                }
                let Some((machine, completion)) = best else {
                    break;
                };
                let better = match (winner, phase2) {
                    (None, _) => true,
                    (Some((widx, _, wcomp)), Phase2::MinCompletion) => {
                        completion < wcomp
                            || (completion == wcomp
                                && task.id < candidates[unassigned[widx]].id)
                    }
                    (Some((widx, _, wcomp)), Phase2::SoonestDeadline) => {
                        let w = &candidates[unassigned[widx]];
                        task.deadline < w.deadline
                            || (task.deadline == w.deadline
                                && completion < wcomp)
                    }
                    (Some((widx, _, wcomp)), Phase2::MaxUrgency) => {
                        let w = &candidates[unassigned[widx]];
                        let u_t =
                            urgency(task.deadline.ticks() as f64, completion);
                        let u_w = urgency(w.deadline.ticks() as f64, wcomp);
                        u_t > u_w || (u_t == u_w && task.id < w.id)
                    }
                };
                if better {
                    winner = Some((idx, machine, completion));
                }
            }
            let Some((idx, machine, _)) = winner else {
                break;
            };
            let task = &candidates[unassigned.swap_remove(idx)];
            let m = machine.0 as usize;
            ready[m] += view.expected_exec_ticks(machine, task.type_id);
            slots[m] -= 1;
            out.push(Assignment {
                task: task.id,
                machine,
            });
        }
        out
    }

    /// Tie-heavy inputs: PET point masses from three bins (so equal
    /// completions are common), machines 0/2 and 1/3 of the same type
    /// (so equal completions across machines are common), four task
    /// types, three deadlines, non-monotone ids, and queues pre-loaded
    /// to uneven depths.
    #[allow(clippy::type_complexity)]
    fn arb_tie_heavy(
    ) -> impl Strategy<Value = (Vec<u64>, Vec<(u16, u64)>, Vec<usize>)> {
        let pet_bins = prop::collection::vec(1u64..4, 2 * 4);
        let tasks = prop::collection::vec((0u16..4, 1u64..4), 0..40);
        let backlog = prop::collection::vec(0usize..4, 4);
        (pet_bins, tasks, backlog)
    }

    proptest! {
        #[test]
        fn per_type_phase_one_matches_the_naive_loop(
            (bins, raw, backlog) in arb_tie_heavy()
        ) {
            let pet = PetMatrix::new(
                BinSpec::new(100),
                2,
                4,
                bins.into_iter().map(Pmf::point_mass).collect(),
            );
            let cluster = Cluster::new(
                (0..4).map(|m| Machine::new(m, MachineTypeId(m % 2))).collect(),
            );
            let mut queues = make_queues(&cluster, 3, 256);
            let mut id = 1_000u64;
            for (m, &depth) in backlog.iter().enumerate() {
                for _ in 0..depth.min(3) {
                    queues[m].admit(Task::new(
                        id,
                        TaskTypeId((id % 4) as u16),
                        SimTime(0),
                        SimTime(1_000_000),
                    ));
                    id += 1;
                }
            }
            let tasks: Vec<Task> = raw
                .iter()
                .enumerate()
                .map(|(i, &(type_id, d))| {
                    Task::new(
                        (i as u64 * 37) % 101,
                        TaskTypeId(type_id),
                        SimTime(0),
                        SimTime(d * 500),
                    )
                })
                .collect();
            let view = SystemView::new(SimTime(0), &queues, &pet);
            for phase2 in [
                Phase2::MinCompletion,
                Phase2::SoonestDeadline,
                Phase2::MaxUrgency,
            ] {
                let mut mapper = TwoPhase::new("under-test", phase2);
                // A first call on a different candidate set must leave
                // nothing behind in the reused scratch.
                let half = &tasks[tasks.len() / 2..];
                prop_assert_eq!(
                    mapper.select(&view, half),
                    naive_select(phase2, &view, half)
                );
                prop_assert_eq!(
                    mapper.select(&view, &tasks),
                    naive_select(phase2, &view, &tasks)
                );
            }
        }

        /// Whole mapping events, the way the core's Step 7–10 loop
        /// drives a mapper: every round's proposals leave the candidate
        /// set, a random subset of them is admitted to the real queues
        /// (the rest are deferred and wait for the next event), and the
        /// next round maps what is left. Every round must equal the
        /// naive loop over freshly rebuilt queues, so neither reused
        /// scratch nor a stale queue memo can pass unseen. Up to 16 task
        /// types with sparse type and task ids, one type often holding
        /// most of the candidates, and point-mass PETs from three bins,
        /// so equal completions across types are common.
        #[test]
        fn whole_events_match_the_naive_loop_round_by_round(
            (bins, capacity, backlog) in (
                prop::collection::vec(1u64..4, 2 * 16),
                1usize..4,
                prop::collection::vec(0usize..4, 4),
            ),
            pool in prop::collection::vec(0u16..16, 1..6),
            events in prop::collection::vec(
                prop::collection::vec((0usize..8, 1u64..4), 0..16),
                1..4,
            ),
            admit_mask in any::<u64>()
        ) {
            let pet = PetMatrix::new(
                BinSpec::new(100),
                2,
                16,
                bins.into_iter().map(Pmf::point_mass).collect(),
            );
            let cluster = Cluster::new(
                (0..4).map(|m| Machine::new(m, MachineTypeId(m % 2))).collect(),
            );
            for phase2 in [
                Phase2::MinCompletion,
                Phase2::SoonestDeadline,
                Phase2::MaxUrgency,
            ] {
                let mut queues = make_queues(&cluster, capacity, 256);
                for (m, &depth) in backlog.iter().enumerate() {
                    for i in 0..depth.min(capacity) as u64 {
                        queues[m].admit(Task::new(
                            500 + 10 * m as u64 + i,
                            TaskTypeId(pool[i as usize % pool.len()]),
                            SimTime(0),
                            SimTime(1_000_000),
                        ));
                    }
                }
                let mut mapper = TwoPhase::new("under-test", phase2);
                let mut pending: Vec<Task> = Vec::new();
                let (mut next, mut proposed) = (0u64, 0u32);
                let mut now = SimTime(0);
                for arrivals in &events {
                    // A type choice past the pool lands on its first
                    // type; ids are unique, sparse and out of order.
                    for &(choice, d) in arrivals {
                        let type_id = pool.get(choice).unwrap_or(&pool[0]);
                        pending.push(Task::new(
                            10_000_000_000 + next * 2_654_435_761 % 4_294_967_311,
                            TaskTypeId(*type_id),
                            now,
                            SimTime(now.ticks() + d * 400),
                        ));
                        next += 1;
                    }
                    let mut candidates = pending.clone();
                    while !candidates.is_empty()
                        && queues.iter().any(|q| q.free_slots() > 0)
                    {
                        let got = mapper.select(
                            &SystemView::new(now, &queues, &pet),
                            &candidates,
                        );
                        let fresh = rebuilt(&cluster, capacity, &queues);
                        let want = naive_select(
                            phase2,
                            &SystemView::new(now, &fresh, &pet),
                            &candidates,
                        );
                        prop_assert_eq!(&got, &want, "{:?} at {:?}", phase2, now);
                        let undecided = candidates.len();
                        for a in &got {
                            let m = a.machine.0 as usize;
                            if queues[m].free_slots() == 0 {
                                continue; // stale, as in the core
                            }
                            let Some(ci) =
                                candidates.iter().position(|t| t.id == a.task)
                            else {
                                continue;
                            };
                            let task = candidates.remove(ci);
                            if admit_mask >> (proposed % 64) & 1 == 1 {
                                pending.retain(|t| t.id != task.id);
                                queues[m].admit(task);
                            }
                            proposed += 1;
                        }
                        if candidates.len() == undecided {
                            break;
                        }
                    }
                    // Between events: idle machines start their heads,
                    // and the clock moves on.
                    for q in &mut queues {
                        if let Some(head) = q.pop_head_for_start() {
                            q.set_running(head, now);
                        }
                    }
                    now = SimTime(now.ticks() + 150);
                }
            }
        }
    }

    /// A fresh copy of every queue — the same running task and waiting
    /// list — with none of its memos filled.
    fn rebuilt(
        cluster: &Cluster,
        capacity: usize,
        queues: &[MachineQueue],
    ) -> Vec<MachineQueue> {
        let mut fresh = make_queues(cluster, capacity, 256);
        for (f, q) in fresh.iter_mut().zip(queues) {
            if let Some(rt) = q.running() {
                f.set_running(rt.task, rt.start);
            }
            for task in q.waiting() {
                f.admit(*task);
            }
        }
        fresh
    }
}
