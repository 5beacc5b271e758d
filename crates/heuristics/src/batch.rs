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
//! Min-Min (the paper's ref. [22]). Phase 2 still scans the unassigned
//! tasks in order, so the output is identical to recomputing phase 1
//! for every task.
//!
//! Ties: MM and MMU break equal scores by task id. MSD has no id
//! tie-break on purpose: among equal deadlines and completions the
//! first task in scan order wins, and the scan order is the candidate
//! order perturbed by `swap_remove`. That order dependence is part of
//! MSD's pinned behaviour.

use taskprune_model::{MachineId, Task, TaskTypeId};
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
/// calls; no state survives a call.
#[derive(Debug)]
pub struct TwoPhase {
    name: &'static str,
    phase2: Phase2,
    /// Virtual ready-time per machine.
    ready: Vec<f64>,
    /// Virtual free-slot count per machine.
    slots: Vec<usize>,
    /// Unassigned set as indices into the candidate slice.
    unassigned: Vec<usize>,
    /// The task types present among the candidates.
    kinds: Vec<TaskTypeId>,
    /// Per candidate: the index of its type in `kinds`.
    kind_of: Vec<usize>,
    /// Expected execution ticks, one row of machines per present type.
    exec: Vec<f64>,
    /// Per present type: its phase-1 best (machine, completion), or
    /// `None` until phase 2 next needs it.
    best: Vec<Option<(usize, f64)>>,
}

impl TwoPhase {
    /// Creates a two-phase heuristic with the given phase-2 rule.
    pub fn new(name: &'static str, phase2: Phase2) -> Self {
        Self {
            name,
            phase2,
            ready: Vec::new(),
            slots: Vec::new(),
            unassigned: Vec::new(),
            kinds: Vec::new(),
            kind_of: Vec::new(),
            exec: Vec::new(),
            best: Vec::new(),
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
        self.unassigned.clear();
        self.unassigned.extend(0..candidates.len());
        // Group the candidates by task type, reading each present
        // type's execution row once.
        self.kinds.clear();
        self.kind_of.clear();
        self.exec.clear();
        for task in candidates {
            let k = match self.kinds.iter().position(|&t| t == task.type_id) {
                Some(k) => k,
                None => {
                    self.kinds.push(task.type_id);
                    self.exec.extend((0..n_machines).map(|m| {
                        view.expected_exec_ticks(
                            MachineId(m as u16),
                            task.type_id,
                        )
                    }));
                    self.kinds.len() - 1
                }
            };
            self.kind_of.push(k);
        }
        self.best.clear();
        self.best.resize(self.kinds.len(), None);

        while !self.unassigned.is_empty() && self.slots.iter().any(|&s| s > 0) {
            // Phase 2: the winning (unassigned index, machine,
            // completion) by the heuristic's rule.
            let mut winner: Option<(usize, usize, f64)> = None;
            for (idx, &ti) in self.unassigned.iter().enumerate() {
                let task = &candidates[ti];
                // Phase 1: best machine (min expected completion) for
                // the task's type, among machines with a free slot.
                let k = self.kind_of[ti];
                if self.best[k].is_none() {
                    let row = &self.exec[k * n_machines..];
                    self.best[k] = best_machine(row, &self.ready, &self.slots);
                }
                let Some((machine, completion)) = self.best[k] else {
                    break;
                };
                let better = match (winner, self.phase2) {
                    (None, _) => true,
                    (Some((widx, _, wcomp)), Phase2::MinCompletion) => {
                        completion < wcomp
                            || (completion == wcomp
                                && task.id
                                    < candidates[self.unassigned[widx]].id)
                    }
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
                };
                if better {
                    winner = Some((idx, machine, completion));
                }
            }
            let Some((idx, m, _)) = winner else {
                break;
            };
            let ti = self.unassigned.swap_remove(idx);
            self.ready[m] += self.exec[self.kind_of[ti] * n_machines + m];
            self.slots[m] -= 1;
            out.push(Assignment {
                task: candidates[ti].id,
                machine: MachineId(m as u16),
            });
            // Only the types whose best machine was just filled can
            // have a new best (every other machine is unchanged); phase
            // 2 recomputes those when it next meets one.
            for best in &mut self.best {
                if best.is_some_and(|(b, _)| b == m) {
                    *best = None;
                }
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
    };
    use taskprune_prob::Pmf;
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
    }
}
