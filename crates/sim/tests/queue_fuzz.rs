//! Property-based fuzzing of the machine-queue estimator state.
//!
//! The lazy incremental prefix-chain maintenance (single tail
//! convolution on admit, suffix-only repair after pops and drops,
//! coalescing of back-to-back mutations) is the simulator's most
//! intricate invariant. These tests drive a queue through random
//! operation sequences and assert that the incrementally-maintained
//! chains and estimates always equal those of a freshly rebuilt queue
//! with identical contents — the chains **bit-for-bit**, because the
//! incremental repair performs the exact same convolve-then-truncate
//! operations a from-scratch rebuild does.
//!
//! The Eq. 2 pricing memo is covered the same way: clock moves that
//! leave the queue alone (within a bin and across bins), cancellations,
//! and probes whose deadlines fall below the memo's table, inside it and
//! past its saturation point must all price bit-for-bit like a rebuilt
//! queue and like the direct `chance_of_success` sum.

use proptest::prelude::*;
use taskprune_model::{
    BinSpec, Cluster, MachineId, MachineTypeId, PetMatrix, SimTime, Task,
    TaskId, TaskTypeId,
};
use taskprune_prob::Pmf;
use taskprune_sim::queue::{chance_of_success, MachineQueue};

#[derive(Debug, Clone)]
enum Op {
    Admit(u16),
    PopHeadForStart,
    CompleteRunning,
    DropByIndex(usize),
    /// Proactive batch drop: every waiting index whose bit is set in the
    /// mask is removed in one `remove_waiting` call (exercises the
    /// sorted-id lookup and the first-changed-position invalidation).
    DropBatch(u8),
    ReactiveDrops(u64),
    /// Moves the clock without touching the queue.
    Advance(u64),
    /// Cancels the running task, if any (the late-cancellation policy).
    CancelRunning,
    /// Starts a task that never waited here on an idle machine: a
    /// start without a pop, so nothing but the start itself changes.
    StartDirect(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..3).prop_map(Op::Admit),
        Just(Op::PopHeadForStart),
        Just(Op::CompleteRunning),
        (0usize..6).prop_map(Op::DropByIndex),
        any::<u8>().prop_map(Op::DropBatch),
        (0u64..20_000).prop_map(Op::ReactiveDrops),
        // Mostly within one 100-tick bin.
        (1u64..40).prop_map(Op::Advance),
        // Always across at least one bin boundary.
        (100u64..900).prop_map(Op::Advance),
        Just(Op::CancelRunning),
        (0u16..3).prop_map(Op::StartDirect),
    ]
}

fn pet_matrix() -> PetMatrix {
    PetMatrix::new(
        BinSpec::new(100),
        1,
        3,
        vec![
            Pmf::from_points(&[(1, 0.25), (3, 0.75)]).unwrap(),
            Pmf::point_mass(5),
            Pmf::from_points(&[(2, 0.4), (4, 0.4), (9, 0.2)]).unwrap(),
        ],
    )
}

/// Replays the queue's current waiting list into a fresh queue, which
/// recomputes every chain from scratch.
fn rebuild_reference(q: &MachineQueue, capacity: usize) -> MachineQueue {
    let cluster = Cluster::one_per_type(1);
    let mut fresh =
        MachineQueue::new(cluster.machine(MachineId(0)), capacity, 256);
    if let Some(rt) = q.running() {
        fresh.set_running(rt.task, rt.start);
    }
    for task in q.waiting() {
        fresh.admit(*task);
    }
    fresh
}

/// Applies one fuzz op to `q`, threading the id counter and the clock —
/// the single definition both equivalence proptests replay, so a new
/// `Op` variant cannot be exercised in one test but not the other.
fn apply_op(
    q: &mut MachineQueue,
    op: Op,
    next_id: &mut u64,
    now: &mut SimTime,
) {
    match op {
        Op::Admit(type_id) => {
            if q.free_slots() > 0 {
                let task = Task::new(
                    *next_id,
                    TaskTypeId(type_id),
                    *now,
                    SimTime(now.ticks() + 1_500 + *next_id * 37),
                );
                *next_id += 1;
                q.admit(task);
            }
        }
        Op::PopHeadForStart => {
            if let Some(task) = q.pop_head_for_start() {
                *now = SimTime(now.ticks() + 50);
                q.set_running(task, *now);
            }
        }
        Op::CompleteRunning => {
            if q.is_busy() {
                // The queue no longer stores a finish time (that is the
                // driver's knowledge); the fuzz models a fixed 400-tick
                // execution, clamped monotonic.
                let rt = q.complete_running();
                *now = SimTime(now.ticks().max(rt.start.ticks() + 400));
            }
        }
        Op::DropByIndex(i) => {
            let ids: Vec<TaskId> = q.waiting().map(|t| t.id).collect();
            if let Some(&id) = ids.get(i) {
                q.remove_waiting(&[id]);
            }
        }
        Op::DropBatch(mask) => {
            let ids: Vec<TaskId> = q
                .waiting()
                .enumerate()
                .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
                .map(|(_, t)| t.id)
                .collect();
            q.remove_waiting(&ids);
        }
        Op::ReactiveDrops(advance) => {
            *now = SimTime(now.ticks() + advance);
            q.drop_missed_deadlines(*now);
        }
        Op::Advance(ticks) => *now = SimTime(now.ticks() + ticks),
        Op::CancelRunning => {
            if q.is_busy() {
                q.cancel_running();
            }
        }
        Op::StartDirect(type_id) => {
            if !q.is_busy() {
                let deadline = SimTime(now.ticks() + 3_000);
                let task =
                    Task::new(*next_id, TaskTypeId(type_id), *now, deadline);
                *next_id += 1;
                q.set_running(task, *now);
            }
        }
    }
}

/// Deadline bins around the pricing memo's table for the queue's state
/// at `now`: below the base window (where the table reads 0), inside
/// the window, at the table's top, and past the point where every term
/// saturates at the chain's window mass.
fn probe_deadline_bins(
    q: &MachineQueue,
    pet: &PetMatrix,
    now: SimTime,
) -> Vec<u64> {
    let base = q.base_pmf(pet.bin_spec(), pet, now);
    let (_, cdfs) = q.chain_snapshot(pet);
    let top = base.max_bin() + cdfs[q.waiting_len()].max_bin() + 1;
    vec![
        0,
        base.min_bin().saturating_sub(1),
        base.min_bin() + 2,
        (base.min_bin() + top) / 2,
        top,
        top + 9, // the widest PET reaches 9 bins past the top
        top + 60,
        pet.bin_spec().deadline_bin(SimTime(now.ticks() + 2_500)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_estimates_match_rebuilt_queue(
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        let pet = pet_matrix();
        let capacity = 6;
        let cluster = Cluster::one_per_type(1);
        let mut q = MachineQueue::new(
            cluster.machine(MachineId(0)),
            capacity,
            256,
        );
        let mut next_id = 0u64;
        let mut now = SimTime(0);

        for op in ops {
            apply_op(&mut q, op, &mut next_id, &mut now);

            // The invariant: every estimate the schedulers consume must
            // match a from-scratch rebuild — and the cached chains
            // themselves must match bit-for-bit.
            let reference = rebuild_reference(&q, capacity);
            let spec = pet.bin_spec();
            prop_assert_eq!(q.waiting_len(), reference.waiting_len());
            prop_assert_eq!(
                q.chain_snapshot(&pet),
                reference.chain_snapshot(&pet),
                "incremental chain diverged from a from-scratch rebuild"
            );
            prop_assert!(
                (q.expected_ready_ticks(&pet, now)
                    - reference.expected_ready_ticks(&pet, now))
                .abs()
                    < 1e-9
            );
            // Every probe, in this order, against a rebuilt queue and
            // against the direct Eq. 2 sum: later probes hit memo
            // entries earlier ones filled, and the next op's mutation
            // (or clock move) must not leave any of them stale.
            let base = q.base_pmf(spec, &pet, now);
            let (_, cdfs) = q.chain_snapshot(&pet);
            let chain_cdf = &cdfs[q.waiting_len()];
            for deadline_bin in probe_deadline_bins(&q, &pet, now) {
                for type_id in 0..3u16 {
                    let probe = Task::new(
                        u64::MAX,
                        TaskTypeId(type_id),
                        now,
                        SimTime((deadline_bin + 1) * 100),
                    );
                    let a = q.chance_if_appended(spec, &pet, now, &probe);
                    let b = reference
                        .chance_if_appended(spec, &pet, now, &probe);
                    let direct = chance_of_success(
                        &base,
                        chain_cdf,
                        pet.pet(MachineTypeId(0), TaskTypeId(type_id)),
                        deadline_bin,
                    );
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "chance diverged from a rebuilt queue: {} vs {}", a, b
                    );
                    prop_assert_eq!(
                        a.to_bits(), direct.to_bits(),
                        "chance diverged from the direct sum: {} vs {}",
                        a, direct
                    );
                }
            }
            // The drop-planning scan (with no drops decided) must report
            // the same chances as a rebuilt queue's scan.
            let mut chances_inc = Vec::new();
            q.plan_drops(spec, &pet, now, |_, c| {
                chances_inc.push(c);
                false
            });
            let mut chances_ref = Vec::new();
            reference.plan_drops(spec, &pet, now, |_, c| {
                chances_ref.push(c);
                false
            });
            prop_assert_eq!(chances_inc.len(), chances_ref.len());
            for (a, b) in chances_inc.iter().zip(&chances_ref) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A forced full rebuild (the benchmark baseline) must be a no-op
    /// with respect to the chain contents: whatever lazy state the queue
    /// is in, repairing and rebuilding agree bit-for-bit.
    #[test]
    fn force_full_rebuild_is_idempotent(
        ops in prop::collection::vec(arb_op(), 1..25)
    ) {
        let pet = pet_matrix();
        let cluster = Cluster::one_per_type(1);
        let mut q = MachineQueue::new(
            cluster.machine(MachineId(0)),
            6,
            256,
        );
        let mut next_id = 0u64;
        let mut now = SimTime(0);
        for op in ops {
            apply_op(&mut q, op, &mut next_id, &mut now);
        }
        let lazy = q.chain_snapshot(&pet);
        q.force_full_rebuild(&pet);
        prop_assert_eq!(lazy, q.chain_snapshot(&pet));
    }

    #[test]
    fn plan_drops_never_mutates(
        ops in prop::collection::vec(arb_op(), 1..20),
        drop_mask in prop::collection::vec(any::<bool>(), 8)
    ) {
        let pet = pet_matrix();
        let cluster = Cluster::one_per_type(1);
        let mut q = MachineQueue::new(
            cluster.machine(MachineId(0)),
            8,
            256,
        );
        let mut next_id = 0u64;
        for op in ops {
            if let Op::Admit(type_id) = op {
                if q.free_slots() > 0 {
                    q.admit(
                        Task::new(
                            next_id,
                            TaskTypeId(type_id),
                            SimTime(0),
                            SimTime(2_000 + next_id * 91),
                        ));
                    next_id += 1;
                }
            }
        }
        let before: Vec<TaskId> = q.waiting().map(|t| t.id).collect();
        let spec = pet.bin_spec();
        let mut i = 0;
        let planned = q.plan_drops(spec, &pet, SimTime(0), |_, _| {
            let decision = drop_mask.get(i).copied().unwrap_or(false);
            i += 1;
            decision
        });
        // Planning is read-only regardless of decisions.
        let after: Vec<TaskId> = q.waiting().map(|t| t.id).collect();
        prop_assert_eq!(before.clone(), after);
        // Planned ids are a subset of the waiting set.
        for id in planned {
            prop_assert!(before.contains(&id));
        }
        // And the cached chain state is untouched by the walk.
        let snap = q.chain_snapshot(&pet);
        let reference = rebuild_reference(&q, 8);
        prop_assert_eq!(snap, reference.chain_snapshot(&pet));
    }
}
