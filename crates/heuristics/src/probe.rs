//! Admission-time estimate probes, and the probability-aware routing
//! policy built on them.
//!
//! The mapping heuristics and the pruning mechanism both reduce to two
//! per-(machine, task) estimates: the expected completion time (the
//! MCT/MM/MSD objective) and the Eq. 2 chance of success (the pruner's
//! decision variable, computed from the Eq. 1 prefix chains each queue
//! caches incrementally). This module exposes both as standalone
//! *probes* over a [`SystemView`], so layers above the heuristics — the
//! federation gateway's routing in particular — can ask "how would this
//! task fare here, right now?" without instantiating a mapper.
//!
//! [`BestChanceRoute`] is the probability-aware [`RoutePolicy`] of the
//! federation layer: each arrival goes to the shard whose best
//! admission-time chance of success is highest, i.e. routing reuses the
//! same cached prefix chains the per-shard pruners maintain anyway.

use taskprune_model::{MachineId, Task};
use taskprune_sim::{RoutePolicy, ShardView, SystemView};

/// The best Eq. 2 chance of success `task` would have if appended to
/// any machine **with a free waiting slot** right now, with the machine
/// achieving it. `None` when every queue is full.
///
/// Ties break to the lowest machine id, so the probe is deterministic.
pub fn best_admission_chance(
    view: &SystemView<'_>,
    task: &Task,
) -> Option<(MachineId, f64)> {
    let mut best: Option<(MachineId, f64)> = None;
    for i in 0..view.n_machines() {
        let machine = MachineId(i as u16);
        if view.free_slots(machine) == 0 {
            continue;
        }
        let chance = view.chance_if_appended(machine, task);
        if best.is_none_or(|(_, b)| chance > b) {
            best = Some((machine, chance));
        }
    }
    best
}

/// The machine minimising `task`'s expected completion time among those
/// with a free waiting slot (the MCT objective as a probe), with that
/// expected completion in ticks. `None` when every queue is full.
pub fn best_expected_completion(
    view: &SystemView<'_>,
    task: &Task,
) -> Option<(MachineId, f64)> {
    let mut best: Option<(MachineId, f64)> = None;
    for i in 0..view.n_machines() {
        let machine = MachineId(i as u16);
        if view.free_slots(machine) == 0 {
            continue;
        }
        let completion = view.expected_completion_ticks(machine, task);
        if best.is_none_or(|(_, b)| completion < b) {
            best = Some((machine, completion));
        }
    }
    best
}

/// Probability-aware federation routing: each arrival goes to the shard
/// on which its admission-time chance of success
/// ([`best_admission_chance`]) is highest.
///
/// Ties break to the lowest shard index; when every shard's machine
/// queues are full (no admission chance is defined anywhere), the
/// arrival falls back to the least-loaded shard so it still lands where
/// the batch queue is shortest.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestChanceRoute;

impl BestChanceRoute {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl RoutePolicy for BestChanceRoute {
    fn name(&self) -> &str {
        "best-chance"
    }

    fn route(&mut self, shards: &[ShardView<'_>], task: &Task) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for shard in shards {
            let Some((_, chance)) = best_admission_chance(shard.view(), task)
            else {
                continue;
            };
            if best.is_none_or(|(_, b)| chance > b) {
                best = Some((shard.index(), chance));
            }
        }
        match best {
            Some((index, _)) => index,
            // All machine queues full everywhere: balance the backlog.
            None => shards
                .iter()
                .min_by_key(|s| (s.tasks_in_system(), s.index()))
                .map(ShardView::index)
                .expect("gateway guarantees at least one shard"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::{BinSpec, Cluster, PetMatrix, SimTime, TaskTypeId};
    use taskprune_prob::Pmf;
    use taskprune_sim::queue::MachineQueue;
    use taskprune_sim::queue_testing::make_queues;

    /// Machine type 0 takes 2 bins, type 1 takes 6 bins.
    fn pet() -> PetMatrix {
        PetMatrix::new(
            BinSpec::new(100),
            2,
            1,
            vec![Pmf::point_mass(2), Pmf::point_mass(6)],
        )
    }

    fn task(id: u64, deadline: u64) -> Task {
        Task::new(id, TaskTypeId(0), SimTime(0), SimTime(deadline))
    }

    fn queues(pet: &PetMatrix) -> Vec<MachineQueue> {
        let _ = pet;
        make_queues(&Cluster::one_per_type(2), 2, 256)
    }

    #[test]
    fn admission_chance_prefers_the_machine_that_makes_the_deadline() {
        let pet = pet();
        let qs = queues(&pet);
        let view = SystemView::new(SimTime(0), &qs, &pet);
        // Deadline at bin 4: certain on the 2-bin machine, hopeless on
        // the 6-bin one.
        let t = task(0, 400);
        let (machine, chance) =
            best_admission_chance(&view, &t).expect("free slots exist");
        assert_eq!(machine, MachineId(0));
        assert!((chance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_skip_full_queues_and_report_none_when_all_full() {
        let pet = pet();
        let mut qs = queues(&pet);
        for i in 0..2 {
            qs[0].admit(task(i, 100_000));
        }
        let view = SystemView::new(SimTime(0), &qs, &pet);
        let t = task(10, 100_000);
        // Machine 0 full: both probes must fall through to machine 1.
        assert_eq!(
            best_admission_chance(&view, &t).map(|(m, _)| m),
            Some(MachineId(1))
        );
        assert_eq!(
            best_expected_completion(&view, &t).map(|(m, _)| m),
            Some(MachineId(1))
        );
        for i in 2..4 {
            qs[1].admit(task(i, 100_000));
        }
        let view = SystemView::new(SimTime(0), &qs, &pet);
        assert_eq!(best_admission_chance(&view, &t), None);
        assert_eq!(best_expected_completion(&view, &t), None);
    }

    #[test]
    fn expected_completion_prefers_the_faster_machine() {
        let pet = pet();
        let qs = queues(&pet);
        let view = SystemView::new(SimTime(0), &qs, &pet);
        let t = task(0, 100_000);
        let (machine, ticks) =
            best_expected_completion(&view, &t).expect("free slots exist");
        assert_eq!(machine, MachineId(0));
        assert!(ticks < 300.0, "2-bin machine expected, got {ticks}");
    }

    #[test]
    fn best_chance_route_picks_the_emptier_shard() {
        let pet = pet();
        // Shard 0's fast machine is loaded with two tasks (queue full);
        // shard 1 is idle: a tight-deadline task only succeeds there.
        let mut busy = queues(&pet);
        for i in 0..2 {
            busy[0].admit(task(i, 100_000));
        }
        let idle = queues(&pet);
        let views = vec![
            ShardView::new(0, SystemView::new(SimTime(0), &busy, &pet), 0),
            ShardView::new(1, SystemView::new(SimTime(0), &idle, &pet), 0),
        ];
        let mut route = BestChanceRoute::new();
        assert_eq!(route.name(), "best-chance");
        // Deadline bin 4: zero chance anywhere on shard 0 (fast queue
        // full, slow machine needs 6 bins), certain on shard 1's idle
        // fast machine.
        assert_eq!(route.route(&views, &task(9, 400)), 1);
    }

    #[test]
    fn best_chance_route_falls_back_to_least_loaded_when_all_full() {
        let pet = pet();
        let mut a = queues(&pet);
        let mut b = queues(&pet);
        for qs in [&mut a, &mut b] {
            for m in 0..2 {
                for i in 0..2 {
                    qs[m].admit(task((m * 2 + i) as u64, 100_000));
                }
            }
        }
        let views = vec![
            ShardView::new(0, SystemView::new(SimTime(0), &a, &pet), 5),
            ShardView::new(1, SystemView::new(SimTime(0), &b, &pet), 2),
        ];
        let mut route = BestChanceRoute::new();
        assert_eq!(route.route(&views, &task(99, 100_000)), 1);
    }
}
