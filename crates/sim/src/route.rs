//! Routing policies: which shard of a federation receives an arrival.
//!
//! A [`crate::Gateway`] multiplexes one live arrival stream across N
//! independent [`crate::SchedulerCore`] shards. The choice of shard is
//! the federation's one new degree of freedom, so it is a plug-in — a
//! [`RoutePolicy`] sees a read-only [`ShardView`] of every shard (its
//! index and its load) and names the recipient. Two policies ship
//! here: [`RoundRobinRoute`], which reads no shard state, and
//! [`LeastQueuedRoute`], which balances the load. Routing by the Eq. 2
//! chance of success was measured below least-queued on every run of
//! an oversubscribed federation and is not offered: the paper applies
//! Eq. 2 inside one cluster's mapping event, against the queues a task
//! actually joins.
//!
//! The views are live: a policy that reads shard state sees every
//! shard's queues as they stand at the arrival's instant. Such a policy
//! runs on the serial driver, or on one shard of the parallel one
//! ([`crate::ConfigError::ParallelNeedsStatelessRoute`]).
//!
//! Policies only see arrivals that reach routing: a task the
//! function-reuse gate absorbs onto an in-flight primary
//! ([`crate::ReusePolicy`]) piggybacks on the primary's shard and
//! **never advances the policy's cursor** — a round-robin federation
//! with reuse enabled rotates once per *executed* task, not once per
//! submitted one.

use crate::view::SystemView;
use taskprune_model::Task;

/// A read-only snapshot of one shard, handed to routing policies: the
/// shard's index and its load, read from the shard's live queues.
pub struct ShardView<'v> {
    index: usize,
    view: SystemView<'v>,
    pending_batch: usize,
}

impl<'v> ShardView<'v> {
    /// Builds a shard view (gateway-internal; public for policy
    /// tests).
    pub fn new(
        index: usize,
        view: SystemView<'v>,
        pending_batch: usize,
    ) -> Self {
        Self {
            index,
            view,
            pending_batch,
        }
    }

    /// This shard's index within the federation.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Tasks waiting in the shard's batch queue.
    pub fn pending_batch_len(&self) -> usize {
        self.pending_batch
    }

    /// Total tasks currently inside the shard: batch queue + machine
    /// queues + running tasks. The load figure `LeastQueuedRoute`
    /// balances on.
    pub fn tasks_in_system(&self) -> usize {
        let queued: usize = (0..self.view.n_machines())
            .map(|i| {
                let m = taskprune_model::MachineId(i as u16);
                self.view.waiting_len(m) + usize::from(self.view.is_busy(m))
            })
            .sum();
        self.pending_batch + queued
    }
}

/// Chooses the shard that receives each arriving task.
///
/// Policies may keep state (round-robin cursors, EWMA load estimates);
/// the gateway calls [`RoutePolicy::route`] exactly once per arrival,
/// in arrival order, so any internal state advances deterministically.
/// The returned index must be `< shards.len()`.
pub trait RoutePolicy {
    /// Display name, for reports and debugging.
    fn name(&self) -> &str;

    /// Picks the destination shard for `task`.
    fn route(&mut self, shards: &[ShardView<'_>], task: &Task) -> usize;

    /// Whether this policy routes **without reading shard state**: its
    /// decision may depend only on the shard *count*, the task, and
    /// the policy's own internal state (a round-robin cursor, a hash).
    ///
    /// Declaring `true` is a contract: [`RoutePolicy::route_stateless`]
    /// must be implemented and must pick exactly the shard
    /// [`RoutePolicy::route`] would pick. In exchange the gateway skips
    /// materialising shard views, and the parallel federated driver
    /// routes the whole arrival stream up front so every shard runs
    /// its event loop with **zero cross-shard barriers**. The parallel
    /// driver takes only such policies beyond one shard
    /// ([`crate::ConfigError::ParallelNeedsStatelessRoute`]).
    fn is_stateless(&self) -> bool {
        false
    }

    /// [`RoutePolicy::route`] without the views, for policies that
    /// declare [`RoutePolicy::is_stateless`]. Only called when
    /// `is_stateless()` is `true`.
    fn route_stateless(&mut self, n_shards: usize, task: &Task) -> usize {
        let _ = (n_shards, task);
        unimplemented!(
            "route_stateless is required when is_stateless() returns true"
        )
    }

    /// Captures the policy's internal state (cursors, load estimates)
    /// for a federation snapshot. Stateless-in-memory policies keep
    /// the default ([`serde::Value::Null`]); policies with memory must
    /// override this *and* [`RoutePolicy::restore_state`] so a
    /// restored gateway keeps routing identically.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores state captured by [`RoutePolicy::snapshot_state`].
    /// The default accepts only `Null` (the stateless capture).
    ///
    /// # Errors
    /// When `state` is not what this implementation's
    /// `snapshot_state` produces.
    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        match state {
            serde::Value::Null => Ok(()),
            other => {
                Err(serde::Error::unexpected("null (stateless policy)", other))
            }
        }
    }
}

/// Cycles through the shards in index order, ignoring state entirely —
/// the baseline every other policy has to beat.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinRoute {
    next: usize,
}

impl RoundRobinRoute {
    /// Starts the cycle at shard 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutePolicy for RoundRobinRoute {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, shards: &[ShardView<'_>], task: &Task) -> usize {
        self.route_stateless(shards.len(), task)
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn route_stateless(&mut self, n_shards: usize, _task: &Task) -> usize {
        let shard = self.next % n_shards;
        self.next = self.next.wrapping_add(1);
        shard
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Value::UInt(self.next as u64)
    }

    fn restore_state(
        &mut self,
        state: &serde::Value,
    ) -> Result<(), serde::Error> {
        self.next = serde::Deserialize::from_value(state)?;
        Ok(())
    }
}

/// Routes each arrival to the shard holding the fewest tasks (batch
/// queue + machine queues + running), ties broken by lowest index —
/// join-the-shortest-queue at federation granularity.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastQueuedRoute;

impl LeastQueuedRoute {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl RoutePolicy for LeastQueuedRoute {
    fn name(&self) -> &str {
        "least-queued"
    }

    fn route(&mut self, shards: &[ShardView<'_>], _task: &Task) -> usize {
        shards
            .iter()
            .min_by_key(|s| (s.tasks_in_system(), s.index()))
            .map(|s| s.index())
            .expect("gateway guarantees at least one shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::MachineQueue;
    use taskprune_model::{BinSpec, Cluster, PetMatrix, SimTime, TaskTypeId};
    use taskprune_prob::Pmf;

    fn pet() -> PetMatrix {
        PetMatrix::new(BinSpec::new(100), 1, 1, vec![Pmf::point_mass(2)])
    }

    fn queues(n_tasks: usize, pet: &PetMatrix) -> Vec<MachineQueue> {
        let cluster = Cluster::one_per_type(1);
        let mut qs: Vec<MachineQueue> = cluster
            .machines()
            .iter()
            .map(|&m| MachineQueue::new(m, 8, 256))
            .collect();
        for i in 0..n_tasks {
            qs[0].admit(Task::new(
                i as u64,
                TaskTypeId(0),
                SimTime(0),
                SimTime(100_000),
            ));
        }
        let _ = pet;
        qs
    }

    fn probe() -> Task {
        Task::new(99, TaskTypeId(0), SimTime(0), SimTime(100_000))
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let pet = pet();
        let q0 = queues(0, &pet);
        let q1 = queues(0, &pet);
        let views = vec![
            ShardView::new(0, SystemView::new(SimTime(0), &q0, &pet), 0),
            ShardView::new(1, SystemView::new(SimTime(0), &q1, &pet), 0),
        ];
        let mut rr = RoundRobinRoute::new();
        let picks: Vec<usize> =
            (0..5).map(|_| rr.route(&views, &probe())).collect();
        assert_eq!(picks, vec![0, 1, 0, 1, 0]);
        assert_eq!(rr.name(), "round-robin");
    }

    #[test]
    fn least_queued_prefers_the_emptier_shard() {
        let pet = pet();
        let busy = queues(3, &pet);
        let idle = queues(0, &pet);
        let views = vec![
            ShardView::new(0, SystemView::new(SimTime(0), &busy, &pet), 2),
            ShardView::new(1, SystemView::new(SimTime(0), &idle, &pet), 0),
        ];
        assert_eq!(views[0].tasks_in_system(), 5);
        assert_eq!(views[0].pending_batch_len(), 2);
        assert_eq!(views[1].tasks_in_system(), 0);
        let mut lq = LeastQueuedRoute::new();
        assert_eq!(lq.route(&views, &probe()), 1);
        assert_eq!(lq.name(), "least-queued");
    }

    #[test]
    fn least_queued_ties_break_to_the_lowest_index() {
        let pet = pet();
        let a = queues(1, &pet);
        let b = queues(1, &pet);
        let views = vec![
            ShardView::new(0, SystemView::new(SimTime(0), &a, &pet), 0),
            ShardView::new(1, SystemView::new(SimTime(0), &b, &pet), 0),
        ];
        assert_eq!(LeastQueuedRoute::new().route(&views, &probe()), 0);
    }
}
