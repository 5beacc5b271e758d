//! The closed host-time loops that play the workers.
//!
//! [`gateway`] drives the public streaming API exactly as the
//! program's own `FederatedEngine` drives it: the same event order
//! (completions, then arrivals, then wakeups at equal instants; shard
//! and machine break ties), the same per-shard duration streams seeded
//! from each shard's configuration, and the same wakeup safety net.
//! That makes its outcome byte-comparable with
//! `FederatedEngine::run_stream` on the same input, which is how the
//! benchmark checks the program's output. Each call starts when the
//! previous one returns.
//!
//! [`supervised`] hands the loop to the program's `Supervisor`, one
//! `run_until` step per arrival.

use crate::clock::Latencies;
use crate::trace::{self, Call};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::Instant;
use taskprune_model::{PetMatrix, SimTime, Task};
use taskprune_prob::rng::Xoshiro256PlusPlus;
use taskprune_sim::{
    Decision, FedDecision, FedStart, FederationStats, Gateway, Supervisor,
};

/// Decisions drained from the gateway, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decided {
    /// `Decision::Assign`.
    pub assign: u64,
    /// `Decision::DeferToBatch`.
    pub defer: u64,
    /// `Decision::DropReactive`.
    pub drop_reactive: u64,
    /// `Decision::DropProbabilistic`.
    pub drop_probabilistic: u64,
    /// `Decision::Reject`.
    pub reject: u64,
}

impl Decided {
    fn add(&mut self, decisions: &[FedDecision]) {
        for d in decisions {
            match d.decision {
                Decision::Assign { .. } => self.assign += 1,
                Decision::DeferToBatch { .. } => self.defer += 1,
                Decision::DropReactive { .. } => self.drop_reactive += 1,
                Decision::DropProbabilistic { .. } => {
                    self.drop_probabilistic += 1;
                }
                Decision::Reject { .. } => self.reject += 1,
                Decision::CancelRunning { .. } => {}
            }
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: Decided) -> Decided {
        Decided {
            assign: self.assign + o.assign,
            defer: self.defer + o.defer,
            drop_reactive: self.drop_reactive + o.drop_reactive,
            drop_probabilistic: self.drop_probabilistic + o.drop_probabilistic,
            reject: self.reject + o.reject,
        }
    }
}

/// What the loop itself saw during one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopCounts {
    /// Arrivals handed to the program.
    pub arrivals: u64,
    /// `try_push_arrival` calls that returned `Err`.
    pub failed_pushes: u64,
    /// The drained decision stream (empty under the supervisor, which
    /// discards it).
    pub decided: Decided,
}

/// Times the loop's calls. Untraced, only the per-arrival call is
/// timed (into `latencies`); traced, every call that runs scheduler
/// work is a parent span in the [`trace`] recorder. The clock calls
/// (`now`, `advance_to`, `earliest_pending_deadline`) only read or set
/// timestamps and count as loop time.
pub struct Probe {
    traced: bool,
    /// Wall-clock duration of each arrival call, untraced runs only.
    pub latencies: Latencies,
}

impl Probe {
    /// A probe for traced or untraced passes.
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            latencies: Latencies::default(),
        }
    }

    /// Whether this probe traces.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn open(&self, id: u64) -> Option<Instant> {
        self.traced.then(|| trace::open(id))
    }

    fn close(&self, call: Call, start: Option<Instant>) {
        if let Some(start) = start {
            trace::close(call, start);
        }
    }

    fn arrival_open(&self, id: u64) -> Instant {
        if self.traced {
            trace::open(id)
        } else {
            Instant::now()
        }
    }

    fn arrival_close(&mut self, call: Call, start: Instant) {
        if self.traced {
            trace::close(call, start);
        } else {
            self.latencies.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// A scheduled completion or wakeup, ordered like the federated
/// engine's event heap.
struct Pending {
    time: SimTime,
    shard: usize,
    start: Option<FedStart>,
}

impl Pending {
    fn key(&self) -> (SimTime, u8, usize, u16) {
        match &self.start {
            Some(s) => (self.time, 0, self.shard, s.machine.id.0),
            None => (self.time, 2, self.shard, 0),
        }
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Streams `tasks` through `gateway`, playing the workers with
/// durations sampled from `pet`, and returns the drained outcome.
pub fn gateway(
    mut gateway: Gateway<'_>,
    tasks: &[Task],
    pet: &PetMatrix,
    probe: &mut Probe,
) -> (FederationStats, LoopCounts) {
    let n = gateway.n_shards();
    let mut rngs: Vec<Xoshiro256PlusPlus> = gateway
        .shards()
        .iter()
        .map(|s| Xoshiro256PlusPlus::new(s.config().seed))
        .collect();
    let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    let mut in_heap = vec![0usize; n];
    let mut wakeup_scheduled = vec![false; n];
    let mut starts: Vec<FedStart> = Vec::new();
    let mut counts = LoopCounts::default();
    let mut next = 0usize;
    loop {
        // The id this iteration's spans share: the arrival ordinal, the
        // completed task's external id, or the woken shard.
        let id;
        let event_first = match (heap.peek(), tasks.get(next)) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(Reverse(ev)), Some(task)) => {
                ev.time < task.arrival
                    || (ev.time == task.arrival && ev.start.is_some())
            }
        };
        if event_first {
            let Reverse(ev) = heap.pop().expect("peeked above");
            in_heap[ev.shard] -= 1;
            gateway.advance_to(ev.time);
            match ev.start {
                Some(start) => {
                    id = start.task.id.0;
                    let t = probe.open(id);
                    let live = gateway.complete_internal(&start);
                    probe.close(Call::Complete, t);
                    if !live {
                        continue;
                    }
                }
                None => {
                    wakeup_scheduled[ev.shard] = false;
                    id = ev.shard as u64;
                    let t = probe.open(id);
                    gateway.wakeup(ev.shard);
                    probe.close(Call::Wakeup, t);
                }
            }
        } else {
            let task = tasks[next];
            id = next as u64;
            next += 1;
            gateway.advance_to(task.arrival.max(gateway.now()));
            let t = probe.arrival_open(id);
            let admission = gateway.try_push_arrival(task);
            let call = match &admission {
                Ok(a) if a.is_absorbed() => Call::PushAbsorbed,
                _ => Call::PushRouted,
            };
            probe.arrival_close(call, t);
            counts.arrivals += 1;
            if admission.is_err() {
                counts.failed_pushes += 1;
            }
        }

        let now = gateway.now();
        let t = probe.open(id);
        starts.clear();
        starts.extend_from_slice(gateway.drain_starts());
        counts.decided.add(gateway.drain_decisions());
        probe.close(Call::Drain, t);
        for s in &starts {
            let duration = pet.sample_duration(
                s.machine.type_id,
                s.task.type_id,
                &mut rngs[s.shard],
            );
            heap.push(Reverse(Pending {
                time: now + duration,
                shard: s.shard,
                start: Some(*s),
            }));
            in_heap[s.shard] += 1;
        }

        // The wakeup safety net, once the stream is exhausted: a shard
        // with batch work but nothing scheduled gets a synthetic
        // mapping event just past its earliest pending deadline.
        if next == tasks.len() {
            let now = gateway.now();
            for shard in 0..n {
                if wakeup_scheduled[shard] || in_heap[shard] > 0 {
                    continue;
                }
                if let Some(deadline) = gateway.earliest_pending_deadline(shard)
                {
                    heap.push(Reverse(Pending {
                        time: SimTime(deadline.ticks().max(now.ticks()) + 1),
                        shard,
                        start: None,
                    }));
                    in_heap[shard] += 1;
                    wakeup_scheduled[shard] = true;
                }
            }
        }
    }
    let t = probe.open(tasks.len() as u64);
    let stats = gateway.finish();
    probe.close(Call::Finish, t);
    (stats, counts)
}

/// Runs `tasks` under `supervisor`, one `run_until` step per arrival;
/// each step is timed as that arrival's call.
pub fn supervised(
    mut supervisor: Supervisor<'_>,
    tasks: &[Task],
    probe: &mut Probe,
) -> (FederationStats, LoopCounts) {
    let mut source = tasks.iter().copied().peekable();
    for watermark in 1..=tasks.len() as u64 {
        let t = probe.arrival_open(watermark - 1);
        supervisor.run_until(&mut source, watermark);
        probe.arrival_close(Call::Step, t);
    }
    let t = probe.open(tasks.len() as u64);
    let stats = supervisor.finish_stream(&mut source);
    probe.close(Call::Finish, t);
    let counts = LoopCounts {
        arrivals: tasks.len() as u64,
        ..LoopCounts::default()
    };
    (stats, counts)
}
