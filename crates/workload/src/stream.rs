//! Arrival streams: feeding workloads into the scheduler one task at a
//! time.
//!
//! The streaming scheduler core ingests arrivals through a single
//! `push_arrival` path; a [`TraceSource`] is anything that can supply
//! that stream in arrival order. Recorded traces
//! ([`WorkloadTrial::into_source`], [`TaskStream::from_tasks`]) and the
//! §V-B synthetic generator ([`WorkloadConfig::stream_trial`]) all
//! produce the same [`TaskStream`], so a simulation replay and a live
//! ingest pipeline are literally the same code path.

use crate::trial::{WorkloadConfig, WorkloadTrial};
use taskprune_model::{PetMatrix, Task};

/// An ordered stream of task arrivals.
///
/// A `TraceSource` is any iterator of tasks whose `arrival` times are
/// non-decreasing — the contract `FederatedEngine::run_stream` and
/// `SchedulerCore::push_arrival` rely on. The blanket implementation
/// makes every conforming iterator a source; [`TaskStream`] is the
/// canonical concrete one.
pub trait TraceSource: Iterator<Item = Task> {}

impl<I: Iterator<Item = Task>> TraceSource for I {}

/// A materialised arrival stream, sorted by arrival time.
#[derive(Debug, Clone)]
pub struct TaskStream {
    tasks: std::vec::IntoIter<Task>,
}

impl TaskStream {
    /// Wraps an explicit task list. The tasks must already be sorted by
    /// non-decreasing arrival time (debug-asserted).
    pub fn from_tasks(tasks: Vec<Task>) -> Self {
        debug_assert!(
            tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace sources must be sorted by arrival time"
        );
        Self {
            tasks: tasks.into_iter(),
        }
    }

    /// Number of arrivals remaining in the stream.
    pub fn remaining(&self) -> usize {
        self.tasks.len()
    }

    /// Merges several sorted streams into one stream sorted by arrival
    /// time — the adapter that turns per-tenant (or per-generator)
    /// traces into the single interleaved stream a federation gateway
    /// ingests. Ties break by source index then original order, so the
    /// interleaving is deterministic.
    pub fn merge(sources: Vec<TaskStream>) -> TaskStream {
        let mut tagged: Vec<(usize, usize, Task)> = Vec::new();
        for (src, stream) in sources.into_iter().enumerate() {
            for (pos, task) in stream.enumerate() {
                tagged.push((src, pos, task));
            }
        }
        tagged.sort_by_key(|&(src, pos, task)| (task.arrival, src, pos));
        TaskStream {
            tasks: tagged
                .into_iter()
                .map(|(_, _, task)| task)
                .collect::<Vec<_>>()
                .into_iter(),
        }
    }

    /// Interleaves content-keyed duplicate submissions into the stream:
    /// after each task, with probability `rate` a recent task (one of
    /// the last eight distinct submissions) is re-submitted verbatim —
    /// same external id, type and value, i.e. the same *content key* —
    /// arriving at the current instant with its deadline window
    /// re-anchored there. This is the request mix a function-reuse
    /// gateway exists for: multimedia serverless front-ends observe
    /// large fractions of exactly-repeated requests (arXiv:1901.09312).
    ///
    /// Duplicates are drawn from a dedicated Xoshiro stream seeded by
    /// `seed` — never from the simulator's ground-truth RNG — so adding
    /// duplicates perturbs neither execution-time sampling nor any
    /// other workload draw, and the duplicate pattern is reproducible
    /// in isolation. A `rate` of `0.0` returns the stream unchanged.
    /// Arrival sortedness is preserved.
    pub fn with_duplicate_rate(self, rate: f64, seed: u64) -> TaskStream {
        use taskprune_prob::rng::Xoshiro256PlusPlus;
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut recent: Vec<Task> = Vec::with_capacity(8);
        let mut next_slot = 0usize;
        let mut out: Vec<Task> = Vec::new();
        for task in self.tasks {
            out.push(task);
            if recent.len() < 8 {
                recent.push(task);
            } else {
                recent[next_slot] = task;
                next_slot = (next_slot + 1) % 8;
            }
            if rate > 0.0 && rng.next_f64() < rate {
                let pick = (rng.next() % recent.len() as u64) as usize;
                let original = recent[pick];
                let window = original.deadline.saturating_sub(original.arrival);
                let mut dup = original;
                dup.arrival = task.arrival;
                dup.deadline = task.arrival + window;
                out.push(dup);
            }
        }
        TaskStream {
            tasks: out.into_iter(),
        }
    }

    /// Relabels every task id as `base + id * stride`, turning a dense
    /// trial into one with sparse, snowflake-style external ids — what
    /// a real front-end hands a gateway, and exactly what the gateway's
    /// id-compaction layer exists to absorb. A `stride` of 1 with
    /// distinct `base`s merely namespaces several streams apart.
    pub fn with_id_stride(self, base: u64, stride: u64) -> TaskStream {
        let tasks: Vec<Task> = self
            .tasks
            .map(|mut t| {
                t.id = taskprune_model::TaskId(base + t.id.0 * stride);
                t
            })
            .collect();
        TaskStream {
            tasks: tasks.into_iter(),
        }
    }
}

impl Iterator for TaskStream {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        self.tasks.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tasks.size_hint()
    }
}

impl ExactSizeIterator for TaskStream {}

impl WorkloadTrial {
    /// Converts the trial into an arrival stream for the streaming
    /// ingest path (`push_arrival`); the recorded-trace twin of
    /// [`WorkloadConfig::stream_trial`].
    pub fn into_source(self) -> TaskStream {
        TaskStream::from_tasks(self.tasks)
    }
}

impl WorkloadConfig {
    /// Generates trial `trial_idx` of this family directly as an
    /// arrival stream — the §V-B generator feeding the same
    /// `push_arrival` path a recorded trace does.
    pub fn stream_trial(&self, pet: &PetMatrix, trial_idx: u32) -> TaskStream {
        self.generate_trial(pet, trial_idx).into_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::petgen::PetGenConfig;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            total_tasks: 200,
            span_tu: 60.0,
            ..WorkloadConfig::paper_default(5)
        }
    }

    #[test]
    fn trial_source_streams_every_task_in_order() {
        let pet = PetGenConfig::paper_heterogeneous(99).generate();
        let trial = small_config().generate_trial(&pet, 0);
        let expected = trial.tasks.clone();
        let source = trial.into_source();
        assert_eq!(source.remaining(), expected.len());
        let streamed: Vec<_> = source.collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn generator_and_recorded_trace_yield_the_same_stream() {
        let pet = PetGenConfig::paper_heterogeneous(99).generate();
        let cfg = small_config();
        let generated: Vec<_> = cfg.stream_trial(&pet, 3).collect();
        let recorded: Vec<_> =
            cfg.generate_trial(&pet, 3).into_source().collect();
        assert_eq!(generated, recorded);
    }

    #[test]
    fn merge_interleaves_by_arrival_with_stable_ties() {
        use taskprune_model::{SimTime, Task, TaskTypeId};
        let mk = |ids: &[(u64, u64)]| {
            TaskStream::from_tasks(
                ids.iter()
                    .map(|&(id, at)| {
                        Task::new(
                            id,
                            TaskTypeId(0),
                            SimTime(at),
                            SimTime(at + 100),
                        )
                    })
                    .collect(),
            )
        };
        let a = mk(&[(0, 10), (1, 30)]);
        let b = mk(&[(0, 10), (1, 20)]);
        let merged: Vec<Task> = TaskStream::merge(vec![a, b]).collect();
        let order: Vec<(u64, u64)> =
            merged.iter().map(|t| (t.id.0, t.arrival.ticks())).collect();
        // Tie at t=10 breaks to source 0 first.
        assert_eq!(order, vec![(0, 10), (0, 10), (1, 20), (1, 30)]);
        assert!(merged.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn id_stride_sparsifies_without_touching_timing() {
        let pet = PetGenConfig::paper_heterogeneous(99).generate();
        let trial = small_config().generate_trial(&pet, 0);
        let before: Vec<_> = trial.tasks.clone();
        let sparse: Vec<_> = trial
            .into_source()
            .with_id_stride(1_000_000_000, 1_000)
            .collect();
        assert_eq!(sparse.len(), before.len());
        for (s, b) in sparse.iter().zip(&before) {
            assert_eq!(s.id.0, 1_000_000_000 + b.id.0 * 1_000);
            assert_eq!(s.arrival, b.arrival);
            assert_eq!(s.deadline, b.deadline);
            assert_eq!(s.type_id, b.type_id);
        }
    }

    #[test]
    fn duplicate_rate_injects_content_keyed_repeats_in_order() {
        use std::collections::HashSet;
        let pet = PetGenConfig::paper_heterogeneous(99).generate();
        let trial = small_config().generate_trial(&pet, 0);
        let originals: Vec<_> = trial.tasks.clone();
        let n = originals.len();
        let keys: HashSet<(u64, u16)> =
            originals.iter().map(|t| (t.id.0, t.type_id.0)).collect();

        // Rate 0 is the identity.
        let untouched: Vec<_> = trial
            .clone()
            .into_source()
            .with_duplicate_rate(0.0, 7)
            .collect();
        assert_eq!(untouched, originals);

        let dup: Vec<_> = trial
            .clone()
            .into_source()
            .with_duplicate_rate(0.3, 7)
            .collect();
        // Same seed => same stream; sortedness preserved.
        let again: Vec<_> =
            trial.into_source().with_duplicate_rate(0.3, 7).collect();
        assert_eq!(dup, again);
        assert!(dup.windows(2).all(|w| w[0].arrival <= w[1].arrival));

        // Roughly `rate` extra arrivals, every one sharing a content key
        // with an original it trails (never precedes).
        let extras = dup.len() - n;
        assert!(
            extras > n / 5 && extras < n / 2,
            "expected ~30% duplicates, got {extras} of {n}"
        );
        for t in &dup {
            assert!(keys.contains(&(t.id.0, t.type_id.0)));
        }
        let mut seen = HashSet::new();
        let mut repeats = 0usize;
        for t in &dup {
            if !seen.insert((t.id.0, t.type_id.0)) {
                repeats += 1;
            }
        }
        assert_eq!(repeats, extras);
    }

    #[test]
    fn any_sorted_iterator_is_a_trace_source() {
        fn consume(source: impl TraceSource) -> usize {
            source.count()
        }
        let pet = PetGenConfig::paper_heterogeneous(99).generate();
        let trial = small_config().generate_trial(&pet, 0);
        let n = trial.len();
        // Both a TaskStream and a plain vec iterator satisfy the trait.
        assert_eq!(consume(trial.tasks.clone().into_iter()), n);
        assert_eq!(consume(trial.into_source()), n);
    }
}
