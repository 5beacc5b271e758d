//! The self-healing supervisor: auto-checkpoints, fault detection,
//! bounded retries, and graceful degradation for federated runs.
//!
//! A [`Supervisor`] wraps the serial [`FederatedEngine`] and pumps its
//! event loop in watermark-sized slices. At every watermark it takes
//! per-shard checkpoints and runs health checks (journal-gap,
//! watermark-lag); when an injected fault surfaces it applies a typed
//! [`RecoveryPolicy`]: bounded retries with deterministic sim-time
//! backoff, checkpoint + journal replay for crashes, and — once a
//! shard's budget is exhausted — quarantine with load shedding: the
//! shard's still-unmapped backlog re-routes to healthy shards, whose
//! pruning thresholds tighten to absorb it. That salvage-and-re-route
//! is the one degradation rule.
//!
//! Supervised runs always use the serial driver; the parallel
//! [`crate::ParallelFederatedEngine`] runs unsupervised. Nothing is
//! lost by that: a run the supervisor heals serializes identically to
//! the parallel driver's fault-free run at any thread count.
//!
//! Two invariants make the supervisor testable to the bit:
//!
//! * **Recovery is exact.** A healed fault leaves zero trace in the
//!   simulation state: retry backoff is bookkeeping (logged, never
//!   simulated — the sim clock is the workload's, not the
//!   supervisor's), checkpoints capture state without perturbing it,
//!   and replay mirrors the fault-free delivery order exactly. With a
//!   retry budget covering every injected fault, a supervised run's
//!   serialized [`FederationStats`] is bit-identical to the fault-free
//!   run's (and so to the parallel driver's fault-free run) —
//!   `tests/self_healing.rs` pins both comparisons.
//! * **Every action is logged.** The [`RecoveryLog`] records each
//!   checkpoint, detection, retry, replay and quarantine with its
//!   sim-time instant, deterministically: two runs of the same
//!   `(seed, plan)` produce identical logs.
//!
//! Function-reuse absorption composes with both invariants: a
//! piggybacked arrival counts against the same per-shard
//! *arrival-ordinal* fault coordinates as a routed one (so one
//! [`FaultPlan`] means the same thing whether a gate absorbs
//! duplicates or not), and each absorption is journaled as
//! [`crate::JournalOp::Piggyback`] before delivery, so checkpoint +
//! journal replay reproduces a merging shard bit-identically —
//! `tests/reuse_equivalence.rs` pins a full-budget storm over a
//! merging run against its fault-free twin.

use crate::config::RunError;
use crate::core::CoreCapture;
use crate::fault::{FaultKind, FaultPlan};
use crate::gateway::{DriveSignal, FederatedEngine, FederationStats};
use crate::sink::{NullSink, Sink};
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::iter::Peekable;
use taskprune_model::{SimTime, Task};

/// How a [`Supervisor`] reacts to faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Recovery attempts each shard may consume across the whole run
    /// (redeliveries, crash restores, checkpoint retries). Once a
    /// shard exhausts its budget, the next unrecoverable fault
    /// quarantines it.
    pub retry_budget: u32,
    /// Base of the exponential retry backoff, in sim-time ticks. The
    /// backoff for attempt *k* is `base · 2^(k−1)`. **Bookkeeping
    /// only**: it is recorded in the [`RecoveryLog`] and nothing else
    /// reads it. It never advances the simulation clock — recovery
    /// must happen at the fault instant to keep the truth-RNG streams
    /// aligned with the fault-free run — and it has no say in giving
    /// up, which [`RecoveryPolicy::retry_budget`] alone decides.
    pub backoff_base: u64,
    /// Auto-checkpoint every this many ingested arrivals (the
    /// [`FederatedEngine::run_until`] watermark coordinate). Also the
    /// cadence of the journal-gap and watermark-lag health checks.
    pub checkpoint_interval: u64,
    /// Factor applied to healthy shards' pruning thresholds when a
    /// quarantined shard's backlog is re-routed onto them (> 1 prunes
    /// more aggressively — the paper's own mechanism doubling as the
    /// degraded-mode load shed).
    pub quarantine_shed_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retry_budget: 3,
            backoff_base: 64,
            checkpoint_interval: 64,
            quarantine_shed_factor: 1.5,
        }
    }
}

impl RecoveryPolicy {
    /// The degraded-path policy: no retries at all, so the first
    /// unrecoverable fault on a shard quarantines it immediately.
    pub fn no_retries() -> Self {
        Self {
            retry_budget: 0,
            ..Self::default()
        }
    }
}

/// What one supervisor action did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecoveryActionKind {
    /// An auto-checkpoint of the shard was captured at the given
    /// arrival watermark.
    CheckpointTaken {
        /// Total arrivals ingested when the checkpoint was taken.
        watermark: u64,
    },
    /// A checkpoint attempt failed transiently (injected
    /// [`FaultKind::CheckpointFailure`]).
    CheckpointFailed {
        /// 1-based attempt number at this watermark.
        attempt: u32,
    },
    /// An injected fault was detected.
    FaultDetected {
        /// What kind of fault fired.
        fault: FaultKind,
    },
    /// A retry was scheduled with deterministic exponential backoff
    /// (bookkeeping only — see [`RecoveryPolicy::backoff_base`]).
    RetryScheduled {
        /// 1-based attempt number for this fault.
        attempt: u32,
        /// The backoff recorded for this attempt, in ticks.
        backoff: u64,
        /// The sim-time instant the backoff nominally expires at.
        at: SimTime,
    },
    /// A lost/delayed completion was redelivered from its journal
    /// record.
    Redelivered,
    /// A duplicated completion delivery was suppressed by the
    /// staleness dedupe (no state was perturbed).
    DuplicateSuppressed,
    /// A crashed shard was rebuilt from its checkpoint plus journal
    /// replay.
    RecoveryReplayed {
        /// Journal operations replayed on top of the checkpoint.
        journal_ops: u64,
    },
    /// A recovery attempt failed (injected
    /// [`FaultKind::RecoveryFailure`] or a corrupt checkpoint).
    RecoveryFailed {
        /// 1-based attempt number for this fault.
        attempt: u32,
    },
    /// The shard exhausted its retry budget and was quarantined; its
    /// salvageable backlog was re-routed to healthy shards.
    Quarantined {
        /// Batch-queued tasks re-routed to healthy shards.
        rerouted: u64,
    },
    /// The overload ladder stepped **up** after sustained queue-depth
    /// pressure: non-Premium admission degrades at the new rung (see
    /// [`crate::LadderConfig`]). Logged once per transition, against
    /// shard 0 (the ladder is a federation-wide coordinate).
    OverloadStepUp {
        /// The rung stepped to (1–3).
        rung: u8,
    },
    /// The overload ladder stepped back **down** after sustained
    /// relief — transitions are one rung at a time, so recovery
    /// retraces the degradation path deterministically.
    OverloadStepDown {
        /// The rung stepped to (0–2).
        rung: u8,
    },
    /// A watermark health check found journaled-but-undelivered
    /// operations on the shard.
    JournalGapDetected {
        /// Number of undelivered operations.
        gap: u64,
    },
    /// A watermark health check found the shard's clock behind the
    /// federation's (a stalled or silently dead shard).
    WatermarkLagDetected {
        /// How far behind, in ticks.
        lag: u64,
    },
}

/// One timestamped supervisor action on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryAction {
    /// Sim-time instant of the action.
    pub time: SimTime,
    /// The shard acted on.
    pub shard: usize,
    /// What was done.
    pub kind: RecoveryActionKind,
}

/// The deterministic, append-only audit trail of everything a
/// supervisor did. Retrieve it from
/// [`FederationStats::recovery_log`] after the run; it is **not**
/// part of the stats' serialized wire shape (serialize the log itself
/// for durable audit trails).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryLog {
    actions: Vec<RecoveryAction>,
}

impl RecoveryLog {
    /// The actions, in the order they were taken.
    pub fn actions(&self) -> &[RecoveryAction] {
        &self.actions
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether nothing was recorded (a fault-free supervised run still
    /// records its checkpoints).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// How many recorded actions satisfy `pred` — convenience for
    /// assertions like "exactly one quarantine".
    pub fn count(&self, pred: impl Fn(&RecoveryActionKind) -> bool) -> usize {
        self.actions.iter().filter(|a| pred(&a.kind)).count()
    }

    pub(crate) fn push(
        &mut self,
        time: SimTime,
        shard: usize,
        kind: RecoveryActionKind,
    ) {
        self.actions.push(RecoveryAction { time, shard, kind });
    }
}

/// Deterministic exponential backoff for attempt `k` (1-based):
/// `base · 2^(k−1)`, exponent capped so it can never overflow.
pub(crate) fn backoff_at(base: u64, attempt: u32) -> u64 {
    let exp = attempt.saturating_sub(1).min(16);
    base.saturating_mul(1u64 << exp)
}

/// The self-healing wrapper around the serial [`FederatedEngine`]:
/// auto-checkpoints, detects faults, retries within a budget, and
/// degrades gracefully (quarantine + backlog re-route + load shed) when
/// the budget runs out. See the module docs for the two invariants it
/// upholds. It is the only supervisor: supervised runs use the serial
/// driver, whatever [`crate::GatewayBuilder::threads`] says.
///
/// Construction enables journaling and captures an initial checkpoint
/// of every shard; arm a [`FaultPlan`] afterwards via
/// [`Supervisor::arm`] so the bootstrap captures are not themselves
/// fault targets.
///
/// Cost: each auto-checkpoint is an unsealed copy of the shard's
/// state that costs its live state plus the outcome records resolved
/// since its previous checkpoint. The core seals its outcome history
/// in memory, 64 task ids at a time, once every task in them has
/// resolved, and each copy shares those pages with the copy it
/// replaces, so checkpointing every
/// [`RecoveryPolicy::checkpoint_interval`] arrivals grows linearly with
/// the run, not with its square, and holding one per shard costs the
/// outcome history once. The supervisor renders and hashes a copy into
/// a [`Snapshot`], with the whole outcome record in its payload, only
/// when it restores the shard from it (a crash recovery, a journal-gap
/// or watermark-lag repair, or the salvage before a quarantine), and
/// the sealed snapshot is byte-identical to what
/// [`FederatedEngine::checkpoint`] returned at the capture instant.
pub struct Supervisor<'a, S: Sink = NullSink> {
    engine: FederatedEngine<'a, S>,
    policy: RecoveryPolicy,
    retries_left: Vec<u32>,
    /// The latest checkpoint of each shard, unsealed.
    checkpoints: Vec<CoreCapture>,
    next_watermark: u64,
    log: RecoveryLog,
}

impl<'a, S: Sink> Supervisor<'a, S> {
    /// Wraps `engine`, enabling journaling and taking the initial
    /// per-shard checkpoints recovery will replay from.
    pub fn new(
        mut engine: FederatedEngine<'a, S>,
        policy: RecoveryPolicy,
    ) -> Self {
        engine.enable_journal();
        let n = engine.n_shards();
        let checkpoints = (0..n).map(|s| engine.capture(s)).collect();
        // Relative to the arrivals already ingested, so a supervisor
        // attached to a restored coordinator resumes its checkpoint
        // cadence instead of waiting for an absolute count it may
        // already be past.
        let next_watermark =
            engine.arrivals_ingested() + policy.checkpoint_interval.max(1);
        Self {
            engine,
            policy,
            retries_left: vec![policy.retry_budget; n],
            checkpoints,
            next_watermark,
            log: RecoveryLog::default(),
        }
    }

    /// Arms deterministic fault injection (see
    /// [`FederatedEngine::arm_faults`]).
    pub fn arm(&mut self, plan: FaultPlan) {
        self.engine.arm_faults(plan);
    }

    /// The supervised engine (for watermark counters, journals, …).
    pub fn engine(&self) -> &FederatedEngine<'a, S> {
        &self.engine
    }

    /// The actions taken so far.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.log
    }

    /// Captures the coordinator for a cold restart (see
    /// [`FederatedEngine::snapshot_coordinator`]). Take it at a
    /// paused [`Supervisor::run_until`] watermark.
    pub fn snapshot_coordinator(&self) -> Snapshot {
        self.engine.snapshot_coordinator()
    }

    /// Supervised [`FederatedEngine::run_stream`]: consumes the whole
    /// arrival stream, healing faults as they fire, and returns the
    /// outcome record with the [`RecoveryLog`] attached.
    pub fn run_stream<I>(mut self, arrivals: I) -> FederationStats
    where
        I: IntoIterator<Item = Task>,
    {
        let mut source = arrivals.into_iter().peekable();
        self.pump(&mut source, None);
        self.finish_with_log()
    }

    /// Supervised [`FederatedEngine::run_until`]: drives (and heals)
    /// until `watermark` total arrivals have been ingested, then
    /// pauses non-destructively.
    pub fn run_until<I>(&mut self, source: &mut Peekable<I>, watermark: u64)
    where
        I: Iterator<Item = Task>,
    {
        self.pump(source, Some(watermark));
    }

    /// Supervised [`FederatedEngine::finish_stream`]: consumes the
    /// rest of a paused stream, drains every shard, and returns the
    /// outcome record with the [`RecoveryLog`] attached.
    pub fn finish_stream<I>(
        mut self,
        source: &mut Peekable<I>,
    ) -> FederationStats
    where
        I: Iterator<Item = Task>,
    {
        self.pump(&mut *source, None);
        self.finish_with_log()
    }

    fn finish_with_log(self) -> FederationStats {
        let mut stats = self.engine.finish_now();
        stats.recovery = self.log;
        stats
    }

    /// The supervision loop: drive to the next maintenance watermark
    /// (or the caller's stop watermark, whichever is sooner), settle
    /// whatever surfaced, repeat.
    fn pump<I>(&mut self, source: &mut Peekable<I>, stop_at: Option<u64>)
    where
        I: Iterator<Item = Task>,
    {
        loop {
            let target = match stop_at {
                Some(w) => w.min(self.next_watermark),
                None => self.next_watermark,
            };
            let signal = self.engine.drive(source, Some(target));
            for notice in self.engine.take_notices() {
                self.log.push(
                    notice.time,
                    notice.shard,
                    RecoveryActionKind::DuplicateSuppressed,
                );
            }
            match signal {
                DriveSignal::Exhausted => return,
                DriveSignal::Watermark => {
                    if self.engine.arrivals_ingested() >= self.next_watermark {
                        self.maintain();
                        self.next_watermark +=
                            self.policy.checkpoint_interval.max(1);
                    }
                    if stop_at
                        .is_some_and(|w| self.engine.arrivals_ingested() >= w)
                    {
                        return;
                    }
                }
                DriveSignal::Fault(report) => {
                    let more = source.peek().is_some();
                    self.log.push(
                        report.time,
                        report.shard,
                        RecoveryActionKind::FaultDetected {
                            fault: report.kind,
                        },
                    );
                    match report.kind {
                        FaultKind::ShardCrash => {
                            self.settle_crash(report.shard, report.time, more);
                        }
                        FaultKind::LostCompletion
                        | FaultKind::DelayedCompletion => {
                            if self.retries_left[report.shard] > 0 {
                                self.retries_left[report.shard] -= 1;
                                let backoff =
                                    backoff_at(self.policy.backoff_base, 1);
                                self.log.push(
                                    report.time,
                                    report.shard,
                                    RecoveryActionKind::RetryScheduled {
                                        attempt: 1,
                                        backoff,
                                        at: SimTime(
                                            report
                                                .time
                                                .ticks()
                                                .saturating_add(backoff),
                                        ),
                                    },
                                );
                                self.engine.resolve_fault(&report, true, more);
                                self.log.push(
                                    report.time,
                                    report.shard,
                                    RecoveryActionKind::Redelivered,
                                );
                            } else {
                                // Budget exhausted: the delivery stays
                                // lost. The shard remains live; its
                                // stuck work surfaces as `Unfinished`
                                // at the drain and the journal gap
                                // records the loss.
                                self.engine.resolve_fault(&report, false, more);
                            }
                        }
                        FaultKind::DuplicateCompletion
                        | FaultKind::CheckpointFailure
                        | FaultKind::RecoveryFailure => {
                            unreachable!(
                                "drive surfaces only crashes and \
                                 lost/delayed deliveries as faults"
                            )
                        }
                    }
                }
            }
        }
    }

    /// Crash path: bounded retries of checkpoint + journal replay; on
    /// an exhausted budget, salvage the backlog and quarantine.
    fn settle_crash(&mut self, shard: usize, now: SimTime, more: bool) {
        if self.try_recover(shard, now) {
            return;
        }
        // Budget exhausted: the shard stays down. Rebuild its state
        // once from the durable checkpoint + journal — not to revive
        // it, but to salvage the still-unmapped backlog the batch
        // queue held (a free read of durable storage, not a retry) —
        // then quarantine it and shed load on the survivors.
        let checkpoint = self.checkpoints[shard].seal();
        let _ = self.engine.recover_shard(shard, &checkpoint);
        let rerouted = self.engine.quarantine_shard(shard, more);
        self.engine
            .tighten_healthy_pruners(self.policy.quarantine_shed_factor);
        self.log
            .push(now, shard, RecoveryActionKind::Quarantined { rerouted });
    }

    /// Bounded retry loop around checkpoint + journal replay. Returns
    /// whether the shard was rebuilt.
    fn try_recover(&mut self, shard: usize, now: SimTime) -> bool {
        let mut attempt = 0u32;
        while self.retries_left[shard] > 0 {
            attempt += 1;
            self.retries_left[shard] -= 1;
            let backoff = backoff_at(self.policy.backoff_base, attempt);
            self.log.push(
                now,
                shard,
                RecoveryActionKind::RetryScheduled {
                    attempt,
                    backoff,
                    at: SimTime(now.ticks().saturating_add(backoff)),
                },
            );
            if self.engine.recovery_attempt_fails(shard) {
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::RecoveryFailed { attempt },
                );
                continue;
            }
            let checkpoint = self.checkpoints[shard].seal();
            match self.engine.recover_shard(shard, &checkpoint) {
                Ok(()) => {
                    let journal_ops = self.engine.journal(shard).len() as u64;
                    self.log.push(
                        now,
                        shard,
                        RecoveryActionKind::RecoveryReplayed { journal_ops },
                    );
                    return true;
                }
                Err(RunError::RecoveryUnavailable) => unreachable!(
                    "the supervisor enabled journaling at construction"
                ),
                Err(_) => {
                    self.log.push(
                        now,
                        shard,
                        RecoveryActionKind::RecoveryFailed { attempt },
                    );
                }
            }
        }
        false
    }

    /// Watermark maintenance: per-shard health checks plus the
    /// auto-checkpoint. Runs at a quiescent pause, so none of it
    /// perturbs simulation state.
    fn maintain(&mut self) {
        let watermark = self.engine.arrivals_ingested();
        let now = self.engine.now();
        // Overload-ladder sensing comes first, before a health check
        // below can quarantine a shard and move the pressure it reads.
        // The pressure read and the transition are pure functions of
        // shard state at this quiescent admitted-arrival ordinal, so a
        // healed run steps exactly like its fault-free twin.
        if self.engine.gateway_ref().ladder_enabled() {
            let pressure = self.engine.overload_pressure();
            let tick = self.engine.gateway_mut().overload_tick(pressure);
            if let Some((from, to)) = tick {
                let kind = if to > from {
                    RecoveryActionKind::OverloadStepUp { rung: to }
                } else {
                    RecoveryActionKind::OverloadStepDown { rung: to }
                };
                self.log.push(now, 0, kind);
            }
        }
        for shard in 0..self.engine.n_shards() {
            if self.engine.gateway_ref().is_quarantined(shard) {
                continue;
            }
            // Health check 1: journaled-but-undelivered operations.
            // Positive exactly while a lost delivery stays unhealed;
            // recoverable by a full checkpoint replay if budget
            // remains (the replay redelivers everything journaled).
            let gap = self.engine.journal_gap(shard);
            if gap > 0 {
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::JournalGapDetected { gap },
                );
                self.try_recover(shard, now);
            }
            // Health check 2: a shard whose clock fell behind the
            // federation's is stalled or silently dead (defense in
            // depth — the serial driver advances in lockstep, so this
            // firing means an unhealed wipe).
            let shard_now = self.engine.gateway_ref().shards()[shard].now();
            if shard_now < now {
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::WatermarkLagDetected {
                        lag: now.ticks() - shard_now.ticks(),
                    },
                );
                self.try_recover(shard, now);
            }
            // Auto-checkpoint, retrying transient storage faults
            // within the budget. Skipping on exhaustion is safe: the
            // journal keeps growing, so recovery stays possible from
            // the previous checkpoint.
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                if self.engine.checkpoint_attempt_fails(shard) {
                    self.log.push(
                        now,
                        shard,
                        RecoveryActionKind::CheckpointFailed { attempt },
                    );
                    if self.retries_left[shard] > 0 {
                        self.retries_left[shard] -= 1;
                        continue;
                    }
                    break;
                }
                self.checkpoints[shard] = self.engine.capture(shard);
                self.log.push(
                    now,
                    shard,
                    RecoveryActionKind::CheckpointTaken { watermark },
                );
                break;
            }
        }
    }
}

impl<S: Sink> std::fmt::Debug for Supervisor<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("policy", &self.policy)
            .field("retries_left", &self.retries_left)
            .field("actions", &self.log.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_at(64, 1), 64);
        assert_eq!(backoff_at(64, 2), 128);
        assert_eq!(backoff_at(64, 5), 1024);
        // Exponent caps; no overflow even at absurd attempt counts.
        assert_eq!(backoff_at(u64::MAX, 40), u64::MAX);
    }

    #[test]
    fn policy_defaults_and_no_retries() {
        let p = RecoveryPolicy::default();
        assert!(p.retry_budget > 0);
        assert!(p.checkpoint_interval > 0);
        assert!(p.quarantine_shed_factor > 1.0);
        assert_eq!(RecoveryPolicy::no_retries().retry_budget, 0);
    }

    #[test]
    fn recovery_log_counts() {
        let mut log = RecoveryLog::default();
        assert!(log.is_empty());
        log.push(
            SimTime(5),
            1,
            RecoveryActionKind::FaultDetected {
                fault: FaultKind::ShardCrash,
            },
        );
        log.push(
            SimTime(5),
            1,
            RecoveryActionKind::Quarantined { rerouted: 3 },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.count(|k| matches!(k, RecoveryActionKind::Quarantined { .. })),
            1
        );
        assert_eq!(log.actions()[0].shard, 1);
    }
}
