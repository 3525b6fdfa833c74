//! The daemon's recovery machine, free of sockets, threads and clocks.
//!
//! A dialer whose fetch dies on a *transient* failure — the peer
//! closed, a deadline fired, the stream truncated mid-frame — redials
//! under a [`RetryPolicy`]: capped exponential backoff whose jitter (a
//! hash of the policy seed, the link salt and the attempt) spreads out
//! peers that lost the same upstream at once. `FetchLadder` is that
//! discipline as a pure state machine — `LadderEvent`s in,
//! `LadderAction`s out — owning every number a dial carries; the
//! driver in `crate::daemon` only dials and sleeps what it is told.
//! `StallState` is the round-level fallback: after a round that
//! gained nothing while incomplete, the next round escalates.

use std::time::Duration;

use icd_core::machine::WireStats;
use icd_swarm::PeerId;

use crate::connection::{FetchOutcome, SessionEpoch};
use crate::plan::{round_seed, PlannedLink};

/// Salt folded into per-retry session seeds so a redial never replays
/// the round's original symbol stream.
const RETRY_SEED_SALT: u64 = 0x1CD0_7E72;

/// How (and whether) a failed fetch is redialed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Redials allowed after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each further attempt.
    pub base_delay: Duration,
    /// Upper bound the exponential never exceeds (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Two redials, 50 ms base, 2 s cap — generous for localhost
    /// swarms, harmless for the fault-free path (never consulted).
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x1CD_7E7B,
        }
    }
}

impl RetryPolicy {
    /// Fail-fast policy: transient errors surface immediately, exactly
    /// the pre-recovery daemon behaviour.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// A policy with the given retry budget and default delays.
    #[must_use]
    pub fn with_retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// Whether attempt `attempt` (1-based; 1 is the initial dial) may
    /// be followed by another.
    #[must_use]
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }

    /// Backoff before retry number `attempt` (1-based), jittered by
    /// `salt` (use the link seed, so concurrent fetches of one node
    /// spread out). Exponential `base · 2^(attempt-1)` capped at
    /// `max_delay`, then jittered down by up to half — deterministic in
    /// `(policy, salt, attempt)`.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let attempt = attempt.max(1);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let jitter =
            icd_util::hash::mix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt))
                % (nanos / 2 + 1);
        Duration::from_nanos(nanos - jitter)
    }
}

/// Session seed of live attempt `attempt` of a round fetch: distinct
/// from the round seed so a resumed session never replays the original
/// symbol stream, deterministic so a chaos run replays exactly.
fn retry_seed(link_seed: u64, round: u32, attempt: u32) -> u64 {
    icd_util::hash::mix64(round_seed(link_seed, round) ^ RETRY_SEED_SALT ^ u64::from(attempt))
}

/// One round fetch's result as the harness reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchReport {
    /// Upstream (serving) peer.
    pub from: PeerId,
    /// Reconciliation round the session ran in.
    pub round: u32,
    /// Session seed the round ran under ([`round_seed`] of the link).
    pub seed: u64,
    /// The session outcome, or the error that ended it. After retries,
    /// `Ok` carries the *accumulated* stats and gains of every attempt.
    pub outcome: Result<FetchOutcome, &'static str>,
    /// Wire bytes moved (both directions, hello excluded) summed over
    /// every attempt, failed ones included.
    pub stats: WireStats,
    /// Redials performed after transient failures (0 on the fault-free
    /// path — the goldens rely on that).
    pub retries: u32,
}

/// One dial the driver must make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dial {
    /// The snapshot discipline the hello requests.
    pub(crate) epoch: SessionEpoch,
    /// Session seed the hello carries.
    pub(crate) seed: u64,
    /// Symbols the receiver asks for.
    pub(crate) request: u64,
    /// Advertise the receiver as not fine-grained capable, so the
    /// sender streams recoded symbols instead of filtering through an
    /// approximate digest (§6's fallback; set on escalated rounds).
    pub(crate) speculative: bool,
}

/// What the driver tells a [`FetchLadder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderEvent {
    /// About to dial: the node misses `missing` symbols of the set the
    /// dial advertises — the barrier snapshot for the planned attempt,
    /// the node's current set when [`FetchLadder::resumes`].
    Ready {
        /// Symbols missing from that set (0 = complete).
        missing: u64,
    },
    /// The last dial's session ran to its end.
    Succeeded(FetchOutcome),
    /// The last dial died, after moving `stats` and gaining `gained`.
    Failed {
        /// Short description of the failure.
        error: &'static str,
        /// Whether a redial may succeed (protocol and machine errors
        /// may not).
        transient: bool,
        /// Wire bytes the dead attempt moved.
        stats: WireStats,
        /// Symbols it decoded that were new to the node.
        gained: u64,
    },
}

/// What a [`FetchLadder`] tells the driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderAction {
    /// Dial and report the session's end.
    Dial(Dial),
    /// Sleep `delay` after failed attempt `attempt`, then report
    /// [`LadderEvent::Ready`] over the node's current set.
    Backoff {
        /// The attempt that failed.
        attempt: u32,
        /// How long to wait before redialing.
        delay: Duration,
    },
    /// The fetch is over.
    Finish(FetchReport),
}

/// One round fetch over one link, as a pure redial ladder.
///
/// Attempt 1 is the planned round session (`Round` epoch, the round
/// seed, the request missing at the barrier) — byte parity with the
/// simulator. Every later attempt resumes: a [`SessionEpoch::Live`]
/// dial advertising the node's current set under
/// `retry_seed(link, round, k)`, so no byte of prior progress is
/// re-fetched and no redial replays an earlier stream. An escalated
/// fetch makes its first attempt a speculative live dial under
/// `retry_seed(.., 1)` asking `2m + 4` symbols (§6.1's decoding
/// allowance: recoded symbols are not individually useful). A node that
/// is complete when a live dial is due never dials.
#[derive(Debug, Clone)]
pub(crate) struct FetchLadder {
    policy: RetryPolicy,
    from: PeerId,
    link_seed: u64,
    round: u32,
    escalate: bool,
    /// The attempt the next dial makes (1-based).
    attempt: u32,
    stats: WireStats,
    gained: u64,
}

impl FetchLadder {
    /// A fresh ladder for `link`'s round-`round` fetch, escalated when
    /// [`StallState`] says so.
    #[must_use]
    pub(crate) fn new(policy: RetryPolicy, link: &PlannedLink, round: u32, escalate: bool) -> Self {
        Self {
            policy,
            from: link.from,
            link_seed: link.seed,
            round,
            escalate,
            attempt: 1,
            stats: WireStats::default(),
            gained: 0,
        }
    }

    /// Whether the next dial advertises the node's current set rather
    /// than the round's barrier snapshot.
    #[must_use]
    pub(crate) fn resumes(&self) -> bool {
        self.escalate || self.attempt > 1
    }

    /// The session seed attempt `attempt` dials under.
    #[must_use]
    pub(crate) fn dial_seed(&self, attempt: u32) -> u64 {
        if attempt == 1 && !self.escalate {
            round_seed(self.link_seed, self.round)
        } else {
            retry_seed(self.link_seed, self.round, attempt)
        }
    }

    /// Advances the ladder by one event.
    pub(crate) fn handle(&mut self, event: LadderEvent) -> LadderAction {
        match event {
            LadderEvent::Ready { missing: 0 } => self.finish(Ok(false)),
            LadderEvent::Ready { missing } => LadderAction::Dial(Dial {
                epoch: if self.resumes() {
                    SessionEpoch::Live
                } else {
                    SessionEpoch::Round(self.round as u8)
                },
                seed: self.dial_seed(self.attempt),
                request: if self.escalate && self.attempt == 1 {
                    missing * 2 + 4
                } else {
                    missing
                },
                speculative: self.escalate,
            }),
            LadderEvent::Succeeded(outcome) => {
                self.stats += outcome.stats;
                self.gained += outcome.gained;
                self.finish(Ok(outcome.rejected))
            }
            LadderEvent::Failed {
                error,
                transient,
                stats,
                gained,
            } => {
                self.stats += stats;
                self.gained += gained;
                if !(transient && self.policy.allows_retry(self.attempt)) {
                    return self.finish(Err(error));
                }
                let failed = self.attempt;
                self.attempt += 1;
                LadderAction::Backoff {
                    attempt: failed,
                    delay: self.policy.backoff(failed, self.link_seed),
                }
            }
        }
    }

    /// The report; `Ok(rejected)` sums every attempt into the outcome.
    fn finish(&self, result: Result<bool, &'static str>) -> LadderAction {
        LadderAction::Finish(FetchReport {
            from: self.from,
            round: self.round,
            seed: round_seed(self.link_seed, self.round),
            outcome: result.map(|rejected| FetchOutcome {
                stats: self.stats,
                gained: self.gained,
                rejected,
            }),
            stats: self.stats,
            retries: self.attempt - 1,
        })
    }
}

/// A node's stall state across rounds.
///
/// Approximate summaries are pure functions of the two working sets, so
/// their false positives do not re-draw under fresh round seeds: a node
/// whose last missing symbols are exactly a digest's false positives
/// can gain nothing round after round while every session "succeeds".
/// A round that dialed, gained nothing and left the node incomplete is
/// *stalled*; the round after a stalled one escalates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StallState {
    stalled_rounds: u64,
    escalations: u64,
}

impl StallState {
    /// Whether the next round's dials escalate.
    #[must_use]
    pub(crate) fn escalates(&self) -> bool {
        self.stalled_rounds > 0
    }

    /// Rounds that ran escalated.
    #[must_use]
    pub(crate) fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Feeds one round that dialed at least one peer: its gains and
    /// whether the node is complete after it. Returns `Some(starved)`
    /// when the round ran escalated, `starved` being the consecutive
    /// stalled rounds that triggered it.
    pub(crate) fn end_round(&mut self, gained: u64, complete: bool) -> Option<u64> {
        let escalated = self.escalates().then(|| {
            self.escalations += 1;
            self.stalled_rounds
        });
        if gained == 0 && !complete {
            self.stalled_rounds += 1;
        } else {
            self.stalled_rounds = 0;
        }
        escalated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 1..=8 {
            let a = policy.backoff(attempt, 42);
            assert_eq!(a, policy.backoff(attempt, 42), "same inputs, same delay");
            assert!(a <= policy.max_delay);
            // Jitter strips at most half the exponential.
            let exp = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(policy.max_delay);
            assert!(a >= exp / 2, "attempt {attempt}: {a:?} < half of {exp:?}");
        }
        // Different salts de-synchronize.
        assert_ne!(policy.backoff(1, 1), policy.backoff(1, 2));
        // The exponential grows until the cap.
        assert!(policy.backoff(6, 7) > policy.backoff(1, 7));
    }

    #[test]
    fn retry_budget_gates_attempts() {
        let none = RetryPolicy::none();
        assert!(!none.allows_retry(1));
        let two = RetryPolicy::default();
        assert!(two.allows_retry(1) && two.allows_retry(2) && !two.allows_retry(3));
        assert_eq!(RetryPolicy::with_retries(5).max_retries, 5);
    }

    /// `plan::link_seed(7, 0, 1)`: the schedule literals below were
    /// captured from the daemon's retry loop before it became a ladder.
    const LINK: PlannedLink = PlannedLink {
        from: 0,
        to: 1,
        seed: 0x1652_74ed_120c_03e1,
    };

    fn stats(control_bytes: u64, data_bytes: u64, frames: u64) -> WireStats {
        WireStats {
            control_bytes,
            data_bytes,
            frames,
        }
    }

    fn cut(transient: bool, stats: WireStats, gained: u64) -> LadderEvent {
        LadderEvent::Failed {
            error: if transient {
                "read timeout"
            } else {
                "machine error"
            },
            transient,
            stats,
            gained,
        }
    }

    /// The final action of `LINK`'s round-`round` fetch.
    fn report(
        round: u32,
        outcome: Result<FetchOutcome, &'static str>,
        stats: WireStats,
        retries: u32,
    ) -> LadderAction {
        LadderAction::Finish(FetchReport {
            from: 0,
            round,
            seed: round_seed(LINK.seed, round),
            outcome,
            stats,
            retries,
        })
    }

    fn ladder(policy: RetryPolicy, round: u32, escalate: bool) -> FetchLadder {
        FetchLadder::new(policy, &LINK, round, escalate)
    }

    #[test]
    fn planned_attempt_dials_the_round_barrier() {
        assert_eq!(crate::plan::link_seed(7, 0, 1), LINK.seed);
        let mut ladder = ladder(RetryPolicy::default(), 2, false);
        assert!(!ladder.resumes());
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 40 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Round(2),
                seed: 0x8017_6a48_6f18_fbcc,
                request: 40,
                speculative: false,
            })
        );
        let done = FetchOutcome {
            stats: stats(300, 2_000, 30),
            gained: 40,
            rejected: false,
        };
        assert_eq!(
            ladder.handle(LadderEvent::Succeeded(done)),
            report(2, Ok(done), done.stats, 0)
        );
    }

    #[test]
    fn escalated_attempt_dials_live_with_a_decoding_allowance() {
        let mut ladder = ladder(RetryPolicy::default(), 2, true);
        assert!(ladder.resumes());
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 3 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Live,
                seed: 0xfabd_4897_534f_375e,
                request: 10,
                speculative: true,
            })
        );
        // Its redial keeps the speculative knob but drops the allowance.
        assert_eq!(
            ladder.handle(cut(true, stats(200, 100, 4), 1)),
            LadderAction::Backoff {
                attempt: 1,
                delay: Duration::from_nanos(36_193_692),
            }
        );
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 2 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Live,
                seed: 0x8e56_9674_2ffe_60d3,
                request: 2,
                speculative: true,
            })
        );
    }

    #[test]
    fn resumed_attempts_redial_live_after_seeded_backoffs() {
        let mut ladder = ladder(RetryPolicy::default(), 0, false);
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 40 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Round(0),
                seed: LINK.seed,
                request: 40,
                speculative: false,
            })
        );
        assert_eq!(
            ladder.handle(cut(true, stats(300, 700, 10), 12)),
            LadderAction::Backoff {
                attempt: 1,
                delay: Duration::from_nanos(36_193_692),
            }
        );
        assert!(ladder.resumes());
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 28 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Live,
                seed: 0xdaa2_4734_bc79_bcf5,
                request: 28,
                speculative: false,
            })
        );
        assert_eq!(
            ladder.handle(cut(true, stats(250, 300, 7), 5)),
            LadderAction::Backoff {
                attempt: 2,
                delay: Duration::from_nanos(52_525_981),
            }
        );
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 23 }),
            LadderAction::Dial(Dial {
                epoch: SessionEpoch::Live,
                seed: 0x84b2_79cf_ca1c_bf64,
                request: 23,
                speculative: false,
            })
        );
        let last = FetchOutcome {
            stats: stats(280, 1_500, 28),
            gained: 23,
            rejected: false,
        };
        let total = stats(830, 2_500, 45);
        let summed = FetchOutcome {
            stats: total,
            gained: 40,
            rejected: false,
        };
        assert_eq!(
            ladder.handle(LadderEvent::Succeeded(last)),
            report(0, Ok(summed), total, 2)
        );
    }

    #[test]
    fn completion_during_backoff_skips_the_redial() {
        let mut ladder = ladder(RetryPolicy::default(), 2, false);
        let _ = ladder.handle(LadderEvent::Ready { missing: 40 });
        let partial = stats(300, 700, 10);
        assert!(matches!(
            ladder.handle(cut(true, partial, 12)),
            LadderAction::Backoff { attempt: 1, .. }
        ));
        // Sibling sessions finished the node while this one slept.
        let banked = FetchOutcome {
            stats: partial,
            gained: 12,
            rejected: false,
        };
        assert_eq!(
            ladder.handle(LadderEvent::Ready { missing: 0 }),
            report(2, Ok(banked), partial, 1)
        );
    }

    #[test]
    fn fatal_failures_and_spent_budgets_finish_with_the_error() {
        let partial = stats(120, 0, 2);
        let mut fatal = ladder(RetryPolicy::default(), 2, false);
        let _ = fatal.handle(LadderEvent::Ready { missing: 40 });
        assert_eq!(
            fatal.handle(cut(false, partial, 0)),
            report(2, Err("machine error"), partial, 0)
        );
        let mut fail_fast = ladder(RetryPolicy::none(), 2, false);
        let _ = fail_fast.handle(LadderEvent::Ready { missing: 40 });
        assert_eq!(
            fail_fast.handle(cut(true, partial, 3)),
            report(2, Err("read timeout"), partial, 0)
        );
    }

    #[test]
    fn stall_escalations_report_consecutive_stalled_rounds() {
        // Gains 0, 0, 5, 0 on an incomplete node: the round after each
        // stalled round escalates, so the fifth round (whatever it
        // gains) runs the third escalation.
        let mut stall = StallState::default();
        let mut starved = Vec::new();
        for gained in [0, 0, 5, 0, 9] {
            let escalates = stall.escalates();
            let escalated = stall.end_round(gained, false);
            assert_eq!(escalated.is_some(), escalates);
            starved.extend(escalated);
        }
        assert_eq!(starved, [1, 2, 1]);
        assert_eq!(stall.escalations(), 3);
        // A round that leaves the node complete ends the stall.
        assert_eq!(stall.end_round(0, false), None);
        assert_eq!(stall.end_round(0, true), Some(1));
        assert!(!stall.escalates());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Arbitrary transient or fatal failures, partial stats and
        /// gains, and completion during a backoff: the ladder dials at
        /// most `1 + max_retries` times, attempt `k` under its
        /// scheduled seed, epoch and request, backs off by the policy,
        /// never dials a complete node, and reports the sums over every
        /// attempt.
        #[test]
        fn ladder_follows_the_schedule_and_sums_every_attempt(
            (max_retries, escalate, round) in (0u32..4, any::<bool>(), 0u32..6),
            (link_seed, initial_missing) in (any::<u64>(), 0u64..60),
            script in proptest::collection::vec(
                ((0u8..3, any::<bool>()), (0u64..4_000, 0u64..4_000, 0u64..40), 0u64..30),
                1..8,
            ),
        ) {
            let policy = RetryPolicy::with_retries(max_retries);
            let link = PlannedLink {
                from: 3,
                to: 4,
                seed: link_seed,
            };
            let mut ladder = FetchLadder::new(policy, &link, round, escalate);
            let mut script = script.into_iter();
            let (mut missing, mut completes_in_backoff) = (initial_missing, false);
            let (mut dials, mut backoffs, mut gained) = (0u32, 0u32, 0u64);
            let mut sum = WireStats::default();
            let mut action = ladder.handle(LadderEvent::Ready { missing });
            let report = loop {
                match action {
                    LadderAction::Dial(dial) => {
                        prop_assert!(missing > 0, "a complete node never dials");
                        dials += 1;
                        let planned = dials == 1 && !escalate;
                        prop_assert_eq!(
                            dial.seed,
                            if planned {
                                round_seed(link_seed, round)
                            } else {
                                retry_seed(link_seed, round, dials)
                            }
                        );
                        prop_assert_eq!(
                            dial.epoch,
                            if planned {
                                SessionEpoch::Round(round as u8)
                            } else {
                                SessionEpoch::Live
                            }
                        );
                        let allowance = dials == 1 && escalate;
                        prop_assert_eq!(
                            dial.request,
                            if allowance { missing * 2 + 4 } else { missing }
                        );
                        prop_assert_eq!(dial.speculative, escalate);
                        let ((kind, completes), (control, data, frames), got) =
                            script.next().unwrap_or(((0, false), (0, 0, 0), 0));
                        let attempt_stats = stats(control, data, frames);
                        sum += attempt_stats;
                        gained += got;
                        missing = missing.saturating_sub(got);
                        completes_in_backoff = completes;
                        action = ladder.handle(if kind == 0 {
                            LadderEvent::Succeeded(FetchOutcome {
                                stats: attempt_stats,
                                gained: got,
                                rejected: false,
                            })
                        } else {
                            cut(kind == 1, attempt_stats, got)
                        });
                    }
                    LadderAction::Backoff { attempt, delay } => {
                        backoffs += 1;
                        prop_assert_eq!(attempt, dials);
                        prop_assert_eq!(delay, policy.backoff(attempt, link_seed));
                        if completes_in_backoff {
                            missing = 0;
                        }
                        action = ladder.handle(LadderEvent::Ready { missing });
                    }
                    LadderAction::Finish(report) => break report,
                }
            };
            prop_assert!(dials <= 1 + max_retries);
            prop_assert_eq!((report.from, report.round), (3, round));
            prop_assert_eq!(report.seed, round_seed(link_seed, round));
            prop_assert_eq!(report.retries, backoffs);
            prop_assert_eq!(report.stats, sum);
            if let Ok(outcome) = report.outcome {
                prop_assert_eq!(outcome.stats, sum);
                prop_assert_eq!(outcome.gained, gained);
            }
        }
    }
}
