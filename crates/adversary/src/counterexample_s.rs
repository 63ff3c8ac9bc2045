//! The Section 5.3 three-process adversary against property `S`.

use slx_history::{Operation, ProcessId, Response};
use slx_memory::{Decision, Process, Scheduler, System};
use slx_tm::normalize::normalized_agp;
use slx_tm::{AgpTm, TmWord};

/// Per-process stage within one round of the strategy. Exposed because it
/// is part of the normalized cycle-detection key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Needs to invoke `start()`.
    NeedStart,
    /// `start()` invoked, awaiting its response.
    StartPending,
    /// `start()` returned ok.
    StartedOk,
    /// `start()` aborted (sits this round out, per the strategy).
    StartedAborted,
    /// `tryC()` invoked, awaiting its response.
    TryCPending,
    /// `tryC()` aborted this round.
    RoundAborted,
}

/// The Section 5.3 adversary: three processes concurrently `start()` their
/// `t`-th transactions, wait until **all** have start responses, then all
/// (non-aborted ones) invoke `tryC()`. If every commit request aborts, the
/// round repeats; if any process ever commits, the adversary halts
/// (defeated — and, against an implementation of property `S`, a commit
/// here would itself violate `S`, the contradiction at the heart of the
/// section).
///
/// Against Algorithm I(1,2) the timestamp rule aborts all three `tryC()`s
/// every round, so the strategy loops forever: three steppers, no commits
/// — a violation of (1,3)-freedom, witnessed as a lasso under
/// [`normalized_triple_round_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TripleRoundAdversary {
    procs: [ProcessId; 3],
    stages: [Stage; 3],
    /// Set when some process committed: the adversary lost.
    lost: bool,
}

impl TripleRoundAdversary {
    /// Creates the strategy over three processes.
    pub fn new(procs: [ProcessId; 3]) -> Self {
        TripleRoundAdversary {
            procs,
            stages: [Stage::NeedStart; 3],
            lost: false,
        }
    }

    /// Whether some process committed (the adversary lost).
    pub fn lost(&self) -> bool {
        self.lost
    }

    fn absorb_responses<P: Process<TmWord>>(&mut self, sys: &System<TmWord, P>) {
        for (i, &q) in self.procs.iter().enumerate() {
            let waiting = matches!(self.stages[i], Stage::StartPending | Stage::TryCPending);
            if waiting && !sys.is_pending(q) {
                let resp = *sys
                    .history()
                    .responses_of(q)
                    .last()
                    .expect("response arrived");
                self.stages[i] = match (self.stages[i], resp) {
                    (Stage::StartPending, Response::Aborted) => Stage::StartedAborted,
                    (Stage::StartPending, _) => Stage::StartedOk,
                    (Stage::TryCPending, Response::Aborted) => Stage::RoundAborted,
                    (Stage::TryCPending, Response::Committed) => {
                        self.lost = true;
                        Stage::RoundAborted
                    }
                    (s, _) => s,
                };
            }
        }
    }
}

impl<P: Process<TmWord>> Scheduler<TmWord, P> for TripleRoundAdversary {
    fn decide(&mut self, sys: &System<TmWord, P>) -> Decision {
        self.absorb_responses(sys);
        if self.lost {
            return Decision::Halt;
        }
        // Phase A: get everyone started.
        for (i, &q) in self.procs.iter().enumerate() {
            if self.stages[i] == Stage::NeedStart {
                self.stages[i] = Stage::StartPending;
                return Decision::Invoke(q, Operation::TxStart);
            }
        }
        if let Some(i) = self.stages.iter().position(|s| *s == Stage::StartPending) {
            return Decision::Step(self.procs[i]);
        }
        // All start responses in. Phase B: non-aborted processes tryC,
        // *after* everyone's start response (the condition property S
        // requires).
        for (i, &q) in self.procs.iter().enumerate() {
            if self.stages[i] == Stage::StartedOk {
                self.stages[i] = Stage::TryCPending;
                return Decision::Invoke(q, Operation::TxCommit);
            }
        }
        if let Some(i) = self.stages.iter().position(|s| *s == Stage::TryCPending) {
            return Decision::Step(self.procs[i]);
        }
        // Round over: everyone aborted (commits were caught above).
        self.stages = [Stage::NeedStart; 3];
        // Recurse once into the new round.
        self.stages[0] = Stage::StartPending;
        Decision::Invoke(self.procs[0], Operation::TxStart)
    }
}

/// The §5.3 cycle-detection key for [`TripleRoundAdversary`] on an
/// [`AgpTm`]: the configuration with versions, values and timestamps
/// rebased ([`normalized_agp`]; every process's timestamp climbs by one
/// per round) and the strategy's per-round stages.
#[must_use]
pub fn normalized_triple_round_key(
    sys: &System<TmWord, AgpTm>,
    adv: &TripleRoundAdversary,
) -> (System<TmWord, AgpTm>, [Stage; 3]) {
    (normalized_agp(sys), adv.stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{TransactionStatus, TxnView, Value};
    use slx_liveness::{LkFreedom, ProgressKind};
    use slx_safety::PropertyS;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn all_rounds_abort_against_agp() {
        let mut sys = AgpTm::system(3, 1);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        sys.run(&mut adv, 3000);
        assert!(!adv.lost(), "a commit escaped the timestamp rule");
        // No transaction ever commits, over many rounds of three aborts.
        let view = TxnView::parse(sys.history());
        assert!(view
            .transactions()
            .iter()
            .all(|t| t.status() != TransactionStatus::Committed));
        let aborted = view.transactions().len();
        assert!(aborted >= 60, "only {aborted} transactions");
        // And the runs stay inside property S.
        assert!(PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
    }

    #[test]
    fn lasso_proves_eternal_all_abort_loop() {
        let mut sys = AgpTm::system(3, 1);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        let witness = slx_explorer::run_until_cycle_keyed(
            &mut sys,
            &[],
            &mut adv,
            normalized_triple_round_key,
        )
        .expect("all-abort loop must cycle");
        assert_eq!(witness.cycle_steppers(), vec![p(0), p(1), p(2)]);
        // Exact verdicts on stem·cycle^ω: (1,3)-freedom is violated (three
        // steppers, nobody commits) while (2,2)-freedom holds vacuously.
        assert!(!witness.evaluate_liveness(&LkFreedom::new(1, 3), ProgressKind::CommitOnly));
        assert!(witness.evaluate_liveness(&LkFreedom::new(2, 2), ProgressKind::CommitOnly));
    }

    #[test]
    fn adversary_defeated_by_global_version_tm() {
        // GlobalVersionTm has no timestamp rule: in the synchronized round
        // the first tryC CAS succeeds, the adversary loses — and indeed
        // GlobalVersionTm does NOT implement property S.
        let mut sys = slx_tm::GlobalVersionTm::system(3, 1);
        let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
        // The control for the (1,3) lasso: the strategy halts once a
        // commit escapes it.
        let outcome = slx_explorer::run_until_cycle_keyed(&mut sys, &[], &mut adv, |sys, adv| {
            (sys.digest128(), adv.clone())
        });
        assert!(
            matches!(outcome, Err(slx_explorer::NoLasso::Halted { .. })),
            "{outcome:?}"
        );
        assert!(adv.lost(), "GlobalVersionTm should commit in round 1");
        // The produced history indeed violates property S's abort rule.
        assert!(!PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
    }
}
