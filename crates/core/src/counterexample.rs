//! The Section 5.3 counterexample: property `S` has no weakest excluding
//! (l,k)-freedom property.

use slx_adversary::{TmStarvation, TripleRoundAdversary};
use slx_history::{ProcessId, TransactionStatus, TxnView, Value, VarId};
use slx_liveness::LkFreedom;
use slx_memory::{FairRandom, RepeatTxn, WorkloadScheduler};
use slx_safety::PropertyS;
use slx_tm::AgpTm;

/// Outcome of the Section 5.3 experiment.
#[derive(Debug, Clone)]
pub struct CounterexampleReport {
    /// (1,3)-freedom excludes `S`: the triple-round adversary looped this
    /// many all-abort rounds against Algorithm I(1,2) without a commit.
    pub triple_rounds: u64,
    /// Whether the triple-round adversary was ever defeated (it must not
    /// be).
    pub triple_lost: bool,
    /// (2,2)-freedom excludes `S`: rounds of the §4.1 starvation strategy
    /// (S includes opacity, so the §4.1 exclusion applies).
    pub starvation_rounds: u64,
    /// Whether the starvation victim ever committed (it must not).
    pub starvation_lost: bool,
    /// (1,2)-freedom does **not** exclude `S`: commits by each of the two
    /// active processes of Algorithm I(1,2) under a fair 2-stepper
    /// schedule.
    pub duo_commits: [u64; 2],
    /// Whether every checked I(1,2) history satisfied property `S`'s
    /// abort rule.
    pub s_holds: bool,
}

impl CounterexampleReport {
    /// Whether the experiment reproduces the section's conclusion: both
    /// (1,3) and (2,2) exclude `S`, (1,2) does not, and (1,2) is weaker
    /// than both — so no weakest excluding (l,k)-freedom exists.
    pub fn establishes_section_5_3(&self) -> bool {
        let one_three = LkFreedom::new(1, 3);
        let two_two = LkFreedom::new(2, 2);
        let one_two = LkFreedom::new(1, 2);
        self.triple_rounds >= 2
            && !self.triple_lost
            && self.starvation_rounds >= 2
            && !self.starvation_lost
            && self.duo_commits.iter().all(|&c| c > 0)
            && self.s_holds
            && one_three.is_stronger_or_equal(&one_two)
            && two_two.is_stronger_or_equal(&one_two)
            && one_three.partial_cmp_strength(&two_two).is_none()
    }
}

/// Runs the three legs of the Section 5.3 experiment against Algorithm
/// I(1,2):
///
/// 1. the three-process synchronized-round adversary (excludes
///    (1,3)-freedom);
/// 2. the two-process §4.1 starvation strategy (excludes (2,2)-freedom —
///    property `S` contains opacity, so the opacity exclusion carries
///    over);
/// 3. a fair two-stepper workload showing both processes commit
///    ((1,2)-freedom holds) while property `S` is preserved (Lemma 5.4).
pub fn run_counterexample_s(events: u64) -> CounterexampleReport {
    // Leg 1: (1,3) excluded.
    let mut sys = AgpTm::system(3, 1);
    let mut triple =
        TripleRoundAdversary::new([ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    sys.run(&mut triple, events);
    let mut s_holds = PropertyS::new(Value::new(0)).abort_rule_holds(sys.history());

    // Leg 2: (2,2) excluded.
    let mut sys = AgpTm::system(3, 1);
    let mut starve = TmStarvation::new(ProcessId::new(0), ProcessId::new(1), VarId::new(0));
    sys.run(&mut starve, events);
    s_holds &= PropertyS::new(Value::new(0)).abort_rule_holds(sys.history());

    // Leg 3: (1,2) implementable.
    let mut sys = AgpTm::system(3, 1);
    let workload = RepeatTxn::new(3, vec![VarId::new(0)], vec![VarId::new(0)], None);
    let mut sched = WorkloadScheduler::new(
        3,
        workload,
        FairRandom::restricted(13, vec![ProcessId::new(0), ProcessId::new(1)]),
    );
    sys.run(&mut sched, events);
    let view = TxnView::parse(sys.history());
    let commits = |i: usize| {
        view.of_process(ProcessId::new(i))
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .count() as u64
    };
    s_holds &= PropertyS::new(Value::new(0)).abort_rule_holds(sys.history());
    s_holds &= slx_safety::certify_unique_writes(sys.history(), Value::new(0));

    CounterexampleReport {
        triple_rounds: triple.rounds(),
        triple_lost: triple.lost(),
        starvation_rounds: starve.rounds(),
        starvation_lost: starve.lost(),
        duo_commits: [commits(0), commits(1)],
        s_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_5_3_reproduced() {
        let report = run_counterexample_s(3000);
        assert!(report.establishes_section_5_3(), "report: {report:?}");
    }

    #[test]
    fn incomparability_is_essential() {
        // The section's point: (1,3) and (2,2) both exclude S but are
        // incomparable, and their common weakening (1,2) does not exclude
        // S — so there is no weakest excluding (l,k)-freedom property.
        let a = LkFreedom::new(1, 3);
        let b = LkFreedom::new(2, 2);
        assert!(a.partial_cmp_strength(&b).is_none());
        let common = LkFreedom::new(1, 2);
        assert!(a.is_stronger_or_equal(&common));
        assert!(b.is_stronger_or_equal(&common));
    }
}
