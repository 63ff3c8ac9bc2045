//! The Section 5.3 counterexample: property `S` has no weakest excluding
//! (l,k)-freedom property.

use slx_adversary::{normalized_triple_round_key, TripleRoundAdversary};
use slx_explorer::{run_until_cycle_keyed, Lasso};
use slx_history::{History, ProcessId, Value};
use slx_liveness::{LkFreedom, ProgressKind};
use slx_safety::{certify_unique_writes, Opacity, PropertyS, SafetyProperty};
use slx_tm::normalize::normalized_agp_among;
use slx_tm::AgpTm;

use crate::claims::{lasso_line, Claim};
use crate::grid::{others_crashed, starvation_lasso, workload_lasso, STARVATION_ROLES};

/// **Section 5.3**: property `S` is excluded by both (1,3)- and
/// (2,2)-freedom yet implemented at (1,2), which is weaker than both, so
/// even within (l,k)-freedom no weakest excluding property exists. The
/// three legs run against Algorithm I(1,2) on three processes:
///
/// 1. the three-process synchronized-round adversary (excludes
///    (1,3)-freedom);
/// 2. Figure 1(b)'s black-anchor search ([`starvation_lasso`]): the §4.1
///    strategy with the third process crashed first (excludes
///    (2,2)-freedom — property `S` contains opacity, so the opacity
///    exclusion carries over). The crash matters: with the third process
///    correct and never invoked, it counts as progressing, so the
///    committer and it make two and the run *satisfies* (2,2)-freedom;
/// 3. Figure 1(b)'s white-anchor search ([`workload_lasso`]) with the
///    third process crashed first: the two others loop a transaction
///    round-robin, someone commits on every cycle ((1,2)-freedom holds)
///    and property `S` is preserved (Lemma 5.4). Round-robin starves one
///    of the two, so (2,2)-freedom fails on the same lasso.
pub fn section_5_3() -> Claim {
    let lk = LkFreedom::new;
    let s = |h: &History| PropertyS::new(Value::new(0)).abort_rule_holds(h);

    // Leg 1: (1,3) excluded.
    let mut sys = AgpTm::system(3, 1);
    let mut triple =
        TripleRoundAdversary::new([ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    let key = normalized_triple_round_key;
    let outcome = run_until_cycle_keyed(&mut sys, &[], &mut triple, key);
    let triple = Lasso::new(outcome, ProgressKind::CommitOnly);
    let mut s_holds = s(sys.history());

    // Leg 2: (2,2) excluded.
    let mut sys = AgpTm::system(3, 1);
    let (starvation, _) = starvation_lasso(
        &mut sys,
        &others_crashed(3),
        STARVATION_ROLES,
        normalized_agp_among,
    );
    s_holds &= s(sys.history());

    // Leg 3: (1,2) implementable.
    let mut sys = AgpTm::system(3, 1);
    let duo = workload_lasso(&mut sys, &others_crashed(3), normalized_agp_among);
    let (h, init) = (sys.history(), Value::new(0));
    s_holds &= s(h) && (certify_unique_writes(h, init) || Opacity::new(init).allows(h));

    // (1,2) is weaker than both, which are incomparable: no weakest
    // excluding (l,k)-freedom exists.
    let order = lk(1, 3).is_stronger_or_equal(&lk(1, 2))
        && lk(2, 2).is_stronger_or_equal(&lk(1, 2))
        && lk(1, 3).partial_cmp_strength(&lk(2, 2)).is_none();
    let holds = triple.verdict(&lk(1, 3)) == Some(false)
        && starvation.verdict(&lk(2, 2)) == Some(false)
        && duo.verdict(&lk(1, 2)) == Some(true)
        && s_holds
        && order;
    Claim {
        id: "Section 5.3 (property S)",
        holds,
        evidence: vec![
            lasso_line(lk(1, 3), &triple, "triple-round adversary"),
            lasso_line(lk(2, 2), &starvation, "§4.1 strategy, p3 crashed"),
            lasso_line(lk(1, 2), &duo, "round-robin workload, p3 crashed"),
            format!("property S held on all three: {s_holds}"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_2_excludes_22_freedom_only_with_the_idle_process_crashed() {
        let (two_two, one_two) = (LkFreedom::new(2, 2), LkFreedom::new(1, 2));
        let roles = STARVATION_ROLES;
        // The idle p3 is correct and has nothing pending: it counts as
        // progressing beside the committer, so (2,2)-freedom holds.
        let (idle, _) =
            starvation_lasso(&mut AgpTm::system(3, 1), &[], roles, normalized_agp_among);
        assert_eq!(idle.verdict(&two_two), Some(true));
        assert_eq!(idle.verdict(&one_two), Some(true));
        // With p3 crashed in the stem only the committer progresses.
        let mut sys = AgpTm::system(3, 1);
        let (crashed, _) =
            starvation_lasso(&mut sys, &others_crashed(3), roles, normalized_agp_among);
        assert_eq!(crashed.verdict(&two_two), Some(false));
        assert_eq!(crashed.verdict(&one_two), Some(true));
        assert!(PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
        // The crash is the stem's first event; the cycles agree.
        let (idle, crashed) = (idle.witness().unwrap(), crashed.witness().unwrap());
        assert_eq!(
            crashed.stem[0],
            slx_memory::Event::Crashed(ProcessId::new(2))
        );
        assert_eq!(crashed.cycle, idle.cycle);
    }

    /// Leg 3 on Algorithm I(1,2), p3 crashed: someone commits on every
    /// cycle, so (1,2)-freedom holds; round-robin starves one of the two
    /// steppers, so (2,2)-freedom fails.
    #[test]
    fn leg_3_satisfies_12_freedom_and_not_22_freedom() {
        let mut sys = AgpTm::system(3, 1);
        let duo = workload_lasso(&mut sys, &others_crashed(3), normalized_agp_among);
        assert_eq!(duo.verdict(&LkFreedom::new(1, 2)), Some(true), "{duo}");
        assert_eq!(duo.verdict(&LkFreedom::new(2, 2)), Some(false), "{duo}");
        assert!(PropertyS::new(Value::new(0)).abort_rule_holds(sys.history()));
        let duo = duo.witness().unwrap();
        assert_eq!(duo.stem[0], slx_memory::Event::Crashed(ProcessId::new(2)));
        assert_eq!(duo.cycle_steppers(), [ProcessId::new(0), ProcessId::new(1)]);
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
