//! The explicit consensus adversary sets `F1` and `F2` of Section 4.1.

use slx_history::{Action, History, HistorySet, Operation, ProcessId, Response, Value};

/// The paper's adversary set `F1` w.r.t. wait-freedom and consensus
/// agreement-and-validity (for implementations from registers): all
/// histories in which `p1` and `p2` propose *different* values, `p1`
/// first, and at most one of them decides. Quoting the paper:
///
/// ```text
/// F1 = { propose1(v)·propose2(v'),
///        propose1(v)·v1·propose2(v'),
///        propose1(v)·propose2(v')·v1,
///        propose1(v)·propose2(v')·v'1,
///        propose1(v)·propose2(v')·v2,
///        propose1(v)·propose2(v')·v'2 }
/// ```
///
/// Existence of a fair continuation of one of these into an infinite
/// no-decision execution is the Chor–Israeli–Li impossibility; the
/// [`crate::run_bivalence_adversary_with`] half of this crate produces such
/// continuations mechanically.
pub fn consensus_f1(v: Value, v_prime: Value) -> HistorySet {
    two_proposal_set(ProcessId::new(0), ProcessId::new(1), v, v_prime)
}

/// The role-swapped adversary set `F2`: `p2` proposes first. Also an
/// adversary set (the impossibility proof does not depend on process
/// identifiers), and disjoint from `F1` — every `F1` history begins with a
/// `p1` invocation, every `F2` history with a `p2` invocation.
pub fn consensus_f2(v: Value, v_prime: Value) -> HistorySet {
    two_proposal_set(ProcessId::new(1), ProcessId::new(0), v, v_prime)
}

/// `Gmax` of Theorem 4.4 for a finite family of adversary sets: their
/// intersection.
pub fn gmax_of(sets: &[HistorySet]) -> HistorySet {
    let mut iter = sets.iter();
    let Some(first) = iter.next() else {
        return HistorySet::new();
    };
    iter.fold(first.clone(), |acc, s| acc.intersection(s))
}

fn two_proposal_set(first: ProcessId, second: ProcessId, v: Value, v_prime: Value) -> HistorySet {
    let inv1 = Action::invoke(first, Operation::Propose(v));
    let inv2 = Action::invoke(second, Operation::Propose(v_prime));
    let dec = |p: ProcessId, val: Value| Action::respond(p, Response::Decided(val));

    HistorySet::from_histories([
        // propose_first(v) · propose_second(v')
        History::from_actions([inv1, inv2]),
        // propose_first(v) · v_first · propose_second(v')
        History::from_actions([inv1, dec(first, v), inv2]),
        // propose_first(v) · propose_second(v') · v_first
        History::from_actions([inv1, inv2, dec(first, v)]),
        // propose_first(v) · propose_second(v') · v'_first
        History::from_actions([inv1, inv2, dec(first, v_prime)]),
        // propose_first(v) · propose_second(v') · v_second
        History::from_actions([inv1, inv2, dec(second, v)]),
        // propose_first(v) · propose_second(v') · v'_second
        History::from_actions([inv1, inv2, dec(second, v_prime)]),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::ProcessId;
    use slx_safety::{ConsensusSafety, SafetyProperty};

    fn v(x: i64) -> Value {
        Value::new(x)
    }

    #[test]
    fn f1_has_six_histories() {
        assert_eq!(consensus_f1(v(1), v(2)).len(), 6);
        assert_eq!(consensus_f2(v(1), v(2)).len(), 6);
    }

    #[test]
    fn f1_f2_disjoint_so_gmax_empty() {
        // The crux of Corollary 4.5.
        let f1 = consensus_f1(v(1), v(2));
        let f2 = consensus_f2(v(1), v(2));
        assert!(f1.is_disjoint(&f2));
        assert!(gmax_of(&[f1, f2]).is_empty());
    }

    #[test]
    fn members_satisfy_safety() {
        // Condition (1) of Definition 4.3: F ⊆ S.
        let safety = ConsensusSafety::new();
        for h in consensus_f1(v(1), v(2)).iter() {
            assert!(safety.allows(h), "F1 member violates safety: {h}");
        }
        for h in consensus_f2(v(1), v(2)).iter() {
            assert!(safety.allows(h), "F2 member violates safety: {h}");
        }
    }

    #[test]
    fn members_deny_wait_freedom() {
        // Condition (2): F ⊆ complement of Lmax — in every member, some
        // correct process has proposed but not decided.
        for h in consensus_f1(v(1), v(2)).iter() {
            let some_starved = ProcessId::all(2).any(|p| h.correct(p) && h.pending(p));
            assert!(some_starved, "F1 member satisfies Lmax: {h}");
        }
    }

    #[test]
    fn members_are_well_formed() {
        for h in consensus_f1(v(3), v(4))
            .union(&consensus_f2(v(3), v(4)))
            .iter()
        {
            assert!(h.is_well_formed(), "malformed member {h}");
        }
    }

    #[test]
    fn first_action_distinguishes_the_sets() {
        for h in consensus_f1(v(1), v(2)).iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(0));
        }
        for h in consensus_f2(v(1), v(2)).iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(1));
        }
    }

    #[test]
    fn gmax_of_empty_family_is_empty() {
        assert!(gmax_of(&[]).is_empty());
    }

    #[test]
    fn gmax_of_single_set_is_itself() {
        let f1 = consensus_f1(v(1), v(2));
        assert_eq!(gmax_of(std::slice::from_ref(&f1)), f1);
    }
}
