//! Lemma 4.8: the strongest liveness property an implementation ensures.
//!
//! Lemma 4.8 states that the strongest liveness property ensured by an
//! implementation `I` is `Lmax ∪ fair(A_I)`. On finite truncations this is
//! directly checkable: enumerate `fair(A_I)` to a depth bound, represent
//! candidate liveness properties as history sets over the same bounded
//! universe, and verify both directions of the lemma by brute force.
//!
//! This module provides the bounded-universe machinery and the checked
//! statement; the automaton constructions it is exercised on are
//! [`crate::trivial_it`] and [`crate::single_response_ib`].

use std::collections::BTreeSet;

use crate::automaton::Automaton;

/// A bounded-universe liveness property: a set of histories over a fixed
/// depth bound, required (Definition 3.2) to contain the designated
/// `Lmax`-truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedLiveness<L: Ord> {
    histories: BTreeSet<Vec<L>>,
}

impl<L: Clone + Ord + std::fmt::Debug> BoundedLiveness<L> {
    /// Creates a property from a set of histories.
    pub fn new<I: IntoIterator<Item = Vec<L>>>(histories: I) -> Self {
        BoundedLiveness {
            histories: histories.into_iter().collect(),
        }
    }

    /// Membership.
    pub fn contains(&self, h: &[L]) -> bool {
        self.histories.contains(h)
    }

    /// Number of member histories.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// Set union (the `Lmax ∪ fair(A_I)` of the lemma).
    pub fn union(&self, other: &BoundedLiveness<L>) -> BoundedLiveness<L> {
        BoundedLiveness {
            histories: self.histories.union(&other.histories).cloned().collect(),
        }
    }

    /// Whether `self ⊆ other` — i.e. `self` is *stronger* than `other` in
    /// the paper's ordering.
    pub fn is_stronger_or_equal(&self, other: &BoundedLiveness<L>) -> bool {
        self.histories.is_subset(&other.histories)
    }

    /// Whether the automaton *ensures* this property at the truncation
    /// depth: every fair history is a member.
    pub fn ensured_by(&self, a: &Automaton<L>, depth: usize) -> bool {
        a.fair_histories(depth)
            .iter()
            .all(|h| self.histories.contains(h))
    }
}

/// The checked statement of Lemma 4.8 over a bounded universe:
/// `Lmax ∪ fair(A_I)` is ensured by `I`, and every property ensured by `I`
/// (that contains `Lmax`, per Definition 3.2) is weaker than it.
///
/// Returns the strongest ensured property (`lmax ∪ fair(A_I)`).
///
/// The "every property" quantification is over all subsets of the bounded
/// universe, which is exponential; callers keep the universe tiny (the
/// tests use ≤ 12 histories; more than 16 outside `lmax` panics).
/// `fair(A_I)` is enumerated once, whatever the number of candidates.
pub fn lemma_4_8_holds<L: Clone + Ord + std::fmt::Debug>(
    a: &Automaton<L>,
    lmax: &BoundedLiveness<L>,
    universe: &[Vec<L>],
    depth: usize,
) -> (bool, BoundedLiveness<L>) {
    // "Ensured by I" below is inclusion of this set: what `ensured_by`
    // computes, without enumerating again.
    let fair = BoundedLiveness::new(a.fair_histories(depth));
    let strongest = lmax.union(&fair);

    // Direction 1: I ensures Lmax ∪ fair(A_I).
    if !fair.is_stronger_or_equal(&strongest) {
        return (false, strongest);
    }

    // Direction 2: every liveness property ensured by I is weaker than the
    // candidate. Enumerate all liveness properties over the universe: all
    // subsets containing lmax.
    let extras: Vec<&Vec<L>> = universe.iter().filter(|h| !lmax.contains(h)).collect();
    if extras.len() > 16 {
        panic!(
            "universe too large for exhaustive Lemma 4.8 check ({} extras)",
            extras.len()
        );
    }
    for mask in 0u32..(1 << extras.len()) {
        let mut histories: BTreeSet<Vec<L>> = lmax.histories.clone();
        for (bit, h) in extras.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                histories.insert((*h).clone());
            }
        }
        let candidate = BoundedLiveness { histories };
        if fair.is_stronger_or_equal(&candidate) && !strongest.is_stronger_or_equal(&candidate) {
            return (false, strongest);
        }
    }
    (true, strongest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem49::trivial_it;
    use slx_history::{Action, Operation, ProcessId, Response, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn propose(v: i64) -> Operation {
        Operation::Propose(Value::new(v))
    }

    #[test]
    fn lemma_4_8_on_trivial_it() {
        // One process, one possible invocation: small enough to enumerate
        // all liveness properties over the depth-2 universe.
        let it = trivial_it(1, &[propose(1)], &[Response::Decided(Value::new(1))]);
        let depth = 2;
        let universe: Vec<Vec<Action>> = it.histories(depth).into_iter().collect();
        // Bounded Lmax: histories where the process is not left pending
        // (here: those without a dangling invocation).
        let lmax = BoundedLiveness::new(
            universe
                .iter()
                .filter(|&h| {
                    let hist = slx_history::History::from_actions(h.iter().copied());
                    !hist.pending(p(0)) && !hist.crashed(p(0))
                })
                .cloned(),
        );
        let (holds, strongest) = lemma_4_8_holds(&it, &lmax, &universe, depth);
        assert!(holds, "Lemma 4.8 fails on It");
        // The strongest ensured property strictly extends Lmax: It's fair
        // histories include pending-forever histories outside Lmax.
        assert!(strongest.len() > lmax.len());
        let pending_history = vec![Action::invoke(p(0), propose(1))];
        assert!(strongest.contains(&pending_history));
        assert!(!lmax.contains(&pending_history));
    }

    #[test]
    fn lemma_4_8_enumerates_fair_histories_once() {
        use crate::automaton::EXECUTIONS_CALLS;
        let it = trivial_it(1, &[propose(1)], &[Response::Decided(Value::new(1))]);
        let depth = 2;
        let universe: Vec<Vec<Action>> = it.histories(depth).into_iter().collect();
        // Lmax = {ε}: every other history of the universe is an extra, so
        // direction 2 walks 2^(|universe| - 1) candidates.
        let lmax = BoundedLiveness::new([vec![]]);
        assert!(universe.len() > 2);
        let before = EXECUTIONS_CALLS.with(std::cell::Cell::get);
        let (holds, strongest) = lemma_4_8_holds(&it, &lmax, &universe, depth);
        let calls = EXECUTIONS_CALLS.with(std::cell::Cell::get) - before;
        assert_eq!(calls, 1, "fair(A_I) enumerated {calls} times");
        assert!(holds);
        assert!(strongest.ensured_by(&it, depth));
    }

    #[test]
    fn bounded_liveness_algebra() {
        let a = BoundedLiveness::new([vec!["x"], vec!["y"]]);
        let b = BoundedLiveness::new([vec!["y"], vec!["z"]]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_stronger_or_equal(&u));
        assert!(!u.is_stronger_or_equal(&a));
        assert!(!a.is_empty());
        assert!(a.contains(&["x"]));
    }
}
