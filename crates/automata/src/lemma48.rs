//! Lemma 4.8: the strongest liveness property an implementation ensures.
//!
//! Lemma 4.8 states that the strongest liveness property ensured by an
//! implementation `I` is `Lmax ∪ fair(A_I)`. On finite truncations that
//! set is computed directly: enumerate `fair(A_I)` to a depth bound and
//! union it with the `Lmax`-truncation.
//!
//! At bounded scope the lemma is definitional: "`I` ensures `L`" is read
//! as `fair(A_I) ⊆ L`, so `Lmax ∪ fair(A_I)` is ensured, and every `L ⊇
//! Lmax` that is ensured contains it, by set algebra alone. No candidate
//! property is searched, because no search could fail. Giving the lemma
//! content needs fair *infinite* executions of `A_I` (fair lassos), which
//! this crate does not enumerate yet.
//!
//! The automaton constructions it is exercised on are
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

/// The strongest liveness property `a` ensures at truncation depth
/// `depth`, per Lemma 4.8: `lmax ∪ fair(A_I)`.
///
/// `fair(A_I)` is enumerated once. See the module docs for why this is a
/// construction and not a check.
pub fn strongest_ensured<L: Clone + Ord + std::fmt::Debug>(
    a: &Automaton<L>,
    lmax: &BoundedLiveness<L>,
    depth: usize,
) -> BoundedLiveness<L> {
    lmax.union(&BoundedLiveness::new(a.fair_histories(depth)))
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
        let it = trivial_it(1, &[propose(1)], &[Response::Decided(Value::new(1))]);
        let depth = 2;
        // Bounded Lmax: histories where the process is not left pending
        // (here: those without a dangling invocation).
        let lmax = BoundedLiveness::new(it.histories(depth).into_iter().filter(|h| {
            let hist = slx_history::History::from_actions(h.iter().copied());
            !hist.pending(p(0)) && !hist.crashed(p(0))
        }));
        let strongest = strongest_ensured(&it, &lmax, depth);
        assert!(strongest.ensured_by(&it, depth));
        assert!(lmax.is_stronger_or_equal(&strongest));
        // The strongest ensured property strictly extends Lmax: It's fair
        // histories include pending-forever histories outside Lmax.
        assert!(strongest.len() > lmax.len());
        let pending_history = vec![Action::invoke(p(0), propose(1))];
        assert!(strongest.contains(&pending_history));
        assert!(!lmax.contains(&pending_history));
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
