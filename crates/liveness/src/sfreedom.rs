//! S-freedom (Taubenfeld, "The computational structure of progress
//! conditions", DISC 2010), discussed in the paper's Section 6.

use std::collections::BTreeSet;

use crate::progress::ExecutionView;
use crate::property::LivenessProperty;

/// S-freedom for a set `S` of natural numbers: for every set `P` of correct
/// processes with `|P| ∈ S`, every process in `P` makes progress as long as
/// the processes of `P` run without step contention from outside `P`.
///
/// Window semantics: if the set of window steppers `P` consists of correct
/// processes and `|P| ∈ S`, then all of them must make progress.
///
/// Section 6 recalls two structural facts that the core crate's Section 6
/// experiment regenerates: S-freedom is implementable for consensus from
/// registers iff `|S| = 1`, and distinct singleton S-freedom properties are
/// pairwise incomparable — so even this restricted family has no strongest
/// implementable member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SFreedom {
    sizes: BTreeSet<usize>,
}

impl SFreedom {
    /// Creates S-freedom for the given set of contention sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains 0.
    pub fn new<I: IntoIterator<Item = usize>>(sizes: I) -> Self {
        let sizes: BTreeSet<usize> = sizes.into_iter().collect();
        assert!(!sizes.is_empty(), "S-freedom requires a non-empty S");
        assert!(!sizes.contains(&0), "S-freedom sizes must be positive");
        SFreedom { sizes }
    }

    /// The set `S`.
    pub fn sizes(&self) -> &BTreeSet<usize> {
        &self.sizes
    }

    /// Whether `self` is stronger than or equal to `other` (more sets `P`
    /// constrained ⇒ smaller execution set ⇒ stronger): `other.S ⊆ self.S`.
    pub fn is_stronger_or_equal(&self, other: &SFreedom) -> bool {
        other.sizes.is_subset(&self.sizes)
    }

    /// Whether the two properties are incomparable (neither ⊆ the other).
    pub fn incomparable(&self, other: &SFreedom) -> bool {
        !self.is_stronger_or_equal(other) && !other.is_stronger_or_equal(self)
    }
}

impl std::fmt::Display for SFreedom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let list: Vec<String> = self.sizes.iter().map(|s| s.to_string()).collect();
        write!(f, "{{{}}}-freedom", list.join(","))
    }
}

impl LivenessProperty for SFreedom {
    fn name(&self) -> String {
        self.to_string()
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        let steppers = view.steppers();
        if !self.sizes.contains(&steppers.len()) {
            return true;
        }
        if steppers.iter().any(|&p| !view.is_correct(p)) {
            // Contention includes a crashed process' past steps: treat the
            // set as not a set of correct processes — unconstrained.
            return true;
        }
        steppers.into_iter().all(|p| view.makes_progress(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressKind;
    use slx_history::{Operation, ProcessId, Response, Value};
    use slx_memory::Event;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn exec(n: usize, stepping: &[usize], progressing: &[usize]) -> ExecutionView {
        let mut events = Vec::new();
        for i in 0..n {
            events.push(Event::Invoked(p(i), Operation::Propose(Value::new(1))));
        }
        for &i in stepping {
            events.push(Event::Stepped(p(i)));
        }
        for &i in progressing {
            events.push(Event::Responded(p(i), Response::Decided(Value::new(1))));
            events.push(Event::Invoked(p(i), Operation::Propose(Value::new(1))));
        }
        ExecutionView::lasso(&[], &events, n, ProgressKind::AnyResponse)
    }

    #[test]
    fn singleton_one_is_obstruction_freedom_shape() {
        let s = SFreedom::new([1]);
        assert!(s.satisfied(&exec(3, &[0], &[0])));
        assert!(!s.satisfied(&exec(3, &[0], &[])));
        // Two steppers: |P| = 2 ∉ {1}, unconstrained.
        assert!(s.satisfied(&exec(3, &[0, 1], &[])));
    }

    #[test]
    fn singleton_two_constrains_only_pairs() {
        let s = SFreedom::new([2]);
        assert!(s.satisfied(&exec(3, &[0], &[])));
        assert!(!s.satisfied(&exec(3, &[0, 1], &[0])));
        assert!(s.satisfied(&exec(3, &[0, 1], &[0, 1])));
        assert!(s.satisfied(&exec(3, &[0, 1, 2], &[])));
    }

    #[test]
    fn singletons_pairwise_incomparable() {
        // The Section 6 fact behind "no strongest implementable S-freedom".
        for a in 1..=5usize {
            for b in 1..=5usize {
                if a != b {
                    assert!(SFreedom::new([a]).incomparable(&SFreedom::new([b])));
                }
            }
        }
    }

    #[test]
    fn subset_order() {
        let big = SFreedom::new([1, 2, 3]);
        let small = SFreedom::new([2]);
        assert!(big.is_stronger_or_equal(&small));
        assert!(!small.is_stronger_or_equal(&big));
        assert!(!big.incomparable(&small));
    }

    #[test]
    fn semantic_order_matches_subset_order() {
        let samples = [
            exec(3, &[0], &[0]),
            exec(3, &[0], &[]),
            exec(3, &[0, 1], &[0, 1]),
            exec(3, &[0, 1], &[0]),
            exec(3, &[0, 1, 2], &[]),
        ];
        let all = [
            SFreedom::new([1]),
            SFreedom::new([2]),
            SFreedom::new([3]),
            SFreedom::new([1, 2]),
            SFreedom::new([1, 2, 3]),
        ];
        for strong in &all {
            for weak in &all {
                if strong.is_stronger_or_equal(weak) {
                    for (i, e) in samples.iter().enumerate() {
                        if strong.satisfied(e) {
                            assert!(weak.satisfied(e), "{strong} vs {weak} on {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(SFreedom::new([1, 3]).to_string(), "{1,3}-freedom");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_s_panics() {
        let _ = SFreedom::new(Vec::<usize>::new());
    }
}
