//! (n,x)-liveness (Imbs, Raynal & Taubenfeld, "On asymmetric progress
//! conditions", PODC 2010), discussed in the paper's Section 6.

use std::cmp::Ordering;

use slx_history::ProcessId;

use crate::progress::ExecutionView;
use crate::property::LivenessProperty;

/// (n,x)-liveness: in an `n`-process system, a designated set of `x`
/// processes must be **wait-free** (always make progress when correct)
/// while the remaining `n − x` must be **obstruction-free** (make progress
/// when running without step contention).
///
/// Unlike (l,k)-freedom, the family `{(n,x) : 0 ≤ x ≤ n}` is *totally
/// ordered* by `x`, which is why (Section 6) a strongest implementable and
/// a weakest non-implementable member exist: `(n,0)` and `(n,1)`
/// respectively, for consensus from registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NxLiveness {
    n: usize,
    /// The designated wait-free processes (by convention the first `x`).
    wait_free: Vec<ProcessId>,
}

impl NxLiveness {
    /// Creates (n,x)-liveness with processes `p1..px` designated wait-free.
    ///
    /// # Panics
    ///
    /// Panics if `x > n`.
    pub fn new(n: usize, x: usize) -> Self {
        assert!(x <= n, "(n,x)-liveness requires x <= n");
        NxLiveness {
            n,
            wait_free: ProcessId::all(x).collect(),
        }
    }

    /// The number of wait-free processes `x`.
    pub fn x(&self) -> usize {
        self.wait_free.len()
    }

    /// The system size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total strength order: more wait-free processes is stronger.
    pub fn cmp_strength(&self, other: &NxLiveness) -> Ordering {
        self.x().cmp(&other.x())
    }
}

impl std::fmt::Display for NxLiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})-liveness", self.n, self.x())
    }
}

impl LivenessProperty for NxLiveness {
    fn name(&self) -> String {
        self.to_string()
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        // Wait-free designates: progress whenever correct.
        for &p in &self.wait_free {
            if view.is_correct(p) && !view.makes_progress(p) {
                return false;
            }
        }
        // Others: obstruction-free — progress when they are the only
        // stepper.
        let steppers = view.steppers();
        if steppers.len() == 1 {
            let solo = steppers[0];
            if !self.wait_free.contains(&solo) && view.is_correct(solo) {
                return view.makes_progress(solo);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressKind;
    use slx_history::{Operation, Response, Value};
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
    fn n0_is_pure_obstruction_freedom() {
        let l = NxLiveness::new(3, 0);
        assert!(l.satisfied(&exec(3, &[0], &[0])));
        assert!(!l.satisfied(&exec(3, &[0], &[])));
        assert!(l.satisfied(&exec(3, &[0, 1], &[])));
    }

    #[test]
    fn n1_requires_first_process_wait_free() {
        let l = NxLiveness::new(3, 1);
        // p1 starves under contention: violated.
        assert!(!l.satisfied(&exec(3, &[0, 1], &[1])));
        // p1 progresses: fine.
        assert!(l.satisfied(&exec(3, &[0, 1], &[0])));
        // p2 (not designated) starving under contention is allowed.
        assert!(l.satisfied(&exec(3, &[0, 1], &[0])));
    }

    #[test]
    fn total_order_by_x() {
        for n in [3, 5] {
            let props: Vec<NxLiveness> = (0..=n).map(|x| NxLiveness::new(n, x)).collect();
            for i in 0..props.len() {
                for j in 0..props.len() {
                    assert_eq!(props[i].cmp_strength(&props[j]), i.cmp(&j));
                }
            }
        }
    }

    #[test]
    fn semantic_order_matches_x_order() {
        let samples = [
            exec(3, &[0], &[0]),
            exec(3, &[0], &[]),
            exec(3, &[0, 1], &[]),
            exec(3, &[0, 1], &[0]),
            exec(3, &[0, 1], &[0, 1]),
            exec(3, &[0, 1, 2], &[0, 1, 2]),
        ];
        for x_strong in 0..=3usize {
            for x_weak in 0..=x_strong {
                let strong = NxLiveness::new(3, x_strong);
                let weak = NxLiveness::new(3, x_weak);
                for (i, e) in samples.iter().enumerate() {
                    if strong.satisfied(e) {
                        assert!(weak.satisfied(e), "({x_strong}) vs ({x_weak}) on {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn crashed_waitfree_process_unconstrained() {
        let l = NxLiveness::new(2, 1);
        let mut events = vec![
            Event::Invoked(p(0), Operation::Propose(Value::new(1))),
            Event::Crashed(p(0)),
            Event::Stepped(p(1)),
        ];
        events.push(Event::Invoked(p(1), Operation::Propose(Value::new(1))));
        let view = ExecutionView::lasso(&[], &events, 2, ProgressKind::AnyResponse);
        // p1 crashed; p2 is solo but that's its first steps with a pending
        // invocation — obstruction-freedom applies: p2 must progress.
        assert!(!l.satisfied(&view));
    }

    #[test]
    fn display_format() {
        assert_eq!(NxLiveness::new(4, 2).to_string(), "(4,2)-liveness");
    }

    #[test]
    #[should_panic(expected = "x <= n")]
    fn x_bigger_than_n_panics() {
        let _ = NxLiveness::new(2, 3);
    }
}
