//! (l,k)-freedom (Definition 5.1) and its two halves.

use std::cmp::Ordering;

use crate::progress::ExecutionView;
use crate::property::LivenessProperty;

/// The paper's (l,k)-freedom, `l ≤ k` (Definition 5.1): in a fair execution
/// where **at most k processes take infinitely many steps**,
///
/// - if at least `l` processes are correct, at least `l` processes make
///   progress;
/// - otherwise all correct processes make progress.
///
/// Special points (Section 5.1/5.2): `(1,1)` is obstruction-freedom (which
/// Section 5.2 identifies with it for consensus), `(1,n)` is lock-freedom,
/// `(n,n)` is `Lmax` (wait-freedom / local progress).
///
/// # Examples
///
/// The partial order is the product order — larger `l` and `k` is stronger
/// — and genuinely partial:
///
/// ```
/// use slx_liveness::LkFreedom;
///
/// let a = LkFreedom::new(1, 3);
/// let b = LkFreedom::new(2, 2);
/// assert_eq!(a.partial_cmp_strength(&b), None); // incomparable (§5.1)
/// assert!(LkFreedom::new(2, 3).is_stronger_or_equal(&a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LkFreedom {
    l: usize,
    k: usize,
}

impl LkFreedom {
    /// Creates (l,k)-freedom.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ l ≤ k` (the definition requires `l ≤ k`).
    pub fn new(l: usize, k: usize) -> Self {
        assert!(l >= 1 && l <= k, "(l,k)-freedom requires 1 <= l <= k");
        LkFreedom { l, k }
    }

    /// The minimal-progress parameter `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// The contention parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Strength comparison: `Greater` means `self` is strictly stronger
    /// (its execution set is strictly smaller). Product order on `(l, k)`.
    pub fn partial_cmp_strength(&self, other: &LkFreedom) -> Option<Ordering> {
        match (self.l.cmp(&other.l), self.k.cmp(&other.k)) {
            (Ordering::Equal, Ordering::Equal) => Some(Ordering::Equal),
            (a, b) if a != Ordering::Less && b != Ordering::Less => Some(Ordering::Greater),
            (a, b) if a != Ordering::Greater && b != Ordering::Greater => Some(Ordering::Less),
            _ => None,
        }
    }

    /// Whether `self` is stronger than or equal to `other`.
    pub fn is_stronger_or_equal(&self, other: &LkFreedom) -> bool {
        matches!(
            self.partial_cmp_strength(other),
            Some(Ordering::Greater | Ordering::Equal)
        )
    }

    /// All (l,k)-freedom properties on the `n × n` grid of Figure 1.
    pub fn grid(n: usize) -> Vec<LkFreedom> {
        let mut out = Vec::new();
        for l in 1..=n {
            for k in l..=n {
                out.push(LkFreedom::new(l, k));
            }
        }
        out
    }
}

impl std::fmt::Display for LkFreedom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})-freedom", self.l, self.k)
    }
}

impl LivenessProperty for LkFreedom {
    fn name(&self) -> String {
        self.to_string()
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        let steppers = view.steppers();
        if steppers.len() > self.k {
            return true; // antecedent false
        }
        let correct = view.correct();
        let progressing = view.progressing_correct();
        if correct.len() >= self.l {
            progressing.len() >= self.l
        } else {
            progressing.len() == correct.len()
        }
    }
}

/// `l`-lock-freedom (Section 5.1): at least `l` correct processes make
/// progress if at least `l` are correct; otherwise all correct processes
/// do. Independent of scheduling — equivalent to `(l,n)`-freedom in an
/// `n`-process system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LLockFreedom {
    l: usize,
}

impl LLockFreedom {
    /// Creates l-lock-freedom.
    ///
    /// # Panics
    ///
    /// Panics if `l == 0`.
    pub fn new(l: usize) -> Self {
        assert!(l >= 1, "l-lock-freedom requires l >= 1");
        LLockFreedom { l }
    }

    /// The parameter `l`.
    pub fn l(&self) -> usize {
        self.l
    }
}

impl LivenessProperty for LLockFreedom {
    fn name(&self) -> String {
        format!("{}-lock-freedom", self.l)
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        let correct = view.correct();
        let progressing = view.progressing_correct();
        if correct.len() >= self.l {
            progressing.len() >= self.l
        } else {
            progressing.len() == correct.len()
        }
    }
}

/// `k`-obstruction-freedom (Taubenfeld, cited in Section 5.1): whenever at
/// most `k` processes take infinitely many steps, **all** of those (that
/// are correct) make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KObstructionFreedom {
    k: usize,
}

impl KObstructionFreedom {
    /// Creates k-obstruction-freedom.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-obstruction-freedom requires k >= 1");
        KObstructionFreedom { k }
    }

    /// The parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl LivenessProperty for KObstructionFreedom {
    fn name(&self) -> String {
        format!("{}-obstruction-freedom", self.k)
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        let steppers = view.steppers();
        if steppers.len() > self.k {
            return true;
        }
        steppers
            .into_iter()
            .filter(|&p| view.is_correct(p))
            .all(|p| view.makes_progress(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressKind;
    use crate::property::Lmax;
    use slx_history::{Operation, ProcessId, Response, Value};
    use slx_memory::Event;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Builds an execution of `n` processes where `stepping` step in the
    /// window and `progressing ⊆ stepping` receive a (good) response; all
    /// processes are pending throughout.
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
            // Re-invoke so the process is pending again at the end (keeps
            // "progress" attributable to the response, not idleness).
            events.push(Event::Invoked(p(i), Operation::Propose(Value::new(1))));
        }
        ExecutionView::lasso(&[], &events, n, ProgressKind::AnyResponse)
    }

    #[test]
    fn paper_incomparability_witnesses() {
        // §5.1: two steppers, one progresses — ensures (1,3), not (2,2).
        let e1 = exec(3, &[0, 1], &[0]);
        assert!(LkFreedom::new(1, 3).satisfied(&e1));
        assert!(!LkFreedom::new(2, 2).satisfied(&e1));
        // Three steppers, none progresses — ensures (2,2), not (1,3).
        let e2 = exec(3, &[0, 1, 2], &[]);
        assert!(LkFreedom::new(2, 2).satisfied(&e2));
        assert!(!LkFreedom::new(1, 3).satisfied(&e2));
    }

    #[test]
    fn product_partial_order() {
        let a = LkFreedom::new(1, 3);
        let b = LkFreedom::new(2, 2);
        assert_eq!(a.partial_cmp_strength(&b), None);
        assert_eq!(b.partial_cmp_strength(&a), None);
        assert_eq!(
            LkFreedom::new(2, 3).partial_cmp_strength(&a),
            Some(Ordering::Greater)
        );
        assert_eq!(
            a.partial_cmp_strength(&LkFreedom::new(1, 3)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            LkFreedom::new(1, 2).partial_cmp_strength(&LkFreedom::new(1, 3)),
            Some(Ordering::Less)
        );
        assert!(LkFreedom::new(2, 2).is_stronger_or_equal(&LkFreedom::new(1, 2)));
    }

    #[test]
    fn stronger_property_implies_weaker_on_executions() {
        // Semantic check of the order: on every sample execution, if the
        // stronger property holds, so does the weaker.
        let samples = [
            exec(3, &[0], &[0]),
            exec(3, &[0, 1], &[0]),
            exec(3, &[0, 1], &[0, 1]),
            exec(3, &[0, 1, 2], &[]),
            exec(3, &[0, 1, 2], &[1]),
            exec(3, &[], &[]),
        ];
        let grid = LkFreedom::grid(3);
        for strong in &grid {
            for weak in &grid {
                if strong.is_stronger_or_equal(weak) {
                    for (i, e) in samples.iter().enumerate() {
                        if strong.satisfied(e) {
                            assert!(
                                weak.satisfied(e),
                                "{strong} holds but {weak} fails on sample {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nn_freedom_is_lmax() {
        let samples = [
            exec(3, &[0, 1, 2], &[0, 1, 2]),
            exec(3, &[0, 1, 2], &[0, 1]),
            exec(3, &[0], &[0]),
            exec(3, &[], &[]),
        ];
        let nn = LkFreedom::new(3, 3);
        let lmax = Lmax::new();
        for (i, e) in samples.iter().enumerate() {
            assert_eq!(nn.satisfied(e), lmax.satisfied(e), "sample {i}");
        }
    }

    #[test]
    fn one_one_freedom_is_obstruction_freedom() {
        // Solo stepper progresses: both hold. Solo stepper starves: both
        // fail. Two steppers: both vacuous/weak accordingly.
        let solo_ok = exec(3, &[0], &[0]);
        let solo_starve = exec(3, &[0], &[]);
        let duo_starve = exec(3, &[0, 1], &[]);
        let of = KObstructionFreedom::new(1);
        let lk = LkFreedom::new(1, 1);
        assert!(of.satisfied(&solo_ok) && lk.satisfied(&solo_ok));
        assert!(!of.satisfied(&solo_starve) && !lk.satisfied(&solo_starve));
        assert!(of.satisfied(&duo_starve) && lk.satisfied(&duo_starve));
    }

    #[test]
    fn ln_freedom_is_lock_freedom() {
        // (1,n)-freedom: some process must progress whatever the contention.
        let all_starve = exec(3, &[0, 1, 2], &[]);
        let one_ok = exec(3, &[0, 1, 2], &[2]);
        let lf = LkFreedom::new(1, 3);
        let llf = LLockFreedom::new(1);
        assert!(!lf.satisfied(&all_starve));
        assert!(!llf.satisfied(&all_starve));
        assert!(lf.satisfied(&one_ok));
        assert!(llf.satisfied(&one_ok));
    }

    #[test]
    fn lk_union_of_halves_when_all_correct_step() {
        // On executions where every correct process steps in the window,
        // (l,k)-freedom coincides with l-lock-freedom ∪ k-obstruction-
        // freedom (the paper's remark after Definition 5.1).
        let samples = [
            exec(3, &[0, 1, 2], &[]),
            exec(3, &[0, 1, 2], &[0]),
            exec(3, &[0, 1, 2], &[0, 1]),
            exec(3, &[0, 1, 2], &[0, 1, 2]),
        ];
        for l in 1..=3usize {
            for k in l..=3usize {
                let lk = LkFreedom::new(l, k);
                let lf = LLockFreedom::new(l);
                let of = KObstructionFreedom::new(k);
                for (i, e) in samples.iter().enumerate() {
                    assert_eq!(
                        lk.satisfied(e),
                        lf.satisfied(e) || of.satisfied(e),
                        "({l},{k}) vs union on sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn crash_reduces_correct_count() {
        // 2 of 3 crash; the survivor progresses: (2,2)-freedom holds
        // because fewer than l=2 processes are correct and all correct
        // progress.
        let mut events = vec![
            Event::Invoked(p(0), Operation::Propose(Value::new(1))),
            Event::Invoked(p(1), Operation::Propose(Value::new(1))),
            Event::Invoked(p(2), Operation::Propose(Value::new(1))),
            Event::Crashed(p(1)),
            Event::Crashed(p(2)),
            Event::Stepped(p(0)),
            Event::Responded(p(0), Response::Decided(Value::new(1))),
        ];
        events.push(Event::Invoked(p(0), Operation::Propose(Value::new(1))));
        let view = ExecutionView::lasso(&[], &events, 3, ProgressKind::AnyResponse);
        assert!(LkFreedom::new(2, 2).satisfied(&view));
    }

    #[test]
    fn named_points() {
        // Standard strength chain at n = 4: wait-freedom (4,4) ⊐
        // lock-freedom (1,4) ⊐ obstruction-freedom (1,1).
        let (obstruction, lock, wait) = (
            LkFreedom::new(1, 1),
            LkFreedom::new(1, 4),
            LkFreedom::new(4, 4),
        );
        assert!(wait.is_stronger_or_equal(&lock));
        assert!(lock.is_stronger_or_equal(&obstruction));
    }

    #[test]
    fn grid_enumerates_l_le_k() {
        let g = LkFreedom::grid(3);
        assert_eq!(g.len(), 6); // (1,1) (1,2) (1,3) (2,2) (2,3) (3,3)
        assert!(g.iter().all(|f| f.l() <= f.k()));
    }

    #[test]
    #[should_panic(expected = "1 <= l <= k")]
    fn invalid_lk_panics() {
        let _ = LkFreedom::new(3, 2);
    }

    #[test]
    fn display_matches_paper() {
        assert_eq!(LkFreedom::new(1, 2).to_string(), "(1,2)-freedom");
        assert_eq!(LLockFreedom::new(2).name(), "2-lock-freedom");
        assert_eq!(KObstructionFreedom::new(3).name(), "3-obstruction-freedom");
    }
}
