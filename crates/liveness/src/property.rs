//! The liveness-property trait and `Lmax`.

use crate::progress::ExecutionView;

/// A liveness property, represented by its window-semantics predicate on
/// finite executions (see the crate docs for how this approximates the
/// infinite-execution definition).
///
/// The stronger/weaker relation of the paper (`L2` stronger than `L1` iff
/// `L2 ⊆ L1`) appears here as implication of predicates; concrete families
/// expose explicit partial orders ([`crate::LkFreedom::partial_cmp_strength`] and
/// friends) matching their set-theoretic inclusion.
pub trait LivenessProperty {
    /// Human-readable name, e.g. `"(1,2)-freedom"`.
    fn name(&self) -> String;

    /// Whether the execution (as analyzed in `view`) satisfies the
    /// property.
    fn satisfied(&self, view: &ExecutionView) -> bool;
}

impl<T: LivenessProperty + ?Sized> LivenessProperty for &T {
    fn name(&self) -> String {
        (**self).name()
    }
    fn satisfied(&self, view: &ExecutionView) -> bool {
        (**self).satisfied(view)
    }
}

impl<T: LivenessProperty + ?Sized> LivenessProperty for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn satisfied(&self, view: &ExecutionView) -> bool {
        (**self).satisfied(view)
    }
}

/// The strongest liveness property `Lmax` (Section 3.2): **every correct
/// process makes progress**, no matter how processes are scheduled.
///
/// Instantiated with [`crate::ProgressKind::AnyResponse`] this is
/// wait-freedom (consensus, registers); with
/// [`crate::ProgressKind::CommitOnly`] it is local progress (TM). It
/// coincides with `(n,n)`-freedom, which the test suite verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lmax {
    _priv: (),
}

impl Lmax {
    /// Creates `Lmax`. The progress kind lives in the [`ExecutionView`].
    pub fn new() -> Self {
        Lmax { _priv: () }
    }
}

impl Default for Lmax {
    fn default() -> Self {
        Lmax::new()
    }
}

impl LivenessProperty for Lmax {
    fn name(&self) -> String {
        "Lmax (progress for all correct processes)".to_owned()
    }

    fn satisfied(&self, view: &ExecutionView) -> bool {
        view.correct().into_iter().all(|p| view.makes_progress(p))
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

    #[test]
    fn lmax_requires_all_correct_to_progress() {
        // p1 decides, p2 pending forever: Lmax violated.
        let events = vec![
            Event::Invoked(p(0), Operation::Propose(Value::new(1))),
            Event::Invoked(p(1), Operation::Propose(Value::new(2))),
            Event::Stepped(p(0)),
            Event::Responded(p(0), Response::Decided(Value::new(1))),
            Event::Stepped(p(1)),
        ];
        let view = ExecutionView::lasso(&[], &events, 2, ProgressKind::AnyResponse);
        assert!(!Lmax::new().satisfied(&view));
    }

    #[test]
    fn lmax_ignores_crashed_processes() {
        let events = vec![
            Event::Invoked(p(0), Operation::Propose(Value::new(1))),
            Event::Invoked(p(1), Operation::Propose(Value::new(2))),
            Event::Crashed(p(1)),
            Event::Stepped(p(0)),
            Event::Responded(p(0), Response::Decided(Value::new(1))),
        ];
        let view = ExecutionView::lasso(&[], &events, 2, ProgressKind::AnyResponse);
        assert!(Lmax::new().satisfied(&view));
    }

    #[test]
    fn blanket_impls_delegate() {
        let l = Lmax::new();
        let r: &dyn LivenessProperty = &l;
        assert!(r.name().contains("Lmax"));
        let b: Box<dyn LivenessProperty> = Box::new(Lmax::new());
        let view = ExecutionView::lasso(&[], &[], 0, ProgressKind::AnyResponse);
        assert!(b.satisfied(&view));
    }
}
