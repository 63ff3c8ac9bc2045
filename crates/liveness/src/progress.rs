//! Progress analysis of lasso executions `stem · cycle^ω`.

use slx_history::{ProcessId, Response};
use slx_memory::Event;

/// Which responses count as "good" (the paper's `G_Tp ⊆ Res`): for
/// consensus and registers any response is progress; for transactional
/// memory only commit events are (aborting everything would otherwise be a
/// trivially "live" TM — exactly the paper's motivation for `G_Tp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressKind {
    /// Every response is progress (consensus, registers, ...).
    AnyResponse,
    /// Only `C` (commit) responses are progress (transactional memory).
    CommitOnly,
}

impl ProgressKind {
    /// Whether `resp` is a good response under this kind.
    pub fn is_good(self, resp: Response) -> bool {
        match self {
            ProgressKind::AnyResponse => true,
            ProgressKind::CommitOnly => resp.is_commit(),
        }
    }
}

/// The infinite execution `stem · cycle^ω`, exposing the quantities
/// liveness definitions talk about. The *window* is one iteration of the
/// cycle; crash and pending state are read at the end of `stem · cycle`,
/// where they repeat at every later cycle boundary. So, exactly:
///
/// - a process *takes infinitely many steps* ⇔ it steps inside the cycle;
/// - a process is *correct* ⇔ it never crashes in the execution;
/// - a process *makes progress* ⇔ it receives a good response inside the
///   cycle, or is genuinely inactive (no invocation inside the cycle and
///   nothing pending at its end — a process that stopped requesting is
///   not being denied anything, but a process caught between retries
///   is).
///
/// A finite run that halted is the lasso with an empty cycle: after it
/// nobody steps, and only what is pending at its end is denied.
#[derive(Debug, Clone)]
pub struct ExecutionView {
    n: usize,
    stepped_in_window: Vec<bool>,
    crashed: Vec<bool>,
    good_in_window: Vec<bool>,
    invoked_in_window: Vec<bool>,
    pending_at_end: Vec<bool>,
}

impl ExecutionView {
    /// Analyzes `stem · cycle^ω` for `n` processes.
    pub fn lasso(stem: &[Event], cycle: &[Event], n: usize, kind: ProgressKind) -> Self {
        let mut view = ExecutionView {
            n,
            stepped_in_window: vec![false; n],
            crashed: vec![false; n],
            good_in_window: vec![false; n],
            invoked_in_window: vec![false; n],
            pending_at_end: vec![false; n],
        };
        let events = stem.iter().map(|e| (false, e));
        for (in_window, e) in events.chain(cycle.iter().map(|e| (true, e))) {
            match e {
                Event::Invoked(p, _) => {
                    view.pending_at_end[p.index()] = true;
                    view.invoked_in_window[p.index()] |= in_window;
                }
                Event::Responded(p, r) => {
                    view.pending_at_end[p.index()] = false;
                    view.good_in_window[p.index()] |= in_window && kind.is_good(*r);
                }
                Event::Crashed(p) => view.crashed[p.index()] = true,
                Event::Stepped(p) => view.stepped_in_window[p.index()] |= in_window,
            }
        }
        view
    }

    /// Processes that step inside the cycle ("take infinitely many steps").
    pub fn steppers(&self) -> Vec<ProcessId> {
        (0..self.n)
            .filter(|&i| self.stepped_in_window[i])
            .map(ProcessId::new)
            .collect()
    }

    /// Whether `p` is correct (never crashed).
    pub fn is_correct(&self, p: ProcessId) -> bool {
        !self.crashed[p.index()]
    }

    /// The correct processes.
    pub fn correct(&self) -> Vec<ProcessId> {
        (0..self.n)
            .filter(|&i| !self.crashed[i])
            .map(ProcessId::new)
            .collect()
    }

    /// Whether `p` makes progress: a good response in the cycle, or
    /// genuine inactivity (nothing invoked in the cycle and nothing
    /// pending at its end).
    pub fn makes_progress(&self, p: ProcessId) -> bool {
        self.good_in_window[p.index()]
            || (!self.invoked_in_window[p.index()] && !self.pending_at_end[p.index()])
    }

    /// Correct processes that make progress.
    pub fn progressing_correct(&self) -> Vec<ProcessId> {
        self.correct()
            .into_iter()
            .filter(|&p| self.makes_progress(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{Operation, Value};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn propose(i: usize) -> Event {
        Event::Invoked(p(i), Operation::Propose(Value::new(0)))
    }

    #[test]
    fn progress_kinds() {
        assert!(ProgressKind::AnyResponse.is_good(Response::Aborted));
        assert!(!ProgressKind::CommitOnly.is_good(Response::Aborted));
        assert!(ProgressKind::CommitOnly.is_good(Response::Committed));
    }

    #[test]
    fn window_analysis() {
        let stem = [propose(0), propose(1), Event::Stepped(p(0))];
        let cycle = [
            Event::Stepped(p(1)),
            Event::Responded(p(1), Response::Decided(Value::new(0))),
            Event::Crashed(p(2)),
        ];
        let v = ExecutionView::lasso(&stem, &cycle, 3, ProgressKind::AnyResponse);
        assert_eq!(v.steppers(), vec![p(1)]);
        assert!(!v.is_correct(p(2)));
        assert_eq!(v.correct(), vec![p(0), p(1)]);
        assert!(v.makes_progress(p(1)));
        assert!(!v.makes_progress(p(0))); // pending, no response in window
        assert!(v.makes_progress(p(2))); // nothing pending
        assert_eq!(v.progressing_correct(), vec![p(1)]);
    }

    #[test]
    fn response_before_window_not_counted_but_unpends() {
        let stem = [
            propose(0),
            Event::Stepped(p(0)),
            Event::Responded(p(0), Response::Decided(Value::new(0))),
        ];
        let v = ExecutionView::lasso(&stem, &[Event::Stepped(p(1))], 2, ProgressKind::AnyResponse);
        // Not pending at the end, so still "making progress".
        assert!(v.makes_progress(p(0)));
        // Invoked again and unanswered in the cycle: the stem's response
        // is not progress on the cycle.
        let cycle = [propose(0), Event::Stepped(p(0))];
        let v = ExecutionView::lasso(&stem, &cycle, 2, ProgressKind::AnyResponse);
        assert!(!v.makes_progress(p(0)));
    }

    #[test]
    fn commit_only_counts_commits() {
        let events = vec![
            Event::Invoked(p(0), Operation::TxCommit),
            Event::Responded(p(0), Response::Aborted),
            Event::Invoked(p(0), Operation::TxCommit),
            Event::Responded(p(0), Response::Committed),
        ];
        let v = ExecutionView::lasso(&[], &events, 1, ProgressKind::CommitOnly);
        assert!(v.makes_progress(p(0)));
        let aborts = &events[..2];
        assert!(
            !ExecutionView::lasso(&[], aborts, 1, ProgressKind::CommitOnly).makes_progress(p(0))
        );
    }
}
