//! Workloads: sources of invocations for closed-loop clients.

use slx_history::{Operation, ProcessId, Response, Value, VarId};

use crate::base::Word;
use crate::process::Process;
use crate::sched::{Decision, Scheduler};
use crate::system::System;

/// A source of invocations. The [`WorkloadScheduler`] consults it whenever a
/// process is idle (not pending, not crashed); returning `None` means the
/// process has no further work.
pub trait Workload {
    /// The next operation for `proc`, given the response that completed its
    /// previous operation (`None` on the very first invocation).
    fn next_op(&mut self, proc: ProcessId, last: Option<Response>) -> Option<Operation>;
}

/// A closed-loop transactional workload: each process repeatedly runs the
/// transaction `start(); read(x_r for r in reads); write(x_w, v); tryC()`,
/// retrying from `start()` after every abort, until it has *committed*
/// `commits_per_proc` transactions (or forever if `None`).
///
/// This is the workload shape of the paper's TM adversaries and of the
/// progress definitions: "good" responses are commits, so a process makes
/// progress exactly when one of its `tryC()` calls returns `C`.
#[derive(Debug, Clone)]
pub struct RepeatTxn {
    reads: Vec<VarId>,
    writes: Vec<VarId>,
    commits_per_proc: Option<u64>,
    cursor: Vec<usize>,
    committed: Vec<u64>,
    attempt: Vec<u64>,
}

impl RepeatTxn {
    /// Creates the workload for `n` processes over the given read and write
    /// sets.
    pub fn new(
        n: usize,
        reads: Vec<VarId>,
        writes: Vec<VarId>,
        commits_per_proc: Option<u64>,
    ) -> Self {
        RepeatTxn {
            reads,
            writes,
            commits_per_proc,
            cursor: vec![0; n],
            committed: vec![0; n],
            attempt: vec![0; n],
        }
    }

    /// `proc`'s state with its next write value rebased by `dval`:
    /// `(script position, next write value − dval, commits left)`. Its
    /// future invocations depend on nothing else, and its attempt counter
    /// grows by one per transaction, so cycle detection against a TM whose
    /// committed values climb by the same amount (`slx_tm::normalize`)
    /// keys on this — as the §4.1 strategy rebases its stored read value.
    pub fn normalized_state(&self, proc: ProcessId, dval: i64) -> (usize, i64, Option<u64>) {
        let i = proc.index();
        let left = self
            .commits_per_proc
            .map(|l| l.saturating_sub(self.committed[i]));
        (self.cursor[i], self.write_value(i) - dval, left)
    }

    /// A value unique per (process, attempt), so written values are
    /// distinguishable in opacity checking.
    fn write_value(&self, i: usize) -> i64 {
        (i as i64 + 1) * 1_000_000 + self.attempt[i] as i64
    }

    fn script_len(&self) -> usize {
        1 + self.reads.len() + self.writes.len() + 1
    }

    fn script_op(&self, proc: ProcessId, pos: usize) -> Operation {
        let i = proc.index();
        if pos == 0 {
            Operation::TxStart
        } else if pos < 1 + self.reads.len() {
            Operation::TxRead(self.reads[pos - 1])
        } else if pos < 1 + self.reads.len() + self.writes.len() {
            let w = pos - 1 - self.reads.len();
            Operation::TxWrite(self.writes[w], Value::new(self.write_value(i)))
        } else {
            Operation::TxCommit
        }
    }
}

impl Workload for RepeatTxn {
    fn next_op(&mut self, proc: ProcessId, last: Option<Response>) -> Option<Operation> {
        let i = proc.index();
        match last {
            Some(Response::Aborted) => {
                // Retry the whole transaction.
                self.cursor[i] = 0;
                self.attempt[i] += 1;
            }
            Some(Response::Committed) => {
                self.cursor[i] = 0;
                self.attempt[i] += 1;
                self.committed[i] += 1;
            }
            _ => {}
        }
        if let Some(limit) = self.commits_per_proc {
            if self.committed[i] >= limit {
                return None;
            }
        }
        let pos = self.cursor[i];
        debug_assert!(pos < self.script_len());
        let op = self.script_op(proc, pos);
        self.cursor[i] = (pos + 1) % self.script_len();
        Some(op)
    }
}

/// Combines a [`Workload`] with an inner step [`Scheduler`]: idle processes
/// are fed their next invocation; otherwise the inner scheduler picks who
/// steps.
#[derive(Debug, Clone)]
pub struct WorkloadScheduler<L, S> {
    workload: L,
    inner: S,
    last_resp: Vec<Option<Response>>,
    responses_seen: Vec<usize>,
    done: Vec<bool>,
}

impl<L: Workload, S> WorkloadScheduler<L, S> {
    /// Creates the combined scheduler for `n` processes.
    pub fn new(n: usize, workload: L, inner: S) -> Self {
        WorkloadScheduler {
            workload,
            inner,
            last_resp: vec![None; n],
            responses_seen: vec![0; n],
            done: vec![false; n],
        }
    }

    /// Access to the workload (e.g. to read commit counters afterwards).
    pub fn workload(&self) -> &L {
        &self.workload
    }

    /// Access to the inner step scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<W, P, L, S> Scheduler<W, P> for WorkloadScheduler<L, S>
where
    W: Word,
    P: Process<W>,
    L: Workload,
    S: Scheduler<W, P>,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        // Track the newest response of each process from the history.
        for p in ProcessId::all(sys.n()) {
            let resps = sys.history().responses_of(p);
            if resps.len() > self.responses_seen[p.index()] {
                self.responses_seen[p.index()] = resps.len();
                self.last_resp[p.index()] = resps.last().copied();
            }
        }
        for p in ProcessId::all(sys.n()) {
            let i = p.index();
            if self.done[i] || sys.is_pending(p) || sys.is_crashed(p) {
                continue;
            }
            match self.workload.next_op(p, self.last_resp[i].take()) {
                Some(op) => return Decision::Invoke(p, op),
                None => self.done[i] = true,
            }
        }
        self.inner.decide(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_txn_script_order() {
        let x0 = VarId::new(0);
        let x1 = VarId::new(1);
        let mut w = RepeatTxn::new(1, vec![x0], vec![x1], Some(1));
        let p = ProcessId::new(0);
        assert_eq!(w.next_op(p, None), Some(Operation::TxStart));
        assert_eq!(
            w.next_op(p, Some(Response::Ok)),
            Some(Operation::TxRead(x0))
        );
        let write = w.next_op(p, Some(Response::ValueReturned(Value::new(0))));
        assert!(matches!(write, Some(Operation::TxWrite(v, _)) if v == x1));
        assert_eq!(w.next_op(p, Some(Response::Ok)), Some(Operation::TxCommit));
    }

    #[test]
    fn repeat_txn_retries_after_abort() {
        let mut w = RepeatTxn::new(1, vec![], vec![], None);
        let p = ProcessId::new(0);
        assert_eq!(w.next_op(p, None), Some(Operation::TxStart));
        // Abort during start: retry with a fresh start.
        assert_eq!(
            w.next_op(p, Some(Response::Aborted)),
            Some(Operation::TxStart)
        );
        assert_eq!(w.next_op(p, Some(Response::Ok)), Some(Operation::TxCommit));
        // Abort at commit: retry again.
        assert_eq!(
            w.next_op(p, Some(Response::Aborted)),
            Some(Operation::TxStart)
        );
    }

    #[test]
    fn repeat_txn_stops_after_commit_limit() {
        let mut w = RepeatTxn::new(1, vec![], vec![], Some(1));
        let p = ProcessId::new(0);
        assert_eq!(w.next_op(p, None), Some(Operation::TxStart));
        assert_eq!(w.next_op(p, Some(Response::Ok)), Some(Operation::TxCommit));
        assert_eq!(w.next_op(p, Some(Response::Committed)), None);
    }

    #[test]
    fn repeat_txn_write_values_differ_per_attempt() {
        let x = VarId::new(0);
        let mut w = RepeatTxn::new(1, vec![], vec![x], None);
        let p = ProcessId::new(0);
        let _ = w.next_op(p, None); // start
        let w1 = w.next_op(p, Some(Response::Ok)).unwrap();
        let _ = w.next_op(p, Some(Response::Ok)); // tryC
        let _ = w.next_op(p, Some(Response::Aborted)); // start (attempt 2)
        let w2 = w.next_op(p, Some(Response::Ok)).unwrap();
        assert_ne!(w1, w2);
    }
}
