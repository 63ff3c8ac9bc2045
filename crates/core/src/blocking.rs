//! The non-blocking motivation (footnote to Section 1 / Section 5):
//! why the restricted liveness definition covers *non-blocking* systems.
//!
//! A non-blocking system is one where a crashed process cannot prevent
//! others from making progress. The lock-based TM is the canonical
//! blocking counterexample: opaque and deadlock-free, yet a crashed lock
//! holder starves everyone — so no (l,k)-freedom property with any
//! progress requirement can hold. This experiment contrasts it with the
//! lock-free TM under the same crash.

use slx_history::{Operation, ProcessId, Value, VarId};
use slx_liveness::{ExecutionView, LivenessProperty, LkFreedom, ProgressKind};
use slx_memory::{Decision, Event, FairRandom, Process, RepeatTxn, System, WorkloadScheduler};
use slx_safety::{Opacity, SafetyProperty};
use slx_tm::{GlobalVersionTm, LockTm, TmWord};

/// Outcome of the blocking-vs-non-blocking crash experiment.
#[derive(Debug, Clone)]
pub struct BlockingDemo {
    /// Commits by the survivor against the lock TM after the holder
    /// crashed (expected 0).
    pub lock_tm_survivor_commits: u64,
    /// Whether the lock TM run still satisfies opacity (expected: yes —
    /// blocking is a liveness failure).
    pub lock_tm_still_opaque: bool,
    /// Whether (1,1)-freedom (obstruction-freedom) fails for the lock TM
    /// run (expected: yes, the solo survivor starves).
    pub lock_tm_violates_11: bool,
    /// Commits by the survivor against the lock-free TM after the same
    /// crash (expected > 0).
    pub lock_free_survivor_commits: u64,
    /// Whether (1,n)-freedom holds on the lock-free run (expected: yes).
    pub lock_free_satisfies_1n: bool,
}

impl BlockingDemo {
    /// Whether the experiment establishes the contrast.
    pub fn establishes_contrast(&self) -> bool {
        self.lock_tm_survivor_commits == 0
            && self.lock_tm_still_opaque
            && self.lock_tm_violates_11
            && self.lock_free_survivor_commits > 0
            && self.lock_free_satisfies_1n
    }
}

/// Drives the crash pattern on `sys` and returns its execution log:
/// process 1 starts a transaction, takes one step (the lock TM's TAS
/// acquires the lock) and crashes; process 2 then runs a closed-loop
/// workload alone for `events` events.
fn crash_then_run_survivor<P: Process<TmWord>>(
    sys: &mut System<TmWord, P>,
    events: u64,
) -> Vec<Event> {
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let x = VarId::new(0);
    let mut log = Vec::new();
    for decision in [
        Decision::Invoke(p0, Operation::TxStart),
        Decision::Step(p0),
        Decision::Crash(p0),
    ] {
        sys.apply(decision, &mut log)
            .expect("a fresh process starts, steps and crashes");
    }
    let workload = RepeatTxn::new(2, vec![x], vec![x], None);
    let mut sched = WorkloadScheduler::new(2, workload, FairRandom::restricted(3, vec![p1]));
    sys.run_logged(&mut sched, events, &mut log);
    log
}

fn commits<P: Process<TmWord>>(sys: &System<TmWord, P>) -> u64 {
    sys.history()
        .iter()
        .filter(|a| a.as_respond().is_some_and(|r| r.is_commit()))
        .count() as u64
}

/// Runs the crash experiment: process 1 acquires whatever its TM needs
/// for a transaction and crashes mid-flight; process 2 then runs a full
/// closed-loop workload alone.
pub fn blocking_demo(events: u64) -> BlockingDemo {
    // --- Lock TM: crash the lock holder. ---
    let mut sys = LockTm::system(2, 1);
    let log = crash_then_run_survivor(&mut sys, events);
    let lock_commits = commits(&sys);
    let lock_opaque = Opacity::new(Value::new(0)).allows(sys.history());
    let view = ExecutionView::second_half(&log, 2, ProgressKind::CommitOnly);
    let lock_violates_11 = !LkFreedom::new(1, 1).satisfied(&view);

    // --- Lock-free TM: same crash pattern. ---
    let mut sys = GlobalVersionTm::system(2, 1);
    let log = crash_then_run_survivor(&mut sys, events);
    let free_commits = commits(&sys);
    let view = ExecutionView::second_half(&log, 2, ProgressKind::CommitOnly);
    let free_1n = LkFreedom::new(1, 2).satisfied(&view);

    BlockingDemo {
        lock_tm_survivor_commits: lock_commits,
        lock_tm_still_opaque: lock_opaque,
        lock_tm_violates_11: lock_violates_11,
        lock_free_survivor_commits: free_commits,
        lock_free_satisfies_1n: free_1n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_contrast_established() {
        let demo = blocking_demo(2000);
        assert!(demo.establishes_contrast(), "{demo:?}");
    }
}
