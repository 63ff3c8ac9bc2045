//! The non-blocking motivation (footnote to Section 1 / Section 5):
//! why the restricted liveness definition covers *non-blocking* systems.
//!
//! A non-blocking system is one where a crashed process cannot prevent
//! others from making progress. The lock-based TM is the canonical
//! blocking counterexample: opaque and deadlock-free, yet a crashed lock
//! holder starves everyone — so no (l,k)-freedom property with any
//! progress requirement can hold. This experiment contrasts it with the
//! lock-free TM under the same crash.

use std::hash::Hash;

use slx_explorer::{run_until_cycle_keyed, Lasso};
use slx_history::{Operation, ProcessId, Value, VarId};
use slx_liveness::{LkFreedom, ProgressKind};
use slx_memory::{Decision, Process, RepeatTxn, SoloScheduler, System, WorkloadScheduler};
use slx_safety::{Opacity, SafetyProperty};
use slx_tm::normalize::{committed_shift, normalized_global_version};
use slx_tm::{GlobalVersionTm, LockTm, TmWord};

/// Outcome of the blocking-vs-non-blocking crash experiment. Both TMs run
/// the same lasso search: process 1 crashes mid-transaction, then process
/// 2 runs a closed-loop workload alone until its configuration repeats.
#[derive(Debug, Clone)]
pub struct BlockingDemo {
    /// The lock TM's lasso, the crash prefix heading its stem.
    pub lock_tm_lasso: Lasso,
    /// Whether the lock TM run still satisfies opacity (expected: yes —
    /// blocking is a liveness failure).
    pub lock_tm_still_opaque: bool,
    /// Whether (1,1)-freedom (obstruction-freedom) fails on the lock TM's
    /// lasso (expected: yes, the solo survivor spins forever).
    pub lock_tm_violates_11: bool,
    /// The lock-free TM's lasso, the crash prefix heading its stem.
    pub lock_free_lasso: Lasso,
    /// Whether (1,2)-freedom holds on the lock-free lasso (expected: yes;
    /// the survivor, the one correct process, commits on every cycle).
    pub lock_free_satisfies_1n: bool,
}

impl BlockingDemo {
    /// Whether the experiment establishes the contrast.
    pub fn establishes_contrast(&self) -> bool {
        self.lock_tm_still_opaque && self.lock_tm_violates_11 && self.lock_free_satisfies_1n
    }
}

/// The process that outlives the crash: process 2.
const SURVIVOR: ProcessId = ProcessId::new(1);

/// The survivor's scheduler: it runs its closed-loop workload alone.
type Survivor = WorkloadScheduler<RepeatTxn, SoloScheduler>;

/// Process 1 starts a transaction, takes one step (the lock TM's TAS
/// acquires the lock) and crashes; the decisions head the lasso's stem.
const CRASH_PREFIX: [Decision; 3] = [
    Decision::Invoke(ProcessId::new(0), Operation::TxStart),
    Decision::Step(ProcessId::new(0)),
    Decision::Crash(ProcessId::new(0)),
];

/// Drives [`CRASH_PREFIX`] on `sys`, then the [`Survivor`], until `key`
/// repeats.
fn survivor_lasso<P, K: Hash + Eq>(
    sys: &mut System<TmWord, P>,
    key: impl Fn(&System<TmWord, P>, &Survivor) -> K,
) -> Lasso
where
    P: Process<TmWord>,
{
    let x = VarId::new(0);
    let workload = RepeatTxn::new(2, vec![x], vec![x], None);
    let mut sched = WorkloadScheduler::new(2, workload, SoloScheduler::new(SURVIVOR));
    let outcome = run_until_cycle_keyed(sys, &CRASH_PREFIX, &mut sched, key);
    Lasso::new(outcome, ProgressKind::CommitOnly)
}

/// The lock TM's key: the configuration (`transformed` resets the
/// memory's step counter; nothing commits, so it repeats raw) and the
/// survivor's workload state. The workload scheduler's own bookkeeping is
/// left out: it only carries a process's last response until the next
/// invocation, and with unbounded commits an abort and a commit advance
/// the workload alike.
fn lock_tm_key(sys: &System<TmWord, LockTm>, sched: &Survivor) -> impl Hash + Eq {
    let workload = sched.workload().normalized_state(SURVIVOR, 0);
    (sys.transformed(Clone::clone, Clone::clone), workload)
}

/// The lock-free TM's key: versions and values climb with every commit,
/// so the configuration is rebased over the survivor, the one process
/// that steps, and so is its workload state.
fn lock_free_key(sys: &System<TmWord, GlobalVersionTm>, sched: &Survivor) -> impl Hash + Eq {
    let dval = committed_shift(sys).dval;
    let workload = sched.workload().normalized_state(SURVIVOR, dval);
    (normalized_global_version(sys, &[SURVIVOR]), workload)
}

/// Runs the crash experiment: process 1 acquires whatever its TM needs
/// for a transaction and crashes mid-flight; process 2 then runs a full
/// closed-loop workload alone.
pub fn blocking_demo() -> BlockingDemo {
    // --- Lock TM: crash the lock holder. ---
    let mut sys = LockTm::system(2, 1);
    let lock = survivor_lasso(&mut sys, lock_tm_key);
    let lock_opaque = Opacity::new(Value::new(0)).allows(sys.history());

    // --- Lock-free TM: same crash pattern. ---
    let free = survivor_lasso(&mut GlobalVersionTm::system(2, 1), lock_free_key);

    BlockingDemo {
        lock_tm_violates_11: lock.verdict(&LkFreedom::new(1, 1)) == Some(false),
        lock_tm_lasso: lock,
        lock_tm_still_opaque: lock_opaque,
        lock_free_satisfies_1n: free.verdict(&LkFreedom::new(1, 2)) == Some(true),
        lock_free_lasso: free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_contrast_established() {
        let demo = blocking_demo();
        assert!(demo.establishes_contrast(), "{demo:?}");
    }

    /// The lock-free leg's control: the same driver and the same (1,2)
    /// verdict on the lock TM, whose survivor spins forever.
    #[test]
    fn lock_free_verdict_fails_on_the_lock_tm() {
        let one_two = LkFreedom::new(1, 2);
        let lock = survivor_lasso(&mut LockTm::system(2, 1), lock_tm_key);
        assert_eq!(lock.verdict(&one_two), Some(false));
        let lock = lock.witness().expect("the survivor's spin closes a lasso");
        assert_eq!(lock.cycle, [slx_memory::Event::Stepped(SURVIVOR)]);
        let free = survivor_lasso(&mut GlobalVersionTm::system(2, 1), lock_free_key);
        assert_eq!(free.verdict(&one_two), Some(true));
        // The crash is in the stem, where the view reads it.
        let free = free
            .witness()
            .expect("the survivor's commits close a lasso");
        assert!(free
            .stem
            .contains(&slx_memory::Event::Crashed(ProcessId::new(0))));
    }
}
