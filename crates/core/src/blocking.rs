//! The non-blocking motivation (footnote to Section 1 / Section 5):
//! why the restricted liveness definition covers *non-blocking* systems.
//!
//! A non-blocking system is one where a crashed process cannot prevent
//! others from making progress. The lock-based TM is the canonical
//! blocking counterexample: opaque and deadlock-free, yet a crashed lock
//! holder starves everyone — so no (l,k)-freedom property with any
//! progress requirement can hold. This experiment contrasts it with the
//! lock-free TM under the same crash.

use slx_explorer::Lasso;
use slx_history::{Operation, ProcessId, Value};
use slx_liveness::LkFreedom;
use slx_memory::Decision;
use slx_safety::{Opacity, SafetyProperty};
use slx_tm::normalize::normalized_global_version;
use slx_tm::{GlobalVersionTm, LockTm};

use crate::grid::{exact_configuration, workload_lasso};

/// Outcome of the blocking-vs-non-blocking crash experiment. Both TMs run
/// the same lasso search ([`workload_lasso`]): process 1 crashes
/// mid-transaction, then process 2, the one correct process, runs a
/// closed-loop workload until its configuration repeats.
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

/// Process 1 starts a transaction, takes one step (the lock TM's TAS
/// acquires the lock) and crashes; the decisions head the lasso's stem.
/// Figure 1(b)'s white control crashes the lock holder the same way.
pub(crate) const CRASH_PREFIX: [Decision; 3] = [
    Decision::Invoke(ProcessId::new(0), Operation::TxStart),
    Decision::Step(ProcessId::new(0)),
    Decision::Crash(ProcessId::new(0)),
];

/// Runs the crash experiment: process 1 acquires whatever its TM needs
/// for a transaction and crashes mid-flight; process 2 then runs a full
/// closed-loop workload alone.
pub fn blocking_demo() -> BlockingDemo {
    // --- Lock TM: crash the lock holder. ---
    let mut sys = LockTm::system(2, 1);
    let lock = workload_lasso(&mut sys, &CRASH_PREFIX, exact_configuration);
    let lock_opaque = Opacity::new(Value::new(0)).allows(sys.history());

    // --- Lock-free TM: same crash pattern. ---
    let mut sys = GlobalVersionTm::system(2, 1);
    let free = workload_lasso(&mut sys, &CRASH_PREFIX, normalized_global_version);

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
        let mut sys = LockTm::system(2, 1);
        let lock = workload_lasso(&mut sys, &CRASH_PREFIX, exact_configuration);
        assert_eq!(lock.verdict(&one_two), Some(false));
        let lock = lock.witness().expect("the survivor's spin closes a lasso");
        let survivor = ProcessId::new(1);
        assert_eq!(lock.cycle, [slx_memory::Event::Stepped(survivor)]);
        let mut sys = GlobalVersionTm::system(2, 1);
        let free = workload_lasso(&mut sys, &CRASH_PREFIX, normalized_global_version);
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
