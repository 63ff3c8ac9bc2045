//! The non-blocking motivation (footnote to Section 1 / Section 5):
//! why the restricted liveness definition covers *non-blocking* systems.
//!
//! A non-blocking system is one where a crashed process cannot prevent
//! others from making progress. The lock-based TM is the canonical
//! blocking counterexample: opaque and deadlock-free, yet a crashed lock
//! holder starves everyone — so no (l,k)-freedom property with any
//! progress requirement can hold. This experiment contrasts it with the
//! lock-free TM under the same crash.

use slx_history::{Operation, ProcessId, Value};
use slx_liveness::LkFreedom;
use slx_memory::Decision;
use slx_safety::{Opacity, SafetyProperty};
use slx_tm::normalize::normalized_global_version;
use slx_tm::{GlobalVersionTm, LockTm};

use crate::claims::{lasso_line, Claim};
use crate::grid::{exact_configuration, workload_lasso};

/// Process 1 starts a transaction, takes one step (the lock TM's TAS
/// acquires the lock) and crashes; the decisions head the lasso's stem.
/// Figure 1(b)'s white control crashes the lock holder the same way.
pub(crate) const CRASH_PREFIX: [Decision; 3] = [
    Decision::Invoke(ProcessId::new(0), Operation::TxStart),
    Decision::Step(ProcessId::new(0)),
    Decision::Crash(ProcessId::new(0)),
];

/// **The non-blocking motivation**: both TMs run the same lasso search
/// ([`workload_lasso`]): process 1 acquires whatever its TM needs for a
/// transaction and crashes mid-flight (`CRASH_PREFIX`); process 2, the
/// one correct process, then runs a closed-loop workload until its
/// configuration repeats. The lock TM stays opaque, but its survivor spins
/// forever, so (1,1)-freedom fails; the lock-free TM's survivor commits on
/// every cycle, so (1,2)-freedom holds.
pub fn non_blocking() -> Claim {
    let lk = LkFreedom::new;
    let mut sys = LockTm::system(2, 1);
    let lock = workload_lasso(&mut sys, &CRASH_PREFIX, exact_configuration);
    let opaque = Opacity::new(Value::new(0)).allows(sys.history());
    let mut sys = GlobalVersionTm::system(2, 1);
    let free = workload_lasso(&mut sys, &CRASH_PREFIX, normalized_global_version);
    Claim {
        id: "Non-blocking motivation",
        holds: opaque
            && lock.verdict(&lk(1, 1)) == Some(false)
            && free.verdict(&lk(1, 2)) == Some(true),
        evidence: vec![
            lasso_line(lk(1, 1), &lock, "LockTm, lock holder crashed"),
            format!("LockTm opaque: {opaque}"),
            lasso_line(lk(1, 2), &free, "GlobalVersionTm, same crash"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
