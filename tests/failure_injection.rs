//! Failure injection: safety must survive arbitrary crash patterns
//! (Section 2's model allows any number of crashes), and the non-blocking
//! liveness structure must show through.

use safety_liveness_exclusion::consensus::{grouped_kset, ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{Operation, ProcessId, Value, VarId};
use safety_liveness_exclusion::memory::{
    CrashPlan, FairRandom, Memory, RandomCrashes, RepeatTxn, RoundRobin, System, WorkloadScheduler,
};
use safety_liveness_exclusion::safety::{
    certify_unique_writes, ConsensusSafety, KSetAgreementSafety, SafetyProperty,
};
use safety_liveness_exclusion::tm::{AgpTm, GlobalVersionTm};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn of_consensus_safe_under_random_crashes() {
    for seed in 0..20 {
        let mut sys = ObstructionFreeConsensus::proposers(&[0, 1, 2], 64);
        let mut sched = RandomCrashes::new(FairRandom::new(seed), seed, 20, 1);
        sys.run(&mut sched, 50_000);
        assert!(
            ConsensusSafety::new().allows(sys.history()),
            "seed {seed}: {}",
            sys.history()
        );
        // Survivors decide under a fair schedule of this length.
        for i in 0..3 {
            if !sys.is_crashed(p(i)) {
                assert!(
                    !sys.history().pending(p(i)),
                    "seed {seed}: survivor {i} stuck"
                );
            }
        }
    }
}

#[test]
fn of_consensus_tolerates_planned_mid_round_crashes() {
    // Crash each process at a different point in its commit-adopt round;
    // the remaining one must still decide and agree with any prior
    // decision.
    for crash_at in [1u64, 3, 5, 9, 15] {
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 64);
        let mut sched = CrashPlan::new(RoundRobin::new(), vec![(crash_at, p(0))]);
        sys.run(&mut sched, 50_000);
        assert!(
            ConsensusSafety::new().allows(sys.history()),
            "crash_at {crash_at}"
        );
        assert!(
            !sys.history().pending(p(1)),
            "crash_at {crash_at}: survivor did not decide"
        );
    }
}

#[test]
fn kset_safe_under_random_crashes() {
    for seed in 0..10 {
        let mut mem: Memory<ConsWord> = Memory::new();
        let procs = grouped_kset(&mut mem, 4, 2, 64);
        let mut sys: System<ConsWord, ObstructionFreeConsensus> = System::new(mem, procs);
        for i in 0..4 {
            sys.invoke(p(i), Operation::Propose(Value::new(i as i64)))
                .unwrap();
        }
        let mut sched = RandomCrashes::new(FairRandom::new(seed), seed ^ 0xABCD, 15, 1);
        sys.run(&mut sched, 50_000);
        assert!(
            KSetAgreementSafety::new(2).allows(sys.history()),
            "seed {seed}"
        );
    }
}

#[test]
fn tms_stay_safe_under_random_crashes() {
    let x = VarId::new(0);
    for seed in 0..10 {
        // GlobalVersionTm.
        let mut sys = GlobalVersionTm::system(3, 1);
        let workload = RepeatTxn::new(3, vec![x], vec![x], None);
        let inner = WorkloadScheduler::new(3, workload, FairRandom::new(seed));
        let mut sched = RandomCrashes::new(inner, seed, 10, 1);
        sys.run(&mut sched, 2000);
        assert!(
            certify_unique_writes(sys.history(), Value::new(0)),
            "gv seed {seed}"
        );
        assert!(sys.history().is_well_formed(), "gv seed {seed}");

        // AgpTm.
        let mut sys = AgpTm::system(3, 1);
        let workload = RepeatTxn::new(3, vec![x], vec![x], None);
        let inner = WorkloadScheduler::new(3, workload, FairRandom::new(seed));
        let mut sched = RandomCrashes::new(inner, seed, 10, 1);
        sys.run(&mut sched, 2000);
        assert!(
            certify_unique_writes(sys.history(), Value::new(0)),
            "agp seed {seed}"
        );
    }
}

#[test]
fn lock_free_tm_survivor_keeps_committing_after_crashes() {
    // Non-blocking in action: crash two of three processes mid-transaction;
    // the survivor still commits.
    let x = VarId::new(0);
    let mut sys = GlobalVersionTm::system(3, 1);
    // p1, p2 start transactions then crash.
    for i in 0..2 {
        sys.invoke(p(i), Operation::TxStart).unwrap();
        sys.step(p(i)).unwrap();
        sys.crash(p(i)).unwrap();
    }
    let workload = RepeatTxn::new(3, vec![x], vec![x], Some(5));
    let mut sched = WorkloadScheduler::new(3, workload, FairRandom::restricted(1, vec![p(2)]));
    sys.run(&mut sched, 10_000);
    let commits = sys
        .history()
        .iter()
        .filter(|a| a.as_respond().is_some_and(|r| r.is_commit()))
        .count();
    assert_eq!(commits, 5);
    assert!(certify_unique_writes(sys.history(), Value::new(0)));
}
