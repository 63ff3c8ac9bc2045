//! Cross-validation of the safety checkers against each other and against
//! the implementations, over many random schedules.
//!
//! The checkers are related by strict inclusions that the paper relies on
//! (linearizable consensus ⟹ agreement & validity; opacity ⟹ strict
//! serializability; certifier ⟹ exhaustive opacity). These tests hammer
//! real implementation histories through all of them.

use safety_liveness_exclusion::consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{History, Operation, ProcessId, Value, VarId};
use safety_liveness_exclusion::memory::{FairRandom, Memory, RepeatTxn, System, WorkloadScheduler};
use safety_liveness_exclusion::safety::{
    certify_unique_writes, ConsensusSafety, ConsensusSpec, KSetAgreementSafety, Linearizability,
    Opacity, PropertyS, SafetyProperty, StrictSerializability,
};
use safety_liveness_exclusion::tm::{AgpTm, GlobalVersionTm, LockTm};

fn consensus_history(seed: u64, n: usize) -> History {
    let inputs: Vec<i64> = (0..n as i64).map(|i| i * 10).collect();
    let mut sys = ObstructionFreeConsensus::proposers(&inputs, 64);
    sys.run(&mut FairRandom::new(seed), 30_000);
    sys.history().clone()
}

#[test]
fn of_consensus_linearizable_and_safe_across_seeds() {
    let lin = Linearizability::new(ConsensusSpec::new());
    let safety = ConsensusSafety::new();
    let kset = KSetAgreementSafety::new(1);
    for seed in 0..15 {
        let h = consensus_history(seed, 2);
        assert!(
            lin.is_linearizable(&h),
            "seed {seed}: not linearizable\n{h}"
        );
        assert!(safety.allows(&h), "seed {seed}");
        assert_eq!(safety.allows(&h), kset.allows(&h), "seed {seed}");
    }
}

#[test]
fn cas_consensus_linearizable_across_seeds() {
    let lin = Linearizability::new(ConsensusSpec::new());
    for seed in 0..25 {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let procs = (0..3).map(|_| CasConsensus::new(obj)).collect();
        let mut sys: System<ConsWord, CasConsensus> = System::new(mem, procs);
        for i in 0..3 {
            sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(i as i64)))
                .unwrap();
        }
        sys.run(&mut FairRandom::new(seed), 1000);
        assert!(lin.is_linearizable(sys.history()), "seed {seed}");
    }
}

fn x0() -> VarId {
    VarId::new(0)
}

#[test]
fn opacity_implies_strict_serializability_on_tm_runs() {
    let opacity = Opacity::new(Value::new(0));
    let ssr = StrictSerializability::new(Value::new(0));
    for seed in 0..6 {
        let mut sys = GlobalVersionTm::system(2, 1);
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
        sys.run(&mut sched, 100);
        let h = sys.history();
        assert!(opacity.allows(h), "seed {seed}: not opaque");
        assert!(
            ssr.allows(h),
            "seed {seed}: opaque but not strictly serializable?!"
        );
    }
}

#[test]
fn certifier_sound_wrt_exhaustive_on_all_three_tms() {
    // Wherever the certifier says yes on a short history, the exhaustive
    // checker must agree (soundness direction).
    let opacity = Opacity::new(Value::new(0));
    for seed in 0..4 {
        // GlobalVersionTm.
        let mut sys = GlobalVersionTm::system(2, 1);
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
        sys.run(&mut sched, 90);
        if certify_unique_writes(sys.history(), Value::new(0)) {
            assert!(opacity.allows(sys.history()), "gv seed {seed}");
        }

        // AgpTm.
        let mut sys = AgpTm::system(2, 1);
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
        sys.run(&mut sched, 90);
        if certify_unique_writes(sys.history(), Value::new(0)) {
            assert!(opacity.allows(sys.history()), "agp seed {seed}");
        }

        // LockTm.
        let mut sys = LockTm::system(2, 1);
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
        sys.run(&mut sched, 90);
        if certify_unique_writes(sys.history(), Value::new(0)) {
            assert!(opacity.allows(sys.history()), "lock seed {seed}");
        }
    }
}

#[test]
fn agp_satisfies_property_s_where_global_version_does_not() {
    // AgpTm implements S; GlobalVersionTm implements opacity but violates
    // S's abort rule under the synchronized-triple schedule. This is the
    // separation that makes Section 5.3's counterexample non-vacuous.
    use safety_liveness_exclusion::adversary::TripleRoundAdversary;

    let s = PropertyS::new(Value::new(0));

    let mut sys = AgpTm::system(3, 1);
    let mut adv =
        TripleRoundAdversary::new([ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    sys.run(&mut adv, 500);
    assert!(s.abort_rule_holds(sys.history()));

    let mut sys = GlobalVersionTm::system(3, 1);
    let mut adv =
        TripleRoundAdversary::new([ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    sys.run(&mut adv, 500);
    assert!(!s.abort_rule_holds(sys.history()));
}

#[test]
fn lock_tm_runs_are_opaque_but_blocking() {
    let opacity = Opacity::new(Value::new(0));
    let mut sys = LockTm::system(2, 1);

    // Crash the holder; the other spins forever — yet every *history*
    // remains opaque (blocking is a liveness failure, not a safety one).
    sys.invoke(ProcessId::new(0), Operation::TxStart).unwrap();
    sys.step(ProcessId::new(0)).unwrap();
    sys.crash(ProcessId::new(0)).unwrap();
    sys.invoke(ProcessId::new(1), Operation::TxStart).unwrap();
    for _ in 0..50 {
        sys.step(ProcessId::new(1)).unwrap();
    }
    assert!(opacity.allows(sys.history()));
    assert!(sys.history().pending(ProcessId::new(1)));
}
