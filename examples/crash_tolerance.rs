//! Crash tolerance and the non-blocking distinction.
//!
//! Section 2's model lets any number of processes crash; Section 5's
//! liveness menu is designed for *non-blocking* systems, where a crashed
//! process cannot strangle the others. This example injects crashes into
//! every implementation in the workspace and shows who keeps going:
//!
//! - register-only consensus: survivors decide after any crash pattern;
//! - lock-free TM: survivors commit after the others crash mid-transaction;
//! - lock-based TM: one crash inside the critical section starves everyone
//!   forever — the blocking behaviour (l,k)-freedom rules out.
//!
//! Run with: `cargo run --release --example crash_tolerance`

use safety_liveness_exclusion::blocking::blocking_demo;
use safety_liveness_exclusion::consensus::{ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{Operation, ProcessId, Value};
use safety_liveness_exclusion::memory::{
    CrashPlan, FairRandom, Memory, RandomCrashes, RoundRobin, System,
};
use safety_liveness_exclusion::safety::{ConsensusSafety, SafetyProperty};

fn main() {
    let safety = ConsensusSafety::new();

    // ------------------------------------------------------------------
    // 1. Planned crash, mid commit-adopt round.
    // ------------------------------------------------------------------
    println!("=== planned crash inside a commit-adopt round ===");
    for crash_at in [1u64, 5, 9] {
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
        let procs = (0..2)
            .map(|i| ObstructionFreeConsensus::new(layout, ProcessId::new(i), 2))
            .collect();
        let mut sys: System<ConsWord, ObstructionFreeConsensus> = System::new(mem, procs);
        sys.invoke(ProcessId::new(0), Operation::Propose(Value::new(1)))
            .unwrap();
        sys.invoke(ProcessId::new(1), Operation::Propose(Value::new(2)))
            .unwrap();
        let mut sched = CrashPlan::new(RoundRobin::new(), vec![(crash_at, ProcessId::new(0))]);
        sys.run(&mut sched, 50_000);
        println!(
            "crash p1 at event {crash_at:>2}: survivor decided = {}, safety = {}",
            !sys.history().pending(ProcessId::new(1)),
            safety.allows(sys.history())
        );
    }

    // ------------------------------------------------------------------
    // 2. Random crash storms.
    // ------------------------------------------------------------------
    println!("\n=== random crash storms (3 processes, up to 2 crashes) ===");
    let mut survived = 0;
    let runs = 20;
    for seed in 0..runs {
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 3, 64);
        let procs = (0..3)
            .map(|i| ObstructionFreeConsensus::new(layout, ProcessId::new(i), 3))
            .collect();
        let mut sys: System<ConsWord, ObstructionFreeConsensus> = System::new(mem, procs);
        for i in 0..3 {
            sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(i as i64)))
                .unwrap();
        }
        let mut sched = RandomCrashes::new(FairRandom::new(seed), seed, 25, 1);
        sys.run(&mut sched, 50_000);
        let ok = safety.allows(sys.history())
            && (0..3).all(|i| {
                sys.is_crashed(ProcessId::new(i)) || !sys.history().pending(ProcessId::new(i))
            });
        if ok {
            survived += 1;
        }
    }
    println!("{survived}/{runs} storms: all survivors decided, safety never violated");

    // ------------------------------------------------------------------
    // 3. Blocking vs non-blocking TM under the same crash.
    // ------------------------------------------------------------------
    println!("\n=== TM: crash the \"lock holder\" ===");
    let demo = blocking_demo();
    println!(
        "lock TM   : lasso ({})   opaque = {}  (1,1)-freedom violated = {}",
        demo.lock_tm_lasso, demo.lock_tm_still_opaque, demo.lock_tm_violates_11
    );
    println!(
        "lock-free : lasso ({})  (1,n)-freedom holds = {}",
        demo.lock_free_lasso, demo.lock_free_satisfies_1n
    );
    println!(
        "contrast established: {} — blocking is a liveness failure, never a safety one",
        demo.establishes_contrast()
    );
}
