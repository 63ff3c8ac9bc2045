//! Corollary 4.5 and Figure 1a's black points, live.
//!
//! 1. Builds the paper's explicit adversary sets `F1`, `F2` and shows
//!    `F1 ∩ F2 = ∅` (so, by Theorem 4.4, no weakest liveness property
//!    excludes consensus safety).
//! 2. Unleashes the valence-computing (Chor–Israeli–Li) adversary on the
//!    register-only obstruction-free consensus: two processes step forever,
//!    nobody decides — the (1,2)-freedom exclusion of Theorem 5.2.
//! 3. Shows the same adversary is powerless against CAS-based consensus.
//!
//! Run with: `cargo run --release --example consensus_adversary`

use safety_liveness_exclusion::adversary::run_bivalence_adversary;
use safety_liveness_exclusion::consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{Operation, ProcessId, Value};
use safety_liveness_exclusion::memory::{Memory, System};
use safety_liveness_exclusion::safety::{ConsensusSafety, SafetyProperty};
use safety_liveness_exclusion::theorems::consensus_gmax_demo;

fn main() {
    let p1 = ProcessId::new(0);
    let p2 = ProcessId::new(1);

    // ------------------------------------------------------------------
    // 1. The explicit adversary sets of Section 4.1.
    // ------------------------------------------------------------------
    let demo = consensus_gmax_demo();
    println!("=== {} ===", demo.corollary);
    println!("F1 ({} histories):\n{}", demo.f1.len(), demo.f1);
    println!("F2 ({} histories):\n{}", demo.f2.len(), demo.f2);
    println!("F1 ∩ F2 = {}", demo.gmax);
    println!(
        "Gmax empty ⇒ corollary established: {}\n",
        demo.establishes_corollary()
    );

    // ------------------------------------------------------------------
    // 2. The constructive adversary vs register-only consensus.
    // ------------------------------------------------------------------
    println!("=== bivalence adversary vs obstruction-free consensus (registers) ===");
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 128);
    let procs = vec![
        ObstructionFreeConsensus::new(layout, p1, 2),
        ObstructionFreeConsensus::new(layout, p2, 2),
    ];
    let mut sys = System::new(mem, procs);
    sys.invoke(p1, Operation::Propose(Value::new(1))).unwrap();
    sys.invoke(p2, Operation::Propose(Value::new(2))).unwrap();
    let report = run_bivalence_adversary(&mut sys, &[p1, p2], 200, 60_000);
    println!("scheduled steps      : {}", report.steps);
    println!("per-process steps    : {:?}", report.step_counts);
    println!("anyone decided?      : {}", report.decided);
    println!("bivalent throughout? : {}", report.bivalent_throughout);
    println!("adversary won?       : {}", report.adversary_won());
    println!(
        "history stays safe   : {}",
        ConsensusSafety::new().allows(&report.history)
    );
    println!(
        "⇒ two processes take infinitely many steps, neither decides:\n  \
         (1,2)-freedom excludes agreement & validity (Theorem 5.2, black points).\n"
    );

    // ------------------------------------------------------------------
    // 3. Contrast: the adversary loses against CAS-based consensus.
    // ------------------------------------------------------------------
    println!("=== same adversary vs CAS consensus ===");
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
    sys.invoke(p1, Operation::Propose(Value::new(1))).unwrap();
    sys.invoke(p2, Operation::Propose(Value::new(2))).unwrap();
    let report = run_bivalence_adversary(&mut sys, &[p1, p2], 200, 60_000);
    println!("adversary won?       : {}", report.adversary_won());
    println!(
        "⇒ with compare-and-swap base objects there is no bivalence to preserve:\n  \
         the exclusion is about *register* implementations, as Figure 1a states."
    );
}
