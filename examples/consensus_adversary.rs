//! Corollary 4.5 and Figure 1a's black points, live.
//!
//! 1. Builds the paper's explicit adversary sets `F1`, `F2` and shows
//!    `F1 ∩ F2 = ∅` (so, by Theorem 4.4, no weakest liveness property
//!    excludes consensus safety).
//! 2. Unleashes the valence-computing (Chor–Israeli–Li) adversary on the
//!    register-only obstruction-free consensus until it closes a lasso on
//!    which two processes step forever and nobody decides — the
//!    (1,2)-freedom exclusion of Theorem 5.2, Figure 1(a)'s black anchor.
//! 3. Shows the same adversary is powerless against CAS-based consensus.
//!
//! Run with: `cargo run --release --example consensus_adversary`

use safety_liveness_exclusion::adversary::{normalized_of_consensus_key, run_bivalence_adversary};
use safety_liveness_exclusion::consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::grid::bivalence_lasso;
use safety_liveness_exclusion::history::{Operation, ProcessId, Value};
use safety_liveness_exclusion::liveness::LkFreedom;
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
    let mut sys = ObstructionFreeConsensus::system(2, 64);
    let (lasso, _) = bivalence_lasso(&mut sys, &[], normalized_of_consensus_key);
    let one_two = LkFreedom::new(1, 2);
    println!(
        "{one_two} violated on a lasso ({lasso}): {}",
        lasso.verdict(&one_two) == Some(false)
    );
    println!(
        "history stays safe   : {}",
        ConsensusSafety::new().allows(sys.history())
    );
    println!(
        "⇒ stem·cycle^ω: both processes step forever, neither decides:\n  \
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
