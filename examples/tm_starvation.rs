//! Corollary 4.6 and Figure 1b's black points, live.
//!
//! Runs the Section 4.1 three-step adversary against the lock-free opaque
//! TM: the victim retries forever while the committer commits every round.
//! Then converts the run into a *lasso* — a machine-checked proof that the
//! starvation continues for an infinite execution — and shows the
//! role-swapped twin strategy producing a disjoint adversary set
//! (`Gmax = ∅`, Corollary 4.6).
//!
//! Run with: `cargo run --release --example tm_starvation`

use safety_liveness_exclusion::adversary::TmStarvation;
use safety_liveness_exclusion::explorer::run_until_cycle_keyed;
use safety_liveness_exclusion::history::{ProcessId, Response, Value, VarId};
use safety_liveness_exclusion::liveness::{
    ExecutionView, LivenessProperty, LkFreedom, Lmax, ProgressKind,
};
use safety_liveness_exclusion::memory::Event;
use safety_liveness_exclusion::safety::certify_unique_writes;
use safety_liveness_exclusion::theorems::tm_gmax_demo;
use safety_liveness_exclusion::tm::normalize::normalized_global_version;
use safety_liveness_exclusion::tm::{GlobalVersionTm, TmWord};

fn main() {
    let victim = ProcessId::new(0);
    let committer = ProcessId::new(1);

    // ------------------------------------------------------------------
    // 1. The three-step strategy starves the victim.
    // ------------------------------------------------------------------
    println!("=== §4.1 starvation strategy vs lock-free opaque TM ===");
    let mut sys = GlobalVersionTm::system(2, 1);
    let mut adv = TmStarvation::new(victim, committer, VarId::new(0));
    let mut log = Vec::new();
    sys.run_logged(&mut adv, 4000, &mut log);
    println!("committer rounds (commits): {}", adv.rounds());
    println!("victim ever committed?    : {}", adv.lost());
    println!(
        "run certified opaque      : {}",
        certify_unique_writes(sys.history(), Value::new(0))
    );

    let view = ExecutionView::second_half(&log, 2, ProgressKind::CommitOnly);
    for prop in [LkFreedom::new(1, 2), LkFreedom::new(2, 2)] {
        println!("{:<18}: {}", prop.name(), prop.satisfied(&view));
    }
    println!("local progress    : {}\n", Lmax::new().satisfied(&view));

    // ------------------------------------------------------------------
    // 2. The lasso: proof the starvation is eternal.
    // ------------------------------------------------------------------
    println!("=== lasso (cycle modulo version shift) ===");
    let mut sys = GlobalVersionTm::system(2, 1);
    let mut adv = TmStarvation::new(victim, committer, VarId::new(0));
    let witness = run_until_cycle_keyed(&mut sys, &mut adv, 5000, |sys, adv: &TmStarvation| {
        let dval = sys
            .memory()
            .iter_objects()
            .find_map(|(_, o)| match o {
                safety_liveness_exclusion::memory::BaseObject::Cas(TmWord::Versioned {
                    values,
                    ..
                }) => Some(values[0].raw()),
                _ => None,
            })
            .unwrap_or(0);
        (normalized_global_version(sys), adv.normalized_state(dval))
    })
    .expect("the starvation loop is periodic");
    println!("stem length  : {} events", witness.stem.len());
    println!("cycle length : {} events", witness.cycle.len());
    println!("cycle steppers: {:?}", witness.cycle_steppers());
    let victim_commit = witness
        .cycle
        .iter()
        .any(|e| matches!(e, Event::Responded(q, Response::Committed) if *q == victim));
    println!("victim commits inside cycle: {victim_commit}");
    println!(
        "⇒ stem·cycle^ω is an infinite fair execution with 2 steppers and no victim commit:\n  \
         (2,2)-freedom (and local progress) exclude opacity (Theorem 5.3, black points).\n"
    );

    // ------------------------------------------------------------------
    // 3. Role-swapped twin ⇒ disjoint adversary sets ⇒ Gmax = ∅.
    // ------------------------------------------------------------------
    let demo = tm_gmax_demo(800);
    println!("=== {} ===", demo.corollary);
    println!(
        "F1 sample: {} histories (each starts with start() by p1)",
        demo.f1.len()
    );
    println!(
        "F2 sample: {} histories (each starts with start() by p2)",
        demo.f2.len()
    );
    println!("F1 ∩ F2 empty: {}", demo.gmax.is_empty());
    println!("corollary established: {}", demo.establishes_corollary());
}
