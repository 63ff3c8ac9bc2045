//! Section 5.3: the limits of (l,k)-freedom.
//!
//! Property `S` = opacity + the equal-timestamp forced-abort rule. The
//! experiment shows:
//!
//! - (1,3)-freedom excludes `S` (three synchronized processes abort
//!   forever against Algorithm I(1,2) — with a lasso proof);
//! - (2,2)-freedom excludes `S` (the §4.1 starvation strategy);
//! - (1,2)-freedom does **not** exclude `S` (Algorithm I(1,2) under any
//!   two-stepper schedule keeps committing, Lemma 5.4);
//! - (1,3) and (2,2) are incomparable and their common weakening (1,2) is
//!   implementable ⇒ **no weakest excluding (l,k)-freedom exists for S**.
//!
//! Run with: `cargo run --release --example counterexample_s`

use safety_liveness_exclusion::adversary::TripleRoundAdversary;
use safety_liveness_exclusion::counterexample::run_counterexample_s;
use safety_liveness_exclusion::explorer::run_until_cycle_keyed;
use safety_liveness_exclusion::history::{ProcessId, Value};
use safety_liveness_exclusion::liveness::LkFreedom;
use safety_liveness_exclusion::tm::normalize::normalized_agp;
use safety_liveness_exclusion::tm::AgpTm;

fn main() {
    println!("=== Section 5.3: property S vs (l,k)-freedom ===\n");
    let report = run_counterexample_s(4000);

    println!("(1,3)-freedom excluded:");
    println!("  synchronized all-abort rounds : {}", report.triple_rounds);
    println!("  any commit escaped?           : {}", report.triple_lost);

    println!("(2,2)-freedom excluded:");
    println!(
        "  starvation rounds             : {}",
        report.starvation_rounds
    );
    println!(
        "  victim ever committed?        : {}",
        report.starvation_lost
    );

    println!("(1,2)-freedom implementable (Algorithm I(1,2), Lemma 5.4):");
    println!("  commits by the two steppers   : {:?}", report.duo_commits);
    println!("  property S held throughout    : {}", report.s_holds);

    let a = LkFreedom::new(1, 3);
    let b = LkFreedom::new(2, 2);
    println!("\norder structure:");
    println!(
        "  (1,3) vs (2,2) comparable?    : {}",
        a.partial_cmp_strength(&b).is_some()
    );
    println!(
        "  both stronger than (1,2)?     : {}",
        a.is_stronger_or_equal(&LkFreedom::new(1, 2))
            && b.is_stronger_or_equal(&LkFreedom::new(1, 2))
    );
    println!(
        "\nSection 5.3 conclusion established: {}\n",
        report.establishes_section_5_3()
    );

    // Lasso proof for the (1,3) exclusion.
    println!("=== lasso for the (1,3) exclusion ===");
    let mut sys = AgpTm::system(3, 1);
    let mut adv =
        TripleRoundAdversary::new([ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    let witness = run_until_cycle_keyed(&mut sys, &mut adv, 5000, |sys, adv| {
        (normalized_agp(sys), adv.normalized_state())
    })
    .expect("the all-abort loop is periodic");
    println!("cycle length  : {} events", witness.cycle.len());
    println!("cycle steppers: {:?}", witness.cycle_steppers());
    println!(
        "commits inside: {}",
        witness.cycle_has_good_response(|resp| resp.is_commit())
    );
    println!(
        "⇒ an infinite fair execution with 3 steppers and no commit:\n  \
         (1,3)-freedom excludes S. Together with the (2,2) exclusion and the\n  \
         (1,2) implementation, S has no weakest excluding (l,k)-freedom property."
    );
    let _ = Value::new(0);
}
