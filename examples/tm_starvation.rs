//! Corollary 4.6 and Figure 1b's black points, live.
//!
//! Runs the Section 4.1 three-step adversary against the lock-free opaque
//! TM until its run closes a *lasso* — a machine-checked proof that the
//! victim retries forever while the committer commits every round — and
//! judges (1,2)- and (2,2)-freedom and local progress on that infinite
//! execution. Then shows the role-swapped twin strategy producing a
//! disjoint adversary set (`Gmax = ∅`, Corollary 4.6).
//!
//! Run with: `cargo run --release --example tm_starvation`

use safety_liveness_exclusion::grid::{starvation_lasso, STARVATION_ROLES};
use safety_liveness_exclusion::history::Value;
use safety_liveness_exclusion::liveness::{LivenessProperty, LkFreedom, Lmax};
use safety_liveness_exclusion::safety::certify_unique_writes;
use safety_liveness_exclusion::theorems::tm_gmax_demo;
use safety_liveness_exclusion::tm::normalize::normalized_global_version;
use safety_liveness_exclusion::tm::GlobalVersionTm;

fn main() {
    // ------------------------------------------------------------------
    // 1. The three-step strategy starves the victim: a lasso, the proof
    //    that the starvation is eternal.
    // ------------------------------------------------------------------
    println!("=== §4.1 starvation strategy vs lock-free opaque TM ===");
    let mut sys = GlobalVersionTm::system(2, 1);
    let (lasso, _) = starvation_lasso(&mut sys, &[], STARVATION_ROLES, normalized_global_version);
    println!(
        "run certified opaque      : {}",
        certify_unique_writes(sys.history(), Value::new(0))
    );
    let witness = lasso.witness().expect("the starvation loop is periodic");
    println!("lasso (cycle modulo version shift): {lasso}");
    println!("cycle steppers: {:?}", witness.cycle_steppers());
    for prop in [LkFreedom::new(1, 2), LkFreedom::new(2, 2)] {
        println!(
            "{:<18}: {}",
            prop.name(),
            lasso.verdict(&prop) == Some(true)
        );
    }
    let local = lasso.verdict(&Lmax::new()) == Some(true);
    println!("local progress    : {local}");
    println!(
        "⇒ stem·cycle^ω is an infinite fair execution with 2 steppers and no victim commit:\n  \
         (2,2)-freedom (and local progress) exclude opacity (Theorem 5.3, black points).\n"
    );

    // ------------------------------------------------------------------
    // 2. Role-swapped twin ⇒ disjoint adversary sets ⇒ Gmax = ∅.
    // ------------------------------------------------------------------
    let demo = tm_gmax_demo();
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
