//! Section 5.3: the limits of (l,k)-freedom.
//!
//! Property `S` = opacity + the equal-timestamp forced-abort rule. The
//! experiment shows:
//!
//! - (1,3)-freedom excludes `S` (three synchronized processes abort
//!   forever against Algorithm I(1,2));
//! - (2,2)-freedom excludes `S` (the §4.1 starvation strategy, with the
//!   third process crashed — idle but correct, it would count as
//!   progressing and the run would satisfy (2,2)-freedom);
//! - (1,2)-freedom does **not** exclude `S` (Algorithm I(1,2) keeps
//!   committing under two steppers, Lemma 5.4: with the third process
//!   crashed, the two others loop a transaction round-robin, and someone
//!   commits on every cycle of the lasso they close);
//! - (1,3) and (2,2) are incomparable and their common weakening (1,2) is
//!   implementable ⇒ **no weakest excluding (l,k)-freedom exists for S**.
//!
//! All three legs are judged on lassos: infinite executions
//! `stem · cycle^ω` that the adversaries, and the round-robin workload,
//! drive Algorithm I(1,2) into.
//!
//! Run with: `cargo run --release --example counterexample_s`

use safety_liveness_exclusion::counterexample::run_counterexample_s;
use safety_liveness_exclusion::liveness::LkFreedom;

fn main() {
    println!("=== Section 5.3: property S vs (l,k)-freedom ===\n");
    let report = run_counterexample_s();

    println!("(1,3)-freedom excluded (three synchronized processes):");
    println!("  all-abort lasso               : {}", report.triple_lasso);
    println!(
        "  (1,3)-freedom violated on it? : {}",
        report.triple_violates_13
    );

    println!("(2,2)-freedom excluded (§4.1 strategy, third process crashed):");
    println!(
        "  starvation lasso              : {}",
        report.starvation_lasso
    );
    println!(
        "  (2,2)-freedom violated on it? : {}",
        report.starvation_violates_22
    );

    println!("(1,2)-freedom implementable (Algorithm I(1,2), Lemma 5.4):");
    println!("  round-robin workload lasso    : {}", report.duo_lasso);
    println!(
        "  (1,2)-freedom holds on it?    : {}",
        report.duo_satisfies_12
    );
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
        "\nSection 5.3 conclusion established: {}",
        report.establishes_section_5_3()
    );
}
