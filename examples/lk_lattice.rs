//! Figure 1, regenerated.
//!
//! Classifies every (l,k)-freedom point for consensus-from-registers
//! (pane a) and TM opacity (pane b), each anchored in live experiments:
//! exhaustive small-scope checks for the white anchors, adversary runs for
//! the black anchors. Prints the two panes in the paper's layout plus the
//! strongest-implementable / weakest-excluded frontiers of Theorems 5.2
//! and 5.3, then the Section 6 structures: S-freedom has no strongest
//! implementable member, (n,x)-liveness is a chain.
//!
//! Run with: `cargo run --release --example lk_lattice`

use std::fmt::Display;

use safety_liveness_exclusion::grid::{consensus_grid, tm_grid, Grid, GridPoint, Verdict};
use safety_liveness_exclusion::sect6::{nx_report, s_freedom_report};

fn main() {
    let n = 4;

    println!("=== Figure 1(a) ===");
    let a = consensus_grid(n);
    println!("{a}\n");
    print_frontiers(&a);

    println!("\n=== Figure 1(b) ===");
    let b = tm_grid(n);
    println!("{b}\n");
    print_frontiers(&b);

    println!("\nLegend: ○ implementable with S, ● excludes S (black/white as in the paper).");
    println!("Anchor evidence:");
    for g in [&a, &b] {
        for p in &g.points {
            let basis = match &p.verdict {
                Verdict::Implementable { basis } | Verdict::Excluded { basis } => basis,
            };
            // Print only the two anchors per pane to keep the output tight.
            if (p.lk.l() == 1 && p.lk.k() == 1) || (p.lk.l() == 2 && p.lk.k() == 2) {
                println!("  [{}] {} — {}", g.safety, p.lk, basis);
            }
        }
    }

    let s = s_freedom_report(n);
    println!("\n=== Section 6: S-freedom (n = {n}) ===");
    println!("implementable singletons: {}", joined(&s.singletons, ", "));
    println!("pairwise incomparable   : {}", s.pairwise_incomparable);
    println!("⇒ no strongest implementable S-freedom property exists\n");

    let nx = nx_report(n);
    println!("=== Section 6: (n,x)-liveness (n = {n}) ===");
    println!("chain (weak → strong)   : {}", joined(&nx.chain, " < "));
    println!("totally ordered         : {}", nx.totally_ordered);
    println!(
        "strongest implementable : {} (pure obstruction-freedom)",
        nx.strongest_implementable
    );
    println!(
        "weakest non-implementable: {} (one wait-free process suffices for impossibility)",
        nx.weakest_non_implementable
    );
}

fn joined(items: impl IntoIterator<Item = impl Display>, sep: &str) -> String {
    items
        .into_iter()
        .map(|item| item.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

fn print_frontiers(g: &Grid) {
    let lks = |points: Vec<_>| joined(points.into_iter().map(|p: &GridPoint| p.lk), ", ");
    println!(
        "strongest implementable: {}",
        lks(g.strongest_implementable())
    );
    println!("weakest excluded       : {}", lks(g.weakest_excluded()));
}
