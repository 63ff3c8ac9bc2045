//! Figure 1, regenerated.
//!
//! Classifies every (l,k)-freedom point for consensus-from-registers
//! (pane a) and TM opacity (pane b), each anchored in live experiments:
//! the consensus's whole two-process graph and one seeded TM run for the
//! white anchors, lassos of adversaries for the black anchors. Prints the two panes in the paper's layout plus the
//! strongest-implementable / weakest-excluded frontiers of Theorems 5.2
//! and 5.3, then the Section 6 structures: S-freedom has no strongest
//! implementable member, (n,x)-liveness is a chain — and the experiment
//! behind Section 6's implementable and excluded members.
//!
//! Run with: `cargo run --release --example lk_lattice`

use std::fmt::Display;

use safety_liveness_exclusion::grid::{consensus_grid, tm_grid, Grid, GridPoint, Verdict};
use safety_liveness_exclusion::sect6::{nx_report, s_freedom_report, sect6_implementability_demo};

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
        // The anchors are the two frontier points of each pane; every other
        // point inherits its verdict from one of them.
        for p in g
            .strongest_implementable()
            .into_iter()
            .chain(g.weakest_excluded())
        {
            let basis = match &p.verdict {
                Verdict::Implementable { basis } | Verdict::Excluded { basis } => basis,
            };
            println!("  [{}] {} — {}", g.safety, p.lk, basis);
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

    let demo = sect6_implementability_demo();
    println!("\n=== Section 6: implementability from registers (n = 2) ===");
    println!("Figure 1(a)'s white check: {}", demo.white_basis);
    println!(
        "on Figure 1(a)'s lasso ({}): (2,1)-liveness violated = {}, {{2}}-freedom violated = {}",
        demo.lasso, demo.nx1_violated, demo.s2_violated
    );
    println!("Section 6 established: {}", demo.establishes_sect6());
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
