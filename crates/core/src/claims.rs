//! The paper's verdicts as one ledger: for each claim an `slx-core`
//! experiment decides, whether it holds and what it stands on. The `claims`
//! example prints it; `CLAIMS.txt` is that output, so verdicts diff by line.

use std::fmt;

use slx_adversary::{normalized_of_consensus_key, BivalenceScheduler};
use slx_consensus::{CasConsensus, ObstructionFreeConsensus};
use slx_explorer::{Lasso, NoLasso};
use slx_history::HistorySet;
use slx_liveness::{LivenessProperty, LkFreedom, NxLiveness, SFreedom};
use slx_memory::{Memory, System};

use crate::blocking::blocking_demo;
use crate::counterexample::run_counterexample_s;
use crate::grid::{bivalence_lasso, consensus_grid, tm_grid, Grid, GridPoint, Verdict};
use crate::sect6::{nx_report, s_freedom_report, sect6_implementability_demo};
use crate::theorems::{consensus_gmax_demo, tm_gmax_demo, GmaxDemo};

/// One paper claim's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claim's name, as EXPERIMENTS.md's claims table sets it in bold.
    pub id: &'static str,
    /// Whether the experiment came out as the paper says.
    pub holds: bool,
    /// What the verdict stands on, one line each.
    pub evidence: Vec<String>,
}

impl fmt::Display for Claim {
    /// `<id>: holds` (or `FAILS`), then each evidence line, indented.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds { "holds" } else { "FAILS" };
        let lines: String = self.evidence.iter().map(|l| format!("\n  {l}")).collect();
        write!(f, "{}: {verdict}{lines}", self.id)
    }
}

/// The system size of the Figure 1 panes and the Section 6 structures.
const N: usize = 4;

/// Every claim, in the claims table's order.
pub fn ledger() -> Vec<Claim> {
    let lk = LkFreedom::new;
    let rows = [
        ("Figure 1(a)", pane(&consensus_grid(N), lk(1, 1), lk(1, 2))),
        ("Figure 1(b)", pane(&tm_grid(N), lk(1, N), lk(2, 2))),
        ("Corollary 4.5", gmax(consensus_gmax_demo())),
        ("Corollary 4.6", gmax(tm_gmax_demo())),
        ("Corollary 4.10", corollary_4_10()),
        ("Section 5.3 (property S)", section_5_3()),
        ("Section 6", section_6()),
        ("Non-blocking motivation", non_blocking()),
    ];
    let claim = |(id, (holds, evidence))| Claim {
        id,
        holds,
        evidence,
    };
    rows.into_iter().map(claim).collect()
}

/// A Figure 1 pane holds when its frontiers are the theorem's; its
/// evidence is the pane, the frontiers and the two anchors' bases.
fn pane(g: &Grid, strongest: LkFreedom, weakest: LkFreedom) -> (bool, Vec<String>) {
    let (white, black) = (g.strongest_implementable(), g.weakest_excluded());
    let lks = |points: &[&GridPoint]| joined(points.iter().map(|p| p.lk), ", ");
    let holds = lks(&white) == strongest.to_string() && lks(&black) == weakest.to_string();
    let mut evidence: Vec<String> = g.to_string().lines().map(str::to_owned).collect();
    evidence.push(format!("strongest implementable: {}", lks(&white)));
    evidence.push(format!("weakest excluded: {}", lks(&black)));
    for p in white.iter().chain(&black) {
        let (Verdict::Implementable { basis } | Verdict::Excluded { basis }) = &p.verdict;
        evidence.push(format!("{} — {basis}", p.lk));
    }
    (holds, evidence)
}

/// Theorem 4.4's corollaries: two disjoint adversary sets.
fn gmax(demo: GmaxDemo) -> (bool, Vec<String>) {
    let sizes = |set: &HistorySet| {
        let lens = joined(set.iter().map(|h| h.actions().len()), ", ");
        format!("{} histories of {lens} actions", set.len())
    };
    let evidence = vec![
        format!("F1: {}", sizes(&demo.f1)),
        format!("F2: {}", sizes(&demo.f2)),
        format!("F1 ∩ F2: {} histories", demo.gmax.len()),
    ];
    (demo.establishes_corollary(), evidence)
}

/// The bivalence adversary closes a lasso on the two-process register
/// consensus on which (1,2)-freedom fails; against CAS consensus, under an
/// exact key, it halts with no bivalent step to take.
fn corollary_4_10() -> (bool, Vec<String>) {
    let one_two = LkFreedom::new(1, 2);
    let mut sys = ObstructionFreeConsensus::system(2, 64);
    let (lasso, _) = bivalence_lasso(&mut sys, &[], normalized_of_consensus_key);
    let mut mem = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut cas = System::new(mem, vec![CasConsensus::new(obj); 2]);
    let exact =
        |sys: &System<_, _>, sched: &BivalenceScheduler| (sys.clone(), sched.normalized_counts());
    let (control, sched) = bivalence_lasso(&mut cas, &[], exact);
    let halted = matches!(control.outcome(), Err(NoLasso::Halted { .. }));
    let holds = lasso.verdict(&one_two) == Some(false) && halted && !sched.halted_truncated();
    let evidence = vec![
        lasso_line(one_two, &lasso, "bivalence adversary, registers"),
        format!("control, the same adversary against CAS consensus: {control}"),
    ];
    (holds, evidence)
}

/// Property S: (1,3)- and (2,2)-freedom exclude it, (1,2)-freedom does not.
fn section_5_3() -> (bool, Vec<String>) {
    let r = run_counterexample_s();
    let lk = LkFreedom::new;
    let evidence = vec![
        lasso_line(lk(1, 3), &r.triple_lasso, "triple-round adversary"),
        lasso_line(lk(2, 2), &r.starvation_lasso, "§4.1 strategy, p3 crashed"),
        lasso_line(lk(1, 2), &r.duo_lasso, "round-robin workload, p3 crashed"),
        format!("property S held on all three: {}", r.s_holds),
    ];
    (r.establishes_section_5_3(), evidence)
}

/// Section 6: S-freedom has no strongest implementable member,
/// (n,x)-liveness is a chain, and its members split at x = 1.
fn section_6() -> (bool, Vec<String>) {
    let (s, nx) = (s_freedom_report(N), nx_report(N));
    let demo = sect6_implementability_demo();
    let (singletons, chain) = (joined(&s.singletons, ", "), joined(&nx.chain, " < "));
    let (incomparable, ordered) = (s.pairwise_incomparable, nx.totally_ordered);
    let (white, lasso) = (&demo.white_basis, &demo.lasso);
    let by = "bivalence adversary, registers";
    let evidence = vec![
        format!("{singletons} pairwise incomparable: {incomparable}"),
        format!("{chain} totally ordered: {ordered}"),
        format!("implementable members, Figure 1(a)'s white check: {white}"),
        lasso_line(NxLiveness::new(2, 1), lasso, by),
        lasso_line(SFreedom::new([2]), lasso, by),
    ];
    let holds = incomparable && ordered && demo.establishes_sect6();
    (holds, evidence)
}

/// A crashed lock holder starves the lock TM; the lock-free TM commits on.
fn non_blocking() -> (bool, Vec<String>) {
    let (d, lk) = (blocking_demo(), LkFreedom::new);
    let evidence = vec![
        lasso_line(lk(1, 1), &d.lock_tm_lasso, "LockTm, lock holder crashed"),
        format!("LockTm opaque: {}", d.lock_tm_still_opaque),
        lasso_line(lk(1, 2), &d.lock_free_lasso, "GlobalVersionTm, same crash"),
    ];
    (d.establishes_contrast(), evidence)
}

/// `<property> holds|violated on a lasso (<lasso>): <by>`; `not judged`
/// when the search closed no lasso.
fn lasso_line(property: impl LivenessProperty, lasso: &Lasso, by: &str) -> String {
    let verdict = match lasso.verdict(&property) {
        Some(true) => "holds",
        Some(false) => "violated",
        None => "not judged",
    };
    format!("{} {verdict} on a lasso ({lasso}): {by}", property.name())
}

fn joined(items: impl IntoIterator<Item = impl fmt::Display>, sep: &str) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(sep)
}
