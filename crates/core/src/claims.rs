//! The paper's verdicts as one ledger: for each claim an `slx-core`
//! experiment decides, whether it holds and what it stands on. The `claims`
//! example prints it; `CLAIMS.txt` is that output, so verdicts diff by line.

use std::fmt;

use slx_consensus::{round_shift_key, CasConsensus, ObstructionFreeConsensus};
use slx_explorer::{Lasso, NoLasso};
use slx_liveness::{LivenessProperty, LkFreedom};
use slx_memory::{Memory, System};

use crate::blocking::non_blocking;
use crate::counterexample::section_5_3;
use crate::grid::{bivalence_lasso, consensus_grid, tm_grid, Grid, GridPoint};
use crate::sect6::section_6;
use crate::theorems::{corollary_4_5, corollary_4_6, lemma_4_8, theorem_4_9};

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

/// Every claim, in the claims table's order. Section 6 reads its white
/// check from Figure 1(a)'s (1,1) point and its lasso from Corollary 4.10,
/// so each experiment runs once.
pub fn ledger() -> Vec<Claim> {
    let lk = LkFreedom::new;
    let fig_1a = consensus_grid(N);
    let white = fig_1a.point(1, 1).expect("(1,1) is on every pane");
    let mut sys = ObstructionFreeConsensus::system(2, 64);
    let lasso = bivalence_lasso(&mut sys, &[], round_shift_key)
        .expect("the two-process valence graph is the white check's, which closes");
    vec![
        pane("Figure 1(a)", &fig_1a, lk(1, 1), lk(1, 2)),
        pane("Figure 1(b)", &tm_grid(N), lk(1, N), lk(2, 2)),
        corollary_4_5(),
        corollary_4_6(),
        corollary_4_10(&lasso),
        section_5_3(),
        section_6(N, white, &lasso),
        non_blocking(),
        lemma_4_8(),
        theorem_4_9(),
    ]
}

/// A Figure 1 pane holds when its frontiers are the theorem's; its
/// evidence is the pane, the frontiers and the two anchors' bases.
fn pane(id: &'static str, g: &Grid, strongest: LkFreedom, weakest: LkFreedom) -> Claim {
    let (white, black) = (g.strongest_implementable(), g.weakest_excluded());
    let lks = |points: &[&GridPoint]| joined(points.iter().map(|p| p.lk), ", ");
    let holds = lks(&white) == strongest.to_string() && lks(&black) == weakest.to_string();
    let mut evidence: Vec<String> = g.to_string().lines().map(str::to_owned).collect();
    evidence.push(format!("strongest implementable: {}", lks(&white)));
    evidence.push(format!("weakest excluded: {}", lks(&black)));
    evidence.extend(
        white
            .iter()
            .chain(&black)
            .map(|p| format!("{} — {}", p.lk, p.basis())),
    );
    Claim {
        id,
        holds,
        evidence,
    }
}

/// Corollary 4.10: the bivalence adversary closes `lasso` on the
/// two-process register consensus, and (1,2)-freedom fails on it; against
/// CAS consensus, keyed by the exact configuration, it halts with no
/// bivalent step to take.
fn corollary_4_10(lasso: &Lasso) -> Claim {
    let one_two = LkFreedom::new(1, 2);
    let mut mem = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut cas = System::new(mem, vec![CasConsensus::new(obj); 2]);
    let control =
        bivalence_lasso(&mut cas, &[], System::clone).expect("CAS consensus's graph is finite");
    let halted = matches!(control.outcome(), Err(NoLasso::Halted { .. }));
    Claim {
        id: "Corollary 4.10",
        holds: lasso.verdict(&one_two) == Some(false) && halted,
        evidence: vec![
            lasso_line(one_two, lasso, "bivalence adversary, registers"),
            format!("control, the same adversary against CAS consensus: {control}"),
        ],
    }
}

/// `<property> holds|violated on a lasso (<lasso>): <by>`; `not judged`
/// when the search closed no lasso.
pub(crate) fn lasso_line(property: impl LivenessProperty, lasso: &Lasso, by: &str) -> String {
    let verdict = match lasso.verdict(&property) {
        Some(true) => "holds",
        Some(false) => "violated",
        None => "not judged",
    };
    format!("{} {verdict} on a lasso ({lasso}): {by}", property.name())
}

/// The items' `Display`s, separated by `sep`.
pub(crate) fn joined(items: impl IntoIterator<Item = impl fmt::Display>, sep: &str) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(sep)
}
