//! Section 6: alternative restricted liveness families.

use std::cmp::Ordering;

use slx_explorer::Lasso;
use slx_liveness::{NxLiveness, SFreedom};

use crate::claims::{joined, lasso_line, Claim};
use crate::grid::GridPoint;

/// **Section 6**, at system size `n`:
///
/// - S-freedom: the singletons `{1}-freedom .. {n}-freedom` are pairwise
///   incomparable, so even this restricted family has **no strongest
///   implementable member**;
/// - (n,x)-liveness: the chain `(n,0) .. (n,n)` is **totally ordered** by
///   `x`, so the strongest implementable member `(n,0)` and the weakest
///   non-implementable member `(n,1)` both exist — the paper's example of
///   a restriction strong enough to defeat the impossibilities, at the
///   price of excluding e.g. lock-freedom from the family;
/// - on two processes, `(2,0)`-liveness (pure obstruction-freedom) and
///   `{1}`-freedom are *implementable*: the register consensus passes
///   Figure 1(a)'s white check, `white` (its (1,1) point: safety and solo
///   progress on the exact graph), and both hold on `lasso`;
/// - `(2,1)`-liveness and `{2}`-freedom are *excluded*: both fail on
///   `lasso`, Figure 1(a)'s two-process bivalence lasso, an infinite
///   execution with two steppers in which nobody decides (the designated
///   wait-free process starves; two contention-free steppers starve).
pub fn section_6(n: usize, white: &GridPoint, lasso: &Lasso) -> Claim {
    let singletons: Vec<SFreedom> = (1..=n).map(|s| SFreedom::new([s])).collect();
    let pairs = singletons
        .iter()
        .flat_map(|a| singletons.iter().map(move |b| (a, b)));
    let incomparable = pairs
        .filter(|(a, b)| a != b)
        .all(|(a, b)| a.incomparable(b));
    let chain: Vec<NxLiveness> = (0..=n).map(|x| NxLiveness::new(n, x)).collect();
    let ordered = chain
        .windows(2)
        .all(|w| w[1].cmp_strength(&w[0]) == Ordering::Greater);
    let nx = |x| NxLiveness::new(2, x);
    let s = |i| SFreedom::new([i]);
    let on_lasso = lasso.verdict(&nx(0)) == Some(true)
        && lasso.verdict(&s(1)) == Some(true)
        && lasso.verdict(&nx(1)) == Some(false)
        && lasso.verdict(&s(2)) == Some(false);
    let by = "bivalence adversary, registers";
    Claim {
        id: "Section 6",
        holds: incomparable && ordered && white.implementable() && on_lasso,
        evidence: vec![
            format!(
                "{} pairwise incomparable: {incomparable}",
                joined(&singletons, ", ")
            ),
            format!("{} totally ordered: {ordered}", joined(&chain, " < ")),
            format!(
                "implementable members, Figure 1(a)'s white check: {}",
                white.basis()
            ),
            lasso_line(nx(1), lasso, by),
            lasso_line(s(2), lasso, by),
        ],
    }
}
