//! Section 6: alternative restricted liveness families.

use slx_adversary::normalized_of_consensus_key;
use slx_consensus::{round_shift_key, ObstructionFreeConsensus};
use slx_explorer::Lasso;
use slx_liveness::{NxLiveness, SFreedom};

use crate::grid::{bivalence_lasso, consensus_white_check};

/// The S-freedom structure recalled in Section 6: the implementable
/// members (from registers, for consensus) are exactly the singletons, and
/// the singletons are pairwise incomparable — so even this restricted
/// family has **no strongest implementable member**.
#[derive(Debug, Clone)]
pub struct SFreedomReport {
    /// The singleton properties `{1}-freedom .. {n}-freedom`.
    pub singletons: Vec<SFreedom>,
    /// Whether every distinct pair of singletons is incomparable.
    pub pairwise_incomparable: bool,
}

/// Builds the Section 6 S-freedom report for system size `n`.
pub fn s_freedom_report(n: usize) -> SFreedomReport {
    let singletons: Vec<SFreedom> = (1..=n).map(|s| SFreedom::new([s])).collect();
    let pairwise_incomparable = singletons.iter().enumerate().all(|(i, a)| {
        singletons
            .iter()
            .enumerate()
            .all(|(j, b)| i == j || a.incomparable(b))
    });
    SFreedomReport {
        singletons,
        pairwise_incomparable,
    }
}

/// The (n,x)-liveness structure recalled in Section 6: the family is
/// **totally ordered** by `x`, so the strongest implementable member
/// `(n,0)` and the weakest non-implementable member `(n,1)` both exist —
/// the paper's example of a restriction strong enough to defeat the
/// impossibilities, at the price of excluding e.g. lock-freedom from the
/// family.
#[derive(Debug, Clone)]
pub struct NxReport {
    /// The full chain `(n,0) .. (n,n)` in increasing strength.
    pub chain: Vec<NxLiveness>,
    /// Whether the chain is totally ordered by strength.
    pub totally_ordered: bool,
    /// The strongest implementable member (x = 0: pure obstruction-
    /// freedom, implementable from registers).
    pub strongest_implementable: NxLiveness,
    /// The weakest non-implementable member (x = 1: one wait-free process
    /// already falls to the bivalence adversary).
    pub weakest_non_implementable: NxLiveness,
}

/// Builds the Section 6 (n,x)-liveness report for system size `n`.
pub fn nx_report(n: usize) -> NxReport {
    let chain: Vec<NxLiveness> = (0..=n).map(|x| NxLiveness::new(n, x)).collect();
    let totally_ordered = chain
        .windows(2)
        .all(|w| w[1].cmp_strength(&w[0]) == std::cmp::Ordering::Greater);
    NxReport {
        totally_ordered,
        strongest_implementable: NxLiveness::new(n, 0),
        weakest_non_implementable: NxLiveness::new(n, 1),
        chain,
    }
}

/// Experimental check of the Section 6 *implementability* claims for a
/// two-process register system, with Figure 1(a)'s own checks:
///
/// - `(n,0)`-liveness (pure obstruction-freedom) and `{1}`-freedom are
///   *satisfied* by the register-only consensus, which passes
///   [`consensus_white_check`]: safety and solo progress on the
///   two-process consensus's exact graph under its round-shift key;
/// - `(n,1)`-liveness and `{2}`-freedom are *excluded*: both fail on
///   Figure 1(a)'s bivalence lasso ([`bivalence_lasso`]), an infinite
///   execution with two steppers in which nobody decides (the designated
///   wait-free process starves; two contention-free steppers starve).
#[derive(Debug, Clone)]
pub struct Sect6ImplementabilityDemo {
    /// Figure 1(a)'s white check passed (backs the implementable members).
    pub white_ok: bool,
    /// Its basis: the size of the graph both halves were checked on.
    pub white_basis: String,
    /// Figure 1(a)'s bivalence lasso.
    pub lasso: Lasso,
    /// The lasso violates `(2,1)`-liveness.
    pub nx1_violated: bool,
    /// The lasso violates `{2}`-freedom.
    pub s2_violated: bool,
}

impl Sect6ImplementabilityDemo {
    /// Whether all three legs came out as Section 6 states.
    pub fn establishes_sect6(&self) -> bool {
        self.white_ok && self.nx1_violated && self.s2_violated
    }
}

/// Runs the Section 6 implementability experiment.
pub fn sect6_implementability_demo() -> Sect6ImplementabilityDemo {
    let (white_ok, white_basis) = consensus_white_check(
        &ObstructionFreeConsensus::proposers(&[1, 2], 64),
        round_shift_key,
    );
    let mut sys = ObstructionFreeConsensus::system(2, 64);
    let (lasso, _) = bivalence_lasso(&mut sys, &[], normalized_of_consensus_key);
    Sect6ImplementabilityDemo {
        white_ok,
        white_basis,
        nx1_violated: lasso.verdict(&NxLiveness::new(2, 1)) == Some(false),
        s2_violated: lasso.verdict(&SFreedom::new([2])) == Some(false),
        lasso,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementability_demo_backs_sect6() {
        let demo = sect6_implementability_demo();
        assert!(demo.establishes_sect6(), "{demo:?}");
        // The implementable members hold on the same lasso.
        assert_eq!(demo.lasso.verdict(&NxLiveness::new(2, 0)), Some(true));
        assert_eq!(demo.lasso.verdict(&SFreedom::new([1])), Some(true));
    }

    #[test]
    fn s_freedom_singletons_incomparable() {
        let r = s_freedom_report(4);
        assert_eq!(r.singletons.len(), 4);
        assert!(r.pairwise_incomparable);
    }

    #[test]
    fn nx_chain_totally_ordered() {
        let r = nx_report(4);
        assert!(r.totally_ordered);
        assert_eq!(r.chain.len(), 5);
        assert_eq!(r.strongest_implementable.x(), 0);
        assert_eq!(r.weakest_non_implementable.x(), 1);
    }
}
