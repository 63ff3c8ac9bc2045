//! Figure 1: classification of (l,k)-freedom points.

use std::fmt;

use slx_adversary::{run_bivalence_adversary, TmStarvation};
use slx_consensus::ObstructionFreeConsensus;
use slx_explorer::{explore_safety, history_digest, verify_solo_progress};
use slx_history::{ProcessId, Value, VarId};
use slx_liveness::LkFreedom;
use slx_safety::ConsensusSafety;
use slx_tm::GlobalVersionTm;

/// Classification of one (l,k) point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A white point of Figure 1: some implementation ensures the safety
    /// property together with this liveness property.
    Implementable {
        /// How the verdict was established.
        basis: String,
    },
    /// A black point: the liveness property excludes the safety property.
    Excluded {
        /// How the verdict was established.
        basis: String,
    },
}

/// One grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPoint {
    /// The (l,k)-freedom property.
    pub lk: LkFreedom,
    /// Its classification.
    pub verdict: Verdict,
}

impl GridPoint {
    /// Whether the point is white (implementable).
    pub fn implementable(&self) -> bool {
        matches!(self.verdict, Verdict::Implementable { .. })
    }
}

/// A full Figure-1 pane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Name of the safety property classified against.
    pub safety: String,
    /// System size `n`.
    pub n: usize,
    /// All points with `1 ≤ l ≤ k ≤ n`.
    pub points: Vec<GridPoint>,
}

impl Grid {
    /// The point for a given (l,k), if on the grid.
    pub fn point(&self, l: usize, k: usize) -> Option<&GridPoint> {
        self.points.iter().find(|p| p.lk.l() == l && p.lk.k() == k)
    }

    /// The *maximal* white points (no white point strictly stronger):
    /// the "strongest implementable" frontier of Section 5.2.
    pub fn strongest_implementable(&self) -> Vec<&GridPoint> {
        self.points
            .iter()
            .filter(|p| p.implementable())
            .filter(|p| {
                !self
                    .points
                    .iter()
                    .any(|q| q.implementable() && q.lk != p.lk && q.lk.is_stronger_or_equal(&p.lk))
            })
            .collect()
    }

    /// The *minimal* black points (no black point strictly weaker): the
    /// "weakest non-implementable" frontier.
    pub fn weakest_excluded(&self) -> Vec<&GridPoint> {
        self.points
            .iter()
            .filter(|p| !p.implementable())
            .filter(|p| {
                !self
                    .points
                    .iter()
                    .any(|q| !q.implementable() && q.lk != p.lk && p.lk.is_stronger_or_equal(&q.lk))
            })
            .collect()
    }
}

impl fmt::Display for Grid {
    /// Renders the pane in the style of Figure 1: `k` on the horizontal
    /// axis, `l` on the vertical, `○` white (implementable), `●` black
    /// (excluded), blank where `l > k`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "S = {} (n = {})", self.safety, self.n)?;
        for l in (1..=self.n).rev() {
            write!(f, "l={l} |")?;
            for k in 1..=self.n {
                match self.point(l, k) {
                    Some(p) if p.implementable() => write!(f, " ○")?,
                    Some(_) => write!(f, " ●")?,
                    None => write!(f, "  ")?,
                }
            }
            writeln!(f)?;
        }
        write!(f, "     ")?;
        for k in 1..=self.n {
            write!(f, "k={k}")?;
        }
        Ok(())
    }
}

// The anchor experiments' scope, fixed: they regenerate the paper's figure
// in seconds. `sect6` reuses the consensus constants.
/// Depth of the exhaustive safety exploration for the white consensus point.
const EXPLORE_DEPTH: usize = 18;
/// Depth of reachable-configuration enumeration for the solo-progress check.
pub(crate) const SOLO_DEPTH: usize = 8;
/// Step budget of a solo run before it must respond.
pub(crate) const SOLO_BUDGET: usize = 400;
/// Steps the bivalence adversary must survive.
pub(crate) const ADVERSARY_STEPS: u64 = 60;
/// Configuration budget per valence query.
pub(crate) const VALENCE_BUDGET: usize = 40_000;
/// Events of the seeded contention run and of the TM starvation adversary.
const TM_EVENTS: u64 = 2_000;
/// Seed of the `FairRandom` scheduler behind the white TM anchor.
const TM_WHITE_SEED: u64 = 7;

/// **Figure 1(a)**: consensus from read/write registers. White iff
/// `(l,k) = (1,1)` (Theorem 5.2).
///
/// The two anchor verdicts are established experimentally:
///
/// - *(1,1) white*: `ObstructionFreeConsensus` passes (i) exhaustive
///   small-scope safety exploration (agreement and validity on **all**
///   schedules to the depth bound) and (ii) exhaustive solo-progress
///   (from every reachable configuration, a solo process decides);
/// - *(1,2) black*: the valence-computing adversary keeps the same
///   implementation undecided with two processes stepping — and since the
///   adversary is implementation-agnostic (it model-checks whatever
///   deterministic register-based implementation it is given), the point
///   is excluded, not merely unwitnessed. Every (l,k) ≥ (1,2) inherits
///   the exclusion (a stronger property excludes whenever a weaker one
///   does).
pub fn consensus_grid(n: usize) -> Grid {
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);

    // White anchor (1,1): exhaustive safety + solo progress at small scope.
    let build = || ObstructionFreeConsensus::proposers(&[1, 2], 64);
    let safety_out = explore_safety(
        &build(),
        &[p0, p1],
        EXPLORE_DEPTH,
        &ConsensusSafety::new(),
        history_digest,
    );
    let solo_cex = verify_solo_progress(&build(), &[p0, p1], SOLO_DEPTH, SOLO_BUDGET);
    let white_ok = safety_out.holds() && solo_cex.is_none();
    let white_basis = format!(
        "obstruction-free consensus from registers: safety on every schedule to depth \
         {EXPLORE_DEPTH} ({} configs, truncated: {}, ok={}), solo progress exhaustive to \
         depth {SOLO_DEPTH} (ok={})",
        safety_out.configs,
        safety_out.truncated,
        safety_out.holds(),
        solo_cex.is_none()
    );

    // Black anchor (1,2): the bivalence adversary starves two steppers.
    let mut sys = build();
    let report = run_bivalence_adversary(&mut sys, &[p0, p1], ADVERSARY_STEPS, VALENCE_BUDGET);
    let black_ok = report.adversary_won();
    let black_basis = format!(
        "bivalence adversary kept 2 steppers undecided for {} steps \
         (bivalent throughout: {})",
        report.steps, report.bivalent_throughout
    );

    let points = LkFreedom::grid(n)
        .into_iter()
        .map(|lk| {
            let verdict = if lk.l() == 1 && lk.k() == 1 {
                if white_ok {
                    Verdict::Implementable {
                        basis: white_basis.clone(),
                    }
                } else {
                    Verdict::Excluded {
                        basis: "white-anchor experiment FAILED".to_owned(),
                    }
                }
            } else if black_ok {
                Verdict::Excluded {
                    basis: format!("{lk} is stronger than (1,2)-freedom; {black_basis}"),
                }
            } else {
                Verdict::Implementable {
                    basis: "black-anchor experiment FAILED".to_owned(),
                }
            };
            GridPoint { lk, verdict }
        })
        .collect();

    Grid {
        safety: "consensus agreement and validity (register implementations)".to_owned(),
        n,
        points,
    }
}

/// **Figure 1(b)**: transactional memory with opacity. White iff `l = 1`
/// (Theorem 5.3: strongest implementable (1,n), weakest excluded (2,2)).
///
/// - *(1,n) white*: `GlobalVersionTm` commits under full contention
///   (lock-freedom: a failed CAS certifies someone else's commit), and its
///   runs certify opaque;
/// - *(2,2) black*: the Section 4.1 starvation strategy drives any
///   single-winner TM into a two-stepper run with one process starving;
///   against our TMs the run is periodic, which the test suite converts
///   into a lasso proof. Every l ≥ 2 point inherits the exclusion.
pub fn tm_grid(n: usize) -> Grid {
    // White anchor: lock-freedom of GlobalVersionTm under full contention.
    let mut sys = GlobalVersionTm::system(n.max(2), 1);
    let workload =
        slx_memory::RepeatTxn::new(n.max(2), vec![VarId::new(0)], vec![VarId::new(0)], None);
    let mut sched = slx_memory::WorkloadScheduler::new(
        n.max(2),
        workload,
        slx_memory::FairRandom::new(TM_WHITE_SEED),
    );
    sys.run(&mut sched, TM_EVENTS);
    let commits = sys
        .history()
        .iter()
        .filter(|a| a.as_respond().is_some_and(|r| r.is_commit()))
        .count();
    let opaque = slx_safety::certify_unique_writes(sys.history(), Value::new(0));
    let white_ok = commits > 0 && opaque;
    let white_basis = format!(
        "GlobalVersionTm under full {}-process contention (one FairRandom({TM_WHITE_SEED}) run \
         of {TM_EVENTS} events): {} commits, opacity certified: {}",
        n.max(2),
        commits,
        opaque
    );

    // Black anchor: §4.1 starvation strategy on two processes.
    let mut sys = GlobalVersionTm::system(2, 1);
    let mut adv = TmStarvation::new(ProcessId::new(0), ProcessId::new(1), VarId::new(0));
    sys.run(&mut adv, TM_EVENTS);
    let black_ok = !adv.lost() && adv.rounds() >= 2;
    let black_basis = format!(
        "§4.1 starvation strategy: victim aborted through {} committer rounds without committing",
        adv.rounds()
    );

    let points = LkFreedom::grid(n)
        .into_iter()
        .map(|lk| {
            let verdict = if lk.l() == 1 {
                if white_ok {
                    Verdict::Implementable {
                        basis: format!("{lk} is weaker than (1,{n})-freedom; {white_basis}"),
                    }
                } else {
                    Verdict::Excluded {
                        basis: "white-anchor experiment FAILED".to_owned(),
                    }
                }
            } else if black_ok {
                Verdict::Excluded {
                    basis: format!("{lk} is stronger than (2,2)-freedom; {black_basis}"),
                }
            } else {
                Verdict::Implementable {
                    basis: "black-anchor experiment FAILED".to_owned(),
                }
            };
            GridPoint { lk, verdict }
        })
        .collect();

    Grid {
        safety: "TM opacity".to_owned(),
        n,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1a_shape() {
        let g = consensus_grid(3);
        // Exactly one white point: (1,1).
        let white: Vec<&GridPoint> = g.points.iter().filter(|p| p.implementable()).collect();
        assert_eq!(white.len(), 1);
        assert_eq!(white[0].lk, LkFreedom::new(1, 1));
        // Frontiers match Theorem 5.2.
        let strongest: Vec<LkFreedom> = g.strongest_implementable().iter().map(|p| p.lk).collect();
        assert_eq!(strongest, vec![LkFreedom::new(1, 1)]);
        let weakest: Vec<LkFreedom> = g.weakest_excluded().iter().map(|p| p.lk).collect();
        assert_eq!(weakest, vec![LkFreedom::new(1, 2)]);
    }

    #[test]
    fn figure_1b_shape() {
        let n = 4;
        let g = tm_grid(n);
        for p in &g.points {
            assert_eq!(
                p.implementable(),
                p.lk.l() == 1,
                "wrong verdict at {}",
                p.lk
            );
        }
        // Frontiers match Theorem 5.3: strongest implementable (1,n),
        // weakest excluded (2,2) — and they are incomparable.
        let strongest: Vec<LkFreedom> = g.strongest_implementable().iter().map(|p| p.lk).collect();
        assert_eq!(strongest, vec![LkFreedom::new(1, n)]);
        let weakest: Vec<LkFreedom> = g.weakest_excluded().iter().map(|p| p.lk).collect();
        assert_eq!(weakest, vec![LkFreedom::new(2, 2)]);
        assert_eq!(
            strongest[0].partial_cmp_strength(&weakest[0]),
            None,
            "the paper notes these two are incomparable"
        );
    }

    #[test]
    fn grid_display_renders() {
        let g = tm_grid(3);
        let s = g.to_string();
        assert!(s.contains("○"));
        assert!(s.contains("●"));
        assert!(s.contains("l=1"));
    }
}
