//! Figure 1: classification of (l,k)-freedom points.

use std::fmt;

use slx_adversary::{
    normalized_of_consensus_key, normalized_starvation_key, BivalenceScheduler, TmStarvation,
};
use slx_consensus::ObstructionFreeConsensus;
use slx_explorer::{
    explore_safety, history_digest, run_until_cycle_keyed, verify_solo_progress, Lasso,
};
use slx_history::{ProcessId, Value, VarId};
use slx_liveness::{LkFreedom, ProgressKind};
use slx_memory::{Memory, System};
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
/// Events the bivalence adversary may take before its lasso must close.
const BIVALENCE_EVENTS: u64 = 60;
/// Configuration budget per valence query.
const VALENCE_BUDGET: usize = 40_000;
/// Events of the seeded contention run, and the TM starvation adversary's
/// budget before its lasso must close.
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
/// - *(1,2) black*: the valence-computing adversary drives the same
///   implementation into a lasso on which two processes step forever and
///   neither decides, and (1,2)-freedom is judged on that infinite
///   execution — and since the adversary is implementation-agnostic (it
///   model-checks whatever deterministic register-based implementation it
///   is given), the point is excluded, not merely unwitnessed. Every
///   (l,k) ≥ (1,2) inherits the exclusion (a stronger property excludes
///   whenever a weaker one does).
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

    // Black anchor (1,2): the bivalence adversary starves two steppers
    // forever.
    let anchor = LkFreedom::new(1, 2);
    let lasso = bivalence_lasso();
    let black_ok = lasso.verdict(&anchor) == Some(false);
    let black_basis = format!(
        "{anchor} violated on a lasso of the bivalence adversary against the same \
         consensus ({lasso}): both step forever, neither decides; {OTHERS_CRASHED}"
    );
    let white = (LkFreedom::new(1, 1), white_ok, white_basis.as_str());
    let black = (anchor, black_ok, black_basis.as_str());
    let points = classify(n, |lk| lk == white.0, white, black);

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
///   against `GlobalVersionTm` the run closes a lasso modulo the version
///   shift, and (2,2)-freedom is judged on that infinite execution. Every
///   l ≥ 2 point inherits the exclusion.
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

    // Black anchor (2,2): the §4.1 starvation strategy on two processes.
    let anchor = LkFreedom::new(2, 2);
    let mut sys = GlobalVersionTm::system(2, 1);
    let mut adv = TmStarvation::new(ProcessId::new(0), ProcessId::new(1), VarId::new(0));
    let witness = run_until_cycle_keyed(&mut sys, &mut adv, TM_EVENTS, normalized_starvation_key);
    let lasso = Lasso::new(witness, 2, ProgressKind::CommitOnly);
    let black_ok = lasso.verdict(&anchor) == Some(false);
    let black_basis = format!(
        "{anchor} violated on a lasso of the §4.1 starvation strategy against \
         GlobalVersionTm ({lasso}): the committer commits on every cycle, the victim never; \
         {OTHERS_CRASHED}"
    );
    let white = (LkFreedom::new(1, n), white_ok, white_basis.as_str());
    let black = (anchor, black_ok, black_basis.as_str());
    let points = classify(n, |lk| lk.l() == 1, white, black);

    Grid {
        safety: "TM opacity".to_owned(),
        n,
        points,
    }
}

/// How a black anchor's two-process lasso stands for a pane of `n > 2`
/// processes. An idle correct process has nothing pending, so it counts
/// as progressing, and an execution with the others idle satisfies the
/// anchor: the exclusion needs them crashed at the start, as Section
/// 5.3's leg 2 runs it (`counterexample`).
const OTHERS_CRASHED: &str =
    "for n > 2, the other processes crash at the start (idle, they would count as progressing)";

/// The Theorem 5.2 lasso: the Chor–Israeli–Li adversary
/// ([`BivalenceScheduler`], which issues the proposals 1 and 2 itself)
/// against obstruction-free register consensus on two processes, keyed
/// modulo a round shift. Figure 1(a)'s black anchor and Section 6's
/// excluded members are judged on it.
pub(crate) fn bivalence_lasso() -> Lasso {
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let mut mem = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
    let procs = [p0, p1].map(|p| ObstructionFreeConsensus::new(layout, p, 2));
    let mut sys = System::new(mem, procs.to_vec());
    let proposals = vec![(p0, Value::new(1)), (p1, Value::new(2))];
    let mut sched = BivalenceScheduler::new(proposals, VALENCE_BUDGET);
    let key = normalized_of_consensus_key;
    let witness = run_until_cycle_keyed(&mut sys, &mut sched, BIVALENCE_EVENTS, key);
    Lasso::new(witness, 2, ProgressKind::AnyResponse)
}

/// One anchor experiment: the point it classifies, whether it came out as
/// the paper says, and its evidence.
type Anchor<'a> = (LkFreedom, bool, &'a str);

/// Every point with `1 ≤ l ≤ k ≤ n`: white where `is_white`, black
/// elsewhere. Each point inherits its verdict from the anchor of its
/// colour — a weaker property is implementable whenever a stronger one
/// is, and a stronger one excludes whenever a weaker one does — and says
/// so in its basis; an anchor names its own evidence.
fn classify(
    n: usize,
    is_white: impl Fn(LkFreedom) -> bool,
    white: Anchor<'_>,
    black: Anchor<'_>,
) -> Vec<GridPoint> {
    LkFreedom::grid(n)
        .into_iter()
        .map(|lk| {
            let ((anchor, ok, basis), colour, relation) = if is_white(lk) {
                (white, "white", "weaker")
            } else {
                (black, "black", "stronger")
            };
            let basis = if !ok {
                format!("{colour}-anchor experiment FAILED")
            } else if lk == anchor {
                basis.to_owned()
            } else {
                format!("{lk} is {relation} than {anchor}; {basis}")
            };
            // A failed anchor flips its region, so the grid shows it.
            let verdict = if is_white(lk) == ok {
                Verdict::Implementable { basis }
            } else {
                Verdict::Excluded { basis }
            };
            GridPoint { lk, verdict }
        })
        .collect()
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
