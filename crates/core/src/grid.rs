//! Figure 1: classification of (l,k)-freedom points.

use std::collections::BTreeSet;
use std::fmt::{self, Debug};
use std::hash::Hash;

use slx_adversary::{BivalenceScheduler, TmStarvation};
use slx_automata::{extract, Automaton, Extraction, NotClosed, StateId, Step};
use slx_consensus::{round_shift_key, ObstructionFreeConsensus};
use slx_explorer::{run_until_cycle_keyed, Lasso, NoLasso};
use slx_history::{Action, Operation, ProcessId, Response, Value, VarId};
use slx_liveness::{LkFreedom, ProgressKind};
use slx_memory::{Decision, Process, RepeatTxn, RoundRobin, System, Word, WorkloadScheduler};
use slx_safety::{certify_unique_writes, ConsensusSafety, Opacity, SafetyProperty};
use slx_tm::normalize::{committed_shift, normalized_global_version};
use slx_tm::{GlobalVersionTm, LockTm, TmWord};

use crate::blocking::CRASH_PREFIX;

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

    /// How the verdict was established.
    pub fn basis(&self) -> &str {
        let (Verdict::Implementable { basis } | Verdict::Excluded { basis }) = &self.verdict;
        basis
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
    /// (excluded), blank where `l > k`; each `k` sits under its own
    /// column (for `n ≤ 9`, where every `k` is one digit).
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
        write!(f, "    k")?;
        for k in 1..=self.n {
            write!(f, " {k}")?;
        }
        Ok(())
    }
}

// A lasso search holds as many distinct keys as an extraction holds states.
const _: () = assert!(slx_explorer::MAX_KEYS == slx_automata::MAX_STATES);

/// **Figure 1(a)**: consensus from read/write registers. White iff
/// `(l,k) = (1,1)` (Theorem 5.2).
///
/// The two anchor verdicts are established experimentally:
///
/// - *(1,1) white*: `ObstructionFreeConsensus` passes
///   [`consensus_white_check`] under its round-shift key, on every
///   schedule with no bound: the key closes at 594 states;
/// - *(1,2) black*: on the pane's `n` processes, the others crashed
///   first, the valence-computing adversary drives the same
///   implementation into a lasso on which two processes step forever and
///   neither decides ([`bivalence_lasso`]) — and since the adversary is
///   implementation-agnostic (it model-checks whatever deterministic
///   register-based implementation it is given), the point is excluded,
///   not merely unwitnessed. Every (l,k) ≥ (1,2) inherits the exclusion
///   (a stronger property excludes whenever a weaker one does).
///
/// The one bound is the valence graph's [`slx_automata::MAX_STATES`]: at
/// about 65·n² states it closes, and the pane is right, at every n
/// measured up to 45 (n = 14: stem 14, cycle 62 events), not from 46 on.
pub fn consensus_grid(n: usize) -> Grid {
    // White anchor (1,1): safety and solo progress on the extracted graph.
    let (white_ok, white_basis) = consensus_white_check(
        &ObstructionFreeConsensus::proposers(&[1, 2], 64),
        round_shift_key,
    );
    let white_basis =
        format!("obstruction-free consensus from registers, 2 processes: {white_basis}");

    // Black anchor (1,2): the bivalence adversary starves two steppers
    // forever.
    let mut sys = ObstructionFreeConsensus::system(n.max(2), 64);
    let search = bivalence_lasso(&mut sys, &others_crashed(n), round_shift_key);
    let (black_ok, black_basis) = bivalence_basis(search);
    let white = (LkFreedom::new(1, 1), white_ok, white_basis.as_str());
    let black = (LkFreedom::new(1, 2), black_ok, black_basis.as_str());
    let points = classify(n, |lk| lk == white.0, white, black);

    Grid {
        safety: "consensus agreement and validity (register implementations)".to_owned(),
        n,
        points,
    }
}

/// Figure 1(a)'s black-anchor verdict and basis from its search. A failed
/// basis says how the search ended: no valence graph, or the adversary
/// halted with no bivalent step to take.
fn bivalence_basis(search: Result<Lasso, NotClosed>) -> (bool, String) {
    let lasso = match search {
        Ok(lasso) => lasso,
        Err(NotClosed { states }) => {
            let why = format!("the valence graph has no fixpoint within {states} states");
            return (false, format!("(1,2)-freedom not judged: {why}"));
        }
    };
    let (ok, basis) = black_anchor(
        LkFreedom::new(1, 2),
        &lasso,
        "the bivalence adversary against the same consensus",
        "p1 and p2 step forever and neither decides; every other process crashes first",
    );
    let why = match lasso.outcome() {
        Err(NoLasso::Halted { .. }) => ": no step keeps the configuration bivalent",
        _ => "",
    };
    (ok, basis + why)
}

/// A black anchor's verdict and basis: `anchor` must be violated on the
/// lasso `search` closed, on which `claim` holds.
fn black_anchor(anchor: LkFreedom, lasso: &Lasso, search: &str, claim: &str) -> (bool, String) {
    match lasso.verdict(&anchor) {
        Some(false) => (
            true,
            format!("{anchor} violated on a lasso of {search} ({lasso}): {claim}"),
        ),
        _ => (
            false,
            format!("{anchor} not violated by {search} ({lasso})"),
        ),
    }
}

/// Figure 1(a)'s white check, which Section 6's implementable members
/// share, on the two-process consensus `sys` with both proposals issued:
/// the automaton [`extract`]ed from every schedule of the two processes,
/// with states the distinct `key`s joined with the history's responses,
/// must
///
/// - keep agreement and validity on every response edge. The proposals
///   are fixed by `sys` and the decisions are in the key, so the verdict
///   at an edge's target is its representative's;
/// - have no cycle of `p`'s own steps on which `p` stays pending, for
///   each `p`: running alone from anywhere, `p` responds;
/// - have no state at which `p` is pending with no step to take.
///
/// Returns whether all three hold, and the basis: the graph's size, then
/// each half that failed and for which process.
pub fn consensus_white_check<W, P, K>(
    sys: &System<W, P>,
    key: impl Fn(&System<W, P>) -> K,
) -> (bool, String)
where
    W: Word,
    P: Process<W> + Clone,
    K: Hash + Eq,
{
    let active = [ProcessId::new(0), ProcessId::new(1)];
    let graph = match extract(sys, &active, |s| (key(s), decisions(s))) {
        Ok(graph) => graph,
        Err(NotClosed { states }) => return (false, format!("no fixpoint within {states} states")),
    };
    let (automaton, states) = (&graph.automaton, &graph.states);
    let spec = ConsensusSafety::new();
    let unsafe_edges: Vec<_> = automaton
        .transitions()
        .filter(|&(_, step, to)| {
            matches!(step, Step::Responded(..)) && !spec.allows(states[to.0].history())
        })
        .collect();
    let mut basis = format!(
        "all schedules, unbounded: {} states, {} transitions",
        automaton.n_states(),
        automaton.transitions().count()
    );
    if let Some((from, step, to)) = unsafe_edges.first() {
        let count = unsafe_edges.len();
        basis += &format!(
            "; safety FAILED: {count} unsafe response edge(s), first {from}: {step} into {to}"
        );
    }
    let mut ok = unsafe_edges.is_empty();
    for p in active {
        let stuck = (0..states.len()).find(|&s| states[s].is_pending(p) && !states[s].can_step(p));
        if let Some(s) = stuck {
            basis += &format!("; solo progress FAILED: {p} is pending with no step at s{s}");
        } else if solo_cycle(automaton, states, p) {
            basis += &format!("; solo progress FAILED: {p} alone cycles without responding");
        } else {
            continue;
        }
        ok = false;
    }
    (ok, basis)
}

/// The responses in `sys`'s history — a consensus's decisions — which
/// [`consensus_white_check`] joins to every key it extracts under.
pub fn decisions<W: Word, P: Process<W>>(sys: &System<W, P>) -> BTreeSet<Response> {
    sys.history()
        .iter()
        .filter_map(Action::as_respond)
        .collect()
}

/// Whether `p`'s own steps between states at which `p` is pending contain
/// a cycle: Kahn's elimination of that subgraph leaves a state over.
fn solo_cycle<W: Word, P: Process<W>>(
    automaton: &Automaton<Step>,
    states: &[System<W, P>],
    p: ProcessId,
) -> bool {
    let mut succs = vec![Vec::new(); states.len()];
    let mut indegree = vec![0usize; states.len()];
    let pending = |s: StateId| states[s.0].is_pending(p);
    for (from, step, to) in automaton.transitions() {
        if step.proc() == p && pending(from) && pending(to) {
            succs[from.0].push(to.0);
            indegree[to.0] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..states.len()).filter(|&s| indegree[s] == 0).collect();
    let mut eliminated = 0;
    while let Some(s) = ready.pop() {
        eliminated += 1;
        for &t in &succs[s] {
            indegree[t] -= 1;
            if indegree[t] == 0 {
                ready.push(t);
            }
        }
    }
    eliminated < states.len()
}

/// Which states are bivalent: from each, states deciding two distinct
/// values are reachable. One backward search per decided value marks the
/// states that reach it.
fn bivalent_states<W: Word, P: Process<W>>(
    automaton: &Automaton<Step>,
    states: &[System<W, P>],
) -> Vec<bool> {
    let mut preds = vec![Vec::new(); states.len()];
    for (from, _, to) in automaton.transitions() {
        preds[to.0].push(from.0);
    }
    let decided: Vec<_> = states.iter().map(decisions).collect();
    let mut reached = vec![0; states.len()];
    for v in decided.iter().flatten().collect::<BTreeSet<_>>() {
        let mut seen = vec![false; states.len()];
        let mut todo: Vec<_> = (0..states.len())
            .filter(|&s| decided[s].contains(v))
            .collect();
        while let Some(s) = todo.pop() {
            if !std::mem::replace(&mut seen[s], true) {
                reached[s] += 1;
                todo.extend(&preds[s]);
            }
        }
    }
    reached.into_iter().map(|r| r >= 2).collect()
}

/// **Figure 1(b)**: transactional memory with opacity. White iff `l = 1`
/// (Theorem 5.3: strongest implementable (1,n), weakest excluded (2,2)).
///
/// - *(1,n) white*: on the pane's `n` processes, each looping a
///   read-write transaction round-robin, `GlobalVersionTm` closes a lasso
///   modulo the version shift on which someone commits every cycle
///   ([`workload_lasso`]; lock-freedom: a failed CAS certifies someone
///   else's commit), and its history is opaque (the unique-write
///   certifier, or [`Opacity`] where it is inconclusive). The control is
///   `LockTm` with its lock holder crashed mid-transaction: the same
///   driver closes a lasso on which nobody commits;
/// - *(2,2) black*: the Section 4.1 starvation strategy drives any
///   single-winner TM into a two-stepper run with one process starving;
///   against `GlobalVersionTm` on the pane's `n` processes, the others
///   crashed first, the run closes a lasso modulo the version shift
///   ([`starvation_lasso`]). Every l ≥ 2 point inherits the exclusion.
pub fn tm_grid(n: usize) -> Grid {
    // White anchor (1,n): every process loops a transaction, round-robin.
    let (procs, white) = (n.max(2), LkFreedom::new(1, n));
    let mut sys = GlobalVersionTm::system(procs, 1);
    let lasso = workload_lasso(&mut sys, &[], normalized_global_version);
    let (h, init) = (sys.history(), Value::new(0));
    let opaque = certify_unique_writes(h, init) || Opacity::new(init).allows(h);
    let mut lock = LockTm::system(procs, 1);
    let control = workload_lasso(&mut lock, &CRASH_PREFIX, exact_configuration);
    let holds = lasso.verdict(&white) == Some(true);
    let caught = control.verdict(&white) == Some(false);
    let white_ok = holds && opaque && caught;
    let white_basis = format!(
        "{white} {} on a lasso of every process looping a read-write transaction, round-robin, \
         against GlobalVersionTm ({lasso}), opacity certified: {opaque}; control, LockTm with its \
         lock holder crashed mid-transaction: {white} {} ({control})",
        if holds { "holds" } else { "does not hold" },
        if caught { "violated" } else { "not violated" },
    );

    // Black anchor (2,2): the §4.1 starvation strategy.
    let anchor = LkFreedom::new(2, 2);
    let mut sys = GlobalVersionTm::system(procs, 1);
    let (lasso, _) = starvation_lasso(
        &mut sys,
        &others_crashed(n),
        STARVATION_ROLES,
        normalized_global_version,
    );
    let (black_ok, black_basis) = black_anchor(
        anchor,
        &lasso,
        "the §4.1 starvation strategy against GlobalVersionTm",
        "the committer commits on every cycle, the victim never; every other process crashes \
         first",
    );
    let white = (white, white_ok, white_basis.as_str());
    let black = (anchor, black_ok, black_basis.as_str());
    let points = classify(n, |lk| lk.l() == 1, white, black);

    Grid {
        safety: "TM opacity".to_owned(),
        n,
        points,
    }
}

/// The head of a black anchor's stem: every process but the strategy's
/// `p1` and `p2` crashes. Idle, a correct process with nothing pending
/// would count as progressing, and the lasso would satisfy the anchor.
pub fn others_crashed(n: usize) -> Vec<Decision> {
    (2..n).map(|i| Decision::Crash(ProcessId::new(i))).collect()
}

/// Figure 1(a)'s black-anchor search: the Chor–Israeli–Li adversary
/// ([`BivalenceScheduler`], which issues the proposals 1 by `p1` and 2 by
/// `p2` itself) against the consensus `sys`, after `prefix`, until `key`
/// joined with the scheduler's normalized counts repeats. Section 6's
/// excluded members are judged on the same lasso.
///
/// The adversary reads valence off the graph [`extract`]ed over `p1` and
/// `p2` from `sys` after `prefix` and the proposals, under `key` joined
/// with the [`decisions`]: a state is bivalent when it reaches decisions
/// of two values. A configuration the graph lacks means `key` is no sound
/// quotient, and panics naming it. Valence only steers the adversary; the
/// verdict is judged exactly on the lasso, so a wrong valence can fail the
/// anchor but never make it black. A repeat is an infinite execution when
/// `key` is sound: the scheduler decides by its counters' order alone, and
/// it issues every proposal up front, so no later invocation re-enters a
/// round below `round_shift_key`'s window (given round headroom: running
/// out of rounds panics rather than mis-reports).
///
/// # Errors
///
/// [`NotClosed`] when the valence graph does not close.
pub fn bivalence_lasso<W, P, K>(
    sys: &mut System<W, P>,
    prefix: &[Decision],
    key: impl Fn(&System<W, P>) -> K,
) -> Result<Lasso, NotClosed>
where
    W: Word,
    P: Process<W> + Clone,
    K: Hash + Eq + Debug,
{
    let (p1, p2) = (ProcessId::new(0), ProcessId::new(1));
    let proposals = vec![(p1, Value::new(1)), (p2, Value::new(2))];
    let valence_key = |s: &System<W, P>| (key(s), decisions(s));
    let mut proposed = sys.clone();
    let invokes = proposals
        .iter()
        .map(|&(p, v)| Decision::Invoke(p, Operation::Propose(v)));
    for decision in prefix.iter().cloned().chain(invokes) {
        proposed
            .apply(decision, &mut Vec::new())
            .expect("the prefix and proposals apply");
    }
    let Extraction {
        automaton,
        states,
        ids,
    } = extract(&proposed, &[p1, p2], valence_key)?;
    let bivalent = bivalent_states(&automaton, &states);
    drop((automaton, states));
    let mut sched = BivalenceScheduler::new(proposals, |s: &System<W, P>| {
        let k = valence_key(s);
        let id = ids
            .get(&k)
            .unwrap_or_else(|| panic!("the valence graph lacks the unsound key {k:?}"));
        bivalent[id.0]
    });
    let lasso_key =
        |s: &System<W, P>, sched: &BivalenceScheduler<_>| (key(s), sched.normalized_counts());
    let outcome = run_until_cycle_keyed(sys, prefix, &mut sched, lasso_key);
    Ok(Lasso::new(outcome, ProgressKind::AnyResponse))
}

/// Figure 1(b)'s §4.1 roles: victim `p1`, committer `p2`.
pub const STARVATION_ROLES: (ProcessId, ProcessId) = (ProcessId::new(0), ProcessId::new(1));

/// The §4.1 lasso search: the strategy ([`TmStarvation`] on `x1`, roles
/// `(victim, committer)`) against the TM `sys`, after `prefix`, until the
/// key repeats, and the strategy as it was left. The key is the
/// configuration `normalize`d over the two roles, the only processes the
/// strategy invokes, and its state rebased by the same value shift
/// ([`committed_shift`]). Figure 1(b)'s black anchor, §5.3's leg 2 and
/// Corollary 4.6 run it.
pub fn starvation_lasso<P, N: Hash + Eq>(
    sys: &mut System<TmWord, P>,
    prefix: &[Decision],
    (victim, committer): (ProcessId, ProcessId),
    normalize: impl Fn(&System<TmWord, P>, &[ProcessId]) -> N,
) -> (Lasso, TmStarvation)
where
    P: Process<TmWord>,
{
    let mut adv = TmStarvation::new(victim, committer, VarId::new(0));
    let key = |sys: &System<TmWord, P>, adv: &TmStarvation| {
        let dval = committed_shift(sys).dval;
        (
            normalize(sys, &[victim, committer]),
            adv.normalized_state(dval),
        )
    };
    let outcome = run_until_cycle_keyed(sys, prefix, &mut adv, key);
    (Lasso::new(outcome, ProgressKind::CommitOnly), adv)
}

/// The fair-workload lasso search: after `prefix`, every correct process
/// of the TM `sys` loops `start(); read(x1); write(x1, v); tryC()`,
/// retrying after each abort, stepped round-robin ([`RepeatTxn`] under
/// [`RoundRobin`]), until the key repeats. Figure 1(b)'s white anchor and
/// its control, §5.3's leg 3 and the blocking contrast run it; the lasso
/// is judged on commits.
///
/// The key is the configuration `normalize`d over the correct processes,
/// each one's workload state with its next write value rebased by the same
/// value shift ([`committed_shift`]), and the round-robin cursor. The
/// workload scheduler's other bookkeeping stays out: it only carries a
/// process's last response until that process's next invocation and counts
/// the responses it has read, and with unbounded commits an abort and a
/// commit advance the workload alike.
pub fn workload_lasso<P, N: Hash + Eq>(
    sys: &mut System<TmWord, P>,
    prefix: &[Decision],
    normalize: impl Fn(&System<TmWord, P>, &[ProcessId]) -> N,
) -> Lasso
where
    P: Process<TmWord>,
{
    let (n, x) = (sys.n(), vec![VarId::new(0)]);
    let workload = RepeatTxn::new(n, x.clone(), x, None);
    let mut sched = WorkloadScheduler::new(n, workload, RoundRobin::new());
    let key = |sys: &System<TmWord, P>, sched: &WorkloadScheduler<RepeatTxn, RoundRobin>| {
        let dval = committed_shift(sys).dval;
        let correct: Vec<_> = ProcessId::all(n).filter(|&p| !sys.is_crashed(p)).collect();
        let states = correct
            .iter()
            .map(|&p| sched.workload().normalized_state(p, dval));
        (
            normalize(sys, &correct),
            states.collect::<Vec<_>>(),
            sched.inner().clone(),
        )
    };
    let outcome = run_until_cycle_keyed(sys, prefix, &mut sched, key);
    Lasso::new(outcome, ProgressKind::CommitOnly)
}

/// The configuration, history dropped: [`workload_lasso`]'s normalizer for
/// a TM in which nothing climbs (`LockTm` once its lock holder crashed).
pub fn exact_configuration<P: Process<TmWord> + Clone>(
    sys: &System<TmWord, P>,
    _: &[ProcessId],
) -> System<TmWord, P> {
    sys.transformed(Clone::clone, Clone::clone)
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
                format!("{colour}-anchor experiment FAILED: {basis}")
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
    use slx_automata::MAX_STATES;
    use slx_consensus::{CasConsensus, ConsWord};
    use slx_engine::Checker;
    use slx_explorer::decidable_values_with;
    use slx_memory::{Event, Memory, StepEffect};

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

    /// Figure 1(a)'s black anchor on three processes: with p3 idle it is
    /// correct with nothing pending, so it counts as progressing and the
    /// lasso satisfies (1,2)-freedom; with p3 crashed in the stem the
    /// lasso violates it.
    #[test]
    fn bivalence_lasso_excludes_12_freedom_only_with_the_idle_process_crashed() {
        let (one_two, one_one) = (LkFreedom::new(1, 2), LkFreedom::new(1, 1));
        let mut sys = ObstructionFreeConsensus::system(3, 64);
        let idle = bivalence_lasso(&mut sys, &[], round_shift_key).unwrap();
        assert_eq!(idle.verdict(&one_two), Some(true));
        let mut sys = ObstructionFreeConsensus::system(3, 64);
        let crashed = bivalence_lasso(&mut sys, &others_crashed(3), round_shift_key).unwrap();
        assert_eq!(crashed.verdict(&one_two), Some(false));
        assert_eq!(crashed.verdict(&one_one), Some(true));
        assert!(ConsensusSafety::new().allows(sys.history()));
        let (idle, crashed) = (idle.witness().unwrap(), crashed.witness().unwrap());
        assert_eq!(crashed.n, 3);
        assert_eq!(crashed.stem[0], Event::Crashed(ProcessId::new(2)));
        assert_eq!(crashed.cycle, idle.cycle);
    }

    /// Figure 1(b)'s black anchor on three processes, likewise: (2,2)
    /// holds with p3 idle and fails with it crashed in the stem.
    #[test]
    fn starvation_lasso_excludes_22_freedom_only_with_the_idle_process_crashed() {
        let (two_two, one_two) = (LkFreedom::new(2, 2), LkFreedom::new(1, 2));
        let search = |prefix: &[Decision]| {
            let mut sys = GlobalVersionTm::system(3, 1);
            starvation_lasso(
                &mut sys,
                prefix,
                STARVATION_ROLES,
                normalized_global_version,
            )
            .0
        };
        let idle = search(&[]);
        assert_eq!(idle.verdict(&two_two), Some(true));
        let crashed = search(&others_crashed(3));
        assert_eq!(crashed.verdict(&two_two), Some(false));
        assert_eq!(crashed.verdict(&one_two), Some(true));
        let (idle, crashed) = (idle.witness().unwrap(), crashed.witness().unwrap());
        assert_eq!(crashed.stem[0], Event::Crashed(ProcessId::new(2)));
        assert_eq!(crashed.cycle, idle.cycle);
    }

    /// The black-anchor point of a two-process pane whose white anchor
    /// holds, from Figure 1(a)'s black-anchor search.
    fn black_point(search: Result<Lasso, NotClosed>) -> GridPoint {
        let (ok, basis) = bivalence_basis(search);
        let black = (LkFreedom::new(1, 2), ok, basis.as_str());
        let white = (LkFreedom::new(1, 1), true, "");
        classify(2, |lk| lk.k() == 1, white, black).remove(1)
    }

    /// The (1,2) control at three processes, p3 crashed: against CAS
    /// consensus the scheduler halts once both proposals are issued,
    /// before any step, and the failed anchor turns (1,2) white naming
    /// why.
    #[test]
    fn bivalence_lasso_closes_on_no_cas_consensus() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj); 3]);
        let lasso = bivalence_lasso(&mut sys, &others_crashed(3), System::clone).unwrap();
        // The crash and the two proposals; every step would decide.
        assert_eq!(lasso.outcome().unwrap_err(), NoLasso::Halted { events: 3 });
        assert!(sys.is_pending(ProcessId::new(0)) && sys.is_pending(ProcessId::new(1)));
        assert_eq!(
            black_point(Ok(lasso)).verdict,
            Verdict::Implementable {
                basis: "black-anchor experiment FAILED: (1,2)-freedom not violated by the \
                        bivalence adversary against the same consensus (halted after 3 \
                        events): no step keeps the configuration bivalent"
                    .to_owned()
            }
        );
    }

    /// Counts its steps forever: no key that holds the count closes.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Counter(u64);

    impl<W: Word> Process<W> for Counter {
        fn on_invoke(&mut self, _op: Operation) {}

        fn has_step(&self) -> bool {
            true
        }

        fn step(&mut self, _mem: &mut Memory<W>) -> StepEffect {
            self.0 += 1;
            StepEffect::Ran
        }
    }

    /// A consensus whose valence graph never closes turns (1,2) white,
    /// not judged, before the adversary takes a step.
    #[test]
    fn a_valence_graph_that_never_closes_leaves_the_anchor_unjudged() {
        let mut sys: System<ConsWord, Counter> = System::new(Memory::new(), vec![Counter(0); 2]);
        let search = bivalence_lasso(&mut sys, &[], System::clone);
        assert_eq!(
            search.as_ref().err(),
            Some(&NotClosed { states: MAX_STATES })
        );
        assert!(
            !sys.is_pending(ProcessId::new(0)),
            "the search took no step"
        );
        let basis = format!(
            "black-anchor experiment FAILED: (1,2)-freedom not judged: the valence graph has no \
             fixpoint within {MAX_STATES} states"
        );
        assert_eq!(
            black_point(search).verdict,
            Verdict::Implementable { basis }
        );
    }

    /// The graph's valence is the kernel's: at every state of the
    /// two-process graph, and of the four-process one with p3 and p4
    /// crashed, at which an active process is pending, the lookup the
    /// adversary steers by equals an untruncated kernel query.
    #[test]
    fn graph_valence_is_the_kernels() {
        for (n, states, pending) in [(2, 594, 590), (4, 1_612, 1_608)] {
            let mut sys = ObstructionFreeConsensus::system(n, 64);
            for decision in others_crashed(n) {
                sys.apply(decision, &mut Vec::new()).unwrap();
            }
            let active = [ProcessId::new(0), ProcessId::new(1)];
            sys.invoke(active[0], Operation::Propose(Value::new(1)))
                .unwrap();
            sys.invoke(active[1], Operation::Propose(Value::new(2)))
                .unwrap();
            let graph = extract(&sys, &active, |s| (round_shift_key(s), decisions(s))).unwrap();
            assert_eq!(graph.states.len(), states);
            let bivalent = bivalent_states(&graph.automaton, &graph.states);
            let mut checked = 0;
            for (s, bivalent) in graph.states.iter().zip(bivalent) {
                if active.iter().any(|&p| s.is_pending(p)) {
                    let kernel = decidable_values_with(&Checker::auto(), s, &active, 40_000);
                    assert!(!kernel.truncated, "n = {n}: truncated at {s:?}");
                    assert_eq!(bivalent, kernel.bivalent(), "n = {n}: {s:?}");
                    checked += 1;
                }
            }
            assert_eq!(checked, pending, "n = {n}");
        }
    }

    #[test]
    fn grid_display_renders() {
        let anchor = |l, k| (LkFreedom::new(l, k), true, "");
        let points = classify(4, |lk| lk.l() == 1, anchor(1, 4), anchor(2, 2));
        let g = Grid {
            safety: "TM opacity".to_owned(),
            n: 4,
            points,
        };
        let s = g.to_string();
        let lines: Vec<Vec<char>> = s.lines().map(|l| l.chars().collect()).collect();
        let (l1, axis) = (&lines[4], &lines[5]);
        // Each glyph of the `l=1` row has its `k` right under it.
        let under = (0..l1.len()).filter(|&i| "○●".contains(l1[i]));
        assert_eq!(under.map(|i| axis[i]).collect::<String>(), "1234", "{s}");
    }
}
