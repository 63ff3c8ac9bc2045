//! Theorem 4.4's corollaries, and Lemma 4.8 and Theorem 4.9's
//! constructions, each as its ledger row.

use std::hash::Hash;

use slx_adversary::{consensus_f1, consensus_f2, gmax_of};
use slx_automata::{single_response_ib, strongest_ensured, trivial_it, BoundedLiveness};
use slx_history::{Action, History, HistorySet, Operation, ProcessId, Response, Value};
use slx_memory::{Process, System};
use slx_safety::{ConsensusSafety, SafetyProperty};
use slx_tm::normalize::{normalized_agp_among, normalized_global_version};
use slx_tm::{AgpTm, GlobalVersionTm, TmWord};

use crate::claims::{joined, Claim};
use crate::grid::starvation_lasso;

/// Theorem 4.4's corollary row: both adversary sets non-empty and
/// disjoint, so `Gmax = ∅` and no weakest liveness property excludes the
/// safety property.
fn gmax(id: &'static str, f1: HistorySet, f2: HistorySet) -> Claim {
    let gmax = gmax_of(&[f1.clone(), f2.clone()]);
    let sizes = |set: &HistorySet| {
        let lens = joined(set.iter().map(|h| h.actions().len()), ", ");
        format!("{} histories of {lens} actions", set.len())
    };
    Claim {
        id,
        holds: !f1.is_empty() && !f2.is_empty() && gmax.is_empty(),
        evidence: vec![
            format!("F1: {}", sizes(&f1)),
            format!("F2: {}", sizes(&f2)),
            format!("F1 ∩ F2: {} histories", gmax.len()),
        ],
    }
}

/// **Corollary 4.5**: the paper's explicit consensus adversary sets `F1`
/// and `F2` (two processes propose different values, one never decides;
/// p1-first vs p2-first) are disjoint, so `Gmax = ∅` and no weakest
/// liveness property excludes consensus agreement-and-validity for
/// register implementations.
pub fn corollary_4_5() -> Claim {
    let (v1, v2) = (Value::new(1), Value::new(2));
    gmax("Corollary 4.5", consensus_f1(v1, v2), consensus_f2(v1, v2))
}

/// **Corollary 4.6**: the TM adversary sets, sampled by the Section 4.1
/// strategy's lasso searches (`p1` the victim for `F1`, `p2` for its twin
/// `F2`) against every TM in this workspace that ensures opacity. Every
/// `F1` history begins with `start()` by `p1` and every `F2` history with
/// `start()` by `p2`, so the sets are disjoint and `Gmax = ∅`.
pub fn corollary_4_6() -> Claim {
    gmax(
        "Corollary 4.6",
        tm_adversary_set(0, 1),
        tm_adversary_set(1, 0),
    )
}

/// One history per TM in this workspace that ensures opacity: its §4.1
/// lasso search with the roles given, carried one cycle past the lasso's
/// close, `stem · cycle²`. A search that closes no lasso empties the set.
fn tm_adversary_set(victim: usize, committer: usize) -> HistorySet {
    let roles = (ProcessId::new(victim), ProcessId::new(committer));
    // With 2 processes AgpTm's timestamp rule is inert, so the same
    // strategy starves the victim.
    let histories = [
        starvation_history(
            GlobalVersionTm::system(2, 1),
            roles,
            normalized_global_version,
        ),
        starvation_history(AgpTm::system(2, 1), roles, normalized_agp_among),
    ];
    let histories: Option<Vec<_>> = histories.into_iter().collect();
    HistorySet::from_histories(histories.unwrap_or_default())
}

/// The history of the §4.1 strategy's lasso search on `sys`
/// ([`starvation_lasso`], with the roles given and the configuration
/// `normalize`d over them), run one cycle past the close; `None` if no
/// lasso closed.
fn starvation_history<P: Process<TmWord>, N: Hash + Eq>(
    mut sys: System<TmWord, P>,
    roles: (ProcessId, ProcessId),
    normalize: impl Fn(&System<TmWord, P>, &[ProcessId]) -> N,
) -> Option<History> {
    let (lasso, mut adv) = starvation_lasso(&mut sys, &[], roles, normalize);
    let cycle = lasso.witness()?.cycle.len();
    sys.run(&mut adv, cycle as u64);
    Some(sys.history().clone())
}

fn propose(v: i64) -> Operation {
    Operation::Propose(Value::new(v))
}

/// **Lemma 4.8** on `It` with one process, to depth 2: the strongest
/// property `It` ensures, `Lmax ∪ fair(A_It)`, is ensured, contains
/// `Lmax`, and adds the pending history, which `Lmax` lacks. At this bound
/// the lemma is definitional: no candidate property is searched.
pub fn lemma_4_8() -> Claim {
    let (p1, depth) = (ProcessId::new(0), 2);
    let it = trivial_it(1, &[propose(1)], &[Response::Decided(Value::new(1))]);
    let universe = it.histories(depth);
    let settled = |h: &&Vec<Action>| {
        let h = History::from_actions(h.iter().copied());
        !h.pending(p1) && !h.crashed(p1)
    };
    let lmax = BoundedLiveness::new(universe.iter().filter(settled).cloned());
    let strongest = strongest_ensured(&it, &lmax, depth);
    let ensured = strongest.ensured_by(&it, depth);
    let contains = lmax.is_stronger_or_equal(&strongest);
    let pending = [Action::invoke(p1, propose(1))];
    let adds = strongest.contains(&pending) && !lmax.contains(&pending);
    let (u, l, s) = (universe.len(), lmax.len(), strongest.len());
    Claim {
        id: "Lemma 4.8",
        holds: ensured && contains && adds,
        evidence: vec![
            format!(
                "It, 1 process, depth {depth}: universe {u}, |Lmax| {l}, |Lmax ∪ fair(A_It)| {s}"
            ),
            format!(
                "ensured by It: {ensured}; contains Lmax: {contains}; adds the pending history \
                 Lmax lacks: {adds}"
            ),
            "definitional at this bound: no candidate property searched".to_owned(),
        ],
    }
}

/// **Theorem 4.9**'s safety automata for two-process consensus: `It`
/// never responds, so every history is consensus-safe and a history with
/// both processes pending is fair; `Ib` responds once, `decided(1)` to
/// `p1`'s `propose(1)`, so a history that leaves that invocation pending
/// is not fair.
pub fn theorem_4_9() -> Claim {
    let (p1, p2) = (ProcessId::new(0), ProcessId::new(1));
    let (ops, decided) = ([propose(1), propose(2)], Response::Decided(Value::new(1)));
    let it = trivial_it(2, &ops, &[decided, Response::Decided(Value::new(2))]);
    let histories = it.histories(4);
    let safety = ConsensusSafety::new();
    let safe = |h: &Vec<Action>| safety.allows(&History::from_actions(h.iter().copied()));
    let safe = histories.iter().all(safe);
    let fair = it.fair_histories(4);
    let both = vec![
        Action::invoke(p1, propose(1)),
        Action::invoke(p2, propose(2)),
    ];
    let both_pending = fair.contains(&both);

    let ib_of = |p| single_response_ib(p, p1, propose(1), decided, &ops);
    let ib = ib_of(p1).compose(&ib_of(p2));
    let responses = |h: &Vec<Action>| h.iter().filter(|a| a.as_respond().is_some()).count();
    let responding: Vec<_> = ib
        .histories(5)
        .into_iter()
        .filter(|h| responses(h) > 0)
        .collect();
    let once = responding
        .iter()
        .all(|h| responses(h) == 1 && h.contains(&Action::respond(p1, decided)));
    let designated = vec![Action::invoke(p1, propose(1))];
    let pending_fair = ib.fair_histories(3).contains(&designated);
    Claim {
        id: "Theorem 4.9",
        holds: safe && both_pending && once && !pending_fair,
        evidence: vec![
            format!(
                "It: {} histories to depth 4, all consensus-safe: {safe}; {} fair, both pending \
                 among them: {both_pending}",
                histories.len(),
                fair.len()
            ),
            format!(
                "Ib: {} histories to depth 5 respond, each exactly once, decided(1) to p1: \
                 {once}; a pending designated invocation is fair: {pending_fair}",
                responding.len(),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::TransactionStatus;
    use slx_history::TxnView;

    /// In each generated `F1` history, the victim (p1) never commits while
    /// the committer does.
    #[test]
    fn the_victim_never_commits_in_f1() {
        let f1 = tm_adversary_set(0, 1);
        assert_eq!(f1.len(), 2);
        for h in f1.iter() {
            let view = TxnView::parse(h);
            assert!(view
                .of_process(ProcessId::new(0))
                .iter()
                .all(|t| t.status() != TransactionStatus::Committed));
            assert!(view
                .of_process(ProcessId::new(1))
                .iter()
                .any(|t| t.status() == TransactionStatus::Committed));
        }
    }

    #[test]
    fn f1_f2_first_actions_differ() {
        for h in tm_adversary_set(0, 1).iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(0));
        }
        for h in tm_adversary_set(1, 0).iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(1));
        }
    }
}
