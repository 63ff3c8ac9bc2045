//! Executable demonstrations of Theorem 4.4's corollaries.

use std::hash::Hash;

use slx_adversary::{consensus_f1, consensus_f2, gmax_of};
use slx_history::{History, HistorySet, ProcessId, Value};
use slx_memory::{Process, System};
use slx_tm::normalize::{normalized_agp_among, normalized_global_version};
use slx_tm::{AgpTm, GlobalVersionTm, TmWord};

use crate::grid::starvation_lasso;

/// Outcome of a `Gmax = ∅` demonstration.
#[derive(Debug, Clone)]
pub struct GmaxDemo {
    /// The first adversary set (or a finite sample of it).
    pub f1: HistorySet,
    /// The role-swapped second set.
    pub f2: HistorySet,
    /// `F1 ∩ F2`.
    pub gmax: HistorySet,
}

impl GmaxDemo {
    /// Whether the demonstration succeeded: both sets non-empty, their
    /// intersection empty — by Theorem 4.4 there is no weakest liveness
    /// property excluding the safety property.
    pub fn establishes_corollary(&self) -> bool {
        !self.f1.is_empty() && !self.f2.is_empty() && self.gmax.is_empty()
    }
}

/// **Corollary 4.5**: the paper's explicit consensus adversary sets `F1`
/// and `F2` (two processes propose different values, one never decides;
/// p1-first vs p2-first) are disjoint, so `Gmax = ∅` and no weakest
/// liveness property excludes consensus agreement-and-validity for
/// register implementations.
pub fn consensus_gmax_demo() -> GmaxDemo {
    let f1 = consensus_f1(Value::new(1), Value::new(2));
    let f2 = consensus_f2(Value::new(1), Value::new(2));
    let gmax = gmax_of(&[f1.clone(), f2.clone()]);
    GmaxDemo { f1, f2, gmax }
}

/// **Corollary 4.6**: the TM adversary sets, sampled by the Section 4.1
/// strategy's lasso searches (`p1` the victim for `F1`, `p2` for its twin
/// `F2`) against every TM in this workspace that ensures opacity: each
/// search contributes its history carried one cycle past the lasso's
/// close, `stem · cycle²`. Every `F1` history begins with `start()` by
/// `p1` and every `F2` history with `start()` by `p2`, so the sets are
/// disjoint and `Gmax = ∅`.
pub fn tm_gmax_demo() -> GmaxDemo {
    let histories = |victim: usize, committer: usize| {
        let roles = (ProcessId::new(victim), ProcessId::new(committer));
        // With 2 processes AgpTm's timestamp rule is inert, so the same
        // strategy starves the victim.
        [
            starvation_history(
                GlobalVersionTm::system(2, 1),
                roles,
                normalized_global_version,
            ),
            starvation_history(AgpTm::system(2, 1), roles, normalized_agp_among),
        ]
        // A search that closes no lasso empties the set: no corollary.
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .unwrap_or_default()
    };
    let f1 = HistorySet::from_histories(histories(0, 1));
    let f2 = HistorySet::from_histories(histories(1, 0));
    let gmax = gmax_of(&[f1.clone(), f2.clone()]);
    GmaxDemo { f1, f2, gmax }
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

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::TransactionStatus;
    use slx_history::TxnView;

    #[test]
    fn corollary_4_5_established() {
        let demo = consensus_gmax_demo();
        assert!(demo.establishes_corollary());
        assert_eq!(demo.f1.len(), 6);
        assert_eq!(demo.f2.len(), 6);
    }

    #[test]
    fn corollary_4_6_established() {
        let demo = tm_gmax_demo();
        assert!(demo.establishes_corollary());
        // One history per implementation: its lasso run one cycle past
        // the close (the two TMs' cycles differ in length).
        assert_eq!(demo.f1.len(), 2);
        let mut lens: Vec<usize> = demo.f1.iter().map(|h| h.actions().len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, [47, 49]);
        // Sanity: in each generated F1 history, the victim (p1) never
        // commits while the committer does.
        for h in demo.f1.iter() {
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
        let demo = tm_gmax_demo();
        for h in demo.f1.iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(0));
        }
        for h in demo.f2.iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(1));
        }
    }
}
