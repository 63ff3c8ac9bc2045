//! Executable demonstrations of Theorem 4.4's corollaries.

use slx_adversary::{consensus_f1, consensus_f2, gmax_of, TmStarvation};
use slx_history::{History, HistorySet, ProcessId, Value, VarId};
use slx_tm::{AgpTm, GlobalVersionTm};

/// Outcome of a `Gmax = ∅` demonstration.
#[derive(Debug, Clone)]
pub struct GmaxDemo {
    /// The first adversary set (or a finite sample of it).
    pub f1: HistorySet,
    /// The role-swapped second set.
    pub f2: HistorySet,
    /// `F1 ∩ F2`.
    pub gmax: HistorySet,
    /// Names the corollary demonstrated.
    pub corollary: String,
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
    GmaxDemo {
        f1,
        f2,
        gmax,
        corollary: "Corollary 4.5 (no weakest liveness excluding consensus safety)".to_owned(),
    }
}

/// **Corollary 4.6**: finite samples of the TM adversary sets generated by
/// running the Section 4.1 starvation strategy (and its role-swapped twin)
/// against every TM implementation in this workspace that ensures opacity.
/// Every `F1` history begins with `start()` by `p1` and every `F2` history
/// with `start()` by `p2`, so the sets are disjoint and `Gmax = ∅`.
pub fn tm_gmax_demo(events_per_run: u64) -> GmaxDemo {
    let histories = |victim: usize, committer: usize| -> Vec<History> {
        let mut out = Vec::new();
        // Implementation 1: GlobalVersionTm.
        {
            let mut sys = GlobalVersionTm::system(2, 1);
            let mut adv = TmStarvation::new(
                ProcessId::new(victim),
                ProcessId::new(committer),
                VarId::new(0),
            );
            sys.run(&mut adv, events_per_run);
            out.push(sys.history().clone());
        }
        // Implementation 2: AgpTm (with 2 processes the timestamp rule is
        // inert, so the same strategy starves the victim).
        {
            let mut sys = AgpTm::system(2, 1);
            let mut adv = TmStarvation::new(
                ProcessId::new(victim),
                ProcessId::new(committer),
                VarId::new(0),
            );
            sys.run(&mut adv, events_per_run);
            out.push(sys.history().clone());
        }
        out
    };
    let f1 = HistorySet::from_histories(histories(0, 1));
    let f2 = HistorySet::from_histories(histories(1, 0));
    let gmax = gmax_of(&[f1.clone(), f2.clone()]);
    GmaxDemo {
        f1,
        f2,
        gmax,
        corollary: "Corollary 4.6 (no weakest liveness excluding opacity)".to_owned(),
    }
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
        let demo = tm_gmax_demo(600);
        assert!(demo.establishes_corollary());
        assert_eq!(demo.f1.len(), 2); // one history per implementation
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
        let demo = tm_gmax_demo(200);
        for h in demo.f1.iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(0));
        }
        for h in demo.f2.iter() {
            assert_eq!(h.actions()[0].proc(), ProcessId::new(1));
        }
    }
}
