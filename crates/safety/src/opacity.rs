//! Opacity of transactional memory (Guerraoui & Kapalka), as defined in
//! Section 4.1 of the paper.

use std::collections::BTreeMap;

use slx_history::{History, Transaction, TransactionStatus, TxnEvent, TxnView, Value, VarId};

use crate::property::SafetyProperty;
use crate::serializability::{replay, serialization_exists};

/// Final-state opacity: there exist a completion `comp(h)` and a sequential
/// history `s` equivalent to it, preserving real-time order and respecting
/// the TM sequential specification (committed transactions apply their
/// writes; every transaction — even aborted — reads a consistent state).
///
/// [`Opacity`] additionally quantifies over every finite prefix, which is
/// the paper's exact definition; final-state opacity is exposed separately
/// because it is the per-prefix building block and is cheaper when the
/// caller already iterates prefixes (as the explorer does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalStateOpacity {
    init: Value,
}

impl FinalStateOpacity {
    /// Checker with all transactional variables initially `init`.
    pub fn new(init: Value) -> Self {
        FinalStateOpacity { init }
    }

    /// Whether `h` is final-state opaque.
    pub fn is_opaque(&self, h: &History) -> bool {
        let view = TxnView::parse(h);
        let txns = view.transactions();
        // Completion choices: a transaction whose tryC() is pending may
        // complete with C or A; every other live transaction aborts.
        let commit_pending: Vec<usize> = txns
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.status() == TransactionStatus::Live
                    && matches!(t.events.last(), Some(TxnEvent::TryCommit { resp: None }))
            })
            .map(|(i, _)| i)
            .collect();
        for choice in 0u64..(1 << commit_pending.len()) {
            let committed: Vec<bool> = txns
                .iter()
                .enumerate()
                .map(|(i, t)| match t.status() {
                    TransactionStatus::Committed => true,
                    TransactionStatus::Aborted => false,
                    TransactionStatus::Live => commit_pending
                        .iter()
                        .position(|&ci| ci == i)
                        .is_some_and(|bit| choice & (1 << bit) != 0),
                })
                .collect();
            if self.serializable(&view, &committed) {
                return true;
            }
        }
        false
    }

    /// Searches for a legal serialization of all transactions respecting
    /// real-time precedence, given the chosen completion.
    fn serializable(&self, view: &TxnView, committed: &[bool]) -> bool {
        let placed: Vec<_> = view
            .transactions()
            .iter()
            .zip(committed.iter().copied())
            .collect();
        serialization_exists(view, &placed, self.init)
    }
}

impl SafetyProperty for FinalStateOpacity {
    fn name(&self) -> &str {
        "final-state opacity"
    }

    fn allows(&self, h: &History) -> bool {
        self.is_opaque(h)
    }
}

/// Opacity exactly as the paper defines it: **every finite prefix** of the
/// history is final-state opaque.
///
/// Prefix quantification matters: final-state opacity alone is not
/// prefix-closed (a later commit can retroactively justify an earlier
/// read), while [`Opacity`] is prefix-closed by construction and therefore
/// a genuine safety property under Definition 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opacity {
    final_state: FinalStateOpacity,
}

impl Opacity {
    /// Checker with all transactional variables initially `init`.
    pub fn new(init: Value) -> Self {
        Opacity {
            final_state: FinalStateOpacity::new(init),
        }
    }
}

impl SafetyProperty for Opacity {
    fn name(&self) -> &str {
        "opacity"
    }

    fn allows(&self, h: &History) -> bool {
        // Only prefixes ending in a response can newly fail final-state
        // opacity (invocations and crashes add no constraints), so checking
        // those plus the full history is equivalent and ~2x cheaper.
        for k in 1..=h.len() {
            let last_is_response =
                matches!(h.actions()[k - 1], slx_history::Action::Respond { .. });
            if (last_is_response || k == h.len()) && !self.final_state.is_opaque(&h.prefix(k)) {
                return false;
            }
        }
        true
    }
}

/// Polynomial opacity certifier for *unique-write* histories whose commit
/// order equals commit-response order.
///
/// Assumptions (all guaranteed by the TMs and workloads in this workspace):
/// every value written anywhere in the history is distinct from the initial
/// value and from every other written value, and committed transactions
/// take effect in the order of their commit responses (true for the
/// single-CAS TMs, where the winning CAS and the `C` response are the same
/// atomic step).
///
/// Returns `true` only if the history is final-state opaque for every
/// prefix (the certifier validates each transaction at an explicit
/// serialization point, which yields a witness for every prefix as well).
/// A `false` result is *inconclusive* — fall back to [`Opacity`]. Tests
/// cross-validate the two on explorer-generated histories.
pub fn certify_unique_writes(h: &History, init: Value) -> bool {
    let view = TxnView::parse(h);
    let txns = view.transactions();
    // Committed transactions in commit-response order.
    let mut committed: Vec<&Transaction> = txns
        .iter()
        .filter(|t| t.status() == TransactionStatus::Committed)
        .collect();
    committed.sort_by_key(|t| t.end_index.unwrap_or(usize::MAX));

    // states[k] = variable state after the first k committed transactions.
    let mut states: Vec<BTreeMap<VarId, Value>> = Vec::with_capacity(committed.len() + 1);
    states.push(BTreeMap::new());
    for t in &committed {
        let mut next = states.last().expect("non-empty").clone();
        next.extend(t.write_set());
        states.push(next);
    }

    // Each transaction must be consistent at some position k that respects
    // real time against the committed order.
    for t in txns {
        // Position bounds from real-time precedence against committed txns.
        let mut lo = 0usize;
        let mut hi = committed.len();
        for (k, c) in committed.iter().enumerate() {
            if c.id == t.id {
                // A committed transaction sits exactly at its own slot.
                lo = lo.max(k);
                hi = hi.min(k);
                continue;
            }
            if view.precedes(c, t) {
                lo = lo.max(k + 1);
            }
            if view.precedes(t, c) {
                hi = hi.min(k);
            }
        }
        if lo > hi {
            return false;
        }
        let fits = (lo..=hi).any(|k| replay(t, &states[k], init).is_some());
        if !fits {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{Action, Operation, ProcessId, Response};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }
    fn x(i: usize) -> VarId {
        VarId::new(i)
    }

    fn seq_commit(proc: usize, var: usize, write: i64, read_expect: i64) -> Vec<Action> {
        vec![
            Action::invoke(p(proc), Operation::TxStart),
            Action::respond(p(proc), Response::Ok),
            Action::invoke(p(proc), Operation::TxRead(x(var))),
            Action::respond(p(proc), Response::ValueReturned(v(read_expect))),
            Action::invoke(p(proc), Operation::TxWrite(x(var), v(write))),
            Action::respond(p(proc), Response::Ok),
            Action::invoke(p(proc), Operation::TxCommit),
            Action::respond(p(proc), Response::Committed),
        ]
    }

    #[test]
    fn sequential_committed_chain_is_opaque() {
        let mut acts = seq_commit(0, 0, 10, 0);
        acts.extend(seq_commit(1, 0, 20, 10));
        let h = History::from_actions(acts);
        assert!(FinalStateOpacity::new(v(0)).is_opaque(&h));
        assert!(Opacity::new(v(0)).allows(&h));
        assert!(certify_unique_writes(&h, v(0)));
    }

    #[test]
    fn stale_read_breaks_opacity() {
        // Second transaction reads 0 even though the first committed 10.
        let mut acts = seq_commit(0, 0, 10, 0);
        acts.extend(seq_commit(1, 0, 20, 0));
        let h = History::from_actions(acts);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h));
        assert!(!Opacity::new(v(0)).allows(&h));
        assert!(!certify_unique_writes(&h, v(0)));
    }

    #[test]
    fn aborted_transaction_must_also_read_consistently() {
        // T1 commits x1=10. A later aborted transaction reads x1=99:
        // inconsistent with every serialization point.
        let mut acts = seq_commit(0, 0, 10, 0);
        acts.extend([
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(99))),
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Aborted),
        ]);
        let h = History::from_actions(acts);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h));
    }

    #[test]
    fn aborted_writes_are_invisible() {
        // T1 writes 50 and aborts; T2 must read 0, not 50.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(50))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Aborted),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(0))),
        ]);
        assert!(FinalStateOpacity::new(v(0)).is_opaque(&h));
        // Seeing the aborted write would not be opaque.
        let h_bad = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(50))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Aborted),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(50))),
        ]);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h_bad));
    }

    #[test]
    fn concurrent_transactions_serialize_either_way() {
        // Two overlapping transactions on different variables both commit.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(1))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::TxWrite(x(1), v(2))),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Committed),
        ]);
        assert!(Opacity::new(v(0)).allows(&h));
        assert!(certify_unique_writes(&h, v(0)));
    }

    #[test]
    fn write_skew_style_cycle_rejected() {
        // T1 reads x2=0 writes x1=1; T2 reads x1=0 writes x2=2; both commit
        // while fully overlapping: no serialization order satisfies both
        // reads followed by the other's write... actually each can be
        // serialized before the other's write lands on a different var —
        // this *is* serializable (classic write skew). Use same variable
        // for a genuine cycle: T1 reads x1=0 writes x1=1 committed; T2
        // reads x1=0 writes x1=2 committed; overlapping. One of them must
        // see the other's write: not opaque.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(0), Operation::TxRead(x(0))),
            Action::respond(p(0), Response::ValueReturned(v(0))),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(0))),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(1))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::TxWrite(x(0), v(2))),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Committed),
        ]);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h));
        assert!(!certify_unique_writes(&h, v(0)));
    }

    #[test]
    fn certifier_is_inconclusive_when_commit_order_differs_from_response_order() {
        // T1's tryC stays pending while T2 reads T1's write and commits;
        // then T1 commits. T1 takes effect first, but its C response comes
        // second: the certifier places T2 first and gives up, while
        // `Opacity` finds the order.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(10))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(10))),
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Committed),
            Action::respond(p(0), Response::Committed),
        ]);
        assert!(!certify_unique_writes(&h, v(0)));
        assert!(Opacity::new(v(0)).allows(&h));
    }

    #[test]
    fn pending_commit_may_complete_either_way() {
        // T1's tryC is pending; T2 reads T1's write. Opaque iff T1 is
        // completed as committed — the checker must find that completion.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(7))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(7))),
        ]);
        assert!(FinalStateOpacity::new(v(0)).is_opaque(&h));
    }

    #[test]
    fn live_transaction_without_tryc_must_abort_in_completion() {
        // T1 wrote 7 but never invoked tryC; T2 reading 7 is NOT opaque
        // because the completion must abort T1.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(7))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(7))),
        ]);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h));
    }

    #[test]
    fn real_time_order_respected() {
        // T1 commits x1=10 strictly before T2 starts, yet T2 reads 0:
        // T2 cannot serialize before T1.
        let mut acts = seq_commit(0, 0, 10, 0);
        acts.extend([
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(0))),
        ]);
        let h = History::from_actions(acts);
        assert!(!FinalStateOpacity::new(v(0)).is_opaque(&h));
    }

    #[test]
    fn empty_and_invocation_only_histories_are_opaque() {
        assert!(Opacity::new(v(0)).allows(&History::new()));
        let h = History::from_actions([Action::invoke(p(0), Operation::TxStart)]);
        assert!(Opacity::new(v(0)).allows(&h));
    }

    #[test]
    fn opacity_prefix_monotone_on_samples() {
        let mut acts = seq_commit(0, 0, 10, 0);
        acts.extend(seq_commit(1, 1, 20, 0));
        let h = History::from_actions(acts);
        assert!(Opacity::new(v(0)).prefix_monotone_on(&h));
    }

    #[test]
    fn certifier_agrees_with_exhaustive_on_samples() {
        let samples: Vec<History> = vec![History::from_actions(seq_commit(0, 0, 10, 0)), {
            let mut a = seq_commit(0, 0, 10, 0);
            a.extend(seq_commit(1, 0, 20, 10));
            History::from_actions(a)
        }];
        for h in &samples {
            if certify_unique_writes(h, v(0)) {
                assert!(Opacity::new(v(0)).allows(h), "certifier unsound on {h}");
            }
        }
    }
}
