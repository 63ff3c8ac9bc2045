//! Strict serializability of transactional memory.

use std::collections::{BTreeMap, HashSet}; // det-lint: allow (membership-only memo; iteration order never observed)

use slx_history::{
    History, Response, Transaction, TransactionStatus, TxnEvent, TxnView, Value, VarId,
};

use crate::property::SafetyProperty;

/// Strict serializability (Papadimitriou): there is a real-time-preserving
/// serialization of the **committed** transactions that is legal for the
/// sequential TM specification. Unlike opacity, aborted and live
/// transactions are unconstrained — they may have observed inconsistent
/// states.
///
/// The paper cites strict serializability alongside opacity in Theorem
/// 5.3's source (\[4\]): the TM liveness impossibilities hold against either.
/// Having both lets the test suite confirm the strictness ordering
/// `opacity ⊆ strict serializability` on generated histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrictSerializability {
    init: Value,
}

impl StrictSerializability {
    /// Checker with all transactional variables initially `init`.
    pub fn new(init: Value) -> Self {
        StrictSerializability { init }
    }

    fn serializable(&self, h: &History) -> bool {
        let view = TxnView::parse(h);
        // Consider committed transactions plus commit-pending ones that may
        // be completed as committed (a pending tryC may have taken effect).
        // Every placed transaction applies its writes.
        let committed: Vec<(&Transaction, bool)> = view
            .transactions()
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .map(|t| (t, true))
            .collect();
        let pending_commit: Vec<&Transaction> = view
            .transactions()
            .iter()
            .filter(|t| {
                t.status() == TransactionStatus::Live
                    && matches!(t.events.last(), Some(TxnEvent::TryCommit { resp: None }))
            })
            .collect();
        for choice in 0u64..(1 << pending_commit.len()) {
            let mut chosen = committed.clone();
            for (bit, &t) in pending_commit.iter().enumerate() {
                if choice & (1 << bit) != 0 {
                    chosen.push((t, true));
                }
            }
            if serialization_exists(&view, &chosen, self.init) {
                return true;
            }
        }
        false
    }
}

/// Whether the transactions of `txns` can be placed one after another,
/// respecting real-time precedence among them, such that each one's
/// reads are legal where it is placed; a transaction paired with `true`
/// applies its writes there, one paired with `false` contributes none.
/// Memoised on (placed set, variable state).
pub(crate) fn serialization_exists(
    view: &TxnView,
    txns: &[(&Transaction, bool)],
    init: Value,
) -> bool {
    assert!(
        txns.len() <= 63,
        "the serialization search supports at most 63 transactions"
    );
    let mut memo = HashSet::new(); // det-lint: allow (membership-only memo; iteration order never observed)
    place(view, txns, init, 0, &BTreeMap::new(), &mut memo)
}

fn place(
    view: &TxnView,
    txns: &[(&Transaction, bool)],
    init: Value,
    placed: u64,
    state: &BTreeMap<VarId, Value>,
    memo: &mut HashSet<(u64, BTreeMap<VarId, Value>)>, // det-lint: allow (membership-only memo; iteration order never observed)
) -> bool {
    if placed == (1u64 << txns.len()) - 1 {
        return true;
    }
    if !memo.insert((placed, state.clone())) {
        return false;
    }
    for (i, &(t, applies)) in txns.iter().enumerate() {
        if placed & (1 << i) != 0 {
            continue;
        }
        // Real-time: every unplaced predecessor blocks `t`.
        let blocked = txns
            .iter()
            .enumerate()
            .any(|(j, (u, _))| j != i && placed & (1 << j) == 0 && view.precedes(u, t));
        if blocked {
            continue;
        }
        if let Some(writes) = replay(t, state, init) {
            let mut next = state.clone();
            if applies {
                next.extend(writes);
            }
            if place(view, txns, init, placed | (1 << i), &next, memo) {
                return true;
            }
        }
    }
    false
}

/// Replays one transaction against the committed state at its
/// serialization point. Returns its write set, or `None` if some read is
/// inconsistent.
pub(crate) fn replay(
    t: &Transaction,
    state: &BTreeMap<VarId, Value>,
    init: Value,
) -> Option<BTreeMap<VarId, Value>> {
    let mut local: BTreeMap<VarId, Value> = BTreeMap::new();
    for e in &t.events {
        match e {
            TxnEvent::Read {
                var,
                resp: Some(Response::ValueReturned(v)),
            } => {
                let visible = local
                    .get(var)
                    .or_else(|| state.get(var))
                    .copied()
                    .unwrap_or(init);
                if visible != *v {
                    return None;
                }
            }
            TxnEvent::Write { var, val, resp } => {
                if matches!(resp, Some(Response::Ok)) {
                    local.insert(*var, *val);
                }
            }
            _ => {}
        }
    }
    Some(local)
}

impl SafetyProperty for StrictSerializability {
    fn name(&self) -> &str {
        "strict serializability"
    }

    fn allows(&self, h: &History) -> bool {
        // Quantify over prefixes so the induced set is prefix-closed.
        for k in 1..=h.len() {
            let last_is_response =
                matches!(h.actions()[k - 1], slx_history::Action::Respond { .. });
            if (last_is_response || k == h.len()) && !self.serializable(&h.prefix(k)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opacity::Opacity;
    use slx_history::{Action, Operation, ProcessId};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }
    fn x(i: usize) -> VarId {
        VarId::new(i)
    }

    /// An aborted transaction sees an inconsistent state (reads 99 which
    /// nobody wrote): allowed by strict serializability, rejected by
    /// opacity.
    fn inconsistent_abort() -> History {
        History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxRead(x(0))),
            Action::respond(p(0), Response::ValueReturned(v(99))),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Aborted),
        ])
    }

    #[test]
    fn aborted_inconsistency_tolerated() {
        assert!(StrictSerializability::new(v(0)).allows(&inconsistent_abort()));
        assert!(!Opacity::new(v(0)).allows(&inconsistent_abort()));
    }

    #[test]
    fn committed_inconsistency_rejected() {
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxRead(x(0))),
            Action::respond(p(0), Response::ValueReturned(v(99))),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
        ]);
        assert!(!StrictSerializability::new(v(0)).allows(&h));
    }

    #[test]
    fn opacity_implies_strict_serializability_on_samples() {
        let opaque_history = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(1))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(1))),
        ]);
        assert!(Opacity::new(v(0)).allows(&opaque_history));
        assert!(StrictSerializability::new(v(0)).allows(&opaque_history));
    }

    #[test]
    fn real_time_still_enforced_between_committed() {
        // T1 commits x1=1 before T2 starts; T2 reads 0 and commits.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(1))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(1), Operation::TxRead(x(0))),
            Action::respond(p(1), Response::ValueReturned(v(0))),
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Committed),
        ]);
        assert!(!StrictSerializability::new(v(0)).allows(&h));
    }

    #[test]
    fn pending_commit_counted_when_observed() {
        // T1's tryC pending, T2 reads its write and commits: serializable
        // by completing T1 as committed.
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
            Action::invoke(p(1), Operation::TxCommit),
            Action::respond(p(1), Response::Committed),
        ]);
        assert!(StrictSerializability::new(v(0)).allows(&h));
    }

    #[test]
    fn empty_history_serializable() {
        assert!(StrictSerializability::new(v(0)).allows(&History::new()));
    }
}
