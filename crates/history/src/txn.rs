//! Transaction-level view of transactional-memory histories.
//!
//! Opacity (Section 4.1) and the safety property `S` of Section 5.3 are
//! stated in terms of *transactions*, not raw actions. This module parses a
//! TM history into per-process sequences of transactions with their events,
//! boundaries and statuses, exposing exactly the notions the paper uses:
//! per-process transaction sequence numbers (`Ti is the t-th transaction in
//! h|pi`), real-time precedence between transactions, concurrency and
//! write sets.

use std::collections::BTreeMap;

use crate::action::{Action, Operation, Response};
use crate::history::History;
use crate::ids::{ProcessId, TxnId, Value, VarId};

/// Final status of a transaction within a (finite) history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransactionStatus {
    /// The transaction received the commit event `C`.
    Committed,
    /// The transaction received an abort event `A` (from any operation).
    Aborted,
    /// The transaction has neither committed nor aborted yet.
    Live,
}

/// One transactional operation within a transaction, with its response (if
/// it completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnEvent {
    /// `start()` request.
    Start {
        /// Response: `Ok` or `Aborted`, if received.
        resp: Option<Response>,
    },
    /// `x.read()` request.
    Read {
        /// The variable read.
        var: VarId,
        /// Response: `ValueReturned(v)` or `Aborted`, if received.
        resp: Option<Response>,
    },
    /// `x.write(v)` request.
    Write {
        /// The variable written.
        var: VarId,
        /// The value written.
        val: Value,
        /// Response: `Ok` or `Aborted`, if received.
        resp: Option<Response>,
    },
    /// `tryC()` request.
    TryCommit {
        /// Response: `Committed` or `Aborted`, if received.
        resp: Option<Response>,
    },
}

impl TxnEvent {
    /// The response attached to the event, if any.
    pub fn response(&self) -> Option<Response> {
        match self {
            TxnEvent::Start { resp }
            | TxnEvent::Read { resp, .. }
            | TxnEvent::Write { resp, .. }
            | TxnEvent::TryCommit { resp } => *resp,
        }
    }
}

/// A single transaction parsed out of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Identifier: process and one-based per-process sequence number.
    pub id: TxnId,
    /// The transactional operations of the transaction, in order.
    pub events: Vec<TxnEvent>,
    /// Index in the history of the `start()` invocation.
    pub start_index: usize,
    /// Index in the history of the terminating `C`/`A` response, if any.
    pub end_index: Option<usize>,
}

impl Transaction {
    /// The status of the transaction.
    pub fn status(&self) -> TransactionStatus {
        for e in &self.events {
            match e.response() {
                Some(Response::Committed) => return TransactionStatus::Committed,
                Some(Response::Aborted) => return TransactionStatus::Aborted,
                _ => {}
            }
        }
        TransactionStatus::Live
    }

    /// Whether the transaction invoked `tryC()`.
    pub fn invoked_commit(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TxnEvent::TryCommit { .. }))
    }

    /// The write set: for each variable, the last value successfully
    /// written by the transaction.
    pub fn write_set(&self) -> BTreeMap<VarId, Value> {
        let mut writes = BTreeMap::new();
        for e in &self.events {
            if let TxnEvent::Write { var, val, resp } = e {
                if matches!(resp, Some(Response::Ok)) {
                    writes.insert(*var, *val);
                }
            }
        }
        writes
    }
}

/// A parsed transaction-level view of a TM history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxnView {
    transactions: Vec<Transaction>,
}

impl TxnView {
    /// Parses a TM history into transactions.
    ///
    /// Transaction boundaries follow the paper: a transaction begins with a
    /// `start()` invocation and ends when any of its operations receives a
    /// commit event `C` or an abort event `A`. Non-transactional actions
    /// are ignored.
    pub fn parse(history: &History) -> TxnView {
        // Per-process: (current open transaction index into `txns`, next seq).
        let mut open: BTreeMap<ProcessId, usize> = BTreeMap::new();
        let mut next_seq: BTreeMap<ProcessId, usize> = BTreeMap::new();
        let mut txns: Vec<Transaction> = Vec::new();

        for (i, a) in history.actions().iter().enumerate() {
            let p = a.proc();
            match a {
                Action::Invoke { op, .. } if op.is_transactional() => {
                    if let Operation::TxStart = op {
                        let seq = next_seq.entry(p).or_insert(1);
                        let id = TxnId::new(p, *seq);
                        *seq += 1;
                        open.insert(p, txns.len());
                        txns.push(Transaction {
                            id,
                            events: vec![TxnEvent::Start { resp: None }],
                            start_index: i,
                            end_index: None,
                        });
                    } else if let Some(&ti) = open.get(&p) {
                        let ev = match op {
                            Operation::TxRead(x) => TxnEvent::Read {
                                var: *x,
                                resp: None,
                            },
                            Operation::TxWrite(x, v) => TxnEvent::Write {
                                var: *x,
                                val: *v,
                                resp: None,
                            },
                            Operation::TxCommit => TxnEvent::TryCommit { resp: None },
                            Operation::TxStart => unreachable!(),
                            _ => continue,
                        };
                        txns[ti].events.push(ev);
                    }
                }
                Action::Respond { resp, .. } => {
                    if let Some(&ti) = open.get(&p) {
                        if let Some(last) = txns[ti].events.last_mut() {
                            let slot = match last {
                                TxnEvent::Start { resp }
                                | TxnEvent::Read { resp, .. }
                                | TxnEvent::Write { resp, .. }
                                | TxnEvent::TryCommit { resp } => resp,
                            };
                            if slot.is_none() {
                                *slot = Some(*resp);
                                if matches!(resp, Response::Committed | Response::Aborted) {
                                    txns[ti].end_index = Some(i);
                                    open.remove(&p);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        TxnView { transactions: txns }
    }

    /// All transactions, in start order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The transactions of one process, in order (their `seq` fields are
    /// `1, 2, ...`).
    pub fn of_process(&self, proc: ProcessId) -> Vec<&Transaction> {
        self.transactions
            .iter()
            .filter(|t| t.id.proc == proc)
            .collect()
    }

    /// TM-client well-formedness: every transaction except possibly the
    /// *last* of each process has completed (received `C` or `A`). A
    /// client that invokes `start()` while its previous transaction is
    /// still live violates the sequential-transaction discipline of the
    /// TM object type; [`crate::completions`] requires this property.
    pub fn client_well_formed(&self) -> bool {
        use std::collections::BTreeMap;
        let mut last_of: BTreeMap<crate::ids::ProcessId, &Transaction> = BTreeMap::new();
        for t in &self.transactions {
            if let Some(prev) = last_of.insert(t.id.proc, t) {
                if prev.status() == TransactionStatus::Live {
                    return false;
                }
            }
        }
        true
    }

    /// Real-time precedence: `a` completes before `b` starts.
    pub fn precedes(&self, a: &Transaction, b: &Transaction) -> bool {
        match a.end_index {
            Some(e) => e < b.start_index,
            None => false,
        }
    }

    /// Whether two transactions are concurrent (neither precedes the other).
    pub fn concurrent(&self, a: &Transaction, b: &Transaction) -> bool {
        !self.precedes(a, b) && !self.precedes(b, a) && a.id != b.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }
    fn x(i: usize) -> VarId {
        VarId::new(i)
    }

    /// p1: start·ok, x1.read·0, x1.write(5)·ok, tryC·C, then a second start.
    fn committed_then_open() -> History {
        History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxRead(x(0))),
            Action::respond(p(0), Response::ValueReturned(v(0))),
            Action::invoke(p(0), Operation::TxWrite(x(0), v(5))),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
        ])
    }

    #[test]
    fn parses_boundaries_and_sequence_numbers() {
        let view = TxnView::parse(&committed_then_open());
        let ts = view.of_process(p(0));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].id.seq, 1);
        assert_eq!(ts[0].status(), TransactionStatus::Committed);
        assert_eq!(ts[1].id.seq, 2);
        assert_eq!(ts[1].status(), TransactionStatus::Live);
        assert!(ts[0].invoked_commit());
        assert!(!ts[1].invoked_commit());
    }

    #[test]
    fn abort_ends_transaction() {
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxRead(x(0))),
            Action::respond(p(0), Response::Aborted),
            Action::invoke(p(0), Operation::TxStart),
        ]);
        let view = TxnView::parse(&h);
        let ts = view.of_process(p(0));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].status(), TransactionStatus::Aborted);
        assert_eq!(ts[0].end_index, Some(3));
        assert_eq!(ts[1].status(), TransactionStatus::Live);
    }

    #[test]
    fn write_set() {
        let view = TxnView::parse(&committed_then_open());
        let t1 = &view.of_process(p(0))[0].clone();
        assert_eq!(t1.write_set().get(&x(0)), Some(&v(5)));
    }

    #[test]
    fn precedence_and_concurrency() {
        // T[p1,1] commits before T[p2,1] starts; T[p2,1] and T[p1,2] overlap.
        let h = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxCommit),
            Action::respond(p(0), Response::Committed),
            Action::invoke(p(1), Operation::TxStart),
            Action::respond(p(1), Response::Ok),
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
        ]);
        let view = TxnView::parse(&h);
        let t11 = view.of_process(p(0))[0].clone();
        let t21 = view.of_process(p(1))[0].clone();
        let t12 = view.of_process(p(0))[1].clone();
        assert!(view.precedes(&t11, &t21));
        assert!(!view.precedes(&t21, &t11));
        assert!(view.concurrent(&t21, &t12));
        assert!(!view.concurrent(&t11, &t21));
    }

    #[test]
    fn client_well_formedness() {
        let good = committed_then_open();
        assert!(TxnView::parse(&good).client_well_formed());
        // start() over a live transaction: ill-formed at the client level.
        let bad = History::from_actions([
            Action::invoke(p(0), Operation::TxStart),
            Action::respond(p(0), Response::Ok),
            Action::invoke(p(0), Operation::TxStart),
        ]);
        assert!(bad.is_well_formed());
        assert!(!TxnView::parse(&bad).client_well_formed());
    }
}
