//! Property-based cross-validation of the safety checkers.
//!
//! Every property runs on a fixed number of generated cases; case `seed`
//! is drawn from a [`SmallRng`] seeded with `seed`, so a case is a pure
//! function of its seed. A failing case names its seed and prints the
//! generated history after the assertion's own panic message; to replay
//! it alone, narrow the seed range in [`for_each_case`] to that seed.

use slx_history::{
    completions, Action, History, Operation, ProcessId, Response, TransactionStatus, TxnView,
    Value, VarId,
};
use slx_memory::SmallRng;
use slx_safety::{FinalStateOpacity, Opacity, SafetyProperty, StrictSerializability};

const N: usize = 3;

/// Cases per property.
const CASES: u64 = 256;

/// Runs `property` on [`CASES`] TM histories of up to `max_len - 1`
/// actions, case `seed` being drawn from a generator seeded with `seed`.
fn for_each_case(max_len: usize, property: impl Fn(&History)) {
    for seed in 0..CASES {
        let h = arb_tm_history(&mut SmallRng::seed_from_u64(seed), max_len);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&h)));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {h:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn arb_value(rng: &mut SmallRng) -> Value {
    Value::new(rng.gen_index(3) as i64)
}

/// Random *well-formed TM* histories over one variable: each action
/// extends a random process legally, keeping both invoke/response
/// alternation and TM-client discipline (`start()` only outside a
/// transaction, everything else only inside one). A response is `A` one
/// time in four and of the kind its operation returns otherwise; a read
/// returns the most recent value written anywhere in the history,
/// looking past each write one time in four (the initial 0 if it runs
/// out), so most but not all generated histories are opaque.
fn arb_tm_history(rng: &mut SmallRng, max_len: usize) -> History {
    let x = VarId::new(0);
    let mut h = History::new();
    let mut pending: [Option<Operation>; N] = [None; N];
    let mut in_txn = [false; N];
    for _ in 0..rng.gen_index(max_len) {
        let i = rng.gen_index(N);
        let proc = ProcessId::new(i);
        if let Some(op) = pending[i].take() {
            let resp = match op {
                _ if rng.gen_index(4) == 0 => Response::Aborted,
                Operation::TxRead(_) => {
                    let written = h.iter().rev().find_map(|a| match a.as_invoke() {
                        Some(Operation::TxWrite(_, v)) if rng.gen_index(4) != 0 => Some(v),
                        _ => None,
                    });
                    Response::ValueReturned(written.unwrap_or(Value::new(0)))
                }
                Operation::TxCommit => Response::Committed,
                _ => Response::Ok,
            };
            in_txn[i] = !matches!(resp, Response::Committed | Response::Aborted);
            h.push(Action::respond(proc, resp));
        } else {
            let op = match rng.gen_index(3) {
                _ if !in_txn[i] => Operation::TxStart,
                0 => Operation::TxRead(x),
                1 => Operation::TxWrite(x, arb_value(rng)),
                _ => Operation::TxCommit,
            };
            in_txn[i] = true;
            pending[i] = Some(op);
            h.push(Action::invoke(proc, op));
        }
    }
    assert!(h.is_well_formed() && TxnView::parse(&h).client_well_formed());
    h
}

#[test]
fn opacity_implies_strict_serializability() {
    for_each_case(28, |h| {
        if Opacity::new(Value::new(0)).allows(h) {
            assert!(
                StrictSerializability::new(Value::new(0)).allows(h),
                "opaque but not strictly serializable: {h}"
            );
        }
    });
}

#[test]
fn opacity_implies_final_state_opacity() {
    for_each_case(28, |h| {
        if Opacity::new(Value::new(0)).allows(h) {
            assert!(FinalStateOpacity::new(Value::new(0)).is_opaque(h));
        }
    });
}

#[test]
fn completions_close_all_transactions() {
    for_each_case(28, |h| {
        let cs = completions(h);
        assert!(!cs.is_empty());
        for c in &cs {
            let view = TxnView::parse(c);
            for t in view.transactions() {
                assert_ne!(
                    t.status(),
                    TransactionStatus::Live,
                    "completion {c} left live txn"
                );
            }
            // Completions only append.
            assert!(h.is_prefix_of(c));
        }
        // Number of completions = 2^(commit-pending transactions).
        let pending_commits = TxnView::parse(h)
            .transactions()
            .iter()
            .filter(|t| {
                t.status() == TransactionStatus::Live
                    && matches!(
                        t.events.last(),
                        Some(slx_history::TxnEvent::TryCommit { resp: None })
                    )
            })
            .count();
        assert_eq!(cs.len(), 1usize << pending_commits);
    });
}

#[test]
fn opacity_iff_some_completion_final_state_opaque() {
    // The definitional connection between the three artifacts: a
    // history's final-state opacity is equivalent to some *completion*
    // replaying consistently with all transactions closed. (Checked on
    // the final prefix only — full opacity additionally quantifies
    // over prefixes.)
    for_each_case(28, |h| {
        let fso = FinalStateOpacity::new(Value::new(0));
        let direct = fso.is_opaque(h);
        let via_completions = completions(h).iter().any(|c| fso.is_opaque(c));
        assert_eq!(direct, via_completions, "history {h}");
    });
}
